//! Temporal update-safety: prove every intermediate state of a churn
//! sequence is safe for in-flight traffic.
//!
//! The static checker ([`crate::check_state_with`]) proves exact delivery
//! for the *current* fabric state. Under churn there is a second, sneakier
//! correctness surface: a packet encoded under epoch `N` may still be in
//! flight while the controller moves the fabric to epoch `N+1`. Elmo is
//! designed so this is safe — headers are source-routed, and every event
//! that changes what a live header delivers bumps the epoch and names the
//! senders to reprogram — but "designed so" is exactly the kind of claim
//! that rots. This module checks it mechanically.
//!
//! The model: immediately before each churn event, snapshot the touched
//! group's epoch, receiver set, and one encoded header per sender (a proxy
//! for the oldest possible in-flight packet), plus the exact delivery
//! multiset those headers produce on the pre-event fabric. Apply the
//! event, sync the fabric, then re-walk the *old* headers against the
//! *new* fabric. Each (sender, header) must land in one of two buckets:
//!
//! * **Exact** — the old header still delivers the exact pre-event
//!   receiver multiset. In-flight traffic is untouched.
//! * **Converged** — delivery diverged, but the event left this sender's
//!   installed header bitwise unchanged *and* the old header now delivers
//!   exactly one copy to every current receiver. In-flight packets are
//!   indistinguishable from fresh ones (same header, same fabric), so
//!   there is no stale flow to drain: traffic converged instantly to the
//!   new membership. Full re-encodes that reproduce a sender's upstream
//!   section verbatim land here.
//! * **Versioned out** — delivery diverged, but the event advanced the
//!   group's epoch past the snapshot *and* flagged this sender's
//!   hypervisor for reprogramming ([`UpdateSet::epoch`] +
//!   `all_senders`/`hypervisors`). The divergence is attributable: a
//!   deployment agent draining epoch-`N` flows knows exactly which flows
//!   are stale.
//!
//! Anything else is a [`TemporalViolation`]: either the delivery of a
//! live-epoch header changed with no epoch bump to account for it
//! (`UnversionedDivergence` — silent corruption of in-flight traffic), or
//! the epoch moved but the update set never named the sender whose header
//! went stale (`UnattributedDivergence` — an agent following the update
//! set would leave a corrupted flow installed forever).

use std::collections::{BTreeMap, BTreeSet};

use elmo_controller::{Controller, GroupId, GroupState, UpdateSet};
use elmo_core::{ElmoHeader, HeaderLayout};
use elmo_dataplane::Fabric;
use elmo_obs::JsonValue;
use elmo_topology::{Clos, HostId};

use crate::walk;

/// Pre-event capture of one group: the in-flight-packet proxy.
#[derive(Clone, Debug)]
pub struct EpochSnapshot {
    /// Cloned pre-event group state (the walk needs `id` + `outer_addr`;
    /// keeping the whole state also survives group deletion mid-stream).
    state: GroupState,
    /// Topology and layout the headers were encoded against, so the
    /// post-event re-walk needs no controller access.
    topo: Clos,
    layout: HeaderLayout,
    /// Epoch the headers below were encoded under.
    pub epoch: u64,
    /// Hosts with at least one receiver VM at snapshot time.
    pub receivers: BTreeSet<HostId>,
    /// One encoded header per sampled sender host.
    headers: Vec<(HostId, ElmoHeader)>,
    /// Exact delivery multiset of each header on the pre-event fabric.
    deliveries: Vec<BTreeMap<HostId, u32>>,
}

impl EpochSnapshot {
    /// Capture `group` against the pre-event `fabric`. `max_senders`
    /// bounds how many sender hosts are sampled (`0` = all). Returns
    /// `None` for missing, fallback, or senderless groups — there is no
    /// in-flight multicast traffic to protect.
    pub fn capture(
        ctl: &Controller,
        fabric: &Fabric,
        group: GroupId,
        max_senders: usize,
    ) -> Option<EpochSnapshot> {
        let state = ctl.group(group)?;
        if state.unicast_fallback {
            return None;
        }
        let layout = ctl.layout();
        let mut headers = Vec::new();
        for h in state.sender_hosts() {
            if max_senders != 0 && headers.len() >= max_senders {
                break;
            }
            let header = ctl.header_for(group, h)?;
            headers.push((h, header));
        }
        if headers.is_empty() {
            return None;
        }
        let deliveries = headers
            .iter()
            .map(|(h, hd)| walk::walk_sender(ctl.topo(), layout, fabric, state, *h, hd).deliveries)
            .collect();
        Some(EpochSnapshot {
            state: state.clone(),
            topo: *ctl.topo(),
            layout: *layout,
            epoch: state.epoch,
            receivers: state.receiver_hosts().collect(),
            headers,
            deliveries,
        })
    }

    /// Number of sampled sender headers.
    pub fn senders(&self) -> usize {
        self.headers.len()
    }
}

/// Why an intermediate state is unsafe for in-flight traffic.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TemporalViolationKind {
    /// Delivery of a pre-event header changed but the group's epoch did
    /// not advance: in-flight packets are corrupted with no versioning
    /// record that anything changed.
    UnversionedDivergence,
    /// The epoch advanced, but the update set never flagged this sender's
    /// hypervisor for reprogramming: its stale flow would survive the
    /// rollout and keep misdelivering.
    UnattributedDivergence,
}

/// One unsafe intermediate state, attributed to the event that created it.
#[derive(Clone, Debug)]
pub struct TemporalViolation {
    pub kind: TemporalViolationKind,
    pub group: GroupId,
    pub sender: HostId,
    /// Index of the offending event in the replayed stream.
    pub event_index: usize,
    /// Epoch the diverging header was encoded under.
    pub epoch_before: u64,
    /// Epoch the update set reported after the event.
    pub epoch_after: u64,
    pub detail: String,
}

impl TemporalViolation {
    pub fn render(&self) -> String {
        format!(
            "event {} group {} sender {}: {:?} (epoch {} -> {}): {}",
            self.event_index,
            self.group.0,
            self.sender.0,
            self.kind,
            self.epoch_before,
            self.epoch_after,
            self.detail
        )
    }
}

/// Verdict for one event's intermediate state.
#[derive(Clone, Debug, Default)]
pub struct StepOutcome {
    /// Sender headers re-walked.
    pub senders_walked: usize,
    /// Headers whose delivery was byte-exact to the pre-event walk.
    pub exact: usize,
    /// Headers left bitwise unchanged by the event whose delivery
    /// converged exactly to the new receiver set.
    pub converged: usize,
    /// Headers that diverged but were attributably versioned out.
    pub versioned_out: usize,
    pub violations: Vec<TemporalViolation>,
}

/// Re-walk `snap`'s pre-event headers against the post-event `fabric` and
/// classify each sender as exact / converged / versioned-out / violating.
/// `ctl` is the controller *after* the event (for the converged check);
/// `updates` is the event's own update set (attribution evidence);
/// `event_index` tags any violation with its position in the stream.
pub fn check_update(
    snap: &EpochSnapshot,
    ctl: &Controller,
    fabric: &Fabric,
    updates: &UpdateSet,
    event_index: usize,
) -> StepOutcome {
    let mut out = StepOutcome::default();
    for (i, (sender, header)) in snap.headers.iter().enumerate() {
        out.senders_walked += 1;
        // Pre-event state: the walk only reads the group's invariant id
        // and outer_addr, so the clone stays valid after the event.
        let walked = walk::walk_sender(
            &snap.topo,
            &snap.layout,
            fabric,
            &snap.state,
            *sender,
            header,
        );
        if walked.deliveries == snap.deliveries[i] && walked.violations.is_empty() {
            out.exact += 1;
            continue;
        }
        if walked.violations.is_empty() && converged(snap, ctl, *sender, header, &walked.deliveries)
        {
            out.converged += 1;
            continue;
        }
        let diff = describe_divergence(&snap.deliveries[i], &walked.deliveries);
        if updates.epoch <= snap.epoch {
            out.violations.push(TemporalViolation {
                kind: TemporalViolationKind::UnversionedDivergence,
                group: snap.state.id,
                sender: *sender,
                event_index,
                epoch_before: snap.epoch,
                epoch_after: updates.epoch,
                detail: diff,
            });
        } else if updates.all_senders || updates.hypervisors.contains(sender) {
            out.versioned_out += 1;
        } else {
            out.violations.push(TemporalViolation {
                kind: TemporalViolationKind::UnattributedDivergence,
                group: snap.state.id,
                sender: *sender,
                event_index,
                epoch_before: snap.epoch,
                epoch_after: updates.epoch,
                detail: diff,
            });
        }
    }
    out
}

/// Whether a diverging pre-event header is *converged* rather than
/// stale: the event left the sender's installed header bitwise unchanged
/// (so in-flight packets equal fresh packets) and the walk delivers
/// exactly one copy to every current receiver host. Spray to
/// non-receivers is tolerated here exactly as in the static checker —
/// whether it leaks is a subscription question the burst-level
/// [`crate::check_state`] pass owns.
fn converged(
    snap: &EpochSnapshot,
    ctl: &Controller,
    sender: HostId,
    old_header: &ElmoHeader,
    walked: &BTreeMap<HostId, u32>,
) -> bool {
    let state = match ctl.group(snap.state.id) {
        Some(s) if !s.unicast_fallback => s,
        _ => return false,
    };
    if ctl.header_for(state.id, sender).as_ref() != Some(old_header) {
        return false;
    }
    state
        .receiver_hosts()
        .filter(|&h| h != sender)
        .all(|h| walked.get(&h).copied().unwrap_or(0) == 1)
}

fn describe_divergence(before: &BTreeMap<HostId, u32>, after: &BTreeMap<HostId, u32>) -> String {
    let lost: Vec<u32> = before
        .iter()
        .filter(|(h, &n)| after.get(h).copied().unwrap_or(0) < n)
        .map(|(h, _)| h.0)
        .collect();
    let gained: Vec<u32> = after
        .iter()
        .filter(|(h, &n)| before.get(h).copied().unwrap_or(0) < n)
        .map(|(h, _)| h.0)
        .collect();
    format!(
        "pre-epoch header delivery diverged: lost hosts {:?}, gained hosts {:?}",
        lost, gained
    )
}

/// Aggregate result of a temporal sweep over a churn stream.
#[derive(Clone, Debug, Default)]
pub struct TemporalReport {
    /// Churn events applied to the controller.
    pub events: usize,
    /// Events with a capturable snapshot (live multicast group with at
    /// least one sender); the rest had no in-flight traffic to protect.
    pub steps_checked: usize,
    /// Total (sender, header) pairs re-walked across all steps.
    pub senders_walked: usize,
    /// Headers that kept exact pre-event delivery.
    pub exact: usize,
    /// Headers left unchanged by their event that converged exactly to
    /// the new receiver set.
    pub converged: usize,
    /// Headers attributably versioned out by their event.
    pub versioned_out: usize,
    pub violations: Vec<TemporalViolation>,
}

impl TemporalReport {
    /// True when every intermediate state was delivery-safe.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Fold one event's outcome into the sweep totals.
    pub fn absorb(&mut self, step: StepOutcome) {
        self.steps_checked += 1;
        self.senders_walked += step.senders_walked;
        self.exact += step.exact;
        self.converged += step.converged;
        self.versioned_out += step.versioned_out;
        self.violations.extend(step.violations);
    }

    /// Render as JSON with stable key order.
    pub fn to_json(&self) -> JsonValue {
        let mut m = BTreeMap::new();
        m.insert("ok".into(), JsonValue::Bool(self.ok()));
        m.insert("events".into(), JsonValue::U64(self.events as u64));
        m.insert(
            "steps_checked".into(),
            JsonValue::U64(self.steps_checked as u64),
        );
        m.insert(
            "senders_walked".into(),
            JsonValue::U64(self.senders_walked as u64),
        );
        m.insert("exact".into(), JsonValue::U64(self.exact as u64));
        m.insert("converged".into(), JsonValue::U64(self.converged as u64));
        m.insert(
            "versioned_out".into(),
            JsonValue::U64(self.versioned_out as u64),
        );
        m.insert(
            "violations".into(),
            JsonValue::Array(
                self.violations
                    .iter()
                    .map(|v| JsonValue::String(v.render()))
                    .collect(),
            ),
        );
        JsonValue::Object(m)
    }
}

#[cfg(test)]
mod tests {
    use std::net::Ipv4Addr;

    use elmo_controller::{deploy, ControllerConfig, Deployment, MemberRole};
    use elmo_dataplane::SwitchConfig;
    use elmo_topology::LeafId;

    use super::*;

    /// A group wide enough (and a budget tight enough) that the encoder
    /// must spill leaf s-rules — the shared state the temporal checker
    /// exists to protect.
    fn setup() -> (Controller, Deployment, GroupId) {
        let topo = Clos::paper_example();
        // Tiny header budget: the encoder must spill most leaves to
        // s-rules, the shared state whose lifecycle we are checking.
        let cfg = ControllerConfig {
            header_budget_bytes: 12,
            r: 0,
            leaf_fmax: 100,
            spine_fmax: 100,
        };
        let mut ctl = Controller::new(topo, cfg);
        let gid = GroupId(1);
        let members: Vec<(HostId, MemberRole)> = topo
            .hosts()
            .step_by(3)
            .map(|h| (h, MemberRole::Both))
            .collect();
        ctl.create_group(gid, elmo_net::Vni(7), Ipv4Addr::new(225, 0, 0, 1), members);
        let uncapped = SwitchConfig {
            group_table_capacity: usize::MAX,
            ..SwitchConfig::default()
        };
        let dep = Deployment::of(&ctl, uncapped).expect("uncapped group tables");
        let state = ctl.group(gid).expect("group");
        assert!(
            !state.unicast_fallback && !state.enc.d_leaf.s_rules.is_empty(),
            "fixture must spill leaf s-rules (budget too generous?)"
        );
        (ctl, dep, gid)
    }

    #[test]
    fn unchanged_fabric_walks_exact() {
        let (ctl, dep, gid) = setup();
        let snap = EpochSnapshot::capture(&ctl, &dep.fabric, gid, 0).expect("snapshot");
        let out = check_update(&snap, &ctl, &dep.fabric, &UpdateSet::default(), 0);
        assert_eq!(out.exact, snap.senders(), "{:?}", out.violations);
        assert!(out.violations.is_empty());
        assert_eq!(out.versioned_out, 0);
    }

    #[test]
    fn real_membership_events_are_exact_or_versioned_out() {
        let (mut ctl, mut dep, gid) = setup();
        let mut report = TemporalReport::default();
        // A receiver join on a fresh host, then its leave: both exercise
        // the controller's real membership path.
        for (i, (host, join)) in [(HostId(1), true), (HostId(1), false)].iter().enumerate() {
            let snap = EpochSnapshot::capture(&ctl, &dep.fabric, gid, 0).expect("snapshot");
            let updates = if *join {
                ctl.join(gid, *host, MemberRole::Receiver)
            } else {
                ctl.leave(gid, *host, MemberRole::Receiver)
            };
            dep.apply(&ctl, &deploy::ops(&ctl, gid, &updates))
                .expect("uncapped group tables");
            report.events += 1;
            report.absorb(check_update(&snap, &ctl, &dep.fabric, &updates, i));
        }
        assert!(
            report.ok(),
            "real events must be temporally safe: {:#?}",
            report.violations
        );
        assert_eq!(report.steps_checked, 2);
        assert!(report.senders_walked > 0);
    }

    #[test]
    fn unversioned_srule_free_is_caught() {
        let (ctl, mut dep, gid) = setup();
        let fabric = &mut dep.fabric;
        let snap = EpochSnapshot::capture(&ctl, fabric, gid, 0).expect("snapshot");
        // Seeded bug: a buggy reconfiguration frees a live leaf s-rule
        // without bumping the group's epoch.
        let state = ctl.group(gid).expect("group");
        let (leaf, _) = state.enc.d_leaf.s_rules[0].clone();
        assert!(fabric
            .leaf_mut(LeafId(leaf))
            .remove_srule(&state.outer_addr));
        let out = check_update(&snap, &ctl, fabric, &UpdateSet::default(), 7);
        let v = out
            .violations
            .first()
            .expect("premature s-rule free must be flagged");
        assert_eq!(v.kind, TemporalViolationKind::UnversionedDivergence);
        assert_eq!(v.event_index, 7);
        assert_eq!(v.group, gid);
        assert!(v.render().contains("lost hosts"), "{}", v.render());
    }

    #[test]
    fn versioned_divergence_needs_sender_attribution() {
        let (ctl, mut dep, gid) = setup();
        let fabric = &mut dep.fabric;
        let snap = EpochSnapshot::capture(&ctl, fabric, gid, 0).expect("snapshot");
        let state = ctl.group(gid).expect("group");
        let (leaf, _) = state.enc.d_leaf.s_rules[0].clone();
        fabric
            .leaf_mut(LeafId(leaf))
            .remove_srule(&state.outer_addr);
        // Epoch advanced but the update set names no sender hypervisors:
        // stale flows would never be drained.
        let bumped = UpdateSet {
            epoch: snap.epoch + 1,
            ..UpdateSet::default()
        };
        let out = check_update(&snap, &ctl, fabric, &bumped, 0);
        assert!(out
            .violations
            .iter()
            .all(|v| v.kind == TemporalViolationKind::UnattributedDivergence));
        assert!(!out.violations.is_empty());
        // Same divergence with `all_senders` set is attributable.
        let attributed = UpdateSet {
            epoch: snap.epoch + 1,
            all_senders: true,
            ..UpdateSet::default()
        };
        let out = check_update(&snap, &ctl, fabric, &attributed, 0);
        assert!(out.violations.is_empty(), "{:#?}", out.violations);
        assert!(out.versioned_out > 0);
    }
}
