//! Differential mode: replay a deterministic sample of (group, sender)
//! pairs through the fabric's replay engine and assert the observed deliveries
//! match the static walk's reachable set, byte for byte.
//!
//! The static checker proves properties over the rule state; this mode
//! proves the checker itself models the data plane faithfully. Any
//! disagreement is reported as a violation: a host the walk predicts but
//! the replay misses (`Loss`), the reverse (`Leakage`), copy-count skew
//! (`Duplicate`), or delivered bytes differing from the expected
//! header-stripped copy (`EncapMismatch`).

use std::collections::BTreeMap;
use std::sync::Arc;

use elmo_controller::{Controller, GroupId};
use elmo_core::SplitMix64;
use elmo_dataplane::{DeliveryBatch, Fabric, HypervisorSwitch, SenderFlow};
use elmo_topology::HostId;

use crate::report::{RuleRef, Violation, ViolationKind, Witness};
use crate::walk;

/// Result of one differential run.
#[derive(Clone, Debug)]
pub struct DifferentialOutcome {
    /// (group, sender) pairs actually replayed.
    pub sampled: usize,
    /// Disagreements between the static walk and the replay.
    pub violations: Vec<Violation>,
    /// For every diverging (group, sender), the traced copy tree of a
    /// re-run — the postmortem witness the report embeds.
    pub divergence_traces: Vec<DivergenceTrace>,
}

/// The traced replication tree of one diverging replay: which switches
/// copied the packet where, so a Loss/Leakage report shows *where* the
/// tree and the static walk part ways instead of only that they do.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DivergenceTrace {
    /// The diverging group.
    pub group: GroupId,
    /// The replayed sender.
    pub sender: HostId,
    /// The copy tree as the versioned `elmo_trace` JSON document.
    pub tree_json: String,
}

/// Replay up to `max_samples` groups (one deterministic random sender
/// each) through `fabric` and diff against the static walk. Requires the
/// same installed state `check_state` sees; the fabric is only borrowed
/// mutably because injection updates switch counters.
pub fn differential_check(
    ctl: &Controller,
    fabric: &mut Fabric,
    max_samples: usize,
    seed: u64,
) -> DifferentialOutcome {
    let layout = *ctl.layout();
    let mut ids: Vec<GroupId> = ctl
        .groups()
        .filter(|g| !g.unicast_fallback)
        .map(|g| g.id)
        .collect();
    ids.sort_unstable_by_key(|g| g.0);
    // Deterministic sample without replacement (Fisher-Yates prefix).
    let mut rng = SplitMix64::new(seed);
    for i in (1..ids.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        ids.swap(i, j);
    }
    ids.truncate(max_samples);
    ids.sort_unstable_by_key(|g| g.0);

    let mut violations = Vec::new();
    let mut divergence_traces = Vec::new();
    let mut sampled = 0usize;
    let mut delivered = DeliveryBatch::new();
    for gid in ids {
        let Some(state) = ctl.group(gid) else {
            continue;
        };
        let senders: Vec<HostId> = state.sender_hosts().collect();
        if senders.is_empty() {
            continue;
        }
        let sender = senders[(rng.next_u64() % senders.len() as u64) as usize];
        let Some(header) = ctl.header_for(gid, sender) else {
            violations.push(Violation {
                group: Some(gid),
                kind: ViolationKind::Loss,
                witness: Witness {
                    host: Some(sender),
                    ..Witness::default()
                },
                detail: "controller produced no header for a multicast sender".into(),
            });
            continue;
        };
        sampled += 1;
        let predicted =
            walk::walk_sender(ctl.topo(), &layout, fabric, state, sender, &header).deliveries;

        let mut hv = HypervisorSwitch::new(sender);
        hv.install_flow(
            state.vni,
            state.tenant_addr,
            SenderFlow::new(state.outer_addr, state.vni, &header, &layout, vec![]),
        );
        let payload: Arc<[u8]> = format!("elmo-verify differential g{}", gid.0)
            .into_bytes()
            .into();
        let mut pkts = hv.send_flight(state.vni, state.tenant_addr, &payload);
        if pkts.len() != 1 {
            violations.push(Violation {
                group: Some(gid),
                kind: ViolationKind::EncapMismatch,
                witness: Witness {
                    rule: Some(RuleRef::Encap),
                    host: Some(sender),
                    ..Witness::default()
                },
                detail: format!("sender flow produced {} packets, expected 1", pkts.len()),
            });
            continue;
        }
        let pkt = pkts.remove(0);
        let before = violations.len();
        // Every host copy is the same bytes: the outer stack with the Elmo
        // header stripped, plus the payload.
        let expected_bytes = {
            let mut host_copy = pkt.clone();
            host_copy.elmo = None;
            host_copy.to_bytes(&layout)
        };

        let flight = [(sender, pkt)];
        fabric.replay(&flight, &mut delivered);
        let mut observed: BTreeMap<HostId, u32> = BTreeMap::new();
        delivered.for_each(|h, bytes| {
            *observed.entry(h).or_insert(0) += 1;
            if bytes != expected_bytes {
                violations.push(Violation {
                    group: Some(gid),
                    kind: ViolationKind::EncapMismatch,
                    witness: Witness {
                        rule: Some(RuleRef::Encap),
                        host: Some(h),
                        ..Witness::default()
                    },
                    detail: "delivered bytes differ from the expected header-stripped copy".into(),
                });
            }
        });
        for (&h, &n) in &predicted {
            let got = observed.get(&h).copied().unwrap_or(0);
            if got != n {
                violations.push(Violation {
                    group: Some(gid),
                    kind: if got < n {
                        ViolationKind::Loss
                    } else {
                        ViolationKind::Duplicate
                    },
                    witness: Witness {
                        host: Some(h),
                        ..Witness::default()
                    },
                    detail: format!("static walk predicts {n} copies, replay delivered {got}"),
                });
            }
        }
        for (&h, &n) in &observed {
            if !predicted.contains_key(&h) {
                violations.push(Violation {
                    group: Some(gid),
                    kind: ViolationKind::Leakage,
                    witness: Witness {
                        host: Some(h),
                        ..Witness::default()
                    },
                    detail: format!("replay delivered {n} copies the static walk does not predict"),
                });
            }
        }
        if violations.len() > before {
            // Divergence: attach the traced copy tree of a re-run as the
            // witness. Tracing never changes deliveries, so the re-run
            // reproduces exactly what the diff above observed.
            fabric.start_tree_trace();
            fabric.replay(&flight, &mut delivered);
            let events = fabric.take_tree_trace();
            let tree = elmo_obs::CopyTree::build(0, &events, |n| {
                elmo_dataplane::trace_node_label(ctl.topo(), n)
            });
            divergence_traces.push(DivergenceTrace {
                group: gid,
                sender,
                tree_json: tree.to_json(),
            });
        }
    }
    DifferentialOutcome {
        sampled,
        violations,
        divergence_traces,
    }
}
