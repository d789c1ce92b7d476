//! `elmo-verify` — static rule-state verification for Elmo multicast.
//!
//! A Veriflow-style checker over the *compiled* state: switch p-rules
//! (carried in per-sender headers), s-rule group tables, default p-rules,
//! and hypervisor encap tables. Without injecting a single packet it
//! proves, per group:
//!
//! 1. **Exact delivery** — the statically reachable host set equals the
//!    member receiver set: no loss, no duplicates, no leakage to
//!    subscribed non-members, no sender echo.
//! 2. **Loop freedom and bounded pop depth** — every rule-graph edge
//!    strictly advances the header pop order; downstream bitmaps never
//!    target up-facing ports.
//! 3. **Resource budgets** — encoded headers fit the controller's byte
//!    budget and the switch parser's header-vector limit; group tables
//!    respect `Fmax`, with a per-tier utilization report.
//! 4. **Redundancy accounting** — static link/byte counts per sender.
//!    The same walk ([`walk`]) run over an encoding's own rules prices
//!    the Figure 4/5 traffic (`elmo_sim::metrics::traffic_model`), so
//!    comparing the two is an install-fidelity check.
//!
//! Entry points: [`check_state`] (library API, callable after batch
//! admission), the `elmo-eval verify` subcommand (JSON report), and
//! [`differential_check`] (replay a sampled subset through the fast-path
//! fabric and assert the static reachable set matches observed deliveries
//! byte for byte).
//!
//! ```no_run
//! # use elmo_controller::{Controller, ControllerConfig};
//! # use elmo_dataplane::{Fabric, SwitchConfig};
//! # use elmo_topology::Clos;
//! let topo = Clos::paper_example();
//! let ctl = Controller::new(topo, ControllerConfig::paper_default(12));
//! let fabric = Fabric::new(topo, SwitchConfig::default());
//! // ... create groups, install s-rules ...
//! let report = elmo_verify::check_state(&ctl, &fabric);
//! assert!(report.ok(), "{:#?}", report.violations);
//! ```
#![forbid(unsafe_code)]

pub mod differential;
pub mod report;
mod tables;
pub mod temporal;
pub mod walk;

use std::collections::{BTreeMap, BTreeSet};

use elmo_controller::{Controller, GroupState};
use elmo_dataplane::{ElmoPacketRepr, Fabric, HypervisorSwitch};
use elmo_topology::{HostId, LeafId, SwitchRef};

pub use differential::{differential_check, DifferentialOutcome, DivergenceTrace};
pub use report::{
    BudgetSummary, RedundancySummary, Report, RuleRef, SenderTraffic, TableTier, Violation,
    ViolationKind, Witness,
};
pub use temporal::{
    check_update, EpochSnapshot, StepOutcome, TemporalReport, TemporalViolation,
    TemporalViolationKind,
};

/// The static walk's predicted delivery multiset for one (group, sender)
/// pair: host → expected copy count, computed from the compiled header
/// and the installed rule state without injecting a packet. This is the
/// independent oracle `elmo-eval trace` cross-checks a traced copy tree
/// against — the tree's host leaves must equal these keys exactly.
pub fn static_walk_deliveries(
    ctl: &Controller,
    fabric: &Fabric,
    group: elmo_controller::GroupId,
    sender: HostId,
) -> Result<BTreeMap<HostId, u32>, String> {
    let state = ctl
        .group(group)
        .ok_or_else(|| format!("group {} does not exist", group.0))?;
    if state.unicast_fallback {
        return Err(format!("group {} is degraded to unicast fallback", group.0));
    }
    let header = ctl
        .header_for(group, sender)
        .ok_or_else(|| format!("no header for sender {} in group {}", sender.0, group.0))?;
    let layout = *ctl.layout();
    Ok(walk::walk_sender(ctl.topo(), &layout, fabric, state, sender, &header).deliveries)
}

/// Knobs for [`check_state_with`].
#[derive(Clone, Copy, Debug, Default)]
pub struct VerifyOptions {
    /// Record a [`SenderTraffic`] entry per (group, sender) pair, for
    /// cross-checking against the same walk over the encoding's rules.
    pub collect_traffic: bool,
    /// Check at most this many senders per group (`0` = all). Properties
    /// are per-sender, so sampling trades completeness for time on very
    /// large states.
    pub max_senders_per_group: usize,
    /// Verify headers against this byte budget instead of the
    /// controller's (e.g. re-audit existing state after a config
    /// tightening).
    pub header_budget: Option<usize>,
}

/// Verify every property over all compiled state, with default options
/// and no hypervisor tables.
pub fn check_state(ctl: &Controller, fabric: &Fabric) -> Report {
    check_state_with(ctl, fabric, &[], &VerifyOptions::default())
}

/// [`check_state`] plus hypervisor encap/subscription checks (pass the
/// hypervisors whose tables the controller manages) and options.
pub fn check_state_with(
    ctl: &Controller,
    fabric: &Fabric,
    hypervisors: &[&HypervisorSwitch],
    opts: &VerifyOptions,
) -> Report {
    let topo = ctl.topo();
    let layout = ctl.layout();
    let mut report = Report::default();
    let budget = opts
        .header_budget
        .unwrap_or(ctl.encoder_config().budget_bytes);
    report.budgets.header_budget_bytes = budget;
    report.budgets.header_vector_limit = fabric.leaf(LeafId(0)).config().header_vector_limit;
    let hv_map: BTreeMap<HostId, &HypervisorSwitch> =
        hypervisors.iter().map(|hv| (hv.host(), *hv)).collect();

    let (leaf_tier, spine_tier) = tables::check_tables(ctl, fabric, &mut report.violations);
    report.budgets.leaf_tables = leaf_tier;
    report.budgets.spine_tables = spine_tier;

    let mut groups: Vec<&GroupState> = ctl.groups().collect();
    groups.sort_unstable_by_key(|g| g.id.0);
    for state in groups {
        if state.unicast_fallback {
            report.skipped_unicast_fallback += 1;
            continue;
        }
        report.groups_checked += 1;
        let receivers: BTreeSet<HostId> = state.receiver_hosts().collect();
        let senders: Vec<HostId> = state.sender_hosts().collect();
        let take = if opts.max_senders_per_group == 0 {
            senders.len()
        } else {
            senders.len().min(opts.max_senders_per_group)
        };
        for &sender in senders.iter().take(take) {
            report.senders_checked += 1;
            let Some(header) = ctl.header_for(state.id, sender) else {
                report.violations.push(Violation {
                    group: Some(state.id),
                    kind: ViolationKind::Loss,
                    witness: Witness {
                        host: Some(sender),
                        ..Witness::default()
                    },
                    detail: "controller produced no header for a multicast sender".into(),
                });
                continue;
            };
            let w = walk::walk_sender(topo, layout, fabric, state, sender, &header);

            // Budgets.
            let vector = ElmoPacketRepr::OUTER_LEN + w.cost.header_bytes;
            report.budgets.max_header_bytes =
                report.budgets.max_header_bytes.max(w.cost.header_bytes);
            report.budgets.max_header_vector_bytes =
                report.budgets.max_header_vector_bytes.max(vector);
            if w.cost.header_bytes > budget {
                report.violations.push(Violation {
                    group: Some(state.id),
                    kind: ViolationKind::HeaderBudget,
                    witness: Witness {
                        host: Some(sender),
                        ..Witness::default()
                    },
                    detail: format!(
                        "{}-byte header exceeds the {budget}-byte budget",
                        w.cost.header_bytes
                    ),
                });
            }
            if vector > report.budgets.header_vector_limit {
                report.violations.push(Violation {
                    group: Some(state.id),
                    kind: ViolationKind::HeaderVector,
                    witness: Witness {
                        switch: Some(SwitchRef::Leaf(topo.leaf_of_host(sender))),
                        host: Some(sender),
                        ..Witness::default()
                    },
                    detail: format!(
                        "{vector}-byte header vector exceeds the {}-byte parser limit",
                        report.budgets.header_vector_limit
                    ),
                });
            }

            // Delivery diff: reachable multiset vs the member receiver set.
            for (&h, &n) in &w.deliveries {
                if receivers.contains(&h) && h != sender {
                    if n > 1 {
                        report.violations.push(Violation {
                            group: Some(state.id),
                            kind: ViolationKind::Duplicate,
                            witness: Witness {
                                switch: Some(SwitchRef::Leaf(topo.leaf_of_host(h))),
                                host: Some(h),
                                ..Witness::default()
                            },
                            detail: format!("receiver statically reached {n} times"),
                        });
                    }
                } else {
                    report.redundancy.spurious_host_copies += n as u64;
                    // A spurious copy is harmless spray unless the edge
                    // would actually deliver it: the sender's own
                    // hypervisor always would; any other hypervisor only
                    // if it subscribed to this outer group.
                    let delivered_anyway = h == sender
                        || hv_map
                            .get(&h)
                            .is_some_and(|hv| !hv.subscribers(state.outer_addr).is_empty());
                    if delivered_anyway {
                        report.violations.push(Violation {
                            group: Some(state.id),
                            kind: ViolationKind::Leakage,
                            witness: Witness {
                                switch: Some(SwitchRef::Leaf(topo.leaf_of_host(h))),
                                host: Some(h),
                                ..Witness::default()
                            },
                            detail: if h == sender {
                                "sender is echoed its own packet".into()
                            } else {
                                "subscribed non-member host is statically reachable".into()
                            },
                        });
                    }
                }
            }
            for &h in &receivers {
                if h == sender {
                    continue;
                }
                if w.deliveries.get(&h).copied().unwrap_or(0) == 0 {
                    let (witness, detail) =
                        walk::attribute_loss(topo, fabric, state, &header, sender, h);
                    report.violations.push(Violation {
                        group: Some(state.id),
                        kind: ViolationKind::Loss,
                        witness,
                        detail,
                    });
                }
            }

            report.redundancy.links += w.cost.links;
            report.redundancy.fixed_bytes += w.cost.fixed_bytes;
            if opts.collect_traffic {
                report.traffic.push(SenderTraffic {
                    group: state.id,
                    sender,
                    links: w.cost.links,
                    fixed_bytes: w.cost.fixed_bytes,
                    header_len: w.cost.header_bytes as u64,
                });
            }
            report.violations.extend(w.violations);

            // Hypervisor encap table: the sender's flow must carry exactly
            // the controller's header bytes for this group.
            if let Some(hv) = hv_map.get(&sender) {
                match hv.flow(state.vni, state.tenant_addr) {
                    None => report.violations.push(Violation {
                        group: Some(state.id),
                        kind: ViolationKind::EncapMismatch,
                        witness: Witness {
                            rule: Some(RuleRef::Encap),
                            host: Some(sender),
                            ..Witness::default()
                        },
                        detail: "no sender flow installed for the group".into(),
                    }),
                    Some(flow) => {
                        let mismatch = if flow.unicast_fallback {
                            Some(
                                "flow degraded to unicast but the group has multicast state".into(),
                            )
                        } else if flow.outer_group != state.outer_addr {
                            Some(format!(
                                "flow outer group {} differs from {}",
                                flow.outer_group, state.outer_addr
                            ))
                        } else if flow.elmo_bytes != header.encode(layout) {
                            Some("flow encap bytes differ from the controller's header".into())
                        } else {
                            None
                        };
                        if let Some(detail) = mismatch {
                            report.violations.push(Violation {
                                group: Some(state.id),
                                kind: ViolationKind::EncapMismatch,
                                witness: Witness {
                                    rule: Some(RuleRef::Encap),
                                    host: Some(sender),
                                    ..Witness::default()
                                },
                                detail,
                            });
                        }
                    }
                }
            }
        }

        // Subscriptions: every member receiver's hypervisor must be
        // subscribed to the outer group, and no provided hypervisor may be
        // subscribed without membership.
        for (&h, hv) in &hv_map {
            let subscribed = !hv.subscribers(state.outer_addr).is_empty();
            let member = receivers.contains(&h);
            if member && !subscribed {
                report.violations.push(Violation {
                    group: Some(state.id),
                    kind: ViolationKind::SubscriptionMismatch,
                    witness: Witness {
                        rule: Some(RuleRef::Encap),
                        host: Some(h),
                        ..Witness::default()
                    },
                    detail: "member receiver's hypervisor is not subscribed to the outer group"
                        .into(),
                });
            } else if !member && subscribed {
                report.violations.push(Violation {
                    group: Some(state.id),
                    kind: ViolationKind::SubscriptionMismatch,
                    witness: Witness {
                        rule: Some(RuleRef::Encap),
                        host: Some(h),
                        ..Witness::default()
                    },
                    detail: "hypervisor subscribed to the outer group without membership".into(),
                });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use std::net::Ipv4Addr;

    use elmo_controller::{deploy, Controller, ControllerConfig, GroupId, MemberRole};
    use elmo_core::PortBitmap;
    use elmo_dataplane::{Fabric, SwitchConfig};
    use elmo_topology::{Clos, HostId, LeafId, PodId};

    use super::*;

    fn setup(members: &[HostId]) -> (Controller, Fabric) {
        let topo = Clos::paper_example();
        let mut ctl = Controller::new(topo, ControllerConfig::paper_default(12));
        ctl.create_group(
            GroupId(1),
            elmo_net::Vni(7),
            Ipv4Addr::new(225, 0, 0, 1),
            members.iter().map(|&h| (h, MemberRole::Both)),
        );
        let mut fabric = Fabric::new(topo, SwitchConfig::default());
        install(&ctl, &mut fabric, GroupId(1));
        (ctl, fabric)
    }

    fn install(ctl: &Controller, fabric: &mut Fabric, gid: GroupId) {
        let state = ctl.group(gid).expect("group");
        deploy::apply_switch_ops(fabric, deploy::srule_ops(state.outer_addr, &state.enc))
            .expect("switch capacity");
    }

    #[test]
    fn consistent_state_verifies_clean() {
        let (ctl, fabric) = setup(&[HostId(0), HostId(1), HostId(17), HostId(42), HostId(57)]);
        let report = check_state(&ctl, &fabric);
        assert!(
            report.ok(),
            "unexpected violations: {:#?}",
            report.violations
        );
        assert_eq!(report.groups_checked, 1);
        assert_eq!(report.senders_checked, 5);
        assert!(report.redundancy.links > 0);
    }

    #[test]
    fn traffic_collection_is_per_sender() {
        let (ctl, fabric) = setup(&[HostId(0), HostId(42), HostId(57)]);
        let opts = VerifyOptions {
            collect_traffic: true,
            ..VerifyOptions::default()
        };
        let report = check_state_with(&ctl, &fabric, &[], &opts);
        assert_eq!(report.traffic.len(), 3);
        for t in &report.traffic {
            assert!(
                t.links >= 2,
                "sender {:?} walked {} links",
                t.sender,
                t.links
            );
        }
    }

    #[test]
    fn missing_srule_detected_with_witness() {
        let (ctl, mut fabric) = setup(&[HostId(0), HostId(1), HostId(17), HostId(42)]);
        let state = ctl.group(GroupId(1)).expect("group");
        let outer = state.outer_addr;
        let removed: Vec<u32> = state.enc.d_leaf.s_rules.iter().map(|(l, _)| *l).collect();
        if removed.is_empty() {
            return; // fully p-rule covered at this size; nothing to remove
        }
        fabric.leaf_mut(LeafId(removed[0])).remove_srule(&outer);
        let report = check_state(&ctl, &fabric);
        assert!(report
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::MissingSRule
                && v.witness.switch == Some(elmo_topology::SwitchRef::Leaf(LeafId(removed[0])))));
    }

    #[test]
    fn stale_srule_detected() {
        let (ctl, mut fabric) = setup(&[HostId(0), HostId(42)]);
        let bogus = Ipv4Addr::new(230, 9, 9, 9);
        fabric
            .leaf_mut(LeafId(0))
            .install_srule(bogus, PortBitmap::from_ports(48, [3]))
            .expect("capacity");
        let report = check_state(&ctl, &fabric);
        assert!(report
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::StaleSRule && v.group.is_none()));
    }

    /// One group with a host on every leaf of the paper example and a header
    /// budget too small for eight distinct leaf bitmaps: half the receiver
    /// leaves spill onto s-rules (capacity is unlimited), so the replay must
    /// route through the group tables.
    fn srule_spill_setup() -> (Controller, Fabric) {
        let topo = Clos::paper_example();
        let mut cfg = ControllerConfig::paper_default(0);
        cfg.header_budget_bytes = 14;
        let mut ctl = Controller::new(topo, cfg);
        ctl.create_group(
            GroupId(1),
            elmo_net::Vni(7),
            Ipv4Addr::new(225, 0, 0, 1),
            // Host port l on leaf l: every leaf bitmap is distinct, so at
            // R = 0 no p-rule can be shared and the tight budget spills
            // most leaves onto s-rules.
            (0..8).map(|l| (HostId(l * 8 + l), MemberRole::Both)),
        );
        let mut fabric = Fabric::new(topo, SwitchConfig::default());
        install(&ctl, &mut fabric, GroupId(1));
        (ctl, fabric)
    }

    fn assert_differential_agrees(ctl: &Controller, fabric: &mut Fabric, what: &str) {
        let out = differential_check(ctl, fabric, 8, 0xe1);
        assert_eq!(out.sampled, 1);
        assert!(
            out.violations.is_empty(),
            "{what}: replay and static walk diverged: {:#?}",
            out.violations
        );
        assert!(out.divergence_traces.is_empty());
    }

    #[test]
    fn corrupted_srule_is_caught_statically_and_replay_serves_the_same_table() {
        let (ctl, mut fabric) = srule_spill_setup();
        assert!(check_state(&ctl, &fabric).ok());
        assert_differential_agrees(&ctl, &mut fabric, "clean state");

        // Overwrite every leaf s-rule with its member port cleared.
        let state = ctl.group(GroupId(1)).expect("group");
        assert!(
            !state.enc.d_leaf.s_rules.is_empty(),
            "R=0 must force leaf s-rules"
        );
        for (leaf, bm) in &state.enc.d_leaf.s_rules {
            let mut corrupted = bm.clone();
            corrupted.clear(bm.iter_ones().next().expect("member port"));
            fabric
                .leaf_mut(LeafId(*leaf))
                .install_srule(state.outer_addr, corrupted)
                .expect("overwrite in place");
        }
        // A switch has one group table, so the static check reads the rule
        // the replay serves: it reports the mismatch and the receivers the
        // rule no longer reaches.
        let report = check_state(&ctl, &fabric);
        for kind in [ViolationKind::RuleMismatch, ViolationKind::Loss] {
            assert!(
                report.violations.iter().any(|v| v.kind == kind),
                "corrupted s-rule: static check reported no {kind:?}: {:#?}",
                report.violations
            );
        }
        // And the replay loses exactly the hosts the static walk says it
        // does: a copy of the table that an overwrite failed to refresh
        // would surface here as a divergence.
        assert_differential_agrees(&ctl, &mut fabric, "corrupted state");
    }

    #[test]
    fn replay_divergence_the_walk_cannot_model_is_caught_by_differential() {
        // The static walk reads rule state only, never which switches are
        // in service, so a pod with every spine failed still checks clean
        // while the replay drops what crosses it: the differential is the
        // one check that can report it.
        let (ctl, mut fabric) = srule_spill_setup();
        let dark = PodId(3);
        let spines: Vec<_> = ctl.topo().spines_in_pod(dark).collect();
        for &s in &spines {
            fabric.fail_spine(s);
        }
        assert!(check_state(&ctl, &fabric).ok());
        let out = differential_check(&ctl, &mut fabric, 8, 0xe1);
        assert_eq!(out.sampled, 1);
        let lost: Vec<HostId> = out
            .violations
            .iter()
            .filter(|v| v.kind == ViolationKind::Loss)
            .filter_map(|v| v.witness.host)
            .collect();
        assert!(
            !lost.is_empty(),
            "dark pod not caught: {:#?}",
            out.violations
        );
        assert!(out.violations.iter().all(|v| v.kind == ViolationKind::Loss));
        assert_eq!(out.divergence_traces.len(), 1);
        let trace = &out.divergence_traces[0];
        assert_eq!(trace.group, GroupId(1));
        assert!(trace.tree_json.contains("elmo_trace"));
        // Whichever sender was sampled, a lost host is on the far side
        // of the dark pod's spines from it.
        let sender_pod = ctl.topo().pod_of_host(trace.sender);
        for h in lost {
            let pod = ctl.topo().pod_of_host(h);
            assert!(
                pod == dark || sender_pod == dark,
                "{h:?} lost outside {dark:?}"
            );
        }
        for s in spines {
            fabric.restore(elmo_topology::SwitchRef::Spine(s));
        }
        assert_differential_agrees(&ctl, &mut fabric, "restored state");
    }

    #[test]
    fn budget_override_reports_header_budget() {
        let (ctl, fabric) = setup(&[HostId(0), HostId(17), HostId(42), HostId(57)]);
        let opts = VerifyOptions {
            header_budget: Some(2),
            ..VerifyOptions::default()
        };
        let report = check_state_with(&ctl, &fabric, &[], &opts);
        assert!(report
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::HeaderBudget));
        assert!(report.budgets.max_header_bytes > 2);
    }
}
