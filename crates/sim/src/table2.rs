//! Control-plane update load under membership churn (paper Table 2).
//!
//! The workload's groups are installed in the controller with random
//! sender/receiver/both roles, then a stream of join/leave events (at a
//! notional 1,000 events per second) is replayed through
//! `Controller::join`/`leave`. Every event reports the exact set of
//! hypervisors, leaves, and spine pods that had to be reprogrammed; we
//! aggregate those into per-switch update rates and compare against the
//! Li et al. baseline, where every membership change reprograms every
//! switch on the group's tree.

use elmo_controller::{Controller, ControllerConfig, GroupId, MemberRole};
use elmo_net::vxlan::Vni;
use elmo_topology::{Clos, HostId};
use elmo_workloads::{churn_events, initial_roles, Role, Workload, WorkloadConfig};

/// Update rates for one switch tier: `avg (max)` updates per second, where
/// the average is over switches that received at least one update (idle
/// switches would drown the average; the paper reports loads on switches
/// actually in play).
#[derive(Clone, Copy, Debug, Default)]
pub struct TierLoad {
    pub avg_per_sec: f64,
    pub max_per_sec: f64,
    /// Total updates across the tier over the whole run.
    pub total: u64,
}

impl TierLoad {
    fn from_counts(counts: impl Iterator<Item = u64>, duration_secs: f64) -> TierLoad {
        let mut total = 0u64;
        let mut active = 0u64;
        let mut max = 0u64;
        for c in counts {
            if c > 0 {
                total += c;
                active += 1;
                max = max.max(c);
            }
        }
        if active == 0 {
            return TierLoad::default();
        }
        TierLoad {
            avg_per_sec: total as f64 / active as f64 / duration_secs,
            max_per_sec: max as f64 / duration_secs,
            total,
        }
    }
}

/// Table 2: per-tier update loads for Elmo and the Li et al. baseline.
#[derive(Clone, Debug)]
pub struct Table2 {
    pub events: usize,
    pub events_per_sec: f64,
    pub hypervisor: TierLoad,
    pub leaf: TierLoad,
    pub spine: TierLoad,
    pub core: TierLoad,
    pub li_leaf: TierLoad,
    pub li_spine: TierLoad,
    pub li_core: TierLoad,
}

fn to_role(r: Role) -> MemberRole {
    match r {
        Role::Sender => MemberRole::Sender,
        Role::Receiver => MemberRole::Receiver,
        Role::Both => MemberRole::Both,
    }
}

/// Run the churn experiment: `events` membership changes at
/// `events_per_sec`. Groups are installed in order through
/// `Controller::create_groups_batch`, then the churn stream is replayed
/// (each event's update set depends on all prior state).
pub fn run(topo: Clos, workload_cfg: WorkloadConfig, events: usize, events_per_sec: f64) -> Table2 {
    let _span = elmo_obs::span!("table2_run");
    let churn_updates = elmo_obs::counter("sim.table2.device_updates");
    let churn_events_ctr = elmo_obs::counter("sim.table2.events");
    let workload = Workload::generate(topo, workload_cfg);
    let roles = initial_roles(&workload, workload_cfg.seed);
    let mut ctl = Controller::new(topo, ControllerConfig::paper_default(12));

    // Install every group with its initial membership and roles.
    let specs: Vec<_> = workload
        .groups
        .iter()
        .enumerate()
        .map(|(gi, g)| {
            let tenant = &workload.tenants[g.tenant as usize];
            let members: Vec<(HostId, MemberRole)> = g
                .members
                .iter()
                .zip(&roles[gi])
                .map(|(&vm, &r)| (tenant.vms[vm as usize], to_role(r)))
                .collect();
            (
                GroupId(gi as u64),
                Vni(g.tenant),
                std::net::Ipv4Addr::new(225, (gi >> 16) as u8, (gi >> 8) as u8, gi as u8),
                members,
            )
        })
        .collect();
    ctl.create_groups_batch(&specs, 1);

    // Replay churn, accumulating per-device update counts.
    let stream = churn_events(&workload, events, workload_cfg.seed ^ 0xc4u64);
    let mut hv_counts: elmo_core::DetHashMap<HostId, u64> = Default::default();
    let mut leaf_counts = vec![0u64; topo.num_leaves()];
    let mut spine_counts = vec![0u64; topo.num_spines()];
    let core_counts = vec![0u64; topo.num_cores()]; // Elmo never updates cores
    let mut li_leaf = vec![0u64; topo.num_leaves()];
    let mut li_spine = vec![0u64; topo.num_spines()];
    let mut li_core = vec![0u64; topo.num_cores()];

    for e in &stream {
        let g = &workload.groups[e.group as usize];
        let host = workload.tenants[g.tenant as usize].vms[e.vm as usize];
        let role = to_role(e.role);
        churn_events_ctr.inc();
        let mut updates = if e.join {
            ctl.join(GroupId(e.group as u64), host, role)
        } else {
            ctl.leave(GroupId(e.group as u64), host, role)
        };
        // Expand symbolic all-sender markers: Table 2 counts per-device
        // update load, so every implied hypervisor must be explicit.
        if let Some(state) = ctl.group(GroupId(e.group as u64)) {
            updates.materialize_senders(state);
        }
        churn_updates.add(
            (updates.hypervisors.len() + updates.leaves.len() + updates.spine_pods.len()) as u64,
        );
        for h in &updates.hypervisors {
            *hv_counts.entry(*h).or_insert(0) += 1;
        }
        for l in &updates.leaves {
            leaf_counts[l.0 as usize] += 1;
        }
        for p in &updates.spine_pods {
            for s in topo.spines_in_pod(*p) {
                spine_counts[s.0 as usize] += 1;
            }
        }
        // Li et al.: every switch on the (possibly changed) tree updates on
        // any receiver-side membership change; sender-side changes touch the
        // ingress leaf.
        if role.receives() {
            if let Some(state) = ctl.group(GroupId(e.group as u64)) {
                let lt = crate::baselines::li_tree(&topo, &state.tree, e.group as u64);
                for l in lt.leaves {
                    li_leaf[l as usize] += 1;
                }
                for s in lt.spines {
                    li_spine[s as usize] += 1;
                }
                if let Some(c) = lt.core {
                    li_core[c as usize] += 1;
                }
            }
        } else {
            li_leaf[topo.leaf_of_host(host).0 as usize] += 1;
        }
    }

    let duration = events as f64 / events_per_sec;
    Table2 {
        events,
        events_per_sec,
        hypervisor: TierLoad::from_counts(hv_counts.values().copied(), duration),
        leaf: TierLoad::from_counts(leaf_counts.into_iter(), duration),
        spine: TierLoad::from_counts(spine_counts.into_iter(), duration),
        core: TierLoad::from_counts(core_counts.into_iter(), duration),
        li_leaf: TierLoad::from_counts(li_leaf.into_iter(), duration),
        li_spine: TierLoad::from_counts(li_spine.into_iter(), duration),
        li_core: TierLoad::from_counts(li_core.into_iter(), duration),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elmo_workloads::GroupSizeDist;

    fn small() -> Table2 {
        let topo = Clos::scaled_fabric(4, 4, 8); // 128 hosts
        let cfg = WorkloadConfig {
            tenants: 15,
            total_groups: 120,
            host_vm_cap: 20,
            placement_p: 1,
            min_group_size: 5,
            dist: GroupSizeDist::Wve,
            seed: 5,
        };
        run(topo, cfg, 2_000, 1000.0)
    }

    #[test]
    fn elmo_never_updates_cores() {
        let t = small();
        assert_eq!(t.core.total, 0);
        assert_eq!(t.core.avg_per_sec, 0.0);
    }

    #[test]
    fn hypervisors_absorb_most_updates() {
        let t = small();
        assert!(t.hypervisor.total > 0);
        assert!(
            t.hypervisor.total > t.leaf.total,
            "hv {} vs leaf {}",
            t.hypervisor.total,
            t.leaf.total
        );
    }

    #[test]
    fn elmo_network_switch_load_is_below_li() {
        let t = small();
        assert!(
            t.leaf.total < t.li_leaf.total,
            "elmo leaf {} vs li {}",
            t.leaf.total,
            t.li_leaf.total
        );
        assert!(t.spine.total < t.li_spine.total);
        assert!(t.li_core.total > 0, "li updates cores, elmo does not");
    }

    #[test]
    fn loads_scale_with_event_rate() {
        let t = small();
        // Duration = events / rate; rates are per second.
        let dur = t.events as f64 / t.events_per_sec;
        assert!(t.hypervisor.max_per_sec * dur >= 1.0);
        assert!(t.hypervisor.avg_per_sec <= t.hypervisor.max_per_sec);
    }

    #[test]
    fn tier_load_from_counts_ignores_idle_switches() {
        let load = TierLoad::from_counts([0, 0, 10, 30].into_iter(), 10.0);
        assert!((load.avg_per_sec - 2.0).abs() < 1e-9); // (10+30)/2 active /10s
        assert!((load.max_per_sec - 3.0).abs() < 1e-9);
        assert_eq!(load.total, 40);
        let idle = TierLoad::from_counts([0, 0].into_iter(), 10.0);
        assert_eq!(idle.total, 0);
    }
}
