//! Temporal update-safety sweep: replay a seeded churn stream and prove
//! every intermediate fabric state safe for in-flight traffic.
//!
//! Drives [`elmo_verify::temporal`] over the same seeded join/leave
//! stream as [`crate::churn_exp`]: before each event the touched group's
//! epoch, senders, and exact delivery are snapshotted; after the
//! controller applies the event and the fabric applies the event's
//! s-rule ops, the *pre-event* headers are re-walked. Every step must
//! leave old headers byte-exact, converged (header unchanged, delivery
//! exactly the new receiver set), or attributably versioned out —
//! anything else is an update-safety violation in the controller's
//! membership path.
//!
//! The fabric is kept live across the whole stream and updated
//! *incrementally* through [`elmo_controller::deploy::ops`] (only the
//! switches the event's update set names change), both because that is
//! what a deployment agent would do and because rebuilding the full fabric
//! per event would make a 10k-event sweep quadratic. Only the switch half
//! of each op list is applied: the checker walks pre-event headers it
//! snapshotted from the controller, so no hypervisor is read.

use elmo_controller::{deploy, Deployment, GroupId};
use elmo_topology::Clos;
use elmo_verify::temporal::{check_update, EpochSnapshot, TemporalReport};
use elmo_workloads::{churn_bursts, initial_roles, Workload, WorkloadConfig};

use crate::churn_exp::{self, ChurnExpConfig};

/// Knobs for one temporal sweep.
#[derive(Clone, Copy, Debug)]
pub struct TemporalExpConfig {
    /// Redundancy limit `R` handed to the controller.
    pub r: usize,
    /// Controller header budget in bytes.
    pub header_budget: usize,
    /// Churn events to replay and check.
    pub events: usize,
    /// Events per generated burst (stream shaping only; every event is
    /// checked individually).
    pub burst: usize,
    /// Seed for the churn stream.
    pub seed: u64,
    /// Sender headers sampled per event (0 = every sender of the group).
    pub max_senders: usize,
}

/// Everything one temporal sweep produced.
#[derive(Clone, Debug)]
pub struct TemporalRun {
    /// Groups in the generated workload.
    pub groups: usize,
    /// The aggregated safety report.
    pub report: TemporalReport,
}

/// Generate the workload, build the controller, install the state, and
/// check every event of the seeded churn stream.
pub fn run(topo: Clos, workload_cfg: WorkloadConfig, cfg: &TemporalExpConfig) -> TemporalRun {
    let _span = elmo_obs::span!("temporal_exp_run");
    let workload = Workload::generate(topo, workload_cfg);
    let roles = initial_roles(&workload, workload_cfg.seed);
    let churn_cfg = ChurnExpConfig {
        r: cfg.r,
        header_budget: cfg.header_budget,
        events: cfg.events,
        burst: cfg.burst,
        seed: cfg.seed,
        verify_each_burst: false,
    };
    let mut ctl = churn_exp::build_controller(topo, &workload, &roles, &churn_cfg);
    let mut fabric = Deployment::of(&ctl, crate::verify_exp::uncapped())
        .expect("uncapped group tables")
        .fabric;

    // Ground truth roles per (group, vm), exactly as the churn replay
    // tracks them: leaves must replay the role the member holds.
    let mut truth: Vec<std::collections::BTreeMap<u32, elmo_workloads::Role>> = workload
        .groups
        .iter()
        .enumerate()
        .map(|(gi, g)| {
            g.members
                .iter()
                .zip(&roles[gi])
                .map(|(&vm, &r)| (vm, r))
                .collect()
        })
        .collect();

    let mut report = TemporalReport::default();
    let mut idx = 0usize;
    for burst in churn_bursts(&workload, cfg.events, cfg.seed, cfg.burst) {
        for e in &burst {
            let gid = GroupId(e.group as u64);
            let g = &workload.groups[e.group as usize];
            let tenant = &workload.tenants[g.tenant as usize];
            let host = tenant.vms[e.vm as usize];
            let snap = EpochSnapshot::capture(&ctl, &fabric, gid, cfg.max_senders);
            let updates = if e.join {
                ctl.join(gid, host, churn_exp::to_role(e.role))
            } else {
                let old_role = truth[e.group as usize]
                    .get(&e.vm)
                    .copied()
                    .expect("generator only emits leaves for members");
                ctl.leave(gid, host, churn_exp::to_role(old_role))
            };
            deploy::apply_switch_ops(&mut fabric, deploy::ops(&ctl, gid, &updates))
                .expect("uncapped group tables");
            report.events += 1;
            if let Some(snap) = snap {
                report.absorb(check_update(&snap, &ctl, &fabric, &updates, idx));
            }
            if e.join {
                truth[e.group as usize].insert(e.vm, e.role);
            } else {
                truth[e.group as usize].remove(&e.vm);
            }
            idx += 1;
        }
    }
    TemporalRun {
        groups: workload.groups.len(),
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elmo_workloads::GroupSizeDist;

    #[test]
    fn seeded_stream_is_temporally_safe() {
        let topo = Clos::paper_example();
        let wl = WorkloadConfig {
            tenants: 4,
            total_groups: 40,
            host_vm_cap: 20,
            placement_p: 12,
            min_group_size: 5,
            dist: GroupSizeDist::Wve,
            seed: 0xe1_40,
        };
        let cfg = TemporalExpConfig {
            r: 12,
            header_budget: 80,
            events: 400,
            burst: 50,
            seed: 0xe1_40,
            max_senders: 2,
        };
        let run = run(topo, wl, &cfg);
        assert!(
            run.report.ok(),
            "temporal violations: {:#?}",
            run.report.violations
        );
        assert_eq!(run.report.events, 400);
        assert!(run.report.steps_checked > 0, "no step had live senders?");
        assert_eq!(
            run.report.exact + run.report.converged + run.report.versioned_out,
            run.report.senders_walked
        );
    }

    #[test]
    fn full_reencode_stream_is_temporally_safe_too() {
        // A second workload and stream under the same tight budget: every
        // tree change is a full re-encode that frees and reinstalls the
        // group's s-rules; divergence is expected but must always be
        // versioned out, never silent.
        let topo = Clos::paper_example();
        let wl = WorkloadConfig {
            tenants: 3,
            total_groups: 24,
            host_vm_cap: 20,
            placement_p: 12,
            min_group_size: 5,
            dist: GroupSizeDist::Wve,
            seed: 0xe1_41,
        };
        let cfg = TemporalExpConfig {
            r: 12,
            header_budget: 80,
            events: 200,
            burst: 25,
            seed: 0xe1_41,
            max_senders: 2,
        };
        let run = run(topo, wl, &cfg);
        assert!(
            run.report.ok(),
            "temporal violations: {:#?}",
            run.report.violations
        );
    }
}
