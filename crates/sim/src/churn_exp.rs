//! Churn experiment harness: replay a seeded join/leave stream through the
//! controller burst by burst, timing the membership path and optionally
//! re-verifying the full installed state at every burst boundary.
//!
//! This is what `elmo-eval churn` (and the CI churn smoke runs) drive. The
//! stream comes from [`elmo_workloads::churn_bursts`], so every consumer
//! sees the identical events and the identical checkpoints for a given
//! (workload, seed, burst size); only what is measured differs.
//! [`states_identical`] lets callers hold two controllers that walked the
//! same stream to bit-identical state.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::time::Instant;

use elmo_controller::{ChurnStats, Controller, ControllerConfig, GroupId, GroupSpec, MemberRole};
use elmo_net::vxlan::Vni;
use elmo_topology::Clos;
use elmo_verify::{check_state_with, VerifyOptions};
use elmo_workloads::{churn_bursts, initial_roles, Role, Workload, WorkloadConfig};

use crate::verify_exp::install_state;

/// Knobs for one churn run.
#[derive(Clone, Copy, Debug)]
pub struct ChurnExpConfig {
    /// Redundancy limit `R` handed to the controller.
    pub r: usize,
    /// Controller header budget in bytes.
    pub header_budget: usize,
    /// Join/leave events to replay.
    pub events: usize,
    /// Events per burst; verification runs at burst boundaries. 0 = one
    /// burst.
    pub burst: usize,
    /// Seed for the churn stream (the workload has its own seed).
    pub seed: u64,
    /// Re-install the full state into a fresh fabric and run the
    /// `elmo-verify` static checker after every burst (never on the
    /// clock).
    pub verify_each_burst: bool,
}

/// Timing for one burst of events.
#[derive(Clone, Copy, Debug)]
pub struct BurstRow {
    /// Events applied in this burst.
    pub events: usize,
    /// Wall time for the whole burst (membership calls only).
    pub wall_ns: u64,
    /// 95th-percentile single-event latency within the burst.
    pub p95_event_ns: u64,
}

/// Everything one churn run produced.
#[derive(Clone, Debug)]
pub struct ChurnRun {
    /// Groups created before the stream started.
    pub groups: usize,
    /// Events actually replayed.
    pub events: usize,
    /// Per-burst timings, in stream order.
    pub bursts: Vec<BurstRow>,
    /// The controller's own churn counters after the run.
    pub stats: ChurnStats,
    /// Bursts that were followed by a full-state verification.
    pub verified_bursts: usize,
    /// Total violations across all per-burst verifications (0 on a
    /// healthy build).
    pub verify_violations: usize,
}

impl ChurnRun {
    /// Total wall nanoseconds across all bursts.
    pub fn total_ns(&self) -> u64 {
        self.bursts.iter().map(|b| b.wall_ns).sum()
    }

    /// Membership operations per second over the timed bursts.
    pub fn events_per_sec(&self) -> f64 {
        let ns = self.total_ns();
        if ns == 0 {
            f64::NAN
        } else {
            self.events as f64 / (ns as f64 / 1e9)
        }
    }

    /// 95th-percentile single-event latency across the whole run, taken as
    /// the worst per-burst p95 (conservative, avoids re-merging samples).
    pub fn p95_event_ns(&self) -> u64 {
        self.bursts
            .iter()
            .map(|b| b.p95_event_ns)
            .max()
            .unwrap_or(0)
    }
}

/// Map a workload role to a controller role (shared with the temporal
/// sweep, which must replay the identical stream).
pub(crate) fn to_role(r: Role) -> MemberRole {
    match r {
        Role::Sender => MemberRole::Sender,
        Role::Receiver => MemberRole::Receiver,
        Role::Both => MemberRole::Both,
    }
}

/// Build the pre-churn controller: every workload group created in order
/// through [`Controller::create_groups_batch`].
pub fn build_controller(
    topo: Clos,
    workload: &Workload,
    roles: &[Vec<Role>],
    cfg: &ChurnExpConfig,
) -> Controller {
    let mut ctl_cfg = ControllerConfig::paper_default(cfg.r);
    ctl_cfg.header_budget_bytes = cfg.header_budget;
    let mut ctl = Controller::new(topo, ctl_cfg);
    let specs: Vec<GroupSpec> = workload
        .groups
        .iter()
        .enumerate()
        .map(|(gi, g)| {
            let tenant = &workload.tenants[g.tenant as usize];
            let members = g
                .members
                .iter()
                .zip(&roles[gi])
                .map(|(&vm, &r)| (tenant.vms[vm as usize], to_role(r)))
                .collect();
            (
                GroupId(gi as u64),
                Vni(g.tenant),
                Ipv4Addr::new(225, (gi >> 16) as u8, (gi >> 8) as u8, gi as u8),
                members,
            )
        })
        .collect();
    ctl.create_groups_batch(&specs, 1);
    ctl
}

/// Replay the seeded churn stream against `ctl`, timing each burst.
/// Returns the run record; the controller is left at the stream's final
/// state for follow-up checks.
pub fn replay(
    workload: &Workload,
    roles: &[Vec<Role>],
    cfg: &ChurnExpConfig,
    ctl: &mut Controller,
) -> ChurnRun {
    let _span = elmo_obs::span!("churn_exp_replay");
    // Ground truth roles per (group, vm): leaves must replay the role the
    // member actually holds (the generator's role stream is first-touch
    // ordered, not `initial_roles` ordered).
    let mut truth: Vec<BTreeMap<u32, Role>> = workload
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

    let mut bursts = Vec::new();
    let mut event_ns: Vec<u64> = Vec::new();
    let mut total_events = 0usize;
    let mut verified_bursts = 0usize;
    let mut verify_violations = 0usize;
    for burst in churn_bursts(workload, cfg.events, cfg.seed, cfg.burst) {
        event_ns.clear();
        let start = Instant::now();
        for e in &burst {
            let g = &workload.groups[e.group as usize];
            let tenant = &workload.tenants[g.tenant as usize];
            let host = tenant.vms[e.vm as usize];
            let t0 = Instant::now();
            if e.join {
                ctl.join(GroupId(e.group as u64), host, to_role(e.role));
            } else {
                let old_role = truth[e.group as usize]
                    .get(&e.vm)
                    .copied()
                    .expect("generator only emits leaves for members");
                ctl.leave(GroupId(e.group as u64), host, to_role(old_role));
            }
            event_ns.push(t0.elapsed().as_nanos() as u64);
            if e.join {
                truth[e.group as usize].insert(e.vm, e.role);
            } else {
                truth[e.group as usize].remove(&e.vm);
            }
        }
        let wall_ns = start.elapsed().as_nanos() as u64;
        total_events += burst.len();
        event_ns.sort_unstable();
        let p95 = event_ns
            .get(95 * (event_ns.len().saturating_sub(1)) / 100)
            .copied()
            .unwrap_or(0);
        bursts.push(BurstRow {
            events: burst.len(),
            wall_ns,
            p95_event_ns: p95,
        });
        if cfg.verify_each_burst {
            verified_bursts += 1;
            verify_violations += verify_now(ctl);
        }
    }
    ChurnRun {
        groups: workload.groups.len(),
        events: total_events,
        bursts,
        stats: ctl.churn_stats(),
        verified_bursts,
        verify_violations,
    }
}

/// Generate the workload, build the controller, replay the stream. The
/// convenience entry point for eval and CI; callers that need the final
/// controller (identity checks) use [`build_controller`] + [`replay`].
pub fn run(topo: Clos, workload_cfg: WorkloadConfig, cfg: &ChurnExpConfig) -> ChurnRun {
    let workload = Workload::generate(topo, workload_cfg);
    let roles = initial_roles(&workload, workload_cfg.seed);
    let mut ctl = build_controller(topo, &workload, &roles, cfg);
    replay(&workload, &roles, cfg, &mut ctl)
}

/// Install `ctl`'s full state into a fresh fabric + hypervisor tier and
/// run the static checker; returns the violation count (0 = clean).
pub fn verify_now(ctl: &Controller) -> usize {
    let (fabric, hvs) = install_state(ctl);
    let hv_refs: Vec<_> = hvs.values().collect();
    let report = check_state_with(ctl, &fabric, &hv_refs, &VerifyOptions::default());
    report.violations.len()
}

/// Whether two controllers hold bit-identical group state: same group
/// ids, and per group the same receiver tree, encoding (p-rules, s-rules,
/// default rules), shared downstream sections, membership counts,
/// fallback flag and epoch.
pub fn states_identical(a: &Controller, b: &Controller) -> Result<(), String> {
    let mut ga: Vec<_> = a.groups().collect();
    let mut gb: Vec<_> = b.groups().collect();
    ga.sort_unstable_by_key(|g| g.id.0);
    gb.sort_unstable_by_key(|g| g.id.0);
    if ga.len() != gb.len() {
        return Err(format!("group counts differ: {} vs {}", ga.len(), gb.len()));
    }
    for (x, y) in ga.iter().zip(&gb) {
        if x.id != y.id {
            return Err(format!("group id mismatch: {:?} vs {:?}", x.id, y.id));
        }
        if x.members != y.members {
            return Err(format!("group {:?}: membership differs", x.id));
        }
        if x.tree != y.tree {
            return Err(format!("group {:?}: receiver tree differs", x.id));
        }
        if x.enc != y.enc {
            return Err(format!("group {:?}: encoding differs", x.id));
        }
        if x.downstream != y.downstream {
            return Err(format!("group {:?}: downstream sections differ", x.id));
        }
        if x.unicast_fallback != y.unicast_fallback {
            return Err(format!("group {:?}: fallback flag differs", x.id));
        }
        if x.epoch != y.epoch {
            return Err(format!(
                "group {:?}: epoch {} vs {}",
                x.id, x.epoch, y.epoch
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use elmo_workloads::GroupSizeDist;

    fn small() -> (Clos, WorkloadConfig) {
        let topo = Clos::scaled_fabric(4, 6, 8);
        let mut wl = WorkloadConfig::scaled(&topo, 12, GroupSizeDist::Wve);
        wl.total_groups = 40;
        wl.tenants = 10;
        wl.seed = 0xc4u64;
        (topo, wl)
    }

    #[test]
    fn run_verifies_clean_and_reencodes_every_tree_change() {
        let (topo, wl) = small();
        let cfg = ChurnExpConfig {
            r: 12,
            header_budget: 325,
            events: 600,
            burst: 200,
            seed: 7,
            verify_each_burst: true,
        };
        let run = run(topo, wl, &cfg);
        assert_eq!(run.events, 600);
        assert_eq!(run.bursts.len(), 3);
        assert_eq!(run.verified_bursts, 3);
        assert_eq!(run.verify_violations, 0, "state must verify clean");
        // Sender-only and same-host events change no tree, so tree changes
        // can undercount events; every one of them re-ran Algorithm 1.
        let s = run.stats;
        assert!(s.tree_changes() > 0, "stream changed no receiver tree");
        assert!(s.tree_changes() <= run.events as u64);
        assert_eq!(s.full_reencodes, s.tree_changes());
        assert_eq!((s.delta_hits, s.structural_escalations), (0, 0));
    }

    #[test]
    fn replays_of_one_stream_converge_identically() {
        let (topo, wl) = small();
        let cfg = ChurnExpConfig {
            r: 12,
            header_budget: 325,
            events: 500,
            burst: 100,
            seed: 9,
            verify_each_burst: false,
        };
        let workload = Workload::generate(topo, wl);
        let roles = initial_roles(&workload, wl.seed);
        let mut a = build_controller(topo, &workload, &roles, &cfg);
        let mut b = build_controller(topo, &workload, &roles, &cfg);
        states_identical(&a, &b).expect("builds of one workload diverged");
        let before = a.clone();
        let run_a = replay(&workload, &roles, &cfg, &mut a);
        let run_b = replay(&workload, &roles, &cfg, &mut b);
        states_identical(&a, &b).expect("replays of one stream diverged");
        assert_eq!(run_a.stats, run_b.stats);
        // The check is not vacuous: the stream moved the state, and the
        // tree changes bumped epochs.
        assert!(states_identical(&a, &before).is_err());
        let epochs: u64 = a.groups().map(|g| g.epoch).sum();
        assert_eq!(epochs, run_a.stats.tree_changes());
    }
}
