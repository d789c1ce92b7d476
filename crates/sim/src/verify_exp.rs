//! End-to-end verification harness: generate a workload, compile it
//! through the controller, install every rule into a simulated fabric and
//! hypervisor tier, then run the `elmo-verify` static checker plus its
//! differential replay mode over the result.
//!
//! This is what `elmo-eval verify` (and the CI smoke job) drives. On a
//! healthy build the report must be empty: the checker proves exact
//! delivery, loop freedom, and resource budgets for every compiled group
//! without injecting a packet, and the sampled differential replay must
//! agree with the static walk byte for byte. On top of the checker's own
//! passes, this module cross-checks the static walk's traffic accounting
//! against [`crate::metrics::traffic_model`], the independent model used
//! by the Figure-4/5 sweeps, and reports any disagreement as a
//! `redundancy_mismatch` violation.

use std::collections::BTreeMap;

use elmo_controller::{Controller, ControllerConfig, GroupId, GroupSpec, MemberRole};
use elmo_dataplane::{Fabric, HypervisorSwitch, SenderFlow, SwitchConfig, VmSlot};
use elmo_net::vxlan::Vni;
use elmo_topology::{Clos, HostId, LeafId, PodId};
use elmo_verify::{
    check_state_with, differential_check, Report, VerifyOptions, Violation, ViolationKind, Witness,
};
use elmo_workloads::{initial_roles, Role, Workload, WorkloadConfig};

use crate::metrics;

/// Everything one verification run produced.
#[derive(Clone, Debug)]
pub struct VerifyRun {
    /// The static checker's report, extended with the traffic cross-check
    /// and differential-replay violations.
    pub report: Report,
    /// (group, sender) pairs replayed through the fast-path fabric.
    pub differential_sampled: usize,
    /// Sender walks compared against `metrics::traffic_model`.
    pub traffic_cross_checked: usize,
}

/// Knobs for one verification run.
#[derive(Clone, Copy, Debug)]
pub struct VerifyExpConfig {
    /// Redundancy limit `R` handed to the controller.
    pub r: usize,
    /// Controller header budget in bytes.
    pub header_budget: usize,
    /// Encoder worker threads (0 = all cores).
    pub threads: usize,
    /// Groups to replay in differential mode.
    pub samples: usize,
    /// Seed for the differential sampler.
    pub seed: u64,
}

/// Compile `workload_cfg` on `topo`, install the full state, and verify it.
pub fn run(topo: Clos, workload_cfg: WorkloadConfig, cfg: &VerifyExpConfig) -> VerifyRun {
    let _span = elmo_obs::span!("verify_exp_run");
    let workload = Workload::generate(topo, workload_cfg);
    let roles = initial_roles(&workload, workload_cfg.seed);

    let mut ctl_cfg = ControllerConfig::paper_default(cfg.r);
    ctl_cfg.header_budget_bytes = cfg.header_budget;
    let mut ctl = Controller::new(topo, ctl_cfg);
    let specs: Vec<GroupSpec> = workload
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
    ctl.create_groups_batch(&specs, cfg.threads);

    let (mut fabric, hvs) = install_state(&ctl);
    let layout = *ctl.layout();

    let hv_refs: Vec<&HypervisorSwitch> = hvs.values().collect();
    let opts = VerifyOptions {
        collect_traffic: true,
        ..VerifyOptions::default()
    };
    let mut report = check_state_with(&ctl, &fabric, &hv_refs, &opts);

    // Cross-check the walk's redundancy accounting against the traffic
    // model the sweeps report. The model always assumes multipath
    // upstream forwarding, so skip groups the controller gave explicit
    // upstream covers.
    let mut cross_checked = 0usize;
    let mut extra: Vec<Violation> = Vec::new();
    for t in &report.traffic {
        let state = ctl.group(t.group).expect("traffic rows name live groups");
        if !state.covers.is_empty() {
            continue;
        }
        let model = metrics::traffic_model(&topo, &layout, &state.tree, &state.enc, t.sender);
        cross_checked += 1;
        if model.elmo_links != t.links
            || model.elmo_fixed != t.fixed_bytes
            || model.header_len != t.header_len
        {
            extra.push(Violation {
                group: Some(t.group),
                kind: ViolationKind::RedundancyMismatch,
                witness: Witness {
                    host: Some(t.sender),
                    ..Witness::default()
                },
                detail: format!(
                    "static walk links/fixed/header {}/{}/{} vs traffic model {}/{}/{}",
                    t.links,
                    t.fixed_bytes,
                    t.header_len,
                    model.elmo_links,
                    model.elmo_fixed,
                    model.header_len
                ),
            });
        }
    }
    report.violations.extend(extra);

    let diff = differential_check(&ctl, &mut fabric, cfg.samples, cfg.seed);
    report.violations.extend(diff.violations);

    VerifyRun {
        report,
        differential_sampled: diff.sampled,
        traffic_cross_checked: cross_checked,
    }
}

/// Install a controller's full compiled state into a fresh simulated
/// fabric and hypervisor tier, exactly as a deployment agent would. The
/// switch group tables are left uncapped because the paper-default
/// controller admits unlimited s-rules to observe natural demand; the
/// verifier still reports occupancy against the controller's own Fmax.
/// Shared with [`crate::churn_exp`], which re-installs at every burst
/// checkpoint.
pub fn install_state(ctl: &Controller) -> (Fabric, BTreeMap<HostId, HypervisorSwitch>) {
    let mut fabric = Fabric::new(
        *ctl.topo(),
        SwitchConfig {
            group_table_capacity: usize::MAX,
            ..SwitchConfig::default()
        },
    );
    let layout = *ctl.layout();
    let mut hvs: BTreeMap<HostId, HypervisorSwitch> = BTreeMap::new();
    let mut states: Vec<_> = ctl.groups().collect();
    states.sort_unstable_by_key(|g| g.id.0);
    for state in states {
        if state.unicast_fallback {
            continue;
        }
        for (leaf, bm) in &state.enc.d_leaf.s_rules {
            fabric
                .leaf_mut(LeafId(*leaf))
                .install_srule(state.outer_addr, bm.clone())
                .expect("uncapped leaf table");
        }
        for (pod, bm) in &state.enc.d_spine.s_rules {
            fabric
                .install_pod_srule(PodId(*pod), state.outer_addr, bm.clone())
                .expect("uncapped spine table");
        }
        for h in state.receiver_hosts() {
            hvs.entry(h)
                .or_insert_with(|| HypervisorSwitch::new(h))
                .subscribe(state.outer_addr, VmSlot(0));
        }
        for h in state.sender_hosts() {
            let header = ctl
                .header_for(state.id, h)
                .expect("non-fallback group has a header for every sender");
            hvs.entry(h)
                .or_insert_with(|| HypervisorSwitch::new(h))
                .install_flow(
                    state.vni,
                    state.tenant_addr,
                    SenderFlow::new(state.outer_addr, state.vni, &header, &layout, vec![]),
                );
        }
    }
    (fabric, hvs)
}

fn to_role(r: Role) -> MemberRole {
    match r {
        Role::Sender => MemberRole::Sender,
        Role::Receiver => MemberRole::Receiver,
        Role::Both => MemberRole::Both,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elmo_workloads::GroupSizeDist;

    #[test]
    fn scaled_workload_verifies_clean() {
        let topo = Clos::scaled_fabric(6, 24, 16);
        let mut wl = WorkloadConfig::scaled(&topo, 12, GroupSizeDist::Wve);
        wl.total_groups = 160;
        let run = run(
            topo,
            wl,
            &VerifyExpConfig {
                r: 12,
                header_budget: 325,
                threads: 0,
                samples: 120,
                seed: 0xe1_40,
            },
        );
        assert!(
            run.report.ok(),
            "expected a clean report, got: {:#?}",
            run.report.counts_by_kind()
        );
        assert!(run.differential_sampled > 0);
        assert!(run.traffic_cross_checked > 0);
    }
}
