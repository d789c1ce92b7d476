//! Delta re-encode properties: the incremental churn engine must be
//! *observationally invisible*. Whatever prefix of a churn stream the
//! controller absorbs through in-place patches, its state must be bit for
//! bit what a from-scratch controller would hold — and a join undone by a
//! leave must restore the exact prior encoding while the group's header
//! epoch keeps moving forward.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use elmo::controller::{Controller, ControllerConfig, GroupId, GroupSpec, MemberRole};
use elmo::net::vxlan::Vni;
use elmo::sim::churn_exp::{build_controller, replay, states_identical, ChurnExpConfig};
use elmo::topology::{Clos, HostId};
use elmo::workloads::{churn_bursts, initial_roles, GroupSizeDist, Role, Workload, WorkloadConfig};

fn to_role(r: Role) -> MemberRole {
    match r {
        Role::Sender => MemberRole::Sender,
        Role::Receiver => MemberRole::Receiver,
        Role::Both => MemberRole::Both,
    }
}

fn small_workload(seed: u64) -> (Clos, Workload, Vec<Vec<Role>>) {
    let topo = Clos::scaled_fabric(4, 6, 8); // 192 hosts
    let mut wl = WorkloadConfig::scaled(&topo, 12, GroupSizeDist::Wve);
    wl.total_groups = 40;
    wl.tenants = 10;
    wl.seed = seed;
    let workload = Workload::generate(topo, wl);
    let roles = initial_roles(&workload, wl.seed);
    (topo, workload, roles)
}

/// Compare the churned controller's per-group state against a fresh
/// controller, ignoring epochs (the fresh build never churned, so its
/// epochs are all zero by construction).
fn assert_groups_match(churned: &Controller, fresh: &Controller, at: &str) {
    let mut a: Vec<_> = churned.groups().collect();
    let mut b: Vec<_> = fresh.groups().collect();
    a.sort_unstable_by_key(|g| g.id.0);
    b.sort_unstable_by_key(|g| g.id.0);
    assert_eq!(a.len(), b.len(), "group count at {at}");
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.id, y.id, "group id at {at}");
        assert_eq!(x.tree, y.tree, "group {:?} tree at {at}", x.id);
        assert_eq!(x.enc, y.enc, "group {:?} encoding at {at}", x.id);
        assert_eq!(
            x.unicast_fallback, y.unicast_fallback,
            "group {:?} fallback flag at {at}",
            x.id
        );
    }
}

/// At every burst boundary of a churn stream, the delta-path controller's
/// state is bit-identical to a fresh controller that `create_group`s the
/// current membership from scratch. An unconstrained header budget keeps
/// every layer spill-free, so the comparison covers exactly the rules the
/// patcher rewrites.
#[test]
fn every_prefix_matches_a_fresh_build() {
    let (topo, workload, roles) = small_workload(0xde1a);
    let cfg = ChurnExpConfig {
        r: 12,
        header_budget: 10_000,
        events: 900,
        burst: 300,
        seed: 0x51,
        delta: true,
        verify_each_burst: false,
    };
    let mut ctl = build_controller(topo, &workload, &roles, &cfg);

    // Ground truth per (group, vm): the role each member currently holds.
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

    let mut checkpoints = 0;
    for burst in churn_bursts(&workload, cfg.events, cfg.seed, cfg.burst) {
        for e in &burst {
            let g = &workload.groups[e.group as usize];
            let tenant = &workload.tenants[g.tenant as usize];
            let host = tenant.vms[e.vm as usize];
            if e.join {
                ctl.join(GroupId(e.group as u64), host, to_role(e.role));
                truth[e.group as usize].insert(e.vm, e.role);
            } else {
                let old_role = truth[e.group as usize]
                    .remove(&e.vm)
                    .expect("generator only emits leaves for members");
                ctl.leave(GroupId(e.group as u64), host, to_role(old_role));
            }
        }
        checkpoints += 1;
        // Fresh build of the current membership, same config and addresses.
        let mut ctl_cfg = ControllerConfig::paper_default(cfg.r);
        ctl_cfg.header_budget_bytes = cfg.header_budget;
        let mut fresh = Controller::new(topo, ctl_cfg);
        let specs: Vec<GroupSpec> = truth
            .iter()
            .enumerate()
            .map(|(gi, members)| {
                let tenant = &workload.tenants[workload.groups[gi].tenant as usize];
                (
                    GroupId(gi as u64),
                    Vni(workload.groups[gi].tenant),
                    Ipv4Addr::new(225, (gi >> 16) as u8, (gi >> 8) as u8, gi as u8),
                    members
                        .iter()
                        .map(|(&vm, &r)| (tenant.vms[vm as usize], to_role(r)))
                        .collect(),
                )
            })
            .collect();
        fresh.create_groups_batch(&specs, 1);
        assert_groups_match(&ctl, &fresh, &format!("checkpoint {checkpoints}"));
    }
    assert_eq!(checkpoints, 3);
    assert!(
        ctl.churn_stats().delta_hits > 0,
        "stream exercised no delta patches"
    );
}

/// Under the paper's constrained 325-byte budget (where escalations and
/// refusals actually happen), a delta-on and a delta-off controller walk
/// the same stream in lockstep: bit-identical state at every burst
/// boundary, not just at the end.
#[test]
fn delta_on_and_off_agree_at_every_burst() {
    let (topo, workload, roles) = small_workload(0xde1b);
    let cfg_on = ChurnExpConfig {
        r: 12,
        header_budget: 325,
        events: 800,
        burst: 200,
        seed: 0x52,
        delta: true,
        verify_each_burst: false,
    };
    let cfg_off = ChurnExpConfig {
        delta: false,
        ..cfg_on
    };
    let mut on = build_controller(topo, &workload, &roles, &cfg_on);
    let mut off = build_controller(topo, &workload, &roles, &cfg_off);

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

    for (bi, burst) in churn_bursts(&workload, cfg_on.events, cfg_on.seed, cfg_on.burst).enumerate()
    {
        for e in &burst {
            let g = &workload.groups[e.group as usize];
            let tenant = &workload.tenants[g.tenant as usize];
            let host = tenant.vms[e.vm as usize];
            if e.join {
                on.join(GroupId(e.group as u64), host, to_role(e.role));
                off.join(GroupId(e.group as u64), host, to_role(e.role));
                truth[e.group as usize].insert(e.vm, e.role);
            } else {
                let old_role = truth[e.group as usize]
                    .remove(&e.vm)
                    .expect("generator only emits leaves for members");
                on.leave(GroupId(e.group as u64), host, to_role(old_role));
                off.leave(GroupId(e.group as u64), host, to_role(old_role));
            }
        }
        states_identical(&on, &off)
            .unwrap_or_else(|e| panic!("burst {bi}: delta path diverged: {e}"));
    }
    assert!(on.churn_stats().delta_hits > 0);
    assert_eq!(off.churn_stats().delta_hits, 0);
}

/// A receiver join undone by its leave is a perfect round trip: the tree
/// and encoding return to their exact prior value, both legs ride the
/// delta path, and the epoch advances monotonically through both.
#[test]
fn join_then_leave_round_trips_exactly() {
    let topo = Clos::scaled_fabric(4, 6, 8); // 8 hosts per leaf
    let mut ctl = Controller::new(topo, ControllerConfig::paper_default(12));
    let gid = GroupId(7);
    // Members on leaves 0, 1, and 2; host 10 shares leaf 1 with hosts 8-9,
    // so its join and leave both keep the leaf set intact.
    let members = [0u32, 1, 8, 9, 16, 17];
    ctl.create_group(
        gid,
        Vni(3),
        Ipv4Addr::new(225, 4, 4, 4),
        members.iter().map(|&h| (HostId(h), MemberRole::Both)),
    );
    let state = ctl.group(gid).expect("created");
    let (tree0, enc0, epoch0) = (state.tree.clone(), state.enc.clone(), state.epoch);
    let hits0 = ctl.churn_stats().delta_hits;

    ctl.join(gid, HostId(10), MemberRole::Receiver);
    let state = ctl.group(gid).expect("exists");
    assert!(state.epoch > epoch0, "join must bump the epoch");
    assert_ne!(state.enc, enc0, "join must change the leaf section");
    let epoch1 = state.epoch;

    ctl.leave(gid, HostId(10), MemberRole::Receiver);
    let state = ctl.group(gid).expect("exists");
    assert!(state.epoch > epoch1, "leave must bump the epoch again");
    assert_eq!(state.tree, tree0, "tree must round-trip exactly");
    assert_eq!(state.enc, enc0, "encoding must round-trip exactly");
    assert_eq!(
        ctl.churn_stats().delta_hits,
        hits0 + 2,
        "both legs must ride the delta path"
    );
}

/// `create_groups_batch` is one `create_group` per spec, in order: a
/// controller built through it and one built group by group hold
/// identical state before the stream, leaf-parsimony certificates
/// included, and stay identical (same states, same churn counters) after
/// replaying it.
#[test]
fn thread_counts_do_not_change_the_outcome() {
    let (topo, workload, roles) = small_workload(0xde1c);
    let cfg = ChurnExpConfig {
        r: 12,
        header_budget: 325,
        events: 600,
        burst: 600,
        seed: 0x53,
        delta: true,
        verify_each_burst: false,
    };
    let mut batch = build_controller(topo, &workload, &roles, &cfg);
    let mut ctl_cfg = ControllerConfig::paper_default(cfg.r);
    ctl_cfg.header_budget_bytes = cfg.header_budget;
    let mut serial = Controller::new(topo, ctl_cfg);
    for (gi, g) in workload.groups.iter().enumerate() {
        let tenant = &workload.tenants[g.tenant as usize];
        serial.create_group(
            GroupId(gi as u64),
            Vni(g.tenant),
            Ipv4Addr::new(225, (gi >> 16) as u8, (gi >> 8) as u8, gi as u8),
            g.members
                .iter()
                .zip(&roles[gi])
                .map(|(&vm, &r)| (tenant.vms[vm as usize], to_role(r))),
        );
    }
    assert_same_certificates(&batch, &serial);
    states_identical(&batch, &serial).expect("batch build diverged from serial creates");

    let run_batch = replay(&workload, &roles, &cfg, &mut batch);
    let run_serial = replay(&workload, &roles, &cfg, &mut serial);
    assert_same_certificates(&batch, &serial);
    states_identical(&batch, &serial).expect("replayed states diverged");
    assert_eq!(run_batch.stats, run_serial.stats, "churn counters diverged");
    assert!(
        run_batch.stats.delta_hits > 0,
        "stream exercised no delta patches"
    );
}

/// Both controllers certified exactly the same groups' leaf layers as
/// parsimonious (the certificate decides which churn events may patch).
fn assert_same_certificates(a: &Controller, b: &Controller) {
    for g in a.groups() {
        let other = b.group(g.id).expect("same group ids");
        assert_eq!(
            g.leaf_parsimonious, other.leaf_parsimonious,
            "group {:?} certificate",
            g.id
        );
    }
}
