//! Membership-change properties: whatever prefix of a churn stream the
//! controller has absorbed, its state must be bit for bit what a
//! from-scratch controller would hold, it must verify clean, and each
//! group's header epoch must count exactly the events that changed its
//! receiver tree — so a join undone by a leave restores the exact prior
//! encoding while the epoch keeps moving forward.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use elmo::controller::{Controller, ControllerConfig, GroupId, GroupSpec, MemberRole};
use elmo::net::vxlan::Vni;
use elmo::sim::churn_exp::{
    build_controller, replay, states_identical, verify_now, ChurnExpConfig,
};
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
/// epochs are all zero by construction). The shared downstream sections
/// are compared too: every header and flow is built from them.
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
            x.downstream, y.downstream,
            "group {:?} downstream sections at {at}",
            x.id
        );
        assert_eq!(
            x.unicast_fallback, y.unicast_fallback,
            "group {:?} fallback flag at {at}",
            x.id
        );
    }
}

/// At every burst boundary of a churn stream, the churned controller's
/// state is bit-identical to a fresh controller that `create_group`s the
/// current membership from scratch. An unconstrained header budget keeps
/// every layer spill-free, so s-rule admission order cannot make the two
/// differ.
#[test]
fn every_prefix_matches_a_fresh_build() {
    let (topo, workload, roles) = small_workload(0xde1a);
    let cfg = ChurnExpConfig {
        r: 12,
        header_budget: 10_000,
        events: 900,
        burst: 300,
        seed: 0x51,
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
    let stats = ctl.churn_stats();
    assert!(stats.tree_changes() > 0, "stream changed no receiver tree");
    assert_eq!(
        stats.full_reencodes,
        stats.tree_changes(),
        "every tree change re-runs Algorithm 1"
    );
}

/// Under the paper's constrained 325-byte budget (where layers spill to
/// s-rules and default rules), the installed state verifies clean at every
/// burst boundary, and every group's epoch equals the number of events
/// that changed its receiver tree: a VM join or leave that flips whether
/// its host receives.
#[test]
fn delta_on_and_off_agree_at_every_burst() {
    let (topo, workload, roles) = small_workload(0xde1b);
    let cfg = ChurnExpConfig {
        r: 12,
        header_budget: 325,
        events: 800,
        burst: 200,
        seed: 0x52,
        verify_each_burst: false,
    };
    let mut ctl = build_controller(topo, &workload, &roles, &cfg);

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
    // Whether any of a group's member VMs on `host` receives.
    let receives = |truth: &BTreeMap<u32, Role>, gi: usize, host: HostId| {
        let tenant = &workload.tenants[workload.groups[gi].tenant as usize];
        truth
            .iter()
            .any(|(&vm, &r)| tenant.vms[vm as usize] == host && to_role(r).receives())
    };
    let mut tree_changes = vec![0u64; workload.groups.len()];

    let mut bursts = 0;
    for (bi, burst) in churn_bursts(&workload, cfg.events, cfg.seed, cfg.burst).enumerate() {
        for e in &burst {
            let gi = e.group as usize;
            let g = &workload.groups[gi];
            let tenant = &workload.tenants[g.tenant as usize];
            let host = tenant.vms[e.vm as usize];
            let before = receives(&truth[gi], gi, host);
            if e.join {
                ctl.join(GroupId(e.group as u64), host, to_role(e.role));
                truth[gi].insert(e.vm, e.role);
            } else {
                let old_role = truth[gi]
                    .remove(&e.vm)
                    .expect("generator only emits leaves for members");
                ctl.leave(GroupId(e.group as u64), host, to_role(old_role));
            }
            if receives(&truth[gi], gi, host) != before {
                tree_changes[gi] += 1;
            }
        }
        bursts += 1;
        assert_eq!(verify_now(&ctl), 0, "burst {bi}: state must verify clean");
        for (gi, &n) in tree_changes.iter().enumerate() {
            let epoch = ctl.group(GroupId(gi as u64)).expect("group").epoch;
            assert_eq!(epoch, n, "burst {bi}: group {gi} epoch");
        }
    }
    assert_eq!(bursts, 4);
    let total: u64 = tree_changes.iter().sum();
    assert!(total > 0, "stream changed no receiver tree");
    assert_eq!(ctl.churn_stats().full_reencodes, total);
}

/// A receiver join undone by its leave is a perfect round trip: the tree,
/// the encoding and the shared downstream sections return to their exact
/// prior value, and the epoch advances once per leg.
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
    let (tree0, enc0, down0, epoch0) = (
        state.tree.clone(),
        state.enc.clone(),
        state.downstream.clone(),
        state.epoch,
    );

    ctl.join(gid, HostId(10), MemberRole::Receiver);
    let state = ctl.group(gid).expect("exists");
    assert_eq!(state.epoch, epoch0 + 1, "join must bump the epoch");
    assert_ne!(state.enc, enc0, "join must change the leaf section");
    assert_ne!(state.downstream, down0, "join must change the headers");

    ctl.leave(gid, HostId(10), MemberRole::Receiver);
    let state = ctl.group(gid).expect("exists");
    assert_eq!(state.epoch, epoch0 + 2, "leave must bump the epoch again");
    assert_eq!(state.tree, tree0, "tree must round-trip exactly");
    assert_eq!(state.enc, enc0, "encoding must round-trip exactly");
    assert_eq!(
        state.downstream, down0,
        "downstream sections must round-trip exactly"
    );
}

/// `create_groups_batch` is one `create_group` per spec, in order: a
/// controller built through it and one built group by group hold
/// identical state before the stream, and stay identical (same states,
/// same churn counters) after replaying it.
#[test]
fn thread_counts_do_not_change_the_outcome() {
    let (topo, workload, roles) = small_workload(0xde1c);
    let cfg = ChurnExpConfig {
        r: 12,
        header_budget: 325,
        events: 600,
        burst: 600,
        seed: 0x53,
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
    states_identical(&batch, &serial).expect("batch build diverged from serial creates");

    let run_batch = replay(&workload, &roles, &cfg, &mut batch);
    let run_serial = replay(&workload, &roles, &cfg, &mut serial);
    states_identical(&batch, &serial).expect("replayed states diverged");
    assert_eq!(run_batch.stats, run_serial.stats, "churn counters diverged");
    assert!(
        run_batch.stats.full_reencodes > 0,
        "stream changed no receiver tree"
    );
}
