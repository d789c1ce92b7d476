//! Seeded-corruption tests for the `elmo-verify` static checker: each test
//! hand-corrupts one aspect of an otherwise consistent compiled state and
//! asserts the checker reports exactly that corruption with a minimal
//! witness (the switch/rule/host where the property first breaks).

use std::net::Ipv4Addr;

use elmo_controller::{deploy, Controller, ControllerConfig, GroupId, MemberRole};
use elmo_core::PortBitmap;
use elmo_dataplane::{Fabric, SwitchConfig};
use elmo_net::vxlan::Vni;
use elmo_topology::{Clos, HostId, LeafId, PodId, SwitchRef};
use elmo_verify::{check_state, check_state_with, Report, VerifyOptions, ViolationKind};

const TADDR: Ipv4Addr = Ipv4Addr::new(225, 1, 2, 3);

/// One group spread over every leaf of the paper-example fabric, compiled
/// under a header budget tight enough that both downstream layers are
/// forced to spill into s-rules — so every corruption below has a real
/// installed rule to target.
fn setup() -> (Controller, Fabric, GroupId) {
    let topo = Clos::paper_example();
    let cfg = ControllerConfig {
        header_budget_bytes: 14,
        ..ControllerConfig::paper_default(0)
    };
    let mut ctl = Controller::new(topo, cfg);
    let gid = GroupId(1);
    // One member per leaf, on a different port each, so no two leaf
    // bitmaps are identical and p-rule sharing cannot absorb them all.
    // Pods 2 and 3 get a single member leaf so the spine-layer bitmaps
    // split into three classes (> h_spine_max).
    let members: Vec<(HostId, MemberRole)> = [0u32, 9, 18, 27, 36, 56]
        .iter()
        .map(|&h| (HostId(h), MemberRole::Both))
        .collect();
    ctl.create_group(gid, Vni(7), TADDR, members);
    let state = ctl.group(gid).expect("group exists");
    assert!(!state.unicast_fallback, "group must compile to multicast");
    assert!(
        !state.enc.d_leaf.s_rules.is_empty(),
        "setup needs leaf s-rules to corrupt; got {:?}",
        state.enc.d_leaf
    );
    assert!(
        !state.enc.d_spine.s_rules.is_empty(),
        "setup needs pod s-rules to corrupt; got {:?}",
        state.enc.d_spine
    );

    let mut fabric = Fabric::new(topo, SwitchConfig::default());
    deploy::apply_switch_ops(&mut fabric, deploy::srule_ops(state.outer_addr, &state.enc))
        .expect("switch tables have room");
    (ctl, fabric, gid)
}

fn kinds(report: &Report) -> Vec<ViolationKind> {
    report.violations.iter().map(|v| v.kind).collect()
}

#[test]
fn consistent_state_is_clean() {
    let (ctl, fabric, _) = setup();
    let report = check_state(&ctl, &fabric);
    assert!(
        report.ok(),
        "unexpected violations: {:?}",
        report.violations
    );
}

#[test]
fn flipped_bitmap_bit_yields_mismatch_and_loss() {
    let (ctl, mut fabric, gid) = setup();
    let state = ctl.group(gid).expect("group exists");
    let (leaf, bm) = state.enc.d_leaf.s_rules[0].clone();
    let member_bit = bm.iter_ones().next().expect("s-rule has a member port");
    let mut corrupted = bm.clone();
    corrupted.clear(member_bit);
    fabric
        .leaf_mut(LeafId(leaf))
        .install_srule(state.outer_addr, corrupted)
        .expect("overwrite in place");

    let report = check_state(&ctl, &fabric);
    assert!(!report.ok());
    let mismatch = report
        .violations
        .iter()
        .find(|v| v.kind == ViolationKind::RuleMismatch)
        .expect("flipped bit must surface as a rule mismatch");
    assert_eq!(mismatch.group, Some(gid));
    assert_eq!(mismatch.witness.switch, Some(SwitchRef::Leaf(LeafId(leaf))));
    // The receiver behind the cleared bit is statically unreachable, and
    // the loss witness pins the exact host and the leaf where it drops.
    let loss = report
        .violations
        .iter()
        .find(|v| v.kind == ViolationKind::Loss)
        .expect("cleared member bit must surface as loss");
    let lost = loss.witness.host.expect("loss names the unreachable host");
    assert!(state.receiver_hosts().any(|h| h == lost));
}

#[test]
fn over_budget_header_detected() {
    let (ctl, fabric, gid) = setup();
    // Model a post-admission config tightening: the state was compiled
    // against the setup budget, then ops lowers the ceiling below what
    // the encoded headers need.
    let opts = VerifyOptions {
        header_budget: Some(2),
        ..VerifyOptions::default()
    };
    let report = check_state_with(&ctl, &fabric, &[], &opts);
    let budget = report
        .violations
        .iter()
        .find(|v| v.kind == ViolationKind::HeaderBudget)
        .expect("headers larger than the budget must be reported");
    assert_eq!(budget.group, Some(gid));
    assert!(budget.witness.host.is_some(), "witness names the sender");
}

#[test]
fn stale_srule_detected_with_live_group_attribution() {
    let (ctl, mut fabric, gid) = setup();
    let state = ctl.group(gid).expect("group exists");

    // An s-rule for an address no live group uses: stale, unattributed.
    fabric
        .leaf_mut(LeafId(0))
        .install_srule(Ipv4Addr::new(230, 9, 9, 9), PortBitmap::from_ports(8, [0]))
        .expect("room");
    // The live group's address installed on a leaf its encoding never
    // touches: stale, and the witness names the group it shadows.
    let foreign_leaf = (0..8)
        .map(LeafId)
        .find(|l| {
            !state
                .enc
                .d_leaf
                .s_rules
                .iter()
                .any(|(leaf, _)| *leaf == l.0)
        })
        .expect("some leaf has no encoded s-rule");
    fabric
        .leaf_mut(foreign_leaf)
        .install_srule(state.outer_addr, PortBitmap::from_ports(8, [0]))
        .expect("room");

    let report = check_state(&ctl, &fabric);
    let stale: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.kind == ViolationKind::StaleSRule)
        .collect();
    assert_eq!(
        stale.len(),
        2,
        "both planted rules must be flagged: {stale:?}"
    );
    assert!(stale.iter().any(|v| v.group.is_none()));
    assert!(stale
        .iter()
        .any(|v| v.group == Some(gid) && v.witness.switch == Some(SwitchRef::Leaf(foreign_leaf))));
}

#[test]
fn srule_escaping_downstream_domain_is_a_loop() {
    let (ctl, mut fabric, gid) = setup();
    let state = ctl.group(gid).expect("group exists");
    let (leaf, _) = state.enc.d_leaf.s_rules[0].clone();
    let up_port = ctl.topo().leaf_down_ports();
    // A downstream rule whose bitmap targets an up-facing port sends the
    // copy back toward the spine layer: a cycle in the rule graph (the
    // pop order only ever descends).
    fabric
        .leaf_mut(LeafId(leaf))
        .install_srule(
            state.outer_addr,
            PortBitmap::from_ports(up_port + 1, [up_port]),
        )
        .expect("overwrite in place");

    let report = check_state(&ctl, &fabric);
    let looped = report
        .violations
        .iter()
        .find(|v| v.kind == ViolationKind::Loop)
        .expect("up-facing downstream bit must be reported as a loop");
    assert_eq!(looped.witness.switch, Some(SwitchRef::Leaf(LeafId(leaf))));
}

#[test]
fn removed_srule_yields_missing_and_loss() {
    let (ctl, mut fabric, gid) = setup();
    let state = ctl.group(gid).expect("group exists");
    let (leaf, _) = state.enc.d_leaf.s_rules[0].clone();
    assert!(fabric
        .leaf_mut(LeafId(leaf))
        .remove_srule(&state.outer_addr));

    let report = check_state(&ctl, &fabric);
    let missing = report
        .violations
        .iter()
        .find(|v| v.kind == ViolationKind::MissingSRule)
        .expect("removed s-rule must be reported");
    assert_eq!(missing.group, Some(gid));
    assert_eq!(missing.witness.switch, Some(SwitchRef::Leaf(LeafId(leaf))));
    assert!(kinds(&report).contains(&ViolationKind::Loss));
}

#[test]
fn diverging_pod_replica_detected() {
    let (ctl, mut fabric, gid) = setup();
    let state = ctl.group(gid).expect("group exists");
    let (pod, bm) = state.enc.d_spine.s_rules[0].clone();
    let victim = ctl.topo().spine_in_pod(PodId(pod), 1);
    let mut skewed = bm.clone();
    let bit = bm.iter_ones().next().expect("pod rule has a member leaf");
    skewed.clear(bit);
    fabric
        .spine_mut(victim)
        .install_srule(state.outer_addr, skewed)
        .expect("overwrite in place");

    let report = check_state(&ctl, &fabric);
    let div = report
        .violations
        .iter()
        .find(|v| v.kind == ViolationKind::ReplicaDivergence)
        .expect("skewed replica must break ECMP path-independence");
    assert_eq!(div.group, Some(gid));
    assert_eq!(div.witness.switch, Some(SwitchRef::Spine(victim)));
}
