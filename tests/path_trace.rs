//! INT-style multicast path tracing (paper §7, monitoring): per-hop records
//! collected for a multicast transmission must describe a consistent tree —
//! correct layer ordering, shrinking headers, and exactly the deliveries the
//! group encodes.

use std::net::Ipv4Addr;

use elmo::controller::{Controller, ControllerConfig, GroupId, MemberRole};
use elmo::dataplane::{Fabric, HypervisorSwitch, SenderFlow, SwitchConfig};
use elmo::net::vxlan::Vni;
use elmo::topology::{Clos, HostId, LeafId, PodId, SwitchRef};

fn traced_transmission() -> (Vec<(HostId, Vec<u8>)>, Vec<elmo::dataplane::HopRecord>) {
    let (_, mut fabric, pkt) = tree_fixture();
    let bytes = pkt.to_bytes(fabric.layout());
    fabric.inject_traced(HostId(0), bytes)
}

#[test]
fn trace_covers_every_layer_once_per_copy() {
    let (deliveries, trace) = traced_transmission();
    assert_eq!(deliveries.len(), 3);
    // The sender's leaf appears exactly once as the first hop.
    assert!(matches!(trace[0].switch, SwitchRef::Leaf(LeafId(0))));
    assert_eq!(trace[0].ingress_port, 0);
    // Exactly one core hop (single logical core traversal).
    let cores = trace
        .iter()
        .filter(|h| matches!(h.switch, SwitchRef::Core(_)))
        .count();
    assert_eq!(cores, 1);
    // Spine hops: one upstream (pod 0) + one per remote member pod (2, 3).
    let spine_pods: Vec<u32> = trace
        .iter()
        .filter_map(|h| match h.switch {
            SwitchRef::Spine(s) => Some(s.0 / 2),
            _ => None,
        })
        .collect();
    assert_eq!(spine_pods.len(), 3, "{spine_pods:?}");
    // Every record has at least one egress (nothing dropped on this tree).
    assert!(trace.iter().all(|h| !h.egress_ports.is_empty()));
}

#[test]
fn trace_shows_header_shrinking() {
    let (_, trace) = traced_transmission();
    // The first hop (sender leaf) sees the biggest packet; downstream leaf
    // hops see strictly smaller ones (upstream + spine sections popped).
    let first = trace[0].bytes_in;
    for h in &trace[1..] {
        assert!(h.bytes_in <= first, "{} > {}", h.bytes_in, first);
        if matches!(h.switch, SwitchRef::Leaf(_)) {
            assert!(h.bytes_in < first, "downstream leaf saw an unshrunk packet");
        }
    }
}

#[test]
fn untraced_injection_records_nothing_extra() {
    // inject() after inject_traced() must not keep accumulating records.
    let (_, trace) = traced_transmission();
    assert!(!trace.is_empty());
    // A second plain transmission works and trace state is reset.
    let (deliveries2, trace2) = traced_transmission();
    assert_eq!(deliveries2.len(), 3);
    assert_eq!(trace.len(), trace2.len(), "traces are reproducible");
}

/// A controller-driven cross-pod group on the paper-example fabric, and one
/// packet from its sender H0.
fn tree_fixture() -> (Clos, Fabric, elmo::dataplane::FlightPacket) {
    let topo = Clos::paper_example();
    let mut ctl = Controller::new(topo, ControllerConfig::paper_default(0));
    let gid = GroupId(1);
    let group = Ipv4Addr::new(225, 8, 8, 8);
    ctl.create_group(
        gid,
        Vni(8),
        group,
        [
            (HostId(0), MemberRole::Both),
            (HostId(1), MemberRole::Receiver),
            (HostId(42), MemberRole::Receiver),
            (HostId(57), MemberRole::Receiver),
        ],
    );
    let state = ctl.group(gid).expect("group");
    let mut fabric = Fabric::new(topo, SwitchConfig::default());
    for (leaf, bm) in &state.enc.d_leaf.s_rules {
        fabric
            .leaf_mut(LeafId(*leaf))
            .install_srule(state.outer_addr, bm.clone())
            .unwrap();
    }
    for (pod, bm) in &state.enc.d_spine.s_rules {
        fabric
            .install_pod_srule(PodId(*pod), state.outer_addr, bm.clone())
            .unwrap();
    }
    let header = ctl.header_for(gid, HostId(0)).expect("header");
    let mut hv = HypervisorSwitch::new(HostId(0));
    hv.install_flow(
        Vni(8),
        group,
        SenderFlow::new(state.outer_addr, Vni(8), &header, ctl.layout(), vec![]),
    );
    let payload: std::sync::Arc<[u8]> = std::sync::Arc::from(&b"trace me"[..]);
    let pkt = hv.send_flight(Vni(8), group, &payload).remove(0);
    (topo, fabric, pkt)
}

/// One flight through the replay engine, deliveries as owned bytes.
fn replay_one(
    fabric: &mut Fabric,
    from: HostId,
    pkt: elmo::dataplane::FlightPacket,
) -> Vec<(HostId, Vec<u8>)> {
    let mut out = elmo::dataplane::DeliveryBatch::new();
    fabric.replay(&[(from, pkt)], &mut out);
    out.to_vec()
}

#[test]
fn copy_tree_leaves_equal_delivery_hosts() {
    let (topo, mut fabric, pkt) = tree_fixture();
    fabric.start_tree_trace();
    assert!(fabric.tree_tracing());
    let deliveries = replay_one(&mut fabric, HostId(0), pkt);
    let events = fabric.take_tree_trace();
    assert!(!fabric.tree_tracing(), "take_tree_trace ends the session");

    let tree =
        elmo::obs::CopyTree::build(0, &events, |n| elmo::dataplane::trace_node_label(&topo, n));
    // The tree's host leaves are exactly the replay's delivery set.
    let mut delivered: Vec<u32> = deliveries.iter().map(|(h, _)| h.0).collect();
    delivered.sort_unstable();
    delivered.dedup();
    assert_eq!(tree.leaf_hosts(), delivered);
    // The root is the sender's leaf, with no parent.
    let root = &tree.nodes[0];
    assert!(root.parent.is_none());
    assert_eq!(root.label, "leaf:0");
    // Every non-root node's parent id exists in the tree.
    let ids: std::collections::BTreeSet<u64> = tree.nodes.iter().map(|n| n.id).collect();
    assert_eq!(ids.len(), tree.nodes.len(), "node ids are unique");
    for n in &tree.nodes {
        if let Some(p) = n.parent {
            assert!(ids.contains(&p), "dangling parent {p} on {n:?}");
        }
    }
}

#[test]
fn tracing_off_is_a_no_op() {
    // Untraced runs record nothing and deliver bit-identically to traced
    // ones — the zero-sampling overhead guard.
    let (_, mut traced_fab, pkt) = tree_fixture();
    let (_, mut plain_fab, pkt2) = tree_fixture();
    traced_fab.start_tree_trace();
    let traced = replay_one(&mut traced_fab, HostId(0), pkt);
    let plain = replay_one(&mut plain_fab, HostId(0), pkt2);
    assert_eq!(traced, plain, "tracing changed deliveries");
    assert!(!plain_fab.tree_tracing());
    assert!(
        plain_fab.take_tree_trace().is_empty(),
        "untraced run recorded events"
    );
}

/// The flight recorder is one ring written across replay calls: dumped at
/// the first failing window it still holds the healthy window before it.
/// (One recorder per call, replaced on every call, held only the failing
/// window.)
#[test]
fn flight_recorder_keeps_the_window_before_the_failing_one() {
    let (topo, mut fabric, pkt) = tree_fixture();
    let window = vec![(HostId(0), pkt); 4];
    let mut out = elmo::dataplane::DeliveryBatch::new();
    fabric.arm_flight_recorder(1024);

    fabric.replay(&window, &mut out);
    let healthy = fabric.flight_recorder().events();
    assert!(
        !healthy.is_empty() && healthy.len() % 4 == 0,
        "four whole trees"
    );
    let spine = healthy
        .iter()
        .find_map(
            |e| match elmo::dataplane::dense_switch_ref(&topo, e.parent) {
                SwitchRef::Spine(s) => Some((s, e.parent)),
                _ => None,
            },
        )
        .expect("the tree crosses a spine");

    fabric.fail_spine(spine.0);
    fabric.replay(&window, &mut out);
    let recorder = fabric.flight_recorder();
    let held = recorder.events();
    assert_eq!(
        recorder.overflowed(),
        0,
        "the ring is larger than two windows"
    );
    assert_eq!(
        held[..healthy.len()],
        healthy[..],
        "the healthy window first"
    );
    let failing = &held[healthy.len()..];
    assert!(
        !failing.is_empty() && failing.len() < healthy.len(),
        "the failing window lost copies: {} then {}",
        healthy.len(),
        failing.len()
    );
    assert!(failing.iter().all(|e| e.parent != spine.1));
}
