//! Engine ≡ spec: the replay engine (`Fabric::replay` and the byte
//! adapters over it) must be observationally indistinguishable from the
//! executable specification in `tests/spec/` — identical
//! `(HostId, Vec<u8>)` deliveries in canonical order, identical per-switch
//! `SwitchStats`, identical per-tier link-byte counters — however a batch
//! is handed over (one call, one call per packet, a reused
//! `DeliveryBatch`, the benchmark's `replay_flights_sharded` shim), with
//! and without failed switches and tree tracing, on the paper's Figure 3
//! scenario, s-rule and default-p-rule encodings, unicast, garbage input
//! and a generated workload.

mod spec;

use std::collections::BTreeSet;
use std::net::Ipv4Addr;
use std::sync::Arc;

use elmo::controller::{deploy, Controller, ControllerConfig, Deployment, GroupId, MemberRole};
use elmo::core::{
    encode_group, header_for_sender, DownstreamSections, EncoderConfig, HeaderLayout,
};
use elmo::dataplane::{
    DeliveryBatch, Fabric, FlightPacket, HypervisorSwitch, SenderFlow, SwitchConfig, SwitchStats,
};
use elmo::net::vxlan::Vni;
use elmo::topology::{Clos, CoreId, GroupTree, HostId, LeafId, SpineId, SwitchRef, UpstreamCover};
use elmo::workloads::{GroupSizeDist, Workload, WorkloadConfig};

const OUTER: Ipv4Addr = Ipv4Addr::new(239, 1, 1, 1);
const GROUP: Ipv4Addr = Ipv4Addr::new(225, 0, 0, 1);
const MEMBERS: [HostId; 6] = [
    HostId(0),
    HostId(1),
    HostId(42),
    HostId(48),
    HostId(49),
    HostId(57),
];

type Packets = Vec<(HostId, Vec<u8>)>;

/// One encoded scenario, ready to build identical fabrics from.
struct Scenario {
    topo: Clos,
    layout: HeaderLayout,
    enc: elmo::core::GroupEncoding,
    tree: GroupTree,
}

fn scenario(cfg: impl FnOnce(&HeaderLayout) -> EncoderConfig, srule_capacity: bool) -> Scenario {
    let topo = Clos::paper_example();
    let layout = HeaderLayout::for_clos(&topo);
    let tree = GroupTree::new(&topo, MEMBERS);
    let mut sa = |_p| srule_capacity;
    let mut la = |_l| srule_capacity;
    let enc = encode_group(&topo, &tree, &cfg(&layout), &mut sa, &mut la);
    Scenario {
        topo,
        layout,
        enc,
        tree,
    }
}

/// A budget tight enough that not every switch gets its own p-rule.
fn tight(_: &HeaderLayout) -> EncoderConfig {
    EncoderConfig {
        r: 0,
        k_max: 2,
        h_spine_max: 2,
        h_leaf_max: 2,
        budget_bytes: 325,
        mode: elmo::core::RedundancyMode::Sum,
    }
}

/// The paper's Figure 3 configuration: pod P3 lands on the default p-rule,
/// everything else on exact p-rules.
fn figure3_scenario() -> Scenario {
    scenario(|l| EncoderConfig::with_budget(l, 325, 0), false)
}

/// A tight-budget encoding with group-table capacity available: some
/// switches get s-rules instead of p-rules.
fn srule_scenario() -> Scenario {
    let s = scenario(tight, true);
    assert!(
        !s.enc.d_spine.s_rules.is_empty() || !s.enc.d_leaf.s_rules.is_empty(),
        "scenario must exercise s-rules"
    );
    s
}

/// Same tight budget with no s-rule capacity: overflow switches fall to the
/// default p-rule and over-deliver.
fn default_prule_scenario() -> Scenario {
    let s = scenario(tight, false);
    assert!(
        s.enc.d_leaf.default_rule.is_some() || s.enc.d_spine.default_rule.is_some(),
        "scenario must exercise the default p-rule"
    );
    s
}

fn build_fabric(s: &Scenario) -> Fabric {
    let mut fabric = Fabric::new(s.topo, SwitchConfig::default());
    deploy::apply_switch_ops(&mut fabric, deploy::srule_ops(OUTER, &s.enc))
        .expect("switch capacity");
    fabric
}

/// A hypervisor holding `sender`'s flow for the scenario's group.
fn sender_hv(s: &Scenario, sender: HostId) -> HypervisorSwitch {
    let header = header_for_sender(
        &s.topo,
        &s.layout,
        &s.tree,
        &DownstreamSections::new(&s.topo, &s.layout, &s.tree, &s.enc),
        sender,
        &UpstreamCover::multipath(),
    );
    let mut hv = HypervisorSwitch::new(sender);
    hv.install_flow(
        Vni(1),
        GROUP,
        SenderFlow::new(OUTER, Vni(1), &header, &s.layout, vec![]),
    );
    hv
}

/// `per_sender` wire packets from every member, sender-major.
fn batch(s: &Scenario, per_sender: usize) -> Packets {
    let mut out = Vec::new();
    for &sender in &MEMBERS {
        let mut hv = sender_hv(s, sender);
        for i in 0..per_sender {
            let payload = format!("replay identity payload #{i} from host {sender}");
            let pkt = hv.send(Vni(1), GROUP, payload.as_bytes(), &s.layout);
            out.push((sender, pkt.into_iter().next().expect("one packet per send")));
        }
    }
    out
}

fn parse_all(pkts: &Packets, layout: &HeaderLayout) -> Vec<(HostId, FlightPacket)> {
    pkts.iter()
        .map(|(h, b)| (*h, FlightPacket::parse(b, layout).expect("packet parses")))
        .collect()
}

/// How a test hands a batch to the engine.
#[derive(Clone, Copy, Debug)]
enum Via {
    /// One `inject` call per packet.
    Inject,
    /// One `inject_batch` call.
    InjectBatch,
    /// Parsed up front, one `replay` call, read back through `for_each`.
    Flights,
    /// As `Flights`, through the `replay_flights_sharded` shim the
    /// benchmark binds, whose shard count must mean nothing.
    Shim(usize),
}

fn drive(fabric: &mut Fabric, pkts: &Packets, via: Via, out: &mut DeliveryBatch) -> Packets {
    match via {
        Via::Inject => pkts
            .iter()
            .flat_map(|(h, b)| fabric.inject(*h, b.clone()))
            .collect(),
        Via::InjectBatch => fabric.inject_batch(pkts.clone()),
        Via::Flights | Via::Shim(_) => {
            let flights = parse_all(pkts, fabric.layout());
            match via {
                Via::Shim(shards) => fabric.replay_flights_sharded(&flights, shards, out),
                _ => fabric.replay(&flights, out),
            }
            let mut got = Vec::with_capacity(out.len());
            out.for_each(|h, b| got.push((h, b.to_vec())));
            got
        }
    }
}

fn fail(fabric: &mut Fabric, down: &BTreeSet<SwitchRef>) {
    for sw in down {
        match *sw {
            SwitchRef::Spine(s) => fabric.fail_spine(s),
            SwitchRef::Core(c) => fabric.fail_core(c),
            SwitchRef::Leaf(_) => unreachable!("the fabric API fails spines and cores"),
        }
    }
}

/// Every counter of `fabric` equals the spec's: per-tier link bytes and
/// each individual switch's stats.
fn assert_counters_match(fabric: &Fabric, want: &spec::Outcome, what: &str) {
    assert_eq!(fabric.stats, want.stats, "{what}: FabricStats diverged");
    let topo = *fabric.topo();
    let all = (topo.leaves().map(|l| (SwitchRef::Leaf(l), fabric.leaf(l))))
        .chain(
            topo.spines()
                .map(|s| (SwitchRef::Spine(s), fabric.spine(s))),
        )
        .chain(topo.cores().map(|c| (SwitchRef::Core(c), fabric.core(c))));
    for (sw, node) in all {
        assert_eq!(node.stats, want.switch_stats(sw), "{what}: {sw} stats");
    }
}

/// The suite's one assertion: replaying `pkts` through a fresh copy of
/// `pristine` by way of `via` — with `down` failed and, if `tracing`, a
/// tree-trace session armed — delivers the spec's bytes in canonical order
/// and leaves the spec's counters. Returns the engine fabric.
fn assert_engine_matches_spec(
    pristine: &Fabric,
    pkts: &Packets,
    down: &BTreeSet<SwitchRef>,
    via: Via,
    tracing: bool,
    out: &mut DeliveryBatch,
) -> Fabric {
    let what = format!("{via:?}, tracing={tracing}, {} down", down.len());
    let want = spec::replay(pristine, down, pkts);
    let mut engine = pristine.clone();
    fail(&mut engine, down);
    if tracing {
        engine.start_tree_trace();
    }
    let got = drive(&mut engine, pkts, via, out);
    assert!(got == want.deliveries, "{what}: deliveries diverged");
    assert_counters_match(&engine, &want, &what);
    if tracing {
        assert!(!engine.take_tree_trace().is_empty(), "{what}: no events");
    }
    engine
}

fn no_failures() -> BTreeSet<SwitchRef> {
    BTreeSet::new()
}

fn both_pod0_cores() -> BTreeSet<SwitchRef> {
    [SwitchRef::Core(CoreId(0)), SwitchRef::Core(CoreId(1))].into()
}

/// The byte adapter, a packet at a time.
fn assert_inject_matches_spec(s: &Scenario) {
    let pkts = batch(s, 3);
    let out = &mut DeliveryBatch::new();
    let engine = assert_engine_matches_spec(
        &build_fabric(s),
        &pkts,
        &no_failures(),
        Via::Inject,
        false,
        out,
    );
    assert!(engine.stats.leaf_to_host_bytes > 0, "nothing delivered");
}

#[test]
fn figure3_fast_path_is_byte_identical_to_reference() {
    assert_inject_matches_spec(&figure3_scenario());
}

#[test]
fn srule_fast_path_is_byte_identical_to_reference() {
    assert_inject_matches_spec(&srule_scenario());
}

#[test]
fn default_prule_fast_path_is_byte_identical_to_reference() {
    assert_inject_matches_spec(&default_prule_scenario());
}

/// The engine entry, repeatedly through one *reused* `DeliveryBatch` (so
/// buffer recycling is part of what is proven: a short batch after a long
/// one must not see the long one's entries), with tracing enabled as well
/// as disabled.
fn assert_flights_match_spec(s: &Scenario) {
    let (pristine, pkts) = (build_fabric(s), batch(s, 3));
    let out = &mut DeliveryBatch::new();
    for tracing in [false, true] {
        for pkts in [&pkts, &pkts[..5].to_vec(), &pkts] {
            assert_engine_matches_spec(&pristine, pkts, &no_failures(), Via::Flights, tracing, out);
        }
    }
}

#[test]
fn figure3_batched_engine_matches_reference() {
    assert_flights_match_spec(&figure3_scenario());
}

#[test]
fn srule_batched_engine_matches_reference() {
    assert_flights_match_spec(&srule_scenario());
}

#[test]
fn default_prule_batched_engine_matches_reference() {
    assert_flights_match_spec(&default_prule_scenario());
}

/// The batch byte adapter ≡ spec, and ≡ the same packets injected one by
/// one: canonical order is packet-major, so the per-packet results
/// concatenate to the batch's, with the same counters on every switch.
fn assert_inject_batch_matches_spec(s: &Scenario) {
    let (pristine, pkts) = (build_fabric(s), batch(s, 3));
    let out = &mut DeliveryBatch::new();
    let none = no_failures();
    let batched = assert_engine_matches_spec(&pristine, &pkts, &none, Via::InjectBatch, false, out);
    let serial = assert_engine_matches_spec(&pristine, &pkts, &none, Via::Inject, false, out);
    assert_eq!(batched.stats, serial.stats);
}

#[test]
fn figure3_sharded_replay_matches_serial_at_all_shard_counts() {
    assert_inject_batch_matches_spec(&figure3_scenario());
}

#[test]
fn srule_sharded_replay_matches_serial_at_all_shard_counts() {
    assert_inject_batch_matches_spec(&srule_scenario());
}

#[test]
fn default_prule_sharded_replay_matches_serial_at_all_shard_counts() {
    assert_inject_batch_matches_spec(&default_prule_scenario());
}

/// Copy-tree tracing does not depend on how the session is batched: the
/// event sequence `take_tree_trace` returns is the same from one call, from
/// one call per packet (packet indices continue across calls) and through
/// the shim at any shard count.
fn assert_traced_identical(s: &Scenario) {
    let pristine = build_fabric(s);
    let pkts = batch(s, 2);
    let out = &mut DeliveryBatch::new();
    let mut one_by_one = pristine.clone();
    one_by_one.start_tree_trace();
    for pkt in &pkts {
        drive(&mut one_by_one, &vec![pkt.clone()], Via::Flights, out);
    }
    let want = one_by_one.take_tree_trace();
    assert!(!want.is_empty(), "trace recorded nothing");
    for via in [Via::Flights, Via::Shim(0), Via::Shim(8)] {
        let mut traced = pristine.clone();
        traced.start_tree_trace();
        drive(&mut traced, &pkts, via, out);
        let events = traced.take_tree_trace();
        assert!(events == want, "trace events diverged via {via:?}");
        // The per-packet trees those events reconstruct are identical too.
        let tree = elmo::obs::CopyTree::build(0, &events, |n| format!("{n}"));
        let want_tree = elmo::obs::CopyTree::build(0, &want, |n| format!("{n}"));
        assert_eq!(tree, want_tree, "copy tree diverged via {via:?}");
    }
}

#[test]
fn figure3_traced_replay_is_bit_identical_at_all_shard_counts() {
    assert_traced_identical(&figure3_scenario());
}

#[test]
fn srule_traced_replay_is_bit_identical_at_all_shard_counts() {
    assert_traced_identical(&srule_scenario());
}

#[test]
fn default_prule_traced_replay_is_bit_identical_at_all_shard_counts() {
    assert_traced_identical(&default_prule_scenario());
}

#[test]
fn unicast_fast_path_is_byte_identical_to_reference() {
    let topo = Clos::paper_example();
    let layout = HeaderLayout::for_clos(&topo);
    let mut hv = HypervisorSwitch::new(HostId(0));
    // Same leaf, same pod, across the core.
    let targets = [HostId(1), HostId(13), HostId(57)];
    let pkts: Packets = hv
        .send_unicast_to(&targets, Vni(3), b"uni", &layout)
        .into_iter()
        .map(|p| (HostId(0), p))
        .collect();
    let pristine = Fabric::new(topo, SwitchConfig::default());
    let out = &mut DeliveryBatch::new();
    for via in [Via::Inject, Via::InjectBatch, Via::Flights, Via::Shim(4)] {
        assert_engine_matches_spec(&pristine, &pkts, &no_failures(), via, false, out);
    }
    let delivered: Vec<HostId> = drive(&mut pristine.clone(), &pkts, Via::Inject, out)
        .iter()
        .map(|(h, _)| *h)
        .collect();
    assert_eq!(delivered, targets);
}

#[test]
fn garbage_bytes_count_parse_drop_on_ingress_leaf() {
    let pristine = Fabric::new(Clos::paper_example(), SwitchConfig::default());
    let pkts = vec![(HostId(0), vec![0u8; 24])];
    let out = &mut DeliveryBatch::new();
    for via in [Via::Inject, Via::InjectBatch] {
        let engine = assert_engine_matches_spec(&pristine, &pkts, &no_failures(), via, false, out);
        assert_eq!(engine.leaf(LeafId(0)).stats.dropped_parse, 1);
        assert_eq!(engine.stats.host_to_leaf_bytes, 24);
    }
}

#[test]
fn failed_switch_behaves_identically_on_both_paths() {
    let s = figure3_scenario();
    let out = &mut DeliveryBatch::new();
    let engine = assert_engine_matches_spec(
        &build_fabric(&s),
        &batch(&s, 3),
        &both_pod0_cores(),
        Via::Inject,
        false,
        out,
    );
    // The failure bites: copies hashed onto the dead cores never arrive.
    let healthy = spec::replay(&engine, &no_failures(), &batch(&s, 3));
    assert!(engine.stats.core_to_spine_bytes < healthy.stats.core_to_spine_bytes);
}

#[test]
fn sharded_replay_respects_failed_switches() {
    let s = figure3_scenario();
    let (pristine, pkts) = (build_fabric(&s), batch(&s, 2));
    let out = &mut DeliveryBatch::new();
    for tracing in [false, true] {
        for via in [Via::Flights, Via::Shim(3)] {
            assert_engine_matches_spec(&pristine, &pkts, &both_pod0_cores(), via, tracing, out);
        }
    }
}

#[test]
fn inject_batch_matches_sequential_injects() {
    let s = figure3_scenario();
    let pkts = batch(&s, 2);
    let out = &mut DeliveryBatch::new();
    let (mut one_by_one, mut batched) = (build_fabric(&s), build_fabric(&s));
    let expected = drive(&mut one_by_one, &pkts, Via::Inject, out);
    let got = drive(&mut batched, &pkts, Via::InjectBatch, out);
    assert_eq!(got, expected);
    assert_eq!(one_by_one.stats, batched.stats);
}

/// Two hypervisors with identical state, one emitting wire bytes and one
/// emitting flights: `count` packets each, plus the scenario's fabric.
fn bytes_and_flights(count: usize) -> (Fabric, Packets, Vec<(HostId, FlightPacket)>) {
    let s = figure3_scenario();
    let sender = HostId(0);
    let (mut hv_bytes, mut hv_flight) = (sender_hv(&s, sender), sender_hv(&s, sender));
    let (mut bytes, mut flights) = (Vec::new(), Vec::new());
    for i in 0..count {
        let payload: Arc<[u8]> = Arc::from(format!("flight payload #{i}").into_bytes());
        let pkt = hv_bytes.send(Vni(1), GROUP, &payload, &s.layout).remove(0);
        let flight = hv_flight.send_flight(Vni(1), GROUP, &payload).remove(0);
        assert_eq!(flight.to_bytes(&s.layout), pkt, "send_flight wire bytes");
        bytes.push((sender, pkt));
        flights.push((sender, flight));
    }
    (build_fabric(&s), bytes, flights)
}

#[test]
fn inject_flight_matches_byte_injection() {
    let (pristine, bytes, flights) = bytes_and_flights(4);
    let (mut from_bytes, mut from_flights) = (pristine.clone(), pristine);
    let out = &mut DeliveryBatch::new();
    for ((sender, pkt), flight) in bytes.into_iter().zip(&flights) {
        from_flights.replay(std::slice::from_ref(flight), out);
        assert_eq!(from_bytes.inject(sender, pkt), out.to_vec());
    }
    assert_eq!(from_bytes.stats, from_flights.stats);
}

#[test]
fn sharded_flights_match_sharded_bytes() {
    let (pristine, bytes, flights) = bytes_and_flights(6);
    let (mut from_bytes, mut from_flights) = (pristine.clone(), pristine);
    let out = &mut DeliveryBatch::new();
    let d_bytes = from_bytes.inject_batch(bytes);
    from_flights.replay_flights_sharded(&flights, 4, out);
    assert!(!d_bytes.is_empty());
    assert_eq!(d_bytes, out.to_vec(), "flight/byte entries diverged");
    assert_eq!(from_bytes.stats, from_flights.stats);
}

#[test]
fn replay_is_deterministic_across_runs() {
    let run = || {
        let s = figure3_scenario();
        let mut fabric = build_fabric(&s);
        let out = drive(
            &mut fabric,
            &batch(&s, 2),
            Via::Inject,
            &mut DeliveryBatch::new(),
        );
        (out, fabric.stats)
    };
    assert!(
        run() == run(),
        "two runs of one input must be bit-identical"
    );
}

#[test]
fn sharded_replay_is_deterministic_across_runs_and_shard_counts() {
    // Two fresh runs, then the shim at two shard counts into one reused
    // batch: all four bit-identical.
    let out = &mut DeliveryBatch::new();
    let mut run = |via: Via| {
        let s = figure3_scenario();
        let mut fabric = build_fabric(&s);
        let got = drive(&mut fabric, &batch(&s, 2), via, out);
        (got, fabric.stats)
    };
    let first = run(Via::InjectBatch);
    assert!(first == run(Via::InjectBatch), "two runs of one input");
    assert!(first == run(Via::Shim(2)), "the shim");
    assert!(
        first == run(Via::Shim(0)),
        "the shim's shard count means nothing"
    );
}

/// The capture buffer holds exactly the spec's wire copies, and sessions
/// restart cleanly.
#[test]
fn capture_is_identical_and_restartable() {
    let s = figure3_scenario();
    let mut fabric = build_fabric(&s);
    let pkts = batch(&s, 2);
    let sorted = |mut v: Vec<Vec<u8>>| {
        v.sort();
        v
    };

    // Session 1: every copy the spec puts on a wire, nothing else.
    fabric.start_capture(1024);
    fabric.inject(pkts[0].0, pkts[0].1.clone());
    let cap1 = fabric.take_capture();
    let want = spec::replay(&fabric, &no_failures(), &pkts[..1]);
    assert!(!cap1.is_empty());
    assert_eq!(sorted(cap1.clone()), sorted(want.wire));
    assert_eq!(cap1[0], pkts[0].1, "the injected copy comes first");

    // Session 2: take_capture reset state, so a fresh capture works and is
    // independent of the first.
    fabric.start_capture(1024);
    fabric.inject(pkts[1].0, pkts[1].1.clone());
    let cap2 = fabric.take_capture();
    assert_eq!(cap2.len(), cap1.len(), "second session captures anew");
    assert_ne!(cap2, cap1, "entropy differs, so copies differ");

    // After take_capture, capturing is off: nothing is recorded.
    fabric.inject(pkts[0].0, pkts[0].1.clone());
    assert!(fabric.take_capture().is_empty());

    // The capture limit is honored per session and cuts a prefix.
    fabric.start_capture(3);
    fabric.inject(pkts[0].0, pkts[0].1.clone());
    assert_eq!(fabric.take_capture(), cap1[..3]);
}

/// Capture and the hop trace depend on (packet, switch, port) only, not on
/// the order the engine drained its buckets in: a batch captures what the
/// same packets capture one call at a time, and a limit cuts the same
/// prefix.
#[test]
fn capture_and_hop_trace_do_not_depend_on_the_shard_count() {
    let s = figure3_scenario();
    let pristine = build_fabric(&s);
    let pkts = batch(&s, 2);
    let capture = |via: Via, limit: usize| {
        let out = &mut DeliveryBatch::new();
        let mut fabric = pristine.clone();
        fabric.start_capture(limit);
        drive(&mut fabric, &pkts, via, out);
        let first = fabric.take_capture();
        // take_capture then start_capture starts a fresh session.
        fabric.start_capture(limit);
        drive(&mut fabric, &pkts[..1].to_vec(), via, out);
        (first, fabric.take_capture())
    };
    let (all, fresh) = capture(Via::InjectBatch, usize::MAX);
    let want = spec::replay(&pristine, &no_failures(), &pkts);
    assert_eq!(all.len(), want.wire.len(), "one capture per wire copy");
    assert!(fresh.len() < all.len() && fresh[..] == all[..fresh.len()]);
    for via in [Via::Inject, Via::Shim(4)] {
        assert!(capture(via, usize::MAX) == (all.clone(), fresh.clone()));
        let (cut, _) = capture(via, 7);
        assert_eq!(cut, all[..7], "the limit keeps the same first copies");
    }

    // inject_traced reports the spec's hop log (as a multiset: the spec
    // logs in traversal order, the engine by switch and port).
    let key = |h: &elmo::dataplane::HopRecord| (h.switch, h.ingress_port, h.bytes_in);
    for (sender, bytes) in &pkts {
        let mut want = spec::replay(&pristine, &no_failures(), &[(*sender, bytes.clone())]).hops;
        let (_, mut got) = pristine.clone().inject_traced(*sender, bytes.clone());
        assert!(
            got.windows(2).all(|w| key(&w[0]) <= key(&w[1])),
            "hop order"
        );
        want.sort_by_key(key);
        got.sort_by_key(key);
        assert_eq!(got, want);
    }
}

/// What the retired `elmo-bench --replay-only --expect-deliveries 8000` CI
/// steps pinned: 3,000 packets round-robined over the three paper-example
/// groups (same-leaf, same-pod, cross-pod) deliver exactly 8,000 copies,
/// identically into a fresh batch, into a reused one and through the shim.
#[test]
fn three_thousand_packets_over_the_example_groups_deliver_8000_copies() {
    let topo = Clos::paper_example();
    let mut ctl = Controller::new(topo, ControllerConfig::paper_default(12));
    let mut dep = Deployment::new(Fabric::new(topo, SwitchConfig::default()));
    let shapes: [&[u32]; 3] = [&[0, 1], &[0, 8, 13], &[0, 1, 42, 48, 49, 57]];
    let mut tenants = Vec::new();
    for (gi, members) in shapes.iter().enumerate() {
        let gid = GroupId(gi as u64 + 1);
        let members = members.iter().map(|&h| (HostId(h), MemberRole::Both));
        let tenant = Ipv4Addr::new(225, 9, 9, gi as u8 + 1);
        ctl.create_group(gid, Vni(7), tenant, members);
        dep.apply(&ctl, &deploy::deploy_group(&ctl, gid))
            .expect("group tables");
        tenants.push(tenant);
    }
    let payload: Arc<[u8]> = Arc::from(vec![0xE1u8; 1_500]);
    let hv = dep.hypervisor_mut(HostId(0));
    let flights: Vec<(HostId, FlightPacket)> = (0..3_000)
        .map(|i| {
            let pkt = hv.send_flight(Vni(7), tenants[i % 3], &payload).remove(0);
            (HostId(0), pkt)
        })
        .collect();
    let fabric = dep.fabric;
    let out = &mut DeliveryBatch::new();
    let mut run = |shim: Option<usize>| {
        let mut fabric = fabric.clone();
        match shim {
            None => fabric.replay(&flights, out),
            Some(shards) => fabric.replay_flights_sharded(&flights, shards, out),
        }
        assert_eq!(out.len(), 8_000, "{shim:?}");
        (out.to_vec(), fabric.stats)
    };
    let first = run(None);
    assert!(first == run(None), "a reused batch diverged");
    assert!(first == run(Some(2)), "the shim diverged");
}

/// Engine ≡ spec beyond the three hand-built trees: ≥ 200 generated
/// groups on a 512-host fabric under two controller settings — the
/// paper's sparse placement with exact encodings, and a dense placement
/// squeezed hard enough that s-rules and default p-rules both fire — with
/// unicast-fallback packets mixed in and one spine failed for a third of
/// each run.
#[test]
fn generated_workload_engine_matches_spec() {
    let topo = Clos::scaled_fabric(4, 8, 16);
    let settings = [
        (1, ControllerConfig::paper_default(0)),
        (
            12,
            ControllerConfig {
                header_budget_bytes: 40,
                leaf_fmax: 2,
                ..ControllerConfig::paper_default(12)
            },
        ),
    ];
    let mut packets = 0;
    for (placement_p, cfg) in settings {
        let mut hits = SwitchStats::default();
        let wl = Workload::generate(
            topo,
            WorkloadConfig {
                tenants: 12,
                total_groups: 220,
                host_vm_cap: 20,
                placement_p,
                min_group_size: 5,
                dist: GroupSizeDist::Wve,
                seed: 0xe1f0 + placement_p as u64,
            },
        );
        let mut ctl = Controller::new(topo, cfg);
        let mut dep = Deployment::new(Fabric::new(topo, SwitchConfig::default()));
        let mut pkts: Packets = Vec::new();
        for (gi, g) in wl.groups.iter().enumerate() {
            let gid = GroupId(gi as u64 + 1);
            let tenant = Ipv4Addr::new(225, 4, (gi >> 8) as u8, gi as u8);
            let roles = wl
                .member_hosts(g)
                .into_iter()
                .map(|h| (h, MemberRole::Both));
            ctl.create_group(gid, Vni(g.tenant), tenant, roles);
            dep.apply(&ctl, &deploy::deploy_group(&ctl, gid))
                .expect("group tables");
            let members = ctl
                .group(gid)
                .expect("created group")
                .tree
                .members()
                .to_vec();
            let hv = dep.hypervisor_mut(members[0]);
            let layout = ctl.layout();
            for i in 0..4 {
                let payload = format!("generated workload g{gi} #{i}");
                for pkt in hv.send(Vni(g.tenant), tenant, payload.as_bytes(), layout) {
                    pkts.push((members[0], pkt));
                }
            }
            // Every fifth group also falls back to unicast once.
            if gi % 5 == 0 {
                for pkt in hv.send_unicast_to(&members[1..], Vni(g.tenant), b"fallback", layout) {
                    pkts.push((members[0], pkt));
                }
            }
        }
        // One spine down for the middle third of the run.
        let third = pkts.len() / 3;
        let down: BTreeSet<SwitchRef> = [SwitchRef::Spine(SpineId(1))].into();
        let out = &mut DeliveryBatch::new();
        for (chunk, down) in [
            (&pkts[..third], no_failures()),
            (&pkts[third..2 * third], down),
            (&pkts[2 * third..], no_failures()),
        ] {
            let via = Via::Flights;
            let engine =
                assert_engine_matches_spec(&dep.fabric, &chunk.to_vec(), &down, via, false, out);
            let topo = *engine.topo();
            for st in (topo.leaves().map(|l| engine.leaf(l).stats))
                .chain(topo.spines().map(|s| engine.spine(s).stats))
            {
                hits.prule_hits += st.prule_hits;
                hits.srule_hits += st.srule_hits;
                hits.default_hits += st.default_hits;
                hits.unicast_forwarded += st.unicast_forwarded;
            }
        }
        packets += pkts.len();
        assert!(
            hits.prule_hits > 0 && hits.srule_hits > 0 && hits.unicast_forwarded > 0,
            "p={placement_p}: p-rules, s-rules and unicast must all fire: {hits:?}"
        );
        assert!(
            placement_p == 1 || hits.default_hits > 0,
            "the squeezed setting must reach default p-rules: {hits:?}"
        );
    }
    assert!(packets >= 2_000, "only {packets} packets");
}
