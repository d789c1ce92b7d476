//! Allocation budget of the wire path (DESIGN.md §15).
//!
//! The objects every layer touches must cost bytes, not mallocs: a port
//! bitmap of up to 128 ports lives inline, the hypervisor's receive path
//! borrows instead of building, decoding a header allocates at most three
//! times per downstream section whatever its rule count, a downstream
//! section serialises its rules once and never again per flow, deploying
//! a sender's flow costs the same for a group of one rule as of nine, an
//! s-rule write moves entries inside a switch's one group table, and a
//! warm replay call makes one allocation. This binary installs a counting
//! global allocator (the counter is per thread, so the harness's own
//! threads do not disturb it) and holds those seven budgets.
//! One `#[test]` only: a second test in this binary would share the
//! allocator but not the reasoning about what is warm.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;

use elmo::controller::{Controller, ControllerConfig, GroupId, MemberRole};
use elmo::core::bitmap::INLINE_PORTS;
use elmo::core::bits::BitReader;
use elmo::core::{
    DownstreamRule, DownstreamSection, ElmoHeader, HeaderLayout, PortBitmap, UpstreamRule,
};
use elmo::dataplane::{
    DeliveryBatch, ElmoPacketRepr, Fabric, FlightPacket, HypervisorSwitch, NetworkSwitch,
    SenderFlow, SwitchConfig, VmSlot,
};
use elmo::net::vxlan::Vni;
use elmo::topology::{Clos, HostId, LeafId, PodId};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count_one() {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down; `Cell<u64>` has no destructor, but stay out of the way anyway.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one `GlobalAlloc` states; the only addition is a
// thread-local counter bump that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations (and reallocations) this thread makes while `f` runs.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// The header of Figure 3b (R = 0): two downstream spine rules, two
/// downstream leaf rules, both defaults, all upstream sections.
fn figure3b_header(l: &HeaderLayout) -> ElmoHeader {
    let rule = |width, ports: &[usize], switches: &[u32]| DownstreamRule {
        bitmap: PortBitmap::from_ports(width, ports.iter().copied()),
        switches: switches.to_vec(),
    };
    ElmoHeader {
        u_leaf: Some(UpstreamRule {
            down: PortBitmap::from_ports(l.leaf_down_ports, [1]),
            multipath: true,
            up: PortBitmap::new(l.leaf_up_ports),
        }),
        u_spine: Some(UpstreamRule {
            down: PortBitmap::new(l.spine_down_ports),
            multipath: true,
            up: PortBitmap::new(l.spine_up_ports),
        }),
        core: Some(PortBitmap::from_ports(l.core_ports, [2, 3])),
        d_spine: Arc::new(DownstreamSection::new(
            &[
                rule(l.spine_down_ports, &[0], &[0]),
                rule(l.spine_down_ports, &[1], &[2]),
            ],
            Some(PortBitmap::from_ports(l.spine_down_ports, [0, 1])),
            l.pod_id_bits,
        )),
        d_leaf: Arc::new(DownstreamSection::new(
            &[
                rule(l.leaf_down_ports, &[0, 1], &[0, 6]),
                rule(l.leaf_down_ports, &[2], &[5]),
            ],
            Some(PortBitmap::from_ports(l.leaf_down_ports, [1])),
            l.leaf_id_bits,
        )),
    }
}

/// The three paper-example groups (same-leaf, same-pod, cross-pod) installed
/// on a fabric, and `n` flights from H0 round-robined over them.
fn example_groups_flights(n: usize) -> (Fabric, Vec<(HostId, FlightPacket)>) {
    let topo = Clos::paper_example();
    let mut ctl = Controller::new(topo, ControllerConfig::paper_default(12));
    let mut fabric = Fabric::new(topo, SwitchConfig::default());
    let shapes: [&[u32]; 3] = [&[0, 1], &[0, 8, 13], &[0, 1, 42, 48, 49, 57]];
    let mut hv = HypervisorSwitch::new(HostId(0));
    let tenant = |gi: usize| std::net::Ipv4Addr::new(225, 9, 9, gi as u8 + 1);
    for (gi, members) in shapes.iter().enumerate() {
        let gid = GroupId(gi as u64 + 1);
        let members = members.iter().map(|&h| (HostId(h), MemberRole::Both));
        ctl.create_group(gid, Vni(7), tenant(gi), members);
        let state = ctl.group(gid).expect("created group");
        for (leaf, bm) in &state.enc.d_leaf.s_rules {
            let leaf = fabric.leaf_mut(LeafId(*leaf));
            leaf.install_srule(state.outer_addr, bm.clone())
                .expect("capacity");
        }
        for (pod, bm) in &state.enc.d_spine.s_rules {
            fabric
                .install_pod_srule(PodId(*pod), state.outer_addr, bm.clone())
                .expect("capacity");
        }
        let header = ctl.header_for(gid, HostId(0)).expect("sender header");
        let flow = SenderFlow::new(state.outer_addr, Vni(7), &header, ctl.layout(), vec![]);
        hv.install_flow(Vni(7), tenant(gi), flow);
    }
    let payload: std::sync::Arc<[u8]> = std::sync::Arc::from(vec![0xE1u8; 1_500]);
    let flights = (0..n)
        .map(|i| {
            (
                HostId(0),
                hv.send_flight(Vni(7), tenant(i % 3), &payload).remove(0),
            )
        })
        .collect();
    (fabric, flights)
}

#[test]
fn wire_path_stays_within_its_allocation_budget() {
    // The counter sees this thread's allocations at all.
    let (n, v) = allocations(|| vec![1u8; 32]);
    assert_eq!((n, v.len()), (1, 32));

    // --- PortBitmap: inline up to INLINE_PORTS (128) ports ------------------
    let wire = [0xa5u8; 32];
    for width in [0usize, 1, 16, 24, 48, 64, 65, 127, INLINE_PORTS] {
        let (n, _) = allocations(|| {
            let a = PortBitmap::new(width);
            let mut b = a.clone();
            if width > 0 {
                b.set(width - 1);
            }
            let u = a.or(&b);
            let read = PortBitmap::read(&mut BitReader::new(&wire), width).expect("32 bytes");
            black_box((a, b, u, read))
        });
        assert_eq!(n, 0, "PortBitmap new/clone/or/read at width {width}");
    }
    // One past the inline width is the heap case (the 576-port spine layer).
    let (n, _) = allocations(|| black_box(PortBitmap::new(INLINE_PORTS + 1)));
    assert_eq!(n, 1, "a wider bitmap takes exactly its word vector");

    // --- ElmoHeader::decode: per present section, never per rule ----------
    // A present section costs its `Arc` and its two flat columns (rules,
    // identifiers); the rule count does not enter.
    let layout = HeaderLayout::for_clos(&Clos::paper_example());
    let header = figure3b_header(&layout);
    let bytes = header.encode(&layout);
    let (n, decoded) = allocations(|| ElmoHeader::decode(&bytes, &layout).expect("valid"));
    assert_eq!(decoded.0, header);
    assert!(
        n <= 6,
        "decode of the 4-rule Figure 3b header allocated {n} times: three per section"
    );
    let (n, _) = allocations(|| ElmoHeader::validate(&bytes, &layout).expect("valid"));
    assert_eq!(n, 0, "validate builds nothing");
    let fb = HeaderLayout::for_clos(&Clos::facebook_fabric());
    let mut decode_costs = Vec::new();
    for rules in [1usize, 4, 16, 30] {
        let leaf_rules: Vec<DownstreamRule> = (0..rules)
            .map(|i| DownstreamRule {
                bitmap: PortBitmap::from_ports(fb.leaf_down_ports, [i % fb.leaf_down_ports]),
                switches: vec![i as u32, i as u32 + 64],
            })
            .collect();
        let wide = ElmoHeader {
            d_leaf: Arc::new(DownstreamSection::new(&leaf_rules, None, fb.leaf_id_bits)),
            ..ElmoHeader::empty()
        };
        let bytes = wide.encode(&fb);
        let (n, decoded) = allocations(|| ElmoHeader::decode(&bytes, &fb).expect("valid"));
        assert_eq!(decoded.0, wide);
        decode_costs.push((rules, n));
    }
    assert!(
        decode_costs
            .iter()
            .all(|&(_, n)| n == decode_costs[0].1 && n <= 3),
        "decode of one leaf section of 1..30 rules: {decode_costs:?}"
    );

    // --- a section's wire bits: built on its first flow, then shared -------
    // The downstream sections are built once per encoding and shared, so
    // fetching a header and building its flow moves reference counts, not
    // rule lists: the serialised bytes and the flow's header `Arc` are the
    // whole cost, for one rule or for nine (the header's upstream rules are
    // inline bitmaps). The first flow of a section also serialises that
    // section's rules, once; every later sender's flow splices those bits.
    let mut ctl = Controller::new(Clos::paper_example(), ControllerConfig::paper_default(0));
    let mut hv = HypervisorSwitch::new(HostId(0));
    // Hosts 0 and 8 share host port 0 on L0 and L1: one leaf rule, and no
    // spine section in the header of a sender in their pod. Leaf i
    // of the second group holds ports 0..=i: eight distinct leaf rules plus
    // one spine rule shared by the four identical pods.
    let one_rule: Vec<u32> = vec![0, 8];
    let nine_rules: Vec<u32> = (0..8u32)
        .flat_map(|l| (0..=l).map(move |p| l * 8 + p))
        .collect();
    let mut deploy_costs = Vec::new();
    for (gi, members) in [one_rule, nine_rules].iter().enumerate() {
        let gid = GroupId(gi as u64 + 10);
        let tenant = std::net::Ipv4Addr::new(225, 8, 8, gi as u8);
        let hosts = members.iter().map(|&h| (HostId(h), MemberRole::Both));
        ctl.create_group(gid, Vni(3), tenant, hosts);
        let state = ctl.group(gid).expect("created group");
        let header = ctl.header_for(gid, HostId(0)).expect("sender header");
        let rules = header.d_spine.len() + header.d_leaf.len();
        let sections = [&header.d_spine, &header.d_leaf]
            .iter()
            .filter(|s| s.bit_len() > 0)
            .count() as u64;
        drop(header);
        let build = |sender: u32| {
            let header = ctl.header_for(gid, HostId(sender)).expect("sender header");
            SenderFlow::new(state.outer_addr, Vni(3), &header, ctl.layout(), vec![])
        };
        let (n, _) = allocations(|| build(0));
        assert_eq!(
            n,
            2 + sections,
            "the group's first flow also serialises its {sections} section(s) once"
        );
        for &sender in members.iter().skip(1) {
            let (n, _) = allocations(|| build(sender));
            assert_eq!(
                n, 2,
                "flow of sender {sender}: {rules} shared rules, no bit-writing"
            );
        }
        let deploy = |hv: &mut HypervisorSwitch| {
            let flow = build(0);
            hv.install_flow(Vni(3), tenant, flow)
        };
        deploy(&mut hv);
        let (n, replaced) = allocations(|| deploy(&mut hv));
        assert!(replaced, "the second install replaces the first");
        deploy_costs.push((rules, n));
    }
    assert_eq!(deploy_costs[0].0, 1, "{deploy_costs:?}");
    assert!(deploy_costs[1].0 >= 8, "{deploy_costs:?}");
    for (rules, n) in &deploy_costs {
        assert_eq!(
            *n, 2,
            "header_for + SenderFlow::new + install_flow for {rules} rules: the flow's \
             bytes and its header Arc are the budget ({deploy_costs:?})"
        );
    }

    // --- s-rule writes: a search and a shift, never a rebuild ---------------
    // Once the table has held this many keys its two columns have the
    // capacity; a write that rebuilt any derived structure would allocate.
    let mut leaf =
        NetworkSwitch::new_leaf(Clos::paper_example(), LeafId(0), SwitchConfig::default());
    let groups: Vec<std::net::Ipv4Addr> = (0..256u32)
        .map(|i| (0xef01_0000 + i * 0x9e37 % 4096).into())
        .collect();
    let rule = |i: usize| PortBitmap::from_ports(layout.leaf_down_ports, [i % 8]);
    let write_all = |leaf: &mut NetworkSwitch| {
        for (i, g) in groups.iter().enumerate() {
            leaf.install_srule(*g, rule(i)).expect("under Fmax");
        }
        for (i, g) in groups.iter().enumerate() {
            leaf.install_srule(*g, rule(i + 1)).expect("overwrite");
        }
        let held = leaf.srule_count();
        for g in &groups {
            assert!(leaf.remove_srule(g));
        }
        held
    };
    write_all(&mut leaf);
    let (n, held) = allocations(|| write_all(&mut leaf));
    assert_eq!(held, groups.len(), "keys are distinct");
    assert_eq!(n, 0, "install + overwrite + remove on a warm group table");

    // --- HypervisorSwitch::receive: borrows, never builds -------------------
    let outer = "239.7.7.7".parse().expect("addr");
    let tenant = "225.1.2.3".parse().expect("addr");
    let mut tx = HypervisorSwitch::new(HostId(3));
    tx.install_flow(
        Vni(9),
        tenant,
        SenderFlow::new(outer, Vni(9), &header, &layout, vec![]),
    );
    // As the sender emits it (header still present: the grammar walk) and
    // as a leaf hands it to a host (header stripped: the common case).
    let with_header = tx.send(Vni(9), tenant, b"inner frame", &layout).remove(0);
    let (repr, inner_off) = ElmoPacketRepr::parse(&with_header, &layout).expect("valid");
    let mut stripped = Vec::new();
    ElmoPacketRepr { elmo: None, ..repr }.emit(&layout, &with_header[inner_off..], &mut stripped);
    let unicast = tx
        .send_unicast_to(&[HostId(5)], Vni(9), b"inner frame", &layout)
        .remove(0);

    let mut rx = HypervisorSwitch::new(HostId(5));
    rx.subscribe(outer, VmSlot(0));
    rx.subscribe(outer, VmSlot(2));
    let mut bystander = HypervisorSwitch::new(HostId(6));
    let receive = |hv: &mut HypervisorSwitch, pkt: &[u8]| {
        let mut frames = 0;
        for (vm, inner) in hv.receive(pkt, &layout) {
            assert_eq!(inner, b"inner frame");
            black_box(vm);
            frames += 1;
        }
        frames
    };
    // First use registers the fabric-wide counters; that is set-up, not
    // per-packet work.
    receive(&mut rx, &stripped);
    receive(&mut bystander, &stripped);

    let truncated = &stripped[..40];
    let mut hvs = [rx, bystander];
    for (what, hv, pkt, frames) in [
        ("deliver", 0, &stripped[..], 2),
        ("deliver, header present", 0, &with_header[..], 2),
        ("unicast to this host", 0, &unicast[..], 1),
        ("discard: no subscriber", 1, &stripped[..], 0),
        ("discard: another host's unicast", 1, &unicast[..], 0),
        ("discard: truncated", 0, truncated, 0),
    ] {
        let (n, got) = allocations(|| receive(&mut hvs[hv], pkt));
        assert_eq!(got, frames, "{what}");
        assert_eq!(n, 0, "receive allocated on the `{what}` branch");
    }
    let [rx, bystander] = hvs;
    assert_eq!(rx.stats.delivered, 2 + 2 + 2 + 1);
    assert_eq!(rx.stats.discarded, 1);
    assert_eq!(bystander.stats.discarded, 3);

    // --- Fabric::replay: a warm call into a reused batch makes one -----------
    // Queues, the delivery entries, the batch's length rows and the sort
    // keys all keep their capacity; the one allocation is the counting
    // sort's per-packet count buffer (not recycled on purpose, see
    // `DeliveryBatch::sort_canonical`). Any per-call worker, ring,
    // partition, seed or result vector would show up here as a count.
    let (mut fabric, flights) = example_groups_flights(3_000);
    let mut out = DeliveryBatch::new();
    for (batch, copies) in [(&flights[..], 8_000), (&flights[2..3], 5)] {
        fabric.replay(batch, &mut out);
        let (n, ()) = allocations(|| fabric.replay(batch, &mut out));
        assert_eq!(out.len(), copies);
        assert_eq!(n, 1, "warm replay of {} packets", batch.len());
    }
}
