//! Adversarial-input robustness: every parser in the packet path must
//! handle arbitrary bytes without panicking — a switch that panics on a
//! malformed packet is a denial-of-service vector (the paper's §7 security
//! discussion puts hypervisors in charge of dropping malicious packets,
//! but the network switches must survive whatever still reaches them).
//!
//! Two tiers:
//! - an always-on deterministic suite (`deterministic` module below) that
//!   drives seeded pseudo-random bytes and structured corruptions of valid
//!   packets through `ElmoHeader::decode`, `ElmoPacketRepr::parse`, and
//!   `FlightPacket::parse`, asserting typed errors rather than panics;
//! - a property-based suite gated behind `--features proptest` (the crate
//!   is not vendored in this offline workspace).

use elmo::core::{ElmoHeader, HeaderLayout};
use elmo::dataplane::{ElmoPacketRepr, FlightPacket};
use elmo::topology::Clos;

fn layout() -> HeaderLayout {
    HeaderLayout::for_clos(&Clos::paper_example())
}

/// SplitMix64: tiny, seedable, good-enough byte source for deterministic
/// fuzzing without an external crate.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

/// A valid multicast packet with a two-section Elmo header, as the
/// quickstart's sender hypervisor would emit it.
fn valid_packet(layout: &HeaderLayout) -> Vec<u8> {
    packet_to(layout, "239.0.0.5".parse().expect("addr"), true)
}

/// A valid packet to `dst` (multicast group or host address), with the
/// Elmo header still present or already stripped by the last leaf.
fn packet_to(layout: &HeaderLayout, dst: std::net::Ipv4Addr, with_elmo: bool) -> Vec<u8> {
    let mut header = ElmoHeader::empty();
    header.u_leaf = Some(elmo::core::UpstreamRule {
        down: elmo::core::PortBitmap::from_ports(layout.leaf_down_ports, [1]),
        multipath: true,
        up: elmo::core::PortBitmap::new(layout.leaf_up_ports),
    });
    header.core = Some(elmo::core::PortBitmap::from_ports(layout.core_ports, [2]));
    let repr = ElmoPacketRepr {
        src_mac: elmo::net::ethernet::MacAddr::for_host(0),
        dst_mac: elmo::net::ethernet::MacAddr::from_ipv4_multicast(dst),
        src_ip: "10.0.0.7".parse().expect("addr"),
        group_ip: dst,
        flow_entropy: 7,
        vni: elmo::net::vxlan::Vni(3),
        elmo: with_elmo.then_some(header),
    };
    let mut pkt = Vec::new();
    repr.emit(layout, b"fuzz payload", &mut pkt);
    pkt
}

/// Random bytes of every length up to 160 into all three parsers: a typed
/// `Err` or a self-consistent `Ok`, never a panic. Decode round-trip
/// lengths must stay inside the input.
#[test]
fn random_bytes_yield_typed_errors() {
    let layout = layout();
    let mut rng = SplitMix64(0xe1_40_f0_22);
    let mut ok_headers = 0usize;
    for len in 0..160 {
        for _rep in 0..8 {
            let mut bytes = vec![0u8; len];
            rng.fill(&mut bytes);
            if let Ok((header, used)) = ElmoHeader::decode(&bytes, &layout) {
                assert!(used <= bytes.len());
                assert_eq!(header.byte_len(&layout), used);
                ok_headers += 1;
            }
            let repr = ElmoPacketRepr::parse(&bytes, &layout);
            let flight = FlightPacket::parse(&bytes, &layout);
            // The two parsers share one grammar: they must agree on
            // accept/reject for identical input.
            assert_eq!(repr.is_ok(), flight.is_ok(), "parsers diverge at len {len}");
            if let (Ok((r, inner_off)), Ok(f)) = (repr, flight) {
                assert!(inner_off <= bytes.len());
                assert_eq!(r.vni, f.vni);
                assert_eq!(&bytes[inner_off..], f.payload.as_ref());
            }
        }
    }
    // The decoder accepting some random blobs is fine (short headers have
    // little redundancy); the assertions above still hold for each.
    let _ = ok_headers;
}

/// Every truncation of a valid packet: the parsers must reject the prefix
/// with a typed error (no prefix of a longer packet is itself valid, since
/// the IPv4 total-length field covers the full datagram).
#[test]
fn truncations_of_valid_packet_are_rejected() {
    let layout = layout();
    let pkt = valid_packet(&layout);
    for len in 0..pkt.len() {
        let prefix = &pkt[..len];
        assert!(
            ElmoPacketRepr::parse(prefix, &layout).is_err(),
            "truncation to {len} bytes parsed"
        );
        assert!(FlightPacket::parse(prefix, &layout).is_err());
    }
    let (full, _) = ElmoPacketRepr::parse(&pkt, &layout).expect("untruncated packet parses");
    assert!(full.elmo.is_some(), "fixture carries an Elmo header");
}

/// Every single-byte corruption of a valid packet, all eight bit
/// positions: parse may succeed (payload/entropy bits carry no
/// redundancy) or fail typed, but must never panic — and a successful
/// parse must re-emit without panicking either.
#[test]
fn single_bit_flips_never_panic() {
    let layout = layout();
    let pkt = valid_packet(&layout);
    let mut scratch = Vec::new();
    for at in 0..pkt.len() {
        for bit in 0..8 {
            let mut corrupted = pkt.clone();
            corrupted[at] ^= 1 << bit;
            if let Ok((repr, inner_off)) = ElmoPacketRepr::parse(&corrupted, &layout) {
                repr.emit(&layout, &corrupted[inner_off..], &mut scratch);
            }
            let _ = FlightPacket::parse(&corrupted, &layout);
        }
    }
}

/// `FlightBatch::push_wire` must share `FlightPacket::parse`'s grammar
/// exactly over adversarial inputs — truncations, single-bit flips, and
/// seeded random buffers. Accept/reject parity (same typed error) on
/// every input, a rejected input leaves the batch untouched, and every
/// accepted packet's precomputed wire-length rows agree with the
/// per-state lengths the scalar path computes on demand.
#[test]
fn push_wire_parity_with_scalar_parse() {
    let layout = layout();
    let pkt = valid_packet(&layout);
    let mut batch = elmo::dataplane::FlightBatch::new();
    let check = |bytes: &[u8], batch: &mut elmo::dataplane::FlightBatch| {
        let before = batch.len();
        match (
            batch.push_wire(bytes, &layout),
            FlightPacket::parse(bytes, &layout),
        ) {
            (Ok(()), Ok(parsed)) => {
                assert_eq!(
                    batch.len(),
                    before + 1,
                    "push_wire accepted without pushing"
                );
                let i = batch.len() - 1;
                for depth in elmo::core::pop::NONE..=elmo::core::pop::D_SPINE {
                    let mut copy = parsed.clone();
                    copy.popped = depth;
                    assert_eq!(
                        batch.wire_len(i, depth),
                        copy.wire_len(&layout),
                        "wire-length row diverged at depth {depth}"
                    );
                }
                // u8::MAX is the engine's host-stripped state: the row must
                // equal the length of the fully materialized host copy.
                assert_eq!(
                    batch.wire_len(i, u8::MAX),
                    parsed.to_host_bytes(&layout).len(),
                    "host-stripped wire-length row diverged"
                );
            }
            (Err(got), Err(want)) => {
                assert_eq!(got, want, "push_wire and scalar parse errors differ");
                assert_eq!(batch.len(), before, "rejected input mutated the batch");
            }
            (got, want) => panic!(
                "accept/reject divergence: push_wire={got:?}, parse={}",
                if want.is_ok() { "Ok" } else { "Err" }
            ),
        }
    };
    for len in 0..=pkt.len() {
        check(&pkt[..len], &mut batch);
    }
    for at in 0..pkt.len() {
        for bit in 0..8 {
            let mut corrupted = pkt.clone();
            corrupted[at] ^= 1 << bit;
            check(&corrupted, &mut batch);
        }
    }
    let mut rng = SplitMix64(0xf1e7_ba7c);
    let mut buf = [0u8; 128];
    for len in [0usize, 8, 40, 64, 96, 128] {
        for _ in 0..64 {
            rng.fill(&mut buf[..len]);
            check(&buf[..len], &mut batch);
        }
    }
    assert!(
        !batch.is_empty(),
        "the valid fixture must have been accepted"
    );
}

/// Corruptions aimed at the Elmo header region specifically: random bytes
/// overwrite the section area so the bitmap-count and switch-count fields
/// take arbitrary values; the decoder must bound-check every claimed
/// length against the buffer instead of trusting it.
#[test]
fn header_region_corruption_is_bounded() {
    let layout = layout();
    let pkt = valid_packet(&layout);
    let elmo_start = ElmoPacketRepr::OUTER_LEN;
    let mut rng = SplitMix64(0x5eed);
    for _rep in 0..4096 {
        let mut corrupted = pkt.clone();
        let span = (rng.next_u64() as usize % (corrupted.len() - elmo_start)).max(1);
        rng.fill(&mut corrupted[elmo_start..elmo_start + span]);
        if let Ok((header, used)) = ElmoHeader::decode(&corrupted[elmo_start..], &layout) {
            assert!(used <= corrupted.len() - elmo_start);
            assert_eq!(header.byte_len(&layout), used);
        }
        let _ = ElmoPacketRepr::parse(&corrupted, &layout);
        let _ = FlightPacket::parse(&corrupted, &layout);
    }
}

/// The hypervisor's receive path validates through the edge parse, which
/// builds nothing. Over the whole corpus — random bytes, truncations, bit
/// flips and header-region corruption of packets to a subscribed group, an
/// unsubscribed group, this host and another host — it must accept exactly
/// what `ElmoPacketRepr::parse` accepts, with the same error otherwise;
/// `receive` must yield the subscribers' deliveries iff the bytes parse and
/// the destination is subscribed (or is this host's unicast address), every
/// delivery must borrow exactly `&bytes[inner_off..]`, and each call must
/// count exactly one outcome.
#[test]
fn edge_receive_agrees_with_full_parse() {
    use elmo::dataplane::{host_ip, HypervisorSwitch, VmSlot};
    use elmo::topology::HostId;

    let layout = layout();
    let subscribed: std::net::Ipv4Addr = "239.0.0.5".parse().expect("addr");
    let mut hv = HypervisorSwitch::new(HostId(5));
    hv.subscribe(subscribed, VmSlot(0));
    hv.subscribe(subscribed, VmSlot(3));
    let (mut delivered_calls, mut unicast_calls, mut discarded_calls) = (0u32, 0u32, 0u32);

    let mut check = |bytes: &[u8]| {
        let full = ElmoPacketRepr::parse(bytes, &layout);
        assert_eq!(
            ElmoPacketRepr::parse_edge(bytes, &layout),
            full.as_ref()
                .map(|(repr, inner_off)| (repr.group_ip, *inner_off))
                .map_err(|e| *e),
            "edge and full parse diverge on {bytes:02x?}"
        );
        let expect: Vec<(VmSlot, &[u8])> = match &full {
            Ok((repr, off)) if repr.group_ip == subscribed => {
                delivered_calls += 1;
                vec![(VmSlot(0), &bytes[*off..]), (VmSlot(3), &bytes[*off..])]
            }
            Ok((repr, off)) if repr.group_ip == hv.ip() => {
                unicast_calls += 1;
                vec![(VmSlot(0), &bytes[*off..])]
            }
            _ => {
                discarded_calls += 1;
                Vec::new()
            }
        };
        let before = hv.stats;
        let got = hv.receive(bytes, &layout);
        assert_eq!(got.len(), expect.len());
        assert_eq!(got.is_empty(), expect.is_empty());
        assert_eq!(got.collect::<Vec<_>>(), expect);
        assert_eq!(
            (
                hv.stats.delivered - before.delivered,
                hv.stats.discarded - before.discarded
            ),
            (expect.len() as u64, expect.is_empty() as u64),
            "one outcome per call"
        );
    };

    let mut rng = SplitMix64(0xed6e_fa11);
    for len in 0..160 {
        for _rep in 0..8 {
            let mut bytes = vec![0u8; len];
            rng.fill(&mut bytes);
            check(&bytes);
        }
    }
    for dst in [
        subscribed,
        "239.0.0.6".parse().expect("addr"),
        host_ip(HostId(5)),
        host_ip(HostId(6)),
    ] {
        for with_elmo in [true, false] {
            let pkt = packet_to(&layout, dst, with_elmo);
            for len in 0..=pkt.len() {
                check(&pkt[..len]);
            }
            for at in 0..pkt.len() {
                for bit in 0..8 {
                    let mut corrupted = pkt.clone();
                    corrupted[at] ^= 1 << bit;
                    check(&corrupted);
                }
            }
            let after_outer = ElmoPacketRepr::OUTER_LEN;
            for _rep in 0..1024 {
                let mut corrupted = pkt.clone();
                let span = (rng.next_u64() as usize % (corrupted.len() - after_outer)).max(1);
                rng.fill(&mut corrupted[after_outer..after_outer + span]);
                check(&corrupted);
            }
        }
    }
    assert!(
        delivered_calls > 1000 && unicast_calls > 1000 && discarded_calls > 1000,
        "every branch exercised: {delivered_calls} delivered, {unicast_calls} unicast, \
         {discarded_calls} discarded"
    );
}

/// The observability JSON parsers get the same deterministic treatment as
/// the packet parsers: `Snapshot::from_json`, `CopyTree::from_json`, and
/// `TimelineWindow::from_json` all accept attacker-supplied files (CI
/// artifacts, `--report-out` documents, `timeline.jsonl` lines), so random
/// bytes, truncations, and bit flips must yield typed errors — and valid
/// documents must round-trip losslessly.
mod obs_documents {
    use super::SplitMix64;
    use elmo::obs::{CopyTree, Snapshot, TimelineWindow, TraceEvent, HOST_NODE_BIT, TRACE_ROOT};

    fn valid_tree() -> CopyTree {
        let events = [
            TraceEvent {
                pkt: 0,
                parent: TRACE_ROOT,
                child: 0,
                state: 0,
            },
            TraceEvent {
                pkt: 0,
                parent: 0,
                child: 6,
                state: 1,
            },
            TraceEvent {
                pkt: 0,
                parent: 6,
                child: HOST_NODE_BIT | 42,
                state: u8::MAX,
            },
        ];
        let mut tree = CopyTree::build(0, &events, |n| format!("sw:{n}"));
        tree.annotate(|n| {
            if n.node & HOST_NODE_BIT != 0 {
                ("deliver".into(), String::new())
            } else {
                ("p-rule".into(), format!("g1/p{}", n.state))
            }
        });
        tree
    }

    fn valid_window() -> TimelineWindow {
        let mut w = TimelineWindow {
            index: 7,
            ..TimelineWindow::default()
        };
        w.counters.insert("dataplane.prule_hits".into(), 64);
        w.counters.insert("fabric.packets_on_links".into(), 112);
        w.gauges.insert("timeline.window.deliveries".into(), 40);
        w
    }

    /// Random bytes into all three document parsers: typed errors or a
    /// self-consistent success, never a panic.
    #[test]
    fn random_bytes_yield_typed_errors() {
        let mut rng = SplitMix64(0x0b5_d0c5);
        for len in 0..256 {
            for _rep in 0..4 {
                let mut bytes = vec![0u8; len];
                rng.fill(&mut bytes);
                let text = String::from_utf8_lossy(&bytes);
                let _ = Snapshot::from_json(&text);
                let _ = CopyTree::from_json(&text);
                let _ = TimelineWindow::from_json(&text);
            }
        }
    }

    /// Valid documents survive a parse → serialize → parse cycle without
    /// losing anything.
    #[test]
    fn valid_documents_round_trip_losslessly() {
        let tree = valid_tree();
        let back = CopyTree::from_json(&tree.to_json()).expect("tree parses");
        assert_eq!(back, tree);
        assert_eq!(back.to_json(), tree.to_json());

        let window = valid_window();
        let back = TimelineWindow::from_json(&window.to_json()).expect("window parses");
        assert_eq!(back, window);
        assert_eq!(back.to_json(), window.to_json());

        let snap = {
            // A live snapshot is process-global; go through JSON so the
            // fixture is stable regardless of what other tests recorded.
            elmo::obs::counter("fuzz.obs_documents.probe").add(3);
            elmo::obs::snapshot()
        };
        let json = snap.to_json();
        let back = Snapshot::from_json(&json).expect("snapshot parses");
        assert_eq!(back.counter("fuzz.obs_documents.probe"), Some(3));
        assert_eq!(back.to_json(), json);
    }

    /// Every truncation of each valid document is rejected with a typed
    /// error — braces never balance early, since the last non-whitespace
    /// byte closes the root object.
    #[test]
    fn truncations_are_rejected() {
        let tree_json = valid_tree().to_json();
        for len in 0..tree_json.trim_end().len() {
            assert!(
                CopyTree::from_json(&tree_json[..len]).is_err(),
                "tree truncation to {len} bytes parsed"
            );
        }
        let window_json = valid_window().to_json();
        for len in 0..window_json.trim_end().len() {
            assert!(TimelineWindow::from_json(&window_json[..len]).is_err());
        }
    }

    /// Single-byte corruptions: parse may succeed (string content carries
    /// no redundancy) or fail typed, but never panic — and a successful
    /// parse must re-serialize without panicking.
    #[test]
    fn single_byte_corruptions_never_panic() {
        let tree_json = valid_tree().to_json();
        let window_json = valid_window().to_json();
        let mut rng = SplitMix64(0xf1_1b);
        for (doc, which) in [(&tree_json, 0u8), (&window_json, 1)] {
            for at in 0..doc.len() {
                let mut corrupted = doc.clone().into_bytes();
                corrupted[at] ^= 1 << (rng.next_u64() % 8);
                let text = String::from_utf8_lossy(&corrupted);
                match which {
                    0 => {
                        if let Ok(t) = CopyTree::from_json(&text) {
                            let _ = t.to_json();
                        }
                    }
                    _ => {
                        if let Ok(w) = TimelineWindow::from_json(&text) {
                            let _ = w.to_json();
                        }
                    }
                }
            }
        }
    }
}

#[cfg(feature = "proptest")]
mod property_based {
    use proptest::prelude::*;

    use super::layout;
    use elmo::core::{ElmoHeader, HeaderLayout};
    use elmo::dataplane::{
        ElmoPacketRepr, Fabric, FlightPacket, HypervisorSwitch, NetworkSwitch, SwitchConfig,
    };
    use elmo::topology::{Clos, CoreId, HostId, LeafId, SpineId};

    /// The copies `sw` emits for `bytes` arriving on `port` (none when the
    /// bytes do not parse — the fabric drops those at the ingress leaf).
    fn hops(
        sw: &mut NetworkSwitch,
        port: usize,
        bytes: &[u8],
        layout: &HeaderLayout,
    ) -> Vec<(u16, u8)> {
        let mut out = Vec::new();
        if let Ok(pkt) = FlightPacket::parse(bytes, layout) {
            sw.process_hops_hv(port, &pkt, pkt.header_vector_len(layout), &mut out);
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Raw bytes into the header decoder: error or success, never a panic,
        /// and success must re-encode to a prefix-consistent length.
        #[test]
        fn header_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let layout = layout();
            if let Ok((header, used)) = ElmoHeader::decode(&bytes, &layout) {
                prop_assert!(used <= bytes.len());
                prop_assert_eq!(header.byte_len(&layout), used);
            }
        }

        /// Raw bytes into the full packet parser.
        #[test]
        fn packet_parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
            let _ = ElmoPacketRepr::parse(&bytes, &layout());
        }

        /// Raw bytes into every switch role, on both upstream and downstream
        /// ports: the switch may drop (and count) but must not panic, and must
        /// never emit copies for garbage.
        #[test]
        fn switches_survive_garbage(
            bytes in proptest::collection::vec(any::<u8>(), 0..96),
            ingress in 0usize..4,
        ) {
            let topo = Clos::paper_example();
            let layout = layout();
            let mut leaf = NetworkSwitch::new_leaf(topo, LeafId(0), SwitchConfig::default());
            let mut spine = NetworkSwitch::new_spine(topo, SpineId(0), SwitchConfig::default());
            let mut core = NetworkSwitch::new_core(topo, CoreId(0), SwitchConfig::default());
            prop_assert!(hops(&mut leaf, ingress, &bytes, &layout).is_empty());
            prop_assert!(hops(&mut leaf, 8 + ingress % 2, &bytes, &layout).is_empty());
            prop_assert!(hops(&mut spine, ingress % 2, &bytes, &layout).is_empty());
            prop_assert!(hops(&mut spine, 2 + ingress % 2, &bytes, &layout).is_empty());
            prop_assert!(hops(&mut core, ingress, &bytes, &layout).is_empty());
        }

        /// Raw bytes into the hypervisor receive path and the IGMP interceptor.
        #[test]
        fn hypervisor_survives_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
            let layout = layout();
            let mut hv = HypervisorSwitch::new(HostId(5));
            prop_assert!(hv.receive(&bytes, &layout).is_empty());
            let _ = hv.intercept_igmp(elmo::dataplane::VmSlot(0), &bytes);
        }

        /// Bit-flip corruption of a valid packet: the data plane must either
        /// drop it (checksum/structure) or deliver without panicking — and a
        /// flipped IPv4 header byte must always be caught by the checksum.
        #[test]
        fn bit_flips_are_contained(flip_at in 14usize..34, flip_bit in 0u8..8) {
            let topo = Clos::paper_example();
            let layout = HeaderLayout::for_clos(&topo);
            let mut pkt = super::valid_packet(&layout);
            // Flip one bit inside the IPv4 header.
            pkt[flip_at] ^= 1 << flip_bit;
            // A corrupted IPv4 header must be dropped by the checksum — unless
            // the flip hit the checksum-neutral... there is none: any single
            // bit flip breaks the ones-complement sum.
            prop_assert!(FlightPacket::parse(&pkt, &layout).is_err());
            let mut fabric = Fabric::new(topo, SwitchConfig::default());
            prop_assert!(fabric.inject(HostId(0), pkt).is_empty());
            prop_assert_eq!(fabric.leaf(LeafId(0)).stats.dropped_parse, 1);
        }
    }
}
