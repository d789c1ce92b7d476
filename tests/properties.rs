//! Property-based tests (proptest) over the core invariants:
//!
//! * the Elmo header wire format roundtrips for arbitrary rule structures;
//! * Algorithm 1 covers every input switch with a superset bitmap, within
//!   the redundancy budget, never exceeding Hmax/Kmax;
//! * per-sender headers always fit the byte budget;
//! * port bitmaps behave like sets.

// Requires the real `proptest` crate, which is not vendored in this
// offline workspace. Enable with `cargo test --features proptest` when
// the registry is reachable.
#![cfg(feature = "proptest")]

use proptest::prelude::*;

use elmo::controller::srules::{encode_group_admitted, SRuleSpace};
use elmo::core::{
    cluster_layer, header_for_sender, ClusterConfig, DownstreamRule, ElmoHeader, EncodeScratch,
    EncoderConfig, HeaderLayout, PortBitmap, RedundancyMode, UpstreamRule,
};
use elmo::topology::{Clos, GroupTree, HostId, UpstreamCover};

fn example_layout() -> HeaderLayout {
    HeaderLayout::for_clos(&Clos::paper_example())
}

prop_compose! {
    fn arb_bitmap(width: usize)(bits in proptest::collection::vec(any::<bool>(), width)) -> PortBitmap {
        PortBitmap::from_ports(width, bits.iter().enumerate().filter(|(_, b)| **b).map(|(i, _)| i))
    }
}

prop_compose! {
    fn arb_upstream(down: usize, up: usize)(
        d in arb_bitmap(down),
        m in any::<bool>(),
        u in arb_bitmap(up),
    ) -> UpstreamRule {
        UpstreamRule { down: d, multipath: m, up: u }
    }
}

fn arb_rules(
    width: usize,
    id_bits: usize,
    max_rules: usize,
) -> impl Strategy<Value = Vec<DownstreamRule>> {
    let max_id = (1u32 << id_bits) - 1;
    proptest::collection::vec(
        (
            arb_bitmap(width),
            proptest::collection::btree_set(0..=max_id, 1..=3),
        ),
        0..=max_rules,
    )
    .prop_map(|rules| {
        rules
            .into_iter()
            .map(|(bitmap, ids)| DownstreamRule {
                bitmap,
                switches: ids.into_iter().collect(),
            })
            .collect()
    })
}

prop_compose! {
    fn arb_header()(
        u_leaf in proptest::option::of(arb_upstream(8, 2)),
        u_spine in proptest::option::of(arb_upstream(2, 2)),
        core in proptest::option::of(arb_bitmap(4)),
        d_spine in arb_rules(2, 2, 3),
        d_spine_default in proptest::option::of(arb_bitmap(2)),
        d_leaf in arb_rules(8, 3, 5),
        d_leaf_default in proptest::option::of(arb_bitmap(8)),
    ) -> ElmoHeader {
        ElmoHeader { u_leaf, u_spine, core, d_spine, d_spine_default, d_leaf, d_leaf_default }
    }
}

proptest! {
    /// Any structurally valid header survives encode -> decode unchanged,
    /// and the encoded size matches the accounting.
    #[test]
    fn header_roundtrip(header in arb_header()) {
        let layout = example_layout();
        let bytes = header.encode(&layout);
        prop_assert_eq!(bytes.len(), header.byte_len(&layout));
        let (decoded, used) = ElmoHeader::decode(&bytes, &layout).expect("decodes");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(decoded, header);
    }

    /// Truncating an encoded header anywhere never panics — it errors.
    #[test]
    fn truncated_headers_error_cleanly(header in arb_header(), cut_frac in 0.0f64..1.0) {
        let layout = example_layout();
        let bytes = header.encode(&layout);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        if cut < bytes.len() {
            // Either an error, or (if the cut landed past all content) a
            // successful parse of a prefix; both are fine — no panic.
            let _ = ElmoHeader::decode(&bytes[..cut], &layout);
        }
    }

    /// Bitmap algebra: union is commutative and monotone; Hamming distance
    /// is a metric restricted to our uses.
    #[test]
    fn bitmap_algebra(a in arb_bitmap(48), b in arb_bitmap(48)) {
        prop_assert_eq!(a.or(&b), b.or(&a));
        prop_assert_eq!(a.union_count(&b), a.or(&b).count_ones());
        prop_assert!(a.is_subset_of(&a.or(&b)));
        prop_assert!(b.is_subset_of(&a.or(&b)));
        prop_assert_eq!(a.hamming(&b), b.hamming(&a));
        prop_assert_eq!(a.hamming(&a), 0);
        let ones: Vec<usize> = a.iter_ones().collect();
        prop_assert_eq!(ones.len(), a.count_ones());
        prop_assert!(ones.windows(2).all(|w| w[0] < w[1]));
    }

    /// Algorithm 1 invariants, for arbitrary layers and budgets.
    #[test]
    fn clustering_invariants(
        bitmaps in proptest::collection::vec(arb_bitmap(16), 1..24),
        r in 0usize..8,
        h_max in 0usize..10,
        k_max in 1usize..4,
        srule_budget in 0usize..10,
    ) {
        let inputs: Vec<(u32, PortBitmap)> =
            bitmaps.into_iter().enumerate().map(|(i, b)| (i as u32, b)).collect();
        let cfg = ClusterConfig { r, h_max, bit_budget: usize::MAX, id_bits: 8, k_max, mode: RedundancyMode::Sum };
        let mut left = srule_budget;
        let mut alloc = |_s: u32| {
            if left > 0 { left -= 1; true } else { false }
        };
        let enc = cluster_layer(&inputs, &cfg, &mut alloc);

        // Every input switch is covered by exactly one rule source, and its
        // assigned bitmap is a superset of its exact ports.
        for (s, bm) in &inputs {
            let assigned = enc.bitmap_for(*s);
            prop_assert!(assigned.is_some(), "switch {} uncovered", s);
            prop_assert!(bm.is_subset_of(assigned.expect("assigned")));
        }
        // Budgets respected.
        prop_assert!(enc.p_rules.len() <= h_max);
        prop_assert!(enc.p_rules.iter().all(|rule| rule.switches.len() <= k_max));
        prop_assert!(enc.s_rules.len() <= srule_budget);
        // Redundancy bound: for every shared p-rule, the summed Hamming
        // distance of members to the output stays within R.
        for rule in &enc.p_rules {
            let total: usize = rule
                .switches
                .iter()
                .map(|s| {
                    inputs.iter().find(|(i, _)| i == s).expect("member exists").1.hamming(&rule.bitmap)
                })
                .sum();
            prop_assert!(total <= r || rule.switches.len() == 1, "rule over budget");
        }
        // No switch appears in two rule sources.
        let mut seen = std::collections::BTreeSet::new();
        for s in enc
            .p_rules
            .iter()
            .flat_map(|rule| rule.switches.iter())
            .chain(enc.s_rules.iter().map(|(s, _)| s))
            .chain(enc.default_switches.iter())
        {
            prop_assert!(seen.insert(*s), "switch {} double-assigned", s);
        }
        prop_assert_eq!(seen.len(), inputs.len());
    }

    /// Whole-group encodings always produce headers within the byte budget,
    /// for every sender.
    #[test]
    fn headers_fit_budget(
        seeds in proptest::collection::btree_set(0u32..64, 2..16),
        r in 0usize..13,
        budget in 40usize..120,
    ) {
        let topo = Clos::paper_example();
        let layout = HeaderLayout::for_clos(&topo);
        let members: Vec<HostId> = seeds.into_iter().map(HostId).collect();
        let tree = GroupTree::new(&topo, members.iter().copied());
        let encoder = EncoderConfig::with_budget(&layout, budget, r);
        let mut space = SRuleSpace::unlimited(&topo);
        let enc =
            encode_group_admitted(&topo, &tree, &encoder, &mut space, &mut EncodeScratch::new());
        for &sender in &members {
            let header = header_for_sender(
                &topo, &layout, &tree, &enc, sender, &UpstreamCover::multipath(),
            );
            let bytes = header.encode(&layout);
            prop_assert!(
                bytes.len() <= budget,
                "sender {}: {} > {} bytes", sender, bytes.len(), budget
            );
            // And it still roundtrips.
            let (decoded, _) = ElmoHeader::decode(&bytes, &layout).expect("decodes");
            prop_assert_eq!(decoded, header);
        }
    }

    /// The receiver trees are placement-faithful: every member maps to a
    /// leaf/pod that reports it back.
    #[test]
    fn tree_projection_is_consistent(seeds in proptest::collection::btree_set(0u32..64, 1..20)) {
        let topo = Clos::paper_example();
        let members: Vec<HostId> = seeds.into_iter().map(HostId).collect();
        let tree = GroupTree::new(&topo, members.iter().copied());
        prop_assert_eq!(tree.size(), members.len());
        for &h in &members {
            let leaf = topo.leaf_of_host(h);
            prop_assert!(tree.hosts_on_leaf(leaf).contains(&h));
            prop_assert!(tree.leaves_in_pod(topo.pod_of_leaf(leaf)).contains(&leaf));
        }
        let leaf_total: usize = tree.leaves().map(|l| tree.hosts_on_leaf(l).len()).sum();
        prop_assert_eq!(leaf_total, members.len());
    }
}
