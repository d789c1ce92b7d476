//! Ablation of the paper's encoding design decisions (§3.1, D1–D3).
//!
//! The paper walks its running example through three encoding stages:
//!
//! * **D1** — one p-rule per *physical* switch on the multicast tree
//!   (bitmap over the switch's ports + a per-layer switch identifier):
//!   161 bits for the Figure 3a group;
//! * **D2** — encode on the *logical* topology (one rule per pod's logical
//!   spine, one for the logical core, identifier-free upstream rules):
//!   83 bits (a ~48% reduction);
//! * **D3** — share bitmaps across switches within R: 62 bits (a further
//!   ~25%).
//!
//! This module recomputes all three stages for any group so the reductions
//! can be measured across a whole workload, not just the running example.
//! Exact bit counts depend on flag conventions Figure 2 leaves open (see
//! DESIGN.md §4); what must reproduce is the *ratio* of the reductions.

use elmo_core::{encode_group, EncoderConfig, HeaderLayout};
use elmo_topology::{Clos, GroupTree, HostId, LeafId, PodId, UpstreamCover};

/// Header bits under each design stage for one (group, sender) pair.
#[derive(Clone, Copy, Debug)]
pub struct AblationPoint {
    /// D1: per-physical-switch rules.
    pub d1_bits: usize,
    /// D2: logical topology, no sharing (each switch its own rule).
    pub d2_bits: usize,
    /// D3: logical topology with bitmap sharing at the given R.
    pub d3_bits: usize,
}

impl AblationPoint {
    /// Fractional reduction from D1 to D2.
    pub fn d2_reduction(&self) -> f64 {
        1.0 - self.d2_bits as f64 / self.d1_bits as f64
    }

    /// Fractional reduction from D2 to D3.
    pub fn d3_reduction(&self) -> f64 {
        1.0 - self.d3_bits as f64 / self.d2_bits as f64
    }
}

/// Bits to identify a physical switch of each layer (D1 uses per-layer
/// identifier widths: 2 bits for the example's four cores, 3 for its eight
/// spines/leaves).
fn physical_id_bits(topo: &Clos) -> (usize, usize, usize) {
    use elmo_core::layout::id_bits;
    (
        id_bits(topo.num_leaves()),
        id_bits(topo.num_spines()),
        id_bits(topo.num_cores()),
    )
}

/// D1: one `(full port bitmap, switch id, next flag)` rule per physical
/// switch the packet could touch. Without the logical-topology insight,
/// multipath means *every* spine of a participating pod and *every* core
/// may forward the packet, so each needs its own rule; and the strawman's
/// port accounting assumes the generic full-mesh spine<->core wiring (each
/// spine sees every core and vice versa), which is how the paper's 161-bit
/// figure for the running example arises.
pub fn d1_bits(topo: &Clos, tree: &GroupTree, sender: HostId) -> usize {
    let (leaf_id, spine_id, core_id) = physical_id_bits(topo);
    let sender_leaf = topo.leaf_of_host(sender);
    let sender_pod = topo.pod_of_leaf(sender_leaf);
    let leaf_rule = topo.leaf_ports() + leaf_id + 1;
    // Full-mesh port view: spine = pod leaves + all cores; core = all spines.
    let spine_rule = topo.spine_down_ports() + topo.num_cores() + spine_id + 1;
    let core_rule = topo.num_spines() + core_id + 1;

    let mut bits = 0usize;
    // Every member leaf needs a rule (the sender's own leaf included: it
    // replicates to co-located receivers and relays upward).
    bits += tree.num_leaves().max(1) * leaf_rule;
    if !tree.has_leaf(sender_leaf) {
        bits += leaf_rule;
    }
    // Every spine of every participating pod (multipath may land anywhere).
    let mut pods = tree.num_pods();
    if !tree.has_pod(sender_pod) {
        pods += 1;
    }
    let crosses = tree.pods().any(|p| p != sender_pod) || !tree.has_pod(sender_pod);
    if tree.num_leaves() > 1 || !tree.has_leaf(sender_leaf) || crosses {
        bits += pods * topo.params().spines_per_pod * spine_rule;
    }
    // Every core when the tree crosses pods.
    if crosses && tree.pods().any(|p| p != sender_pod) {
        bits += topo.num_cores() * core_rule;
    }
    bits
}

/// D2: the logical encoding with sharing disabled (R = 0 merges only
/// identical bitmaps; here we force one rule per switch by counting each
/// leaf and pod separately) — flags byte + upstream rules + core bitmap +
/// one identifier-bearing rule per pod and per leaf.
pub fn d2_bits(topo: &Clos, layout: &HeaderLayout, tree: &GroupTree, sender: HostId) -> usize {
    let sender_leaf = topo.leaf_of_host(sender);
    let sender_pod = topo.pod_of_leaf(sender_leaf);
    let mut bits = layout.flags_bits() + layout.u_leaf_bits();
    if tree.leaves().any(|l| l != sender_leaf) {
        bits += layout.u_spine_bits();
    }
    if tree.pods().any(|p| p != sender_pod) {
        bits += layout.core_bits();
        if tree.num_pods() > 1 {
            bits += tree.num_pods() * layout.d_spine_rule_bits(1);
        }
    }
    if tree.num_leaves() > 1 {
        bits += tree.num_leaves() * layout.d_leaf_rule_bits(1);
    }
    bits
}

/// D3: the real encoder at redundancy limit `r` (unlimited s-rule capacity,
/// paper budget).
pub fn d3_bits(
    topo: &Clos,
    layout: &HeaderLayout,
    tree: &GroupTree,
    sender: HostId,
    r: usize,
) -> usize {
    let encoder = EncoderConfig::with_budget(layout, 325, r);
    let mut sa = |_p: PodId| true;
    let mut la = |_l: LeafId| true;
    let enc = encode_group(topo, tree, &encoder, &mut sa, &mut la);
    elmo_core::header_for_sender(
        topo,
        layout,
        tree,
        &elmo_core::DownstreamSections::new(topo, layout, tree, &enc),
        sender,
        &UpstreamCover::multipath(),
    )
    .bit_len(layout)
}

/// All three stages for one group.
pub fn ablate(topo: &Clos, tree: &GroupTree, sender: HostId, r: usize) -> AblationPoint {
    let layout = HeaderLayout::for_clos(topo);
    AblationPoint {
        d1_bits: d1_bits(topo, tree, sender),
        d2_bits: d2_bits(topo, &layout, tree, sender),
        d3_bits: d3_bits(topo, &layout, tree, sender, r),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn running_example() -> (Clos, GroupTree) {
        let topo = Clos::paper_example();
        let tree = GroupTree::new(
            &topo,
            [
                HostId(0),
                HostId(1),
                HostId(42),
                HostId(48),
                HostId(49),
                HostId(57),
            ],
        );
        (topo, tree)
    }

    /// The §3.1 narrative: D1 -> D2 cuts the header roughly in half, D2 ->
    /// D3 shaves off another chunk. The paper's exact values (161 -> 83 ->
    /// 62 bits) depend on flag conventions Figure 2 leaves open; our layout
    /// must land in the same bands.
    #[test]
    fn running_example_reductions_match_paper_shape() {
        let (topo, tree) = running_example();
        let p = ablate(&topo, &tree, HostId(0), 2);
        // D1 lands at 160 bits vs the paper's 161 (one framing bit of
        // difference in an under-specified strawman layout).
        assert!(
            (150..=175).contains(&p.d1_bits),
            "d1 = {} bits (paper: 161)",
            p.d1_bits
        );
        // D2: ours carries a flags byte and per-rule next-flags the paper's
        // 83-bit count omits, landing slightly above.
        assert!(
            (75..=105).contains(&p.d2_bits),
            "d2 = {} bits (paper: 83)",
            p.d2_bits
        );
        // D3 below D2 (paper: 62 bits) — sharing must help this group.
        assert!(
            p.d3_bits < p.d2_bits,
            "d3 = {} >= d2 = {}",
            p.d3_bits,
            p.d2_bits
        );
        // Reduction magnitude for the logical-topology step: paper ~48%.
        assert!(p.d2_reduction() > 0.30, "d2 reduction {}", p.d2_reduction());
    }

    #[test]
    fn ablation_is_monotone_for_multi_pod_groups() {
        let (topo, tree) = running_example();
        let p = ablate(&topo, &tree, HostId(0), 12);
        assert!(p.d1_bits > p.d2_bits);
        assert!(p.d2_bits >= p.d3_bits);
    }

    #[test]
    fn leaf_local_group_is_tiny_under_all_stages() {
        let topo = Clos::paper_example();
        let tree = GroupTree::new(&topo, [HostId(0), HostId(1)]);
        let p = ablate(&topo, &tree, HostId(0), 0);
        assert!(p.d2_bits <= 32, "d2 = {}", p.d2_bits);
        assert!(p.d3_bits <= p.d2_bits + 8);
    }
}
