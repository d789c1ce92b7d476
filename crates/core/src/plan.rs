//! Whole-group encoding: turning a multicast tree into p-rules, s-rules and
//! per-sender packet headers.
//!
//! [`encode_group`] runs Algorithm 1 once per downstream layer (spine, leaf)
//! to produce the *shared* rules of a group. [`header_for_sender`] then
//! assembles the actual packet header for one sender: the sender-specific
//! upstream p-rules (leaf, spine, core — D2b/c) prepended to the shared
//! downstream sections. s-rules returned by the encoding are installed into
//! switch group tables by the controller; they never appear in the header.

use elmo_topology::{Clos, GroupTree, HostId, LeafId, PodId, UpstreamCover};

use crate::bitmap::PortBitmap;
use crate::cluster::{
    cluster_layer_with, ClusterConfig, ClusterScratch, LayerEncoding, RedundancyMode,
};
use crate::header::{DownstreamRule, ElmoHeader, UpstreamRule};
use crate::layout::HeaderLayout;

/// Tunable parameters of the group encoder.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EncoderConfig {
    /// Redundancy limit `R` for p-rule sharing.
    pub r: usize,
    /// `Kmax`: switches per shared p-rule.
    pub k_max: usize,
    /// `Hmax` for the downstream spine layer.
    pub h_spine_max: usize,
    /// `Hmax` for the downstream leaf layer (upper bound; per group the
    /// byte budget below may tighten it further).
    pub h_leaf_max: usize,
    /// Total header byte budget. The leaf layer's effective `Hmax` for each
    /// group is recomputed from the bytes left after its actual upstream and
    /// spine sections, so encoded headers never exceed this size.
    pub budget_bytes: usize,
    /// Redundancy interpretation.
    pub mode: RedundancyMode,
}

impl EncoderConfig {
    /// The paper's evaluation configuration: a 325-byte header budget giving
    /// two downstream spine p-rules and (for the Facebook fabric) roughly
    /// 30 downstream leaf p-rules' worth of bits.
    pub fn paper_default(layout: &HeaderLayout, r: usize) -> Self {
        Self::with_budget(layout, 325, r)
    }

    /// Derive the constraints from a total header-size budget in bytes
    /// (§5.1.2): two downstream spine p-rules, with the leaf layer taking
    /// whatever *bits* remain after the group's actual upstream and spine
    /// sections. Pods beyond the spine budget fall back to s-rules on the
    /// pod's spines — that spill is what the paper's Figures 4/5 center
    /// panels measure as spine s-rule demand.
    ///
    /// `Kmax = 8`: the redundancy limit `R`, not `Kmax`, is the effective
    /// bound on lossy sharing (e.g. at R = 12 four single-host leaf bitmaps
    /// can merge — 4·4−4 = 12 spurious copies — but a fifth cannot), and
    /// the bit budget charges every extra identifier, so a large `Kmax`
    /// only engages when it genuinely compresses the header.
    pub fn with_budget(layout: &HeaderLayout, budget_bytes: usize, r: usize) -> Self {
        let _ = layout;
        EncoderConfig {
            r,
            k_max: 8,
            h_spine_max: 2,
            h_leaf_max: usize::MAX,
            budget_bytes,
            mode: RedundancyMode::Sum,
        }
    }
}

/// The shared (sender-independent) encoding of one group.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GroupEncoding {
    /// Downstream spine layer; switch identifiers are pod indices.
    pub d_spine: LayerEncoding,
    /// Downstream leaf layer; switch identifiers are global leaf indices.
    pub d_leaf: LayerEncoding,
}

impl GroupEncoding {
    /// Whether the whole group is represented without s-rules or default
    /// p-rules in either layer.
    pub fn covered_by_p_rules(&self) -> bool {
        self.d_spine.covered_by_p_rules() && self.d_leaf.covered_by_p_rules()
    }

    /// Whether the *leaf* layer is covered by non-default p-rules — the
    /// "groups covered with p-rules" metric of Figures 4/5. The spine layer
    /// is capped at two p-rules by design, and its spill into pod s-rules is
    /// reported separately (the figures' center panels), so it does not
    /// disqualify a group here.
    pub fn leaf_covered_by_p_rules(&self) -> bool {
        self.d_leaf.covered_by_p_rules()
    }

    /// Number of s-rules this group installs at spine pods and leaves.
    pub fn srule_count(&self) -> usize {
        self.d_spine.s_rules.len() + self.d_leaf.s_rules.len()
    }
}

/// Reusable buffers for [`encode_group_with`]. One instance per worker
/// thread amortizes the per-group input-bitmap and clustering allocations
/// across an entire sweep.
#[derive(Default, Debug)]
pub struct EncodeScratch {
    /// Layer input slots, reused by the spine and then the leaf layer. Only
    /// the first `n` slots filled by the current layer are live; stale slots
    /// beyond that keep their buffers for later groups.
    inputs: Vec<(u32, PortBitmap)>,
    cluster: ClusterScratch,
}

impl EncodeScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Fill `buf`'s leading slots from `items`, reusing existing bitmap buffers,
/// and return the number of live slots.
fn fill_inputs<I, P>(buf: &mut Vec<(u32, PortBitmap)>, width: usize, items: I) -> usize
where
    I: Iterator<Item = (u32, P)>,
    P: IntoIterator<Item = usize>,
{
    let mut n = 0;
    for (id, ports) in items {
        if n == buf.len() {
            buf.push((id, PortBitmap::new(width)));
        }
        let slot = &mut buf[n];
        slot.0 = id;
        slot.1.reset(width);
        for p in ports {
            slot.1.set(p);
        }
        n += 1;
    }
    n
}

/// Compute the shared downstream encoding of a group's tree.
///
/// `spine_srule_alloc(pod)` and `leaf_srule_alloc(leaf)` are the `Fmax`
/// capacity checks: they must return `true` — and account for the entry — if
/// the pod's spines (respectively the leaf) can still take an s-rule.
///
/// Convenience wrapper over [`encode_group_with`] that allocates its own
/// scratch; hot loops should hold an [`EncodeScratch`] instead.
pub fn encode_group(
    topo: &Clos,
    tree: &GroupTree,
    cfg: &EncoderConfig,
    spine_srule_alloc: &mut dyn FnMut(PodId) -> bool,
    leaf_srule_alloc: &mut dyn FnMut(LeafId) -> bool,
) -> GroupEncoding {
    let mut scratch = EncodeScratch::new();
    encode_group_with(
        topo,
        tree,
        cfg,
        spine_srule_alloc,
        leaf_srule_alloc,
        &mut scratch,
    )
}

/// Clustering constants for the downstream spine layer.
fn spine_cluster_cfg(layout: &HeaderLayout, cfg: &EncoderConfig) -> ClusterConfig {
    ClusterConfig {
        r: cfg.r,
        h_max: cfg.h_spine_max,
        bit_budget: usize::MAX, // the spine section is rule-count bound
        id_bits: layout.pod_id_bits,
        k_max: cfg.k_max,
        mode: cfg.mode,
    }
}

/// Header bits left for the leaf layer once this group's actual spine
/// section is accounted for. The byte budget is fungible between the two
/// downstream layers, but the total is a hard cap (parser header-vector
/// limit).
fn leaf_bit_budget(layout: &HeaderLayout, cfg: &EncoderConfig, d_spine: &LayerEncoding) -> usize {
    let spine_bits: usize = d_spine
        .p_rules
        .iter()
        .map(|r| layout.d_spine_rule_bits(r.switches.len()))
        .sum::<usize>()
        + if d_spine.default_rule.is_some() {
            layout.d_spine_default_bits()
        } else {
            0
        };
    let fixed_bits = layout.flags_bits()
        + layout.u_leaf_bits()
        + layout.u_spine_bits()
        + layout.core_bits()
        + spine_bits
        + layout.d_leaf_default_bits();
    let budget_bits = cfg.budget_bytes.saturating_mul(8);
    budget_bits.saturating_sub(fixed_bits)
}

/// Clustering constants for the downstream leaf layer given its bit budget.
fn leaf_cluster_cfg(layout: &HeaderLayout, cfg: &EncoderConfig, leaf_bits: usize) -> ClusterConfig {
    ClusterConfig {
        r: cfg.r,
        h_max: cfg.h_leaf_max,
        bit_budget: leaf_bits,
        id_bits: layout.leaf_id_bits,
        k_max: cfg.k_max,
        mode: cfg.mode,
    }
}

/// The clustering constants a from-scratch encode would use for the
/// downstream *leaf* layer of a group whose spine section is `d_spine` —
/// including the bit budget left over after the fixed sections and the
/// actual spine rules. This is what the controller's delta patcher hands to
/// [`crate::delta::try_patch_layer`]: as long as the spine section is
/// unchanged (a membership edit inside an existing leaf never touches the
/// spine inputs), the leaf layer's budget is unchanged too.
pub fn leaf_layer_cfg(
    layout: &HeaderLayout,
    cfg: &EncoderConfig,
    d_spine: &LayerEncoding,
) -> ClusterConfig {
    leaf_cluster_cfg(layout, cfg, leaf_bit_budget(layout, cfg, d_spine))
}

/// [`encode_group`] with caller-provided scratch buffers.
pub fn encode_group_with(
    topo: &Clos,
    tree: &GroupTree,
    cfg: &EncoderConfig,
    spine_srule_alloc: &mut dyn FnMut(PodId) -> bool,
    leaf_srule_alloc: &mut dyn FnMut(LeafId) -> bool,
    scratch: &mut EncodeScratch,
) -> GroupEncoding {
    let EncodeScratch { inputs, cluster } = scratch;
    let layout = HeaderLayout::for_clos(topo);
    // Downstream spine layer: one input bitmap per participating pod; needed
    // only when the tree spans more than one pod (otherwise no packet ever
    // travels core -> spine).
    let d_spine = if tree.num_pods() > 1 {
        let n = fill_inputs(
            inputs,
            topo.spine_down_ports(),
            tree.pods().map(|p| (p.0, tree.leaf_ports_in_pod(topo, p))),
        );
        cluster_layer_with(
            &inputs[..n],
            &spine_cluster_cfg(&layout, cfg),
            &mut |pod| spine_srule_alloc(PodId(pod)),
            cluster,
        )
    } else {
        LayerEncoding::empty()
    };

    let leaf_bits = leaf_bit_budget(&layout, cfg, &d_spine);

    // Downstream leaf layer: one input bitmap per participating leaf; needed
    // when the tree spans more than one leaf (a single-leaf group is fully
    // handled by the sender's upstream leaf rule).
    let d_leaf = if tree.num_leaves() > 1 {
        let n = fill_inputs(
            inputs,
            topo.leaf_down_ports(),
            tree.leaves()
                .map(|l| (l.0, tree.host_ports_on_leaf(topo, l))),
        );
        cluster_layer_with(
            &inputs[..n],
            &leaf_cluster_cfg(&layout, cfg, leaf_bits),
            &mut |leaf| leaf_srule_alloc(LeafId(leaf)),
            cluster,
        )
    } else {
        LayerEncoding::empty()
    };

    GroupEncoding { d_spine, d_leaf }
}

/// Assemble the packet header a given sender's hypervisor pushes for this
/// group: sender-specific upstream rules plus the shared downstream rules.
///
/// `cover` carries the upstream forwarding decision — multipath in the
/// common case, explicit ports under failures (§3.3).
pub fn header_for_sender(
    topo: &Clos,
    layout: &HeaderLayout,
    tree: &GroupTree,
    enc: &GroupEncoding,
    sender: HostId,
    cover: &UpstreamCover,
) -> ElmoHeader {
    let sender_leaf = topo.leaf_of_host(sender);
    let sender_pod = topo.pod_of_leaf(sender_leaf);
    let sender_port = topo.host_port_on_leaf(sender);

    let mut header = ElmoHeader::empty();

    // --- upstream leaf rule (always present: it also delivers to co-located
    // receivers) -----------------------------------------------------------
    let mut u_leaf_down = PortBitmap::new(layout.leaf_down_ports);
    for port in tree.host_ports_on_leaf(topo, sender_leaf) {
        if port != sender_port {
            u_leaf_down.set(port);
        }
    }
    let needs_up = tree.leaves().any(|l| l != sender_leaf);
    let multipath = cover.leaf_up_ports.is_empty() && cover.spine_up_ports.is_empty();
    let mut u_leaf_up = PortBitmap::new(layout.leaf_up_ports);
    if needs_up && !multipath {
        for &p in &cover.leaf_up_ports {
            u_leaf_up.set(p);
        }
    }
    header.u_leaf = Some(UpstreamRule {
        down: u_leaf_down,
        multipath: needs_up && multipath,
        up: u_leaf_up,
    });

    if !needs_up {
        // Entire group lives under the sender's leaf: no other sections.
        return header;
    }

    // --- upstream spine rule ------------------------------------------------
    let mut u_spine_down = PortBitmap::new(layout.spine_down_ports);
    for &l in tree.leaves_in_pod(sender_pod) {
        if l != sender_leaf {
            u_spine_down.set(topo.leaf_index_in_pod(l));
        }
    }
    let remote_pods: Vec<PodId> = tree.pods().filter(|&p| p != sender_pod).collect();
    let spine_goes_up = !remote_pods.is_empty();
    let mut u_spine_up = PortBitmap::new(layout.spine_up_ports);
    if spine_goes_up && !multipath {
        for &p in &cover.spine_up_ports {
            u_spine_up.set(p);
        }
    }
    header.u_spine = Some(UpstreamRule {
        down: u_spine_down,
        multipath: spine_goes_up && multipath,
        up: u_spine_up,
    });

    // --- core rule -----------------------------------------------------------
    if spine_goes_up {
        let mut core = PortBitmap::new(layout.core_ports);
        for p in &remote_pods {
            core.set(p.0 as usize);
        }
        header.core = Some(core);

        // Shared downstream spine section (only relevant when the core is
        // traversed).
        header.d_spine = enc.d_spine.p_rules.clone();
        header.d_spine_default = enc.d_spine.default_rule.clone();
        if enc.d_spine.p_rules.is_empty()
            && enc.d_spine.s_rules.is_empty()
            && enc.d_spine.default_rule.is_none()
        {
            // Single-pod receiver tree: the encoder skips the spine layer
            // because receiver-to-receiver traffic never crosses the core.
            // A sender outside that pod still does, so its header must
            // carry the one rule the shared encoding omitted.
            for &p in &remote_pods {
                header.d_spine.push(DownstreamRule {
                    bitmap: PortBitmap::from_ports(
                        layout.spine_down_ports,
                        tree.leaf_ports_in_pod(topo, p),
                    ),
                    switches: vec![p.0],
                });
            }
        }
    }

    // --- shared downstream leaf section --------------------------------------
    header.d_leaf = enc.d_leaf.p_rules.clone();
    header.d_leaf_default = enc.d_leaf.default_rule.clone();
    if enc.d_leaf.p_rules.is_empty()
        && enc.d_leaf.s_rules.is_empty()
        && enc.d_leaf.default_rule.is_none()
    {
        // Likewise for a single-leaf tree: covered by the sender's upstream
        // leaf rule only when the sender shares that leaf. A remote
        // sender's copy arrives downstream and needs an explicit rule.
        for l in tree.leaves() {
            if l != sender_leaf {
                header.d_leaf.push(DownstreamRule {
                    bitmap: PortBitmap::from_ports(
                        layout.leaf_down_ports,
                        tree.host_ports_on_leaf(topo, l),
                    ),
                    switches: vec![l.0],
                });
            }
        }
    }

    header
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Clos, HeaderLayout, GroupTree) {
        let topo = Clos::paper_example();
        let layout = HeaderLayout::for_clos(&topo);
        // Figure 3a group: Ha,Hb (L0), Hk (L5), Hm,Hn (L6), Hp (L7).
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
        (topo, layout, tree)
    }

    fn encode(topo: &Clos, tree: &GroupTree, r: usize, srules: bool) -> GroupEncoding {
        let layout = HeaderLayout::for_clos(topo);
        let cfg = EncoderConfig {
            r,
            k_max: 2,
            h_spine_max: 2,
            h_leaf_max: layout.max_leaf_rules(325, 2, 2).min(2),
            budget_bytes: 325,
            mode: RedundancyMode::Sum,
        };
        let mut spine_alloc = |_p: PodId| srules;
        let mut leaf_alloc = |_l: LeafId| srules;
        encode_group(topo, tree, &cfg, &mut spine_alloc, &mut leaf_alloc)
    }

    #[test]
    fn figure3_r0_assignment() {
        let (topo, _, tree) = setup();
        // R = 0, s-rule capacity available: matches Figure 3a's "R = 0,
        // #s-rules = 1" column — two spine p-rules + one spine s-rule (P3),
        // two leaf p-rules + one leaf s-rule (L7).
        let enc = encode(&topo, &tree, 0, true);
        assert_eq!(enc.d_spine.p_rules.len(), 2);
        assert_eq!(enc.d_spine.s_rules.len(), 1);
        assert_eq!(enc.d_spine.s_rules[0].0, 3); // pod P3
        assert_eq!(enc.d_leaf.p_rules.len(), 2);
        assert_eq!(enc.d_leaf.s_rules.len(), 1);
        assert_eq!(enc.d_leaf.s_rules[0].0, 7); // leaf L7
        assert!(!enc.covered_by_p_rules());
        assert_eq!(enc.srule_count(), 2);
    }

    #[test]
    fn figure3_r0_default_rules() {
        let (topo, _, tree) = setup();
        // R = 0, no s-rule capacity: the overflow switches land on default
        // p-rules (Figure 3a's "R = 0, #s-rules = 0" column).
        let enc = encode(&topo, &tree, 0, false);
        assert_eq!(enc.d_spine.default_switches, vec![3]);
        assert_eq!(
            enc.d_spine
                .default_rule
                .as_ref()
                .unwrap()
                .to_binary_string(),
            "11"
        );
        assert_eq!(enc.d_leaf.default_switches, vec![7]);
    }

    #[test]
    fn figure3_r2_all_p_rules() {
        let (topo, _, tree) = setup();
        // R = 2: sharing covers everything with two p-rules per layer
        // (Figure 3a's "R = 2" column).
        let enc = encode(&topo, &tree, 2, false);
        assert!(enc.covered_by_p_rules());
        assert_eq!(enc.d_spine.p_rules.len(), 2);
        assert_eq!(enc.d_leaf.p_rules.len(), 2);
        // A pod pair shares "11" (P3 plus one cost-equivalent partner).
        let shared = enc
            .d_spine
            .p_rules
            .iter()
            .find(|r| r.switches.len() == 2)
            .unwrap();
        assert!(shared.switches.contains(&3));
        assert_eq!(shared.bitmap.to_binary_string(), "11");
        // The leaf layer pairs {L0, L6} (identical bitmaps), as in the figure.
        let leaf_pair = enc
            .d_leaf
            .p_rules
            .iter()
            .find(|r| r.switches == vec![0, 6])
            .unwrap();
        assert_eq!(leaf_pair.bitmap.iter_ones().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn header_for_ha_matches_figure3b() {
        let (topo, layout, tree) = setup();
        let enc = encode(&topo, &tree, 0, false);
        let header = header_for_sender(
            &topo,
            &layout,
            &tree,
            &enc,
            HostId(0),
            &UpstreamCover::multipath(),
        );
        // u-leaf: deliver to Hb (port 1), multipath up.
        let u_leaf = header.u_leaf.as_ref().unwrap();
        assert_eq!(u_leaf.down.iter_ones().collect::<Vec<_>>(), vec![1]);
        assert!(u_leaf.multipath);
        // u-spine: no other local leaves, multipath up.
        let u_spine = header.u_spine.as_ref().unwrap();
        assert!(u_spine.down.is_empty());
        assert!(u_spine.multipath);
        // core: pods 2 and 3 (sender pod 0 excluded).
        assert_eq!(
            header
                .core
                .as_ref()
                .unwrap()
                .iter_ones()
                .collect::<Vec<_>>(),
            vec![2, 3]
        );
        // Shared downstream sections present, including defaults.
        assert_eq!(header.d_spine.len(), 2);
        assert!(header.d_spine_default.is_some());
        assert_eq!(header.d_leaf.len(), 2);
        assert!(header.d_leaf_default.is_some());
    }

    #[test]
    fn header_for_hk_has_sender_specific_core() {
        let (topo, layout, tree) = setup();
        let enc = encode(&topo, &tree, 0, false);
        // Hk = host 42, on L5 in pod 2.
        let header = header_for_sender(
            &topo,
            &layout,
            &tree,
            &enc,
            HostId(42),
            &UpstreamCover::multipath(),
        );
        // Figure 3b, sender Hk: core forwards to pods 0 and 3.
        assert_eq!(
            header
                .core
                .as_ref()
                .unwrap()
                .iter_ones()
                .collect::<Vec<_>>(),
            vec![0, 3]
        );
        // Downstream sections identical to Ha's (shared across senders).
        let ha = header_for_sender(
            &topo,
            &layout,
            &tree,
            &enc,
            HostId(0),
            &UpstreamCover::multipath(),
        );
        assert_eq!(header.d_spine, ha.d_spine);
        assert_eq!(header.d_leaf, ha.d_leaf);
    }

    #[test]
    fn leaf_local_group_has_minimal_header() {
        let topo = Clos::paper_example();
        let layout = HeaderLayout::for_clos(&topo);
        let tree = GroupTree::new(&topo, [HostId(0), HostId(1), HostId(2)]);
        let enc = encode(&topo, &tree, 0, false);
        assert!(enc.d_leaf.p_rules.is_empty());
        assert!(enc.d_spine.p_rules.is_empty());
        let header = header_for_sender(
            &topo,
            &layout,
            &tree,
            &enc,
            HostId(0),
            &UpstreamCover::multipath(),
        );
        let u_leaf = header.u_leaf.as_ref().unwrap();
        assert_eq!(u_leaf.down.iter_ones().collect::<Vec<_>>(), vec![1, 2]);
        assert!(!u_leaf.multipath);
        assert!(header.u_spine.is_none());
        assert!(header.core.is_none());
        assert!(header.d_leaf.is_empty());
    }

    #[test]
    fn intra_pod_group_skips_core_and_d_spine() {
        let topo = Clos::paper_example();
        let layout = HeaderLayout::for_clos(&topo);
        // Hosts on L0 and L1 (both pod 0).
        let tree = GroupTree::new(&topo, [HostId(0), HostId(9)]);
        let enc = encode(&topo, &tree, 0, false);
        let header = header_for_sender(
            &topo,
            &layout,
            &tree,
            &enc,
            HostId(0),
            &UpstreamCover::multipath(),
        );
        assert!(header.core.is_none());
        assert!(header.d_spine.is_empty());
        let u_spine = header.u_spine.as_ref().unwrap();
        // Spine forwards down to L1 (local leaf index 1), not up.
        assert_eq!(u_spine.down.iter_ones().collect::<Vec<_>>(), vec![1]);
        assert!(!u_spine.multipath);
        // Leaf section carries the shared rules for both member leaves (the
        // sender's own leaf rule serves the *other* member's packets).
        assert_eq!(header.d_leaf.len(), 2);
    }

    #[test]
    fn explicit_cover_disables_multipath() {
        let (topo, layout, tree) = setup();
        let enc = encode(&topo, &tree, 0, false);
        let cover = UpstreamCover {
            leaf_up_ports: vec![1],
            spine_up_ports: vec![0],
            complete: true,
        };
        let header = header_for_sender(&topo, &layout, &tree, &enc, HostId(0), &cover);
        let u_leaf = header.u_leaf.as_ref().unwrap();
        assert!(!u_leaf.multipath);
        assert_eq!(u_leaf.up.iter_ones().collect::<Vec<_>>(), vec![1]);
        let u_spine = header.u_spine.as_ref().unwrap();
        assert!(!u_spine.multipath);
        assert_eq!(u_spine.up.iter_ones().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn header_fits_budget_when_hmax_derived_from_it() {
        let topo = Clos::facebook_fabric();
        let layout = HeaderLayout::for_clos(&topo);
        let cfg = EncoderConfig::paper_default(&layout, 12);
        assert_eq!(cfg.h_spine_max, 2);
        assert!(cfg.h_leaf_max >= 30);
        // Worst-case group: members spread over many leaves.
        let members: Vec<HostId> = (0..200).map(|i| HostId(i * 137)).collect();
        let tree = GroupTree::new(&topo, members);
        let mut sa = |_p: PodId| false;
        let mut la = |_l: LeafId| false;
        let enc = encode_group(&topo, &tree, &cfg, &mut sa, &mut la);
        let header = header_for_sender(
            &topo,
            &layout,
            &tree,
            &enc,
            HostId(0),
            &UpstreamCover::multipath(),
        );
        assert!(
            header.byte_len(&layout) <= 325,
            "got {}",
            header.byte_len(&layout)
        );
        // And the header survives an encode/decode roundtrip.
        let bytes = header.encode(&layout);
        let (decoded, _) = ElmoHeader::decode(&bytes, &layout).unwrap();
        assert_eq!(decoded, header);
    }
}
