//! Algorithm 1: clustering a layer's switches into p-rules, s-rules, and a
//! default p-rule (paper §3.2).
//!
//! For each downstream layer of a group, the controller receives one input
//! bitmap per participating switch and must decide which switches share a
//! p-rule (bounded redundancy `R`, at most `Kmax` switches per rule, at most
//! `Hmax` rules), which fall back to s-rules in the switch's group table
//! (bounded by the per-switch capacity `Fmax`, tracked by the caller), and
//! which are swept into the default p-rule.

use crate::bitmap::PortBitmap;
use crate::header::DownstreamRule;
use crate::min_k_union::{approx_min_k_union_with, MinKUnionScratch};

/// Per-layer clustering constraints (the constants of Algorithm 1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ClusterConfig {
    /// Redundancy limit `R`: spurious-transmission budget per shared
    /// p-rule, bounding the *sum* of the member bitmaps' Hamming distances
    /// to the shared output bitmap (the paper's prose definition; it and
    /// Algorithm 1's per-bitmap reading agree on the running example).
    pub r: usize,
    /// `Hmax`: maximum p-rules for this layer in the packet header
    /// (`usize::MAX` when only the bit budget binds).
    pub h_max: usize,
    /// Header bits available for this layer's rules. Rules cost
    /// `bitmap width + k·(id_bits + 1) + 1` bits each, so sharing more
    /// switches per rule stretches the budget (`usize::MAX` = unbounded).
    pub bit_budget: usize,
    /// Bits per switch identifier in this layer (for rule sizing).
    pub id_bits: usize,
    /// `Kmax`: maximum switches sharing one p-rule.
    pub k_max: usize,
}

impl ClusterConfig {
    /// Wire cost of one rule carrying `k` identifiers. It depends on the
    /// bitmap width and `k` only, never on which ports are set.
    pub fn rule_bits(&self, width: usize, k: usize) -> usize {
        width + k * (self.id_bits + 1) + 1
    }
}

/// The outcome of clustering one layer of one group.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LayerEncoding {
    /// p-rules carried in the packet header, in assignment order.
    pub p_rules: Vec<DownstreamRule>,
    /// Per-switch s-rules to install in group tables: `(switch id, ports)`.
    pub s_rules: Vec<(u32, PortBitmap)>,
    /// The default p-rule bitmap (OR of all defaulted switches), if any
    /// switch was defaulted.
    pub default_rule: Option<PortBitmap>,
    /// Switches covered by the default p-rule.
    pub default_switches: Vec<u32>,
}

impl LayerEncoding {
    /// An encoding with no rules at all (empty layer).
    pub fn empty() -> Self {
        LayerEncoding {
            p_rules: Vec::new(),
            s_rules: Vec::new(),
            default_rule: None,
            default_switches: Vec::new(),
        }
    }

    /// Whether the layer holds no rule of any kind: the encoder skipped it
    /// because the tree has at most one switch there.
    pub fn is_unencoded(&self) -> bool {
        self.p_rules.is_empty() && self.s_rules.is_empty() && self.default_rule.is_none()
    }

    /// Whether every switch got a non-default p-rule (the paper's "groups
    /// covered with p-rules" metric counts groups where this holds for all
    /// layers).
    pub fn covered_by_p_rules(&self) -> bool {
        self.s_rules.is_empty() && self.default_rule.is_none()
    }

    /// The s-rule this encoding gives `switch`: a binary search, because the
    /// encoder emits s-rules in ascending switch order.
    pub fn s_rule(&self, switch: u32) -> Option<&PortBitmap> {
        let i = self
            .s_rules
            .binary_search_by_key(&switch, |(s, _)| *s)
            .ok()?;
        Some(&self.s_rules[i].1)
    }
}

/// Reusable buffers for [`cluster_layer_with`]. One instance per worker
/// thread amortizes all interior allocation across groups.
#[derive(Default, Debug)]
pub struct ClusterScratch {
    mku: MinKUnionScratch,
    unassigned: Vec<usize>,
    union: PortBitmap,
    /// Input positions sorted by bitmap content (fast-path class grouping).
    order: Vec<u32>,
}

impl ClusterScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Run Algorithm 1 over one layer.
///
/// `inputs` maps each participating switch (layer-local identifier) to its
/// exact output bitmap. `srule_alloc` is called when a switch cannot get a
/// p-rule; it must return `true` — and count the entry — if the switch still
/// has s-rule capacity (`Fmax` check), or `false` to default the switch.
///
/// Convenience wrapper over [`cluster_layer_with`] that allocates its own
/// scratch; hot loops should hold a [`ClusterScratch`] instead.
pub fn cluster_layer(
    inputs: &[(u32, PortBitmap)],
    cfg: &ClusterConfig,
    srule_alloc: &mut dyn FnMut(u32) -> bool,
) -> LayerEncoding {
    let mut scratch = ClusterScratch::new();
    cluster_layer_with(inputs, cfg, srule_alloc, &mut scratch)
}

/// [`cluster_layer`] with caller-provided scratch buffers.
pub fn cluster_layer_with(
    inputs: &[(u32, PortBitmap)],
    cfg: &ClusterConfig,
    srule_alloc: &mut dyn FnMut(u32) -> bool,
    scratch: &mut ClusterScratch,
) -> LayerEncoding {
    if inputs.is_empty() {
        return LayerEncoding::empty();
    }
    if let Some(enc) = fast_path(inputs, cfg, &mut scratch.order) {
        return enc;
    }
    cluster_pressed(inputs, cfg, srule_alloc, scratch)
}

/// Parsimonious fast path: group identical bitmaps (free — zero
/// redundancy, exactly what MIN-K-UNION would pick first) and check
/// whether the layer then fits the header without any lossy sharing. If
/// it does, emit exactly that. Sharing non-identical bitmaps — paying up
/// to R spurious transmissions per rule — is only worthwhile when the
/// layer would otherwise overflow and spill into s-rules; this is what
/// keeps Figure 4's traffic overhead within a few percent of ideal at
/// R = 12, since only header-pressed groups ever pay redundancy.
///
/// Classes are found by sorting input positions by bitmap content into
/// `order` (caller scratch, no per-call allocation) and chunking the
/// equal-bitmap runs; members stay in ascending input order via the
/// position tie-break. Every emitted rule has a distinct minimum switch id
/// (rules partition the layer's switches), so the final sort fixes one
/// output order regardless of how the classes were enumerated.
fn fast_path(
    inputs: &[(u32, PortBitmap)],
    cfg: &ClusterConfig,
    order: &mut Vec<u32>,
) -> Option<LayerEncoding> {
    let width = inputs[0].1.width();
    let k_max = cfg.k_max.max(1);
    order.clear();
    order.extend(0..inputs.len() as u32);
    order.sort_unstable_by(|&a, &b| {
        inputs[a as usize]
            .1
            .words()
            .cmp(inputs[b as usize].1.words())
            .then(a.cmp(&b))
    });
    let run_end = |start: usize| {
        let mut end = start + 1;
        while end < order.len()
            && inputs[order[end] as usize].1.words() == inputs[order[start] as usize].1.words()
        {
            end += 1;
        }
        end
    };
    let mut rules = 0usize;
    let mut bits = 0usize;
    let mut start = 0;
    while start < order.len() {
        let end = run_end(start);
        let len = end - start;
        let (full, rem) = (len / k_max, len % k_max);
        rules += full + (rem > 0) as usize;
        bits = bits.saturating_add(full.saturating_mul(cfg.rule_bits(width, k_max)));
        if rem > 0 {
            bits = bits.saturating_add(cfg.rule_bits(width, rem));
        }
        start = end;
    }
    if rules > cfg.h_max || bits > cfg.bit_budget {
        return None;
    }
    let mut enc = LayerEncoding::empty();
    let mut start = 0;
    while start < order.len() {
        let end = run_end(start);
        for chunk in order[start..end].chunks(k_max) {
            let mut switches: Vec<u32> = chunk.iter().map(|&i| inputs[i as usize].0).collect();
            switches.sort_unstable();
            enc.p_rules.push(DownstreamRule {
                bitmap: inputs[chunk[0] as usize].1.clone(),
                switches,
            });
        }
        start = end;
    }
    enc.p_rules.sort_by_key(|r| r.switches[0]);
    Some(enc)
}

/// Header-pressed: run Algorithm 1's greedy sharing over the whole layer.
/// The pair-seeded MIN-K-UNION still picks identical bitmaps first (their
/// union is minimal and costs nothing), so this subsumes the fast path.
fn cluster_pressed(
    inputs: &[(u32, PortBitmap)],
    cfg: &ClusterConfig,
    srule_alloc: &mut dyn FnMut(u32) -> bool,
    scratch: &mut ClusterScratch,
) -> LayerEncoding {
    let mut enc = LayerEncoding::empty();
    let width = inputs[0].1.width();
    let k_max = cfg.k_max.max(1);
    let ClusterScratch {
        mku,
        unassigned,
        union,
        ..
    } = scratch;
    unassigned.clear();
    unassigned.extend(0..inputs.len());
    let mut candidates: Vec<&PortBitmap> = Vec::with_capacity(inputs.len());
    let mut k = k_max;
    let mut bits_left = cfg.bit_budget;

    while !unassigned.is_empty() && enc.p_rules.len() < cfg.h_max {
        // The largest sharing degree whose rule still fits the remaining
        // bits (larger k amortizes the bitmap over more switches).
        let k_fit = (1..=k.min(unassigned.len()))
            .rev()
            .find(|&kk| cfg.rule_bits(width, kk) <= bits_left);
        let Some(k_fit) = k_fit else {
            break; // not even a single-switch rule fits any more
        };
        candidates.clear();
        candidates.extend(unassigned.iter().map(|&i| &inputs[i].1));
        let mut picked = approx_min_k_union_with(k_fit, &candidates, mku);
        union.reset(width);
        for &ci in &picked {
            union.or_assign(candidates[ci]);
        }
        let output = &*union;
        let within_budget = picked
            .iter()
            .map(|&ci| candidates[ci].hamming(output))
            .sum::<usize>()
            <= cfg.r;
        if within_budget {
            let mut switches: Vec<u32> =
                picked.iter().map(|&ci| inputs[unassigned[ci]].0).collect();
            switches.sort_unstable();
            bits_left = bits_left.saturating_sub(cfg.rule_bits(width, switches.len()));
            enc.p_rules.push(DownstreamRule {
                bitmap: output.clone(),
                switches,
            });
            // Remove the picked candidate positions from `unassigned`.
            picked.sort_unstable_by(|a, b| b.cmp(a));
            for ci in picked {
                unassigned.swap_remove(ci);
            }
            // Keep `unassigned` deterministic after swap_remove.
            unassigned.sort_unstable();
        } else {
            // Shrink the sharing degree and retry; K = 1 always satisfies the
            // budget (a single bitmap has distance 0 to itself).
            debug_assert!(k_fit > 1);
            k = k_fit - 1;
        }
    }

    // Hmax exhausted (or the layer fit entirely): remaining switches get
    // s-rules while capacity lasts, then the default p-rule.
    for &i in unassigned.iter() {
        let (switch, ref bitmap) = inputs[i];
        if srule_alloc(switch) {
            enc.s_rules.push((switch, bitmap.clone()));
        } else {
            match &mut enc.default_rule {
                Some(d) => d.or_assign(bitmap),
                None => enc.default_rule = Some(bitmap.clone()),
            }
            enc.default_switches.push(switch);
        }
    }
    enc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bm(width: usize, ports: &[usize]) -> PortBitmap {
        PortBitmap::from_ports(width, ports.iter().copied())
    }

    fn no_srules() -> impl FnMut(u32) -> bool {
        |_| false
    }

    fn unlimited_srules() -> impl FnMut(u32) -> bool {
        |_| true
    }

    /// Figure 3a's downstream spine layer: P0 = 10, P2 = 01, P3 = 11.
    fn figure3_spine_inputs() -> Vec<(u32, PortBitmap)> {
        vec![(0, bm(2, &[0])), (2, bm(2, &[1])), (3, bm(2, &[0, 1]))]
    }

    /// Figure 3a's downstream leaf layer: L0 = 11, L5 = 10, L6 = 11, L7 = 01
    /// (figure notation, 2 visible hosts per leaf).
    fn figure3_leaf_inputs() -> Vec<(u32, PortBitmap)> {
        vec![
            (0, bm(2, &[0, 1])),
            (5, bm(2, &[0])),
            (6, bm(2, &[0, 1])),
            (7, bm(2, &[1])),
        ]
    }

    #[test]
    fn figure3_r0_spine_layer() {
        // R = 0, Hmax = 2: P0 and P2 get their own p-rules (no bitmaps are
        // identical so nothing shares), P3 overflows to an s-rule when
        // capacity exists.
        let cfg = ClusterConfig {
            r: 0,
            h_max: 2,
            bit_budget: usize::MAX,
            id_bits: 8,
            k_max: 2,
        };
        let mut alloc = unlimited_srules();
        let enc = cluster_layer(&figure3_spine_inputs(), &cfg, &mut alloc);
        assert_eq!(enc.p_rules.len(), 2);
        assert_eq!(enc.s_rules.len(), 1);
        assert_eq!(enc.s_rules[0].0, 3);
        assert!(enc.default_rule.is_none());
    }

    #[test]
    fn figure3_r0_no_srules_defaults_p3() {
        let cfg = ClusterConfig {
            r: 0,
            h_max: 2,
            bit_budget: usize::MAX,
            id_bits: 8,
            k_max: 2,
        };
        let mut alloc = no_srules();
        let enc = cluster_layer(&figure3_spine_inputs(), &cfg, &mut alloc);
        assert_eq!(enc.p_rules.len(), 2);
        assert!(enc.s_rules.is_empty());
        assert_eq!(enc.default_switches, vec![3]);
        assert_eq!(enc.default_rule.as_ref().unwrap().to_binary_string(), "11");
        assert!(!enc.covered_by_p_rules());
    }

    #[test]
    fn figure3_r2_spine_layer_shares() {
        // R = 2: sharing covers all three pods with two p-rules and a total
        // redundancy of one spurious transmission — the same cost as Figure
        // 3a's {P2, P3} pairing (which pair P3 joins is cost-equivalent and
        // implementation-defined).
        let cfg = ClusterConfig {
            r: 2,
            h_max: 2,
            bit_budget: usize::MAX,
            id_bits: 8,
            k_max: 2,
        };
        let mut alloc = no_srules();
        let enc = cluster_layer(&figure3_spine_inputs(), &cfg, &mut alloc);
        assert!(enc.covered_by_p_rules());
        assert_eq!(enc.p_rules.len(), 2);
        let shared = enc.p_rules.iter().find(|r| r.switches.len() == 2).unwrap();
        assert!(shared.switches.contains(&3), "P3 joins the shared rule");
        assert_eq!(shared.bitmap.to_binary_string(), "11");
        // Total redundancy: one spurious leaf transmission, as in the paper.
        let inputs = figure3_spine_inputs();
        let redundancy: usize = inputs
            .iter()
            .map(|(s, bm)| sources(&enc, *s)[0].count_ones() - bm.count_ones())
            .sum();
        assert_eq!(redundancy, 1);
    }

    #[test]
    fn figure3_r2_leaf_layer_shares_two_pairs() {
        // R = 2: {L0, L6} share 11 (identical); {L5, L7} share 11 (distance
        // 1 each, sum 2). Matches Figure 3a's R = 2 column.
        let cfg = ClusterConfig {
            r: 2,
            h_max: 2,
            bit_budget: usize::MAX,
            id_bits: 8,
            k_max: 2,
        };
        let mut alloc = no_srules();
        let enc = cluster_layer(&figure3_leaf_inputs(), &cfg, &mut alloc);
        assert!(enc.covered_by_p_rules());
        assert_eq!(enc.p_rules.len(), 2);
        let pair06 = enc
            .p_rules
            .iter()
            .find(|r| r.switches == vec![0, 6])
            .unwrap();
        assert_eq!(pair06.bitmap.to_binary_string(), "11");
        let pair57 = enc
            .p_rules
            .iter()
            .find(|r| r.switches == vec![5, 7])
            .unwrap();
        assert_eq!(pair57.bitmap.to_binary_string(), "11");
    }

    #[test]
    fn identical_bitmaps_share_even_at_r0() {
        let inputs = vec![
            (1, bm(4, &[0, 2])),
            (5, bm(4, &[0, 2])),
            (9, bm(4, &[0, 2])),
        ];
        let cfg = ClusterConfig {
            r: 0,
            h_max: 10,
            bit_budget: usize::MAX,
            id_bits: 8,
            k_max: 3,
        };
        let mut alloc = no_srules();
        let enc = cluster_layer(&inputs, &cfg, &mut alloc);
        assert_eq!(enc.p_rules.len(), 1);
        assert_eq!(enc.p_rules[0].switches, vec![1, 5, 9]);
        assert!(enc.covered_by_p_rules());
    }

    #[test]
    fn k_max_bounds_sharing() {
        let inputs: Vec<(u32, PortBitmap)> = (0..5).map(|i| (i, bm(4, &[1]))).collect();
        let cfg = ClusterConfig {
            r: 0,
            h_max: 3,
            bit_budget: usize::MAX,
            id_bits: 8,
            k_max: 2,
        };
        let mut alloc = no_srules();
        let enc = cluster_layer(&inputs, &cfg, &mut alloc);
        assert!(enc.p_rules.iter().all(|r| r.switches.len() <= 2));
        assert_eq!(enc.p_rules.len(), 3); // 2 + 2 + 1
    }

    #[test]
    fn h_max_zero_sends_everything_to_srules() {
        let inputs = figure3_leaf_inputs();
        let cfg = ClusterConfig {
            r: 0,
            h_max: 0,
            bit_budget: usize::MAX,
            id_bits: 8,
            k_max: 2,
        };
        let mut count = 0;
        let mut alloc = |_s: u32| {
            count += 1;
            true
        };
        let enc = cluster_layer(&inputs, &cfg, &mut alloc);
        assert!(enc.p_rules.is_empty());
        assert_eq!(enc.s_rules.len(), 4);
        assert_eq!(count, 4);
    }

    #[test]
    fn srule_capacity_exhaustion_falls_to_default() {
        let inputs = figure3_leaf_inputs();
        let cfg = ClusterConfig {
            r: 0,
            h_max: 0,
            bit_budget: usize::MAX,
            id_bits: 8,
            k_max: 2,
        };
        let mut budget = 2;
        let mut alloc = |_s: u32| {
            if budget > 0 {
                budget -= 1;
                true
            } else {
                false
            }
        };
        let enc = cluster_layer(&inputs, &cfg, &mut alloc);
        assert_eq!(enc.s_rules.len(), 2);
        assert_eq!(enc.default_switches.len(), 2);
        // Default bitmap is the OR of the defaulted switches.
        let expected = enc
            .default_switches
            .iter()
            .map(|s| inputs.iter().find(|(i, _)| i == s).unwrap().1.clone())
            .fold(PortBitmap::new(2), |acc, b| acc.or(&b));
        assert_eq!(enc.default_rule.unwrap(), expected);
    }

    #[test]
    fn empty_input_yields_empty_encoding() {
        let cfg = ClusterConfig {
            r: 0,
            h_max: 2,
            bit_budget: usize::MAX,
            id_bits: 8,
            k_max: 2,
        };
        let mut alloc = no_srules();
        let enc = cluster_layer(&[], &cfg, &mut alloc);
        assert!(enc.p_rules.is_empty());
        assert!(enc.covered_by_p_rules());
    }

    /// Every bitmap `enc` gives `switch`: p-rules naming it, its s-rule,
    /// and the default p-rule if it was defaulted.
    fn sources(enc: &LayerEncoding, switch: u32) -> Vec<&PortBitmap> {
        let p_rules = enc.p_rules.iter().filter(|r| r.switches.contains(&switch));
        let default = enc
            .default_switches
            .contains(&switch)
            .then_some(&enc.default_rule);
        p_rules
            .map(|r| &r.bitmap)
            .chain(enc.s_rule(switch))
            .chain(default.into_iter().flatten())
            .collect()
    }

    #[test]
    fn every_switch_has_exactly_one_rule_source() {
        let cfg = ClusterConfig {
            r: 0,
            h_max: 1,
            bit_budget: usize::MAX,
            id_bits: 8,
            k_max: 2,
        };
        let inputs = figure3_spine_inputs();
        let mut budget = 1;
        let mut alloc = |_s: u32| {
            if budget > 0 {
                budget -= 1;
                true
            } else {
                false
            }
        };
        let enc = cluster_layer(&inputs, &cfg, &mut alloc);
        // One p-rule, one s-rule, one defaulted switch; each covers its ports.
        assert_eq!((enc.p_rules.len(), enc.s_rules.len()), (1, 1));
        assert_eq!(enc.default_switches.len(), 1);
        for (s, bm) in &inputs {
            let out = sources(&enc, *s);
            assert_eq!(out.len(), 1, "switch {s}");
            assert!(bm.is_subset_of(out[0]), "switch {s} under-covered");
        }
        assert!(sources(&enc, 99).is_empty());
        assert_eq!(enc.s_rule(enc.s_rules[0].0), Some(&enc.s_rules[0].1));
        assert_eq!(enc.s_rule(99), None);
    }
}
