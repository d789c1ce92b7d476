//! In-place layer patching for membership deltas.
//!
//! A join or leave that keeps a group's set of participating leaves and
//! pods changes exactly one layer input: the edited leaf's port bitmap
//! gains or loses one bit. Re-running Algorithm 1 from scratch for that is
//! wasteful — but a patch is only sound if it lands on *exactly* the
//! encoding a from-scratch run would produce, because the controller's
//! invariants (delta-on state bit-identical to delta-off, verify's static
//! walk) all assume one canonical encoding per tree.
//!
//! [`try_patch_layer`] therefore proves, before touching anything, that the
//! stored layer is the unique *parsimonious* encoding of its current
//! inputs — the output of [`crate::cluster`]'s fast path, which groups
//! switches into equality classes of identical bitmaps, chunks each class
//! into `Kmax`-sized rules, and never shares lossily. The proof
//! obligations checked against the live rules are:
//!
//! 1. every switch holds a p-rule (no s-rules, no default — a spill means
//!    the layer is header-pressed and the spill boundary could move);
//! 2. every rule has at most `Kmax` switches, sorted, and the rule list is
//!    sorted by minimum switch id (the fast path's canonical order);
//! 3. grouping rules by bitmap yields the equality classes: every member
//!    of a multi-member class has an input bitmap equal to the class
//!    bitmap (rules are exact classes, not lossy merges), and each class's
//!    rules — taken in minimum-id order — are the canonical chunking of
//!    its ascending member list: every chunk full except possibly the
//!    last, members strictly ascending across the chunk sequence.
//!
//! Under 1–3 the stored layer *is* `fast_path(inputs)` — provided the
//! layer's inputs are position-ordered by ascending switch id, which is
//! how [`crate::encode_group`] fills them (sorted tree walks). The new
//! encoding after one input changes is then computed exactly: the edited
//! switch leaves its class and joins (or founds) the class whose bitmap
//! equals its new input, and both affected classes are re-chunked
//! canonically. The move re-checks the fast path's feasibility gates
//! (`Hmax` and the layer bit budget), refusing — and sending the caller
//! to the full re-encoder — whenever the result would diverge from a
//! from-scratch run.

use crate::bitmap::PortBitmap;
use crate::cluster::{ClusterConfig, LayerEncoding};
use crate::header::DownstreamRule;

/// Why a layer could not be patched in place. Every refusal is a
/// conservative escalation to the full re-encoder, never an error.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PatchRefusal {
    /// The layer has s-rules or a default p-rule: it is header-pressed and
    /// the p-rule/s-rule spill boundary could move under the edit.
    Spill,
    /// The stored rules are not the parsimonious fast-path shape (lossy
    /// shared rules, oversized or unsorted classes, non-canonical
    /// chunking), so the canonical re-encoding cannot be derived by
    /// patching.
    NotParsimonious,
    /// Re-chunking the affected classes would exceed the layer's rule
    /// count or bit budget; the fast path would spill into s-rules.
    HeaderPressure,
}

/// Reusable buffers for [`try_patch_layer`]; one instance per controller
/// (or worker) keeps the patch path allocation-free after warm-up.
#[derive(Clone, Default, Debug)]
pub struct PatchScratch {
    /// Probe buffer for other members' inputs during shape verification.
    member: PortBitmap,
    /// Rule indices sorted by (bitmap, min switch id) — class grouping.
    order: Vec<u32>,
    /// Ascending members of the edited switch's old class, minus it.
    old_members: Vec<u32>,
    /// Ascending members of the target class, plus the edited switch.
    tgt_members: Vec<u32>,
    /// Rule indices to drop during the commit, descending.
    dead: Vec<u32>,
    /// Retired rules whose allocations (switch list, bitmap) the commit
    /// reuses for the re-chunked classes.
    free: Vec<DownstreamRule>,
}

impl PatchScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Rule count and bit cost of canonically chunking an `n`-member class.
fn chunk_cost(n: usize, k_max: usize, width: usize, cfg: &ClusterConfig) -> (usize, usize) {
    let (full, rem) = (n / k_max, n % k_max);
    let rules = full + (rem > 0) as usize;
    let mut bits = full.saturating_mul(cfg.rule_bits(width, k_max));
    if rem > 0 {
        bits = bits.saturating_add(cfg.rule_bits(width, rem));
    }
    (rules, bits)
}

/// How much of the parsimony proof [`try_patch_layer`] must re-establish.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Trust {
    /// Prove everything against the live inputs, including the per-member
    /// exactness probes (`member_input` calls) — O(layer members) bitmap
    /// builds per patch.
    Verify,
    /// The caller certifies the layer currently equals `fast_path(inputs)`
    /// (e.g. via [`layer_is_parsimonious`] after its last full encode, with
    /// every intervening edit applied through this function). The proof is
    /// taken as read: the patcher only locates the affected classes
    /// ([`locate_certified`]) instead of re-verifying the layer, and the
    /// `member_input` closure is never called.
    Certified,
}

/// Rule locations found while verifying the fast-path shape.
struct Located {
    /// Index of the rule holding the edited switch.
    my: Option<u32>,
    /// `order` run bounds of the edited switch's class.
    old_class: Option<(usize, usize)>,
    /// `order` run bounds of the class whose bitmap equals the new input.
    tgt_class: Option<(usize, usize)>,
}

/// Prove the stored layer is the canonical fast-path shape (obligations 2
/// and 3 of the module doc), filling `order` with rule indices sorted by
/// (bitmap, min switch id) and locating the classes affected by an edit of
/// `switch` to `new_bitmap` (both optional — [`layer_is_parsimonious`]
/// verifies without an edit). When `probe` is false the per-member
/// exactness probes are skipped (see [`Trust::Certified`]).
#[allow(clippy::too_many_arguments)]
fn verify_and_locate(
    layer: &LayerEncoding,
    k_max: usize,
    switch: Option<u32>,
    new_bitmap: Option<&PortBitmap>,
    probe: bool,
    member_input: &mut dyn FnMut(u32, &mut PortBitmap),
    member: &mut PortBitmap,
    order: &mut Vec<u32>,
) -> Result<Located, PatchRefusal> {
    // Per-rule shape: sizes, internal order, global min-id order.
    let mut my_rule = None;
    let mut prev_min = None;
    for (i, r) in layer.p_rules.iter().enumerate() {
        if r.switches.is_empty() || r.switches.len() > k_max {
            return Err(PatchRefusal::NotParsimonious);
        }
        if !r.switches.windows(2).all(|w| w[0] < w[1]) {
            return Err(PatchRefusal::NotParsimonious);
        }
        if prev_min.is_some_and(|p| r.switches[0] <= p) {
            return Err(PatchRefusal::NotParsimonious);
        }
        prev_min = Some(r.switches[0]);
        if switch.is_some_and(|s| r.switches.binary_search(&s).is_ok()) {
            my_rule = Some(i as u32);
        }
    }

    // Class structure: group rules into bitmap-equality classes. Classes
    // can interleave in the global min-id order (another class's chunk may
    // sort between two chunks of a large class), so group by sorting rule
    // indices by (bitmap, min id): runs of equal bitmaps are the classes,
    // and the min-id tie-break puts each class's chunks in canonical order.
    order.clear();
    order.extend(0..layer.p_rules.len() as u32);
    order.sort_unstable_by(|&a, &b| {
        let (ra, rb) = (&layer.p_rules[a as usize], &layer.p_rules[b as usize]);
        ra.bitmap
            .words()
            .cmp(rb.bitmap.words())
            .then(ra.switches[0].cmp(&rb.switches[0]))
    });
    let mut old_class = None;
    let mut tgt_class = None;
    let mut start = 0;
    while start < order.len() {
        let bitmap = &layer.p_rules[order[start] as usize].bitmap;
        let mut end = start + 1;
        while end < order.len() && layer.p_rules[order[end] as usize].bitmap == *bitmap {
            end += 1;
        }
        let members: usize = order[start..end]
            .iter()
            .map(|&i| layer.p_rules[i as usize].switches.len())
            .sum();
        let mut prev: Option<u32> = None;
        for (j, &ri) in order[start..end].iter().enumerate() {
            let r = &layer.p_rules[ri as usize];
            // Canonical chunking: every chunk before the last is full, and
            // members ascend across the chunk sequence.
            if j + 1 < end - start && r.switches.len() != k_max {
                return Err(PatchRefusal::NotParsimonious);
            }
            if prev.is_some_and(|p| r.switches[0] <= p) {
                return Err(PatchRefusal::NotParsimonious);
            }
            prev = Some(*r.switches.last().expect("rules are non-empty"));
            if probe && members > 1 {
                // Multi-member classes must be exact: every member's input
                // equals the class bitmap. The edited switch is exempt —
                // its membership only has to be correct for the *new*
                // inputs, which the patch move arranges.
                for &s in &r.switches {
                    if switch == Some(s) {
                        continue;
                    }
                    member_input(s, member);
                    if *member != *bitmap {
                        return Err(PatchRefusal::NotParsimonious);
                    }
                }
            }
        }
        if my_rule.is_some_and(|my| order[start..end].contains(&my)) {
            old_class = Some((start, end));
        }
        if new_bitmap.is_some_and(|nb| *bitmap == *nb) {
            tgt_class = Some((start, end));
        }
        start = end;
    }
    Ok(Located {
        my: my_rule,
        old_class,
        tgt_class,
    })
}

/// Locate the two classes an edit touches, trusting the standing
/// certificate ([`Trust::Certified`]) instead of re-verifying the layer:
/// the caller proved `layer == fast_path(inputs)` at the last full encode
/// and every input change since went through a successful patch, so the
/// per-rule shape and chunk checks of [`verify_and_locate`] must already
/// hold. That turns the O(H log H) (bitmap, min-id) sort into two
/// bitmap-equality scans — and because `p_rules` is globally sorted by
/// minimum switch id, each class's chunks are met in canonical order, so
/// `order` runs come out exactly as [`verify_and_locate`] would build them.
fn locate_certified(
    layer: &LayerEncoding,
    switch: u32,
    new_bitmap: &PortBitmap,
    order: &mut Vec<u32>,
) -> Result<Located, PatchRefusal> {
    let mut my = None;
    for (i, r) in layer.p_rules.iter().enumerate() {
        if r.switches.binary_search(&switch).is_ok() {
            my = Some(i as u32);
            break;
        }
    }
    let Some(my) = my else {
        // A covered layer names every participating switch; the certificate
        // cannot hold for a layer missing the edited one.
        return Err(PatchRefusal::NotParsimonious);
    };
    let my_bitmap = &layer.p_rules[my as usize].bitmap;
    order.clear();
    for (i, r) in layer.p_rules.iter().enumerate() {
        if r.bitmap == *my_bitmap {
            order.push(i as u32);
        }
    }
    let n_old = order.len();
    let old_class = Some((0, n_old));
    if *my_bitmap == *new_bitmap {
        // No move: the verified-by-certificate structure is already
        // canonical for the new inputs (the caller short-circuits on
        // `tgt_class == old_class`).
        return Ok(Located {
            my: Some(my),
            old_class,
            tgt_class: old_class,
        });
    }
    for (i, r) in layer.p_rules.iter().enumerate() {
        if r.bitmap == *new_bitmap {
            order.push(i as u32);
        }
    }
    let tgt_class = (order.len() > n_old).then_some((n_old, order.len()));
    Ok(Located {
        my: Some(my),
        old_class,
        tgt_class,
    })
}

/// Whether `layer` is the canonical parsimonious fast-path encoding of its
/// current inputs: covered by p-rules, exact equality classes, canonical
/// `Kmax` chunking. `member_input` must fill its scratch argument with the
/// current input bitmap of any switch named by the layer.
///
/// A `true` result is the certificate [`Trust::Certified`] relies on: as
/// long as every subsequent input change goes through a successful
/// [`try_patch_layer`] call, the layer stays canonical and the certificate
/// stays valid without re-probing.
pub fn layer_is_parsimonious(
    layer: &LayerEncoding,
    member_input: &mut dyn FnMut(u32, &mut PortBitmap),
    cfg: &ClusterConfig,
    scratch: &mut PatchScratch,
) -> bool {
    if !layer.covered_by_p_rules() {
        return false;
    }
    let PatchScratch { member, order, .. } = scratch;
    verify_and_locate(
        layer,
        cfg.k_max.max(1),
        None,
        None,
        true,
        member_input,
        member,
        order,
    )
    .is_ok()
}

/// Patch one layer of a group encoding after a single input bitmap change.
///
/// `switch` is the layer-local switch id whose input became `new_bitmap`
/// (which must be non-empty — a switch leaving the layer entirely is a
/// structural change the caller handles by re-encoding). `member_input`
/// must fill its scratch argument with the *current* input bitmap of any
/// other switch on the layer; it is consulted for multi-member classes.
/// `cfg` must be the same clustering constants a from-scratch encode of
/// the group would use for this layer right now. The layer's inputs must
/// be position-ordered by ascending switch id (as [`crate::encode_group`]
/// fills them); the canonical chunking is only re-derivable under that
/// order.
///
/// On `Ok(())` the layer equals what [`crate::cluster::cluster_layer`]
/// would produce for the updated inputs, bit for bit. On `Err` the layer
/// is untouched.
pub fn try_patch_layer(
    layer: &mut LayerEncoding,
    switch: u32,
    new_bitmap: &PortBitmap,
    member_input: &mut dyn FnMut(u32, &mut PortBitmap),
    cfg: &ClusterConfig,
    trust: Trust,
    scratch: &mut PatchScratch,
) -> Result<(), PatchRefusal> {
    debug_assert!(!new_bitmap.is_empty(), "empty input is a structural change");
    if !layer.covered_by_p_rules() {
        return Err(PatchRefusal::Spill);
    }
    let k_max = cfg.k_max.max(1);
    let width = new_bitmap.width();

    let PatchScratch {
        member,
        order,
        old_members,
        tgt_members,
        dead,
        free,
    } = scratch;
    let located = match trust {
        Trust::Verify => {
            let l = verify_and_locate(
                layer,
                k_max,
                Some(switch),
                Some(new_bitmap),
                true,
                member_input,
                member,
                order,
            )?;
            if l.my.is_none() {
                // A covered layer names every participating switch; not
                // finding the edited one means the caller's preconditions
                // do not hold.
                return Err(PatchRefusal::NotParsimonious);
            }
            l
        }
        Trust::Certified => locate_certified(layer, switch, new_bitmap, order)?,
    };
    let my = located.my.expect("both locate paths yield the edited rule");
    let tgt_class = located.tgt_class;
    let (old_s, old_e) = located
        .old_class
        .expect("the edited switch's rule is in some class");

    // --- compute the canonical move ---------------------------------------
    if tgt_class == Some((old_s, old_e)) {
        // The switch's new input equals its current class bitmap: the
        // verified structure is already canonical for the new inputs.
        return Ok(());
    }
    let my_class_members: usize = order[old_s..old_e]
        .iter()
        .map(|&i| layer.p_rules[i as usize].switches.len())
        .sum();
    if my_class_members == 1 && tgt_class.is_none() {
        // Singleton keeps its own class: rewrite the bitmap in place. Rule
        // cost depends on width and member count, not popcount, so the
        // layer's feasibility is unchanged — and so is the rule order.
        layer.p_rules[my as usize].bitmap.copy_from(new_bitmap);
        return Ok(());
    }

    // Gather the two affected classes' member lists (ascending — each run
    // was verified ascending above) with the edited switch moved.
    old_members.clear();
    for &ri in &order[old_s..old_e] {
        old_members.extend(layer.p_rules[ri as usize].switches.iter().copied());
    }
    let pos = old_members
        .binary_search(&switch)
        .expect("switch is in its class");
    old_members.remove(pos);
    tgt_members.clear();
    if let Some((ts, te)) = tgt_class {
        for &ri in &order[ts..te] {
            tgt_members.extend(layer.p_rules[ri as usize].switches.iter().copied());
        }
    }
    let pos = tgt_members
        .binary_search(&switch)
        .expect_err("switch cannot already be in the target class");
    tgt_members.insert(pos, switch);

    // Re-check what the fast path would: total rule count against `Hmax`
    // and total bits against the layer budget, with both affected classes
    // re-chunked. Unaffected classes keep their verified chunking.
    let rules_now = layer.p_rules.len();
    let bits_now = layer.p_rules.iter().fold(0usize, |b, r| {
        b.saturating_add(cfg.rule_bits(width, r.switches.len()))
    });
    let affected = |s: usize, e: usize| -> (usize, usize) {
        let rules = e - s;
        let bits = order[s..e].iter().fold(0usize, |b, &ri| {
            b.saturating_add(cfg.rule_bits(width, layer.p_rules[ri as usize].switches.len()))
        });
        (rules, bits)
    };
    let (old_rules_now, old_bits_now) = affected(old_s, old_e);
    let (tgt_rules_now, tgt_bits_now) = tgt_class.map_or((0, 0), |(s, e)| affected(s, e));
    let (old_rules_after, old_bits_after) = chunk_cost(old_members.len(), k_max, width, cfg);
    let (tgt_rules_after, tgt_bits_after) = chunk_cost(tgt_members.len(), k_max, width, cfg);
    let rules_after = rules_now - old_rules_now - tgt_rules_now + old_rules_after + tgt_rules_after;
    let bits_after = bits_now
        .saturating_sub(old_bits_now)
        .saturating_sub(tgt_bits_now)
        .saturating_add(old_bits_after)
        .saturating_add(tgt_bits_after);
    if rules_after > cfg.h_max || bits_after > cfg.bit_budget {
        return Err(PatchRefusal::HeaderPressure);
    }

    // --- commit -----------------------------------------------------------
    // The surviving class bitmap, staged in the probe buffer (unused after
    // locate) so the commit never allocates once scratch is warm.
    let has_old = !old_members.is_empty();
    if has_old {
        member.copy_from(&layer.p_rules[order[old_s] as usize].bitmap);
    }
    dead.clear();
    dead.extend_from_slice(&order[old_s..old_e]);
    if let Some((ts, te)) = tgt_class {
        dead.extend_from_slice(&order[ts..te]);
    }
    dead.sort_unstable_by(|a, b| b.cmp(a));
    for &ri in dead.iter() {
        // Retired rules keep their allocations; the re-chunked classes (and
        // future patches through this scratch) reuse them.
        free.push(layer.p_rules.swap_remove(ri as usize));
    }
    if has_old {
        for chunk in old_members.chunks(k_max) {
            let mut r = free.pop().unwrap_or_default();
            r.bitmap.copy_from(member);
            r.switches.clear();
            r.switches.extend_from_slice(chunk);
            layer.p_rules.push(r);
        }
    }
    for chunk in tgt_members.chunks(k_max) {
        let mut r = free.pop().unwrap_or_default();
        r.bitmap.copy_from(new_bitmap);
        r.switches.clear();
        r.switches.extend_from_slice(chunk);
        layer.p_rules.push(r);
    }
    // Restore the fast path's canonical order. Minimum ids are distinct
    // (rules partition the switches and chunks are disjoint ascending
    // runs), so the order — hence the patched layer — is unique.
    layer.p_rules.sort_unstable_by_key(|r| r.switches[0]);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{cluster_layer, RedundancyMode};
    use crate::rng::SplitMix64;

    fn cfg(k_max: usize, h_max: usize, bit_budget: usize) -> ClusterConfig {
        ClusterConfig {
            r: 0,
            h_max,
            bit_budget,
            id_bits: 8,
            k_max,
            mode: RedundancyMode::Sum,
        }
    }

    fn bm(width: usize, ports: &[usize]) -> PortBitmap {
        PortBitmap::from_ports(width, ports.iter().copied())
    }

    /// Encode `inputs` from scratch with unlimited s-rules denied (pure
    /// p-rule layers only make sense for the patch path).
    fn encode(inputs: &[(u32, PortBitmap)], c: &ClusterConfig) -> LayerEncoding {
        let mut alloc = |_s: u32| false;
        cluster_layer(inputs, c, &mut alloc)
    }

    fn patch(
        layer: &mut LayerEncoding,
        inputs: &[(u32, PortBitmap)],
        switch: u32,
        nb: &PortBitmap,
        c: &ClusterConfig,
    ) -> Result<(), PatchRefusal> {
        let mut scratch = PatchScratch::new();
        try_patch_layer(
            layer,
            switch,
            nb,
            &mut |s, buf| {
                let (_, b) = inputs.iter().find(|(i, _)| *i == s).expect("member");
                buf.copy_from(b);
            },
            c,
            Trust::Verify,
            &mut scratch,
        )
    }

    fn parsimonious(
        layer: &LayerEncoding,
        inputs: &[(u32, PortBitmap)],
        c: &ClusterConfig,
    ) -> bool {
        let mut scratch = PatchScratch::new();
        layer_is_parsimonious(
            layer,
            &mut |s, buf| {
                let (_, b) = inputs.iter().find(|(i, _)| *i == s).expect("member");
                buf.copy_from(b);
            },
            c,
            &mut scratch,
        )
    }

    /// Random inputs, random single-switch edits: whenever the patch is
    /// accepted, the patched layer must be bit-identical to a from-scratch
    /// encode of the new inputs.
    #[test]
    fn accepted_patches_match_from_scratch_encodes() {
        let width = 12;
        let c = cfg(4, usize::MAX, usize::MAX);
        let mut rng = SplitMix64::new(0xDE17A);
        let mut accepted = 0usize;
        for _ in 0..300 {
            let n = rng.range_inclusive(2, 8);
            let mut inputs: Vec<(u32, PortBitmap)> = (0..n)
                .map(|i| {
                    let mut b = PortBitmap::new(width);
                    b.set(rng.below(width as u64) as usize);
                    if rng.chance(0.5) {
                        b.set(rng.below(width as u64) as usize);
                    }
                    (i as u32 * 3, b)
                })
                .collect();
            let mut layer = encode(&inputs, &c);
            if !layer.covered_by_p_rules() {
                continue;
            }
            // Flip one bit of one input, keeping it non-empty.
            let vi = rng.index(inputs.len());
            let mut nb = inputs[vi].1.clone();
            let port = rng.below(width as u64) as usize;
            if nb.get(port) {
                nb.clear(port);
            } else {
                nb.set(port);
            }
            if nb.is_empty() {
                continue;
            }
            let switch = inputs[vi].0;
            let res = patch(&mut layer, &inputs, switch, &nb, &c);
            inputs[vi].1 = nb;
            let fresh = encode(&inputs, &c);
            // refusal is always allowed; acceptance must match from-scratch
            if res.is_ok() {
                accepted += 1;
                assert_eq!(layer, fresh, "patched layer diverged");
            }
        }
        assert!(accepted > 50, "patch path never engaged ({accepted})");
    }

    /// Same property with few ports and many switches, so large equality
    /// classes (more members than `Kmax`, hence duplicate-bitmap chunk
    /// rules) dominate — the shape churn workloads actually produce.
    #[test]
    fn multi_chunk_classes_patch_and_match() {
        let width = 4;
        let c = cfg(3, usize::MAX, usize::MAX);
        let mut rng = SplitMix64::new(0xC1A55);
        let mut accepted = 0usize;
        let mut multi_chunk = 0usize;
        for _ in 0..300 {
            let n = rng.range_inclusive(8, 20);
            let mut inputs: Vec<(u32, PortBitmap)> = (0..n)
                .map(|i| {
                    let mut b = PortBitmap::new(width);
                    b.set(rng.below(width as u64) as usize);
                    if rng.chance(0.2) {
                        b.set(rng.below(width as u64) as usize);
                    }
                    (i as u32 * 2, b)
                })
                .collect();
            let layer0 = encode(&inputs, &c);
            assert!(layer0.covered_by_p_rules());
            let distinct: std::collections::BTreeSet<_> = layer0
                .p_rules
                .iter()
                .map(|r| r.bitmap.words().to_vec())
                .collect();
            if layer0.p_rules.len() > distinct.len() {
                multi_chunk += 1;
            }
            let mut layer = layer0;
            let vi = rng.index(inputs.len());
            let mut nb = inputs[vi].1.clone();
            let port = rng.below(width as u64) as usize;
            if nb.get(port) {
                nb.clear(port);
            } else {
                nb.set(port);
            }
            if nb.is_empty() {
                continue;
            }
            let switch = inputs[vi].0;
            let res = patch(&mut layer, &inputs, switch, &nb, &c);
            inputs[vi].1 = nb;
            let fresh = encode(&inputs, &c);
            match res {
                Ok(()) => {
                    accepted += 1;
                    assert_eq!(layer, fresh, "patched multi-chunk layer diverged");
                }
                Err(e) => panic!("unconstrained multi-chunk patch refused: {e:?}"),
            }
        }
        assert!(accepted > 150, "patches rarely engaged ({accepted})");
        assert!(
            multi_chunk > 100,
            "few multi-chunk layers seen ({multi_chunk})"
        );
    }

    /// Certified trust must land on the same canonical result as verified
    /// trust, across long random edit chains: the certificate from
    /// `layer_is_parsimonious` stays valid through every accepted patch.
    #[test]
    fn certified_patch_chains_match_verified_and_fresh_encodes() {
        let width = 6;
        let c = cfg(3, usize::MAX, usize::MAX);
        let mut rng = SplitMix64::new(0x7357ED);
        for case in 0..40 {
            let n = rng.range_inclusive(6, 16);
            let mut inputs: Vec<(u32, PortBitmap)> = (0..n)
                .map(|i| {
                    let mut b = PortBitmap::new(width);
                    b.set(rng.below(width as u64) as usize);
                    (i as u32, b)
                })
                .collect();
            let mut layer = encode(&inputs, &c);
            assert!(parsimonious(&layer, &inputs, &c), "case {case}");
            for _ in 0..30 {
                let vi = rng.index(inputs.len());
                let mut nb = inputs[vi].1.clone();
                let port = rng.below(width as u64) as usize;
                if nb.get(port) {
                    nb.clear(port);
                } else {
                    nb.set(port);
                }
                if nb.is_empty() {
                    continue;
                }
                let switch = inputs[vi].0;
                let mut scratch = PatchScratch::new();
                // Certified: no probes — relies on the running certificate.
                try_patch_layer(
                    &mut layer,
                    switch,
                    &nb,
                    &mut |_, _| panic!("certified trust must not probe"),
                    &c,
                    Trust::Certified,
                    &mut scratch,
                )
                .expect("unconstrained certified patch");
                inputs[vi].1 = nb;
                assert_eq!(layer, encode(&inputs, &c), "case {case}");
                assert!(parsimonious(&layer, &inputs, &c), "certificate survives");
            }
        }
    }

    #[test]
    fn parsimony_certificate_rejects_lossy_and_skewed_layers() {
        let width = 8;
        let c = cfg(2, usize::MAX, usize::MAX);
        let inputs = vec![
            (0u32, bm(width, &[1])),
            (2, bm(width, &[1])),
            (4, bm(width, &[1])),
            (6, bm(width, &[2])),
        ];
        let layer = encode(&inputs, &c);
        assert!(parsimonious(&layer, &inputs, &c));

        // A lossy union rule is not parsimonious.
        let mut lossy = LayerEncoding::empty();
        lossy.p_rules.push(DownstreamRule {
            bitmap: bm(width, &[1, 2]),
            switches: vec![0, 2],
        });
        let lossy_inputs = vec![(0u32, bm(width, &[1])), (2, bm(width, &[2]))];
        assert!(!parsimonious(&lossy, &lossy_inputs, &c));

        // A spilled layer is not parsimonious.
        let mut spilled = layer.clone();
        spilled.s_rules.push((9, bm(width, &[3])));
        assert!(!parsimonious(&spilled, &inputs, &c));

        // Non-canonical chunking (underfull first chunk) is not parsimonious.
        let mut skewed = LayerEncoding::empty();
        skewed.p_rules.push(DownstreamRule {
            bitmap: bm(width, &[1]),
            switches: vec![0],
        });
        skewed.p_rules.push(DownstreamRule {
            bitmap: bm(width, &[1]),
            switches: vec![2, 4],
        });
        let sk_inputs = vec![
            (0u32, bm(width, &[1])),
            (2, bm(width, &[1])),
            (4, bm(width, &[1])),
        ];
        assert!(!parsimonious(&skewed, &sk_inputs, &c));
    }

    #[test]
    fn singleton_rewrite_merge_and_split_each_match() {
        let width = 8;
        let c = cfg(4, usize::MAX, usize::MAX);
        // Three classes: {0} -> 1000, {3, 6} -> 0110, {9} -> 0001.
        let mut inputs = vec![
            (0u32, bm(width, &[0])),
            (3, bm(width, &[1, 2])),
            (6, bm(width, &[1, 2])),
            (9, bm(width, &[3])),
        ];
        let mut layer = encode(&inputs, &c);
        assert_eq!(layer.p_rules.len(), 3);

        // Rewrite: switch 0 gains a port, staying its own class.
        let nb = bm(width, &[0, 4]);
        patch(&mut layer, &inputs, 0, &nb, &c).unwrap();
        inputs[0].1 = nb;
        assert_eq!(layer, encode(&inputs, &c));

        // Split: switch 6 leaves the shared class.
        let nb = bm(width, &[1]);
        patch(&mut layer, &inputs, 6, &nb, &c).unwrap();
        inputs[2].1 = nb;
        assert_eq!(layer, encode(&inputs, &c));

        // Merge: switch 9 joins switch 3's class.
        let nb = bm(width, &[1, 2]);
        patch(&mut layer, &inputs, 9, &nb, &c).unwrap();
        inputs[3].1 = nb;
        assert_eq!(layer, encode(&inputs, &c));
    }

    /// Joining a class already at `Kmax` re-chunks it instead of refusing:
    /// the patched layer must match the fast path's `chunks(Kmax)` output.
    #[test]
    fn joining_a_full_class_rechunks() {
        let width = 8;
        let c = cfg(2, usize::MAX, usize::MAX);
        let mut inputs = vec![
            (0u32, bm(width, &[1])),
            (2, bm(width, &[1])),
            (4, bm(width, &[2])),
        ];
        let mut layer = encode(&inputs, &c);
        patch(&mut layer, &inputs, 4, &bm(width, &[1]), &c).unwrap();
        inputs[2].1 = bm(width, &[1]);
        let fresh = encode(&inputs, &c);
        assert_eq!(layer, fresh);
        // Three equal inputs at Kmax = 2: one full chunk and a remainder,
        // both carrying the same bitmap.
        assert_eq!(layer.p_rules.len(), 2);
        assert_eq!(layer.p_rules[0].switches, vec![0, 2]);
        assert_eq!(layer.p_rules[1].switches, vec![4]);
        assert_eq!(layer.p_rules[0].bitmap, layer.p_rules[1].bitmap);

        // And leaving again re-merges the chunks.
        patch(&mut layer, &inputs, 4, &bm(width, &[2]), &c).unwrap();
        inputs[2].1 = bm(width, &[2]);
        assert_eq!(layer, encode(&inputs, &c));
    }

    #[test]
    fn refusals_cover_spill_pressure_and_lossy_rules() {
        let width = 8;
        // Spill: a layer with an s-rule refuses immediately.
        let mut spilled = LayerEncoding::empty();
        spilled.s_rules.push((5, bm(width, &[1])));
        let r = patch(
            &mut spilled,
            &[],
            5,
            &bm(width, &[1, 2]),
            &cfg(4, 8, usize::MAX),
        );
        assert_eq!(r, Err(PatchRefusal::Spill));

        // HeaderPressure: splitting a pair when no bits remain for a third
        // rule. Budget fits exactly the two existing rules (one pair, one
        // singleton at 9 id bits + valid bit each).
        let c2 = cfg(4, usize::MAX, (width + 2 * 9 + 1) + (width + 9 + 1));
        let inputs2 = vec![
            (0u32, bm(width, &[1])),
            (2, bm(width, &[1])),
            (4, bm(width, &[2])),
        ];
        let mut layer2 = encode(&inputs2, &c2);
        assert!(layer2.covered_by_p_rules());
        let r = patch(&mut layer2, &inputs2, 2, &bm(width, &[3]), &c2);
        assert_eq!(r, Err(PatchRefusal::HeaderPressure));

        // HeaderPressure via Hmax: splitting a shared class would need one
        // more rule than the layer may hold.
        let c3 = cfg(2, 2, usize::MAX);
        let inputs3 = vec![
            (0u32, bm(width, &[1])),
            (2, bm(width, &[1])),
            (4, bm(width, &[2])),
        ];
        let mut layer3 = encode(&inputs3, &c3);
        assert!(layer3.covered_by_p_rules());
        let r = patch(&mut layer3, &inputs3, 2, &bm(width, &[3]), &c3);
        assert_eq!(r, Err(PatchRefusal::HeaderPressure));

        // NotParsimonious: a lossy shared rule (bitmap covers more than the
        // members' inputs) is detected via the member_input probe.
        let mut lossy = LayerEncoding::empty();
        lossy.p_rules.push(DownstreamRule {
            bitmap: bm(width, &[1, 2]),
            switches: vec![0, 2],
        });
        let lossy_inputs = vec![(0u32, bm(width, &[1])), (2, bm(width, &[2]))];
        let r = patch(
            &mut lossy,
            &lossy_inputs,
            0,
            &bm(width, &[1, 3]),
            &cfg(4, 8, usize::MAX),
        );
        assert_eq!(r, Err(PatchRefusal::NotParsimonious));

        // NotParsimonious: duplicate-bitmap rules that are NOT a canonical
        // chunking (first chunk underfull) cannot be patched.
        let mut skewed = LayerEncoding::empty();
        skewed.p_rules.push(DownstreamRule {
            bitmap: bm(width, &[1]),
            switches: vec![0],
        });
        skewed.p_rules.push(DownstreamRule {
            bitmap: bm(width, &[1]),
            switches: vec![2, 4],
        });
        let sk_inputs = vec![
            (0u32, bm(width, &[1])),
            (2, bm(width, &[1])),
            (4, bm(width, &[1])),
        ];
        let r = patch(
            &mut skewed,
            &sk_inputs,
            0,
            &bm(width, &[2]),
            &cfg(2, 8, usize::MAX),
        );
        assert_eq!(r, Err(PatchRefusal::NotParsimonious));
    }

    #[test]
    fn refused_layers_are_untouched() {
        let width = 8;
        let c = cfg(2, 2, usize::MAX);
        let inputs = vec![
            (0u32, bm(width, &[1])),
            (2, bm(width, &[1])),
            (4, bm(width, &[2])),
        ];
        let mut layer = encode(&inputs, &c);
        let before = layer.clone();
        let r = patch(&mut layer, &inputs, 2, &bm(width, &[3]), &c);
        assert!(r.is_err());
        assert_eq!(layer, before);
    }
}
