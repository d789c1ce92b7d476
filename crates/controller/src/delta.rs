//! The incremental churn engine: delta re-encode for membership changes.
//!
//! Most join/leave events in a churn-dominated workload (paper §5.1.3a)
//! flip one bit of one leaf's input bitmap without changing which leaves
//! or pods participate in the group. For those, re-running Algorithm 1 —
//! rebuilding the receiver tree, refilling layer inputs, re-clustering,
//! freeing and re-admitting s-rules — is almost entirely wasted work.
//!
//! This module classifies each receiver-tree change against the group's
//! live state *before* mutating anything:
//!
//! * **Structural** — the edited host's leaf joins or leaves the tree
//!   (pod changes are implied): the set of layer inputs changes, so the
//!   event escalates to the full re-encoder.
//! * **Eligible** — the leaf set is preserved. A single-leaf group is a
//!   trivial delta hit (both downstream layers are and remain empty).
//!   Otherwise [`elmo_core::try_patch_layer`] proves the stored leaf layer
//!   is the canonical parsimonious encoding and patches the edited leaf's
//!   rule in place — rewriting its bitmap or moving it between equality
//!   classes, re-chunking oversized classes exactly as the fast path
//!   would — refusing whenever the result could diverge from a
//!   from-scratch encode (header pressure, a header-pressed layer with
//!   s-rules or lossy shared rules).
//!
//! The spine layer is never patched: with the leaf set unchanged, its
//! inputs — per-pod leaf port sets — are unchanged, and with the spine
//! section unchanged the leaf layer's bit budget is unchanged too.
//! s-rule occupancy is untouched on the patch path (eligibility requires a
//! spill-free layer), so `SRuleSpace` accounting needs no adjustment.
//!
//! Every patch is bit-identical to what the full path would have produced;
//! `tests/churn_delta.rs` holds the controller to that at every prefix of
//! seeded churn streams, against fresh `create_group` rebuilds and across
//! batch-admission thread counts.

use elmo_core::{EncoderConfig, HeaderLayout, PatchRefusal, PatchScratch, PortBitmap};
use elmo_topology::{Clos, HostId, LeafId};

use crate::controller::GroupState;

/// Deterministic per-controller churn counters, mirrored into the global
/// `churn.*` obs counters. Local copies let harnesses compare delta-on and
/// delta-off controllers in one process without snapshot arithmetic.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct ChurnStats {
    /// Receiver-tree changes absorbed by the delta path.
    pub delta_hits: u64,
    /// Receiver-tree changes that ran the full re-encoder (structural
    /// escalations plus patch refusals, or every change when the delta
    /// path is disabled).
    pub full_reencodes: u64,
    /// Full re-encodes caused by a leaf or pod appearing or vanishing.
    pub structural_escalations: u64,
}

impl ChurnStats {
    /// Total receiver-tree changes processed.
    pub fn tree_changes(&self) -> u64 {
        self.delta_hits + self.full_reencodes
    }
}

/// Obs counters for the churn engine (declared in
/// `elmo_sim::obs::REQUIRED_METRICS`). All increments happen on the
/// sequential membership path, so they are deterministic.
pub(crate) struct ChurnMetrics {
    pub delta_hit: elmo_obs::Counter,
    pub full_reencode: elmo_obs::Counter,
    pub structural_escalation: elmo_obs::Counter,
}

pub(crate) fn metrics() -> &'static ChurnMetrics {
    static M: std::sync::OnceLock<ChurnMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| ChurnMetrics {
        delta_hit: elmo_obs::counter("churn.delta_hit"),
        full_reencode: elmo_obs::counter("churn.full_reencode"),
        structural_escalation: elmo_obs::counter("churn.structural_escalations"),
    })
}

/// Reusable bitmap buffers for the delta path; one pair per controller
/// keeps the hit path allocation-free after warm-up.
#[derive(Clone, Default, Debug)]
pub(crate) struct DeltaScratch {
    /// The edited leaf's new input bitmap.
    nb: PortBitmap,
    /// Patcher-internal buffers (member probes, class grouping, re-chunk).
    patch: PatchScratch,
}

/// Establish the parsimony certificate for a freshly encoded group: whether
/// its leaf layer is exactly the canonical fast-path encoding of its tree.
/// One O(members) probe pass per full encode buys probe-free
/// ([`elmo_core::Trust::Certified`]) patches for every subsequent
/// non-structural membership event until the next full re-encode.
pub(crate) fn certify_leaf_parsimony(
    topo: &Clos,
    layout: &HeaderLayout,
    encoder: &EncoderConfig,
    tree: &elmo_topology::GroupTree,
    enc: &elmo_core::GroupEncoding,
    scratch: &mut DeltaScratch,
) -> bool {
    if tree.num_leaves() <= 1 {
        // No downstream leaf layer; trivially canonical.
        return true;
    }
    let width = topo.leaf_down_ports();
    let cfg = elmo_core::leaf_layer_cfg(layout, encoder, &enc.d_spine);
    elmo_core::layer_is_parsimonious(
        &enc.d_leaf,
        &mut |sw, buf| {
            buf.reset(width);
            for &h in tree.hosts_on_leaf(LeafId(sw)) {
                buf.set(topo.host_port_on_leaf(h));
            }
        },
        &cfg,
        &mut scratch.patch,
    )
}

/// How one receiver-tree change was handled.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum DeltaOutcome {
    /// State was patched in place; tree and encoding are already final.
    Patched,
    /// A leaf/pod appeared or vanished: caller must re-encode fully.
    Structural,
    /// Patch eligibility failed: caller must re-encode fully.
    Refused(PatchRefusal),
}

/// Attempt the delta path for a receiver-tree change at `host`.
///
/// Must be called *before* the tree is rebuilt: classification and shape
/// verification read the pre-change tree, and on success the tree is
/// edited in place. On `Structural`/`Refused` nothing was modified.
pub(crate) fn try_apply(
    topo: &Clos,
    layout: &HeaderLayout,
    encoder: &EncoderConfig,
    state: &mut GroupState,
    host: HostId,
    joining: bool,
    scratch: &mut DeltaScratch,
) -> DeltaOutcome {
    let leaf = topo.leaf_of_host(host);
    let structural = if joining {
        !state.tree.has_leaf(leaf)
    } else {
        state.tree.hosts_on_leaf(leaf).len() == 1
    };
    if structural {
        return DeltaOutcome::Structural;
    }

    let GroupState {
        tree,
        enc,
        leaf_parsimonious,
        ..
    } = state;
    if tree.num_leaves() <= 1 {
        // Single-leaf tree staying single-leaf: both downstream layers are
        // empty and stay empty, so the encoding is already correct. Only
        // headers change (upstream leaf rule and the synthesized leaf
        // rule), which the caller covers with sender fan-out.
        debug_assert!(enc.d_leaf.p_rules.is_empty() && enc.d_leaf.s_rules.is_empty());
        apply_tree_edit(topo, tree, host, joining);
        return DeltaOutcome::Patched;
    }
    if !*leaf_parsimonious {
        // No standing certificate (the last full encode was header-pressed,
        // or ran while the delta path was disabled): a patch would have to
        // re-prove the layer shape with per-member probes, costing nearly a
        // full re-encode. Escalate instead; the re-encode re-certifies.
        return DeltaOutcome::Refused(PatchRefusal::NotParsimonious);
    }

    // The edited leaf's new input: its current member ports with the host's
    // port flipped.
    let DeltaScratch { nb, patch } = scratch;
    let width = topo.leaf_down_ports();
    nb.reset(width);
    for &h in tree.hosts_on_leaf(leaf) {
        nb.set(topo.host_port_on_leaf(h));
    }
    let port = topo.host_port_on_leaf(host);
    if joining {
        debug_assert!(!nb.get(port), "joining host already on its leaf");
        nb.set(port);
    } else {
        debug_assert!(nb.get(port), "leaving host missing from its leaf");
        nb.clear(port);
    }

    // With the leaf set unchanged the spine inputs are unchanged, so the
    // live spine section stays valid and pins the leaf layer's bit budget.
    // The standing certificate lets the patcher skip re-verification
    // entirely (`Trust::Certified` — locate-only, no per-member probes):
    // a successful patch lands on the canonical encoding of the new
    // inputs, so the certificate survives it.
    let cfg = elmo_core::leaf_layer_cfg(layout, encoder, &enc.d_spine);
    let patched = elmo_core::try_patch_layer(
        &mut enc.d_leaf,
        leaf.0,
        nb,
        &mut |sw, buf| {
            buf.reset(width);
            for &h in tree.hosts_on_leaf(LeafId(sw)) {
                buf.set(topo.host_port_on_leaf(h));
            }
        },
        &cfg,
        elmo_core::Trust::Certified,
        patch,
    );
    match patched {
        Ok(()) => {
            apply_tree_edit(topo, tree, host, joining);
            DeltaOutcome::Patched
        }
        Err(refusal) => DeltaOutcome::Refused(refusal),
    }
}

/// Commit the membership edit to the tree in place. The classifier already
/// proved the edit is non-structural, and the membership counts proved the
/// host's presence actually changes.
fn apply_tree_edit(topo: &Clos, tree: &mut elmo_topology::GroupTree, host: HostId, joining: bool) {
    let edit = if joining {
        tree.add_host(topo, host)
    } else {
        tree.remove_host(topo, host)
    }
    .expect("membership counts said the host's tree presence changes");
    debug_assert!(!edit.structural(), "classifier admits only in-place edits");
}
