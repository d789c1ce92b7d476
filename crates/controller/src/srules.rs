//! Fabric-wide s-rule capacity accounting (`Fmax`).
//!
//! s-rules live in switch group tables, a resource shared by all groups
//! (paper §3.2). Leaf s-rules occupy one entry on one leaf switch; a
//! logical-spine s-rule must be present on *every* spine of the pod (the
//! packet may multipath through any of them), so it occupies one entry per
//! physical spine — the tracker accounts pods but reports physical-switch
//! occupancy.

use std::cell::RefCell;
use std::sync::OnceLock;

use elmo_core::{encode_group_with, EncodeScratch, EncoderConfig, GroupEncoding};
use elmo_topology::{Clos, GroupTree, LeafId, PodId};

/// Admission counters. A refused allocation is exactly the paper's
/// "spill": Algorithm 1 falls back to the default p-rule (spine) or a
/// wider p-rule set (leaf) when the group table is full. Every caller runs
/// sequentially in group order, so counts are deterministic.
struct SRuleMetrics {
    leaf_allocs: elmo_obs::Counter,
    leaf_refused: elmo_obs::Counter,
    pod_allocs: elmo_obs::Counter,
    pod_refused: elmo_obs::Counter,
}

fn metrics() -> &'static SRuleMetrics {
    static M: OnceLock<SRuleMetrics> = OnceLock::new();
    M.get_or_init(|| SRuleMetrics {
        leaf_allocs: elmo_obs::counter("controller.srules.leaf_allocs"),
        leaf_refused: elmo_obs::counter("controller.srules.leaf_refused"),
        pod_allocs: elmo_obs::counter("controller.srules.pod_allocs"),
        pod_refused: elmo_obs::counter("controller.srules.pod_refused"),
    })
}

/// Tracks group-table occupancy across every leaf and spine in the fabric.
#[derive(Clone, Debug)]
pub struct SRuleSpace {
    leaf_used: Vec<usize>,
    pod_used: Vec<usize>,
    leaf_cap: usize,
    spine_cap: usize,
}

impl SRuleSpace {
    /// Fresh tracker with per-leaf capacity `leaf_cap` and per-spine
    /// capacity `spine_cap` (a pod's s-rules are limited by its spines).
    pub fn new(topo: &Clos, leaf_cap: usize, spine_cap: usize) -> Self {
        SRuleSpace {
            leaf_used: vec![0; topo.num_leaves()],
            pod_used: vec![0; topo.num_pods()],
            leaf_cap,
            spine_cap,
        }
    }

    /// Unlimited capacity (used to measure natural demand, Figures 4/5
    /// center panels).
    pub fn unlimited(topo: &Clos) -> Self {
        Self::new(topo, usize::MAX, usize::MAX)
    }

    /// Try to reserve one s-rule entry on a leaf.
    pub fn alloc_leaf(&mut self, l: LeafId) -> bool {
        let used = &mut self.leaf_used[l.0 as usize];
        if *used < self.leaf_cap {
            *used += 1;
            metrics().leaf_allocs.inc();
            true
        } else {
            metrics().leaf_refused.inc();
            false
        }
    }

    /// Release one s-rule entry on a leaf.
    pub fn free_leaf(&mut self, l: LeafId) {
        let used = &mut self.leaf_used[l.0 as usize];
        debug_assert!(*used > 0, "freeing unallocated leaf s-rule");
        *used = used.saturating_sub(1);
    }

    /// Try to reserve one s-rule entry on every spine of a pod.
    pub fn alloc_pod(&mut self, p: PodId) -> bool {
        let used = &mut self.pod_used[p.0 as usize];
        if *used < self.spine_cap {
            *used += 1;
            metrics().pod_allocs.inc();
            true
        } else {
            metrics().pod_refused.inc();
            false
        }
    }

    /// Release one s-rule entry on every spine of a pod.
    pub fn free_pod(&mut self, p: PodId) {
        let used = &mut self.pod_used[p.0 as usize];
        debug_assert!(*used > 0, "freeing unallocated pod s-rule");
        *used = used.saturating_sub(1);
    }

    /// Entries used on one leaf.
    pub fn leaf_usage(&self, l: LeafId) -> usize {
        self.leaf_used[l.0 as usize]
    }

    /// Entries used on each spine of a pod.
    pub fn pod_usage(&self, p: PodId) -> usize {
        self.pod_used[p.0 as usize]
    }

    /// Per-leaf usage across the fabric.
    pub fn leaf_usages(&self) -> &[usize] {
        &self.leaf_used
    }

    /// Per-pod usage (each of the pod's spines holds this many entries).
    pub fn pod_usages(&self) -> &[usize] {
        &self.pod_used
    }

    /// Per-leaf group-table capacity (`Fmax`).
    pub fn leaf_capacity(&self) -> usize {
        self.leaf_cap
    }

    /// Per-spine group-table capacity (`Fmax`).
    pub fn spine_capacity(&self) -> usize {
        self.spine_cap
    }
}

/// Run Algorithm 1 for both downstream layers of one group against the live
/// tracker: each s-rule the encoder asks for is reserved on the spot, and a
/// refusal sends that switch to a wider p-rule or the default rule. Partial
/// allocations stick even when later ones are refused. This is the one
/// encode-and-admit path: the controller's create and full re-encode run
/// it, and so does every group of every Figure 4/5 sweep row.
pub fn encode_group_admitted(
    topo: &Clos,
    tree: &GroupTree,
    cfg: &EncoderConfig,
    srules: &mut SRuleSpace,
    scratch: &mut EncodeScratch,
) -> GroupEncoding {
    let cell = RefCell::new(srules);
    let mut spine_alloc = |p: PodId| cell.borrow_mut().alloc_pod(p);
    let mut leaf_alloc = |l: LeafId| cell.borrow_mut().alloc_leaf(l);
    encode_group_with(topo, tree, cfg, &mut spine_alloc, &mut leaf_alloc, scratch)
}

/// Summary statistics over a usage vector.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct UsageStats {
    pub mean: f64,
    pub p95: usize,
    pub max: usize,
}

impl UsageStats {
    /// Mean / 95th-percentile / max of a usage distribution.
    pub fn of(usages: &[usize]) -> UsageStats {
        if usages.is_empty() {
            return UsageStats {
                mean: 0.0,
                p95: 0,
                max: 0,
            };
        }
        let mut sorted: Vec<usize> = usages.to_vec();
        sorted.sort_unstable();
        let mean = sorted.iter().sum::<usize>() as f64 / sorted.len() as f64;
        let p95 = sorted[((sorted.len() - 1) as f64 * 0.95).round() as usize];
        let max = *sorted.last().expect("non-empty");
        UsageStats { mean, p95, max }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_roundtrip() {
        let topo = Clos::paper_example();
        let mut s = SRuleSpace::new(&topo, 2, 1);
        assert!(s.alloc_leaf(LeafId(3)));
        assert!(s.alloc_leaf(LeafId(3)));
        assert!(!s.alloc_leaf(LeafId(3)), "leaf at capacity");
        assert_eq!(s.leaf_usage(LeafId(3)), 2);
        s.free_leaf(LeafId(3));
        assert!(s.alloc_leaf(LeafId(3)));
        assert!(s.alloc_pod(PodId(1)));
        assert!(!s.alloc_pod(PodId(1)), "pod at spine capacity");
        s.free_pod(PodId(1));
        assert_eq!(s.pod_usage(PodId(1)), 0);
    }

    #[test]
    fn unlimited_never_refuses() {
        let topo = Clos::paper_example();
        let mut s = SRuleSpace::unlimited(&topo);
        for _ in 0..100_000 {
            assert!(s.alloc_leaf(LeafId(0)));
        }
    }

    #[test]
    fn usage_stats() {
        let stats = UsageStats::of(&[0, 0, 0, 10, 100]);
        assert!((stats.mean - 22.0).abs() < 1e-9);
        assert_eq!(stats.max, 100);
        assert_eq!(stats.p95, 100);
        let empty = UsageStats::of(&[]);
        assert_eq!(empty.max, 0);
    }

    #[test]
    fn stats_p95_on_uniform() {
        let usages: Vec<usize> = (0..100).collect();
        let stats = UsageStats::of(&usages);
        assert_eq!(stats.p95, 94);
        assert_eq!(stats.max, 99);
    }
}
