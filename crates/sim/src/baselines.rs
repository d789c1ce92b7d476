//! Baseline multicast schemes the paper compares against.
//!
//! * **Ideal multicast** — per-link single copies, no header overhead
//!   (computed in [`crate::metrics`]).
//! * **Unicast** and **overlay multicast** — host-based replication
//!   (computed in [`crate::metrics`]).
//! * **Li et al.** (the paper’s reference 83) — conventional SDN multicast: every switch on a
//!   group's (single-path) tree holds a group-table entry, and membership
//!   changes update every tree switch. This is the dashed line in the
//!   Figures 4/5 center panels and the comparison columns of Table 2.

use std::borrow::Borrow;

use elmo_topology::{Clos, GroupTree, PodId};

/// Per-switch group-table occupancy under the Li et al. scheme.
#[derive(Clone, Debug)]
pub struct LiUsage {
    /// Entries per leaf switch.
    pub leaf: Vec<usize>,
    /// Entries per spine switch.
    pub spine: Vec<usize>,
    /// Entries per core switch.
    pub core: Vec<usize>,
}

/// The tree switches the Li et al. scheme programs for one group: every
/// member leaf, one spine per member pod, and one core for cross-pod groups
/// (single-path trees — SDN multicast pins routes rather than multipathing).
/// Spine/core choices are per-group deterministic hashes, mirroring how a
/// controller would spread trees.
pub struct LiTree {
    pub leaves: Vec<u32>,
    pub spines: Vec<u32>,
    pub core: Option<u32>,
}

/// Compute the Li et al. tree for a group.
pub fn li_tree(topo: &Clos, tree: &GroupTree, group_salt: u64) -> LiTree {
    let planes = topo.params().spines_per_pod;
    let leaves: Vec<u32> = tree.leaves().map(|l| l.0).collect();
    let spines: Vec<u32> = tree
        .pods()
        .map(|p| topo.spine_in_pod(p, plane_hash(group_salt, p, planes)).0)
        .collect();
    let core = if tree.num_pods() > 1 {
        let cps = topo.cores_per_spine();
        // Root the tree at the first member pod's chosen plane.
        let first = tree.pods().next().expect("non-empty tree");
        let plane = plane_hash(group_salt, first, planes);
        let within = plane_hash(group_salt, PodId(first.0 ^ 0x5a5a), cps.max(1));
        Some((plane * cps + within) as u32)
    } else {
        None
    };
    LiTree {
        leaves,
        spines,
        core,
    }
}

fn plane_hash(salt: u64, pod: PodId, planes: usize) -> usize {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in salt.to_be_bytes().into_iter().chain(pod.0.to_be_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    (h % planes as u64) as usize
}

/// Accumulate Li et al. group-table usage over a set of `(salt, tree)`
/// pairs, owned or borrowed.
pub fn li_usage<T: Borrow<GroupTree>>(
    topo: &Clos,
    trees: impl Iterator<Item = (u64, T)>,
) -> LiUsage {
    let mut usage = LiUsage {
        leaf: vec![0; topo.num_leaves()],
        spine: vec![0; topo.num_spines()],
        core: vec![0; topo.num_cores()],
    };
    for (salt, tree) in trees {
        let lt = li_tree(topo, tree.borrow(), salt);
        for l in lt.leaves {
            usage.leaf[l as usize] += 1;
        }
        for s in lt.spines {
            usage.spine[s as usize] += 1;
        }
        if let Some(c) = lt.core {
            usage.core[c as usize] += 1;
        }
    }
    usage
}

/// Rule-aggregation (the paper's "Rule aggr." column, after Li et al.'s
/// aggregation mode): groups whose trees are similar share one group-table
/// entry whose tree is the *union* of theirs, trading group-table state for
/// (a) O(#groups) flow-table entries to map each group onto its shared tree
/// and (b) spurious traffic to the union's extra leaves. We bucket groups
/// by their pod set and, within a pod set, greedily pack groups into shared
/// trees while the union stays within a leaf-count slack factor.
#[derive(Clone, Debug)]
pub struct AggregationUsage {
    /// Shared trees formed.
    pub shared_trees: usize,
    /// Flow-table entries (one per group — the aggregation's hidden cost).
    pub flow_entries: usize,
    /// Group-table entries per leaf switch.
    pub leaf: Vec<usize>,
    /// Mean spurious-leaf factor: union leaves / own leaves, averaged over
    /// groups (1.0 = no overhead).
    pub spurious_leaf_factor: f64,
}

/// Aggregate `trees` into shared trees whose leaf-union is at most
/// `slack` times the largest member's own leaf count.
pub fn rule_aggregation<'a>(
    topo: &Clos,
    trees: impl Iterator<Item = &'a GroupTree>,
    slack: f64,
) -> AggregationUsage {
    use std::collections::BTreeSet;

    use elmo_core::DetHashMap;
    // Bucket by pod set; pack greedily within the bucket.
    struct Shared {
        leaves: BTreeSet<u32>,
        max_member_leaves: usize,
        members: usize,
    }
    let mut buckets: DetHashMap<Vec<u32>, Vec<Shared>> = DetHashMap::default();
    let mut flow_entries = 0usize;
    let mut factor_sum = 0.0f64;
    let mut groups = 0usize;
    for tree in trees {
        groups += 1;
        flow_entries += 1;
        let pods: Vec<u32> = tree.pods().map(|p| p.0).collect();
        let leaves: BTreeSet<u32> = tree.leaves().map(|l| l.0).collect();
        let shared = buckets.entry(pods).or_default();
        let fit = shared.iter_mut().find(|s| {
            let union = s.leaves.union(&leaves).count();
            union as f64 <= slack * (s.max_member_leaves.max(leaves.len()) as f64)
        });
        match fit {
            Some(s) => {
                s.leaves.extend(leaves.iter().copied());
                s.max_member_leaves = s.max_member_leaves.max(leaves.len());
                s.members += 1;
                factor_sum += s.leaves.len() as f64 / leaves.len() as f64;
            }
            None => {
                factor_sum += 1.0;
                shared.push(Shared {
                    leaves,
                    max_member_leaves: 0,
                    members: 1,
                });
                let s = shared.last_mut().expect("just pushed");
                s.max_member_leaves = s.leaves.len();
            }
        }
    }
    let mut leaf = vec![0usize; topo.num_leaves()];
    let mut shared_trees = 0usize;
    for shared in buckets.values() {
        for s in shared {
            shared_trees += 1;
            for &l in &s.leaves {
                leaf[l as usize] += 1;
            }
        }
    }
    AggregationUsage {
        shared_trees,
        flow_entries,
        leaf,
        spurious_leaf_factor: if groups == 0 {
            1.0
        } else {
            factor_sum / groups as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elmo_topology::HostId;

    fn example() -> (Clos, GroupTree) {
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

    #[test]
    fn li_tree_covers_every_member_pod_and_leaf() {
        let (topo, tree) = example();
        let lt = li_tree(&topo, &tree, 7);
        assert_eq!(lt.leaves, vec![0, 5, 6, 7]);
        assert_eq!(lt.spines.len(), 3); // one spine per member pod
        for (&s, p) in lt.spines.iter().zip(tree.pods()) {
            assert_eq!(topo.pod_of_spine(elmo_topology::SpineId(s)), p);
        }
        assert!(lt.core.is_some());
    }

    #[test]
    fn single_pod_group_needs_no_core() {
        let topo = Clos::paper_example();
        let tree = GroupTree::new(&topo, [HostId(0), HostId(9)]);
        let lt = li_tree(&topo, &tree, 7);
        assert!(lt.core.is_none());
        assert_eq!(lt.spines.len(), 1);
    }

    #[test]
    fn usage_accumulates_per_switch() {
        let (topo, tree) = example();
        let trees = [(1u64, tree.clone()), (2u64, tree.clone()), (3u64, tree)];
        let usage = li_usage(&topo, trees.iter().map(|(s, t)| (*s, t)));
        // Every member leaf holds one entry per group.
        assert_eq!(usage.leaf[0], 3);
        assert_eq!(usage.leaf[5], 3);
        assert_eq!(usage.leaf[1], 0);
        // Spine/core entries exist and total one per member pod per group.
        assert_eq!(usage.spine.iter().sum::<usize>(), 9);
        assert_eq!(usage.core.iter().sum::<usize>(), 3);
    }

    #[test]
    fn li_needs_more_leaf_state_than_elmo_covered_groups() {
        // The structural claim behind Figures 4/5 center: Elmo keeps covered
        // groups out of group tables entirely, Li et al. pays one entry per
        // member leaf per group, always.
        let (topo, tree) = example();
        let usage = li_usage(&topo, std::iter::once((1u64, &tree)));
        let total: usize = usage.leaf.iter().sum();
        assert_eq!(total, tree.num_leaves());
    }

    #[test]
    fn tree_choice_is_deterministic_in_salt() {
        let (topo, tree) = example();
        let a = li_tree(&topo, &tree, 42);
        let b = li_tree(&topo, &tree, 42);
        assert_eq!(a.spines, b.spines);
        assert_eq!(a.core, b.core);
    }

    #[test]
    fn aggregation_merges_identical_trees() {
        let (topo, tree) = example();
        let trees = [tree.clone(), tree.clone(), tree];
        let agg = rule_aggregation(&topo, trees.iter(), 1.0);
        // Identical trees share one entry set; flow entries stay per-group.
        assert_eq!(agg.shared_trees, 1);
        assert_eq!(agg.flow_entries, 3);
        assert!((agg.spurious_leaf_factor - 1.0).abs() < 1e-9);
        assert_eq!(agg.leaf.iter().sum::<usize>(), 4); // one entry per member leaf
    }

    #[test]
    fn aggregation_slack_trades_state_for_spurious_traffic() {
        let topo = Clos::paper_example();
        // Two same-pod-set groups with partly different leaves.
        let a = GroupTree::new(&topo, [HostId(0), HostId(42)]); // L0, L5
        let b = GroupTree::new(&topo, [HostId(9), HostId(42)]); // L1, L5
        let strict = rule_aggregation(&topo, [a.clone(), b.clone()].iter(), 1.0);
        assert_eq!(strict.shared_trees, 2, "no slack -> no merge");
        let loose = rule_aggregation(&topo, [a, b].iter(), 2.0);
        assert_eq!(loose.shared_trees, 1, "slack 2.0 merges them");
        assert!(
            loose.spurious_leaf_factor > 1.0,
            "merging costs spurious leaves"
        );
        assert!(
            loose.leaf.iter().sum::<usize>() < strict.leaf.iter().sum::<usize>(),
            "merging saves group-table entries"
        );
    }

    #[test]
    fn aggregation_never_merges_across_pod_sets() {
        let topo = Clos::paper_example();
        let a = GroupTree::new(&topo, [HostId(0), HostId(42)]); // pods 0, 2
        let b = GroupTree::new(&topo, [HostId(0), HostId(57)]); // pods 0, 3
        let agg = rule_aggregation(&topo, [a, b].iter(), 100.0);
        assert_eq!(agg.shared_trees, 2);
    }
}
