//! Multicast trees on the logical topology.
//!
//! A multicast group's tree in a multi-rooted Clos is fully described by the
//! set of member hosts: the receiver host ports at each participating leaf,
//! the receiver leaf ports at each participating pod's logical spine, and the
//! participating pods at the logical core (paper §3.1). [`GroupTree`]
//! materializes that projection once so the encoder and the baselines can
//! query it cheaply; a membership change builds a new one from the new
//! member set.

use std::collections::BTreeMap;

use crate::clos::Clos;
use crate::ids::{HostId, LeafId, PodId};

/// The logical multicast tree of a group: per-leaf member hosts and per-pod
/// member leaves, keyed in sorted order so iteration is deterministic.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GroupTree {
    members: Vec<HostId>,
    hosts_by_leaf: BTreeMap<LeafId, Vec<HostId>>,
    leaves_by_pod: BTreeMap<PodId, Vec<LeafId>>,
}

impl GroupTree {
    /// Project a member set onto the fabric. Duplicate members are ignored.
    pub fn new(topo: &Clos, members: impl IntoIterator<Item = HostId>) -> Self {
        let mut members: Vec<HostId> = members.into_iter().collect();
        members.sort_unstable();
        members.dedup();
        let mut hosts_by_leaf: BTreeMap<LeafId, Vec<HostId>> = BTreeMap::new();
        for &h in &members {
            debug_assert!((h.0 as usize) < topo.num_hosts(), "host out of range");
            hosts_by_leaf
                .entry(topo.leaf_of_host(h))
                .or_default()
                .push(h);
        }
        let mut leaves_by_pod: BTreeMap<PodId, Vec<LeafId>> = BTreeMap::new();
        for &l in hosts_by_leaf.keys() {
            leaves_by_pod
                .entry(topo.pod_of_leaf(l))
                .or_default()
                .push(l);
        }
        GroupTree {
            members,
            hosts_by_leaf,
            leaves_by_pod,
        }
    }

    /// All member hosts, sorted.
    pub fn members(&self) -> &[HostId] {
        &self.members
    }

    /// Number of member hosts.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Whether the group has any members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Whether `h` is a member.
    pub fn contains(&self, h: HostId) -> bool {
        self.members.binary_search(&h).is_ok()
    }

    /// Leaves with at least one member, sorted.
    pub fn leaves(&self) -> impl Iterator<Item = LeafId> + '_ {
        self.hosts_by_leaf.keys().copied()
    }

    /// Number of leaves with at least one member.
    pub fn num_leaves(&self) -> usize {
        self.hosts_by_leaf.len()
    }

    /// Pods with at least one member, sorted.
    pub fn pods(&self) -> impl Iterator<Item = PodId> + '_ {
        self.leaves_by_pod.keys().copied()
    }

    /// Number of pods with at least one member.
    pub fn num_pods(&self) -> usize {
        self.leaves_by_pod.len()
    }

    /// Member hosts under a leaf (empty slice if the leaf is not on the tree).
    pub fn hosts_on_leaf(&self, l: LeafId) -> &[HostId] {
        self.hosts_by_leaf.get(&l).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Member leaves in a pod (empty slice if the pod is not on the tree).
    pub fn leaves_in_pod(&self, p: PodId) -> &[LeafId] {
        self.leaves_by_pod.get(&p).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether leaf `l` carries any member.
    pub fn has_leaf(&self, l: LeafId) -> bool {
        self.hosts_by_leaf.contains_key(&l)
    }

    /// Whether pod `p` carries any member.
    pub fn has_pod(&self, p: PodId) -> bool {
        self.leaves_by_pod.contains_key(&p)
    }

    /// Per-leaf member host lists, in ascending leaf order. Useful for
    /// whole-tree comparisons without materializing intermediate vectors.
    pub fn leaf_hosts(&self) -> impl Iterator<Item = (LeafId, &[HostId])> + '_ {
        self.hosts_by_leaf.iter().map(|(&l, hs)| (l, hs.as_slice()))
    }

    /// Per-pod member leaf lists, in ascending pod order.
    pub fn pod_leaves(&self) -> impl Iterator<Item = (PodId, &[LeafId])> + '_ {
        self.leaves_by_pod.iter().map(|(&p, ls)| (p, ls.as_slice()))
    }

    /// Downstream host port indices a leaf must forward to (one per member
    /// host under that leaf).
    pub fn host_ports_on_leaf(&self, topo: &Clos, l: LeafId) -> Vec<usize> {
        self.hosts_on_leaf(l)
            .iter()
            .map(|&h| topo.host_port_on_leaf(h))
            .collect()
    }

    /// Downstream leaf port indices a pod's logical spine must forward to.
    pub fn leaf_ports_in_pod(&self, topo: &Clos, p: PodId) -> Vec<usize> {
        self.leaves_in_pod(p)
            .iter()
            .map(|&l| topo.leaf_index_in_pod(l))
            .collect()
    }

    /// Pod port indices the logical core must forward to.
    pub fn pod_ports(&self) -> Vec<usize> {
        self.pods().map(|p| p.0 as usize).collect()
    }

    /// Total number of links an ideal multicast tree rooted at `sender`
    /// traverses, assuming single-path routing through one spine and one core
    /// (used by the traffic-overhead metric). Each physical link on the tree
    /// counts once, including the sender's own access link.
    pub fn ideal_link_count(&self, topo: &Clos, sender: HostId) -> usize {
        let sender_leaf = topo.leaf_of_host(sender);
        let sender_pod = topo.pod_of_leaf(sender_leaf);
        if self.members.iter().all(|&h| h == sender) {
            return 0;
        }
        // The sender's host -> leaf link, plus one host link per receiver
        // other than the sender.
        let mut links = 1usize;
        links += self.members.iter().filter(|&&h| h != sender).count();
        for (&pod, leaves) in &self.leaves_by_pod {
            if pod == sender_pod {
                // Sender leaf -> spine only when other leaves or other pods
                // need the packet.
                let needs_up = leaves.iter().any(|&l| l != sender_leaf)
                    || self.leaves_by_pod.keys().any(|&q| q != sender_pod);
                if needs_up {
                    links += 1; // sender leaf -> spine
                }
                // Spine -> each member leaf other than the sender's.
                links += leaves.iter().filter(|&&l| l != sender_leaf).count();
            } else {
                // Core -> pod spine, then spine -> each member leaf.
                links += 1 + leaves.len();
            }
        }
        // Spine -> core when any remote pod participates.
        if self.leaves_by_pod.keys().any(|&q| q != sender_pod) {
            links += 1;
        }
        links
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Members of the Figure 3a running example, placed per the figure with
    /// the text's 8-hosts-per-leaf sizing: Ha,Hb = hosts 0,1 (L0); Hk = host
    /// 42 (L5); Hm,Hn = hosts 48,49 (L6); Hp = host 57 (L7).
    fn example_group(topo: &Clos) -> GroupTree {
        GroupTree::new(
            topo,
            [
                HostId(0),
                HostId(1),
                HostId(42),
                HostId(48),
                HostId(49),
                HostId(57),
            ],
        )
    }

    #[test]
    fn figure3_tree_projection() {
        let topo = Clos::paper_example();
        let tree = example_group(&topo);
        assert_eq!(tree.size(), 6);
        let leaves: Vec<_> = tree.leaves().collect();
        assert_eq!(leaves, vec![LeafId(0), LeafId(5), LeafId(6), LeafId(7)]);
        let pods: Vec<_> = tree.pods().collect();
        assert_eq!(pods, vec![PodId(0), PodId(2), PodId(3)]);
        assert_eq!(tree.hosts_on_leaf(LeafId(0)), &[HostId(0), HostId(1)]);
        assert_eq!(tree.leaves_in_pod(PodId(3)), &[LeafId(6), LeafId(7)]);
        assert!(tree.has_pod(PodId(2)));
        assert!(!tree.has_pod(PodId(1)));
    }

    #[test]
    fn port_projections() {
        let topo = Clos::paper_example();
        let tree = example_group(&topo);
        // L5 = pod 2, member host 42 is its third host (port 2).
        assert_eq!(tree.host_ports_on_leaf(&topo, LeafId(5)), vec![2]);
        // Pod 3's spine forwards to both of its leaves (ports 0 and 1).
        assert_eq!(tree.leaf_ports_in_pod(&topo, PodId(3)), vec![0, 1]);
        assert_eq!(tree.pod_ports(), vec![0, 2, 3]);
    }

    #[test]
    fn dedup_and_sort() {
        let topo = Clos::paper_example();
        let tree = GroupTree::new(&topo, [HostId(5), HostId(5), HostId(1)]);
        assert_eq!(tree.members(), &[HostId(1), HostId(5)]);
        assert!(tree.contains(HostId(5)));
        assert!(!tree.contains(HostId(2)));
    }

    #[test]
    fn empty_group() {
        let topo = Clos::paper_example();
        let tree = GroupTree::new(&topo, []);
        assert!(tree.is_empty());
        assert_eq!(tree.num_leaves(), 0);
        assert_eq!(tree.num_pods(), 0);
        assert_eq!(tree.hosts_on_leaf(LeafId(0)), &[] as &[HostId]);
    }

    #[test]
    fn ideal_link_count_single_leaf() {
        let topo = Clos::paper_example();
        // Sender and one receiver on the same leaf: the sender's access
        // link plus the receiver's host link.
        let tree = GroupTree::new(&topo, [HostId(0), HostId(1)]);
        assert_eq!(tree.ideal_link_count(&topo, HostId(0)), 2);
    }

    #[test]
    fn ideal_link_count_cross_pod() {
        let topo = Clos::paper_example();
        let tree = example_group(&topo);
        // From Ha (host 0): sender access link (1) + receiver host links (5)
        // + L0->S (1) + S->C (1) + C->P2,P3 spines (2) + P2 spine->L5 (1)
        // + P3 spine->L6,L7 (2) = 13.
        assert_eq!(tree.ideal_link_count(&topo, HostId(0)), 13);
    }

    #[test]
    fn ideal_link_count_intra_pod() {
        let topo = Clos::paper_example();
        // Sender host 0 (L0, pod 0), receiver host 8 (L1, pod 0): sender
        // access (1) + host link (1) + L0->S (1) + S->L1 (1) = 4.
        let tree = GroupTree::new(&topo, [HostId(0), HostId(8)]);
        assert_eq!(tree.ideal_link_count(&topo, HostId(0)), 4);
    }
}
