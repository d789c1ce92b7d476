//! The `elmo-eval trace` experiment: trace one packet's causal copy tree
//! through the paper-example fabric, annotate every node with its match
//! source and the controller's stable rule-attribution id, and
//! cross-check the tree's host leaves against the receiver set predicted
//! by `elmo-verify`'s static walk *and* the replay's actual deliveries.
//!
//! The fixture is the same three-shape group set `--trace-pcap` uses
//! (same-leaf, same-pod, cross-pod on [`Clos::paper_example`]), so CI can
//! pin exact copy-tree node counts for a known group: the tree is a pure
//! function of (topology, encoding, sender) — no clocks, no randomness.

use std::net::Ipv4Addr;
use std::sync::Arc;

use elmo_controller::{deploy, Controller, ControllerConfig, Deployment, GroupId, MemberRole};
use elmo_dataplane::{dense_switch_ref, trace_node_label, DeliveryBatch, Fabric, SwitchConfig};
use elmo_obs::{CopyTree, HOST_NODE_BIT};
use elmo_topology::{Clos, HostId, SwitchRef};

/// The fixture's group shapes, indexed by `GroupId - 1` (identical to
/// the `--trace-pcap` fixture in [`crate::obs::write_trace_pcap`]).
pub const FIXTURE_SHAPES: [&[u32]; 3] = [&[0, 1], &[0, 8, 13], &[0, 1, 42, 48, 57]];

/// Everything one traced injection produced.
#[derive(Clone, Debug)]
pub struct TraceRun {
    /// The annotated copy tree.
    pub tree: CopyTree,
    /// ASCII rendering of the tree.
    pub rendered: String,
    /// Host leaves of the tree, sorted.
    pub tree_hosts: Vec<u32>,
    /// Hosts the static walk predicts, sorted.
    pub walk_hosts: Vec<u32>,
    /// Hosts the replay actually delivered to, sorted.
    pub delivered_hosts: Vec<u32>,
    /// Whether all three host sets agree exactly.
    pub ok: bool,
}

impl TraceRun {
    /// Total tree nodes (switch hops + host deliveries + the root).
    pub fn nodes(&self) -> usize {
        self.tree.nodes.len()
    }
}

/// Trace one packet of fixture group `group` (1..=3) from `sender`
/// (defaults to the group's first member), returning the annotated tree
/// and the three-way host-set cross-check.
pub fn run(group: u64, sender: Option<u32>) -> Result<TraceRun, String> {
    let topo = Clos::paper_example();
    let mut ctl = Controller::new(topo, ControllerConfig::paper_default(12));
    let vni = elmo_net::vxlan::Vni(7);
    let mut dep = Deployment::new(Fabric::new(topo, SwitchConfig::default()));
    for (gi, members) in FIXTURE_SHAPES.iter().enumerate() {
        let gid = GroupId(gi as u64 + 1);
        ctl.create_group(
            gid,
            vni,
            Ipv4Addr::new(225, 9, 9, gi as u8 + 1),
            members.iter().map(|&h| (HostId(h), MemberRole::Both)),
        );
        dep.apply(&ctl, &deploy::deploy_group(&ctl, gid))
            .map_err(|e| format!("deploy: {e}"))?;
    }

    let gid = GroupId(group);
    let members = FIXTURE_SHAPES
        .get(group.wrapping_sub(1) as usize)
        .ok_or_else(|| {
            format!(
                "fixture groups are 1..={}, got {group}",
                FIXTURE_SHAPES.len()
            )
        })?;
    let sender = HostId(sender.unwrap_or(members[0]));
    if !members.contains(&sender.0) {
        return Err(format!(
            "host {} is not a member of fixture group {group} (members: {members:?})",
            sender.0
        ));
    }
    let state = ctl.group(gid).expect("fixture group exists");
    let payload: Arc<[u8]> = format!("elmo trace g{group}").into_bytes().into();
    let mut pkts = dep
        .hypervisor_mut(sender)
        .send_flight(vni, state.tenant_addr, &payload);
    let mut fabric = dep.fabric;
    if pkts.len() != 1 {
        return Err(format!(
            "sender flow produced {} packets, expected 1",
            pkts.len()
        ));
    }
    let pkt = pkts.remove(0);
    let probe = pkt.clone();

    // The traced injection. Tracing records edges only; deliveries are
    // bit-identical to an untraced run (pinned by tests/path_trace.rs).
    fabric.start_tree_trace();
    let mut deliveries = DeliveryBatch::new();
    fabric.replay(&[(sender, pkt)], &mut deliveries);
    let events = fabric.take_tree_trace();
    let mut tree = CopyTree::build(0, &events, |n| trace_node_label(&topo, n));

    // Offline rule attribution: match sources are recomputed against the
    // same installed state the replay used (the hot path records only
    // edges), via the switch's own resolution-order probe.
    let att = state.rule_attribution();
    tree.annotate(|n| {
        if n.node & HOST_NODE_BIT != 0 {
            return ("deliver".to_string(), String::new());
        }
        // A node id is (packet << 32) | raw node id, so the parent's raw
        // switch id is the low word of its node id.
        let parent_raw = n.parent.map(|p| (p & u32::MAX as u64) as u32);
        let mut downstream_probe = probe.clone();
        downstream_probe.popped = n.state;
        match dense_switch_ref(&topo, n.node) {
            SwitchRef::Leaf(l) => match parent_raw {
                // Root: the sender's leaf matched its u-leaf p-rule.
                None => ("p-rule".to_string(), att.u_leaf()),
                // Parent is a spine: downstream leaf resolution.
                Some(_) => {
                    let src = fabric.leaf(l).classify_downstream(&downstream_probe);
                    let rule = att.d_leaf_rule(l.0).unwrap_or("").to_string();
                    (src.label().to_string(), rule)
                }
            },
            SwitchRef::Spine(s) => {
                let from_leaf = parent_raw
                    .map(|p| matches!(dense_switch_ref(&topo, p), SwitchRef::Leaf(_)))
                    .unwrap_or(false);
                if from_leaf {
                    // Upstream direction: the u-spine p-rule.
                    ("p-rule".to_string(), att.u_spine())
                } else {
                    let src = fabric.spine(s).classify_downstream(&downstream_probe);
                    let pod = topo.pod_of_spine(s);
                    let rule = att.d_spine_rule(pod.0).unwrap_or("").to_string();
                    (src.label().to_string(), rule)
                }
            }
            SwitchRef::Core(c) => {
                let src = fabric.core(c).classify_downstream(&downstream_probe);
                (src.label().to_string(), att.core())
            }
        }
    });

    let tree_hosts = tree.leaf_hosts();
    let walk_hosts: Vec<u32> = elmo_verify::static_walk_deliveries(&ctl, &fabric, gid, sender)?
        .keys()
        .map(|h| h.0)
        .collect();
    let mut delivered_hosts: Vec<u32> = deliveries.entries().map(|(h, _)| h.0).collect();
    delivered_hosts.sort_unstable();
    delivered_hosts.dedup();
    let ok = tree_hosts == walk_hosts && tree_hosts == delivered_hosts;
    let rendered = tree.render();
    Ok(TraceRun {
        tree,
        rendered,
        tree_hosts,
        walk_hosts,
        delivered_hosts,
        ok,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_pod_tree_matches_walk_and_replay() {
        let run = run(3, None).expect("fixture traces");
        assert!(
            run.ok,
            "tree {:?} walk {:?} replay {:?}",
            run.tree_hosts, run.walk_hosts, run.delivered_hosts
        );
        // Sender 0's copies reach every other member of {0,1,42,48,57}.
        assert_eq!(run.tree_hosts, vec![1, 42, 48, 57]);
        // Root + at least one hop per delivery.
        assert!(run.nodes() > run.tree_hosts.len());
        // Every node carries an attribution after annotation.
        for n in &run.tree.nodes {
            assert!(!n.matched.is_empty(), "unannotated node {n:?}");
        }
    }

    #[test]
    fn same_leaf_group_stays_under_one_leaf() {
        let run = run(1, None).expect("fixture traces");
        assert!(run.ok);
        assert_eq!(run.tree_hosts, vec![1]);
        // Same-leaf: root leaf + one host delivery, nothing upstream.
        assert_eq!(run.nodes(), 2);
    }

    #[test]
    fn non_member_sender_is_rejected() {
        assert!(run(3, Some(999)).is_err());
        assert!(run(9, None).is_err());
    }

    #[test]
    fn tree_json_round_trips() {
        let run = run(2, None).expect("fixture traces");
        let json = run.tree.to_json();
        let back = CopyTree::from_json(&json).expect("parses");
        assert_eq!(back, run.tree);
    }
}
