//! Per-group metrics: traffic, header sizes, coverage.
//!
//! Elmo's traffic comes from the static forwarding walk in
//! [`elmo_verify::walk`] run over the encoding's own rules, the walk every
//! `elmo-verify` verdict rests on. No packet is materialized, so a million
//! groups evaluate in seconds. `tests/analytic_matches_dataplane.rs` at the
//! workspace root checks these numbers byte for byte against real packets
//! pushed through `elmo_dataplane::Fabric`. The baselines (ideal, unicast,
//! overlay) are closed-form link counts.

use elmo_core::{header_for_sender, DownstreamSections, GroupEncoding, HeaderLayout};
use elmo_topology::{Clos, GroupTree, HostId, UpstreamCover};
pub use elmo_verify::walk::OUTER;

/// Byte counts for one multicast transmission of one packet.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct GroupTraffic {
    /// Bytes Elmo puts on all links.
    pub elmo: u64,
    /// Bytes ideal multicast puts on all links (per-link single copies, no
    /// Elmo header).
    pub ideal: u64,
    /// Bytes sender-side unicast replication puts on all links.
    pub unicast: u64,
    /// Bytes overlay multicast puts on all links (one unicast copy per
    /// member leaf, then leaf-local re-replication by a proxy host).
    pub overlay: u64,
}

impl GroupTraffic {
    /// Elmo's overhead over ideal multicast, as a ratio (1.0 = ideal).
    pub fn elmo_ratio(&self) -> f64 {
        self.elmo as f64 / self.ideal as f64
    }
}

/// Payload-independent traffic constants for one (group, sender) pair.
///
/// Every scheme's byte count is *affine in the payload*: each copy on a
/// link costs its fixed encapsulation (outer headers plus whatever Elmo
/// header survives at that stage) plus the payload once. So one static walk
/// suffices to price every payload size — [`eval`](Self::eval) derives a
/// [`GroupTraffic`] row arithmetically, bit-identical to sending a packet of
/// that payload through the fabric.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TrafficModel {
    /// Copies Elmo puts on links (wire hops + host deliveries).
    pub elmo_links: u64,
    /// Elmo's per-transmission fixed bytes: `OUTER` per copy plus the
    /// residual Elmo header on each wire copy.
    pub elmo_fixed: u64,
    /// Links ideal multicast uses (one exact copy per link).
    pub ideal_links: u64,
    /// Link crossings for sender-side unicast replication.
    pub unicast_links: u64,
    /// Link crossings for overlay multicast.
    pub overlay_links: u64,
    /// The representative sender's full Elmo header size in bytes.
    pub header_len: u64,
}

impl TrafficModel {
    /// Price one transmission of `payload` inner bytes.
    pub fn eval(&self, payload: u64) -> GroupTraffic {
        GroupTraffic {
            elmo: self.elmo_fixed + self.elmo_links * payload,
            ideal: self.ideal_links * (OUTER + payload),
            unicast: self.unicast_links * (OUTER + payload),
            overlay: self.overlay_links * (OUTER + payload),
        }
    }
}

/// Compute the traffic constants for one group and sender: the sender's
/// multipath header, walked once over the encoding's rules.
pub fn traffic_model(
    topo: &Clos,
    layout: &HeaderLayout,
    tree: &GroupTree,
    enc: &GroupEncoding,
    sender: HostId,
) -> TrafficModel {
    let sections = DownstreamSections::new(topo, layout, tree, enc);
    let header = header_for_sender(
        topo,
        layout,
        tree,
        &sections,
        sender,
        &UpstreamCover::multipath(),
    );
    let elmo = elmo_verify::walk::encoding_cost(topo, layout, enc, sender, &header);
    TrafficModel {
        elmo_links: elmo.links,
        elmo_fixed: elmo.fixed_bytes,
        ideal_links: tree.ideal_link_count(topo, sender) as u64,
        unicast_links: unicast_link_count(topo, tree, sender),
        overlay_links: overlay_link_count(topo, tree, sender),
        header_len: elmo.header_bytes as u64,
    }
}

/// Links a unicast copy crosses between two hosts.
fn unicast_links(topo: &Clos, a: HostId, b: HostId) -> u64 {
    let la = topo.leaf_of_host(a);
    let lb = topo.leaf_of_host(b);
    if la == lb {
        2 // host -> leaf -> host
    } else if topo.pod_of_leaf(la) == topo.pod_of_leaf(lb) {
        4 // + leaf -> spine -> leaf
    } else {
        6 // + spine -> core -> spine
    }
}

/// Link crossings for sender-side unicast replication: one copy per
/// receiver, full path each.
fn unicast_link_count(topo: &Clos, tree: &GroupTree, sender: HostId) -> u64 {
    tree.members()
        .iter()
        .filter(|&&m| m != sender)
        .map(|&m| unicast_links(topo, sender, m))
        .sum()
}

/// Link crossings for overlay multicast (paper footnote 5): the source
/// hypervisor unicasts one copy to a proxy host under each participating
/// leaf; the proxy replicates to the other member hosts under that leaf
/// (each a 2-link unicast).
fn overlay_link_count(topo: &Clos, tree: &GroupTree, sender: HostId) -> u64 {
    let sender_leaf = topo.leaf_of_host(sender);
    let mut links = 0u64;
    for leaf in tree.leaves() {
        let hosts = tree.hosts_on_leaf(leaf);
        if leaf == sender_leaf {
            // The sender itself is the proxy for its own leaf.
            links += hosts.iter().filter(|&&h| h != sender).count() as u64 * 2;
        } else {
            let proxy = hosts[0];
            links += unicast_links(topo, sender, proxy);
            links += (hosts.len() as u64 - 1) * 2;
        }
    }
    links
}

/// Streaming summary over per-group scalar metrics.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Summary {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Fold one observation in.
    pub fn push(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Mean of the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elmo_core::{encode_group, EncoderConfig};
    use elmo_topology::{Clos, LeafId, PodId};

    fn setup(r: usize, srules: bool) -> (Clos, HeaderLayout, GroupTree, GroupEncoding) {
        let topo = Clos::paper_example();
        let layout = HeaderLayout::for_clos(&topo);
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
        let cfg = EncoderConfig::with_budget(&layout, 325, r);
        let mut sa = |_p: PodId| srules;
        let mut la = |_l: LeafId| srules;
        let enc = encode_group(&topo, &tree, &cfg, &mut sa, &mut la);
        (topo, layout, tree, enc)
    }

    /// The group's traffic from host 0, one `payload`-byte packet.
    fn traffic(r: usize, srules: bool, payload: u64) -> GroupTraffic {
        let (topo, layout, tree, enc) = setup(r, srules);
        traffic_model(&topo, &layout, &tree, &enc, HostId(0)).eval(payload)
    }

    #[test]
    fn exact_encoding_traffic_shape() {
        let t = traffic(0, true, 1500);
        // R=0 with s-rules: no spurious copies; only header bytes over ideal.
        assert!(t.elmo > t.ideal, "headers cost something");
        assert!(t.elmo_ratio() < 1.10, "ratio {}", t.elmo_ratio());
        // Unicast and overlay cost much more.
        assert!(t.unicast > t.elmo);
        assert!(t.overlay > t.ideal);
        assert!(t.unicast > t.overlay, "unicast is the worst");
    }

    #[test]
    fn redundancy_increases_traffic() {
        let t0 = traffic(0, true, 1500).elmo;
        let t2 = traffic(2, false, 1500).elmo;
        // R=2 shares bitmaps, paying spurious host copies.
        assert!(t2 >= t0, "{t2} < {t0}");
    }

    #[test]
    fn small_packets_amplify_header_overhead() {
        assert!(traffic(0, true, 64).elmo_ratio() > traffic(0, true, 1500).elmo_ratio());
    }

    #[test]
    fn leaf_local_group_is_ideal() {
        let topo = Clos::paper_example();
        let layout = HeaderLayout::for_clos(&topo);
        let tree = GroupTree::new(&topo, [HostId(0), HostId(1)]);
        let cfg = EncoderConfig::with_budget(&layout, 325, 0);
        let mut sa = |_p: PodId| false;
        let mut la = |_l: LeafId| false;
        let enc = encode_group(&topo, &tree, &cfg, &mut sa, &mut la);
        let t = traffic_model(&topo, &layout, &tree, &enc, HostId(0)).eval(1500);
        // Two links: sender host -> leaf -> receiver host. The only Elmo
        // cost over ideal is the tiny u-leaf header on the first link.
        assert_eq!(t.ideal, (OUTER + 1500) * 2);
        assert!(t.elmo_ratio() < 1.01);
        assert_eq!(t.unicast, 2 * (OUTER + 1500));
    }

    #[test]
    fn unicast_links_by_distance() {
        let topo = Clos::paper_example();
        assert_eq!(unicast_links(&topo, HostId(0), HostId(1)), 2);
        assert_eq!(unicast_links(&topo, HostId(0), HostId(9)), 4); // other leaf, same pod
        assert_eq!(unicast_links(&topo, HostId(0), HostId(42)), 6); // other pod
    }

    #[test]
    fn summary_statistics() {
        let mut s = Summary::new();
        for v in [1.0, 2.0, 3.0] {
            s.push(v);
        }
        assert_eq!(s.count, 3);
        assert!((s.mean() - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(Summary::new().mean(), 0.0);
    }

    #[test]
    fn header_len_is_the_encoded_header() {
        for (r, srules) in [(0, true), (2, false), (12, false)] {
            let (topo, layout, tree, enc) = setup(r, srules);
            let model = traffic_model(&topo, &layout, &tree, &enc, HostId(0));
            let direct = header_for_sender(
                &topo,
                &layout,
                &tree,
                &DownstreamSections::new(&topo, &layout, &tree, &enc),
                HostId(0),
                &UpstreamCover::multipath(),
            );
            assert_eq!(model.header_len as usize, direct.encode(&layout).len());
        }
    }
}
