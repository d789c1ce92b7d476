//! Per-group metrics: traffic, header sizes, coverage.
//!
//! Traffic is computed analytically — mirroring the data-plane forwarding
//! semantics hop by hop, including header popping, p-rule sharing
//! redundancy, default-p-rule spray, and hypervisor-side discards — instead
//! of materializing packets, so a million groups evaluate in seconds. A
//! cross-validation test (`tests/analytic_matches_dataplane.rs` at the
//! workspace root) checks these numbers byte-for-byte against real packets
//! pushed through `elmo_dataplane::Fabric`.

use elmo_core::{header_for_sender, DownstreamSections, GroupEncoding, HeaderLayout, PortBitmap};
use elmo_dataplane::ElmoPacketRepr;
use elmo_topology::{Clos, GroupTree, HostId, LeafId, UpstreamCover};

/// Outer encapsulation bytes on every wire packet (Ethernet + IPv4 + UDP +
/// VXLAN).
pub const OUTER: u64 = ElmoPacketRepr::OUTER_LEN as u64;

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

    /// Unicast's overhead ratio.
    pub fn unicast_ratio(&self) -> f64 {
        self.unicast as f64 / self.ideal as f64
    }

    /// Overlay multicast's overhead ratio.
    pub fn overlay_ratio(&self) -> f64 {
        self.overlay as f64 / self.ideal as f64
    }
}

/// Payload-independent traffic constants for one (group, sender) pair.
///
/// Every scheme's byte count is *affine in the payload*: each copy on a
/// link costs its fixed encapsulation (outer headers plus whatever Elmo
/// header survives at that stage) plus the payload once. So one fabric walk
/// suffices to price every payload size — [`eval`](Self::eval) derives a
/// [`GroupTraffic`] row arithmetically, bit-identical to walking the fabric
/// with that payload.
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

/// Compute the traffic constants for one group and sender in a single
/// fabric walk.
pub fn traffic_model(
    topo: &Clos,
    layout: &HeaderLayout,
    tree: &GroupTree,
    enc: &GroupEncoding,
    sender: HostId,
) -> TrafficModel {
    let (elmo_links, elmo_fixed, header_len) = elmo_walk(topo, layout, tree, enc, sender);
    TrafficModel {
        elmo_links,
        elmo_fixed,
        ideal_links: tree.ideal_link_count(topo, sender) as u64,
        unicast_links: unicast_link_count(topo, tree, sender),
        overlay_links: overlay_link_count(topo, tree, sender),
        header_len,
    }
}

/// Compute all traffic numbers for one group, one sender, one packet of
/// `payload` bytes (the tenant's inner frame size).
pub fn group_traffic(
    topo: &Clos,
    layout: &HeaderLayout,
    tree: &GroupTree,
    enc: &GroupEncoding,
    sender: HostId,
    payload: u64,
) -> GroupTraffic {
    traffic_model(topo, layout, tree, enc, sender).eval(payload)
}

/// Walk the fabric once for Elmo, mirroring the switch pipeline exactly
/// (see `elmo_dataplane::netswitch`), and return `(copies, fixed bytes,
/// sender header bytes)`: every wire copy contributes `OUTER` plus its
/// residual header to the fixed bytes, every host-bound copy (Elmo header
/// removed entirely, VXLAN next-header reverts to Ethernet) contributes
/// `OUTER`.
fn elmo_walk(
    topo: &Clos,
    layout: &HeaderLayout,
    tree: &GroupTree,
    enc: &GroupEncoding,
    sender: HostId,
) -> (u64, u64, u64) {
    let sections = DownstreamSections::new(topo, layout, tree, enc);
    let header = header_for_sender(
        topo,
        layout,
        tree,
        &sections,
        sender,
        &UpstreamCover::multipath(),
    );
    let header_len = header.byte_len(layout) as u64;
    let sender_leaf = topo.leaf_of_host(sender);
    let sender_pod = topo.pod_of_leaf(sender_leaf);

    let mut header = header;
    let mut links = 0u64;
    let mut fixed = 0u64;
    // One wire copy costs OUTER plus its residual header; one host copy
    // costs OUTER (Elmo header stripped). Macros rather than closures so
    // both can fold into the same accumulators.
    macro_rules! wire {
        ($h:expr) => {{
            links += 1;
            fixed += OUTER + $h.byte_len(layout) as u64;
        }};
    }
    macro_rules! hosts {
        ($k:expr) => {{
            let k: u64 = $k;
            links += k;
            fixed += k * OUTER;
        }};
    }

    // Host -> leaf.
    wire!(&header);
    let u_leaf = header.u_leaf.clone().expect("sender header has u-leaf");
    // Leaf -> co-located receivers.
    hosts!(u_leaf.down.count_ones() as u64);
    if !u_leaf.goes_up() {
        return (links, fixed, header_len);
    }
    // Leaf -> spine (u-leaf popped). Multipath sends one copy; explicit
    // covers would send one per listed port, but this path models the
    // failure-free case.
    header.pop_upstream_leaf();
    wire!(&header);

    let u_spine = header
        .u_spine
        .clone()
        .expect("multi-leaf group has u-spine");
    // Upstream spine -> local member leaves: next hop is a leaf, so only the
    // d-leaf section remains.
    let leaf_stage = {
        let mut h = header.clone();
        h.pop_upstream_spine();
        h.pop_core();
        h.pop_d_spine();
        h
    };
    for leaf_idx in u_spine.down.iter_ones() {
        wire!(&leaf_stage);
        let leaf = topo.leaf_in_pod(sender_pod, leaf_idx);
        hosts!(leaf_deliveries(tree, enc, leaf));
    }
    if !u_spine.goes_up() {
        return (links, fixed, header_len);
    }
    // Spine -> core (u-spine popped).
    header.pop_upstream_spine();
    wire!(&header);
    // Core -> remote pods (core rule popped).
    let core = header.core.clone().expect("cross-pod group has core rule");
    header.pop_core();
    for pod_idx in core.iter_ones() {
        wire!(&header);
        let pod = elmo_topology::PodId(pod_idx as u32);
        // Downstream spine rule resolution: p-rule, else s-rule, else the
        // default p-rule. The core bitmap only targets member pods, and
        // `bitmap_for` covers all three rule sources for members. The one
        // exception is a single-pod receiver tree reached by a sender from
        // another pod: the shared encoding skips the spine layer entirely
        // and `DownstreamSections` synthesizes the rule into the header, so
        // mirror that here.
        let leaf_ports: PortBitmap = enc.d_spine.bitmap_for(pod.0).cloned().unwrap_or_else(|| {
            PortBitmap::from_ports(topo.spine_down_ports(), tree.leaf_ports_in_pod(topo, pod))
        });
        for leaf_idx in leaf_ports.iter_ones() {
            wire!(&leaf_stage);
            let leaf = topo.leaf_in_pod(pod, leaf_idx);
            hosts!(leaf_deliveries(tree, enc, leaf));
        }
    }
    (links, fixed, header_len)
}

/// Bytes on the wire for one Elmo transmission of `payload` inner bytes.
pub fn elmo_bytes(
    topo: &Clos,
    layout: &HeaderLayout,
    tree: &GroupTree,
    enc: &GroupEncoding,
    sender: HostId,
    payload: u64,
) -> u64 {
    let (links, fixed, _) = elmo_walk(topo, layout, tree, enc, sender);
    fixed + links * payload
}

/// How many host copies a leaf emits for this group: its exact rule when it
/// has one (p-rule bitmaps may include spurious ports from sharing), the
/// default-rule spray for spurious non-member leaves, zero (drop) otherwise.
fn leaf_deliveries(tree: &GroupTree, enc: &GroupEncoding, leaf: LeafId) -> u64 {
    if let Some(bm) = enc.d_leaf.bitmap_for(leaf.0) {
        return bm.count_ones() as u64;
    }
    if tree.has_leaf(leaf) {
        // Member leaf without a d-leaf entry: only possible for single-leaf
        // groups (handled upstream) — treat as exact delivery.
        return tree.hosts_on_leaf(leaf).len() as u64;
    }
    // Spurious copy at a non-member leaf: the default p-rule sprays, or the
    // packet drops.
    enc.d_leaf
        .default_rule
        .as_ref()
        .map_or(0, |bm| bm.count_ones() as u64)
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

/// Sender-side unicast replication bytes for one `payload`-byte packet.
pub fn unicast_bytes(topo: &Clos, tree: &GroupTree, sender: HostId, payload: u64) -> u64 {
    unicast_link_count(topo, tree, sender) * (OUTER + payload)
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

/// Overlay multicast bytes for one `payload`-byte packet.
pub fn overlay_bytes(topo: &Clos, tree: &GroupTree, sender: HostId, payload: u64) -> u64 {
    overlay_link_count(topo, tree, sender) * (OUTER + payload)
}

/// Header size of the representative sender's packet.
pub fn header_bytes(
    topo: &Clos,
    layout: &HeaderLayout,
    tree: &GroupTree,
    enc: &GroupEncoding,
    sender: HostId,
) -> usize {
    let sections = DownstreamSections::new(topo, layout, tree, enc);
    header_for_sender(
        topo,
        layout,
        tree,
        &sections,
        sender,
        &UpstreamCover::multipath(),
    )
    .byte_len(layout)
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
    use elmo_topology::{Clos, PodId};

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

    #[test]
    fn exact_encoding_traffic_shape() {
        let (topo, layout, tree, enc) = setup(0, true);
        let t = group_traffic(&topo, &layout, &tree, &enc, HostId(0), 1500);
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
        let (topo, layout, tree, enc0) = setup(0, true);
        let (_, _, _, enc2) = setup(2, false);
        let t0 = elmo_bytes(&topo, &layout, &tree, &enc0, HostId(0), 1500);
        let t2 = elmo_bytes(&topo, &layout, &tree, &enc2, HostId(0), 1500);
        // R=2 shares bitmaps, paying spurious host copies.
        assert!(t2 >= t0, "{t2} < {t0}");
    }

    #[test]
    fn small_packets_amplify_header_overhead() {
        let (topo, layout, tree, enc) = setup(0, true);
        let t64 = group_traffic(&topo, &layout, &tree, &enc, HostId(0), 64);
        let t1500 = group_traffic(&topo, &layout, &tree, &enc, HostId(0), 1500);
        assert!(t64.elmo_ratio() > t1500.elmo_ratio());
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
        let t = group_traffic(&topo, &layout, &tree, &enc, HostId(0), 1500);
        // Two links: sender host -> leaf -> receiver host. The only Elmo
        // cost over ideal is the tiny u-leaf header on the first link.
        assert_eq!(t.ideal, (OUTER + 1500) * 2);
        assert!(t.elmo_ratio() < 1.01);
        assert_eq!(t.unicast, 2 * (OUTER + 1500));
        let _ = &layout;
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
    fn affine_model_matches_per_payload_functions() {
        for (r, srules) in [(0, true), (2, false), (12, false)] {
            let (topo, layout, tree, enc) = setup(r, srules);
            let sender = HostId(0);
            let model = traffic_model(&topo, &layout, &tree, &enc, sender);
            assert_eq!(
                model.header_len as usize,
                header_bytes(&topo, &layout, &tree, &enc, sender)
            );
            for payload in [0u64, 64, 256, 512, 1500] {
                let t = model.eval(payload);
                assert_eq!(
                    t.elmo,
                    elmo_bytes(&topo, &layout, &tree, &enc, sender, payload)
                );
                assert_eq!(t.unicast, unicast_bytes(&topo, &tree, sender, payload));
                assert_eq!(t.overlay, overlay_bytes(&topo, &tree, sender, payload));
                assert_eq!(
                    t.ideal,
                    tree.ideal_link_count(&topo, sender) as u64 * (OUTER + payload)
                );
                assert_eq!(
                    t,
                    group_traffic(&topo, &layout, &tree, &enc, sender, payload)
                );
            }
        }
    }

    #[test]
    fn header_bytes_matches_direct_encoding() {
        let (topo, layout, tree, enc) = setup(0, true);
        let h = header_bytes(&topo, &layout, &tree, &enc, HostId(0));
        let direct = header_for_sender(
            &topo,
            &layout,
            &tree,
            &DownstreamSections::new(&topo, &layout, &tree, &enc),
            HostId(0),
            &UpstreamCover::multipath(),
        );
        assert_eq!(h, direct.encode(&layout).len());
    }
}
