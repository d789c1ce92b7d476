//! Hypervisor switch model (paper §2, §4.2).
//!
//! The hypervisor switch intercepts multicast packets from local VMs, looks
//! up the destination group in its flow table, and pushes the VXLAN + Elmo
//! encapsulation in **one contiguous write** (the Elmo header bytes are
//! precomputed per flow entry, because re-encoding p-rules — or worse,
//! writing them as separate headers — costs a DMA write each and destroys
//! throughput; §4.2 and Figure 7).
//!
//! On the receive side it checks the whole outer stack, looks the outer
//! (provider-assigned) group address up in its subscription table — the
//! table is keyed by that address alone; the VNI is validated as part of
//! the VXLAN header but is not part of the key — and hands the inner frame
//! to the subscribed VMs, discarding anything else. During failure
//! reconfiguration it can degrade a group to unicast (§3.3).

use std::net::Ipv4Addr;
use std::sync::Arc;

use elmo_core::{DetHashMap, ElmoHeader, HeaderLayout};
use elmo_net::ethernet::{self, EtherType, Frame, FrameRepr, MacAddr};
use elmo_net::ipv4::{self, Ipv4Packet, Ipv4Repr, Protocol};
use elmo_net::udp::{self, UdpPacket, UdpRepr, VXLAN_PORT};
use elmo_net::vxlan::{self, NextHeader, Vni, VxlanPacket, VxlanRepr};
use elmo_topology::HostId;

use crate::packet::{ElmoPacketRepr, FlightPacket};

/// The underlay IPv4 address of a host: `10.h2.h1.h0` from the host index.
pub fn host_ip(h: HostId) -> Ipv4Addr {
    let b = h.0.to_be_bytes();
    Ipv4Addr::new(10, b[1], b[2], b[3])
}

/// Inverse of [`host_ip`]; `None` if the address is not in the host range.
pub fn host_of_ip(ip: Ipv4Addr) -> Option<HostId> {
    let o = ip.octets();
    if o[0] != 10 {
        return None;
    }
    Some(HostId(u32::from_be_bytes([0, o[1], o[2], o[3]])))
}

/// A local VM slot on this host.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VmSlot(pub u32);

/// A membership change extracted from an intercepted IGMP message, ready to
/// forward to the controller.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MembershipSignal {
    /// The host whose hypervisor intercepted the message.
    pub host: HostId,
    /// The local VM that sent it.
    pub vm: VmSlot,
    /// The tenant's multicast group address.
    pub group: Ipv4Addr,
    /// `true` for a membership report (join), `false` for a leave.
    pub join: bool,
}

/// A sender-side flow entry: everything needed to encapsulate one group's
/// packets from this host.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SenderFlow {
    /// Provider-assigned outer multicast address for the group.
    pub outer_group: Ipv4Addr,
    /// Tenant virtual network.
    pub vni: Vni,
    /// Precomputed, already-serialized Elmo header for this sender.
    pub elmo_bytes: Vec<u8>,
    /// The same header in struct form, shared by every [`FlightPacket`]
    /// built from this flow (no decode on the flight send path).
    pub header: Arc<ElmoHeader>,
    /// Member hosts for unicast fallback (receivers other than this host).
    pub fallback_hosts: Vec<HostId>,
    /// When set, `send` emits unicast copies instead of one Elmo packet
    /// (transient failure window, §3.3).
    pub unicast_fallback: bool,
}

impl SenderFlow {
    /// Build a flow entry, serializing the header once.
    pub fn new(
        outer_group: Ipv4Addr,
        vni: Vni,
        header: &ElmoHeader,
        layout: &HeaderLayout,
        fallback_hosts: Vec<HostId>,
    ) -> Self {
        SenderFlow {
            outer_group,
            vni,
            elmo_bytes: header.encode(layout),
            header: Arc::new(header.clone()),
            fallback_hosts,
            unicast_fallback: false,
        }
    }
}

/// Counters exposed by the hypervisor switch.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct HypervisorStats {
    /// Multicast packets encapsulated and sent.
    pub sent_multicast: u64,
    /// Unicast copies sent (fallback or baseline mode).
    pub sent_unicast: u64,
    /// Inner frames delivered to local VMs.
    pub delivered: u64,
    /// Received packets discarded (no local subscription).
    pub discarded: u64,
    /// Sends dropped for lack of a flow entry.
    pub no_flow: u64,
}

/// Fabric-wide mirrors of the per-hypervisor counters.
struct HvMetrics {
    sent_multicast: elmo_obs::Counter,
    sent_unicast: elmo_obs::Counter,
    delivered: elmo_obs::Counter,
    discarded: elmo_obs::Counter,
    no_flow: elmo_obs::Counter,
}

fn metrics() -> &'static HvMetrics {
    static M: std::sync::OnceLock<HvMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| HvMetrics {
        sent_multicast: elmo_obs::counter("dataplane.hv.sent_multicast"),
        sent_unicast: elmo_obs::counter("dataplane.hv.sent_unicast"),
        delivered: elmo_obs::counter("dataplane.hv.delivered"),
        discarded: elmo_obs::counter("dataplane.hv.discarded"),
        no_flow: elmo_obs::counter("dataplane.hv.no_flow"),
    })
}

impl HypervisorStats {
    fn sent_multicast(&mut self) {
        self.sent_multicast += 1;
        metrics().sent_multicast.inc();
    }

    fn sent_unicast(&mut self) {
        self.sent_unicast += 1;
        metrics().sent_unicast.inc();
    }

    fn delivered(&mut self, n: u64) {
        self.delivered += n;
        metrics().delivered.add(n);
    }

    fn discarded(&mut self) {
        self.discarded += 1;
        metrics().discarded.inc();
    }

    fn no_flow(&mut self) {
        self.no_flow += 1;
        metrics().no_flow.inc();
    }
}

/// The software switch running in each host's hypervisor.
#[derive(Clone, Debug)]
pub struct HypervisorSwitch {
    host: HostId,
    mac: MacAddr,
    ip: Ipv4Addr,
    /// Sender-side flow table: (tenant VNI, tenant group address) -> encap.
    flows: DetHashMap<(Vni, Ipv4Addr), SenderFlow>,
    /// Receiver-side subscriptions: outer group address -> local VM slots.
    subscriptions: DetHashMap<Ipv4Addr, Vec<VmSlot>>,
    /// Flow-entropy counter for outer UDP source ports.
    entropy: u16,
    /// Counters.
    pub stats: HypervisorStats,
}

impl HypervisorSwitch {
    /// A hypervisor switch for the given host.
    pub fn new(host: HostId) -> Self {
        HypervisorSwitch {
            host,
            mac: MacAddr::for_host(host.0),
            ip: host_ip(host),
            flows: DetHashMap::default(),
            subscriptions: DetHashMap::default(),
            entropy: (host.0 as u16).wrapping_mul(31).wrapping_add(17),
            stats: HypervisorStats::default(),
        }
    }

    /// The host this switch runs on.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// The host's underlay address.
    pub fn ip(&self) -> Ipv4Addr {
        self.ip
    }

    // ----- control-plane API (driven by the controller) ----------------------

    /// Install or replace the sender flow for a tenant group. Returns whether
    /// an entry already existed (an *update* rather than an *add*).
    pub fn install_flow(&mut self, vni: Vni, tenant_group: Ipv4Addr, flow: SenderFlow) -> bool {
        self.flows.insert((vni, tenant_group), flow).is_some()
    }

    /// Remove the sender flow for a tenant group.
    pub fn remove_flow(&mut self, vni: Vni, tenant_group: Ipv4Addr) -> bool {
        self.flows.remove(&(vni, tenant_group)).is_some()
    }

    /// Fetch a flow entry (for inspection or toggling fallback).
    pub fn flow_mut(&mut self, vni: Vni, tenant_group: Ipv4Addr) -> Option<&mut SenderFlow> {
        self.flows.get_mut(&(vni, tenant_group))
    }

    /// Read-only flow lookup (static verification of the encap table).
    pub fn flow(&self, vni: Vni, tenant_group: Ipv4Addr) -> Option<&SenderFlow> {
        self.flows.get(&(vni, tenant_group))
    }

    /// Local VM slots subscribed to an outer group address.
    pub fn subscribers(&self, outer_group: Ipv4Addr) -> &[VmSlot] {
        self.subscriptions
            .get(&outer_group)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of installed sender flows.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Subscribe a local VM to an outer group address.
    pub fn subscribe(&mut self, outer_group: Ipv4Addr, vm: VmSlot) {
        let vms = self.subscriptions.entry(outer_group).or_default();
        if !vms.contains(&vm) {
            vms.push(vm);
        }
    }

    /// Unsubscribe a local VM; prunes the group entry when no VM remains.
    pub fn unsubscribe(&mut self, outer_group: Ipv4Addr, vm: VmSlot) {
        if let Some(vms) = self.subscriptions.get_mut(&outer_group) {
            vms.retain(|&v| v != vm);
            if vms.is_empty() {
                self.subscriptions.remove(&outer_group);
            }
        }
    }

    // ----- data plane ----------------------------------------------------------

    fn split(&mut self) -> (&DetHashMap<(Vni, Ipv4Addr), SenderFlow>, Uplink<'_>) {
        let uplink = Uplink {
            mac: self.mac,
            ip: self.ip,
            entropy: &mut self.entropy,
            stats: &mut self.stats,
        };
        (&self.flows, uplink)
    }

    /// Encapsulate and send one multicast packet from a local VM. Returns the
    /// wire packets to inject (one Elmo packet normally; N unicast packets in
    /// fallback mode; empty and counted if no flow entry exists).
    pub fn send(
        &mut self,
        vni: Vni,
        tenant_group: Ipv4Addr,
        inner_frame: &[u8],
        _layout: &HeaderLayout,
    ) -> Vec<Vec<u8>> {
        self.entropy = self.entropy.wrapping_add(1);
        let (flows, uplink) = self.split();
        let Some(flow) = flows.get(&(vni, tenant_group)) else {
            uplink.stats.no_flow();
            return Vec::new();
        };
        if flow.unicast_fallback {
            return uplink.unicast_wire(&flow.fallback_hosts, flow.vni, inner_frame);
        }
        let mut buf = Vec::with_capacity(
            ElmoPacketRepr::OUTER_LEN + flow.elmo_bytes.len() + inner_frame.len(),
        );
        encap_single_write(
            uplink.mac,
            uplink.ip,
            flow.outer_group,
            *uplink.entropy,
            flow.vni,
            &flow.elmo_bytes,
            inner_frame,
            &mut buf,
        );
        uplink.stats.sent_multicast();
        vec![buf]
    }

    /// [`send`](Self::send) in flight form: produce [`FlightPacket`]s for
    /// direct replay via `Fabric::replay`, skipping the outer
    /// stack serialization entirely (the paper's one-DMA-write point taken
    /// to its logical end in the model — zero writes). Entropy, counters,
    /// and fallback behavior advance exactly as in `send`, so materializing
    /// the returned packets yields byte-identical wire packets.
    pub fn send_flight(
        &mut self,
        vni: Vni,
        tenant_group: Ipv4Addr,
        inner_frame: &Arc<[u8]>,
    ) -> Vec<FlightPacket> {
        self.entropy = self.entropy.wrapping_add(1);
        let (flows, uplink) = self.split();
        let Some(flow) = flows.get(&(vni, tenant_group)) else {
            uplink.stats.no_flow();
            return Vec::new();
        };
        if flow.unicast_fallback {
            return uplink.unicast_flights(&flow.fallback_hosts, flow.vni, inner_frame);
        }
        let pkt = FlightPacket {
            src_mac: uplink.mac,
            dst_mac: MacAddr::from_ipv4_multicast(flow.outer_group),
            src_ip: uplink.ip,
            group_ip: flow.outer_group,
            flow_entropy: *uplink.entropy,
            vni: flow.vni,
            elmo: Some(flow.header.clone()),
            popped: elmo_core::pop::NONE,
            payload: inner_frame.clone(),
        };
        uplink.stats.sent_multicast();
        vec![pkt]
    }

    /// Send an inner frame as plain VXLAN unicast to each target host (used
    /// by the unicast baseline and the failure fallback).
    pub fn send_unicast_to(
        &mut self,
        targets: &[HostId],
        vni: Vni,
        inner_frame: &[u8],
        _layout: &HeaderLayout,
    ) -> Vec<Vec<u8>> {
        self.split().1.unicast_wire(targets, vni, inner_frame)
    }

    /// Intercept an IGMP message a local VM emitted (an inner Ethernet
    /// frame carrying IPv4 protocol 2). Returns the membership signal the
    /// edge should forward to the controller; IGMP never reaches the
    /// physical network (paper §1: Elmo replaces the "chatty" IGMP/PIM
    /// control plane with controller API calls from the virtual edge).
    /// Returns `None` — and counts a discard — for anything that is not a
    /// well-formed join/leave.
    pub fn intercept_igmp(&mut self, vm: VmSlot, inner_frame: &[u8]) -> Option<MembershipSignal> {
        let eth = Frame::new_checked(inner_frame).ok()?;
        if eth.ethertype() != EtherType::Ipv4 {
            return None;
        }
        let ip = Ipv4Packet::new_checked(eth.payload()).ok()?;
        if ip.protocol() != Protocol::Igmp || !ip.verify_checksum() {
            self.stats.discarded();
            return None;
        }
        let igmp = match elmo_net::igmp::IgmpPacket::new_checked(ip.payload()) {
            Ok(p) => p,
            Err(_) => {
                self.stats.discarded();
                return None;
            }
        };
        let repr = match elmo_net::igmp::IgmpRepr::parse(&igmp) {
            Ok(r) => r,
            Err(_) => {
                self.stats.discarded();
                return None;
            }
        };
        let join = match repr.kind {
            elmo_net::igmp::IgmpType::MembershipReport
            | elmo_net::igmp::IgmpType::V1MembershipReport => true,
            elmo_net::igmp::IgmpType::LeaveGroup => false,
            // Queries originate from routers; a VM sending one is noise.
            elmo_net::igmp::IgmpType::MembershipQuery => {
                self.stats.discarded();
                return None;
            }
        };
        if !ipv4::is_multicast(repr.group) {
            self.stats.discarded();
            return None;
        }
        Some(MembershipSignal {
            host: self.host,
            vm,
            group: repr.group,
            join,
        })
    }

    /// Receive a wire packet destined to this host: one `(VM slot, inner
    /// frame)` pair per local VM subscribed to the packet's outer group
    /// address. The outer stack gets every check
    /// [`ElmoPacketRepr::parse`] applies
    /// ([`parse_edge`](ElmoPacketRepr::parse_edge)); a packet that fails
    /// one, or whose group has no local subscriber, is discarded and
    /// counted. Nothing is allocated and no byte is copied: the deliveries
    /// borrow the subscriber list and `bytes`.
    pub fn receive<'p>(&'p mut self, bytes: &'p [u8], layout: &HeaderLayout) -> Deliveries<'p> {
        let (vms, inner): (&[VmSlot], &[u8]) = match ElmoPacketRepr::parse_edge(bytes, layout) {
            Ok((group_ip, inner_off)) if ipv4::is_multicast(group_ip) => (
                self.subscriptions.get(&group_ip).map_or(&[], Vec::as_slice),
                &bytes[inner_off..],
            ),
            // Unicast to this host: which VMs want it is not knowable from
            // the packet alone, so unicast fallback carries the tenant
            // frame straight through to slot 0's vswitch port; the
            // application demultiplexes.
            Ok((dst, inner_off)) if dst == self.ip => (&[VmSlot(0)], &bytes[inner_off..]),
            _ => (&[], &[]),
        };
        if vms.is_empty() {
            self.stats.discarded();
        } else {
            self.stats.delivered(vms.len() as u64);
        }
        Deliveries {
            vms: vms.iter(),
            inner,
        }
    }
}

/// What [`HypervisorSwitch::receive`] hands back: the inner frame once per
/// subscribed local VM, as borrowed slices.
#[derive(Clone, Debug)]
pub struct Deliveries<'p> {
    vms: std::slice::Iter<'p, VmSlot>,
    inner: &'p [u8],
}

impl Deliveries<'_> {
    /// Whether the packet was discarded (no delivery left to yield).
    pub fn is_empty(&self) -> bool {
        self.vms.len() == 0
    }
}

impl<'p> Iterator for Deliveries<'p> {
    type Item = (VmSlot, &'p [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        self.vms.next().map(|&vm| (vm, self.inner))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.vms.size_hint()
    }
}

impl ExactSizeIterator for Deliveries<'_> {}

/// Everything a send touches besides the flow table, borrowed apart from
/// it, so fallback targets are read straight out of the flow entry.
struct Uplink<'a> {
    mac: MacAddr,
    ip: Ipv4Addr,
    entropy: &'a mut u16,
    stats: &'a mut HypervisorStats,
}

impl Uplink<'_> {
    /// One plain-VXLAN unicast wire packet per target.
    fn unicast_wire(self, targets: &[HostId], vni: Vni, inner_frame: &[u8]) -> Vec<Vec<u8>> {
        let mut out = Vec::with_capacity(targets.len());
        for &t in targets {
            *self.entropy = self.entropy.wrapping_add(1);
            let mut buf = Vec::with_capacity(ElmoPacketRepr::OUTER_LEN + inner_frame.len());
            encap_single_write(
                self.mac,
                self.ip,
                host_ip(t),
                *self.entropy,
                vni,
                &[],
                inner_frame,
                &mut buf,
            );
            out.push(buf);
            self.stats.sent_unicast();
        }
        out
    }

    /// [`unicast_wire`](Self::unicast_wire) in flight form.
    fn unicast_flights(
        self,
        targets: &[HostId],
        vni: Vni,
        inner_frame: &Arc<[u8]>,
    ) -> Vec<FlightPacket> {
        let mut out = Vec::with_capacity(targets.len());
        for &t in targets {
            *self.entropy = self.entropy.wrapping_add(1);
            out.push(FlightPacket {
                src_mac: self.mac,
                dst_mac: MacAddr::for_host(t.0),
                src_ip: self.ip,
                group_ip: host_ip(t),
                flow_entropy: *self.entropy,
                vni,
                elmo: None,
                popped: elmo_core::pop::NONE,
                payload: inner_frame.clone(),
            });
            self.stats.sent_unicast();
        }
        out
    }
}

/// Lay the outer Ethernet/IPv4/UDP/VXLAN stack, the precomputed Elmo header
/// bytes, and the inner frame into `out` in a single pass.
#[allow(clippy::too_many_arguments)]
fn encap_single_write(
    src_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    entropy: u16,
    vni: Vni,
    elmo_bytes: &[u8],
    inner_frame: &[u8],
    out: &mut Vec<u8>,
) {
    out.clear();
    let total = ElmoPacketRepr::OUTER_LEN + elmo_bytes.len() + inner_frame.len();
    out.resize(total, 0);
    let dst_mac = if ipv4::is_multicast(dst_ip) {
        MacAddr::from_ipv4_multicast(dst_ip)
    } else {
        MacAddr::for_host(host_of_ip(dst_ip).map_or(0, |h| h.0))
    };
    let mut eth = Frame::new_unchecked(&mut out[..]);
    FrameRepr {
        dst: dst_mac,
        src: src_mac,
        ethertype: EtherType::Ipv4,
    }
    .emit(&mut eth);
    let mut ip = Ipv4Packet::new_unchecked(&mut out[ethernet::HEADER_LEN..]);
    Ipv4Repr {
        src: src_ip,
        dst: dst_ip,
        protocol: Protocol::Udp,
        ttl: 64,
        payload_len: udp::HEADER_LEN + vxlan::HEADER_LEN + elmo_bytes.len() + inner_frame.len(),
    }
    .emit(&mut ip);
    let udp_off = ethernet::HEADER_LEN + ipv4::HEADER_LEN;
    let mut udp_pkt = UdpPacket::new_unchecked(&mut out[udp_off..]);
    UdpRepr {
        src_port: entropy,
        dst_port: VXLAN_PORT,
        payload_len: vxlan::HEADER_LEN + elmo_bytes.len() + inner_frame.len(),
    }
    .emit(&mut udp_pkt);
    let vx_off = udp_off + udp::HEADER_LEN;
    let mut vx = VxlanPacket::new_unchecked(&mut out[vx_off..]);
    VxlanRepr {
        vni,
        next_header: if elmo_bytes.is_empty() {
            NextHeader::Ethernet
        } else {
            NextHeader::Elmo
        },
    }
    .emit(&mut vx);
    let mut off = vx_off + vxlan::HEADER_LEN;
    out[off..off + elmo_bytes.len()].copy_from_slice(elmo_bytes);
    off += elmo_bytes.len();
    out[off..].copy_from_slice(inner_frame);
}

#[cfg(test)]
mod tests {
    use super::*;
    use elmo_core::{PortBitmap, UpstreamRule};
    use elmo_topology::Clos;

    fn layout() -> HeaderLayout {
        HeaderLayout::for_clos(&Clos::paper_example())
    }

    fn sample_header(l: &HeaderLayout) -> ElmoHeader {
        let mut h = ElmoHeader::empty();
        h.u_leaf = Some(UpstreamRule {
            down: PortBitmap::from_ports(l.leaf_down_ports, [1]),
            multipath: true,
            up: PortBitmap::new(l.leaf_up_ports),
        });
        h
    }

    const GROUP: Ipv4Addr = Ipv4Addr::new(225, 1, 2, 3);
    const OUTER: Ipv4Addr = Ipv4Addr::new(239, 7, 7, 7);

    #[test]
    fn host_ip_roundtrip() {
        for h in [0u32, 1, 255, 256, 27_647] {
            assert_eq!(host_of_ip(host_ip(HostId(h))), Some(HostId(h)));
        }
        assert_eq!(host_of_ip(Ipv4Addr::new(11, 0, 0, 1)), None);
    }

    #[test]
    fn send_produces_parseable_elmo_packet() {
        let l = layout();
        let mut hv = HypervisorSwitch::new(HostId(3));
        let header = sample_header(&l);
        hv.install_flow(
            Vni(9),
            GROUP,
            SenderFlow::new(OUTER, Vni(9), &header, &l, vec![]),
        );
        let pkts = hv.send(Vni(9), GROUP, b"hello vm", &l);
        assert_eq!(pkts.len(), 1);
        let (repr, off) = ElmoPacketRepr::parse(&pkts[0], &l).unwrap();
        assert_eq!(repr.group_ip, OUTER);
        assert_eq!(repr.vni, Vni(9));
        assert_eq!(repr.src_ip, host_ip(HostId(3)));
        assert_eq!(repr.elmo.unwrap(), header);
        assert_eq!(&pkts[0][off..], b"hello vm");
        assert_eq!(hv.stats.sent_multicast, 1);
    }

    #[test]
    fn send_without_flow_is_counted() {
        let l = layout();
        let mut hv = HypervisorSwitch::new(HostId(0));
        assert!(hv.send(Vni(1), GROUP, b"x", &l).is_empty());
        assert_eq!(hv.stats.no_flow, 1);
    }

    #[test]
    fn flow_entropy_varies_per_packet() {
        let l = layout();
        let mut hv = HypervisorSwitch::new(HostId(3));
        let header = sample_header(&l);
        hv.install_flow(
            Vni(9),
            GROUP,
            SenderFlow::new(OUTER, Vni(9), &header, &l, vec![]),
        );
        let p1 = hv.send(Vni(9), GROUP, b"a", &l).remove(0);
        let p2 = hv.send(Vni(9), GROUP, b"a", &l).remove(0);
        let (r1, _) = ElmoPacketRepr::parse(&p1, &l).unwrap();
        let (r2, _) = ElmoPacketRepr::parse(&p2, &l).unwrap();
        assert_ne!(r1.flow_entropy, r2.flow_entropy);
    }

    #[test]
    fn unicast_fallback_emits_one_packet_per_member() {
        let l = layout();
        let mut hv = HypervisorSwitch::new(HostId(3));
        let header = sample_header(&l);
        hv.install_flow(
            Vni(9),
            GROUP,
            SenderFlow::new(OUTER, Vni(9), &header, &l, vec![HostId(10), HostId(20)]),
        );
        hv.flow_mut(Vni(9), GROUP).unwrap().unicast_fallback = true;
        let pkts = hv.send(Vni(9), GROUP, b"m", &l);
        assert_eq!(pkts.len(), 2);
        let dsts: Vec<Ipv4Addr> = pkts
            .iter()
            .map(|p| ElmoPacketRepr::parse(p, &l).unwrap().0.group_ip)
            .collect();
        assert_eq!(dsts, vec![host_ip(HostId(10)), host_ip(HostId(20))]);
        assert_eq!(hv.stats.sent_unicast, 2);
        assert_eq!(hv.stats.sent_multicast, 0);
    }

    #[test]
    fn receive_delivers_to_subscribed_vms_only() {
        let l = layout();
        let mut sender = HypervisorSwitch::new(HostId(3));
        let header = sample_header(&l);
        sender.install_flow(
            Vni(9),
            GROUP,
            SenderFlow::new(OUTER, Vni(9), &header, &l, vec![]),
        );
        let pkt = sender.send(Vni(9), GROUP, b"payload", &l).remove(0);

        let mut rx = HypervisorSwitch::new(HostId(5));
        // Not subscribed yet: discard.
        assert!(rx.receive(&pkt, &l).is_empty());
        assert_eq!(rx.stats.discarded, 1);
        // Subscribe two VMs: both get the frame.
        rx.subscribe(OUTER, VmSlot(0));
        rx.subscribe(OUTER, VmSlot(2));
        let mut delivered = rx.receive(&pkt, &l);
        assert_eq!(delivered.len(), 2);
        assert_eq!(delivered.next(), Some((VmSlot(0), &b"payload"[..])));
        assert_eq!(delivered.next(), Some((VmSlot(2), &b"payload"[..])));
        assert_eq!(delivered.next(), None);
        assert!(delivered.is_empty());
        assert_eq!(rx.stats.delivered, 2);
        // Unsubscribing both restores the discard path.
        rx.unsubscribe(OUTER, VmSlot(0));
        rx.unsubscribe(OUTER, VmSlot(2));
        assert!(rx.receive(&pkt, &l).is_empty());
    }

    #[test]
    fn receive_unicast_for_this_host() {
        let l = layout();
        let mut sender = HypervisorSwitch::new(HostId(3));
        let pkts = sender.send_unicast_to(&[HostId(5)], Vni(9), b"uni", &l);
        let mut rx = HypervisorSwitch::new(HostId(5));
        let mut delivered = rx.receive(&pkts[0], &l);
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered.next(), Some((VmSlot(0), &b"uni"[..])));
        // A different host discards it.
        let mut other = HypervisorSwitch::new(HostId(6));
        assert!(other.receive(&pkts[0], &l).is_empty());
    }

    #[test]
    fn install_flow_reports_update_vs_add() {
        let l = layout();
        let mut hv = HypervisorSwitch::new(HostId(0));
        let header = sample_header(&l);
        let flow = SenderFlow::new(OUTER, Vni(1), &header, &l, vec![]);
        assert!(!hv.install_flow(Vni(1), GROUP, flow.clone()));
        assert!(hv.install_flow(Vni(1), GROUP, flow));
        assert_eq!(hv.flow_count(), 1);
        assert!(hv.remove_flow(Vni(1), GROUP));
        assert!(!hv.remove_flow(Vni(1), GROUP));
    }

    /// Build the inner Ethernet+IPv4+IGMP frame a tenant VM would emit.
    fn igmp_frame(repr: elmo_net::igmp::IgmpRepr) -> Vec<u8> {
        use elmo_net::ethernet::{EtherType, Frame, FrameRepr};
        use elmo_net::ipv4::{Ipv4Packet, Ipv4Repr, Protocol};
        let mut buf = vec![0u8; 14 + 20 + elmo_net::igmp::MESSAGE_LEN];
        let mut eth = Frame::new_unchecked(&mut buf[..]);
        FrameRepr {
            dst: MacAddr::from_ipv4_multicast(repr.group),
            src: MacAddr::for_host(9),
            ethertype: EtherType::Ipv4,
        }
        .emit(&mut eth);
        let mut ip = Ipv4Packet::new_unchecked(&mut buf[14..]);
        Ipv4Repr {
            src: Ipv4Addr::new(192, 168, 0, 9),
            dst: repr.group,
            protocol: Protocol::Igmp,
            ttl: 1,
            payload_len: elmo_net::igmp::MESSAGE_LEN,
        }
        .emit(&mut ip);
        let mut igmp = elmo_net::igmp::IgmpPacket::new_unchecked(&mut buf[34..]);
        repr.emit(&mut igmp);
        buf
    }

    #[test]
    fn igmp_join_and_leave_are_intercepted() {
        let mut hv = HypervisorSwitch::new(HostId(7));
        let group = Ipv4Addr::new(225, 4, 4, 4);
        let join = igmp_frame(elmo_net::igmp::IgmpRepr::join(group));
        let signal = hv
            .intercept_igmp(VmSlot(2), &join)
            .expect("join intercepted");
        assert_eq!(
            signal,
            MembershipSignal {
                host: HostId(7),
                vm: VmSlot(2),
                group,
                join: true
            }
        );
        let leave = igmp_frame(elmo_net::igmp::IgmpRepr::leave(group));
        let signal = hv
            .intercept_igmp(VmSlot(2), &leave)
            .expect("leave intercepted");
        assert!(!signal.join);
    }

    #[test]
    fn igmp_garbage_and_queries_are_discarded() {
        let mut hv = HypervisorSwitch::new(HostId(7));
        assert!(hv.intercept_igmp(VmSlot(0), b"not a frame").is_none());
        // A membership query from a VM is noise, not a membership change.
        let query = igmp_frame(elmo_net::igmp::IgmpRepr {
            kind: elmo_net::igmp::IgmpType::MembershipQuery,
            max_resp_time: 100,
            group: Ipv4Addr::UNSPECIFIED,
        });
        assert!(hv.intercept_igmp(VmSlot(0), &query).is_none());
        // A corrupted IGMP checksum is dropped.
        let mut bad = igmp_frame(elmo_net::igmp::IgmpRepr::join(Ipv4Addr::new(225, 1, 1, 1)));
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        assert!(hv.intercept_igmp(VmSlot(0), &bad).is_none());
        assert!(hv.stats.discarded >= 2);
    }

    #[test]
    fn igmp_join_to_unicast_address_is_rejected() {
        let mut hv = HypervisorSwitch::new(HostId(7));
        // A syntactically valid join for a non-multicast address.
        let frame = igmp_frame(elmo_net::igmp::IgmpRepr::join(Ipv4Addr::new(10, 0, 0, 1)));
        assert!(hv.intercept_igmp(VmSlot(0), &frame).is_none());
    }

    #[test]
    fn subscribe_is_idempotent() {
        let mut hv = HypervisorSwitch::new(HostId(0));
        hv.subscribe(OUTER, VmSlot(1));
        hv.subscribe(OUTER, VmSlot(1));
        let l = layout();
        let mut sender = HypervisorSwitch::new(HostId(3));
        let header = sample_header(&l);
        sender.install_flow(
            Vni(9),
            GROUP,
            SenderFlow::new(OUTER, Vni(9), &header, &l, vec![]),
        );
        let pkt = sender.send(Vni(9), GROUP, b"x", &l).remove(0);
        assert_eq!(hv.receive(&pkt, &l).len(), 1);
    }
}
