//! The full Elmo packet: outer Ethernet/IPv4/UDP/VXLAN, the Elmo p-rule
//! header, and the tenant's inner frame (paper Figure 3b).
//!
//! [`ElmoPacketRepr::emit`] is the hypervisor's encap path: it lays the whole
//! stack down in one pass over a caller-provided buffer — the paper's §4.2
//! point that all p-rules must be written as *one* header (one DMA write) to
//! keep the hypervisor switch at line rate. [`ElmoPacketRepr::parse`] is the
//! network-switch parser path.
//!
//! [`FlightPacket`] is the replay fast path's in-fabric form: the outer
//! fields and the Elmo header live as structs (the decoded header behind
//! an `Arc` shared by every copy of the packet) and the tenant payload is
//! an immutable `Arc<[u8]>` that every copy borrows. Header sections pop
//! strictly front-to-back (D2d), so a copy's popped state is just a depth
//! counter ([`elmo_core::pop`]): forwarding a copy never clones the header
//! or touches payload bytes — mirroring the paper's §4.1 point that
//! forwarding only rewrites the compact header — and bytes are
//! materialized only where a wire-accurate buffer is needed (host
//! delivery, capture). [`FlightPacket::materialize`] and
//! [`ElmoPacketRepr::emit`] share one serializer, so both paths are
//! byte-identical by construction.

use std::net::Ipv4Addr;
use std::sync::Arc;

use elmo_core::{pop, ElmoHeader, HeaderLayout, PortBitmap, SectionRule, UpstreamRule};
use elmo_net::ethernet::{self, EtherType, Frame, FrameRepr, MacAddr};
use elmo_net::ipv4::{self, Ipv4Packet, Ipv4Repr, Protocol};
use elmo_net::udp::{self, UdpPacket, UdpRepr, VXLAN_PORT};
use elmo_net::vxlan::{self, NextHeader, Vni, VxlanPacket, VxlanRepr};

/// Everything above the tenant's inner frame.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ElmoPacketRepr {
    /// Outer source MAC (the sending hypervisor).
    pub src_mac: MacAddr,
    /// Outer destination MAC (the group's mapped multicast MAC).
    pub dst_mac: MacAddr,
    /// Outer source IP (the sending host's underlay address).
    pub src_ip: Ipv4Addr,
    /// Outer destination IP: the provider-assigned multicast group address —
    /// what s-rules match on.
    pub group_ip: Ipv4Addr,
    /// Flow entropy for ECMP, carried in the outer UDP source port (standard
    /// VXLAN practice).
    pub flow_entropy: u16,
    /// Tenant virtual network.
    pub vni: Vni,
    /// The Elmo header; `None` once a leaf has stripped it for host delivery.
    pub elmo: Option<ElmoHeader>,
}

/// Errors from parsing a full Elmo packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PacketError {
    /// One of the outer protocol layers failed to parse.
    Outer(elmo_net::Error),
    /// The outer stack is valid but is not a VXLAN-over-UDP packet.
    NotVxlan,
    /// The Elmo header failed to parse.
    Elmo(elmo_core::HeaderError),
}

impl std::fmt::Display for PacketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PacketError::Outer(e) => write!(f, "outer header: {e}"),
            PacketError::NotVxlan => write!(f, "not a VXLAN packet"),
            PacketError::Elmo(e) => write!(f, "elmo header: {e}"),
        }
    }
}

impl std::error::Error for PacketError {}

impl From<elmo_net::Error> for PacketError {
    fn from(e: elmo_net::Error) -> Self {
        PacketError::Outer(e)
    }
}

impl ElmoPacketRepr {
    /// Size of the outer stack, excluding the (variable) Elmo header.
    pub const OUTER_LEN: usize =
        ethernet::HEADER_LEN + ipv4::HEADER_LEN + udp::HEADER_LEN + vxlan::HEADER_LEN;

    /// Total bytes [`emit`](Self::emit) will produce for a given inner frame.
    pub fn wire_len(&self, layout: &HeaderLayout, inner_len: usize) -> usize {
        let elmo_len = self.elmo.as_ref().map_or(0, |h| h.byte_len(layout));
        Self::OUTER_LEN + elmo_len + inner_len
    }

    /// Bytes the parser must hold in its header vector: the outer stack plus
    /// the Elmo header (the RMT limit applies to this, not the payload).
    pub fn header_vector_len(&self, layout: &HeaderLayout) -> usize {
        Self::OUTER_LEN + self.elmo.as_ref().map_or(0, |h| h.byte_len(layout))
    }

    /// Serialize the whole packet (encap path). Appends to `out`, which is
    /// cleared first; the buffer's capacity is reused across packets.
    pub fn emit(&self, layout: &HeaderLayout, inner_frame: &[u8], out: &mut Vec<u8>) {
        out.clear();
        emit_stack(
            self.src_mac,
            self.dst_mac,
            self.src_ip,
            self.group_ip,
            self.flow_entropy,
            self.vni,
            self.elmo.as_ref(),
            pop::NONE,
            layout,
            inner_frame,
            out,
        );
    }

    /// Parse a packet; returns the representation and the offset of the
    /// inner frame within `bytes`.
    pub fn parse(
        bytes: &[u8],
        layout: &HeaderLayout,
    ) -> Result<(ElmoPacketRepr, usize), PacketError> {
        let outer = Outer::parse(bytes)?;
        let (elmo, elmo_len) = match outer.next_header {
            NextHeader::Elmo => {
                let (h, used) =
                    ElmoHeader::decode(outer.after_vxlan, layout).map_err(PacketError::Elmo)?;
                (Some(h), used)
            }
            NextHeader::Ethernet => (None, 0),
        };
        Ok((
            ElmoPacketRepr {
                src_mac: outer.src_mac,
                dst_mac: outer.dst_mac,
                src_ip: outer.src_ip,
                group_ip: outer.group_ip,
                flow_entropy: outer.flow_entropy,
                vni: outer.vni,
                elmo,
            },
            Self::OUTER_LEN + elmo_len,
        ))
    }

    /// The receiving edge's parse: every check [`parse`](Self::parse)
    /// performs — it accepts and refuses exactly the same bytes with the
    /// same error — but an Elmo header still present is only walked, not
    /// built, and all that comes back is the outer destination address and
    /// the offset of the inner frame. No allocation.
    pub fn parse_edge(
        bytes: &[u8],
        layout: &HeaderLayout,
    ) -> Result<(Ipv4Addr, usize), PacketError> {
        let outer = Outer::parse(bytes)?;
        let elmo_len = match outer.next_header {
            NextHeader::Elmo => {
                ElmoHeader::validate(outer.after_vxlan, layout).map_err(PacketError::Elmo)?
            }
            NextHeader::Ethernet => 0,
        };
        Ok((outer.group_ip, Self::OUTER_LEN + elmo_len))
    }
}

/// The checked outer Ethernet/IPv4/UDP/VXLAN stack, shared by the full and
/// the edge parse so the two cannot disagree on what a valid packet is.
struct Outer<'a> {
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    group_ip: Ipv4Addr,
    flow_entropy: u16,
    vni: Vni,
    next_header: NextHeader,
    /// Everything after the VXLAN header: the Elmo header if
    /// `next_header` says so, then the inner frame.
    after_vxlan: &'a [u8],
}

impl<'a> Outer<'a> {
    #[inline]
    fn parse(bytes: &'a [u8]) -> Result<Outer<'a>, PacketError> {
        let eth = Frame::new_checked(bytes)?;
        let eth_repr = FrameRepr::parse(&eth)?;
        if eth_repr.ethertype != EtherType::Ipv4 {
            return Err(PacketError::NotVxlan);
        }
        let ip = Ipv4Packet::new_checked(&bytes[ethernet::HEADER_LEN..])?;
        let ip_repr = Ipv4Repr::parse(&ip)?;
        if ip_repr.protocol != Protocol::Udp {
            return Err(PacketError::NotVxlan);
        }
        let ip_payload = ip.header_len()..ip.total_len();
        let udp = UdpPacket::new_checked(&ip.into_inner()[ip_payload])?;
        let udp_repr = UdpRepr::parse(&udp)?;
        if udp_repr.dst_port != VXLAN_PORT {
            return Err(PacketError::NotVxlan);
        }
        let udp_payload = udp::HEADER_LEN..udp.len_field();
        let vx = VxlanPacket::new_checked(&udp.into_inner()[udp_payload])?;
        let vx_repr = VxlanRepr::parse(&vx)?;
        Ok(Outer {
            src_mac: eth_repr.src,
            dst_mac: eth_repr.dst,
            src_ip: ip_repr.src,
            group_ip: ip_repr.dst,
            flow_entropy: udp_repr.src_port,
            vni: vx_repr.vni,
            next_header: vx_repr.next_header,
            after_vxlan: &vx.into_inner()[vxlan::HEADER_LEN..],
        })
    }
}

/// The one serializer both [`ElmoPacketRepr::emit`] and
/// [`FlightPacket::materialize`] go through: outer Ethernet/IPv4/UDP/VXLAN
/// stack, Elmo header (encoded at `elmo_popped` depth), inner frame, in a
/// single pass over `out` (cleared first, capacity reused across packets).
#[allow(clippy::too_many_arguments)]
fn emit_stack(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    group_ip: Ipv4Addr,
    flow_entropy: u16,
    vni: Vni,
    elmo: Option<&ElmoHeader>,
    elmo_popped: u8,
    layout: &HeaderLayout,
    inner_frame: &[u8],
    out: &mut Vec<u8>,
) {
    // Appends after `out`'s current end, so callers can serialize into a
    // shared arena (`DeliveryBatch`) as well as a cleared scratch buffer.
    // Only the header region is zero-extended; the payload (the bulk of
    // the packet) is appended in one pass, so no byte is written twice.
    let base = out.len();
    let elmo_bytes = elmo.map(|h| h.encode_popped(layout, elmo_popped));
    let elmo_len = elmo_bytes.as_ref().map_or(0, Vec::len);
    let headers = ElmoPacketRepr::OUTER_LEN + elmo_len;
    out.resize(base + headers, 0);
    let buf = &mut out[base..];

    // Ethernet
    let mut eth = Frame::new_unchecked(&mut buf[..]);
    FrameRepr {
        dst: dst_mac,
        src: src_mac,
        ethertype: EtherType::Ipv4,
    }
    .emit(&mut eth);
    // IPv4
    let ip_payload = udp::HEADER_LEN + vxlan::HEADER_LEN + elmo_len + inner_frame.len();
    let mut ip = Ipv4Packet::new_unchecked(&mut buf[ethernet::HEADER_LEN..]);
    Ipv4Repr {
        src: src_ip,
        dst: group_ip,
        protocol: Protocol::Udp,
        ttl: 64,
        payload_len: ip_payload,
    }
    .emit(&mut ip);
    // UDP (checksum disabled, as common for VXLAN underlays)
    let udp_off = ethernet::HEADER_LEN + ipv4::HEADER_LEN;
    let mut udp = UdpPacket::new_unchecked(&mut buf[udp_off..]);
    UdpRepr {
        src_port: flow_entropy,
        dst_port: VXLAN_PORT,
        payload_len: vxlan::HEADER_LEN + elmo_len + inner_frame.len(),
    }
    .emit(&mut udp);
    // VXLAN
    let vx_off = udp_off + udp::HEADER_LEN;
    let mut vx = VxlanPacket::new_unchecked(&mut buf[vx_off..]);
    VxlanRepr {
        vni,
        next_header: if elmo_len > 0 {
            NextHeader::Elmo
        } else {
            NextHeader::Ethernet
        },
    }
    .emit(&mut vx);
    // Elmo header, then the inner frame appended past the header region
    let off = vx_off + vxlan::HEADER_LEN;
    if let Some(bytes) = elmo_bytes {
        buf[off..off + bytes.len()].copy_from_slice(&bytes);
    }
    out.extend_from_slice(inner_frame);
}

/// A packet in flight through the fabric replay fast path: parsed exactly
/// once, then passed hop to hop as structs.
///
/// Cloning is free of allocation — the outer fields are `Copy`, the Elmo
/// header is an `Arc` of the *sender's* decoded header shared by every copy
/// fabric-wide, and the tenant payload is an immutable `Arc<[u8]>` likewise
/// shared by all copies. Because sections pop strictly front-to-back (D2d),
/// a hop "pops" a section by bumping [`popped`](Self::popped) on its copy —
/// the header struct itself is never cloned or mutated, and no payload byte
/// is copied between injection and the final per-delivery materialization.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FlightPacket {
    /// Outer source MAC (the sending hypervisor).
    pub src_mac: MacAddr,
    /// Outer destination MAC.
    pub dst_mac: MacAddr,
    /// Outer source IP (the sending host's underlay address).
    pub src_ip: Ipv4Addr,
    /// Outer destination IP (multicast group, or host address for unicast).
    pub group_ip: Ipv4Addr,
    /// Flow entropy for ECMP (outer UDP source port).
    pub flow_entropy: u16,
    /// Tenant virtual network.
    pub vni: Vni,
    /// The Elmo header as the sender emitted it; `None` once stripped for
    /// host delivery. Shared by all copies of the packet.
    pub elmo: Option<Arc<ElmoHeader>>,
    /// How many leading header sections this copy has popped (an
    /// [`elmo_core::pop`] depth). Meaningless (keep `0`) when `elmo` is
    /// `None`. The rule accessors and [`materialize`](Self::materialize)
    /// treat sections above this depth as absent.
    pub popped: u8,
    /// The tenant's inner frame, shared immutably by every copy.
    pub payload: Arc<[u8]>,
}

impl FlightPacket {
    /// Parse a wire packet into flight form (the one parse of the fast
    /// path). The payload bytes are copied once into the shared buffer.
    pub fn parse(bytes: &[u8], layout: &HeaderLayout) -> Result<FlightPacket, PacketError> {
        let (repr, inner_off) = ElmoPacketRepr::parse(bytes, layout)?;
        Ok(FlightPacket {
            src_mac: repr.src_mac,
            dst_mac: repr.dst_mac,
            src_ip: repr.src_ip,
            group_ip: repr.group_ip,
            flow_entropy: repr.flow_entropy,
            vni: repr.vni,
            elmo: repr.elmo.map(Arc::new),
            popped: pop::NONE,
            payload: Arc::from(&bytes[inner_off..]),
        })
    }

    /// Total bytes [`materialize`](Self::materialize) will produce —
    /// the on-the-wire size of this copy, without serializing anything.
    pub fn wire_len(&self, layout: &HeaderLayout) -> usize {
        let elmo_len = self
            .elmo
            .as_ref()
            .map_or(0, |h| h.byte_len_popped(layout, self.popped));
        ElmoPacketRepr::OUTER_LEN + elmo_len + self.payload.len()
    }

    /// Bytes the switch parser must hold in its header vector (outer stack
    /// plus Elmo header; the RMT limit applies to this, not the payload).
    pub fn header_vector_len(&self, layout: &HeaderLayout) -> usize {
        let elmo_len = self
            .elmo
            .as_ref()
            .map_or(0, |h| h.byte_len_popped(layout, self.popped));
        ElmoPacketRepr::OUTER_LEN + elmo_len
    }

    /// Serialize this copy to wire bytes (cleared-and-reused `out`). Goes
    /// through the same serializer as [`ElmoPacketRepr::emit`], so the
    /// bytes are identical to what the encode-per-hop path produces.
    pub fn materialize(&self, layout: &HeaderLayout, out: &mut Vec<u8>) {
        out.clear();
        emit_stack(
            self.src_mac,
            self.dst_mac,
            self.src_ip,
            self.group_ip,
            self.flow_entropy,
            self.vni,
            self.elmo.as_deref(),
            self.popped,
            layout,
            &self.payload,
            out,
        );
    }

    /// Serialize the header-stripped host-delivery form of this copy
    /// (outer stack + inner frame, no Elmo header) without constructing
    /// the stripped twin packet. Byte-identical to materializing a clone
    /// with `elmo: None`.
    pub fn to_host_bytes(&self, layout: &HeaderLayout) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.host_wire_len());
        self.append_host_to(layout, &mut out);
        out
    }

    /// Append this copy's wire bytes to `out` (an arena, not cleared) and
    /// return how many bytes were written. Same bytes as
    /// [`to_bytes`](Self::to_bytes), minus the per-copy allocation.
    pub fn append_to(&self, layout: &HeaderLayout, out: &mut Vec<u8>) -> usize {
        let base = out.len();
        emit_stack(
            self.src_mac,
            self.dst_mac,
            self.src_ip,
            self.group_ip,
            self.flow_entropy,
            self.vni,
            self.elmo.as_deref(),
            self.popped,
            layout,
            &self.payload,
            out,
        );
        out.len() - base
    }

    /// [`append_to`](Self::append_to) for the header-stripped host form;
    /// same bytes as [`to_host_bytes`](Self::to_host_bytes).
    pub fn append_host_to(&self, layout: &HeaderLayout, out: &mut Vec<u8>) -> usize {
        let base = out.len();
        emit_stack(
            self.src_mac,
            self.dst_mac,
            self.src_ip,
            self.group_ip,
            self.flow_entropy,
            self.vni,
            None,
            pop::NONE,
            layout,
            &self.payload,
            out,
        );
        out.len() - base
    }

    /// Wire bytes of the copy of this packet in hop state `state`: a pop
    /// depth, or [`HOST_STRIPPED`](crate::netswitch::HOST_STRIPPED).
    pub(crate) fn copy_bytes(&self, state: u8, layout: &HeaderLayout) -> Vec<u8> {
        if state == crate::netswitch::HOST_STRIPPED {
            return self.to_host_bytes(layout);
        }
        let mut copy = self.clone();
        copy.popped = state;
        copy.to_bytes(layout)
    }

    /// On-the-wire size of [`to_host_bytes`](Self::to_host_bytes).
    pub fn host_wire_len(&self) -> usize {
        ElmoPacketRepr::OUTER_LEN + self.payload.len()
    }

    /// The upstream leaf rule this copy still carries, if any.
    pub fn u_leaf(&self) -> Option<&UpstreamRule> {
        self.elmo
            .as_deref()
            .filter(|_| self.popped < pop::U_LEAF)
            .and_then(|h| h.u_leaf.as_ref())
    }

    /// The upstream spine rule this copy still carries, if any.
    pub fn u_spine(&self) -> Option<&UpstreamRule> {
        self.elmo
            .as_deref()
            .filter(|_| self.popped < pop::U_SPINE)
            .and_then(|h| h.u_spine.as_ref())
    }

    /// The core pod bitmap this copy still carries, if any.
    pub fn core_pods(&self) -> Option<&PortBitmap> {
        self.elmo
            .as_deref()
            .filter(|_| self.popped < pop::CORE)
            .and_then(|h| h.core.as_ref())
    }

    /// The downstream spine p-rule matching `switch`, if this copy still
    /// carries the d-spine section and a rule names that switch.
    pub fn find_d_spine(&self, switch: u32) -> Option<SectionRule<'_>> {
        self.elmo
            .as_deref()
            .filter(|_| self.popped < pop::D_SPINE)
            .and_then(|h| h.d_spine.find(switch))
    }

    /// The default d-spine p-rule, if this copy still carries it.
    pub fn d_spine_default(&self) -> Option<&PortBitmap> {
        self.elmo
            .as_deref()
            .filter(|_| self.popped < pop::D_SPINE)
            .and_then(|h| h.d_spine.default())
    }

    /// The downstream leaf p-rule matching `switch`, if a rule names that
    /// switch (the d-leaf section is never popped in flight — the leaf
    /// strips the whole header on delivery).
    pub fn find_d_leaf(&self, switch: u32) -> Option<SectionRule<'_>> {
        self.elmo.as_deref().and_then(|h| h.d_leaf.find(switch))
    }

    /// The default d-leaf p-rule.
    pub fn d_leaf_default(&self) -> Option<&PortBitmap> {
        self.elmo.as_deref().and_then(|h| h.d_leaf.default())
    }

    /// Serialize into a fresh exactly-sized buffer.
    pub fn to_bytes(&self, layout: &HeaderLayout) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len(layout));
        self.materialize(layout, &mut out);
        out
    }

    /// This copy's ECMP hash — identical to [`ecmp_hash`] on the parsed
    /// representation of the same packet.
    pub fn ecmp_hash(&self, salt: u64) -> u64 {
        ecmp_hash_fields(self.src_ip, self.group_ip, self.flow_entropy, salt)
    }
}

/// A structure-of-arrays batch of parsed flight packets: the shared packet
/// slots (`Arc` header + payload refs) plus, per packet, a precomputed wire
/// and header-vector length for *every* reachable hop state. A copy's state
/// is one byte — its [`elmo_core::pop`] depth or
/// [`HOST_STRIPPED`](crate::netswitch::HOST_STRIPPED) — so a 6-entry length
/// row per packet replaces the per-copy header walk (`byte_len_popped`)
/// that dominates the scalar flight path's link accounting: the batched
/// replay engine's inner loop reads lengths from this flat table and never
/// touches header sections at all.
#[derive(Clone, Debug, Default)]
pub struct FlightBatch {
    pkts: Vec<FlightPacket>,
    /// `wire[i][d]` = wire bytes of packet `i` at pop depth `d` (0..=4);
    /// `wire[i][5]` = the header-stripped host-delivery length.
    wire: Vec<[u32; 6]>,
}

impl FlightBatch {
    /// An empty batch.
    pub fn new() -> Self {
        FlightBatch::default()
    }

    /// Number of packets in the batch.
    pub fn len(&self) -> usize {
        self.pkts.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.pkts.is_empty()
    }

    /// Drop all packets, keeping the row storage for reuse.
    pub fn clear(&mut self) {
        self.pkts.clear();
        self.wire.clear();
    }

    /// Append an already-parsed packet, computing its length row once
    /// (constant time: each downstream section knows its own length).
    pub fn push(&mut self, pkt: FlightPacket, layout: &HeaderLayout) {
        let host = (ElmoPacketRepr::OUTER_LEN + pkt.payload.len()) as u32;
        let mut row = [host; 6];
        if let Some(h) = pkt.elmo.as_ref() {
            for (slot, len) in row.iter_mut().zip(h.byte_len_rows(layout)) {
                *slot = host + len as u32;
            }
        }
        self.wire.push(row);
        self.pkts.push(pkt);
    }

    /// Parse wire bytes and append — the batch form of
    /// [`FlightPacket::parse`], sharing its grammar exactly: an error
    /// leaves the batch unchanged.
    pub fn push_wire(&mut self, bytes: &[u8], layout: &HeaderLayout) -> Result<(), PacketError> {
        let pkt = FlightPacket::parse(bytes, layout)?;
        self.push(pkt, layout);
        Ok(())
    }

    /// The shared packet slot for index `i`.
    pub fn pkt(&self, i: usize) -> &FlightPacket {
        &self.pkts[i]
    }

    /// All packet slots, in push order.
    pub fn pkts(&self) -> &[FlightPacket] {
        &self.pkts
    }

    /// Wire bytes of a copy of packet `i` in hop state `state` (a pop
    /// depth or `HOST_STRIPPED`). Identical to cloning the packet at that
    /// state and asking [`FlightPacket::wire_len`], without the header walk.
    #[inline]
    pub fn wire_len(&self, i: usize, state: u8) -> usize {
        let row = &self.wire[i];
        if state == crate::netswitch::HOST_STRIPPED {
            row[5] as usize
        } else {
            debug_assert!(state <= pop::D_SPINE, "unknown hop state {state}");
            row[state as usize] as usize
        }
    }

    /// Header-vector bytes of packet `i` at pop depth `state` — what the
    /// switch parser must buffer. Identical to
    /// [`FlightPacket::header_vector_len`] at that depth.
    #[inline]
    pub fn header_vector_len(&self, i: usize, state: u8) -> usize {
        self.wire_len(i, state) - self.pkts[i].payload.len()
    }

    /// The batch's parallel arrays — packet slots (whose `popped` the
    /// engine uses as scratch) and the immutable wire-length rows.
    pub(crate) fn parts_mut(&mut self) -> (&mut [FlightPacket], &[[u32; 6]]) {
        (&mut self.pkts, &self.wire)
    }
}

/// Memoized serializer for the header-stripped host-delivery form: when
/// consecutive deliveries share every outer field except the per-packet
/// flow entropy — the common case in a replay, where one sender flow fans
/// a stream of packets to the same group — the 50-byte outer stack is
/// replayed from the previous emit and only the UDP source port (the
/// entropy's sole appearance on the wire: the UDP checksum is emitted as
/// zero per VXLAN convention, and the IPv4 checksum covers no ports) is
/// patched. Byte-identical to [`FlightPacket::append_host_to`] by
/// construction; the batch materializer uses it so per-delivery cost is
/// the payload copy, not the header emit chain.
#[derive(Clone, Debug, Default)]
pub struct HostEmitCache {
    /// Cached `(outer fields, emitted outer stack)` pairs, scanned
    /// linearly — one entry per concurrently replayed flow, up to
    /// [`HOST_EMIT_CAP`] so interleaved groups all stay resident.
    entries: Vec<(HostEmitKey, [u8; ElmoPacketRepr::OUTER_LEN])>,
    /// Round-robin eviction cursor.
    at: usize,
}

/// Entries kept in a [`HostEmitCache`]: enough for the distinct flows
/// interleaved in a typical replay window, small enough that a miss costs
/// a scan of eight keys.
const HOST_EMIT_CAP: usize = 8;

/// Every outer field that shapes the host-delivery prefix *except* the
/// flow entropy, which only surfaces as the UDP source port.
type HostEmitKey = (MacAddr, MacAddr, Ipv4Addr, Ipv4Addr, Vni, usize);

impl HostEmitCache {
    /// A cold cache; the first emit per flow takes the full path.
    pub fn new() -> Self {
        HostEmitCache::default()
    }

    /// Append `pkt`'s host-delivery wire bytes to `out` — same bytes as
    /// [`FlightPacket::append_host_to`] — reusing a cached outer stack
    /// when only the flow entropy differs from an earlier emit.
    pub fn append_host_to(
        &mut self,
        pkt: &FlightPacket,
        layout: &HeaderLayout,
        out: &mut Vec<u8>,
    ) -> usize {
        let key: HostEmitKey = (
            pkt.src_mac,
            pkt.dst_mac,
            pkt.src_ip,
            pkt.group_ip,
            pkt.vni,
            pkt.payload.len(),
        );
        let base = out.len();
        if let Some((_, prefix)) = self.entries.iter().find(|(k, _)| *k == key) {
            out.extend_from_slice(prefix);
            let sport = ethernet::HEADER_LEN + ipv4::HEADER_LEN;
            out[base + sport..base + sport + 2].copy_from_slice(&pkt.flow_entropy.to_be_bytes());
            out.extend_from_slice(&pkt.payload);
        } else {
            pkt.append_host_to(layout, out);
            let mut prefix = [0; ElmoPacketRepr::OUTER_LEN];
            prefix.copy_from_slice(&out[base..base + ElmoPacketRepr::OUTER_LEN]);
            if self.entries.len() < HOST_EMIT_CAP {
                self.entries.push((key, prefix));
            } else {
                self.entries[self.at] = (key, prefix);
                self.at = (self.at + 1) % HOST_EMIT_CAP;
            }
        }
        out.len() - base
    }
}

/// A deterministic FNV-1a hash of the packet's flow identity, used for ECMP
/// path selection at leaves (choosing a spine) and spines (choosing a core).
pub fn ecmp_hash(repr: &ElmoPacketRepr, salt: u64) -> u64 {
    ecmp_hash_fields(repr.src_ip, repr.group_ip, repr.flow_entropy, salt)
}

/// [`ecmp_hash`] on the raw flow-identity fields (shared with
/// [`FlightPacket`], which carries the same fields without the repr).
pub fn ecmp_hash_fields(src_ip: Ipv4Addr, group_ip: Ipv4Addr, flow_entropy: u16, salt: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ salt;
    let mut feed = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    for b in src_ip.octets() {
        feed(b);
    }
    for b in group_ip.octets() {
        feed(b);
    }
    for b in flow_entropy.to_be_bytes() {
        feed(b);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use elmo_core::{PortBitmap, UpstreamRule};
    use elmo_topology::Clos;

    fn layout() -> HeaderLayout {
        HeaderLayout::for_clos(&Clos::paper_example())
    }

    fn sample_repr(with_elmo: bool) -> ElmoPacketRepr {
        let l = layout();
        let elmo = with_elmo.then(|| {
            let mut h = ElmoHeader::empty();
            h.u_leaf = Some(UpstreamRule {
                down: PortBitmap::from_ports(l.leaf_down_ports, [1, 3]),
                multipath: true,
                up: PortBitmap::new(l.leaf_up_ports),
            });
            h.core = Some(PortBitmap::from_ports(l.core_ports, [2]));
            h
        });
        ElmoPacketRepr {
            src_mac: MacAddr::for_host(7),
            dst_mac: MacAddr::from_ipv4_multicast(Ipv4Addr::new(239, 0, 0, 5)),
            src_ip: Ipv4Addr::new(10, 0, 0, 7),
            group_ip: Ipv4Addr::new(239, 0, 0, 5),
            flow_entropy: 0xbeef,
            vni: Vni(42),
            elmo,
        }
    }

    #[test]
    fn emit_parse_roundtrip_with_elmo() {
        let l = layout();
        let repr = sample_repr(true);
        let inner = b"inner tenant frame bytes";
        let mut buf = Vec::new();
        repr.emit(&l, inner, &mut buf);
        assert_eq!(buf.len(), repr.wire_len(&l, inner.len()));
        let (parsed, off) = ElmoPacketRepr::parse(&buf, &l).unwrap();
        assert_eq!(parsed, repr);
        assert_eq!(&buf[off..], inner);
    }

    #[test]
    fn emit_parse_roundtrip_without_elmo() {
        let l = layout();
        let repr = sample_repr(false);
        let inner = b"x";
        let mut buf = Vec::new();
        repr.emit(&l, inner, &mut buf);
        let (parsed, off) = ElmoPacketRepr::parse(&buf, &l).unwrap();
        assert_eq!(parsed, repr);
        assert_eq!(off, ElmoPacketRepr::OUTER_LEN);
        assert_eq!(&buf[off..], inner);
    }

    #[test]
    fn outer_len_constant() {
        assert_eq!(ElmoPacketRepr::OUTER_LEN, 14 + 20 + 8 + 8);
    }

    #[test]
    fn host_emit_cache_matches_append_host_to() {
        let l = layout();
        let repr = sample_repr(true);
        let mut buf = Vec::new();
        repr.emit(&l, b"payload bytes", &mut buf);
        let base = FlightPacket::parse(&buf, &l).unwrap();
        // A stream of variants: entropy-only changes (the patch path),
        // then changes to each cached field (must fall back to a full
        // emit), then a payload-length change.
        let mut variants = vec![base.clone(), base.clone(), base.clone()];
        variants[1].flow_entropy = 0x0102;
        variants[2].flow_entropy = 0xffff;
        let mut other_ip = base.clone();
        other_ip.src_ip = Ipv4Addr::new(10, 9, 9, 9);
        variants.push(other_ip);
        let mut other_vni = base.clone();
        other_vni.vni = Vni(99);
        variants.push(other_vni);
        let mut longer = base.clone();
        longer.payload = Arc::from(&b"a longer tenant payload"[..]);
        longer.flow_entropy = 0x0102;
        variants.push(longer);
        variants.push(base.clone());
        let mut cache = HostEmitCache::new();
        for (i, pkt) in variants.iter().enumerate() {
            let mut cached = Vec::new();
            let n = cache.append_host_to(pkt, &l, &mut cached);
            assert_eq!(n, cached.len());
            assert_eq!(cached, pkt.to_host_bytes(&l), "variant {i}");
        }
    }

    #[test]
    fn non_vxlan_is_rejected() {
        let l = layout();
        let repr = sample_repr(false);
        let mut buf = Vec::new();
        repr.emit(&l, b"x", &mut buf);
        // Change the UDP destination port.
        buf[14 + 20 + 2] = 0x12;
        buf[14 + 20 + 3] = 0x34;
        assert_eq!(
            ElmoPacketRepr::parse(&buf, &l).unwrap_err(),
            PacketError::NotVxlan
        );
    }

    #[test]
    fn corrupted_ip_checksum_is_rejected() {
        let l = layout();
        let repr = sample_repr(false);
        let mut buf = Vec::new();
        repr.emit(&l, b"x", &mut buf);
        buf[14 + 8] ^= 0x01; // TTL byte
        assert!(matches!(
            ElmoPacketRepr::parse(&buf, &l).unwrap_err(),
            PacketError::Outer(elmo_net::Error::Checksum)
        ));
    }

    #[test]
    fn truncated_elmo_header_is_rejected() {
        let l = layout();
        let repr = sample_repr(true);
        let mut buf = Vec::new();
        repr.emit(&l, b"", &mut buf);
        // Cut into the Elmo header: keep outer stack + 1 byte. The IP total
        // length must be patched so the outer layers still parse.
        let cut = ElmoPacketRepr::OUTER_LEN + 1;
        let mut short = buf[..cut].to_vec();
        let ip_payload = (cut - 14 - 20) as u16 + 20;
        short[14 + 2..14 + 4].copy_from_slice(&ip_payload.to_be_bytes());
        let mut ip = Ipv4Packet::new_unchecked(&mut short[14..]);
        ip.fill_checksum();
        short[14 + 20 + 4..14 + 20 + 6].copy_from_slice(&((cut - 14 - 20) as u16).to_be_bytes());
        assert!(matches!(
            ElmoPacketRepr::parse(&short, &l).unwrap_err(),
            PacketError::Elmo(_)
        ));
    }

    #[test]
    fn ecmp_hash_is_deterministic_and_flow_sensitive() {
        let a = sample_repr(true);
        let mut b = sample_repr(true);
        assert_eq!(ecmp_hash(&a, 1), ecmp_hash(&a, 1));
        assert_ne!(ecmp_hash(&a, 1), ecmp_hash(&a, 2), "salt changes the hash");
        b.flow_entropy = 0xdead;
        assert_ne!(
            ecmp_hash(&a, 1),
            ecmp_hash(&b, 1),
            "entropy changes the hash"
        );
    }

    #[test]
    fn flight_parse_materialize_is_byte_identical() {
        let l = layout();
        for with_elmo in [true, false] {
            let repr = sample_repr(with_elmo);
            let inner = b"tenant payload shared by all copies";
            let mut wire = Vec::new();
            repr.emit(&l, inner, &mut wire);
            let flight = FlightPacket::parse(&wire, &l).unwrap();
            assert_eq!(flight.wire_len(&l), wire.len());
            assert_eq!(flight.header_vector_len(&l), repr.header_vector_len(&l));
            assert_eq!(flight.to_bytes(&l), wire);
            assert_eq!(flight.ecmp_hash(9), ecmp_hash(&repr, 9));
            assert_eq!(&*flight.payload, inner);
        }
    }

    #[test]
    fn flight_header_pop_rematerializes_like_repr() {
        let l = layout();
        let repr = sample_repr(true);
        let inner = b"payload";
        let mut wire = Vec::new();
        repr.emit(&l, inner, &mut wire);
        let mut flight = FlightPacket::parse(&wire, &l).unwrap();
        // Pop a section: physically on the repr, as a depth bump in flight.
        // Bytes (and the predicted wire length) must still match.
        let mut popped_repr = repr.clone();
        popped_repr.elmo.as_mut().unwrap().u_leaf = None;
        flight.popped = pop::U_LEAF;
        let mut expect = Vec::new();
        popped_repr.emit(&l, inner, &mut expect);
        assert_eq!(flight.wire_len(&l), expect.len());
        assert_eq!(flight.to_bytes(&l), expect);
    }

    #[test]
    fn flight_rule_accessors_respect_pop_depth() {
        let l = layout();
        let repr = sample_repr(true);
        let mut wire = Vec::new();
        repr.emit(&l, b"p", &mut wire);
        let mut flight = FlightPacket::parse(&wire, &l).unwrap();
        assert!(flight.u_leaf().is_some());
        assert!(flight.core_pods().is_some());
        flight.popped = pop::U_LEAF;
        assert!(flight.u_leaf().is_none(), "popped section reads as absent");
        assert!(flight.core_pods().is_some(), "deeper sections unaffected");
        flight.popped = pop::D_SPINE;
        assert!(flight.core_pods().is_none());
        assert!(flight.d_spine_default().is_none());
    }

    #[test]
    fn emit_reuses_buffer() {
        let l = layout();
        let repr = sample_repr(true);
        let mut buf = Vec::new();
        repr.emit(&l, b"first payload", &mut buf);
        let cap = buf.capacity();
        repr.emit(&l, b"x", &mut buf);
        assert!(buf.capacity() >= cap.min(buf.len()));
        let (parsed, off) = ElmoPacketRepr::parse(&buf, &l).unwrap();
        assert_eq!(parsed, repr);
        assert_eq!(&buf[off..], b"x");
    }
}
