//! The wired fabric: every network switch instantiated and connected per the
//! Clos topology, moving real packet bytes and accounting per-tier link
//! traffic.
//!
//! There is one traversal: the run-grouped, single-threaded engine in
//! [`crate::shard`], entered through [`Fabric::replay`]. Injected packets
//! are parsed **once** into [`FlightPacket`]s; every hop after that moves
//! `(switch, ingress port, pop depth)` entries, and bytes are materialized
//! only at host delivery (and for an armed capture). The byte-level entry
//! points here — [`Fabric::inject`], [`Fabric::inject_batch`],
//! [`Fabric::inject_traced`] — are adapters: parse, call the engine, hand
//! back owned vectors. Byte counters per link tier feed the
//! traffic-overhead metric (paper Figures 4/5, right panels).

use elmo_core::HeaderLayout;
use elmo_topology::{Clos, CoreId, HostId, LeafId, PodId, SpineId, SwitchRef};

use crate::netswitch::{NetworkSwitch, SwitchConfig};
use crate::packet::FlightPacket;
use crate::shard::{DeliveryBatch, Queues};

/// Aggregate per-tier traffic counters (bytes and packets on the wire).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct FabricStats {
    pub host_to_leaf_bytes: u64,
    pub leaf_to_host_bytes: u64,
    pub leaf_to_spine_bytes: u64,
    pub spine_to_leaf_bytes: u64,
    pub spine_to_core_bytes: u64,
    pub core_to_spine_bytes: u64,
    pub packets_on_links: u64,
}

impl FabricStats {
    /// Total bytes crossing any link (the numerator of traffic overhead).
    pub fn total_link_bytes(&self) -> u64 {
        self.host_to_leaf_bytes
            + self.leaf_to_host_bytes
            + self.leaf_to_spine_bytes
            + self.spine_to_leaf_bytes
            + self.spine_to_core_bytes
            + self.core_to_spine_bytes
    }
}

/// Fabric-wide mirrors of the per-`Fabric` link counters. These measure
/// *actual* bytes moved by the packet model, so a snapshot can be
/// cross-checked against `sim::metrics`' analytic traffic accounting.
pub(crate) struct FabricMetrics {
    pub(crate) host_to_leaf_bytes: elmo_obs::Counter,
    pub(crate) leaf_to_host_bytes: elmo_obs::Counter,
    pub(crate) leaf_to_spine_bytes: elmo_obs::Counter,
    pub(crate) spine_to_leaf_bytes: elmo_obs::Counter,
    pub(crate) spine_to_core_bytes: elmo_obs::Counter,
    pub(crate) core_to_spine_bytes: elmo_obs::Counter,
    pub(crate) packets_on_links: elmo_obs::Counter,
    /// Packet copies serialized back to wire bytes (host deliveries and
    /// captured copies) — every other copy moved as structs only.
    pub(crate) replay_materialized: elmo_obs::Counter,
    /// Engine calls ([`Fabric::replay`]).
    pub(crate) shard_batches: elmo_obs::Counter,
    /// Copy-tree trace events handed out by `take_tree_trace`.
    pub(crate) trace_events: elmo_obs::Counter,
}

pub(crate) fn metrics() -> &'static FabricMetrics {
    static M: std::sync::OnceLock<FabricMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| FabricMetrics {
        host_to_leaf_bytes: elmo_obs::counter("fabric.host_to_leaf_bytes"),
        leaf_to_host_bytes: elmo_obs::counter("fabric.leaf_to_host_bytes"),
        leaf_to_spine_bytes: elmo_obs::counter("fabric.leaf_to_spine_bytes"),
        spine_to_leaf_bytes: elmo_obs::counter("fabric.spine_to_leaf_bytes"),
        spine_to_core_bytes: elmo_obs::counter("fabric.spine_to_core_bytes"),
        core_to_spine_bytes: elmo_obs::counter("fabric.core_to_spine_bytes"),
        packets_on_links: elmo_obs::counter("fabric.packets_on_links"),
        replay_materialized: elmo_obs::counter("fabric.replay.materialized"),
        shard_batches: elmo_obs::counter("fabric.replay.shard.batches"),
        trace_events: elmo_obs::counter("trace.events_recorded"),
    })
}

/// Dense switch numbering shared by the fabric's switch vector, the
/// engine's buckets and the copy-tree trace: leaves first, then spines,
/// then cores — a function of the topology alone.
pub fn dense_switch_id(topo: &Clos, sw: SwitchRef) -> u32 {
    match sw {
        SwitchRef::Leaf(l) => l.0,
        SwitchRef::Spine(s) => topo.num_leaves() as u32 + s.0,
        SwitchRef::Core(c) => (topo.num_leaves() + topo.num_spines()) as u32 + c.0,
    }
}

/// Inverse of [`dense_switch_id`].
pub fn dense_switch_ref(topo: &Clos, dense: u32) -> SwitchRef {
    let d = dense as usize;
    if d < topo.num_leaves() {
        SwitchRef::Leaf(LeafId(dense))
    } else if d < topo.num_leaves() + topo.num_spines() {
        SwitchRef::Spine(SpineId((d - topo.num_leaves()) as u32))
    } else {
        SwitchRef::Core(CoreId((d - topo.num_leaves() - topo.num_spines()) as u32))
    }
}

/// Human label for a copy-tree trace node id (a dense switch id, or
/// [`elmo_obs::HOST_NODE_BIT`] | host id): `"leaf:3"`, `"spine:7"`,
/// `"core:0"`, `"host:42"`.
pub fn trace_node_label(topo: &Clos, node: u32) -> String {
    if node & elmo_obs::HOST_NODE_BIT != 0 {
        return format!("host:{}", node & !elmo_obs::HOST_NODE_BIT);
    }
    match dense_switch_ref(topo, node) {
        SwitchRef::Leaf(l) => format!("leaf:{}", l.0),
        SwitchRef::Spine(s) => format!("spine:{}", s.0),
        SwitchRef::Core(c) => format!("core:{}", c.0),
    }
}

/// A fully instantiated Clos fabric of [`NetworkSwitch`]es.
#[derive(Clone, Debug)]
pub struct Fabric {
    pub(crate) topo: Clos,
    pub(crate) layout: HeaderLayout,
    /// Every switch, indexed by [`dense_switch_id`].
    pub(crate) switches: Vec<NetworkSwitch>,
    /// Where every output port of every switch leads. A function of the
    /// topology alone, so it is compiled once here rather than per replay
    /// call.
    pub(crate) hops: HopTable,
    /// The engine's work queues (empty between calls; only their capacity
    /// survives, so a replay call costs O(copies), not O(switches)).
    pub(crate) queues: Queues,
    /// Switches currently failed: packets reaching them are dropped.
    pub(crate) down: std::collections::BTreeSet<SwitchRef>,
    /// When [`inject_traced`](Self::inject_traced) is running, the per-hop
    /// records of its injection.
    pub(crate) hop_log: Option<Vec<HopRecord>>,
    /// When copy-tree tracing, the edge events of every traced injection.
    pub(crate) tree: Option<TreeTrace>,
    /// The flight recorder, written across replay calls (capacity 0 =
    /// off, the state until [`arm_flight_recorder`](Self::arm_flight_recorder)).
    pub(crate) recorder: elmo_obs::FlightRecorder,
    /// When capturing, `(capture limit, captured packets)`: every copy
    /// put on a wire (injected or forwarded) is recorded until the limit
    /// is reached. Powers `elmo-eval --trace-pcap`.
    pub(crate) capture: Option<(usize, Vec<Vec<u8>>)>,
    /// Link counters.
    pub stats: FabricStats,
}

/// An armed copy-tree trace session: the accumulated edge events plus
/// the packet counter that numbers injections across replay calls.
/// Packet indices (injection order) and dense switch ids are the *only*
/// inputs to trace identity (never wall clocks), which is what keeps
/// traced runs bit-reproducible.
#[derive(Clone, Debug, Default)]
pub(crate) struct TreeTrace {
    pub(crate) events: Vec<elmo_obs::TraceEvent>,
    pub(crate) next_pkt: u32,
}

/// One switch's handling of one packet copy, INT-style (paper §7's
/// monitoring direction: per-hop telemetry carried with the multicast
/// packet — here collected out of band by the fabric model).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HopRecord {
    /// The switch that processed the copy.
    pub switch: SwitchRef,
    /// The port it arrived on.
    pub ingress_port: usize,
    /// Bytes of the copy as received (headers shrink hop by hop).
    pub bytes_in: usize,
    /// The ports it was replicated to (empty = dropped).
    pub egress_ports: Vec<usize>,
}

impl Fabric {
    /// Instantiate every switch with the same resource limits.
    pub fn new(topo: Clos, config: SwitchConfig) -> Self {
        let switches: Vec<NetworkSwitch> = topo
            .leaves()
            .map(|l| NetworkSwitch::new_leaf(topo, l, config))
            .chain(
                topo.spines()
                    .map(|s| NetworkSwitch::new_spine(topo, s, config)),
            )
            .chain(
                topo.cores()
                    .map(|c| NetworkSwitch::new_core(topo, c, config)),
            )
            .collect();
        Fabric {
            topo,
            layout: HeaderLayout::for_clos(&topo),
            hops: HopTable::new(&topo),
            queues: Queues::new(switches.len()),
            switches,
            down: std::collections::BTreeSet::new(),
            hop_log: None,
            tree: None,
            recorder: elmo_obs::FlightRecorder::new(0),
            capture: None,
            stats: FabricStats::default(),
        }
    }

    /// Start capturing on-the-wire packet copies, keeping at most `limit`.
    /// A fresh capture buffer is installed each time, so capture sessions
    /// can be repeated: `start_capture` / inject / [`take_capture`]
    /// (Self::take_capture), then again.
    ///
    /// Each replay call appends its copies by packet; within a packet the
    /// injected copy first, then every forwarded copy by (emitting switch
    /// in dense order, output port) — and the limit cuts that sequence.
    pub fn start_capture(&mut self, limit: usize) {
        self.capture = Some((limit, Vec::new()));
    }

    /// Stop capturing and take what was recorded (empty if never started).
    /// Resets capture state entirely — a subsequent [`start_capture`]
    /// (Self::start_capture) begins a new, independent session.
    pub fn take_capture(&mut self) -> Vec<Vec<u8>> {
        self.capture
            .take()
            .map(|(_, pkts)| pkts)
            .unwrap_or_default()
    }

    /// Arm a copy-tree trace session: every subsequent injection records
    /// one [`elmo_obs::TraceEvent`] per replication edge until
    /// [`take_tree_trace`](Self::take_tree_trace). Packets are numbered in
    /// injection order across all replay calls of the session.
    pub fn start_tree_trace(&mut self) {
        self.tree = Some(TreeTrace::default());
    }

    /// Whether a copy-tree trace session is armed.
    pub fn tree_tracing(&self) -> bool {
        self.tree.is_some()
    }

    /// End the trace session and take its events in canonical order
    /// (sorted by packet, parent, child, state). Empty if tracing was
    /// never armed.
    pub fn take_tree_trace(&mut self) -> Vec<elmo_obs::TraceEvent> {
        let mut events = self.tree.take().map(|t| t.events).unwrap_or_default();
        elmo_obs::sort_events(&mut events);
        metrics().trace_events.add(events.len() as u64);
        events
    }

    /// Arm the flight recorder: a fresh ring of the last `capacity` trace
    /// events, written by every subsequent replay call, for postmortem
    /// dumps (0 disables).
    pub fn arm_flight_recorder(&mut self, capacity: usize) {
        self.recorder = elmo_obs::FlightRecorder::new(capacity);
    }

    /// The flight recorder: the most recent events of every replay call
    /// since it was armed.
    pub fn flight_recorder(&self) -> &elmo_obs::FlightRecorder {
        &self.recorder
    }

    /// Dump the flight recorder through the structured log, tagged with
    /// `reason`; returns the events dumped.
    pub fn dump_flight_recorder(&self, reason: &str) -> usize {
        self.recorder.dump(reason)
    }

    /// Take a spine out of service: packets reaching it are dropped, as on
    /// a real fabric between the failure and reconvergence.
    pub fn fail_spine(&mut self, s: SpineId) {
        self.down.insert(SwitchRef::Spine(s));
    }

    /// Take a core out of service.
    pub fn fail_core(&mut self, c: CoreId) {
        self.down.insert(SwitchRef::Core(c));
    }

    /// Restore a failed switch.
    pub fn restore(&mut self, sw: SwitchRef) {
        self.down.remove(&sw);
    }

    /// The topology the fabric was built from.
    pub fn topo(&self) -> &Clos {
        &self.topo
    }

    /// The header layout switches parse with.
    pub fn layout(&self) -> &HeaderLayout {
        &self.layout
    }

    fn switch(&self, sw: SwitchRef) -> &NetworkSwitch {
        &self.switches[dense_switch_id(&self.topo, sw) as usize]
    }

    fn switch_mut(&mut self, sw: SwitchRef) -> &mut NetworkSwitch {
        &mut self.switches[dense_switch_id(&self.topo, sw) as usize]
    }

    /// Mutable access to a leaf switch (e.g. for s-rule installation).
    pub fn leaf_mut(&mut self, l: LeafId) -> &mut NetworkSwitch {
        self.switch_mut(SwitchRef::Leaf(l))
    }

    /// Immutable access to a leaf switch.
    pub fn leaf(&self, l: LeafId) -> &NetworkSwitch {
        self.switch(SwitchRef::Leaf(l))
    }

    /// Mutable access to a spine switch.
    pub fn spine_mut(&mut self, s: SpineId) -> &mut NetworkSwitch {
        self.switch_mut(SwitchRef::Spine(s))
    }

    /// Immutable access to a spine switch.
    pub fn spine(&self, s: SpineId) -> &NetworkSwitch {
        self.switch(SwitchRef::Spine(s))
    }

    /// Immutable access to a core switch.
    pub fn core(&self, c: CoreId) -> &NetworkSwitch {
        self.switch(SwitchRef::Core(c))
    }

    /// Install an s-rule on every spine of a pod (a logical-spine s-rule must
    /// be present wherever multipath may land the packet). All or nothing:
    /// if any spine of the pod has no room for a new key, none is written.
    pub fn install_pod_srule(
        &mut self,
        pod: PodId,
        group: std::net::Ipv4Addr,
        ports: elmo_core::PortBitmap,
    ) -> Result<(), crate::netswitch::GroupTableFull> {
        let topo = self.topo;
        let full = |sw: &NetworkSwitch| sw.srule_capacity_left() == 0 && sw.srule(&group).is_none();
        if topo.spines_in_pod(pod).any(|s| full(self.spine(s))) {
            return Err(crate::netswitch::GroupTableFull);
        }
        for s in topo.spines_in_pod(pod) {
            self.spine_mut(s)
                .install_srule(group, ports.clone())
                .expect("every spine of the pod was checked to have room");
        }
        Ok(())
    }

    /// Inject one wire packet from a host; returns all host deliveries as
    /// `(host, packet bytes)` in canonical `(host, bytes)` order.
    pub fn inject(&mut self, from: HostId, bytes: Vec<u8>) -> Vec<(HostId, Vec<u8>)> {
        self.inject_batch([(from, bytes)])
    }

    /// Inject a batch of wire packets. Deliveries come back in the
    /// engine's canonical `(packet index, host, bytes)` order.
    ///
    /// The one parse of each packet happens here on its ingress leaf's
    /// behalf: bytes that do not parse are accounted on the host link and
    /// dropped on that leaf's counters, exactly as when the leaf parsed
    /// every packet itself (a failed leaf loses them before parsing).
    pub fn inject_batch<I>(&mut self, packets: I) -> Vec<(HostId, Vec<u8>)>
    where
        I: IntoIterator<Item = (HostId, Vec<u8>)>,
    {
        let mut flights = Vec::new();
        for (from, bytes) in packets {
            match FlightPacket::parse(&bytes, &self.layout) {
                Ok(pkt) => flights.push((from, pkt)),
                Err(_) => {
                    let leaf = self.topo.leaf_of_host(from);
                    self.stats.host_to_leaf_bytes += bytes.len() as u64;
                    self.stats.packets_on_links += 1;
                    let m = metrics();
                    m.host_to_leaf_bytes.add(bytes.len() as u64);
                    m.packets_on_links.inc();
                    if let Some((limit, captured)) = &mut self.capture {
                        if captured.len() < *limit {
                            captured.push(bytes);
                        }
                    }
                    if !self.down.contains(&SwitchRef::Leaf(leaf)) {
                        self.leaf_mut(leaf).note_parse_drop();
                    }
                }
            }
        }
        let mut out = DeliveryBatch::new();
        self.replay(&flights, &mut out);
        out.to_vec()
    }

    /// Inject one packet and record per-hop telemetry — which switch saw the
    /// packet, on which port, how large it was, and where it replicated it.
    /// This is the paper's §7 monitoring direction (INT-style per-hop
    /// records collected alongside the multicast packet) in model form:
    /// `traceroute` for a multicast tree. Records are ordered by (dense
    /// switch id, ingress port).
    pub fn inject_traced(
        &mut self,
        from: HostId,
        bytes: Vec<u8>,
    ) -> (Vec<(HostId, Vec<u8>)>, Vec<HopRecord>) {
        self.hop_log = Some(Vec::new());
        let deliveries = self.inject(from, bytes);
        (deliveries, self.hop_log.take().unwrap_or_default())
    }
}

/// Resolve a switch's output port to the device on the other end.
fn next_hop(topo: &Clos, sw: SwitchRef, port: usize) -> PlannedHop {
    let to_switch = |next: SwitchRef, port: usize, tier: LinkTier| PlannedHop::Switch {
        dense: dense_switch_id(topo, next),
        port: port as u16,
        tier,
    };
    match sw {
        SwitchRef::Leaf(l) => {
            if port < topo.leaf_down_ports() {
                PlannedHop::Host(topo.host_under_leaf(l, port))
            } else {
                let local_spine = port - topo.leaf_down_ports();
                let pod = topo.pod_of_leaf(l);
                let spine = topo.spine_in_pod(pod, local_spine);
                to_switch(
                    SwitchRef::Spine(spine),
                    topo.leaf_index_in_pod(l),
                    LinkTier::LeafSpine,
                )
            }
        }
        SwitchRef::Spine(s) => {
            if port < topo.spine_down_ports() {
                let pod = topo.pod_of_spine(s);
                let leaf = topo.leaf_in_pod(pod, port);
                to_switch(
                    SwitchRef::Leaf(leaf),
                    topo.leaf_up_port(topo.spine_index_in_pod(s)),
                    LinkTier::SpineLeaf,
                )
            } else {
                let local_core = port - topo.spine_down_ports();
                let core = topo
                    .cores_of_spine(s)
                    .nth(local_core)
                    .expect("core-facing port maps to an attached core");
                to_switch(
                    SwitchRef::Core(core),
                    topo.pod_of_spine(s).0 as usize,
                    LinkTier::SpineCore,
                )
            }
        }
        SwitchRef::Core(c) => {
            let pod = PodId(port as u32);
            let spine = topo.spine_under_core(c, pod);
            let local_core = c.0 as usize % topo.cores_per_spine();
            to_switch(
                SwitchRef::Spine(spine),
                topo.spine_up_port(local_core),
                LinkTier::CoreSpine,
            )
        }
    }
}

/// Where a switch's output port leads, with the next switch resolved to
/// its dense id.
#[derive(Clone, Copy, Debug)]
pub(crate) enum PlannedHop {
    Host(HostId),
    Switch {
        dense: u32,
        port: u16,
        tier: LinkTier,
    },
}

#[derive(Clone, Copy, Debug)]
pub(crate) enum LinkTier {
    LeafSpine,
    SpineLeaf,
    SpineCore,
    CoreSpine,
}

/// [`next_hop`] precomputed for every `(switch, output port)`:
/// `hops[off[dense] + port]`. The engine's inner loop resolves a copy's
/// next stop by indexing, never by topology arithmetic (the spine→core
/// branch of `next_hop` walks an iterator per call).
#[derive(Clone, Debug)]
pub(crate) struct HopTable {
    hops: Vec<PlannedHop>,
    off: Vec<u32>,
}

impl HopTable {
    fn new(topo: &Clos) -> HopTable {
        let mut table = HopTable {
            hops: Vec::new(),
            off: Vec::with_capacity(topo.num_switches()),
        };
        for dense in 0..topo.num_switches() as u32 {
            table.off.push(table.hops.len() as u32);
            let sw = dense_switch_ref(topo, dense);
            let ports = match sw {
                SwitchRef::Leaf(_) => topo.leaf_ports(),
                SwitchRef::Spine(_) => topo.spine_ports(),
                SwitchRef::Core(_) => topo.core_ports(),
            };
            table
                .hops
                .extend((0..ports).map(|port| next_hop(topo, sw, port)));
        }
        table
    }

    /// The compiled [`next_hop`] for `port` on dense switch `dense`.
    #[inline]
    pub(crate) fn hop(&self, dense: u32, port: u16) -> PlannedHop {
        self.hops[self.off[dense as usize] as usize + port as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypervisor::{HypervisorSwitch, SenderFlow, VmSlot};
    use elmo_core::{
        encode_group, header_for_sender, DownstreamSections, EncoderConfig, PortBitmap,
    };
    use elmo_net::vxlan::Vni;
    use elmo_topology::{GroupTree, UpstreamCover};
    use std::net::Ipv4Addr;

    const OUTER: Ipv4Addr = Ipv4Addr::new(239, 1, 1, 1);
    const GROUP: Ipv4Addr = Ipv4Addr::new(225, 0, 0, 1);

    /// End-to-end: encode the Figure 3a group, send from Ha, and check every
    /// receiver (and only receivers) gets the inner frame.
    #[test]
    fn figure3_end_to_end_delivery() {
        let topo = Clos::paper_example();
        let layout = HeaderLayout::for_clos(&topo);
        let members = [
            HostId(0),
            HostId(1),
            HostId(42),
            HostId(48),
            HostId(49),
            HostId(57),
        ];
        let tree = GroupTree::new(&topo, members);
        let cfg = EncoderConfig::with_budget(&layout, 325, 0);
        let mut sa = |_p| false;
        let mut la = |_l| false;
        let enc = encode_group(&topo, &tree, &cfg, &mut sa, &mut la);
        // At R = 0 with the two-rule spine budget and no s-rule capacity,
        // pod P3 lands on the default p-rule — whose bitmap here equals
        // P3's exact ports, so delivery is still precise.
        assert_eq!(enc.d_spine.default_switches, vec![3]);

        let mut fabric = Fabric::new(topo, SwitchConfig::default());
        let sender = HostId(0);
        let header = header_for_sender(
            &topo,
            &layout,
            &tree,
            &DownstreamSections::new(&topo, &layout, &tree, &enc),
            sender,
            &UpstreamCover::multipath(),
        );
        let mut hv = HypervisorSwitch::new(sender);
        hv.install_flow(
            Vni(1),
            GROUP,
            SenderFlow::new(OUTER, Vni(1), &header, &layout, vec![]),
        );
        let pkt = hv
            .send(Vni(1), GROUP, b"multicast payload", &layout)
            .remove(0);

        let deliveries = fabric.inject(sender, pkt);
        let mut delivered_hosts: Vec<HostId> = deliveries.iter().map(|(h, _)| *h).collect();
        delivered_hosts.sort_unstable();
        // Every member except the sender, exactly once.
        let expected: Vec<HostId> = members.iter().copied().filter(|&h| h != sender).collect();
        assert_eq!(delivered_hosts, expected);

        // Each delivered packet decaps at a subscribed hypervisor.
        for (host, bytes) in &deliveries {
            let mut rx = HypervisorSwitch::new(*host);
            rx.subscribe(OUTER, VmSlot(0));
            let mut inner = rx.receive(bytes, &layout);
            assert_eq!(inner.len(), 1);
            assert_eq!(inner.next().unwrap().1, b"multicast payload");
        }
    }

    #[test]
    fn every_sender_reaches_all_other_members() {
        let topo = Clos::paper_example();
        let layout = HeaderLayout::for_clos(&topo);
        let members = [
            HostId(0),
            HostId(1),
            HostId(42),
            HostId(48),
            HostId(49),
            HostId(57),
        ];
        let tree = GroupTree::new(&topo, members);
        let cfg = EncoderConfig::with_budget(&layout, 325, 0);
        let mut sa = |_p| false;
        let mut la = |_l| false;
        let enc = encode_group(&topo, &tree, &cfg, &mut sa, &mut la);

        for &sender in &members {
            let mut fabric = Fabric::new(topo, SwitchConfig::default());
            let header = header_for_sender(
                &topo,
                &layout,
                &tree,
                &DownstreamSections::new(&topo, &layout, &tree, &enc),
                sender,
                &UpstreamCover::multipath(),
            );
            let mut hv = HypervisorSwitch::new(sender);
            hv.install_flow(
                Vni(1),
                GROUP,
                SenderFlow::new(OUTER, Vni(1), &header, &layout, vec![]),
            );
            let pkt = hv.send(Vni(1), GROUP, b"m", &layout).remove(0);
            let mut got: Vec<HostId> = fabric
                .inject(sender, pkt)
                .into_iter()
                .map(|(h, _)| h)
                .collect();
            got.sort_unstable();
            let expected: Vec<HostId> = members.iter().copied().filter(|&h| h != sender).collect();
            assert_eq!(got, expected, "sender {sender}");
        }
    }

    #[test]
    fn srule_assignment_still_delivers() {
        // R = 0 with s-rule capacity: some switches use group-table entries
        // instead of p-rules; delivery must be identical.
        let topo = Clos::paper_example();
        let layout = HeaderLayout::for_clos(&topo);
        let members = [
            HostId(0),
            HostId(1),
            HostId(42),
            HostId(48),
            HostId(49),
            HostId(57),
        ];
        let tree = GroupTree::new(&topo, members);
        let cfg = EncoderConfig {
            r: 0,
            k_max: 2,
            h_spine_max: 2,
            h_leaf_max: 2,
            budget_bytes: 325,
            mode: elmo_core::RedundancyMode::Sum,
        };
        let mut sa = |_p| true;
        let mut la = |_l| true;
        let enc = encode_group(&topo, &tree, &cfg, &mut sa, &mut la);
        assert!(!enc.d_spine.s_rules.is_empty() || !enc.d_leaf.s_rules.is_empty());

        let mut fabric = Fabric::new(topo, SwitchConfig::default());
        // Install the s-rules the encoder produced.
        for (pod, bm) in &enc.d_spine.s_rules {
            fabric
                .install_pod_srule(PodId(*pod), OUTER, bm.clone())
                .unwrap();
        }
        for (leaf, bm) in &enc.d_leaf.s_rules {
            fabric
                .leaf_mut(LeafId(*leaf))
                .install_srule(OUTER, bm.clone())
                .unwrap();
        }

        let sender = HostId(0);
        let header = header_for_sender(
            &topo,
            &layout,
            &tree,
            &DownstreamSections::new(&topo, &layout, &tree, &enc),
            sender,
            &UpstreamCover::multipath(),
        );
        let mut hv = HypervisorSwitch::new(sender);
        hv.install_flow(
            Vni(1),
            GROUP,
            SenderFlow::new(OUTER, Vni(1), &header, &layout, vec![]),
        );
        let pkt = hv.send(Vni(1), GROUP, b"m", &layout).remove(0);
        let mut got: Vec<HostId> = fabric
            .inject(sender, pkt)
            .into_iter()
            .map(|(h, _)| h)
            .collect();
        got.sort_unstable();
        let expected: Vec<HostId> = members.iter().copied().filter(|&h| h != sender).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn default_prule_overdelivers_but_reaches_members() {
        // R = 0, no s-rule capacity: overflow switches use the default
        // p-rule, which may spray extra copies — but never misses a member.
        let topo = Clos::paper_example();
        let layout = HeaderLayout::for_clos(&topo);
        let members = [
            HostId(0),
            HostId(1),
            HostId(42),
            HostId(48),
            HostId(49),
            HostId(57),
        ];
        let tree = GroupTree::new(&topo, members);
        let cfg = EncoderConfig {
            r: 0,
            k_max: 2,
            h_spine_max: 2,
            h_leaf_max: 2,
            budget_bytes: 325,
            mode: elmo_core::RedundancyMode::Sum,
        };
        let mut sa = |_p| false;
        let mut la = |_l| false;
        let enc = encode_group(&topo, &tree, &cfg, &mut sa, &mut la);
        assert!(enc.d_leaf.default_rule.is_some() || enc.d_spine.default_rule.is_some());

        let mut fabric = Fabric::new(topo, SwitchConfig::default());
        let sender = HostId(0);
        let header = header_for_sender(
            &topo,
            &layout,
            &tree,
            &DownstreamSections::new(&topo, &layout, &tree, &enc),
            sender,
            &UpstreamCover::multipath(),
        );
        let mut hv = HypervisorSwitch::new(sender);
        hv.install_flow(
            Vni(1),
            GROUP,
            SenderFlow::new(OUTER, Vni(1), &header, &layout, vec![]),
        );
        let pkt = hv.send(Vni(1), GROUP, b"m", &layout).remove(0);
        let got: std::collections::BTreeSet<HostId> = fabric
            .inject(sender, pkt)
            .into_iter()
            .map(|(h, _)| h)
            .collect();
        for &m in &members {
            if m != sender {
                assert!(got.contains(&m), "member {m} missed");
            }
        }
    }

    #[test]
    fn unicast_crosses_the_fabric() {
        let topo = Clos::paper_example();
        let layout = HeaderLayout::for_clos(&topo);
        let mut fabric = Fabric::new(topo, SwitchConfig::default());
        let mut hv = HypervisorSwitch::new(HostId(0));
        let pkts = hv.send_unicast_to(&[HostId(57)], Vni(3), b"uni", &layout);
        let deliveries = fabric.inject(HostId(0), pkts.into_iter().next().unwrap());
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].0, HostId(57));
        // The unicast path touched all tiers (different pods).
        assert!(fabric.stats.spine_to_core_bytes > 0);
        assert!(fabric.stats.core_to_spine_bytes > 0);
    }

    #[test]
    fn link_bytes_shrink_as_header_pops() {
        let topo = Clos::paper_example();
        let layout = HeaderLayout::for_clos(&topo);
        let members = [HostId(0), HostId(42)]; // cross-pod pair
        let tree = GroupTree::new(&topo, members);
        let cfg = EncoderConfig::with_budget(&layout, 325, 0);
        let mut sa = |_p| false;
        let mut la = |_l| false;
        let enc = encode_group(&topo, &tree, &cfg, &mut sa, &mut la);
        let mut fabric = Fabric::new(topo, SwitchConfig::default());
        let header = header_for_sender(
            &topo,
            &layout,
            &tree,
            &DownstreamSections::new(&topo, &layout, &tree, &enc),
            HostId(0),
            &UpstreamCover::multipath(),
        );
        let mut hv = HypervisorSwitch::new(HostId(0));
        hv.install_flow(
            Vni(1),
            GROUP,
            SenderFlow::new(OUTER, Vni(1), &header, &layout, vec![]),
        );
        let pkt = hv.send(Vni(1), GROUP, b"payload", &layout).remove(0);
        let injected_len = pkt.len() as u64;
        fabric.inject(HostId(0), pkt);
        // One packet per tier on this linear path; bytes must be
        // non-increasing hop over hop as p-rule sections pop.
        let s = fabric.stats;
        assert_eq!(s.host_to_leaf_bytes, injected_len);
        assert!(s.leaf_to_spine_bytes <= s.host_to_leaf_bytes);
        assert!(s.spine_to_core_bytes <= s.leaf_to_spine_bytes);
        assert!(s.core_to_spine_bytes <= s.spine_to_core_bytes);
        assert!(s.spine_to_leaf_bytes <= s.core_to_spine_bytes);
        assert!(s.leaf_to_host_bytes < s.spine_to_leaf_bytes);
        assert_eq!(s.total_link_bytes(), {
            s.host_to_leaf_bytes
                + s.leaf_to_spine_bytes
                + s.spine_to_core_bytes
                + s.core_to_spine_bytes
                + s.spine_to_leaf_bytes
                + s.leaf_to_host_bytes
        });
    }

    #[test]
    fn pod_srule_install_is_all_or_nothing_at_capacity() {
        let topo = Clos::paper_example();
        let config = SwitchConfig {
            group_table_capacity: 2,
            ..SwitchConfig::default()
        };
        let mut fabric = Fabric::new(topo, config);
        let pod = PodId(1);
        let spines: Vec<SpineId> = topo.spines_in_pod(pod).collect();
        assert!(spines.len() >= 2);
        let width = topo.spine_down_ports();
        let bm = |ports: &[usize]| PortBitmap::from_ports(width, ports.iter().copied());
        let (held, filler, newcomer) = (
            Ipv4Addr::new(239, 0, 0, 1),
            Ipv4Addr::new(239, 0, 0, 2),
            Ipv4Addr::new(239, 0, 0, 3),
        );
        fabric.install_pod_srule(pod, held, bm(&[0])).unwrap();
        // Only the last spine of the pod is full; the ones before it have
        // room, which is where a partial write would land.
        let last = *spines.last().unwrap();
        fabric
            .spine_mut(last)
            .install_srule(filler, bm(&[1]))
            .unwrap();
        let tables = |f: &Fabric| -> Vec<Vec<(Ipv4Addr, PortBitmap)>> {
            spines
                .iter()
                .map(|&s| f.spine(s).srules().map(|(a, b)| (*a, b.clone())).collect())
                .collect()
        };
        let before = tables(&fabric);

        assert_eq!(
            fabric.install_pod_srule(pod, newcomer, bm(&[0, 1])),
            Err(crate::netswitch::GroupTableFull)
        );
        assert_eq!(tables(&fabric), before, "a refused install writes no spine");

        // The held key is already on every spine, so it takes no new slot.
        fabric.install_pod_srule(pod, held, bm(&[0, 1])).unwrap();
        for &s in &spines {
            assert_eq!(fabric.spine(s).srule(&held), Some(&bm(&[0, 1])));
        }
        assert_eq!(fabric.spine(last).srule_capacity_left(), 0);
    }
}
