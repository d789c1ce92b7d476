//! The wired fabric: every network switch instantiated and connected per the
//! Clos topology, moving real packet bytes and accounting per-tier link
//! traffic.
//!
//! [`Fabric::inject`] pushes one packet from a host NIC into its leaf and
//! runs it to completion, returning the copies delivered to host NICs. Byte
//! counters per link tier feed the traffic-overhead metric (paper Figures
//! 4/5, right panels).
//!
//! The replay loop is zero-copy: injected wire bytes are parsed **once**
//! into a [`FlightPacket`] and every subsequent hop moves struct-of-arrays
//! entries — because every copy of an injected packet shares the same
//! header and payload, a queued copy is fully described by `(switch,
//! ingress port, pop depth)` and the inner loop iterates three flat
//! arrays with zero `Arc` traffic per hop. Bytes are re-materialized
//! solely at host delivery (and into the capture buffer when capturing).
//! The work-queue ([`FlightQueue`]) and the per-hop output buffer
//! (`hop_scratch`) are reused across injections so the steady state
//! allocates nothing but the delivered copies themselves.
//! [`Fabric::inject_reference`] keeps the pre-change encode-per-hop path
//! alive for byte-identity golden tests and A/B benchmarking; the sharded
//! multi-core variant of this loop lives in [`crate::shard`].

use elmo_core::{pop, HeaderLayout};
use elmo_topology::{Clos, CoreId, HostId, LeafId, PodId, SpineId, SwitchRef};

use crate::netswitch::{NetworkSwitch, SwitchConfig, HOST_STRIPPED};
use crate::packet::FlightPacket;

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
    /// Fold another shard's counters into this one. Addition is the only
    /// merge: every field is a sum over link events, so per-shard totals
    /// combined in any order equal the serial totals.
    pub fn absorb(&mut self, o: &FabricStats) {
        self.host_to_leaf_bytes += o.host_to_leaf_bytes;
        self.leaf_to_host_bytes += o.leaf_to_host_bytes;
        self.leaf_to_spine_bytes += o.leaf_to_spine_bytes;
        self.spine_to_leaf_bytes += o.spine_to_leaf_bytes;
        self.spine_to_core_bytes += o.spine_to_core_bytes;
        self.core_to_spine_bytes += o.core_to_spine_bytes;
        self.packets_on_links += o.packets_on_links;
    }

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
    /// Injections whose flight work-queue and hop buffer ran entirely in
    /// previously allocated capacity (the zero-allocation steady state).
    pub(crate) replay_buffer_reuse: elmo_obs::Counter,
    /// Injections that had to grow a scratch buffer (first packets, or a
    /// fan-out larger than anything seen before).
    pub(crate) replay_fresh_alloc: elmo_obs::Counter,
    /// Packet copies serialized back to wire bytes (host deliveries and
    /// captured copies) — every other copy moved as structs only.
    pub(crate) replay_materialized: elmo_obs::Counter,
    /// Flight copies that crossed a shard boundary through an SPSC ring in
    /// the sharded replay engine. Deterministic for a fixed topology,
    /// batch, and shard count (the partition fixes each hop's owner).
    pub(crate) shard_cross_msgs: elmo_obs::Counter,
    /// Sharded batch injections run (`inject_*_sharded` calls that took
    /// the multi-worker path rather than the serial fallback).
    pub(crate) shard_batches: elmo_obs::Counter,
    /// Sharded replay calls forced onto the serial path because a capture
    /// or hop-trace session pins traversal order (the copy-tree trace
    /// does not — it shards fine).
    pub(crate) trace_serial_fallback: elmo_obs::Counter,
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
        replay_buffer_reuse: elmo_obs::counter("fabric.replay.buffer_reuse"),
        replay_fresh_alloc: elmo_obs::counter("fabric.replay.fresh_alloc"),
        replay_materialized: elmo_obs::counter("fabric.replay.materialized"),
        shard_cross_msgs: elmo_obs::counter("fabric.replay.shard.cross_msgs"),
        shard_batches: elmo_obs::counter("fabric.replay.shard.batches"),
        trace_serial_fallback: elmo_obs::counter("fabric.replay.trace_serial_fallback"),
        trace_events: elmo_obs::counter("trace.events_recorded"),
    })
}

/// Dense switch numbering shared by the shard partition and the
/// copy-tree trace: leaves first, then spines, then cores. Trace node
/// ids must be stable across shard counts, so both derive from this one
/// function of the topology alone.
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
    pub(crate) leaves: Vec<NetworkSwitch>,
    pub(crate) spines: Vec<NetworkSwitch>,
    pub(crate) cores: Vec<NetworkSwitch>,
    /// Switches currently failed: packets reaching them are dropped.
    pub(crate) down: std::collections::BTreeSet<SwitchRef>,
    /// When tracing, the per-hop records of the in-flight injection.
    pub(crate) trace: Option<Vec<HopRecord>>,
    /// When copy-tree tracing, the edge events of every traced injection.
    /// Unlike `trace`/`capture`, an armed tree trace does **not** force
    /// sharded replay onto the serial path: edge events are recorded
    /// shard-locally and stitched on merge, and their canonical sort is
    /// shard-count-invariant.
    pub(crate) tree: Option<TreeTrace>,
    /// Flight-recorder ring capacity per replay shard (0 = off).
    pub(crate) recorder_cap: usize,
    /// The per-shard flight recorders of the last sharded batch (empty
    /// until a batch runs with `recorder_cap > 0`).
    pub(crate) flight_recorders: Vec<elmo_obs::FlightRecorder>,
    /// When capturing, `(capture limit, captured packets)`: every copy
    /// put on a wire (injected or forwarded) is recorded until the limit
    /// is reached. Powers `elmo-eval --trace-pcap`. `None` (the default)
    /// keeps the replay loop free of any capture work beyond one
    /// predictable `is_some` test per copy.
    pub(crate) capture: Option<(usize, Vec<Vec<u8>>)>,
    /// Reusable work-queue for the flight replay loop: copies waiting to
    /// enter their next switch. Drained to empty by every injection, so
    /// only its capacity survives between packets.
    flight_queue: FlightQueue,
    /// Reusable per-hop output buffer handed to `process_hops`.
    hop_scratch: Vec<(u16, u8)>,
    /// Link counters.
    pub stats: FabricStats,
}

/// The struct-of-arrays flight work-queue: entry `i` is the copy
/// `(sw[i], port[i], popped[i])`. All copies of one injection share the
/// injected packet's header and payload `Arc`s, so the pop depth is the
/// only per-copy state and pushing a copy writes three flat words — no
/// pointer chasing, no reference-count traffic.
#[derive(Clone, Debug, Default)]
pub(crate) struct FlightQueue {
    sw: Vec<SwitchRef>,
    port: Vec<u16>,
    popped: Vec<u8>,
}

impl FlightQueue {
    #[inline]
    pub(crate) fn push(&mut self, sw: SwitchRef, port: u16, popped: u8) {
        self.sw.push(sw);
        self.port.push(port);
        self.popped.push(popped);
    }

    /// LIFO pop, matching the traversal order of the reference byte loop.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<(SwitchRef, u16, u8)> {
        let sw = self.sw.pop()?;
        let port = self.port.pop().expect("arrays pushed in lockstep");
        let popped = self.popped.pop().expect("arrays pushed in lockstep");
        Some((sw, port, popped))
    }

    pub(crate) fn capacity(&self) -> usize {
        self.sw
            .capacity()
            .min(self.port.capacity())
            .min(self.popped.capacity())
    }
}

/// An armed copy-tree trace session: the accumulated edge events plus
/// the packet counter that numbers serial injections. Packet indices —
/// serial injection order, or batch index in the sharded engine — and
/// dense switch ids are the *only* inputs to trace identity (never wall
/// clocks), which is what keeps traced runs bit-reproducible.
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
        let layout = HeaderLayout::for_clos(&topo);
        Fabric {
            topo,
            layout,
            leaves: topo
                .leaves()
                .map(|l| NetworkSwitch::new_leaf(topo, l, config))
                .collect(),
            spines: topo
                .spines()
                .map(|s| NetworkSwitch::new_spine(topo, s, config))
                .collect(),
            cores: topo
                .cores()
                .map(|c| NetworkSwitch::new_core(topo, c, config))
                .collect(),
            down: std::collections::BTreeSet::new(),
            trace: None,
            tree: None,
            recorder_cap: 0,
            flight_recorders: Vec::new(),
            capture: None,
            flight_queue: FlightQueue::default(),
            hop_scratch: Vec::new(),
            stats: FabricStats::default(),
        }
    }

    /// Start capturing on-the-wire packet copies, keeping at most `limit`.
    /// A fresh capture buffer is installed each time, so capture sessions
    /// can be repeated: `start_capture` / inject / [`take_capture`]
    /// (Self::take_capture), then again.
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

    /// Arm a copy-tree trace session: every subsequent injection (serial
    /// or sharded) records one [`elmo_obs::TraceEvent`] per replication
    /// edge until [`take_tree_trace`](Self::take_tree_trace). One session
    /// should cover either sequential serial injections or one sharded
    /// batch — packet indices restart at the batch boundary.
    pub fn start_tree_trace(&mut self) {
        self.tree = Some(TreeTrace::default());
    }

    /// Whether a copy-tree trace session is armed.
    pub fn tree_tracing(&self) -> bool {
        self.tree.is_some()
    }

    /// End the trace session and take its events in canonical order
    /// (sorted by packet, parent, child, state — the shard-invariant
    /// order). Empty if tracing was never armed.
    pub fn take_tree_trace(&mut self) -> Vec<elmo_obs::TraceEvent> {
        let mut events = self.tree.take().map(|t| t.events).unwrap_or_default();
        elmo_obs::sort_events(&mut events);
        metrics().trace_events.add(events.len() as u64);
        events
    }

    /// Arm the per-shard flight recorders: each worker of subsequent
    /// sharded batches keeps a ring of its last `capacity` trace events
    /// for postmortem dumps (0 disables). The rings survive until the
    /// next sharded batch replaces them.
    pub fn arm_flight_recorder(&mut self, capacity: usize) {
        self.recorder_cap = capacity;
        self.flight_recorders.clear();
    }

    /// The per-shard flight recorders of the most recent sharded batch.
    pub fn flight_recorders(&self) -> &[elmo_obs::FlightRecorder] {
        &self.flight_recorders
    }

    /// Dump every armed shard recorder through the structured log,
    /// tagged with `reason`; returns the total events dumped.
    pub fn dump_flight_recorders(&self, reason: &str) -> usize {
        self.flight_recorders
            .iter()
            .enumerate()
            .map(|(shard, r)| r.dump(shard, reason))
            .sum()
    }

    /// Record the root edge of a traced injection and allocate its
    /// packet index. Only called with the trace armed.
    #[cold]
    fn tree_root(&mut self, sw0: SwitchRef, state: u8) -> u32 {
        let child = dense_switch_id(&self.topo, sw0);
        let t = self.tree.as_mut().expect("tree trace armed");
        let pkt = t.next_pkt;
        t.next_pkt += 1;
        t.events.push(elmo_obs::TraceEvent {
            pkt,
            parent: elmo_obs::TRACE_ROOT,
            child,
            state,
        });
        pkt
    }

    /// Record one replication edge of a traced injection.
    #[cold]
    fn tree_edge(&mut self, pkt: u32, parent: u32, child: u32, state: u8) {
        if let Some(t) = &mut self.tree {
            t.events.push(elmo_obs::TraceEvent {
                pkt,
                parent,
                child,
                state,
            });
        }
    }

    /// Record one wire copy when capturing. The disabled case is a single
    /// inlined `is_some` test — all real work lives in the `#[cold]` body,
    /// so the replay hot path pays nothing when capture is off.
    #[inline(always)]
    fn capture_copy(&mut self, pkt: &[u8]) {
        if self.capture.is_some() {
            self.capture_copy_slow(pkt);
        }
    }

    #[cold]
    fn capture_copy_slow(&mut self, pkt: &[u8]) {
        if let Some((limit, pkts)) = &mut self.capture {
            if pkts.len() < *limit {
                pkts.push(pkt.to_vec());
            }
        }
    }

    /// Capture a flight copy, materializing it only when a slot is free.
    #[cold]
    fn capture_flight(&mut self, pkt: &FlightPacket) {
        if let Some((limit, pkts)) = &mut self.capture {
            if pkts.len() < *limit {
                pkts.push(pkt.to_bytes(&self.layout));
                metrics().replay_materialized.inc();
            }
        }
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

    /// Mutable access to a leaf switch (e.g. for s-rule installation).
    pub fn leaf_mut(&mut self, l: LeafId) -> &mut NetworkSwitch {
        &mut self.leaves[l.0 as usize]
    }

    /// Immutable access to a leaf switch.
    pub fn leaf(&self, l: LeafId) -> &NetworkSwitch {
        &self.leaves[l.0 as usize]
    }

    /// Mutable access to a spine switch.
    pub fn spine_mut(&mut self, s: SpineId) -> &mut NetworkSwitch {
        &mut self.spines[s.0 as usize]
    }

    /// Immutable access to a spine switch.
    pub fn spine(&self, s: SpineId) -> &NetworkSwitch {
        &self.spines[s.0 as usize]
    }

    /// Mutable access to a core switch.
    pub fn core_mut(&mut self, c: CoreId) -> &mut NetworkSwitch {
        &mut self.cores[c.0 as usize]
    }

    /// Immutable access to a core switch.
    pub fn core(&self, c: CoreId) -> &NetworkSwitch {
        &self.cores[c.0 as usize]
    }

    /// Install an s-rule on every spine of a pod (a logical-spine s-rule must
    /// be present wherever multipath may land the packet).
    pub fn install_pod_srule(
        &mut self,
        pod: PodId,
        group: std::net::Ipv4Addr,
        ports: elmo_core::PortBitmap,
    ) -> Result<(), crate::netswitch::GroupTableFull> {
        for s in self.topo.spines_in_pod(pod) {
            self.spines[s.0 as usize].install_srule(group, ports.clone())?;
        }
        Ok(())
    }

    /// Inject one packet and record per-hop telemetry — which switch saw the
    /// packet, on which port, how large it was, and where it replicated it.
    /// This is the paper's §7 monitoring direction (INT-style per-hop
    /// records collected alongside the multicast packet) in model form:
    /// `traceroute` for a multicast tree.
    pub fn inject_traced(
        &mut self,
        from: HostId,
        bytes: Vec<u8>,
    ) -> (Vec<(HostId, Vec<u8>)>, Vec<HopRecord>) {
        self.trace = Some(Vec::new());
        let deliveries = self.inject(from, bytes);
        let trace = self.trace.take().unwrap_or_default();
        (deliveries, trace)
    }

    /// Inject one packet from a host; returns all host deliveries as
    /// `(host, packet bytes)`.
    ///
    /// This is the zero-copy replay fast path: the wire bytes are parsed
    /// once here, the fabric is traversed entirely in [`FlightPacket`]
    /// form, and bytes are re-materialized only for the returned
    /// deliveries. Deliveries, per-switch stats, and link-byte counters
    /// are bit-identical to [`inject_reference`](Self::inject_reference).
    pub fn inject(&mut self, from: HostId, bytes: Vec<u8>) -> Vec<(HostId, Vec<u8>)> {
        let mut deliveries = Vec::new();
        self.inject_into(from, &bytes, &mut deliveries);
        deliveries
    }

    /// Inject a batch of packets in one call. All scratch buffers are
    /// reused across the whole batch and deliveries are returned
    /// concatenated in injection order — equivalent to calling
    /// [`inject`](Self::inject) per packet and chaining the results, minus
    /// the per-call allocation churn.
    pub fn inject_batch<I>(&mut self, packets: I) -> Vec<(HostId, Vec<u8>)>
    where
        I: IntoIterator<Item = (HostId, Vec<u8>)>,
    {
        let mut deliveries = Vec::new();
        for (from, bytes) in packets {
            self.inject_into(from, &bytes, &mut deliveries);
        }
        deliveries
    }

    /// Inject an already-parsed packet, skipping the emit + parse round
    /// trip entirely (for senders that build [`FlightPacket`]s directly,
    /// e.g. `HypervisorSwitch::send_flight`). Counters are identical to
    /// injecting the materialized bytes.
    pub fn inject_flight(&mut self, from: HostId, pkt: FlightPacket) -> Vec<(HostId, Vec<u8>)> {
        let leaf = self.topo.leaf_of_host(from);
        let ingress = self.topo.host_port_on_leaf(from);
        let wire = pkt.wire_len(&self.layout) as u64;
        self.stats.host_to_leaf_bytes += wire;
        self.stats.packets_on_links += 1;
        let m = metrics();
        m.host_to_leaf_bytes.add(wire);
        m.packets_on_links.inc();
        if self.capture.is_some() {
            self.capture_flight(&pkt);
        }
        let mut deliveries = Vec::new();
        if !self.down.contains(&SwitchRef::Leaf(leaf)) {
            self.run_flight(SwitchRef::Leaf(leaf), ingress, pkt, &mut deliveries);
        }
        deliveries
    }

    /// One injection into a shared deliveries buffer (the body of both
    /// [`inject`](Self::inject) and [`inject_batch`](Self::inject_batch)).
    fn inject_into(&mut self, from: HostId, bytes: &[u8], deliveries: &mut Vec<(HostId, Vec<u8>)>) {
        let leaf = self.topo.leaf_of_host(from);
        let ingress = self.topo.host_port_on_leaf(from);
        self.stats.host_to_leaf_bytes += bytes.len() as u64;
        self.stats.packets_on_links += 1;
        let m = metrics();
        m.host_to_leaf_bytes.add(bytes.len() as u64);
        m.packets_on_links.inc();
        self.capture_copy(bytes);
        if self.down.contains(&SwitchRef::Leaf(leaf)) {
            return; // failed ingress leaf: lost before parsing, as before
        }
        let pkt = match FlightPacket::parse(bytes, &self.layout) {
            Ok(p) => p,
            Err(_) => {
                // The one parse of the fast path happens here on the
                // leaf's behalf; the drop lands on the leaf's counters
                // exactly as when the leaf parsed every packet itself.
                self.leaves[leaf.0 as usize].note_parse_drop();
                return;
            }
        };
        self.run_flight(SwitchRef::Leaf(leaf), ingress, pkt, deliveries);
    }

    /// The iterative flight work-queue. LIFO pop with in-order output
    /// pushes — the exact traversal order of the pre-change byte loop, so
    /// delivery order, capture order, and every counter sequence match.
    ///
    /// The queue is struct-of-arrays: every queued copy shares the
    /// injected packet's header and payload, so the loop keeps exactly two
    /// working packets (`work`, and its header-stripped twin for host
    /// copies) and rewrites only `work.popped` per entry.
    fn run_flight(
        &mut self,
        sw0: SwitchRef,
        port0: usize,
        pkt0: FlightPacket,
        deliveries: &mut Vec<(HostId, Vec<u8>)>,
    ) {
        let m = metrics();
        // Copy-tree tracing costs the off case one `is_some` test per
        // output (like capture); all recording lives in `#[cold]` bodies.
        let tracing = self.tree.is_some();
        let trace_pkt = if tracing {
            self.tree_root(sw0, pkt0.popped)
        } else {
            0
        };
        // Take the scratch buffers out of `self` so the borrow checker
        // sees them as locals while switches and counters are borrowed.
        let mut queue = std::mem::take(&mut self.flight_queue);
        let mut hop_out = std::mem::take(&mut self.hop_scratch);
        let start_caps = (queue.capacity(), hop_out.capacity());
        let mut work = pkt0;
        let host_work = FlightPacket {
            elmo: None,
            popped: pop::NONE,
            ..work.clone()
        };
        queue.push(sw0, port0 as u16, work.popped);
        // A packet visits each layer at most twice (up, down); the queue is
        // bounded by the output fan-out, so plain iteration terminates.
        while let Some((sw, port_in, popped_in)) = queue.pop() {
            if self.down.contains(&sw) {
                continue; // failed switch: the packet is lost here
            }
            work.popped = popped_in;
            hop_out.clear();
            match sw {
                SwitchRef::Leaf(l) => self.leaves[l.0 as usize].process_hops(
                    port_in as usize,
                    &work,
                    &self.layout,
                    &mut hop_out,
                ),
                SwitchRef::Spine(s) => self.spines[s.0 as usize].process_hops(
                    port_in as usize,
                    &work,
                    &self.layout,
                    &mut hop_out,
                ),
                SwitchRef::Core(c) => self.cores[c.0 as usize].process_hops(
                    port_in as usize,
                    &work,
                    &self.layout,
                    &mut hop_out,
                ),
            }
            if let Some(trace) = &mut self.trace {
                trace.push(HopRecord {
                    switch: sw,
                    ingress_port: port_in as usize,
                    bytes_in: work.wire_len(&self.layout),
                    egress_ports: hop_out.iter().map(|(p, _)| *p as usize).collect(),
                });
            }
            let trace_parent = if tracing {
                dense_switch_id(&self.topo, sw)
            } else {
                0
            };
            for &(port_out, state) in &hop_out {
                self.stats.packets_on_links += 1;
                m.packets_on_links.inc();
                let out_pkt: &FlightPacket = if state == HOST_STRIPPED {
                    &host_work
                } else {
                    work.popped = state;
                    &work
                };
                let n = out_pkt.wire_len(&self.layout) as u64;
                if self.capture.is_some() {
                    let bytes = out_pkt.to_bytes(&self.layout);
                    self.capture_copy_slow(&bytes);
                    m.replay_materialized.inc();
                }
                match next_hop(&self.topo, sw, port_out as usize) {
                    Hop::Host(h) => {
                        self.stats.leaf_to_host_bytes += n;
                        m.leaf_to_host_bytes.add(n);
                        let out_pkt: &FlightPacket = if state == HOST_STRIPPED {
                            &host_work
                        } else {
                            &work
                        };
                        deliveries.push((h, out_pkt.to_bytes(&self.layout)));
                        m.replay_materialized.inc();
                        if tracing {
                            self.tree_edge(
                                trace_pkt,
                                trace_parent,
                                elmo_obs::HOST_NODE_BIT | h.0,
                                state,
                            );
                        }
                    }
                    Hop::Switch(next, next_port, tier) => {
                        debug_assert_ne!(state, HOST_STRIPPED, "stripped copies go to hosts");
                        if tracing {
                            let child = dense_switch_id(&self.topo, next);
                            self.tree_edge(trace_pkt, trace_parent, child, state);
                        }
                        match tier {
                            LinkTier::LeafSpine => {
                                self.stats.leaf_to_spine_bytes += n;
                                m.leaf_to_spine_bytes.add(n);
                            }
                            LinkTier::SpineLeaf => {
                                self.stats.spine_to_leaf_bytes += n;
                                m.spine_to_leaf_bytes.add(n);
                            }
                            LinkTier::SpineCore => {
                                self.stats.spine_to_core_bytes += n;
                                m.spine_to_core_bytes.add(n);
                            }
                            LinkTier::CoreSpine => {
                                self.stats.core_to_spine_bytes += n;
                                m.core_to_spine_bytes.add(n);
                            }
                        }
                        queue.push(next, next_port as u16, state);
                    }
                }
            }
        }
        // Give the (now empty) scratch buffers back for the next packet
        // and record whether this injection ran allocation-free.
        if queue.capacity() > start_caps.0 || hop_out.capacity() > start_caps.1 {
            m.replay_fresh_alloc.inc();
        } else {
            m.replay_buffer_reuse.inc();
        }
        // Drop the working copies before the Arcs' last clones go out in
        // deliveries; `host_work` kept them alive across the loop.
        drop(host_work);
        drop(work);
        self.flight_queue = queue;
        self.hop_scratch = hop_out;
    }

    /// The pre-zero-copy replay path, kept verbatim: every hop parses the
    /// wire bytes and re-encodes header **and** payload for each copy
    /// (via [`NetworkSwitch::process_reference`]). Retained as the golden
    /// reference for byte-identity tests and as the A/B baseline for the
    /// replay benchmark. Counters and deliveries are bit-identical to
    /// [`inject`](Self::inject).
    pub fn inject_reference(&mut self, from: HostId, bytes: Vec<u8>) -> Vec<(HostId, Vec<u8>)> {
        let leaf = self.topo.leaf_of_host(from);
        let ingress = self.topo.host_port_on_leaf(from);
        self.stats.host_to_leaf_bytes += bytes.len() as u64;
        self.stats.packets_on_links += 1;
        let m = metrics();
        m.host_to_leaf_bytes.add(bytes.len() as u64);
        m.packets_on_links.inc();
        self.capture_copy(&bytes);
        let mut deliveries = Vec::new();
        let mut queue: Vec<(SwitchRef, usize, Vec<u8>)> =
            vec![(SwitchRef::Leaf(leaf), ingress, bytes)];
        while let Some((sw, port_in, pkt)) = queue.pop() {
            if self.down.contains(&sw) {
                continue;
            }
            let outputs = match sw {
                SwitchRef::Leaf(l) => {
                    self.leaves[l.0 as usize].process_reference(port_in, &pkt, &self.layout)
                }
                SwitchRef::Spine(s) => {
                    self.spines[s.0 as usize].process_reference(port_in, &pkt, &self.layout)
                }
                SwitchRef::Core(c) => {
                    self.cores[c.0 as usize].process_reference(port_in, &pkt, &self.layout)
                }
            };
            if let Some(trace) = &mut self.trace {
                trace.push(HopRecord {
                    switch: sw,
                    ingress_port: port_in,
                    bytes_in: pkt.len(),
                    egress_ports: outputs.iter().map(|(p, _)| *p).collect(),
                });
            }
            for (port_out, out_pkt) in outputs {
                self.stats.packets_on_links += 1;
                m.packets_on_links.inc();
                self.capture_copy(&out_pkt);
                match next_hop(&self.topo, sw, port_out) {
                    Hop::Host(h) => {
                        self.stats.leaf_to_host_bytes += out_pkt.len() as u64;
                        m.leaf_to_host_bytes.add(out_pkt.len() as u64);
                        deliveries.push((h, out_pkt));
                    }
                    Hop::Switch(next, next_port, tier) => {
                        let n = out_pkt.len() as u64;
                        match tier {
                            LinkTier::LeafSpine => {
                                self.stats.leaf_to_spine_bytes += n;
                                m.leaf_to_spine_bytes.add(n);
                            }
                            LinkTier::SpineLeaf => {
                                self.stats.spine_to_leaf_bytes += n;
                                m.spine_to_leaf_bytes.add(n);
                            }
                            LinkTier::SpineCore => {
                                self.stats.spine_to_core_bytes += n;
                                m.spine_to_core_bytes.add(n);
                            }
                            LinkTier::CoreSpine => {
                                self.stats.core_to_spine_bytes += n;
                                m.core_to_spine_bytes.add(n);
                            }
                        }
                        queue.push((next, next_port, out_pkt));
                    }
                }
            }
        }
        deliveries
    }
}

/// Resolve a switch's output port to the device on the other end. Free
/// function over [`Clos`] so the sharded workers in [`crate::shard`] can
/// route hops without borrowing the whole `Fabric`.
pub(crate) fn next_hop(topo: &Clos, sw: SwitchRef, port: usize) -> Hop {
    match sw {
        SwitchRef::Leaf(l) => {
            if port < topo.leaf_down_ports() {
                Hop::Host(topo.host_under_leaf(l, port))
            } else {
                let local_spine = port - topo.leaf_down_ports();
                let pod = topo.pod_of_leaf(l);
                let spine = topo.spine_in_pod(pod, local_spine);
                Hop::Switch(
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
                Hop::Switch(
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
                Hop::Switch(
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
            Hop::Switch(
                SwitchRef::Spine(spine),
                topo.spine_up_port(local_core),
                LinkTier::CoreSpine,
            )
        }
    }
}

pub(crate) enum Hop {
    Host(HostId),
    Switch(SwitchRef, usize, LinkTier),
}

#[derive(Clone, Copy)]
pub(crate) enum LinkTier {
    LeafSpine,
    SpineLeaf,
    SpineCore,
    CoreSpine,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypervisor::{HypervisorSwitch, SenderFlow, VmSlot};
    use elmo_core::{encode_group, header_for_sender, EncoderConfig};
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
            &enc,
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
                &enc,
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
            &enc,
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
            &enc,
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
            &enc,
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
}
