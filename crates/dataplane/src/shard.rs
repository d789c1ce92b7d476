//! The replay engine: the one traversal of the fabric. Switches are
//! partitioned across worker threads, each owning a disjoint switch set,
//! with bounded SPSC rings carrying the flight copies that cross shard
//! boundaries; one shard runs inline on the calling thread with no rings
//! or atomics at all, which is the path every single-packet caller and the
//! pipeline benchmark's main replay row take.
//!
//! # Partition
//!
//! Every switch has exactly one owning shard for the whole batch:
//!
//! * the leaves **and** spines of pod `p` go to shard `p % n`, so the two
//!   hops of every intra-pod traversal (leaf→spine, spine→leaf) stay
//!   shard-local — in the paper's Clos this is the vast majority of hops
//!   for rack-local and pod-local groups;
//! * cores are dealt round-robin (`core % n`), since core hops are the
//!   cross-pod traffic that must cross shards anyway.
//!
//! Ownership is enforced by construction, not locks: with several shards
//! the `Fabric`'s switch vector is taken apart and moved into the workers,
//! then reassembled (same order, same switches, now with updated
//! per-switch counters) after the join; the solo worker borrows the vector
//! in place. No switch is ever aliased by two threads, so the engine is
//! safe Rust with zero `unsafe`.
//!
//! # Cross-shard protocol
//!
//! Each ordered worker pair gets one bounded SPSC ring
//! ([`elmo_core::spsc`]); a copy whose next switch lives elsewhere is sent
//! as a small `Copy` [`ShardMsg`] — dense switch index, ingress port, pop
//! depth, and the batch index of the packet it belongs to. Workers clone
//! the batch's `FlightPacket`s once up front (bumping each header/payload
//! `Arc` once per worker, never per hop), so a ring message is all a
//! receiving shard needs to resume the traversal.
//!
//! When a ring fills, the producer drains its *own* incoming rings into
//! its local queue while retrying, which breaks any cycle of full rings —
//! progress is always possible somewhere, so the engine cannot deadlock.
//!
//! # Deliveries: zero-copy to the very end
//!
//! A delivered copy is fully determined by `(host, batch packet index,
//! pop state)` — the wire bytes are a pure function of the shared
//! `FlightPacket` and the `u8` state. So workers record exactly that
//! triple, in struct-of-arrays segments, and [`DeliveryBatch`]
//! materializes bytes only when a consumer asks ([`DeliveryBatch::
//! for_each`] through one recycled scratch buffer, [`DeliveryBatch::
//! to_vec`] into owned vectors). Replaying a 20k-packet batch therefore
//! touches a few hundred kilobytes of delivery state instead of
//! streaming ~75 MB of packet bytes through cold memory.
//!
//! # Run grouping
//!
//! Within a worker, pending copies are not a single queue: each owned
//! switch has its own struct-of-arrays *bucket*, and the worker drains
//! one whole bucket per iteration (swapping it out first — a switch
//! never forwards to itself, so the run cannot grow under its own feet).
//! Everything per-switch is then amortized over the run instead of paid
//! per copy: the switch borrow, its group table's cache lines, the
//! failed-switch check, the termination counter (two atomic RMWs per
//! *run*), and the global obs counters (one `add` per touched counter
//! per run). Copy lengths come from the batch's precomputed
//! [`FlightBatch`] wire-length rows, and output ports resolve through
//! the fabric's compiled [`HopTable`] — the inner loop never walks a
//! header or the topology math.
//!
//! # Observation
//!
//! Copy-tree tracing, the flight recorder, pcap capture and
//! [`HopRecord`] logging all hang off one per-copy-entry test
//! ([`Observe::any`]) into a `#[cold]` recorder; with none armed that
//! test is all the engine pays. Workers record locally and the records
//! are stitched after the join in orders that depend only on (packet,
//! switch, port), so every observer sees the same thing at every shard
//! count.
//!
//! # Termination and determinism
//!
//! A single atomic counter tracks copies that are queued anywhere but not
//! yet processed. Producers increment it *before* publishing a copy and
//! decrement only after fully processing one — run-grouped: all of a
//! run's children are counted in one increment before any is published,
//! and the run's own entries are decremented in one subtraction after —
//! so it can only read zero when every bucket and every ring is empty,
//! the workers' exit condition. (A solo worker skips the counter
//! entirely.)
//!
//! The traversal itself is a fixed function of (topology, rules, batch):
//! which copies exist, which links they cross, and which hosts they reach
//! do not depend on thread interleaving. Only the *order* in which workers
//! happen to produce deliveries is racy, so every delivery carries its
//! batch index and the final iteration order is the canonical sort by
//! `(packet, host, state)`. The result: byte-identical delivery sequences
//! and link/switch counters for any shard count — which
//! `tests/replay_identity.rs` pins against the executable spec in
//! `tests/spec/`.

use elmo_core::sync::Pending;
use elmo_core::{resolve_threads, spsc, HeaderLayout, SpscReceiver, SpscSender};
use elmo_topology::{Clos, HostId, SwitchRef};

use elmo_obs::{FlightRecorder, TraceEvent, HOST_NODE_BIT, TRACE_ROOT};

use crate::fabric::{
    dense_switch_ref, metrics, Fabric, FabricStats, HopRecord, HopTable, PlannedHop,
};
use crate::netswitch::{NetworkSwitch, HOST_STRIPPED};
use crate::packet::{FlightBatch, FlightPacket, HostEmitCache};

/// Capacity of each cross-shard ring, in messages. Full rings are not
/// fatal (producers drain-and-retry); this just bounds memory and keeps
/// the common case allocation-free.
const RING_CAPACITY: usize = 1024;

/// A flight copy crossing a shard boundary (or queued locally): the copy's
/// entire state, small and `Copy`.
#[derive(Clone, Copy, Debug)]
struct ShardMsg {
    /// Dense switch index (leaves, then spines, then cores).
    sw: u32,
    /// Ingress port on that switch.
    port: u16,
    /// Pop depth the copy arrives with.
    state: u8,
    /// Index of the packet in the batch this copy belongs to.
    pkt: u32,
}

/// One worker's delivery output in struct-of-arrays form. Entry `i` is
/// `(hosts[i], pkt[i], state[i])`; bytes are derived on demand.
#[derive(Clone, Debug, Default)]
struct Segment {
    hosts: Vec<HostId>,
    pkt: Vec<u32>,
    state: Vec<u8>,
}

impl Segment {
    fn clear(&mut self) {
        self.hosts.clear();
        self.pkt.clear();
        self.state.clear();
    }

    #[inline]
    fn push(&mut self, host: HostId, pkt: u32, state: u8) {
        self.hosts.push(host);
        self.pkt.push(pkt);
        self.state.push(state);
    }
}

/// Host deliveries of one replayed batch, kept zero-copy: each entry is
/// `(host, batch packet index, pop state)` plus a shared reference to
/// the batch's [`FlightPacket`]s, and wire bytes are materialized only
/// when read. Iteration follows the canonical `(packet, host, state)`
/// order, which is identical for every shard count.
///
/// Reuse one `DeliveryBatch` across [`Fabric::replay_flights_sharded`]
/// calls and the steady state allocates nothing: segments, order index,
/// and the materialization scratch all keep their capacity.
#[derive(Clone, Debug, Default)]
pub struct DeliveryBatch {
    segments: Vec<Segment>,
    /// Canonical iteration order as `(segment, entry)` pairs.
    order: Vec<(u32, u32)>,
    /// The replayed batch, for on-demand materialization. `popped` may
    /// hold worker scratch — the per-entry `state` is authoritative.
    pkts: Vec<FlightPacket>,
    /// Captured from the fabric at replay time (`None` until the first
    /// replay fills the batch).
    layout: Option<HeaderLayout>,
    /// Recycled buffer for [`for_each`](Self::for_each).
    scratch: Vec<u8>,
    /// Recycled [`FlightBatch`] wire-length rows — handed to the engine
    /// at replay time, returned here after the join.
    wire_scratch: Vec<[u32; 6]>,
    /// Recycled key buffer for [`sort_canonical`](Self::sort_canonical).
    sort_scratch: Vec<(u64, u32, u32)>,
    /// Recycled per-packet count buffer for the counting sort.
    count_scratch: Vec<u32>,
}

impl DeliveryBatch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Delivered copies in the batch.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Drop the entries but keep every buffer's capacity.
    pub fn clear(&mut self) {
        for seg in &mut self.segments {
            seg.clear();
        }
        self.order.clear();
        self.pkts.clear();
    }

    /// The deliveries as `(host, batch packet index)` in canonical
    /// order, without materializing any bytes.
    pub fn entries(&self) -> impl Iterator<Item = (HostId, u32)> + '_ {
        self.order.iter().map(|&(s, i)| {
            let seg = &self.segments[s as usize];
            (seg.hosts[i as usize], seg.pkt[i as usize])
        })
    }

    /// Visit every delivery in canonical order as `(host, wire bytes)`.
    /// Bytes are materialized into one internal scratch buffer that is
    /// recycled between calls to `f` — the whole walk stays in cache and
    /// allocates nothing once warm.
    pub fn for_each(&mut self, mut f: impl FnMut(HostId, &[u8])) {
        let Some(layout) = self.layout else {
            return; // never replayed into: no entries
        };
        let mut scratch = std::mem::take(&mut self.scratch);
        // Canonical order is packet-major, so every copy of one packet in
        // one state (the common case: a packet's whole host fan-out, all
        // `HOST_STRIPPED`) is consecutive — serialize once, replay the
        // scratch buffer for the rest of the run. Across packets, the
        // emit cache reuses the outer stack when only the entropy moved.
        let mut memo: Option<(u32, u8)> = None;
        let mut host_emit = HostEmitCache::new();
        for &(s, i) in &self.order {
            let seg = &self.segments[s as usize];
            let (i, host) = (i as usize, seg.hosts[i as usize]);
            let (pkt_i, state) = (seg.pkt[i], seg.state[i]);
            if memo != Some((pkt_i, state)) {
                scratch.clear();
                let pkt = &self.pkts[pkt_i as usize];
                if state == HOST_STRIPPED {
                    host_emit.append_host_to(pkt, &layout, &mut scratch);
                } else {
                    let mut p = pkt.clone();
                    p.popped = state;
                    p.append_to(&layout, &mut scratch);
                }
                memo = Some((pkt_i, state));
            }
            f(host, &scratch);
        }
        self.scratch = scratch;
    }

    /// Materialize into owned `(host, bytes)` pairs, same canonical order
    /// as [`for_each`](Self::for_each).
    pub fn to_vec(&mut self) -> Vec<(HostId, Vec<u8>)> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each(|h, b| out.push((h, b.to_vec())));
        out
    }

    /// Make sure exactly `n` segments exist, clearing all of them.
    fn reset(&mut self, n: usize, layout: HeaderLayout) {
        self.clear();
        self.segments.resize_with(n, Segment::default);
        self.layout = Some(layout);
    }

    /// Rebuild the canonical iteration order: `(packet, host, state)`.
    /// Entries with equal keys are byte-identical deliveries.
    fn sort_canonical(&mut self) {
        // A packet fans out to a handful of hosts, so the batch is a
        // counting sort by packet index (linear) followed by a tiny
        // `(host, state)` sort inside each packet's run — O(entries +
        // packets), never a comparison sort over the whole batch. Equal
        // keys are byte-identical deliveries, so within-run instability
        // and the shard-dependent scatter order cannot leak through.
        let total: usize = self.segments.iter().map(|s| s.hosts.len()).sum();
        let mut max_pkt = 0usize;
        for seg in &self.segments {
            for &p in &seg.pkt {
                max_pkt = max_pkt.max(p as usize);
            }
        }
        let mut counts = std::mem::take(&mut self.count_scratch);
        counts.clear();
        counts.resize(max_pkt + 2, 0u32);
        for seg in &self.segments {
            for &p in &seg.pkt {
                counts[p as usize + 1] += 1;
            }
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let mut keyed = std::mem::take(&mut self.sort_scratch);
        keyed.clear();
        keyed.resize(total, (0, 0, 0));
        for (si, seg) in self.segments.iter().enumerate() {
            for i in 0..seg.hosts.len() {
                let p = seg.pkt[i] as usize;
                let slot = counts[p] as usize;
                counts[p] += 1;
                let k = ((seg.hosts[i].0 as u64) << 8) | seg.state[i] as u64;
                keyed[slot] = (k, si as u32, i as u32);
            }
        }
        // After the scatter `counts[p]` is the end of packet `p`'s run.
        let mut run_start = 0usize;
        for &end in counts.iter().take(max_pkt + 1) {
            let run_end = end as usize;
            let run = &mut keyed[run_start..run_end];
            if run.len() > 1 {
                run.sort_unstable_by_key(|e| e.0);
            }
            run_start = run_end;
        }
        self.order.clear();
        self.order.extend(keyed.iter().map(|&(_, s, i)| (s, i)));
        self.sort_scratch = keyed;
        self.count_scratch = counts;
    }
}

/// The switch-ownership map for one shard count. Only this depends on the
/// shard count; where ports lead is the fabric's [`HopTable`].
#[derive(Clone, Debug)]
pub(crate) struct Partition {
    /// Dense switch index → (owning shard, index into that shard's
    /// switch slice). Local indices follow dense order within a shard,
    /// which is what makes reassembly a single in-order walk.
    owner: Vec<(u32, u32)>,
    /// Per shard, the dense ids of its switches in local-index order.
    dense_of: Vec<Vec<u32>>,
}

impl Partition {
    pub(crate) fn new(topo: &Clos, shards: usize) -> Partition {
        let mut part = Partition {
            owner: Vec::with_capacity(topo.num_switches()),
            dense_of: vec![Vec::new(); shards],
        };
        for dense in 0..topo.num_switches() as u32 {
            let shard = match dense_switch_ref(topo, dense) {
                SwitchRef::Leaf(l) => topo.pod_of_leaf(l).0 as usize % shards,
                SwitchRef::Spine(s) => topo.pod_of_spine(s).0 as usize % shards,
                SwitchRef::Core(c) => c.0 as usize % shards,
            };
            part.owner
                .push((shard as u32, part.dense_of[shard].len() as u32));
            part.dense_of[shard].push(dense);
        }
        part
    }
}

/// One destination switch's queued copies in struct-of-arrays form.
/// Entry `i` is `(port[i], state[i], pkt[i])` — the switch itself is the
/// bucket's identity, so one run through a bucket resolves the switch,
/// its group table, and its counters exactly once.
#[derive(Clone, Debug, Default)]
struct Bucket {
    port: Vec<u16>,
    state: Vec<u8>,
    pkt: Vec<u32>,
}

impl Bucket {
    #[inline]
    fn len(&self) -> usize {
        self.port.len()
    }

    #[inline]
    fn push(&mut self, port: u16, state: u8, pkt: u32) {
        self.port.push(port);
        self.state.push(state);
        self.pkt.push(pkt);
    }

    fn clear(&mut self) {
        self.port.clear();
        self.state.clear();
        self.pkt.clear();
    }
}

/// One worker's work queues and scratch. Everything is empty whenever a
/// worker is not running, so the solo worker's set lives on the `Fabric`
/// and only capacity carries over between calls.
#[derive(Clone, Debug, Default)]
pub(crate) struct Queues {
    /// Per-owned-switch pending copies; `active` is a stack of local
    /// indices whose bucket is non-empty, de-duplicated by `queued`.
    buckets: Vec<Bucket>,
    active: Vec<u32>,
    queued: Vec<bool>,
    /// The bucket currently being processed, swapped out of `buckets` so
    /// ring drains during the run land in a fresh bucket.
    run: Bucket,
    /// Child copies staged during a run and published together after it
    /// (one termination-counter increment covers them all).
    staged: Vec<ShardMsg>,
    /// Per-hop output scratch handed to `process_hops_hv`.
    hop_out: Vec<(u16, u8)>,
}

impl Queues {
    /// Queues for a worker owning `n` switches.
    pub(crate) fn new(n: usize) -> Queues {
        Queues {
            buckets: vec![Bucket::default(); n],
            queued: vec![false; n],
            ..Queues::default()
        }
    }

    /// Queue a copy into its destination switch's bucket, activating the
    /// bucket if it was empty.
    #[inline]
    fn enqueue(&mut self, part: &Partition, msg: ShardMsg) {
        let local = part.owner[msg.sw as usize].1 as usize;
        self.buckets[local].push(msg.port, msg.state, msg.pkt);
        if !self.queued[local] {
            self.queued[local] = true;
            self.active.push(local as u32);
        }
    }

    /// Drain every incoming ring, batch-at-a-time, into the buckets.
    fn drain_incoming(&mut self, rxs: &mut [SpscReceiver<ShardMsg>], part: &Partition) {
        for rx in rxs.iter_mut() {
            while let Some(msg) = rx.try_pop() {
                self.enqueue(part, msg);
            }
        }
    }
}

/// Which observers are armed for one replay call.
#[derive(Clone, Copy)]
struct Observe {
    /// Copy-tree trace session ([`Fabric::start_tree_trace`]).
    tree: bool,
    /// Per-shard flight-recorder ring capacity (0 = off).
    recorder_cap: usize,
    /// Wire capture ([`Fabric::start_capture`]).
    capture: bool,
    /// [`HopRecord`] logging ([`Fabric::inject_traced`]).
    hops: bool,
}

impl Observe {
    fn any(&self) -> bool {
        self.tree || self.recorder_cap > 0 || self.capture || self.hops
    }
}

/// One wire copy seen by an armed capture, ordered the way the capture
/// buffer is: by packet, then emitter, then output port.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct Tap {
    pkt: u32,
    /// Emitting switch's dense id + 1; 0 is the sending host's NIC.
    from: u32,
    port: u16,
    state: u8,
}

/// What one worker's armed observers recorded, stitched into the fabric
/// after the join.
struct Log {
    events: Vec<TraceEvent>,
    recorder: FlightRecorder,
    taps: Vec<Tap>,
    hops: Vec<(u32, u32, HopRecord)>,
}

impl Log {
    /// Record everything the armed observers want to know about one
    /// processed copy: `pkt` entered dense switch `sw` on `port_in` as
    /// `bytes_in` wire bytes and left as `outs`.
    #[cold]
    #[allow(clippy::too_many_arguments)]
    fn note_entry(
        &mut self,
        obs: Observe,
        topo: &Clos,
        hops: &HopTable,
        pkt: u32,
        sw: u32,
        port_in: u16,
        bytes_in: u32,
        outs: &[(u16, u8)],
    ) {
        for &(port, state) in outs {
            if obs.tree || obs.recorder_cap > 0 {
                let child = match hops.hop(sw, port) {
                    PlannedHop::Host(h) => HOST_NODE_BIT | h.0,
                    PlannedHop::Switch { dense, .. } => dense,
                };
                let ev = TraceEvent {
                    pkt,
                    parent: sw,
                    child,
                    state,
                };
                if obs.tree {
                    self.events.push(ev);
                }
                if obs.recorder_cap > 0 {
                    self.recorder.record(ev);
                }
            }
            if obs.capture {
                self.taps.push(Tap {
                    pkt,
                    from: sw + 1,
                    port,
                    state,
                });
            }
        }
        if obs.hops {
            let record = HopRecord {
                switch: dense_switch_ref(topo, sw),
                ingress_port: port_in as usize,
                bytes_in: bytes_in as usize,
                egress_ports: outs.iter().map(|&(p, _)| p as usize).collect(),
            };
            self.hops.push((pkt, sw, record));
        }
    }
}

/// What a finished worker hands back.
struct Done {
    /// The worker's clone of the batch (`popped` holds scratch).
    pkts: Vec<FlightPacket>,
    /// Private link counters, absorbed into `Fabric::stats`.
    stats: FabricStats,
    /// Deliveries: `(host, packet, state)` triples, no bytes.
    seg: Segment,
    /// Copies this worker pushed across a shard boundary.
    cross_msgs: u64,
    log: Log,
}

/// Wire bytes of a copy in hop state `state`, from its packet's
/// precomputed [`FlightBatch`] length row.
#[inline]
fn row_len(row: &[u32; 6], state: u8) -> u32 {
    if state == HOST_STRIPPED {
        row[5]
    } else {
        row[state as usize]
    }
}

impl Fabric {
    /// The replay engine's entry point: drive a batch of pre-parsed
    /// packets through `shards` workers (0 = one per available core; one
    /// shard runs inline on this thread), filling `out` (which is cleared
    /// first; its buffers are reused, so repeated replay into the same
    /// `DeliveryBatch` is allocation-free once warm).
    ///
    /// Counters, the canonical delivery sequence and everything an armed
    /// capture, trace or hop log records are identical for every shard
    /// count.
    pub fn replay_flights_sharded(
        &mut self,
        flights: &[(HostId, FlightPacket)],
        shards: usize,
        out: &mut DeliveryBatch,
    ) {
        let shards = resolve_threads(shards).max(1);
        let m = metrics();
        m.shard_batches.inc();
        let obs = Observe {
            tree: self.tree.is_some(),
            recorder_cap: self.recorder_cap,
            capture: self.capture.is_some(),
            hops: self.hop_log.is_some(),
        };
        // A trace session numbers packets across calls: this batch's
        // packet `i` is the session's packet `trace_base + i`.
        let trace_base = match &mut self.tree {
            Some(t) => {
                let base = t.next_pkt;
                t.next_pkt += flights.len() as u32;
                base
            }
            None => 0,
        };
        out.reset(shards, self.layout);
        // Build the SoA batch on the `DeliveryBatch`'s recycled buffers:
        // the packet slots come back for materialization anyway, and the
        // wire-length rows are returned as scratch after the join.
        let mut batch = FlightBatch::recycle(
            std::mem::take(&mut out.pkts),
            std::mem::take(&mut out.wire_scratch),
        );
        let mut seeds = Vec::with_capacity(flights.len());
        let mut taps = Vec::new();
        let mut ingress_bytes = 0u64;
        for (from, pkt) in flights {
            let leaf = self.topo.leaf_of_host(*from);
            let idx = batch.len();
            batch.push(pkt.clone(), &self.layout);
            ingress_bytes += batch.wire_len(idx, pkt.popped) as u64;
            let seed = ShardMsg {
                sw: leaf.0,
                port: self.topo.host_port_on_leaf(*from) as u16,
                state: pkt.popped,
                pkt: idx as u32,
            };
            if obs.capture {
                taps.push(Tap {
                    pkt: seed.pkt,
                    from: 0,
                    port: seed.port,
                    state: seed.state,
                });
            }
            if self.down.contains(&SwitchRef::Leaf(leaf)) {
                continue; // failed ingress leaf: lost on arrival
            }
            if let Some(t) = &mut self.tree {
                t.events.push(TraceEvent {
                    pkt: trace_base + seed.pkt,
                    parent: TRACE_ROOT,
                    child: seed.sw,
                    state: seed.state,
                });
            }
            seeds.push(seed);
        }
        // Ingress accounting, batched: one update per replay call, not
        // two atomic RMWs per packet.
        self.stats.host_to_leaf_bytes += ingress_bytes;
        self.stats.packets_on_links += flights.len() as u64;
        m.host_to_leaf_bytes.add(ingress_bytes);
        m.packets_on_links.add(flights.len() as u64);

        // Split the batch: packet slots go to the workers (moved into a
        // solo worker, cloned per worker otherwise), the wire-length rows
        // are immutable and shared by reference.
        let (pkts, wire) = batch.into_parts();
        // Each worker fills one of `out`'s (cleared) segments, so a reused
        // `DeliveryBatch` hands the previous batch's capacity back.
        let segments = out.segments.iter_mut().map(std::mem::take);
        let done = if shards == 1 {
            self.run_solo(pkts, &wire, seeds, segments, obs)
        } else {
            self.run_sharded(shards, pkts, &wire, seeds, segments, obs)
        };

        let mut cross_msgs = 0u64;
        let mut recorders = Vec::new();
        let mut hop_log = Vec::new();
        for (i, mut r) in done.into_iter().enumerate() {
            self.stats.absorb(&r.stats);
            out.segments[i] = r.seg;
            cross_msgs += r.cross_msgs;
            if let Some(t) = &mut self.tree {
                for ev in &mut r.log.events {
                    ev.pkt += trace_base;
                }
                t.events.extend(r.log.events);
            }
            if obs.recorder_cap > 0 {
                recorders.push(r.log.recorder);
            }
            taps.extend(r.log.taps);
            hop_log.extend(r.log.hops);
            if i == 0 {
                // Any worker's batch clone serves materialization (the
                // packets differ only in `popped` scratch, which the
                // per-entry state overrides).
                out.pkts = r.pkts;
            }
        }
        if obs.recorder_cap > 0 {
            self.flight_recorders = recorders;
        }
        if let Some((limit, captured)) = &mut self.capture {
            taps.sort_unstable();
            let free = limit.saturating_sub(captured.len());
            for tap in taps.iter().take(free) {
                captured.push(out.pkts[tap.pkt as usize].copy_bytes(tap.state, &self.layout));
                m.replay_materialized.inc();
            }
        }
        if let Some(log) = &mut self.hop_log {
            hop_log.sort_by_key(|(pkt, sw, r)| (*pkt, *sw, r.ingress_port));
            log.extend(hop_log.into_iter().map(|(_, _, r)| r));
        }
        m.shard_cross_msgs.add(cross_msgs);
        out.wire_scratch = wire;
        out.sort_canonical();
    }

    /// One shard: no rings, no threads, no termination counter — the
    /// worker loop runs on this thread over the switches in place, with
    /// the batch moved in (no clone) and the fabric's own queues.
    fn run_solo(
        &mut self,
        pkts: Vec<FlightPacket>,
        wire: &[[u32; 6]],
        seeds: Vec<ShardMsg>,
        mut segments: impl Iterator<Item = Segment>,
        obs: Observe,
    ) -> Vec<Done> {
        let (part, queues) = &mut self.solo;
        vec![run_worker(
            &mut self.switches,
            queues,
            part,
            0,
            &self.hops,
            &self.topo,
            seeds,
            Vec::new(),
            Vec::new(),
            segments.next().expect("one segment"),
            pkts,
            wire,
            &self.down,
            &Pending::new(0),
            obs,
        )]
    }

    /// Several shards: move the switches out into per-worker vectors, run
    /// the batch to completion on scoped threads, move the switches back.
    fn run_sharded(
        &mut self,
        shards: usize,
        pkts: Vec<FlightPacket>,
        wire: &[[u32; 6]],
        seeds: Vec<ShardMsg>,
        segments: impl Iterator<Item = Segment>,
        obs: Observe,
    ) -> Vec<Done> {
        let part = &Partition::new(&self.topo, shards);
        // Take the switches apart: each shard's vector holds its owned
        // switches in dense order (matching `Partition::owner`).
        let mut shard_switches: Vec<Vec<NetworkSwitch>> = vec![Vec::new(); shards];
        for (dense, sw) in std::mem::take(&mut self.switches).into_iter().enumerate() {
            shard_switches[part.owner[dense].0 as usize].push(sw);
        }

        // Copies queued anywhere but not yet processed. Seeded before the
        // workers start; producers publish before making a child copy
        // visible and retire after finishing an entry, so quiescence means
        // globally done. The protocol lives in `elmo_core::sync::Pending`,
        // where the `elmo-race` model checker exercises it exhaustively.
        let pending: &Pending = &Pending::new(seeds.len());

        // Seed each shard's local queue with the batch entries whose
        // ingress leaf it owns.
        let mut seed_per_shard: Vec<Vec<ShardMsg>> = vec![Vec::new(); shards];
        for msg in seeds {
            seed_per_shard[part.owner[msg.sw as usize].0 as usize].push(msg);
        }

        // One SPSC ring per ordered worker pair. `txs[i][j]` is worker
        // i's sender toward worker j (None for i == j); `rxs[j]` holds
        // worker j's receive ends.
        let mut txs: Vec<Vec<Option<SpscSender<ShardMsg>>>> =
            (0..shards).map(|_| Vec::new()).collect();
        let mut rxs: Vec<Vec<SpscReceiver<ShardMsg>>> = (0..shards).map(|_| Vec::new()).collect();
        for (i, tx_row) in txs.iter_mut().enumerate() {
            for (j, rx_row) in rxs.iter_mut().enumerate() {
                if i == j {
                    tx_row.push(None);
                } else {
                    let (tx, rx) = spsc(RING_CAPACITY);
                    tx_row.push(Some(tx));
                    rx_row.push(rx);
                }
            }
        }
        let (pkts, hops, topo, down) = (&pkts, &self.hops, &self.topo, &self.down);
        let mut done = Vec::with_capacity(shards);
        std::thread::scope(|scope| {
            let handles: Vec<_> = shard_switches
                .iter_mut()
                .zip(txs)
                .zip(rxs)
                .zip(seed_per_shard)
                .zip(segments)
                .enumerate()
                .map(
                    |(shard, ((((switches, my_txs), my_rxs), my_seeds), my_seg))| {
                        scope.spawn(move || {
                            let mut queues = Queues::new(switches.len());
                            run_worker(
                                switches,
                                &mut queues,
                                part,
                                shard,
                                hops,
                                topo,
                                my_seeds,
                                my_txs,
                                my_rxs,
                                my_seg,
                                pkts.clone(),
                                wire,
                                down,
                                pending,
                                obs,
                            )
                        })
                    },
                )
                .collect();
            for h in handles {
                done.push(h.join().expect("shard worker panicked"));
            }
        });

        // Reassemble the fabric: local indices were assigned in dense
        // order, so one in-order walk over each shard's vector puts every
        // switch back where it came from.
        let mut iters: Vec<_> = shard_switches.into_iter().map(Vec::into_iter).collect();
        self.switches.extend(part.owner.iter().map(|&(shard, _)| {
            iters[shard as usize]
                .next()
                .expect("every owned switch returned")
        }));
        done
    }
}

/// One shard's event loop, organized as runs: pick a non-empty bucket,
/// swap it out, and push every copy in it through the owned switch in a
/// single borrow. The switch and its group table, the
/// failed-switch check, the termination counter (two atomic RMWs per
/// run), and the global obs counters (one `add` per touched counter per
/// run) are all amortized over the run; per-copy work is an array scan:
/// bucket SoA in, `hop_out` pairs through the compiled hop table, wire
/// lengths from the batch's precomputed rows.
///
/// This is the only place a copy is popped off a queue and handed to a
/// switch. `switches` are this shard's, in local-index order; a solo
/// worker (`rxs` empty) terminates when its buckets run dry and never
/// touches `pending`.
#[allow(clippy::too_many_arguments)]
fn run_worker(
    switches: &mut [NetworkSwitch],
    q: &mut Queues,
    part: &Partition,
    shard: usize,
    hops: &HopTable,
    topo: &Clos,
    seeds: Vec<ShardMsg>,
    txs: Vec<Option<SpscSender<ShardMsg>>>,
    mut rxs: Vec<SpscReceiver<ShardMsg>>,
    seg: Segment,
    batch: Vec<FlightPacket>,
    wire: &[[u32; 6]],
    down: &std::collections::BTreeSet<SwitchRef>,
    pending: &Pending,
    obs: Observe,
) -> Done {
    let m = metrics();
    let solo = rxs.is_empty();
    let watching = obs.any();
    let dense_of = &part.dense_of[shard];
    let mut w = Done {
        pkts: batch,
        stats: FabricStats::default(),
        seg,
        cross_msgs: 0,
        log: Log {
            events: Vec::new(),
            recorder: FlightRecorder::new(obs.recorder_cap),
            taps: Vec::new(),
            hops: Vec::new(),
        },
    };
    for msg in seeds {
        q.enqueue(part, msg);
    }
    loop {
        q.drain_incoming(&mut rxs, part);
        let Some(local) = q.active.pop() else {
            if solo || pending.quiescent() {
                break;
            }
            std::hint::spin_loop();
            continue;
        };
        let li = local as usize;
        q.queued[li] = false;
        // Swap the bucket out: a switch never forwards to itself, so the
        // run is fixed the moment it starts; ring drains during the run
        // land in the fresh bucket and re-activate the switch.
        std::mem::swap(&mut q.buckets[li], &mut q.run);
        let run_len = q.run.len();
        let dense_sw = dense_of[li];
        if down.contains(&dense_switch_ref(topo, dense_sw)) {
            // Failed switch: the whole run is lost here.
            if !solo {
                pending.retire(run_len);
            }
            q.run.clear();
            continue;
        }
        // Per-run accumulators, flushed once after the run.
        let mut links = 0u64;
        let mut tier_bytes = [0u64; 4];
        let mut host_bytes = 0u64;
        let mut delivered = 0u64;
        {
            // Split the queues' fields so the run, the buckets and the
            // scratch buffers can be borrowed simultaneously.
            let Queues {
                buckets,
                active,
                queued,
                run,
                staged,
                hop_out,
            } = &mut *q;
            let node = &mut switches[li];
            staged.clear();
            for e in 0..run_len {
                let (port, state, pkt_i) = (run.port[e], run.state[e], run.pkt[e]);
                let work = &mut w.pkts[pkt_i as usize];
                work.popped = state;
                let row = &wire[pkt_i as usize];
                let hv = row[state as usize] as usize - work.payload.len();
                hop_out.clear();
                node.process_hops_hv(port as usize, work, hv, hop_out);
                for &(port_out, out_state) in hop_out.iter() {
                    links += 1;
                    let n = row_len(row, out_state) as u64;
                    match hops.hop(dense_sw, port_out) {
                        PlannedHop::Host(h) => {
                            host_bytes += n;
                            delivered += 1;
                            w.seg.push(h, pkt_i, out_state);
                        }
                        PlannedHop::Switch { dense, port, tier } => {
                            debug_assert_ne!(
                                out_state, HOST_STRIPPED,
                                "stripped copies go to hosts"
                            );
                            tier_bytes[tier as usize] += n;
                            if solo {
                                // No rings, no termination counter: queue the
                                // child straight into its bucket. A switch
                                // never forwards to itself, so the running
                                // bucket is never the target of its own run,
                                // and without concurrent drains the resulting
                                // bucket/active sequence is identical to the
                                // staged drain below — minus one write+read
                                // pass over every cross-switch copy.
                                let local = part.owner[dense as usize].1 as usize;
                                buckets[local].push(port, out_state, pkt_i);
                                if !queued[local] {
                                    queued[local] = true;
                                    active.push(local as u32);
                                }
                            } else {
                                staged.push(ShardMsg {
                                    sw: dense,
                                    port,
                                    state: out_state,
                                    pkt: pkt_i,
                                });
                            }
                        }
                    }
                }
                if watching {
                    let bytes_in = row[state as usize];
                    w.log
                        .note_entry(obs, topo, hops, pkt_i, dense_sw, port, bytes_in, hop_out);
                }
            }
            // One guarded add per touched counter for the whole run.
            node.flush_global_stats();
        }
        // Count every staged child before any becomes visible, then
        // route them; the run's own entries are retired only after
        // both, so `pending` can never read zero while work exists.
        if !solo && !q.staged.is_empty() {
            pending.publish(q.staged.len());
        }
        for i in 0..q.staged.len() {
            let msg = q.staged[i];
            let owner = part.owner[msg.sw as usize].0 as usize;
            match &txs[owner] {
                None => q.enqueue(part, msg),
                Some(tx) => {
                    w.cross_msgs += 1;
                    let mut msg = msg;
                    // Full ring: drain our own inputs while retrying, so
                    // no cycle of full rings can stall every producer at
                    // once.
                    while let Err(back) = tx.try_push(msg) {
                        msg = back;
                        q.drain_incoming(&mut rxs, part);
                        std::hint::spin_loop();
                    }
                }
            }
        }
        q.staged.clear();
        w.stats.packets_on_links += links;
        if links > 0 {
            m.packets_on_links.add(links);
        }
        if delivered > 0 {
            w.stats.leaf_to_host_bytes += host_bytes;
            m.leaf_to_host_bytes.add(host_bytes);
            m.replay_materialized.add(delivered);
        }
        let [ls, sl, sc, cs] = tier_bytes;
        if ls > 0 {
            w.stats.leaf_to_spine_bytes += ls;
            m.leaf_to_spine_bytes.add(ls);
        }
        if sl > 0 {
            w.stats.spine_to_leaf_bytes += sl;
            m.spine_to_leaf_bytes.add(sl);
        }
        if sc > 0 {
            w.stats.spine_to_core_bytes += sc;
            m.spine_to_core_bytes.add(sc);
        }
        if cs > 0 {
            w.stats.core_to_spine_bytes += cs;
            m.core_to_spine_bytes.add(cs);
        }
        if !solo {
            pending.retire(run_len);
        }
        q.run.clear();
    }
    w
}
