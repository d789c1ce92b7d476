//! The replay engine: the one traversal of the fabric, on the calling
//! thread. A switch's decision is a pure function of the header and its
//! own group table, so nothing is shared between switches and nothing
//! here needs a second thread, a ring or an atomic (DESIGN.md §8 records
//! the measurement that retired the multi-worker variant).
//!
//! # Deliveries: zero-copy to the very end
//!
//! A delivered copy is fully determined by `(host, batch packet index,
//! pop state)` — the wire bytes are a pure function of the shared
//! `FlightPacket` and the `u8` state. So the engine records exactly that
//! triple, in struct-of-arrays form, and [`DeliveryBatch`] materializes
//! bytes only when a consumer asks ([`DeliveryBatch::for_each`] through
//! one recycled scratch buffer, [`DeliveryBatch::to_vec`] into owned
//! vectors). Replaying a 20k-packet batch therefore touches a few hundred
//! kilobytes of delivery state instead of streaming ~75 MB of packet
//! bytes through cold memory.
//!
//! # Run grouping
//!
//! Queued copies are not a single queue: each switch has its own
//! struct-of-arrays *bucket*, indexed by dense switch id, and the engine
//! drains one whole bucket per iteration (taking it out first — a
//! switch never forwards to itself, so the run cannot grow under its own
//! feet, and the emptied buffer goes back where it came from).
//! Everything per-switch is then amortized over the run instead of paid
//! per copy: the switch borrow, its group table's cache lines, the
//! failed-switch check, and the global obs counters (one `add` per
//! touched counter per run). Copy lengths come from the batch's
//! precomputed [`FlightBatch`] wire-length rows, and output ports resolve
//! through the fabric's compiled [`HopTable`] — the inner loop never
//! walks a header or the topology math.
//!
//! # Observation
//!
//! Copy-tree tracing, the flight recorder, pcap capture and
//! [`HopRecord`] logging all hang off one per-copy-entry test
//! ([`Observe::any`]) into a `#[cold]` recorder; with none armed that
//! test is all the engine pays. Capture and hop records are appended in
//! orders that depend only on (packet, switch, port), not on the order
//! buckets happened to drain.
//!
//! # Determinism
//!
//! The traversal is a fixed function of (topology, rules, batch). Bucket
//! drain order decides only the order deliveries are *produced* in, so
//! every delivery carries its batch index and the final iteration order
//! is the canonical sort by `(packet, host, state)` — the order
//! `tests/replay_identity.rs` pins against the executable spec in
//! `tests/spec/`.

use elmo_core::HeaderLayout;
use elmo_topology::{HostId, SwitchRef};

use elmo_obs::{FlightRecorder, TraceEvent, HOST_NODE_BIT, TRACE_ROOT};

use crate::fabric::{dense_switch_ref, metrics, Fabric, HopRecord, HopTable, PlannedHop};
use crate::netswitch::HOST_STRIPPED;
use crate::packet::{FlightBatch, FlightPacket, HostEmitCache};

/// Host deliveries of one replayed batch, kept zero-copy: entry `i` is
/// `(hosts[i], pkt[i], state[i])` — host, batch packet index, pop state —
/// beside the batch's [`FlightPacket`]s, and wire bytes are materialized
/// only when read. Iteration follows the canonical `(packet, host, state)`
/// order.
///
/// Reuse one `DeliveryBatch` across [`Fabric::replay`] calls and entries,
/// order index, the batch and the materialization scratch all keep their
/// capacity: a warm call allocates only the counting sort's count buffer.
#[derive(Clone, Debug, Default)]
pub struct DeliveryBatch {
    hosts: Vec<HostId>,
    pkt: Vec<u32>,
    state: Vec<u8>,
    /// Canonical iteration order, as entry indices.
    order: Vec<u32>,
    /// The replayed batch, for on-demand materialization. `popped` holds
    /// engine scratch — the per-entry `state` is authoritative.
    batch: FlightBatch,
    /// Captured from the fabric at replay time (`None` until the first
    /// replay fills the batch).
    layout: Option<HeaderLayout>,
    /// Recycled buffer for [`for_each`](Self::for_each).
    scratch: Vec<u8>,
    /// Recycled key buffer for [`sort_canonical`](Self::sort_canonical).
    sort_scratch: Vec<(u64, u32)>,
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
        self.hosts.clear();
        self.pkt.clear();
        self.state.clear();
        self.order.clear();
        self.batch.clear();
    }

    /// The deliveries as `(host, batch packet index)` in canonical
    /// order, without materializing any bytes.
    pub fn entries(&self) -> impl Iterator<Item = (HostId, u32)> + '_ {
        self.order
            .iter()
            .map(|&i| (self.hosts[i as usize], self.pkt[i as usize]))
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
        for &i in &self.order {
            let (i, host) = (i as usize, self.hosts[i as usize]);
            let (pkt_i, state) = (self.pkt[i], self.state[i]);
            if memo != Some((pkt_i, state)) {
                scratch.clear();
                let pkt = self.batch.pkt(pkt_i as usize);
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

    /// Rebuild the canonical iteration order: `(packet, host, state)`.
    /// Entries with equal keys are byte-identical deliveries.
    fn sort_canonical(&mut self) {
        // A packet fans out to a handful of hosts, so the batch is a
        // counting sort by packet index (linear) followed by a tiny
        // `(host, state)` sort inside each packet's run — O(entries +
        // packets), never a comparison sort over the whole batch. Equal
        // keys are byte-identical deliveries, so within-run instability
        // and the bucket drain order cannot leak through.
        let max_pkt = self.pkt.iter().copied().max().unwrap_or(0) as usize;
        // The one buffer a call allocates (4 bytes per packet, zeroed
        // either way). Deliberately not recycled: `Fabric::replay` has
        // just dropped the previous batch's packets, usually as their last
        // owner, and glibc leaves such small freed chunks uncoalesced
        // until the next request of a kilobyte or more. With nothing in
        // the call making one, that debt lands on whoever allocates next
        // (measured: the caller's encap and parse x1.4–1.8, group-create
        // p99 +37% on `mixed_dense`; DESIGN.md §8).
        let mut counts = vec![0u32; max_pkt + 2];
        for &p in &self.pkt {
            counts[p as usize + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let mut keyed = std::mem::take(&mut self.sort_scratch);
        keyed.clear();
        keyed.resize(self.hosts.len(), (0, 0));
        for i in 0..self.hosts.len() {
            let p = self.pkt[i] as usize;
            let slot = counts[p] as usize;
            counts[p] += 1;
            let k = ((self.hosts[i].0 as u64) << 8) | self.state[i] as u64;
            keyed[slot] = (k, i as u32);
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
        self.order.extend(keyed.iter().map(|&(_, i)| i));
        self.sort_scratch = keyed;
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

/// The engine's work queues and scratch. Everything is empty between
/// replay calls; only capacity carries over, so a call costs O(copies),
/// not O(switches).
#[derive(Clone, Debug, Default)]
pub(crate) struct Queues {
    /// Per-switch pending copies, indexed by dense switch id; `active` is
    /// a stack of the ids whose bucket is non-empty, de-duplicated by
    /// `queued`.
    buckets: Vec<Bucket>,
    active: Vec<u32>,
    queued: Vec<bool>,
    /// Per-hop output scratch handed to `process_hops_hv` (taken out for
    /// the duration of a call).
    hop_out: Vec<(u16, u8)>,
}

impl Queues {
    /// Queues for a fabric of `n` switches.
    pub(crate) fn new(n: usize) -> Queues {
        Queues {
            buckets: vec![Bucket::default(); n],
            queued: vec![false; n],
            ..Queues::default()
        }
    }

    /// Queue a copy into dense switch `sw`'s bucket, activating the
    /// bucket if it was empty.
    #[inline]
    fn enqueue(&mut self, sw: u32, port: u16, state: u8, pkt: u32) {
        let si = sw as usize;
        self.buckets[si].push(port, state, pkt);
        if !self.queued[si] {
            self.queued[si] = true;
            self.active.push(sw);
        }
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

/// The armed observers of one replay call; an observer that is off is
/// `None` (the recorder: capacity 0).
struct Log<'a> {
    /// A trace session numbers packets across calls: this batch's packet
    /// `i` is the session's packet `base + i` (0 with no session armed).
    base: u32,
    /// Copy-tree trace session ([`Fabric::start_tree_trace`]).
    tree: Option<&'a mut Vec<TraceEvent>>,
    /// The fabric's flight recorder ([`Fabric::arm_flight_recorder`]).
    recorder: &'a mut FlightRecorder,
    /// Wire capture ([`Fabric::start_capture`]).
    taps: Option<Vec<Tap>>,
    /// [`HopRecord`] logging ([`Fabric::inject_traced`]), keyed by
    /// (packet, dense switch) for the final ordering.
    hops: Option<Vec<(u32, u32, HopRecord)>>,
}

impl Log<'_> {
    fn armed(&self) -> bool {
        self.tree.is_some()
            || self.recorder.capacity() > 0
            || self.taps.is_some()
            || self.hops.is_some()
    }

    /// Record everything the armed observers want to know about one
    /// processed copy: `pkt` entered dense switch `sw` on `port_in` as
    /// `bytes_in` wire bytes and left as `outs`.
    #[cold]
    #[allow(clippy::too_many_arguments)]
    fn note_entry(
        &mut self,
        hop_table: &HopTable,
        topo: &elmo_topology::Clos,
        pkt: u32,
        sw: u32,
        port_in: u16,
        bytes_in: u32,
        outs: &[(u16, u8)],
    ) {
        for &(port, state) in outs {
            if self.tree.is_some() || self.recorder.capacity() > 0 {
                let child = match hop_table.hop(sw, port) {
                    PlannedHop::Host(h) => HOST_NODE_BIT | h.0,
                    PlannedHop::Switch { dense, .. } => dense,
                };
                let ev = TraceEvent {
                    pkt: self.base + pkt,
                    parent: sw,
                    child,
                    state,
                };
                if let Some(events) = &mut self.tree {
                    events.push(ev);
                }
                if self.recorder.capacity() > 0 {
                    self.recorder.record(ev);
                }
            }
            if let Some(taps) = &mut self.taps {
                taps.push(Tap {
                    pkt,
                    from: sw + 1,
                    port,
                    state,
                });
            }
        }
        if let Some(hops) = &mut self.hops {
            let record = HopRecord {
                switch: dense_switch_ref(topo, sw),
                ingress_port: port_in as usize,
                bytes_in: bytes_in as usize,
                egress_ports: outs.iter().map(|&(p, _)| p as usize).collect(),
            };
            hops.push((pkt, sw, record));
        }
    }
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
    /// The replay engine: drive a batch of pre-parsed packets through the
    /// fabric, filling `out` (which is cleared first; its buffers are
    /// reused, so a warm replay into the same `DeliveryBatch` makes one
    /// allocation, the sort's count buffer, whatever the batch size).
    ///
    /// Organized as runs: pick a non-empty bucket, take it out, and push
    /// every copy in it through its switch in a single borrow. Per-copy
    /// work is an array scan: bucket SoA in, `hop_out` pairs through the
    /// compiled hop table, wire lengths from the batch's precomputed
    /// rows. This is the only place a copy is popped off a queue and
    /// handed to a switch.
    pub fn replay(&mut self, flights: &[(HostId, FlightPacket)], out: &mut DeliveryBatch) {
        let m = metrics();
        m.shard_batches.inc();
        let Fabric {
            topo,
            layout,
            switches,
            hops,
            queues: q,
            down,
            hop_log,
            tree,
            recorder,
            capture,
            stats,
        } = self;
        let mut log = Log {
            base: 0,
            tree: None,
            recorder,
            taps: capture.is_some().then(Vec::new),
            hops: hop_log.is_some().then(Vec::new),
        };
        if let Some(t) = tree {
            log.base = t.next_pkt;
            t.next_pkt += flights.len() as u32;
            log.tree = Some(&mut t.events);
        }
        out.clear();
        out.layout = Some(*layout);

        // Parse-side accounting and the seeds: each packet enters at its
        // ingress leaf's bucket.
        let mut ingress_bytes = 0u64;
        for (from, pkt) in flights {
            let leaf = topo.leaf_of_host(*from);
            let idx = out.batch.len();
            out.batch.push(pkt.clone(), layout);
            ingress_bytes += out.batch.wire_len(idx, pkt.popped) as u64;
            let (idx, port) = (idx as u32, topo.host_port_on_leaf(*from) as u16);
            if let Some(taps) = &mut log.taps {
                taps.push(Tap {
                    pkt: idx,
                    from: 0,
                    port,
                    state: pkt.popped,
                });
            }
            if down.contains(&SwitchRef::Leaf(leaf)) {
                continue; // failed ingress leaf: lost on arrival
            }
            if let Some(events) = &mut log.tree {
                events.push(TraceEvent {
                    pkt: log.base + idx,
                    parent: TRACE_ROOT,
                    child: leaf.0,
                    state: pkt.popped,
                });
            }
            q.enqueue(leaf.0, port, pkt.popped, idx);
        }
        // Ingress accounting, batched: one update per replay call.
        stats.host_to_leaf_bytes += ingress_bytes;
        stats.packets_on_links += flights.len() as u64;
        m.host_to_leaf_bytes.add(ingress_bytes);
        m.packets_on_links.add(flights.len() as u64);

        let (pkts, wire) = out.batch.parts_mut();
        let watching = log.armed();
        let mut hop_out = std::mem::take(&mut q.hop_out);
        while let Some(dense_sw) = q.active.pop() {
            let si = dense_sw as usize;
            q.queued[si] = false;
            // Take the bucket out: a switch never forwards to itself, so
            // the run is fixed the moment it starts and its slot stays
            // empty until the cleared buffer is put back.
            let mut run = std::mem::take(&mut q.buckets[si]);
            if down.contains(&dense_switch_ref(topo, dense_sw)) {
                // Failed switch: the whole run is lost here.
                run.clear();
                q.buckets[si] = run;
                continue;
            }
            // Per-run accumulators, flushed once after the run.
            let mut links = 0u64;
            let mut tier_bytes = [0u64; 4];
            let mut host_bytes = 0u64;
            let mut delivered = 0u64;
            let node = &mut switches[si];
            for e in 0..run.len() {
                let (port, state, pkt_i) = (run.port[e], run.state[e], run.pkt[e]);
                let work = &mut pkts[pkt_i as usize];
                work.popped = state;
                let row = &wire[pkt_i as usize];
                let hv = row[state as usize] as usize - work.payload.len();
                hop_out.clear();
                node.process_hops_hv(port as usize, work, hv, &mut hop_out);
                for &(port_out, out_state) in hop_out.iter() {
                    links += 1;
                    let n = row_len(row, out_state) as u64;
                    match hops.hop(dense_sw, port_out) {
                        PlannedHop::Host(h) => {
                            host_bytes += n;
                            delivered += 1;
                            out.hosts.push(h);
                            out.pkt.push(pkt_i);
                            out.state.push(out_state);
                        }
                        PlannedHop::Switch { dense, port, tier } => {
                            debug_assert_ne!(
                                out_state, HOST_STRIPPED,
                                "stripped copies go to hosts"
                            );
                            tier_bytes[tier as usize] += n;
                            q.enqueue(dense, port, out_state, pkt_i);
                        }
                    }
                }
                if watching {
                    let bytes_in = row[state as usize];
                    log.note_entry(hops, topo, pkt_i, dense_sw, port, bytes_in, &hop_out);
                }
            }
            // One guarded add per touched counter for the whole run.
            node.flush_global_stats();
            run.clear();
            debug_assert_eq!(q.buckets[si].len(), 0, "a switch never forwards to itself");
            q.buckets[si] = run;

            stats.packets_on_links += links;
            if links > 0 {
                m.packets_on_links.add(links);
            }
            if delivered > 0 {
                stats.leaf_to_host_bytes += host_bytes;
                m.leaf_to_host_bytes.add(host_bytes);
                m.replay_materialized.add(delivered);
            }
            let [ls, sl, sc, cs] = tier_bytes;
            if ls > 0 {
                stats.leaf_to_spine_bytes += ls;
                m.leaf_to_spine_bytes.add(ls);
            }
            if sl > 0 {
                stats.spine_to_leaf_bytes += sl;
                m.spine_to_leaf_bytes.add(sl);
            }
            if sc > 0 {
                stats.spine_to_core_bytes += sc;
                m.spine_to_core_bytes.add(sc);
            }
            if cs > 0 {
                stats.core_to_spine_bytes += cs;
                m.core_to_spine_bytes.add(cs);
            }
        }

        if let (Some((limit, captured)), Some(mut taps)) = (capture.as_mut(), log.taps) {
            taps.sort_unstable();
            let free = limit.saturating_sub(captured.len());
            for tap in taps.iter().take(free) {
                captured.push(pkts[tap.pkt as usize].copy_bytes(tap.state, layout));
                m.replay_materialized.inc();
            }
        }
        if let (Some(hop_log), Some(mut seen)) = (hop_log.as_mut(), log.hops) {
            seen.sort_by_key(|(pkt, sw, r)| (*pkt, *sw, r.ingress_port));
            hop_log.extend(seen.into_iter().map(|(_, _, r)| r));
        }
        q.hop_out = hop_out;
        out.sort_canonical();
    }

    /// The name and arity `bench/src/sut.rs` binds; deleted when the
    /// benchmark rebinds to [`replay`](Self::replay) (ROADMAP item 1).
    #[doc(hidden)]
    pub fn replay_flights_sharded(
        &mut self,
        flights: &[(HostId, FlightPacket)],
        _shards: usize,
        out: &mut DeliveryBatch,
    ) {
        self.replay(flights, out)
    }
}
