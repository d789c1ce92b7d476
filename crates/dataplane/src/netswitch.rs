//! PISA-style network switch model (paper §4.1).
//!
//! A network switch processes an Elmo packet in the same stages as the
//! paper's P4 program on RMT/Tofino:
//!
//! 1. **Parser** — walks the outer stack and the p-rule list, doing
//!    match-and-set on the switch's own identifier. The parser's header
//!    vector is bounded (512 bytes on RMT); packets whose headers exceed it
//!    are dropped and counted, modeling the hardware limit.
//! 2. **Ingress pipeline** — if the parser matched a p-rule, its bitmap goes
//!    straight to the queue manager (`bitmap_port_select`); otherwise the
//!    group table is consulted for an s-rule keyed on the outer destination
//!    IP; otherwise the default p-rule applies; otherwise the packet drops.
//! 3. **Egress pipeline** — pops every p-rule section irrelevant to the
//!    next-hop layer (D2d), and strips the Elmo header entirely on copies
//!    headed to hosts so receiving hypervisors skip the decap work.
//!
//! The same switch also forwards ordinary unicast VXLAN packets (used by the
//! unicast/overlay baselines and by Elmo's transient unicast fallback).

use std::net::Ipv4Addr;

use elmo_core::{pop, PortBitmap};
use elmo_net::ipv4;
use elmo_topology::{Clos, CoreId, LeafId, SpineId, SwitchRef};

use crate::packet::FlightPacket;

/// Which rule source resolved a packet copy at a switch — the ingress
/// pipeline's match order made explicit for the copy-tree trace's rule
/// attribution (`elmo-eval trace` annotates each tree node with this).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MatchSource {
    /// A p-rule carried in the packet header matched the switch's own id.
    PRule,
    /// The group table held an s-rule for the outer destination.
    SRule,
    /// The header's default p-rule for this layer applied.
    DefaultPRule,
    /// Nothing matched: the copy would drop here.
    NoRule,
}

impl MatchSource {
    /// Stable label used in trace JSON and rendered trees.
    pub fn label(&self) -> &'static str {
        match self {
            MatchSource::PRule => "p-rule",
            MatchSource::SRule => "s-rule",
            MatchSource::DefaultPRule => "default-p-rule",
            MatchSource::NoRule => "no-rule",
        }
    }
}

/// Per-switch resource limits.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SwitchConfig {
    /// Parser header-vector size in bytes (512 for RMT, paper §4.1).
    pub header_vector_limit: usize,
    /// Group-table capacity `Fmax` (s-rule entries).
    pub group_table_capacity: usize,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            header_vector_limit: 512,
            group_table_capacity: 10_000,
        }
    }
}

/// Counters exposed by each switch.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct SwitchStats {
    /// Packets forwarded using a matching p-rule.
    pub prule_hits: u64,
    /// Packets forwarded using an s-rule from the group table.
    pub srule_hits: u64,
    /// Packets forwarded using the default p-rule.
    pub default_hits: u64,
    /// Packets forwarded by plain unicast routing.
    pub unicast_forwarded: u64,
    /// Packets dropped: no matching rule of any kind.
    pub dropped_no_rule: u64,
    /// Packets dropped: malformed or unparseable.
    pub dropped_parse: u64,
    /// Packets dropped: header exceeded the parser's header vector.
    pub dropped_header_vector: u64,
}

/// Fabric-wide mirrors of the per-switch counters, plus the header-pop
/// count the per-switch stats don't track. Packet processing is
/// sequential per switch and counters are commutative, so totals stay
/// deterministic wherever switches are driven from.
struct DpMetrics {
    prule_hits: elmo_obs::Counter,
    srule_hits: elmo_obs::Counter,
    default_sprays: elmo_obs::Counter,
    unicast_forwarded: elmo_obs::Counter,
    dropped_no_rule: elmo_obs::Counter,
    dropped_parse: elmo_obs::Counter,
    dropped_header_vector: elmo_obs::Counter,
    header_pops: elmo_obs::Counter,
}

fn metrics() -> &'static DpMetrics {
    static M: std::sync::OnceLock<DpMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| DpMetrics {
        prule_hits: elmo_obs::counter("dataplane.prule_hits"),
        srule_hits: elmo_obs::counter("dataplane.srule_hits"),
        default_sprays: elmo_obs::counter("dataplane.default_prule_sprays"),
        unicast_forwarded: elmo_obs::counter("dataplane.unicast_forwarded"),
        dropped_no_rule: elmo_obs::counter("dataplane.dropped_no_rule"),
        dropped_parse: elmo_obs::counter("dataplane.dropped_parse"),
        dropped_header_vector: elmo_obs::counter("dataplane.dropped_header_vector"),
        header_pops: elmo_obs::counter("dataplane.header_pops"),
    })
}

impl SwitchStats {
    // The increment methods touch only the per-switch fields; the
    // process-wide mirrors are brought up to date by
    // `NetworkSwitch::flush_global_stats`, which the replay engine calls
    // once per run instead of paying an atomic RMW per matched packet.
    fn hit_prule(&mut self) {
        self.prule_hits += 1;
    }

    fn hit_srule(&mut self) {
        self.srule_hits += 1;
    }

    fn hit_default(&mut self) {
        self.default_hits += 1;
    }

    fn hit_unicast(&mut self) {
        self.unicast_forwarded += 1;
    }

    fn drop_no_rule(&mut self) {
        self.dropped_no_rule += 1;
    }

    fn drop_parse(&mut self) {
        self.dropped_parse += 1;
    }

    fn drop_header_vector(&mut self) {
        self.dropped_header_vector += 1;
    }
}

/// Hop-state sentinel for a host-bound copy whose Elmo header is stripped
/// entirely (egress invalidation). Every other state a hop emits is a
/// plain [`elmo_core::pop`] depth, so one `u8` describes any output copy:
/// the struct-of-arrays replay queues store exactly `(port, state)` and
/// reconstruct the copy from the injection's shared packet on demand.
pub const HOST_STRIPPED: u8 = u8::MAX;

/// Push one host-bound hop per set port.
fn push_host_hops(ports: &PortBitmap, out: &mut Vec<(u16, u8)>) {
    for port in ports.iter_ones() {
        out.push((port as u16, HOST_STRIPPED));
    }
}

/// Push one hop per set bit of a flat word slice ([`PortBitmap::words`]
/// of an s-rule), ascending — the port order `PortBitmap::iter_ones`
/// yields.
fn push_word_hops(words: &[u64], state: u8, out: &mut Vec<(u16, u8)>) {
    for (wi, &word) in words.iter().enumerate() {
        let mut w = word;
        while w != 0 {
            let b = w.trailing_zeros() as usize;
            w &= w - 1;
            out.push(((wi * 64 + b) as u16, state));
        }
    }
}

/// A switch's group table (paper §3.2): its s-rules, sorted by outer group
/// address, with the output-port bitmaps parallel to the keys. This is the
/// only copy of the rule state — the control plane writes it, the static
/// verifier reads it and the replay hot path matches against it — and one
/// binary search finds the slot for a lookup, an overwrite, an insert or a
/// remove alike, so a write costs that search plus a shift of the tail.
/// A `PortBitmap` stores up to 128 ports inline, which makes the rule
/// column a flat arena at every layer width the fabrics here use.
#[derive(Clone, Debug, Default)]
struct GroupTable {
    /// Outer group addresses, ascending.
    keys: Vec<Ipv4Addr>,
    /// Parallel to `keys`: output ports (downstream ports only, like
    /// downstream p-rule bitmaps).
    rules: Vec<PortBitmap>,
}

impl GroupTable {
    /// The slot holding `group` (`Ok`), or the slot that keeps `keys`
    /// ascending if it were inserted (`Err`).
    #[inline]
    fn search(&self, group: Ipv4Addr) -> Result<usize, usize> {
        self.keys.binary_search(&group)
    }

    #[inline]
    fn get(&self, group: Ipv4Addr) -> Option<&PortBitmap> {
        self.search(group).ok().map(|i| &self.rules[i])
    }
}

/// Error returned when the group table is full.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GroupTableFull;

impl std::fmt::Display for GroupTableFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "group table at capacity")
    }
}

impl std::error::Error for GroupTableFull {}

/// A leaf, spine, or core switch.
#[derive(Clone, Debug)]
pub struct NetworkSwitch {
    id: SwitchRef,
    topo: Clos,
    config: SwitchConfig,
    /// s-rules: outer multicast group address -> output ports.
    table: GroupTable,
    /// Counters.
    pub stats: SwitchStats,
    /// Header sections popped by this switch (D2d egress). Only the
    /// process-wide `dataplane.header_pops` mirror exposes this.
    pops: u64,
    /// `stats` values already pushed into the process-wide metric
    /// mirrors; [`flush_global_stats`](Self::flush_global_stats) adds the
    /// difference. Counters are monotone (nothing external resets
    /// `stats`), so the diff is always the unsent remainder.
    flushed: SwitchStats,
    /// `pops` value already pushed, likewise.
    flushed_pops: u64,
}

impl NetworkSwitch {
    fn new(topo: Clos, id: SwitchRef, config: SwitchConfig) -> Self {
        NetworkSwitch {
            id,
            topo,
            config,
            table: GroupTable::default(),
            stats: SwitchStats::default(),
            pops: 0,
            flushed: SwitchStats::default(),
            flushed_pops: 0,
        }
    }

    /// Build a leaf switch.
    pub fn new_leaf(topo: Clos, id: LeafId, config: SwitchConfig) -> Self {
        Self::new(topo, SwitchRef::Leaf(id), config)
    }

    /// Build a spine switch.
    pub fn new_spine(topo: Clos, id: SpineId, config: SwitchConfig) -> Self {
        Self::new(topo, SwitchRef::Spine(id), config)
    }

    /// Build a core switch.
    pub fn new_core(topo: Clos, id: CoreId, config: SwitchConfig) -> Self {
        Self::new(topo, SwitchRef::Core(id), config)
    }

    /// This switch's identity.
    pub fn id(&self) -> SwitchRef {
        self.id
    }

    /// Install an s-rule; fails when the group table is at capacity
    /// (`Fmax`). Overwriting an existing entry for the same group is allowed.
    pub fn install_srule(
        &mut self,
        group: Ipv4Addr,
        ports: PortBitmap,
    ) -> Result<(), GroupTableFull> {
        match self.table.search(group) {
            Ok(i) => self.table.rules[i] = ports,
            Err(_) if self.srule_capacity_left() == 0 => return Err(GroupTableFull),
            Err(i) => {
                self.table.keys.insert(i, group);
                self.table.rules.insert(i, ports);
            }
        }
        Ok(())
    }

    /// Remove an s-rule; returns whether one existed.
    pub fn remove_srule(&mut self, group: &Ipv4Addr) -> bool {
        let Ok(i) = self.table.search(*group) else {
            return false;
        };
        self.table.keys.remove(i);
        self.table.rules.remove(i);
        true
    }

    /// Number of installed s-rules.
    pub fn srule_count(&self) -> usize {
        self.table.keys.len()
    }

    /// Look up the installed s-rule for an outer group address, if any.
    pub fn srule(&self, group: &Ipv4Addr) -> Option<&PortBitmap> {
        self.table.get(*group)
    }

    /// Iterate over every installed s-rule, ascending by group address.
    pub fn srules(&self) -> impl Iterator<Item = (&Ipv4Addr, &PortBitmap)> {
        self.table.keys.iter().zip(&self.table.rules)
    }

    /// The switch's static configuration (parser and table limits).
    pub fn config(&self) -> &SwitchConfig {
        &self.config
    }

    /// Remaining group-table capacity.
    pub fn srule_capacity_left(&self) -> usize {
        self.config.group_table_capacity - self.srule_count()
    }

    /// Process one already-parsed copy arriving on `ingress_port`: append
    /// the copies to emit as `(output port, hop state)` pairs, where the
    /// state is the copy's new [`elmo_core::pop`] depth or
    /// [`HOST_STRIPPED`]. Every copy of an injected packet shares the same
    /// header and payload, so the depth byte is the *only* per-copy state:
    /// no byte buffer is read or written and nothing is allocated,
    /// mirroring the paper's §4.1 claim that forwarding touches only the
    /// compact header.
    ///
    /// `header_vector_len` is what the parser must buffer for this copy
    /// ([`FlightPacket::header_vector_len`]); the replay engine reads it
    /// from [`crate::packet::FlightBatch`]'s precomputed rows instead of
    /// walking the header per copy.
    ///
    /// This does *not* flush the per-switch counters into the
    /// process-wide metric mirrors: the engine calls `flush_global_stats`
    /// once per run of copies against this switch.
    pub fn process_hops_hv(
        &mut self,
        ingress_port: usize,
        pkt: &FlightPacket,
        header_vector_len: usize,
        out: &mut Vec<(u16, u8)>,
    ) {
        if header_vector_len > self.config.header_vector_limit {
            self.stats.drop_header_vector();
            return;
        }
        if !ipv4::is_multicast(pkt.group_ip) {
            self.unicast_hops(pkt, out);
            return;
        }
        match self.id {
            SwitchRef::Leaf(l) => self.leaf_hops(l, ingress_port, pkt, out),
            SwitchRef::Spine(s) => self.spine_hops(s, ingress_port, pkt, out),
            SwitchRef::Core(c) => self.core_hops(c, pkt, out),
        }
    }

    /// Which rule source a *downstream* copy of `pkt` resolves to at this
    /// switch, mirroring [`process_hops_hv`](Self::process_hops_hv)'s match
    /// order exactly — own-id p-rule, then the installed group table, then the
    /// header's default p-rule — with no counters or side effects. Core
    /// switches report their core p-rule. This is the offline attribution
    /// probe behind `elmo-eval trace`: the hot path records only the tree
    /// edges, and match sources are recomputed here against the same
    /// installed state the replay used.
    pub fn classify_downstream(&self, pkt: &FlightPacket) -> MatchSource {
        match self.id {
            SwitchRef::Leaf(l) => {
                if pkt.find_d_leaf(l.0).is_some() {
                    MatchSource::PRule
                } else if self.table.get(pkt.group_ip).is_some() {
                    MatchSource::SRule
                } else if pkt.d_leaf_default().is_some() {
                    MatchSource::DefaultPRule
                } else {
                    MatchSource::NoRule
                }
            }
            SwitchRef::Spine(s) => {
                let pod = self.topo.pod_of_spine(s);
                if pkt.find_d_spine(pod.0).is_some() {
                    MatchSource::PRule
                } else if self.table.get(pkt.group_ip).is_some() {
                    MatchSource::SRule
                } else if pkt.d_spine_default().is_some() {
                    MatchSource::DefaultPRule
                } else {
                    MatchSource::NoRule
                }
            }
            SwitchRef::Core(_) => {
                if pkt.core_pods().is_some() {
                    MatchSource::PRule
                } else {
                    MatchSource::NoRule
                }
            }
        }
    }

    /// Count a parse drop against this switch. Used by the fabric, which
    /// parses injected wire bytes once on behalf of the ingress leaf; the
    /// drop must still land on the leaf's counters like it did when the
    /// leaf parsed every packet itself.
    pub(crate) fn note_parse_drop(&mut self) {
        self.stats.drop_parse();
        self.flush_global_stats();
    }

    /// Push the per-switch counter growth since the last flush into the
    /// process-wide metric mirrors. Totals are identical to bumping the
    /// mirrors inline (counter addition commutes); batching turns the
    /// per-packet atomic RMWs into one guarded `add` per counter per
    /// call. The replay engine flushes once per run.
    pub(crate) fn flush_global_stats(&mut self) {
        let m = metrics();
        let (cur, last) = (self.stats, self.flushed);
        if cur.prule_hits != last.prule_hits {
            m.prule_hits.add(cur.prule_hits - last.prule_hits);
        }
        if cur.srule_hits != last.srule_hits {
            m.srule_hits.add(cur.srule_hits - last.srule_hits);
        }
        if cur.default_hits != last.default_hits {
            m.default_sprays.add(cur.default_hits - last.default_hits);
        }
        if cur.unicast_forwarded != last.unicast_forwarded {
            m.unicast_forwarded
                .add(cur.unicast_forwarded - last.unicast_forwarded);
        }
        if cur.dropped_no_rule != last.dropped_no_rule {
            m.dropped_no_rule
                .add(cur.dropped_no_rule - last.dropped_no_rule);
        }
        if cur.dropped_parse != last.dropped_parse {
            m.dropped_parse.add(cur.dropped_parse - last.dropped_parse);
        }
        if cur.dropped_header_vector != last.dropped_header_vector {
            m.dropped_header_vector
                .add(cur.dropped_header_vector - last.dropped_header_vector);
        }
        if self.pops != self.flushed_pops {
            m.header_pops.add(self.pops - self.flushed_pops);
        }
        self.flushed = cur;
        self.flushed_pops = self.pops;
    }

    fn leaf_hops(
        &mut self,
        leaf: LeafId,
        ingress_port: usize,
        pkt: &FlightPacket,
        out: &mut Vec<(u16, u8)>,
    ) {
        let from_host = ingress_port < self.topo.leaf_down_ports();
        if pkt.elmo.is_none() {
            self.stats.drop_parse();
            return;
        }
        if from_host {
            // Upstream direction: the u-leaf p-rule drives everything.
            let Some(rule) = pkt.u_leaf() else {
                self.stats.drop_no_rule();
                return;
            };
            self.stats.hit_prule();
            // Copies to co-located receivers: Elmo header fully stripped.
            push_host_hops(&rule.down, out);
            // Copy upward, with the u-leaf rule popped (a depth bump — the
            // shared header itself is untouched).
            if rule.goes_up() {
                self.pops += 1;
                if rule.multipath {
                    let spine =
                        (pkt.ecmp_hash(leaf.0 as u64) % self.topo.leaf_up_ports() as u64) as usize;
                    out.push((self.topo.leaf_up_port(spine) as u16, pop::U_LEAF));
                } else {
                    for spine in rule.up.iter_ones() {
                        out.push((self.topo.leaf_up_port(spine) as u16, pop::U_LEAF));
                    }
                }
            }
            return;
        }

        // Downstream direction: match own identifier among d-leaf p-rules,
        // then the group table, then the default p-rule. Disjoint field
        // borrows so the rule can stay borrowed while counters bump.
        let NetworkSwitch { stats, table, .. } = self;
        if let Some(rule) = pkt.find_d_leaf(leaf.0) {
            stats.hit_prule();
            push_host_hops(rule.bitmap, out);
        } else if let Some(rule) = table.get(pkt.group_ip) {
            stats.hit_srule();
            push_word_hops(rule.words(), HOST_STRIPPED, out);
        } else if let Some(bm) = pkt.d_leaf_default() {
            stats.hit_default();
            push_host_hops(bm, out);
        } else {
            stats.drop_no_rule();
        }
    }

    fn spine_hops(
        &mut self,
        spine: SpineId,
        ingress_port: usize,
        pkt: &FlightPacket,
        out: &mut Vec<(u16, u8)>,
    ) {
        let from_leaf = ingress_port < self.topo.spine_down_ports();
        if pkt.elmo.is_none() {
            self.stats.drop_parse();
            return;
        }
        if from_leaf {
            // Upstream: the u-spine p-rule.
            let Some(rule) = pkt.u_spine() else {
                self.stats.drop_no_rule();
                return;
            };
            self.stats.hit_prule();
            // Copies down to local member leaves: next hop is a leaf, so pop
            // everything except the d-leaf section (depth jumps straight to
            // D_SPINE; sections already popped upstream are no-ops).
            if !rule.down.is_empty() {
                self.pops += 3;
                for port in rule.down.iter_ones() {
                    out.push((port as u16, pop::D_SPINE));
                }
            }
            // Copy upward to the core, u-spine popped.
            if rule.goes_up() {
                self.pops += 1;
                if rule.multipath {
                    let core = (pkt.ecmp_hash(0x51de ^ spine.0 as u64)
                        % self.topo.spine_up_ports() as u64)
                        as usize;
                    out.push((self.topo.spine_up_port(core) as u16, pop::U_SPINE));
                } else {
                    for core in rule.up.iter_ones() {
                        out.push((self.topo.spine_up_port(core) as u16, pop::U_SPINE));
                    }
                }
            }
            return;
        }

        // Downstream: match own pod among d-spine p-rules, then the group
        // table, then the default p-rule. Either way the next hop is a
        // leaf, so the spine section is popped.
        let pod = self.topo.pod_of_spine(spine);
        let NetworkSwitch {
            stats, table, pops, ..
        } = self;
        if let Some(rule) = pkt.find_d_spine(pod.0) {
            stats.hit_prule();
            *pops += 1;
            for port in rule.bitmap.iter_ones() {
                out.push((port as u16, pop::D_SPINE));
            }
        } else if let Some(rule) = table.get(pkt.group_ip) {
            stats.hit_srule();
            *pops += 1;
            push_word_hops(rule.words(), pop::D_SPINE, out);
        } else if let Some(bm) = pkt.d_spine_default() {
            stats.hit_default();
            *pops += 1;
            for port in bm.iter_ones() {
                out.push((port as u16, pop::D_SPINE));
            }
        } else {
            stats.drop_no_rule();
        }
    }

    fn core_hops(&mut self, _core: CoreId, pkt: &FlightPacket, out: &mut Vec<(u16, u8)>) {
        if pkt.elmo.is_none() {
            self.stats.drop_parse();
            return;
        }
        let Some(pods) = pkt.core_pods() else {
            self.stats.drop_no_rule();
            return;
        };
        self.stats.hit_prule();
        self.pops += 1;
        for pod in pods.iter_ones() {
            out.push((pod as u16, pop::CORE));
        }
    }

    /// Plain underlay unicast on the flight path: route on the destination
    /// host address; the packet itself is forwarded unmodified (its pop
    /// depth — and `None` Elmo header — carry through).
    fn unicast_hops(&mut self, pkt: &FlightPacket, out: &mut Vec<(u16, u8)>) {
        let Some(dst_host) = crate::hypervisor::host_of_ip(pkt.group_ip) else {
            self.stats.drop_parse();
            return;
        };
        if dst_host.0 as usize >= self.topo.num_hosts() {
            self.stats.drop_parse();
            return;
        }
        let dst_leaf = self.topo.leaf_of_host(dst_host);
        let dst_pod = self.topo.pod_of_leaf(dst_leaf);
        let port = match self.id {
            SwitchRef::Leaf(l) => {
                if dst_leaf == l {
                    self.topo.host_port_on_leaf(dst_host)
                } else {
                    let spine =
                        (pkt.ecmp_hash(l.0 as u64) % self.topo.leaf_up_ports() as u64) as usize;
                    self.topo.leaf_up_port(spine)
                }
            }
            SwitchRef::Spine(s) => {
                if self.topo.pod_of_spine(s) == dst_pod {
                    self.topo.leaf_index_in_pod(dst_leaf)
                } else {
                    let core =
                        (pkt.ecmp_hash(s.0 as u64) % self.topo.spine_up_ports() as u64) as usize;
                    self.topo.spine_up_port(core)
                }
            }
            SwitchRef::Core(_) => dst_pod.0 as usize,
        };
        self.stats.hit_unicast();
        out.push((port as u16, pkt.popped));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::ElmoPacketRepr;
    use elmo_core::{DownstreamRule, DownstreamSection, ElmoHeader, HeaderLayout, UpstreamRule};
    use elmo_net::ethernet::MacAddr;
    use elmo_net::vxlan::Vni;
    use elmo_topology::HostId;
    use std::sync::Arc;

    /// A downstream section of one-switch rules `(ports, switch)` and an
    /// optional default, for `layout`'s spine or leaf layer.
    fn section(
        layout: &HeaderLayout,
        spine: bool,
        rules: &[(&[usize], u32)],
        default: Option<&[usize]>,
    ) -> Arc<DownstreamSection> {
        let (width, id_bits) = if spine {
            (layout.spine_down_ports, layout.pod_id_bits)
        } else {
            (layout.leaf_down_ports, layout.leaf_id_bits)
        };
        let bitmap = |ports: &[usize]| PortBitmap::from_ports(width, ports.iter().copied());
        let rules: Vec<DownstreamRule> = rules
            .iter()
            .map(|&(ports, switch)| DownstreamRule {
                bitmap: bitmap(ports),
                switches: vec![switch],
            })
            .collect();
        Arc::new(DownstreamSection::new(&rules, default.map(bitmap), id_bits))
    }

    fn setup() -> (Clos, HeaderLayout) {
        let topo = Clos::paper_example();
        let layout = HeaderLayout::for_clos(&topo);
        (topo, layout)
    }

    fn base_repr(header: Option<ElmoHeader>) -> ElmoPacketRepr {
        ElmoPacketRepr {
            src_mac: MacAddr::for_host(0),
            dst_mac: MacAddr::from_ipv4_multicast(Ipv4Addr::new(239, 0, 0, 1)),
            src_ip: Ipv4Addr::new(10, 0, 0, 1),
            group_ip: Ipv4Addr::new(239, 0, 0, 1),
            flow_entropy: 7,
            vni: Vni(1),
            elmo: header,
        }
    }

    fn packet(repr: &ElmoPacketRepr, layout: &HeaderLayout) -> Vec<u8> {
        let mut buf = Vec::new();
        repr.emit(layout, b"inner", &mut buf);
        buf
    }

    /// Push one wire packet through `sw` and materialize every copy it
    /// emits as `(output port, wire bytes)`.
    fn process(
        sw: &mut NetworkSwitch,
        ingress_port: usize,
        bytes: &[u8],
        layout: &HeaderLayout,
    ) -> Vec<(usize, Vec<u8>)> {
        let pkt = FlightPacket::parse(bytes, layout).expect("test packet parses");
        let mut hops = Vec::new();
        sw.process_hops_hv(ingress_port, &pkt, pkt.header_vector_len(layout), &mut hops);
        hops.into_iter()
            .map(|(port, state)| (port as usize, pkt.copy_bytes(state, layout)))
            .collect()
    }

    #[test]
    fn leaf_upstream_delivers_local_and_multipaths_up() {
        let (topo, layout) = setup();
        let mut header = ElmoHeader::empty();
        header.u_leaf = Some(UpstreamRule {
            down: PortBitmap::from_ports(layout.leaf_down_ports, [1, 3]),
            multipath: true,
            up: PortBitmap::new(layout.leaf_up_ports),
        });
        header.core = Some(PortBitmap::from_ports(layout.core_ports, [2]));
        let repr = base_repr(Some(header));
        let mut leaf = NetworkSwitch::new_leaf(topo, LeafId(0), SwitchConfig::default());
        let out = process(&mut leaf, 0, &packet(&repr, &layout), &layout);
        // Two host copies + one upstream copy.
        assert_eq!(out.len(), 3);
        let host_ports: Vec<usize> = out.iter().map(|(p, _)| *p).filter(|&p| p < 8).collect();
        assert_eq!(host_ports, vec![1, 3]);
        let up: Vec<usize> = out.iter().map(|(p, _)| *p).filter(|&p| p >= 8).collect();
        assert_eq!(up.len(), 1);
        // Host copies have no Elmo header; the upstream copy kept the core
        // rule but dropped u-leaf.
        for (p, bytes) in &out {
            let (parsed, _) = ElmoPacketRepr::parse(bytes, &layout).unwrap();
            if *p < 8 {
                assert!(parsed.elmo.is_none());
            } else {
                let h = parsed.elmo.unwrap();
                assert!(h.u_leaf.is_none());
                assert!(h.core.is_some());
            }
        }
        assert_eq!(leaf.stats.prule_hits, 1);
    }

    #[test]
    fn leaf_upstream_explicit_ports_fan_out() {
        let (topo, layout) = setup();
        let mut header = ElmoHeader::empty();
        header.u_leaf = Some(UpstreamRule {
            down: PortBitmap::new(layout.leaf_down_ports),
            multipath: false,
            up: PortBitmap::from_ports(layout.leaf_up_ports, [0, 1]),
        });
        let repr = base_repr(Some(header));
        let mut leaf = NetworkSwitch::new_leaf(topo, LeafId(0), SwitchConfig::default());
        let out = process(&mut leaf, 0, &packet(&repr, &layout), &layout);
        let ports: Vec<usize> = out.iter().map(|(p, _)| *p).collect();
        assert_eq!(ports, vec![8, 9]); // both spine uplinks
    }

    #[test]
    fn leaf_downstream_prefers_p_rule_over_srule_and_default() {
        let (topo, layout) = setup();
        let mut header = ElmoHeader::empty();
        header.d_leaf = section(&layout, false, &[(&[2], 0)], Some(&[5]));
        let repr = base_repr(Some(header));
        let mut leaf = NetworkSwitch::new_leaf(topo, LeafId(0), SwitchConfig::default());
        leaf.install_srule(repr.group_ip, PortBitmap::from_ports(8, [7]))
            .unwrap();
        let out = process(&mut leaf, 8, &packet(&repr, &layout), &layout); // from spine
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 2); // the p-rule port, not 7 (s-rule) or 5 (default)
        assert_eq!(leaf.stats.prule_hits, 1);
        assert_eq!(leaf.stats.srule_hits, 0);
    }

    #[test]
    fn leaf_downstream_falls_to_srule_then_default() {
        let (topo, layout) = setup();
        let mut header = ElmoHeader::empty();
        header.d_leaf = section(&layout, false, &[(&[2], 3)], Some(&[5])); // some other leaf
        let repr = base_repr(Some(header.clone()));
        let mut leaf = NetworkSwitch::new_leaf(topo, LeafId(0), SwitchConfig::default());
        leaf.install_srule(repr.group_ip, PortBitmap::from_ports(8, [7]))
            .unwrap();
        let out = process(&mut leaf, 8, &packet(&repr, &layout), &layout);
        assert_eq!(out[0].0, 7, "s-rule match");
        assert_eq!(leaf.stats.srule_hits, 1);
        // Without the s-rule, the default applies.
        leaf.remove_srule(&repr.group_ip);
        let out = process(&mut leaf, 8, &packet(&repr, &layout), &layout);
        assert_eq!(out[0].0, 5, "default p-rule");
        assert_eq!(leaf.stats.default_hits, 1);
    }

    #[test]
    fn leaf_downstream_no_rule_drops() {
        let (topo, layout) = setup();
        let header = ElmoHeader::empty();
        let repr = base_repr(Some(header));
        let mut leaf = NetworkSwitch::new_leaf(topo, LeafId(0), SwitchConfig::default());
        let out = process(&mut leaf, 8, &packet(&repr, &layout), &layout);
        assert!(out.is_empty());
        assert_eq!(leaf.stats.dropped_no_rule, 1);
    }

    #[test]
    fn spine_upstream_splits_down_and_up() {
        let (topo, layout) = setup();
        let mut header = ElmoHeader::empty();
        header.u_spine = Some(UpstreamRule {
            down: PortBitmap::from_ports(layout.spine_down_ports, [1]),
            multipath: true,
            up: PortBitmap::new(layout.spine_up_ports),
        });
        header.core = Some(PortBitmap::from_ports(layout.core_ports, [3]));
        header.d_spine = section(&layout, true, &[(&[0], 3)], None);
        header.d_leaf = section(&layout, false, &[(&[0], 1)], None);
        let repr = base_repr(Some(header));
        let mut spine = NetworkSwitch::new_spine(topo, SpineId(0), SwitchConfig::default());
        let out = process(&mut spine, 0, &packet(&repr, &layout), &layout); // from leaf 0
        assert_eq!(out.len(), 2);
        // Down copy to local leaf port 1: only the d-leaf section survives.
        let (down_port, down_bytes) = out.iter().find(|(p, _)| *p < 2).expect("down copy");
        assert_eq!(*down_port, 1);
        let (parsed, _) = ElmoPacketRepr::parse(down_bytes, &layout).unwrap();
        let h = parsed.elmo.unwrap();
        assert!(h.u_spine.is_none() && h.core.is_none() && h.d_spine.is_empty());
        assert_eq!(h.d_leaf.len(), 1);
        // Up copy keeps core + downstream sections.
        let (_, up_bytes) = out.iter().find(|(p, _)| *p >= 2).expect("up copy");
        let (parsed, _) = ElmoPacketRepr::parse(up_bytes, &layout).unwrap();
        let h = parsed.elmo.unwrap();
        assert!(h.u_spine.is_none());
        assert!(h.core.is_some());
        assert_eq!(h.d_spine.len(), 1);
    }

    #[test]
    fn spine_downstream_matches_pod_and_pops_section() {
        let (topo, layout) = setup();
        let mut header = ElmoHeader::empty();
        header.d_spine = section(&layout, true, &[(&[0, 1], 1)], None); // pod 1
        header.d_leaf = section(&layout, false, &[(&[4], 2)], None);
        let repr = base_repr(Some(header));
        // S2 is in pod 1; ingress from a core is port >= 2.
        let mut spine = NetworkSwitch::new_spine(topo, SpineId(2), SwitchConfig::default());
        let out = process(&mut spine, 2, &packet(&repr, &layout), &layout);
        assert_eq!(out.len(), 2);
        for (_, bytes) in &out {
            let (parsed, _) = ElmoPacketRepr::parse(bytes, &layout).unwrap();
            let h = parsed.elmo.unwrap();
            assert!(h.d_spine.is_empty(), "spine section popped before leaves");
            assert_eq!(h.d_leaf.len(), 1);
        }
        assert_eq!(spine.stats.prule_hits, 1);
    }

    #[test]
    fn core_fans_out_to_pods() {
        let (topo, layout) = setup();
        let mut header = ElmoHeader::empty();
        header.core = Some(PortBitmap::from_ports(layout.core_ports, [1, 3]));
        header.d_spine = section(&layout, true, &[(&[0], 1)], None);
        let repr = base_repr(Some(header));
        let mut core = NetworkSwitch::new_core(topo, CoreId(0), SwitchConfig::default());
        let out = process(&mut core, 0, &packet(&repr, &layout), &layout);
        let ports: Vec<usize> = out.iter().map(|(p, _)| *p).collect();
        assert_eq!(ports, vec![1, 3]);
        for (_, bytes) in &out {
            let (parsed, _) = ElmoPacketRepr::parse(bytes, &layout).unwrap();
            let h = parsed.elmo.unwrap();
            assert!(h.core.is_none(), "core rule popped");
            assert_eq!(h.d_spine.len(), 1);
        }
    }

    #[test]
    fn header_vector_limit_drops_oversized_headers() {
        let (topo, layout) = setup();
        let mut header = ElmoHeader::empty();
        // Many d-leaf rules to blow a tiny header-vector limit.
        let rules: Vec<(&[usize], u32)> = (0..6).map(|i| (&[0][..], i)).collect();
        header.d_leaf = section(&layout, false, &rules, None);
        let repr = base_repr(Some(header));
        let config = SwitchConfig {
            header_vector_limit: 60,
            group_table_capacity: 10,
        };
        let mut leaf = NetworkSwitch::new_leaf(topo, LeafId(0), config);
        let out = process(&mut leaf, 8, &packet(&repr, &layout), &layout);
        assert!(out.is_empty());
        assert_eq!(leaf.stats.dropped_header_vector, 1);
    }

    #[test]
    fn group_table_capacity_enforced() {
        let (topo, _) = setup();
        let config = SwitchConfig {
            header_vector_limit: 512,
            group_table_capacity: 2,
        };
        let mut leaf = NetworkSwitch::new_leaf(topo, LeafId(0), config);
        let bm = PortBitmap::from_ports(8, [0]);
        leaf.install_srule(Ipv4Addr::new(239, 0, 0, 1), bm.clone())
            .unwrap();
        leaf.install_srule(Ipv4Addr::new(239, 0, 0, 2), bm.clone())
            .unwrap();
        assert_eq!(
            leaf.install_srule(Ipv4Addr::new(239, 0, 0, 3), bm.clone()),
            Err(GroupTableFull)
        );
        // Overwrite of an existing group is fine at capacity.
        assert!(leaf.install_srule(Ipv4Addr::new(239, 0, 0, 1), bm).is_ok());
        assert_eq!(leaf.srule_count(), 2);
        assert_eq!(leaf.srule_capacity_left(), 0);
    }

    #[test]
    fn unicast_routing_by_layer() {
        let (topo, layout) = setup();
        // Destination host 42 lives on leaf 5 (pod 2), host port 2.
        let dst = crate::hypervisor::host_ip(HostId(42));
        let mut repr = base_repr(None);
        repr.group_ip = dst;
        let bytes = packet(&repr, &layout);
        // Leaf 5 delivers straight to the host port.
        let mut leaf5 = NetworkSwitch::new_leaf(topo, LeafId(5), SwitchConfig::default());
        let out = process(&mut leaf5, 8, &bytes, &layout);
        assert_eq!(out[0].0, 2);
        // Leaf 0 sends it up to some spine.
        let mut leaf0 = NetworkSwitch::new_leaf(topo, LeafId(0), SwitchConfig::default());
        let out = process(&mut leaf0, 0, &bytes, &layout);
        assert!(out[0].0 >= 8);
        // A pod-2 spine sends it down to leaf index 1 (= L5).
        let mut spine4 = NetworkSwitch::new_spine(topo, SpineId(4), SwitchConfig::default());
        let out = process(&mut spine4, 2, &bytes, &layout);
        assert_eq!(out[0].0, 1);
        // A core sends it to pod port 2.
        let mut core = NetworkSwitch::new_core(topo, CoreId(0), SwitchConfig::default());
        let out = process(&mut core, 0, &bytes, &layout);
        assert_eq!(out[0].0, 2);
    }

    /// Seeded install / overwrite / remove stream on one leaf and one
    /// spine against a `BTreeMap` model, every read accessor compared
    /// after every op. The key space is a little larger than `Fmax` so
    /// the table sits at the capacity edge for much of the run.
    #[test]
    fn group_table_matches_btreemap_model_under_random_ops() {
        use std::collections::BTreeMap;

        const FMAX: usize = 32;
        const KEYS: u64 = 48;
        const OPS: usize = 12_000;
        let (topo, layout) = setup();
        let config = SwitchConfig {
            header_vector_limit: 512,
            group_table_capacity: FMAX,
        };
        let switches = [
            (
                NetworkSwitch::new_leaf(topo, LeafId(3), config),
                layout.leaf_down_ports,
            ),
            (
                NetworkSwitch::new_spine(topo, SpineId(1), config),
                layout.spine_down_ports,
            ),
        ];
        for (mut sw, width) in switches {
            let mut rng = elmo_core::SplitMix64::new(0xe140 + width as u64);
            let mut next = move || rng.next_u64();
            let mut model: BTreeMap<Ipv4Addr, PortBitmap> = BTreeMap::new();
            let (mut inserts, mut overwrites, mut refused, mut removes) = (0, 0, 0, 0);
            for _ in 0..OPS {
                // Keys straddle an octet boundary so address order is not
                // the order of any single byte.
                let group = Ipv4Addr::from(0xef00_00e0 + (next() % KEYS) as u32 * 7);
                if next() % 3 == 0 {
                    let removed = sw.remove_srule(&group);
                    assert_eq!(removed, model.remove(&group).is_some());
                    removes += usize::from(removed);
                } else {
                    let bits = next();
                    let ports =
                        PortBitmap::from_ports(width, (0..width).filter(|p| bits >> p & 1 == 1));
                    let known = model.contains_key(&group);
                    let got = sw.install_srule(group, ports.clone());
                    if !known && model.len() == FMAX {
                        assert_eq!(got, Err(GroupTableFull));
                        refused += 1;
                    } else {
                        assert_eq!(got, Ok(()));
                        model.insert(group, ports);
                        overwrites += usize::from(known);
                        inserts += usize::from(!known);
                    }
                }
                assert_eq!(sw.srule_count(), model.len());
                assert_eq!(sw.srule_capacity_left(), FMAX - model.len());
                assert_eq!(sw.srule(&group), model.get(&group));
                assert!(
                    sw.srules().eq(model.iter()),
                    "srules() must list the model's entries ascending by address"
                );
            }
            assert!(
                inserts > 1_000 && overwrites > 1_000 && removes > 1_000 && refused > 100,
                "stream must exercise every branch: {inserts} inserts, {overwrites} overwrites, \
                 {removes} removes, {refused} refused at Fmax"
            );
        }
    }
}
