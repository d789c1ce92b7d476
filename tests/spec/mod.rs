//! The executable specification of Elmo forwarding (paper §4.1), shared by
//! the root tests via `mod spec;`.
//!
//! This is the reference algorithm at its plainest: every hop parses the
//! wire bytes with [`ElmoPacketRepr::parse`], matches own-id p-rule →
//! installed s-rule → default p-rule, pops with `ElmoHeader::pop_*` (D2d),
//! and re-emits every copy with [`ElmoPacketRepr::emit`]. It is a set of
//! pure functions over `&Fabric`: installed s-rules are read only through
//! the public [`NetworkSwitch::srule`](elmo::dataplane::NetworkSwitch), the
//! failed-switch set is an argument, nothing is mutated, and the link and
//! per-switch counters it returns are its own — so it shares no counter and
//! no traversal code with `elmo-dataplane`'s replay engine, which
//! `tests/replay_identity.rs` holds equal to it byte for byte.
#![allow(dead_code)] // each test binary uses its own subset

use std::collections::{BTreeMap, BTreeSet};

use elmo::core::{HeaderLayout, PortBitmap};
use elmo::dataplane::{
    ecmp_hash, host_of_ip, ElmoPacketRepr, Fabric, FabricStats, HopRecord, SwitchStats,
};
use elmo::net::ipv4;
use elmo::topology::{Clos, HostId, PodId, SwitchRef};

/// Everything observable about a replay, accumulated over injections.
#[derive(Default)]
pub struct Outcome {
    /// Host deliveries, canonical: by packet, then `(host, bytes)`.
    pub deliveries: Vec<(HostId, Vec<u8>)>,
    /// Per-tier link counters.
    pub stats: FabricStats,
    /// Counters of every switch that saw a copy (absent = all zero).
    pub switches: BTreeMap<SwitchRef, SwitchStats>,
    /// One record per copy a live switch processed, in traversal order.
    pub hops: Vec<HopRecord>,
    /// Every copy put on a wire (injected or forwarded), traversal order.
    pub wire: Vec<Vec<u8>>,
}

impl Outcome {
    /// `sw`'s counters (zero if it never saw a copy).
    pub fn switch_stats(&self, sw: SwitchRef) -> SwitchStats {
        self.switches.get(&sw).copied().unwrap_or_default()
    }
}

/// Replay `packets` in order from a clean slate.
pub fn replay(
    fabric: &Fabric,
    down: &BTreeSet<SwitchRef>,
    packets: &[(HostId, Vec<u8>)],
) -> Outcome {
    let mut out = Outcome::default();
    for (from, bytes) in packets {
        inject(fabric, down, *from, bytes, &mut out);
    }
    out
}

/// Run one packet from `from`'s NIC to completion, adding to `out`.
pub fn inject(
    fabric: &Fabric,
    down: &BTreeSet<SwitchRef>,
    from: HostId,
    bytes: &[u8],
    out: &mut Outcome,
) {
    let topo = fabric.topo();
    let first_delivery = out.deliveries.len();
    out.stats.host_to_leaf_bytes += bytes.len() as u64;
    out.stats.packets_on_links += 1;
    out.wire.push(bytes.to_vec());
    let ingress = SwitchRef::Leaf(topo.leaf_of_host(from));
    let mut queue = vec![(ingress, topo.host_port_on_leaf(from), bytes.to_vec())];
    while let Some((sw, port_in, pkt)) = queue.pop() {
        if down.contains(&sw) {
            continue; // failed switch: the copy is lost here
        }
        let stats = out.switches.entry(sw).or_default();
        let copies = forward(fabric, sw, port_in, &pkt, stats);
        out.hops.push(HopRecord {
            switch: sw,
            ingress_port: port_in,
            bytes_in: pkt.len(),
            egress_ports: copies.iter().map(|(p, _)| *p).collect(),
        });
        for (port_out, copy) in copies {
            let n = copy.len() as u64;
            out.stats.packets_on_links += 1;
            out.wire.push(copy.clone());
            match link(topo, sw, port_out) {
                Peer::Host(h) => {
                    out.stats.leaf_to_host_bytes += n;
                    out.deliveries.push((h, copy));
                }
                Peer::Switch(next, next_port) => {
                    *match (sw, next) {
                        (SwitchRef::Leaf(_), _) => &mut out.stats.leaf_to_spine_bytes,
                        (SwitchRef::Spine(_), SwitchRef::Leaf(_)) => {
                            &mut out.stats.spine_to_leaf_bytes
                        }
                        (SwitchRef::Spine(_), _) => &mut out.stats.spine_to_core_bytes,
                        (SwitchRef::Core(_), _) => &mut out.stats.core_to_spine_bytes,
                    } += n;
                    queue.push((next, next_port, copy));
                }
            }
        }
    }
    out.deliveries[first_delivery..].sort();
}

/// What is plugged into a switch port.
enum Peer {
    Host(HostId),
    /// The neighbouring switch and the port this link enters it on.
    Switch(SwitchRef, usize),
}

/// The Clos wiring, from the topology's public accessors.
fn link(topo: &Clos, sw: SwitchRef, port: usize) -> Peer {
    match sw {
        SwitchRef::Leaf(l) if port < topo.leaf_down_ports() => {
            Peer::Host(topo.host_under_leaf(l, port))
        }
        SwitchRef::Leaf(l) => {
            let spine = topo.spine_in_pod(topo.pod_of_leaf(l), port - topo.leaf_down_ports());
            Peer::Switch(SwitchRef::Spine(spine), topo.leaf_index_in_pod(l))
        }
        SwitchRef::Spine(s) if port < topo.spine_down_ports() => {
            let leaf = topo.leaf_in_pod(topo.pod_of_spine(s), port);
            Peer::Switch(
                SwitchRef::Leaf(leaf),
                topo.leaf_up_port(topo.spine_index_in_pod(s)),
            )
        }
        SwitchRef::Spine(s) => {
            let core = topo
                .cores_of_spine(s)
                .nth(port - topo.spine_down_ports())
                .expect("core-facing port maps to an attached core");
            Peer::Switch(SwitchRef::Core(core), topo.pod_of_spine(s).0 as usize)
        }
        SwitchRef::Core(c) => {
            let spine = topo.spine_under_core(c, PodId(port as u32));
            let up = topo.spine_up_port(c.0 as usize % topo.cores_per_spine());
            Peer::Switch(SwitchRef::Spine(spine), up)
        }
    }
}

/// One switch's parse–match–replicate pass over one wire copy: the copies
/// to emit as `(output port, wire bytes)`, counted on `stats`.
fn forward(
    fabric: &Fabric,
    sw: SwitchRef,
    port_in: usize,
    bytes: &[u8],
    stats: &mut SwitchStats,
) -> Vec<(usize, Vec<u8>)> {
    let (topo, layout) = (fabric.topo(), fabric.layout());
    let node = match sw {
        SwitchRef::Leaf(l) => fabric.leaf(l),
        SwitchRef::Spine(s) => fabric.spine(s),
        SwitchRef::Core(c) => fabric.core(c),
    };
    let Ok((mut repr, inner_off)) = ElmoPacketRepr::parse(bytes, layout) else {
        stats.dropped_parse += 1;
        return Vec::new();
    };
    if repr.header_vector_len(layout) > node.config().header_vector_limit {
        stats.dropped_header_vector += 1;
        return Vec::new();
    }
    let inner = &bytes[inner_off..];
    if !ipv4::is_multicast(repr.group_ip) {
        return unicast(topo, layout, sw, &repr, inner, stats);
    }
    let Some(mut header) = repr.elmo.take() else {
        stats.dropped_parse += 1; // multicast without an Elmo header
        return Vec::new();
    };
    let mut out = Vec::new();
    // `repr.elmo` is `None` from here until an arm installs a popped header.
    let mut emit = |repr: &ElmoPacketRepr, ports: &mut dyn Iterator<Item = usize>| {
        for port in ports {
            let mut buf = Vec::new();
            repr.emit(layout, inner, &mut buf);
            out.push((port, buf));
        }
    };
    let upstream = match sw {
        SwitchRef::Leaf(_) => port_in < topo.leaf_down_ports(),
        SwitchRef::Spine(_) => port_in < topo.spine_down_ports(),
        SwitchRef::Core(_) => false,
    };
    match sw {
        SwitchRef::Leaf(l) if upstream => {
            let Some(rule) = header.u_leaf.clone() else {
                stats.dropped_no_rule += 1;
                return Vec::new();
            };
            stats.prule_hits += 1;
            // Co-located receivers get the packet with no Elmo header.
            emit(&repr, &mut rule.down.iter_ones());
            if rule.goes_up() {
                header.pop_upstream_leaf();
                repr.elmo = Some(header);
                let hashed = ecmp_hash(&repr, l.0 as u64) % topo.leaf_up_ports() as u64;
                let spines = uplinks(&rule.up, rule.multipath, hashed);
                emit(&repr, &mut spines.into_iter().map(|s| topo.leaf_up_port(s)));
            }
        }
        SwitchRef::Leaf(l) => {
            let own = header.find_d_leaf(l.0).map(|r| r.bitmap);
            let default = header.d_leaf.default();
            if let Some(ports) = downstream(own, node.srule(&repr.group_ip), default, stats) {
                emit(&repr, &mut ports.iter_ones()); // header stripped for hosts
            }
        }
        SwitchRef::Spine(s) if upstream => {
            let Some(rule) = header.u_spine.clone() else {
                stats.dropped_no_rule += 1;
                return Vec::new();
            };
            stats.prule_hits += 1;
            if !rule.down.is_empty() {
                // Next hop is a leaf: only the d-leaf section survives.
                let mut down = header.clone();
                down.pop_upstream_spine();
                down.pop_core();
                down.pop_d_spine();
                repr.elmo = Some(down);
                emit(&repr, &mut rule.down.iter_ones());
            }
            if rule.goes_up() {
                header.pop_upstream_spine();
                repr.elmo = Some(header);
                let hashed = ecmp_hash(&repr, 0x51de ^ s.0 as u64) % topo.spine_up_ports() as u64;
                let cores = uplinks(&rule.up, rule.multipath, hashed);
                emit(&repr, &mut cores.into_iter().map(|c| topo.spine_up_port(c)));
            }
        }
        SwitchRef::Spine(s) => {
            let own = header
                .find_d_spine(topo.pod_of_spine(s).0)
                .map(|r| r.bitmap);
            let default = header.d_spine.default();
            let ports = downstream(own, node.srule(&repr.group_ip), default, stats).cloned();
            if let Some(ports) = ports {
                header.pop_d_spine();
                repr.elmo = Some(header);
                emit(&repr, &mut ports.iter_ones());
            }
        }
        SwitchRef::Core(_) => {
            let Some(pods) = header.core.clone() else {
                stats.dropped_no_rule += 1;
                return Vec::new();
            };
            stats.prule_hits += 1;
            header.pop_core();
            repr.elmo = Some(header);
            emit(&repr, &mut pods.iter_ones());
        }
    }
    out
}

/// The downstream match order: the header's own-id p-rule, then the
/// installed s-rule, then the header's default p-rule, else drop.
fn downstream<'a>(
    own: Option<&'a PortBitmap>,
    srule: Option<&'a PortBitmap>,
    default: Option<&'a PortBitmap>,
    stats: &mut SwitchStats,
) -> Option<&'a PortBitmap> {
    let (ports, counter) = if own.is_some() {
        (own, &mut stats.prule_hits)
    } else if srule.is_some() {
        (srule, &mut stats.srule_hits)
    } else if default.is_some() {
        (default, &mut stats.default_hits)
    } else {
        (None, &mut stats.dropped_no_rule)
    };
    *counter += 1;
    ports
}

/// The uplinks an upstream rule selects: the one the flow hashes to under
/// multipath, else every explicitly listed one.
fn uplinks(up: &PortBitmap, multipath: bool, hashed: u64) -> Vec<usize> {
    if multipath {
        vec![hashed as usize]
    } else {
        up.iter_ones().collect()
    }
}

/// Plain underlay unicast on the outer destination address; the packet is
/// forwarded unmodified.
fn unicast(
    topo: &Clos,
    layout: &HeaderLayout,
    sw: SwitchRef,
    repr: &ElmoPacketRepr,
    inner: &[u8],
    stats: &mut SwitchStats,
) -> Vec<(usize, Vec<u8>)> {
    let Some(dst) = host_of_ip(repr.group_ip).filter(|h| (h.0 as usize) < topo.num_hosts()) else {
        stats.dropped_parse += 1;
        return Vec::new();
    };
    let dst_leaf = topo.leaf_of_host(dst);
    let dst_pod = topo.pod_of_leaf(dst_leaf);
    let port = match sw {
        SwitchRef::Leaf(l) if l == dst_leaf => topo.host_port_on_leaf(dst),
        SwitchRef::Leaf(l) => {
            topo.leaf_up_port((ecmp_hash(repr, l.0 as u64) % topo.leaf_up_ports() as u64) as usize)
        }
        SwitchRef::Spine(s) if topo.pod_of_spine(s) == dst_pod => topo.leaf_index_in_pod(dst_leaf),
        SwitchRef::Spine(s) => topo
            .spine_up_port((ecmp_hash(repr, s.0 as u64) % topo.spine_up_ports() as u64) as usize),
        SwitchRef::Core(_) => dst_pod.0 as usize,
    };
    stats.unicast_forwarded += 1;
    let mut buf = Vec::new();
    repr.emit(layout, inner, &mut buf);
    vec![(port, buf)]
}
