//! Performance experiments: hypervisor encap throughput (Figure 7) and
//! controller rule-computation latency (§5.1.3).
//!
//! Figure 7's claim is that encoding all p-rules as a single header keeps
//! the PISCES hypervisor switch at line rate: bits-per-second stays pinned
//! at the NIC rate while packets-per-second falls only because packets grow.
//! We measure the actual Rust encap path (flow lookup + one-pass header
//! write) and report both the measured software rate and the line-rate
//! model at the paper's 20 Gbps NIC.
//!
//! The latency experiment times Algorithm 1 end-to-end (tree projection +
//! both layer clusterings + header assembly) per group; the paper reports
//! 0.20 ms ± 0.45 ms in Python and "consistently under a millisecond".

use std::net::Ipv4Addr;
use std::time::Instant;

use elmo_core::{DownstreamRule, ElmoHeader, EncoderConfig, HeaderLayout, PortBitmap};
use elmo_dataplane::{HypervisorSwitch, SenderFlow};
use elmo_net::vxlan::Vni;
use elmo_topology::{Clos, GroupTree, HostId, LeafId, PodId};
use elmo_workloads::{Workload, WorkloadConfig};

/// One Figure 7 data point.
#[derive(Clone, Copy, Debug)]
pub struct Fig7Point {
    /// Number of downstream-leaf p-rules in the header.
    pub p_rules: usize,
    /// Total wire packet size in bytes.
    pub packet_bytes: usize,
    /// Measured software encap rate, millions of packets per second: the
    /// median over [`FIG7_BURSTS`] timed bursts.
    pub sw_mpps: f64,
    /// First and third quartile of the per-burst software rates.
    pub sw_mpps_q1: f64,
    pub sw_mpps_q3: f64,
    /// The line-rate model, `nic_gbps·1e3 / (8·packet_bytes)` Mpps: a
    /// function of packet size alone.
    pub line_mpps: f64,
    /// Throughput on the link: min(software rate, line rate), Mpps.
    pub mpps: f64,
    /// The same, in Gbps.
    pub gbps: f64,
}

/// Timed bursts per Figure 7 point; the software rate is their median.
pub const FIG7_BURSTS: usize = 5;

/// A header with `n` downstream-leaf p-rules (plus the usual upstream
/// sections), mimicking the Figure 7 sweep.
pub fn header_with_rules(layout: &HeaderLayout, n: usize) -> ElmoHeader {
    let mut h = ElmoHeader::empty();
    h.u_leaf = Some(elmo_core::UpstreamRule {
        down: PortBitmap::new(layout.leaf_down_ports),
        multipath: true,
        up: PortBitmap::new(layout.leaf_up_ports),
    });
    if n > 0 {
        h.u_spine = Some(elmo_core::UpstreamRule {
            down: PortBitmap::new(layout.spine_down_ports),
            multipath: true,
            up: PortBitmap::new(layout.spine_up_ports),
        });
        h.core = Some(PortBitmap::from_ports(layout.core_ports, [0]));
        h.d_leaf = (0..n)
            .map(|i| DownstreamRule {
                bitmap: PortBitmap::from_ports(
                    layout.leaf_down_ports,
                    [i % layout.leaf_down_ports],
                ),
                switches: vec![(i % 64) as u32, (i % 64 + 64) as u32],
            })
            .collect();
    }
    h
}

/// Measure the encap path for each p-rule count in `rule_counts`.
pub fn fig7(
    topo: Clos,
    rule_counts: &[usize],
    inner_bytes: usize,
    nic_gbps: f64,
) -> Vec<Fig7Point> {
    let layout = HeaderLayout::for_clos(&topo);
    let inner = vec![0u8; inner_bytes];
    let group = Ipv4Addr::new(225, 0, 0, 1);
    let mut points = Vec::with_capacity(rule_counts.len());
    for &n in rule_counts {
        let mut hv = HypervisorSwitch::new(HostId(0));
        let header = header_with_rules(&layout, n);
        hv.install_flow(
            Vni(1),
            group,
            SenderFlow::new(
                Ipv4Addr::new(230, 0, 0, 1),
                Vni(1),
                &header,
                &layout,
                vec![],
            ),
        );
        // Warm up, then time a burst.
        let mut packet_bytes = 0usize;
        for _ in 0..1_000 {
            packet_bytes = hv.send(Vni(1), group, &inner, &layout)[0].len();
        }
        let iters = 40_000u64;
        let mut rates: Vec<f64> = (0..FIG7_BURSTS)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(hv.send(
                        Vni(1),
                        group,
                        std::hint::black_box(&inner),
                        &layout,
                    ));
                }
                iters as f64 / start.elapsed().as_secs_f64() / 1e6
            })
            .collect();
        rates.sort_by(|a, b| a.total_cmp(b));
        let quartile = |q: usize| rates[q * (FIG7_BURSTS - 1) / 4];
        let sw_mpps = quartile(2);
        let line_mpps = nic_gbps * 1e3 / (8.0 * packet_bytes as f64);
        let mpps = sw_mpps.min(line_mpps);
        points.push(Fig7Point {
            p_rules: n,
            packet_bytes,
            sw_mpps,
            sw_mpps_q1: quartile(1),
            sw_mpps_q3: quartile(3),
            line_mpps,
            mpps,
            gbps: mpps * packet_bytes as f64 * 8.0 / 1e3,
        });
    }
    points
}

/// Controller rule-computation latency statistics over sampled groups.
#[derive(Clone, Copy, Debug)]
pub struct LatencyStats {
    pub groups: usize,
    pub mean_us: f64,
    pub p99_us: f64,
    pub max_us: f64,
}

/// Time Algorithm 1 (tree projection + clustering of both layers + header
/// assembly) per group over a generated workload.
pub fn controller_latency(topo: Clos, workload_cfg: WorkloadConfig, sample: usize) -> LatencyStats {
    let layout = HeaderLayout::for_clos(&topo);
    let encoder = EncoderConfig::with_budget(&layout, 325, 12);
    let workload = Workload::generate(topo, workload_cfg);
    let step = (workload.groups.len() / sample.max(1)).max(1);
    let mut times_us: Vec<f64> = Vec::new();
    for g in workload.groups.iter().step_by(step) {
        let hosts = workload.member_hosts(g);
        let start = Instant::now();
        let tree = GroupTree::new(&topo, hosts.iter().copied());
        let mut sa = |_p: PodId| false;
        let mut la = |_l: LeafId| false;
        let enc = elmo_core::encode_group(&topo, &tree, &encoder, &mut sa, &mut la);
        let header = elmo_core::header_for_sender(
            &topo,
            &layout,
            &tree,
            &elmo_core::DownstreamSections::new(&topo, &layout, &tree, &enc),
            hosts[0],
            &elmo_topology::UpstreamCover::multipath(),
        );
        std::hint::black_box(header.encode(&layout));
        times_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    times_us.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = times_us.len();
    LatencyStats {
        groups: n,
        mean_us: times_us.iter().sum::<f64>() / n as f64,
        p99_us: times_us[(n - 1) * 99 / 100],
        max_us: *times_us.last().expect("non-empty"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elmo_dataplane::ElmoPacketRepr;
    use elmo_workloads::GroupSizeDist;

    #[test]
    fn fig7_packets_grow_with_rules_and_stay_at_line_rate() {
        let points = fig7(Clos::facebook_fabric(), &[0, 10, 30], 128, 20.0);
        assert_eq!(points.len(), 3);
        // Only the packet-size shape is asserted: the software rate is
        // host-timed and is reported, never compared.
        for w in points.windows(2) {
            assert!(w[0].packet_bytes < w[1].packet_bytes);
            assert!(w[1].line_mpps < w[0].line_mpps, "line-rate Mpps falls");
        }
        for p in &points {
            assert!(p.gbps > 0.0 && p.gbps <= 20.0 + 1e-9, "{p:?}");
            assert!(p.sw_mpps_q1 <= p.sw_mpps && p.sw_mpps <= p.sw_mpps_q3);
        }
    }

    #[test]
    fn header_with_rules_is_parseable() {
        let layout = HeaderLayout::for_clos(&Clos::facebook_fabric());
        for n in [0usize, 5, 30] {
            let h = header_with_rules(&layout, n);
            let bytes = h.encode(&layout);
            let (decoded, _) = ElmoHeader::decode(&bytes, &layout).unwrap();
            assert_eq!(decoded.d_leaf.len(), n);
            // The 30-rule header must still fit the paper's 325-byte cap.
            assert!(bytes.len() <= 325, "n={n} -> {}", bytes.len());
        }
    }

    #[test]
    fn header_vector_includes_outer_stack() {
        let layout = HeaderLayout::for_clos(&Clos::facebook_fabric());
        let h = header_with_rules(&layout, 30);
        assert!(
            ElmoPacketRepr::OUTER_LEN + h.byte_len(&layout) <= 512,
            "RMT limit"
        );
    }

    #[test]
    fn latency_is_well_under_a_millisecond() {
        let topo = Clos::scaled_fabric(4, 8, 8);
        let cfg = WorkloadConfig {
            tenants: 20,
            total_groups: 150,
            host_vm_cap: 20,
            placement_p: 1,
            min_group_size: 5,
            dist: GroupSizeDist::Wve,
            seed: 2,
        };
        let stats = controller_latency(topo, cfg, 100);
        assert!(stats.groups >= 50);
        // The paper's Python controller needed ~0.2 ms; the Rust one must be
        // far below 1 ms even in debug builds.
        assert!(stats.mean_us < 1_000.0, "mean {} us", stats.mean_us);
    }
}
