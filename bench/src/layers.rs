//! The traced run's extra passes: kernels timed in isolation over the
//! workload's own trees and headers, the 2-thread rows, and the split of
//! the deliver stage into materialise and decap. They run after the timed
//! phases and after every end-to-end number is taken.

use std::hint::black_box;
use std::time::Instant;

use crate::run::{self, controller_config, RunReport};
use crate::spec;
use crate::stats;
use crate::sut::{
    approx_min_k_union_with, encode_group, snapshot, Controller, DeliveryBatch, ElmoHeader,
    EncoderConfig, FlightPacket, GroupTree, HostId, MinKUnionScratch, PortBitmap,
};
use crate::trace::Recorder;

/// Headers sampled for the codec passes.
const HEADER_SAMPLE: usize = 20_000;
/// Repetitions of the materialise-only and 2-shard passes.
const REPS: usize = 5;

#[derive(Clone, Copy, Debug, Default)]
pub struct Extras {
    pub cpus_available: usize,
    pub tree_build_ns_per_group: f64,
    pub encode_group_ns_per_group: f64,
    pub min_k_union_ns_per_call: f64,
    pub header_encode_ns_per_header: f64,
    pub header_decode_ns_per_header: f64,
    pub cache_hit_rate: f64,
    pub batch_t1_groups_per_s: f64,
    /// 0 (not timed) when fewer than two CPUs are available.
    pub batch_t2_groups_per_s: f64,
    pub materialize_ns_per_copy: f64,
    /// 0 (not timed) when fewer than two CPUs are available.
    pub s2_pkts_per_s: f64,
    pub cross_msgs_per_pkt: f64,
    pub span_pair_ns: f64,
}

fn counter(name: &str) -> u64 {
    run::counter(&snapshot(), name)
}

pub fn measure(r: &mut RunReport) -> Extras {
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let mut x = Extras {
        cpus_available: cpus,
        span_pair_ns: Recorder::calibrate_pair_ns(),
        ..Extras::default()
    };
    let w = &mut r.world;
    let (topo, layout) = (*w.ctl.topo(), *w.ctl.layout());
    let specs = &w.inputs.specs;

    // topology: project every group's initial receivers onto the fabric.
    let receivers: Vec<Vec<HostId>> = specs
        .iter()
        .map(|(_, _, _, m)| {
            let mut v: Vec<_> = m
                .iter()
                .filter(|(_, r)| r.receives())
                .map(|&(h, _)| h)
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        })
        .collect();
    let t = Instant::now();
    let trees: Vec<GroupTree> = receivers
        .iter()
        .map(|hosts| GroupTree::new(&topo, hosts.iter().copied()))
        .collect();
    x.tree_build_ns_per_group = t.elapsed().as_nanos() as f64 / trees.len().max(1) as f64;

    // core: Algorithm 1 over those trees with unlimited s-rule space.
    let enc_cfg = EncoderConfig::with_budget(&layout, spec::header_budget(&topo), r.spec.r);
    let t = Instant::now();
    for tree in &trees {
        black_box(encode_group(
            &topo,
            tree,
            &enc_cfg,
            &mut |_| true,
            &mut |_| true,
        ));
    }
    x.encode_group_ns_per_group = t.elapsed().as_nanos() as f64 / trees.len().max(1) as f64;

    // core: MIN-K-UNION over each multi-leaf tree's leaf bitmaps.
    let width = topo.leaf_down_ports();
    let inputs: Vec<Vec<PortBitmap>> = trees
        .iter()
        .filter(|t| t.num_leaves() >= 2)
        .map(|t| {
            t.leaves()
                .map(|l| PortBitmap::from_ports(width, t.host_ports_on_leaf(&topo, l)))
                .collect()
        })
        .collect();
    let mut scratch = MinKUnionScratch::new();
    let mut refs: Vec<&PortBitmap> = Vec::new();
    let t = Instant::now();
    for bitmaps in &inputs {
        refs.clear();
        refs.extend(bitmaps.iter());
        let k = enc_cfg.k_max.min(refs.len());
        black_box(approx_min_k_union_with(k, &refs, &mut scratch));
    }
    x.min_k_union_ns_per_call = t.elapsed().as_nanos() as f64 / inputs.len().max(1) as f64;

    // core: header codec over the deployed headers.
    let mut states: Vec<_> = w.ctl.groups().collect();
    states.sort_unstable_by_key(|g| g.id.0);
    let headers: Vec<std::sync::Arc<ElmoHeader>> = states
        .iter()
        .flat_map(|g| {
            let hvs = &w.agent.hvs;
            g.sender_hosts()
                .filter_map(move |h| hvs[h.0 as usize].flow(g.vni, g.tenant_addr))
                .map(|f| f.header.clone())
        })
        .take(HEADER_SAMPLE)
        .collect();
    let t = Instant::now();
    let encoded: Vec<Vec<u8>> = headers.iter().map(|h| h.encode(&layout)).collect();
    x.header_encode_ns_per_header = t.elapsed().as_nanos() as f64 / headers.len().max(1) as f64;
    let t = Instant::now();
    for bytes in &encoded {
        black_box(ElmoHeader::decode(bytes, &layout).is_ok());
    }
    x.header_decode_ns_per_header = t.elapsed().as_nanos() as f64 / encoded.len().max(1) as f64;

    // controller: the batch pipeline on a fresh controller, over the
    // specs set-up batches (all of them when set-up creates nothing).
    let n = if r.spec.setup_groups > 0 {
        r.spec.setup_groups
    } else {
        specs.len()
    };
    let batch = |threads: usize| {
        let mut ctl = Controller::new(topo, controller_config(&r.spec, &topo));
        let (h0, m0) = (counter("encode.cache_hit"), counter("encode.cache_miss"));
        let t = Instant::now();
        ctl.create_groups_batch(&specs[..n], threads);
        let rate = n as f64 / t.elapsed().as_secs_f64();
        let (h, m) = (
            counter("encode.cache_hit") - h0,
            counter("encode.cache_miss") - m0,
        );
        (rate, h as f64 / (h + m).max(1) as f64)
    };
    // One pass unmeasured: the first batch pays for growing the heap.
    batch(1);
    (x.batch_t1_groups_per_s, x.cache_hit_rate) = batch(1);
    if cpus >= 2 {
        x.batch_t2_groups_per_s = batch(2).0;
    }

    // dataplane.packet: materialise the last chunk's deliveries without
    // handing them to a hypervisor.
    let copies = r.last_out.len().max(1) as f64;
    let passes: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            r.last_out.for_each(|h, b| {
                black_box((h, b.len()));
            });
            t.elapsed().as_nanos() as f64 / copies
        })
        .collect();
    x.materialize_ns_per_copy = stats::median(&passes);

    // dataplane.shard: the last chunk again through two shards.
    if cpus >= 2 && !r.last_lineup.is_empty() {
        let mut flights: Vec<(HostId, FlightPacket)> = Vec::with_capacity(r.last_lineup.len());
        for f in &r.last_lineup {
            let hv = &mut w.agent.hvs[f.sender.0 as usize];
            for wire in hv.send(f.vni, f.tenant_addr, &r.frame, &layout) {
                if let Ok(p) = FlightPacket::parse(&wire, &layout) {
                    flights.push((f.sender, p));
                }
            }
        }
        let mut out = DeliveryBatch::new();
        // Once unmeasured, so both shards' buffers are warm.
        w.agent.fabric.replay_flights_sharded(&flights, 2, &mut out);
        let cross0 = counter("fabric.replay.shard.cross_msgs");
        let t = Instant::now();
        for _ in 0..REPS {
            w.agent.fabric.replay_flights_sharded(&flights, 2, &mut out);
        }
        let secs = t.elapsed().as_secs_f64();
        let pkts = (REPS * flights.len()).max(1) as f64;
        x.s2_pkts_per_s = pkts / secs;
        x.cross_msgs_per_pkt = (counter("fabric.replay.shard.cross_msgs") - cross0) as f64 / pkts;
    }
    x
}
