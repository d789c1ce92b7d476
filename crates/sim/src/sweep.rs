//! The core scalability sweep behind Figures 4 and 5 (and the §5.1.2
//! variants: Uniform sizes, limited s-rule capacity, reduced headers).
//!
//! For each redundancy limit `R`, every group in the workload is encoded
//! with Algorithm 1 against a fresh fabric-wide s-rule budget, and three
//! families of metrics are collected:
//!
//! * **coverage** — groups represented purely by non-default p-rules
//!   (left panels);
//! * **s-rule occupancy** — per-leaf and per-spine group-table entries,
//!   with the Li et al. baseline for the dashed line (center panels);
//! * **traffic overhead** — total bytes over ideal multicast, with unicast
//!   and overlay baselines (right panels), for each payload size.
//!
//! Group encoding is the one place in the workspace that runs on several
//! threads, in two phases per chunk of groups. The fabric-wide s-rule
//! budget (per-switch `Fmax`) is the only state groups share, so:
//!
//! * **Phase 1 (parallel)** encodes every group *optimistically*, as if
//!   every s-rule allocation succeeds, and records the exact sequence of
//!   capacity requests Algorithm 1 issued (`encode_group_optimistic`).
//! * **Phase 2 (sequential, group order)** replays each group's requests
//!   into the real [`SRuleSpace`] (`try_admit`). If every request is
//!   granted — always true with unlimited `Fmax`, the paper's main setting —
//!   the optimistic encoding *is* the serial encoding, because Algorithm 1's
//!   control flow only observes allocation results. On any refusal the
//!   group's reservations are rolled back and it is re-encoded serially
//!   against the live tracker ([`encode_group_admitted`]), which reproduces
//!   the serial path exactly, including a refused *spine* allocation
//!   growing the spine default rule and thereby shrinking the leaf layer's
//!   bit budget.
//!
//! Rows are therefore bit-identical at any thread count;
//! `tests/parallel_determinism.rs` checks them against a serial
//! [`elmo_controller::Controller`].

use std::cell::RefCell;

use elmo_controller::srules::{encode_group_admitted, SRuleSpace, UsageStats};
use elmo_core::par::{map_with, resolve_threads};
use elmo_core::{encode_group_with, EncodeScratch, EncoderConfig, GroupEncoding, HeaderLayout};
use elmo_topology::{Clos, GroupTree, HostId, LeafId, PodId};
use elmo_workloads::{Workload, WorkloadConfig};

use crate::baselines;
use crate::metrics::{self, GroupTraffic, Summary};

/// Sweep metrics. `groups_encoded` is recorded inside parallel workers
/// (commutative); everything else from the sequential fold. The
/// `header_bytes` histogram is the per-sender header-size distribution of
/// Figures 4/5 (left panels) as a live metric.
struct SweepMetrics {
    groups_encoded: elmo_obs::Counter,
    reencoded: elmo_obs::Counter,
    header_bytes: elmo_obs::Histogram,
}

fn ometrics() -> &'static SweepMetrics {
    static M: std::sync::OnceLock<SweepMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| SweepMetrics {
        groups_encoded: elmo_obs::counter("sim.sweep.groups_encoded"),
        reencoded: elmo_obs::counter("sim.sweep.reencoded"),
        header_bytes: elmo_obs::histogram("sim.sweep.header_bytes"),
    })
}

/// Groups evaluated per two-phase round. Bounds how many trees, encodings,
/// and recorded s-rule requests are resident at once, so million-group
/// workloads stream through the parallel pipeline in constant memory.
const CHUNK: usize = 4096;

/// One s-rule capacity request recorded during an optimistic encode, in the
/// order Algorithm 1 issues it against a live tracker.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SRuleReq {
    /// One group-table entry on every spine of the pod.
    Pod(PodId),
    /// One group-table entry on the leaf.
    Leaf(LeafId),
}

/// Phase 1: encode one group assuming unlimited s-rule capacity, recording
/// every allocation Algorithm 1 would have made into `reqs` (cleared first).
fn encode_group_optimistic(
    topo: &Clos,
    tree: &GroupTree,
    cfg: &EncoderConfig,
    scratch: &mut EncodeScratch,
    reqs: &mut Vec<SRuleReq>,
) -> GroupEncoding {
    reqs.clear();
    let cell = RefCell::new(reqs);
    let mut spine_alloc = |p: PodId| {
        cell.borrow_mut().push(SRuleReq::Pod(p));
        true
    };
    let mut leaf_alloc = |l: LeafId| {
        cell.borrow_mut().push(SRuleReq::Leaf(l));
        true
    };
    encode_group_with(topo, tree, cfg, &mut spine_alloc, &mut leaf_alloc, scratch)
}

/// Phase 2 admission: try to reserve every recorded request, in order.
/// All-or-nothing — on the first refusal every reservation made for this
/// group is rolled back and `false` is returned, leaving `srules` exactly
/// as it was so the caller can re-encode against the pre-group state.
fn try_admit(srules: &mut SRuleSpace, reqs: &[SRuleReq]) -> bool {
    for (i, req) in reqs.iter().enumerate() {
        let granted = match *req {
            SRuleReq::Pod(p) => srules.alloc_pod(p),
            SRuleReq::Leaf(l) => srules.alloc_leaf(l),
        };
        if !granted {
            for r in &reqs[..i] {
                match *r {
                    SRuleReq::Pod(p) => srules.free_pod(p),
                    SRuleReq::Leaf(l) => srules.free_leaf(l),
                }
            }
            return false;
        }
    }
    true
}

/// Sweep parameters.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    pub topo: Clos,
    pub workload: WorkloadConfig,
    /// Redundancy limits to evaluate (the x-axis).
    pub r_values: Vec<usize>,
    /// Per-leaf group-table capacity.
    pub leaf_fmax: usize,
    /// Per-spine group-table capacity.
    pub spine_fmax: usize,
    /// Header budget in bytes.
    pub header_budget: usize,
    /// Payload sizes to report traffic overhead for.
    pub payloads: Vec<u64>,
    /// Worker threads for the optimistic encode phase (0 = all available
    /// cores). Results are identical at any thread count.
    pub threads: usize,
}

impl SweepConfig {
    /// The Figure 4/5 configuration on a given fabric: WVE sizes, unlimited
    /// group tables, 325-byte headers, 1,500-byte and 64-byte payloads.
    pub fn paper(topo: Clos, workload: WorkloadConfig) -> Self {
        SweepConfig {
            topo,
            workload,
            r_values: vec![0, 2, 4, 6, 8, 10, 12],
            leaf_fmax: usize::MAX,
            spine_fmax: usize::MAX,
            header_budget: 325,
            payloads: vec![1500, 64],
            threads: 1,
        }
    }
}

/// Traffic overhead aggregates for one payload size.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TrafficRow {
    pub payload: u64,
    /// Total-bytes ratios against ideal multicast.
    pub elmo_ratio: f64,
    pub unicast_ratio: f64,
    pub overlay_ratio: f64,
}

/// Results for one redundancy limit.
#[derive(Clone, PartialEq, Debug)]
pub struct SweepRow {
    pub r: usize,
    pub total_groups: usize,
    /// Groups encoded without s-rules or default p-rules.
    pub covered: usize,
    /// Groups that needed a default p-rule somewhere.
    pub defaulted: usize,
    /// s-rule occupancy per leaf switch.
    pub leaf_srules: UsageStats,
    /// s-rule occupancy per spine switch.
    pub spine_srules: UsageStats,
    /// Per-sender header bytes across groups.
    pub header_bytes: Summary,
    /// Traffic ratios per payload size.
    pub traffic: Vec<TrafficRow>,
}

/// Results of the whole sweep plus the Li et al. baseline (R-independent).
#[derive(Clone, PartialEq, Debug)]
pub struct SweepResult {
    pub rows: Vec<SweepRow>,
    pub li_leaf: UsageStats,
    pub li_spine: UsageStats,
    pub li_core: UsageStats,
}

/// Phase-1 output for one group: everything the sequential fold needs,
/// computed on a worker thread under the optimistic-capacity assumption.
struct GroupEval {
    tree: GroupTree,
    sender: HostId,
    enc: GroupEncoding,
    reqs: Vec<SRuleReq>,
    header_bytes: f64,
    /// One entry per configured payload size.
    traffic: Vec<GroupTraffic>,
}

/// Per-worker scratch: encode scratch and recorded s-rule requests.
type WorkerState = (EncodeScratch, Vec<SRuleReq>);

/// Measure one encoding: per-sender header bytes plus one traffic row per
/// payload size. One fabric walk total — [`metrics::traffic_model`] captures
/// the payload-independent constants and each payload row is derived
/// arithmetically. Shared by the optimistic phase-1 path and the
/// capacity-constrained re-encode in [`RowAccum::fold`].
fn measure(
    topo: &Clos,
    layout: &HeaderLayout,
    payloads: &[u64],
    tree: &GroupTree,
    enc: &GroupEncoding,
    sender: HostId,
) -> (f64, Vec<GroupTraffic>) {
    let model = metrics::traffic_model(topo, layout, tree, enc, sender);
    let traffic = payloads.iter().map(|&p| model.eval(p)).collect();
    (model.header_len as f64, traffic)
}

fn eval_group(
    topo: &Clos,
    layout: &HeaderLayout,
    encoder: &EncoderConfig,
    payloads: &[u64],
    tree: GroupTree,
    sender: HostId,
    (scratch, reqs): &mut WorkerState,
) -> GroupEval {
    let enc = encode_group_optimistic(topo, &tree, encoder, scratch, reqs);
    let (header_bytes, traffic) = measure(topo, layout, payloads, &tree, &enc, sender);
    GroupEval {
        tree,
        sender,
        enc,
        reqs: std::mem::take(reqs),
        header_bytes,
        traffic,
    }
}

/// Phase 2 admission for one group: reserve its recorded requests, or, on
/// a refusal, re-encode it serially against the live tracker (serial
/// semantics: allocations that succeed before a refusal stick). Returns
/// `true` when `enc` was replaced by the re-encode.
fn admit_or_reencode(
    topo: &Clos,
    encoder: &EncoderConfig,
    srules: &mut SRuleSpace,
    scratch: &mut EncodeScratch,
    tree: &GroupTree,
    reqs: &[SRuleReq],
    enc: &mut GroupEncoding,
) -> bool {
    if try_admit(srules, reqs) {
        return false;
    }
    *enc = encode_group_admitted(topo, tree, encoder, srules, scratch);
    true
}

/// Per-R accumulators folded strictly in group order, so float summaries are
/// bit-identical at every thread count.
struct RowAccum {
    srules: SRuleSpace,
    covered: usize,
    defaulted: usize,
    header_bytes: Summary,
    elmo_sum: Vec<u64>,
    ideal_sum: Vec<u64>,
    unicast_sum: Vec<u64>,
    overlay_sum: Vec<u64>,
    scratch: EncodeScratch,
}

impl RowAccum {
    fn new(topo: &Clos, cfg: &SweepConfig) -> Self {
        RowAccum {
            srules: SRuleSpace::new(topo, cfg.leaf_fmax, cfg.spine_fmax),
            covered: 0,
            defaulted: 0,
            header_bytes: Summary::new(),
            elmo_sum: vec![0; cfg.payloads.len()],
            ideal_sum: vec![0; cfg.payloads.len()],
            unicast_sum: vec![0; cfg.payloads.len()],
            overlay_sum: vec![0; cfg.payloads.len()],
            scratch: EncodeScratch::new(),
        }
    }

    /// Phase 2 for one group: admit it, re-measuring it if it had to be
    /// re-encoded, then fold its metrics into the row.
    fn fold(
        &mut self,
        topo: &Clos,
        layout: &HeaderLayout,
        encoder: &EncoderConfig,
        payloads: &[u64],
        mut ev: GroupEval,
    ) {
        if admit_or_reencode(
            topo,
            encoder,
            &mut self.srules,
            &mut self.scratch,
            &ev.tree,
            &ev.reqs,
            &mut ev.enc,
        ) {
            ometrics().reencoded.inc();
            let (hb, traffic) = measure(topo, layout, payloads, &ev.tree, &ev.enc, ev.sender);
            ev.header_bytes = hb;
            ev.traffic = traffic;
        }
        if ev.enc.leaf_covered_by_p_rules() {
            self.covered += 1;
        }
        if ev.enc.d_leaf.default_rule.is_some() || ev.enc.d_spine.default_rule.is_some() {
            self.defaulted += 1;
        }
        self.header_bytes.push(ev.header_bytes);
        ometrics().header_bytes.record(ev.header_bytes as u64);
        for (pi, t) in ev.traffic.iter().enumerate() {
            self.elmo_sum[pi] += t.elmo;
            self.ideal_sum[pi] += t.ideal;
            self.unicast_sum[pi] += t.unicast;
            self.overlay_sum[pi] += t.overlay;
        }
    }

    fn into_row(self, topo: &Clos, cfg: &SweepConfig, r: usize, total_groups: usize) -> SweepRow {
        let traffic = cfg
            .payloads
            .iter()
            .enumerate()
            .map(|(pi, &payload)| TrafficRow {
                payload,
                elmo_ratio: self.elmo_sum[pi] as f64 / self.ideal_sum[pi] as f64,
                unicast_ratio: self.unicast_sum[pi] as f64 / self.ideal_sum[pi] as f64,
                overlay_ratio: self.overlay_sum[pi] as f64 / self.ideal_sum[pi] as f64,
            })
            .collect();
        // Spine occupancy is per physical spine: every spine of a pod holds
        // the pod's s-rules.
        let spine_usage: Vec<usize> = topo
            .spines()
            .map(|s| self.srules.pod_usage(topo.pod_of_spine(s)))
            .collect();
        SweepRow {
            r,
            total_groups,
            covered: self.covered,
            defaulted: self.defaulted,
            leaf_srules: UsageStats::of(self.srules.leaf_usages()),
            spine_srules: UsageStats::of(&spine_usage),
            header_bytes: self.header_bytes,
            traffic,
        }
    }
}

/// Run the sweep. Group encoding fans out over `cfg.threads` workers in
/// the two phases described in the module docs; every result — s-rule
/// occupancy, coverage counts, float traffic summaries — is bit-identical
/// to the single-threaded run because admission and metric folding happen
/// sequentially in group order.
pub fn run(cfg: &SweepConfig) -> SweepResult {
    let topo = cfg.topo;
    let layout = HeaderLayout::for_clos(&topo);
    let threads = resolve_threads(cfg.threads);
    let workload = Workload::generate(topo, cfg.workload);

    // Li et al. baseline over the same workload (independent of R). Tree
    // construction and tree hashing parallelize per chunk; the usage counts
    // are folded in group order (they are integer counters, so order does
    // not matter for the result, only for reproducible iteration).
    let mut li_usage = baselines::LiUsage {
        leaf: vec![0; topo.num_leaves()],
        spine: vec![0; topo.num_spines()],
        core: vec![0; topo.num_cores()],
    };
    for (chunk_idx, chunk) in workload.groups.chunks(CHUNK).enumerate() {
        let base = chunk_idx * CHUNK;
        let trees = map_with(
            chunk.len(),
            threads,
            || (),
            |(), i| {
                let tree = GroupTree::new(&topo, workload.member_hosts(&chunk[i]));
                baselines::li_tree(&topo, &tree, (base + i) as u64)
            },
        );
        for lt in trees {
            for l in lt.leaves {
                li_usage.leaf[l as usize] += 1;
            }
            for s in lt.spines {
                li_usage.spine[s as usize] += 1;
            }
            if let Some(c) = lt.core {
                li_usage.core[c as usize] += 1;
            }
        }
    }

    let mut rows = Vec::with_capacity(cfg.r_values.len());
    for &r in &cfg.r_values {
        let _row_span = elmo_obs::span!("sweep_row");
        let encoder = {
            let mut e = EncoderConfig::with_budget(&layout, cfg.header_budget, r);
            e.mode = elmo_core::RedundancyMode::Sum;
            e
        };
        let mut acc = RowAccum::new(&topo, cfg);
        for chunk in workload.groups.chunks(CHUNK) {
            // Phase 1 (parallel): tree + optimistic encode + metrics.
            let evals = {
                let _span = elmo_obs::span!("sweep_phase1");
                map_with(
                    chunk.len(),
                    threads,
                    || (EncodeScratch::new(), Vec::new()),
                    |ws, i| {
                        let hosts = workload.member_hosts(&chunk[i]);
                        let tree = GroupTree::new(&topo, hosts.iter().copied());
                        if tree.is_empty() {
                            return None;
                        }
                        ometrics().groups_encoded.inc();
                        let sender = hosts[0];
                        Some(eval_group(
                            &topo,
                            &layout,
                            &encoder,
                            &cfg.payloads,
                            tree,
                            sender,
                            ws,
                        ))
                    },
                )
            };
            // Phase 2 (sequential, group order): admission + metric fold.
            let _span = elmo_obs::span!("sweep_fold");
            for ev in evals.into_iter().flatten() {
                acc.fold(&topo, &layout, &encoder, &cfg.payloads, ev);
            }
        }
        let row = acc.into_row(&topo, cfg, r, workload.groups.len());
        elmo_obs::debug!(
            "sweep.row",
            r = row.r,
            covered = row.covered,
            defaulted = row.defaulted,
            groups = row.total_groups,
        );
        rows.push(row);
    }

    SweepResult {
        rows,
        li_leaf: UsageStats::of(&li_usage.leaf),
        li_spine: UsageStats::of(&li_usage.spine),
        li_core: UsageStats::of(&li_usage.core),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elmo_workloads::GroupSizeDist;

    fn small_sweep(p: usize, dist: GroupSizeDist) -> SweepResult {
        let topo = Clos::scaled_fabric(4, 8, 8); // 256 hosts
        let workload = WorkloadConfig {
            tenants: 30,
            total_groups: 400,
            host_vm_cap: 20,
            placement_p: p,
            min_group_size: 5,
            dist,
            seed: 21,
        };
        let mut cfg = SweepConfig::paper(topo, workload);
        cfg.r_values = vec![0, 6, 12];
        run(&cfg)
    }

    #[test]
    fn coverage_increases_with_r() {
        let result = small_sweep(12, GroupSizeDist::Wve);
        let covered: Vec<usize> = result.rows.iter().map(|r| r.covered).collect();
        assert!(
            covered[0] <= covered[1] && covered[1] <= covered[2],
            "{covered:?}"
        );
        assert!(covered[2] > 0);
    }

    #[test]
    fn srule_usage_decreases_with_r() {
        let result = small_sweep(12, GroupSizeDist::Wve);
        let means: Vec<f64> = result.rows.iter().map(|r| r.leaf_srules.mean).collect();
        assert!(means[0] >= means[2], "{means:?}");
    }

    #[test]
    fn traffic_overhead_grows_with_r_but_stays_below_baselines() {
        let result = small_sweep(12, GroupSizeDist::Wve);
        for row in &result.rows {
            let t1500 = row.traffic.iter().find(|t| t.payload == 1500).unwrap();
            assert!(t1500.elmo_ratio >= 1.0);
            assert!(t1500.elmo_ratio < t1500.overlay_ratio, "r={}", row.r);
            assert!(t1500.overlay_ratio < t1500.unicast_ratio);
            let t64 = row.traffic.iter().find(|t| t.payload == 64).unwrap();
            assert!(t64.elmo_ratio > t1500.elmo_ratio, "small packets hurt more");
        }
    }

    #[test]
    fn li_baseline_exceeds_elmo_srule_usage() {
        let result = small_sweep(12, GroupSizeDist::Wve);
        // Elmo at R=12 should use far less leaf group-table state than the
        // Li et al. baseline (Figures 4/5 center).
        let elmo = result.rows.last().unwrap().leaf_srules.mean;
        assert!(
            result.li_leaf.mean > elmo.max(0.5),
            "li {} vs elmo {}",
            result.li_leaf.mean,
            elmo
        );
    }

    #[test]
    fn dispersed_placement_spreads_state_wider() {
        let p12 = small_sweep(12, GroupSizeDist::Wve);
        let p1 = small_sweep(1, GroupSizeDist::Wve);
        // Dispersed placement puts groups on more leaves, so any scheme
        // paying per-member-leaf state (Li et al.: one group-table entry per
        // member leaf per group) needs substantially more of it — the
        // effect behind Figure 5 vs Figure 4.
        assert!(
            p1.li_leaf.mean > p12.li_leaf.mean,
            "p1 {} <= p12 {}",
            p1.li_leaf.mean,
            p12.li_leaf.mean
        );
    }

    #[test]
    fn headers_respect_the_budget() {
        let result = small_sweep(1, GroupSizeDist::Uniform);
        for row in &result.rows {
            assert!(
                row.header_bytes.max <= 325.0,
                "r={} max={}",
                row.r,
                row.header_bytes.max
            );
            assert!(row.header_bytes.min >= 1.0);
        }
    }

    fn random_trees(topo: &Clos, n: usize, seed: u64) -> Vec<GroupTree> {
        let mut rng = elmo_core::SplitMix64::new(seed);
        (0..n)
            .map(|_| {
                let size = rng.range_inclusive(2, 24);
                let members: Vec<HostId> = (0..size)
                    .map(|_| HostId(rng.below(topo.num_hosts() as u64) as u32))
                    .collect();
                GroupTree::new(topo, members)
            })
            .collect()
    }

    /// Both phases over a list of trees, with the sweep's own pieces:
    /// parallel optimistic encodes, then admission in slice order.
    struct TwoPhase {
        encodings: Vec<GroupEncoding>,
        reencoded: usize,
    }

    fn two_phase(
        topo: &Clos,
        cfg: &EncoderConfig,
        srules: &mut SRuleSpace,
        trees: &[GroupTree],
        threads: usize,
    ) -> TwoPhase {
        let phase1 = map_with(
            trees.len(),
            threads,
            || (EncodeScratch::new(), Vec::new()),
            |(scratch, reqs), i| {
                let enc = encode_group_optimistic(topo, &trees[i], cfg, scratch, reqs);
                (enc, std::mem::take(reqs))
            },
        );
        let mut scratch = EncodeScratch::new();
        let mut reencoded = 0;
        let encodings = phase1
            .into_iter()
            .zip(trees)
            .map(|((mut enc, reqs), tree)| {
                if admit_or_reencode(topo, cfg, srules, &mut scratch, tree, &reqs, &mut enc) {
                    reencoded += 1;
                }
                enc
            })
            .collect();
        TwoPhase {
            encodings,
            reencoded,
        }
    }

    fn serial_reference(
        topo: &Clos,
        cfg: &EncoderConfig,
        srules: &mut SRuleSpace,
        trees: &[GroupTree],
    ) -> Vec<GroupEncoding> {
        let mut scratch = EncodeScratch::new();
        trees
            .iter()
            .map(|t| encode_group_admitted(topo, t, cfg, srules, &mut scratch))
            .collect()
    }

    #[test]
    fn optimistic_matches_serial_when_capacity_is_unlimited() {
        let topo = Clos::paper_example();
        let layout = HeaderLayout::for_clos(&topo);
        let cfg = EncoderConfig::with_budget(&layout, 48, 0);
        let trees = random_trees(&topo, 60, 0xA11C);
        for threads in [1, 2, 8] {
            let mut srules = SRuleSpace::unlimited(&topo);
            let out = two_phase(&topo, &cfg, &mut srules, &trees, threads);
            assert_eq!(out.reencoded, 0, "unlimited capacity never re-encodes");
            let mut ref_srules = SRuleSpace::unlimited(&topo);
            let reference = serial_reference(&topo, &cfg, &mut ref_srules, &trees);
            assert_eq!(out.encodings, reference);
            assert_eq!(srules.leaf_usages(), ref_srules.leaf_usages());
            assert_eq!(srules.pod_usages(), ref_srules.pod_usages());
        }
    }

    #[test]
    fn capacity_pressure_reencodes_but_stays_identical_to_serial() {
        let topo = Clos::paper_example();
        let layout = HeaderLayout::for_clos(&topo);
        // Tiny header budget spills aggressively into s-rules; tiny Fmax
        // then forces admission failures and the re-encode path.
        let cfg = EncoderConfig::with_budget(&layout, 16, 0);
        let trees = random_trees(&topo, 80, 0xBEE);
        let mut any_reencoded = false;
        for threads in [1, 2, 8] {
            let mut srules = SRuleSpace::new(&topo, 3, 2);
            let out = two_phase(&topo, &cfg, &mut srules, &trees, threads);
            any_reencoded |= out.reencoded > 0;
            let mut ref_srules = SRuleSpace::new(&topo, 3, 2);
            let reference = serial_reference(&topo, &cfg, &mut ref_srules, &trees);
            assert_eq!(out.encodings, reference, "threads={threads}");
            assert_eq!(srules.leaf_usages(), ref_srules.leaf_usages());
            assert_eq!(srules.pod_usages(), ref_srules.pod_usages());
        }
        assert!(
            any_reencoded,
            "test must actually exercise the re-encode path"
        );
    }

    #[test]
    fn try_admit_rolls_back_on_refusal() {
        let topo = Clos::paper_example();
        let mut srules = SRuleSpace::new(&topo, 1, 1);
        assert!(srules.alloc_leaf(LeafId(0))); // pre-fill leaf 0
        let reqs = [
            SRuleReq::Leaf(LeafId(1)),
            SRuleReq::Pod(PodId(0)),
            SRuleReq::Leaf(LeafId(0)), // refused: at capacity
        ];
        assert!(!try_admit(&mut srules, &reqs));
        assert_eq!(srules.leaf_usage(LeafId(1)), 0, "rolled back");
        assert_eq!(srules.pod_usage(PodId(0)), 0, "rolled back");
        assert_eq!(srules.leaf_usage(LeafId(0)), 1, "pre-existing kept");
    }
}
