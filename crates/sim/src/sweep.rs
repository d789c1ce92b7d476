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
//! Each R is one independent run, as in the paper (§5.1): a serial job
//! that walks the workload in group order against its own fresh s-rule
//! budget (`SRuleSpace`, per-switch `Fmax`) — tree →
//! [`encode_group_admitted`] → traffic model → fold. That is the same
//! encode-and-admit path the controller runs, so a refused allocation
//! sends the switch to a wider p-rule or the default rule exactly as a
//! serial [`elmo_controller::Controller`] would. The workload is generated
//! once and shared read-only; the R jobs and the Li et al. baseline run on
//! one scoped thread each. Every job is serial, so each row is
//! bit-identical however the jobs are scheduled;
//! `tests/parallel_determinism.rs` checks rows against single-R runs and
//! against a serial controller.

use elmo_controller::srules::{encode_group_admitted, SRuleSpace, UsageStats};
use elmo_core::{EncodeScratch, EncoderConfig, HeaderLayout};
use elmo_topology::{Clos, GroupTree, HostId};
use elmo_workloads::{Workload, WorkloadConfig};

use crate::baselines;
use crate::metrics::{self, Summary};

/// Sweep metrics. Every R job records into them; all are commutative
/// increments, so a snapshot does not depend on how the jobs interleave.
/// The `header_bytes` histogram is the per-sender header-size distribution
/// of Figures 4/5 (left panels) as a live metric.
struct SweepMetrics {
    groups_encoded: elmo_obs::Counter,
    header_bytes: elmo_obs::Histogram,
}

fn ometrics() -> &'static SweepMetrics {
    static M: std::sync::OnceLock<SweepMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| SweepMetrics {
        groups_encoded: elmo_obs::counter("sim.sweep.groups_encoded"),
        header_bytes: elmo_obs::histogram("sim.sweep.header_bytes"),
    })
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

/// One R job's state: its own s-rule budget and encode scratch, and the
/// row's accumulators, folded strictly in group order so float summaries
/// are bit-identical run to run.
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

    /// Encode one group against this row's s-rule budget, then fold its
    /// coverage, header size and traffic into the row. One fabric walk per
    /// group: [`metrics::traffic_model`] captures the payload-independent
    /// constants and each payload's traffic is derived arithmetically.
    fn fold(
        &mut self,
        topo: &Clos,
        layout: &HeaderLayout,
        encoder: &EncoderConfig,
        payloads: &[u64],
        tree: &GroupTree,
        sender: HostId,
    ) {
        let enc = encode_group_admitted(topo, tree, encoder, &mut self.srules, &mut self.scratch);
        if enc.leaf_covered_by_p_rules() {
            self.covered += 1;
        }
        if enc.d_leaf.default_rule.is_some() || enc.d_spine.default_rule.is_some() {
            self.defaulted += 1;
        }
        let model = metrics::traffic_model(topo, layout, tree, &enc, sender);
        self.header_bytes.push(model.header_len as f64);
        ometrics().header_bytes.record(model.header_len);
        for (pi, &payload) in payloads.iter().enumerate() {
            let t = model.eval(payload);
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

/// One R value's row: every group of the workload, serially and in group
/// order, against a fresh s-rule budget.
fn run_row(
    topo: &Clos,
    layout: &HeaderLayout,
    workload: &Workload,
    cfg: &SweepConfig,
    r: usize,
) -> SweepRow {
    let _row_span = elmo_obs::span!("sweep_row");
    let encoder = EncoderConfig::with_budget(layout, cfg.header_budget, r);
    let mut acc = RowAccum::new(topo, cfg);
    for g in &workload.groups {
        let hosts = workload.member_hosts(g);
        let tree = GroupTree::new(topo, hosts.iter().copied());
        if tree.is_empty() {
            continue;
        }
        ometrics().groups_encoded.inc();
        acc.fold(topo, layout, &encoder, &cfg.payloads, &tree, hosts[0]);
    }
    acc.into_row(topo, cfg, r, workload.groups.len())
}

/// Run the sweep: generate the workload once, then one scoped thread per R
/// value plus one for the Li et al. baseline. Each job is serial, so the
/// rows do not depend on how the jobs are scheduled; they are returned in
/// `cfg.r_values` order.
pub fn run(cfg: &SweepConfig) -> SweepResult {
    let topo = cfg.topo;
    let layout = HeaderLayout::for_clos(&topo);
    let workload = Workload::generate(topo, cfg.workload);

    let (rows, li) = std::thread::scope(|scope| {
        let (topo, layout, workload) = (&topo, &layout, &workload);
        let jobs: Vec<_> = cfg
            .r_values
            .iter()
            .map(|&r| scope.spawn(move || run_row(topo, layout, workload, cfg, r)))
            .collect();
        let li = scope.spawn(move || {
            let trees = workload
                .groups
                .iter()
                .enumerate()
                .map(|(gi, g)| (gi as u64, GroupTree::new(topo, workload.member_hosts(g))));
            baselines::li_usage(topo, trees)
        });
        let rows: Vec<SweepRow> = jobs
            .into_iter()
            .map(|j| j.join().expect("sweep row job panicked"))
            .collect();
        (rows, li.join().expect("Li et al. baseline job panicked"))
    });
    for row in &rows {
        elmo_obs::debug!(
            "sweep.row",
            r = row.r,
            covered = row.covered,
            defaulted = row.defaulted,
            groups = row.total_groups,
        );
    }

    SweepResult {
        rows,
        li_leaf: UsageStats::of(&li.leaf),
        li_spine: UsageStats::of(&li.spine),
        li_core: UsageStats::of(&li.core),
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
}
