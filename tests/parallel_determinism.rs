//! The Figures 4/5 sweep runs each R as its own serial job, on its own
//! thread, against its own s-rule budget. Running the R values together
//! must therefore be invisible in the results: a multi-R sweep produces
//! rows bit-identical — float summaries included — to one single-R run per
//! value, even when limited group-table capacity refuses allocations.
//! Under that pressure its rows must also match a serial controller that
//! creates the same groups one at a time.

use std::net::Ipv4Addr;
use std::sync::Mutex;

use elmo::controller::{Controller, ControllerConfig, GroupId, MemberRole, UsageStats};
use elmo::net::vxlan::Vni;
use elmo::sim::{sweep, SweepConfig, SweepResult};
use elmo::topology::Clos;
use elmo::workloads::{GroupSizeDist, Workload, WorkloadConfig};

/// The obs registry is process-global; tests in this binary that reset or
/// snapshot it must not interleave with other sweeps recording into it.
static REGISTRY: Mutex<()> = Mutex::new(());

fn base_config() -> SweepConfig {
    let topo = Clos::scaled_fabric(4, 8, 8); // 256 hosts
    let workload = WorkloadConfig {
        tenants: 25,
        total_groups: 300,
        host_vm_cap: 20,
        placement_p: 1,
        min_group_size: 5,
        dist: GroupSizeDist::Wve,
        seed: 0xD17E,
    };
    let mut cfg = SweepConfig::paper(topo, workload);
    cfg.r_values = vec![0, 6, 12];
    cfg
}

/// Run `cfg` once over all its R values, then once per R value alone, and
/// require the same rows and the same Li et al. baseline. Returns the
/// multi-R result.
fn assert_matches_single_r_runs(cfg: &SweepConfig) -> SweepResult {
    let all = sweep::run(cfg);
    assert_eq!(all.rows.len(), cfg.r_values.len());
    for (row, &r) in all.rows.iter().zip(&cfg.r_values) {
        let single = sweep::run(&SweepConfig {
            r_values: vec![r],
            ..cfg.clone()
        });
        assert_eq!(single.rows, std::slice::from_ref(row), "R={r}");
        assert_eq!(single.li_leaf, all.li_leaf);
        assert_eq!(single.li_spine, all.li_spine);
        assert_eq!(single.li_core, all.li_core);
    }
    all
}

#[test]
fn sweep_is_identical_at_any_thread_count() {
    let _guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = SweepConfig {
        r_values: vec![0, 2, 4, 6, 8, 10, 12],
        ..base_config()
    };
    assert_matches_single_r_runs(&cfg);
}

#[test]
fn sweep_with_limited_srule_capacity_is_identical() {
    // Tight header budget + tiny Fmax: many groups are refused s-rules and
    // fall back to default p-rules, and each R job must still see only its
    // own budget.
    let _guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let mut cfg = base_config();
    cfg.header_budget = 24;
    cfg.leaf_fmax = 8;
    cfg.spine_fmax = 8;
    let result = assert_matches_single_r_runs(&cfg);
    assert!(
        result.rows.iter().any(|r| r.defaulted > 0),
        "config must actually exhaust s-rule capacity"
    );
}

/// A header-pressed configuration: dispersed placement (`P = 2`) on a wide
/// fabric plus a large minimum group size makes groups span many leaves,
/// and the reduced header budget pushes those leaf layers into s-rules.
fn pressed_config() -> SweepConfig {
    let topo = Clos::scaled_fabric(4, 12, 8); // 48 leaves, 384 hosts
    let workload = WorkloadConfig {
        tenants: 12,
        total_groups: 160,
        host_vm_cap: 20,
        placement_p: 2,
        min_group_size: 64,
        dist: GroupSizeDist::Uniform,
        seed: 0x5EED,
    };
    let mut cfg = SweepConfig::paper(topo, workload);
    cfg.r_values = vec![0, 6, 12];
    cfg.header_budget = 48;
    cfg
}

/// Per-switch group-table capacity for the oracle comparison.
const FMAX: usize = 8;

/// The row fields a serial controller can reproduce.
#[derive(PartialEq, Debug)]
struct SerialRow {
    covered: usize,
    defaulted: usize,
    leaf_srules: UsageStats,
    spine_srules: UsageStats,
}

fn serial_row(cfg: &SweepConfig, r: usize) -> SerialRow {
    let topo = cfg.topo;
    let workload = Workload::generate(topo, cfg.workload);
    let mut ctl = Controller::new(
        topo,
        ControllerConfig {
            header_budget_bytes: cfg.header_budget,
            r,
            leaf_fmax: cfg.leaf_fmax,
            spine_fmax: cfg.spine_fmax,
        },
    );
    let (mut covered, mut defaulted) = (0, 0);
    for (gi, g) in workload.groups.iter().enumerate() {
        let id = GroupId(gi as u64);
        let addr = Ipv4Addr::new(225, (gi >> 16) as u8, (gi >> 8) as u8, gi as u8);
        let members = workload
            .member_hosts(g)
            .into_iter()
            .map(|h| (h, MemberRole::Both));
        ctl.create_group(id, Vni(g.tenant), addr, members);
        let enc = &ctl.group(id).expect("created").enc;
        covered += enc.leaf_covered_by_p_rules() as usize;
        defaulted +=
            (enc.d_leaf.default_rule.is_some() || enc.d_spine.default_rule.is_some()) as usize;
    }
    let spine_usage: Vec<usize> = topo
        .spines()
        .map(|s| ctl.srules().pod_usage(topo.pod_of_spine(s)))
        .collect();
    SerialRow {
        covered,
        defaulted,
        leaf_srules: UsageStats::of(ctl.srules().leaf_usages()),
        spine_srules: UsageStats::of(&spine_usage),
    }
}

/// The sweep against an independent serial oracle: a `Controller` that
/// creates the same groups one `create_group` at a time (every member
/// `Both`, so its receiver tree is the sweep's tree) with the same budget,
/// `R` and `Fmax`. Group tables are small enough that admission refuses
/// s-rules; each row's coverage, defaults and s-rule occupancy must match
/// the serial controller's.
#[test]
fn cached_sweep_is_bit_identical_to_uncached_at_any_thread_count() {
    let _guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    elmo::obs::set_enabled(true);
    let mut cfg = pressed_config();
    cfg.leaf_fmax = FMAX;
    cfg.spine_fmax = FMAX;

    let serial: Vec<SerialRow> = cfg.r_values.iter().map(|&r| serial_row(&cfg, r)).collect();
    elmo::obs::reset();
    let result = sweep::run(&cfg);
    let snap = elmo::obs::snapshot();
    let refused = snap.counter("controller.srules.leaf_refused").unwrap_or(0)
        + snap.counter("controller.srules.pod_refused").unwrap_or(0);
    assert!(refused > 0, "Fmax must refuse s-rule allocations");
    assert_eq!(result.rows.len(), serial.len());
    for (row, want) in result.rows.iter().zip(&serial) {
        let got = SerialRow {
            covered: row.covered,
            defaulted: row.defaulted,
            leaf_srules: row.leaf_srules,
            spine_srules: row.spine_srules,
        };
        assert_eq!(&got, want, "R={}", row.r);
    }
}

#[test]
fn metrics_neither_perturb_results_nor_depend_on_thread_count() {
    // Two guarantees at once: (1) running with the metrics registry enabled
    // produces the same sweep rows as running with it off, and (2) the
    // deterministic view of the metrics themselves — everything except the
    // wall-clock `span.*` timings — is identical run to run, however the R
    // jobs interleave, because every job records only commutative
    // increments.
    let _guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = base_config();
    elmo::obs::set_enabled(false);
    let unmetered = sweep::run(&cfg);
    elmo::obs::set_enabled(true);
    let mut metered = Vec::new();
    for _ in 0..2 {
        elmo::obs::reset();
        let result = sweep::run(&cfg);
        let snap = elmo::obs::snapshot().deterministic();
        assert!(
            snap.counter("sim.sweep.groups_encoded").unwrap_or(0) > 0,
            "metrics were actually recorded"
        );
        assert!(
            snap.histograms.keys().all(|k| !k.starts_with("span.")),
            "deterministic view must exclude wall-clock spans"
        );
        assert_eq!(result.rows, unmetered.rows, "metrics changed the rows");
        metered.push(snap.to_json());
    }
    assert_eq!(metered[0], metered[1], "metrics diverged between runs");
}
