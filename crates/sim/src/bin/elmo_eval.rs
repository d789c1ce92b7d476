//! `elmo-eval` — regenerate every table and figure of the Elmo paper.
//!
//! ```text
//! elmo-eval <experiment> [flags]
//!
//! experiments:
//!   fig4            coverage / s-rules / traffic vs R, clustered placement (P=12)
//!   fig5            same, dispersed placement (P=1)
//!   uniform         §5.1.2: Uniform group-size distribution, both placements
//!   limited-srules  §5.1.2: Fmax = 10,000, dispersed placement
//!   small-header    §5.1.2: ~125-byte header budget + Fmax = 10,000
//!   table1          summary of headline results
//!   table2          control-plane update load under churn
//!   table3          related-work comparison
//!   fig6            pub-sub throughput and publisher CPU vs subscribers
//!   fig7            hypervisor encap throughput vs p-rule count
//!   telemetry       §5.2.2: sFlow egress bandwidth vs collectors
//!   failures        §5.1.3b: spine/core failure impact
//!   latency         §5.1.3: controller rule-computation latency
//!   xpander         §5.1.2: non-Clos (Xpander) feasibility
//!   ablation        §3.1 design-decision ablation (D1 -> D2 -> D3)
//!   two-tier        §5.1.1: two-tier (CONGA-style) leaf-spine sanity check
//!   verify          static rule-state verification of the fig4/fig5 state
//!   churn           §5.1.3a membership-change throughput under a seeded
//!                   join/leave stream, with per-burst verification
//!                   (--events, --burst, --min-group)
//!   trace           causal copy-tree trace of one packet (--group, --sender)
//!   timeline        windowed failure replay emitting per-window metrics
//!   all             run everything
//!
//! flags:
//!   --full          paper-scale fabric (27,648 hosts) and workload (1M groups)
//!   --groups N      override the group count
//!   --tenants N     override the tenant count
//!   --events N      churn events for table2 (default 20,000; paper 1M)
//!   --pkt N         extra payload size for the traffic columns
//!   --r LIST        comma-separated redundancy limits (default 0,2,4,6,8,10,12)
//!   --seed N        workload seed
//!   --samples N     groups replayed in verify's differential mode (default 120)
//!   --report-out P  write verify's JSON report to P
//!   --group N       fixture group id for `trace` (1..=3, default 3)
//!   --sender H      sender host for `trace` (default: group's first member)
//!   --trace-out P   write the traced copy tree (JSON) to P
//!   --expect-nodes N  fail `trace` unless the tree has exactly N nodes
//!   --windows N     logical windows for `timeline` (default 12)
//!   --tick N        packets replayed per window (default 8)
//!   --timeline-out P  write `timeline`'s per-window JSONL to P
//!   --metrics-out P write an elmo-obs metrics snapshot (JSON) to P on exit
//!   --trace-pcap P  dump a bounded sample of simulated packets to P (pcap)
//!   -v / -vv        debug / trace logging on stderr
//!   --quiet         warnings and errors only
//!   --log-json      JSONL structured events on stderr instead of human text
//! ```
//!
//! `elmo-eval check-metrics <file>` validates a snapshot written with
//! `--metrics-out` against the declared-metric contract
//! ([`elmo_sim::obs::REQUIRED_METRICS`]); exit 1 if invalid.
//!
//! `elmo-eval verify` compiles the Figure-4 (P=12) and Figure-5 (P=1)
//! workloads, installs every rule into a simulated fabric, and runs the
//! `elmo-verify` static checker plus its differential replay mode; exit 1
//! if any violation is found. See `elmo_sim::verify_exp`.
//!
//! The sweep experiments (fig4, fig5, uniform, limited-srules,
//! small-header, table1, two-tier) run each `--r` value as one serial job
//! on its own thread, so their output never depends on the core count;
//! every other experiment runs on one thread.
//!
//! Without `--full` a proportionally scaled fabric is used so every
//! experiment completes in seconds; shapes (who wins, where the knees are)
//! are preserved. EXPERIMENTS.md records paper-vs-measured numbers.
#![forbid(unsafe_code)]

use elmo_sim::report::{avg_max, count, pct, ratio, table};
use elmo_sim::{sweep, SweepConfig};
use elmo_topology::Clos;
use elmo_workloads::{GroupSizeDist, WorkloadConfig};

#[derive(Clone, Debug)]
struct Opts {
    experiment: String,
    full: bool,
    groups: Option<usize>,
    tenants: Option<usize>,
    events: usize,
    extra_payload: Option<u64>,
    r_values: Vec<usize>,
    seed: u64,
    metrics_out: Option<String>,
    trace_pcap: Option<String>,
    check_file: Option<String>,
    samples: usize,
    report_out: Option<String>,
    group: u64,
    sender: Option<u32>,
    trace_out: Option<String>,
    expect_nodes: Option<usize>,
    windows: usize,
    tick: usize,
    timeline_out: Option<String>,
    burst: usize,
    min_group: Option<usize>,
    temporal_events: usize,
    temporal_senders: usize,
}

fn parse_args() -> Opts {
    let mut args = std::env::args().skip(1);
    let mut opts = Opts {
        experiment: String::new(),
        full: false,
        groups: None,
        tenants: None,
        events: 20_000,
        extra_payload: None,
        r_values: vec![0, 2, 4, 6, 8, 10, 12],
        seed: 0xe1_40,
        metrics_out: None,
        trace_pcap: None,
        check_file: None,
        samples: 120,
        report_out: None,
        group: 3,
        sender: None,
        trace_out: None,
        expect_nodes: None,
        windows: 12,
        tick: 8,
        timeline_out: None,
        burst: 5_000,
        min_group: None,
        temporal_events: 10_000,
        temporal_senders: 2,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => opts.full = true,
            "--metrics-out" => {
                opts.metrics_out = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--metrics-out needs a path")),
                );
            }
            "--trace-pcap" => {
                opts.trace_pcap = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--trace-pcap needs a path")),
                );
            }
            "-v" => elmo_obs::set_level(elmo_obs::Level::Debug),
            "-vv" => elmo_obs::set_level(elmo_obs::Level::Trace),
            "--quiet" | "-q" => elmo_obs::set_level(elmo_obs::Level::Warn),
            "--log-json" => elmo_obs::set_format(elmo_obs::Format::Jsonl),
            "--groups" => opts.groups = Some(expect_num(&mut args, "--groups") as usize),
            "--tenants" => opts.tenants = Some(expect_num(&mut args, "--tenants") as usize),
            "--events" => opts.events = expect_num(&mut args, "--events") as usize,
            "--pkt" => opts.extra_payload = Some(expect_num(&mut args, "--pkt")),
            "--seed" => opts.seed = expect_num(&mut args, "--seed"),
            "--samples" => opts.samples = expect_num(&mut args, "--samples") as usize,
            "--report-out" => {
                opts.report_out = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--report-out needs a path")),
                );
            }
            "--group" => opts.group = expect_num(&mut args, "--group"),
            "--sender" => opts.sender = Some(expect_num(&mut args, "--sender") as u32),
            "--trace-out" => {
                opts.trace_out = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--trace-out needs a path")),
                );
            }
            "--expect-nodes" => {
                opts.expect_nodes = Some(expect_num(&mut args, "--expect-nodes") as usize);
            }
            "--burst" => opts.burst = expect_num(&mut args, "--burst") as usize,
            "--min-group" => opts.min_group = Some(expect_num(&mut args, "--min-group") as usize),
            "--temporal-events" => {
                opts.temporal_events = expect_num(&mut args, "--temporal-events") as usize;
            }
            "--temporal-senders" => {
                opts.temporal_senders = expect_num(&mut args, "--temporal-senders") as usize;
            }
            "--windows" => opts.windows = expect_num(&mut args, "--windows") as usize,
            "--tick" => opts.tick = expect_num(&mut args, "--tick") as usize,
            "--timeline-out" => {
                opts.timeline_out = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--timeline-out needs a path")),
                );
            }
            "--r" => {
                let list = args.next().unwrap_or_else(|| usage("--r needs a list"));
                opts.r_values = list
                    .split(',')
                    .map(|s| s.trim().parse().unwrap_or_else(|_| usage("bad --r value")))
                    .collect();
            }
            "--help" | "-h" => usage(""),
            other if opts.experiment.is_empty() && !other.starts_with('-') => {
                opts.experiment = other.to_string();
            }
            other
                if opts.experiment == "check-metrics"
                    && opts.check_file.is_none()
                    && !other.starts_with('-') =>
            {
                opts.check_file = Some(other.to_string());
            }
            other => usage(&format!("unknown argument: {other}")),
        }
    }
    if opts.experiment.is_empty() {
        usage("missing experiment name");
    }
    opts
}

fn expect_num(args: &mut impl Iterator<Item = String>, flag: &str) -> u64 {
    args.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} needs a number")))
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        elmo_obs::error!("usage", msg = msg);
    }
    eprintln!("{}", usage_text());
    std::process::exit(2);
}

/// The usage message; its experiment list is [`ALL`].
fn usage_text() -> String {
    format!(
        "usage: elmo-eval <{}|all> [--full] [--groups N] \
         [--tenants N] [--events N] [--pkt N] [--r 0,6,12] [--seed N] \
         [--samples N] [--report-out PATH] [--metrics-out PATH] \
         [--trace-pcap PATH] \
         [--group N] [--sender H] [--trace-out PATH] [--expect-nodes N] \
         [--burst N] [--min-group N] \
         [--temporal-events N] [--temporal-senders N] \
         [--windows N] [--tick N] [--timeline-out PATH] \
         [-v|-vv|--quiet] [--log-json]\n\
         \n       elmo-eval check-metrics <snapshot.json>",
        ALL.join("|")
    )
}

/// Every experiment, in the order `elmo-eval all` runs them.
const ALL: [&str; 20] = [
    "fig4",
    "fig5",
    "uniform",
    "limited-srules",
    "small-header",
    "table2",
    "table3",
    "fig6",
    "fig7",
    "telemetry",
    "failures",
    "latency",
    "xpander",
    "ablation",
    "two-tier",
    "verify",
    "trace",
    "timeline",
    "churn",
    "table1",
];

fn fabric(opts: &Opts) -> Clos {
    if opts.full {
        Clos::facebook_fabric()
    } else {
        // 2,304 hosts: the same shape at 1/12 the size, with pods still
        // large enough to hold a mean-sized tenant under P = 12 (the paper's
        // placement is pod-sticky, so pod capacity shapes everything).
        Clos::scaled_fabric(6, 24, 16)
    }
}

fn workload_cfg(opts: &Opts, topo: &Clos, p: usize, dist: GroupSizeDist) -> WorkloadConfig {
    let mut cfg = if opts.full {
        WorkloadConfig::paper(p, dist)
    } else {
        WorkloadConfig::scaled(topo, p, dist)
    };
    if let Some(g) = opts.groups {
        cfg.total_groups = g;
    }
    if let Some(t) = opts.tenants {
        cfg.tenants = t;
    }
    cfg.seed = opts.seed;
    cfg
}

fn main() {
    let opts = parse_args();
    if opts.experiment == "check-metrics" {
        run_check_metrics(&opts);
        return;
    }
    if opts.experiment == "all" {
        for exp in ALL {
            let mut o = opts.clone();
            o.experiment = exp.into();
            println!("\n================ {exp} ================\n");
            run_one(&o);
        }
    } else {
        run_one(&opts);
    }
    if let Some(path) = &opts.trace_pcap {
        match elmo_sim::obs::write_trace_pcap(path, 256) {
            Ok(n) => elmo_obs::info!("trace_pcap.written", path = path.as_str(), packets = n),
            Err(e) => {
                elmo_obs::error!(
                    "trace_pcap.failed",
                    path = path.as_str(),
                    error = e.to_string()
                );
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &opts.metrics_out {
        match elmo_sim::obs::write_snapshot(path) {
            Ok(()) => elmo_obs::info!("metrics.written", path = path.as_str()),
            Err(e) => {
                elmo_obs::error!(
                    "metrics.write_failed",
                    path = path.as_str(),
                    error = e.to_string()
                );
                std::process::exit(1);
            }
        }
    }
}

/// `elmo-eval check-metrics <file>` — validate a `--metrics-out` snapshot
/// against the declared-metric contract. Exit 0 if valid, 1 if not.
fn run_check_metrics(opts: &Opts) {
    let path = opts
        .check_file
        .as_deref()
        .unwrap_or_else(|| usage("check-metrics needs a snapshot file"));
    let json = std::fs::read_to_string(path).unwrap_or_else(|e| {
        elmo_obs::error!(
            "check_metrics.unreadable",
            path = path,
            error = e.to_string()
        );
        std::process::exit(1);
    });
    let problems = elmo_sim::obs::check_snapshot(&json);
    if problems.is_empty() {
        elmo_obs::info!("check_metrics.ok", path = path);
        println!("ok: {path} contains every declared metric");
    } else {
        for p in &problems {
            elmo_obs::error!("check_metrics.problem", path = path, problem = p.as_str());
        }
        std::process::exit(1);
    }
}

fn run_one(opts: &Opts) {
    match opts.experiment.as_str() {
        "fig4" => run_sweep(opts, 12, GroupSizeDist::Wve, usize::MAX, 30, "Figure 4"),
        "fig5" => run_sweep(opts, 1, GroupSizeDist::Wve, usize::MAX, 30, "Figure 5"),
        "uniform" => {
            run_sweep(
                opts,
                12,
                GroupSizeDist::Uniform,
                usize::MAX,
                30,
                "Uniform sizes, P=12",
            );
            run_sweep(
                opts,
                1,
                GroupSizeDist::Uniform,
                usize::MAX,
                30,
                "Uniform sizes, P=1",
            );
        }
        "limited-srules" => {
            let fmax = scaled_fmax(opts);
            run_sweep(
                opts,
                1,
                GroupSizeDist::Wve,
                fmax,
                30,
                "Fmax-limited, WVE, P=1",
            );
            run_sweep(
                opts,
                1,
                GroupSizeDist::Uniform,
                fmax,
                30,
                "Fmax-limited, Uniform, P=1",
            );
        }
        "small-header" => {
            let fmax = scaled_fmax(opts);
            run_sweep(
                opts,
                1,
                GroupSizeDist::Wve,
                fmax,
                10,
                "10-leaf-rule (~125B) header, WVE, P=1",
            );
        }
        "table2" => run_table2(opts),
        "table3" => run_table3(),
        "fig6" => run_fig6(opts),
        "fig7" => run_fig7(),
        "telemetry" => run_telemetry(opts),
        "failures" => run_failures(opts),
        "latency" => run_latency(opts),
        "xpander" => run_xpander(opts),
        "table1" => run_table1(opts),
        "ablation" => run_ablation(opts),
        "two-tier" => run_two_tier(opts),
        "verify" => run_verify(opts),
        "churn" => run_churn(opts),
        "trace" => run_trace(opts),
        "timeline" => run_timeline(opts),
        other => usage(&format!("unknown experiment: {other}")),
    }
}

/// `elmo-eval trace` — trace one packet's causal copy tree through the
/// paper-example fabric, print it annotated with match sources and rule
/// attributions, and cross-check its host leaves against the static walk
/// and the actual deliveries. Exit 1 if the three host sets disagree or
/// `--expect-nodes` mismatches.
fn run_trace(opts: &Opts) {
    let run = match elmo_sim::trace_exp::run(opts.group, opts.sender) {
        Ok(r) => r,
        Err(e) => {
            elmo_obs::error!("trace.failed", error = e.as_str());
            std::process::exit(1);
        }
    };
    println!(
        "copy tree: fixture group {} (members {:?}), sender {}\n",
        opts.group,
        elmo_sim::trace_exp::FIXTURE_SHAPES[opts.group as usize - 1],
        opts.sender
            .unwrap_or(elmo_sim::trace_exp::FIXTURE_SHAPES[opts.group as usize - 1][0]),
    );
    println!("{}", run.rendered);
    println!(
        "{} nodes, {} host leaves; static walk predicts {} hosts; replay delivered to {} -> {}",
        run.nodes(),
        run.tree_hosts.len(),
        run.walk_hosts.len(),
        run.delivered_hosts.len(),
        if run.ok { "ok" } else { "MISMATCH" },
    );
    if let Some(path) = &opts.trace_out {
        match std::fs::write(path, run.tree.to_json()) {
            Ok(()) => elmo_obs::info!("trace.tree_written", path = path.as_str()),
            Err(e) => {
                elmo_obs::error!(
                    "trace.write_failed",
                    path = path.as_str(),
                    error = e.to_string()
                );
                std::process::exit(1);
            }
        }
    }
    if !run.ok {
        elmo_obs::error!(
            "trace.host_set_mismatch",
            tree = format!("{:?}", run.tree_hosts),
            walk = format!("{:?}", run.walk_hosts),
            replay = format!("{:?}", run.delivered_hosts)
        );
        std::process::exit(1);
    }
    if let Some(n) = opts.expect_nodes {
        if run.nodes() != n {
            elmo_obs::error!("trace.node_count_mismatch", expected = n, got = run.nodes());
            std::process::exit(1);
        }
        println!("node count matches --expect-nodes {n}");
    }
    println!();
}

/// `elmo-eval timeline` — the windowed failure replay: `--windows`
/// logical ticks of `--tick` packets each through the replay engine,
/// with the copy tree's first spine hop failed during the middle third.
/// `--timeline-out` writes one JSONL line per window. Exit 1 if the run
/// shows no loss window (the failure must be observable).
fn run_timeline(opts: &Opts) {
    let run = match elmo_sim::timeline_exp::run(opts.windows, opts.tick) {
        Ok(r) => r,
        Err(e) => {
            elmo_obs::error!("timeline.failed", error = e.as_str());
            std::process::exit(1);
        }
    };
    println!(
        "timeline: {} windows x {} packets, spine {} failed for the middle third",
        opts.windows, opts.tick, run.failed_spine
    );
    let rows: Vec<Vec<String>> = run
        .rows
        .iter()
        .map(|r| {
            vec![
                r.window.to_string(),
                r.delivered.to_string(),
                r.expected.to_string(),
                if r.failed { "down".into() } else { "up".into() },
            ]
        })
        .collect();
    println!(
        "{}",
        table(&["window", "delivered", "expected", "spine"], &rows)
    );
    println!(
        "{} loss windows; flight recorder held {} events at first shortfall",
        run.loss_windows, run.recorder_events
    );
    if let Some(path) = &opts.timeline_out {
        match run.timeline.write_jsonl(path) {
            Ok(()) => elmo_obs::info!("timeline.written", path = path.as_str()),
            Err(e) => {
                elmo_obs::error!(
                    "timeline.write_failed",
                    path = path.as_str(),
                    error = e.to_string()
                );
                std::process::exit(1);
            }
        }
    }
    if run.loss_windows == 0 {
        elmo_obs::error!("timeline.no_loss_window");
        std::process::exit(1);
    }
    println!();
}

/// `elmo-eval verify` — compile the Figure-4 (P=12) and Figure-5 (P=1)
/// workloads at R = max(--r), install every rule into a simulated fabric,
/// and run the `elmo-verify` static checker plus its differential replay
/// mode. Exit 1 on any violation; `--report-out` writes the JSON reports.
fn run_verify(opts: &Opts) {
    use elmo_sim::verify_exp::{self, VerifyExpConfig};
    let topo = fabric(opts);
    let layout = elmo_core::HeaderLayout::for_clos(&topo);
    // Same budget rule as the sweeps: 30 downstream-leaf p-rules, and at
    // least the paper's 325 bytes on the full fabric.
    let budget = layout
        .max_header_bytes(2, 30, 2)
        .max(if opts.full { 325 } else { 0 });
    let r = opts.r_values.iter().copied().max().unwrap_or(12);
    let cfg = VerifyExpConfig {
        r,
        header_budget: budget,
        samples: opts.samples,
        seed: opts.seed,
    };
    let mut reports = std::collections::BTreeMap::new();
    let mut failed = false;
    for (name, p) in [("fig4_p12", 12usize), ("fig5_p1", 1usize)] {
        let mut wl = workload_cfg(opts, &topo, p, GroupSizeDist::Wve);
        if opts.groups.is_none() {
            // The checker walks every (group, sender) pair; bound the
            // default so `verify` stays a seconds-scale smoke. `--groups`
            // overrides.
            wl.total_groups = wl.total_groups.min(2_000);
        }
        let run = verify_exp::run(topo, wl, &cfg);
        let rep = &run.report;
        println!(
            "verify {name}: R={r}, {} groups ({} unicast fallback), {} sender walks, \
             {} differential replays, {} traffic cross-checks -> {}",
            count(rep.groups_checked as u64),
            rep.skipped_unicast_fallback,
            count(rep.senders_checked as u64),
            run.differential_sampled,
            count(run.traffic_cross_checked as u64),
            if rep.ok() { "ok" } else { "FAIL" },
        );
        println!(
            "  header max {}B of {}B budget, vector max {}B of {}B; \
             leaf s-rules mean {:.1} (max {}), spine mean {:.1} (max {})",
            rep.budgets.max_header_bytes,
            rep.budgets.header_budget_bytes,
            rep.budgets.max_header_vector_bytes,
            rep.budgets.header_vector_limit,
            rep.budgets.leaf_tables.mean,
            rep.budgets.leaf_tables.max,
            rep.budgets.spine_tables.mean,
            rep.budgets.spine_tables.max,
        );
        if !rep.ok() {
            failed = true;
            for v in rep.violations.iter().take(20) {
                println!("  violation: {v}");
            }
            if rep.violations.len() > 20 {
                println!("  ... and {} more", rep.violations.len() - 20);
            }
        }
        reports.insert(name.to_string(), rep.to_json());
    }
    // Temporal update-safety: replay a seeded churn stream on the P=12
    // workload and prove every intermediate state leaves in-flight
    // (pre-event) headers either byte-exact or attributably versioned
    // out. `--temporal-events 0` skips the sweep.
    if opts.temporal_events > 0 {
        use elmo_sim::temporal_exp::{self, TemporalExpConfig};
        let mut wl = workload_cfg(opts, &topo, 12, GroupSizeDist::Wve);
        if opts.groups.is_none() {
            wl.total_groups = wl.total_groups.min(2_000);
        }
        let tcfg = TemporalExpConfig {
            r,
            header_budget: budget,
            events: opts.temporal_events,
            burst: opts.burst,
            seed: opts.seed ^ 0x7e,
            max_senders: opts.temporal_senders,
        };
        let trun = temporal_exp::run(topo, wl, &tcfg);
        let rep = &trun.report;
        println!(
            "verify temporal: {} groups, {} churn events, {} steps checked, {} sender walks \
             ({} exact, {} converged, {} versioned out) -> {}",
            count(trun.groups as u64),
            count(rep.events as u64),
            count(rep.steps_checked as u64),
            count(rep.senders_walked as u64),
            count(rep.exact as u64),
            count(rep.converged as u64),
            count(rep.versioned_out as u64),
            if rep.ok() { "ok" } else { "FAIL" },
        );
        if !rep.ok() {
            failed = true;
            for v in rep.violations.iter().take(20) {
                println!("  violation: {}", v.render());
            }
            if rep.violations.len() > 20 {
                println!("  ... and {} more", rep.violations.len() - 20);
            }
        }
        reports.insert("temporal".to_string(), rep.to_json());
    }
    if let Some(path) = &opts.report_out {
        let json = elmo_obs::JsonValue::Object(reports).pretty();
        match std::fs::write(path, json) {
            Ok(()) => elmo_obs::info!("verify.report_written", path = path.as_str()),
            Err(e) => {
                elmo_obs::error!(
                    "verify.report_write_failed",
                    path = path.as_str(),
                    error = e.to_string()
                );
                std::process::exit(1);
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!();
}

/// `elmo-eval churn` — replay a seeded join/leave stream through the
/// controller on the Figure-4 (P=12) workload, re-verifying the full
/// installed state after every burst. Every receiver-tree change re-runs
/// Algorithm 1 for its group; the tree-change count is deterministic per
/// seed. Exit 1 on any violation.
fn run_churn(opts: &Opts) {
    use elmo_sim::churn_exp::{self, ChurnExpConfig};
    let topo = fabric(opts);
    let layout = elmo_core::HeaderLayout::for_clos(&topo);
    let budget = layout
        .max_header_bytes(2, 30, 2)
        .max(if opts.full { 325 } else { 0 });
    let r = opts.r_values.iter().copied().max().unwrap_or(12);
    let mut wl = workload_cfg(opts, &topo, 12, GroupSizeDist::Wve);
    if opts.groups.is_none() {
        // Per-burst verification walks every (group, sender) pair; bound
        // the default so `churn` stays a seconds-scale smoke. `--groups`
        // overrides.
        wl.total_groups = wl.total_groups.min(2_000);
    }
    if let Some(m) = opts.min_group {
        wl.min_group_size = m;
    }
    let cfg = ChurnExpConfig {
        r,
        header_budget: budget,
        events: opts.events,
        burst: opts.burst,
        seed: opts.seed ^ 0xc4,
        verify_each_burst: true,
    };
    let run = churn_exp::run(topo, wl, &cfg);
    println!(
        "churn: {} groups, {} events in bursts of {}, R={r}",
        count(run.groups as u64),
        count(run.events as u64),
        opts.burst.max(1),
    );
    println!(
        "  {:.0} ops/s, p95 event {:.1} us",
        run.events_per_sec(),
        run.p95_event_ns() as f64 / 1e3,
    );
    println!(
        "  tree changes {} (each re-runs Algorithm 1); verified {} bursts -> {}",
        count(run.stats.tree_changes()),
        run.verified_bursts,
        if run.verify_violations == 0 {
            "clean".to_string()
        } else {
            format!("{} VIOLATIONS", run.verify_violations)
        },
    );
    if run.verify_violations > 0 {
        std::process::exit(1);
    }
    println!();
}

/// §5.1.2 limits Fmax to 10,000 at full scale; scale it with the workload.
fn scaled_fmax(opts: &Opts) -> usize {
    if opts.full {
        10_000
    } else {
        500
    }
}

fn run_sweep(
    opts: &Opts,
    p: usize,
    dist: GroupSizeDist,
    fmax: usize,
    leaf_rules: usize,
    title: &str,
) {
    let topo = fabric(opts);
    // Express the budget as "this many downstream-leaf p-rules", so scaled
    // fabrics (smaller bitmaps, shorter identifiers) face the same pressure
    // the paper's 325 bytes puts on the full fabric. For the full fabric,
    // 30 rules <=> the paper's 325-byte cap.
    let layout = elmo_core::HeaderLayout::for_clos(&topo);
    let budget = layout
        .max_header_bytes(2, leaf_rules, 2)
        .max(if opts.full && leaf_rules >= 30 {
            325
        } else {
            0
        });
    let wl = workload_cfg(opts, &topo, p, dist);
    let mut cfg = SweepConfig::paper(topo, wl);
    cfg.r_values = opts.r_values.clone();
    cfg.leaf_fmax = fmax;
    cfg.spine_fmax = fmax;
    cfg.header_budget = budget;
    if let Some(extra) = opts.extra_payload {
        if !cfg.payloads.contains(&extra) {
            cfg.payloads.push(extra);
        }
    }
    let result = sweep::run(&cfg);

    println!(
        "{title}: placement P={p}, {dist:?} sizes, {} hosts, {} groups, {}B header budget, Fmax={}",
        count(topo.num_hosts() as u64),
        count(wl.total_groups as u64),
        budget,
        if fmax == usize::MAX {
            "unlimited".into()
        } else {
            fmax.to_string()
        },
    );
    let mut rows = Vec::new();
    for row in &result.rows {
        let mut cells = vec![
            row.r.to_string(),
            format!(
                "{} ({})",
                count(row.covered as u64),
                pct(row.covered as f64 / row.total_groups as f64)
            ),
            count(row.defaulted as u64),
            format!(
                "{:.0} / {} / {}",
                row.leaf_srules.mean, row.leaf_srules.p95, row.leaf_srules.max
            ),
            format!(
                "{:.0} / {} / {}",
                row.spine_srules.mean, row.spine_srules.p95, row.spine_srules.max
            ),
            format!(
                "{:.0} / {:.0} / {:.0}",
                row.header_bytes.min,
                row.header_bytes.mean(),
                row.header_bytes.max
            ),
        ];
        for t in &row.traffic {
            cells.push(ratio(t.elmo_ratio));
        }
        rows.push(cells);
    }
    let payload_labels: Vec<String> = result.rows[0]
        .traffic
        .iter()
        .map(|t| format!("elmo x ({}B)", t.payload))
        .collect();
    let mut headers = vec![
        "R",
        "covered groups",
        "defaulted",
        "leaf s-rules m/p95/max",
        "spine s-rules m/p95/max",
        "header B min/mean/max",
    ];
    for l in &payload_labels {
        headers.push(l.as_str());
    }
    println!("{}", table(&headers, &rows));
    let t0 = &result.rows[0].traffic[0];
    println!(
        "baselines at {}B payload: unicast {} of ideal, overlay {} of ideal",
        t0.payload,
        ratio(t0.unicast_ratio),
        ratio(t0.overlay_ratio)
    );
    println!(
        "Li et al. group-table entries: leaf mean {:.0} (max {}), spine mean {:.0} (max {})\n",
        result.li_leaf.mean, result.li_leaf.max, result.li_spine.mean, result.li_spine.max
    );
}

fn run_table2(opts: &Opts) {
    let topo = fabric(opts);
    let wl = workload_cfg(opts, &topo, 1, GroupSizeDist::Wve);
    let t = elmo_sim::table2::run(topo, wl, opts.events, 1000.0);
    println!(
        "Table 2: {} churn events at 1,000 events/s, P=1, WVE ({} hosts, {} groups)",
        count(t.events as u64),
        count(topo.num_hosts() as u64),
        count(wl.total_groups as u64)
    );
    let rows = vec![
        vec![
            "hypervisor".into(),
            avg_max(t.hypervisor.avg_per_sec, t.hypervisor.max_per_sec),
            "not evaluated".into(),
        ],
        vec![
            "leaf".into(),
            avg_max(t.leaf.avg_per_sec, t.leaf.max_per_sec),
            avg_max(t.li_leaf.avg_per_sec, t.li_leaf.max_per_sec),
        ],
        vec![
            "spine".into(),
            avg_max(t.spine.avg_per_sec, t.spine.max_per_sec),
            avg_max(t.li_spine.avg_per_sec, t.li_spine.max_per_sec),
        ],
        vec![
            "core".into(),
            avg_max(t.core.avg_per_sec, t.core.max_per_sec),
            avg_max(t.li_core.avg_per_sec, t.li_core.max_per_sec),
        ],
    ];
    println!(
        "{}",
        table(
            &[
                "switch tier",
                "Elmo avg (max) upd/s",
                "Li et al. avg (max) upd/s"
            ],
            &rows
        )
    );
}

fn run_table3() {
    println!("Table 3: comparison with related multicast approaches");
    println!("(evaluated at 5,000 group-table rules, 325-byte header budget)\n");
    let schemes = elmo_sim::table3::schemes();
    let mut headers: Vec<&str> = vec!["feature"];
    for s in &schemes {
        headers.push(s.name);
    }
    let yn = |b: bool| {
        if b {
            "yes".to_string()
        } else {
            "no".to_string()
        }
    };
    let rows: Vec<Vec<String>> = vec![
        std::iter::once("#Groups".into())
            .chain(schemes.iter().map(|s| s.groups.into()))
            .collect(),
        std::iter::once("Group-table usage".into())
            .chain(schemes.iter().map(|s| s.group_table_usage.into()))
            .collect(),
        std::iter::once("Flow-table usage".into())
            .chain(schemes.iter().map(|s| s.flow_table_usage.into()))
            .collect(),
        std::iter::once("Group-size limits".into())
            .chain(schemes.iter().map(|s| s.group_size_limit.into()))
            .collect(),
        std::iter::once("Network-size limits".into())
            .chain(schemes.iter().map(|s| s.network_size_limit.into()))
            .collect(),
        std::iter::once("Unorthodox switches".into())
            .chain(schemes.iter().map(|s| yn(s.unorthodox_switch)))
            .collect(),
        std::iter::once("Line-rate processing".into())
            .chain(schemes.iter().map(|s| yn(s.line_rate)))
            .collect(),
        std::iter::once("Addr-space isolation".into())
            .chain(schemes.iter().map(|s| yn(s.address_space_isolation)))
            .collect(),
        std::iter::once("Multipath forwarding".into())
            .chain(schemes.iter().map(|s| s.multipath.into()))
            .collect(),
        std::iter::once("Control overhead".into())
            .chain(schemes.iter().map(|s| s.control_overhead.into()))
            .collect(),
        std::iter::once("Traffic overhead".into())
            .chain(schemes.iter().map(|s| s.traffic_overhead.into()))
            .collect(),
        std::iter::once("End-host replication".into())
            .chain(schemes.iter().map(|s| yn(s.end_host_replication)))
            .collect(),
    ];
    println!("{}", table(&headers, &rows));
}

fn run_fig6(opts: &Opts) {
    use elmo_apps::pubsub::{run, Transport};
    use elmo_apps::HostModel;
    let topo = if opts.full {
        Clos::facebook_fabric()
    } else {
        Clos::scaled_fabric(4, 8, 12)
    };
    let model = HostModel::default();
    println!("Figure 6: pub-sub over ZeroMQ-style workload, 100-byte messages");
    let mut rows = Vec::new();
    for n in [1usize, 2, 4, 8, 16, 32, 64, 128, 256] {
        if n + 1 >= topo.num_hosts() {
            break;
        }
        let uni = run(topo, n, 100, Transport::Unicast, &model);
        let elmo = run(topo, n, 100, Transport::Elmo, &model);
        assert!(
            uni.delivery_verified && elmo.delivery_verified,
            "fabric delivery broken"
        );
        rows.push(vec![
            n.to_string(),
            format!("{:.1}K", elmo.rps_per_subscriber / 1000.0),
            format!("{:.1}K", uni.rps_per_subscriber / 1000.0),
            format!("{:.1}%", elmo.publisher_cpu_pct),
            format!("{:.1}%", uni.publisher_cpu_pct),
        ]);
    }
    println!(
        "{}",
        table(
            &[
                "subscribers",
                "Elmo rps",
                "unicast rps",
                "Elmo CPU",
                "unicast CPU"
            ],
            &rows
        )
    );
}

fn run_fig7() {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "Figure 7: hypervisor (PISCES-model) encap throughput, 128-byte inner frames, 20 Gbps NIC"
    );
    println!(
        "sw encap Mpps: median [q1-q3] of {} timed bursts on this host ({cpus} CPUs)",
        elmo_sim::perf::FIG7_BURSTS
    );
    let points = elmo_sim::perf::fig7(
        Clos::facebook_fabric(),
        &[0, 5, 10, 15, 20, 25, 30],
        128,
        20.0,
    );
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.p_rules.to_string(),
                p.packet_bytes.to_string(),
                format!("{:.2}", p.mpps),
                format!("{:.2}", p.gbps),
                format!("{:.1} [{:.1}-{:.1}]", p.sw_mpps, p.sw_mpps_q1, p.sw_mpps_q3),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "p-rules",
                "packet B",
                "Mpps (20G link)",
                "Gbps",
                "sw encap Mpps"
            ],
            &rows
        )
    );
}

fn run_telemetry(opts: &Opts) {
    use elmo_apps::pubsub::Transport;
    use elmo_apps::telemetry::{run, TelemetryConfig};
    let topo = if opts.full {
        Clos::facebook_fabric()
    } else {
        Clos::scaled_fabric(4, 8, 12)
    };
    println!("Host telemetry (sFlow): agent egress bandwidth vs collectors");
    let cfg = TelemetryConfig::default();
    let mut rows = Vec::new();
    for n in [1usize, 2, 4, 8, 16, 32, 64] {
        if n + 1 >= topo.num_hosts() {
            break;
        }
        let uni = run(topo, n, cfg, Transport::Unicast);
        let elmo = run(topo, n, cfg, Transport::Elmo);
        assert_eq!(uni.received_total, uni.expected_total);
        assert_eq!(elmo.received_total, elmo.expected_total);
        rows.push(vec![
            n.to_string(),
            format!("{:.1} Kbps", elmo.egress_kbps),
            format!("{:.1} Kbps", uni.egress_kbps),
        ]);
    }
    println!(
        "{}",
        table(&["collectors", "Elmo egress", "unicast egress"], &rows)
    );
}

fn run_failures(opts: &Opts) {
    let topo = fabric(opts);
    let wl = workload_cfg(opts, &topo, 1, GroupSizeDist::Wve);
    println!(
        "Failure handling (§5.1.3b): {} hosts, {} groups, P=1, WVE",
        count(topo.num_hosts() as u64),
        count(wl.total_groups as u64)
    );
    let rows: Vec<Vec<String>> = elmo_sim::failure_exp::run(topo, wl)
        .iter()
        .map(|r| {
            vec![
                r.scenario.clone(),
                pct(r.affected_fraction),
                avg_max(r.mean_hv_updates, r.max_hv_updates as f64),
                r.degraded_to_unicast.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "scenario",
                "groups affected",
                "hv updates avg (max)",
                "degraded to unicast"
            ],
            &rows
        )
    );
}

fn run_latency(opts: &Opts) {
    let topo = fabric(opts);
    let wl = workload_cfg(opts, &topo, 1, GroupSizeDist::Wve);
    let stats = elmo_sim::perf::controller_latency(topo, wl, 2_000);
    println!("Controller rule-computation latency (Algorithm 1 + header assembly):");
    println!(
        "  {} groups sampled: mean {:.1} us, p99 {:.1} us, max {:.1} us",
        count(stats.groups as u64),
        stats.mean_us,
        stats.p99_us,
        stats.max_us
    );
    println!("  (paper's Python controller: 0.20 ms +/- 0.45 ms)\n");
}

fn run_xpander(opts: &Opts) {
    use elmo_topology::xpander::Xpander;
    let x = Xpander::paper_config();
    let groups = opts
        .groups
        .unwrap_or(if opts.full { 100_000 } else { 5_000 });
    let r = elmo_sim::xpander_exp::run(&x, groups, 325, opts.seed);
    println!(
        "Xpander (48-port switches, degree 24, {} hosts): {} WVE groups",
        count(x.num_hosts() as u64),
        count(r.groups as u64)
    );
    println!(
        "  header bytes min/mean/max: {:.0} / {:.0} / {:.0}; {} fit the {}-byte budget\n",
        r.header_bytes.min,
        r.header_bytes.mean(),
        r.header_bytes.max,
        pct(r.fit_fraction),
        r.budget_bytes
    );
}

fn run_two_tier(opts: &Opts) {
    // "We saw qualitatively similar results while running experiments for a
    // two-tier leaf-spine topology like that used in CONGA" (paper §5.1.1).
    let topo = if opts.full {
        Clos::two_tier(48, 48) // one 2,304-host pod at full port widths
    } else {
        Clos::two_tier(24, 16)
    };
    let wl = workload_cfg(opts, &topo, 12, GroupSizeDist::Wve);
    let layout = elmo_core::HeaderLayout::for_clos(&topo);
    let budget = layout.max_header_bytes(2, 30, 2);
    let mut cfg = SweepConfig::paper(topo, wl);
    cfg.r_values = opts.r_values.clone();
    cfg.header_budget = budget;
    let result = sweep::run(&cfg);
    println!(
        "Two-tier leaf-spine ({} leaves x {} hosts): coverage and traffic vs R",
        topo.num_leaves(),
        topo.params().hosts_per_leaf
    );
    let rows: Vec<Vec<String>> = result
        .rows
        .iter()
        .map(|row| {
            let t = &row.traffic[0];
            vec![
                row.r.to_string(),
                pct(row.covered as f64 / row.total_groups as f64),
                format!("{:.0}", row.leaf_srules.mean),
                ratio(t.elmo_ratio),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &["R", "covered", "leaf s-rules mean", "elmo x (1500B)"],
            &rows
        )
    );
}

fn run_ablation(opts: &Opts) {
    use elmo_sim::ablation;
    use elmo_topology::{GroupTree, HostId};
    use elmo_workloads::Workload;

    // The paper's running example first (its 161 -> 83 -> 62 bit walk).
    let example = Clos::paper_example();
    let tree = GroupTree::new(
        &example,
        [
            HostId(0),
            HostId(1),
            HostId(42),
            HostId(48),
            HostId(49),
            HostId(57),
        ],
    );
    let p = ablation::ablate(&example, &tree, HostId(0), 2);
    println!("Design-decision ablation (paper 3.1):\n");
    println!(
        "running example (paper: 161 -> 83 -> 62 bits): D1 {} -> D2 {} -> D3 {} bits \
         (reductions {} and {})",
        p.d1_bits,
        p.d2_bits,
        p.d3_bits,
        pct(p.d2_reduction()),
        pct(p.d3_reduction()),
    );

    // And averaged over a workload on the evaluation fabric.
    let topo = fabric(opts);
    let mut wl = workload_cfg(opts, &topo, 12, GroupSizeDist::Wve);
    wl.total_groups = wl.total_groups.min(5_000);
    let workload = Workload::generate(topo, wl);
    let (mut d1, mut d2, mut d3) = (0u64, 0u64, 0u64);
    for g in &workload.groups {
        let hosts = workload.member_hosts(g);
        let tree = GroupTree::new(&topo, hosts.iter().copied());
        let p = ablation::ablate(&topo, &tree, hosts[0], 12);
        d1 += p.d1_bits as u64;
        d2 += p.d2_bits as u64;
        d3 += p.d3_bits as u64;
    }
    let n = workload.groups.len() as u64;
    println!(
        "\n{} WVE groups, P=12, R=12: mean header bits D1 {} -> D2 {} ({}) -> D3 {} ({})\n",
        count(n),
        d1 / n,
        d2 / n,
        pct(1.0 - d2 as f64 / d1 as f64),
        d3 / n,
        pct(1.0 - d3 as f64 / d2 as f64),
    );
}

fn run_table1(opts: &Opts) {
    let topo = fabric(opts);
    let wl = workload_cfg(opts, &topo, 12, GroupSizeDist::Wve);
    let mut cfg = SweepConfig::paper(topo, wl);
    cfg.r_values = vec![0, 12];
    let result = sweep::run(&cfg);
    let r0 = &result.rows[0];
    let r12 = result.rows.last().expect("rows");
    println!(
        "Table 1: summary of results ({} hosts, {} groups, WVE, P=12)\n",
        count(topo.num_hosts() as u64),
        count(wl.total_groups as u64)
    );
    println!(
        "  (i)   groups covered by p-rules without defaults: {} at R=0, {} at R=12",
        pct(r0.covered as f64 / r0.total_groups as f64),
        pct(r12.covered as f64 / r12.total_groups as f64)
    );
    println!(
        "        p-rule header bytes min/mean/max: {:.0} / {:.0} / {:.0}",
        r12.header_bytes.min,
        r12.header_bytes.mean(),
        r12.header_bytes.max
    );
    println!(
        "  (ii)  s-rules per leaf switch mean (max): {:.0} ({}); per spine: {:.0} ({})",
        r0.leaf_srules.mean, r0.leaf_srules.max, r0.spine_srules.mean, r0.spine_srules.max
    );
    let t1500 = r12
        .traffic
        .iter()
        .find(|t| t.payload == 1500)
        .expect("1500B row");
    let t64 = r12
        .traffic
        .iter()
        .find(|t| t.payload == 64)
        .expect("64B row");
    println!(
        "  (iii) traffic overhead over ideal at R=12: {} (1500B), {} (64B); unicast {}, overlay {}",
        pct(t1500.elmo_ratio - 1.0),
        pct(t64.elmo_ratio - 1.0),
        pct(t64.unicast_ratio - 1.0),
        pct(t64.overlay_ratio - 1.0)
    );
    println!("  (iv)  run `elmo-eval table2` for control-plane update loads\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_names_every_experiment() {
        let list = format!("usage: elmo-eval <{}|all> ", ALL.join("|"));
        assert!(usage_text().starts_with(&list), "{}", usage_text());
    }
}
