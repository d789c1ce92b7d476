//! The full set: every workload untraced (`--reps` times, each with
//! another seed) and then once traced, each run in a process of its own
//! so no workload inherits another's heap or obs counters.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::spec::WORKLOADS;
use crate::stats::{median, spread_cell};
use crate::sut::JsonValue;
use crate::Args;

/// One child run as stored in a result set.
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    /// The child's result line, parsed.
    pub result: JsonValue,
}

impl RunRecord {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.result
            .as_object()?
            .get("metrics")?
            .as_object()?
            .get(name)?
            .as_object()?
            .get("value")?
            .as_f64()
    }

    pub fn count(&self, key: &str) -> u64 {
        self.result
            .as_object()
            .and_then(|o| o.get(key))
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
    }

    fn to_json(&self) -> JsonValue {
        let mut o = self.result.as_object().cloned().unwrap_or_default();
        o.insert("workload".into(), JsonValue::String(self.workload.clone()));
        o.insert("seed".into(), JsonValue::U64(self.seed));
        o.insert("trace".into(), JsonValue::U64(u64::from(self.trace)));
        JsonValue::Object(o)
    }

    pub fn from_json(v: &JsonValue) -> Option<RunRecord> {
        let o = v.as_object()?;
        Some(RunRecord {
            workload: o.get("workload")?.as_str()?.to_string(),
            seed: o.get("seed")?.as_u64()?,
            trace: o.get("trace")?.as_u64()? != 0,
            result: v.clone(),
        })
    }
}

fn child(a: &Args, workload: &str, seed: u64, trace: bool) -> Result<RunRecord, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if a.smoke {
        cmd.arg("--smoke");
    }
    // The child's stderr (its own metric listing) is dropped; the suite
    // prints the collected set instead.
    let out = cmd
        .stderr(std::process::Stdio::null())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let result = JsonValue::parse(line)
        .map_err(|e| format!("{workload} (seed {seed}, trace {trace}): no result line: {e}"))?;
    let rec = RunRecord {
        workload: workload.to_string(),
        seed,
        trace,
        result,
    };
    if !out.status.success() || rec.count("failed") > 0 {
        return Err(format!(
            "{workload} (seed {seed}, trace {trace}) failed its checks: {} of {} ops failed, exit {:?}",
            rec.count("failed"),
            rec.count("attempted"),
            out.status.code()
        ));
    }
    Ok(rec)
}

pub fn write_set(path: &std::path::Path, a: &Args, runs: &[RunRecord]) -> std::io::Result<()> {
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let doc = JsonValue::Object(BTreeMap::from([
        (
            "benchmark".into(),
            JsonValue::String("elmo-pipeline-bench".into()),
        ),
        ("cpus_available".into(), JsonValue::U64(cpus as u64)),
        ("seed".into(), JsonValue::U64(a.seed)),
        ("seconds".into(), JsonValue::F64(a.seconds)),
        ("smoke".into(), JsonValue::Bool(a.smoke)),
        (
            "runs".into(),
            JsonValue::Array(runs.iter().map(RunRecord::to_json).collect()),
        ),
    ]));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc.pretty())
}

pub fn read_set(path: &str) -> Result<Vec<RunRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = doc
        .as_object()
        .and_then(|o| o.get("runs"))
        .and_then(JsonValue::as_array)
        .ok_or(format!("{path}: no `runs` array"))?;
    runs.iter()
        .map(|r| RunRecord::from_json(r).ok_or(format!("{path}: malformed run entry")))
        .collect()
}

pub fn main(a: &Args) -> ExitCode {
    let mut runs: Vec<RunRecord> = Vec::new();
    for w in WORKLOADS {
        let plan = (0..a.reps as u64)
            .map(|k| (a.seed + k, false))
            .chain([(a.seed, true)]);
        for (seed, trace) in plan {
            match child(a, w.name, seed, trace) {
                Ok(r) => runs.push(r),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    for w in WORKLOADS {
        let of = |trace: bool| {
            runs.iter()
                .filter(move |r| r.workload == w.name && r.trace == trace)
        };
        let (attempted, failed) = of(false).fold((0, 0), |(x, y), r| {
            (x + r.count("attempted"), y + r.count("failed"))
        });
        println!(
            "\n== {}  ({} untraced run(s), seed {:#x}+, {attempted} ops attempted, {failed} failed)",
            w.name, a.reps, a.seed
        );
        println!("   {}", w.why);
        println!(
            "{:<50} {:>16} {:<6} {:>8}  bound",
            "end-to-end metric", "median", "unit", "spread"
        );
        for d in END_TO_END {
            let v: Vec<f64> = of(false).filter_map(|r| r.metric(d.name)).collect();
            println!(
                "{:<50} {:>16.4} {:<6} {:>8}  {:.0}% ({} is better)",
                d.name,
                median(&v),
                d.unit,
                spread_cell(&v),
                100.0 * d.bound,
                d.better.as_str()
            );
        }
        println!(
            "{:<50} {:>16} {:<6} moves",
            "per-layer metric (traced run)", "value", "unit"
        );
        let traced = of(true).next().expect("one traced run per workload");
        for d in PER_LAYER {
            let v = traced.metric(d.name).unwrap_or(f64::NAN);
            println!(
                "{:<50} {:>16.4} {:<6} {} is better; {}",
                d.name,
                v,
                d.unit,
                d.better.as_str(),
                d.moves
            );
        }
        // Tracing overhead as measured: the traced run's phase walls
        // against the walls the untraced throughputs imply.
        let untraced_wall = |rate: &str, ops: &str| {
            let first = of(false).next()?;
            Some(traced.metric(ops)? / first.metric(rate)?)
        };
        let walls = [
            untraced_wall("groups_per_s", "ledger.group_ops"),
            untraced_wall("events_per_s", "ledger.event_ops"),
            untraced_wall("pkts_per_s", "ledger.packet_ops"),
        ];
        let traced_wall: Option<f64> = [
            "ledger.create_wall_s",
            "ledger.churn_wall_s",
            "ledger.replay_wall_s",
        ]
        .iter()
        .map(|n| traced.metric(n))
        .sum();
        if let (Some(t), Some(u)) = (traced_wall, walls.iter().copied().sum::<Option<f64>>()) {
            println!(
                "{:<50} {:>16.4} {:<6} traced wall {:.3}s vs untraced {:.3}s, same seed",
                "trace overhead, measured",
                100.0 * (t / u - 1.0),
                "%",
                t,
                u
            );
        }
    }

    let path = a
        .out
        .clone()
        .unwrap_or_else(|| format!("bench/out/results-{:x}.json", a.seed));
    match write_set(std::path::Path::new(&path), a, &runs) {
        Ok(()) => {
            println!("\nresult set written to {path}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            ExitCode::FAILURE
        }
    }
}
