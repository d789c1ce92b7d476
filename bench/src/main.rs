//! Pipeline benchmark for elmo-rs: create -> churn -> deploy -> encap ->
//! replay -> deliver on the 2,304-host fabric. See `bench/README.md`.
#![forbid(unsafe_code)]

mod agent;
mod compare;
mod input;
mod layers;
mod metrics;
mod run;
mod spec;
mod stats;
mod suite;
mod sut;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

use sut::JsonValue;

const USAGE: &str = "\
usage:
  elmo-pipeline-bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
      one run; the last line of stdout is the result as one JSON object
  elmo-pipeline-bench [run] [--seed N] [--seconds S] [--reps K] [--smoke] [--out FILE]
      every workload untraced then traced, each in its own process;
      prints every metric and writes the result set
  elmo-pipeline-bench compare A.json B.json
      one row per (workload, end-to-end metric); non-zero exit on any `worse`
workloads: lifecycle_dense lifecycle_sparse replay_mtu mixed_dense";

/// Parsed command line of the two run modes.
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub reps: usize,
    pub out: Option<String>,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec::REF_SECONDS,
        trace: false,
        smoke: false,
        reps: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "run" => {}
            "--smoke" => a.smoke = true,
            "--workload" => a.workload = Some(value()?),
            "--out" => a.out = Some(value()?),
            "--seed" => {
                let v = value()?;
                a.seed = parse_u64(&v).ok_or(format!("bad --seed {v}"))?;
            }
            "--seconds" => {
                let v = value()?;
                a.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                    .ok_or(format!("bad --seconds {v}"))?;
            }
            "--reps" => {
                let v = value()?;
                a.reps = v
                    .parse()
                    .ok()
                    .filter(|n| (1..=100).contains(n))
                    .ok_or(format!("bad --reps {v}"))?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// The workload at the size the arguments ask for. `--smoke` is ~1/50 of
/// the operations on a tenth of the prebuilt state, all checks on.
fn sized(base: spec::Spec, a: &Args) -> spec::Spec {
    let ops = a.seconds / spec::REF_SECONDS;
    if a.smoke {
        base.scaled(ops / 50.0, 0.1)
    } else {
        base.scaled(ops, 1.0)
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, values: &[(&str, f64, &str)]) -> String {
    let metrics: BTreeMap<String, JsonValue> = values
        .iter()
        .map(|&(name, value, unit)| {
            let m = BTreeMap::from([
                ("value".to_string(), JsonValue::F64(value)),
                ("unit".to_string(), JsonValue::String(unit.to_string())),
            ]);
            (name.to_string(), JsonValue::Object(m))
        })
        .collect();
    JsonValue::Object(BTreeMap::from([
        ("correct".to_string(), JsonValue::Bool(correct)),
        ("attempted".to_string(), JsonValue::U64(attempted)),
        ("failed".to_string(), JsonValue::U64(failed)),
        ("metrics".to_string(), JsonValue::Object(metrics)),
    ]))
    .to_string_compact()
}

/// Attach each value's unit from its table; the two run in parallel.
fn with_units(
    table: impl Iterator<Item = (&'static str, &'static str)>,
    values: metrics::Values,
) -> Vec<(&'static str, f64, &'static str)> {
    table
        .zip(values)
        .map(|((name, unit), (n, x))| {
            assert_eq!(name, n, "metric table and values out of step");
            (n, x, unit)
        })
        .collect()
}

/// One workload, one process, one result line.
fn single(a: &Args, name: &str) -> ExitCode {
    let Some(base) = spec::find(name) else {
        eprintln!("unknown workload {name}\n{USAGE}");
        return ExitCode::from(2);
    };
    let spec = sized(base, a);
    let mut r = run::run(
        &spec,
        a.seed,
        run::Options {
            trace: a.trace,
            fault: None,
            setup_reps: if a.smoke { 1 } else { spec::SETUP_REPS },
            warm_up: !a.smoke,
        },
    );
    eprintln!(
        "{name}: seed {:#x}, {} group ops, {} event ops, {} packet ops, {} failed; \
         verify {} violations, {} missing flows, {} stale plans",
        a.seed,
        r.groups.attempted,
        r.events.attempted,
        r.packets.attempted,
        r.failed(),
        r.verify.violations,
        r.missing_flows,
        r.plan_stale
    );
    eprintln!(
        "  p99 per third of {} group ops ({} samples beyond it) and of {} event ops ({} beyond); \
         {} packets had their delivered host set compared exactly",
        r.groups.lat_ns.len(),
        stats::samples_beyond(r.groups.lat_ns.len() / metrics::LATENCY_SLICES, 0.99),
        r.events.lat_ns.len(),
        stats::samples_beyond(r.events.lat_ns.len() / metrics::LATENCY_SLICES, 0.99),
        r.sampled_checked
    );
    if !r.correct() {
        // A number from a run that fails a check is not reported.
        println!("{}", result_line(false, r.attempted(), r.failed(), &[]));
        return ExitCode::FAILURE;
    }
    let values: Vec<(&str, f64, &str)> = if a.trace {
        let extras = layers::measure(&mut r);
        let ledgers = metrics::ledgers(&r);
        for (phase, l) in [
            ("create", &ledgers.create),
            ("churn", &ledgers.churn),
            ("replay", &ledgers.replay),
        ] {
            eprintln!(
                "  {phase}: {} ops, {:.3} s, largest layer {}, {:.1}% unattributed",
                l.ops,
                l.wall_ns as f64 / 1e9,
                l.largest_layer().map_or("-", trace::Name::as_str),
                l.unattributed_pct()
            );
            if l.unattributed_pct() > 10.0 {
                eprintln!("warning: {phase} ledger leaves more than 10% unattributed");
            }
        }
        let path = std::path::Path::new("bench/out").join(format!("{name}.trace.jsonl"));
        if let Err(e) = r.rec.write_jsonl(&path, spec::TRACE_FILE_SPANS) {
            eprintln!("warning: trace not written to {}: {e}", path.display());
        }
        let units = metrics::PER_LAYER.iter().map(|d| (d.name, d.unit));
        with_units(units, metrics::per_layer(&r, &extras, &ledgers))
    } else {
        let units = metrics::END_TO_END.iter().map(|d| (d.name, d.unit));
        with_units(units, metrics::end_to_end(&r))
    };
    for (n, x, u) in &values {
        eprintln!("  {n:<48} {x:>16.4} {u}");
    }
    println!("{}", result_line(true, r.attempted(), r.failed(), &values));
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|s| s == "compare") {
        return match argv.as_slice() {
            [_, a, b] => compare::main(a, b),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    if argv.iter().any(|s| s == "--help" || s == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload.clone() {
        Some(name) => single(&args, &name),
        None => suite::main(&args),
    }
}
