//! `compare A.json B.json`: does result set B agree with result set A
//! within the benchmark's own bounds? One row per (workload, end-to-end
//! metric); A is the base of every ratio.

use std::process::ExitCode;

use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::spec::WORKLOADS;
use crate::stats::{median, spread, spread_cell};
use crate::suite::{read_set, RunRecord};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    /// A set's own spread is wider than the bound: the medians cannot be
    /// told apart at that resolution.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Share of `a` by which `b` is worse (negative when better).
fn worse_by(d: &EndToEnd, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match d.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

pub fn verdict(d: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let sp = |v: &[f64]| if v.len() >= 2 { spread(v) } else { 0.0 };
    let by = worse_by(d, median(a), median(b));
    if sp(a) > d.bound || sp(b) > d.bound {
        Verdict::Unresolved
    } else if by > d.bound {
        Verdict::Worse
    } else if by < -d.bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

fn values(set: &[RunRecord], workload: &str, metric: &str) -> Vec<f64> {
    set.iter()
        .filter(|r| r.workload == workload && !r.trace)
        .filter_map(|r| r.metric(metric))
        .collect()
}

fn failed_share(set: &[RunRecord], workload: &str) -> f64 {
    let (attempted, failed) = set
        .iter()
        .filter(|r| r.workload == workload)
        .fold((0u64, 0u64), |(x, y), r| {
            (x + r.count("attempted"), y + r.count("failed"))
        });
    failed as f64 / attempted.max(1) as f64
}

pub fn main(path_a: &str, path_b: &str) -> ExitCode {
    let (a, b) = match (read_set(path_a), read_set(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!("A = {path_a}\nB = {path_b}\nratio = B / A; spread = interquartile distance / median");
    println!(
        "{:<17} {:<20} {:>14} {:>14} {:>7} {:>6} {:>8} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "ratio", "bound", "A spread", "B spread"
    );
    let (mut bad, mut rows) = (0usize, 0usize);
    for w in WORKLOADS {
        for d in &END_TO_END {
            let (va, vb) = (values(&a, w.name, d.name), values(&b, w.name, d.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            rows += 1;
            let v = verdict(d, &va, &vb);
            bad += usize::from(v == Verdict::Worse);
            let (ma, mb) = (median(&va), median(&vb));
            println!(
                "{:<17} {:<20} {:>14.4} {:>14.4} {:>7.3} {:>5.0}% {:>8} {:>8}  {}",
                w.name,
                d.name,
                ma,
                mb,
                if ma == 0.0 { f64::NAN } else { mb / ma },
                100.0 * d.bound,
                spread_cell(&va),
                spread_cell(&vb),
                v.as_str()
            );
        }
        let (fa, fb) = (failed_share(&a, w.name), failed_share(&b, w.name));
        if fb > fa {
            bad += 1;
            println!(
                "{:<17} failed-op share rose from {fa:.6} to {fb:.6}",
                w.name
            );
        }
    }
    if rows == 0 {
        eprintln!("the two sets share no (workload, metric)");
        return ExitCode::from(2);
    }
    if bad > 0 {
        println!("{bad} regression(s)");
        ExitCode::FAILURE
    } else {
        println!("no regression in {rows} rows");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(better: Better, bound: f64) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "u",
            better,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lower = def(Better::Lower, 0.10);
        let higher = def(Better::Higher, 0.10);
        let a = [100.0, 101.0, 99.0, 100.0];
        assert_eq!(verdict(&lower, &a, &[105.0, 106.0, 104.0]), Verdict::Within);
        assert_eq!(verdict(&lower, &a, &[120.0, 121.0, 119.0]), Verdict::Worse);
        assert_eq!(verdict(&lower, &a, &[80.0, 81.0, 79.0]), Verdict::Better);
        assert_eq!(
            verdict(&higher, &a, &[120.0, 121.0, 119.0]),
            Verdict::Better
        );
        assert_eq!(verdict(&higher, &a, &[80.0, 81.0, 79.0]), Verdict::Worse);
        // Spread wider than the bound on either side: no verdict.
        assert_eq!(
            verdict(&lower, &a, &[60.0, 100.0, 140.0, 180.0]),
            Verdict::Unresolved
        );
        // One run per side: no spread to object to.
        assert_eq!(verdict(&lower, &[100.0], &[109.0]), Verdict::Within);
        assert_eq!(verdict(&lower, &[100.0], &[111.0]), Verdict::Worse);
    }
}
