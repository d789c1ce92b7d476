//! # elmo-sim — the evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation (§5):
//!
//! | Module | Reproduces |
//! |---|---|
//! | [`sweep`] | Figures 4 & 5 (coverage, s-rules, traffic vs `R`), plus the §5.1.2 variants (Uniform sizes, limited `Fmax`, reduced headers) |
//! | [`table2`] | Table 2 — control-plane update load under churn |
//! | [`churn_exp`] | §5.1.3a churn replay: membership-change throughput, per-burst verification |
//! | [`failure_exp`] | §5.1.3b — spine/core failure blast radius |
//! | [`perf`] | Figure 7 (hypervisor encap throughput) and §5.1.3 controller latency |
//! | [`xpander_exp`] | §5.1.2 non-Clos (Xpander) feasibility |
//! | [`table3`] | Table 3 — related-work comparison |
//! | [`ablation`] | §3.1 design-decision ablation (D1 → D2 → D3 header sizes) |
//! | [`metrics`], [`baselines`] | traffic accounting and the ideal/unicast/overlay/Li-et-al. baselines |
//!
//! The `elmo-eval` binary drives all of these and prints paper-style rows;
//! see `EXPERIMENTS.md` at the workspace root for paper-vs-measured values.
#![forbid(unsafe_code)]

pub mod ablation;
pub mod baselines;
pub mod churn_exp;
pub mod failure_exp;
pub mod metrics;
pub mod obs;
pub mod perf;
pub mod report;
pub mod sweep;
pub mod table2;
pub mod table3;
pub mod temporal_exp;
pub mod timeline_exp;
pub mod trace_exp;
pub mod verify_exp;
pub mod xpander_exp;

pub use metrics::{group_traffic, traffic_model, GroupTraffic, Summary, TrafficModel};
pub use sweep::{SweepConfig, SweepResult, SweepRow};
