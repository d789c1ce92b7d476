//! Differential-mode acceptance: the static walk must agree byte for byte
//! with the fast-path fabric replay on at least 100 sampled groups, and
//! the walk's redundancy accounting must match the independent traffic
//! model on every checked (group, sender) pair — on the dispersed
//! placement (P = 1) and the clustered one (P = 12), which sample groups
//! with different tree shapes.

use elmo_core::HeaderLayout;
use elmo_sim::verify_exp::{self, VerifyExpConfig};
use elmo_topology::Clos;
use elmo_workloads::{GroupSizeDist, WorkloadConfig};

fn run_at(placement_p: usize) {
    let topo = Clos::scaled_fabric(6, 24, 16);
    let layout = HeaderLayout::for_clos(&topo);
    let mut wl = WorkloadConfig::scaled(&topo, placement_p, GroupSizeDist::Wve);
    wl.total_groups = 400;
    let run = verify_exp::run(
        topo,
        wl,
        &VerifyExpConfig {
            r: 12,
            header_budget: layout.max_header_bytes(2, 30, 2),
            threads: 0,
            samples: 120,
            seed: 0xe1_40,
        },
    );
    assert!(
        run.report.ok(),
        "expected a clean report at P = {placement_p}, got {:?}",
        run.report.counts_by_kind()
    );
    assert!(
        run.differential_sampled >= 100,
        "differential mode replayed only {} groups",
        run.differential_sampled
    );
    // Every collected sender walk was diffed against the sweeps' traffic
    // model; a clean report means links, fixed bytes, and header length
    // all agreed exactly.
    assert!(
        run.traffic_cross_checked >= run.differential_sampled,
        "only {} sender walks were cross-checked",
        run.traffic_cross_checked
    );
}

#[test]
fn differential_replay_matches_on_100_sampled_groups() {
    run_at(1);
}

#[test]
fn differential_replay_matches_through_the_sharded_engine() {
    run_at(12);
}
