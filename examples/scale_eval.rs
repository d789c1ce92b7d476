//! Scale evaluation in library form: generate a multi-tenant workload,
//! encode every group, and print the headline scalability numbers — the
//! same machinery `elmo-eval fig4` uses, shown here as an API consumer
//! would drive it.
//!
//! Run with: `cargo run --release --example scale_eval [groups]`

use elmo::controller::srules::{SRuleSpace, UsageStats};
use elmo::core::{encode_group, EncoderConfig, HeaderLayout};
use elmo::sim::metrics;
use elmo::topology::{Clos, GroupTree};
use elmo::workloads::{GroupSizeDist, Workload, WorkloadConfig};

fn main() {
    let groups: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000);

    let topo = Clos::scaled_fabric(6, 24, 16);
    let layout = HeaderLayout::for_clos(&topo);
    let mut wl_cfg = WorkloadConfig::scaled(&topo, 12, GroupSizeDist::Wve);
    wl_cfg.total_groups = groups;
    println!(
        "fabric: {} hosts / {} switches; workload: {} tenants, {} groups (WVE, P=12)",
        topo.num_hosts(),
        topo.num_switches(),
        wl_cfg.tenants,
        wl_cfg.total_groups
    );

    let workload = Workload::generate(topo, wl_cfg);
    let encoder = EncoderConfig::with_budget(&layout, layout.max_header_bytes(2, 30, 2), 12);
    let mut srules = SRuleSpace::unlimited(&topo);

    let mut covered = 0usize;
    let mut header = metrics::Summary::new();
    let (mut elmo_b, mut ideal_b) = (0u64, 0u64);
    let started = std::time::Instant::now();
    for g in &workload.groups {
        let hosts = workload.member_hosts(g);
        let tree = GroupTree::new(&topo, hosts.iter().copied());
        let enc = {
            let cell = std::cell::RefCell::new(&mut srules);
            let mut sa = |p| cell.borrow_mut().alloc_pod(p);
            let mut la = |l| cell.borrow_mut().alloc_leaf(l);
            encode_group(&topo, &tree, &encoder, &mut sa, &mut la)
        };
        if enc.leaf_covered_by_p_rules() {
            covered += 1;
        }
        let model = metrics::traffic_model(&topo, &layout, &tree, &enc, hosts[0]);
        header.push(model.header_len as f64);
        let t = model.eval(1500);
        elmo_b += t.elmo;
        ideal_b += t.ideal;
    }
    let elapsed = started.elapsed();

    println!(
        "\nencoded {} groups in {:.2?} ({:.1} us/group)",
        workload.groups.len(),
        elapsed,
        elapsed.as_secs_f64() * 1e6 / workload.groups.len() as f64
    );
    println!(
        "covered by p-rules: {:.1}%  |  header bytes min/mean/max: {:.0}/{:.0}/{:.0}",
        covered as f64 / workload.groups.len() as f64 * 100.0,
        header.min,
        header.mean(),
        header.max
    );
    let leafs = UsageStats::of(srules.leaf_usages());
    println!(
        "leaf s-rules per switch mean/p95/max: {:.0}/{}/{}",
        leafs.mean, leafs.p95, leafs.max
    );
    println!(
        "traffic vs ideal multicast at 1500B: {:.2}x",
        elmo_b as f64 / ideal_b as f64
    );
}
