//! Cross-validation: the analytic traffic model in `elmo_sim::metrics`
//! (used to evaluate a million groups in seconds) must account exactly the
//! same bytes as real packets pushed through the `elmo_dataplane::Fabric`.
//! Any divergence means one of the two re-implementations of the forwarding
//! semantics is wrong.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use elmo::controller::deploy;
use elmo::controller::srules::SRuleSpace;
use elmo::core::{
    encode_group, header_for_sender, DownstreamSections, EncoderConfig, HeaderLayout, SplitMix64,
};
use elmo::dataplane::{Fabric, HypervisorSwitch, SenderFlow, SwitchConfig};
use elmo::net::vxlan::Vni;
use elmo::sim::metrics;
use elmo::topology::{Clos, GroupTree, HostId, LeafId, PodId, UpstreamCover};

const GROUP: Ipv4Addr = Ipv4Addr::new(230, 0, 0, 9);
const TENANT_GROUP: Ipv4Addr = Ipv4Addr::new(225, 0, 0, 9);

fn measure_on_fabric(
    topo: &Clos,
    layout: &HeaderLayout,
    tree: &GroupTree,
    enc: &elmo::core::GroupEncoding,
    sender: HostId,
    payload: usize,
) -> u64 {
    let mut fabric = Fabric::new(*topo, SwitchConfig::default());
    deploy::apply_switch_ops(&mut fabric, deploy::srule_ops(GROUP, enc)).expect("capacity");
    let sections = DownstreamSections::new(topo, layout, tree, enc);
    let header = header_for_sender(
        topo,
        layout,
        tree,
        &sections,
        sender,
        &UpstreamCover::multipath(),
    );
    let mut hv = HypervisorSwitch::new(sender);
    hv.install_flow(
        Vni(5),
        TENANT_GROUP,
        SenderFlow::new(GROUP, Vni(5), &header, layout, vec![]),
    );
    let inner = vec![0u8; payload];
    let pkt = hv.send(Vni(5), TENANT_GROUP, &inner, layout).remove(0);
    fabric.inject(sender, pkt);
    fabric.stats.total_link_bytes()
}

fn random_members(rng: &mut SplitMix64, topo: &Clos, size: usize) -> BTreeSet<HostId> {
    (0..size)
        .map(|_| HostId(rng.below(topo.num_hosts() as u64) as u32))
        .collect()
}

fn check_agreement(r: usize, srules: bool, seed: u64, trials: usize) {
    let topo = Clos::paper_example();
    let layout = HeaderLayout::for_clos(&topo);
    let encoder = EncoderConfig {
        r,
        k_max: 2,
        h_spine_max: 2,
        h_leaf_max: 3, // tight, to exercise s-rules and defaults
        budget_bytes: 325,
        mode: elmo::core::RedundancyMode::Sum,
    };
    let mut rng = SplitMix64::new(seed);
    for trial in 0..trials {
        let size = rng.range_inclusive(2, 14);
        let members = random_members(&mut rng, &topo, size);
        let tree = GroupTree::new(&topo, members.iter().copied());
        if tree.size() < 2 {
            continue;
        }
        let mut space = if srules {
            SRuleSpace::unlimited(&topo)
        } else {
            SRuleSpace::new(&topo, 0, 0)
        };
        let enc = {
            let cell = std::cell::RefCell::new(&mut space);
            let mut sa = |p: PodId| cell.borrow_mut().alloc_pod(p);
            let mut la = |l: LeafId| cell.borrow_mut().alloc_leaf(l);
            encode_group(&topo, &tree, &encoder, &mut sa, &mut la)
        };
        let sender = *members.iter().next().expect("non-empty");
        for payload in [64u64, 700, 1500] {
            let analytic = metrics::elmo_bytes(&topo, &layout, &tree, &enc, sender, payload);
            let measured = measure_on_fabric(&topo, &layout, &tree, &enc, sender, payload as usize);
            assert_eq!(
                analytic, measured,
                "trial {trial}, r={r}, srules={srules}, payload={payload}, \
                 members={members:?}"
            );
        }
    }
}

#[test]
fn agreement_exact_encoding() {
    check_agreement(0, true, 101, 25);
}

#[test]
fn agreement_with_sharing() {
    check_agreement(4, true, 202, 25);
}

#[test]
fn agreement_with_default_rules() {
    // No s-rule capacity: overflow switches land on default p-rules, whose
    // spray the two models must count identically.
    check_agreement(0, false, 303, 25);
}

#[test]
fn agreement_with_sharing_and_defaults() {
    check_agreement(12, false, 404, 25);
}

/// The other baselines agree with first-principles recomputation on a
/// known group (guards against accidental formula drift).
#[test]
fn baseline_formulas_spot_check() {
    let topo = Clos::paper_example();
    let tree = GroupTree::new(&topo, [HostId(0), HostId(1), HostId(42)]);
    let pkt = metrics::OUTER + 1500;
    // Unicast from host 0: same-leaf copy (2 links) + cross-pod copy (6).
    assert_eq!(
        metrics::unicast_bytes(&topo, &tree, HostId(0), 1500),
        8 * pkt
    );
    // Overlay: sender proxies its own leaf (2 links to host 1) + one unicast
    // to pod 2's proxy (6 links), which has no further local members.
    assert_eq!(
        metrics::overlay_bytes(&topo, &tree, HostId(0), 1500),
        8 * pkt
    );
    // Ideal: sender link + 2 receiver links + up (leaf->spine, spine->core)
    // + down (core->spine, spine->leaf) = 7 links.
    assert_eq!(tree.ideal_link_count(&topo, HostId(0)), 7);
}
