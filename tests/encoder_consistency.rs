//! The two encoding paths — the evaluation harness's standalone
//! `encode_group` loop and the controller's managed path — must produce
//! identical encodings for identical inputs, and both must respect the
//! hardware envelope (RMT's 512-byte parser header vector) for every
//! sender of every group.

use std::net::Ipv4Addr;
use std::sync::Arc;

use elmo::controller::srules::SRuleSpace;
use elmo::controller::{Controller, ControllerConfig, GroupId, MemberRole};
use elmo::core::{encode_group, DownstreamRule, DownstreamSection, HeaderLayout, UpstreamRule};
use elmo::dataplane::ElmoPacketRepr;
use elmo::net::vxlan::Vni;
use elmo::topology::{Clos, GroupTree};
use elmo::workloads::{GroupSizeDist, Workload, WorkloadConfig};

fn workload(topo: Clos) -> Workload {
    Workload::generate(
        topo,
        WorkloadConfig {
            tenants: 25,
            total_groups: 200,
            host_vm_cap: 20,
            placement_p: 12,
            min_group_size: 5,
            dist: GroupSizeDist::Wve,
            seed: 0xabcd,
        },
    )
}

#[test]
fn controller_and_standalone_encoders_agree() {
    let topo = Clos::scaled_fabric(4, 12, 16);
    let w = workload(topo);
    let mut ctl = Controller::new(topo, ControllerConfig::paper_default(12));
    let mut space = SRuleSpace::unlimited(&topo);
    let encoder = *ctl.encoder_config();

    for (gi, g) in w.groups.iter().enumerate() {
        let hosts = w.member_hosts(g);
        ctl.create_group(
            GroupId(gi as u64),
            Vni(g.tenant),
            Ipv4Addr::new(225, 2, (gi >> 8) as u8, gi as u8),
            hosts.iter().map(|&h| (h, MemberRole::Both)),
        );
        let tree = GroupTree::new(&topo, hosts.iter().copied());
        let standalone = {
            let cell = std::cell::RefCell::new(&mut space);
            let mut sa = |p| cell.borrow_mut().alloc_pod(p);
            let mut la = |l| cell.borrow_mut().alloc_leaf(l);
            encode_group(&topo, &tree, &encoder, &mut sa, &mut la)
        };
        let managed = &ctl.group(GroupId(gi as u64)).expect("group").enc;
        assert_eq!(&standalone, managed, "group {gi} encodings diverged");
    }
}

#[test]
fn every_header_fits_the_rmt_parser_envelope() {
    let topo = Clos::facebook_fabric();
    let layout = HeaderLayout::for_clos(&topo);
    let w = Workload::generate(
        topo,
        WorkloadConfig {
            tenants: 10,
            total_groups: 60,
            host_vm_cap: 20,
            placement_p: 1, // dispersed = biggest headers
            min_group_size: 5,
            dist: GroupSizeDist::Uniform,
            seed: 0xfeed,
        },
    );
    let mut ctl = Controller::new(topo, ControllerConfig::paper_default(12));
    for (gi, g) in w.groups.iter().enumerate() {
        let hosts = w.member_hosts(g);
        ctl.create_group(
            GroupId(gi as u64),
            Vni(g.tenant),
            Ipv4Addr::new(225, 3, (gi >> 8) as u8, gi as u8),
            hosts.iter().map(|&h| (h, MemberRole::Both)),
        );
        for &sender in hosts.iter().take(3) {
            let header = ctl.header_for(GroupId(gi as u64), sender).expect("header");
            let elmo_bytes = header.encode(&layout).len();
            assert!(elmo_bytes <= 325, "group {gi}: {elmo_bytes} > 325");
            assert!(
                ElmoPacketRepr::OUTER_LEN + elmo_bytes <= 512,
                "group {gi}: header vector {} > RMT's 512",
                ElmoPacketRepr::OUTER_LEN + elmo_bytes
            );
        }
    }
}

#[test]
fn worst_case_static_header_is_within_the_parser_limit() {
    // The absolute worst header our layout can emit for the paper fabric:
    // full upstream rules, a full core bitmap, two max-width spine rules,
    // and leaf rules until the byte budget refuses more.
    let topo = Clos::facebook_fabric();
    let layout = HeaderLayout::for_clos(&topo);
    let mut header = elmo::core::ElmoHeader::empty();
    header.u_leaf = Some(UpstreamRule {
        down: full(layout.leaf_down_ports),
        multipath: false,
        up: full(layout.leaf_up_ports),
    });
    header.u_spine = Some(UpstreamRule {
        down: full(layout.spine_down_ports),
        multipath: false,
        up: full(layout.spine_up_ports),
    });
    header.core = Some(full(layout.core_ports));
    let spine_rules: Vec<DownstreamRule> = (0..2u32)
        .map(|pod| DownstreamRule {
            bitmap: full(layout.spine_down_ports),
            switches: (0..8).map(|i| pod * 6 + i % 12).collect(),
        })
        .collect();
    let spine_default = Some(full(layout.spine_down_ports));
    header.d_spine = Arc::new(DownstreamSection::new(
        &spine_rules,
        spine_default,
        layout.pod_id_bits,
    ));
    let leaf_section = |rules: &[DownstreamRule]| {
        let default = Some(full(layout.leaf_down_ports));
        Arc::new(DownstreamSection::new(rules, default, layout.leaf_id_bits))
    };
    header.d_leaf = leaf_section(&[]);
    let mut leaf_rules = Vec::new();
    let mut i = 0u32;
    while header.byte_len(&layout) + layout.d_leaf_rule_bits(8).div_ceil(8) <= 325 {
        leaf_rules.push(DownstreamRule {
            bitmap: full(layout.leaf_down_ports),
            switches: (0..8).map(|k| (i * 8 + k) % 576).collect(),
        });
        header.d_leaf = leaf_section(&leaf_rules);
        i += 1;
    }
    let bytes = header.encode(&layout);
    assert!(bytes.len() <= 325);
    assert!(ElmoPacketRepr::OUTER_LEN + bytes.len() <= 512);
    assert!(header.d_leaf.len() >= 15, "budget admits a real rule count");
    // And it still roundtrips at that size.
    let (decoded, _) = elmo::core::ElmoHeader::decode(&bytes, &layout).expect("decodes");
    assert_eq!(decoded, header);

    fn full(width: usize) -> elmo::core::PortBitmap {
        elmo::core::PortBitmap::from_ports(width, 0..width)
    }
}
