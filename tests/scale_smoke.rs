//! Workload-scale smoke test: install a few thousand controller-managed
//! groups on one shared fabric (the realistic deployment: every group's
//! s-rules coexist in the same group tables) and verify a sample of them
//! deliver exactly — membership, isolation, and table capacity all at once.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use elmo::controller::{deploy, Controller, ControllerConfig, Deployment, GroupId, MemberRole};
use elmo::dataplane::{Fabric, SwitchConfig};
use elmo::net::vxlan::Vni;
use elmo::topology::{Clos, HostId};
use elmo::workloads::{GroupSizeDist, Workload, WorkloadConfig};

#[test]
fn thousands_of_groups_share_one_fabric() {
    let topo = Clos::scaled_fabric(4, 8, 16); // 512 hosts
    let wl = Workload::generate(
        topo,
        WorkloadConfig {
            tenants: 40,
            total_groups: 2_000,
            host_vm_cap: 20,
            placement_p: 12,
            min_group_size: 5,
            dist: GroupSizeDist::Wve,
            seed: 0x5ca1e,
        },
    );
    let mut ctl = Controller::new(topo, ControllerConfig::paper_default(0));
    let mut dep = Deployment::new(Fabric::new(topo, SwitchConfig::default()));

    // Deploy everything: controller state plus every group's s-rules in the
    // shared group tables, flows and subscriptions.
    for (gi, g) in wl.groups.iter().enumerate() {
        let hosts = wl.member_hosts(g);
        ctl.create_group(
            GroupId(gi as u64),
            Vni(g.tenant),
            Ipv4Addr::new(225, 4, (gi >> 8) as u8, gi as u8),
            hosts.iter().map(|&h| (h, MemberRole::Both)),
        );
        dep.apply(&ctl, &deploy::deploy_group(&ctl, GroupId(gi as u64)))
            .expect("group tables never exhaust at this scale");
    }

    // Sample every 97th group; verify exact delivery (R = 0).
    let mut verified = 0;
    for gi in (0..wl.groups.len()).step_by(97) {
        let gid = GroupId(gi as u64);
        let state = ctl.group(gid).expect("group");
        let members: Vec<HostId> = state.tree.members().to_vec();
        let sender = members[gi % members.len()];
        let (vni, taddr, outer) = (state.vni, state.tenant_addr, state.outer_addr);
        let pkt = dep
            .hypervisor_mut(sender)
            .send(vni, taddr, b"scale smoke", ctl.layout())
            .remove(0);
        let got: BTreeSet<HostId> = dep
            .fabric
            .inject(sender, pkt)
            .into_iter()
            .map(|(h, bytes)| {
                // Every copy counts, so a cross-group s-rule collision in
                // the shared tables shows; a subscriber must also decap.
                let rx = dep.hypervisor_mut(h);
                if !rx.subscribers(outer).is_empty() {
                    assert!(!rx.receive(&bytes, ctl.layout()).is_empty());
                }
                h
            })
            .collect();
        let expected: BTreeSet<HostId> = members.iter().copied().filter(|&h| h != sender).collect();
        assert_eq!(got, expected, "group {gi} mis-delivered");
        verified += 1;
    }
    assert!(verified >= 20, "sampled {verified} groups");
    assert_eq!(ctl.group_count(), 2_000);
}
