//! Failure handling (paper §3.3): fail a spine, watch the controller swap
//! multipath for explicit upstream ports, and verify packets still reach
//! every member *through the degraded fabric* — then partition a pod
//! entirely and watch the group degrade to unicast.
//!
//! Run with: `cargo run --example failover`

use std::net::Ipv4Addr;

use elmo::controller::{deploy, Controller, ControllerConfig, Deployment, GroupId, MemberRole};
use elmo::dataplane::{Fabric, SwitchConfig};
use elmo::net::vxlan::Vni;
use elmo::topology::{Clos, HostId, PodId, SpineId};

fn main() {
    let topo = Clos::paper_example();
    let mut ctl = Controller::new(topo, ControllerConfig::paper_default(2));

    // A cross-pod group: sender in pod 0, receivers in pods 0 and 2.
    let gid = GroupId(7);
    let tenant_group = Ipv4Addr::new(225, 7, 7, 7);
    let members = [
        (HostId(0), MemberRole::Both),
        (HostId(1), MemberRole::Receiver),
        (HostId(40), MemberRole::Receiver), // L5, pod 2
        (HostId(42), MemberRole::Receiver), // L5, pod 2
    ];
    ctl.create_group(gid, Vni(7), tenant_group, members);
    println!("group spans pods 0 and 2; multipath on, no explicit covers\n");

    // --- healthy network -----------------------------------------------------
    let delivered = transmit(&ctl, gid, tenant_group, HostId(0), &[]);
    println!("healthy fabric: delivered to {delivered:?}");
    assert_eq!(delivered, vec![HostId(1), HostId(40), HostId(42)]);

    // --- one spine fails ------------------------------------------------------
    // Fail pod 0's plane-0 spine. If the group's in-use plane was 0, the
    // controller installs an explicit cover through plane 1.
    let impact = ctl.handle_spine_failure(SpineId(0));
    println!(
        "\nfailed S0: {}/{} groups affected, {} hypervisor updates pushed",
        impact.affected_groups,
        impact.total_groups,
        impact.hypervisor_updates.values().sum::<u32>()
    );
    let state = ctl.group(gid).expect("group");
    if let Some(cover) = state.covers.get(&PodId(0)) {
        println!(
            "  explicit cover for pod 0: spine uplinks {:?}, core ports {:?} (complete: {})",
            cover.leaf_up_ports, cover.spine_up_ports, cover.complete
        );
        assert_eq!(cover.leaf_up_ports, vec![1], "re-routed through plane 1");
    } else {
        println!("  group's in-use plane did not traverse S0; multipath unchanged");
    }
    // Transmit through a fabric where S0 is really down: the new headers
    // carry explicit upstream bits that avoid the dead spine.
    let delivered = transmit(&ctl, gid, tenant_group, HostId(0), &[SpineId(0)]);
    println!("with S0 down: delivered to {delivered:?}");
    assert_eq!(delivered, vec![HostId(1), HostId(40), HostId(42)]);

    // --- remote pod partitioned -------------------------------------------------
    let mut ctl2 = Controller::new(topo, ControllerConfig::paper_default(2));
    ctl2.create_group(gid, Vni(7), tenant_group, members);
    ctl2.handle_spine_failure(SpineId(4));
    let impact = ctl2.handle_spine_failure(SpineId(5));
    let state = ctl2.group(gid).expect("group");
    println!(
        "\nboth pod-2 spines failed: group degraded to unicast = {} ({} groups degraded)",
        state.unicast_fallback, impact.degraded_to_unicast
    );
    assert!(
        state.unicast_fallback,
        "total partition must trigger the fallback"
    );
    println!("the hypervisor now replicates over unicast until the network heals.");
}

/// Deploy the group's current state into a fabric (with the given spines
/// down) and send one packet.
fn transmit(
    ctl: &Controller,
    gid: GroupId,
    tenant_group: Ipv4Addr,
    sender: HostId,
    dead_spines: &[SpineId],
) -> Vec<HostId> {
    let layout = *ctl.layout();
    let mut dep = Deployment::new(Fabric::new(*ctl.topo(), SwitchConfig::default()));
    for &s in dead_spines {
        dep.fabric.fail_spine(s);
    }
    dep.apply(ctl, &deploy::deploy_group(ctl, gid))
        .expect("one group fits the default group tables");
    let state = ctl.group(gid).expect("group");
    let pkt = dep
        .hypervisor_mut(sender)
        .send(state.vni, tenant_group, b"failover probe", &layout)
        .remove(0);
    let mut hosts: Vec<HostId> = dep
        .fabric
        .inject(sender, pkt)
        .into_iter()
        .map(|(h, bytes)| {
            // Every copy counts, a non-member's too; a member must decap it.
            let rx = dep.hypervisor_mut(h);
            if !rx.subscribers(state.outer_addr).is_empty() {
                assert!(
                    !rx.receive(&bytes, &layout).is_empty(),
                    "{h} rejected its copy"
                );
            }
            h
        })
        .collect();
    hosts.sort_unstable();
    hosts.dedup();
    hosts
}
