//! End-to-end integration: controller-computed rules drive real packets
//! through the full data plane, across many randomized groups.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use elmo::controller::{deploy, Controller, ControllerConfig, Deployment, GroupId, MemberRole};
use elmo::core::SplitMix64;
use elmo::dataplane::{Fabric, SwitchConfig};
use elmo::net::vxlan::Vni;
use elmo::topology::{Clos, HostId};

/// Deploy a group into a fresh fabric and deliver one packet from `sender`,
/// returning every host the fabric handed a copy to (deduplicated), member
/// or not. A copy to a subscribed host must also decapsulate there.
fn deliver(ctl: &Controller, gid: GroupId, sender: HostId) -> BTreeSet<HostId> {
    let layout = *ctl.layout();
    let state = ctl.group(gid).expect("group exists");
    let mut dep = Deployment::new(Fabric::new(*ctl.topo(), SwitchConfig::default()));
    dep.apply(ctl, &deploy::deploy_group(ctl, gid))
        .expect("switch capacity");
    let pkt = dep
        .hypervisor_mut(sender)
        .send(state.vni, state.tenant_addr, b"integration", &layout)
        .remove(0);
    dep.fabric
        .inject(sender, pkt)
        .into_iter()
        .map(|(h, bytes)| {
            let rx = dep.hypervisor_mut(h);
            if !rx.subscribers(state.outer_addr).is_empty() {
                assert!(
                    !rx.receive(&bytes, &layout).is_empty(),
                    "{h} rejected its copy"
                );
            }
            h
        })
        .collect()
}

/// Random groups, exact encoding (R = 0, plentiful s-rules): every member
/// (and nothing else) receives every sender's packet.
#[test]
fn exact_encodings_deliver_precisely() {
    let topo = Clos::paper_example();
    let mut rng = SplitMix64::new(0xE2E);
    for trial in 0..30 {
        let mut ctl = Controller::new(topo, ControllerConfig::paper_default(0));
        let size = rng.range_inclusive(2, 12);
        let members: BTreeSet<HostId> = (0..size)
            .map(|_| HostId(rng.below(topo.num_hosts() as u64) as u32))
            .collect();
        let gid = GroupId(trial);
        ctl.create_group(
            gid,
            Vni(1),
            Ipv4Addr::new(225, 0, 0, trial as u8 + 1),
            members.iter().map(|&h| (h, MemberRole::Both)),
        );
        let sender = *members.iter().next().expect("non-empty");
        let got = deliver(&ctl, gid, sender);
        let expected: BTreeSet<HostId> = members.iter().copied().filter(|&h| h != sender).collect();
        assert_eq!(got, expected, "trial {trial}, sender {sender}");
    }
}

/// With sharing enabled (R > 0), delivery must be a superset of the members
/// (spurious copies are allowed; misses are not), and the spurious count is
/// bounded by R per shared rule.
#[test]
fn shared_encodings_never_miss_members() {
    let topo = Clos::paper_example();
    let mut rng = SplitMix64::new(0x5ade);
    for trial in 0..30 {
        let mut ctl = Controller::new(topo, ControllerConfig::paper_default(4));
        let size = rng.range_inclusive(4, 16);
        let members: BTreeSet<HostId> = (0..size)
            .map(|_| HostId(rng.below(topo.num_hosts() as u64) as u32))
            .collect();
        let gid = GroupId(trial);
        ctl.create_group(
            gid,
            Vni(2),
            Ipv4Addr::new(225, 0, 1, trial as u8 + 1),
            members.iter().map(|&h| (h, MemberRole::Both)),
        );
        let sender = *members.iter().next().expect("non-empty");
        let got = deliver(&ctl, gid, sender);
        for &m in &members {
            if m != sender {
                assert!(got.contains(&m), "trial {trial}: member {m} missed");
            }
        }
    }
}

/// Every sender of a group reaches every other member, using its own
/// sender-specific header over the shared downstream rules.
#[test]
fn all_senders_reach_all_members() {
    let topo = Clos::paper_example();
    let members = [
        HostId(3),
        HostId(11),
        HostId(20),
        HostId(35),
        HostId(50),
        HostId(63),
    ];
    let mut ctl = Controller::new(topo, ControllerConfig::paper_default(0));
    let gid = GroupId(1);
    ctl.create_group(
        gid,
        Vni(3),
        Ipv4Addr::new(225, 0, 2, 1),
        members.iter().map(|&h| (h, MemberRole::Both)),
    );
    for &sender in &members {
        let got = deliver(&ctl, gid, sender);
        let expected: BTreeSet<HostId> = members.iter().copied().filter(|&h| h != sender).collect();
        assert_eq!(got, expected, "sender {sender}");
    }
}

/// Non-members never receive a decodable tenant frame, even when spurious
/// packets reach their hosts: the hypervisor discards unsubscribed groups
/// (address-space isolation at the edge).
#[test]
fn non_members_discard_spurious_traffic() {
    let topo = Clos::paper_example();
    let members = [HostId(0), HostId(17), HostId(42)];
    let mut ctl = Controller::new(topo, ControllerConfig::paper_default(12));
    let gid = GroupId(1);
    ctl.create_group(
        gid,
        Vni(4),
        Ipv4Addr::new(225, 0, 3, 1),
        members.iter().map(|&h| (h, MemberRole::Both)),
    );
    let layout = *ctl.layout();
    let state = ctl.group(gid).expect("group");
    let mut dep = Deployment::new(Fabric::new(topo, SwitchConfig::default()));
    dep.apply(&ctl, &deploy::deploy_group(&ctl, gid))
        .expect("switch capacity");
    let pkt = dep
        .hypervisor_mut(HostId(0))
        .send(Vni(4), state.tenant_addr, b"secret", &layout)
        .remove(0);
    for (host, bytes) in dep.fabric.inject(HostId(0), pkt) {
        if !members.contains(&host) {
            // An unsubscribed hypervisor must drop it.
            let rx = dep.hypervisor_mut(host);
            assert!(
                rx.receive(&bytes, &layout).is_empty(),
                "{host} leaked a frame"
            );
            assert_eq!(rx.stats.discarded, 1);
        }
    }
}

/// Two tenants can use the same tenant-side group address without
/// interference (address-space isolation): the outer addresses differ.
#[test]
fn tenants_share_group_addresses_without_collision() {
    let topo = Clos::paper_example();
    let shared_addr = Ipv4Addr::new(225, 1, 1, 1);
    let mut ctl = Controller::new(topo, ControllerConfig::paper_default(0));
    ctl.create_group(
        GroupId(1),
        Vni(100),
        shared_addr,
        [
            (HostId(0), MemberRole::Both),
            (HostId(9), MemberRole::Receiver),
        ],
    );
    ctl.create_group(
        GroupId(2),
        Vni(200),
        shared_addr,
        [
            (HostId(0), MemberRole::Both),
            (HostId(42), MemberRole::Receiver),
        ],
    );
    let a = ctl.group(GroupId(1)).expect("group 1");
    let b = ctl.group(GroupId(2)).expect("group 2");
    assert_eq!(a.tenant_addr, b.tenant_addr);
    assert_ne!(a.outer_addr, b.outer_addr, "provider addresses must differ");
    // Tenant 100's packet reaches host 9, not host 42 (and vice versa).
    let got_a = deliver(&ctl, GroupId(1), HostId(0));
    assert_eq!(got_a, BTreeSet::from([HostId(9)]));
    let got_b = deliver(&ctl, GroupId(2), HostId(0));
    assert_eq!(got_b, BTreeSet::from([HostId(42)]));
}

/// Membership churn keeps delivery correct: after every join/leave, a fresh
/// transmission matches the current receiver set exactly.
#[test]
fn delivery_tracks_membership_changes() {
    let topo = Clos::paper_example();
    let mut ctl = Controller::new(topo, ControllerConfig::paper_default(0));
    let gid = GroupId(1);
    let sender = HostId(0);
    ctl.create_group(
        gid,
        Vni(9),
        Ipv4Addr::new(225, 0, 4, 1),
        [
            (sender, MemberRole::Both),
            (HostId(8), MemberRole::Receiver),
        ],
    );
    let mut current: BTreeSet<HostId> = BTreeSet::from([HostId(8)]);
    let steps: &[(u32, bool)] = &[
        (42, true),
        (57, true),
        (8, false),
        (33, true),
        (57, false),
        (12, true),
    ];
    for &(host, join) in steps {
        let h = HostId(host);
        if join {
            ctl.join(gid, h, MemberRole::Receiver);
            current.insert(h);
        } else {
            ctl.leave(gid, h, MemberRole::Receiver);
            current.remove(&h);
        }
        let got = deliver(&ctl, gid, sender);
        assert_eq!(
            got,
            current,
            "after {} of {h}",
            if join { "join" } else { "leave" }
        );
    }
}
