//! Tenant-facing IGMP edge, end to end: unmodified VMs signal membership
//! with standard IGMPv2; the hypervisor intercepts it at the virtual edge
//! and drives the controller API; no IGMP ever touches the fabric, and
//! data delivery follows the membership.

use std::net::Ipv4Addr;

use elmo::controller::{deploy, Controller, ControllerConfig, Deployment, MemberRole};
use elmo::dataplane::{Fabric, HypervisorSwitch, SwitchConfig, VmSlot};
use elmo::net::ethernet::{EtherType, Frame, FrameRepr, MacAddr};
use elmo::net::igmp::{IgmpPacket, IgmpRepr, MESSAGE_LEN};
use elmo::net::ipv4::{Ipv4Packet, Ipv4Repr, Protocol};
use elmo::net::vxlan::Vni;
use elmo::topology::{Clos, HostId};

fn igmp_frame(repr: IgmpRepr) -> Vec<u8> {
    let mut buf = vec![0u8; 14 + 20 + MESSAGE_LEN];
    let mut eth = Frame::new_unchecked(&mut buf[..]);
    FrameRepr {
        dst: MacAddr::from_ipv4_multicast(repr.group),
        src: MacAddr::for_host(1),
        ethertype: EtherType::Ipv4,
    }
    .emit(&mut eth);
    let mut ip = Ipv4Packet::new_unchecked(&mut buf[14..]);
    Ipv4Repr {
        src: Ipv4Addr::new(192, 168, 1, 1),
        dst: repr.group,
        protocol: Protocol::Igmp,
        ttl: 1,
        payload_len: MESSAGE_LEN,
    }
    .emit(&mut ip);
    let mut igmp = IgmpPacket::new_unchecked(&mut buf[34..]);
    repr.emit(&mut igmp);
    buf
}

#[test]
fn igmp_joins_create_and_populate_groups() {
    let topo = Clos::paper_example();
    let mut ctl = Controller::new(topo, ControllerConfig::paper_default(0));
    let vni = Vni(31);
    let group = Ipv4Addr::new(225, 31, 0, 1);

    // Three VMs on different hosts join by sending plain IGMP reports.
    let receivers = [HostId(9), HostId(42), HostId(57)];
    for &h in &receivers {
        let mut hv = HypervisorSwitch::new(h);
        let signal = hv
            .intercept_igmp(VmSlot(0), &igmp_frame(IgmpRepr::join(group)))
            .expect("join intercepted");
        let (gid, _) = ctl.handle_membership_signal(vni, &signal, MemberRole::Receiver);
        assert!(gid.is_some());
    }
    let gid = ctl.group_id_for(vni, group).expect("group auto-created");
    assert_eq!(ctl.group(gid).expect("state").tree.size(), 3);

    // A sender joins (send-only role) and transmits.
    let sender = HostId(0);
    let signal = HypervisorSwitch::new(sender)
        .intercept_igmp(VmSlot(1), &igmp_frame(IgmpRepr::join(group)))
        .expect("sender join");
    ctl.handle_membership_signal(vni, &signal, MemberRole::Sender);

    let mut dep = Deployment::new(Fabric::new(topo, SwitchConfig::default()));
    dep.apply(&ctl, &deploy::deploy_group(&ctl, gid))
        .expect("switch capacity");
    let pkt = dep
        .hypervisor_mut(sender)
        .send(vni, group, b"igmp-made group", ctl.layout())
        .remove(0);
    let mut got: Vec<HostId> = dep
        .fabric
        .inject(sender, pkt)
        .into_iter()
        .map(|(h, _)| h)
        .collect();
    got.sort_unstable();
    assert_eq!(got, receivers);

    // Leaves shrink the group; the last leave deletes it.
    for &h in &receivers {
        let mut hv = HypervisorSwitch::new(h);
        let signal = hv
            .intercept_igmp(VmSlot(0), &igmp_frame(IgmpRepr::leave(group)))
            .expect("leave intercepted");
        ctl.handle_membership_signal(vni, &signal, MemberRole::Receiver);
    }
    let mut hv = HypervisorSwitch::new(sender);
    let signal = hv
        .intercept_igmp(VmSlot(1), &igmp_frame(IgmpRepr::leave(group)))
        .expect("sender leave");
    ctl.handle_membership_signal(vni, &signal, MemberRole::Sender);
    assert!(
        ctl.group_id_for(vni, group).is_none(),
        "empty group torn down"
    );
}

#[test]
fn igmp_is_isolated_per_vni() {
    let topo = Clos::paper_example();
    let mut ctl = Controller::new(topo, ControllerConfig::paper_default(0));
    let group = Ipv4Addr::new(225, 5, 5, 5);
    // The same tenant-side address joined under two different VNIs must
    // produce two independent groups.
    for (vni, host) in [(Vni(1), HostId(3)), (Vni(2), HostId(4))] {
        let mut hv = HypervisorSwitch::new(host);
        let signal = hv
            .intercept_igmp(VmSlot(0), &igmp_frame(IgmpRepr::join(group)))
            .expect("join");
        ctl.handle_membership_signal(vni, &signal, MemberRole::Both);
    }
    let a = ctl.group_id_for(Vni(1), group).expect("vni 1 group");
    let b = ctl.group_id_for(Vni(2), group).expect("vni 2 group");
    assert_ne!(a, b);
    assert_ne!(
        ctl.group(a).expect("a").outer_addr,
        ctl.group(b).expect("b").outer_addr
    );
}

#[test]
fn leave_for_unknown_group_is_noop() {
    let topo = Clos::paper_example();
    let mut ctl = Controller::new(topo, ControllerConfig::paper_default(0));
    let mut hv = HypervisorSwitch::new(HostId(1));
    let signal = hv
        .intercept_igmp(
            VmSlot(0),
            &igmp_frame(IgmpRepr::leave(Ipv4Addr::new(225, 0, 0, 99))),
        )
        .expect("leave intercepted");
    let (gid, updates) = ctl.handle_membership_signal(Vni(1), &signal, MemberRole::Receiver);
    assert!(gid.is_none());
    assert!(updates.hypervisors.is_empty());
    assert_eq!(ctl.group_count(), 0);
}
