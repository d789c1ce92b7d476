//! Multicast monitoring (paper §7): INT-style per-hop traces for a
//! multicast transmission, plus a pcap capture of every delivered copy
//! that Wireshark opens directly.
//!
//! Run with: `cargo run --example monitor [out.pcap]`

use std::net::Ipv4Addr;

use elmo::controller::{deploy, Controller, ControllerConfig, Deployment, GroupId, MemberRole};
use elmo::dataplane::{Fabric, PcapWriter, SwitchConfig};
use elmo::net::vxlan::Vni;
use elmo::topology::{Clos, HostId, SwitchRef};

fn main() {
    let pcap_path = std::env::args().nth(1);
    let topo = Clos::paper_example();
    let mut ctl = Controller::new(topo, ControllerConfig::paper_default(2));
    let gid = GroupId(1);
    let group = Ipv4Addr::new(225, 10, 20, 30);
    ctl.create_group(
        gid,
        Vni(55),
        group,
        [
            (HostId(0), MemberRole::Both),
            (HostId(1), MemberRole::Receiver),
            (HostId(42), MemberRole::Receiver),
            (HostId(48), MemberRole::Receiver),
            (HostId(57), MemberRole::Receiver),
        ],
    );
    let mut dep = Deployment::new(Fabric::new(topo, SwitchConfig::default()));
    dep.apply(&ctl, &deploy::deploy_group(&ctl, gid))
        .expect("one group fits the default group tables");
    let pkt = dep
        .hypervisor_mut(HostId(0))
        .send(Vni(55), group, b"trace this multicast", ctl.layout())
        .remove(0);
    let injected = pkt.clone();

    let (deliveries, trace) = dep.fabric.inject_traced(HostId(0), pkt);

    println!("multicast traceroute for group {group} from H0:\n");
    for hop in &trace {
        let role = match hop.switch {
            SwitchRef::Leaf(_) => "leaf ",
            SwitchRef::Spine(_) => "spine",
            SwitchRef::Core(_) => "core ",
        };
        println!(
            "  {role} {:<4} in:port {:<2} {:>3} B  -> ports {:?}",
            hop.switch.to_string(),
            hop.ingress_port,
            hop.bytes_in,
            hop.egress_ports
        );
    }
    println!("\ndelivered to {} hosts:", deliveries.len());
    for (h, bytes) in &deliveries {
        println!(
            "  {h}: {} B on the wire (Elmo header stripped by the leaf)",
            bytes.len()
        );
    }

    if let Some(path) = pcap_path {
        let file = std::fs::File::create(&path).expect("create pcap");
        let mut w = PcapWriter::new(file).expect("pcap header");
        w.write_packet(&injected).expect("write");
        for (_, bytes) in &deliveries {
            w.write_packet(bytes).expect("write");
        }
        let n = w.packet_count();
        w.finish().expect("flush");
        println!("\nwrote {n} packets to {path} (open it in Wireshark)");
    } else {
        println!("\npass a filename to also write a pcap capture");
    }
}
