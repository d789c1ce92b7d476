//! ZeroMQ-style publish-subscribe over the Elmo fabric (paper §5.2.1,
//! Figure 6).
//!
//! One publisher VM fans messages out to N subscriber VMs. In *unicast*
//! mode (what ZeroMQ does on today's clouds) the publisher's hypervisor
//! emits one copy per subscriber; in *Elmo* mode it emits a single packet
//! and the fabric replicates. The experiment drives real packets through
//! the simulated data plane to verify delivery, then reports throughput and
//! publisher CPU from the calibrated [`HostModel`].

use std::net::Ipv4Addr;

use elmo_controller::{Controller, ControllerConfig, GroupId, MemberRole};
use elmo_dataplane::{Fabric, HypervisorSwitch, SenderFlow, SwitchConfig, VmSlot};
use elmo_net::vxlan::Vni;
use elmo_topology::{Clos, HostId};

use crate::hostmodel::HostModel;

/// Transport used by the pub-sub system.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Transport {
    /// Sender-side replication over unicast connections.
    Unicast,
    /// Native multicast via Elmo.
    Elmo,
}

/// Result of one pub-sub run.
#[derive(Clone, Copy, Debug)]
pub struct PubSubResult {
    /// Messages per second each subscriber observes.
    pub rps_per_subscriber: f64,
    /// Publisher VM CPU utilization, percent.
    pub publisher_cpu_pct: f64,
    /// Packets the publisher's host put on the wire per message.
    pub packets_per_message: usize,
    /// Whether every subscriber received the verification message exactly
    /// once through the simulated fabric.
    pub delivery_verified: bool,
}

/// Run the pub-sub experiment for one subscriber count.
pub fn run(
    topo: Clos,
    subscribers: usize,
    msg_bytes: usize,
    transport: Transport,
    model: &HostModel,
) -> PubSubResult {
    assert!(subscribers >= 1);
    assert!(
        subscribers < topo.num_hosts(),
        "need a host per subscriber plus the publisher"
    );
    let _span = elmo_obs::span!("pubsub_run");
    elmo_obs::counter("apps.pubsub.runs").inc();
    let publisher = HostId(0);
    // Subscribers on distinct hosts, spread round-robin across the fabric to
    // exercise all tiers (like the paper's 9-server, 2-leaf testbed).
    let subs: Vec<HostId> = (1..=subscribers as u32).map(HostId).collect();

    // Control plane: one group, publisher sends, subscribers receive.
    let mut ctl = Controller::new(topo, ControllerConfig::paper_default(0));
    let gid = GroupId(1);
    let tenant_addr = Ipv4Addr::new(225, 9, 9, 9);
    let vni = Vni(77);
    let members = std::iter::once((publisher, MemberRole::Sender))
        .chain(subs.iter().map(|&h| (h, MemberRole::Receiver)));
    ctl.create_group(gid, vni, tenant_addr, members);

    // Data plane: install the state and push one verification message.
    let mut fabric = Fabric::new(topo, SwitchConfig::default());
    let state = ctl.group(gid).expect("group exists");
    for (leaf, bm) in &state.enc.d_leaf.s_rules {
        fabric
            .leaf_mut(elmo_topology::LeafId(*leaf))
            .install_srule(state.outer_addr, bm.clone())
            .expect("leaf capacity");
    }
    for (pod, bm) in &state.enc.d_spine.s_rules {
        fabric
            .install_pod_srule(elmo_topology::PodId(*pod), state.outer_addr, bm.clone())
            .expect("spine capacity");
    }
    let outer = state.outer_addr;
    let mut pub_hv = HypervisorSwitch::new(publisher);
    let header = ctl.header_for(gid, publisher).expect("sender header");
    pub_hv.install_flow(
        vni,
        tenant_addr,
        SenderFlow::new(outer, vni, &header, ctl.layout(), subs.clone()),
    );
    let mut rx: Vec<HypervisorSwitch> = subs
        .iter()
        .map(|&h| {
            let mut hv = HypervisorSwitch::new(h);
            hv.subscribe(outer, VmSlot(0));
            hv
        })
        .collect();

    let message = vec![0xabu8; msg_bytes];
    let packets = match transport {
        Transport::Elmo => pub_hv.send(vni, tenant_addr, &message, ctl.layout()),
        Transport::Unicast => pub_hv.send_unicast_to(&subs, vni, &message, ctl.layout()),
    };
    let packets_per_message = packets.len();
    let mut received = vec![0usize; subscribers];
    let batch = packets.into_iter().map(|p| (publisher, p));
    for (host, bytes) in fabric.inject_batch(batch) {
        // Locate the subscriber hypervisor for this host.
        if let Some(i) = subs.iter().position(|&h| h == host) {
            for (_, inner) in rx[i].receive(&bytes, ctl.layout()) {
                assert_eq!(inner, &message[..]);
                received[i] += 1;
            }
        }
    }
    let delivery_verified = received.iter().all(|&r| r == 1);

    let (rps, cpu) = match transport {
        Transport::Unicast => (
            model.unicast_rate_per_receiver(subscribers, msg_bytes),
            model.unicast_cpu_pct(subscribers),
        ),
        Transport::Elmo => (
            model.multicast_rate_per_receiver(msg_bytes),
            model.multicast_cpu_pct(),
        ),
    };
    PubSubResult {
        rps_per_subscriber: rps,
        publisher_cpu_pct: cpu,
        packets_per_message,
        delivery_verified,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Clos {
        Clos::paper_example() // 64 hosts
    }

    #[test]
    fn elmo_sends_one_packet_and_delivers_to_all() {
        let r = run(topo(), 16, 100, Transport::Elmo, &HostModel::default());
        assert_eq!(r.packets_per_message, 1);
        assert!(r.delivery_verified);
    }

    #[test]
    fn unicast_sends_n_packets_and_delivers_to_all() {
        let r = run(topo(), 16, 100, Transport::Unicast, &HostModel::default());
        assert_eq!(r.packets_per_message, 16);
        assert!(r.delivery_verified);
    }

    #[test]
    fn elmo_throughput_is_flat_unicast_decays() {
        let m = HostModel::default();
        let e4 = run(topo(), 4, 100, Transport::Elmo, &m);
        let e32 = run(topo(), 32, 100, Transport::Elmo, &m);
        assert!((e4.rps_per_subscriber - e32.rps_per_subscriber).abs() < 1.0);
        let u4 = run(topo(), 4, 100, Transport::Unicast, &m);
        let u32 = run(topo(), 32, 100, Transport::Unicast, &m);
        assert!(u32.rps_per_subscriber < u4.rps_per_subscriber / 4.0);
        assert!(e32.rps_per_subscriber > 10.0 * u32.rps_per_subscriber);
    }

    #[test]
    fn elmo_cpu_is_flat_unicast_grows() {
        let m = HostModel::default();
        let e = run(topo(), 32, 100, Transport::Elmo, &m);
        let u = run(topo(), 32, 100, Transport::Unicast, &m);
        assert!((e.publisher_cpu_pct - 4.9).abs() < 0.01);
        assert!(u.publisher_cpu_pct > e.publisher_cpu_pct);
    }

    #[test]
    fn single_subscriber_parity() {
        // With one subscriber the two transports perform identically
        // (Figure 6's leftmost points).
        let m = HostModel::default();
        let e = run(topo(), 1, 100, Transport::Elmo, &m);
        let u = run(topo(), 1, 100, Transport::Unicast, &m);
        assert!((e.rps_per_subscriber - u.rps_per_subscriber).abs() < 1.0);
        assert!(e.delivery_verified && u.delivery_verified);
    }
}
