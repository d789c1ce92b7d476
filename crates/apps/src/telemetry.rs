//! sFlow-style host telemetry over the Elmo fabric (paper §5.2.2).
//!
//! An sFlow agent on one host exports performance-metric datagrams to N
//! collector VMs set up by different tenants/teams. With unicast the agent
//! host's egress bandwidth grows linearly in N (370.4 Kbps at 64 collectors
//! in the paper); with Elmo it stays at the single-collector cost
//! (≈ 5.8 Kbps). The experiment sends one reporting interval's worth of
//! real datagrams through the simulated fabric and measures the bytes the
//! agent's host actually put on its access link.

use std::net::Ipv4Addr;

use elmo_controller::{Controller, ControllerConfig, GroupId, MemberRole};
use elmo_dataplane::{Fabric, HypervisorSwitch, SenderFlow, SwitchConfig, VmSlot};
use elmo_net::vxlan::Vni;
use elmo_topology::{Clos, HostId};

use crate::pubsub::Transport;

/// sFlow export parameters. The defaults produce ≈ 5.8 Kbps per collector,
/// the paper's single-collector figure: two ~362-byte datagrams per second.
#[derive(Clone, Copy, Debug)]
pub struct TelemetryConfig {
    /// Application payload bytes per datagram (counter samples).
    pub datagram_bytes: usize,
    /// Datagrams exported per second.
    pub datagrams_per_sec: usize,
    /// Length of the measured interval in seconds.
    pub interval_secs: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            datagram_bytes: 362,
            datagrams_per_sec: 2,
            interval_secs: 1,
        }
    }
}

/// Result of one telemetry run.
#[derive(Clone, Copy, Debug)]
pub struct TelemetryResult {
    /// Egress bandwidth at the agent's host, Kbps (measured on the wire,
    /// including encapsulation).
    pub egress_kbps: f64,
    /// Datagrams received across all collectors.
    pub received_total: usize,
    /// Datagrams expected across all collectors.
    pub expected_total: usize,
}

/// Run the telemetry experiment for one collector count.
pub fn run(
    topo: Clos,
    collectors: usize,
    cfg: TelemetryConfig,
    transport: Transport,
) -> TelemetryResult {
    assert!(collectors >= 1 && collectors < topo.num_hosts());
    let _span = elmo_obs::span!("telemetry_run");
    elmo_obs::counter("apps.telemetry.runs").inc();
    let agent = HostId(0);
    let collector_hosts: Vec<HostId> = (1..=collectors as u32).map(HostId).collect();

    let mut ctl = Controller::new(topo, ControllerConfig::paper_default(0));
    let gid = GroupId(2);
    let tenant_addr = Ipv4Addr::new(225, 3, 3, 3);
    let vni = Vni(80);
    ctl.create_group(
        gid,
        vni,
        tenant_addr,
        std::iter::once((agent, MemberRole::Sender))
            .chain(collector_hosts.iter().map(|&h| (h, MemberRole::Receiver))),
    );

    let mut fabric = Fabric::new(topo, SwitchConfig::default());
    let state = ctl.group(gid).expect("group");
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
    let mut agent_hv = HypervisorSwitch::new(agent);
    let header = ctl.header_for(gid, agent).expect("sender header");
    agent_hv.install_flow(
        vni,
        tenant_addr,
        SenderFlow::new(outer, vni, &header, ctl.layout(), collector_hosts.clone()),
    );
    let mut rx: Vec<HypervisorSwitch> = collector_hosts
        .iter()
        .map(|&h| {
            let mut hv = HypervisorSwitch::new(h);
            hv.subscribe(outer, VmSlot(0));
            hv
        })
        .collect();

    let datagram = vec![0x5au8; cfg.datagram_bytes];
    let total_datagrams = cfg.datagrams_per_sec * cfg.interval_secs;
    let mut received_total = 0usize;
    for _ in 0..total_datagrams {
        let packets = match transport {
            Transport::Elmo => agent_hv.send(vni, tenant_addr, &datagram, ctl.layout()),
            Transport::Unicast => {
                agent_hv.send_unicast_to(&collector_hosts, vni, &datagram, ctl.layout())
            }
        };
        let batch = packets.into_iter().map(|p| (agent, p));
        for (host, bytes) in fabric.inject_batch(batch) {
            if let Some(i) = collector_hosts.iter().position(|&h| h == host) {
                received_total += rx[i].receive(&bytes, ctl.layout()).len();
            }
        }
    }
    // Egress = everything the agent's host pushed onto its access link.
    let egress_bits = fabric.stats.host_to_leaf_bytes as f64 * 8.0;
    TelemetryResult {
        egress_kbps: egress_bits / cfg.interval_secs as f64 / 1000.0,
        received_total,
        expected_total: total_datagrams * collectors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Clos {
        Clos::paper_example()
    }

    #[test]
    fn all_collectors_receive_everything() {
        for transport in [Transport::Elmo, Transport::Unicast] {
            let r = run(topo(), 8, TelemetryConfig::default(), transport);
            assert_eq!(r.received_total, r.expected_total, "{transport:?}");
        }
    }

    #[test]
    fn unicast_egress_grows_linearly() {
        let r1 = run(topo(), 1, TelemetryConfig::default(), Transport::Unicast);
        let r16 = run(topo(), 16, TelemetryConfig::default(), Transport::Unicast);
        let ratio = r16.egress_kbps / r1.egress_kbps;
        assert!((15.0..17.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn elmo_egress_is_constant() {
        let r1 = run(topo(), 1, TelemetryConfig::default(), Transport::Elmo);
        let r16 = run(topo(), 16, TelemetryConfig::default(), Transport::Elmo);
        // The Elmo header grows slightly with more member leaves, but egress
        // stays within a few percent of the single-collector cost rather
        // than 16x.
        assert!(
            r16.egress_kbps < r1.egress_kbps * 1.25,
            "{} vs {}",
            r16.egress_kbps,
            r1.egress_kbps
        );
    }

    #[test]
    fn default_config_matches_paper_single_collector_kbps() {
        // Paper: ≈ 5.8 Kbps per collector. Our wire cost includes the
        // VXLAN+Elmo encapsulation, so allow a ±25% band.
        let r = run(topo(), 1, TelemetryConfig::default(), Transport::Elmo);
        assert!((4.5..8.0).contains(&r.egress_kbps), "got {}", r.egress_kbps);
    }

    #[test]
    fn sixty_four_collector_shape() {
        // The paper's headline: 370.4 Kbps unicast vs 5.8 Kbps Elmo at 64
        // collectors — a ~64x gap. Use 32 collectors here (the example
        // fabric has 64 hosts) and check the gap is ~32x.
        let u = run(topo(), 32, TelemetryConfig::default(), Transport::Unicast);
        let e = run(topo(), 32, TelemetryConfig::default(), Transport::Elmo);
        let gap = u.egress_kbps / e.egress_kbps;
        assert!((20.0..40.0).contains(&gap), "gap {gap}");
    }
}
