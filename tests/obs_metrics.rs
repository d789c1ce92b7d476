//! End-to-end checks of the elmo-obs wiring: the global metric counters
//! must mirror the fabric's own per-instance accounting exactly, and a
//! snapshot written to disk must round-trip through the JSON layer and
//! satisfy the declared-metric contract CI enforces.

use std::net::Ipv4Addr;
use std::sync::Mutex;

use elmo::controller::{deploy, Controller, ControllerConfig, Deployment, GroupId, MemberRole};
use elmo::dataplane::{Fabric, SwitchConfig};
use elmo::net::vxlan::Vni;
use elmo::topology::{Clos, HostId};

/// The obs registry is process-global; serialize the tests in this binary.
static REGISTRY: Mutex<()> = Mutex::new(());

#[test]
fn fabric_globals_mirror_local_stats_exactly() {
    let _guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    elmo::obs::reset();

    // One cross-pod group on the paper-example fabric, driven end to end.
    let topo = Clos::paper_example();
    let mut ctl = Controller::new(topo, ControllerConfig::paper_default(12));
    let gid = GroupId(1);
    let vni = Vni(7);
    let tenant_addr = Ipv4Addr::new(225, 1, 2, 3);
    let members = [0u32, 1, 42, 48, 57];
    ctl.create_group(
        gid,
        vni,
        tenant_addr,
        members.iter().map(|&h| (HostId(h), MemberRole::Both)),
    );
    let mut dep = Deployment::new(Fabric::new(topo, SwitchConfig::default()));
    dep.apply(&ctl, &deploy::deploy_group(&ctl, gid))
        .expect("switch capacity");
    let sender = HostId(members[0]);
    let receiver = HostId(members[1]);
    let mut delivered = 0usize;
    let pkts = dep
        .hypervisor_mut(sender)
        .send(vni, tenant_addr, b"obs cross-check", ctl.layout());
    for pkt in pkts {
        for (host, bytes) in dep.fabric.inject(sender, pkt) {
            if host == receiver {
                delivered += dep.hypervisor_mut(host).receive(&bytes, ctl.layout()).len();
            }
        }
    }
    assert_eq!(delivered, 1, "scenario must actually deliver");

    // The global counters must agree with the fabric's own stats struct —
    // they are incremented at the same sites, so any drift means a missed
    // or doubled recording call.
    let snap = elmo::obs::snapshot();
    let s = &dep.fabric.stats;
    for (name, local) in [
        ("fabric.host_to_leaf_bytes", s.host_to_leaf_bytes),
        ("fabric.leaf_to_host_bytes", s.leaf_to_host_bytes),
        ("fabric.leaf_to_spine_bytes", s.leaf_to_spine_bytes),
        ("fabric.spine_to_leaf_bytes", s.spine_to_leaf_bytes),
        ("fabric.spine_to_core_bytes", s.spine_to_core_bytes),
        ("fabric.core_to_spine_bytes", s.core_to_spine_bytes),
        ("fabric.packets_on_links", s.packets_on_links),
    ] {
        assert_eq!(snap.counter(name), Some(local), "{name}");
    }
    // A cross-pod group exercises p-rules (or s-rules) and header popping.
    let prule = snap.counter("dataplane.prule_hits").unwrap_or(0);
    let srule = snap.counter("dataplane.srule_hits").unwrap_or(0);
    assert!(prule + srule > 0, "no switch match source recorded");
    assert!(snap.counter("dataplane.header_pops").unwrap_or(0) > 0);
    assert!(snap.counter("controller.groups_created").unwrap_or(0) >= 1);
}

#[test]
fn written_snapshot_round_trips_and_passes_contract() {
    let _guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let path = std::env::temp_dir().join("elmo_obs_ws_snapshot.json");
    let path = path.to_str().unwrap().to_string();
    elmo::sim::obs::write_snapshot(&path).expect("snapshot written");
    let json = std::fs::read_to_string(&path).expect("readable");
    assert!(
        elmo::sim::obs::check_snapshot(&json).is_empty(),
        "written snapshot violates the declared-metric contract"
    );
    let snap = elmo::obs::Snapshot::from_json(&json).expect("parses");
    assert_eq!(
        snap.to_json(),
        json,
        "snapshot JSON must round-trip bytewise"
    );
    let _ = std::fs::remove_file(&path);
}
