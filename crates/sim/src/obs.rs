//! Sim-side observability glue: the declared-metric contract for exported
//! snapshots, and the `--trace-pcap` capture helper.
//!
//! [`REQUIRED_METRICS`] is the list CI validates: running any encode-path
//! experiment with `--metrics-out` must produce a snapshot containing every
//! name below. [`touch_all`] pre-registers them so a metric that happens to
//! record nothing in a given run still appears (as zero) instead of being
//! silently absent — absence then always means a broken exporter, not a
//! quiet code path.

use std::net::Ipv4Addr;

use elmo_controller::{deploy, Controller, ControllerConfig, Deployment, GroupId, MemberRole};
use elmo_dataplane::{Fabric, PcapWriter, SwitchConfig};
use elmo_topology::{Clos, HostId};

/// Every metric name an exported snapshot must contain, with its paper-§5
/// counterpart documented in the workspace README's "Metrics" table.
pub const REQUIRED_METRICS: &[&str] = &[
    // Controller hot path (§5.1: group creation and Algorithm 1).
    "controller.groups_created",
    "controller.groups_deleted",
    "controller.batch.groups",
    "controller.membership_changes",
    // Membership changes that re-ran Algorithm 1 (§5.1.3a).
    "churn.full_reencode",
    // s-rule admission (§3.2/§5.1.2: group-table occupancy and spill).
    "controller.srules.leaf_allocs",
    "controller.srules.leaf_refused",
    "controller.srules.pod_allocs",
    "controller.srules.pod_refused",
    // Failure handling (§3.3/§5.1.3b).
    "controller.failures.spine",
    "controller.failures.core",
    "controller.failures.groups_rerouted",
    "controller.failures.degraded_to_unicast",
    "controller.failures.hypervisor_updates",
    // Device ops a switch or hypervisor refused (§4: full group table).
    "deploy.refused",
    // Data plane (§4.1: match source per forwarded packet).
    "dataplane.prule_hits",
    "dataplane.srule_hits",
    "dataplane.default_prule_sprays",
    "dataplane.header_pops",
    "dataplane.unicast_forwarded",
    "dataplane.dropped_no_rule",
    "dataplane.dropped_parse",
    "dataplane.dropped_header_vector",
    "dataplane.hv.sent_multicast",
    "dataplane.hv.sent_unicast",
    "dataplane.hv.delivered",
    "dataplane.hv.discarded",
    "dataplane.hv.no_flow",
    // Fabric link accounting (§5.1.2 traffic overhead, measured bytes).
    "fabric.packets_on_links",
    "fabric.host_to_leaf_bytes",
    "fabric.leaf_to_host_bytes",
    "fabric.leaf_to_spine_bytes",
    "fabric.spine_to_leaf_bytes",
    "fabric.spine_to_core_bytes",
    "fabric.core_to_spine_bytes",
    // Zero-copy replay health: how many copies were actually serialized
    // back to wire bytes (only host deliveries and captures should be).
    "fabric.replay.materialized",
    "fabric.replay.shard.batches",
    // Copy-tree tracing and the windowed time-series (§7 monitoring
    // direction; `elmo-eval trace` / `timeline`).
    "trace.events_recorded",
    "trace.trees_built",
    "trace.flight_recorder.dumps",
    "timeline.windows_closed",
    "timeline.windows_evicted",
    // Sweep / workload (§5.1.1-2).
    "sim.sweep.groups_encoded",
    "sim.table2.events",
    "sim.table2.device_updates",
    "workloads.groups_generated",
    // Applications (§5.2).
    "apps.pubsub.runs",
    "apps.telemetry.runs",
];

/// Histogram names the snapshot must also contain.
pub const REQUIRED_HISTOGRAMS: &[&str] = &["sim.sweep.header_bytes", "workloads.group_size"];

/// Pre-register every declared metric so it appears in a snapshot even
/// when its code path did not run.
pub fn touch_all() {
    for name in REQUIRED_METRICS {
        let _ = elmo_obs::counter(name);
    }
    for name in REQUIRED_HISTOGRAMS {
        let _ = elmo_obs::histogram(name);
    }
}

/// Validate a snapshot JSON document against the declared contract.
/// Returns the list of problems (empty = valid).
pub fn check_snapshot(json: &str) -> Vec<String> {
    let snap = match elmo_obs::Snapshot::from_json(json) {
        Ok(s) => s,
        Err(e) => return vec![format!("malformed snapshot JSON: {e}")],
    };
    let mut problems = Vec::new();
    for name in REQUIRED_METRICS {
        if snap.counter(name).is_none() {
            problems.push(format!("missing counter: {name}"));
        }
    }
    for name in REQUIRED_HISTOGRAMS {
        if snap.histogram(name).is_none() {
            problems.push(format!("missing histogram: {name}"));
        }
    }
    problems
}

/// Write the current metrics snapshot to `path` as pretty JSON.
pub fn write_snapshot(path: &str) -> std::io::Result<()> {
    touch_all();
    std::fs::write(path, elmo_obs::snapshot().to_json())
}

/// Encode a few representative groups on the paper-example fabric, drive
/// real packets through a [`Fabric`] with capture on, and write up to
/// `limit` on-the-wire copies to `path` as a classic pcap. This is the
/// `--trace-pcap` debug aid: the captured packets carry real Elmo headers
/// at every stage of popping, inspectable in Wireshark.
pub fn write_trace_pcap(path: &str, limit: usize) -> std::io::Result<usize> {
    let topo = Clos::paper_example();
    let mut ctl = Controller::new(topo, ControllerConfig::paper_default(12));
    let vni = elmo_net::vxlan::Vni(7);
    // Three groups of different shapes: same-leaf, same-pod, cross-pod.
    let shapes: [&[u32]; 3] = [&[0, 1], &[0, 8, 13], &[0, 1, 42, 48, 57]];
    let mut dep = Deployment::new(Fabric::new(topo, SwitchConfig::default()));
    dep.fabric.start_capture(limit);
    for (gi, members) in shapes.iter().enumerate() {
        let gid = GroupId(gi as u64 + 1);
        let tenant_addr = Ipv4Addr::new(225, 9, 9, gi as u8 + 1);
        ctl.create_group(
            gid,
            vni,
            tenant_addr,
            members.iter().map(|&h| (HostId(h), MemberRole::Both)),
        );
        // Fresh hypervisors per group: a group's flow entropy (the outer UDP
        // source port) does not depend on the groups captured before it.
        dep.hypervisors.clear();
        dep.apply(&ctl, &deploy::deploy_group(&ctl, gid))
            .map_err(std::io::Error::other)?;
        let sender = HostId(members[0]);
        let payload = format!("elmo trace group {gi}");
        let pkts =
            dep.hypervisor_mut(sender)
                .send(vni, tenant_addr, payload.as_bytes(), ctl.layout());
        for pkt in pkts {
            for (host, bytes) in dep.fabric.inject(sender, pkt) {
                // Deliveries also land in the capture via the fabric tap;
                // decap each to exercise the receive path.
                let _ = dep.hypervisor_mut(host).receive(&bytes, ctl.layout());
            }
        }
    }
    let captured = dep.fabric.take_capture();
    let file = std::fs::File::create(path)?;
    let mut writer = PcapWriter::new(std::io::BufWriter::new(file))?;
    for pkt in &captured {
        writer.write_packet(pkt)?;
    }
    writer.finish()?;
    Ok(captured.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn touched_snapshot_passes_its_own_check() {
        touch_all();
        let json = elmo_obs::snapshot().to_json();
        let problems = check_snapshot(&json);
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn check_rejects_malformed_and_empty() {
        assert!(!check_snapshot("{not json").is_empty());
        assert!(
            !check_snapshot(r#"{"elmo_obs":1,"counters":{},"gauges":{},"histograms":{}}"#)
                .is_empty()
        );
    }

    #[test]
    fn trace_pcap_writes_a_valid_file() {
        let path = std::env::temp_dir().join("elmo_obs_trace_test.pcap");
        let path = path.to_str().unwrap();
        let n = write_trace_pcap(path, 64).expect("trace written");
        assert!(n > 0, "captured packets");
        let bytes = std::fs::read(path).expect("file exists");
        // Classic pcap magic, little-endian.
        assert_eq!(&bytes[..4], &[0xd4, 0xc3, 0xb2, 0xa1]);
        let _ = std::fs::remove_file(path);
    }
}
