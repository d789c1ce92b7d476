//! The `elmo-eval timeline` experiment: a windowed failure replay that
//! exercises the [`elmo_obs::Timeline`] ring and the flight recorder end
//! to end.
//!
//! One cross-pod group replays a fixed per-window packet budget through
//! the engine for `windows` logical ticks. A third of the way in,
//! the spine the traced copy tree actually uses is failed; two thirds in
//! it is restored. Every window closes a [`elmo_obs::TimelineWindow`]
//! carrying the delivery/drop counter deltas plus absolute gauges
//! (per-window deliveries, expected deliveries, leaf group-table
//! occupancy), so the emitted `timeline.jsonl` shows the loss window as a
//! step the reader can diff against the surrounding healthy windows.
//! The first shortfall window also dumps the flight recorder, whose ring
//! is sized for two windows — the failing one and the healthy one just
//! before it, the "what did the copies do before the anomaly" postmortem.
//!
//! Windows are logical ticks, never wall clocks: the run is bit-identical
//! for a given (windows, tick) pair.

use std::net::Ipv4Addr;
use std::sync::Arc;

use elmo_controller::{Controller, ControllerConfig, GroupId, MemberRole};
use elmo_dataplane::{
    dense_switch_ref, DeliveryBatch, Fabric, HypervisorSwitch, SenderFlow, SwitchConfig,
};
use elmo_obs::Timeline;
use elmo_topology::{Clos, HostId, LeafId, PodId, SwitchRef};

/// The failure scenario's member set: sender 0 plus receivers spread over
/// three pods so the copy tree crosses the core layer.
pub const MEMBERS: [u32; 6] = [0, 1, 42, 48, 49, 57];

/// One closed window, pre-digested for the printed table.
#[derive(Clone, Debug)]
pub struct WindowRow {
    /// Logical window index.
    pub window: u64,
    /// Copies delivered in this window.
    pub delivered: u64,
    /// Copies a healthy window delivers.
    pub expected: u64,
    /// Whether the failed spine was down during this window.
    pub failed: bool,
}

/// Everything one timeline run produced.
#[derive(Debug)]
pub struct TimelineRun {
    /// The closed windows, oldest first.
    pub rows: Vec<WindowRow>,
    /// The timeline ring itself (for `write_jsonl`).
    pub timeline: Timeline,
    /// Dense id of the spine the scenario failed.
    pub failed_spine: u32,
    /// Windows that delivered fewer copies than expected.
    pub loss_windows: usize,
    /// Flight-recorder events held at dump time.
    pub recorder_events: usize,
}

impl TimelineRun {
    /// The timeline as JSONL, one window per line.
    pub fn to_jsonl(&self) -> String {
        self.timeline.to_jsonl()
    }
}

/// Run the windowed failure replay: `windows` logical ticks of `tick`
/// packets each. Fails the copy tree's first spine hop during the middle
/// third of the run.
pub fn run(windows: usize, tick: usize) -> Result<TimelineRun, String> {
    if windows < 3 {
        return Err("need at least 3 windows (healthy / failed / restored)".into());
    }
    if tick == 0 {
        return Err("tick must deliver at least one packet per window".into());
    }
    let topo = Clos::paper_example();
    let mut ctl = Controller::new(topo, ControllerConfig::paper_default(12));
    let vni = elmo_net::vxlan::Vni(7);
    let mut fabric = Fabric::new(topo, SwitchConfig::default());
    let gid = GroupId(1);
    ctl.create_group(
        gid,
        vni,
        Ipv4Addr::new(225, 11, 0, 1),
        MEMBERS.iter().map(|&h| (HostId(h), MemberRole::Both)),
    );
    let state = ctl.group(gid).expect("created group");
    for (leaf, bm) in &state.enc.d_leaf.s_rules {
        fabric
            .leaf_mut(LeafId(*leaf))
            .install_srule(state.outer_addr, bm.clone())
            .map_err(|e| format!("leaf s-rule install: {e}"))?;
    }
    for (pod, bm) in &state.enc.d_spine.s_rules {
        fabric
            .install_pod_srule(PodId(*pod), state.outer_addr, bm.clone())
            .map_err(|e| format!("spine s-rule install: {e}"))?;
    }

    let sender = HostId(MEMBERS[0]);
    let header = ctl
        .header_for(gid, sender)
        .ok_or_else(|| format!("no header for sender {}", sender.0))?;
    let mut hv = HypervisorSwitch::new(sender);
    hv.install_flow(
        vni,
        state.tenant_addr,
        SenderFlow::new(state.outer_addr, vni, &header, ctl.layout(), vec![]),
    );
    let payload: Arc<[u8]> = b"elmo timeline".to_vec().into();
    let mut pkts = hv.send_flight(vni, state.tenant_addr, &payload);
    if pkts.len() != 1 {
        return Err(format!(
            "sender flow produced {} packets, expected 1",
            pkts.len()
        ));
    }
    let pkt = pkts.remove(0);

    // Discover which spine the copy tree actually transits by tracing a
    // single packet — the failure then provably hits this group's path
    // instead of a spine the encoding happened to avoid.
    let mut batch = DeliveryBatch::new();
    fabric.start_tree_trace();
    fabric.replay(&[(sender, pkt.clone())], &mut batch);
    let events = fabric.take_tree_trace();
    let spine = events
        .iter()
        .find_map(
            |e| match dense_switch_ref(&topo, e.child & !elmo_obs::HOST_NODE_BIT) {
                SwitchRef::Spine(s) if e.child & elmo_obs::HOST_NODE_BIT == 0 => Some(s),
                _ => None,
            },
        )
        .ok_or("copy tree never transits a spine — scenario needs a cross-leaf group")?;

    let flights: Vec<(HostId, elmo_dataplane::FlightPacket)> =
        (0..tick).map(|_| (sender, pkt.clone())).collect();
    let srule_occupancy: u64 = (0..topo.num_leaves())
        .map(|l| fabric.leaf(LeafId(l as u32)).srule_count() as u64)
        .sum();

    let fail_at = windows / 3;
    let restore_at = (2 * windows) / 3;
    let deliveries_gauge = elmo_obs::gauge("timeline.window.deliveries");
    let expected_gauge = elmo_obs::gauge("timeline.window.expected");
    let occupancy_gauge = elmo_obs::gauge("timeline.window.leaf_srules");

    // Room for two whole windows of copy-tree edges.
    fabric.arm_flight_recorder(2 * tick * events.len());
    let mut tl = Timeline::start(windows);
    let mut rows = Vec::with_capacity(windows);
    let mut expected = 0u64;
    let mut loss_windows = 0usize;
    let mut recorder_events = 0usize;
    let mut dumped = false;
    for w in 0..windows {
        if w == fail_at {
            fabric.fail_spine(spine);
        }
        if w == restore_at {
            fabric.restore(SwitchRef::Spine(spine));
        }
        fabric.replay(&flights, &mut batch);
        let delivered = batch.len() as u64;
        if w == 0 {
            expected = delivered;
        }
        let failed = w >= fail_at && w < restore_at;
        if delivered < expected {
            loss_windows += 1;
            if !dumped {
                // First anomaly: what the copies did in this window and
                // the healthy one before it.
                recorder_events = fabric.dump_flight_recorder("delivery shortfall");
                dumped = true;
            }
        }
        deliveries_gauge.set(delivered);
        expected_gauge.set(expected);
        occupancy_gauge.set(srule_occupancy);
        tl.close_window();
        rows.push(WindowRow {
            window: w as u64,
            delivered,
            expected,
            failed,
        });
    }
    Ok(TimelineRun {
        rows,
        timeline: tl,
        failed_spine: spine.0,
        loss_windows,
        recorder_events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_run_shows_a_loss_window() {
        let run = run(12, 8).expect("timeline runs");
        assert_eq!(run.rows.len(), 12);
        assert_eq!(run.timeline.closed(), 12);
        // The middle third delivers strictly less than the healthy
        // baseline; the recovered tail returns to it.
        assert_eq!(run.loss_windows, 12 / 3);
        for row in &run.rows {
            if row.failed {
                assert!(row.delivered < row.expected, "{row:?}");
            } else {
                assert_eq!(row.delivered, row.expected, "{row:?}");
            }
        }
        // ≥ 10 JSONL lines for the CI artifact contract.
        assert!(run.to_jsonl().lines().count() >= 10);
    }

    #[test]
    fn windows_carry_gauges_and_are_deterministic() {
        let a = run(9, 4).expect("runs");
        let b = run(9, 4).expect("runs");
        for (wa, wb) in a.timeline.windows().iter().zip(b.timeline.windows()) {
            assert_eq!(
                wa.gauge("timeline.window.deliveries"),
                wb.gauge("timeline.window.deliveries")
            );
        }
        assert_eq!(
            a.rows.iter().map(|r| r.delivered).collect::<Vec<_>>(),
            b.rows.iter().map(|r| r.delivered).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn rejects_degenerate_configs() {
        assert!(run(2, 8).is_err());
        assert!(run(12, 0).is_err());
    }
}
