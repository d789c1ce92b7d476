//! Metric names, units, directions and bounds, and how each is computed
//! from a run. `BENCHMARK.json` repeats the definitions; a unit test here
//! keeps the two in step.

use crate::layers::Extras;
use crate::run::{counter, EventClass, OpLog, RunReport};
use crate::stats::{median, percentile_sorted};
use crate::sut::Snapshot;
use crate::trace::{ledger, Name, PhaseLedger};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// A per-layer metric and the end-to-end metric it should move.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
}

use Better::{Higher, Lower};

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// What each one means is in `bench/README.md`; the bounds are at least
/// three times the spread seen across ten seeds, capped at 0.25.
pub const END_TO_END: [EndToEnd; 12] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("groups_per_s", "1/s", Higher, 0.25),
    e2e("group_ready_p50_us", "us", Lower, 0.25),
    e2e("group_ready_p99_us", "us", Lower, 0.25),
    e2e("events_per_s", "1/s", Higher, 0.25),
    e2e("event_ready_p50_us", "us", Lower, 0.25),
    e2e("event_ready_p99_us", "us", Lower, 0.25),
    e2e("pkts_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.05),
    e2e("header_bytes_mean", "B", Lower, 0.05),
    e2e("srules_installed", "count", Lower, 0.25),
    e2e("link_bytes_per_pkt", "B", Lower, 0.15),
];

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

pub const PER_LAYER: [PerLayer; 77] = [
    pl("workloads.generate_ms", "ms", Lower, "setup_s"),
    pl("workloads.churn_gen_ns_per_event", "ns", Lower, "setup_s"),
    pl(
        "topology.tree_build_ns_per_group",
        "ns",
        Lower,
        "groups_per_s; event_ready_p99_us on lifecycle_sparse",
    ),
    pl(
        "core.encode_group_ns_per_group",
        "ns",
        Lower,
        "groups_per_s, event_ready_p99_us",
    ),
    pl(
        "core.min_k_union_ns_per_call",
        "ns",
        Lower,
        "groups_per_s, event_ready_p99_us",
    ),
    pl(
        "core.header_encode_ns_per_header",
        "ns",
        Lower,
        "group_ready_*, event_ready_* through flow build",
    ),
    pl(
        "core.header_decode_ns_per_header",
        "ns",
        Lower,
        "pkts_per_s through parse",
    ),
    pl(
        "core.cache_hit_rate",
        "ratio",
        Higher,
        "setup_s on replay_mtu, mixed_dense",
    ),
    pl("controller.create_busy_s", "s", Lower, "groups_per_s"),
    pl(
        "controller.create_ns_p50",
        "ns",
        Lower,
        "group_ready_p50_us",
    ),
    pl(
        "controller.create_ns_p99",
        "ns",
        Lower,
        "group_ready_p99_us",
    ),
    pl("controller.event_busy_s", "s", Lower, "events_per_s"),
    pl("controller.event_ns_p50", "ns", Lower, "event_ready_p50_us"),
    pl("controller.event_ns_p99", "ns", Lower, "event_ready_p99_us"),
    pl("controller.hit_ns_mean", "ns", Lower, "event_ready_p50_us"),
    pl("controller.full_ns_mean", "ns", Lower, "event_ready_p99_us"),
    pl(
        "controller.delta_hit_rate",
        "ratio",
        Higher,
        "event_ready_p50_us",
    ),
    pl(
        "controller.full_reencodes",
        "count",
        Lower,
        "event_ready_p50_us",
    ),
    pl(
        "controller.structural_escalations",
        "count",
        Lower,
        "event_ready_p50_us",
    ),
    pl(
        "controller.header_for_busy_s",
        "s",
        Lower,
        "groups_per_s, events_per_s",
    ),
    pl(
        "controller.header_for_ns_per_call",
        "ns",
        Lower,
        "group_ready_*, event_ready_*",
    ),
    pl(
        "controller.update_fanout_hv_mean",
        "count",
        Lower,
        "events_per_s (deploy work per event)",
    ),
    pl(
        "controller.update_fanout_switch_mean",
        "count",
        Lower,
        "events_per_s (deploy work per event)",
    ),
    pl("controller.batch_t1_groups_per_s", "1/s", Higher, "setup_s"),
    pl(
        "controller.batch_t2_groups_per_s",
        "1/s",
        Higher,
        "setup_s (0 = not timed, fewer than 2 CPUs)",
    ),
    pl(
        "dataplane.netswitch.srule_install_ns_per_rule",
        "ns",
        Lower,
        "groups_per_s, events_per_s on lifecycle_sparse",
    ),
    pl(
        "dataplane.netswitch.srule_remove_ns_per_rule",
        "ns",
        Lower,
        "events_per_s on lifecycle_sparse",
    ),
    pl(
        "dataplane.netswitch.srule_busy_s",
        "s",
        Lower,
        "groups_per_s, events_per_s, event_ready_*",
    ),
    pl(
        "dataplane.netswitch.srule_ops",
        "count",
        Lower,
        "events_per_s",
    ),
    pl(
        "dataplane.netswitch.plan_rebuilds",
        "count",
        Lower,
        "events_per_s",
    ),
    pl(
        "dataplane.netswitch.prule_hit_share",
        "ratio",
        Higher,
        "pkts_per_s, link_bytes_per_pkt",
    ),
    pl(
        "dataplane.netswitch.srule_hit_share",
        "ratio",
        Lower,
        "pkts_per_s, link_bytes_per_pkt",
    ),
    pl(
        "dataplane.netswitch.default_spray_share",
        "ratio",
        Lower,
        "link_bytes_per_pkt",
    ),
    pl(
        "dataplane.hypervisor.flow_build_ns_per_flow",
        "ns",
        Lower,
        "groups_per_s, events_per_s, event_ready_p99_us",
    ),
    pl(
        "dataplane.hypervisor.flow_build_busy_s",
        "s",
        Lower,
        "groups_per_s, events_per_s",
    ),
    pl(
        "dataplane.hypervisor.flows_built",
        "count",
        Lower,
        "events_per_s, peak_rss_mb",
    ),
    pl(
        "dataplane.hypervisor.flow_install_ns_per_flow",
        "ns",
        Lower,
        "groups_per_s, events_per_s",
    ),
    pl(
        "dataplane.hypervisor.subscribe_ns_per_call",
        "ns",
        Lower,
        "groups_per_s",
    ),
    pl(
        "dataplane.hypervisor.encap_ns_per_pkt",
        "ns",
        Lower,
        "pkts_per_s",
    ),
    pl(
        "dataplane.hypervisor.decap_ns_per_copy",
        "ns",
        Lower,
        "pkts_per_s",
    ),
    pl(
        "dataplane.packet.parse_ns_per_pkt",
        "ns",
        Lower,
        "pkts_per_s on 64 B workloads",
    ),
    pl(
        "dataplane.packet.materialize_ns_per_copy",
        "ns",
        Lower,
        "pkts_per_s on replay_mtu",
    ),
    pl(
        "dataplane.packet.wire_bytes_mean",
        "B",
        Lower,
        "pkts_per_s, link_bytes_per_pkt",
    ),
    pl(
        "dataplane.shard.replay_ns_per_pkt",
        "ns",
        Lower,
        "pkts_per_s",
    ),
    pl(
        "dataplane.shard.replay_ns_per_copy",
        "ns",
        Lower,
        "pkts_per_s",
    ),
    pl(
        "dataplane.shard.copies_per_pkt",
        "count",
        Lower,
        "pkts_per_s",
    ),
    pl(
        "dataplane.shard.link_copies_per_pkt",
        "count",
        Lower,
        "link_bytes_per_pkt",
    ),
    pl(
        "dataplane.shard.s2_pkts_per_s",
        "1/s",
        Higher,
        "none today (0 = not timed, fewer than 2 CPUs)",
    ),
    pl(
        "dataplane.shard.cross_msgs_per_pkt",
        "count",
        Lower,
        "none today",
    ),
    pl("verify.check_state_ms", "ms", Lower, "none (off the clock)"),
    pl("verify.violations", "count", Lower, "must be 0"),
    pl(
        "ledger.create_unattributed_pct",
        "%",
        Lower,
        "must stay <= 10",
    ),
    pl(
        "ledger.churn_unattributed_pct",
        "%",
        Lower,
        "must stay <= 10",
    ),
    pl(
        "ledger.replay_unattributed_pct",
        "%",
        Lower,
        "must stay <= 10",
    ),
    pl(
        "ledger.trace_overhead_pct",
        "%",
        Lower,
        "none (spans recorded x calibrated span cost / traced wall)",
    ),
    pl(
        "ledger.cpus_available",
        "count",
        Higher,
        "none (qualifies the t2/s2 rows)",
    ),
    pl(
        "ledger.create_controller_share_pct",
        "%",
        Lower,
        "groups_per_s",
    ),
    pl(
        "ledger.create_header_for_share_pct",
        "%",
        Lower,
        "groups_per_s",
    ),
    pl(
        "ledger.create_flow_build_share_pct",
        "%",
        Lower,
        "groups_per_s",
    ),
    pl("ledger.create_srule_share_pct", "%", Lower, "groups_per_s"),
    pl(
        "ledger.create_hv_other_share_pct",
        "%",
        Lower,
        "groups_per_s",
    ),
    pl(
        "ledger.churn_controller_share_pct",
        "%",
        Lower,
        "events_per_s",
    ),
    pl(
        "ledger.churn_header_for_share_pct",
        "%",
        Lower,
        "events_per_s",
    ),
    pl(
        "ledger.churn_flow_build_share_pct",
        "%",
        Lower,
        "events_per_s",
    ),
    pl("ledger.churn_srule_share_pct", "%", Lower, "events_per_s"),
    pl(
        "ledger.churn_hv_other_share_pct",
        "%",
        Lower,
        "events_per_s",
    ),
    pl("ledger.replay_encap_share_pct", "%", Lower, "pkts_per_s"),
    pl("ledger.replay_parse_share_pct", "%", Lower, "pkts_per_s"),
    pl("ledger.replay_shard_share_pct", "%", Lower, "pkts_per_s"),
    pl("ledger.replay_deliver_share_pct", "%", Lower, "pkts_per_s"),
    pl("ledger.spans_recorded", "count", Lower, "none"),
    pl(
        "ledger.create_wall_s",
        "s",
        Lower,
        "traced sum of group operation times (denominator of the create shares)",
    ),
    pl(
        "ledger.churn_wall_s",
        "s",
        Lower,
        "traced sum of event operation times",
    ),
    pl(
        "ledger.replay_wall_s",
        "s",
        Lower,
        "traced sum of packet chunk times",
    ),
    pl(
        "ledger.group_ops",
        "count",
        Higher,
        "none (operations behind the create ledger)",
    ),
    pl(
        "ledger.event_ops",
        "count",
        Higher,
        "none (operations behind the churn ledger)",
    ),
    pl(
        "ledger.packet_ops",
        "count",
        Higher,
        "none (packets behind the replay ledger)",
    ),
];

pub type Values = Vec<(&'static str, f64)>;

/// Slices a phase is cut into for its throughput.
const RATE_SLICES: usize = 16;

/// Operations per second of a phase: the median, over `RATE_SLICES`
/// consecutive slices of equal operation count, of slice operations ÷
/// slice time, where each logged entry stands for `ops_per_entry`
/// operations. On a steady phase this equals operations ÷ wall time; a
/// burst of interference from outside the process lands in a few slices
/// and leaves the median alone, where it would drag the plain quotient.
fn rate(log: &OpLog, ops_per_entry: f64) -> f64 {
    let n = log.lat_ns.len();
    let k = RATE_SLICES.min(n).max(1);
    let per_slice: Vec<f64> = (0..k)
        .map(|j| &log.lat_ns[j * n / k..(j + 1) * n / k])
        .map(|s| s.len() as f64 * ops_per_entry / (s.iter().sum::<u64>().max(1) as f64 / 1e9))
        .collect();
    median(&per_slice)
}

fn sorted(v: &[u64]) -> Vec<u64> {
    let mut s = v.to_vec();
    s.sort_unstable();
    s
}

/// Thirds a phase is cut into for its latency percentiles.
pub const LATENCY_SLICES: usize = 3;

/// A latency percentile of a phase in microseconds: the median, over the
/// phase's `LATENCY_SLICES` consecutive thirds, of the third's
/// nearest-rank percentile. The same reasoning as for [`rate`]: host
/// interference that lasts a second or two inflates the tail of one
/// third, and would drag a percentile taken over the whole phase.
fn latency_us(lat_ns: &[u64], q: f64) -> f64 {
    let n = lat_ns.len();
    let k = LATENCY_SLICES.min(n).max(1);
    let per_slice: Vec<f64> = (0..k)
        .map(|j| sorted(&lat_ns[j * n / k..(j + 1) * n / k]))
        .map(|s| percentile_sorted(&s, q) as f64 / 1e3)
        .collect();
    median(&per_slice)
}

/// The twelve end-to-end values of an untraced run.
pub fn end_to_end(r: &RunReport) -> Values {
    let (g, e) = (&r.groups.lat_ns, &r.events.lat_ns);
    let pkts = r.packets.attempted as f64;
    vec![
        ("setup_s", median(&r.setup_s)),
        ("groups_per_s", rate(&r.groups, 1.0)),
        ("group_ready_p50_us", latency_us(g, 0.50)),
        ("group_ready_p99_us", latency_us(g, 0.99)),
        ("events_per_s", rate(&r.events, 1.0)),
        ("event_ready_p50_us", latency_us(e, 0.50)),
        ("event_ready_p99_us", latency_us(e, 0.99)),
        (
            "pkts_per_s",
            rate(&r.packets, pkts / r.packets.lat_ns.len().max(1) as f64),
        ),
        ("peak_rss_mb", r.peak_rss_mb),
        (
            "header_bytes_mean",
            r.header_bytes as f64 / r.header_flows.max(1) as f64,
        ),
        ("srules_installed", r.srules_installed as f64),
        ("link_bytes_per_pkt", r.link_bytes as f64 / pkts),
    ]
}

fn delta(before: &Snapshot, after: &Snapshot, name: &str) -> f64 {
    (counter(after, name) - counter(before, name)) as f64
}

fn per(total_ns: u64, n: u64) -> f64 {
    total_ns as f64 / n.max(1) as f64
}

fn share(l: &PhaseLedger, names: &[Name]) -> f64 {
    let ns: u64 = names.iter().map(|&n| l.busy(n).self_ns).sum();
    100.0 * ns as f64 / l.wall_ns.max(1) as f64
}

/// The three phase ledgers of a traced run.
pub struct Ledgers {
    pub create: PhaseLedger,
    pub churn: PhaseLedger,
    pub replay: PhaseLedger,
}

pub fn ledgers(r: &RunReport) -> Ledgers {
    let spans = r.rec.spans();
    Ledgers {
        create: ledger(spans, Name::OpGroup, &[Name::ControllerCreate]),
        churn: ledger(spans, Name::OpEvent, &[Name::ControllerEvent]),
        replay: ledger(spans, Name::OpChunk, &[]),
    }
}

/// Every per-layer value of a traced run.
pub fn per_layer(r: &RunReport, x: &Extras, l: &Ledgers) -> Values {
    let (lg, le, lc) = (&l.create, &l.churn, &l.replay);
    let both = |n: Name| lg.busy(n).self_ns + le.busy(n).self_ns;
    let calls = |n: Name| lg.busy(n).calls + le.busy(n).calls;
    let secs = |ns: u64| ns as f64 / 1e9;
    let c = &r.counts;
    let pkts = r.packets.attempted;
    let copies = r.copies;
    let events = r.events.attempted.max(1) as f64;

    let create = sorted(&lg.durs[Name::ControllerCreate as usize]);
    let event = sorted(&le.durs[Name::ControllerEvent as usize]);
    let pct = |v: &[u64], q: f64| {
        if v.is_empty() {
            0.0
        } else {
            percentile_sorted(v, q) as f64
        }
    };
    let class_mean = |want: EventClass| {
        let (mut ns, mut n) = (0u64, 0u64);
        let durs = &le.durs[Name::ControllerEvent as usize];
        for (d, k) in durs.iter().zip(&r.event_class) {
            if *k == want {
                ns += d;
                n += 1;
            }
        }
        per(ns, n)
    };

    let churn = r.world.ctl.churn_stats();
    let (ob, oa) = (&r.obs_before, &r.obs_after);
    let p = delta(ob, oa, "dataplane.prule_hits");
    let s = delta(ob, oa, "dataplane.srule_hits");
    let d = delta(ob, oa, "dataplane.default_prule_sprays");
    let matches = (p + s + d).max(1.0);

    let srule_ns = both(Name::NetswitchSruleInstall) + both(Name::NetswitchSruleRemove);
    let deliver_ns = lc.busy(Name::Deliver).self_ns as f64;
    let decap_ns = (deliver_ns - x.materialize_ns_per_copy * copies as f64).max(0.0);
    let traced_wall = (lg.wall_ns + le.wall_ns + lc.wall_ns).max(1) as f64;
    let hv_other = [Name::HypervisorSubscribe, Name::HypervisorFlowInstall];
    let srule = [Name::NetswitchSruleInstall, Name::NetswitchSruleRemove];

    vec![
        ("workloads.generate_ms", r.world.inputs.generate_ms),
        (
            "workloads.churn_gen_ns_per_event",
            per(
                r.world.inputs.churn_gen_ns,
                r.world.inputs.events.len() as u64,
            ),
        ),
        (
            "topology.tree_build_ns_per_group",
            x.tree_build_ns_per_group,
        ),
        (
            "core.encode_group_ns_per_group",
            x.encode_group_ns_per_group,
        ),
        ("core.min_k_union_ns_per_call", x.min_k_union_ns_per_call),
        (
            "core.header_encode_ns_per_header",
            x.header_encode_ns_per_header,
        ),
        (
            "core.header_decode_ns_per_header",
            x.header_decode_ns_per_header,
        ),
        ("core.cache_hit_rate", x.cache_hit_rate),
        (
            "controller.create_busy_s",
            secs(lg.busy(Name::ControllerCreate).self_ns),
        ),
        ("controller.create_ns_p50", pct(&create, 0.50)),
        ("controller.create_ns_p99", pct(&create, 0.99)),
        (
            "controller.event_busy_s",
            secs(le.busy(Name::ControllerEvent).self_ns),
        ),
        ("controller.event_ns_p50", pct(&event, 0.50)),
        ("controller.event_ns_p99", pct(&event, 0.99)),
        ("controller.hit_ns_mean", class_mean(EventClass::Hit)),
        ("controller.full_ns_mean", class_mean(EventClass::Full)),
        (
            "controller.delta_hit_rate",
            churn.delta_hits as f64 / churn.tree_changes().max(1) as f64,
        ),
        ("controller.full_reencodes", churn.full_reencodes as f64),
        (
            "controller.structural_escalations",
            churn.structural_escalations as f64,
        ),
        (
            "controller.header_for_busy_s",
            secs(both(Name::ControllerHeaderFor)),
        ),
        (
            "controller.header_for_ns_per_call",
            per(
                both(Name::ControllerHeaderFor),
                calls(Name::ControllerHeaderFor),
            ),
        ),
        (
            "controller.update_fanout_hv_mean",
            c.event_hv_updates as f64 / events,
        ),
        (
            "controller.update_fanout_switch_mean",
            c.event_switch_updates as f64 / events,
        ),
        ("controller.batch_t1_groups_per_s", x.batch_t1_groups_per_s),
        ("controller.batch_t2_groups_per_s", x.batch_t2_groups_per_s),
        (
            "dataplane.netswitch.srule_install_ns_per_rule",
            per(both(Name::NetswitchSruleInstall), c.srule_installs),
        ),
        (
            "dataplane.netswitch.srule_remove_ns_per_rule",
            per(both(Name::NetswitchSruleRemove), c.srule_removes),
        ),
        ("dataplane.netswitch.srule_busy_s", secs(srule_ns)),
        (
            "dataplane.netswitch.srule_ops",
            (c.srule_installs + c.srule_removes) as f64,
        ),
        (
            "dataplane.netswitch.plan_rebuilds",
            delta(ob, oa, "fabric.replay.plan_rebuilds"),
        ),
        ("dataplane.netswitch.prule_hit_share", p / matches),
        ("dataplane.netswitch.srule_hit_share", s / matches),
        ("dataplane.netswitch.default_spray_share", d / matches),
        (
            "dataplane.hypervisor.flow_build_ns_per_flow",
            per(both(Name::HypervisorFlowBuild), c.flows_built),
        ),
        (
            "dataplane.hypervisor.flow_build_busy_s",
            secs(both(Name::HypervisorFlowBuild)),
        ),
        ("dataplane.hypervisor.flows_built", c.flows_built as f64),
        (
            "dataplane.hypervisor.flow_install_ns_per_flow",
            per(
                both(Name::HypervisorFlowInstall),
                calls(Name::HypervisorFlowInstall),
            ),
        ),
        (
            "dataplane.hypervisor.subscribe_ns_per_call",
            per(
                both(Name::HypervisorSubscribe),
                c.subscribes + c.unsubscribes,
            ),
        ),
        (
            "dataplane.hypervisor.encap_ns_per_pkt",
            per(lc.busy(Name::HypervisorEncap).self_ns, pkts),
        ),
        (
            "dataplane.hypervisor.decap_ns_per_copy",
            decap_ns / copies.max(1) as f64,
        ),
        (
            "dataplane.packet.parse_ns_per_pkt",
            per(lc.busy(Name::PacketParse).self_ns, pkts),
        ),
        (
            "dataplane.packet.materialize_ns_per_copy",
            x.materialize_ns_per_copy,
        ),
        ("dataplane.packet.wire_bytes_mean", per(r.wire_bytes, pkts)),
        (
            "dataplane.shard.replay_ns_per_pkt",
            per(lc.busy(Name::ShardReplay).self_ns, pkts),
        ),
        (
            "dataplane.shard.replay_ns_per_copy",
            per(lc.busy(Name::ShardReplay).self_ns, copies),
        ),
        (
            "dataplane.shard.copies_per_pkt",
            copies as f64 / pkts.max(1) as f64,
        ),
        (
            "dataplane.shard.link_copies_per_pkt",
            r.link_copies as f64 / pkts.max(1) as f64,
        ),
        ("dataplane.shard.s2_pkts_per_s", x.s2_pkts_per_s),
        ("dataplane.shard.cross_msgs_per_pkt", x.cross_msgs_per_pkt),
        (
            "verify.check_state_ms",
            r.verify.total_ms / f64::from(r.verify.runs.max(1)),
        ),
        ("verify.violations", r.verify.violations as f64),
        ("ledger.create_unattributed_pct", lg.unattributed_pct()),
        ("ledger.churn_unattributed_pct", le.unattributed_pct()),
        ("ledger.replay_unattributed_pct", lc.unattributed_pct()),
        (
            "ledger.trace_overhead_pct",
            100.0 * r.rec.spans().len() as f64 * x.span_pair_ns / traced_wall,
        ),
        ("ledger.cpus_available", x.cpus_available as f64),
        (
            "ledger.create_controller_share_pct",
            share(lg, &[Name::ControllerCreate]),
        ),
        (
            "ledger.create_header_for_share_pct",
            share(lg, &[Name::ControllerHeaderFor]),
        ),
        (
            "ledger.create_flow_build_share_pct",
            share(lg, &[Name::HypervisorFlowBuild]),
        ),
        ("ledger.create_srule_share_pct", share(lg, &srule)),
        ("ledger.create_hv_other_share_pct", share(lg, &hv_other)),
        (
            "ledger.churn_controller_share_pct",
            share(le, &[Name::ControllerEvent]),
        ),
        (
            "ledger.churn_header_for_share_pct",
            share(le, &[Name::ControllerHeaderFor]),
        ),
        (
            "ledger.churn_flow_build_share_pct",
            share(le, &[Name::HypervisorFlowBuild]),
        ),
        ("ledger.churn_srule_share_pct", share(le, &srule)),
        ("ledger.churn_hv_other_share_pct", share(le, &hv_other)),
        (
            "ledger.replay_encap_share_pct",
            share(lc, &[Name::HypervisorEncap]),
        ),
        (
            "ledger.replay_parse_share_pct",
            share(lc, &[Name::PacketParse]),
        ),
        (
            "ledger.replay_shard_share_pct",
            share(lc, &[Name::ShardReplay]),
        ),
        (
            "ledger.replay_deliver_share_pct",
            share(lc, &[Name::Deliver]),
        ),
        ("ledger.spans_recorded", r.rec.spans().len() as f64),
        ("ledger.create_wall_s", secs(lg.wall_ns)),
        ("ledger.churn_wall_s", secs(le.wall_ns)),
        ("ledger.replay_wall_s", secs(lc.wall_ns)),
        ("ledger.group_ops", r.groups.attempted as f64),
        ("ledger.event_ops", r.events.attempted as f64),
        ("ledger.packet_ops", pkts as f64),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{REF_SECONDS, WORKLOADS};

    #[test]
    fn rate_is_the_plain_quotient_when_steady_and_shrugs_off_a_burst() {
        // 1,600 operations of 1 ms: 1,000 per second.
        let mut log = OpLog {
            lat_ns: vec![1_000_000; 1600],
            ..OpLog::default()
        };
        assert!((rate(&log, 1.0) - 1000.0).abs() < 1e-6);
        // Entries that stand for 4,096 packets each.
        assert!((rate(&log, 4096.0) - 4_096_000.0).abs() < 1e-3);
        // A burst triples the cost of 300 consecutive operations (three
        // slices): the plain quotient drops by a quarter, the median not.
        for t in &mut log.lat_ns[500..800] {
            *t *= 3;
        }
        assert!((rate(&log, 1.0) - 1000.0).abs() < 1e-6);
        let plain = 1600.0 / (log.lat_ns.iter().sum::<u64>() as f64 / 1e9);
        assert!(plain < 750.0);
        // Latency percentiles: a burst that fills one third of the
        // phase moves neither the median nor the p99.
        let mut lat = vec![1_000_000u64; 1500];
        for t in &mut lat[500..1000] {
            *t *= 3;
        }
        assert_eq!(latency_us(&lat, 0.99), 1000.0);
        assert_eq!(latency_us(&lat, 0.50), 1000.0);
        assert_eq!(latency_us(&[5_000, 1_000, 3_000], 0.5), 3.0);
        // Fewer entries than slices: one entry per slice.
        let few = OpLog {
            lat_ns: vec![2_000_000, 1_000_000, 4_000_000],
            ..OpLog::default()
        };
        assert!((rate(&few, 1.0) - 500.0).abs() < 1e-6);
    }
    use crate::sut::JsonValue;

    /// The tables and the value lists are parallel; a traced and an
    /// untraced run at unit-test scale must fill both, in order, with
    /// finite numbers (the end-to-end ones never zero).
    #[test]
    fn a_run_fills_every_metric_of_both_tables_in_order() {
        let mut spec = crate::spec::find("mixed_dense")
            .expect("known workload")
            .scaled(0.02, 0.05);
        spec.frame_bytes = 64;
        let mut r = crate::run::run(
            &spec,
            3,
            crate::run::Options {
                trace: true,
                fault: None,
                setup_reps: 2,
                warm_up: false,
            },
        );
        assert!(r.correct());
        let e = end_to_end(&r);
        assert_eq!(e.len(), END_TO_END.len());
        for (d, (name, v)) in END_TO_END.iter().zip(&e) {
            assert_eq!(d.name, *name);
            assert!(v.is_finite() && *v > 0.0, "{name} = {v}");
        }
        let x = crate::layers::measure(&mut r);
        let l = ledgers(&r);
        let v = per_layer(&r, &x, &l);
        assert_eq!(v.len(), PER_LAYER.len());
        for (d, (name, v)) in PER_LAYER.iter().zip(&v) {
            assert_eq!(d.name, *name);
            assert!(v.is_finite() && *v >= 0.0, "{name} = {v}");
        }
        // Every operation left a root span and the ledgers add up.
        assert_eq!(l.create.ops as usize, spec.group_ops);
        assert_eq!(l.churn.ops as usize, spec.event_ops);
        assert_eq!(l.replay.ops as usize, spec.rounds);
        for p in [&l.create, &l.churn, &l.replay] {
            let layers: u64 = p.layers.iter().map(|b| b.self_ns).sum();
            assert_eq!(layers + p.unattributed_ns, p.wall_ns);
        }
    }

    fn field<'a>(o: &'a JsonValue, k: &str) -> &'a JsonValue {
        o.as_object()
            .and_then(|m| m.get(k))
            .unwrap_or_else(|| panic!("BENCHMARK.json entry lacks `{k}`"))
    }

    /// `BENCHMARK.json` at the repository root is the contract the driver
    /// reads; the tables above are what the binary emits. They must agree.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = JsonValue::parse(&text).expect("valid JSON");

        let listed = |key: &str| -> Vec<&JsonValue> {
            field(&doc, key).as_array().expect("array").iter().collect()
        };
        let e2e = listed("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, d) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(j, "name").as_str(), Some(d.name));
            assert_eq!(field(j, "unit").as_str(), Some(d.unit), "{}", d.name);
            assert_eq!(
                field(j, "better").as_str(),
                Some(d.better.as_str()),
                "{}",
                d.name
            );
            assert_eq!(field(j, "bound").as_f64(), Some(d.bound), "{}", d.name);
            assert!(d.bound <= 0.25);
        }
        let layers = listed("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, d) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(j, "name").as_str(), Some(d.name));
            assert_eq!(field(j, "unit").as_str(), Some(d.unit), "{}", d.name);
            assert_eq!(
                field(j, "better").as_str(),
                Some(d.better.as_str()),
                "{}",
                d.name
            );
        }
        let workloads = listed("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(field(j, "name").as_str(), Some(w.name));
            assert_eq!(field(j, "why").as_str(), Some(w.why));
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
        }
        assert_eq!(field(&doc, "run_seconds").as_f64(), Some(REF_SECONDS));
        assert_eq!(
            field(&doc, "paths").as_array().map(<[JsonValue]>::len),
            Some(1)
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|d| d.name)
            .chain(PER_LAYER.iter().map(|d| d.name))
            .collect();
        let units = END_TO_END
            .iter()
            .map(|d| d.unit)
            .chain(PER_LAYER.iter().map(|d| d.unit));
        for u in units {
            assert!(
                u.len() <= 16
                    && u.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
