//! One run of one workload: set-up, the timed operations, the checks.
//!
//! Load model: closed loop, one caller, no think time, one thread. The
//! controller and the fabric are synchronous libraries with no queue, so
//! a latency here is service time. A phase's wall time is the sum of its
//! operations' times: what the harness does between operations (checking
//! a chunk's deliveries, picking the next flows) is not the system's.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::time::Instant;

use crate::agent::{Agent, DeployCounts, Fault};
use crate::input::{self, Event, Inputs, SplitMix};
use crate::spec::{self, Spec, CHUNK, FLOWS, SAMPLE_EVERY};
use crate::sut::{
    check_state_with, snapshot, Clos, Controller, ControllerConfig, DeliveryBatch, FlightPacket,
    GroupId, GroupState, HostId, Snapshot, VerifyOptions, Vni,
};
use crate::trace::{Name, Recorder};

/// What to do besides the plain run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Options {
    pub trace: bool,
    /// Planted in the agent after set-up (tests only).
    pub fault: Option<Fault>,
    /// Set-up repetitions; `setup_s` is their median.
    pub setup_reps: usize,
    /// Run a tenth of the workload once, unmeasured, before anything is
    /// timed.
    pub warm_up: bool,
}

/// Everything set-up builds.
pub struct World {
    pub inputs: Inputs,
    pub ctl: Controller,
    pub agent: Agent,
}

pub fn controller_config(spec: &Spec, topo: &Clos) -> ControllerConfig {
    ControllerConfig {
        header_budget_bytes: spec::header_budget(topo),
        ..ControllerConfig::paper_default(spec.r)
    }
}

/// An obs counter's value in a snapshot (0 when never registered).
pub fn counter(s: &Snapshot, name: &str) -> u64 {
    s.counter(name).unwrap_or(0)
}

/// Topology, seeded inputs, controller, fabric, and the state the
/// workload wants in place before its first timed operation.
pub fn set_up(spec: &Spec, seed: u64) -> World {
    let topo = spec::fabric();
    let total = spec.setup_groups + spec.group_ops;
    let cfg = input::bench_config(&topo, spec.p, total, seed);
    // Sequential workloads churn every group, prebuilt or created;
    // interleaved rounds churn the prebuilt state only, because the
    // groups of later rounds do not exist yet.
    let churn_over = if spec.rounds > 0 {
        0..spec.setup_groups
    } else {
        0..total
    };
    let inputs = Inputs::generate_over(topo, cfg, spec.event_ops, churn_over);
    let mut ctl = Controller::new(topo, controller_config(spec, &topo));
    let mut agent = Agent::new(&ctl);
    if spec.setup_groups > 0 {
        ctl.create_groups_batch(&inputs.specs[..spec.setup_groups], 1);
        let mut rec = Recorder::off();
        for (gid, ..) in &inputs.specs[..spec.setup_groups] {
            agent.deploy_group(&ctl, *gid, &mut rec);
        }
    }
    World { inputs, ctl, agent }
}

/// One sending (group, host) pair and how many hosts must accept a copy.
#[derive(Clone, Copy, Debug)]
pub struct Flow {
    pub gid: GroupId,
    pub sender: HostId,
    pub vni: Vni,
    pub tenant_addr: Ipv4Addr,
    pub expect: u32,
}

/// `|receiver_hosts ∖ {sender}|`.
fn expected_receivers(state: &GroupState, sender: HostId) -> u32 {
    state.receiver_hosts().filter(|&h| h != sender).count() as u32
}

fn flow_of(state: &GroupState, sender: HostId) -> Flow {
    Flow {
        gid: state.id,
        sender,
        vni: state.vni,
        tenant_addr: state.tenant_addr,
        expect: expected_receivers(state, sender),
    }
}

/// A seeded current sender of the group that has someone to send to.
fn pick_sender(state: &GroupState, rng: &mut SplitMix) -> Option<Flow> {
    let n = state.sender_hosts().count();
    if n == 0 {
        return None;
    }
    let start = rng.below(n);
    (0..n)
        .map(|k| state.sender_hosts().nth((start + k) % n).expect("k < n"))
        .map(|h| flow_of(state, h))
        .find(|f| f.expect > 0)
}

/// `n` seeded flows over the groups with id below `groups`.
fn pick_flows(ctl: &Controller, groups: usize, n: usize, rng: &mut SplitMix) -> Vec<Flow> {
    let mut flows = Vec::with_capacity(n);
    let mut tries = 0usize;
    while flows.len() < n {
        tries += 1;
        assert!(
            tries < 64 * n + 1024,
            "no group has a sender with a receiver"
        );
        let gid = GroupId(rng.below(groups) as u64);
        if let Some(f) = ctl.group(gid).and_then(|s| pick_sender(s, rng)) {
            flows.push(f);
        }
    }
    flows
}

/// Per-operation times and the attempted/failed count of one kind of op.
#[derive(Clone, Debug, Default)]
pub struct OpLog {
    pub lat_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
}

impl OpLog {
    fn with_capacity(n: usize) -> Self {
        OpLog {
            lat_ns: Vec::with_capacity(n),
            ..OpLog::default()
        }
    }
}

/// How the controller served one event (traced run only).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventClass {
    Hit,
    Full,
    Other,
}

/// The packet pipeline with its recycled buffers and running totals.
struct Replayer {
    frame: Vec<u8>,
    wires: Vec<(HostId, Vec<u8>)>,
    flights: Vec<(HostId, FlightPacket)>,
    out: DeliveryBatch,
    accepted: Vec<u32>,
    sampled: Vec<(u32, HostId)>,
    /// One entry per chunk; `attempted`/`failed` count packets.
    log: OpLog,
    copies: u64,
    wire_bytes: u64,
    sampled_checked: u64,
}

impl Replayer {
    fn new(frame: Vec<u8>, chunks: usize) -> Self {
        Replayer {
            frame,
            wires: Vec::with_capacity(CHUNK),
            flights: Vec::with_capacity(CHUNK),
            out: DeliveryBatch::new(),
            accepted: Vec::with_capacity(CHUNK),
            sampled: Vec::new(),
            log: OpLog::with_capacity(chunks),
            copies: 0,
            wire_bytes: 0,
            sampled_checked: 0,
        }
    }

    /// One packet operation chunk: encap, parse, replay, materialise and
    /// decap `lineup.len()` packets, then (off the clock) check them.
    fn chunk(&mut self, w: &mut World, lineup: &[Flow], rec: &mut Recorder) {
        let layout = *w.ctl.layout();
        self.accepted.clear();
        self.accepted.resize(lineup.len(), 0);
        self.sampled.clear();

        let t0 = Instant::now();
        rec.enter(Name::OpChunk);

        rec.enter(Name::HypervisorEncap);
        for (i, f) in lineup.iter().enumerate() {
            self.frame[..4].copy_from_slice(&(i as u32).to_le_bytes());
            let hv = &mut w.agent.hvs[f.sender.0 as usize];
            let mut sent = hv.send(f.vni, f.tenant_addr, &self.frame, &layout);
            // Anything but one Elmo packet (no flow, unicast fallback)
            // leaves the packet unaccepted, which the check counts.
            if sent.len() == 1 {
                let wire = sent.pop().expect("one packet");
                self.wire_bytes += wire.len() as u64;
                self.wires.push((f.sender, wire));
            }
        }
        rec.exit();

        rec.enter(Name::PacketParse);
        for (from, wire) in self.wires.drain(..) {
            if let Ok(pkt) = FlightPacket::parse(&wire, &layout) {
                self.flights.push((from, pkt));
            }
        }
        rec.exit();

        rec.enter(Name::ShardReplay);
        w.agent
            .fabric
            .replay_flights_sharded(&self.flights, 1, &mut self.out);
        rec.exit();

        rec.enter(Name::Deliver);
        let (hvs, accepted, sampled) = (&mut w.agent.hvs, &mut self.accepted, &mut self.sampled);
        self.out.for_each(|host, bytes| {
            for (_vm, inner) in hvs[host.0 as usize].receive(bytes, &layout) {
                let Some(seq) = inner.first_chunk::<4>() else {
                    continue;
                };
                let i = u32::from_le_bytes(*seq);
                if let Some(n) = accepted.get_mut(i as usize) {
                    *n += 1;
                    if i.is_multiple_of(SAMPLE_EVERY) {
                        sampled.push((i, host));
                    }
                }
            }
        });
        rec.exit();
        self.flights.clear();

        rec.exit();
        self.log.lat_ns.push(t0.elapsed().as_nanos() as u64);

        self.copies += self.out.len() as u64;
        self.check(&w.ctl, lineup);
    }

    /// Count check on every packet, exact host set on one in
    /// `SAMPLE_EVERY`.
    fn check(&mut self, ctl: &Controller, lineup: &[Flow]) {
        self.sampled.sort_unstable();
        let mut s = 0usize;
        for (i, f) in lineup.iter().enumerate() {
            self.log.attempted += 1;
            let mut ok = self.accepted[i] == f.expect;
            if (i as u32).is_multiple_of(SAMPLE_EVERY) {
                self.sampled_checked += 1;
                let from = s;
                while s < self.sampled.len() && self.sampled[s].0 == i as u32 {
                    s += 1;
                }
                let got = self.sampled[from..s].iter().map(|&(_, h)| h);
                // Both sides ascend, so a duplicate or a stray host makes
                // them differ.
                ok &= ctl
                    .group(f.gid)
                    .is_some_and(|state| got.eq(state.receiver_hosts().filter(|&h| h != f.sender)));
            }
            self.log.failed += u64::from(!ok);
        }
    }
}

/// Timing of the static checker, off the clock of every phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct VerifyLog {
    pub runs: u32,
    pub total_ms: f64,
    pub violations: u64,
}

fn verify(w: &World, log: &mut VerifyLog) {
    let t = Instant::now();
    let report = check_state_with(
        &w.ctl,
        &w.agent.fabric,
        &w.agent.hv_refs(),
        &VerifyOptions::default(),
    );
    log.total_ms += t.elapsed().as_secs_f64() * 1e3;
    log.runs += 1;
    log.violations += report.violations.len() as u64;
    for v in report.violations.iter().take(3) {
        eprintln!("verify violation: {:?} {:?} {}", v.group, v.kind, v.detail);
    }
}

/// Raw results of one run; `metrics.rs` names and scales them.
pub struct RunReport {
    pub spec: Spec,
    pub setup_s: Vec<f64>,
    pub groups: OpLog,
    pub events: OpLog,
    /// Per chunk; `attempted`/`failed` are packets.
    pub packets: OpLog,
    pub event_class: Vec<EventClass>,
    pub copies: u64,
    pub wire_bytes: u64,
    pub sampled_checked: u64,
    pub link_bytes: u64,
    pub link_copies: u64,
    pub header_flows: u64,
    pub header_bytes: u64,
    pub missing_flows: u64,
    pub srules_installed: u64,
    pub counts: DeployCounts,
    pub verify: VerifyLog,
    pub plan_stale: u64,
    /// obs counter deltas over the timed region.
    pub obs_before: Snapshot,
    pub obs_after: Snapshot,
    pub peak_rss_mb: f64,
    pub rec: Recorder,
    pub world: World,
    /// The last chunk's deliveries and line-up, for the traced run's
    /// extra passes.
    pub last_out: DeliveryBatch,
    pub last_lineup: Vec<Flow>,
    pub frame: Vec<u8>,
}

impl RunReport {
    pub fn attempted(&self) -> u64 {
        self.groups.attempted + self.events.attempted + self.packets.attempted
    }

    pub fn failed(&self) -> u64 {
        self.groups.failed + self.events.failed + self.packets.failed
    }

    /// Every check passed: no failed op, clean static verification, every
    /// expected flow deployed, no stale compiled plan seen.
    pub fn correct(&self) -> bool {
        self.failed() == 0
            && self.verify.violations == 0
            && self.missing_flows == 0
            && self.plan_stale == 0
    }
}

fn group_op(w: &mut World, i: usize, log: &mut OpLog, rec: &mut Recorder) {
    let (gid, vni, addr, members) = &w.inputs.specs[i];
    let t0 = Instant::now();
    rec.enter(Name::OpGroup);
    rec.enter(Name::ControllerCreate);
    w.ctl
        .create_group(*gid, *vni, *addr, members.iter().copied());
    rec.exit();
    let refused = w.agent.deploy_group(&w.ctl, *gid, rec);
    rec.exit();
    log.lat_ns.push(t0.elapsed().as_nanos() as u64);
    log.attempted += 1;
    log.failed += u64::from(refused > 0);
}

fn event_op(
    w: &mut World,
    e: Event,
    log: &mut OpLog,
    class: &mut Vec<EventClass>,
    rec: &mut Recorder,
) {
    let before = rec.is_on().then(|| w.ctl.churn_stats());
    let t0 = Instant::now();
    rec.enter(Name::OpEvent);
    rec.enter(Name::ControllerEvent);
    let updates = if e.join {
        w.ctl.join(e.gid, e.host, e.role)
    } else {
        w.ctl.leave(e.gid, e.host, e.role)
    };
    rec.exit();
    let refused = w
        .agent
        .apply_event(&w.ctl, e.gid, e.host, e.role, &updates, rec);
    rec.exit();
    log.lat_ns.push(t0.elapsed().as_nanos() as u64);
    log.attempted += 1;
    log.failed += u64::from(refused > 0);
    if let Some(before) = before {
        let after = w.ctl.churn_stats();
        class.push(if after.delta_hits > before.delta_hits {
            EventClass::Hit
        } else if after.full_reencodes > before.full_reencodes {
            EventClass::Full
        } else {
            EventClass::Other
        });
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run one workload once.
pub fn run(spec: &Spec, seed: u64, opts: Options) -> RunReport {
    // The first second of a fresh process runs up to twice as slow as the
    // rest (cold caches, first-touch page faults, a CPU that has not
    // clocked up), and the lifecycle workloads' set-up is over in 30 ms,
    // so their create phase used to sit right in it: one run in ten read
    // 40% low. A controller is a long-running process; its users never
    // see that second. The warm-up uses another seed, so it hands the
    // system different inputs than the measured run does.
    if opts.warm_up {
        let warm = spec.scaled(spec::WARMUP_SHARE, spec::WARMUP_SHARE);
        let quiet = Options {
            trace: false,
            fault: None,
            setup_reps: 1,
            warm_up: false,
        };
        drop(run(&warm, seed ^ 0x3a77, quiet));
    }
    // Set-up, several times over so its reported time is a median; the
    // last one is kept. Each is dropped before the next is built so the
    // resident peak is one world, not two.
    let mut setup_s = Vec::new();
    let mut world = None;
    for _ in 0..opts.setup_reps.max(1) {
        drop(world.take());
        let t = Instant::now();
        world = Some(set_up(spec, seed));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = world.expect("at least one set-up");
    w.agent.fault = opts.fault;

    // Up to ~180 spans per group or event op have been seen (three per
    // sender flow); leave room so the buffer never grows mid-span.
    let mut rec = if opts.trace {
        Recorder::on(300 * (spec.group_ops + spec.event_ops) + 1024)
    } else {
        Recorder::off()
    };
    let mut groups = OpLog::with_capacity(spec.group_ops);
    let mut events = OpLog::with_capacity(spec.event_ops);
    let mut event_class = Vec::new();
    let mut verify_log = VerifyLog::default();
    let mut rng = SplitMix::new(seed ^ 0x5e1ec7);
    let frame = input::inner_frame(spec.frame_bytes, seed);
    let mut rp = Replayer::new(frame, spec.packet_ops / CHUNK + spec.rounds + 1);
    let mut lineup: Vec<Flow> = Vec::with_capacity(CHUNK);
    let first_new = spec.setup_groups;

    let obs_before = snapshot();
    let links_before = w.agent.fabric.stats;

    if spec.rounds == 0 {
        for i in 0..spec.group_ops {
            group_op(&mut w, first_new + i, &mut groups, &mut rec);
        }
        verify(&w, &mut verify_log);
        for k in 0..spec.event_ops {
            let e = w.inputs.events[k];
            event_op(&mut w, e, &mut events, &mut event_class, &mut rec);
        }
        verify(&w, &mut verify_log);

        let flows = pick_flows(&w.ctl, first_new + spec.group_ops, FLOWS, &mut rng);
        let mut cursor = 0usize;
        for _ in 0..spec.packet_ops / CHUNK {
            lineup.clear();
            lineup.extend((0..CHUNK).map(|i| flows[(cursor + i) % FLOWS]));
            cursor = (cursor + CHUNK) % FLOWS;
            rp.chunk(&mut w, &lineup, &mut rec);
        }
    } else {
        let per = |n: usize| n / spec.rounds;
        let mut flows = pick_flows(&w.ctl, spec.setup_groups, FLOWS, &mut rng);
        let mut by_gid: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, f) in flows.iter().enumerate() {
            by_gid.entry(f.gid.0).or_default().push(i);
        }
        let mut live = vec![true; flows.len()];
        let mut touched: Vec<Flow> = Vec::new();
        let mut cursor = 0usize;
        for round in 0..spec.rounds {
            for i in 0..per(spec.group_ops) {
                let at = first_new + round * per(spec.group_ops) + i;
                group_op(&mut w, at, &mut groups, &mut rec);
            }
            touched.clear();
            for k in 0..per(spec.event_ops) {
                let e = w.inputs.events[round * per(spec.event_ops) + k];
                event_op(&mut w, e, &mut events, &mut event_class, &mut rec);
            }
            // Off the clock: bring the flows of touched groups up to the
            // post-event state. Half the round's packets come from a
            // current sender of a touched group, through the flow the
            // agent just refreshed; the other half from the standing set.
            for k in 0..per(spec.event_ops) {
                let gid = w.inputs.events[round * per(spec.event_ops) + k].gid;
                let state = w.ctl.group(gid).expect("churned groups exist");
                if let Some(f) = pick_sender(state, &mut rng) {
                    touched.push(f);
                }
                for &i in by_gid.get(&gid.0).map_or(&[][..], Vec::as_slice) {
                    let still = state
                        .members
                        .get(&flows[i].sender)
                        .is_some_and(|c| c.senders > 0);
                    let f = if still {
                        Some(flow_of(state, flows[i].sender))
                    } else {
                        pick_sender(state, &mut rng)
                    };
                    live[i] = f.is_some();
                    if let Some(f) = f {
                        flows[i] = f;
                    }
                }
            }
            assert!(live.contains(&true), "every standing flow lost its senders");
            lineup.clear();
            for i in 0..per(spec.packet_ops) {
                if i % 2 == 1 && !touched.is_empty() {
                    lineup.push(touched[(i / 2) % touched.len()]);
                } else {
                    while !live[cursor] {
                        cursor = (cursor + 1) % FLOWS;
                    }
                    lineup.push(flows[cursor]);
                    cursor = (cursor + 1) % FLOWS;
                }
            }
            rp.chunk(&mut w, &lineup, &mut rec);
        }
        verify(&w, &mut verify_log);
    }

    // Replay changes no table, so "after churn" can be read here for both
    // shapes of run.
    let (header_flows, header_bytes, missing_flows) = w.agent.deployed_header_bytes(&w.ctl);
    let srules_installed = w.agent.srules_installed();
    let obs_after = snapshot();
    let links_after = w.agent.fabric.stats;
    RunReport {
        spec: *spec,
        setup_s,
        groups,
        events,
        packets: rp.log,
        event_class,
        copies: rp.copies,
        wire_bytes: rp.wire_bytes,
        sampled_checked: rp.sampled_checked,
        link_bytes: links_after.total_link_bytes() - links_before.total_link_bytes(),
        link_copies: links_after.packets_on_links - links_before.packets_on_links,
        header_flows,
        header_bytes,
        missing_flows,
        srules_installed,
        counts: w.agent.counts,
        verify: verify_log,
        plan_stale: counter(&obs_after, "fabric.replay.plan_stale_detected"),
        obs_before,
        obs_after,
        peak_rss_mb: peak_rss_mb(),
        rec,
        world: w,
        last_out: rp.out,
        last_lineup: lineup,
        frame: rp.frame,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(name: &str) -> Spec {
        // Small enough for a debug-build unit test, large enough to have
        // s-rules, delta hits and several chunks.
        let mut s = spec::find(name).expect("known workload").scaled(0.02, 0.05);
        s.packet_ops = if s.rounds == 0 {
            2 * CHUNK
        } else {
            s.packet_ops
        };
        s
    }

    fn opts() -> Options {
        Options {
            trace: false,
            fault: None,
            setup_reps: 1,
            warm_up: false,
        }
    }

    #[test]
    fn every_workload_runs_clean_at_small_scale() {
        for w in spec::WORKLOADS {
            let r = run(&tiny(w.name), 11, opts());
            assert!(
                r.correct(),
                "{}: {} failed of {}",
                w.name,
                r.failed(),
                r.attempted()
            );
            assert_eq!(r.groups.attempted as usize, r.spec.group_ops);
            assert_eq!(r.events.attempted as usize, r.spec.event_ops);
            assert_eq!(r.packets.attempted as usize, r.spec.packet_ops);
            assert!(r.sampled_checked > 0 && r.copies > 0 && r.link_bytes > 0);
            assert!(r.header_flows > 0);
        }
    }

    #[test]
    fn same_seed_repeats_the_counts_and_another_seed_does_not() {
        let s = tiny("lifecycle_sparse");
        let key = |r: &RunReport| {
            (
                r.header_flows,
                r.header_bytes,
                r.srules_installed,
                r.link_bytes,
                r.copies,
                r.counts,
            )
        };
        let (a, b, c) = (run(&s, 5, opts()), run(&s, 5, opts()), run(&s, 6, opts()));
        assert_eq!(a.world.inputs.events, b.world.inputs.events);
        assert_eq!(key(&a), key(&b));
        assert_ne!(a.world.inputs.events, c.world.inputs.events);
        assert_ne!(key(&a), key(&c));
    }

    #[test]
    fn a_skipped_srule_install_fails_packets_and_the_static_check() {
        // P=1/R=0 forwards on s-rules, so a missing one loses deliveries.
        let s = tiny("lifecycle_sparse");
        let clean = run(&s, 3, opts());
        assert!(clean.correct());
        let mut hit = None;
        // Not every s-rule carries sampled traffic; find one that does.
        for n in 0..clean.counts.srule_installs.min(200) {
            let r = run(
                &s,
                3,
                Options {
                    fault: Some(Fault::SkipSruleInstall(n)),
                    ..opts()
                },
            );
            assert!(!r.correct(), "skipping install {n} went unnoticed");
            assert!(r.verify.violations > 0);
            if r.packets.failed > 0 {
                hit = Some(r.packets.failed);
                break;
            }
        }
        assert!(hit.is_some(), "no skipped s-rule ever failed a packet");
    }
}
