//! The four workloads, their frozen operation counts, and the fixed
//! conditions they share. `BENCHMARK.json` repeats the names and reasons;
//! a unit test in `metrics.rs` keeps the two in step.

use crate::sut::{Clos, HeaderLayout};

/// Packets per packet operation chunk: clocks are read per chunk, never
/// per packet.
pub const CHUNK: usize = 4096;
/// Seeded (group, sender) flows the replay phase cycles over.
pub const FLOWS: usize = 4096;
/// One packet in this many has its delivered host set compared exactly.
pub const SAMPLE_EVERY: u32 = 64;
/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 0xe140;
/// The `--seconds` the operation counts below are frozen for; another
/// value scales them in proportion.
pub const REF_SECONDS: f64 = 12.0;
/// Spans written to `bench/out/<workload>.trace.jsonl` (the head of the
/// recording; the ledger uses all of it).
pub const TRACE_FILE_SPANS: usize = 200_000;
/// Share of the workload run once, unmeasured, before the set-ups.
pub const WARMUP_SHARE: f64 = 0.1;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// The 2,304-host benchmark fabric.
pub fn fabric() -> Clos {
    Clos::scaled_fabric(6, 24, 16)
}

/// Header budget: two spine p-rules, thirty leaf p-rules, Kmax 2.
pub fn header_budget(topo: &Clos) -> usize {
    HeaderLayout::for_clos(topo).max_header_bytes(2, 30, 2)
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    /// One line: why the workload exists (also in `BENCHMARK.json`).
    pub why: &'static str,
    /// Placement clustering `P` and redundancy limit `R`.
    pub p: usize,
    pub r: usize,
    /// Groups created and fully deployed in set-up through
    /// `create_groups_batch(.., 1)`.
    pub setup_groups: usize,
    /// Timed operations.
    pub group_ops: usize,
    pub event_ops: usize,
    pub packet_ops: usize,
    /// Inner frame size in bytes.
    pub frame_bytes: usize,
    /// 0: the phases run one after the other (create, churn, replay).
    /// n: they are interleaved in n rounds, each 1/n of every count.
    pub rounds: usize,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "lifecycle_dense",
        why: "P=12 R=12 clustered placement: Algorithm 1, the delta path and hypervisor flow build do the work, packets ride p-rules, 64 B frames so per-packet cost dominates",
        p: 12,
        r: 12,
        setup_groups: 0,
        group_ops: 4_000,
        event_ops: 16_000,
        packet_ops: 60 * CHUNK,
        frame_bytes: 64,
        rounds: 0,
    },
    Spec {
        name: "lifecycle_sparse",
        why: "P=1 R=0 (Table 2 setting): delta path bypassed, s-rule install/remove and MatchPlan rebuild dominate create and churn, packets ride s-rules and default p-rules",
        p: 1,
        r: 0,
        setup_groups: 0,
        group_ops: 4_000,
        event_ops: 8_000,
        packet_ops: 120 * CHUNK,
        frame_bytes: 64,
        rounds: 0,
    },
    Spec {
        name: "replay_mtu",
        why: "dense state prebuilt in set-up, 1,500 B frames: byte movement (encap copy, materialise) dominates, separating a per-byte gain from a per-packet one; replay takes most of the run",
        p: 12,
        r: 12,
        setup_groups: 2_000,
        group_ops: 3_000,
        event_ops: 8_000,
        packet_ops: 120 * CHUNK,
        frame_bytes: 1500,
        rounds: 0,
    },
    Spec {
        name: "mixed_dense",
        why: "creates, events and 1,500 B packets interleaved in rounds on one Fabric: table writes and plan rebuilds beside replay, refreshed headers defeat per-header caches, delivery checked post-event",
        p: 12,
        r: 12,
        setup_groups: 3_000,
        group_ops: 22 * 140,
        event_ops: 64 * 140,
        packet_ops: 2_048 * 140,
        frame_bytes: 1500,
        rounds: 140,
    },
];

pub fn find(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Spec {
    /// The same workload with operation counts multiplied by `ops` and
    /// set-up state by `state`. Counts stay whole chunks and whole rounds
    /// and never reach zero.
    pub fn scaled(&self, ops: f64, state: f64) -> Spec {
        let mul = |n: usize, k: f64| ((n as f64 * k).round() as usize).max(1);
        let mut s = *self;
        s.setup_groups = if self.setup_groups == 0 {
            0
        } else {
            mul(self.setup_groups, state).max(50)
        };
        if self.rounds == 0 {
            s.group_ops = mul(self.group_ops, ops).max(20);
            s.event_ops = mul(self.event_ops, ops).max(20);
            s.packet_ops = mul(self.packet_ops / CHUNK, ops) * CHUNK;
        } else {
            s.rounds = mul(self.rounds, ops);
            s.group_ops = self.group_ops / self.rounds * s.rounds;
            s.event_ops = self.event_ops / self.rounds * s.rounds;
            s.packet_ops = self.packet_ops / self.rounds * s.rounds;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_keeps_whole_chunks_and_rounds() {
        for w in WORKLOADS {
            assert_eq!(w.scaled(1.0, 1.0), w);
            let s = w.scaled(0.02, 0.1);
            assert!(s.group_ops >= 1 && s.event_ops >= 1 && s.packet_ops >= 1);
            match w.packet_ops.checked_div(w.rounds) {
                None => assert_eq!(s.packet_ops % CHUNK, 0),
                Some(per_round) => {
                    assert_eq!(s.group_ops % s.rounds, 0);
                    assert_eq!(s.packet_ops / s.rounds, per_round);
                }
            }
        }
        assert!(find("lifecycle_sparse").is_some());
        assert!(find("nope").is_none());
    }
}
