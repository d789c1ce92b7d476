//! # elmo-race — deterministic schedule exploration for the shard protocols
//!
//! A std-only, loom/shuttle-style stateless model checker for the two
//! lock-free protocols the sharded replay engine stands on:
//!
//! 1. the bounded SPSC ring (`elmo_core::spsc`) — FIFO, no loss, no
//!    duplication across wraparound and full-ring drain-and-retry;
//! 2. the distributed-termination pending counter
//!    (`elmo_core::sync::Pending`) — quiescence implies all work done
//!    (no premature exit), and progress implies no lost wakeup.
//!
//! The clean ring and termination models execute the *real* generic
//! protocol code instantiated over the instrumented [`VCell`] backend of
//! `elmo_core::sync::AtomicCell`; the explorer serializes the model's OS
//! threads through a virtual scheduler and enumerates every schedule
//! within a preemption bound (deepening from zero, so failures come with
//! a minimal, replayable witness). Seeded protocol mutations — dropped
//! counter increment, reordered publish, skipped full check — must be
//! caught deterministically; `cargo test -p elmo-race` and the CI race
//! smoke (`elmo-eval race`) pin that.
//!
//! See DESIGN §14 for the scheduler protocol, the soundness argument for
//! spin parking, and the SC interleaving caveat.
#![forbid(unsafe_code)]

mod explore;
mod models;
mod sched;

pub use explore::{Exploration, Explorer, Model, ModelInstance, Witness};
pub use models::{ring_model, ring_model_mutated, termination_model, RingMutation, TermMutation};
pub use sched::{label_cell, spin_epoch, spin_wait, OpKind, Scheduler, Step, VCell};

/// Every protocol model that must pass clean, in reporting order.
pub fn clean_models() -> Vec<Model> {
    vec![ring_model(), termination_model(None)]
}

/// Every seeded mutation the explorer must catch, in reporting order.
pub fn mutated_models() -> Vec<Model> {
    vec![
        ring_model_mutated(RingMutation::ReorderedPublish),
        ring_model_mutated(RingMutation::SkipFullCheck),
        termination_model(Some(TermMutation::DroppedIncrement)),
        termination_model(Some(TermMutation::RetireBeforePublish)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn explorer() -> Explorer {
        Explorer::default()
    }

    #[test]
    fn clean_protocols_pass_every_schedule() {
        for model in clean_models() {
            let report = explorer().explore(&model);
            assert!(
                report.failure.is_none(),
                "{}: spurious failure {:?}",
                report.model,
                report.failure
            );
            assert!(
                report.schedules >= 10,
                "{}: only {} schedules explored — model degenerated?",
                report.model,
                report.schedules
            );
        }
    }

    #[test]
    fn every_seeded_mutation_is_caught_with_replayable_witness() {
        for model in mutated_models() {
            let report = explorer().explore(&model);
            let witness = report
                .failure
                .unwrap_or_else(|| panic!("{}: mutation not caught", report.model));
            // The witness replays to the same failure, deterministically.
            let replayed = explorer().replay(&model, &witness.schedule);
            assert_eq!(
                replayed.as_deref(),
                Some(witness.message.as_str()),
                "{}: witness did not replay",
                report.model
            );
        }
    }

    #[test]
    fn exploration_is_deterministic() {
        for model_fn in [
            || ring_model_mutated(RingMutation::ReorderedPublish),
            || termination_model(Some(TermMutation::RetireBeforePublish)),
        ] {
            let a = explorer().explore(&model_fn());
            let b = explorer().explore(&model_fn());
            assert_eq!(a.schedules, b.schedules);
            assert_eq!(a.executions, b.executions);
            let (wa, wb) = (a.failure.unwrap(), b.failure.unwrap());
            assert_eq!(wa.schedule, wb.schedule);
            assert_eq!(wa.message, wb.message);
        }
    }

    #[test]
    fn witnesses_are_minimal_in_preemptions() {
        // The reordered-publish window only opens when the consumer
        // preempts the producer between its cursor store and its slot
        // write: exactly one preemption, and deepening must find it at
        // bound 1.
        let model = ring_model_mutated(RingMutation::ReorderedPublish);
        let report = explorer().explore(&model);
        let w = report.failure.expect("caught");
        assert_eq!(w.preemptions, 1, "witness uses minimal preemptions");
    }

    #[test]
    fn deadlock_is_reported_not_hung() {
        // Dropped increment wraps the pending counter below zero, so the
        // workers can never observe quiescence again: every schedule
        // ends with all threads parked — reported, not spun on.
        let model = termination_model(Some(TermMutation::DroppedIncrement));
        let report = explorer().explore(&model);
        let w = report.failure.expect("caught");
        assert!(
            w.message.contains("deadlock") || w.message.contains("premature exit"),
            "unexpected failure shape: {}",
            w.message
        );
    }
}
