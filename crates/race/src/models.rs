//! Small-model versions of the shard engine's two lock-free protocols,
//! checked by the explorer — plus seeded mutations the explorer must
//! deterministically catch.
//!
//! The clean ring and termination models run the *real* generic code
//! from `elmo_core` (`spsc_in`, `Pending`) instantiated over the
//! instrumented [`VCell`] backend, so a pass is evidence about the
//! shipped protocol, not a transcription of it. Mutations that corrupt a
//! protocol's internal ordering (reordered publish, skipped full check)
//! necessarily live in a local mirror of the ring algorithm, since the
//! shipped code has nothing to toggle.

use crate::explore::{Model, ModelInstance};
use crate::sched::{self, VCell};
use elmo_core::spsc::{spsc_in, SpscReceiverIn, SpscSenderIn};
use elmo_core::sync::{AtomicCell, Pending};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

/// Seeded bugs for the SPSC ring protocol.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RingMutation {
    /// Publish the new tail cursor *before* writing the slot — the
    /// "reordered publish" bug: the consumer can pop an empty slot.
    ReorderedPublish,
    /// Skip the full-ring check — wraparound overwrites an unconsumed
    /// slot, losing a message.
    SkipFullCheck,
}

/// Seeded bugs for the termination pending-counter protocol.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TermMutation {
    /// Hand a child to a peer without publishing it to the counter —
    /// the "dropped counter increment" bug.
    DroppedIncrement,
    /// Retire the current entry before publishing its child — the
    /// counter can pass through zero while work is still in flight.
    RetireBeforePublish,
}

/// Pop values until `n` collected, parking while empty. Returns early on
/// abort.
fn pop_n(rx: &SpscReceiverIn<usize, VCell>, n: usize, out: &Arc<Mutex<Vec<usize>>>) {
    let mut got = 0;
    while got < n {
        let g = sched::spin_epoch();
        match rx.try_pop() {
            Some(v) => {
                out.lock().unwrap_or_else(|e| e.into_inner()).push(v);
                got += 1;
            }
            None => {
                if !sched::spin_wait(g) {
                    return;
                }
            }
        }
    }
}

/// Push one value with the drain-and-retry discipline's park. Returns
/// `false` on abort.
fn push_retry(tx: &SpscSenderIn<usize, VCell>, mut v: usize) -> bool {
    loop {
        let g = sched::spin_epoch();
        match tx.try_push(v) {
            Ok(()) => return true,
            Err(back) => {
                v = back;
                if !sched::spin_wait(g) {
                    return false;
                }
            }
        }
    }
}

const RING_MSGS: usize = 4;
const RING_CAP: usize = 2;

/// The clean ring model: the *real* `elmo_core::spsc` ring (generic
/// instantiation over [`VCell`]) moving `RING_MSGS` values through
/// `RING_CAP` slots — wraparound crosses the capacity boundary twice and
/// the full-ring path forces producer parking.
pub fn ring_model() -> Model {
    Model::new("spsc-ring", || {
        let (tx, rx) = spsc_in::<usize, VCell>(RING_CAP);
        let out = Arc::new(Mutex::new(Vec::new()));
        let out_c = Arc::clone(&out);
        let out_check = Arc::clone(&out);
        ModelInstance {
            threads: vec![
                Box::new(move || {
                    for i in 0..RING_MSGS {
                        if !push_retry(&tx, i) {
                            return;
                        }
                    }
                }),
                Box::new(move || pop_n(&rx, RING_MSGS, &out_c)),
            ],
            check: Box::new(move || {
                let got = out_check.lock().unwrap_or_else(|e| e.into_inner());
                let want: Vec<usize> = (0..RING_MSGS).collect();
                if *got == want {
                    Ok(())
                } else {
                    Err(format!("ring violated FIFO/no-loss: popped {got:?}"))
                }
            }),
        }
    })
}

/// A local mirror of the ring algorithm with a seeded mutation. The
/// slots are instrumented cells too (`value + 1`, `0` = empty), so the
/// window a reordered publish opens — cursor advanced, slot not yet
/// written — is a real schedulable gap the explorer can land the
/// consumer in. A pop that finds its cursor-claimed slot empty records
/// the sentinel `usize::MAX` — the observable symptom of a lost message.
struct MutRing {
    slots: Vec<VCell>,
    head: VCell,
    tail: VCell,
    mutation: RingMutation,
}

impl MutRing {
    fn new(cap: usize, mutation: RingMutation) -> MutRing {
        MutRing {
            slots: (0..cap).map(|_| VCell::new(0)).collect(),
            head: VCell::new(0),
            tail: VCell::new(0),
            mutation,
        }
    }

    fn try_push(&self, value: usize) -> Result<(), usize> {
        // ordering: arguments mirror the real `elmo_core::spsc` protocol
        // verbatim, but the VCell backend ignores them — every
        // instrumented access is SC and interleaving comes from the
        // scheduler, not the memory model.
        let tail = self.tail.load(Ordering::Relaxed);
        if self.mutation != RingMutation::SkipFullCheck
            && tail.wrapping_sub(self.head.load(Ordering::Acquire)) >= self.slots.len()
        {
            return Err(value);
        }
        let slot = &self.slots[tail % self.slots.len()];
        if self.mutation == RingMutation::ReorderedPublish {
            self.tail.store(tail.wrapping_add(1), Ordering::Release);
            slot.store(value + 1, Ordering::Release);
        } else {
            slot.store(value + 1, Ordering::Release);
            self.tail.store(tail.wrapping_add(1), Ordering::Release);
        }
        Ok(())
    }

    fn try_pop(&self) -> Option<usize> {
        // ordering: mirrored from the real protocol; ignored by VCell
        // (see `try_push`).
        let head = self.head.load(Ordering::Relaxed);
        if head == self.tail.load(Ordering::Acquire) {
            return None;
        }
        let slot = &self.slots[head % self.slots.len()];
        let raw = slot.load(Ordering::Acquire);
        slot.store(0, Ordering::Release);
        self.head.store(head.wrapping_add(1), Ordering::Release);
        // Cursor said non-empty but the slot was: the message is gone.
        Some(raw.wrapping_sub(1))
    }
}

/// Ring model with a seeded mutation; the explorer must find a schedule
/// where the bug loses or corrupts a message.
pub fn ring_model_mutated(mutation: RingMutation) -> Model {
    let name = match mutation {
        RingMutation::ReorderedPublish => "spsc-ring+reordered-publish",
        RingMutation::SkipFullCheck => "spsc-ring+skip-full-check",
    };
    Model::new(name, move || {
        let ring = Arc::new(MutRing::new(RING_CAP, mutation));
        let ring_c = Arc::clone(&ring);
        let out = Arc::new(Mutex::new(Vec::new()));
        let out_c = Arc::clone(&out);
        let out_check = Arc::clone(&out);
        ModelInstance {
            threads: vec![
                Box::new(move || {
                    for i in 0..RING_MSGS {
                        let mut v = i;
                        loop {
                            let g = sched::spin_epoch();
                            match ring.try_push(v) {
                                Ok(()) => break,
                                Err(back) => {
                                    v = back;
                                    if !sched::spin_wait(g) {
                                        return;
                                    }
                                }
                            }
                        }
                    }
                }),
                Box::new(move || {
                    let mut got = 0;
                    while got < RING_MSGS {
                        let g = sched::spin_epoch();
                        match ring_c.try_pop() {
                            Some(v) => {
                                out_c.lock().unwrap_or_else(|e| e.into_inner()).push(v);
                                got += 1;
                            }
                            None => {
                                if !sched::spin_wait(g) {
                                    return;
                                }
                            }
                        }
                    }
                }),
            ],
            check: Box::new(move || {
                let got = out_check.lock().unwrap_or_else(|e| e.into_inner());
                let want: Vec<usize> = (0..RING_MSGS).collect();
                if *got == want {
                    Ok(())
                } else {
                    Err(format!("ring violated FIFO/no-loss: popped {got:?}"))
                }
            }),
        }
    })
}

/// Number of tasks the termination model must process: two seeds on
/// worker 0 (the second spawns a child for worker 1).
const TERM_TASKS: usize = 3;

/// The termination model: two workers exchanging tasks through *real*
/// generic rings, quiescence decided by the *real*
/// [`Pending`](elmo_core::sync::Pending) counter. `mutation: None` must
/// pass every schedule: all three tasks processed, both workers exit.
pub fn termination_model(mutation: Option<TermMutation>) -> Model {
    let name = match mutation {
        None => "termination-counter",
        Some(TermMutation::DroppedIncrement) => "termination-counter+dropped-increment",
        Some(TermMutation::RetireBeforePublish) => "termination-counter+retire-before-publish",
    };
    Model::new(name, move || {
        // Worker 0's inbox is preloaded (setup runs uninstrumented) with
        // a plain seed and a child-spawning seed, in that order — the
        // order that opens the premature-exit window widest.
        let (tx0, rx0) = spsc_in::<usize, VCell>(4);
        let (tx1, rx1) = spsc_in::<usize, VCell>(4);
        tx0.try_push(0).ok();
        tx0.try_push(1).ok();
        let pending = Arc::new(Pending::<VCell>::new(2));
        let processed = Arc::new(Mutex::new([0usize; 2]));

        let worker = |me: usize,
                      rx: SpscReceiverIn<usize, VCell>,
                      tx_peer: SpscSenderIn<usize, VCell>,
                      pending: Arc<Pending<VCell>>,
                      processed: Arc<Mutex<[usize; 2]>>| {
            move || {
                loop {
                    let g = sched::spin_epoch();
                    if let Some(task) = rx.try_pop() {
                        if task == 1 {
                            // Spawns one child for the peer.
                            match mutation {
                                None => {
                                    pending.publish(1);
                                    if !push_retry(&tx_peer, 0) {
                                        return;
                                    }
                                    pending.retire(1);
                                }
                                Some(TermMutation::DroppedIncrement) => {
                                    if !push_retry(&tx_peer, 0) {
                                        return;
                                    }
                                    pending.retire(1);
                                }
                                Some(TermMutation::RetireBeforePublish) => {
                                    pending.retire(1);
                                    pending.publish(1);
                                    if !push_retry(&tx_peer, 0) {
                                        return;
                                    }
                                }
                            }
                        } else {
                            pending.retire(1);
                        }
                        processed.lock().unwrap_or_else(|e| e.into_inner())[me] += 1;
                    } else if pending.quiescent() {
                        break;
                    } else if !sched::spin_wait(g) {
                        return;
                    }
                }
            }
        };

        let processed_check = Arc::clone(&processed);
        ModelInstance {
            threads: vec![
                Box::new(worker(
                    0,
                    rx0,
                    tx1,
                    Arc::clone(&pending),
                    Arc::clone(&processed),
                )),
                Box::new(worker(1, rx1, tx0, pending, processed)),
            ],
            check: Box::new(move || {
                let done = processed_check.lock().unwrap_or_else(|e| e.into_inner());
                let total = done[0] + done[1];
                if total == TERM_TASKS {
                    Ok(())
                } else {
                    Err(format!(
                        "premature exit: {total}/{TERM_TASKS} tasks processed (per-worker {done:?})"
                    ))
                }
            }),
        }
    })
}
