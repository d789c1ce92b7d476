//! Thin synchronization abstraction over the shard engine's primitives.
//!
//! The sharded replay engine relies on exactly two lock-free protocols:
//! the bounded SPSC ring cursors ([`crate::spsc`]) and the distributed
//! termination pending-counter ([`Pending`]). Each protocol's atomic
//! accesses go through the [`AtomicCell`] trait so the *same* algorithm
//! code can run on two backends:
//!
//! - the real backend — `std::sync::atomic::AtomicUsize`, a zero-cost
//!   passthrough (every method is a `#[inline]` delegation, so
//!   monomorphized code is bit-identical to hand-written atomics); and
//! - the `elmo-race` virtual backend — a cell that reports every access
//!   to a deterministic scheduler before performing it, letting the model
//!   checker explore thread interleavings exhaustively.
//!
//! Keeping the trait in `elmo-core` (instead of the race crate) means the
//! production crates never depend on the checker; the dependency points
//! the other way.

use std::sync::atomic::{AtomicUsize, Ordering};

/// One shared atomic `usize` cell. The five operations are the complete
/// vocabulary of the shard engine's protocols; anything fancier (CAS
/// loops, mixed-width atomics) is deliberately unavailable so new
/// protocol code stays model-checkable.
pub trait AtomicCell: Send + Sync {
    /// A fresh cell holding `v`.
    fn new(v: usize) -> Self;
    /// Atomic load.
    fn load(&self, order: Ordering) -> usize;
    /// Atomic store.
    fn store(&self, v: usize, order: Ordering);
    /// Atomic add; returns the previous value.
    fn fetch_add(&self, v: usize, order: Ordering) -> usize;
    /// Atomic subtract; returns the previous value.
    fn fetch_sub(&self, v: usize, order: Ordering) -> usize;
}

/// The real backend: a direct passthrough to the hardware atomics.
impl AtomicCell for AtomicUsize {
    #[inline]
    fn new(v: usize) -> Self {
        AtomicUsize::new(v)
    }
    #[inline]
    fn load(&self, order: Ordering) -> usize {
        AtomicUsize::load(self, order)
    }
    #[inline]
    fn store(&self, v: usize, order: Ordering) {
        AtomicUsize::store(self, v, order)
    }
    #[inline]
    fn fetch_add(&self, v: usize, order: Ordering) -> usize {
        AtomicUsize::fetch_add(self, v, order)
    }
    #[inline]
    fn fetch_sub(&self, v: usize, order: Ordering) -> usize {
        AtomicUsize::fetch_sub(self, v, order)
    }
}

/// Distributed-termination pending counter.
///
/// The sharded replay has no coordinator: workers exit when every packet
/// entry in the whole fabric has been processed. The protocol is a plain
/// count of in-flight entries with one hard discipline — **publish before
/// visible, retire after done**:
///
/// - a worker [`publish`](Self::publish)es the children it is about to
///   hand to peers *before* pushing them into any ring, so the counter
///   can never under-count live work;
/// - it [`retire`](Self::retire)s the entries of a batch only *after*
///   their children are published, so the counter passes through zero
///   exactly once, when the system is truly drained.
///
/// Violating either half is one of the seeded mutations the `elmo-race`
/// explorer must catch (premature exit / lost work).
pub struct Pending<A: AtomicCell = AtomicUsize> {
    live: A,
}

impl<A: AtomicCell> Pending<A> {
    /// A counter seeded with the initially injected entries.
    pub fn new(seed: usize) -> Self {
        Pending { live: A::new(seed) }
    }

    /// Account `n` new entries *before* making them visible to peers.
    pub fn publish(&self, n: usize) {
        // ordering: AcqRel — the increment must be visible before the ring
        // push (Release store) that hands the entry to a peer, so a peer
        // that observes the entry also observes a counter that includes it.
        self.live.fetch_add(n, Ordering::AcqRel);
    }

    /// Account `n` entries as fully processed (children already published).
    pub fn retire(&self, n: usize) {
        // ordering: AcqRel — the decrement orders after this worker's child
        // publications, so the counter can only reach zero once every
        // consequence of the retired entries is itself accounted.
        self.live.fetch_sub(n, Ordering::AcqRel);
    }

    /// Whether every published entry has been retired. Once true with all
    /// producers quiescent, it stays true — workers may exit.
    pub fn quiescent(&self) -> bool {
        // ordering: Acquire — pairs with the AcqRel counter updates so a
        // worker that observes zero also observes the retired entries'
        // effects (delivered packets) before exiting.
        self.live.load(Ordering::Acquire) == 0
    }

    /// Snapshot of the in-flight count (diagnostics only; transient).
    pub fn in_flight(&self) -> usize {
        // ordering: Relaxed — diagnostic read, no decision is made on it.
        self.live.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pending_counts_through_zero_once() {
        let p: Pending = Pending::new(2);
        assert!(!p.quiescent());
        p.publish(3);
        assert_eq!(p.in_flight(), 5);
        p.retire(2);
        assert!(!p.quiescent());
        p.retire(3);
        assert!(p.quiescent());
    }
}
