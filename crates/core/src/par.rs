//! Minimal scoped-thread fork/join helpers (std only).
//!
//! The encode pipeline fans out per-group work across a worker pool with
//! `std::thread::scope` — no external threadpool crate, no unsafe. Work is
//! claimed from a shared atomic cursor in small contiguous batches, each
//! worker keeps its results in a local `Vec<(index, value)>`, and the
//! caller merges them back into index order after the joins. Output is a
//! plain `Vec<T>` in input order, so downstream sequential folds see the
//! same order at any thread count.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolve a requested thread count: `0` means "all available cores".
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Map `f` over indices `0..n` using up to `threads` workers, giving each
/// worker its own scratch state built by `init`.
///
/// With `threads <= 1` this runs inline on the caller's thread with zero
/// synchronization — the sequential path is the parallel path, so results
/// are identical by construction. The returned vector is always in index
/// order regardless of which worker computed which element.
pub fn parallel_map_with<S, T, I, F>(n: usize, threads: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let threads = resolve_threads(threads).min(n.max(1));
    if threads <= 1 {
        let mut scratch = init();
        return (0..n).map(|i| f(&mut scratch, i)).collect();
    }

    // Claim batches big enough to amortize the atomic, small enough to
    // balance uneven per-item cost.
    let claim = (n / (threads * 32)).clamp(1, 64);
    let cursor = AtomicUsize::new(0);

    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut scratch = init();
                    let mut local: Vec<(usize, T)> = Vec::new();
                    loop {
                        // ordering: Relaxed — the cursor only partitions
                        // indices; results flow back through the scope
                        // join, which is the synchronization point.
                        let start = cursor.fetch_add(claim, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        let end = (start + claim).min(n);
                        for i in start..end {
                            local.push((i, f(&mut scratch, i)));
                        }
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            for (i, v) in h.join().expect("worker panicked") {
                slots[i] = Some(v);
            }
        }
    });

    slots
        .into_iter()
        .map(|s| s.expect("all indices computed"))
        .collect()
}

/// [`parallel_map_with`] without per-worker scratch.
pub fn parallel_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_map_with(n, threads, || (), |(), i| f(i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_index_order() {
        for threads in [1, 2, 8] {
            let out = parallel_map(100, threads, |i| i * 3);
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn scratch_is_per_worker() {
        // Each worker's scratch accumulates independently; results must not
        // depend on which worker ran which index.
        for threads in [1, 4] {
            let out = parallel_map_with(50, threads, Vec::<usize>::new, |scratch, i| {
                scratch.push(i);
                i + 1
            });
            assert_eq!(out, (1..=50).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_input() {
        let out = parallel_map(0, 8, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items() {
        let out = parallel_map(3, 16, |i| i * i);
        assert_eq!(out, vec![0, 1, 4]);
    }

    #[test]
    fn resolve_zero_is_positive() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(5), 5);
    }
}
