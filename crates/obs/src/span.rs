//! RAII wall-clock span timers.
//!
//! A [`Span`] records elapsed nanoseconds into a histogram when dropped.
//! The [`span!`](crate::span!) macro names the histogram `span.<name>_ns`
//! and caches the handle in a per-call-site `OnceLock`, so a timed scope
//! costs two `Instant` reads plus one histogram record.
//!
//! Span histograms are *wall-clock* measurements — inherently
//! nondeterministic — which is why they live under the reserved `span.`
//! prefix that [`Snapshot::deterministic`](crate::Snapshot::deterministic)
//! strips before any reproducibility comparison.

use std::time::Instant;

use crate::registry::Histogram;

/// An in-flight timed scope; records on drop.
#[must_use = "a span records its timing when dropped; binding to _ drops immediately"]
pub struct Span {
    hist: Histogram,
    start: Instant,
}

impl Span {
    /// Start timing into `hist` now.
    pub fn start(hist: Histogram) -> Span {
        Span {
            hist,
            start: Instant::now(),
        }
    }

    /// Elapsed nanoseconds so far (saturating at `u64::MAX`).
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.hist.record(self.elapsed_ns());
    }
}

/// Time the enclosing scope: `let _span = span!("encode_group");`
/// records into the `span.encode_group_ns` histogram at scope exit.
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        static HIST: std::sync::OnceLock<$crate::registry::Histogram> = std::sync::OnceLock::new();
        $crate::span::Span::start(
            *HIST.get_or_init(|| $crate::registry::histogram(concat!("span.", $name, "_ns"))),
        )
    }};
}

#[cfg(test)]
mod tests {
    use crate::registry::{histogram, snapshot};

    #[test]
    fn span_records_on_drop() {
        let _recording = crate::registry::recording_lock();
        {
            let _span = crate::span!("test_span_unit");
            std::hint::black_box(1 + 1);
        }
        let snap = snapshot();
        let h = snap
            .histogram("span.test_span_unit_ns")
            .expect("registered");
        assert!(h.count >= 1);
    }

    #[test]
    fn explicit_start_records_elapsed() {
        let _recording = crate::registry::recording_lock();
        let h = histogram("span.test_span_explicit_ns");
        let before = snapshot()
            .histogram("span.test_span_explicit_ns")
            .map_or(0, |s| s.count);
        drop(crate::span::Span::start(h));
        let after = snapshot()
            .histogram("span.test_span_explicit_ns")
            .unwrap()
            .count;
        assert_eq!(after, before + 1);
    }
}
