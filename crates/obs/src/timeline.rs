//! Windowed time-series over the metrics registry.
//!
//! The registry's [`Snapshot`](crate::Snapshot) model merges per-thread
//! shards on read and yields end-of-run totals — perfect for Table 2/3
//! style aggregates, useless for "how many deliveries were lost *during*
//! the failure window?". A [`Timeline`] answers that: the harness calls
//! [`close_window`](Timeline::close_window) once per logical tick (a
//! replay window, a churn batch — the tick is whatever unit the driver
//! chooses, never wall-clock time), and each call captures the *delta*
//! of every counter since the previous window plus the absolute value of
//! every gauge. Windows land in a fixed-capacity ring (oldest evicted,
//! eviction counted), and export as `timeline.jsonl` — one self-
//! describing JSON object per line.
//!
//! Determinism: windows are indexed by tick number, not timestamps, and
//! the content is a pure function of the registry, so a timeline from a
//! deterministic replay is itself byte-reproducible.

use std::collections::BTreeMap;

use crate::json::JsonValue;
use crate::registry::Snapshot;

fn timeline_metrics() -> &'static (crate::Counter, crate::Counter) {
    static M: std::sync::OnceLock<(crate::Counter, crate::Counter)> = std::sync::OnceLock::new();
    M.get_or_init(|| {
        (
            crate::counter("timeline.windows_closed"),
            crate::counter("timeline.windows_evicted"),
        )
    })
}

/// One closed window: counter deltas over the tick plus gauge values at
/// close. Counters that did not move are omitted (absent = 0).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct TimelineWindow {
    /// Tick index, starting at 0 for the first closed window.
    pub index: u64,
    /// Counter increments during this window (nonzero only).
    pub counters: BTreeMap<String, u64>,
    /// Gauge values when the window closed.
    pub gauges: BTreeMap<String, u64>,
}

impl TimelineWindow {
    /// Counter delta by name (0 when the counter did not move).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// Serialize as one compact JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        let map_obj = |m: &BTreeMap<String, u64>| {
            JsonValue::Object(
                m.iter()
                    .map(|(k, v)| (k.clone(), JsonValue::U64(*v)))
                    .collect(),
            )
        };
        let mut doc = BTreeMap::new();
        doc.insert("elmo_timeline".to_string(), JsonValue::U64(1));
        doc.insert("window".to_string(), JsonValue::U64(self.index));
        doc.insert("counters".to_string(), map_obj(&self.counters));
        doc.insert("gauges".to_string(), map_obj(&self.gauges));
        JsonValue::Object(doc).to_string_compact()
    }

    /// Parse one JSONL line produced by [`to_json`](Self::to_json).
    /// Lossless on valid documents.
    pub fn from_json(text: &str) -> Result<TimelineWindow, String> {
        let doc = JsonValue::parse(text)?;
        let obj = doc.as_object().ok_or("timeline window must be an object")?;
        match obj.get("elmo_timeline").and_then(|v| v.as_u64()) {
            Some(1) => {}
            _ => return Err("missing or unsupported elmo_timeline version".to_string()),
        }
        let index = obj
            .get("window")
            .and_then(|v| v.as_u64())
            .ok_or("window must be a u64")?;
        let read_map = |key: &str| -> Result<BTreeMap<String, u64>, String> {
            let m = obj
                .get(key)
                .and_then(|v| v.as_object())
                .ok_or_else(|| format!("{key} must be an object"))?;
            let mut out = BTreeMap::new();
            for (k, v) in m {
                out.insert(
                    k.clone(),
                    v.as_u64()
                        .ok_or_else(|| format!("{key}.{k} must be a u64"))?,
                );
            }
            Ok(out)
        };
        Ok(TimelineWindow {
            index,
            counters: read_map("counters")?,
            gauges: read_map("gauges")?,
        })
    }
}

/// Ring-buffered per-window registry snapshots.
#[derive(Debug)]
pub struct Timeline {
    capacity: usize,
    base: Snapshot,
    windows: Vec<TimelineWindow>,
    /// Ring start within `windows` once at capacity.
    head: usize,
    next_index: u64,
    evicted: u64,
}

impl Timeline {
    /// Start a timeline keeping at most `capacity` windows (min 1). The
    /// current registry state becomes the baseline for window 0.
    pub fn start(capacity: usize) -> Timeline {
        Timeline {
            capacity: capacity.max(1),
            base: crate::snapshot(),
            windows: Vec::new(),
            head: 0,
            next_index: 0,
            evicted: 0,
        }
    }

    /// Close the current window: diff the registry against the previous
    /// close, append the delta window, and advance the baseline.
    pub fn close_window(&mut self) -> TimelineWindow {
        let now = crate::snapshot();
        let mut counters = BTreeMap::new();
        for (name, &v) in &now.counters {
            let before = self.base.counter(name).unwrap_or(0);
            let delta = v.saturating_sub(before);
            if delta > 0 {
                counters.insert(name.clone(), delta);
            }
        }
        let window = TimelineWindow {
            index: self.next_index,
            counters,
            gauges: now.gauges.clone(),
        };
        self.next_index += 1;
        self.base = now;
        if self.windows.len() < self.capacity {
            self.windows.push(window.clone());
        } else {
            self.windows[self.head] = window.clone();
            self.head = (self.head + 1) % self.windows.len();
            self.evicted += 1;
            timeline_metrics().1.inc();
        }
        timeline_metrics().0.inc();
        window
    }

    /// Windows currently held, oldest first.
    pub fn windows(&self) -> Vec<TimelineWindow> {
        let mut out = Vec::with_capacity(self.windows.len());
        out.extend_from_slice(&self.windows[self.head..]);
        out.extend_from_slice(&self.windows[..self.head]);
        out
    }

    /// Total windows ever closed.
    pub fn closed(&self) -> u64 {
        self.next_index
    }

    /// Windows lost to ring eviction.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Serialize every held window as JSONL (one line per window).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for w in self.windows() {
            out.push_str(&w.to_json());
            out.push('\n');
        }
        out
    }

    /// Write [`to_jsonl`](Self::to_jsonl) to `path`.
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_capture_counter_deltas_not_totals() {
        let _recording = crate::registry::recording_lock();
        let c = crate::counter("timeline.test.delta_counter");
        c.add(5);
        let mut tl = Timeline::start(8);
        c.add(3);
        let w0 = tl.close_window();
        assert_eq!(w0.counter("timeline.test.delta_counter"), 3);
        let w1 = tl.close_window();
        assert_eq!(w1.counter("timeline.test.delta_counter"), 0);
        assert!(!w1.counters.contains_key("timeline.test.delta_counter"));
        c.add(7);
        let w2 = tl.close_window();
        assert_eq!(w2.counter("timeline.test.delta_counter"), 7);
        assert_eq!(tl.closed(), 3);
    }

    #[test]
    fn ring_evicts_oldest_and_counts() {
        let c = crate::counter("timeline.test.ring_counter");
        let mut tl = Timeline::start(2);
        for _ in 0..5 {
            c.inc();
            tl.close_window();
        }
        assert_eq!(tl.evicted(), 3);
        let held = tl.windows();
        assert_eq!(held.len(), 2);
        assert_eq!(held[0].index, 3);
        assert_eq!(held[1].index, 4);
    }

    #[test]
    fn gauges_are_absolute_per_window() {
        let _recording = crate::registry::recording_lock();
        let g = crate::gauge("timeline.test.gauge");
        let mut tl = Timeline::start(4);
        g.set(11);
        let w0 = tl.close_window();
        assert_eq!(w0.gauge("timeline.test.gauge"), Some(11));
        g.set(4);
        let w1 = tl.close_window();
        assert_eq!(w1.gauge("timeline.test.gauge"), Some(4));
    }

    #[test]
    fn window_json_round_trip_is_lossless() {
        let mut w = TimelineWindow {
            index: 7,
            ..TimelineWindow::default()
        };
        w.counters.insert("a.b".to_string(), 3);
        w.counters.insert("c".to_string(), u64::MAX);
        w.gauges.insert("g".to_string(), 12);
        let line = w.to_json();
        assert!(!line.contains('\n'));
        let back = TimelineWindow::from_json(&line).expect("valid line parses");
        assert_eq!(back, w);
        assert_eq!(back.to_json(), line);
    }

    #[test]
    fn window_json_rejects_garbage() {
        assert!(TimelineWindow::from_json("").is_err());
        assert!(TimelineWindow::from_json("{\"elmo_timeline\":9}").is_err());
        assert!(
            TimelineWindow::from_json("{\"elmo_timeline\":1,\"window\":0,\"counters\":[]}")
                .is_err()
        );
    }

    #[test]
    fn jsonl_has_one_line_per_window() {
        let c = crate::counter("timeline.test.jsonl_counter");
        let mut tl = Timeline::start(8);
        for _ in 0..3 {
            c.inc();
            tl.close_window();
        }
        let jsonl = tl.to_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        for line in jsonl.lines() {
            TimelineWindow::from_json(line).expect("every line parses");
        }
    }
}
