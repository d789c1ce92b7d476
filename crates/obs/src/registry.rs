//! The global metrics registry: counters, gauges, and histograms.
//!
//! Recording is sharded per thread. Each thread lazily registers one
//! [`Shard`] — a fixed-size slab of `AtomicU64` slots — into a global
//! list, then records into it with relaxed atomics and **no locking** on
//! the hot path (the only lock is taken once per thread lifetime, at
//! shard registration, and once per metric name, at handle registration;
//! call sites cache handles in `OnceLock`s). [`snapshot`] merges all
//! shards on read. Shards of exited threads stay in the list (they are
//! `Arc`-kept), so no count is ever lost.
//!
//! Determinism: every sharded slot is a commutative sum (counter adds,
//! histogram bucket/count/sum adds) or an order-free bound (histogram
//! min/max), so a merged snapshot of the same work is identical at any
//! thread count and interleaving. Gauges are last-write-wins and live in
//! one global slab — set them from sequential code only. Nothing in this
//! module is ever read back by instrumented code, so metrics cannot feed
//! into results.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::hist::{bucket_index, bucket_value, N_BUCKETS};
use crate::json::JsonValue;

/// Capacity limits. Registration past a limit returns a dead handle that
/// records nothing (and logs one warning) rather than failing.
const MAX_COUNTERS: usize = 256;
const MAX_GAUGES: usize = 64;
const MAX_HISTS: usize = 64;

/// Per-histogram slot layout inside a shard: count, sum, min, max, then
/// one slot per bucket.
const HIST_STRIDE: usize = 4 + N_BUCKETS;
const H_COUNT: usize = 0;
const H_SUM: usize = 1;
const H_MIN: usize = 2;
const H_MAX: usize = 3;
const H_BUCKET0: usize = 4;

/// Dead-handle sentinel: recording through it is a no-op.
const DEAD: u16 = u16::MAX;

/// One thread's private recording slab.
struct Shard {
    counters: Vec<AtomicU64>,
    hists: Vec<AtomicU64>,
}

impl Shard {
    fn new() -> Shard {
        let mut counters = Vec::with_capacity(MAX_COUNTERS);
        counters.resize_with(MAX_COUNTERS, || AtomicU64::new(0));
        let mut hists = Vec::with_capacity(MAX_HISTS * HIST_STRIDE);
        hists.resize_with(MAX_HISTS * HIST_STRIDE, || AtomicU64::new(0));
        // Min slots start at MAX so fetch_min works from the first record.
        // ordering: shard not yet shared; Relaxed is trivially enough.
        for h in 0..MAX_HISTS {
            hists[h * HIST_STRIDE + H_MIN].store(u64::MAX, Ordering::Relaxed);
        }
        Shard { counters, hists }
    }

    fn reset(&self) {
        // ordering: statistics cells publish no other memory; callers reset
        // between runs, when recorders are quiescent.
        for c in &self.counters {
            c.store(0, Ordering::Relaxed);
        }
        for h in 0..MAX_HISTS {
            for s in 0..HIST_STRIDE {
                let init = if s == H_MIN { u64::MAX } else { 0 };
                // ordering: see the counter reset above.
                self.hists[h * HIST_STRIDE + s].store(init, Ordering::Relaxed);
            }
        }
    }
}

/// Name tables: index in the vector is the handle id.
#[derive(Default)]
struct Names {
    counters: Vec<String>,
    gauges: Vec<String>,
    hists: Vec<String>,
}

struct Registry {
    names: Mutex<Names>,
    gauges: Vec<AtomicU64>,
    shards: Mutex<Vec<Arc<Shard>>>,
    enabled: AtomicBool,
}

fn registry() -> &'static Registry {
    static R: OnceLock<Registry> = OnceLock::new();
    R.get_or_init(|| {
        let mut gauges = Vec::with_capacity(MAX_GAUGES);
        gauges.resize_with(MAX_GAUGES, || AtomicU64::new(0));
        Registry {
            names: Mutex::new(Names::default()),
            gauges,
            shards: Mutex::new(Vec::new()),
            enabled: AtomicBool::new(true),
        }
    })
}

thread_local! {
    static SHARD: Arc<Shard> = {
        let shard = Arc::new(Shard::new());
        registry()
            .shards
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Arc::clone(&shard));
        shard
    };
}

fn lock_names() -> std::sync::MutexGuard<'static, Names> {
    registry().names.lock().unwrap_or_else(|e| e.into_inner())
}

fn register(table: &mut Vec<String>, name: &str, cap: usize, kind: &str) -> u16 {
    if let Some(i) = table.iter().position(|n| n == name) {
        return i as u16;
    }
    if table.len() >= cap {
        crate::warn!("obs.registry_full", kind = kind, name = name);
        return DEAD;
    }
    table.push(name.to_string());
    (table.len() - 1) as u16
}

/// Whether recording is enabled (default: yes).
pub fn enabled() -> bool {
    // ordering: standalone on/off flag; publishes no other memory.
    registry().enabled.load(Ordering::Relaxed)
}

/// Turn recording on or off globally. Handles stay valid either way; a
/// disabled registry makes every record a single relaxed load.
pub fn set_enabled(on: bool) {
    // ordering: standalone on/off flag; a racing record may slip through
    // once, which snapshot consumers tolerate.
    registry().enabled.store(on, Ordering::Relaxed);
}

/// Zero every counter, gauge, and histogram (names and handles survive).
/// For tests and CLI runs that want a per-run snapshot.
pub fn reset() {
    let reg = registry();
    // ordering: statistics cells publish no other memory; reset runs
    // between runs, when recorders are quiescent.
    for g in &reg.gauges {
        g.store(0, Ordering::Relaxed);
    }
    for shard in reg.shards.lock().unwrap_or_else(|e| e.into_inner()).iter() {
        shard.reset();
    }
}

// ----- handles ---------------------------------------------------------------

/// A monotonically increasing sum, sharded per thread.
#[derive(Clone, Copy, Debug)]
pub struct Counter(u16);

impl Counter {
    /// Add `n`.
    #[inline]
    pub fn add(self, n: u64) {
        if self.0 == DEAD || n == 0 || !enabled() {
            return;
        }
        // ordering: monotonic statistic, aggregated only at snapshot time
        // after recorders quiesce; publishes no other memory.
        SHARD.with(|s| s.counters[self.0 as usize].fetch_add(n, Ordering::Relaxed));
    }

    /// Add 1.
    #[inline]
    pub fn inc(self) {
        self.add(1);
    }
}

/// A last-write-wins value. Global, not sharded: set it from sequential
/// code only (parallel writers would race nondeterministically).
#[derive(Clone, Copy, Debug)]
pub struct Gauge(u16);

impl Gauge {
    /// Set the value.
    #[inline]
    pub fn set(self, v: u64) {
        if self.0 == DEAD || !enabled() {
            return;
        }
        // ordering: last-write-wins statistic set from sequential code;
        // publishes no other memory.
        registry().gauges[self.0 as usize].store(v, Ordering::Relaxed);
    }
}

/// A log-linear value distribution, sharded per thread.
#[derive(Clone, Copy, Debug)]
pub struct Histogram(u16);

impl Histogram {
    /// Record one value.
    #[inline]
    pub fn record(self, v: u64) {
        if self.0 == DEAD || !enabled() {
            return;
        }
        SHARD.with(|s| {
            let base = self.0 as usize * HIST_STRIDE;
            // ordering: per-thread statistic slots, aggregated only at
            // snapshot time after recorders quiesce.
            s.hists[base + H_COUNT].fetch_add(1, Ordering::Relaxed);
            s.hists[base + H_SUM].fetch_add(v, Ordering::Relaxed);
            s.hists[base + H_MIN].fetch_min(v, Ordering::Relaxed);
            s.hists[base + H_MAX].fetch_max(v, Ordering::Relaxed);
            s.hists[base + H_BUCKET0 + bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        });
    }
}

/// Register (or look up) a counter by name.
pub fn counter(name: &str) -> Counter {
    Counter(register(
        &mut lock_names().counters,
        name,
        MAX_COUNTERS,
        "counter",
    ))
}

/// Register (or look up) a gauge by name.
pub fn gauge(name: &str) -> Gauge {
    Gauge(register(
        &mut lock_names().gauges,
        name,
        MAX_GAUGES,
        "gauge",
    ))
}

/// Register (or look up) a histogram by name.
pub fn histogram(name: &str) -> Histogram {
    Histogram(register(
        &mut lock_names().hists,
        name,
        MAX_HISTS,
        "histogram",
    ))
}

// ----- snapshots -------------------------------------------------------------

/// Merged view of one histogram.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct HistSnapshot {
    pub count: u64,
    pub sum: u64,
    /// Exact smallest / largest recorded value; `None` when empty.
    pub min: Option<u64>,
    pub max: Option<u64>,
    /// Non-empty buckets as `(bucket index, count)`, index-sorted.
    pub buckets: Vec<(usize, u64)>,
}

impl HistSnapshot {
    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile (`q` in 0..=1): the representative value of
    /// the bucket holding the rank, clamped to the exact min/max.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.count - 1) as f64).round() as u64;
        let mut cum = 0u64;
        for &(idx, c) in &self.buckets {
            cum += c;
            if cum > rank {
                let v = bucket_value(idx);
                return v.clamp(self.min.unwrap_or(v), self.max.unwrap_or(v));
            }
        }
        self.max.unwrap_or(0)
    }
}

/// A point-in-time merge of every shard, name-keyed and order-stable.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Snapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, HistSnapshot>,
}

impl Snapshot {
    /// Counter value by name (`None` if never registered).
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistSnapshot> {
        self.histograms.get(name)
    }

    /// The snapshot restricted to deterministic metrics: drops `span.*`
    /// histograms (wall-clock timings vary run to run); everything else
    /// is a pure function of the work performed.
    pub fn deterministic(&self) -> Snapshot {
        let mut s = self.clone();
        s.histograms.retain(|name, _| !name.starts_with("span."));
        s
    }

    /// Serialize to the stable JSON document (`Self::from_json` inverts
    /// it losslessly).
    pub fn to_json(&self) -> String {
        let mut counters = BTreeMap::new();
        for (k, v) in &self.counters {
            counters.insert(k.clone(), JsonValue::U64(*v));
        }
        let mut gauges = BTreeMap::new();
        for (k, v) in &self.gauges {
            gauges.insert(k.clone(), JsonValue::U64(*v));
        }
        let mut hists = BTreeMap::new();
        for (k, h) in &self.histograms {
            let mut obj = BTreeMap::new();
            obj.insert("count".into(), JsonValue::U64(h.count));
            obj.insert("sum".into(), JsonValue::U64(h.sum));
            obj.insert("min".into(), h.min.map_or(JsonValue::Null, JsonValue::U64));
            obj.insert("max".into(), h.max.map_or(JsonValue::Null, JsonValue::U64));
            obj.insert(
                "buckets".into(),
                JsonValue::Array(
                    h.buckets
                        .iter()
                        .map(|&(i, c)| {
                            JsonValue::Array(vec![JsonValue::U64(i as u64), JsonValue::U64(c)])
                        })
                        .collect(),
                ),
            );
            hists.insert(k.clone(), JsonValue::Object(obj));
        }
        let mut root = BTreeMap::new();
        root.insert("elmo_obs".into(), JsonValue::U64(1));
        root.insert("counters".into(), JsonValue::Object(counters));
        root.insert("gauges".into(), JsonValue::Object(gauges));
        root.insert("histograms".into(), JsonValue::Object(hists));
        JsonValue::Object(root).pretty()
    }

    /// Parse a document produced by [`Self::to_json`].
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        let root = JsonValue::parse(text)?;
        let obj = root.as_object().ok_or("snapshot root must be an object")?;
        if obj.get("elmo_obs").and_then(|v| v.as_u64()) != Some(1) {
            return Err("missing or unsupported elmo_obs version".into());
        }
        let map_u64 = |key: &str| -> Result<BTreeMap<String, u64>, String> {
            let mut out = BTreeMap::new();
            let m = obj
                .get(key)
                .and_then(|v| v.as_object())
                .ok_or_else(|| format!("missing object field: {key}"))?;
            for (k, v) in m {
                out.insert(
                    k.clone(),
                    v.as_u64().ok_or_else(|| format!("{key}.{k} not a u64"))?,
                );
            }
            Ok(out)
        };
        let counters = map_u64("counters")?;
        let gauges = map_u64("gauges")?;
        let mut histograms = BTreeMap::new();
        let hists = obj
            .get("histograms")
            .and_then(|v| v.as_object())
            .ok_or("missing object field: histograms")?;
        for (k, v) in hists {
            let h = v
                .as_object()
                .ok_or_else(|| format!("histograms.{k} not an object"))?;
            let field = |f: &str| -> Result<u64, String> {
                h.get(f)
                    .and_then(|v| v.as_u64())
                    .ok_or_else(|| format!("histograms.{k}.{f} not a u64"))
            };
            let opt = |f: &str| -> Result<Option<u64>, String> {
                match h.get(f) {
                    None | Some(JsonValue::Null) => Ok(None),
                    Some(v) => v
                        .as_u64()
                        .map(Some)
                        .ok_or_else(|| format!("histograms.{k}.{f} not a u64")),
                }
            };
            let mut buckets = Vec::new();
            for b in h
                .get("buckets")
                .and_then(|v| v.as_array())
                .ok_or_else(|| format!("histograms.{k}.buckets not an array"))?
            {
                let pair = b
                    .as_array()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| format!("histograms.{k}.buckets entry not a pair"))?;
                let idx = pair[0]
                    .as_u64()
                    .filter(|&i| (i as usize) < N_BUCKETS)
                    .ok_or_else(|| format!("histograms.{k} bucket index out of range"))?;
                let c = pair[1]
                    .as_u64()
                    .ok_or_else(|| format!("histograms.{k} bucket count not a u64"))?;
                buckets.push((idx as usize, c));
            }
            histograms.insert(
                k.clone(),
                HistSnapshot {
                    count: field("count")?,
                    sum: field("sum")?,
                    min: opt("min")?,
                    max: opt("max")?,
                    buckets,
                },
            );
        }
        Ok(Snapshot {
            counters,
            gauges,
            histograms,
        })
    }
}

/// Merge every shard into a named snapshot.
pub fn snapshot() -> Snapshot {
    let reg = registry();
    let names = lock_names();
    let shards: Vec<Arc<Shard>> = reg.shards.lock().unwrap_or_else(|e| e.into_inner()).clone();

    let mut counters = BTreeMap::new();
    for (i, name) in names.counters.iter().enumerate() {
        // ordering: snapshot reads; recorders are quiescent by contract
        // (see module docs), so Relaxed observes final values.
        let total: u64 = shards
            .iter()
            .map(|s| s.counters[i].load(Ordering::Relaxed))
            .sum();
        counters.insert(name.clone(), total);
    }
    let mut gauges = BTreeMap::new();
    for (i, name) in names.gauges.iter().enumerate() {
        // ordering: snapshot read under the same quiescence contract.
        gauges.insert(name.clone(), reg.gauges[i].load(Ordering::Relaxed));
    }
    let mut histograms = BTreeMap::new();
    for (i, name) in names.hists.iter().enumerate() {
        let base = i * HIST_STRIDE;
        let mut h = HistSnapshot::default();
        let mut min = u64::MAX;
        let mut max = 0u64;
        let mut buckets = vec![0u64; N_BUCKETS];
        for s in &shards {
            // ordering: snapshot reads under the same quiescence contract.
            h.count += s.hists[base + H_COUNT].load(Ordering::Relaxed);
            h.sum += s.hists[base + H_SUM].load(Ordering::Relaxed);
            min = min.min(s.hists[base + H_MIN].load(Ordering::Relaxed));
            max = max.max(s.hists[base + H_MAX].load(Ordering::Relaxed));
            for (b, out) in buckets.iter_mut().enumerate() {
                // ordering: snapshot read under the same quiescence contract.
                *out += s.hists[base + H_BUCKET0 + b].load(Ordering::Relaxed);
            }
        }
        if h.count > 0 {
            h.min = Some(min);
            h.max = Some(max);
        }
        h.buckets = buckets
            .into_iter()
            .enumerate()
            .filter(|&(_, c)| c > 0)
            .collect();
        histograms.insert(name.clone(), h);
    }
    Snapshot {
        counters,
        gauges,
        histograms,
    }
}

/// Serializes this crate's tests that switch recording off or assert
/// exact registry values. Unique metric names keep concurrent tests out of
/// each other's counters, but not out of the one global on/off flag: a
/// record landing while another test has recording off is dropped.
#[cfg(test)]
pub(crate) fn recording_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tests share the process-global registry; each uses unique metric
    // names so concurrent test threads cannot interfere, and those that
    // toggle recording or read exact values hold `recording_lock`.

    #[test]
    fn counter_shards_merge_to_serial_total() {
        let _recording = recording_lock();
        let c = counter("test.reg.shard_sum");
        let threads: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        c.add(5);
        assert_eq!(snapshot().counter("test.reg.shard_sum"), Some(8005));
    }

    #[test]
    fn histogram_parallel_merge_equals_serial_recording() {
        let _recording = recording_lock();
        let par = histogram("test.reg.hist_par");
        let ser = histogram("test.reg.hist_ser");
        let values: Vec<u64> = (0..4000).map(|i| (i * i) % 7919).collect();
        // Parallel: 4 threads, interleaved striding.
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let vs = values.clone();
                std::thread::spawn(move || {
                    for v in vs.iter().skip(t).step_by(4) {
                        par.record(*v);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        for &v in &values {
            ser.record(v);
        }
        let snap = snapshot();
        let p = snap.histogram("test.reg.hist_par").unwrap();
        let s = snap.histogram("test.reg.hist_ser").unwrap();
        assert_eq!(p, s, "sharded merge must equal serial recording");
        assert_eq!(p.count, 4000);
        assert_eq!(p.min, Some(*values.iter().min().unwrap()));
        assert_eq!(p.max, Some(*values.iter().max().unwrap()));
    }

    #[test]
    fn quantiles_on_uniform_values() {
        let _recording = recording_lock();
        let h = histogram("test.reg.quantiles");
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = snapshot();
        let hs = snap.histogram("test.reg.quantiles").unwrap();
        assert_eq!(hs.count, 1000);
        assert_eq!(hs.sum, 500_500);
        assert!((hs.mean() - 500.5).abs() < 1e-9);
        for (q, want) in [(0.0, 1.0), (0.5, 500.0), (0.9, 900.0), (1.0, 1000.0)] {
            let got = hs.quantile(q) as f64;
            assert!(
                (got - want).abs() <= want * 0.13 + 1.0,
                "q={q} got={got} want~{want}"
            );
        }
    }

    #[test]
    fn empty_histogram_snapshot() {
        let _ = histogram("test.reg.empty");
        let snap = snapshot();
        let h = snap.histogram("test.reg.empty").unwrap();
        assert_eq!(h.count, 0);
        assert_eq!(h.min, None);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn gauges_hold_last_write() {
        let _recording = recording_lock();
        let g = gauge("test.reg.gauge");
        g.set(7);
        g.set(42);
        assert_eq!(snapshot().gauges.get("test.reg.gauge"), Some(&42));
    }

    #[test]
    fn same_name_returns_same_handle() {
        let _recording = recording_lock();
        let a = counter("test.reg.same");
        let b = counter("test.reg.same");
        a.inc();
        b.inc();
        assert_eq!(snapshot().counter("test.reg.same"), Some(2));
    }

    #[test]
    fn snapshot_json_roundtrip() {
        let c = counter("test.reg.rt_counter");
        c.add(123);
        gauge("test.reg.rt_gauge").set(9);
        let h = histogram("test.reg.rt_hist");
        for v in [0, 1, 7, 8, 100, 5000, u64::MAX] {
            h.record(v);
        }
        let snap = snapshot();
        let parsed = Snapshot::from_json(&snap.to_json()).expect("parses");
        assert_eq!(parsed, snap);
    }

    #[test]
    fn deterministic_view_drops_span_timings() {
        histogram("span.test_reg_ns").record(5);
        histogram("test.reg.kept").record(5);
        let d = snapshot().deterministic();
        assert!(!d.histograms.contains_key("span.test_reg_ns"));
        assert!(d.histograms.contains_key("test.reg.kept"));
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let _recording = recording_lock();
        let c = counter("test.reg.disabled");
        set_enabled(false);
        c.add(100);
        set_enabled(true);
        c.add(1);
        assert_eq!(snapshot().counter("test.reg.disabled"), Some(1));
    }
}
