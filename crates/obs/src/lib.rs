//! # elmo-obs — zero-dependency observability
//!
//! The measurement substrate for the whole workspace (std only; the
//! workspace keeps building offline). Four layers:
//!
//! * **Metrics** ([`registry`]) — a global registry of named counters,
//!   gauges, and log-linear [`histogram`]s. Recording is sharded per
//!   thread: each thread owns a private slab of relaxed atomics, so the
//!   sweep's per-R jobs record without taking any lock, and [`snapshot`]
//!   merges the shards on read. Because counters and
//!   histogram buckets are commutative sums — and because nothing in the
//!   instrumented code ever *reads* the registry — enabling metrics can
//!   never change encoding output (asserted by
//!   `tests/parallel_determinism.rs` at the workspace root).
//! * **Spans** ([`span!`]) — RAII wall-clock timers feeding `span.*_ns`
//!   histograms, the per-phase timing profile that `elmo-eval
//!   --metrics-out` snapshots carry.
//! * **Events** ([`error!`]/[`warn!`]/[`info!`]/[`debug!`]/[`trace!`]) —
//!   structured, leveled logging with key=value fields; human-readable
//!   on stderr by default, JSONL with [`set_format`].
//! * **Export** ([`Snapshot`]) — metrics serialize to a stable JSON
//!   document and parse back losslessly ([`Snapshot::from_json`]), so
//!   sims and CI can diff runs.
//! * **Tracing** ([`trace`]) — causal copy-tree trace events, the tree
//!   builder behind `elmo-eval trace`, and the flight recorder;
//!   [`timeline`] adds ring-buffered per-window registry snapshots for
//!   time-resolved replay/failure runs. Both derive every id from
//!   (packet index, switch id) — never wall clocks — so traced runs are
//!   bit-reproducible.
#![forbid(unsafe_code)]

pub mod hist;
pub mod json;
pub mod log;
pub mod registry;
pub mod span;
pub mod timeline;
pub mod trace;

pub use hist::{bucket_hi, bucket_index, bucket_lo, bucket_value, N_BUCKETS};
pub use json::JsonValue;
pub use log::{set_format, set_level, FieldValue, Format, Level};
pub use registry::{
    counter, gauge, histogram, reset, set_enabled, snapshot, Counter, Gauge, HistSnapshot,
    Histogram, Snapshot,
};
pub use span::Span;
pub use timeline::{Timeline, TimelineWindow};
pub use trace::{
    sort_events, CopyTree, FlightRecorder, TraceEvent, TraceNode, HOST_NODE_BIT, TRACE_ROOT,
};
