//! The benchmark's own span recorder.
//!
//! `elmo_obs::span!` keeps a histogram per name but no start, end or
//! parent, so it cannot say how much of an operation a layer accounts
//! for. This recorder keeps every span in a preallocated `Vec` and works
//! out self time afterwards: a span's duration minus the part its
//! children cover. One thread records, so children of one parent never
//! overlap and "covered" is the plain sum of their durations.
//!
//! The untraced run holds a recorder that is switched off: `enter` and
//! `exit` are then one predictable branch and no clock read.

use std::io::Write;
use std::time::Instant;

use crate::sut::JsonValue;

/// Span names. `Op*` are roots (one per timed operation); the rest are the
/// calls into one layer made while serving it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Name {
    OpGroup,
    OpEvent,
    OpChunk,
    ControllerCreate,
    ControllerEvent,
    ControllerHeaderFor,
    NetswitchSruleInstall,
    NetswitchSruleRemove,
    HypervisorSubscribe,
    HypervisorFlowBuild,
    HypervisorFlowInstall,
    HypervisorEncap,
    PacketParse,
    ShardReplay,
    Deliver,
}

impl Name {
    pub const ALL: [Name; 15] = [
        Name::OpGroup,
        Name::OpEvent,
        Name::OpChunk,
        Name::ControllerCreate,
        Name::ControllerEvent,
        Name::ControllerHeaderFor,
        Name::NetswitchSruleInstall,
        Name::NetswitchSruleRemove,
        Name::HypervisorSubscribe,
        Name::HypervisorFlowBuild,
        Name::HypervisorFlowInstall,
        Name::HypervisorEncap,
        Name::PacketParse,
        Name::ShardReplay,
        Name::Deliver,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Name::OpGroup => "op.group",
            Name::OpEvent => "op.event",
            Name::OpChunk => "op.chunk",
            Name::ControllerCreate => "controller.create",
            Name::ControllerEvent => "controller.event",
            Name::ControllerHeaderFor => "controller.header_for",
            Name::NetswitchSruleInstall => "netswitch.srule_install",
            Name::NetswitchSruleRemove => "netswitch.srule_remove",
            Name::HypervisorSubscribe => "hypervisor.subscribe",
            Name::HypervisorFlowBuild => "hypervisor.flow_build",
            Name::HypervisorFlowInstall => "hypervisor.flow_install",
            Name::HypervisorEncap => "hypervisor.encap",
            Name::PacketParse => "packet.parse",
            Name::ShardReplay => "shard.replay",
            Name::Deliver => "deliver",
        }
    }

    pub fn is_root(self) -> bool {
        matches!(self, Name::OpGroup | Name::OpEvent | Name::OpChunk)
    }
}

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: Name,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, [`NO_PARENT`] for a root.
    pub parent: u32,
    /// Spans of one operation share its id.
    pub op_id: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op_id: u32,
}

impl Recorder {
    /// A recorder that records nothing (the untraced run).
    pub fn off() -> Self {
        Recorder {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op_id: 0,
        }
    }

    /// A recording recorder with room for `capacity` spans before it has
    /// to grow. The buffer is written once here so that recording never
    /// takes a first-touch page fault inside somebody's span.
    pub fn on(capacity: usize) -> Self {
        let blank = Span {
            name: Name::OpGroup,
            start_ns: 0,
            end_ns: 0,
            parent: NO_PARENT,
            op_id: 0,
        };
        let mut spans = vec![blank; capacity];
        spans.clear();
        Recorder {
            on: true,
            origin: Instant::now(),
            spans,
            open: Vec::with_capacity(8),
            op_id: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    #[inline]
    pub fn enter(&mut self, name: Name) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        if parent == NO_PARENT {
            self.op_id += 1;
        }
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            op_id: self.op_id,
        });
        // Read the clock last so the bookkeeping above is charged to the
        // parent, not to this span.
        let now = self.origin.elapsed().as_nanos() as u64;
        if let Some(s) = self.spans.last_mut() {
            s.start_ns = now;
        }
    }

    #[inline]
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i as usize].end_ns = now;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Nanoseconds one `enter` + `exit` pair costs on this machine, from a
    /// scratch recorder: the basis of the tracing-overhead estimate.
    pub fn calibrate_pair_ns() -> f64 {
        const PAIRS: usize = 200_000;
        let mut rec = Recorder::on(PAIRS + 1);
        rec.enter(Name::OpGroup);
        let t = Instant::now();
        for _ in 0..PAIRS {
            rec.enter(Name::ControllerCreate);
            rec.exit();
        }
        let ns = t.elapsed().as_nanos() as f64;
        rec.exit();
        std::hint::black_box(rec.spans().len());
        ns / PAIRS as f64
    }

    /// Write the first `limit` spans, one JSON object per line. A traced
    /// run records millions of spans (hundreds of megabytes as text); the
    /// ledger is computed from all of them in memory, the file is for
    /// reading individual operations, so its head is enough. A final
    /// line says how many spans were recorded and how many written.
    pub fn write_jsonl(&self, path: &std::path::Path, limit: usize) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let written = self.spans.len().min(limit);
        for s in &self.spans[..written] {
            let parent = if s.parent == NO_PARENT {
                JsonValue::Null
            } else {
                JsonValue::U64(u64::from(s.parent))
            };
            let line = JsonValue::Object(
                [
                    ("name", JsonValue::String(s.name.as_str().into())),
                    ("start_ns", JsonValue::U64(s.start_ns)),
                    ("end_ns", JsonValue::U64(s.end_ns)),
                    ("parent", parent),
                    ("op_id", JsonValue::U64(u64::from(s.op_id))),
                ]
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            );
            writeln!(w, "{}", line.to_string_compact())?;
        }
        let tail = JsonValue::Object(
            [
                ("spans_recorded", self.spans.len()),
                ("spans_written", written),
            ]
            .into_iter()
            .map(|(k, v)| (k.to_string(), JsonValue::U64(v as u64)))
            .collect(),
        );
        writeln!(w, "{}", tail.to_string_compact())?;
        w.flush()
    }
}

/// Self time of every span: its duration minus what its direct children
/// cover. Children are recorded after their parent, so one forward pass
/// suffices.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            covered[s.parent as usize] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(&covered)
        .map(|(s, &c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Busy (self) time and span count of one name within one phase.
#[derive(Clone, Copy, Default, Debug, PartialEq)]
pub struct Busy {
    pub self_ns: u64,
    pub calls: u64,
}

/// The ledger of one phase: all spans whose operation has root `root`.
#[derive(Clone, Debug, Default)]
pub struct PhaseLedger {
    /// Sum of root span durations: the phase's wall time.
    pub wall_ns: u64,
    /// Self time of the roots: what no layer span accounts for.
    pub unattributed_ns: u64,
    pub ops: u64,
    /// Indexed by `Name as usize`.
    pub layers: Vec<Busy>,
    /// Durations (not self times) per name, for percentiles of a call.
    pub durs: Vec<Vec<u64>>,
}

impl PhaseLedger {
    pub fn busy(&self, n: Name) -> Busy {
        self.layers.get(n as usize).copied().unwrap_or_default()
    }

    pub fn unattributed_pct(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        100.0 * self.unattributed_ns as f64 / self.wall_ns as f64
    }

    /// The non-root layer with the most self time.
    pub fn largest_layer(&self) -> Option<Name> {
        Name::ALL
            .iter()
            .copied()
            .filter(|n| !n.is_root())
            .max_by_key(|&n| self.busy(n).self_ns)
    }
}

/// Split the recording into one ledger per root name. `keep_durs` names
/// the layers whose individual call durations are kept.
pub fn ledger(spans: &[Span], root: Name, keep_durs: &[Name]) -> PhaseLedger {
    let selfs = self_times(spans);
    let mut out = PhaseLedger {
        layers: vec![Busy::default(); Name::ALL.len()],
        durs: vec![Vec::new(); Name::ALL.len()],
        ..PhaseLedger::default()
    };
    // The root of each span, found through its parent (already resolved
    // because parents precede children).
    let mut root_of: Vec<Name> = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        let r = if s.parent == NO_PARENT {
            s.name
        } else {
            root_of[s.parent as usize]
        };
        root_of.push(r);
        if r != root {
            continue;
        }
        if s.parent == NO_PARENT {
            out.wall_ns += s.dur_ns();
            out.unattributed_ns += selfs[i];
            out.ops += 1;
        } else {
            let b = &mut out.layers[s.name as usize];
            b.self_ns += selfs[i];
            b.calls += 1;
            if keep_durs.contains(&s.name) {
                out.durs[s.name as usize].push(s.dur_ns());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: Name, start: u64, end: u64, parent: u32, op: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: op,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        // root 0..100
        //   create 10..40        (self 30 - 5 = 25)
        //     header_for 20..25  (nested, self 5)
        //   build 40..70         (adjacent to create, self 30)
        //   install 80..90       (gap before it stays with the root)
        let spans = vec![
            span(Name::OpGroup, 0, 100, NO_PARENT, 1),
            span(Name::ControllerCreate, 10, 40, 0, 1),
            span(Name::ControllerHeaderFor, 20, 25, 1, 1),
            span(Name::HypervisorFlowBuild, 40, 70, 0, 1),
            span(Name::HypervisorFlowInstall, 80, 90, 0, 1),
        ];
        assert_eq!(self_times(&spans), vec![30, 25, 5, 30, 10]);
        let l = ledger(&spans, Name::OpGroup, &[Name::ControllerCreate]);
        assert_eq!(l.wall_ns, 100);
        assert_eq!(l.unattributed_ns, 30);
        assert_eq!(l.ops, 1);
        assert_eq!(
            l.busy(Name::ControllerCreate),
            Busy {
                self_ns: 25,
                calls: 1
            }
        );
        // Self times of one operation add up to its wall time exactly.
        let layer_sum: u64 = l.layers.iter().map(|b| b.self_ns).sum();
        assert_eq!(layer_sum + l.unattributed_ns, l.wall_ns);
        assert!((l.unattributed_pct() - 30.0).abs() < 1e-9);
        // Durations, not self times, are kept for percentiles.
        assert_eq!(l.durs[Name::ControllerCreate as usize], vec![30]);
        assert_eq!(l.largest_layer(), Some(Name::HypervisorFlowBuild));
    }

    #[test]
    fn ledgers_split_by_root_and_count_calls() {
        let spans = vec![
            span(Name::OpGroup, 0, 10, NO_PARENT, 1),
            span(Name::ControllerCreate, 1, 9, 0, 1),
            span(Name::OpEvent, 10, 30, NO_PARENT, 2),
            span(Name::ControllerEvent, 11, 15, 2, 2),
            span(Name::HypervisorFlowBuild, 15, 20, 2, 2),
            span(Name::HypervisorFlowBuild, 20, 29, 2, 2),
        ];
        let g = ledger(&spans, Name::OpGroup, &[]);
        let e = ledger(&spans, Name::OpEvent, &[]);
        assert_eq!((g.wall_ns, g.ops), (10, 1));
        assert_eq!((e.wall_ns, e.ops), (20, 1));
        assert_eq!(g.busy(Name::HypervisorFlowBuild).calls, 0);
        assert_eq!(
            e.busy(Name::HypervisorFlowBuild),
            Busy {
                self_ns: 14,
                calls: 2
            }
        );
        assert_eq!(e.unattributed_ns, 2);
    }

    #[test]
    fn recorder_links_children_to_parents_and_ops() {
        let mut rec = Recorder::on(16);
        rec.enter(Name::OpGroup);
        rec.enter(Name::ControllerCreate);
        rec.exit();
        rec.enter(Name::HypervisorFlowBuild);
        rec.exit();
        rec.exit();
        rec.enter(Name::OpEvent);
        rec.exit();
        let s = rec.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, NO_PARENT);
        assert_eq!((s[1].parent, s[2].parent), (0, 0));
        assert_eq!(s[3].parent, NO_PARENT);
        assert_eq!(
            (s[0].op_id, s[1].op_id, s[2].op_id, s[3].op_id),
            (1, 1, 1, 2)
        );
        for x in s {
            assert!(x.end_ns >= x.start_ns);
        }
        assert!(s[1].start_ns >= s[0].start_ns && s[2].end_ns <= s[0].end_ns);
    }

    #[test]
    fn recorder_off_records_nothing() {
        let mut rec = Recorder::off();
        rec.enter(Name::OpGroup);
        rec.exit();
        assert!(rec.spans().is_empty());
    }
}
