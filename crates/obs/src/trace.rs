//! Causal copy-tree tracing: the event model, the tree builder, and the
//! flight recorder.
//!
//! A traced replay records one [`TraceEvent`] per *edge* of a packet's
//! replication tree — parent switch to child switch at every fabric hop,
//! parent switch to host at every delivery, and a synthetic root edge at
//! injection. Recording edges (rather than annotating queue entries with
//! parent pointers) keeps the hot-path cost to one branch plus a `Vec`
//! push and makes the trace independent of processing order: the multiset
//! of edges a replay produces is the same whether a batch went through in
//! one call or one packet at a time. [`sort_events`] puts any such
//! multiset into the one canonical order, so trace equality is plain
//! slice equality.
//!
//! Determinism: every identifier here derives from (packet index, dense
//! switch id). No wall clocks, no addresses, no randomness — the same
//! replay always yields byte-identical trace output, which is what lets
//! CI pin exact copy-tree node counts.
//!
//! This module is topology-agnostic: node ids are opaque `u32`s (a dense
//! switch id, or [`HOST_NODE_BIT`] | host id). The data plane supplies a
//! labeler when building a [`CopyTree`]; the controller supplies rule
//! attribution afterwards via [`CopyTree::annotate`].

use std::collections::BTreeMap;

use crate::json::JsonValue;

/// Sentinel parent id for the injection (root) edge of a packet's tree.
pub const TRACE_ROOT: u32 = u32::MAX;

/// High bit marking a node id as a host (`HOST_NODE_BIT | HostId`)
/// rather than a dense switch id.
pub const HOST_NODE_BIT: u32 = 1 << 31;

/// One edge of a packet's replication tree.
///
/// `Copy` and 16 bytes: cheap enough to push into a per-worker `Vec` or
/// a [`FlightRecorder`] ring from the replay hot loop without allocation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct TraceEvent {
    /// Packet index within the traced run (injection order).
    pub pkt: u32,
    /// Dense switch id of the parent, or [`TRACE_ROOT`] for injection.
    pub parent: u32,
    /// Dense switch id of the child, or [`HOST_NODE_BIT`] | host id.
    pub child: u32,
    /// The copy's pop depth entering the child ([`HOST_NODE_BIT`] children
    /// carry the sentinel depth the data plane uses for stripped copies).
    pub state: u8,
}

/// Sort an event multiset into the canonical order: by (packet, parent,
/// child, state). After this, traces of the same packets compare with
/// `==` however the replay was batched.
pub fn sort_events(events: &mut [TraceEvent]) {
    events.sort_unstable();
}

fn trace_metrics() -> &'static (crate::Counter, crate::Counter) {
    static M: std::sync::OnceLock<(crate::Counter, crate::Counter)> = std::sync::OnceLock::new();
    M.get_or_init(|| {
        (
            crate::counter("trace.trees_built"),
            crate::counter("trace.flight_recorder.dumps"),
        )
    })
}

/// One node of a built [`CopyTree`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceNode {
    /// Deterministic id: `(packet << 32) | node`.
    pub id: u64,
    /// Parent node id (`None` for the ingress switch).
    pub parent: Option<u64>,
    /// Raw node id: dense switch id or `HOST_NODE_BIT | host`.
    pub node: u32,
    /// Human label supplied by the builder (`"leaf:3"`, `"host:42"`, ...).
    pub label: String,
    /// Pop depth entering this node.
    pub state: u8,
    /// Match source resolved at this node ("p-rule", "s-rule",
    /// "default-p-rule", "deliver", ...). Empty until annotated.
    pub matched: String,
    /// Stable rule-attribution id from the controller's compiled state
    /// (e.g. `"g3/d-leaf/p0"`). Empty until annotated.
    pub rule: String,
}

/// A packet's full replication tree, built from its trace events.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct CopyTree {
    /// Packet index this tree belongs to.
    pub packet: u32,
    /// Nodes in deterministic preorder (children visited in ascending
    /// raw-node-id order, hosts after switches by construction of
    /// [`HOST_NODE_BIT`]).
    pub nodes: Vec<TraceNode>,
}

impl CopyTree {
    /// Build the tree for packet `pkt` from a traced event set, using
    /// `label` to render raw node ids. Events for other packets are
    /// ignored, so one traced batch can be split into per-packet trees.
    /// Returns an empty tree when the packet has no root event.
    pub fn build(pkt: u32, events: &[TraceEvent], label: impl Fn(u32) -> String) -> CopyTree {
        let mut children: BTreeMap<u32, Vec<(u32, u8)>> = BTreeMap::new();
        let mut root: Option<(u32, u8)> = None;
        for ev in events.iter().filter(|e| e.pkt == pkt) {
            if ev.parent == TRACE_ROOT {
                root = Some((ev.child, ev.state));
            } else {
                children
                    .entry(ev.parent)
                    .or_default()
                    .push((ev.child, ev.state));
            }
        }
        for kids in children.values_mut() {
            kids.sort_unstable();
        }
        let mut tree = CopyTree {
            packet: pkt,
            nodes: Vec::new(),
        };
        let Some((root_node, root_state)) = root else {
            return tree;
        };
        // Iterative preorder walk; `visit` guards against malformed event
        // sets that alias a node id (each node expanded at most once).
        let mut stack: Vec<(u32, Option<u64>, u8)> = vec![(root_node, None, root_state)];
        let mut visited: BTreeMap<u32, ()> = BTreeMap::new();
        while let Some((node, parent, state)) = stack.pop() {
            let id = ((pkt as u64) << 32) | node as u64;
            tree.nodes.push(TraceNode {
                id,
                parent,
                node,
                label: label(node),
                state,
                matched: String::new(),
                rule: String::new(),
            });
            if visited.insert(node, ()).is_some() {
                continue;
            }
            if let Some(kids) = children.get(&node) {
                // Push in reverse so the stack pops children in ascending
                // raw-id order, keeping preorder deterministic.
                for &(child, st) in kids.iter().rev() {
                    stack.push((child, Some(id), st));
                }
            }
        }
        trace_metrics().0.inc();
        tree
    }

    /// Host ids of every host-leaf node, ascending and deduplicated.
    /// For a correct trace these are exactly the delivered receivers.
    pub fn leaf_hosts(&self) -> Vec<u32> {
        let mut hosts: Vec<u32> = self
            .nodes
            .iter()
            .filter(|n| n.node & HOST_NODE_BIT != 0)
            .map(|n| n.node & !HOST_NODE_BIT)
            .collect();
        hosts.sort_unstable();
        hosts.dedup();
        hosts
    }

    /// Annotate every node in place with (match source, rule id).
    pub fn annotate(&mut self, mut f: impl FnMut(&TraceNode) -> (String, String)) {
        for i in 0..self.nodes.len() {
            let (matched, rule) = f(&self.nodes[i]);
            self.nodes[i].matched = matched;
            self.nodes[i].rule = rule;
        }
    }

    /// Serialize to the versioned JSON document `elmo-eval trace` emits.
    pub fn to_json(&self) -> String {
        let mut doc = BTreeMap::new();
        doc.insert("elmo_trace".to_string(), JsonValue::U64(1));
        doc.insert("packet".to_string(), JsonValue::U64(self.packet as u64));
        let nodes: Vec<JsonValue> = self
            .nodes
            .iter()
            .map(|n| {
                let mut o = BTreeMap::new();
                o.insert("id".to_string(), JsonValue::U64(n.id));
                o.insert(
                    "parent".to_string(),
                    match n.parent {
                        Some(p) => JsonValue::U64(p),
                        None => JsonValue::Null,
                    },
                );
                o.insert("node".to_string(), JsonValue::U64(n.node as u64));
                o.insert("label".to_string(), JsonValue::String(n.label.clone()));
                o.insert("state".to_string(), JsonValue::U64(n.state as u64));
                o.insert("matched".to_string(), JsonValue::String(n.matched.clone()));
                o.insert("rule".to_string(), JsonValue::String(n.rule.clone()));
                JsonValue::Object(o)
            })
            .collect();
        doc.insert("nodes".to_string(), JsonValue::Array(nodes));
        JsonValue::Object(doc).pretty()
    }

    /// Parse a document produced by [`to_json`](Self::to_json). Lossless:
    /// `from_json(t.to_json()) == t` for every valid tree.
    pub fn from_json(text: &str) -> Result<CopyTree, String> {
        let doc = JsonValue::parse(text)?;
        let obj = doc.as_object().ok_or("trace document must be an object")?;
        match obj.get("elmo_trace").and_then(|v| v.as_u64()) {
            Some(1) => {}
            _ => return Err("missing or unsupported elmo_trace version".to_string()),
        }
        let packet = obj
            .get("packet")
            .and_then(|v| v.as_u64())
            .and_then(|v| u32::try_from(v).ok())
            .ok_or("packet must be a u32")?;
        let raw_nodes = obj
            .get("nodes")
            .and_then(|v| v.as_array())
            .ok_or("nodes must be an array")?;
        let mut nodes = Vec::with_capacity(raw_nodes.len());
        for rn in raw_nodes {
            let o = rn.as_object().ok_or("node must be an object")?;
            let get_str = |k: &str| -> Result<String, String> {
                o.get(k)
                    .and_then(|v| v.as_str())
                    .map(str::to_string)
                    .ok_or_else(|| format!("node field {k} must be a string"))
            };
            let id = o
                .get("id")
                .and_then(|v| v.as_u64())
                .ok_or("node id must be a u64")?;
            let parent = match o.get("parent") {
                Some(JsonValue::Null) | None => None,
                Some(v) => Some(v.as_u64().ok_or("node parent must be a u64 or null")?),
            };
            let node = o
                .get("node")
                .and_then(|v| v.as_u64())
                .and_then(|v| u32::try_from(v).ok())
                .ok_or("node raw id must be a u32")?;
            let state = o
                .get("state")
                .and_then(|v| v.as_u64())
                .and_then(|v| u8::try_from(v).ok())
                .ok_or("node state must be a u8")?;
            nodes.push(TraceNode {
                id,
                parent,
                node,
                label: get_str("label")?,
                state,
                matched: get_str("matched")?,
                rule: get_str("rule")?,
            });
        }
        Ok(CopyTree { packet, nodes })
    }

    /// Render the tree as indented ASCII, one node per line.
    pub fn render(&self) -> String {
        let mut depth: BTreeMap<u64, usize> = BTreeMap::new();
        let mut out = String::new();
        for n in &self.nodes {
            let d = match n.parent {
                None => 0,
                Some(p) => depth.get(&p).copied().unwrap_or(0) + 1,
            };
            depth.insert(n.id, d);
            for _ in 0..d {
                out.push_str("  ");
            }
            out.push_str(&n.label);
            out.push_str(&format!(" [pop={}]", n.state));
            if !n.matched.is_empty() {
                out.push_str(&format!(" {} ({})", n.matched, n.rule));
            }
            out.push('\n');
        }
        out
    }
}

/// Fixed-capacity ring of the most recent trace events. Single-writer
/// (the replay engine owns it), so the ring needs no locks or atomics.
/// On anomaly the harness dumps the surviving tail as a postmortem.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    buf: Vec<TraceEvent>,
    /// Next write position when the ring is full.
    head: usize,
    /// Total events ever recorded (>= buf.len() once wrapped).
    written: u64,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` events (capacity 0 keeps
    /// nothing but still counts writes).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            buf: Vec::with_capacity(capacity.min(1 << 20)),
            head: 0,
            written: 0,
        }
    }

    /// Record one event, overwriting the oldest when full.
    #[inline]
    pub fn record(&mut self, ev: TraceEvent) {
        self.written += 1;
        if self.buf.capacity() == 0 {
            return;
        }
        if self.buf.len() < self.buf.capacity() {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.buf.len();
        }
    }

    /// Events currently held, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Events the ring holds before it starts overwriting (0 = off).
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Total events ever recorded.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Events lost to ring overwrite.
    pub fn overflowed(&self) -> u64 {
        self.written - self.buf.len() as u64
    }

    /// True when nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.written == 0
    }

    /// Dump the recorder's tail through the structured log as a
    /// postmortem, tagged with `reason`. Returns the number of events
    /// dumped and bumps `trace.flight_recorder.dumps`.
    pub fn dump(&self, reason: &str) -> usize {
        trace_metrics().1.inc();
        let events = self.events();
        crate::warn!(
            "trace.flight_recorder.dump",
            reason = reason,
            kept = events.len(),
            written = self.written,
            overflowed = self.overflowed()
        );
        for ev in &events {
            crate::warn!(
                "trace.flight_recorder.event",
                pkt = ev.pkt,
                parent = ev.parent,
                child = ev.child,
                state = ev.state
            );
        }
        events.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn label(n: u32) -> String {
        if n & HOST_NODE_BIT != 0 {
            format!("host:{}", n & !HOST_NODE_BIT)
        } else {
            format!("sw:{n}")
        }
    }

    fn sample_events() -> Vec<TraceEvent> {
        // Root sw:0 -> sw:1 -> {host:7, host:9}; sw:0 -> host:3.
        vec![
            TraceEvent {
                pkt: 0,
                parent: TRACE_ROOT,
                child: 0,
                state: 0,
            },
            TraceEvent {
                pkt: 0,
                parent: 0,
                child: 1,
                state: 1,
            },
            TraceEvent {
                pkt: 0,
                parent: 1,
                child: HOST_NODE_BIT | 7,
                state: 255,
            },
            TraceEvent {
                pkt: 0,
                parent: 1,
                child: HOST_NODE_BIT | 9,
                state: 255,
            },
            TraceEvent {
                pkt: 0,
                parent: 0,
                child: HOST_NODE_BIT | 3,
                state: 255,
            },
        ]
    }

    #[test]
    fn tree_build_is_order_invariant() {
        let mut ev = sample_events();
        let t1 = CopyTree::build(0, &ev, label);
        ev.reverse();
        let t2 = CopyTree::build(0, &ev, label);
        assert_eq!(t1, t2);
        assert_eq!(t1.nodes.len(), 5);
        assert_eq!(t1.leaf_hosts(), vec![3, 7, 9]);
        assert_eq!(t1.nodes[0].parent, None);
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let mut tree = CopyTree::build(0, &sample_events(), label);
        tree.annotate(|n| (format!("m{}", n.node), format!("r{}", n.node)));
        let json = tree.to_json();
        let back = CopyTree::from_json(&json).expect("valid doc parses");
        assert_eq!(back, tree);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(CopyTree::from_json("{").is_err());
        assert!(CopyTree::from_json("{\"elmo_trace\":2}").is_err());
        assert!(CopyTree::from_json("{\"elmo_trace\":1,\"packet\":0,\"nodes\":3}").is_err());
    }

    #[test]
    fn canonical_sort_makes_shuffles_equal() {
        let mut a = sample_events();
        let mut b = sample_events();
        b.swap(0, 3);
        b.swap(1, 4);
        sort_events(&mut a);
        sort_events(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn recorder_keeps_last_n_and_counts_overflow() {
        let mut r = FlightRecorder::new(4);
        for i in 0..10u32 {
            r.record(TraceEvent {
                pkt: i,
                parent: TRACE_ROOT,
                child: i,
                state: 0,
            });
        }
        assert_eq!(r.written(), 10);
        assert_eq!(r.overflowed(), 6);
        let kept: Vec<u32> = r.events().iter().map(|e| e.pkt).collect();
        assert_eq!(kept, vec![6, 7, 8, 9]);
    }

    #[test]
    fn recorder_zero_capacity_only_counts() {
        let mut r = FlightRecorder::new(0);
        r.record(TraceEvent {
            pkt: 0,
            parent: TRACE_ROOT,
            child: 0,
            state: 0,
        });
        assert_eq!(r.written(), 1);
        assert!(r.events().is_empty());
    }

    #[test]
    fn render_indents_by_causal_depth() {
        let tree = CopyTree::build(0, &sample_events(), label);
        let text = tree.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].starts_with("sw:0"));
        assert!(text.contains("\n    host:7"));
    }
}
