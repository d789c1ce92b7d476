//! Verification results: violations with minimal witnesses, and the
//! aggregate [`Report`] with budget/utilization summaries and a JSON
//! rendering (via `elmo_obs::JsonValue`).

use std::collections::BTreeMap;

use elmo_controller::GroupId;
use elmo_obs::JsonValue;
use elmo_topology::{HostId, SwitchRef};

/// Which rule of the compiled state a witness points at.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RuleRef {
    /// The sender-specific upstream leaf p-rule.
    ULeaf,
    /// The sender-specific upstream spine p-rule.
    USpine,
    /// The core p-rule (pod bitmap).
    Core,
    /// Downstream spine p-rule at this index in the header's rule list.
    DSpine(usize),
    /// Downstream leaf p-rule at this index in the header's rule list.
    DLeaf(usize),
    /// The downstream spine default p-rule.
    DSpineDefault,
    /// The downstream leaf default p-rule.
    DLeafDefault,
    /// A group-table (s-rule) entry on the witness switch.
    SRule,
    /// A hypervisor encap-table entry (flow or subscription).
    Encap,
}

impl RuleRef {
    fn label(self) -> String {
        match self {
            RuleRef::ULeaf => "u_leaf".into(),
            RuleRef::USpine => "u_spine".into(),
            RuleRef::Core => "core".into(),
            RuleRef::DSpine(i) => format!("d_spine[{i}]"),
            RuleRef::DLeaf(i) => format!("d_leaf[{i}]"),
            RuleRef::DSpineDefault => "d_spine_default".into(),
            RuleRef::DLeafDefault => "d_leaf_default".into(),
            RuleRef::SRule => "s_rule".into(),
            RuleRef::Encap => "encap".into(),
        }
    }
}

/// The minimal witness for a violation: which group, which switch, which
/// rule, and (for delivery violations) which host.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Witness {
    pub switch: Option<SwitchRef>,
    pub rule: Option<RuleRef>,
    pub host: Option<HostId>,
}

/// Violation categories, one per property the verifier proves.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum ViolationKind {
    /// A member receiver is statically unreachable.
    Loss,
    /// A member receiver is reached more than once.
    Duplicate,
    /// A host whose hypervisor would deliver (subscribed) is reached but is
    /// not a member receiver — or the sender is echoed its own packet.
    Leakage,
    /// The rule graph has a cycle.
    Loop,
    /// An edge does not strictly advance the pop order, or a path exceeds
    /// the encoded layer count.
    PopDepth,
    /// A bitmap bit falls outside its layer's port domain.
    PortDomain,
    /// An encoded header exceeds the controller's byte budget.
    HeaderBudget,
    /// Outer stack + header exceeds the switch parser's header-vector limit.
    HeaderVector,
    /// A group table holds more entries than its capacity (`Fmax`).
    TableOverflow,
    /// Controller s-rule accounting disagrees with the encodings.
    TableAccounting,
    /// An encoding's s-rule is not installed on the switch.
    MissingSRule,
    /// An installed s-rule maps to no live group.
    StaleSRule,
    /// An installed s-rule's bitmap differs from the encoding.
    RuleMismatch,
    /// Spines of one pod disagree on a pod s-rule (breaks ECMP
    /// path-independence).
    ReplicaDivergence,
    /// A hypervisor flow's encap bytes/address differ from the controller's
    /// header.
    EncapMismatch,
    /// A hypervisor subscription exists without membership, or vice versa.
    SubscriptionMismatch,
    /// The walk over the installed fabric and the walk over the
    /// encoding's rules (`metrics::traffic_model`) disagree on links or
    /// bytes.
    RedundancyMismatch,
}

impl ViolationKind {
    pub fn name(self) -> &'static str {
        match self {
            ViolationKind::Loss => "loss",
            ViolationKind::Duplicate => "duplicate",
            ViolationKind::Leakage => "leakage",
            ViolationKind::Loop => "loop",
            ViolationKind::PopDepth => "pop_depth",
            ViolationKind::PortDomain => "port_domain",
            ViolationKind::HeaderBudget => "header_budget",
            ViolationKind::HeaderVector => "header_vector",
            ViolationKind::TableOverflow => "table_overflow",
            ViolationKind::TableAccounting => "table_accounting",
            ViolationKind::MissingSRule => "missing_s_rule",
            ViolationKind::StaleSRule => "stale_s_rule",
            ViolationKind::RuleMismatch => "rule_mismatch",
            ViolationKind::ReplicaDivergence => "replica_divergence",
            ViolationKind::EncapMismatch => "encap_mismatch",
            ViolationKind::SubscriptionMismatch => "subscription_mismatch",
            ViolationKind::RedundancyMismatch => "redundancy_mismatch",
        }
    }
}

/// One proven property violation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Violation {
    /// The group whose state is at fault (`None` for stale entries that map
    /// to no live group).
    pub group: Option<GroupId>,
    pub kind: ViolationKind,
    pub witness: Witness,
    /// Human-readable specifics (addresses, expected/actual values).
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.kind.name())?;
        if let Some(g) = self.group {
            write!(f, " group={}", g.0)?;
        }
        if let Some(sw) = self.witness.switch {
            write!(f, " switch={sw:?}")?;
        }
        if let Some(rule) = self.witness.rule {
            write!(f, " rule={}", rule.label())?;
        }
        if let Some(h) = self.witness.host {
            write!(f, " host={}", h.0)?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Per-tier group-table occupancy summary.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct TableTier {
    /// `Fmax`; `None` when unlimited.
    pub capacity: Option<u64>,
    /// Installed entries across the tier.
    pub entries: u64,
    /// Switches in the tier.
    pub switches: usize,
    pub mean: f64,
    pub p95: usize,
    pub max: usize,
}

/// Header and table budget summary.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct BudgetSummary {
    /// Controller encoding budget (paper: 325 bytes).
    pub header_budget_bytes: usize,
    /// Switch parser header-vector limit (outer stack + header).
    pub header_vector_limit: usize,
    /// Largest encoded header observed across all (group, sender) pairs.
    pub max_header_bytes: usize,
    /// Largest header vector (outer + header) observed.
    pub max_header_vector_bytes: usize,
    pub leaf_tables: TableTier,
    pub spine_tables: TableTier,
}

/// Redundancy accounting totals across all checked (group, sender) pairs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RedundancySummary {
    /// Link crossings of one transmission per sender, summed.
    pub links: u64,
    /// Fixed (payload-independent) bytes for those transmissions.
    pub fixed_bytes: u64,
    /// Host copies landing on hosts outside the expected receiver set
    /// (bitmap-merging spray; discarded by the hypervisor).
    pub spurious_host_copies: u64,
}

/// Per-(group, sender) static traffic over the installed fabric, for
/// cross-checking against the walk over the encoding's rules
/// (`metrics::traffic_model`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SenderTraffic {
    pub group: GroupId,
    pub sender: HostId,
    /// Wire link crossings plus host copies (the traffic model's `links`).
    pub links: u64,
    /// Fixed bytes (outer stacks + residual headers).
    pub fixed_bytes: u64,
    /// Encoded header length at the sender, in bytes.
    pub header_len: u64,
}

/// The verifier's aggregate result.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Report {
    pub groups_checked: usize,
    pub senders_checked: usize,
    /// Groups skipped because they are degraded to unicast fallback (no
    /// multicast state to verify).
    pub skipped_unicast_fallback: usize,
    pub violations: Vec<Violation>,
    pub budgets: BudgetSummary,
    pub redundancy: RedundancySummary,
    /// Per-sender traffic records (populated when
    /// [`VerifyOptions::collect_traffic`](crate::VerifyOptions) is set).
    pub traffic: Vec<SenderTraffic>,
    /// Traced copy trees of diverging differential replays (populated by
    /// the harness from
    /// [`DifferentialOutcome::divergence_traces`](crate::differential::DifferentialOutcome)).
    pub divergence_traces: Vec<crate::differential::DivergenceTrace>,
}

impl Report {
    /// Whether every property held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Violation counts per kind, sorted by kind.
    pub fn counts_by_kind(&self) -> BTreeMap<&'static str, u64> {
        let mut m = BTreeMap::new();
        for v in &self.violations {
            *m.entry(v.kind.name()).or_insert(0) += 1;
        }
        m
    }

    /// Render the report as a JSON value (stable key order).
    pub fn to_json(&self) -> JsonValue {
        let mut root = BTreeMap::new();
        root.insert("ok".into(), JsonValue::Bool(self.ok()));
        root.insert(
            "groups_checked".into(),
            JsonValue::U64(self.groups_checked as u64),
        );
        root.insert(
            "senders_checked".into(),
            JsonValue::U64(self.senders_checked as u64),
        );
        root.insert(
            "skipped_unicast_fallback".into(),
            JsonValue::U64(self.skipped_unicast_fallback as u64),
        );

        let mut budgets = BTreeMap::new();
        budgets.insert(
            "header_budget_bytes".into(),
            JsonValue::U64(self.budgets.header_budget_bytes as u64),
        );
        budgets.insert(
            "header_vector_limit".into(),
            JsonValue::U64(self.budgets.header_vector_limit as u64),
        );
        budgets.insert(
            "max_header_bytes".into(),
            JsonValue::U64(self.budgets.max_header_bytes as u64),
        );
        budgets.insert(
            "max_header_vector_bytes".into(),
            JsonValue::U64(self.budgets.max_header_vector_bytes as u64),
        );
        budgets.insert("leaf_tables".into(), tier_json(&self.budgets.leaf_tables));
        budgets.insert("spine_tables".into(), tier_json(&self.budgets.spine_tables));
        root.insert("budgets".into(), JsonValue::Object(budgets));

        let mut red = BTreeMap::new();
        red.insert("links".into(), JsonValue::U64(self.redundancy.links));
        red.insert(
            "fixed_bytes".into(),
            JsonValue::U64(self.redundancy.fixed_bytes),
        );
        red.insert(
            "spurious_host_copies".into(),
            JsonValue::U64(self.redundancy.spurious_host_copies),
        );
        root.insert("redundancy".into(), JsonValue::Object(red));

        let mut by_kind = BTreeMap::new();
        for (k, n) in self.counts_by_kind() {
            by_kind.insert(k.to_string(), JsonValue::U64(n));
        }
        root.insert("violations_by_kind".into(), JsonValue::Object(by_kind));
        root.insert(
            "violations".into(),
            JsonValue::Array(self.violations.iter().map(violation_json).collect()),
        );
        root.insert(
            "divergence_traces".into(),
            JsonValue::Array(
                self.divergence_traces
                    .iter()
                    .map(|t| {
                        let mut m = BTreeMap::new();
                        m.insert("group".into(), JsonValue::U64(t.group.0));
                        m.insert("sender".into(), JsonValue::U64(t.sender.0 as u64));
                        // Embed the tree document itself, not a string of
                        // it, so report consumers read one JSON value.
                        m.insert(
                            "tree".into(),
                            JsonValue::parse(&t.tree_json)
                                .unwrap_or_else(|_| JsonValue::String(t.tree_json.clone())),
                        );
                        JsonValue::Object(m)
                    })
                    .collect(),
            ),
        );
        JsonValue::Object(root)
    }
}

fn tier_json(t: &TableTier) -> JsonValue {
    let mut m = BTreeMap::new();
    m.insert(
        "capacity".into(),
        t.capacity.map_or(JsonValue::Null, JsonValue::U64),
    );
    m.insert("entries".into(), JsonValue::U64(t.entries));
    m.insert("switches".into(), JsonValue::U64(t.switches as u64));
    m.insert("mean".into(), JsonValue::F64(t.mean));
    m.insert("p95".into(), JsonValue::U64(t.p95 as u64));
    m.insert("max".into(), JsonValue::U64(t.max as u64));
    JsonValue::Object(m)
}

fn violation_json(v: &Violation) -> JsonValue {
    let mut m = BTreeMap::new();
    m.insert(
        "group".into(),
        v.group.map_or(JsonValue::Null, |g| JsonValue::U64(g.0)),
    );
    m.insert("kind".into(), JsonValue::String(v.kind.name().into()));
    m.insert(
        "switch".into(),
        v.witness
            .switch
            .map_or(JsonValue::Null, |sw| JsonValue::String(format!("{sw:?}"))),
    );
    m.insert(
        "rule".into(),
        v.witness
            .rule
            .map_or(JsonValue::Null, |r| JsonValue::String(r.label())),
    );
    m.insert(
        "host".into(),
        v.witness
            .host
            .map_or(JsonValue::Null, |h| JsonValue::U64(h.0 as u64)),
    );
    m.insert("detail".into(), JsonValue::String(v.detail.clone()));
    JsonValue::Object(m)
}
