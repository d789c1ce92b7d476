//! The static forwarding walk: one (group, sender) transmission at a time.
//!
//! Mirrors the data plane's forwarding pipeline (`NetworkSwitch::
//! process_hops_hv` plus the fabric's hop table) without constructing packets:
//! each stage resolves the same rule the switch would ([`resolve`]: own-id
//! p-rule, then the s-rule, then the default p-rule) and advances the same
//! pop depth, so the reachable host multiset and the per-link byte
//! accounting are exactly what a real transmission would produce. ECMP
//! multipath is path-independent by construction — upstream stages use
//! only header rules, and downstream s-rules are replica-checked across a
//! pod's spines by the table pass — so the walk follows one representative
//! path and the result holds for every hash outcome.
//!
//! This is the only packet-free walk in the workspace. It reads s-rules from
//! one of two sources: a fabric's installed group tables ([`walk_sender`],
//! behind every verifier pass), or an encoding's own s-rule lists
//! ([`encoding_cost`], behind every Figure 4/5 traffic number).

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use elmo_controller::{GroupId, GroupState};
use elmo_core::{pop, DownstreamSection, ElmoHeader, GroupEncoding, HeaderLayout, PortBitmap};
use elmo_dataplane::{ElmoPacketRepr, Fabric};
use elmo_topology::{Clos, HostId, LeafId, PodId, SpineId, SwitchRef};

use crate::report::{RuleRef, Violation, ViolationKind, Witness};

/// Fixed outer-stack bytes per copy (Ethernet + IPv4 + UDP + VXLAN).
pub const OUTER: u64 = ElmoPacketRepr::OUTER_LEN as u64;

/// What one transmission costs on the links.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Cost {
    /// Wire link crossings plus host copies.
    pub links: u64,
    /// OUTER plus the residual header per wire copy, OUTER per host copy
    /// (the leaf strips the header before delivery).
    pub fixed_bytes: u64,
    /// Encoded header length at the sender.
    pub header_bytes: usize,
}

impl Cost {
    /// Nothing sent yet: `header`'s length and no copies.
    fn at_sender(layout: &HeaderLayout, header: &ElmoHeader) -> Self {
        Cost {
            header_bytes: header.byte_len(layout),
            ..Cost::default()
        }
    }
}

/// What one sender's transmission statically reaches, and what it costs.
pub(crate) struct SenderWalk {
    group: GroupId,
    /// Host -> copy count (a multiset: >1 means duplicate delivery).
    pub deliveries: BTreeMap<HostId, u32>,
    pub cost: Cost,
    /// Structural violations found along the way (port domains, pop-order
    /// breaks, back edges). Delivery diffs are the caller's job.
    pub violations: Vec<Violation>,
}

/// Where a walk finds one group's downstream s-rules.
pub(crate) trait SRules {
    /// The group's s-rule at `leaf`.
    fn leaf(&self, leaf: LeafId) -> Option<&PortBitmap>;
    /// The group's s-rule on `pod`'s spines.
    fn pod(&self, pod: PodId) -> Option<&PortBitmap>;
}

/// The s-rules an encoding asks for, before any install.
impl SRules for GroupEncoding {
    fn leaf(&self, leaf: LeafId) -> Option<&PortBitmap> {
        self.d_leaf.s_rule(leaf.0)
    }

    fn pod(&self, pod: PodId) -> Option<&PortBitmap> {
        self.d_spine.s_rule(pod.0)
    }
}

/// The s-rules a fabric holds for one outer group address.
pub(crate) struct Installed<'a> {
    fabric: &'a Fabric,
    outer: Ipv4Addr,
}

impl Installed<'_> {
    /// The pod's s-rule and the first spine holding it. The table pass
    /// checks that a pod's replicas agree, so any copy is representative.
    fn pod_spine(&self, pod: PodId) -> Option<(SpineId, &PortBitmap)> {
        let spine_srule = |s| self.fabric.spine(s).srule(&self.outer).map(|bm| (s, bm));
        self.fabric.topo().spines_in_pod(pod).find_map(spine_srule)
    }
}

impl SRules for Installed<'_> {
    fn leaf(&self, leaf: LeafId) -> Option<&PortBitmap> {
        self.fabric.leaf(leaf).srule(&self.outer)
    }

    fn pod(&self, pod: PodId) -> Option<&PortBitmap> {
        self.pod_spine(pod).map(|(_, bm)| bm)
    }
}

/// Where the rule a downstream switch applies comes from.
#[derive(Clone, Copy)]
enum Source {
    /// The section's `i`th p-rule names the switch.
    PRule(usize),
    /// The switch's s-rule.
    SRule,
    /// The section's default p-rule.
    Default,
}

/// The rule downstream switch `switch` applies to a copy carrying
/// `section`: its own-id p-rule, else its s-rule, else the section's
/// default p-rule. `None` drops the copy.
fn resolve<'a>(
    section: &'a DownstreamSection,
    switch: u32,
    srule: impl FnOnce() -> Option<&'a PortBitmap>,
) -> Option<(Source, &'a PortBitmap)> {
    if let Some(i) = section.position(switch) {
        return Some((Source::PRule(i), section.rule(i).bitmap));
    }
    if let Some(bm) = srule() {
        return Some((Source::SRule, bm));
    }
    section.default().map(|bm| (Source::Default, bm))
}

/// What a walk records: always its cost, and optionally what it reaches.
trait Record {
    fn cost(&mut self) -> &mut Cost;
    fn deliver(&mut self, _host: HostId) {}
    fn violation(
        &mut self,
        _kind: ViolationKind,
        _witness: Witness,
        _detail: impl FnOnce() -> String,
    ) {
    }
}

/// The traffic model's record: the cost alone.
impl Record for Cost {
    fn cost(&mut self) -> &mut Cost {
        self
    }
}

impl Record for SenderWalk {
    fn cost(&mut self) -> &mut Cost {
        &mut self.cost
    }

    fn deliver(&mut self, host: HostId) {
        *self.deliveries.entry(host).or_insert(0) += 1;
    }

    fn violation(
        &mut self,
        kind: ViolationKind,
        witness: Witness,
        detail: impl FnOnce() -> String,
    ) {
        self.violations.push(Violation {
            group: Some(self.group),
            kind,
            witness,
            detail: detail(),
        });
    }
}

/// Walk `sender`'s transmission of `header` through the s-rules `fabric`
/// holds for the group.
pub(crate) fn walk_sender(
    topo: &Clos,
    layout: &HeaderLayout,
    fabric: &Fabric,
    state: &GroupState,
    sender: HostId,
    header: &ElmoHeader,
) -> SenderWalk {
    let mut record = SenderWalk {
        group: state.id,
        deliveries: BTreeMap::new(),
        cost: Cost::at_sender(layout, header),
        violations: Vec::new(),
    };
    record.check_structure(topo, layout, header);
    let rules = Installed {
        fabric,
        outer: state.outer_addr,
    };
    let mut w = Walker {
        topo,
        layout,
        rules: &rules,
        header,
        record,
    };
    w.run(sender);
    w.record
}

/// Walk `sender`'s transmission of `header` through `enc`'s own rules (its
/// p-rules in the header, its s-rule lists), with no fabric, and return
/// what it costs. Records neither deliveries nor violations.
pub fn encoding_cost(
    topo: &Clos,
    layout: &HeaderLayout,
    enc: &GroupEncoding,
    sender: HostId,
    header: &ElmoHeader,
) -> Cost {
    let mut w = Walker {
        topo,
        layout,
        rules: enc,
        header,
        record: Cost::at_sender(layout, header),
    };
    w.run(sender);
    w.record
}

struct Walker<'a, S, R> {
    topo: &'a Clos,
    layout: &'a HeaderLayout,
    rules: &'a S,
    header: &'a ElmoHeader,
    record: R,
}

impl<S: SRules, R: Record> Walker<'_, S, R> {
    /// One wire copy at pop depth `depth`: OUTER plus the residual header.
    fn wire(&mut self, depth: u8) {
        let header_bytes = self.header.byte_len_popped(self.layout, depth) as u64;
        let cost = self.record.cost();
        cost.links += 1;
        cost.fixed_bytes += OUTER + header_bytes;
    }

    /// One host copy: the leaf strips the Elmo header before delivery.
    fn deliver(&mut self, host: HostId) {
        let cost = self.record.cost();
        cost.links += 1;
        cost.fixed_bytes += OUTER;
        self.record.deliver(host);
    }

    fn run(&mut self, sender: HostId) {
        let (topo, header) = (self.topo, self.header);
        let sender_leaf = topo.leaf_of_host(sender);
        let sender_pod = topo.pod_of_leaf(sender_leaf);

        // Host -> ingress leaf, full header.
        self.wire(pop::NONE);
        let Some(ul) = &header.u_leaf else {
            // The ingress leaf has no u-leaf rule: the packet dies here.
            // Per-receiver Loss violations come out of the delivery diff.
            return;
        };
        // Out-of-domain bits here and below are skipped: check_structure
        // flags them in header rules, the table pass in installed s-rules.
        for p in ul.down.iter_ones().filter(|&p| p < topo.leaf_down_ports()) {
            self.deliver(topo.host_under_leaf(sender_leaf, p));
        }
        if !ul.goes_up() {
            return;
        }
        if !ul.multipath {
            for p in ul.up.iter_ones().filter(|&p| p >= topo.leaf_up_ports()) {
                let witness = Witness {
                    switch: Some(SwitchRef::Leaf(sender_leaf)),
                    rule: Some(RuleRef::ULeaf),
                    ..Witness::default()
                };
                self.record
                    .violation(ViolationKind::PortDomain, witness, || {
                        format!("up port {p} out of range ({})", topo.leaf_up_ports())
                    });
            }
        }
        // Multipath sends exactly one copy (any spine); an explicit cover
        // sends one copy per listed port. Each copy runs the same spine
        // stage — emit structural violations only once.
        let copies_up = if ul.multipath {
            1
        } else {
            ul.up
                .iter_ones()
                .filter(|&p| p < topo.leaf_up_ports())
                .count()
        };
        for i in 0..copies_up {
            self.wire(pop::U_LEAF);
            self.spine_stage(sender_pod, i == 0);
        }
    }

    /// The upstream spine: header-only processing (u-spine rule), identical
    /// on every spine of the sender pod.
    fn spine_stage(&mut self, sender_pod: PodId, emit: bool) {
        let (topo, header) = (self.topo, self.header);
        let Some(us) = &header.u_spine else {
            if emit {
                let witness = rule_witness(RuleRef::ULeaf);
                self.record.violation(ViolationKind::PopDepth, witness, || {
                    "u_leaf forwards upstream but the header has no u_spine section: \
                     the pop order cannot advance past the spine"
                        .into()
                });
            }
            return;
        };
        for li in us
            .down
            .iter_ones()
            .filter(|&li| li < topo.spine_down_ports())
        {
            // Spine -> local member leaf: u_spine/core/d_spine popped.
            self.wire(pop::D_SPINE);
            self.resolve_leaf(topo.leaf_in_pod(sender_pod, li));
        }
        if !us.goes_up() {
            return;
        }
        let Some(core) = &header.core else {
            if emit {
                let witness = rule_witness(RuleRef::USpine);
                self.record.violation(ViolationKind::PopDepth, witness, || {
                    "u_spine forwards upstream but the header has no core section: \
                     the pop order cannot advance past the core"
                        .into()
                });
            }
            return;
        };
        let core_copies = if us.multipath {
            1
        } else {
            us.up
                .iter_ones()
                .filter(|&p| p < topo.spine_up_ports())
                .count()
        };
        for _ in 0..core_copies {
            // Spine -> core, u-spine popped.
            self.wire(pop::U_SPINE);
            for pod_idx in core.iter_ones().filter(|&p| p < topo.num_pods()) {
                // Core -> remote pod's spine, core rule popped.
                self.wire(pop::CORE);
                self.resolve_pod(PodId(pod_idx as u32));
            }
        }
    }

    /// Downstream spine stage for one pod. With no rule the packet drops
    /// here; the pod's receivers show up as Loss in the delivery diff.
    fn resolve_pod(&mut self, pod: PodId) {
        let (rules, header) = (self.rules, self.header);
        let Some((_, bm)) = resolve(&header.d_spine, pod.0, || rules.pod(pod)) else {
            return;
        };
        for li in bm
            .iter_ones()
            .filter(|&li| li < self.topo.spine_down_ports())
        {
            self.wire(pop::D_SPINE);
            self.resolve_leaf(self.topo.leaf_in_pod(pod, li));
        }
    }

    /// Downstream leaf stage: deliver to every host port the matched rule
    /// names.
    fn resolve_leaf(&mut self, leaf: LeafId) {
        let (rules, header) = (self.rules, self.header);
        let Some((_, bm)) = resolve(&header.d_leaf, leaf.0, || rules.leaf(leaf)) else {
            return;
        };
        for p in bm.iter_ones().filter(|&p| p < self.topo.leaf_down_ports()) {
            self.deliver(self.topo.host_under_leaf(leaf, p));
        }
    }
}

impl SenderWalk {
    /// Width and domain checks over every header section, whether the walk
    /// reaches it or not. A downstream bitmap bit in the up-facing port
    /// range is a back edge in the rule graph (leaf -> spine or spine ->
    /// core against the pop order): flagged as a loop.
    fn check_structure(&mut self, topo: &Clos, layout: &HeaderLayout, header: &ElmoHeader) {
        if let Some(ul) = &header.u_leaf {
            self.check_width(&ul.down, layout.leaf_down_ports, RuleRef::ULeaf);
            self.check_width(&ul.up, layout.leaf_up_ports, RuleRef::ULeaf);
        }
        if let Some(us) = &header.u_spine {
            self.check_width(&us.down, layout.spine_down_ports, RuleRef::USpine);
            self.check_width(&us.up, layout.spine_up_ports, RuleRef::USpine);
        }
        if let Some(core) = &header.core {
            self.check_width(core, layout.core_ports, RuleRef::Core);
        }
        let spine_ports = (layout.spine_down_ports, topo.spine_down_ports());
        let pods = (topo.num_pods(), "pod", "pods");
        let spine_refs = (RuleRef::DSpine, RuleRef::DSpineDefault);
        self.check_section(&header.d_spine, spine_refs, spine_ports, pods, "core");
        let leaf_ports = (layout.leaf_down_ports, topo.leaf_down_ports());
        let leaves = (topo.num_leaves(), "leaf", "leaves");
        let leaf_refs = (RuleRef::DLeaf, RuleRef::DLeafDefault);
        self.check_section(&header.d_leaf, leaf_refs, leaf_ports, leaves, "spine");
    }

    fn check_width(&mut self, bm: &PortBitmap, ports: usize, rule: RuleRef) {
        if bm.width() != ports {
            self.violation(ViolationKind::PortDomain, rule_witness(rule), || {
                format!("bitmap width {}, layer has {ports} ports", bm.width())
            });
        }
    }

    /// A downstream section's rules and default: widths against the layout
    /// (`ports`), switch ids against their domain (`ids`: size, noun,
    /// plural), and any bit at or past the `down` down-facing ports, a back
    /// edge toward the `toward` layer.
    fn check_section(
        &mut self,
        section: &DownstreamSection,
        refs: (impl Fn(usize) -> RuleRef, RuleRef),
        (ports, down): (usize, usize),
        (ids, id, ids_name): (usize, &str, &str),
        toward: &str,
    ) {
        let rules = section
            .rules()
            .enumerate()
            .map(|(i, r)| (refs.0(i), r.bitmap, r.switches));
        let default = section.default().map(|bm| (refs.1, bm, &[][..]));
        for (rule, bm, switches) in rules.chain(default) {
            self.check_width(bm, ports, rule);
            for &s in switches.iter().filter(|&&s| s as usize >= ids) {
                self.violation(ViolationKind::PortDomain, rule_witness(rule), || {
                    format!("{id} id {s} out of range ({ids} {ids_name})")
                });
            }
            if let Some(p) = bm.iter_ones().find(|&p| p >= down) {
                self.violation(ViolationKind::Loop, rule_witness(rule), || {
                    format!(
                        "downstream rule targets up-facing port {p} (down ports: {down}): \
                         back edge toward the {toward} layer against the pop order"
                    )
                });
            }
        }
    }
}

fn rule_witness(rule: RuleRef) -> Witness {
    Witness {
        rule: Some(rule),
        ..Witness::default()
    }
}

/// Pinpoint the first stage at which `host` becomes unreachable, for a
/// minimal Loss witness: the earliest rule whose bit or section is
/// missing on the sender -> host path.
pub(crate) fn attribute_loss(
    topo: &Clos,
    fabric: &Fabric,
    state: &GroupState,
    header: &ElmoHeader,
    sender: HostId,
    host: HostId,
) -> (Witness, String) {
    let sender_leaf = topo.leaf_of_host(sender);
    let sender_pod = topo.pod_of_leaf(sender_leaf);
    let leaf = topo.leaf_of_host(host);
    let pod = topo.pod_of_leaf(leaf);
    let rules = Installed {
        fabric,
        outer: state.outer_addr,
    };

    let w = |switch: Option<SwitchRef>, rule: Option<RuleRef>| Witness {
        switch,
        rule,
        host: Some(host),
    };

    let Some(ul) = &header.u_leaf else {
        return (
            w(Some(SwitchRef::Leaf(sender_leaf)), None),
            "header has no u_leaf rule: the packet dies at the ingress leaf".into(),
        );
    };
    if leaf == sender_leaf {
        let port = topo.host_port_on_leaf(host);
        return (
            w(Some(SwitchRef::Leaf(sender_leaf)), Some(RuleRef::ULeaf)),
            format!("host port {port} not set in u_leaf.down"),
        );
    }
    if !ul.goes_up() {
        return (
            w(Some(SwitchRef::Leaf(sender_leaf)), Some(RuleRef::ULeaf)),
            "u_leaf does not forward upstream, but the receiver is on another leaf".into(),
        );
    }
    let Some(us) = &header.u_spine else {
        return (
            w(None, Some(RuleRef::USpine)),
            "header has no u_spine section".into(),
        );
    };
    let li = topo.leaf_index_in_pod(leaf);
    if pod == sender_pod {
        if !us.down.get(li) {
            return (
                w(Some(SwitchRef::Leaf(leaf)), Some(RuleRef::USpine)),
                format!("leaf index {li} not set in u_spine.down"),
            );
        }
    } else {
        if !us.goes_up() {
            return (
                w(None, Some(RuleRef::USpine)),
                "u_spine does not forward upstream, but the receiver is in another pod".into(),
            );
        }
        let Some(core) = &header.core else {
            return (
                w(None, Some(RuleRef::Core)),
                "header has no core section".into(),
            );
        };
        if !core.get(pod.0 as usize) {
            return (
                w(None, Some(RuleRef::Core)),
                format!("pod bit {} not set in the core rule", pod.0),
            );
        }
        // Downstream spine resolution for the receiver's pod.
        let spine = SwitchRef::Spine(topo.spine_in_pod(pod, 0));
        let Some((source, bm)) = resolve(&header.d_spine, pod.0, || rules.pod(pod)) else {
            return (
                w(Some(spine), None),
                format!("no d_spine rule, s-rule, or default matches pod {}", pod.0),
            );
        };
        if !bm.get(li) {
            let (switch, rule, what) = match source {
                Source::PRule(i) => (
                    spine,
                    RuleRef::DSpine(i),
                    format!("d_spine rule for pod {}", pod.0),
                ),
                Source::SRule => (
                    rules
                        .pod_spine(pod)
                        .map_or(spine, |(s, _)| SwitchRef::Spine(s)),
                    RuleRef::SRule,
                    "the pod's s-rule".into(),
                ),
                Source::Default => (spine, RuleRef::DSpineDefault, "d_spine_default".into()),
            };
            return (
                w(Some(switch), Some(rule)),
                format!("leaf index {li} not set in {what}"),
            );
        }
    }
    // The leaf was reached; its own resolution must have dropped the host.
    let port = topo.host_port_on_leaf(host);
    let (rule, what) = match resolve(&header.d_leaf, leaf.0, || rules.leaf(leaf)) {
        Some((Source::PRule(i), _)) => (
            RuleRef::DLeaf(i),
            format!("d_leaf rule for leaf {}", leaf.0),
        ),
        Some((Source::SRule, _)) => (RuleRef::SRule, "the leaf's s-rule".into()),
        Some((Source::Default, _)) => (RuleRef::DLeafDefault, "d_leaf_default".into()),
        None => {
            return (
                w(Some(SwitchRef::Leaf(leaf)), None),
                "no d_leaf rule, s-rule, or default matches this leaf".into(),
            )
        }
    };
    (
        w(Some(SwitchRef::Leaf(leaf)), Some(rule)),
        format!("host port {port} not set in {what}"),
    )
}
