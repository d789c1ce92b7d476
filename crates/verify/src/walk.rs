//! The static reachability walk: one (group, sender) pair at a time.
//!
//! Mirrors the data plane's forwarding pipeline (`NetworkSwitch::
//! process_hops_hv` plus the fabric's hop table) without constructing packets:
//! each stage resolves the same rule the switch would (own-id p-rule, then
//! the installed s-rule, then the default p-rule) and advances the same
//! pop depth, so the reachable host multiset and the per-link byte
//! accounting are exactly what a real transmission would produce. ECMP
//! multipath is path-independent by construction — upstream stages use
//! only header rules, and downstream s-rules are replica-checked across a
//! pod's spines by the table pass — so the walk follows one representative
//! path and the result holds for every hash outcome.

use std::collections::BTreeMap;

use elmo_controller::GroupState;
use elmo_core::{pop, ElmoHeader, HeaderLayout};
use elmo_dataplane::{ElmoPacketRepr, Fabric};
use elmo_topology::{Clos, HostId, LeafId, PodId, SwitchRef};

use crate::report::{RuleRef, Violation, ViolationKind, Witness};

/// Fixed outer-stack bytes per copy (Ethernet + IPv4 + UDP + VXLAN),
/// matching `elmo_sim::metrics::OUTER`.
pub(crate) const OUTER: u64 = ElmoPacketRepr::OUTER_LEN as u64;

/// What one sender's transmission statically reaches, and what it costs.
pub(crate) struct SenderWalk {
    /// Host -> copy count (a multiset: >1 means duplicate delivery).
    pub deliveries: BTreeMap<HostId, u32>,
    /// Wire link crossings plus host copies (the traffic model's `links`).
    pub links: u64,
    /// Fixed bytes: OUTER plus the residual header per wire copy, OUTER
    /// per host copy (header stripped at the leaf).
    pub fixed_bytes: u64,
    /// Encoded header length at the sender.
    pub header_bytes: usize,
    /// Structural violations found along the way (port domains, pop-order
    /// breaks, back edges). Delivery diffs are the caller's job.
    pub violations: Vec<Violation>,
}

pub(crate) fn walk_sender(
    topo: &Clos,
    layout: &HeaderLayout,
    fabric: &Fabric,
    state: &GroupState,
    sender: HostId,
    header: &ElmoHeader,
) -> SenderWalk {
    let mut w = Walker {
        topo,
        layout,
        fabric,
        state,
        header,
        out: SenderWalk {
            deliveries: BTreeMap::new(),
            links: 0,
            fixed_bytes: 0,
            header_bytes: header.byte_len(layout),
            violations: Vec::new(),
        },
    };
    w.check_structure();
    w.run(sender);
    w.out
}

struct Walker<'a> {
    topo: &'a Clos,
    layout: &'a HeaderLayout,
    fabric: &'a Fabric,
    state: &'a GroupState,
    header: &'a ElmoHeader,
    out: SenderWalk,
}

impl Walker<'_> {
    /// One wire copy at pop depth `depth`: OUTER plus the residual header.
    fn wire(&mut self, depth: u8) {
        self.out.links += 1;
        self.out.fixed_bytes += OUTER + self.header.byte_len_popped(self.layout, depth) as u64;
    }

    /// One host copy: the leaf strips the Elmo header before delivery.
    fn deliver(&mut self, host: HostId) {
        self.out.links += 1;
        self.out.fixed_bytes += OUTER;
        *self.out.deliveries.entry(host).or_insert(0) += 1;
    }

    fn violation(&mut self, kind: ViolationKind, witness: Witness, detail: String) {
        self.out.violations.push(Violation {
            group: Some(self.state.id),
            kind,
            witness,
            detail,
        });
    }

    /// Width and domain checks over every header section, whether the walk
    /// reaches it or not. A downstream bitmap bit in the up-facing port
    /// range is a back edge in the rule graph (leaf -> spine or spine ->
    /// core against the pop order): flagged as a loop.
    fn check_structure(&mut self) {
        let rule_w = |r| Witness {
            rule: Some(r),
            ..Witness::default()
        };
        let mut width = |actual: usize, expected: usize, rule: RuleRef| {
            if actual != expected {
                self.out.violations.push(Violation {
                    group: Some(self.state.id),
                    kind: ViolationKind::PortDomain,
                    witness: rule_w(rule),
                    detail: format!("bitmap width {actual}, layer has {expected} ports"),
                });
            }
        };
        if let Some(ul) = &self.header.u_leaf {
            width(ul.down.width(), self.layout.leaf_down_ports, RuleRef::ULeaf);
            width(ul.up.width(), self.layout.leaf_up_ports, RuleRef::ULeaf);
        }
        if let Some(us) = &self.header.u_spine {
            width(
                us.down.width(),
                self.layout.spine_down_ports,
                RuleRef::USpine,
            );
            width(us.up.width(), self.layout.spine_up_ports, RuleRef::USpine);
        }
        if let Some(core) = &self.header.core {
            width(core.width(), self.layout.core_ports, RuleRef::Core);
        }
        for (i, r) in self.header.d_spine.rules().enumerate() {
            width(
                r.bitmap.width(),
                self.layout.spine_down_ports,
                RuleRef::DSpine(i),
            );
        }
        if let Some(bm) = self.header.d_spine.default() {
            width(
                bm.width(),
                self.layout.spine_down_ports,
                RuleRef::DSpineDefault,
            );
        }
        for (i, r) in self.header.d_leaf.rules().enumerate() {
            width(
                r.bitmap.width(),
                self.layout.leaf_down_ports,
                RuleRef::DLeaf(i),
            );
        }
        if let Some(bm) = self.header.d_leaf.default() {
            width(
                bm.width(),
                self.layout.leaf_down_ports,
                RuleRef::DLeafDefault,
            );
        }

        // Switch-id domains and back edges.
        for (i, r) in self.header.d_spine.rules().enumerate() {
            for &p in r.switches {
                if p as usize >= self.topo.num_pods() {
                    self.violation(
                        ViolationKind::PortDomain,
                        rule_w(RuleRef::DSpine(i)),
                        format!("pod id {p} out of range ({} pods)", self.topo.num_pods()),
                    );
                }
            }
            self.check_back_edge(
                r.bitmap,
                self.topo.spine_down_ports(),
                RuleRef::DSpine(i),
                "core",
            );
        }
        if let Some(bm) = self.header.d_spine.default() {
            self.check_back_edge(
                bm,
                self.topo.spine_down_ports(),
                RuleRef::DSpineDefault,
                "core",
            );
        }
        for (i, r) in self.header.d_leaf.rules().enumerate() {
            for &l in r.switches {
                if l as usize >= self.topo.num_leaves() {
                    self.violation(
                        ViolationKind::PortDomain,
                        rule_w(RuleRef::DLeaf(i)),
                        format!(
                            "leaf id {l} out of range ({} leaves)",
                            self.topo.num_leaves()
                        ),
                    );
                }
            }
            self.check_back_edge(
                r.bitmap,
                self.topo.leaf_down_ports(),
                RuleRef::DLeaf(i),
                "spine",
            );
        }
        if let Some(bm) = self.header.d_leaf.default() {
            self.check_back_edge(
                bm,
                self.topo.leaf_down_ports(),
                RuleRef::DLeafDefault,
                "spine",
            );
        }
    }

    fn check_back_edge(
        &mut self,
        bm: &elmo_core::PortBitmap,
        down_ports: usize,
        rule: RuleRef,
        toward: &str,
    ) {
        if let Some(p) = bm.iter_ones().find(|&p| p >= down_ports) {
            self.violation(
                ViolationKind::Loop,
                Witness {
                    rule: Some(rule),
                    ..Witness::default()
                },
                format!(
                    "downstream rule targets up-facing port {p} (down ports: {down_ports}): \
                     back edge toward the {toward} layer against the pop order"
                ),
            );
        }
    }

    fn run(&mut self, sender: HostId) {
        let sender_leaf = self.topo.leaf_of_host(sender);
        let sender_pod = self.topo.pod_of_leaf(sender_leaf);

        // Host -> ingress leaf, full header.
        self.wire(pop::NONE);
        let Some(ul) = self.header.u_leaf.clone() else {
            // The ingress leaf has no u-leaf rule: the packet dies here.
            // Per-receiver Loss violations come out of the delivery diff.
            return;
        };
        for p in ul.down.iter_ones() {
            if p >= self.topo.leaf_down_ports() {
                continue; // out-of-domain bit, flagged in check_structure
            }
            let host = self.topo.host_under_leaf(sender_leaf, p);
            self.deliver(host);
        }
        if !ul.goes_up() {
            return;
        }
        if !ul.multipath {
            for p in ul.up.iter_ones() {
                if p >= self.topo.leaf_up_ports() {
                    self.violation(
                        ViolationKind::PortDomain,
                        Witness {
                            switch: Some(SwitchRef::Leaf(sender_leaf)),
                            rule: Some(RuleRef::ULeaf),
                            ..Witness::default()
                        },
                        format!("up port {p} out of range ({})", self.topo.leaf_up_ports()),
                    );
                }
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
                .filter(|&p| p < self.topo.leaf_up_ports())
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
        let Some(us) = self.header.u_spine.clone() else {
            if emit {
                self.violation(
                    ViolationKind::PopDepth,
                    Witness {
                        rule: Some(RuleRef::ULeaf),
                        ..Witness::default()
                    },
                    "u_leaf forwards upstream but the header has no u_spine section: \
                     the pop order cannot advance past the spine"
                        .into(),
                );
            }
            return;
        };
        for li in us.down.iter_ones() {
            if li >= self.topo.spine_down_ports() {
                continue; // width violation already flagged
            }
            let leaf = self.topo.leaf_in_pod(sender_pod, li);
            // Spine -> local member leaf: u_spine/core/d_spine popped.
            self.wire(pop::D_SPINE);
            self.resolve_leaf(leaf);
        }
        if !us.goes_up() {
            return;
        }
        let Some(core) = self.header.core.clone() else {
            if emit {
                self.violation(
                    ViolationKind::PopDepth,
                    Witness {
                        rule: Some(RuleRef::USpine),
                        ..Witness::default()
                    },
                    "u_spine forwards upstream but the header has no core section: \
                     the pop order cannot advance past the core"
                        .into(),
                );
            }
            return;
        };
        let core_copies = if us.multipath {
            1
        } else {
            us.up
                .iter_ones()
                .filter(|&p| p < self.topo.spine_up_ports())
                .count()
        };
        for _ in 0..core_copies {
            // Spine -> core, u-spine popped.
            self.wire(pop::U_SPINE);
            for pod_idx in core.iter_ones() {
                if pod_idx >= self.topo.num_pods() {
                    continue; // width violation already flagged
                }
                // Core -> remote pod's spine, core rule popped.
                self.wire(pop::CORE);
                self.resolve_pod(PodId(pod_idx as u32));
            }
        }
    }

    /// Downstream spine resolution for one pod: own-id d-spine p-rule,
    /// else the pod's installed s-rule (replica-checked by the table
    /// pass; any spine's copy is representative), else the default
    /// p-rule, else the packet drops here.
    fn resolve_pod(&mut self, pod: PodId) {
        let outer = self.state.outer_addr;
        let bitmap = if let Some(r) = self.header.find_d_spine(pod.0) {
            Some(r.bitmap.clone())
        } else if let Some(bm) = self
            .topo
            .spines_in_pod(pod)
            .find_map(|s| self.fabric.spine(s).srule(&outer))
        {
            Some(bm.clone())
        } else {
            self.header.d_spine.default().cloned()
        };
        let Some(bm) = bitmap else {
            return; // receivers in this pod show up as Loss in the diff
        };
        for li in bm.iter_ones() {
            if li >= self.topo.spine_down_ports() {
                continue;
            }
            self.wire(pop::D_SPINE);
            self.resolve_leaf(self.topo.leaf_in_pod(pod, li));
        }
    }

    /// Downstream leaf resolution: own-id d-leaf p-rule, else the leaf's
    /// installed s-rule, else the default p-rule, else drop.
    fn resolve_leaf(&mut self, leaf: LeafId) {
        let outer = self.state.outer_addr;
        let bitmap = if let Some(r) = self.header.find_d_leaf(leaf.0) {
            Some(r.bitmap.clone())
        } else if let Some(bm) = self.fabric.leaf(leaf).srule(&outer) {
            Some(bm.clone())
        } else {
            self.header.d_leaf.default().cloned()
        };
        let Some(bm) = bitmap else {
            return;
        };
        for p in bm.iter_ones() {
            if p >= self.topo.leaf_down_ports() {
                continue; // back edge, flagged as Loop elsewhere
            }
            self.deliver(self.topo.host_under_leaf(leaf, p));
        }
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
    let outer = state.outer_addr;

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
    if pod == sender_pod {
        let li = topo.leaf_index_in_pod(leaf);
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
        let li = topo.leaf_index_in_pod(leaf);
        if let Some(i) = header
            .d_spine
            .rules()
            .position(|r| r.switches.contains(&pod.0))
        {
            if !header.d_spine.rule(i).bitmap.get(li) {
                return (
                    w(
                        Some(SwitchRef::Spine(topo.spine_in_pod(pod, 0))),
                        Some(RuleRef::DSpine(i)),
                    ),
                    format!("leaf index {li} not set in d_spine rule for pod {}", pod.0),
                );
            }
        } else if let Some((spine, bm)) = topo
            .spines_in_pod(pod)
            .find_map(|s| fabric.spine(s).srule(&outer).map(|bm| (s, bm)))
        {
            if !bm.get(li) {
                return (
                    w(Some(SwitchRef::Spine(spine)), Some(RuleRef::SRule)),
                    format!("leaf index {li} not set in the pod's s-rule"),
                );
            }
        } else if let Some(bm) = header.d_spine.default() {
            if !bm.get(li) {
                return (
                    w(
                        Some(SwitchRef::Spine(topo.spine_in_pod(pod, 0))),
                        Some(RuleRef::DSpineDefault),
                    ),
                    format!("leaf index {li} not set in d_spine_default"),
                );
            }
        } else {
            return (
                w(Some(SwitchRef::Spine(topo.spine_in_pod(pod, 0))), None),
                format!("no d_spine rule, s-rule, or default matches pod {}", pod.0),
            );
        }
    }
    // The leaf was reached; its own resolution must have dropped the host.
    let port = topo.host_port_on_leaf(host);
    if let Some(i) = header
        .d_leaf
        .rules()
        .position(|r| r.switches.contains(&leaf.0))
    {
        (
            w(Some(SwitchRef::Leaf(leaf)), Some(RuleRef::DLeaf(i))),
            format!(
                "host port {port} not set in d_leaf rule for leaf {}",
                leaf.0
            ),
        )
    } else if fabric.leaf(leaf).srule(&outer).is_some() {
        (
            w(Some(SwitchRef::Leaf(leaf)), Some(RuleRef::SRule)),
            format!("host port {port} not set in the leaf's s-rule"),
        )
    } else if header.d_leaf.default().is_some() {
        (
            w(Some(SwitchRef::Leaf(leaf)), Some(RuleRef::DLeafDefault)),
            format!("host port {port} not set in d_leaf_default"),
        )
    } else {
        (
            w(Some(SwitchRef::Leaf(leaf)), None),
            "no d_leaf rule, s-rule, or default matches this leaf".into(),
        )
    }
}
