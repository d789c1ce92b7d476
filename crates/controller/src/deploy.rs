//! The one deployment path: controller state becomes device state (paper
//! §4, §5.1.3, Table 2).
//!
//! The controller programs two kinds of device: hypervisor switches (sender
//! flows and receiver subscriptions) and network switches (s-rules in leaf
//! and spine group tables). [`ops`] turns one membership event's
//! [`UpdateSet`] into an explicit, ordered list of [`DeviceOp`]s, and
//! [`Deployment::apply`] is the one applier that programs them.
//!
//! The order is make-before-break: new and overwritten s-rules first, then
//! re-encapsulated sender flows, then subscription changes, and only then
//! the s-rules the group no longer uses. A packet built from a header of
//! either epoch never meets a switch whose s-rule was removed before the
//! header that replaces it was installed.
//!
//! The ops are derived from the update set and the group's *current* state
//! only: a listed leaf or pod gets the s-rule the current encoding holds,
//! or loses its entry when the encoding holds none, and a listed
//! hypervisor converges to the current member counts. No caller keeps a
//! copy of the pre-event state.
//!
//! A group the controller has degraded to unicast fallback (§3.3) holds no
//! s-rules in the network: its listed leaves and pods are cleared, and its
//! sender flows replicate over unicast to the group's receivers.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use elmo_core::{GroupEncoding, PortBitmap};
use elmo_dataplane::{Fabric, HypervisorSwitch, SenderFlow, SwitchConfig, VmSlot};
use elmo_net::vxlan::Vni;
use elmo_topology::{HostId, LeafId, PodId, SpineId, SwitchRef};

use crate::controller::{Controller, GroupId, UpdateSet};

/// Device refusals, mirrored into the global `deploy.refused` counter.
fn refused() -> elmo_obs::Counter {
    static C: std::sync::OnceLock<elmo_obs::Counter> = std::sync::OnceLock::new();
    *C.get_or_init(|| elmo_obs::counter("deploy.refused"))
}

/// One write to one device, over topology ids and group addresses. A pod
/// s-rule is written to every spine of the pod, because multipath may land
/// the packet on any of them.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DeviceOp {
    /// Install or overwrite a group's s-rule on one leaf.
    SetLeafSRule {
        leaf: LeafId,
        group: Ipv4Addr,
        ports: PortBitmap,
    },
    /// Remove a group's s-rule from one leaf.
    ClearLeafSRule { leaf: LeafId, group: Ipv4Addr },
    /// Install or overwrite a group's s-rule on every spine of a pod.
    SetPodSRule {
        pod: PodId,
        group: Ipv4Addr,
        ports: PortBitmap,
    },
    /// Remove a group's s-rule from every spine of a pod.
    ClearPodSRule { pod: PodId, group: Ipv4Addr },
    /// Build the sender's header from the controller's current state and
    /// install (or replace) its flow.
    InstallFlow { group: GroupId, host: HostId },
    /// Remove a host's flow for a tenant group.
    RemoveFlow {
        host: HostId,
        vni: Vni,
        tenant: Ipv4Addr,
    },
    /// Subscribe a host's VM to an outer group address.
    Subscribe { host: HostId, group: Ipv4Addr },
    /// Unsubscribe a host's VM from an outer group address.
    Unsubscribe { host: HostId, group: Ipv4Addr },
}

impl DeviceOp {
    /// Where make-before-break puts this op: new and overwritten s-rules
    /// (0), then flows (1), then subscriptions (2), then s-rule removals (3).
    pub fn phase(&self) -> u8 {
        match self {
            DeviceOp::SetLeafSRule { .. } | DeviceOp::SetPodSRule { .. } => 0,
            DeviceOp::InstallFlow { .. } | DeviceOp::RemoveFlow { .. } => 1,
            DeviceOp::Subscribe { .. } | DeviceOp::Unsubscribe { .. } => 2,
            DeviceOp::ClearLeafSRule { .. } | DeviceOp::ClearPodSRule { .. } => 3,
        }
    }
}

/// Why a device refused an op.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeployError {
    /// The switch's group table was full and held no entry for the group.
    TableFull { switch: SwitchRef, group: Ipv4Addr },
    /// The controller has no header for this sender (unknown group).
    NoHeader { group: GroupId, host: HostId },
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployError::TableFull { switch, group } => {
                write!(
                    f,
                    "{switch:?} refused the s-rule for {group}: group table full"
                )
            }
            DeployError::NoHeader { group, host } => {
                write!(f, "no header for sender {} of group {}", host.0, group.0)
            }
        }
    }
}

impl std::error::Error for DeployError {}

/// The s-rule half of a group's state: one op per leaf and per pod the
/// encoding gives an s-rule, for the group's outer address.
pub fn srule_ops(group: Ipv4Addr, enc: &GroupEncoding) -> impl Iterator<Item = DeviceOp> + '_ {
    let leaf = move |(l, ports): &(u32, PortBitmap)| DeviceOp::SetLeafSRule {
        leaf: LeafId(*l),
        group,
        ports: ports.clone(),
    };
    let pod = move |(p, ports): &(u32, PortBitmap)| DeviceOp::SetPodSRule {
        pod: PodId(*p),
        group,
        ports: ports.clone(),
    };
    (enc.d_leaf.s_rules.iter().map(leaf)).chain(enc.d_spine.s_rules.iter().map(pod))
}

/// Everything a freshly created group needs: its s-rules (none for a
/// group degraded to unicast), a flow on every sender host, and a
/// subscription on every receiver host. Empty for an unknown group.
pub fn deploy_group(ctl: &Controller, gid: GroupId) -> Vec<DeviceOp> {
    let Some(state) = ctl.group(gid) else {
        return Vec::new();
    };
    let outer = state.outer_addr;
    let mut out: Vec<DeviceOp> = if state.unicast_fallback {
        Vec::new()
    } else {
        srule_ops(outer, &state.enc).collect()
    };
    out.extend(
        state
            .sender_hosts()
            .map(|host| DeviceOp::InstallFlow { group: gid, host }),
    );
    out.extend(
        state
            .receiver_hosts()
            .map(|host| DeviceOp::Subscribe { host, group: outer }),
    );
    out
}

/// One event's ops, make-before-break, from the event's update set and the
/// group's current state. A listed leaf or pod converges to the current
/// encoding's s-rule; a listed hypervisor converges to the current member
/// counts (a flow iff it holds a sender, a subscription iff it holds a
/// receiver); `all_senders` re-encapsulates every sender.
///
/// For a group degraded to unicast, every listed s-rule is cleared. For a
/// group the controller no longer holds, the listed s-rules and
/// subscriptions are cleared. Its flows are keyed by a tenant address the
/// controller has forgotten, so they are not named.
pub fn ops(ctl: &Controller, gid: GroupId, updates: &UpdateSet) -> Vec<DeviceOp> {
    let outer = Controller::outer_addr(gid);
    let state = ctl.group(gid);
    let enc = state.filter(|s| !s.unicast_fallback).map(|s| &s.enc);
    let mut out = Vec::new();
    for &leaf in &updates.leaves {
        out.push(match enc.and_then(|e| e.d_leaf.s_rule(leaf.0)) {
            Some(ports) => DeviceOp::SetLeafSRule {
                leaf,
                group: outer,
                ports: ports.clone(),
            },
            None => DeviceOp::ClearLeafSRule { leaf, group: outer },
        });
    }
    for &pod in &updates.spine_pods {
        out.push(match enc.and_then(|e| e.d_spine.s_rule(pod.0)) {
            Some(ports) => DeviceOp::SetPodSRule {
                pod,
                group: outer,
                ports: ports.clone(),
            },
            None => DeviceOp::ClearPodSRule { pod, group: outer },
        });
    }
    for &host in &updates.hypervisors {
        let counts = state
            .and_then(|s| s.members.get(&host))
            .copied()
            .unwrap_or_default();
        if let Some(s) = state {
            out.push(if counts.senders > 0 {
                DeviceOp::InstallFlow { group: gid, host }
            } else {
                DeviceOp::RemoveFlow {
                    host,
                    vni: s.vni,
                    tenant: s.tenant_addr,
                }
            });
        }
        out.push(if counts.receivers > 0 {
            DeviceOp::Subscribe { host, group: outer }
        } else {
            DeviceOp::Unsubscribe { host, group: outer }
        });
    }
    if let Some(s) = state.filter(|_| updates.all_senders) {
        out.extend(
            s.sender_hosts()
                .filter(|h| !updates.hypervisors.contains(h))
                .map(|host| DeviceOp::InstallFlow { group: gid, host }),
        );
    }
    // Stable: within a phase the ops keep the order listed above.
    out.sort_by_key(DeviceOp::phase);
    out
}

/// The switch half of [`Deployment::apply`]: apply the s-rule ops of `ops`
/// in order and skip the hypervisor ops, for callers that model only the
/// network tier or encode a group without a controller ([`srule_ops`]).
pub fn apply_switch_ops(
    fabric: &mut Fabric,
    ops: impl IntoIterator<Item = DeviceOp>,
) -> Result<(), DeployError> {
    ops.into_iter()
        .try_for_each(|op| apply_switch_op(fabric, &op))
}

/// Apply one s-rule op. Hypervisor ops are not switch ops and are ignored.
fn apply_switch_op(fabric: &mut Fabric, op: &DeviceOp) -> Result<(), DeployError> {
    let result = match op {
        DeviceOp::SetLeafSRule { leaf, group, ports } => fabric
            .leaf_mut(*leaf)
            .install_srule(*group, ports.clone())
            .map_err(|_| DeployError::TableFull {
                switch: SwitchRef::Leaf(*leaf),
                group: *group,
            }),
        DeviceOp::SetPodSRule { pod, group, ports } => fabric
            .install_pod_srule(*pod, *group, ports.clone())
            .map_err(|_| {
                let full = |s: &SpineId| {
                    let sw = fabric.spine(*s);
                    sw.srule_capacity_left() == 0 && sw.srule(group).is_none()
                };
                // `install_pod_srule` refuses only when one of them is full.
                let spines: Vec<SpineId> = fabric.topo().spines_in_pod(*pod).collect();
                let spine = spines.iter().copied().find(full).unwrap_or(spines[0]);
                DeployError::TableFull {
                    switch: SwitchRef::Spine(spine),
                    group: *group,
                }
            }),
        DeviceOp::ClearLeafSRule { leaf, group } => {
            fabric.leaf_mut(*leaf).remove_srule(group);
            Ok(())
        }
        DeviceOp::ClearPodSRule { pod, group } => {
            let topo = *fabric.topo();
            for s in topo.spines_in_pod(*pod) {
                fabric.spine_mut(s).remove_srule(group);
            }
            Ok(())
        }
        _ => Ok(()),
    };
    if result.is_err() {
        refused().inc();
    }
    result
}

/// A fabric and its hypervisor tier, programmed only through
/// [`Deployment::apply`]. A hypervisor switch exists once an op named its
/// host.
#[derive(Clone, Debug)]
pub struct Deployment {
    pub fabric: Fabric,
    pub hypervisors: BTreeMap<HostId, HypervisorSwitch>,
}

impl Deployment {
    /// An unprogrammed fabric and an empty hypervisor tier.
    pub fn new(fabric: Fabric) -> Self {
        Deployment {
            fabric,
            hypervisors: BTreeMap::new(),
        }
    }

    /// A fresh fabric with switch limits `config`, programmed with every
    /// group `ctl` holds, in group-id order.
    pub fn of(ctl: &Controller, config: SwitchConfig) -> Result<Self, DeployError> {
        let mut dep = Deployment::new(Fabric::new(*ctl.topo(), config));
        let mut ids: Vec<GroupId> = ctl.groups().map(|g| g.id).collect();
        ids.sort_unstable();
        for gid in ids {
            dep.apply(ctl, &deploy_group(ctl, gid))?;
        }
        Ok(dep)
    }

    /// Apply `ops` in order. Stops at the first op a device refuses and
    /// returns the refusal; the ops before it stay applied.
    pub fn apply(&mut self, ctl: &Controller, ops: &[DeviceOp]) -> Result<(), DeployError> {
        for op in ops {
            match *op {
                DeviceOp::InstallFlow { group, host } => {
                    let (Some(state), Some(header)) =
                        (ctl.group(group), ctl.header_for(group, host))
                    else {
                        refused().inc();
                        return Err(DeployError::NoHeader { group, host });
                    };
                    let mut flow =
                        SenderFlow::new(state.outer_addr, state.vni, &header, ctl.layout(), vec![]);
                    if state.unicast_fallback {
                        flow.fallback_hosts =
                            state.receiver_hosts().filter(|&h| h != host).collect();
                        flow.unicast_fallback = true;
                    }
                    self.hypervisor_mut(host)
                        .install_flow(state.vni, state.tenant_addr, flow);
                }
                DeviceOp::RemoveFlow { host, vni, tenant } => {
                    if let Some(hv) = self.hypervisors.get_mut(&host) {
                        hv.remove_flow(vni, tenant);
                    }
                }
                DeviceOp::Subscribe { host, group } => {
                    self.hypervisor_mut(host).subscribe(group, VmSlot(0));
                }
                DeviceOp::Unsubscribe { host, group } => {
                    if let Some(hv) = self.hypervisors.get_mut(&host) {
                        hv.unsubscribe(group, VmSlot(0));
                    }
                }
                _ => apply_switch_op(&mut self.fabric, op)?,
            }
        }
        Ok(())
    }

    /// The hypervisor switch of `host`, created empty if no op named it yet.
    pub fn hypervisor_mut(&mut self, host: HostId) -> &mut HypervisorSwitch {
        self.hypervisors
            .entry(host)
            .or_insert_with(|| HypervisorSwitch::new(host))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{ControllerConfig, MemberRole};
    use elmo_core::SplitMix64;
    use elmo_topology::Clos;

    fn uncapped() -> SwitchConfig {
        SwitchConfig {
            group_table_capacity: usize::MAX,
            ..SwitchConfig::default()
        }
    }

    type Table = Vec<(Ipv4Addr, PortBitmap)>;
    /// (group, host, subscribed, flow bytes).
    type HostRow = (u64, u32, bool, Option<Vec<u8>>);

    /// Everything a deployment programs, in comparable form: every leaf and
    /// spine table, one row per (group, host), and each host's flow count.
    fn programmed(ctl: &Controller, dep: &Deployment) -> (Vec<Table>, Vec<HostRow>, Vec<usize>) {
        let topo = *ctl.topo();
        let switches = (topo.leaves().map(|l| dep.fabric.leaf(l)))
            .chain(topo.spines().map(|s| dep.fabric.spine(s)));
        let tables = switches
            .map(|sw| sw.srules().map(|(a, b)| (*a, b.clone())).collect())
            .collect();
        let mut ids: Vec<GroupId> = ctl.groups().map(|g| g.id).collect();
        ids.sort_unstable();
        let mut rows = Vec::new();
        for gid in ids {
            let g = ctl.group(gid).expect("listed group");
            for h in topo.hosts() {
                let hv = dep.hypervisors.get(&h);
                rows.push((
                    gid.0,
                    h.0,
                    hv.is_some_and(|hv| !hv.subscribers(g.outer_addr).is_empty()),
                    hv.and_then(|hv| hv.flow(g.vni, g.tenant_addr))
                        .map(|f| f.elmo_bytes.clone()),
                ));
            }
        }
        let flows = topo
            .hosts()
            .map(|h| dep.hypervisors.get(&h).map_or(0, |hv| hv.flow_count()))
            .collect();
        (tables, rows, flows)
    }

    /// A seeded join/leave stream under a header budget tight enough that
    /// events install, overwrite and remove s-rules: after every event the
    /// live deployment equals a fresh deploy of every group, and no op list
    /// removes an s-rule before its last install or flow op.
    #[test]
    fn every_event_makes_before_it_breaks_and_converges_to_a_fresh_deploy() {
        let topo = Clos::paper_example();
        let cfg = ControllerConfig {
            header_budget_bytes: 14,
            ..ControllerConfig::paper_default(0)
        };
        let mut ctl = Controller::new(topo, cfg);
        let mut dep = Deployment::new(Fabric::new(topo, uncapped()));
        let mut rng = SplitMix64::new(0xde_9107);
        let host = |rng: &mut SplitMix64| HostId(rng.below(topo.num_hosts() as u64) as u32);
        let mut vms: Vec<Vec<(HostId, MemberRole)>> = Vec::new();
        for g in 0..6u64 {
            let size = rng.range_inclusive(3, 12);
            let members: Vec<(HostId, MemberRole)> = (0..size)
                .map(|i| {
                    let role = if i == 0 {
                        MemberRole::Both
                    } else {
                        MemberRole::Receiver
                    };
                    (host(&mut rng), role)
                })
                .collect();
            let addr = Ipv4Addr::new(225, 0, 0, g as u8);
            ctl.create_group(GroupId(g), Vni(3), addr, members.iter().copied());
            dep.apply(&ctl, &deploy_group(&ctl, GroupId(g)))
                .expect("uncapped tables");
            vms.push(members);
        }
        assert!(
            programmed(&ctl, &dep) == programmed(&ctl, &Deployment::of(&ctl, uncapped()).unwrap())
        );

        let (mut sets, mut clears) = (0, 0);
        for step in 0..400 {
            let g = rng.below(vms.len() as u64);
            let gid = GroupId(g);
            let members = &mut vms[g as usize];
            let updates = if members.len() <= 1 || rng.below(2) == 0 {
                let role = [MemberRole::Sender, MemberRole::Receiver, MemberRole::Both]
                    [rng.below(3) as usize];
                let h = host(&mut rng);
                members.push((h, role));
                ctl.join(gid, h, role)
            } else {
                let (h, role) = members.swap_remove(rng.below(members.len() as u64) as usize);
                ctl.leave(gid, h, role)
            };
            let ops = ops(&ctl, gid, &updates);
            let removal = |op: &DeviceOp| {
                matches!(
                    op,
                    DeviceOp::ClearLeafSRule { .. } | DeviceOp::ClearPodSRule { .. }
                )
            };
            let first_removal = ops.iter().position(removal).unwrap_or(ops.len());
            assert!(
                ops[first_removal..].iter().all(removal),
                "step {step}: an install or flow op follows a removal: {ops:?}"
            );
            sets += ops
                .iter()
                .filter(|op| {
                    matches!(
                        op,
                        DeviceOp::SetLeafSRule { .. } | DeviceOp::SetPodSRule { .. }
                    )
                })
                .count();
            clears += ops.len() - first_removal;
            dep.apply(&ctl, &ops).expect("uncapped tables");
            let fresh = Deployment::of(&ctl, uncapped()).expect("uncapped tables");
            assert!(
                programmed(&ctl, &dep) == programmed(&ctl, &fresh),
                "step {step}: the live deployment differs from a fresh deploy"
            );
        }
        assert!(
            sets > 0 && clears > 0,
            "stream moved no s-rule: {sets} sets, {clears} clears"
        );
    }

    /// A group degraded to unicast fallback holds no s-rules: a fresh deploy
    /// installs none and gives every sender a unicast flow, and an event's
    /// ops clear every switch they list instead of setting it.
    #[test]
    fn a_degraded_group_deploys_no_srules_and_unicast_flows() {
        let topo = Clos::paper_example();
        let cfg = ControllerConfig {
            header_budget_bytes: 14,
            ..ControllerConfig::paper_default(0)
        };
        let mut ctl = Controller::new(topo, cfg);
        let gid = GroupId(1);
        // Host port l on leaf l: the tight budget spills leaves onto s-rules.
        let members = (0..8).map(|l| (HostId(l * 8 + l), MemberRole::Both));
        ctl.create_group(gid, Vni(7), Ipv4Addr::new(225, 0, 0, 1), members);
        let any_srule = |dep: &Deployment| {
            topo.leaves()
                .any(|l| dep.fabric.leaf(l).srules().next().is_some())
                || topo
                    .spines()
                    .any(|s| dep.fabric.spine(s).srules().next().is_some())
        };
        let mut live = Deployment::of(&ctl, uncapped()).expect("uncapped tables");
        assert!(any_srule(&live), "the fixture must spill s-rules");

        // Both spines of pod 2 fail: its members have no upstream cover.
        for s in topo.spines_in_pod(PodId(2)) {
            ctl.handle_spine_failure(s);
        }
        let state = ctl.group(gid).expect("group");
        assert!(
            state.unicast_fallback,
            "a partitioned pod degrades the group"
        );
        let fresh = Deployment::of(&ctl, uncapped()).expect("uncapped tables");
        assert!(!any_srule(&fresh), "a degraded group installed s-rules");
        for sender in state.sender_hosts() {
            let flow = fresh.hypervisors[&sender]
                .flow(state.vni, state.tenant_addr)
                .expect("every sender keeps a flow");
            assert!(flow.unicast_fallback);
            let others: Vec<HostId> = state.receiver_hosts().filter(|&h| h != sender).collect();
            assert_eq!(flow.fallback_hosts, others);
        }

        let every_switch = UpdateSet {
            leaves: topo.leaves().collect(),
            spine_pods: topo.pods().collect(),
            ..UpdateSet::default()
        };
        let clears = ops(&ctl, gid, &every_switch);
        assert!(
            clears.iter().all(|op| op.phase() == 3),
            "a degraded group set an s-rule: {clears:?}"
        );
        live.apply(&ctl, &clears).expect("clears never refuse");
        assert!(!any_srule(&live), "the clears left an s-rule behind");
    }

    /// At one group-table entry per switch, the second group's first leaf
    /// s-rule is refused with the switch named and the refusal counted.
    #[test]
    fn a_full_group_table_is_a_typed_counted_refusal() {
        let topo = Clos::paper_example();
        let cfg = ControllerConfig {
            header_budget_bytes: 14,
            ..ControllerConfig::paper_default(0)
        };
        let mut ctl = Controller::new(topo, cfg);
        for g in 0..2u64 {
            // Host port l on leaf l: every leaf bitmap is distinct, so the
            // tight budget spills leaves onto s-rules.
            let members = (0..8).map(|l| (HostId(l * 8 + l), MemberRole::Both));
            ctl.create_group(
                GroupId(g),
                Vni(7),
                Ipv4Addr::new(225, 0, 0, g as u8),
                members,
            );
        }
        let one = SwitchConfig {
            group_table_capacity: 1,
            ..SwitchConfig::default()
        };
        let mut dep = Deployment::new(Fabric::new(topo, one));
        dep.apply(&ctl, &deploy_group(&ctl, GroupId(0)))
            .expect("the first group fits");
        let second = deploy_group(&ctl, GroupId(1));
        let Some(&DeviceOp::SetLeafSRule { leaf, group, .. }) = second.first() else {
            panic!("the fixture must give the group a leaf s-rule: {second:?}");
        };
        let refusals = || elmo_obs::snapshot().counter("deploy.refused").unwrap_or(0);
        let before = refusals();
        assert_eq!(
            dep.apply(&ctl, &second),
            Err(DeployError::TableFull {
                switch: SwitchRef::Leaf(leaf),
                group
            })
        );
        assert!(refusals() > before, "the refusal was not counted");

        // A pod s-rule names the spine that had no room.
        let pod = PodId(1);
        let set = |group| DeviceOp::SetPodSRule {
            pod,
            group,
            ports: PortBitmap::from_ports(2, [0]),
        };
        let mut dep = Deployment::new(Fabric::new(topo, one));
        let (a, b) = (Ipv4Addr::new(230, 0, 0, 1), Ipv4Addr::new(230, 0, 0, 2));
        dep.apply(&ctl, &[set(a)]).expect("empty tables");
        let spine = topo.spines_in_pod(pod).next().expect("a pod has spines");
        assert_eq!(
            dep.apply(&ctl, &[set(b)]),
            Err(DeployError::TableFull {
                switch: SwitchRef::Spine(spine),
                group: b
            })
        );
    }
}
