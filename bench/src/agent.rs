//! The deployment agent the benchmark owns.
//!
//! The controller is a library that returns *what changed*
//! ([`UpdateSet`]); nothing in the repository applies that to a live
//! [`Fabric`] and hypervisor tier one event at a time. This agent does:
//! a group's initial state once, then exactly each event's `UpdateSet`.
//! Every call into a layer sits between `rec.enter` and `rec.exit`, so a
//! traced run charges it to that layer.

use crate::sut::{
    Clos, Controller, Fabric, GroupId, GroupState, HeaderLayout, HostId, HypervisorSwitch, LeafId,
    MemberRole, PodId, PortBitmap, SenderFlow, SwitchConfig, UpdateSet, VmSlot,
};
use crate::trace::{Name, Recorder};

/// Work the agent did, counted where it happens.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct DeployCounts {
    /// s-rule entries written (one per physical switch).
    pub srule_installs: u64,
    /// s-rule entries removed (one per physical switch that held one).
    pub srule_removes: u64,
    pub flows_built: u64,
    pub flows_removed: u64,
    pub subscribes: u64,
    pub unsubscribes: u64,
    /// Hypervisors touched by events, after expanding `all_senders`.
    pub event_hv_updates: u64,
    /// Physical switches touched by events.
    pub event_switch_updates: u64,
    /// Operations refused by a device (full group table, no header).
    pub refused: u64,
}

/// A fault a test plants in the agent to prove the checks catch it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[cfg_attr(not(test), allow(dead_code))] // only tests construct one
pub enum Fault {
    /// Silently skip the n-th s-rule install (0-based).
    SkipSruleInstall(u64),
}

pub struct Agent {
    pub fabric: Fabric,
    /// One hypervisor switch per host, indexed by `HostId.0`.
    pub hvs: Vec<HypervisorSwitch>,
    pub counts: DeployCounts,
    pub fault: Option<Fault>,
    topo: Clos,
    layout: HeaderLayout,
}

fn srule_for(rules: &[(u32, PortBitmap)], switch: u32) -> Option<&PortBitmap> {
    // The encoder emits s-rules in ascending switch order.
    rules
        .binary_search_by_key(&switch, |(s, _)| *s)
        .ok()
        .map(|i| &rules[i].1)
}

impl Agent {
    /// An empty fabric and hypervisor tier for `ctl`'s topology. Group
    /// tables are uncapped, as in the repository's own harnesses: the
    /// paper-default controller admits unlimited s-rules.
    pub fn new(ctl: &Controller) -> Self {
        let topo = *ctl.topo();
        Agent {
            fabric: Fabric::new(
                topo,
                SwitchConfig {
                    group_table_capacity: usize::MAX,
                    ..SwitchConfig::default()
                },
            ),
            hvs: topo.hosts().map(HypervisorSwitch::new).collect(),
            counts: DeployCounts::default(),
            fault: None,
            topo,
            layout: *ctl.layout(),
        }
    }

    pub fn hv_refs(&self) -> Vec<&HypervisorSwitch> {
        self.hvs.iter().collect()
    }

    /// Program every device a freshly created group needs. Returns the
    /// number of operations a device refused.
    pub fn deploy_group(&mut self, ctl: &Controller, gid: GroupId, rec: &mut Recorder) -> u64 {
        let Some(state) = ctl.group(gid) else {
            self.counts.refused += 1;
            return 1;
        };
        let before = self.counts.refused;
        for (leaf, bm) in &state.enc.d_leaf.s_rules {
            self.set_leaf_srule(state, LeafId(*leaf), Some(bm), rec);
        }
        for (pod, bm) in &state.enc.d_spine.s_rules {
            self.set_pod_srule(state, PodId(*pod), Some(bm), rec);
        }
        rec.enter(Name::HypervisorSubscribe);
        for h in state.receiver_hosts() {
            self.hvs[h.0 as usize].subscribe(state.outer_addr, VmSlot(0));
            self.counts.subscribes += 1;
        }
        rec.exit();
        for h in state.sender_hosts() {
            self.install_flow(ctl, state, h, rec);
        }
        self.counts.refused - before
    }

    /// Apply exactly what one join/leave returned. `host` and `role` are
    /// the event's own; the group's state is read *after* the event.
    /// Returns the number of operations a device refused.
    pub fn apply_event(
        &mut self,
        ctl: &Controller,
        gid: GroupId,
        host: HostId,
        role: MemberRole,
        updates: &UpdateSet,
        rec: &mut Recorder,
    ) -> u64 {
        let Some(state) = ctl.group(gid) else {
            self.counts.refused += 1;
            return 1;
        };
        let before = self.counts.refused;
        for &leaf in &updates.leaves {
            let bm = srule_for(&state.enc.d_leaf.s_rules, leaf.0);
            self.set_leaf_srule(state, leaf, bm, rec);
            self.counts.event_switch_updates += 1;
        }
        for &pod in &updates.spine_pods {
            let bm = srule_for(&state.enc.d_spine.s_rules, pod.0);
            let written = self.set_pod_srule(state, pod, bm, rec);
            self.counts.event_switch_updates += written;
        }

        // The event's own hypervisor: its subscription and its flow
        // follow the member counts the controller now holds.
        let own = state.members.get(&host).copied().unwrap_or_default();
        if role.receives() {
            rec.enter(Name::HypervisorSubscribe);
            let hv = &mut self.hvs[host.0 as usize];
            if own.receivers > 0 {
                hv.subscribe(state.outer_addr, VmSlot(0));
                self.counts.subscribes += 1;
            } else {
                hv.unsubscribe(state.outer_addr, VmSlot(0));
                self.counts.unsubscribes += 1;
            }
            rec.exit();
        }
        if role.sends() && own.senders == 0 {
            rec.enter(Name::HypervisorFlowInstall);
            self.hvs[host.0 as usize].remove_flow(state.vni, state.tenant_addr);
            self.counts.flows_removed += 1;
            rec.exit();
        }

        // Every listed hypervisor that sends re-encapsulates; with
        // `all_senders` that is every current sender of the group.
        let hosts: Vec<HostId> = if updates.all_senders {
            state.sender_hosts().collect()
        } else {
            let sends = |h: &HostId| state.members.get(h).is_some_and(|c| c.senders > 0);
            updates.hypervisors.iter().copied().filter(sends).collect()
        };
        for &h in &hosts {
            self.install_flow(ctl, state, h, rec);
        }
        let own_listed_as_sender = hosts.binary_search(&host).is_ok();
        self.counts.event_hv_updates += hosts.len() as u64 + u64::from(!own_listed_as_sender);
        self.counts.refused - before
    }

    fn faulted(&mut self) -> bool {
        match self.fault {
            Some(Fault::SkipSruleInstall(n)) if n == self.counts.srule_installs => {
                // Count it as done so the skip happens once.
                self.counts.srule_installs += 1;
                true
            }
            _ => false,
        }
    }

    /// Install (`Some`) or remove (`None`) a group's s-rule on one leaf.
    fn set_leaf_srule(
        &mut self,
        state: &GroupState,
        leaf: LeafId,
        bm: Option<&PortBitmap>,
        rec: &mut Recorder,
    ) {
        match bm {
            Some(bm) => {
                if self.faulted() {
                    return;
                }
                rec.enter(Name::NetswitchSruleInstall);
                let r = self
                    .fabric
                    .leaf_mut(leaf)
                    .install_srule(state.outer_addr, bm.clone());
                rec.exit();
                self.counts.srule_installs += 1;
                self.counts.refused += u64::from(r.is_err());
            }
            None => {
                rec.enter(Name::NetswitchSruleRemove);
                let removed = self.fabric.leaf_mut(leaf).remove_srule(&state.outer_addr);
                rec.exit();
                self.counts.srule_removes += u64::from(removed);
            }
        }
    }

    /// Install or remove a group's s-rule on every spine of a pod;
    /// returns the number of physical switches written.
    fn set_pod_srule(
        &mut self,
        state: &GroupState,
        pod: PodId,
        bm: Option<&PortBitmap>,
        rec: &mut Recorder,
    ) -> u64 {
        let spines = self.topo.params().spines_per_pod as u64;
        match bm {
            Some(bm) => {
                if self.faulted() {
                    return 0;
                }
                rec.enter(Name::NetswitchSruleInstall);
                let r = self
                    .fabric
                    .install_pod_srule(pod, state.outer_addr, bm.clone());
                rec.exit();
                self.counts.srule_installs += spines;
                self.counts.refused += u64::from(r.is_err());
            }
            None => {
                rec.enter(Name::NetswitchSruleRemove);
                for s in self.topo.spines_in_pod(pod) {
                    let removed = self.fabric.spine_mut(s).remove_srule(&state.outer_addr);
                    self.counts.srule_removes += u64::from(removed);
                }
                rec.exit();
            }
        }
        spines
    }

    /// Fetch the sender's header, serialise it into a flow, install it.
    fn install_flow(
        &mut self,
        ctl: &Controller,
        state: &GroupState,
        sender: HostId,
        rec: &mut Recorder,
    ) {
        rec.enter(Name::ControllerHeaderFor);
        let header = ctl.header_for(state.id, sender);
        rec.exit();
        let Some(header) = header else {
            self.counts.refused += 1;
            return;
        };
        rec.enter(Name::HypervisorFlowBuild);
        let flow = SenderFlow::new(state.outer_addr, state.vni, &header, &self.layout, vec![]);
        // The header exists only to be serialised into the flow; freeing
        // its rule vectors is part of that step, not of the caller.
        drop(header);
        rec.exit();
        rec.enter(Name::HypervisorFlowInstall);
        self.hvs[sender.0 as usize].install_flow(state.vni, state.tenant_addr, flow);
        rec.exit();
        self.counts.flows_built += 1;
    }

    /// Group-table entries over all leaf and spine switches.
    pub fn srules_installed(&self) -> u64 {
        let leaves: usize = self
            .topo
            .leaves()
            .map(|l| self.fabric.leaf(l).srule_count())
            .sum();
        let spines: usize = self
            .topo
            .spines()
            .map(|s| self.fabric.spine(s).srule_count())
            .sum();
        (leaves + spines) as u64
    }

    /// (flows, total Elmo header bytes) over every sender flow the
    /// controller's groups should have deployed; a missing flow is
    /// reported in the third field.
    pub fn deployed_header_bytes(&self, ctl: &Controller) -> (u64, u64, u64) {
        let (mut flows, mut bytes, mut missing) = (0u64, 0u64, 0u64);
        for state in ctl.groups() {
            for h in state.sender_hosts() {
                match self.hvs[h.0 as usize].flow(state.vni, state.tenant_addr) {
                    Some(f) => {
                        flows += 1;
                        bytes += f.elmo_bytes.len() as u64;
                    }
                    None => missing += 1,
                }
            }
        }
        (flows, bytes, missing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{self, Inputs};
    use crate::sut::{check_state_with, ControllerConfig, VerifyOptions};
    use std::collections::BTreeMap;

    fn violations(ctl: &Controller, agent: &Agent) -> usize {
        check_state_with(
            ctl,
            &agent.fabric,
            &agent.hv_refs(),
            &VerifyOptions::default(),
        )
        .violations
        .len()
    }

    type Table = BTreeMap<std::net::Ipv4Addr, PortBitmap>;
    /// (group, host, subscribed, flow bytes).
    type HostRow = (u64, u32, bool, Option<Vec<u8>>);

    /// Everything the agent programs, in comparable form: leaf tables,
    /// spine tables, one row per (group, host), total flows.
    fn snapshot(ctl: &Controller, agent: &Agent) -> (Vec<Table>, Vec<Table>, Vec<HostRow>, usize) {
        let topo = *ctl.topo();
        let table = |rules: &mut dyn Iterator<Item = (&std::net::Ipv4Addr, &PortBitmap)>| {
            rules.map(|(a, b)| (*a, b.clone())).collect()
        };
        let leaves = topo
            .leaves()
            .map(|l| table(&mut agent.fabric.leaf(l).srules()))
            .collect();
        let spines = topo
            .spines()
            .map(|s| table(&mut agent.fabric.spine(s).srules()))
            .collect();
        let mut per_host = Vec::new();
        let mut groups: Vec<&GroupState> = ctl.groups().collect();
        groups.sort_unstable_by_key(|g| g.id.0);
        for g in groups {
            for h in topo.hosts() {
                let hv = &agent.hvs[h.0 as usize];
                per_host.push((
                    g.id.0,
                    h.0,
                    !hv.subscribers(g.outer_addr).is_empty(),
                    hv.flow(g.vni, g.tenant_addr).map(|f| f.elmo_bytes.clone()),
                ));
            }
        }
        let flows = agent.hvs.iter().map(HypervisorSwitch::flow_count).sum();
        (leaves, spines, per_host, flows)
    }

    /// After a 500-event seeded stream on the paper's example fabric the
    /// incrementally deployed state verifies clean and equals a fresh
    /// deploy of the controller's final state, for both placements.
    #[test]
    fn incremental_deploy_equals_fresh_deploy_after_churn() {
        for (p, r) in [(12, 12), (1, 0)] {
            let topo = Clos::paper_example();
            let inputs = Inputs::generate(topo, input::small_config(p, 40, 0xe140), 500);
            let mut cfg = ControllerConfig::paper_default(r);
            cfg.header_budget_bytes = 80;
            let mut ctl = Controller::new(topo, cfg);
            let mut agent = Agent::new(&ctl);
            let mut rec = Recorder::off();
            for (gid, vni, addr, members) in &inputs.specs {
                ctl.create_group(*gid, *vni, *addr, members.iter().copied());
                assert_eq!(agent.deploy_group(&ctl, *gid, &mut rec), 0);
            }
            assert_eq!(violations(&ctl, &agent), 0, "P={p}: after create");
            for e in &inputs.events {
                let updates = if e.join {
                    ctl.join(e.gid, e.host, e.role)
                } else {
                    ctl.leave(e.gid, e.host, e.role)
                };
                assert_eq!(
                    agent.apply_event(&ctl, e.gid, e.host, e.role, &updates, &mut rec),
                    0
                );
            }
            assert_eq!(violations(&ctl, &agent), 0, "P={p}: after churn");
            if r == 0 {
                assert!(
                    agent.counts.event_switch_updates > 0 && agent.counts.srule_removes > 0,
                    "P=1/R=0 stream never moved an s-rule"
                );
            }

            let mut fresh = Agent::new(&ctl);
            let mut ids: Vec<GroupId> = ctl.groups().map(|g| g.id).collect();
            ids.sort_unstable();
            for gid in ids {
                fresh.deploy_group(&ctl, gid, &mut rec);
            }
            assert_eq!(violations(&ctl, &fresh), 0);
            assert!(
                snapshot(&ctl, &agent) == snapshot(&ctl, &fresh),
                "P={p}: incremental state differs from a fresh deploy"
            );
            assert_eq!(agent.srules_installed(), fresh.srules_installed());
            assert_eq!(
                agent.deployed_header_bytes(&ctl),
                fresh.deployed_header_bytes(&ctl)
            );
            assert_eq!(agent.deployed_header_bytes(&ctl).2, 0, "missing flows");
        }
    }

    #[test]
    fn a_skipped_srule_install_is_caught_by_the_static_check() {
        let topo = Clos::paper_example();
        let inputs = Inputs::generate(topo, input::small_config(1, 40, 7), 0);
        let mut cfg = ControllerConfig::paper_default(0);
        cfg.header_budget_bytes = 80;
        let mut ctl = Controller::new(topo, cfg);
        let mut agent = Agent::new(&ctl);
        agent.fault = Some(Fault::SkipSruleInstall(0));
        let mut rec = Recorder::off();
        for (gid, vni, addr, members) in &inputs.specs {
            ctl.create_group(*gid, *vni, *addr, members.iter().copied());
            agent.deploy_group(&ctl, *gid, &mut rec);
        }
        assert!(agent.counts.srule_installs > 0, "workload has no s-rules");
        assert!(violations(&ctl, &agent) > 0);
    }
}
