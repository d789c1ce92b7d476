//! The logically-centralized Elmo controller (paper §2).
//!
//! The controller owns all multicast group state: member hosts and roles,
//! the group's tree on the logical topology, its p-/s-rule encoding, and the
//! provider-assigned outer multicast address. On membership changes it
//! re-runs Algorithm 1 for the group, diffs the result against what is
//! installed, and reports exactly which hypervisors, leaves, and spines need
//! updates — the quantity Table 2 measures. Core switches never need
//! updates, by construction.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use elmo_core::{
    header_for_sender, DetHashMap, DownstreamSections, ElmoHeader, EncodeScratch, EncoderConfig,
    GroupEncoding, HeaderLayout,
};
use elmo_dataplane::MembershipSignal;
use elmo_net::vxlan::Vni;
use elmo_topology::{Clos, FailureState, GroupTree, HostId, LeafId, PodId, UpstreamCover};

use crate::srules::{encode_group_admitted, SRuleSpace};

/// Group-lifecycle counters. All mutation entry points are `&mut self`
/// (sequential), so these are deterministic.
struct CtlMetrics {
    groups_created: elmo_obs::Counter,
    groups_deleted: elmo_obs::Counter,
    batch_groups: elmo_obs::Counter,
    membership_changes: elmo_obs::Counter,
    full_reencode: elmo_obs::Counter,
}

fn metrics() -> &'static CtlMetrics {
    static M: std::sync::OnceLock<CtlMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| CtlMetrics {
        groups_created: elmo_obs::counter("controller.groups_created"),
        groups_deleted: elmo_obs::counter("controller.groups_deleted"),
        batch_groups: elmo_obs::counter("controller.batch.groups"),
        membership_changes: elmo_obs::counter("controller.membership_changes"),
        full_reencode: elmo_obs::counter("churn.full_reencode"),
    })
}

/// Per-controller churn counters; `full_reencodes` is mirrored into the
/// global `churn.full_reencode` obs counter. Local copies let a harness
/// read one controller's counts without snapshot arithmetic.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct ChurnStats {
    /// Always zero: there is no patch path. Kept only because the pipeline
    /// benchmark binds this field.
    pub delta_hits: u64,
    /// Receiver-tree changes, each of which re-ran Algorithm 1.
    pub full_reencodes: u64,
    /// Always zero, kept for the same reason as `delta_hits`.
    pub structural_escalations: u64,
}

impl ChurnStats {
    /// Total receiver-tree changes processed.
    pub fn tree_changes(&self) -> u64 {
        self.delta_hits + self.full_reencodes
    }
}

/// A fabric-wide multicast group identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct GroupId(pub u64);

/// One group-creation request for [`Controller::create_groups_batch`]: the
/// same arguments [`Controller::create_group`] takes, as a tuple.
pub type GroupSpec = (GroupId, Vni, Ipv4Addr, Vec<(HostId, MemberRole)>);

/// What a member VM does in the group.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemberRole {
    Sender,
    Receiver,
    Both,
}

impl MemberRole {
    /// Whether this role sends.
    pub fn sends(self) -> bool {
        matches!(self, MemberRole::Sender | MemberRole::Both)
    }

    /// Whether this role receives.
    pub fn receives(self) -> bool {
        matches!(self, MemberRole::Receiver | MemberRole::Both)
    }
}

/// Per-host member counts (several VMs of a group may share a host).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct MemberCounts {
    pub senders: u32,
    pub receivers: u32,
}

/// Controller-side state of one group.
#[derive(Clone, Debug)]
pub struct GroupState {
    pub id: GroupId,
    pub vni: Vni,
    /// Tenant-chosen group address (isolated per VNI).
    pub tenant_addr: Ipv4Addr,
    /// Provider-assigned outer address, unique fabric-wide.
    pub outer_addr: Ipv4Addr,
    /// Member VM counts per host.
    pub members: BTreeMap<HostId, MemberCounts>,
    /// Receiver tree on the logical topology.
    pub tree: GroupTree,
    /// Current p-/s-rule encoding.
    pub enc: GroupEncoding,
    /// The downstream half of every sender's header, built from `enc` and
    /// `tree` once per encoding and shared by every header and flow built
    /// while it is current. The controller refreshes it wherever it
    /// assigns `enc`; a flow built under an earlier encoding keeps that
    /// encoding's sections alive until it is rebuilt.
    pub downstream: DownstreamSections,
    /// Explicit upstream cover per sender pod (empty = multipath).
    pub covers: BTreeMap<PodId, UpstreamCover>,
    /// Groups degraded to unicast during failure reconfiguration.
    pub unicast_fallback: bool,
    /// Monotonic encoding version, bumped on every membership change that
    /// touches the tree or encoding. Deployment agents stamp installed
    /// headers with it; because headers are source-routed (self-contained
    /// p-rules), packets encoded against epoch `n` remain deliverable on
    /// their p-rules while epoch `n+1` rolls out — the epoch only tells
    /// agents *which* hypervisors still carry stale flows.
    pub epoch: u64,
}

impl GroupState {
    /// Hosts with at least one sender VM.
    pub fn sender_hosts(&self) -> impl Iterator<Item = HostId> + '_ {
        self.members
            .iter()
            .filter(|(_, c)| c.senders > 0)
            .map(|(&h, _)| h)
    }

    /// Hosts with at least one receiver VM.
    pub fn receiver_hosts(&self) -> impl Iterator<Item = HostId> + '_ {
        self.members
            .iter()
            .filter(|(_, c)| c.receivers > 0)
            .map(|(&h, _)| h)
    }

    /// The upstream cover a sender in `pod` should use.
    pub fn cover_for(&self, pod: PodId) -> UpstreamCover {
        self.covers
            .get(&pod)
            .cloned()
            .unwrap_or_else(UpstreamCover::multipath)
    }

    /// Bring `downstream` in step with `enc` and `tree` after they were
    /// assigned: rebuild the sections flagged as changed and keep the
    /// other's allocation, which the live flows already point at.
    fn refresh_downstream(&mut self, topo: &Clos, layout: &HeaderLayout, spine: bool, leaf: bool) {
        if spine {
            self.downstream
                .rebuild_spine(topo, layout, &self.tree, &self.enc);
        }
        if leaf {
            self.downstream
                .rebuild_leaf(topo, layout, &self.tree, &self.enc);
        }
    }
}

/// Which devices one control-plane event touched.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct UpdateSet {
    /// Hypervisor switches receiving flow/subscription updates.
    pub hypervisors: BTreeSet<HostId>,
    /// Leaf switches receiving group-table updates.
    pub leaves: BTreeSet<LeafId>,
    /// Pods whose spines receive group-table updates (each pod counts
    /// `spines_per_pod` physical switch updates).
    pub spine_pods: BTreeSet<PodId>,
    /// Every sender hypervisor of the group must be reprogrammed: its
    /// header embeds the changed shared downstream sections. Kept symbolic
    /// so the membership hot path never materializes a per-host set whose
    /// size it cannot control; accounting consumers expand it with
    /// [`Self::materialize_senders`] against the group's current state.
    pub all_senders: bool,
    /// The group's encoding epoch *after* this event (`0` when the event
    /// touched no tracked group). Deployment agents stamp reprogrammed
    /// flows with it, and the temporal verifier uses it to attribute any
    /// delivery divergence of in-flight packets: a diverging pre-update
    /// header is acceptable only when this epoch advanced past the one
    /// the header was encoded under (the packet is "versioned out").
    pub epoch: u64,
}

impl UpdateSet {
    /// Total physical switch updates at the spine tier.
    pub fn spine_switch_updates(&self, topo: &Clos) -> usize {
        self.spine_pods.len() * topo.params().spines_per_pod
    }

    /// Expand a symbolic `all_senders` marker into explicit hypervisor
    /// entries against the group's current state. Idempotent; a no-op when
    /// the marker is unset. Accounting consumers (Table 2) call this; the
    /// churn hot path deliberately never does.
    pub fn materialize_senders(&mut self, state: &GroupState) {
        if std::mem::take(&mut self.all_senders) {
            for h in state.sender_hosts() {
                self.hypervisors.insert(h);
            }
        }
    }
}

/// Controller configuration.
#[derive(Clone, Copy, Debug)]
pub struct ControllerConfig {
    /// Total header budget in bytes (paper: 325).
    pub header_budget_bytes: usize,
    /// Redundancy limit `R`.
    pub r: usize,
    /// Per-leaf group-table capacity `Fmax`.
    pub leaf_fmax: usize,
    /// Per-spine group-table capacity `Fmax`.
    pub spine_fmax: usize,
}

impl ControllerConfig {
    /// The paper's main evaluation setting: 325-byte headers, unlimited
    /// group tables (to observe natural s-rule demand).
    pub fn paper_default(r: usize) -> Self {
        ControllerConfig {
            header_budget_bytes: 325,
            r,
            leaf_fmax: usize::MAX,
            spine_fmax: usize::MAX,
        }
    }
}

/// The logically-centralized controller.
#[derive(Clone, Debug)]
pub struct Controller {
    topo: Clos,
    layout: HeaderLayout,
    encoder: EncoderConfig,
    srules: SRuleSpace,
    groups: DetHashMap<GroupId, GroupState>,
    /// Tenant-facing index: (VNI, tenant group address) -> group.
    by_addr: DetHashMap<(Vni, Ipv4Addr), GroupId>,
    next_group_id: u64,
    failures: FailureState,
    /// Deterministic churn counters.
    churn: ChurnStats,
}

impl Controller {
    /// Build a controller for a fabric.
    pub fn new(topo: Clos, config: ControllerConfig) -> Self {
        let layout = HeaderLayout::for_clos(&topo);
        let encoder = EncoderConfig::with_budget(&layout, config.header_budget_bytes, config.r);
        Controller {
            topo,
            layout,
            encoder,
            srules: SRuleSpace::new(&topo, config.leaf_fmax, config.spine_fmax),
            groups: DetHashMap::default(),
            by_addr: DetHashMap::default(),
            next_group_id: 0,
            failures: FailureState::none(),
            churn: ChurnStats::default(),
        }
    }

    /// Churn counters accumulated by this controller.
    pub fn churn_stats(&self) -> ChurnStats {
        self.churn
    }

    /// The fabric this controller manages.
    pub fn topo(&self) -> &Clos {
        &self.topo
    }

    /// The header layout in force.
    pub fn layout(&self) -> &HeaderLayout {
        &self.layout
    }

    /// The encoder configuration in force.
    pub fn encoder_config(&self) -> &EncoderConfig {
        &self.encoder
    }

    /// The s-rule occupancy tracker.
    pub fn srules(&self) -> &SRuleSpace {
        &self.srules
    }

    /// Current failure state.
    pub fn failures(&self) -> &FailureState {
        &self.failures
    }

    /// Look up a group.
    pub fn group(&self, id: GroupId) -> Option<&GroupState> {
        self.groups.get(&id)
    }

    /// Mutable group access (failure handling updates covers in place).
    pub(crate) fn group_mut(&mut self, id: GroupId) -> Option<&mut GroupState> {
        self.groups.get_mut(&id)
    }

    /// Mutable failure state (updated as failures are reported).
    pub(crate) fn failures_mut(&mut self) -> &mut FailureState {
        &mut self.failures
    }

    /// Number of managed groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Iterate over all groups.
    pub fn groups(&self) -> impl Iterator<Item = &GroupState> {
        self.groups.values()
    }

    /// The provider-assigned outer multicast address for a group id.
    pub fn outer_addr(id: GroupId) -> Ipv4Addr {
        let b = (id.0 & 0x00ff_ffff) as u32;
        let o = b.to_be_bytes();
        Ipv4Addr::new(230, o[1], o[2], o[3])
    }

    // ----- group lifecycle ---------------------------------------------------

    /// Create a group with an initial member set. Returns the devices that
    /// must be updated (every sender hypervisor, every receiver hypervisor,
    /// and any switches taking s-rules).
    pub fn create_group(
        &mut self,
        id: GroupId,
        vni: Vni,
        tenant_addr: Ipv4Addr,
        members: impl IntoIterator<Item = (HostId, MemberRole)>,
    ) -> UpdateSet {
        let _span = elmo_obs::span!("create_group");
        let state = self.insert_group(id, vni, tenant_addr, members, &mut EncodeScratch::new());
        let mut updates = UpdateSet::default();
        for h in state.sender_hosts().chain(state.receiver_hosts()) {
            updates.hypervisors.insert(h);
        }
        for (l, _) in &state.enc.d_leaf.s_rules {
            updates.leaves.insert(LeafId(*l));
        }
        for (p, _) in &state.enc.d_spine.s_rules {
            updates.spine_pods.insert(PodId(*p));
        }
        updates
    }

    /// Create many groups, one at a time in slice order, exactly as one
    /// [`Self::create_group`] call per spec would; one encode scratch is
    /// reused across the batch. Per-group [`UpdateSet`]s are not collected
    /// (bulk installation reprograms every touched device anyway).
    ///
    /// `_threads` is ignored: the encode is sequential. The parameter stays
    /// only because the pipeline benchmark binds this signature.
    pub fn create_groups_batch(&mut self, specs: &[GroupSpec], _threads: usize) {
        metrics().batch_groups.add(specs.len() as u64);
        let mut scratch = EncodeScratch::new();
        for (id, vni, tenant_addr, members) in specs {
            self.insert_group(
                *id,
                *vni,
                *tenant_addr,
                members.iter().copied(),
                &mut scratch,
            );
        }
    }

    /// The insert path shared by [`Self::create_group`] and
    /// [`Self::create_groups_batch`]: count members, build the receiver
    /// tree, run Algorithm 1 against the live s-rule space, and index the
    /// group.
    fn insert_group(
        &mut self,
        id: GroupId,
        vni: Vni,
        tenant_addr: Ipv4Addr,
        members: impl IntoIterator<Item = (HostId, MemberRole)>,
        scratch: &mut EncodeScratch,
    ) -> &GroupState {
        let mut counts: BTreeMap<HostId, MemberCounts> = BTreeMap::new();
        for (h, role) in members {
            let c = counts.entry(h).or_default();
            if role.sends() {
                c.senders += 1;
            }
            if role.receives() {
                c.receivers += 1;
            }
        }
        let tree = Self::receiver_tree(&self.topo, &counts);
        let enc =
            encode_group_admitted(&self.topo, &tree, &self.encoder, &mut self.srules, scratch);
        let state = GroupState {
            id,
            vni,
            tenant_addr,
            outer_addr: Self::outer_addr(id),
            members: counts,
            downstream: DownstreamSections::new(&self.topo, &self.layout, &tree, &enc),
            tree,
            enc,
            covers: BTreeMap::new(),
            unicast_fallback: false,
            epoch: 0,
        };
        self.by_addr.insert((vni, tenant_addr), id);
        self.next_group_id = self.next_group_id.max(id.0 + 1);
        metrics().groups_created.inc();
        debug_assert!(!self.groups.contains_key(&id), "group id reused");
        self.groups.entry(id).insert_entry(state).into_mut()
    }

    /// Remove a group entirely, freeing its s-rule reservations.
    pub fn delete_group(&mut self, id: GroupId) -> Option<UpdateSet> {
        let state = self.groups.remove(&id)?;
        metrics().groups_deleted.inc();
        self.by_addr.remove(&(state.vni, state.tenant_addr));
        Self::free_srules(&mut self.srules, &state.enc);
        let mut updates = UpdateSet::default();
        for h in state.sender_hosts().chain(state.receiver_hosts()) {
            updates.hypervisors.insert(h);
        }
        for (l, _) in &state.enc.d_leaf.s_rules {
            updates.leaves.insert(LeafId(*l));
        }
        for (p, _) in &state.enc.d_spine.s_rules {
            updates.spine_pods.insert(PodId(*p));
        }
        Some(updates)
    }

    /// A member VM joins. Returns the update fan-out.
    pub fn join(&mut self, id: GroupId, host: HostId, role: MemberRole) -> UpdateSet {
        self.membership_change(id, host, role, true)
    }

    /// A member VM leaves. Returns the update fan-out.
    pub fn leave(&mut self, id: GroupId, host: HostId, role: MemberRole) -> UpdateSet {
        self.membership_change(id, host, role, false)
    }

    /// A member VM migrates between hosts (paper §1: VM migration is a
    /// major churn source in shared clouds). Semantically a leave at `from`
    /// plus a join at `to`, but reported as one reconfiguration: the update
    /// sets are merged so a device touched by both counts once.
    pub fn migrate(
        &mut self,
        id: GroupId,
        from: HostId,
        to: HostId,
        role: MemberRole,
    ) -> UpdateSet {
        if from == to {
            return UpdateSet::default();
        }
        let mut updates = self.membership_change(id, from, role, false);
        let second = self.membership_change(id, to, role, true);
        updates.hypervisors.extend(second.hypervisors);
        updates.leaves.extend(second.leaves);
        updates.spine_pods.extend(second.spine_pods);
        updates.all_senders |= second.all_senders;
        updates.epoch = updates.epoch.max(second.epoch);
        updates
    }

    fn membership_change(
        &mut self,
        id: GroupId,
        host: HostId,
        role: MemberRole,
        joining: bool,
    ) -> UpdateSet {
        let Controller {
            topo,
            layout,
            encoder,
            srules,
            groups,
            churn,
            ..
        } = self;
        let mut updates = UpdateSet::default();
        let Some(state) = groups.get_mut(&id) else {
            return updates;
        };
        metrics().membership_changes.inc();
        // Adjust per-host counts.
        let before_receiving = state.members.get(&host).is_some_and(|c| c.receivers > 0);
        {
            let c = state.members.entry(host).or_default();
            if role.sends() {
                c.senders = if joining {
                    c.senders + 1
                } else {
                    c.senders.saturating_sub(1)
                };
            }
            if role.receives() {
                c.receivers = if joining {
                    c.receivers + 1
                } else {
                    c.receivers.saturating_sub(1)
                };
            }
            if c.senders == 0 && c.receivers == 0 {
                state.members.remove(&host);
            }
        }
        // The changed VM's own hypervisor always updates (flow install or
        // subscription change).
        updates.hypervisors.insert(host);
        updates.epoch = state.epoch;

        if !role.receives() {
            // Paper §5.1.3a: "If a member is a sender, the controller only
            // updates the source hypervisor switch."
            return updates;
        }
        let after_receiving = state.members.get(&host).is_some_and(|c| c.receivers > 0);
        if before_receiving == after_receiving {
            // The host's presence in the tree is unchanged (another VM on the
            // same host still receives): no rule changes anywhere.
            return updates;
        }

        // The receiver tree changed: rebuild it, re-run Algorithm 1, and
        // diff against what is installed.
        state.epoch += 1;
        updates.epoch = state.epoch;
        churn.full_reencodes += 1;
        metrics().full_reencode.inc();
        let old_tree =
            std::mem::replace(&mut state.tree, Self::receiver_tree(topo, &state.members));
        Self::free_srules(srules, &state.enc);
        let new_enc = encode_group_admitted(
            topo,
            &state.tree,
            encoder,
            srules,
            &mut EncodeScratch::new(),
        );
        let old_enc = std::mem::replace(&mut state.enc, new_enc);
        Self::diff_srules_into(&old_enc, &state.enc, &mut updates);
        let (spine, leaf) = Self::sections_changed(&old_tree, &state.tree, &old_enc, &state.enc);
        state.refresh_downstream(topo, layout, spine, leaf);
        if spine || leaf || !old_tree.pods().eq(state.tree.pods()) {
            updates.all_senders = true;
        } else {
            for h in state
                .members
                .iter()
                .filter(|(_, c)| c.senders > 0)
                .map(|(&h, _)| h)
            {
                if Self::sender_upstream_changed(topo, &old_tree, &state.tree, h) {
                    updates.hypervisors.insert(h);
                }
            }
        }
        updates
    }

    /// Rebuild the receiver tree from per-host counts.
    fn receiver_tree(topo: &Clos, members: &BTreeMap<HostId, MemberCounts>) -> GroupTree {
        GroupTree::new(
            topo,
            members
                .iter()
                .filter(|(_, c)| c.receivers > 0)
                .map(|(&h, _)| h),
        )
    }

    fn free_srules(srules: &mut SRuleSpace, enc: &GroupEncoding) {
        for (l, _) in &enc.d_leaf.s_rules {
            srules.free_leaf(LeafId(*l));
        }
        for (p, _) in &enc.d_spine.s_rules {
            srules.free_pod(PodId(*p));
        }
    }

    /// Record switch-side s-rule differences between two encodings via a
    /// two-pointer merge walk. Both layers' s-rule lists come out of the
    /// encoder in ascending switch-id order (`cluster_pressed` assigns from
    /// a sorted unassigned set), so one linear pass with no allocation
    /// finds every switch whose installed rule appears, vanishes, or
    /// changes contents.
    fn diff_srules_into(old: &GroupEncoding, new: &GroupEncoding, updates: &mut UpdateSet) {
        fn walk(
            old: &[(u32, elmo_core::PortBitmap)],
            new: &[(u32, elmo_core::PortBitmap)],
            mut touch: impl FnMut(u32),
        ) {
            debug_assert!(old.windows(2).all(|w| w[0].0 < w[1].0), "s-rules sorted");
            debug_assert!(new.windows(2).all(|w| w[0].0 < w[1].0), "s-rules sorted");
            let (mut i, mut j) = (0, 0);
            while i < old.len() || j < new.len() {
                match (old.get(i), new.get(j)) {
                    (Some((os, ob)), Some((ns, nb))) if os == ns => {
                        if ob != nb {
                            touch(*os);
                        }
                        i += 1;
                        j += 1;
                    }
                    (Some((os, _)), Some((ns, _))) if os < ns => {
                        touch(*os);
                        i += 1;
                    }
                    (Some(_), Some((ns, _))) => {
                        touch(*ns);
                        j += 1;
                    }
                    (Some((os, _)), None) => {
                        touch(*os);
                        i += 1;
                    }
                    (None, Some((ns, _))) => {
                        touch(*ns);
                        j += 1;
                    }
                    (None, None) => unreachable!(),
                }
            }
        }
        walk(&old.d_leaf.s_rules, &new.d_leaf.s_rules, |s| {
            updates.leaves.insert(LeafId(s));
        });
        walk(&old.d_spine.s_rules, &new.d_spine.s_rules, |s| {
            updates.spine_pods.insert(PodId(s));
        });
    }

    /// Which shared downstream sections, `(spine, leaf)`, differ between
    /// the headers built from two encodings: the stored rules or default
    /// differ, or the layer is synthesized from the tree (see
    /// [`DownstreamSections`]) in either encoding and the sets it is
    /// synthesized from changed. Every sender's header changed when either
    /// did or when the pod set (the core bitmap) did.
    fn sections_changed(
        old_tree: &GroupTree,
        new_tree: &GroupTree,
        old: &GroupEncoding,
        new: &GroupEncoding,
    ) -> (bool, bool) {
        fn changed(
            o: &elmo_core::LayerEncoding,
            n: &elmo_core::LayerEncoding,
            synth_same: &dyn Fn() -> bool,
        ) -> bool {
            o.p_rules != n.p_rules
                || o.default_rule != n.default_rule
                || o.is_unencoded() != n.is_unencoded()
                || (o.is_unencoded() && !synth_same())
        }
        (
            changed(&old.d_spine, &new.d_spine, &|| {
                old_tree.pod_leaves().eq(new_tree.pod_leaves())
            }),
            changed(&old.d_leaf, &new.d_leaf, &|| {
                old_tree.leaf_hosts().eq(new_tree.leaf_hosts())
            }),
        )
    }

    /// Whether a sender's header changed through its *upstream* parts only
    /// (valid once [`Self::sections_changed`] found no section changed and
    /// the pod set is equal): the sender's leaf's host set or its pod's
    /// leaf set.
    fn sender_upstream_changed(
        topo: &Clos,
        old_tree: &GroupTree,
        new_tree: &GroupTree,
        sender: HostId,
    ) -> bool {
        let leaf = topo.leaf_of_host(sender);
        let pod = topo.pod_of_leaf(leaf);
        old_tree.hosts_on_leaf(leaf) != new_tree.hosts_on_leaf(leaf)
            || old_tree.leaves_in_pod(pod) != new_tree.leaves_in_pod(pod)
    }

    /// Look a group up by its tenant-facing identity.
    pub fn group_id_for(&self, vni: Vni, tenant_addr: Ipv4Addr) -> Option<GroupId> {
        self.by_addr.get(&(vni, tenant_addr)).copied()
    }

    /// Process a membership signal intercepted from a tenant VM's IGMP
    /// message (paper §2: the controller "receives join and leave requests
    /// for multicast groups via an API" — the hypervisor switch is the edge
    /// that turns standard IGMP into those API calls). A join to an unknown
    /// (VNI, address) pair creates the group on the fly, exactly like cloud
    /// tenants expect from IP multicast; a leave for an unknown group is a
    /// no-op. Returns the group id and the devices to update.
    pub fn handle_membership_signal(
        &mut self,
        vni: Vni,
        signal: &MembershipSignal,
        role: MemberRole,
    ) -> (Option<GroupId>, UpdateSet) {
        match (self.group_id_for(vni, signal.group), signal.join) {
            (Some(id), true) => {
                let updates = self.join(id, signal.host, role);
                (Some(id), updates)
            }
            (Some(id), false) => {
                let updates = self.leave(id, signal.host, role);
                // Tear the group down when the last member leaves.
                if self.groups.get(&id).is_some_and(|g| g.members.is_empty()) {
                    self.delete_group(id);
                }
                (Some(id), updates)
            }
            (None, true) => {
                let id = GroupId(self.next_group_id);
                let updates = self.create_group(id, vni, signal.group, [(signal.host, role)]);
                (Some(id), updates)
            }
            (None, false) => (None, UpdateSet::default()),
        }
    }

    // ----- packet headers -----------------------------------------------------

    /// The Elmo header a given sender's hypervisor should push for a group.
    pub fn header_for(&self, id: GroupId, sender: HostId) -> Option<ElmoHeader> {
        let state = self.groups.get(&id)?;
        let pod = self.topo.pod_of_host(sender);
        let cover = state.cover_for(pod);
        Some(header_for_sender(
            &self.topo,
            &self.layout,
            &state.tree,
            &state.downstream,
            sender,
            &cover,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const TADDR: Ipv4Addr = Ipv4Addr::new(225, 1, 2, 3);

    fn new_controller() -> Controller {
        Controller::new(Clos::paper_example(), ControllerConfig::paper_default(0))
    }

    /// The Figure 3a group with Ha a sender and the rest receivers.
    fn figure3_members() -> Vec<(HostId, MemberRole)> {
        vec![
            (HostId(0), MemberRole::Both),
            (HostId(1), MemberRole::Receiver),
            (HostId(42), MemberRole::Receiver),
            (HostId(48), MemberRole::Receiver),
            (HostId(49), MemberRole::Receiver),
            (HostId(57), MemberRole::Receiver),
        ]
    }

    #[test]
    fn create_group_reports_full_fanout() {
        let mut ctl = new_controller();
        let updates = ctl.create_group(GroupId(1), Vni(5), TADDR, figure3_members());
        assert_eq!(updates.hypervisors.len(), 6);
        let g = ctl.group(GroupId(1)).unwrap();
        assert_eq!(g.tree.size(), 6);
        assert_eq!(g.outer_addr, Controller::outer_addr(GroupId(1)));
        assert_eq!(ctl.group_count(), 1);
    }

    #[test]
    fn outer_addresses_are_unique_multicast() {
        let a = Controller::outer_addr(GroupId(1));
        let b = Controller::outer_addr(GroupId(2));
        assert_ne!(a, b);
        assert!(elmo_net::ipv4::is_multicast(a));
    }

    #[test]
    fn sender_only_join_touches_one_hypervisor() {
        let mut ctl = new_controller();
        ctl.create_group(GroupId(1), Vni(5), TADDR, figure3_members());
        let updates = ctl.join(GroupId(1), HostId(30), MemberRole::Sender);
        assert_eq!(updates.hypervisors.len(), 1);
        assert!(updates.hypervisors.contains(&HostId(30)));
        assert!(updates.leaves.is_empty());
        assert!(updates.spine_pods.is_empty());
        // The new sender's header is available immediately.
        assert!(ctl.header_for(GroupId(1), HostId(30)).is_some());
    }

    #[test]
    fn receiver_join_on_new_leaf_updates_senders() {
        let mut ctl = new_controller();
        ctl.create_group(GroupId(1), Vni(5), TADDR, figure3_members());
        let before = ctl.header_for(GroupId(1), HostId(0)).unwrap();
        // Host 16 is on L2 (pod 1): a brand-new leaf and pod.
        let mut updates = ctl.join(GroupId(1), HostId(16), MemberRole::Receiver);
        // Downstream rules changed, so the sender hypervisor (host 0) must
        // update alongside the joining host.
        assert!(updates.hypervisors.contains(&HostId(16)));
        updates.materialize_senders(ctl.group(GroupId(1)).unwrap());
        assert!(updates.hypervisors.contains(&HostId(0)));
        let after = ctl.header_for(GroupId(1), HostId(0)).unwrap();
        assert_ne!(before, after);
        assert!(ctl.group(GroupId(1)).unwrap().tree.has_leaf(LeafId(2)));
    }

    #[test]
    fn second_vm_on_same_host_changes_nothing() {
        let mut ctl = new_controller();
        ctl.create_group(GroupId(1), Vni(5), TADDR, figure3_members());
        // Host 1 already receives; a second receiver VM there is a no-op for
        // the network.
        let updates = ctl.join(GroupId(1), HostId(1), MemberRole::Receiver);
        assert_eq!(
            updates.hypervisors.len(),
            1,
            "only the host's own hypervisor"
        );
        assert!(updates.leaves.is_empty());
        // And leaving one of the two VMs is also a no-op.
        let updates = ctl.leave(GroupId(1), HostId(1), MemberRole::Receiver);
        assert_eq!(updates.hypervisors.len(), 1);
        assert!(updates.leaves.is_empty());
        // Leaving the last receiver VM shrinks the tree.
        let updates = ctl.leave(GroupId(1), HostId(1), MemberRole::Receiver);
        assert!(updates.hypervisors.contains(&HostId(1)));
        assert!(!ctl.group(GroupId(1)).unwrap().tree.contains(HostId(1)));
        let _ = updates;
    }

    #[test]
    fn join_then_leave_restores_the_tree() {
        let mut ctl = new_controller();
        ctl.create_group(GroupId(1), Vni(5), TADDR, figure3_members());
        let before = ctl.group(GroupId(1)).unwrap().tree.clone();
        ctl.join(GroupId(1), HostId(20), MemberRole::Receiver);
        ctl.leave(GroupId(1), HostId(20), MemberRole::Receiver);
        assert_eq!(ctl.group(GroupId(1)).unwrap().tree, before);
    }

    #[test]
    fn srule_accounting_is_conserved() {
        let topo = Clos::paper_example();
        // Force s-rule usage: tiny header budget pushes switches to s-rules.
        let config = ControllerConfig {
            header_budget_bytes: 12,
            r: 0,
            leaf_fmax: 100,
            spine_fmax: 100,
        };
        let mut ctl = Controller::new(topo, config);
        ctl.create_group(GroupId(1), Vni(5), TADDR, figure3_members());
        let used: usize = ctl.srules().leaf_usages().iter().sum::<usize>()
            + ctl.srules().pod_usages().iter().sum::<usize>();
        assert!(used > 0, "constrained header must spill to s-rules");
        // Churn the group; accounting must track the encoding exactly.
        ctl.join(GroupId(1), HostId(20), MemberRole::Receiver);
        ctl.leave(GroupId(1), HostId(20), MemberRole::Receiver);
        let g = ctl.group(GroupId(1)).unwrap();
        let expected = g.enc.d_leaf.s_rules.len() + g.enc.d_spine.s_rules.len();
        let used: usize = ctl.srules().leaf_usages().iter().sum::<usize>()
            + ctl.srules().pod_usages().iter().sum::<usize>();
        assert_eq!(used, expected);
        // Deleting the group frees everything.
        ctl.delete_group(GroupId(1)).unwrap();
        let used: usize = ctl.srules().leaf_usages().iter().sum::<usize>()
            + ctl.srules().pod_usages().iter().sum::<usize>();
        assert_eq!(used, 0);
        assert_eq!(ctl.group_count(), 0);
    }

    #[test]
    fn srule_churn_reports_switch_updates() {
        let topo = Clos::paper_example();
        let config = ControllerConfig {
            header_budget_bytes: 12, // tiny: most leaves use s-rules
            r: 0,
            leaf_fmax: 100,
            spine_fmax: 100,
        };
        let mut ctl = Controller::new(topo, config);
        ctl.create_group(GroupId(1), Vni(5), TADDR, figure3_members());
        // A receiver joining L2 forces new rules; some switch updates must
        // be reported.
        let updates = ctl.join(GroupId(1), HostId(16), MemberRole::Receiver);
        assert!(
            !updates.leaves.is_empty() || !updates.spine_pods.is_empty(),
            "constrained encoding must touch switch group tables"
        );
        // Physical spine update count scales with spines per pod.
        assert_eq!(
            updates.spine_switch_updates(ctl.topo()),
            updates.spine_pods.len() * 2
        );
    }

    #[test]
    fn batch_create_matches_sequential_create() {
        use elmo_core::SplitMix64;
        let topo = Clos::paper_example();
        // Constrained config so s-rules (and hence admission order) matter.
        let config = ControllerConfig {
            header_budget_bytes: 16,
            r: 0,
            leaf_fmax: 4,
            spine_fmax: 4,
        };
        let mut rng = SplitMix64::new(0xBA7C);
        let specs: Vec<_> = (0..40u64)
            .map(|i| {
                let size = rng.range_inclusive(2, 16);
                let members: Vec<(HostId, MemberRole)> = (0..size)
                    .map(|j| {
                        let h = HostId(rng.below(topo.num_hosts() as u64) as u32);
                        let role = if j == 0 {
                            MemberRole::Both
                        } else {
                            MemberRole::Receiver
                        };
                        (h, role)
                    })
                    .collect();
                let addr = Ipv4Addr::new(225, 0, (i >> 8) as u8, i as u8);
                (GroupId(i), Vni(1), addr, members)
            })
            .collect();

        let mut serial = Controller::new(topo, config);
        for (id, vni, addr, members) in &specs {
            serial.create_group(*id, *vni, *addr, members.iter().copied());
        }
        let mut batch = Controller::new(topo, config);
        batch.create_groups_batch(&specs, 1);
        assert_eq!(batch.group_count(), serial.group_count());
        assert_eq!(batch.srules().leaf_usages(), serial.srules().leaf_usages());
        assert_eq!(batch.srules().pod_usages(), serial.srules().pod_usages());
        for (id, ..) in &specs {
            let b = batch.group(*id).unwrap();
            let s = serial.group(*id).unwrap();
            assert_eq!(b.enc, s.enc, "group {id:?}");
            assert_eq!(b.members, s.members);
            assert_eq!(b.tree, s.tree);
            assert_eq!(b.outer_addr, s.outer_addr);
        }
        // Tenant-facing index works the same way.
        let (_, vni, addr, _) = &specs[7];
        assert_eq!(
            batch.group_id_for(*vni, *addr),
            serial.group_id_for(*vni, *addr)
        );
    }

    #[test]
    fn header_for_unknown_group_is_none() {
        let ctl = new_controller();
        assert!(ctl.header_for(GroupId(9), HostId(0)).is_none());
    }

    #[test]
    fn member_role_predicates() {
        assert!(MemberRole::Sender.sends() && !MemberRole::Sender.receives());
        assert!(!MemberRole::Receiver.sends() && MemberRole::Receiver.receives());
        assert!(MemberRole::Both.sends() && MemberRole::Both.receives());
    }

    #[test]
    fn headers_differ_per_sender_but_share_downstream() {
        let mut ctl = new_controller();
        let members = vec![
            (HostId(0), MemberRole::Both),
            (HostId(42), MemberRole::Both),
            (HostId(57), MemberRole::Receiver),
        ];
        ctl.create_group(GroupId(1), Vni(5), TADDR, members);
        let h0 = ctl.header_for(GroupId(1), HostId(0)).unwrap();
        let h42 = ctl.header_for(GroupId(1), HostId(42)).unwrap();
        assert_ne!(h0.core, h42.core, "core bitmaps are sender-specific");
        assert_eq!(h0.d_leaf, h42.d_leaf, "downstream leaf rules are shared");
        // Shared by allocation, not only by value: one copy per group.
        assert!(!h0.d_spine.is_empty() && !h0.d_leaf.is_empty());
        assert!(Arc::ptr_eq(&h0.d_spine, &h42.d_spine));
        assert!(Arc::ptr_eq(&h0.d_leaf, &h42.d_leaf));
        let old_bytes = h0.encode(ctl.layout());

        // A sender-only join leaves the encoding, and so the sections, alone.
        ctl.join(GroupId(1), HostId(30), MemberRole::Sender);
        let same = ctl.header_for(GroupId(1), HostId(0)).unwrap();
        assert!(Arc::ptr_eq(&same.d_spine, &h0.d_spine));
        assert!(Arc::ptr_eq(&same.d_leaf, &h0.d_leaf));

        // Host 16 is on L2 in pod 1: both layers re-encode, and new headers
        // point at new sections, still one copy for every sender...
        ctl.join(GroupId(1), HostId(16), MemberRole::Receiver);
        let n0 = ctl.header_for(GroupId(1), HostId(0)).unwrap();
        let n42 = ctl.header_for(GroupId(1), HostId(42)).unwrap();
        assert!(!Arc::ptr_eq(&n0.d_spine, &h0.d_spine));
        assert!(!Arc::ptr_eq(&n0.d_leaf, &h0.d_leaf));
        assert!(Arc::ptr_eq(&n0.d_spine, &n42.d_spine));
        assert!(Arc::ptr_eq(&n0.d_leaf, &n42.d_leaf));
        // ... equal by value to a header built from a fresh encode of the
        // new tree ...
        let state = ctl.group(GroupId(1)).unwrap();
        let (topo, layout) = (ctl.topo(), ctl.layout());
        let enc = elmo_core::encode_group(
            topo,
            &state.tree,
            ctl.encoder_config(),
            &mut |_| true,
            &mut |_| true,
        );
        let fresh = header_for_sender(
            topo,
            layout,
            &state.tree,
            &DownstreamSections::new(topo, layout, &state.tree, &enc),
            HostId(0),
            &UpstreamCover::multipath(),
        );
        assert_eq!(n0, fresh);
        // ... while a header taken before the event still encodes its own
        // epoch's bytes.
        assert_eq!(h0.encode(layout), old_bytes);
        assert_ne!(n0.encode(layout), old_bytes);

        // A receiver joining a leaf the tree already has (host 43 on L5)
        // keeps the leaf set, so the spine section keeps its allocation.
        ctl.join(GroupId(1), HostId(43), MemberRole::Receiver);
        let p0 = ctl.header_for(GroupId(1), HostId(0)).unwrap();
        assert!(Arc::ptr_eq(&p0.d_spine, &n0.d_spine));
        assert!(!Arc::ptr_eq(&p0.d_leaf, &n0.d_leaf));
        assert_ne!(p0.d_leaf, n0.d_leaf);
    }
}

#[cfg(test)]
mod migrate_tests {
    use super::*;

    #[test]
    fn migration_moves_the_member_and_merges_updates() {
        let topo = Clos::paper_example();
        let mut ctl = Controller::new(topo, ControllerConfig::paper_default(0));
        let gid = GroupId(1);
        ctl.create_group(
            gid,
            Vni(1),
            Ipv4Addr::new(225, 6, 6, 6),
            [
                (HostId(0), MemberRole::Both),
                (HostId(9), MemberRole::Receiver),
                (HostId(42), MemberRole::Receiver),
            ],
        );
        // Migrate the receiver on host 9 (L1, pod 0) to host 57 (L7, pod 3).
        let updates = ctl.migrate(gid, HostId(9), HostId(57), MemberRole::Receiver);
        let g = ctl.group(gid).expect("group");
        assert!(!g.tree.contains(HostId(9)));
        assert!(g.tree.contains(HostId(57)));
        // Both endpoint hypervisors appear once in the merged set.
        assert!(updates.hypervisors.contains(&HostId(9)));
        assert!(updates.hypervisors.contains(&HostId(57)));
        // Self-migration is a no-op.
        let noop = ctl.migrate(gid, HostId(57), HostId(57), MemberRole::Receiver);
        assert!(noop.hypervisors.is_empty());
    }

    #[test]
    fn migration_preserves_delivery_semantics() {
        let topo = Clos::paper_example();
        let mut ctl = Controller::new(topo, ControllerConfig::paper_default(0));
        let gid = GroupId(2);
        ctl.create_group(
            gid,
            Vni(2),
            Ipv4Addr::new(225, 6, 6, 7),
            [
                (HostId(0), MemberRole::Both),
                (HostId(20), MemberRole::Receiver),
            ],
        );
        let before = ctl.header_for(gid, HostId(0)).expect("header");
        ctl.migrate(gid, HostId(20), HostId(50), MemberRole::Receiver);
        let after = ctl.header_for(gid, HostId(0)).expect("header");
        assert_ne!(before, after, "sender header follows the receiver");
    }
}
