//! Membership churn event streams (paper §5.1.3a).
//!
//! Members are senders, receivers, or both, assigned uniformly at random.
//! Join and leave events are generated randomly with per-group event counts
//! proportional to group size: "all VMs of a tenant who are not a member of
//! a group have equal probability to join; similarly, all existing members
//! of the group have an equal probability of leaving."

use elmo_core::rng::SplitMix64;

use crate::workload::Workload;

/// Role of a member VM (mirrors `elmo_controller::MemberRole`, kept separate
/// so the workload crate has no controller dependency).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Role {
    Sender,
    Receiver,
    Both,
}

impl Role {
    fn random(rng: &mut SplitMix64) -> Role {
        match rng.below(3) {
            0 => Role::Sender,
            1 => Role::Receiver,
            _ => Role::Both,
        }
    }
}

/// One membership event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ChurnEvent {
    /// Index into `Workload::groups`.
    pub group: u32,
    /// VM index within the group's tenant.
    pub vm: u32,
    /// `true` = join, `false` = leave.
    pub join: bool,
    /// The joining/leaving VM's role.
    pub role: Role,
}

/// Assign a random role to every initial member of every group (the churn
/// experiment distinguishes senders from receivers).
pub fn initial_roles(workload: &Workload, seed: u64) -> Vec<Vec<Role>> {
    let mut rng = SplitMix64::new(seed ^ 0x0e11);
    workload
        .groups
        .iter()
        .map(|g| g.members.iter().map(|_| Role::random(&mut rng)).collect())
        .collect()
}

/// Generate `n` join/leave events. Group selection is proportional to group
/// size; membership is tracked so joins pick non-members and leaves pick
/// members. A group's membership is drawn (with a random role per initial
/// member) the first time the stream touches it.
pub fn churn_events(workload: &Workload, n: usize, seed: u64) -> Vec<ChurnEvent> {
    let mut rng = SplitMix64::new(seed);
    if workload.groups.is_empty() {
        return Vec::new();
    }
    // Cumulative weights for proportional group selection.
    let mut cum: Vec<u64> = Vec::with_capacity(workload.groups.len());
    let mut acc = 0u64;
    for g in &workload.groups {
        acc += g.members.len() as u64;
        cum.push(acc);
    }
    // Lazily materialized per-group membership, `(vm, role)` sorted by VM:
    // a join is a binary search and an insert, a leave the removal of the
    // picked index.
    let mut membership: Vec<Option<Vec<(u32, Role)>>> = vec![None; workload.groups.len()];
    let mut role_rng = SplitMix64::new(seed ^ 0x0e11);

    let mut events = Vec::with_capacity(n);
    while events.len() < n {
        let pick = rng.below(acc);
        let gi = cum.partition_point(|&c| c <= pick);
        let tenant_size = workload.tenants[workload.groups[gi].tenant as usize]
            .vms
            .len() as u32;
        let members = membership[gi].get_or_insert_with(|| {
            let initial = &workload.groups[gi].members;
            debug_assert!(initial.is_sorted_by(|a, b| a < b), "members sorted");
            initial
                .iter()
                .map(|&vm| (vm, Role::random(&mut role_rng)))
                .collect()
        });
        let join = if members.len() as u32 >= tenant_size {
            false // group saturated: must leave
        } else if members.len() <= 1 {
            true // keep groups alive
        } else {
            rng.chance(0.5)
        };
        if join {
            // Rejection-sample a non-member VM of the tenant.
            let (vm, at) = loop {
                let v = rng.below(u64::from(tenant_size)) as u32;
                if let Err(at) = members.binary_search_by_key(&v, |&(m, _)| m) {
                    break (v, at);
                }
            };
            let role = Role::random(&mut rng);
            members.insert(at, (vm, role));
            events.push(ChurnEvent {
                group: gi as u32,
                vm,
                join: true,
                role,
            });
        } else {
            // Uniform member pick.
            let idx = rng.index(members.len());
            let (vm, role) = members.remove(idx);
            events.push(ChurnEvent {
                group: gi as u32,
                vm,
                join: false,
                role,
            });
        }
    }
    events
}

/// A deterministic burst partition of a churn stream: the same events as
/// [`churn_events`] (bit-identical for a given workload/seed), chunked into
/// fixed-size batches. Bench and eval drive the controller one burst at a
/// time and run verification at the burst boundaries, so both tools see the
/// exact same checkpoints. `burst == 0` is treated as "one burst" so a
/// misconfigured caller still sees every event.
pub fn churn_bursts(
    workload: &Workload,
    n: usize,
    seed: u64,
    burst: usize,
) -> impl Iterator<Item = Vec<ChurnEvent>> {
    let events = churn_events(workload, n, seed);
    let burst = if burst == 0 { n.max(1) } else { burst };
    let mut rest = events;
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let take = burst.min(rest.len());
        let tail = rest.split_off(take);
        Some(std::mem::replace(&mut rest, tail))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::GroupSizeDist;
    use crate::workload::WorkloadConfig;
    use elmo_topology::Clos;
    use std::collections::BTreeMap;

    fn workload() -> Workload {
        let topo = Clos::paper_example();
        Workload::generate(
            topo,
            WorkloadConfig {
                tenants: 10,
                total_groups: 40,
                host_vm_cap: 20,
                placement_p: 1,
                min_group_size: 5,
                dist: GroupSizeDist::Wve,
                seed: 3,
            },
        )
    }

    /// The generator as it was with ordered maps: every leave walked its
    /// group's map to the picked index. The sorted-vector generator must
    /// emit exactly its stream.
    fn churn_events_btree(workload: &Workload, n: usize, seed: u64) -> Vec<ChurnEvent> {
        let mut rng = SplitMix64::new(seed);
        if workload.groups.is_empty() {
            return Vec::new();
        }
        let mut cum: Vec<u64> = Vec::with_capacity(workload.groups.len());
        let mut acc = 0u64;
        for g in &workload.groups {
            acc += g.members.len() as u64;
            cum.push(acc);
        }
        let mut membership: BTreeMap<u32, BTreeMap<u32, Role>> = BTreeMap::new();
        let mut role_rng = SplitMix64::new(seed ^ 0x0e11);
        let mut events = Vec::with_capacity(n);
        while events.len() < n {
            let pick = rng.below(acc);
            let gi = cum.partition_point(|&c| c <= pick);
            let tenant_size = workload.tenants[workload.groups[gi].tenant as usize]
                .vms
                .len() as u32;
            let members = membership.entry(gi as u32).or_insert_with(|| {
                workload.groups[gi]
                    .members
                    .iter()
                    .map(|&m| (m, Role::random(&mut role_rng)))
                    .collect()
            });
            let join = if members.len() as u32 >= tenant_size {
                false
            } else if members.len() <= 1 {
                true
            } else {
                rng.chance(0.5)
            };
            if join {
                let vm = loop {
                    let v = rng.below(u64::from(tenant_size)) as u32;
                    if !members.contains_key(&v) {
                        break v;
                    }
                };
                let role = Role::random(&mut rng);
                members.insert(vm, role);
                events.push(ChurnEvent {
                    group: gi as u32,
                    vm,
                    join: true,
                    role,
                });
            } else {
                let idx = rng.index(members.len());
                let (&vm, &role) = members.iter().nth(idx).expect("non-empty");
                members.remove(&vm);
                events.push(ChurnEvent {
                    group: gi as u32,
                    vm,
                    join: false,
                    role,
                });
            }
        }
        events
    }

    #[test]
    fn sorted_vectors_match_the_ordered_map_generator() {
        // The module's workload, the bench's dense and sparse shapes at a
        // small scale, and a saturating one: 40 groups over tenants of at
        // most a few VMs, so groups often hold every VM and must leave.
        let configs = [
            ("module", 10, 40, 1, 5),
            ("dense", 20, 400, 12, 5),
            ("sparse", 20, 400, 1, 5),
            ("saturating", 60, 40, 1, 2),
        ];
        let mut saturated_leaves = 0;
        for (name, tenants, total_groups, placement_p, min_group_size) in configs {
            for seed in [3u64, 57664] {
                let w = Workload::generate(
                    Clos::paper_example(),
                    WorkloadConfig {
                        tenants,
                        total_groups,
                        host_vm_cap: 20,
                        placement_p,
                        min_group_size,
                        dist: GroupSizeDist::Wve,
                        seed,
                    },
                );
                for churn_seed in [7u64, 0xc4_02_17] {
                    let events = churn_events(&w, 4000, churn_seed);
                    assert_eq!(
                        events,
                        churn_events_btree(&w, 4000, churn_seed),
                        "{name}, workload seed {seed}, churn seed {churn_seed}"
                    );
                    if name == "saturating" {
                        saturated_leaves += count_saturated_leaves(&w, &events);
                    }
                }
            }
        }
        assert!(saturated_leaves > 0, "the saturating config saturates");
    }

    /// Leaves forced by a group holding every VM of its tenant.
    fn count_saturated_leaves(w: &Workload, events: &[ChurnEvent]) -> usize {
        let mut sizes: Vec<usize> = w.groups.iter().map(|g| g.members.len()).collect();
        let mut forced = 0;
        for e in events {
            let g = e.group as usize;
            let tenant_size = w.tenants[w.groups[g].tenant as usize].vms.len();
            forced += usize::from(!e.join && sizes[g] == tenant_size);
            if e.join {
                sizes[g] += 1;
            } else {
                sizes[g] -= 1;
            }
        }
        forced
    }

    #[test]
    fn events_are_consistent_joins_and_leaves() {
        let w = workload();
        let events = churn_events(&w, 2000, 77);
        assert_eq!(events.len(), 2000);
        // Replay: a leave must always remove a present member, a join must
        // add an absent one.
        let mut membership: BTreeMap<u32, std::collections::BTreeSet<u32>> = BTreeMap::new();
        for e in &events {
            let g = &w.groups[e.group as usize];
            let m = membership
                .entry(e.group)
                .or_insert_with(|| g.members.iter().copied().collect());
            if e.join {
                assert!(m.insert(e.vm), "join of existing member");
            } else {
                assert!(m.remove(&e.vm), "leave of non-member");
            }
        }
    }

    #[test]
    fn both_event_kinds_and_all_roles_occur() {
        let w = workload();
        let events = churn_events(&w, 3000, 5);
        assert!(events.iter().any(|e| e.join));
        assert!(events.iter().any(|e| !e.join));
        for r in [Role::Sender, Role::Receiver, Role::Both] {
            assert!(events.iter().any(|e| e.role == r), "role {r:?} missing");
        }
    }

    #[test]
    fn larger_groups_get_more_events() {
        let w = workload();
        let events = churn_events(&w, 20_000, 9);
        let mut counts = vec![0usize; w.groups.len()];
        for e in &events {
            counts[e.group as usize] += 1;
        }
        let biggest = (0..w.groups.len())
            .max_by_key(|&i| w.groups[i].members.len())
            .unwrap();
        let smallest = (0..w.groups.len())
            .min_by_key(|&i| w.groups[i].members.len())
            .unwrap();
        if w.groups[biggest].members.len() > 2 * w.groups[smallest].members.len() {
            assert!(counts[biggest] > counts[smallest]);
        }
    }

    #[test]
    fn churn_is_deterministic() {
        let w = workload();
        assert_eq!(churn_events(&w, 500, 1), churn_events(&w, 500, 1));
        assert_ne!(churn_events(&w, 500, 1), churn_events(&w, 500, 2));
    }

    #[test]
    fn bursts_are_bit_identical_to_the_flat_stream() {
        let w = workload();
        let flat = churn_events(&w, 1000, 42);
        for burst in [1, 7, 100, 1000, 5000, 0] {
            let chunked: Vec<ChurnEvent> = churn_bursts(&w, 1000, 42, burst).flatten().collect();
            assert_eq!(chunked, flat, "burst size {burst} changed the stream");
        }
        let sizes: Vec<usize> = churn_bursts(&w, 1000, 42, 300).map(|b| b.len()).collect();
        assert_eq!(sizes, vec![300, 300, 300, 100]);
    }

    #[test]
    fn initial_roles_cover_all_groups() {
        let w = workload();
        let roles = initial_roles(&w, 4);
        assert_eq!(roles.len(), w.groups.len());
        for (g, r) in w.groups.iter().zip(&roles) {
            assert_eq!(g.members.len(), r.len());
        }
    }
}
