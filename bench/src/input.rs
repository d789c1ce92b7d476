//! Seeded inputs. Everything random the benchmark feeds the system comes
//! from here and depends only on the seed: group specs, the resolved
//! join/leave stream and the inner frames. The crates under test receive
//! the generated values, never the seed.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::time::Instant;

use crate::sut::{
    churn_bursts, initial_roles, Clos, GroupId, GroupSizeDist, GroupSpec, HostId, MemberRole, Role,
    Vni, Workload, WorkloadConfig,
};

/// One join or leave, resolved to what the controller's API takes. For a
/// leave, `role` is the role the member holds at that point of the
/// stream (the generator's own role field is first-touch ordered and does
/// not say).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    pub gid: GroupId,
    pub host: HostId,
    pub role: MemberRole,
    pub join: bool,
}

pub struct Inputs {
    pub specs: Vec<GroupSpec>,
    pub events: Vec<Event>,
    /// Wall time of `Workload::generate` + `initial_roles`.
    pub generate_ms: f64,
    /// Wall time of `churn_bursts` and resolving its events.
    pub churn_gen_ns: u64,
}

fn to_role(r: Role) -> MemberRole {
    match r {
        Role::Sender => MemberRole::Sender,
        Role::Receiver => MemberRole::Receiver,
        Role::Both => MemberRole::Both,
    }
}

/// The tenant population (sizes, `P`-clustered placement) and the groups
/// those tenants have (which VMs belong to which group) are a fixed
/// condition of the benchmark, like the fabric: they come from this
/// seed. `--seed` decides every member's role (sender, receiver, both),
/// the join/leave stream, which flows send and the frame bytes. Tenant
/// sizes are exponential and only 250 tenants fit the fabric, so a
/// population drawn afresh per seed moves the s-rule count of the
/// clustered workloads by +-40% and the sender count by +-5%, which
/// would bury any change under test.
pub const POPULATION_SEED: u64 = 0xe140;

/// The benchmark fabric's workload shape at placement `p`: tenant count
/// and VM cap as `WorkloadConfig::scaled` derives them for the fabric,
/// WVE group sizes, exactly `groups` groups.
pub fn bench_config(topo: &Clos, p: usize, groups: usize, seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        total_groups: groups,
        seed,
        ..WorkloadConfig::scaled(topo, p, GroupSizeDist::Wve)
    }
}

/// A workload small enough for `Clos::paper_example()` (unit tests).
#[cfg(test)]
pub fn small_config(p: usize, groups: usize, seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        tenants: 4,
        total_groups: groups,
        host_vm_cap: 20,
        placement_p: p,
        min_group_size: 5,
        dist: GroupSizeDist::Wve,
        seed,
    }
}

impl Inputs {
    /// Generate `cfg.total_groups` group specs and a stream of
    /// `churn_events` join/leaves over the groups in `churn_groups`.
    pub fn generate_over(
        topo: Clos,
        cfg: WorkloadConfig,
        churn_events: usize,
        churn_groups: std::ops::Range<usize>,
    ) -> Inputs {
        let t = Instant::now();
        let mut workload = Workload::generate(
            topo,
            WorkloadConfig {
                seed: POPULATION_SEED,
                ..cfg
            },
        );
        // The generator lists groups tenant by tenant, and tenants differ
        // a lot in size. Put them in one fixed random order, so that any
        // stretch of consecutive groups (the part set-up prebuilds, a
        // slice of the create phase) is a fair sample of the population.
        let mut order = SplitMix::new(POPULATION_SEED ^ 0x5aff1e);
        for i in (1..workload.groups.len()).rev() {
            workload.groups.swap(i, order.below(i + 1));
        }
        let roles = initial_roles(&workload, cfg.seed);
        let generate_ms = t.elapsed().as_secs_f64() * 1e3;

        let specs: Vec<GroupSpec> = workload
            .groups
            .iter()
            .enumerate()
            .map(|(gi, g)| {
                let tenant = &workload.tenants[g.tenant as usize];
                let members = g
                    .members
                    .iter()
                    .zip(&roles[gi])
                    .map(|(&vm, &r)| (tenant.vms[vm as usize], to_role(r)))
                    .collect();
                (
                    GroupId(gi as u64),
                    Vni(g.tenant),
                    Ipv4Addr::new(225, (gi >> 16) as u8, (gi >> 8) as u8, gi as u8),
                    members,
                )
            })
            .collect();

        let t = Instant::now();
        // The generator draws from every group of the workload it is
        // given, so hand it only the groups the stream may touch.
        let first = churn_groups.start;
        workload.groups.truncate(churn_groups.end);
        workload.groups.drain(..first);
        // Roles per (group, vm) as the stream evolves: a leave must name
        // the role the member holds.
        let mut truth: Vec<BTreeMap<u32, Role>> = workload
            .groups
            .iter()
            .zip(&roles[first..])
            .map(|(g, r)| g.members.iter().copied().zip(r.iter().copied()).collect())
            .collect();
        let mut events = Vec::with_capacity(churn_events);
        // The churn stream has its own seed, derived from the run's.
        let churn_seed = cfg.seed ^ 0xc4_02_17;
        for burst in churn_bursts(&workload, churn_events, churn_seed, 4096) {
            for e in burst {
                let g = &workload.groups[e.group as usize];
                let host = workload.tenants[g.tenant as usize].vms[e.vm as usize];
                let held = &mut truth[e.group as usize];
                let role = if e.join {
                    held.insert(e.vm, e.role);
                    e.role
                } else {
                    held.remove(&e.vm)
                        .expect("generator only emits leaves for members")
                };
                events.push(Event {
                    gid: GroupId(first as u64 + u64::from(e.group)),
                    host,
                    role: to_role(role),
                    join: e.join,
                });
            }
        }
        let churn_gen_ns = t.elapsed().as_nanos() as u64;
        Inputs {
            specs,
            events,
            generate_ms,
            churn_gen_ns,
        }
    }

    /// Specs plus a churn stream over all of them.
    #[cfg(test)]
    pub fn generate(topo: Clos, cfg: WorkloadConfig, churn_events: usize) -> Inputs {
        Self::generate_over(topo, cfg, churn_events, 0..cfg.total_groups)
    }
}

/// The benchmark's own generator (SplitMix64), for the choices it makes
/// itself: frame filler and which flows send.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the slight modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// An inner frame of `len` bytes: a 4-byte sequence slot (rewritten per
/// packet) followed by seeded filler.
pub fn inner_frame(len: usize, seed: u64) -> Vec<u8> {
    assert!(len >= 4, "frame must hold the sequence number");
    let mut rng = SplitMix::new(seed ^ 0xf4a3e);
    let mut f = vec![0u8; len];
    for chunk in f[4..].chunks_mut(8) {
        let w = rng.next().to_le_bytes();
        chunk.copy_from_slice(&w[..chunk.len()]);
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let topo = Clos::paper_example();
        let a = Inputs::generate(topo, small_config(12, 30, 5), 300);
        let b = Inputs::generate(topo, small_config(12, 30, 5), 300);
        let c = Inputs::generate(topo, small_config(12, 30, 6), 300);
        assert_eq!(a.specs, b.specs);
        assert_eq!(a.events, b.events);
        assert_eq!(a.events.len(), 300);
        assert_ne!(a.events, c.events);
        assert_ne!(a.specs, c.specs);
        assert_eq!(inner_frame(64, 5), inner_frame(64, 5));
        assert_ne!(inner_frame(64, 5), inner_frame(64, 6));
        assert_eq!(inner_frame(1500, 5).len(), 1500);
    }

    #[test]
    fn churn_can_be_confined_to_a_prefix_of_the_groups() {
        let topo = Clos::paper_example();
        let x = Inputs::generate_over(topo, small_config(12, 30, 9), 400, 10..20);
        assert_eq!(x.specs.len(), 30);
        assert!(x.events.iter().all(|e| (10..20).contains(&e.gid.0)));
        // A leave names a host that is a member of that group.
        let all = Inputs::generate(topo, small_config(12, 30, 9), 400);
        assert!(all.events.iter().any(|e| e.gid.0 >= 20));
    }
}
