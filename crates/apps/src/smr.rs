//! State-machine replication over multicast — one of the paper's motivating
//! workloads (§1 cites replicated state machines and Paxos-style systems as
//! natural beneficiaries of native multicast).
//!
//! A leader replicates an ordered command log to N replicas. With Elmo the
//! leader emits one multicast packet per command and the fabric replicates;
//! over unicast it serializes one copy per replica, so its egress and send
//! budget scale with N. The experiment drives a real log through the
//! simulated fabric, applies the commands at every replica, and checks that
//! all replicas converge to an identical state digest — then reports the
//! leader-side costs from the calibrated host model.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use elmo_controller::{Controller, ControllerConfig, GroupId, MemberRole};
use elmo_dataplane::{Fabric, HypervisorSwitch, SenderFlow, SwitchConfig, VmSlot};
use elmo_net::vxlan::Vni;
use elmo_topology::{Clos, HostId, LeafId, PodId};

use crate::hostmodel::HostModel;
use crate::pubsub::Transport;

/// Commands of a tiny key-value state machine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Command {
    /// `Set(key, value)`.
    Set(u8, u32),
    /// `Add(key, delta)` — order-sensitive together with `Set`.
    Add(u8, u32),
}

impl Command {
    /// Serialize as `[seq: u32][tag: u8][key: u8][arg: u32]`.
    fn encode(&self, seq: u32) -> Vec<u8> {
        let mut out = Vec::with_capacity(10);
        out.extend_from_slice(&seq.to_be_bytes());
        match self {
            Command::Set(k, v) => {
                out.push(0);
                out.push(*k);
                out.extend_from_slice(&v.to_be_bytes());
            }
            Command::Add(k, d) => {
                out.push(1);
                out.push(*k);
                out.extend_from_slice(&d.to_be_bytes());
            }
        }
        out
    }

    fn decode(bytes: &[u8]) -> Option<(u32, Command)> {
        if bytes.len() != 10 {
            return None;
        }
        let seq = u32::from_be_bytes(bytes[0..4].try_into().ok()?);
        let key = bytes[5];
        let arg = u32::from_be_bytes(bytes[6..10].try_into().ok()?);
        let cmd = match bytes[4] {
            0 => Command::Set(key, arg),
            1 => Command::Add(key, arg),
            _ => return None,
        };
        Some((seq, cmd))
    }
}

/// One replica's state machine: applies commands strictly in sequence.
#[derive(Clone, Default, Debug)]
pub struct Replica {
    state: BTreeMap<u8, u32>,
    next_seq: u32,
    /// Commands rejected for arriving out of order (none expected on the
    /// in-order fabric model).
    pub out_of_order: u32,
}

impl Replica {
    /// Apply one wire command.
    pub fn apply(&mut self, bytes: &[u8]) {
        let Some((seq, cmd)) = Command::decode(bytes) else {
            self.out_of_order += 1;
            return;
        };
        if seq != self.next_seq {
            self.out_of_order += 1;
            return;
        }
        self.next_seq += 1;
        match cmd {
            Command::Set(k, v) => {
                self.state.insert(k, v);
            }
            Command::Add(k, d) => {
                *self.state.entry(k).or_insert(0) += d;
            }
        }
    }

    /// A deterministic digest of the applied state (FNV over entries).
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut feed = |b: u8| {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        for (&k, &v) in &self.state {
            feed(k);
            for b in v.to_be_bytes() {
                feed(b);
            }
        }
        feed(self.next_seq as u8);
        h
    }
}

/// Result of one replication run.
#[derive(Clone, Copy, Debug)]
pub struct SmrResult {
    /// All replicas applied the whole log and agree on the digest.
    pub converged: bool,
    /// Commands the leader can commit per second (host-model bound).
    pub commits_per_sec: f64,
    /// Leader egress bytes per committed command (measured on the wire).
    pub leader_bytes_per_commit: f64,
}

/// Replicate `log` from a leader to `replicas` followers.
pub fn replicate(
    topo: Clos,
    replicas: usize,
    log: &[Command],
    transport: Transport,
    model: &HostModel,
) -> SmrResult {
    assert!(replicas >= 1 && replicas < topo.num_hosts());
    let leader = HostId(0);
    let followers: Vec<HostId> = (1..=replicas as u32).map(HostId).collect();

    let mut ctl = Controller::new(topo, ControllerConfig::paper_default(0));
    let gid = GroupId(3);
    let group = Ipv4Addr::new(225, 42, 42, 42);
    let vni = Vni(90);
    ctl.create_group(
        gid,
        vni,
        group,
        std::iter::once((leader, MemberRole::Sender))
            .chain(followers.iter().map(|&h| (h, MemberRole::Receiver))),
    );
    let state = ctl.group(gid).expect("group");
    let mut fabric = Fabric::new(topo, SwitchConfig::default());
    for (leaf, bm) in &state.enc.d_leaf.s_rules {
        fabric
            .leaf_mut(LeafId(*leaf))
            .install_srule(state.outer_addr, bm.clone())
            .unwrap();
    }
    for (pod, bm) in &state.enc.d_spine.s_rules {
        fabric
            .install_pod_srule(PodId(*pod), state.outer_addr, bm.clone())
            .unwrap();
    }
    let header = ctl.header_for(gid, leader).expect("leader header");
    let mut leader_hv = HypervisorSwitch::new(leader);
    leader_hv.install_flow(
        vni,
        group,
        SenderFlow::new(
            state.outer_addr,
            vni,
            &header,
            ctl.layout(),
            followers.clone(),
        ),
    );
    let mut machines: BTreeMap<HostId, (HypervisorSwitch, Replica)> = followers
        .iter()
        .map(|&h| {
            let mut hv = HypervisorSwitch::new(h);
            hv.subscribe(state.outer_addr, VmSlot(0));
            (h, (hv, Replica::default()))
        })
        .collect();

    let mut leader_egress = 0u64;
    for (seq, cmd) in log.iter().enumerate() {
        let frame = cmd.encode(seq as u32);
        let packets = match transport {
            Transport::Elmo => leader_hv.send(vni, group, &frame, ctl.layout()),
            Transport::Unicast => leader_hv.send_unicast_to(&followers, vni, &frame, ctl.layout()),
        };
        leader_egress += packets.iter().map(|p| p.len() as u64).sum::<u64>();
        let batch = packets.into_iter().map(|p| (leader, p));
        for (host, bytes) in fabric.inject_batch(batch) {
            if let Some((hv, replica)) = machines.get_mut(&host) {
                for (_, inner) in hv.receive(&bytes, ctl.layout()) {
                    replica.apply(inner);
                }
            }
        }
    }

    let digests: Vec<u64> = machines.values().map(|(_, r)| r.digest()).collect();
    let converged = digests.windows(2).all(|w| w[0] == w[1])
        && machines
            .values()
            .all(|(_, r)| r.out_of_order == 0 && r.next_seq as usize == log.len());
    let commits_per_sec = match transport {
        Transport::Elmo => model.multicast_rate_per_receiver(10),
        Transport::Unicast => model.unicast_rate_per_receiver(replicas, 10),
    };
    SmrResult {
        converged,
        commits_per_sec,
        leader_bytes_per_commit: leader_egress as f64 / log.len() as f64,
    }
}

/// A deterministic mixed workload of `n` commands.
pub fn sample_log(n: usize) -> Vec<Command> {
    (0..n)
        .map(|i| {
            if i % 3 == 0 {
                Command::Set((i % 7) as u8, i as u32)
            } else {
                Command::Add((i % 5) as u8, (i % 11) as u32 + 1)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Clos {
        Clos::paper_example()
    }

    #[test]
    fn replicas_converge_under_both_transports() {
        let log = sample_log(50);
        for transport in [Transport::Elmo, Transport::Unicast] {
            let r = replicate(topo(), 12, &log, transport, &HostModel::default());
            assert!(r.converged, "{transport:?} diverged");
        }
    }

    #[test]
    fn elmo_leader_egress_is_flat_unicast_grows() {
        let log = sample_log(20);
        let m = HostModel::default();
        let e4 = replicate(topo(), 4, &log, Transport::Elmo, &m);
        let e16 = replicate(topo(), 16, &log, Transport::Elmo, &m);
        let u4 = replicate(topo(), 4, &log, Transport::Unicast, &m);
        let u16 = replicate(topo(), 16, &log, Transport::Unicast, &m);
        // Elmo's per-commit egress is one packet regardless of N (modulo a
        // slightly larger p-rule section for more leaves).
        assert!(e16.leader_bytes_per_commit < e4.leader_bytes_per_commit * 1.5);
        // Unicast pays one copy per replica.
        assert!((u16.leader_bytes_per_commit / u4.leader_bytes_per_commit - 4.0).abs() < 0.2);
        assert!(u16.leader_bytes_per_commit > 3.0 * e16.leader_bytes_per_commit);
    }

    #[test]
    fn commit_rate_shape_matches_figure6() {
        let log = sample_log(10);
        let m = HostModel::default();
        let e = replicate(topo(), 32, &log, Transport::Elmo, &m);
        let u = replicate(topo(), 32, &log, Transport::Unicast, &m);
        assert!(e.commits_per_sec > 10.0 * u.commits_per_sec);
    }

    #[test]
    fn state_machine_is_order_sensitive() {
        let mut a = Replica::default();
        let mut b = Replica::default();
        // Same commands, different order: digests must differ (Set clobbers
        // Add), proving convergence below is meaningful.
        a.apply(&Command::Set(1, 10).encode(0));
        a.apply(&Command::Add(1, 5).encode(1));
        b.apply(&Command::Add(1, 5).encode(0));
        b.apply(&Command::Set(1, 10).encode(1));
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn out_of_order_commands_are_rejected() {
        let mut r = Replica::default();
        r.apply(&Command::Set(1, 1).encode(5)); // wrong seq
        assert_eq!(r.out_of_order, 1);
        assert_eq!(r.next_seq, 0);
        r.apply(b"garbage");
        assert_eq!(r.out_of_order, 2);
    }
}
