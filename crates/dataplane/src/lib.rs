//! # elmo-dataplane — programmable-switch models
//!
//! The data plane of the Elmo reproduction: PISA-style [network
//! switches](netswitch::NetworkSwitch) that parse p-rules with match-and-set
//! (paper §4.1), [hypervisor switches](hypervisor::HypervisorSwitch) that
//! push the whole encapsulation in one write (§4.2), the [full packet
//! format](packet::ElmoPacketRepr) (Figure 3b), and a wired
//! [fabric](fabric::Fabric) that moves real bytes between them and accounts
//! per-tier traffic.
//!
//! Hardware substitution (see DESIGN.md §1): these models stand in for
//! Barefoot Tofino / RMT and PISCES. They enforce the same resource limits —
//! parser header-vector size, group-table capacity, single-pass parsing —
//! so the scalability results exercise the constraints the paper's hardware
//! imposes, without requiring the hardware.
#![forbid(unsafe_code)]

pub mod fabric;
pub mod hypervisor;
pub mod netswitch;
pub mod packet;
pub mod pcap;
pub mod shard;

pub use fabric::{
    dense_switch_id, dense_switch_ref, trace_node_label, Fabric, FabricStats, HopRecord,
};
pub use hypervisor::{
    host_ip, host_of_ip, Deliveries, HypervisorStats, HypervisorSwitch, MembershipSignal,
    SenderFlow, VmSlot,
};
pub use netswitch::{GroupTableFull, MatchSource, NetworkSwitch, SwitchConfig, SwitchStats};
pub use packet::{
    ecmp_hash, ecmp_hash_fields, ElmoPacketRepr, FlightBatch, FlightPacket, PacketError,
};
pub use pcap::PcapWriter;
pub use shard::DeliveryBatch;
