//! The system under test, named once.
//!
//! Every item of the repository's crates that the benchmark touches is
//! re-exported here and nowhere else, so this file is the list of what a
//! later change must keep compiling (or move together with the benchmark).
//! The same list, with the methods used on each type, is in
//! `bench/README.md`.

// topology: the fabric and the group tree projected onto it.
pub use elmo_topology::{Clos, GroupTree, HostId, LeafId, PodId};

// workloads: everything seeded comes from here.
pub use elmo_workloads::{
    churn_bursts, initial_roles, GroupSizeDist, Role, Workload, WorkloadConfig,
};

// core: the kernels timed in isolation by the traced run.
pub use elmo_core::{
    approx_min_k_union_with, encode_group, ElmoHeader, EncoderConfig, HeaderLayout,
    MinKUnionScratch, PortBitmap,
};

// controller: the control plane.
pub use elmo_controller::{
    Controller, ControllerConfig, GroupId, GroupSpec, GroupState, MemberRole, UpdateSet,
};

// dataplane: switches, hypervisors, packets and the replay engine.
pub use elmo_dataplane::{
    DeliveryBatch, Fabric, FlightPacket, HypervisorSwitch, SenderFlow, SwitchConfig, VmSlot,
};
pub use elmo_net::vxlan::Vni;

// verify and obs: the checker and the counters the ledger reads.
pub use elmo_obs::{snapshot, JsonValue, Snapshot};
pub use elmo_verify::{check_state_with, VerifyOptions};
