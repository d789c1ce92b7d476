//! # elmo-controller — the logically-centralized control plane
//!
//! Owns multicast group state for every tenant: membership (per-host VM
//! counts and roles), the group's receiver tree, its p-/s-rule encoding from
//! Algorithm 1, and provider-assigned outer addresses. Exposes the paper's
//! control-plane operations:
//!
//! * [`Controller::create_group`] / [`Controller::join`] /
//!   [`Controller::leave`] — membership management returning the exact
//!   [`UpdateSet`] of devices that must be reprogrammed (Table 2's metric);
//! * [`Controller::handle_spine_failure`] /
//!   [`Controller::handle_core_failure`] — failure reconfiguration via
//!   explicit upstream ports, with unicast fallback when set cover cannot
//!   reach every member (§3.3, §5.1.3b);
//! * [`Controller::header_for`] — the per-sender packet header hypervisors
//!   encapsulate with.
#![forbid(unsafe_code)]

pub mod attribution;
pub mod controller;
pub mod failures;
pub mod srules;

pub use attribution::RuleAttribution;
pub use controller::{
    ChurnStats, Controller, ControllerConfig, GroupId, GroupSpec, GroupState, MemberCounts,
    MemberRole, UpdateSet,
};
pub use failures::FailureImpact;
pub use srules::{encode_group_admitted, SRuleSpace, UsageStats};
