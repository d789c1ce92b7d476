//! # elmo-apps — end-to-end applications over the Elmo fabric
//!
//! The paper's §5.2 applications, run unmodified over the simulated data
//! plane: a ZeroMQ-style [publish-subscribe](pubsub) system (Figure 6) and
//! [sFlow-style host telemetry](telemetry) (§5.2.2), with the calibrated
//! [host model](hostmodel) standing in for the 9-server testbed (see
//! DESIGN.md §1 for the substitution argument).
#![forbid(unsafe_code)]

pub mod hostmodel;
pub mod pubsub;
pub mod telemetry;

pub use hostmodel::HostModel;
pub use pubsub::{PubSubResult, Transport};
pub use telemetry::{TelemetryConfig, TelemetryResult};
