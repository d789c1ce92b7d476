//! Datacenter topologies for Elmo (SIGCOMM 2019).
//!
//! Elmo's encoding exploits the structure of multi-rooted Clos fabrics: a
//! tiered topology of *leaf* switches (connected to hosts), *spine* switches
//! grouped into *pods*, and a *core* layer connecting pods. All spines of a
//! pod forward a multicast packet to the same set of leaves, so they behave
//! as one **logical spine**; all cores forward to the same set of pods, so
//! they behave as one **logical core** (paper §3.1, D2).
//!
//! This crate provides:
//!
//! * [`Clos`] — a parameterized three-tier multi-rooted Clos fabric
//!   (Facebook-Fabric style) with strongly typed identifiers and port maps,
//! * [`GroupTree`] — the multicast tree of a group projected onto the
//!   logical topology (per-leaf host sets, per-pod leaf sets),
//! * [`FailureState`] + greedy set cover for re-routing around failed
//!   spines/cores via explicit upstream ports (paper §3.3),
//! * [`xpander::Xpander`] — an expander topology used for the non-Clos
//!   discussion at the end of §5.1.2.
#![forbid(unsafe_code)]

pub mod clos;
pub mod failure;
pub mod ids;
pub mod tree;
pub mod xpander;

pub use clos::{Clos, ClosParams};
pub use failure::{FailureState, UpstreamCover};
pub use ids::{CoreId, HostId, Layer, LeafId, PodId, SpineId, SwitchRef};
pub use tree::GroupTree;
