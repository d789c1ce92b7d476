//! # elmo-core — source-routed multicast encoding
//!
//! The primary contribution of *Elmo: Source Routed Multicast for Public
//! Clouds* (SIGCOMM 2019): instead of storing per-group state in network
//! switches, the multicast tree of a group is compiled into a compact,
//! bit-packed list of **p-rules** carried in every packet, with a bounded
//! spill-over into per-switch **s-rules** (group-table entries) and a
//! catch-all **default p-rule**.
//!
//! The pipeline is:
//!
//! 1. Project a group's members onto the logical Clos topology
//!    (`elmo_topology::GroupTree`).
//! 2. Run [Algorithm 1](cluster::cluster_layer) per downstream layer: greedy
//!    approximate [MIN-K-UNION](min_k_union::approx_min_k_union) groups
//!    switches with similar port [bitmaps](bitmap::PortBitmap) under a
//!    redundancy budget `R`, a per-rule sharing cap `Kmax`, and a per-layer
//!    header budget `Hmax`.
//! 3. Assemble a per-sender [header](header::ElmoHeader) — upstream leaf and
//!    spine rules, a core pod bitmap, then the shared downstream sections —
//!    and [serialize](header::ElmoHeader::encode) it bit-exactly per the
//!    [layout](layout::HeaderLayout) derived from the fabric's dimensions.
#![forbid(unsafe_code)]

pub mod bitmap;
pub mod bits;
pub mod cluster;
pub mod det;
pub mod header;
pub mod layout;
pub mod min_k_union;
pub mod plan;
pub mod rng;

pub use bitmap::PortBitmap;
pub use cluster::{
    cluster_layer, cluster_layer_with, ClusterConfig, ClusterScratch, LayerEncoding,
};
pub use det::{DetHashMap, DetHashSet, DetHasher};
pub use header::{
    pop, DownstreamRule, DownstreamSection, ElmoHeader, HeaderError, SectionRule, UpstreamRule,
};
pub use layout::HeaderLayout;
pub use min_k_union::{approx_min_k_union, approx_min_k_union_with, MinKUnionScratch};
pub use plan::{
    encode_group, encode_group_with, header_for_sender, DownstreamSections, EncodeScratch,
    EncoderConfig, GroupEncoding,
};
pub use rng::SplitMix64;
