//! The Elmo packet header: a bit-packed list of p-rules.
//!
//! A header carries (paper Figure 2a, §3.1):
//!
//! 1. an **upstream leaf** p-rule — sender-specific: which of the sender
//!    leaf's host ports to copy to, whether to multipath upward, and (under
//!    failures) explicit spine uplinks;
//! 2. an **upstream spine** p-rule — same shape, one level up;
//! 3. a **core** p-rule — the pods the logical core must copy to;
//! 4. **downstream spine** p-rules — shared by all senders: `(bitmap,
//!    [pod ids])` pairs plus an optional default bitmap;
//! 5. **downstream leaf** p-rules — `(bitmap, [leaf ids])` pairs plus an
//!    optional default bitmap.
//!
//! Switches pop the sections for layers already traversed (D2d), so the
//! header shrinks hop by hop; [`ElmoHeader::pop_upstream_leaf`] and friends
//! model exactly what the egress pipeline's header invalidation does.
//!
//! The two downstream rule lists are reference-counted slices: every
//! sender's header of a group points at the same allocation (built once per
//! encoding, see [`crate::plan::DownstreamSections`]), so cloning a header
//! moves two reference counts instead of copying its rules.

use std::sync::Arc;

use crate::bitmap::PortBitmap;
use crate::bits::{BitReader, BitWriter, OutOfBits};
use crate::layout::HeaderLayout;

/// Errors from decoding an Elmo header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HeaderError {
    /// The buffer ran out before the header was complete.
    Truncated,
    /// A structural invariant is violated (e.g. reserved flag set).
    Malformed,
}

impl std::fmt::Display for HeaderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeaderError::Truncated => write!(f, "truncated Elmo header"),
            HeaderError::Malformed => write!(f, "malformed Elmo header"),
        }
    }
}

impl std::error::Error for HeaderError {}

/// An upstream p-rule (leaf or spine): downstream copies for the current
/// switch plus how to continue upward.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UpstreamRule {
    /// Downstream ports to copy to at this switch.
    pub down: PortBitmap,
    /// Use the underlying multipath scheme (ECMP & co.) to go up.
    pub multipath: bool,
    /// Explicit upstream ports, used when `multipath` is off (§3.3). An
    /// empty bitmap with `multipath` off means "do not go up".
    pub up: PortBitmap,
}

impl UpstreamRule {
    /// A rule that goes nowhere (used when a layer needs no traversal).
    pub fn inert(layout_down: usize, layout_up: usize) -> Self {
        UpstreamRule {
            down: PortBitmap::new(layout_down),
            multipath: false,
            up: PortBitmap::new(layout_up),
        }
    }

    /// Whether the rule forwards upward at all.
    pub fn goes_up(&self) -> bool {
        self.multipath || !self.up.is_empty()
    }
}

/// A downstream p-rule: an output bitmap shared by one or more switches of
/// the layer, identified by layer-local identifiers (global leaf index, or
/// pod index for logical spines).
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct DownstreamRule {
    /// Output ports (bitwise OR of the member switches' port sets, D3).
    pub bitmap: PortBitmap,
    /// Switch identifiers sharing this rule. Never empty.
    pub switches: Vec<u32>,
}

/// A decoded Elmo header.
///
/// Equality compares the downstream sections by value, not by allocation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ElmoHeader {
    pub u_leaf: Option<UpstreamRule>,
    pub u_spine: Option<UpstreamRule>,
    /// Pods the logical core forwards to.
    pub core: Option<PortBitmap>,
    /// Downstream spine rules, shared with every header of the same group
    /// and encoding.
    pub d_spine: Arc<[DownstreamRule]>,
    pub d_spine_default: Option<PortBitmap>,
    /// Downstream leaf rules, shared like `d_spine`.
    pub d_leaf: Arc<[DownstreamRule]>,
    pub d_leaf_default: Option<PortBitmap>,
}

/// Pop depths for an in-flight header. Sections pop strictly in traversal
/// order (D2d): the upstream leaf rule first, then the upstream spine
/// rule, then the core rule, then the downstream spine section (rules +
/// default). A shared, immutable decoded header plus one depth value
/// therefore describes every popped state a copy can be in — section `i`
/// of the order above is logically absent iff `depth >= i`. Encoding a
/// header at a depth is byte-identical to popping those sections off a
/// clone and encoding that.
pub mod pop {
    /// Nothing popped: the header as the sender emitted it.
    pub const NONE: u8 = 0;
    /// The upstream leaf rule is popped (sender's leaf, before going up).
    pub const U_LEAF: u8 = 1;
    /// ... and the upstream spine rule (upstream spine, going up).
    pub const U_SPINE: u8 = 2;
    /// ... and the core rule (core switch).
    pub const CORE: u8 = 3;
    /// ... and the downstream spine rules + default (spine, going down).
    pub const D_SPINE: u8 = 4;
}

mod flag {
    pub const U_LEAF: u64 = 1 << 7;
    pub const U_SPINE: u64 = 1 << 6;
    pub const CORE: u64 = 1 << 5;
    pub const D_SPINE: u64 = 1 << 4;
    pub const D_SPINE_DEFAULT: u64 = 1 << 3;
    pub const D_LEAF: u64 = 1 << 2;
    pub const D_LEAF_DEFAULT: u64 = 1 << 1;
    /// Reserved, must be zero.
    pub const RESERVED: u64 = 1;
}

impl From<OutOfBits> for HeaderError {
    fn from(_: OutOfBits) -> Self {
        HeaderError::Truncated
    }
}

/// The leading flags byte, with the reserved bit refused.
fn read_flags(r: &mut BitReader<'_>) -> Result<u64, HeaderError> {
    let flags = r.read_bits(8)?;
    if flags & flag::RESERVED != 0 {
        return Err(HeaderError::Malformed);
    }
    Ok(flags)
}

/// One switch identifier and the more-ids flag that follows it.
fn read_id(r: &mut BitReader<'_>, id_bits: usize) -> Result<(u32, bool), HeaderError> {
    let field = r.read_bits(id_bits + 1)?;
    Ok(((field >> 1) as u32, field & 1 == 1))
}

/// Advance past a downstream rule list (bitmap, identifiers, more-ids and
/// next-rule flags) and return how many rules it holds.
fn skip_rules(
    r: &mut BitReader<'_>,
    bitmap_width: usize,
    id_bits: usize,
) -> Result<usize, HeaderError> {
    let mut count = 0;
    loop {
        r.skip_bits(bitmap_width)?;
        while read_id(r, id_bits)?.1 {}
        count += 1;
        if !r.read_bit()? {
            return Ok(count);
        }
    }
}

impl ElmoHeader {
    /// An empty header (nothing present). Allocates nothing: an empty
    /// `Arc<[_]>` is a shared static.
    pub fn empty() -> Self {
        ElmoHeader {
            u_leaf: None,
            u_spine: None,
            core: None,
            d_spine: Arc::default(),
            d_spine_default: None,
            d_leaf: Arc::default(),
            d_leaf_default: None,
        }
    }

    /// Exact encoded size in bits (before byte padding).
    pub fn bit_len(&self, layout: &HeaderLayout) -> usize {
        self.bit_len_popped(layout, pop::NONE)
    }

    /// [`bit_len`](Self::bit_len) of the header with the first `depth`
    /// sections (see [`pop`]) treated as popped.
    pub fn bit_len_popped(&self, layout: &HeaderLayout, depth: u8) -> usize {
        let mut bits = layout.flags_bits();
        if depth < pop::U_LEAF && self.u_leaf.is_some() {
            bits += layout.u_leaf_bits();
        }
        if depth < pop::U_SPINE && self.u_spine.is_some() {
            bits += layout.u_spine_bits();
        }
        if depth < pop::CORE && self.core.is_some() {
            bits += layout.core_bits();
        }
        if depth < pop::D_SPINE {
            for r in self.d_spine.iter() {
                bits += layout.d_spine_rule_bits(r.switches.len());
            }
            if self.d_spine_default.is_some() {
                bits += layout.d_spine_default_bits();
            }
        }
        for r in self.d_leaf.iter() {
            bits += layout.d_leaf_rule_bits(r.switches.len());
        }
        if self.d_leaf_default.is_some() {
            bits += layout.d_leaf_default_bits();
        }
        bits
    }

    /// Encoded size in bytes.
    pub fn byte_len(&self, layout: &HeaderLayout) -> usize {
        self.bit_len(layout).div_ceil(8)
    }

    /// [`byte_len`](Self::byte_len) at a pop depth.
    pub fn byte_len_popped(&self, layout: &HeaderLayout, depth: u8) -> usize {
        self.bit_len_popped(layout, depth).div_ceil(8)
    }

    /// [`byte_len_popped`](Self::byte_len_popped) at every pop depth
    /// (index = depth, `pop::NONE` through `pop::D_SPINE`) in a single
    /// walk over the sections, instead of five. The replay batch
    /// pre-pass computes this row per packet; doing it section-by-section
    /// would re-iterate the d-spine and d-leaf rule lists per depth.
    pub fn byte_len_rows(&self, layout: &HeaderLayout) -> [usize; 5] {
        let u_leaf = if self.u_leaf.is_some() {
            layout.u_leaf_bits()
        } else {
            0
        };
        let u_spine = if self.u_spine.is_some() {
            layout.u_spine_bits()
        } else {
            0
        };
        let core = if self.core.is_some() {
            layout.core_bits()
        } else {
            0
        };
        let mut d_spine = 0;
        for r in self.d_spine.iter() {
            d_spine += layout.d_spine_rule_bits(r.switches.len());
        }
        if self.d_spine_default.is_some() {
            d_spine += layout.d_spine_default_bits();
        }
        let mut tail = layout.flags_bits();
        for r in self.d_leaf.iter() {
            tail += layout.d_leaf_rule_bits(r.switches.len());
        }
        if self.d_leaf_default.is_some() {
            tail += layout.d_leaf_default_bits();
        }
        [
            (tail + d_spine + core + u_spine + u_leaf).div_ceil(8),
            (tail + d_spine + core + u_spine).div_ceil(8),
            (tail + d_spine + core).div_ceil(8),
            (tail + d_spine).div_ceil(8),
            tail.div_ceil(8),
        ]
    }

    /// Serialize to bytes (padded to a byte boundary).
    pub fn encode(&self, layout: &HeaderLayout) -> Vec<u8> {
        self.encode_popped(layout, pop::NONE)
    }

    /// Serialize with the first `depth` sections (see [`pop`]) omitted, as
    /// if they had been popped off a clone first — byte-identical to doing
    /// exactly that, without mutating or copying the header.
    pub fn encode_popped(&self, layout: &HeaderLayout, depth: u8) -> Vec<u8> {
        let u_leaf = self.u_leaf.as_ref().filter(|_| depth < pop::U_LEAF);
        let u_spine = self.u_spine.as_ref().filter(|_| depth < pop::U_SPINE);
        let core = self.core.as_ref().filter(|_| depth < pop::CORE);
        let (d_spine, d_spine_default): (&[DownstreamRule], _) = if depth < pop::D_SPINE {
            (&self.d_spine, self.d_spine_default.as_ref())
        } else {
            (&[], None)
        };
        let mut w = BitWriter::with_capacity(self.byte_len_popped(layout, depth));
        let mut flags = 0u64;
        if u_leaf.is_some() {
            flags |= flag::U_LEAF;
        }
        if u_spine.is_some() {
            flags |= flag::U_SPINE;
        }
        if core.is_some() {
            flags |= flag::CORE;
        }
        if !d_spine.is_empty() {
            flags |= flag::D_SPINE;
        }
        if d_spine_default.is_some() {
            flags |= flag::D_SPINE_DEFAULT;
        }
        if !self.d_leaf.is_empty() {
            flags |= flag::D_LEAF;
        }
        if self.d_leaf_default.is_some() {
            flags |= flag::D_LEAF_DEFAULT;
        }
        w.write_bits(flags, 8);
        if let Some(r) = u_leaf {
            debug_assert_eq!(r.down.width(), layout.leaf_down_ports);
            debug_assert_eq!(r.up.width(), layout.leaf_up_ports);
            r.down.write(&mut w);
            w.write_bit(r.multipath);
            r.up.write(&mut w);
        }
        if let Some(r) = u_spine {
            debug_assert_eq!(r.down.width(), layout.spine_down_ports);
            debug_assert_eq!(r.up.width(), layout.spine_up_ports);
            r.down.write(&mut w);
            w.write_bit(r.multipath);
            r.up.write(&mut w);
        }
        if let Some(bm) = core {
            debug_assert_eq!(bm.width(), layout.core_ports);
            bm.write(&mut w);
        }
        Self::encode_rules(&mut w, d_spine, layout.pod_id_bits);
        if let Some(bm) = d_spine_default {
            bm.write(&mut w);
        }
        Self::encode_rules(&mut w, &self.d_leaf, layout.leaf_id_bits);
        if let Some(bm) = &self.d_leaf_default {
            bm.write(&mut w);
        }
        w.finish()
    }

    fn encode_rules(w: &mut BitWriter, rules: &[DownstreamRule], id_bits: usize) {
        for (i, rule) in rules.iter().enumerate() {
            assert!(
                !rule.switches.is_empty(),
                "downstream rule with no switches"
            );
            rule.bitmap.write(w);
            for (j, &id) in rule.switches.iter().enumerate() {
                let more = j + 1 < rule.switches.len(); // more-ids flag
                w.write_bits((id as u64) << 1 | more as u64, id_bits + 1);
            }
            w.write_bit(i + 1 < rules.len()); // next-rule flag
        }
    }

    /// Deserialize from bytes. Returns the header and the number of bytes it
    /// occupied (callers slice the remaining payload off that).
    pub fn decode(bytes: &[u8], layout: &HeaderLayout) -> Result<(ElmoHeader, usize), HeaderError> {
        let mut r = BitReader::new(bytes);
        let flags = read_flags(&mut r)?;
        let mut header = ElmoHeader::empty();
        if flags & flag::U_LEAF != 0 {
            header.u_leaf = Some(Self::read_upstream(
                &mut r,
                layout.leaf_down_ports,
                layout.leaf_up_ports,
            )?);
        }
        if flags & flag::U_SPINE != 0 {
            header.u_spine = Some(Self::read_upstream(
                &mut r,
                layout.spine_down_ports,
                layout.spine_up_ports,
            )?);
        }
        if flags & flag::CORE != 0 {
            header.core = Some(PortBitmap::read(&mut r, layout.core_ports)?);
        }
        if flags & flag::D_SPINE != 0 {
            header.d_spine = Self::read_rules(&mut r, layout.spine_down_ports, layout.pod_id_bits)?;
        }
        if flags & flag::D_SPINE_DEFAULT != 0 {
            header.d_spine_default = Some(PortBitmap::read(&mut r, layout.spine_down_ports)?);
        }
        if flags & flag::D_LEAF != 0 {
            header.d_leaf = Self::read_rules(&mut r, layout.leaf_down_ports, layout.leaf_id_bits)?;
        }
        if flags & flag::D_LEAF_DEFAULT != 0 {
            header.d_leaf_default = Some(PortBitmap::read(&mut r, layout.leaf_down_ports)?);
        }
        Ok((header, r.pos_bits().div_ceil(8)))
    }

    /// Walk the grammar [`decode`](Self::decode) accepts without building
    /// the header: `Ok(n)` exactly when `decode` returns `Ok((_, n))`, the
    /// same error otherwise, and no allocation either way. For a receiver
    /// that must refuse a malformed header but forwards nothing (the
    /// hypervisor edge).
    pub fn validate(bytes: &[u8], layout: &HeaderLayout) -> Result<usize, HeaderError> {
        let mut r = BitReader::new(bytes);
        let flags = read_flags(&mut r)?;
        let mut fixed = 0;
        if flags & flag::U_LEAF != 0 {
            fixed += layout.u_leaf_bits();
        }
        if flags & flag::U_SPINE != 0 {
            fixed += layout.u_spine_bits();
        }
        if flags & flag::CORE != 0 {
            fixed += layout.core_bits();
        }
        r.skip_bits(fixed)?;
        if flags & flag::D_SPINE != 0 {
            skip_rules(&mut r, layout.spine_down_ports, layout.pod_id_bits)?;
        }
        if flags & flag::D_SPINE_DEFAULT != 0 {
            r.skip_bits(layout.d_spine_default_bits())?;
        }
        if flags & flag::D_LEAF != 0 {
            skip_rules(&mut r, layout.leaf_down_ports, layout.leaf_id_bits)?;
        }
        if flags & flag::D_LEAF_DEFAULT != 0 {
            r.skip_bits(layout.d_leaf_default_bits())?;
        }
        Ok(r.pos_bits().div_ceil(8))
    }

    fn read_upstream(
        r: &mut BitReader<'_>,
        down_ports: usize,
        up_ports: usize,
    ) -> Result<UpstreamRule, HeaderError> {
        let down = PortBitmap::read(r, down_ports)?;
        let multipath = r.read_bit()?;
        let up = PortBitmap::read(r, up_ports)?;
        Ok(UpstreamRule {
            down,
            multipath,
            up,
        })
    }

    fn read_rules(
        r: &mut BitReader<'_>,
        bitmap_width: usize,
        id_bits: usize,
    ) -> Result<Arc<[DownstreamRule]>, HeaderError> {
        // Count the rules on a copy of the cursor first: the section is
        // allocated once at its exact size, straight into its `Arc`, and a
        // truncated section is refused before anything is built. The
        // probe walked these exact bits, so reading them again cannot fail.
        let mut probe = *r;
        let count = skip_rules(&mut probe, bitmap_width, id_bits)?;
        Ok((0..count)
            .map(|_| Self::read_rule(r, bitmap_width, id_bits).expect("walked by the probe"))
            .collect())
    }

    fn read_rule(
        r: &mut BitReader<'_>,
        bitmap_width: usize,
        id_bits: usize,
    ) -> Result<DownstreamRule, HeaderError> {
        let bitmap = PortBitmap::read(r, bitmap_width)?;
        let mut switches = Vec::new();
        loop {
            let (id, more) = read_id(r, id_bits)?;
            switches.push(id);
            if !more {
                break;
            }
        }
        r.skip_bits(1)?; // next-rule flag, already followed by the count
        Ok(DownstreamRule { bitmap, switches })
    }

    // ----- lookups (what the switch parser does) ----------------------------

    /// The downstream spine rule matching a pod, if any (parser match-and-set
    /// on the switch's own identifier, §4.1).
    pub fn find_d_spine(&self, pod: u32) -> Option<&DownstreamRule> {
        self.d_spine.iter().find(|r| r.switches.contains(&pod))
    }

    /// The downstream leaf rule matching a leaf, if any.
    pub fn find_d_leaf(&self, leaf: u32) -> Option<&DownstreamRule> {
        self.d_leaf.iter().find(|r| r.switches.contains(&leaf))
    }

    // ----- popping (what the egress pipeline does, D2d) ----------------------

    /// Pop the upstream leaf rule (done by the sender's leaf before sending
    /// the packet up).
    pub fn pop_upstream_leaf(&mut self) {
        self.u_leaf = None;
    }

    /// Pop the upstream spine rule (done by the upstream spine).
    pub fn pop_upstream_spine(&mut self) {
        self.u_spine = None;
    }

    /// Pop the core rule (done by the core switch).
    pub fn pop_core(&mut self) {
        self.core = None;
    }

    /// Pop the downstream spine section (done by a downstream spine before
    /// sending the packet to leaves).
    pub fn pop_d_spine(&mut self) {
        self.d_spine = Arc::default();
        self.d_spine_default = None;
    }

    /// Pop everything (done by a leaf before delivering to hosts, saving the
    /// receiving hypervisor the decap work, §4.1).
    pub fn pop_all(&mut self) {
        *self = ElmoHeader::empty();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elmo_topology::Clos;

    fn example_layout() -> HeaderLayout {
        HeaderLayout::for_clos(&Clos::paper_example())
    }

    /// The shared downstream rules of Figure 3a with R = 2: spines P2,P3
    /// share bitmap 11; leaves L0,L6 share 11 and L5,L7 share 11/10... here
    /// we encode the R = 0 assignment from Figure 3b exactly.
    fn figure3b_header(layout: &HeaderLayout) -> ElmoHeader {
        ElmoHeader {
            // Sender Ha on L0: deliver to host port 1 (Hb), multipath up.
            u_leaf: Some(UpstreamRule {
                down: PortBitmap::from_ports(layout.leaf_down_ports, [1]),
                multipath: true,
                up: PortBitmap::new(layout.leaf_up_ports),
            }),
            // P0: nothing to other local leaves, multipath to the core.
            u_spine: Some(UpstreamRule {
                down: PortBitmap::new(layout.spine_down_ports),
                multipath: true,
                up: PortBitmap::new(layout.spine_up_ports),
            }),
            // Core: forward to pods 2 and 3.
            core: Some(PortBitmap::from_ports(layout.core_ports, [2, 3])),
            d_spine: Arc::from([
                DownstreamRule {
                    bitmap: PortBitmap::from_ports(layout.spine_down_ports, [0]),
                    switches: vec![0],
                },
                DownstreamRule {
                    bitmap: PortBitmap::from_ports(layout.spine_down_ports, [1]),
                    switches: vec![2],
                },
            ]),
            // Default: pod 3 forwards to both leaves.
            d_spine_default: Some(PortBitmap::from_ports(layout.spine_down_ports, [0, 1])),
            d_leaf: Arc::from([
                DownstreamRule {
                    bitmap: PortBitmap::from_ports(layout.leaf_down_ports, [0, 1]),
                    switches: vec![0, 6],
                },
                DownstreamRule {
                    bitmap: PortBitmap::from_ports(layout.leaf_down_ports, [2]),
                    switches: vec![5],
                },
            ]),
            d_leaf_default: Some(PortBitmap::from_ports(layout.leaf_down_ports, [1])),
        }
    }

    #[test]
    fn roundtrip_full_header() {
        let layout = example_layout();
        let header = figure3b_header(&layout);
        let bytes = header.encode(&layout);
        assert_eq!(bytes.len(), header.byte_len(&layout));
        let (decoded, used) = ElmoHeader::decode(&bytes, &layout).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(decoded, header);
    }

    #[test]
    fn byte_len_rows_match_per_depth_byte_len() {
        let layout = example_layout();
        let mut partial = figure3b_header(&layout);
        partial.u_spine = None;
        partial.d_spine_default = None;
        partial.d_leaf_default = None;
        for header in [figure3b_header(&layout), partial, ElmoHeader::empty()] {
            let rows = header.byte_len_rows(&layout);
            for depth in 0..5u8 {
                assert_eq!(
                    rows[depth as usize],
                    header.byte_len_popped(&layout, depth),
                    "depth {depth}"
                );
            }
        }
    }

    #[test]
    fn roundtrip_empty_header() {
        let layout = example_layout();
        let header = ElmoHeader::empty();
        let bytes = header.encode(&layout);
        assert_eq!(bytes.len(), 1); // just the flags byte
        let (decoded, used) = ElmoHeader::decode(&bytes, &layout).unwrap();
        assert_eq!(used, 1);
        assert_eq!(decoded, header);
    }

    #[test]
    fn roundtrip_after_pops() {
        let layout = example_layout();
        let mut header = figure3b_header(&layout);
        header.pop_upstream_leaf();
        header.pop_upstream_spine();
        let bytes = header.encode(&layout);
        let (decoded, _) = ElmoHeader::decode(&bytes, &layout).unwrap();
        assert_eq!(decoded, header);
        assert!(decoded.u_leaf.is_none());
        assert!(decoded.core.is_some());
    }

    #[test]
    fn encode_popped_matches_pop_then_encode_at_every_depth() {
        let layout = example_layout();
        let full = figure3b_header(&layout);
        let mut popped = full.clone();
        for depth in [
            pop::NONE,
            pop::U_LEAF,
            pop::U_SPINE,
            pop::CORE,
            pop::D_SPINE,
        ] {
            match depth {
                pop::U_LEAF => popped.pop_upstream_leaf(),
                pop::U_SPINE => popped.pop_upstream_spine(),
                pop::CORE => popped.pop_core(),
                pop::D_SPINE => popped.pop_d_spine(),
                _ => {}
            }
            assert_eq!(
                full.encode_popped(&layout, depth),
                popped.encode(&layout),
                "depth {depth}"
            );
            assert_eq!(
                full.bit_len_popped(&layout, depth),
                popped.bit_len(&layout),
                "depth {depth}"
            );
        }
    }

    #[test]
    fn popping_shrinks_the_header() {
        let layout = example_layout();
        let mut header = figure3b_header(&layout);
        let full = header.byte_len(&layout);
        header.pop_upstream_leaf();
        header.pop_upstream_spine();
        header.pop_core();
        let after_core = header.byte_len(&layout);
        assert!(after_core < full);
        header.pop_d_spine();
        let after_spine = header.byte_len(&layout);
        assert!(after_spine < after_core);
        header.pop_all();
        assert_eq!(header.byte_len(&layout), 1);
    }

    #[test]
    fn find_rules_matches_figure3() {
        let layout = example_layout();
        let header = figure3b_header(&layout);
        // P0 -> leaf 0 of the pod; P2 -> leaf index 1 (= L5); P3 unmatched.
        assert_eq!(
            header.find_d_spine(0).unwrap().bitmap.to_binary_string(),
            "10"
        );
        assert_eq!(
            header.find_d_spine(2).unwrap().bitmap.to_binary_string(),
            "01"
        );
        assert!(header.find_d_spine(3).is_none()); // falls to s-rule/default
        assert!(header.find_d_leaf(0).is_some());
        assert!(header.find_d_leaf(6).is_some());
        assert!(header.find_d_leaf(7).is_none());
    }

    #[test]
    fn truncated_buffer_is_rejected() {
        let layout = example_layout();
        let header = figure3b_header(&layout);
        let bytes = header.encode(&layout);
        for cut in 0..bytes.len() - 1 {
            let result = ElmoHeader::decode(&bytes[..cut], &layout);
            assert!(result.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn validate_agrees_with_decode() {
        let wide = HeaderLayout::for_clos(&Clos::scaled_fabric(6, 24, 16));
        let layout = example_layout();
        let full = figure3b_header(&layout).encode(&layout);
        let mut corpus: Vec<Vec<u8>> = (0..=full.len()).map(|cut| full[..cut].to_vec()).collect();
        let mut rng = crate::rng::SplitMix64::new(0x5eed);
        for _ in 0..4000 {
            let len = rng.next_u64() as usize % 96;
            let mut bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            if let Some(flags) = bytes.first_mut() {
                *flags &= !1; // mostly past the reserved-bit check
            }
            corpus.push(bytes);
        }
        let mut accepted = 0;
        for bytes in &corpus {
            for l in [&layout, &wide] {
                let decoded = ElmoHeader::decode(bytes, l).map(|(_, used)| used);
                assert_eq!(ElmoHeader::validate(bytes, l), decoded, "{bytes:02x?}");
                accepted += decoded.is_ok() as usize;
            }
        }
        assert!(accepted > 100, "corpus exercises the accept path");
        assert_eq!(
            ElmoHeader::validate(&[0x01], &layout),
            Err(HeaderError::Malformed)
        );
    }

    #[test]
    fn reserved_flag_is_malformed() {
        let layout = example_layout();
        let bytes = [0x01u8];
        assert_eq!(
            ElmoHeader::decode(&bytes, &layout).unwrap_err(),
            HeaderError::Malformed
        );
    }

    #[test]
    fn bit_len_matches_layout_accounting() {
        let layout = example_layout();
        let header = figure3b_header(&layout);
        let expected = layout.flags_bits()
            + layout.u_leaf_bits()
            + layout.u_spine_bits()
            + layout.core_bits()
            + layout.d_spine_rule_bits(1) * 2
            + layout.d_spine_default_bits()
            + layout.d_leaf_rule_bits(2)
            + layout.d_leaf_rule_bits(1)
            + layout.d_leaf_default_bits();
        assert_eq!(header.bit_len(&layout), expected);
    }

    #[test]
    fn upstream_rule_goes_up() {
        let r = UpstreamRule::inert(4, 2);
        assert!(!r.goes_up());
        let r = UpstreamRule {
            multipath: true,
            ..UpstreamRule::inert(4, 2)
        };
        assert!(r.goes_up());
        let mut r = UpstreamRule::inert(4, 2);
        r.up.set(0);
        assert!(r.goes_up());
    }

    #[test]
    fn decode_reports_consumed_bytes_with_trailing_payload() {
        let layout = example_layout();
        let header = figure3b_header(&layout);
        let mut bytes = header.encode(&layout);
        let header_len = bytes.len();
        bytes.extend_from_slice(b"payload");
        let (decoded, used) = ElmoHeader::decode(&bytes, &layout).unwrap();
        assert_eq!(used, header_len);
        assert_eq!(decoded, header);
    }
}
