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
//! The two downstream sections are immutable, reference-counted
//! [`DownstreamSection`] values: every sender's header of a group points at
//! the same two (built once per encoding, see
//! [`crate::plan::DownstreamSections`]), and each section serialises its
//! rules at most once, on its first encode. A sender's header is then its
//! few upstream bits followed by a shifted copy of those shared bits.

use std::sync::{Arc, LazyLock, OnceLock};

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
/// pod index for logical spines). This is what the encoder produces; a
/// header carries its rules as a [`DownstreamSection`].
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct DownstreamRule {
    /// Output ports (bitwise OR of the member switches' port sets, D3).
    pub bitmap: PortBitmap,
    /// Switch identifiers sharing this rule. Never empty.
    pub switches: Vec<u32>,
}

/// One rule of a [`DownstreamSection`], borrowed from its columns.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SectionRule<'a> {
    /// Output ports.
    pub bitmap: &'a PortBitmap,
    /// Switch identifiers sharing this rule. Never empty.
    pub switches: &'a [u32],
}

/// A downstream section of the header — the spine or the leaf layer's
/// p-rules plus its optional default p-rule — as one immutable value that
/// every sender's header of a group shares through an `Arc`.
///
/// The rules live in flat columns: per rule its bitmap and the end of its
/// identifiers in one shared identifier column. The exact wire length is
/// fixed when the section is built; the wire bits themselves are built on
/// the section's first encode and kept, so every later header that carries
/// the section copies them instead of serialising its rules again.
///
/// Equality compares the rules and the default by value; whether the wire
/// bits were built yet never matters.
pub struct DownstreamSection {
    /// Per rule: its bitmap and the end of its identifiers in `ids`.
    rules: Vec<(PortBitmap, u32)>,
    ids: Vec<u32>,
    default: Option<PortBitmap>,
    /// Bits per switch identifier in this layer.
    id_bits: usize,
    /// Exact encoded length of rules and default, in bits.
    bit_len: usize,
    /// The encoded rules and default, MSB-first, zero-padded to a byte.
    wire: OnceLock<Box<[u8]>>,
}

static EMPTY_SECTION: LazyLock<Arc<DownstreamSection>> =
    LazyLock::new(|| Arc::new(DownstreamSection::new(&[], None, 0)));

impl DownstreamSection {
    /// A section of `rules` and an optional `default`, whose identifiers
    /// are `id_bits` wide on the wire (the layout's `pod_id_bits` for the
    /// spine section, `leaf_id_bits` for the leaf section).
    ///
    /// # Panics
    /// Panics if a rule names no switch.
    pub fn new(rules: &[DownstreamRule], default: Option<PortBitmap>, id_bits: usize) -> Self {
        let mut columns = Vec::with_capacity(rules.len());
        let mut ids = Vec::with_capacity(rules.iter().map(|r| r.switches.len()).sum());
        for rule in rules {
            assert!(
                !rule.switches.is_empty(),
                "downstream rule with no switches"
            );
            ids.extend_from_slice(&rule.switches);
            columns.push((rule.bitmap.clone(), ids.len() as u32));
        }
        Self::from_columns(columns, ids, default, id_bits)
    }

    fn from_columns(
        rules: Vec<(PortBitmap, u32)>,
        ids: Vec<u32>,
        default: Option<PortBitmap>,
        id_bits: usize,
    ) -> Self {
        let bit_len = rules.iter().map(|(bm, _)| bm.width() + 1).sum::<usize>()
            + ids.len() * (id_bits + 1)
            + default.as_ref().map_or(0, PortBitmap::width);
        DownstreamSection {
            rules,
            ids,
            default,
            id_bits,
            bit_len,
            wire: OnceLock::new(),
        }
    }

    /// The shared section with no rules and no default: what a header
    /// carries for a layer it does not traverse. Allocates nothing after
    /// its first use.
    pub fn empty() -> Arc<Self> {
        Arc::clone(&EMPTY_SECTION)
    }

    /// Number of rules (the default not counted).
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the section holds no rules (it may still hold a default).
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Rule `i`.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    pub fn rule(&self, i: usize) -> SectionRule<'_> {
        let start = match i {
            0 => 0,
            _ => self.rules[i - 1].1 as usize,
        };
        let (bitmap, end) = &self.rules[i];
        SectionRule {
            bitmap,
            switches: &self.ids[start..*end as usize],
        }
    }

    /// The rules in wire order.
    pub fn rules(&self) -> impl ExactSizeIterator<Item = SectionRule<'_>> + '_ {
        (0..self.rules.len()).map(|i| self.rule(i))
    }

    /// The index of the rule naming `switch`, if any (the parser's match on
    /// its own identifier, §4.1): one scan of the identifier column.
    pub fn position(&self, switch: u32) -> Option<usize> {
        let at = self.ids.iter().position(|&id| id == switch)? as u32;
        Some(self.rules.partition_point(|&(_, end)| end <= at))
    }

    /// The rule naming `switch`, if any.
    pub fn find(&self, switch: u32) -> Option<SectionRule<'_>> {
        self.position(switch).map(|i| self.rule(i))
    }

    /// The default p-rule, if any.
    pub fn default(&self) -> Option<&PortBitmap> {
        self.default.as_ref()
    }

    /// Exact encoded length in bits of the rules and the default.
    pub fn bit_len(&self) -> usize {
        self.bit_len
    }

    /// Append the section's bits: on its first call this serialises the
    /// rules once, every call copies the kept bits.
    fn write(&self, w: &mut BitWriter, id_bits: usize) {
        if self.bit_len == 0 {
            return;
        }
        debug_assert!(
            self.is_empty() || self.id_bits == id_bits,
            "section built for {}-bit identifiers, layout has {id_bits}",
            self.id_bits
        );
        let wire = self.wire.get_or_init(|| {
            let mut w = BitWriter::with_capacity(self.bit_len.div_ceil(8));
            for (i, rule) in self.rules().enumerate() {
                rule.bitmap.write(&mut w);
                for (j, &id) in rule.switches.iter().enumerate() {
                    let more = j + 1 < rule.switches.len(); // more-ids flag
                    w.write_bits((id as u64) << 1 | more as u64, self.id_bits + 1);
                }
                w.write_bit(i + 1 < self.rules.len()); // next-rule flag
            }
            if let Some(bm) = &self.default {
                bm.write(&mut w);
            }
            debug_assert_eq!(w.len_bits(), self.bit_len);
            w.finish().into_boxed_slice()
        });
        w.append_bits(wire, self.bit_len);
    }

    /// Read a section whose presence flags are `rules` and `default`. The
    /// rule list is walked on a copy of the cursor first, so the two
    /// columns are allocated once at their exact sizes and a truncated
    /// section is refused before anything is built.
    fn read(
        r: &mut BitReader<'_>,
        rules: bool,
        default: bool,
        bitmap_width: usize,
        id_bits: usize,
    ) -> Result<Arc<Self>, HeaderError> {
        if !rules && !default {
            return Ok(Self::empty());
        }
        let (mut columns, mut ids) = (Vec::new(), Vec::new());
        if rules {
            let mut probe = *r;
            let (n_rules, n_ids) = skip_rules(&mut probe, bitmap_width, id_bits)?;
            columns.reserve_exact(n_rules);
            ids.reserve_exact(n_ids);
            // The probe walked these exact bits: reading them cannot fail.
            for _ in 0..n_rules {
                let bitmap = PortBitmap::read(r, bitmap_width).expect("walked by the probe");
                loop {
                    let (id, more) = read_id(r, id_bits).expect("walked by the probe");
                    ids.push(id);
                    if !more {
                        break;
                    }
                }
                r.skip_bits(1).expect("walked by the probe"); // next-rule flag
                columns.push((bitmap, ids.len() as u32));
            }
        }
        let default = match default {
            true => Some(PortBitmap::read(r, bitmap_width)?),
            false => None,
        };
        Ok(Arc::new(Self::from_columns(columns, ids, default, id_bits)))
    }
}

impl PartialEq for DownstreamSection {
    fn eq(&self, other: &Self) -> bool {
        self.rules == other.rules && self.ids == other.ids && self.default == other.default
    }
}

impl Eq for DownstreamSection {}

impl std::fmt::Debug for DownstreamSection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DownstreamSection")
            .field("rules", &self.rules().collect::<Vec<_>>())
            .field("default", &self.default)
            .finish()
    }
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
    /// Downstream spine rules and default, shared with every header of the
    /// same group and encoding.
    pub d_spine: Arc<DownstreamSection>,
    /// Downstream leaf rules and default, shared like `d_spine`.
    pub d_leaf: Arc<DownstreamSection>,
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
/// next-rule flags) and return how many rules and identifiers it holds.
fn skip_rules(
    r: &mut BitReader<'_>,
    bitmap_width: usize,
    id_bits: usize,
) -> Result<(usize, usize), HeaderError> {
    let (mut rules, mut ids) = (0, 0);
    loop {
        r.skip_bits(bitmap_width)?;
        loop {
            ids += 1;
            if !read_id(r, id_bits)?.1 {
                break;
            }
        }
        rules += 1;
        if !r.read_bit()? {
            return Ok((rules, ids));
        }
    }
}

impl ElmoHeader {
    /// An empty header (nothing present). Allocates nothing: both
    /// sections are the shared [`DownstreamSection::empty`].
    pub fn empty() -> Self {
        ElmoHeader {
            u_leaf: None,
            u_spine: None,
            core: None,
            d_spine: DownstreamSection::empty(),
            d_leaf: DownstreamSection::empty(),
        }
    }

    /// Exact encoded size in bits (before byte padding).
    pub fn bit_len(&self, layout: &HeaderLayout) -> usize {
        self.bit_len_popped(layout, pop::NONE)
    }

    /// [`bit_len`](Self::bit_len) of the header with the first `depth`
    /// sections (see [`pop`]) treated as popped. Constant time: each
    /// downstream section knows its own length.
    pub fn bit_len_popped(&self, layout: &HeaderLayout, depth: u8) -> usize {
        let mut bits = layout.flags_bits() + self.d_leaf.bit_len();
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
            bits += self.d_spine.bit_len();
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
    /// (index = depth, `pop::NONE` through `pop::D_SPINE`). The replay
    /// batch pre-pass computes this row per packet.
    pub fn byte_len_rows(&self, layout: &HeaderLayout) -> [usize; 5] {
        let present = |some: bool, bits: usize| if some { bits } else { 0 };
        let u_leaf = present(self.u_leaf.is_some(), layout.u_leaf_bits());
        let u_spine = present(self.u_spine.is_some(), layout.u_spine_bits());
        let core = present(self.core.is_some(), layout.core_bits());
        let d_spine = self.d_spine.bit_len();
        let tail = layout.flags_bits() + self.d_leaf.bit_len();
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
    ///
    /// Writes the flags byte and whatever upstream and core rules the depth
    /// leaves, then splices in each present downstream section's kept bits
    /// (see [`DownstreamSection`]).
    pub fn encode_popped(&self, layout: &HeaderLayout, depth: u8) -> Vec<u8> {
        let u_leaf = self.u_leaf.as_ref().filter(|_| depth < pop::U_LEAF);
        let u_spine = self.u_spine.as_ref().filter(|_| depth < pop::U_SPINE);
        let core = self.core.as_ref().filter(|_| depth < pop::CORE);
        let d_spine = Some(&*self.d_spine).filter(|_| depth < pop::D_SPINE);
        let d_leaf = &*self.d_leaf;
        let mut w = BitWriter::with_capacity(self.byte_len_popped(layout, depth));
        let mut flags = 0u64;
        let mut set = |present: bool, bit: u64| {
            if present {
                flags |= bit;
            }
        };
        set(u_leaf.is_some(), flag::U_LEAF);
        set(u_spine.is_some(), flag::U_SPINE);
        set(core.is_some(), flag::CORE);
        set(d_spine.is_some_and(|s| !s.is_empty()), flag::D_SPINE);
        set(
            d_spine.is_some_and(|s| s.default().is_some()),
            flag::D_SPINE_DEFAULT,
        );
        set(!d_leaf.is_empty(), flag::D_LEAF);
        set(d_leaf.default().is_some(), flag::D_LEAF_DEFAULT);
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
        if let Some(s) = d_spine {
            s.write(&mut w, layout.pod_id_bits);
        }
        d_leaf.write(&mut w, layout.leaf_id_bits);
        w.finish()
    }

    /// Deserialize from bytes. Returns the header and the number of bytes it
    /// occupied (callers slice the remaining payload off that).
    ///
    /// Allocates at most three times per present downstream section (the
    /// section, its rule column and its identifier column), whatever its
    /// rule count, and never builds the sections' wire bits.
    pub fn decode(bytes: &[u8], layout: &HeaderLayout) -> Result<(ElmoHeader, usize), HeaderError> {
        let mut r = BitReader::new(bytes);
        let flags = read_flags(&mut r)?;
        let has = |bit: u64| flags & bit != 0;
        let u_leaf = match has(flag::U_LEAF) {
            true => Some(Self::read_upstream(
                &mut r,
                layout.leaf_down_ports,
                layout.leaf_up_ports,
            )?),
            false => None,
        };
        let u_spine = match has(flag::U_SPINE) {
            true => Some(Self::read_upstream(
                &mut r,
                layout.spine_down_ports,
                layout.spine_up_ports,
            )?),
            false => None,
        };
        let core = match has(flag::CORE) {
            true => Some(PortBitmap::read(&mut r, layout.core_ports)?),
            false => None,
        };
        let d_spine = DownstreamSection::read(
            &mut r,
            has(flag::D_SPINE),
            has(flag::D_SPINE_DEFAULT),
            layout.spine_down_ports,
            layout.pod_id_bits,
        )?;
        let d_leaf = DownstreamSection::read(
            &mut r,
            has(flag::D_LEAF),
            has(flag::D_LEAF_DEFAULT),
            layout.leaf_down_ports,
            layout.leaf_id_bits,
        )?;
        let header = ElmoHeader {
            u_leaf,
            u_spine,
            core,
            d_spine,
            d_leaf,
        };
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
        self.d_spine = DownstreamSection::empty();
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
            d_spine: Arc::new(DownstreamSection::new(
                &[
                    DownstreamRule {
                        bitmap: PortBitmap::from_ports(layout.spine_down_ports, [0]),
                        switches: vec![0],
                    },
                    DownstreamRule {
                        bitmap: PortBitmap::from_ports(layout.spine_down_ports, [1]),
                        switches: vec![2],
                    },
                ],
                // Default: pod 3 forwards to both leaves.
                Some(PortBitmap::from_ports(layout.spine_down_ports, [0, 1])),
                layout.pod_id_bits,
            )),
            d_leaf: Arc::new(DownstreamSection::new(
                &[
                    DownstreamRule {
                        bitmap: PortBitmap::from_ports(layout.leaf_down_ports, [0, 1]),
                        switches: vec![0, 6],
                    },
                    DownstreamRule {
                        bitmap: PortBitmap::from_ports(layout.leaf_down_ports, [2]),
                        switches: vec![5],
                    },
                ],
                Some(PortBitmap::from_ports(layout.leaf_down_ports, [1])),
                layout.leaf_id_bits,
            )),
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
        partial.d_leaf = DownstreamSection::empty();
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

    /// The rule-by-rule encoder the section splice replaced, on the
    /// bit-at-a-time `bits::oracle` stream: every field of every rule
    /// written in wire order, nothing precomputed.
    mod oracle {
        use super::*;
        use crate::bits::oracle::{finish, write_bits};

        fn bitmap(bits: &mut Vec<bool>, bm: &PortBitmap) {
            bits.extend((0..bm.width()).map(|p| bm.get(p)));
        }

        fn upstream(bits: &mut Vec<bool>, r: &UpstreamRule) {
            bitmap(bits, &r.down);
            bits.push(r.multipath);
            bitmap(bits, &r.up);
        }

        fn section(bits: &mut Vec<bool>, s: &DownstreamSection, id_bits: usize) {
            for (i, rule) in s.rules().enumerate() {
                bitmap(bits, rule.bitmap);
                for (j, &id) in rule.switches.iter().enumerate() {
                    write_bits(bits, id as u64, id_bits);
                    bits.push(j + 1 < rule.switches.len());
                }
                bits.push(i + 1 < s.len());
            }
            if let Some(bm) = s.default() {
                bitmap(bits, bm);
            }
        }

        pub(super) fn encode_popped(h: &ElmoHeader, layout: &HeaderLayout, depth: u8) -> Vec<u8> {
            let u_leaf = h.u_leaf.as_ref().filter(|_| depth < pop::U_LEAF);
            let u_spine = h.u_spine.as_ref().filter(|_| depth < pop::U_SPINE);
            let core = h.core.as_ref().filter(|_| depth < pop::CORE);
            let empty = DownstreamSection::empty();
            let d_spine = if depth < pop::D_SPINE {
                &h.d_spine
            } else {
                &empty
            };
            let mut bits = vec![
                u_leaf.is_some(),
                u_spine.is_some(),
                core.is_some(),
                !d_spine.is_empty(),
                d_spine.default().is_some(),
                !h.d_leaf.is_empty(),
                h.d_leaf.default().is_some(),
                false,
            ];
            u_leaf.into_iter().for_each(|r| upstream(&mut bits, r));
            u_spine.into_iter().for_each(|r| upstream(&mut bits, r));
            core.into_iter().for_each(|bm| bitmap(&mut bits, bm));
            section(&mut bits, d_spine, layout.pod_id_bits);
            section(&mut bits, &h.d_leaf, layout.leaf_id_bits);
            finish(&bits)
        }
    }

    fn random_bitmap(rng: &mut crate::rng::SplitMix64, width: usize) -> PortBitmap {
        PortBitmap::from_ports(
            width,
            (0..width).filter(|_| rng.next_u64().is_multiple_of(3)),
        )
    }

    /// A section of one of four shapes — absent, default only, rules only,
    /// rules and default — with up to `max_rules` rules of 1 to 4 ids.
    fn random_section(
        rng: &mut crate::rng::SplitMix64,
        width: usize,
        switches: u64,
        id_bits: usize,
        max_rules: u64,
    ) -> Arc<DownstreamSection> {
        let shape = rng.next_u64() % 4;
        if shape == 0 && rng.next_u64().is_multiple_of(2) {
            return DownstreamSection::empty();
        }
        let n = if shape >= 2 {
            1 + rng.next_u64() % max_rules
        } else {
            0
        };
        let rules: Vec<DownstreamRule> = (0..n)
            .map(|_| DownstreamRule {
                bitmap: random_bitmap(rng, width),
                switches: (0..1 + rng.next_u64() % 4)
                    .map(|_| (rng.next_u64() % switches) as u32)
                    .collect(),
            })
            .collect();
        let default = (shape % 2 == 1).then(|| random_bitmap(rng, width));
        Arc::new(DownstreamSection::new(&rules, default, id_bits))
    }

    fn random_header(rng: &mut crate::rng::SplitMix64, l: &HeaderLayout) -> ElmoHeader {
        let mut coin = || rng.next_u64().is_multiple_of(2);
        let (u_leaf, u_spine, core) = (coin(), coin(), coin());
        let mut upstream = |down, up| UpstreamRule {
            down: random_bitmap(rng, down),
            multipath: rng.next_u64().is_multiple_of(2),
            up: random_bitmap(rng, up),
        };
        ElmoHeader {
            u_leaf: u_leaf.then(|| upstream(l.leaf_down_ports, l.leaf_up_ports)),
            u_spine: u_spine.then(|| upstream(l.spine_down_ports, l.spine_up_ports)),
            core: core.then(|| random_bitmap(rng, l.core_ports)),
            d_spine: random_section(
                rng,
                l.spine_down_ports,
                l.core_ports as u64,
                l.pod_id_bits,
                3,
            ),
            d_leaf: random_section(
                rng,
                l.leaf_down_ports,
                1 << l.leaf_id_bits,
                l.leaf_id_bits,
                12,
            ),
        }
    }

    #[test]
    fn encode_popped_matches_the_rule_by_rule_oracle() {
        use elmo_topology::{GroupTree, HostId, UpstreamCover};
        let paper = Clos::paper_example();
        // The running example, the evaluation fabric, and a synthetic one
        // whose bitmaps span two words.
        let wide = HeaderLayout {
            leaf_down_ports: 130,
            leaf_up_ports: 3,
            spine_down_ports: 70,
            spine_up_ports: 5,
            core_ports: 9,
            leaf_id_bits: 11,
            pod_id_bits: 4,
        };
        let layouts = [
            example_layout(),
            HeaderLayout::for_clos(&Clos::facebook_fabric()),
            wide,
        ];
        let mut rng = crate::rng::SplitMix64::new(0x0ac1e);
        let mut cases: Vec<(usize, ElmoHeader)> = (0..120)
            .map(|i| {
                (
                    i % layouts.len(),
                    random_header(&mut rng, &layouts[i % layouts.len()]),
                )
            })
            .collect();
        // A single-leaf group as the controller builds it: a member sender
        // carries its upstream leaf rule only, a remote one the synthesized
        // one-rule sections as well.
        let layout = example_layout();
        let tree = GroupTree::new(&paper, [HostId(0), HostId(1), HostId(5)]);
        let enc = crate::plan::encode_group(
            &paper,
            &tree,
            &crate::plan::EncoderConfig::paper_default(&layout, 0),
            &mut |_| true,
            &mut |_| true,
        );
        let sections = crate::plan::DownstreamSections::new(&paper, &layout, &tree, &enc);
        for sender in [HostId(0), HostId(42)] {
            let h = crate::plan::header_for_sender(
                &paper,
                &layout,
                &tree,
                &sections,
                sender,
                &UpstreamCover::multipath(),
            );
            cases.push((0, h));
        }
        cases.push((0, figure3b_header(&layout)));
        cases.push((0, ElmoHeader::empty()));

        // Where each present section starts, modulo a byte.
        let mut spine_offsets = [false; 8];
        let mut leaf_offsets = [false; 8];
        for (li, h) in &cases {
            let l = &layouts[*li];
            for depth in 0..=pop::D_SPINE {
                let bytes = h.encode_popped(l, depth);
                assert_eq!(
                    bytes,
                    oracle::encode_popped(h, l, depth),
                    "{h:?} at depth {depth}"
                );
                assert_eq!(bytes.len(), h.byte_len_popped(l, depth));
                let leaf_at = h.bit_len_popped(l, depth) - h.d_leaf.bit_len();
                leaf_offsets[leaf_at % 8] |= h.d_leaf.bit_len() > 0;
                if depth < pop::D_SPINE && h.d_spine.bit_len() > 0 {
                    spine_offsets[(leaf_at - h.d_spine.bit_len()) % 8] = true;
                }
                let (decoded, used) = ElmoHeader::decode(&bytes, l).expect("own encoding");
                assert_eq!(used, bytes.len());
                assert_eq!(decoded.encode(l), bytes, "decode then encode");
            }
        }
        assert_eq!(spine_offsets, [true; 8], "every spine section alignment");
        assert_eq!(leaf_offsets, [true; 8], "every leaf section alignment");
        let shapes = |s: &DownstreamSection| (s.is_empty(), s.default().is_some());
        for shape in [(true, false), (true, true), (false, false), (false, true)] {
            assert!(
                cases.iter().any(|(_, h)| shapes(&h.d_spine) == shape),
                "{shape:?}"
            );
            assert!(
                cases.iter().any(|(_, h)| shapes(&h.d_leaf) == shape),
                "{shape:?}"
            );
        }
    }

    #[test]
    fn section_equality_ignores_built_bits() {
        let layout = example_layout();
        let built = figure3b_header(&layout);
        let fresh = figure3b_header(&layout);
        built.encode(&layout);
        assert_eq!(built, fresh);
        assert_ne!(built.d_spine, fresh.d_leaf);
        let first = fresh.d_leaf.rule(0);
        assert_eq!(first.switches, [0, 6]);
        assert_eq!(fresh.d_leaf.find(6), Some(first));
        assert_eq!(fresh.d_leaf.find(5).map(|r| r.switches), Some(&[5][..]));
        assert_eq!(fresh.d_leaf.find(7), None);
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
            header.d_spine.find(0).unwrap().bitmap.to_binary_string(),
            "10"
        );
        assert_eq!(
            header.d_spine.find(2).unwrap().bitmap.to_binary_string(),
            "01"
        );
        assert!(header.d_spine.find(3).is_none()); // falls to s-rule/default
        assert!(header.d_leaf.find(0).is_some());
        assert!(header.d_leaf.find(6).is_some());
        assert!(header.d_leaf.find(7).is_none());
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
