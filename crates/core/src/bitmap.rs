//! Port bitmaps.
//!
//! A [`PortBitmap`] is the set of output ports a switch must forward a packet
//! to — the internal representation PISA switch queue managers consume
//! directly, which is why Elmo encodes p-rules as bitmaps rather than member
//! lists or Bloom filters (paper §3.1, D1). Widths range from a handful of
//! ports in the running example up to 576-port spine layers. Every layer of
//! the paper's 48-port fabric fits one machine word, so up to
//! [`INLINE_PORTS`] ports the words live inside the bitmap itself and
//! creating, cloning or dropping one touches no allocator; only wider
//! bitmaps fall back to a heap word vector.

use crate::bits::{BitReader, BitWriter, OutOfBits};

/// Words stored inline.
const INLINE_WORDS: usize = 2;

/// Widest bitmap (in ports) whose words are stored inline, without a heap
/// allocation.
pub const INLINE_PORTS: usize = INLINE_WORDS * 64;

/// Word storage. A bitmap created at a width is `Inline` iff the width is
/// at most [`INLINE_PORTS`]; a `Heap` buffer that [`PortBitmap::reset`]
/// narrows stays on the heap so a scratch bitmap keeps its capacity.
#[derive(Debug)]
enum Words {
    Inline([u64; INLINE_WORDS]),
    Heap(Vec<u64>),
}

/// A fixed-width set of switch ports.
///
/// Equality and hashing are over `(width, words)` — low port in bit 0 of
/// word 0, `width.div_ceil(64)` words — independent of where the words live.
#[derive(Debug)]
pub struct PortBitmap {
    width: usize,
    words: Words,
}

impl PortBitmap {
    /// An empty bitmap with `width` ports.
    pub fn new(width: usize) -> Self {
        let words = if width <= INLINE_PORTS {
            Words::Inline([0; INLINE_WORDS])
        } else {
            Words::Heap(vec![0; width.div_ceil(64)])
        };
        PortBitmap { width, words }
    }

    /// A bitmap with the given ports set.
    ///
    /// # Panics
    /// Panics if any port is out of range.
    pub fn from_ports(width: usize, ports: impl IntoIterator<Item = usize>) -> Self {
        let mut bm = PortBitmap::new(width);
        for p in ports {
            bm.set(p);
        }
        bm
    }

    /// Number of ports the bitmap covers.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Reset to an empty bitmap of `width` ports, reusing the existing word
    /// buffer. A heap buffer never shrinks, so a scratch bitmap reset in a
    /// loop stops allocating once it has seen the widest layer.
    pub fn reset(&mut self, width: usize) {
        self.width = width;
        match &mut self.words {
            Words::Heap(v) => {
                v.clear();
                v.resize(width.div_ceil(64), 0);
            }
            Words::Inline(a) if width <= INLINE_PORTS => *a = [0; INLINE_WORDS],
            Words::Inline(_) => self.words = Words::Heap(vec![0; width.div_ceil(64)]),
        }
    }

    /// Become a copy of `other`, reusing the existing word buffer.
    pub fn copy_from(&mut self, other: &PortBitmap) {
        self.reset(other.width);
        self.words_mut().copy_from_slice(other.words());
    }

    /// Set a port.
    pub fn set(&mut self, port: usize) {
        assert!(
            port < self.width,
            "port {port} out of range (width {})",
            self.width
        );
        self.words_mut()[port / 64] |= 1 << (port % 64);
    }

    /// Clear a port.
    pub fn clear(&mut self, port: usize) {
        assert!(
            port < self.width,
            "port {port} out of range (width {})",
            self.width
        );
        self.words_mut()[port / 64] &= !(1 << (port % 64));
    }

    /// Whether a port is set.
    pub fn get(&self, port: usize) -> bool {
        assert!(
            port < self.width,
            "port {port} out of range (width {})",
            self.width
        );
        self.words()[port / 64] >> (port % 64) & 1 == 1
    }

    /// Whether no port is set.
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// Raw storage words (low port in bit 0 of word 0), for fast
    /// fingerprinting and word-at-a-time port iteration.
    #[inline]
    pub fn words(&self) -> &[u64] {
        match &self.words {
            Words::Inline(a) => &a[..self.width.div_ceil(64)],
            Words::Heap(v) => v,
        }
    }

    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.words {
            Words::Inline(a) => &mut a[..self.width.div_ceil(64)],
            Words::Heap(v) => v,
        }
    }

    /// Number of set ports.
    pub fn count_ones(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterate over set ports in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words().iter().enumerate().flat_map(|(i, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(i * 64 + b)
                }
            })
        })
    }

    /// In-place union with another bitmap of the same width.
    pub fn or_assign(&mut self, other: &PortBitmap) {
        assert_eq!(self.width, other.width, "bitmap widths differ");
        for (a, b) in self.words_mut().iter_mut().zip(other.words()) {
            *a |= b;
        }
    }

    /// Union of two bitmaps.
    pub fn or(&self, other: &PortBitmap) -> PortBitmap {
        let mut out = self.clone();
        out.or_assign(other);
        out
    }

    /// Number of set ports in the union of two bitmaps (no allocation).
    pub fn union_count(&self, other: &PortBitmap) -> usize {
        assert_eq!(self.width, other.width, "bitmap widths differ");
        self.words()
            .iter()
            .zip(other.words())
            .map(|(a, b)| (a | b).count_ones() as usize)
            .sum()
    }

    /// Hamming distance to another bitmap of the same width.
    pub fn hamming(&self, other: &PortBitmap) -> usize {
        assert_eq!(self.width, other.width, "bitmap widths differ");
        self.words()
            .iter()
            .zip(other.words())
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// Whether every set port of `self` is also set in `other`.
    pub fn is_subset_of(&self, other: &PortBitmap) -> bool {
        assert_eq!(self.width, other.width, "bitmap widths differ");
        self.words()
            .iter()
            .zip(other.words())
            .all(|(a, b)| a & !b == 0)
    }

    /// Serialize the bitmap MSB-first (port 0 is the first bit on the wire).
    ///
    /// A word holds port `64i + k` in bit `k`, the stream wants it `k` bits
    /// after port `64i`: `reverse_bits` puts port `64i` in the top bit, and
    /// shifting the unused high ports of a partial last word out leaves
    /// exactly the field [`BitWriter::write_bits`] emits MSB-first.
    pub fn write(&self, w: &mut BitWriter) {
        let mut left = self.width;
        for &word in self.words() {
            let n = left.min(64);
            w.write_bits(word.reverse_bits() >> (64 - n), n);
            left -= n;
        }
    }

    /// Deserialize a bitmap of the given width.
    pub fn read(r: &mut BitReader<'_>, width: usize) -> Result<PortBitmap, OutOfBits> {
        if r.remaining_bits() < width {
            return Err(OutOfBits);
        }
        let mut bm = PortBitmap::new(width);
        let mut left = width;
        for word in bm.words_mut() {
            let n = left.min(64);
            *word = (r.read_bits(n)? << (64 - n)).reverse_bits();
            left -= n;
        }
        Ok(bm)
    }

    /// Render as a binary string, port 0 leftmost (matching Figure 3's
    /// notation, e.g. `10:[P0]`).
    pub fn to_binary_string(&self) -> String {
        (0..self.width)
            .map(|p| if self.get(p) { '1' } else { '0' })
            .collect()
    }
}

impl Clone for PortBitmap {
    /// An exact-size copy: a narrowed heap scratch bitmap clones inline.
    fn clone(&self) -> Self {
        let mut out = PortBitmap::new(self.width);
        out.words_mut().copy_from_slice(self.words());
        out
    }
}

impl PartialEq for PortBitmap {
    fn eq(&self, other: &Self) -> bool {
        self.width == other.width && self.words() == other.words()
    }
}

impl Eq for PortBitmap {}

impl std::hash::Hash for PortBitmap {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.width.hash(state);
        self.words().hash(state);
    }
}

impl Default for PortBitmap {
    /// A zero-width bitmap — useful as the initial value of a scratch
    /// buffer that will be [`reset`](PortBitmap::reset) before use.
    fn default() -> Self {
        PortBitmap::new(0)
    }
}

impl std::fmt::Display for PortBitmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_binary_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::oracle;
    use crate::rng::SplitMix64;

    #[test]
    fn set_get_clear() {
        let mut bm = PortBitmap::new(100);
        assert!(bm.is_empty());
        bm.set(0);
        bm.set(63);
        bm.set(64);
        bm.set(99);
        assert!(bm.get(0) && bm.get(63) && bm.get(64) && bm.get(99));
        assert!(!bm.get(1));
        assert_eq!(bm.count_ones(), 4);
        bm.clear(63);
        assert!(!bm.get(63));
        assert_eq!(bm.count_ones(), 3);
    }

    #[test]
    fn iter_ones_ascending() {
        let bm = PortBitmap::from_ports(130, [5, 64, 128, 0]);
        assert_eq!(bm.iter_ones().collect::<Vec<_>>(), vec![0, 5, 64, 128]);
    }

    #[test]
    fn or_and_union_count() {
        let a = PortBitmap::from_ports(10, [1, 2]);
        let b = PortBitmap::from_ports(10, [2, 3]);
        assert_eq!(a.union_count(&b), 3);
        let u = a.or(&b);
        assert_eq!(u.iter_ones().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn hamming_and_subset() {
        let a = PortBitmap::from_ports(8, [0, 1]);
        let b = PortBitmap::from_ports(8, [1, 2]);
        assert_eq!(a.hamming(&b), 2);
        assert_eq!(a.hamming(&a), 0);
        let u = a.or(&b);
        assert!(a.is_subset_of(&u));
        assert!(!u.is_subset_of(&a));
    }

    #[test]
    fn wire_roundtrip() {
        let bm = PortBitmap::from_ports(13, [0, 5, 12]);
        let mut w = BitWriter::new();
        bm.write(&mut w);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(PortBitmap::read(&mut r, 13).unwrap(), bm);
    }

    #[test]
    fn binary_string_matches_figure_notation() {
        // Figure 3a: P2's downstream bitmap over its two leaves is "01"
        // (second leaf only).
        let bm = PortBitmap::from_ports(2, [1]);
        assert_eq!(bm.to_binary_string(), "01");
        assert_eq!(bm.to_string(), "01");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_set_panics() {
        PortBitmap::new(4).set(4);
    }

    #[test]
    #[should_panic(expected = "widths differ")]
    fn width_mismatch_panics() {
        let a = PortBitmap::new(4);
        let b = PortBitmap::new(5);
        let _ = a.union_count(&b);
    }

    #[test]
    fn reset_and_copy_from_reuse_storage() {
        let mut bm = PortBitmap::from_ports(130, [0, 64, 129]);
        bm.reset(10);
        assert_eq!(bm.width(), 10);
        assert!(bm.is_empty());
        bm.set(3);
        let src = PortBitmap::from_ports(70, [1, 69]);
        bm.copy_from(&src);
        assert_eq!(bm, src);
        // Growing again after shrinking works too.
        bm.reset(200);
        assert_eq!(bm.width(), 200);
        assert!(bm.is_empty());
        bm.set(199);
        assert_eq!(bm.count_ones(), 1);
    }

    #[test]
    fn read_out_of_bits() {
        let bytes = [0u8; 1];
        let mut r = BitReader::new(&bytes);
        assert!(PortBitmap::read(&mut r, 9).is_err());
    }

    /// Widths on both sides of every word and of the inline/heap boundary.
    const ORACLE_WIDTHS: [usize; 12] = [0, 1, 15, 16, 24, 63, 64, 65, 127, 128, 129, 576];

    fn random_bitmap(rng: &mut SplitMix64, width: usize) -> PortBitmap {
        PortBitmap::from_ports(width, (0..width).filter(|_| rng.next_u64() & 1 == 1))
    }

    #[test]
    fn oracle_wire_identity_at_every_width_and_offset() {
        let mut rng = SplitMix64::new(0xb17a);
        for width in ORACLE_WIDTHS {
            for start in 0..8usize {
                let bm = random_bitmap(&mut rng, width);
                let mut w = BitWriter::new();
                w.write_bits(0, start);
                bm.write(&mut w);
                assert_eq!(w.len_bits(), start + width);
                let bytes = w.finish();

                // Port 0 is the first bit on the wire, one bit per port.
                let mut reference = vec![false; start];
                for p in 0..width {
                    oracle::write_bits(&mut reference, bm.get(p) as u64, 1);
                }
                assert_eq!(
                    bytes,
                    oracle::finish(&reference),
                    "width {width} start {start}"
                );

                let mut r = BitReader::new(&bytes);
                r.skip_bits(start).unwrap();
                let back = PortBitmap::read(&mut r, width).unwrap();
                assert_eq!(back, bm, "width {width} start {start}");
                assert_eq!(r.pos_bits(), start + width);
                let mut pos = start;
                for p in 0..width {
                    let bit = oracle::read_bits(&bytes, &mut pos, 1).unwrap() == 1;
                    assert_eq!(back.get(p), bit);
                }

                // Every prefix too short for the bitmap is refused whole.
                for keep in 0..(start + width).div_ceil(8) {
                    let mut r = BitReader::new(&bytes[..keep]);
                    if r.skip_bits(start).is_ok() {
                        assert_eq!(PortBitmap::read(&mut r, width), Err(OutOfBits));
                        assert_eq!(r.pos_bits(), start);
                    }
                }
            }
        }
    }

    #[test]
    fn equality_and_hash_ignore_where_the_words_live() {
        use std::hash::{Hash, Hasher};
        fn hash_of(bm: &PortBitmap) -> u64 {
            let mut h = crate::det::DetHasher::default();
            bm.hash(&mut h);
            h.finish()
        }
        for width in ORACLE_WIDTHS {
            let inline_or_heap = PortBitmap::from_ports(width, (0..width).step_by(3));
            // The same set in a heap buffer narrowed from a wider layer.
            let mut scratch = PortBitmap::new(576);
            scratch.copy_from(&inline_or_heap);
            assert_eq!(scratch, inline_or_heap);
            assert_eq!(scratch.words(), inline_or_heap.words());
            assert_eq!(hash_of(&scratch), hash_of(&inline_or_heap));
            assert_eq!(scratch.clone(), inline_or_heap);
            assert_eq!(scratch.or(&inline_or_heap), inline_or_heap);
            if width > 0 {
                scratch.clear(0);
                assert_ne!(scratch, inline_or_heap);
            }
        }
    }
}
