//! Bit-granular serialization.
//!
//! Elmo headers are bit-packed: bitmaps are as wide as a switch's port count,
//! switch identifiers as wide as `ceil(log2(#switches in the layer))`, and
//! single-bit flags separate rules and identifiers (paper Figure 2). The
//! whole header is padded to a byte boundary only once, at the end.
//!
//! Bits are written MSB-first within each byte, matching how network wire
//! formats are conventionally drawn. Both directions move whole fields
//! through a `u64` accumulator — one shift/mask per field and one bytewise
//! flush or load, never a loop over bits.

/// Writes an MSB-first bit stream into a growable byte buffer.
#[derive(Clone, Debug, Default)]
pub struct BitWriter {
    /// Whole bytes flushed so far.
    bytes: Vec<u8>,
    /// Bits not yet flushed, in the low `pending` bits (bits above are
    /// stale, already-flushed data and never read again).
    acc: u64,
    /// Number of valid bits in `acc`; below 8 between calls.
    pending: usize,
}

impl BitWriter {
    /// An empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty stream whose buffer already holds `bytes` bytes, so a
    /// writer of known final size allocates once.
    pub fn with_capacity(bytes: usize) -> Self {
        BitWriter {
            bytes: Vec::with_capacity(bytes),
            ..Self::default()
        }
    }

    /// Number of bits written so far.
    pub fn len_bits(&self) -> usize {
        self.bytes.len() * 8 + self.pending
    }

    /// Append the low `width` bits of `value`, most significant first.
    ///
    /// # Panics
    /// Panics if `width > 64` or if `value` does not fit in `width` bits.
    pub fn write_bits(&mut self, value: u64, width: usize) {
        assert!(width <= 64, "width {width} exceeds 64");
        assert!(
            width == 64 || value < (1u64 << width),
            "value {value} does not fit in {width} bits"
        );
        // `pending < 8`, so at least 57 bits are free; a wider field goes
        // in as its high part, a flush, and a low part of at most 7 bits.
        let room = 64 - self.pending;
        if width > room {
            let low = width - room;
            self.push(value >> low, room);
            self.push(value & ((1 << low) - 1), low);
        } else {
            self.push(value, width);
        }
    }

    /// Append a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.push(bit as u64, 1);
    }

    /// Append the first `len` bits of `src`, an MSB-first stream laid out
    /// as [`finish`](Self::finish) returns one, at whatever bit offset the
    /// stream is at. On a byte boundary this is a byte copy; otherwise each
    /// eight source bytes go out as one shifted word.
    ///
    /// # Panics
    /// Panics if `src` holds fewer than `len` bits.
    pub fn append_bits(&mut self, src: &[u8], len: usize) {
        assert!(len <= src.len() * 8, "{len} bits from {} bytes", src.len());
        let (whole, rest) = (len / 8, len % 8);
        let mut body = &src[..whole];
        if self.pending == 0 {
            self.bytes.extend_from_slice(body);
        } else {
            // The `pending` bits lead each output word, the source word's
            // high bits follow, and its low `pending` bits carry over.
            let p = self.pending;
            let low = (1u64 << p) - 1;
            let mut carry = self.acc & low;
            while let Some((chunk, tail)) = body.split_first_chunk::<8>() {
                let word = u64::from_be_bytes(*chunk);
                let out = carry << (64 - p) | word >> p;
                self.bytes.extend_from_slice(&out.to_be_bytes());
                carry = word & low;
                body = tail;
            }
            self.acc = carry;
            for &byte in body {
                self.push(byte as u64, 8);
            }
        }
        if rest > 0 {
            self.push((src[whole] >> (8 - rest)) as u64, rest);
        }
    }

    /// Shift `width <= 64 - pending` bits into the accumulator and flush
    /// every whole byte it now holds.
    fn push(&mut self, value: u64, width: usize) {
        self.acc = self.acc.checked_shl(width as u32).unwrap_or(0) | value;
        self.pending += width;
        if self.pending >= 8 {
            let whole = self.pending / 8;
            let aligned = self.acc << (64 - self.pending);
            self.bytes
                .extend_from_slice(&aligned.to_be_bytes()[..whole]);
            self.pending %= 8;
        }
    }

    /// Finish the stream, zero-padding to a byte boundary, and return the
    /// bytes.
    pub fn finish(mut self) -> Vec<u8> {
        if self.pending > 0 {
            self.bytes.push((self.acc << (8 - self.pending)) as u8);
        }
        self.bytes
    }

    /// Total length in bytes after padding.
    pub fn byte_len(&self) -> usize {
        self.len_bits().div_ceil(8)
    }
}

/// Reads an MSB-first bit stream from a byte slice.
#[derive(Clone, Copy, Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos_bits: usize,
}

/// Error returned when a read runs past the end of the stream.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OutOfBits;

impl std::fmt::Display for OutOfBits {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bit stream exhausted")
    }
}

impl std::error::Error for OutOfBits {}

impl<'a> BitReader<'a> {
    /// Start reading at the beginning of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos_bits: 0 }
    }

    /// Current position in bits.
    pub fn pos_bits(&self) -> usize {
        self.pos_bits
    }

    /// Bits remaining in the stream.
    pub fn remaining_bits(&self) -> usize {
        self.bytes.len() * 8 - self.pos_bits
    }

    /// Read `width` bits (MSB-first) into the low bits of a `u64`.
    pub fn read_bits(&mut self, width: usize) -> Result<u64, OutOfBits> {
        assert!(width <= 64);
        if self.remaining_bits() < width {
            return Err(OutOfBits);
        }
        if width == 0 {
            return Ok(0);
        }
        let tail = &self.bytes[self.pos_bits / 8..];
        let skew = self.pos_bits % 8;
        // The eight bytes at the cursor, zero-extended past the end of the
        // stream (those bits are never selected: the length check passed).
        let acc = match tail.first_chunk::<8>() {
            Some(chunk) => u64::from_be_bytes(*chunk),
            None => {
                let mut chunk = [0u8; 8];
                chunk[..tail.len()].copy_from_slice(tail);
                u64::from_be_bytes(chunk)
            }
        };
        let in_acc = 64 - skew;
        let value = if width <= in_acc {
            (acc << skew) >> (64 - width)
        } else {
            // A field that starts mid-byte and is wider than 57 bits
            // spills at most 7 bits into a ninth byte.
            let spill = width - in_acc;
            let high = (acc << skew) >> skew;
            (high << spill) | (tail[8] >> (8 - spill)) as u64
        };
        self.pos_bits += width;
        Ok(value)
    }

    /// Read a single bit.
    pub fn read_bit(&mut self) -> Result<bool, OutOfBits> {
        let byte = self.bytes.get(self.pos_bits / 8).ok_or(OutOfBits)?;
        let bit = (byte >> (7 - self.pos_bits % 8)) & 1 == 1;
        self.pos_bits += 1;
        Ok(bit)
    }

    /// Advance past `width` bits without decoding them.
    pub fn skip_bits(&mut self, width: usize) -> Result<(), OutOfBits> {
        if self.remaining_bits() < width {
            return Err(OutOfBits);
        }
        self.pos_bits += width;
        Ok(())
    }
}

/// The bit-at-a-time codec the word-parallel one replaced, kept as the
/// reference the oracle tests compare against.
#[cfg(test)]
pub(crate) mod oracle {
    pub(crate) fn write_bits(bits: &mut Vec<bool>, value: u64, width: usize) {
        for i in (0..width).rev() {
            bits.push((value >> i) & 1 == 1);
        }
    }

    pub(crate) fn finish(bits: &[bool]) -> Vec<u8> {
        let mut bytes = vec![0u8; bits.len().div_ceil(8)];
        for (i, &bit) in bits.iter().enumerate() {
            if bit {
                bytes[i / 8] |= 1 << (7 - i % 8);
            }
        }
        bytes
    }

    pub(crate) fn read_bits(bytes: &[u8], pos: &mut usize, width: usize) -> Option<u64> {
        if bytes.len() * 8 - *pos < width {
            return None;
        }
        let mut v = 0u64;
        for _ in 0..width {
            let bit = (bytes[*pos / 8] >> (7 - *pos % 8)) & 1;
            v = (v << 1) | bit as u64;
            *pos += 1;
        }
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn low_bits(value: u64, width: usize) -> u64 {
        match width {
            0 => 0,
            64 => value,
            _ => value & ((1 << width) - 1),
        }
    }

    #[test]
    fn oracle_every_offset_and_width() {
        let mut rng = SplitMix64::new(0xb175);
        for start in 0..8usize {
            for width in 0..=64usize {
                let prefix = low_bits(rng.next_u64(), start);
                let value = low_bits(rng.next_u64(), width);
                let suffix = low_bits(rng.next_u64(), 13);

                let mut w = BitWriter::new();
                let mut reference = Vec::new();
                for (v, n) in [(prefix, start), (value, width), (suffix, 13)] {
                    w.write_bits(v, n);
                    oracle::write_bits(&mut reference, v, n);
                }
                assert_eq!(w.len_bits(), start + width + 13);
                assert_eq!(w.byte_len(), (start + width + 13).div_ceil(8));
                let bytes = w.finish();
                assert_eq!(
                    bytes,
                    oracle::finish(&reference),
                    "start {start} width {width}"
                );

                let mut r = BitReader::new(&bytes);
                let mut pos = 0;
                for (v, n) in [(prefix, start), (value, width), (suffix, 13)] {
                    assert_eq!(r.read_bits(n), Ok(v), "start {start} width {width}");
                    assert_eq!(oracle::read_bits(&bytes, &mut pos, n), Some(v));
                    assert_eq!(r.pos_bits(), pos);
                }
            }
        }
    }

    #[test]
    fn append_bits_matches_oracle_at_every_alignment() {
        let mut rng = SplitMix64::new(0xa99e);
        for start in 0..8usize {
            // Every tail alignment of the source, and spans of 0 to 4 whole
            // words; the source's bits past `len` are random and ignored.
            for len in (0..=40usize).chain([63, 64, 65, 127, 128, 129, 200, 257]) {
                let src: Vec<u8> = (0..len.div_ceil(8) + rng.next_u64() as usize % 2)
                    .map(|_| rng.next_u64() as u8)
                    .collect();
                let prefix = low_bits(rng.next_u64(), start);
                let suffix = low_bits(rng.next_u64(), 13);

                let mut w = BitWriter::new();
                w.write_bits(prefix, start);
                w.append_bits(&src, len);
                assert_eq!(w.len_bits(), start + len);
                w.write_bits(suffix, 13);

                let mut reference = Vec::new();
                oracle::write_bits(&mut reference, prefix, start);
                let mut pos = 0;
                for _ in 0..len {
                    let bit = oracle::read_bits(&src, &mut pos, 1).expect("in range");
                    oracle::write_bits(&mut reference, bit, 1);
                }
                oracle::write_bits(&mut reference, suffix, 13);
                assert_eq!(
                    w.finish(),
                    oracle::finish(&reference),
                    "start {start} len {len}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "bits from")]
    fn append_bits_rejects_a_short_source() {
        BitWriter::new().append_bits(&[0xff], 9);
    }

    #[test]
    fn oracle_truncated_stream_is_out_of_bits() {
        let mut rng = SplitMix64::new(0x7e57);
        for start in 0..8usize {
            for width in 1..=64usize {
                let mut w = BitWriter::new();
                w.write_bits(0, start);
                w.write_bits(low_bits(rng.next_u64(), width), width);
                let bytes = w.finish();
                // Every strict prefix that no longer holds the whole field.
                for keep in 0..(start + width).div_ceil(8) {
                    let mut r = BitReader::new(&bytes[..keep]);
                    let mut pos = 0;
                    let head = r.read_bits(start);
                    assert_eq!(
                        head.ok(),
                        oracle::read_bits(&bytes[..keep], &mut pos, start)
                    );
                    if head.is_ok() {
                        assert_eq!(r.read_bits(width), Err(OutOfBits));
                        assert_eq!(r.pos_bits(), start, "a failed read consumes nothing");
                        assert_eq!(r.skip_bits(width), Err(OutOfBits));
                    }
                }
            }
        }
    }

    #[test]
    fn roundtrip_mixed_widths() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bit(true);
        w.write_bits(0xdead, 16);
        w.write_bits(0, 1);
        w.write_bits(u64::MAX, 64);
        assert_eq!(w.len_bits(), 3 + 1 + 16 + 1 + 64);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert!(r.read_bit().unwrap());
        assert_eq!(r.read_bits(16).unwrap(), 0xdead);
        assert!(!r.read_bit().unwrap());
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
    }

    #[test]
    fn msb_first_layout() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1);
        w.write_bits(0b0000000, 7);
        assert_eq!(w.finish(), vec![0b1000_0000]);
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        assert_eq!(w.finish(), vec![0b1100_0000]); // zero padded
    }

    #[test]
    fn byte_len_rounds_up() {
        let mut w = BitWriter::with_capacity(2);
        assert_eq!(w.byte_len(), 0);
        w.write_bits(0, 9);
        assert_eq!(w.byte_len(), 2);
    }

    #[test]
    fn reader_detects_exhaustion() {
        let bytes = [0xffu8];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(8).unwrap(), 0xff);
        assert_eq!(r.read_bits(1).unwrap_err(), OutOfBits);
        assert_eq!(r.read_bit().unwrap_err(), OutOfBits);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn writer_rejects_oversized_values() {
        BitWriter::new().write_bits(4, 2);
    }

    #[test]
    fn position_tracking() {
        let bytes = [0xabu8, 0xcd];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.remaining_bits(), 16);
        r.read_bits(5).unwrap();
        assert_eq!(r.pos_bits(), 5);
        assert_eq!(r.remaining_bits(), 11);
        r.skip_bits(3).unwrap();
        assert_eq!(r.read_bits(8).unwrap(), 0xcd);
    }
}
