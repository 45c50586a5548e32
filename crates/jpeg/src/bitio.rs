//! Bit-level I/O over JPEG entropy-coded segments.
//!
//! JPEG's entropy stream is byte-stuffed: a literal 0xFF data byte is encoded
//! as `FF 00`, so that any `FF xx` with `xx != 0` is a marker. The reader
//! unstuffs transparently, stops at markers, and counts the bits it consumes
//! — those counts are the raw material of the Huffman-rate model in paper §5.1
//! (Fig. 7 plots exactly this: decoded bits per pixel).
//!
//! The refill is bulk: 0xFF-free runs are loaded six bytes at a time from an
//! unaligned big-endian `u64` (detected with a SWAR byte-equality test), and
//! only windows containing 0xFF take the byte-at-a-time unstuffing slow
//! path. This keeps the strictly sequential Huffman phase — the paper's
//! serial bottleneck — as short as possible.
//!
//! The Huffman decoder's fast path ([`crate::huffman::decode`]) reads
//! bits that are already buffered; the only refills it makes are the ones
//! a `peek_bits`/`get_bits` request would make at the same point. The
//! reader's state — and with it [`BitReader::bit_checkpoint`], the moment
//! it turns `u64::MAX`, [`BitReader::marker`] and the restart-marker
//! checks, which inspect buffered bytes — is therefore the same as if
//! every bit had been requested.

use crate::error::{Error, Result};

/// Marker-aware big-endian bit reader with 0xFF-unstuffing.
///
/// The reader exposes `bits_consumed` so callers can meter entropy work at
/// MCU-row granularity.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Next byte to load into the accumulator.
    pos: usize,
    /// Bit accumulator; bits are consumed from the MSB side.
    acc: u64,
    /// Number of valid bits in `acc`.
    acc_len: u32,
    /// Set when a marker byte pair was encountered; reads return EOF-like
    /// zero bits afterwards (JPEG decoders pad with 1-bits per spec; we
    /// follow libjpeg and synthesize zeroes only after warning conditions —
    /// here decoding is expected to consume exactly the available bits).
    marker: Option<u8>,
    /// Set once synthesized padding bits entered the accumulator (EOF or
    /// post-marker). From then on [`Self::bit_checkpoint`] is undefined.
    padded: bool,
    /// Total bits handed out so far.
    bits_consumed: u64,
}

impl<'a> BitReader<'a> {
    /// Create a reader over an entropy-coded segment (marker-free prefix of
    /// `data` will be consumed; the first marker terminates bit supply).
    pub fn new(data: &'a [u8]) -> Self {
        Self::new_at(data, 0)
    }

    /// Create a reader over `data` that starts consuming at `byte_offset`.
    ///
    /// The reader keeps the *whole* slice, so byte-stuffing context (the
    /// `FF 00` rule depends on the preceding byte) and
    /// [`Self::bit_checkpoint`] positions stay globally consistent with a
    /// reader created at offset 0 — the property the speculative parallel
    /// entropy decoder relies on. Callers must not start on the `00` of a
    /// stuffed `FF 00` pair (such a byte would be consumed as data here but
    /// skipped by a reader arriving from the left).
    pub fn new_at(data: &'a [u8], byte_offset: usize) -> Self {
        BitReader {
            data,
            pos: byte_offset.min(data.len()),
            acc: 0,
            acc_len: 0,
            marker: None,
            padded: false,
            bits_consumed: 0,
        }
    }

    /// Canonical raw-bit position of the next unconsumed logical bit, i.e.
    /// the index (in bits) into `data` where decoding would resume. Stuffed
    /// `00` bytes carry no logical bits, so two readers over the same slice
    /// report the *same* checkpoint exactly when their future decodes are
    /// identical — regardless of how their refills happened to buffer bits.
    /// Returns `u64::MAX` once a marker was reached or padding bits were
    /// synthesized (no meaningful raw position exists then).
    pub fn bit_checkpoint(&self) -> u64 {
        if self.marker.is_some() || self.padded {
            return u64::MAX;
        }
        // The pending bits came from at most the eight bytes before `pos`:
        // when no byte in front of one of them is 0xFF, none was stuffed.
        if self.pos >= 9 {
            let window = &self.data[self.pos - 9..self.pos - 1];
            if !contains_ff_byte8(u64::from_be_bytes(window.try_into().unwrap())) {
                return 8 * self.pos as u64 - self.acc_len as u64;
            }
        }
        self.walk_checkpoint()
    }

    /// [`Self::bit_checkpoint`] of a reader short of a marker and padding,
    /// by walking back over the raw bytes feeding the pending accumulator
    /// bits; stuffed bytes contributed nothing.
    fn walk_checkpoint(&self) -> u64 {
        let mut j = self.pos;
        let mut need = self.acc_len as i64;
        while need > 0 {
            if j == 0 {
                return u64::MAX;
            }
            j -= 1;
            let stuffed = self.data[j] == 0x00 && j > 0 && self.data[j - 1] == 0xFF;
            if !stuffed {
                need -= 8;
            }
        }
        8 * j as u64 + need.unsigned_abs()
    }

    /// Total number of bits consumed by `get_bits`/`receive` so far.
    #[inline]
    pub fn bits_consumed(&self) -> u64 {
        self.bits_consumed
    }

    /// The marker that terminated the stream, if one has been reached.
    #[inline]
    pub fn marker(&self) -> Option<u8> {
        self.marker
    }

    /// Pull bytes until the accumulator holds at least `need` bits or the
    /// stream is exhausted. Stuffed zero bytes are skipped; markers stop
    /// refilling.
    ///
    /// Fast path: most of a scan is 0xFF-free, so the refill loads six bytes
    /// per iteration from an unaligned big-endian `u64` whenever the window
    /// contains no 0xFF. Only windows touching a stuffed byte, a marker, or
    /// the stream tail fall back to the byte-at-a-time slow path. Both paths
    /// buffer identical bit sequences, so decode output is bit-exact.
    #[inline]
    pub(crate) fn refill(&mut self, need: u32) {
        debug_assert!(need <= 24);
        while self.acc_len < need {
            // 48 fresh bits always fit while acc_len <= 16, and `need` is at
            // most 24, so one bulk load finishes the refill.
            if self.acc_len <= 16 && self.marker.is_none() && self.pos + 8 <= self.data.len() {
                let window =
                    u64::from_be_bytes(self.data[self.pos..self.pos + 8].try_into().unwrap());
                let six = window >> 16;
                if !contains_ff_byte6(six) {
                    self.acc = (self.acc << 48) | six;
                    self.acc_len += 48;
                    self.pos += 6;
                    return;
                }
            }
            self.refill_one_byte();
        }
    }

    /// Slow-path refill: buffer one byte (or eight padding bits), handling
    /// 0xFF unstuffing and marker detection.
    #[cold]
    fn refill_one_byte(&mut self) {
        if self.marker.is_some() || self.pos >= self.data.len() {
            // Pad with zero bits; callers that overrun real data will
            // produce wrong symbols and hit BadHuffmanCode soon after,
            // mirroring libjpeg's behaviour on truncated files.
            self.acc <<= 8;
            self.acc_len += 8;
            self.padded = true;
            return;
        }
        let b = self.data[self.pos];
        self.pos += 1;
        if b == 0xFF {
            match self.data.get(self.pos) {
                Some(0x00) => {
                    // Stuffed data byte.
                    self.pos += 1;
                    self.acc = (self.acc << 8) | 0xFF;
                    self.acc_len += 8;
                }
                Some(&m) => {
                    self.marker = Some(m);
                    self.pos += 1;
                    self.acc <<= 8;
                    self.acc_len += 8;
                    self.padded = true;
                }
                None => {
                    self.marker = Some(0x00);
                    self.acc <<= 8;
                    self.acc_len += 8;
                    self.padded = true;
                }
            }
        } else {
            self.acc = (self.acc << 8) | b as u64;
            self.acc_len += 8;
        }
    }

    /// Read `n` bits (0..=24) MSB-first.
    #[inline]
    pub fn get_bits(&mut self, n: u32) -> u32 {
        if n == 0 {
            return 0;
        }
        debug_assert!(n <= 24);
        self.refill(n);
        self.acc_len -= n;
        self.bits_consumed += n as u64;
        ((self.acc >> self.acc_len) & ((1u64 << n) - 1)) as u32
    }

    /// Peek at the next `n` bits without consuming them.
    #[inline]
    pub fn peek_bits(&mut self, n: u32) -> u32 {
        debug_assert!(n > 0 && n <= 24);
        self.refill(n);
        ((self.acc >> (self.acc_len - n)) & ((1u64 << n) - 1)) as u32
    }

    /// Bits already in the accumulator: what [`Self::peek_buffered`] may
    /// read and [`Self::skip_bits`] may consume without a refill.
    #[inline(always)]
    pub(crate) fn buffered(&self) -> u32 {
        self.acc_len
    }

    /// The next `n` buffered bits (`n <= buffered()`), without refilling —
    /// the Huffman fast path reads only what the request path's refills
    /// already brought in.
    #[inline(always)]
    pub(crate) fn peek_buffered(&self, n: u32) -> u32 {
        debug_assert!(n > 0 && n <= self.acc_len);
        ((self.acc >> (self.acc_len - n)) & ((1u64 << n) - 1)) as u32
    }

    /// Every field that decides future reads, with the accumulator masked
    /// to its live bits — equal for two readers exactly when they are in
    /// the same state.
    #[cfg(test)]
    pub(crate) fn state(&self) -> (usize, u64, u32, Option<u8>, bool, u64) {
        let live = if self.acc_len == 0 {
            0
        } else {
            self.acc & (u64::MAX >> (64 - self.acc_len))
        };
        (
            self.pos,
            live,
            self.acc_len,
            self.marker,
            self.padded,
            self.bits_consumed,
        )
    }

    /// Consume `n` bits previously seen via [`Self::peek_bits`].
    #[inline]
    pub fn skip_bits(&mut self, n: u32) {
        debug_assert!(self.acc_len >= n);
        self.acc_len -= n;
        self.bits_consumed += n as u64;
    }

    /// Discard buffered bits so the reader is positioned at a byte boundary,
    /// as required before a restart marker.
    pub fn align_to_byte(&mut self) {
        let drop = self.acc_len % 8;
        self.acc_len -= drop;
        // Unread whole buffered bytes cannot be "pushed back" cheaply; keep
        // them — they are the upcoming bytes. Only sub-byte bits are padding.
        self.bits_consumed += drop as u64;
    }

    /// After aligning, read a two-byte restart marker `FF D0+n`. The reader
    /// must have consumed the entropy data exactly up to the marker.
    pub fn read_restart_marker(&mut self) -> Result<u8> {
        self.align_to_byte();
        // Whatever whole bytes remain buffered should be exactly zero (there
        // are none in well-formed streams: restart markers follow the last
        // entropy byte immediately).
        while self.acc_len >= 8 {
            let b = ((self.acc >> (self.acc_len - 8)) & 0xFF) as u8;
            if b != 0 {
                return Err(Error::Malformed("data before restart marker"));
            }
            self.acc_len -= 8;
        }
        if let Some(m) = self.marker.take() {
            // Buffered bytes were zero padding synthesized after the marker;
            // drop them so decoding resumes with real post-marker bytes.
            self.acc_len = 0;
            if (0xD0..=0xD7).contains(&m) {
                return Ok(m - 0xD0);
            }
            return Err(Error::RestartMismatch {
                expected: 0xFF,
                found: m,
            });
        }
        // Marker not yet pulled from the byte stream: read it directly.
        if self.pos + 1 > self.data.len() {
            return Err(Error::UnexpectedEof);
        }
        if self.data.get(self.pos) != Some(&0xFF) {
            return Err(Error::Malformed("expected restart marker"));
        }
        let m = *self.data.get(self.pos + 1).ok_or(Error::UnexpectedEof)?;
        self.pos += 2;
        if (0xD0..=0xD7).contains(&m) {
            Ok(m - 0xD0)
        } else {
            Err(Error::RestartMismatch {
                expected: 0xFF,
                found: m,
            })
        }
    }
}

/// True if any of the low six bytes of `v` equals 0xFF (top two bytes must
/// be zero). Branch-free SWAR byte-equality test: XOR maps 0xFF bytes to
/// 0x00, then the classic zero-byte detector flags them.
#[inline(always)]
fn contains_ff_byte6(v: u64) -> bool {
    const LOW6: u64 = 0x0000_FFFF_FFFF_FFFF;
    const ONES: u64 = 0x0000_0101_0101_0101;
    const HIGH: u64 = 0x0000_8080_8080_8080;
    let x = v ^ LOW6;
    x.wrapping_sub(ONES) & !x & HIGH != 0
}

/// True if any byte of `v` is 0xFF (the eight-byte [`contains_ff_byte6`]).
#[inline(always)]
fn contains_ff_byte8(v: u64) -> bool {
    let x = !v;
    x.wrapping_sub(0x0101_0101_0101_0101) & !x & 0x8080_8080_8080_8080 != 0
}

/// Big-endian bit writer producing a byte-stuffed entropy segment.
#[derive(Debug, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    acc: u64,
    acc_len: u32,
}

impl BitWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append the low `n` bits of `value`, MSB first.
    #[inline]
    pub fn put_bits(&mut self, value: u32, n: u32) {
        debug_assert!(n <= 24);
        debug_assert!(n == 24 || (value >> n) == 0, "value wider than n bits");
        self.acc = (self.acc << n) | value as u64;
        self.acc_len += n;
        while self.acc_len >= 8 {
            self.acc_len -= 8;
            let byte = ((self.acc >> self.acc_len) & 0xFF) as u8;
            self.out.push(byte);
            if byte == 0xFF {
                self.out.push(0x00); // byte stuffing
            }
        }
    }

    /// Pad to a byte boundary with 1-bits (T.81 §B.1.1.5 convention).
    pub fn pad_to_byte(&mut self) {
        let pad = (8 - self.acc_len % 8) % 8;
        if pad > 0 {
            self.put_bits((1 << pad) - 1, pad);
        }
    }

    /// Emit a restart marker (outside byte stuffing), padding first.
    pub fn put_restart_marker(&mut self, n: u8) {
        self.pad_to_byte();
        self.out.push(0xFF);
        self.out.push(0xD0 + (n & 7));
    }

    /// Pad and return the finished segment.
    pub fn finish(mut self) -> Vec<u8> {
        self.pad_to_byte();
        self.out
    }

    /// Bytes emitted so far (excluding buffered bits).
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// True if nothing has been emitted or buffered.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty() && self.acc_len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_fast_path_equals_the_walk() {
        // Streams dense in stuffed `FF 00` pairs, read in random steps: the
        // window test gives the walk's position at every step.
        let mut state = 0x9E37_79B9u32;
        let mut rand = |n: u32| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            (state >> 8) % n
        };
        let mut checked = 0;
        for _ in 0..400 {
            let mut w = BitWriter::new();
            for _ in 0..200 {
                match rand(4) {
                    0 => w.put_bits(0xFF, 8),
                    _ => w.put_bits(rand(1 << 16), 16),
                }
            }
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            while r.bit_checkpoint() != u64::MAX {
                assert_eq!(r.bit_checkpoint(), r.walk_checkpoint());
                checked += 1;
                match rand(3) {
                    0 => {
                        r.peek_bits(1 + rand(24));
                    }
                    _ => {
                        r.get_bits(1 + rand(24));
                    }
                }
            }
        }
        assert!(checked > 100_000, "{checked}");
    }

    #[test]
    fn roundtrip_simple_bits() {
        let mut w = BitWriter::new();
        w.put_bits(0b101, 3);
        w.put_bits(0b0110, 4);
        w.put_bits(0x5A, 8);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get_bits(3), 0b101);
        assert_eq!(r.get_bits(4), 0b0110);
        assert_eq!(r.get_bits(8), 0x5A);
        assert_eq!(r.bits_consumed(), 15);
    }

    #[test]
    fn ff_bytes_are_stuffed_and_unstuffed() {
        let mut w = BitWriter::new();
        w.put_bits(0xFF, 8);
        w.put_bits(0xFF, 8);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0xFF, 0x00, 0xFF, 0x00]);
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get_bits(8), 0xFF);
        assert_eq!(r.get_bits(8), 0xFF);
    }

    #[test]
    fn reader_stops_at_marker() {
        // Data byte, then an EOI marker.
        let bytes = [0xAB, 0xFF, 0xD9];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get_bits(8), 0xAB);
        // Reading past the marker returns zero padding.
        assert_eq!(r.get_bits(8), 0);
        assert_eq!(r.marker(), Some(0xD9));
    }

    #[test]
    fn peek_does_not_consume() {
        let bytes = [0b1011_0010, 0x00];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.peek_bits(4), 0b1011);
        assert_eq!(r.peek_bits(4), 0b1011);
        assert_eq!(r.bits_consumed(), 0);
        r.skip_bits(4);
        assert_eq!(r.get_bits(4), 0b0010);
        assert_eq!(r.bits_consumed(), 8);
    }

    #[test]
    fn restart_marker_roundtrip() {
        let mut w = BitWriter::new();
        w.put_bits(0b1, 1);
        w.put_restart_marker(3);
        w.put_bits(0xAA, 8);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get_bits(1), 1);
        assert_eq!(r.read_restart_marker().unwrap(), 3);
        assert_eq!(r.get_bits(8), 0xAA);
    }

    #[test]
    fn pad_uses_one_bits() {
        let mut w = BitWriter::new();
        w.put_bits(0, 1);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b0111_1111]);
    }

    #[test]
    fn writer_len_and_empty() {
        let mut w = BitWriter::new();
        assert!(w.is_empty());
        w.put_bits(0, 1);
        assert!(!w.is_empty());
        assert_eq!(w.len(), 0); // still buffered
        w.pad_to_byte();
        assert_eq!(w.len(), 1);
    }
}
