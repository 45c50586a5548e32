//! Baseline JPEG Huffman entropy coding.
//!
//! Huffman decompression is the strictly sequential stage of JPEG decoding
//! (paper §1): codewords have variable length and the start of a codeword is
//! known only once the previous one has been decoded. The scheduler therefore
//! always runs this stage on the CPU; everything here is written for a single
//! thread. Each decode table resolves codes of up to nine bits in one
//! lookup; the AC table also yields the run and, when it fits in those nine
//! bits, the sign-extended coefficient. The lookups read only bits the
//! reader has already buffered, and only when the libjpeg-style request
//! path (8-bit peek, then bit-by-bit long codes) would not have refilled, so
//! the reader passes through exactly the states the request path gives it.
//!
//! * [`spec`] — the ITU-T T.81 Annex K standard tables,
//! * [`table`] — canonical code construction ([`HuffSpec`] → decode/encode
//!   tables),
//! * [`decode`] — symbol decoding over a [`crate::bitio::BitReader`]: the
//!   buffered fast path and the request path,
//! * [`encode`] — symbol encoding over a [`crate::bitio::BitWriter`],
//! * [`optimize`] — optimal table generation from symbol frequencies (the
//!   progressive encoder's two-pass statistics).

pub mod decode;
pub mod encode;
pub mod optimize;
#[cfg(test)]
mod reference;
pub mod spec;
pub mod table;

pub use decode::HuffDecoder;
pub use encode::HuffEncoder;
pub use optimize::spec_from_frequencies;
pub use table::{DecodeTable, EncodeTable, HuffSpec};

/// Sign-extend a `size`-bit magnitude into a JPEG "extended" value
/// (T.81 F.2.2.1 EXTEND procedure).
#[inline(always)]
pub fn extend(v: u32, size: u32) -> i32 {
    if size == 0 {
        return 0;
    }
    if v < (1 << (size - 1)) {
        v as i32 - ((1 << size) - 1)
    } else {
        v as i32
    }
}

/// Number of bits needed to represent `v` in JPEG magnitude coding
/// (the category / SSSS value).
#[inline(always)]
pub fn magnitude_category(v: i32) -> u32 {
    let a = v.unsigned_abs();
    32 - a.leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extend_matches_spec_examples() {
        // Size 3: raw 0..3 map to -7..-4, raw 4..7 map to 4..7.
        assert_eq!(extend(0, 3), -7);
        assert_eq!(extend(3, 3), -4);
        assert_eq!(extend(4, 3), 4);
        assert_eq!(extend(7, 3), 7);
        assert_eq!(extend(0, 0), 0);
        assert_eq!(extend(1, 1), 1);
        assert_eq!(extend(0, 1), -1);
    }

    #[test]
    fn magnitude_category_inverts_extend_range() {
        for v in -255i32..=255 {
            let s = magnitude_category(v);
            if v == 0 {
                assert_eq!(s, 0);
            } else {
                assert!(v.unsigned_abs() < (1 << s));
                assert!(v.unsigned_abs() >= (1 << (s - 1)));
            }
        }
        assert_eq!(magnitude_category(1), 1);
        assert_eq!(magnitude_category(-1), 1);
        assert_eq!(magnitude_category(255), 8);
        assert_eq!(magnitude_category(-1024), 11);
    }

    #[test]
    fn extend_and_category_roundtrip() {
        for v in -2047i32..=2047 {
            if v == 0 {
                continue;
            }
            let s = magnitude_category(v);
            // Encoder writes the low s bits of v (two's complement trick).
            let raw = (if v < 0 { v - 1 } else { v }) as u32 & ((1 << s) - 1);
            assert_eq!(extend(raw, s), v, "v = {v}");
        }
    }
}
