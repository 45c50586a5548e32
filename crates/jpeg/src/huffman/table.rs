//! Canonical Huffman code construction (T.81 Annex C) and derived
//! decode/encode tables.

use super::extend;
use crate::error::{Error, Result};

/// Number of bits the decode tables resolve in one lookup. The request
/// path peeks 8 of them (libjpeg's `HUFF_LOOKAHEAD`) and indexes the tables
/// at `peek8 << 1`; the buffered fast path reads all nine.
pub const LOOKAHEAD_BITS: u32 = 9;

/// A Huffman table specification as transmitted in a DHT segment:
/// `bits[l]` = number of codes of length `l` (1..=16), `values` = the symbols
/// in code order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HuffSpec {
    /// Code-length histogram; index 0 is unused.
    pub bits: [u8; 17],
    /// Symbols ordered by (length, code).
    pub values: Vec<u8>,
}

impl HuffSpec {
    /// Construct and sanity-check a specification.
    pub fn new(bits: [u8; 17], values: Vec<u8>) -> Self {
        let spec = HuffSpec { bits, values };
        debug_assert!(spec.validate().is_ok());
        spec
    }

    /// Check Kraft validity and that `values` matches the histogram.
    pub fn validate(&self) -> Result<()> {
        let total: usize = self.bits[1..=16].iter().map(|&b| b as usize).sum();
        if total != self.values.len() {
            return Err(Error::Malformed("DHT value count"));
        }
        if total > 256 {
            return Err(Error::Malformed("DHT too many codes"));
        }
        // Kraft inequality for a prefix-free code with max length 16.
        let mut kraft: u64 = 0;
        for l in 1..=16u32 {
            kraft += (self.bits[l as usize] as u64) << (16 - l);
        }
        if kraft > 1 << 16 {
            return Err(Error::Malformed("DHT violates Kraft inequality"));
        }
        Ok(())
    }

    /// Generate the (size, code) list for each symbol (T.81 C.1–C.3).
    fn code_list(&self) -> Vec<(u8, u16)> {
        let mut out = Vec::with_capacity(self.values.len());
        let mut code: u16 = 0;
        for l in 1..=16u8 {
            for _ in 0..self.bits[l as usize] {
                out.push((l, code));
                code += 1;
            }
            code <<= 1;
        }
        out
    }
}

/// One entry of the 9-bit symbol table: the code that prefixes the index
/// and the symbol it decodes to.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SymbolEntry {
    /// Code length in bits (1..=9); 0 means no code of at most
    /// [`LOOKAHEAD_BITS`] bits prefixes this index.
    pub(crate) len: u8,
    /// The decoded symbol when `len != 0`.
    pub(crate) symbol: u8,
}

/// One entry of the fused AC table: the symbol `RS` (run in the high
/// nibble, magnitude size in the low one) and, when its magnitude bits fit
/// inside the same nine peeked bits, the sign-extended coefficient.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct AcEntry {
    /// Code length in bits (1..=9); 0 means no code of at most
    /// [`LOOKAHEAD_BITS`] bits prefixes this index.
    pub(crate) code_len: u8,
    /// The decoded `RS` symbol when `code_len != 0`.
    pub(crate) rs: u8,
    /// The EXTENDed coefficient when the code and its magnitude bits fit in
    /// [`LOOKAHEAD_BITS`]; 0 otherwise (a decoded coefficient is never 0).
    pub(crate) value: i16,
}

/// Decoding table: 9-bit symbol and fused-AC lookup tables plus the
/// canonical slow-path arrays for longer codes.
#[derive(Debug, Clone)]
pub struct DecodeTable {
    /// Indexed by the next [`LOOKAHEAD_BITS`] bits.
    pub(crate) symbols: Box<[SymbolEntry; 1 << LOOKAHEAD_BITS]>,
    /// Indexed by the next [`LOOKAHEAD_BITS`] bits; read as an AC table.
    pub(crate) ac: Box<[AcEntry; 1 << LOOKAHEAD_BITS]>,
    /// `maxcode[l]` = largest code of length `l` (or -1 if none); index 17
    /// is a sentinel that terminates the scan.
    pub maxcode: [i32; 18],
    /// `valptr[l] - mincode[l]` folded: `value = values[valoff[l] + code]`.
    pub valoff: [i32; 17],
    /// Symbols in code order.
    pub values: Vec<u8>,
}

impl DecodeTable {
    /// Build decode structures from a DHT specification.
    pub fn build(spec: &HuffSpec) -> Result<Self> {
        spec.validate()?;
        let list = spec.code_list();

        let mut maxcode = [-1i32; 18];
        let mut valoff = [0i32; 17];
        let mut index = 0usize;
        let mut p = 0usize; // running index into values
        for l in 1..=16usize {
            let n = spec.bits[l] as usize;
            if n > 0 {
                let first_code = list[p].1 as i32;
                valoff[l] = p as i32 - first_code;
                p += n;
                maxcode[l] = list[p - 1].1 as i32;
            }
            index += n;
        }
        debug_assert_eq!(index, spec.values.len());
        maxcode[17] = i32::MAX; // sentinel

        let mut symbols = Box::new([SymbolEntry::default(); 1 << LOOKAHEAD_BITS]);
        let mut ac = Box::new([AcEntry::default(); 1 << LOOKAHEAD_BITS]);
        for (&(len, code), &symbol) in list.iter().zip(&spec.values) {
            let len = len as u32;
            if len > LOOKAHEAD_BITS {
                break; // the list is ordered by length
            }
            let shift = LOOKAHEAD_BITS - len;
            let span = (code as usize) << shift..((code as usize) + 1) << shift;
            symbols[span.clone()].fill(SymbolEntry {
                len: len as u8,
                symbol,
            });
            let entry = AcEntry {
                code_len: len as u8,
                rs: symbol,
                value: 0,
            };
            let size = (symbol & 0x0F) as u32;
            if size == 0 || size > shift {
                ac[span].fill(entry);
                continue;
            }
            // The magnitude bits follow the code inside the index.
            for (i, slot) in ac[span].iter_mut().enumerate() {
                let value = extend((i >> (shift - size)) as u32, size) as i16;
                *slot = AcEntry { value, ..entry };
            }
        }

        Ok(DecodeTable {
            symbols,
            ac,
            maxcode,
            valoff,
            values: spec.values.clone(),
        })
    }
}

/// Encoding table: per-symbol code and size.
#[derive(Debug, Clone)]
pub struct EncodeTable {
    /// `code[s]` = canonical code bits for symbol `s`.
    pub code: [u16; 256],
    /// `size[s]` = code length; 0 marks symbols absent from the table.
    pub size: [u8; 256],
}

impl EncodeTable {
    /// Build encode structures from a DHT specification.
    pub fn build(spec: &HuffSpec) -> Result<Self> {
        spec.validate()?;
        let list = spec.code_list();
        let mut code = [0u16; 256];
        let mut size = [0u8; 256];
        for (i, &(s, c)) in list.iter().enumerate() {
            let sym = spec.values[i] as usize;
            if size[sym] != 0 {
                return Err(Error::Malformed("DHT duplicate symbol"));
            }
            code[sym] = c;
            size[sym] = s;
        }
        Ok(EncodeTable { code, size })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::huffman::spec;

    #[test]
    fn canonical_codes_are_prefix_free() {
        for s in [
            spec::dc_luma(),
            spec::dc_chroma(),
            spec::ac_luma(),
            spec::ac_chroma(),
        ] {
            let list = s.code_list();
            for (i, &(la, ca)) in list.iter().enumerate() {
                for &(lb, cb) in list.iter().skip(i + 1) {
                    assert!(la <= lb);
                    if la == lb {
                        assert_ne!(ca, cb);
                    } else {
                        // a must not be a prefix of b.
                        assert_ne!(ca as u32, (cb as u32) >> (lb - la), "prefix collision");
                    }
                }
            }
        }
    }

    #[test]
    fn dc_luma_known_codes() {
        // K.3 assigns: category 0 -> 00 (2 bits), 1 -> 010, 2 -> 011, ...
        let t = EncodeTable::build(&spec::dc_luma()).unwrap();
        assert_eq!((t.size[0], t.code[0]), (2, 0b00));
        assert_eq!((t.size[1], t.code[1]), (3, 0b010));
        assert_eq!((t.size[2], t.code[2]), (3, 0b011));
        assert_eq!((t.size[5], t.code[5]), (3, 0b110));
        assert_eq!((t.size[6], t.code[6]), (4, 0b1110));
        assert_eq!((t.size[11], t.code[11]), (9, 0b111111110));
    }

    #[test]
    fn lookahead_agrees_with_slow_path_tables() {
        let s = spec::ac_luma();
        let t = DecodeTable::build(&s).unwrap();
        let enc = EncodeTable::build(&s).unwrap();
        // Every index a short code prefixes resolves to that code's symbol
        // in both tables; the fused entry's inline value is the EXTENDed
        // magnitude bits that follow the code in the index.
        let mut covered = 0;
        for sym in 0..256usize {
            let len = enc.size[sym] as u32;
            if len == 0 || len > LOOKAHEAD_BITS {
                continue;
            }
            let shift = LOOKAHEAD_BITS - len;
            let size = sym as u32 & 0x0F;
            for idx in (enc.code[sym] as usize) << shift..((enc.code[sym] as usize) + 1) << shift {
                let e = t.symbols[idx];
                assert_eq!((e.len as u32, e.symbol as usize), (len, sym));
                let a = t.ac[idx];
                assert_eq!((a.code_len as u32, a.rs as usize), (len, sym));
                if size != 0 && len + size <= LOOKAHEAD_BITS {
                    let raw = (idx as u32 >> (shift - size)) & ((1 << size) - 1);
                    assert_eq!(a.value as i32, crate::huffman::extend(raw, size));
                    assert_ne!(a.value, 0);
                } else {
                    assert_eq!(a.value, 0, "symbol {sym:#x} has no inline value");
                }
                covered += 1;
            }
        }
        // K.5's luminance AC table is complete, but its longest codes exceed
        // nine bits: those indices (and only those) stay unresolved.
        let unresolved = t.symbols.iter().filter(|e| e.len == 0).count();
        assert_eq!(covered + unresolved, 1 << LOOKAHEAD_BITS);
        assert!(unresolved > 0);
    }

    #[test]
    fn validate_rejects_bad_specs() {
        // Count mismatch.
        let mut bits = [0u8; 17];
        bits[2] = 2;
        assert!(HuffSpec {
            bits,
            values: vec![1]
        }
        .validate()
        .is_err());
        // Kraft violation: three 1-bit codes.
        let mut bits = [0u8; 17];
        bits[1] = 3;
        assert!(HuffSpec {
            bits,
            values: vec![1, 2, 3]
        }
        .validate()
        .is_err());
    }

    #[test]
    fn duplicate_symbol_rejected_by_encoder() {
        let mut bits = [0u8; 17];
        bits[2] = 2;
        let s = HuffSpec {
            bits,
            values: vec![7, 7],
        };
        assert!(EncodeTable::build(&s).is_err());
    }
}
