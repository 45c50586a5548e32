//! Huffman symbol decoding over a bit reader.
//!
//! Two paths decode a symbol, and both leave the reader in the same state.
//! The **request path** ([`HuffDecoder::decode_symbol`]) asks the reader for
//! bits: `peek_bits(8)` (refilling when fewer than eight are buffered),
//! the symbol table at `peek8 << 1` for codes of at most eight bits, then
//! one `get_bits(1)` per bit of a longer code. The **buffered fast path**
//! of [`HuffDecoder::decode_ac_block`] and [`HuffDecoder::decode_dc_diff`]
//! first tops the buffer up exactly as that `peek_bits(8)` would, then, if
//! nine bits are buffered, resolves codes of up to nine bits — for AC, run,
//! code length and the sign-extended coefficient — in one lookup. Nine
//! buffered bits cover the peek and a nine-bit code's one-bit extension,
//! so the request path would not have refilled for them either; magnitude
//! bits outside the nine go through the same `get_bits(s)`. The reader
//! therefore passes through the same states — accumulator, byte position,
//! marker, padding flag, `bits_consumed` — as with the request path alone,
//! at every symbol boundary and at every error. That keeps
//! [`crate::bitio::BitReader::bit_checkpoint`] (and with it the
//! speculative decoder's restart points) and the restart-marker checks,
//! which look at buffered bytes, unchanged.

use super::extend;
use super::table::{AcEntry, DecodeTable, SymbolEntry, LOOKAHEAD_BITS};
use crate::bitio::BitReader;
use crate::error::{Error, Result};
use crate::zigzag::ZIGZAG;

/// Bits the request path peeks before its symbol-table lookup.
const PEEK_BITS: u32 = 8;

/// Stateless decoder operations bundled for convenience; DC prediction state
/// lives in the caller ([`crate::entropy::EntropyDecoder`]).
pub struct HuffDecoder;

/// Top the buffer up as the request path's `peek_bits(8)` would, then
/// return the index of the next [`LOOKAHEAD_BITS`] bits if that many are
/// buffered. `None` sends the symbol down the request path.
#[inline(always)]
fn buffered_index(reader: &mut BitReader<'_>) -> Option<usize> {
    if reader.buffered() < PEEK_BITS {
        reader.refill(PEEK_BITS);
    }
    (reader.buffered() >= LOOKAHEAD_BITS).then(|| reader.peek_buffered(LOOKAHEAD_BITS) as usize)
}

impl HuffDecoder {
    /// Decode one Huffman symbol on the request path: 8-bit peek into the
    /// symbol table, canonical bit-by-bit search for longer codes.
    #[inline]
    pub fn decode_symbol(reader: &mut BitReader<'_>, table: &DecodeTable) -> Result<u8> {
        let peek = reader.peek_bits(PEEK_BITS);
        let SymbolEntry { len, symbol } = table.symbols[(peek as usize) << 1];
        if len != 0 && len as u32 <= PEEK_BITS {
            reader.skip_bits(len as u32);
            return Ok(symbol);
        }
        // Slow path: extend bit by bit past the peeked width.
        let mut code = peek as i32;
        reader.skip_bits(PEEK_BITS);
        let mut l = PEEK_BITS;
        while code > table.maxcode[l as usize] {
            if l >= 16 {
                return Err(Error::BadHuffmanCode);
            }
            code = (code << 1) | reader.get_bits(1) as i32;
            l += 1;
        }
        let idx = table.valoff[l as usize] + code;
        table
            .values
            .get(idx as usize)
            .copied()
            .ok_or(Error::BadHuffmanCode)
    }

    /// Decode a DC coefficient difference: category symbol then extended
    /// magnitude bits (T.81 F.2.2.1).
    #[inline]
    pub fn decode_dc_diff(reader: &mut BitReader<'_>, table: &DecodeTable) -> Result<i32> {
        let e = buffered_index(reader).map_or(SymbolEntry::default(), |i| table.symbols[i]);
        let s = if e.len != 0 {
            reader.skip_bits(e.len as u32);
            e.symbol
        } else {
            Self::decode_symbol(reader, table)?
        } as u32;
        if s > 11 {
            return Err(Error::Malformed("DC category > 11"));
        }
        let raw = reader.get_bits(s);
        Ok(extend(raw, s))
    }

    /// Decode the 63 AC coefficients of one block into `block` (natural
    /// order, de-zigzagged on the fly). Returns `(symbols, nonzero, eob)` —
    /// the number of Huffman symbols read, the number of nonzero AC
    /// coefficients produced (both feed the performance model's work
    /// metrics), and the end-of-block index: the highest zigzag position
    /// holding a nonzero AC coefficient, 0 for an all-zero AC block. The EOB
    /// is recorded per block so downstream IDCT stages can dispatch to
    /// sparse fast paths without rescanning coefficients.
    #[inline]
    pub fn decode_ac_block(
        reader: &mut BitReader<'_>,
        table: &DecodeTable,
        block: &mut [i16; 64],
    ) -> Result<(u32, u32, u8)> {
        let mut k = 1usize;
        let mut nonzero = 0u32;
        let mut symbols = 0u32;
        let mut eob = 0usize;
        while k < 64 {
            let e = buffered_index(reader).map_or(AcEntry::default(), |i| table.ac[i]);
            let (rs, inline) = if e.code_len != 0 {
                reader.skip_bits(e.code_len as u32);
                (e.rs, e.value)
            } else {
                (Self::decode_symbol(reader, table)?, 0)
            };
            symbols += 1;
            let r = (rs >> 4) as usize;
            let s = (rs & 0x0F) as u32;
            if s == 0 {
                if r == 15 {
                    k += 16; // ZRL: sixteen zeros
                    continue;
                }
                break; // EOB
            }
            k += r;
            if k >= 64 {
                return Err(Error::Malformed("AC run past block end"));
            }
            block[ZIGZAG[k]] = if inline != 0 {
                // The magnitude bits were part of the lookup index.
                reader.skip_bits(s);
                inline
            } else {
                extend(reader.get_bits(s), s) as i16
            };
            nonzero += 1;
            eob = k;
            k += 1;
        }
        Ok((symbols, nonzero, eob as u8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitio::BitWriter;
    use crate::huffman::encode::HuffEncoder;
    use crate::huffman::spec;
    use crate::huffman::table::EncodeTable;

    #[test]
    fn symbol_roundtrip_all_lengths() {
        let s = spec::ac_luma();
        let enc = EncodeTable::build(&s).unwrap();
        let dec = DecodeTable::build(&s).unwrap();
        // Encode every symbol in the table once, decode them back.
        let mut w = BitWriter::new();
        for &sym in &s.values {
            w.put_bits(enc.code[sym as usize] as u32, enc.size[sym as usize] as u32);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &sym in &s.values {
            assert_eq!(HuffDecoder::decode_symbol(&mut r, &dec).unwrap(), sym);
        }
    }

    #[test]
    fn dc_diff_roundtrip() {
        let s = spec::dc_luma();
        let enc = EncodeTable::build(&s).unwrap();
        let dec = DecodeTable::build(&s).unwrap();
        let values = [-2047, -1024, -255, -1, 0, 1, 2, 31, 512, 2047];
        let mut w = BitWriter::new();
        for &v in &values {
            HuffEncoder::encode_dc_diff(&mut w, &enc, v).unwrap();
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &v in &values {
            assert_eq!(HuffDecoder::decode_dc_diff(&mut r, &dec).unwrap(), v);
        }
    }

    #[test]
    fn ac_block_roundtrip_sparse() {
        let s = spec::ac_chroma();
        let enc = EncodeTable::build(&s).unwrap();
        let dec = DecodeTable::build(&s).unwrap();
        // A sparse block with runs, a ZRL-requiring gap, and a trailing EOB.
        let mut block = [0i16; 64];
        block[ZIGZAG[1]] = -3;
        block[ZIGZAG[5]] = 17;
        block[ZIGZAG[30]] = -120; // gap of 24 zeros => ZRL + run
        block[ZIGZAG[31]] = 1;
        let mut w = BitWriter::new();
        HuffEncoder::encode_ac_block(&mut w, &enc, &block).unwrap();
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        let mut out = [0i16; 64];
        let (symbols, nz, eob) = HuffDecoder::decode_ac_block(&mut r, &dec, &mut out).unwrap();
        assert_eq!(out, block);
        assert_eq!(nz, 4);
        // 4 value symbols + 1 ZRL + 1 EOB.
        assert_eq!(symbols, 6);
        assert_eq!(eob, 31); // last nonzero zigzag position written above
    }

    #[test]
    fn ac_block_roundtrip_dense() {
        let s = spec::ac_luma();
        let enc = EncodeTable::build(&s).unwrap();
        let dec = DecodeTable::build(&s).unwrap();
        let mut block = [0i16; 64];
        for k in 1..64 {
            block[ZIGZAG[k]] = if k % 2 == 0 { k as i16 } else { -(k as i16) };
        }
        let mut w = BitWriter::new();
        HuffEncoder::encode_ac_block(&mut w, &enc, &block).unwrap();
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        let mut out = [0i16; 64];
        let (_, _, eob) = HuffDecoder::decode_ac_block(&mut r, &dec, &mut out).unwrap();
        assert_eq!(out, block);
        assert_eq!(eob, 63);
    }

    #[test]
    fn garbage_input_errors_not_panics() {
        let s = spec::dc_luma();
        let dec = DecodeTable::build(&s).unwrap();
        // All-ones is the longest-code prefix; with zero padding afterwards
        // the decoder must hit BadHuffmanCode rather than panic.
        let bytes = [0xFFu8, 0x00, 0xFF, 0x00];
        let mut r = BitReader::new(&bytes);
        let mut saw_error = false;
        for _ in 0..8 {
            if HuffDecoder::decode_symbol(&mut r, &dec).is_err() {
                saw_error = true;
                break;
            }
        }
        assert!(saw_error);
    }
}
