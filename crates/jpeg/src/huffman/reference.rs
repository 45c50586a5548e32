//! The Huffman decoder the fused 9-bit tables replaced, kept as their
//! oracle: an 8-bit lookahead LUT, one `peek_bits(8)` per symbol, one
//! `get_bits(s)` per magnitude, bit-by-bit long codes — exactly as
//! `decode.rs` stood before. The property test below decodes pristine and
//! damaged streams with both and demands the same coefficients, counts,
//! errors and reader state after every block and at the first error.

use super::extend;
use super::table::HuffSpec;
use crate::bitio::BitReader;
use crate::error::{Error, Result};
use crate::zigzag::ZIGZAG;

/// The reference decode table: 8-bit lookahead plus the canonical slow
/// path arrays.
pub(crate) struct RefTable {
    /// `(code length, symbol)` per 8-bit prefix; length 0 = unresolved.
    lookahead: Box<[(u8, u8); 256]>,
    maxcode: [i32; 18],
    valoff: [i32; 17],
    values: Vec<u8>,
}

impl RefTable {
    pub(crate) fn build(spec: &HuffSpec) -> Self {
        let mut list = Vec::new();
        let mut code = 0u16;
        for l in 1..=16u8 {
            for _ in 0..spec.bits[l as usize] {
                list.push((l, code));
                code += 1;
            }
            code <<= 1;
        }
        let mut maxcode = [-1i32; 18];
        let mut valoff = [0i32; 17];
        let mut p = 0usize;
        for l in 1..=16usize {
            let n = spec.bits[l] as usize;
            if n > 0 {
                valoff[l] = p as i32 - list[p].1 as i32;
                p += n;
                maxcode[l] = list[p - 1].1 as i32;
            }
        }
        maxcode[17] = i32::MAX;
        let mut lookahead = Box::new([(0u8, 0u8); 256]);
        for (i, &(size, code)) in list.iter().enumerate() {
            if size <= 8 {
                let shift = 8 - size as u32;
                let base = (code as usize) << shift;
                for e in lookahead.iter_mut().skip(base).take(1 << shift) {
                    *e = (size, spec.values[i]);
                }
            }
        }
        RefTable {
            lookahead,
            maxcode,
            valoff,
            values: spec.values.clone(),
        }
    }
}

fn decode_symbol(reader: &mut BitReader<'_>, table: &RefTable) -> Result<u8> {
    let peek = reader.peek_bits(8);
    let (nbits, value) = table.lookahead[peek as usize];
    if nbits != 0 {
        reader.skip_bits(nbits as u32);
        return Ok(value);
    }
    let mut code = peek as i32;
    reader.skip_bits(8);
    let mut l = 8u32;
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

pub(crate) fn decode_dc_diff(reader: &mut BitReader<'_>, table: &RefTable) -> Result<i32> {
    let s = decode_symbol(reader, table)? as u32;
    if s > 11 {
        return Err(Error::Malformed("DC category > 11"));
    }
    let raw = reader.get_bits(s);
    Ok(extend(raw, s))
}

pub(crate) fn decode_ac_block(
    reader: &mut BitReader<'_>,
    table: &RefTable,
    block: &mut [i16; 64],
) -> Result<(u32, u32, u8)> {
    let mut k = 1usize;
    let mut nonzero = 0u32;
    let mut symbols = 0u32;
    let mut eob = 0usize;
    while k < 64 {
        let rs = decode_symbol(reader, table)?;
        symbols += 1;
        let r = (rs >> 4) as usize;
        let s = (rs & 0x0F) as u32;
        if s == 0 {
            if r == 15 {
                k += 16;
                continue;
            }
            break;
        }
        k += r;
        if k >= 64 {
            return Err(Error::Malformed("AC run past block end"));
        }
        let raw = reader.get_bits(s);
        block[ZIGZAG[k]] = extend(raw, s) as i16;
        nonzero += 1;
        eob = k;
        k += 1;
    }
    Ok((symbols, nonzero, eob as u8))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitio::BitWriter;
    use crate::huffman::optimize::FREQ_SLOTS;
    use crate::huffman::{spec, spec_from_frequencies, DecodeTable, EncodeTable, HuffDecoder};
    use crate::huffman::{HuffEncoder, HuffSpec};

    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((self.0 >> 33) as usize) % n.max(1)
        }
    }

    /// Skewed frequencies over every symbol a baseline scan of `class`
    /// emits, steep enough that the optimal code reaches 16 bits.
    fn skewed_spec(class: u8, seed: u64) -> HuffSpec {
        let mut freq = [0u32; FREQ_SLOTS];
        let mut syms: Vec<usize> = if class == 0 {
            (0..=11).collect()
        } else {
            let mut v = vec![0x00, 0xF0];
            v.extend((0..16).flat_map(|r| (1..=10).map(move |s| (r << 4) | s)));
            v
        };
        let mut rng = Rng(seed | 1);
        for i in (1..syms.len()).rev() {
            syms.swap(i, rng.below(i + 1));
        }
        for (rank, &sym) in syms.iter().enumerate() {
            freq[sym] = 1 + (1u32 << (30 - rank.min(30)));
        }
        let spec = spec_from_frequencies(&freq).unwrap();
        assert_eq!(class == 0, spec.bits[16] == 0, "AC tables reach 16 bits");
        spec
    }

    /// A block of coefficients the encoder accepts: DC difference and
    /// sparse-to-dense AC of mixed magnitudes.
    fn random_block(rng: &mut Rng) -> (i32, [i16; 64]) {
        let dc = rng.below(4095) as i32 - 2047;
        let mut block = [0i16; 64];
        let live = [0usize, 2, 9, 30, 63][rng.below(5)];
        for k in 1..=live {
            if rng.below(3) != 0 {
                let mag = [1usize, 3, 40, 1023][rng.below(4)];
                let v = rng.below(mag) as i16 + 1;
                block[ZIGZAG[k]] = if rng.below(2) == 0 { v } else { -v };
            }
        }
        (dc, block)
    }

    fn encode(dc: &EncodeTable, ac: &EncodeTable, blocks: &[(i32, [i16; 64])]) -> Vec<u8> {
        let mut w = BitWriter::new();
        for (diff, block) in blocks {
            HuffEncoder::encode_dc_diff(&mut w, dc, *diff).unwrap();
            HuffEncoder::encode_ac_block(&mut w, ac, block).unwrap();
        }
        w.finish()
    }

    /// Seeded damage: bit flips, a run of stuffed `FF 00` pairs, a marker
    /// mid-stream or at the end, or a truncation.
    fn mutate(data: &[u8], rng: &mut Rng) -> Vec<u8> {
        let mut d = data.to_vec();
        let at = rng.below(d.len() + 1);
        match rng.below(5) {
            0 => {
                for _ in 0..1 + rng.below(3) {
                    let i = rng.below(d.len());
                    d[i] ^= 1 << rng.below(8);
                }
            }
            1 => {
                let run = [0xFF, 0x00].repeat(1 + rng.below(4));
                d.splice(at..at, run);
            }
            2 => {
                let m = [0xD0 + rng.below(8) as u8, 0xD9, 0xC4][rng.below(3)];
                d.splice(at..at, [0xFF, m]);
            }
            3 => d.extend_from_slice(&[0xFF, 0xD9]),
            _ => d.truncate(at),
        }
        d
    }

    /// What one side of the comparison saw: the decode results of every
    /// block up to and including the first error, with the reader state
    /// after each.
    type Trace = Vec<(
        Result<i32>,
        Option<(Result<(u32, u32, u8)>, [i16; 64])>,
        (u64, u64, Option<u8>),
        (usize, u64, u32, Option<u8>, bool, u64),
    )>;

    fn trace(
        data: &[u8],
        start: usize,
        blocks: usize,
        mut dc: impl FnMut(&mut BitReader<'_>) -> Result<i32>,
        mut ac: impl FnMut(&mut BitReader<'_>, &mut [i16; 64]) -> Result<(u32, u32, u8)>,
    ) -> Trace {
        let mut r = BitReader::new_at(data, start);
        let mut out = Trace::new();
        let observe = |r: &BitReader<'_>| (r.bits_consumed(), r.bit_checkpoint(), r.marker());
        for _ in 0..blocks {
            let d = dc(&mut r);
            if d.is_err() {
                out.push((d, None, observe(&r), r.state()));
                break;
            }
            let mut block = [0i16; 64];
            let a = ac(&mut r, &mut block);
            let failed = a.is_err();
            out.push((d, Some((a, block)), observe(&r), r.state()));
            if failed {
                break;
            }
        }
        out
    }

    #[test]
    fn fused_decoder_matches_the_reference_on_pristine_and_damaged_streams() {
        let mut tables: Vec<(&str, HuffSpec, HuffSpec)> = vec![
            ("K luma", spec::dc_luma(), spec::ac_luma()),
            ("K chroma", spec::dc_chroma(), spec::ac_chroma()),
        ];
        for seed in 0..4 {
            tables.push(("skewed", skewed_spec(0, seed), skewed_spec(1, seed + 9)));
        }
        let (mut decodes, mut blocks_seen) = (0usize, 0usize);
        let mut errors = std::collections::BTreeMap::<String, usize>::new();
        let (mut markers, mut checkpoint_lost) = (0usize, 0usize);
        for (ti, (name, dc_spec, ac_spec)) in tables.iter().enumerate() {
            let enc = (
                EncodeTable::build(dc_spec).unwrap(),
                EncodeTable::build(ac_spec).unwrap(),
            );
            // An AC table decoding DC symbols reaches "DC category > 11".
            for (dc_spec, ac_spec) in [(dc_spec, ac_spec), (ac_spec, ac_spec)] {
                let new = (
                    DecodeTable::build(dc_spec).unwrap(),
                    DecodeTable::build(ac_spec).unwrap(),
                );
                let old = (RefTable::build(dc_spec), RefTable::build(ac_spec));
                let mut rng = Rng(ti as u64 * 7919 + 1);
                for case in 0..60 {
                    let n = 1 + rng.below(12);
                    let blocks: Vec<_> = (0..n).map(|_| random_block(&mut rng)).collect();
                    let pristine = encode(&enc.0, &enc.1, &blocks);
                    let mut streams = vec![pristine.clone()];
                    streams.extend((0..6).map(|_| mutate(&pristine, &mut rng)));
                    if case % 10 == 0 {
                        streams.extend((0..pristine.len()).map(|cut| pristine[..cut].to_vec()));
                    }
                    for data in &streams {
                        // A speculative chunk starts mid-stream, never on
                        // the 00 of a stuffed pair.
                        let mut start = [0, rng.below(data.len().max(1))][rng.below(2)];
                        while start > 0
                            && start < data.len()
                            && data[start] == 0x00
                            && data[start - 1] == 0xFF
                        {
                            start += 1;
                        }
                        let want = trace(
                            data,
                            start,
                            n + 3,
                            |r| decode_dc_diff(r, &old.0),
                            |r, b| decode_ac_block(r, &old.1, b),
                        );
                        let got = trace(
                            data,
                            start,
                            n + 3,
                            |r| HuffDecoder::decode_dc_diff(r, &new.0),
                            |r, b| HuffDecoder::decode_ac_block(r, &new.1, b),
                        );
                        assert_eq!(got, want, "{name} case {case} start {start}: {data:02X?}");
                        decodes += 1;
                        blocks_seen += want.len();
                        for (d, a, (_, cp, marker), _) in &want {
                            let err = d.clone().err().or_else(|| a.clone()?.0.err());
                            if let Some(e) = err {
                                *errors.entry(e.to_string()).or_default() += 1;
                            }
                            markers += usize::from(marker.is_some());
                            checkpoint_lost += usize::from(*cp == u64::MAX);
                        }
                    }
                }
            }
        }
        // The corpus must reach every error path and the marker/padding
        // states, not only clean decodes.
        assert!(
            decodes > 3000 && blocks_seen > 20_000,
            "{decodes} / {blocks_seen}"
        );
        for what in [
            "invalid Huffman code in entropy stream",
            "malformed JPEG: AC run past block end",
            "malformed JPEG: DC category > 11",
        ] {
            assert!(
                errors.get(what).copied().unwrap_or(0) > 20,
                "{what}: {errors:?}"
            );
        }
        assert!(
            markers > 100 && checkpoint_lost > 100,
            "{markers} / {checkpoint_lost}"
        );
    }
}
