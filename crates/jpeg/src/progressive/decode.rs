//! Progressive Huffman entropy decoding (T.81 §G.2): DC/AC first and
//! refinement scans, with end-of-band runs spanning blocks, accumulating
//! coefficients across scans into the shared [`CoefBuffer`].
//!
//! Every pass costs time in proportion to the coefficients it touches, not
//! to the `Ss..=Se` positions of every block it visits. Each block carries
//! a **nonzero-history mask** (`History`): a `u64` in zigzag order whose
//! bit `k` (1..=63) is set exactly when the block's coefficient at zigzag
//! position `k` is nonzero. The mask is what turns position walks into
//! bit operations:
//!
//! * an AC refinement reads correction bits only for set bits, and finds
//!   the zero-history position a `(r, 1)` symbol lands on by clearing the
//!   `r` lowest bits of `!mask & band` instead of stepping through
//!   positions;
//! * an EOB run in a refinement scan touches the history bits of the band
//!   and nothing else;
//! * the finalize pass after the last scan derives each block's EOB (the
//!   highest set bit) and nonzero count (`popcount + (DC != 0)`) from the
//!   masks instead of re-reading 64 coefficients, and writes the EOB
//!   sidecar once — the scans themselves never touch it.
//!
//! Each scan kind has its own block loop (a closure over one walker), and
//! restart bookkeeping runs only when DRI ≠ 0. The successive-approximation
//! arithmetic is the reference decoder's: DC scans code `dc >> Al`
//! differences (stored shifted back up), DC refinements OR in one bit,
//! AC first scans place `±magnitude << Al`, AC refinements append one
//! correction bit per history coefficient and place newly nonzero `±2^Al`
//! values. Two's complement makes the approximation exact for negative
//! coefficients: after the final `Al = 0` pass every coefficient equals the
//! encoder's quantized value bit for bit. Per-row bits, symbols, blocks,
//! nonzero counts, EOB classes and block visits — the inputs of
//! `progressive_huff_time` — are exactly the position-walking decoder's,
//! which survives as the test oracle in `progressive/reference.rs`.

use super::parse::{ProgressiveParsed, Scan, ScanComp, ScanHeader};
use crate::bitio::BitReader;
use crate::coef::CoefBuffer;
use crate::error::{Error, Result};
use crate::geometry::Geometry;
use crate::huffman::{extend, DecodeTable, HuffDecoder};
use crate::metrics::RowMetrics;
use crate::zigzag::ZIGZAG;

/// Everything the downstream pipeline needs to know about a finished (or
/// tolerantly truncated) progressive entropy phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgressiveOutcome {
    /// Per-MCU-row work metrics aggregated over all decoded scans, with
    /// EOB classes re-derived from the accumulated coefficients.
    pub rows: Vec<RowMetrics>,
    /// Scans fully or partially decoded into the buffer.
    pub scans_decoded: usize,
    /// Refinement (successive-approximation) passes among them.
    pub refine_passes: u64,
    /// Total (scan, block) visits the decoded scans walked — the work unit
    /// behind the cost model's per-scan overhead term: every scan loops
    /// over its band in every covered block, EOB runs notwithstanding.
    pub block_visits: u64,
    /// True when entropy data was damaged or missing and decoding stopped
    /// early (tolerant mode only — strict mode errors instead).
    pub truncated: bool,
}

/// The non-interleaved block grid of one component (T.81 §A.2.2): block
/// counts derived from the *unpadded* component plane, not the MCU-padded
/// one — single-component scans cover exactly these blocks.
pub(crate) fn non_interleaved_grid(geom: &Geometry, ci: usize) -> (usize, usize) {
    let h_max = geom.comps.iter().map(|c| c.h_samp).max().unwrap_or(1);
    let v_max = geom.comps.iter().map(|c| c.v_samp).max().unwrap_or(1);
    let c = &geom.comps[ci];
    // ceil(ceil(dim * samp / samp_max) / 8) == ceil(dim * samp / (8 * samp_max))
    let bx = (geom.width * c.h_samp).div_ceil(8 * h_max);
    let by = (geom.height * c.v_samp).div_ceil(8 * v_max);
    (bx, by)
}

/// Decode up to `max_scans` scans of a parsed progressive stream into
/// `coef`, which the caller must supply zeroed ([`CoefBuffer::reset_for`] /
/// a fresh buffer) — progressive scans accumulate into prior state, and the
/// nonzero-history masks start empty on that assumption.
///
/// In strict mode (`tolerant == false`) any entropy-stream error aborts the
/// decode. In tolerant mode decoding stops at the damage and the outcome is
/// marked truncated; everything accumulated so far still renders.
pub fn decode_scans(
    prog: &ProgressiveParsed<'_>,
    geom: &Geometry,
    coef: &mut CoefBuffer,
    max_scans: Option<usize>,
    tolerant: bool,
) -> Result<ProgressiveOutcome> {
    let limit = max_scans.unwrap_or(prog.scans.len()).min(prog.scans.len());
    let mut rows = vec![RowMetrics::default(); geom.mcus_y];
    let mut scans_decoded = 0usize;
    let mut refine_passes = 0u64;
    let mut block_visits = 0u64;
    let mut truncated = false;

    let (coefs, eobs, history) = coef.progressive_parts();
    debug_assert!(
        coefs.iter().all(|&c| c == 0),
        "decode_scans needs a zeroed coefficient buffer"
    );
    let mut acc = Accum { coefs, history };
    for scan in &prog.scans[..limit] {
        match decode_one_scan(scan, geom, &mut acc, &mut rows) {
            Ok(()) => {
                scans_decoded += 1;
                refine_passes += scan.header.is_refinement() as u64;
                block_visits += scan_block_count(scan, geom);
            }
            Err(e) if tolerant && is_stream_error(&e) => {
                // Partial scan state stays in the buffer — it is a valid
                // (coarser) approximation; render what we have.
                scans_decoded += 1;
                refine_passes += scan.header.is_refinement() as u64;
                block_visits += scan_block_count(scan, geom);
                truncated = true;
                break;
            }
            Err(e) => return Err(e),
        }
    }

    // An incomplete file whose recovered scans all decoded cleanly is still
    // a truncated render when the caller asked for more than it got.
    if limit == prog.scans.len() && (!prog.complete || prog.damage.is_some()) {
        truncated = true;
    }

    finalize(geom, &acc, eobs, &mut rows);
    Ok(ProgressiveOutcome {
        rows,
        scans_decoded,
        refine_passes,
        block_visits,
        truncated,
    })
}

/// Number of blocks one scan walks: the full MCU coverage of its
/// components when interleaved, the unpadded T.81 grid otherwise.
pub(super) fn scan_block_count(scan: &Scan<'_>, geom: &Geometry) -> u64 {
    let h = &scan.header;
    if h.comps.len() > 1 {
        let per_mcu: usize = h
            .comps
            .iter()
            .map(|sc| geom.comps[sc.comp].h_samp * geom.comps[sc.comp].v_samp)
            .sum();
        (geom.mcus_x * geom.mcus_y * per_mcu) as u64
    } else {
        let (bw, bh) = non_interleaved_grid(geom, h.comps[0].comp);
        (bw * bh) as u64
    }
}

/// Errors that mean "the entropy byte stream is damaged" rather than "the
/// decoder was misused" — the recoverable class for tolerant decoding.
pub(super) fn is_stream_error(e: &Error) -> bool {
    matches!(
        e,
        Error::UnexpectedEof
            | Error::BadHuffmanCode
            | Error::RestartMismatch { .. }
            | Error::Malformed(_)
    )
}

/// A block's nonzero-history mask, in zigzag order.
///
/// **Invariant:** bit `k` (1..=63) is set exactly when the block's
/// coefficient at `ZIGZAG[k]` is nonzero; bit 0 (DC) is never set. It holds
/// because the buffer starts zeroed, the parser admits each coefficient to
/// one first pass only (T.81 §G.1.1.1.1), and every write keeps it:
///
/// * an AC first pass sets a bit only when the *stored* `i16` is nonzero —
///   a corrupt `extend(raw, s) << Al` can wrap to 0 and must stay unflagged;
/// * a refinement placement writes `±2^Al ≠ 0` at a zero-history position
///   and sets its bit;
/// * a correction moves a nonzero coefficient away from zero (or, from
///   `-32768`, wraps to `32767`), so it never clears one.
type History = u64;

/// The state scans accumulate into: coefficient blocks and their
/// [`History`] masks, indexed alike.
struct Accum<'c> {
    coefs: &'c mut [i16],
    history: &'c mut [History],
}

impl Accum<'_> {
    #[inline]
    fn block(&mut self, idx: usize) -> (&mut [i16; 64], &mut History) {
        let block = (&mut self.coefs[idx * 64..idx * 64 + 64])
            .try_into()
            .expect("64-coefficient block");
        (block, &mut self.history[idx])
    }
}

/// Derive every block's EOB bound and nonzero count from its history mask,
/// write the EOB sidecar, and fold block counts, nonzero counts and EOB
/// classes into the row metrics.
fn finalize(geom: &Geometry, acc: &Accum<'_>, eobs: &mut [u8], rows: &mut [RowMetrics]) {
    for (ci, comp) in geom.comps.iter().enumerate() {
        for by in 0..comp.height_blocks {
            let m = &mut rows[(by / comp.v_samp).min(rows.len().saturating_sub(1))];
            let first = geom.block_index(ci, 0, by);
            let row = first..first + comp.width_blocks;
            let blocks = acc.coefs[row.start * 64..row.end * 64].chunks_exact(64);
            let masks = acc.history[row.clone()].iter().zip(blocks);
            for (eob, (&mask, block)) in eobs[row].iter_mut().zip(masks) {
                *eob = (63 - mask.leading_zeros().min(63)) as u8;
                m.blocks += 1;
                m.nonzero_coefs += u64::from(mask.count_ones()) + u64::from(block[0] != 0);
                m.record_eob(*eob);
            }
        }
    }
}

/// The Huffman tables one scan decodes with, resolved from its snapshot.
struct ScanTables {
    dc: [Option<DecodeTable>; 4],
    ac: [Option<DecodeTable>; 4],
}

impl ScanTables {
    fn new(scan: &Scan<'_>, needs_dc: bool, needs_ac: bool) -> Result<Self> {
        let mut t = ScanTables {
            dc: [None, None, None, None],
            ac: [None, None, None, None],
        };
        for sc in &scan.header.comps {
            if needs_dc && t.dc[sc.dc_tbl].is_none() {
                let spec = scan.dc_specs[sc.dc_tbl]
                    .as_ref()
                    .ok_or(Error::Malformed("missing DC Huffman table"))?;
                t.dc[sc.dc_tbl] = Some(DecodeTable::build(spec)?);
            }
            if needs_ac && t.ac[sc.ac_tbl].is_none() {
                let spec = scan.ac_specs[sc.ac_tbl]
                    .as_ref()
                    .ok_or(Error::Malformed("missing AC Huffman table"))?;
                t.ac[sc.ac_tbl] = Some(DecodeTable::build(spec)?);
            }
        }
        Ok(t)
    }
}

/// Per-scan decoder state: bit reader, DC predictors, the cross-block EOB
/// run counter and restart bookkeeping.
struct ScanDecoder<'a> {
    reader: BitReader<'a>,
    dc_pred: [i32; 4],
    eobrun: u32,
    restart_interval: usize,
    units_until_restart: usize,
    next_restart: u8,
    symbols: u64,
}

impl<'a> ScanDecoder<'a> {
    fn new(scan: &Scan<'a>) -> Self {
        ScanDecoder {
            reader: BitReader::new(scan.data),
            dc_pred: [0; 4],
            eobrun: 0,
            restart_interval: scan.restart_interval,
            units_until_restart: scan.restart_interval,
            next_restart: 0,
            symbols: 0,
        }
    }

    /// Restart handling before one restart unit (an MCU when interleaved, a
    /// block otherwise) of a scan with DRI ≠ 0: byte-align, check the
    /// marker sequence, reset DC predictors and the EOB run.
    fn restart(&mut self) -> Result<()> {
        if self.units_until_restart == 0 {
            let n = self.reader.read_restart_marker()?;
            if n != self.next_restart {
                return Err(Error::RestartMismatch {
                    expected: self.next_restart,
                    found: 0xD0 + n,
                });
            }
            self.next_restart = (self.next_restart + 1) & 7;
            self.units_until_restart = self.restart_interval;
            self.dc_pred = [0; 4];
            self.eobrun = 0;
        }
        self.units_until_restart -= 1;
        Ok(())
    }

    /// Walk the scan's blocks in stream order — MCU order over the scan's
    /// components when interleaved, the component's unpadded T.81 grid
    /// otherwise — calling `f` on each block and its history mask, and
    /// attributing bits and symbols to MCU rows. A row that fails midway
    /// is not attributed.
    #[inline]
    fn walk<F>(
        &mut self,
        h: &ScanHeader,
        geom: &Geometry,
        acc: &mut Accum<'_>,
        rows: &mut [RowMetrics],
        mut f: F,
    ) -> Result<()>
    where
        F: FnMut(&mut Self, &ScanComp, &mut [i16; 64], &mut History) -> Result<()>,
    {
        let restarts = self.restart_interval != 0;
        if h.comps.len() > 1 {
            for (mcu_y, m) in rows.iter_mut().enumerate() {
                let (bits0, syms0) = (self.reader.bits_consumed(), self.symbols);
                for mcu_x in 0..geom.mcus_x {
                    if restarts {
                        self.restart()?;
                    }
                    for sc in &h.comps {
                        let comp = &geom.comps[sc.comp];
                        for v in 0..comp.v_samp {
                            let by = mcu_y * comp.v_samp + v;
                            for hx in 0..comp.h_samp {
                                let bx = mcu_x * comp.h_samp + hx;
                                let (block, mask) = acc.block(geom.block_index(sc.comp, bx, by));
                                f(self, sc, block, mask)?;
                            }
                        }
                    }
                }
                m.bits += self.reader.bits_consumed() - bits0;
                m.symbols += self.symbols - syms0;
            }
        } else {
            let sc = &h.comps[0];
            let v_samp = geom.comps[sc.comp].v_samp;
            let (bw, bh) = non_interleaved_grid(geom, sc.comp);
            for by in 0..bh {
                let (bits0, syms0) = (self.reader.bits_consumed(), self.symbols);
                let first = geom.block_index(sc.comp, 0, by);
                for idx in first..first + bw {
                    if restarts {
                        self.restart()?;
                    }
                    let (block, mask) = acc.block(idx);
                    f(self, sc, block, mask)?;
                }
                let m = &mut rows[(by / v_samp).min(rows.len() - 1)];
                m.bits += self.reader.bits_consumed() - bits0;
                m.symbols += self.symbols - syms0;
            }
        }
        Ok(())
    }

    /// AC first pass over the band `[ss, se]` of one block.
    #[inline]
    fn ac_first(
        &mut self,
        table: &DecodeTable,
        (ss, se, al): (usize, usize, u32),
        block: &mut [i16; 64],
        mask: &mut History,
    ) -> Result<()> {
        if self.eobrun > 0 {
            self.eobrun -= 1;
            return Ok(());
        }
        let mut k = ss;
        while k <= se {
            let rs = HuffDecoder::decode_symbol(&mut self.reader, table)?;
            self.symbols += 1;
            let r = (rs >> 4) as usize;
            let s = (rs & 15) as u32;
            if s != 0 {
                k += r;
                if k > se {
                    return Err(Error::Malformed("AC coefficient index out of band"));
                }
                let raw = self.reader.get_bits(s);
                let v = (extend(raw, s) << al) as i16;
                block[ZIGZAG[k]] = v;
                *mask |= u64::from(v != 0) << k;
                k += 1;
            } else if r == 15 {
                k += 16; // ZRL
            } else {
                let mut run = 1u32 << r;
                if r > 0 {
                    run += self.reader.get_bits(r as u32);
                }
                self.eobrun = run - 1; // this block is part of the run
                break;
            }
        }
        Ok(())
    }

    /// AC refinement pass over one block: `band` holds the zigzag bits
    /// `ss..=se`, `p1` is `2^Al`. Correction bits go to history
    /// coefficients, newly nonzero `±p1` values to the zero-history
    /// position each symbol's run names, and an EOB run still carries
    /// correction bits for the history it skips.
    #[inline]
    fn ac_refine(
        &mut self,
        table: &DecodeTable,
        (ss, se, band, p1): (usize, usize, u64, i16),
        block: &mut [i16; 64],
        mask: &mut History,
    ) -> Result<()> {
        let mut k = ss; // next band position not yet settled
        if self.eobrun == 0 {
            while k <= se {
                let rs = HuffDecoder::decode_symbol(&mut self.reader, table)?;
                self.symbols += 1;
                let r = u32::from(rs >> 4);
                let s = rs & 15;
                let mut pending = 0i16;
                if s == 0 {
                    if r != 15 {
                        self.eobrun = (1u32 << r) + self.reader.get_bits(r);
                        break; // finish the block as part of the run
                    }
                    // ZRL: pass 16 zero-history positions.
                } else {
                    if s != 1 {
                        return Err(Error::Malformed("AC refinement magnitude"));
                    }
                    pending = if self.reader.get_bits(1) != 0 {
                        p1
                    } else {
                        -p1
                    };
                }
                let ahead = band & (u64::MAX << k);
                match nth_set_bit(ahead & !*mask, r) {
                    Some(t) => {
                        self.correct(block, *mask & ahead & ((1u64 << t) - 1), p1);
                        if pending != 0 {
                            block[ZIGZAG[t]] = pending;
                            *mask |= 1u64 << t;
                        }
                        k = t + 1;
                    }
                    None => {
                        self.correct(block, *mask & ahead, p1);
                        if pending != 0 {
                            return Err(Error::Malformed("AC refinement placement out of band"));
                        }
                        k = se + 1;
                    }
                }
            }
        }
        if self.eobrun > 0 {
            // Here k <= se: a run starts at entry (k == ss) or breaks the
            // symbol loop above, never after it ran off the band.
            self.correct(block, *mask & band & (u64::MAX << k), p1);
            self.eobrun -= 1;
        }
        Ok(())
    }

    /// Apply one correction bit to each history coefficient in `nz` (zigzag
    /// bits, lowest first): a set bit adds `p1` away from zero unless that
    /// bit of the magnitude is already set. Branch-free, since the bits are
    /// close to random. (One multi-bit read per run measured slower: the
    /// runs between placements are short.)
    #[inline]
    fn correct(&mut self, block: &mut [i16; 64], mut nz: u64, p1: i16) {
        while nz != 0 {
            let k = nz.trailing_zeros() as usize;
            nz &= nz - 1;
            let c = &mut block[ZIGZAG[k]];
            let bit = self.reader.get_bits(1) as i16;
            let add = -(bit & i16::from(*c & p1 == 0));
            let step = if *c >= 0 { p1 } else { -p1 };
            *c = c.wrapping_add(step & add);
        }
    }
}

/// Position of the `(r + 1)`-th lowest set bit of `z`, if it has that many.
#[inline]
fn nth_set_bit(mut z: u64, r: u32) -> Option<usize> {
    for _ in 0..r {
        z &= z.wrapping_sub(1);
    }
    (z != 0).then(|| z.trailing_zeros() as usize)
}

/// Decode one scan, attributing bits/symbols to MCU rows in `rows`.
fn decode_one_scan(
    scan: &Scan<'_>,
    geom: &Geometry,
    acc: &mut Accum<'_>,
    rows: &mut [RowMetrics],
) -> Result<()> {
    let h = &scan.header;
    let (dc_scan, refining) = (h.is_dc(), h.is_refinement());
    let tables = ScanTables::new(scan, dc_scan && !refining, !dc_scan)?;
    let mut sd = ScanDecoder::new(scan);
    let al = h.al;
    match (dc_scan, refining) {
        (true, false) => sd.walk(h, geom, acc, rows, |sd, sc, block, _| {
            // DC first pass: the difference of `dc >> Al`, stored shifted
            // back up (arithmetic shifts keep negatives exact).
            let table = tables.dc[sc.dc_tbl].as_ref().expect("dc table");
            let diff = HuffDecoder::decode_dc_diff(&mut sd.reader, table)?;
            sd.symbols += 1;
            sd.dc_pred[sc.comp] += diff;
            block[0] = (sd.dc_pred[sc.comp] << al) as i16;
            Ok(())
        }),
        (true, true) => sd.walk(h, geom, acc, rows, |sd, _, block, _| {
            // DC refinement: one raw bit per block, ORed in at bit Al.
            block[0] |= ((sd.reader.get_bits(1) as i32) << al) as i16;
            Ok(())
        }),
        (false, false) => {
            let table = tables.ac[h.comps[0].ac_tbl].as_ref().expect("ac table");
            let band = (h.ss, h.se, al);
            sd.walk(h, geom, acc, rows, |sd, _, block, mask| {
                sd.ac_first(table, band, block, mask)
            })
        }
        (false, true) => {
            let table = tables.ac[h.comps[0].ac_tbl].as_ref().expect("ac table");
            let bits = (u64::MAX >> (63 - h.se)) & (u64::MAX << h.ss);
            let band = (h.ss, h.se, bits, 1i16 << al);
            sd.walk(h, geom, acc, rows, |sd, _, block, mask| {
                sd.ac_refine(table, band, block, mask)
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Subsampling;

    #[test]
    fn non_interleaved_grid_is_unpadded() {
        // 17px wide 4:2:0: luma grid is ceil(17/8) = 3 columns, while the
        // MCU-padded plane holds ceil(17/16)*2 = 4.
        let g = Geometry::new(17, 17, Subsampling::S420).unwrap();
        assert_eq!(non_interleaved_grid(&g, 0), (3, 3));
        assert_eq!(g.comps[0].width_blocks, 4);
        // Chroma grids always coincide with the padded plane.
        assert_eq!(non_interleaved_grid(&g, 1), (2, 2));
        assert_eq!((g.comps[1].width_blocks, g.comps[1].height_blocks), (2, 2));
        // 4:4:4 luma needs no padding distinction.
        let g = Geometry::new(24, 16, Subsampling::S444).unwrap();
        assert_eq!(non_interleaved_grid(&g, 0), (3, 2));
    }

    #[test]
    fn nth_set_bit_counts_from_the_low_end() {
        let z = 0b1011_0100u64;
        assert_eq!(nth_set_bit(z, 0), Some(2));
        assert_eq!(nth_set_bit(z, 1), Some(4));
        assert_eq!(nth_set_bit(z, 3), Some(7));
        assert_eq!(nth_set_bit(z, 4), None);
        assert_eq!(nth_set_bit(0, 0), None);
        assert_eq!(nth_set_bit(1u64 << 63, 0), Some(63));
    }
}
