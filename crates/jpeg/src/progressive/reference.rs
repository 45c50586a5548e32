//! The position-walking progressive decoder the mask-driven one replaced,
//! kept as its oracle: every scan steps through all `Ss..=Se` positions of
//! every block it visits, and the finalize pass re-reads 64 coefficients
//! per block to rebuild the EOB sidecar — exactly as the decoder stood
//! before PR 25, except that corrections add with `wrapping_add` (the
//! release semantics; a corrupt stream can push `-32768` one step lower,
//! which would otherwise panic under overflow checks). The property test
//! below drives both decoders over pristine and mutated streams and
//! demands equal coefficients, EOB sidecars, outcomes and error values.

use super::decode::{is_stream_error, non_interleaved_grid, scan_block_count, ProgressiveOutcome};
use super::parse::{ProgressiveParsed, Scan};
use crate::bitio::BitReader;
use crate::coef::CoefBuffer;
use crate::error::{Error, Result};
use crate::geometry::Geometry;
use crate::huffman::{extend, DecodeTable, HuffDecoder};
use crate::metrics::RowMetrics;
use crate::zigzag::ZIGZAG;

/// Reference `decode_scans`: same contract as
/// [`super::decode::decode_scans`].
pub(crate) fn decode_scans(
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

    for scan in &prog.scans[..limit] {
        match decode_one_scan(scan, prog, geom, coef, &mut rows) {
            Ok(()) => {
                scans_decoded += 1;
                refine_passes += scan.header.is_refinement() as u64;
                block_visits += scan_block_count(scan, geom);
            }
            Err(e) if tolerant && is_stream_error(&e) => {
                scans_decoded += 1;
                refine_passes += scan.header.is_refinement() as u64;
                block_visits += scan_block_count(scan, geom);
                truncated = true;
                break;
            }
            Err(e) => return Err(e),
        }
    }

    if limit == prog.scans.len() && (!prog.complete || prog.damage.is_some()) {
        truncated = true;
    }

    finalize_metrics(geom, coef, &mut rows);
    Ok(ProgressiveOutcome {
        rows,
        scans_decoded,
        refine_passes,
        block_visits,
        truncated,
    })
}

fn finalize_metrics(geom: &Geometry, coef: &mut CoefBuffer, rows: &mut [RowMetrics]) {
    for (ci, comp) in geom.comps.iter().enumerate() {
        for by in 0..comp.height_blocks {
            let row = (by / comp.v_samp).min(rows.len().saturating_sub(1));
            for bx in 0..comp.width_blocks {
                let idx = geom.block_index(ci, bx, by);
                let block = coef.block(idx);
                let mut eob = 0u8;
                let mut nonzero = 0u64;
                for k in (0..64usize).rev() {
                    let v = block[ZIGZAG[k]];
                    if v != 0 {
                        if eob == 0 && k > 0 {
                            eob = k as u8;
                        }
                        nonzero += 1;
                    }
                }
                coef.set_eob(idx, eob);
                let m = &mut rows[row];
                m.blocks += 1;
                m.nonzero_coefs += nonzero;
                m.record_eob(eob);
            }
        }
    }
}

struct ScanDecoder<'a> {
    reader: BitReader<'a>,
    dc_tables: [Option<DecodeTable>; 4],
    ac_tables: [Option<DecodeTable>; 4],
    dc_pred: [i32; 4],
    eobrun: u32,
    restart_interval: usize,
    units_until_restart: usize,
    next_restart: u8,
    symbols: u64,
}

impl<'a> ScanDecoder<'a> {
    fn new(scan: &Scan<'a>, needs_dc_table: bool, needs_ac_table: bool) -> Result<Self> {
        let mut dc_tables: [Option<DecodeTable>; 4] = [None, None, None, None];
        let mut ac_tables: [Option<DecodeTable>; 4] = [None, None, None, None];
        for sc in &scan.header.comps {
            if needs_dc_table && dc_tables[sc.dc_tbl].is_none() {
                let spec = scan.dc_specs[sc.dc_tbl]
                    .as_ref()
                    .ok_or(Error::Malformed("missing DC Huffman table"))?;
                dc_tables[sc.dc_tbl] = Some(DecodeTable::build(spec)?);
            }
            if needs_ac_table && ac_tables[sc.ac_tbl].is_none() {
                let spec = scan.ac_specs[sc.ac_tbl]
                    .as_ref()
                    .ok_or(Error::Malformed("missing AC Huffman table"))?;
                ac_tables[sc.ac_tbl] = Some(DecodeTable::build(spec)?);
            }
        }
        Ok(ScanDecoder {
            reader: BitReader::new(scan.data),
            dc_tables,
            ac_tables,
            dc_pred: [0; 4],
            eobrun: 0,
            restart_interval: scan.restart_interval,
            units_until_restart: scan.restart_interval,
            next_restart: 0,
            symbols: 0,
        })
    }

    fn maybe_restart(&mut self) -> Result<()> {
        if self.restart_interval == 0 {
            return Ok(());
        }
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

    fn dc_first(
        &mut self,
        table_slot: usize,
        ci: usize,
        al: u32,
        block: &mut [i16; 64],
    ) -> Result<()> {
        let table = self.dc_tables[table_slot].as_ref().expect("dc table");
        let diff = HuffDecoder::decode_dc_diff(&mut self.reader, table)?;
        self.symbols += 1;
        self.dc_pred[ci] += diff;
        block[0] = (self.dc_pred[ci] << al) as i16;
        Ok(())
    }

    fn dc_refine(&mut self, al: u32, block: &mut [i16; 64]) {
        if self.reader.get_bits(1) != 0 {
            block[0] |= (1i32 << al) as i16;
        }
    }

    fn ac_first(
        &mut self,
        table_slot: usize,
        ss: usize,
        se: usize,
        al: u32,
        block: &mut [i16; 64],
    ) -> Result<()> {
        if self.eobrun > 0 {
            self.eobrun -= 1;
            return Ok(());
        }
        let table = self.ac_tables[table_slot].as_ref().expect("ac table");
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
                block[ZIGZAG[k]] = (extend(raw, s) << al) as i16;
                k += 1;
            } else if r == 15 {
                k += 16;
            } else {
                let mut run = 1u32 << r;
                if r > 0 {
                    run += self.reader.get_bits(r as u32);
                }
                self.eobrun = run - 1;
                break;
            }
        }
        Ok(())
    }

    fn ac_refine(
        &mut self,
        table_slot: usize,
        ss: usize,
        se: usize,
        al: u32,
        block: &mut [i16; 64],
    ) -> Result<()> {
        let p1 = 1i16 << al;
        let m1 = -p1;
        let mut k = ss;
        if self.eobrun == 0 {
            'outer: while k <= se {
                let table = self.ac_tables[table_slot].as_ref().expect("ac table");
                let rs = HuffDecoder::decode_symbol(&mut self.reader, table)?;
                self.symbols += 1;
                let mut r = (rs >> 4) as i32;
                let s = rs & 15;
                let mut pending: i16 = 0;
                if s == 0 {
                    if r != 15 {
                        let mut run = 1u32 << r;
                        if r > 0 {
                            run += self.reader.get_bits(r as u32);
                        }
                        self.eobrun = run;
                        break 'outer;
                    }
                } else {
                    if s != 1 {
                        return Err(Error::Malformed("AC refinement magnitude"));
                    }
                    pending = if self.reader.get_bits(1) != 0 { p1 } else { m1 };
                }
                while k <= se {
                    let pos = ZIGZAG[k];
                    if block[pos] != 0 {
                        if self.reader.get_bits(1) != 0 && (block[pos] & p1) == 0 {
                            block[pos] =
                                block[pos].wrapping_add(if block[pos] >= 0 { p1 } else { m1 });
                        }
                    } else {
                        if r == 0 {
                            break;
                        }
                        r -= 1;
                    }
                    k += 1;
                }
                if pending != 0 {
                    if k > se {
                        return Err(Error::Malformed("AC refinement placement out of band"));
                    }
                    block[ZIGZAG[k]] = pending;
                }
                k += 1;
            }
        }
        if self.eobrun > 0 {
            while k <= se {
                let pos = ZIGZAG[k];
                if block[pos] != 0 && self.reader.get_bits(1) != 0 && (block[pos] & p1) == 0 {
                    block[pos] = block[pos].wrapping_add(if block[pos] >= 0 { p1 } else { m1 });
                }
                k += 1;
            }
            self.eobrun -= 1;
        }
        Ok(())
    }
}

fn decode_one_scan(
    scan: &Scan<'_>,
    prog: &ProgressiveParsed<'_>,
    geom: &Geometry,
    coef: &mut CoefBuffer,
    rows: &mut [RowMetrics],
) -> Result<()> {
    let h = &scan.header;
    let dc_scan = h.is_dc();
    let refining = h.is_refinement();
    let needs_dc = dc_scan && !refining;
    let needs_ac = !dc_scan;
    let mut sd = ScanDecoder::new(scan, needs_dc, needs_ac)?;

    if dc_scan && h.comps.len() > 1 {
        for (mcu_y, row_metrics) in rows.iter_mut().enumerate().take(geom.mcus_y) {
            let bits_before = sd.reader.bits_consumed();
            let syms_before = sd.symbols;
            for mcu_x in 0..geom.mcus_x {
                sd.maybe_restart()?;
                for sc in &h.comps {
                    let comp = &prog.frame.components[sc.comp];
                    for v in 0..comp.v_samp {
                        for hx in 0..comp.h_samp {
                            let bx = mcu_x * comp.h_samp + hx;
                            let by = mcu_y * comp.v_samp + v;
                            let idx = geom.block_index(sc.comp, bx, by);
                            let block = coef.block_mut(idx);
                            if refining {
                                sd.dc_refine(h.al, block);
                            } else {
                                sd.dc_first(sc.dc_tbl, sc.comp, h.al, block)?;
                            }
                        }
                    }
                }
            }
            row_metrics.bits += sd.reader.bits_consumed() - bits_before;
            row_metrics.symbols += sd.symbols - syms_before;
        }
    } else {
        let sc = h.comps[0];
        let comp = &geom.comps[sc.comp];
        let (bw, bh) = non_interleaved_grid(geom, sc.comp);
        for by in 0..bh {
            let bits_before = sd.reader.bits_consumed();
            let syms_before = sd.symbols;
            for bx in 0..bw {
                sd.maybe_restart()?;
                let idx = geom.block_index(sc.comp, bx, by);
                let block = coef.block_mut(idx);
                match (dc_scan, refining) {
                    (true, false) => sd.dc_first(sc.dc_tbl, sc.comp, h.al, block)?,
                    (true, true) => sd.dc_refine(h.al, block),
                    (false, false) => sd.ac_first(sc.ac_tbl, h.ss, h.se, h.al, block)?,
                    (false, true) => sd.ac_refine(sc.ac_tbl, h.ss, h.se, h.al, block)?,
                }
            }
            let row = (by / comp.v_samp).min(rows.len() - 1);
            let m = &mut rows[row];
            m.bits += sd.reader.bits_consumed() - bits_before;
            m.symbols += sd.symbols - syms_before;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::encode::{encode_rgb_progressive, ScanPreset};
    use super::super::parse::parse_progressive;
    use super::*;
    use crate::encoder::EncodeParams;
    use crate::types::Subsampling;

    /// A gradient with seeded noise of amplitude `detail` on top: smooth
    /// images leave long EOB runs in the high bands, noisy ones dense
    /// refinement histories.
    fn image(w: usize, h: usize, detail: u32, seed: u64) -> Vec<u8> {
        let mut s = seed | 1;
        let mut rgb = Vec::with_capacity(w * h * 3);
        for y in 0..h {
            for x in 0..w {
                for c in 0..3 {
                    s = s
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let base = (x * 255 / w + y * 128 / h + c * 40) as u32;
                    let noise = ((s >> 40) as u32) % (detail + 1);
                    rgb.push(((base + noise) & 0xFF) as u8);
                }
            }
        }
        rgb
    }

    /// Seeded damage after the first scan's entropy data starts (so the
    /// frame, and with it the geometry, survives): a few flipped bits, or a
    /// truncation.
    fn mutants(file: &[u8], from: usize, seed: u64, n: usize) -> Vec<Vec<u8>> {
        let mut s = seed | 1;
        let mut next = |m: usize| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) as usize % m
        };
        (0..n)
            .map(|i| {
                let mut f = file.to_vec();
                if i % 3 == 2 {
                    f.truncate(from + next(file.len() - from));
                } else {
                    for _ in 0..1 + next(3) {
                        let at = from + next(file.len() - from);
                        f[at] ^= 1 << next(8);
                    }
                }
                f
            })
            .collect()
    }

    /// Run both decoders on one stream with the same options; everything
    /// observable must agree. Returns whether the decode failed.
    fn agree(
        file: &[u8],
        pooled: &mut CoefBuffer,
        max_scans: Option<usize>,
        tolerant: bool,
        what: &str,
    ) -> Option<bool> {
        let prog = parse_progressive(file).ok()?;
        let f = &prog.frame;
        let geom = Geometry::new(f.width, f.height, f.subsampling).expect("geometry");
        let mut want_coef = CoefBuffer::new(&geom);
        let want = decode_scans(&prog, &geom, &mut want_coef, max_scans, tolerant);
        pooled.reset_for(&geom);
        let got = super::super::decode::decode_scans(&prog, &geom, pooled, max_scans, tolerant);
        assert_eq!(got, want, "{what}: outcome or error");
        if want.is_ok() {
            assert!(
                pooled.as_slice() == want_coef.as_slice(),
                "{what}: coefficients"
            );
            let eobs = |c: &CoefBuffer| (0..c.num_blocks()).map(|b| c.eob(b)).collect::<Vec<_>>();
            assert_eq!(eobs(pooled), eobs(&want_coef), "{what}: EOB sidecar");
        }
        Some(want.is_err())
    }

    #[test]
    fn mask_decoder_matches_the_reference_on_pristine_and_damaged_streams() {
        let shapes = [
            (1usize, 1usize),
            (13, 7),
            (1, 40),
            (40, 1),
            (17, 17),
            (48, 33),
        ];
        let (mut calls, mut errors, mut truncated) = (0usize, 0usize, 0usize);
        // One pooled buffer across every shape: the masks must be re-zeroed
        // and re-sized by each fill, never inherited.
        let mut pooled = CoefBuffer::new(&Geometry::new(1, 1, Subsampling::S444).unwrap());
        for (si, &(w, h)) in shapes.iter().enumerate() {
            for preset in [ScanPreset::Standard10, ScanPreset::Spectral4] {
                for sub in [Subsampling::S444, Subsampling::S422, Subsampling::S420] {
                    for restart_interval in [0usize, 3] {
                        for (quality, detail) in [(60u8, 12u32), (92, 90)] {
                            let seed = (si * 1000 + quality as usize + restart_interval) as u64;
                            let rgb = image(w, h, detail, seed);
                            let params = EncodeParams {
                                quality,
                                subsampling: sub,
                                restart_interval,
                            };
                            let file =
                                encode_rgb_progressive(&rgb, w as u32, h as u32, &params, preset)
                                    .expect("encode");
                            let scans = parse_progressive(&file).expect("pristine").scans;
                            let from = scans[0].data_offset;
                            let mut streams = vec![file.clone()];
                            streams.extend(mutants(&file, from, seed ^ 0x5EED, 6));
                            for (mi, stream) in streams.iter().enumerate() {
                                for max_scans in [None, Some(1), Some(scans.len() / 2)] {
                                    for tolerant in [false, true] {
                                        let what = format!(
                                            "{w}x{h} {preset:?} {} DRI {restart_interval} \
                                             q{quality} mutant {mi} {max_scans:?} \
                                             tolerant {tolerant}",
                                            sub.notation()
                                        );
                                        let Some(failed) =
                                            agree(stream, &mut pooled, max_scans, tolerant, &what)
                                        else {
                                            continue;
                                        };
                                        calls += 1;
                                        errors += usize::from(failed);
                                        truncated += usize::from(!failed && tolerant && mi > 0);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        // The corpus must reach the error and salvage paths, not only
        // clean decodes.
        assert!(calls > 4000, "{calls} decode pairs");
        assert!(errors > 100, "{errors} errors in {calls} decode pairs");
        assert!(truncated > 100, "{truncated} tolerant salvages in {calls}");
    }

    /// The one corrupt write the history invariant has to special-case:
    /// `(extend(raw, 15) << 2) as i16` with `raw = 2^14` wraps to 0, so the
    /// first pass must leave that position zero-history, and the following
    /// refinement's `(0, 1)` symbol places its `+2` right there. A mask that
    /// flagged the write would read a correction bit instead and report the
    /// placement out of band.
    #[test]
    fn a_first_pass_that_wraps_to_zero_stays_zero_history() {
        use crate::bitio::BitWriter;
        use crate::huffman::optimize::FREQ_SLOTS;
        use crate::huffman::{spec_from_frequencies, EncodeTable, HuffEncoder};
        use crate::markers;
        use crate::quant::QuantTable;

        let geom = Geometry::new(8, 8, Subsampling::S444).unwrap();
        let frame = crate::encoder::frame_info(&geom, &EncodeParams::default());
        let mut out = Vec::new();
        markers::write_soi(&mut out);
        markers::write_dqt(&mut out, 0, &QuantTable::luma_for_quality(80).unwrap());
        markers::write_sof(&mut out, markers::m::SOF2, &frame);
        // (class, symbol, scan comps, ss, se, ah, al, raw bits after it)
        type ScanCase<'a> = (u8, u8, &'a [(u8, u8, u8)], u8, u8, u8, u8, (u32, u32));
        let scans: [ScanCase; 3] = [
            (
                0,
                0x00,
                &[(1, 0, 0), (2, 0, 0), (3, 0, 0)],
                0,
                0,
                0,
                0,
                (0, 0),
            ),
            (1, 0x0F, &[(1, 0, 0)], 1, 1, 0, 2, (1 << 14, 15)),
            (1, 0x01, &[(1, 0, 0)], 1, 1, 2, 1, (1, 1)),
        ];
        for (class, sym, comps, ss, se, ah, al, (raw, n)) in scans {
            let mut freq = [0u32; FREQ_SLOTS];
            freq[sym as usize] = 1;
            let spec = spec_from_frequencies(&freq).unwrap();
            markers::write_dht(&mut out, class, 0, &spec);
            markers::write_sos_scan(&mut out, comps, ss, se, ah, al);
            let table = EncodeTable::build(&spec).unwrap();
            let mut w = BitWriter::new();
            for _ in comps {
                HuffEncoder::encode_symbol(&mut w, &table, sym).unwrap();
                w.put_bits(raw, n);
            }
            out.extend_from_slice(&w.finish());
        }
        markers::write_eoi(&mut out);

        let prog = parse_progressive(&out).expect("crafted stream parses");
        let mut coef = CoefBuffer::new(&geom);
        super::super::decode::decode_scans(&prog, &geom, &mut coef, None, false)
            .expect("the wrapped coefficient is zero-history");
        assert_eq!(coef.block(0)[ZIGZAG[1]], 2);
        assert_eq!(coef.eob(0), 1);
        agree(&out, &mut coef, None, false, "crafted wrap");
    }
}
