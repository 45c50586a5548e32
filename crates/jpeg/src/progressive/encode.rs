//! Progressive JPEG encoder: spectral-selection / successive-approximation
//! scan scripts over the shared FDCT + quantization pipeline.
//!
//! The corpus needs progressive inputs whose *quantized coefficients* are
//! bit-identical to the baseline encoder's for the same RGB — that is what
//! lets the conformance tests assert progressive-vs-baseline pixel equality
//! in a closed loop. Both encoders therefore share
//! `build_component_planes` and `transform_and_quantize`; only the
//! entropy phase differs.
//!
//! Annex K.5 tables carry no EOBn symbols, so progressive AC scans cannot
//! reuse them. Like the reference encoder, every Huffman scan here runs
//! twice: a counting pass gathers symbol frequencies, an optimal table is
//! built ([`spec_from_frequencies`]), a DHT segment is emitted before the
//! scan's SOS, and an emitting pass writes the bits. The two passes share
//! the EOBRUN counter and the refinement correction-bit buffers (with the
//! same flush thresholds), so their symbol streams are identical by
//! construction.
//!
//! `EncodeParams::restart_interval` is honoured per scan: a restart unit is
//! an MCU of the interleaved DC scans and a block of every other scan, and
//! each interval ends with the EOB run (and the correction bits buffered
//! behind it) flushed, DC predictors reset and an RSTn marker.

use super::decode::non_interleaved_grid;
use crate::bitio::BitWriter;
use crate::coef::CoefBuffer;
use crate::encoder::{build_component_planes, frame_info, transform_and_quantize, EncodeParams};
use crate::error::{Error, Result};
use crate::geometry::Geometry;
use crate::huffman::optimize::FREQ_SLOTS;
use crate::huffman::{magnitude_category, spec_from_frequencies, EncodeTable, HuffEncoder};
use crate::markers;
use crate::types::FrameInfo;
use crate::zigzag::ZIGZAG;

/// One scan of a progressive scan script: which components, which spectral
/// band `[ss, se]`, and which successive-approximation bit positions.
#[derive(Debug, Clone)]
pub struct ScanSpec {
    /// Frame component indices (0 = luma). More than one only for DC scans.
    pub comps: Vec<usize>,
    /// First coefficient of the spectral band (zigzag index).
    pub ss: usize,
    /// Last coefficient of the spectral band (zigzag index).
    pub se: usize,
    /// Successive approximation high: 0 for a first pass, `al + 1` when
    /// refining.
    pub ah: u32,
    /// Successive approximation low: the bit position this scan transmits.
    pub al: u32,
}

impl ScanSpec {
    fn is_dc(&self) -> bool {
        self.ss == 0
    }
    fn is_refinement(&self) -> bool {
        self.ah != 0
    }
}

/// Standard scan scripts for three-component images.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanPreset {
    /// The classic 10-scan script (interleaved DC with one-bit successive
    /// approximation, luma AC split 1–5 / 6–63, two AC refinement rounds) —
    /// the script virtually every progressive photo on the web uses.
    Standard10,
    /// Pure spectral selection, no successive approximation: one DC scan
    /// plus one full-band AC scan per component. The shortest script that
    /// still exercises EOBRUN coding.
    Spectral4,
}

impl ScanPreset {
    /// The script as an ordered list of scans.
    pub fn scans(self) -> Vec<ScanSpec> {
        let s = |comps: &[usize], ss: usize, se: usize, ah: u32, al: u32| ScanSpec {
            comps: comps.to_vec(),
            ss,
            se,
            ah,
            al,
        };
        match self {
            ScanPreset::Standard10 => vec![
                s(&[0, 1, 2], 0, 0, 0, 1),
                s(&[0], 1, 5, 0, 2),
                s(&[2], 1, 63, 0, 1),
                s(&[1], 1, 63, 0, 1),
                s(&[0], 6, 63, 0, 2),
                s(&[0, 1, 2], 0, 0, 1, 0),
                s(&[0], 1, 63, 2, 1),
                s(&[2], 1, 63, 1, 0),
                s(&[1], 1, 63, 1, 0),
                s(&[0], 1, 63, 1, 0),
            ],
            ScanPreset::Spectral4 => vec![
                s(&[0, 1, 2], 0, 0, 0, 0),
                s(&[0], 1, 63, 0, 0),
                s(&[1], 1, 63, 0, 0),
                s(&[2], 1, 63, 0, 0),
            ],
        }
    }
}

/// Encode an interleaved RGB image as a progressive (SOF2) JFIF stream
/// using the given scan script.
pub fn encode_rgb_progressive(
    rgb: &[u8],
    width: u32,
    height: u32,
    params: &EncodeParams,
    preset: ScanPreset,
) -> Result<Vec<u8>> {
    let (w, h) = (width as usize, height as usize);
    if rgb.len() != w * h * 3 {
        return Err(Error::BufferSize {
            expected: w * h * 3,
            got: rgb.len(),
        });
    }
    let geom = Geometry::new(w, h, params.subsampling)?;
    let planes = build_component_planes(rgb, &geom);
    let (coef, quant_l, quant_c) = transform_and_quantize(&planes, &geom, params.quality)?;
    let frame = frame_info(&geom, params);

    let mut out = Vec::new();
    markers::write_soi(&mut out);
    markers::write_app0_jfif(&mut out);
    markers::write_dqt(&mut out, 0, &quant_l);
    markers::write_dqt(&mut out, 1, &quant_c);
    markers::write_sof(&mut out, markers::m::SOF2, &frame);
    if frame.restart_interval > 0 {
        markers::write_dri(&mut out, frame.restart_interval as u16);
    }
    for sspec in preset.scans() {
        encode_scan(&mut out, &coef, &geom, &frame, &sspec)?;
    }
    markers::write_eoi(&mut out);
    Ok(out)
}

/// Where entropy-coded output goes. The counting pass and the emitting
/// pass run the *same* walker code against different sinks, which is what
/// guarantees their symbol streams agree.
trait Sink {
    /// Record/emit one Huffman symbol on table `slot` (0 = luma DC or the
    /// scan's AC table, 1 = chroma DC).
    fn symbol(&mut self, slot: usize, sym: u8) -> Result<()>;
    /// Record/emit raw bits (magnitudes, signs, correction bits).
    fn bits(&mut self, v: u32, n: u32);
    /// Emit restart marker RSTn (padding to a byte first).
    fn restart(&mut self, n: u8);
}

/// First pass: frequency statistics only.
struct CountSink {
    freq: [[u32; FREQ_SLOTS]; 2],
}

impl Sink for CountSink {
    fn symbol(&mut self, slot: usize, sym: u8) -> Result<()> {
        self.freq[slot][sym as usize] += 1;
        Ok(())
    }
    fn bits(&mut self, _v: u32, _n: u32) {}
    fn restart(&mut self, _n: u8) {}
}

/// Second pass: real bits through the optimal tables.
struct EmitSink {
    w: BitWriter,
    tables: [Option<EncodeTable>; 2],
}

impl Sink for EmitSink {
    fn symbol(&mut self, slot: usize, sym: u8) -> Result<()> {
        let table = self.tables[slot].as_ref().expect("encode table for slot");
        HuffEncoder::encode_symbol(&mut self.w, table, sym)
    }
    fn bits(&mut self, v: u32, n: u32) {
        self.w.put_bits(v, n);
    }
    fn restart(&mut self, n: u8) {
        self.w.put_restart_marker(n);
    }
}

/// Cross-block scan state shared between walker invocations: DC predictors,
/// the end-of-band run counter and the refinement correction bits buffered
/// behind it. Reset between the counting and emitting passes.
#[derive(Default)]
struct ScanState {
    dc_pred: [i32; 3],
    eobrun: u32,
    corr_bits: Vec<u8>,
}

/// Reference-encoder flush threshold for buffered correction bits
/// (`MAX_CORR_BITS - DCTSIZE2 + 1` with a 1000-bit buffer).
const CORR_BIT_LIMIT: usize = 937;

/// Emit the pending EOBn symbol plus its extension bits, then the
/// correction bits buffered while the run grew.
fn flush_eobrun<S: Sink>(sink: &mut S, st: &mut ScanState) -> Result<()> {
    if st.eobrun > 0 {
        let mut nbits = 0u32;
        let mut t = st.eobrun >> 1;
        while t != 0 {
            nbits += 1;
            t >>= 1;
        }
        sink.symbol(0, (nbits << 4) as u8)?;
        if nbits > 0 {
            sink.bits(st.eobrun & ((1 << nbits) - 1), nbits);
        }
        st.eobrun = 0;
        for &b in &st.corr_bits {
            sink.bits(b as u32, 1);
        }
        st.corr_bits.clear();
    }
    Ok(())
}

/// Run the walker for one scan against a sink, including the end-of-scan
/// EOBRUN flush. `interval` is the restart interval (0 = none).
fn run_scan<S: Sink>(
    coef: &CoefBuffer,
    geom: &Geometry,
    sspec: &ScanSpec,
    interval: usize,
    sink: &mut S,
) -> Result<()> {
    let mut st = ScanState::default();
    if sspec.is_dc() {
        dc_first_scan(coef, geom, sspec, interval, &mut st, sink)?;
    } else if sspec.is_refinement() {
        ac_refine_scan(coef, geom, sspec, interval, &mut st, sink)?;
    } else {
        ac_first_scan(coef, geom, sspec, interval, &mut st, sink)?;
    }
    flush_eobrun(sink, &mut st)
}

/// The RSTn index due before restart unit `unit` (counted from 0) of a
/// scan with restart interval `interval`, if a marker precedes that unit.
fn restart_before(unit: usize, interval: usize) -> Option<u8> {
    (interval != 0 && unit != 0 && unit.is_multiple_of(interval))
        .then(|| ((unit / interval - 1) & 7) as u8)
}

/// Close a restart interval: flush the EOB run with its buffered
/// correction bits, reset the DC predictors, emit RSTn.
fn restart<S: Sink>(sink: &mut S, st: &mut ScanState, n: u8) -> Result<()> {
    flush_eobrun(sink, st)?;
    st.dc_pred = [0; 3];
    sink.restart(n);
    Ok(())
}

/// Iterate the blocks a DC scan covers (interleaved MCU order for multiple
/// components, the unpadded T.81 grid for a single one) yielding block
/// indices with their component, plus — on the first block of a restart
/// unit that a marker precedes — that marker's RSTn index.
fn for_each_dc_block(
    geom: &Geometry,
    comps: &[usize],
    interval: usize,
    mut f: impl FnMut(usize, usize, Option<u8>) -> Result<()>,
) -> Result<()> {
    if comps.len() > 1 {
        for mcu_y in 0..geom.mcus_y {
            for mcu_x in 0..geom.mcus_x {
                let mut rst = restart_before(mcu_y * geom.mcus_x + mcu_x, interval);
                for &ci in comps {
                    let comp = &geom.comps[ci];
                    for v in 0..comp.v_samp {
                        for hx in 0..comp.h_samp {
                            let bx = mcu_x * comp.h_samp + hx;
                            let by = mcu_y * comp.v_samp + v;
                            f(ci, geom.block_index(ci, bx, by), rst.take())?;
                        }
                    }
                }
            }
        }
    } else {
        let ci = comps[0];
        let (bw, bh) = non_interleaved_grid(geom, ci);
        for by in 0..bh {
            for bx in 0..bw {
                let rst = restart_before(by * bw + bx, interval);
                f(ci, geom.block_index(ci, bx, by), rst)?;
            }
        }
    }
    Ok(())
}

/// DC first pass: Huffman-coded differences of `dc >> Al` (arithmetic
/// shift keeps negatives exact against the decoder's shift-back-up).
fn dc_first_scan<S: Sink>(
    coef: &CoefBuffer,
    geom: &Geometry,
    sspec: &ScanSpec,
    interval: usize,
    st: &mut ScanState,
    sink: &mut S,
) -> Result<()> {
    let al = sspec.al;
    for_each_dc_block(geom, &sspec.comps, interval, |ci, idx, rst| {
        if let Some(n) = rst {
            restart(sink, st, n)?;
        }
        let dc = (coef.block(idx)[0] as i32) >> al;
        let diff = dc - st.dc_pred[ci];
        st.dc_pred[ci] = dc;
        let s = magnitude_category(diff);
        if s > 11 {
            return Err(Error::Malformed("DC difference out of range"));
        }
        let slot = usize::from(ci != 0);
        sink.symbol(slot, s as u8)?;
        if s > 0 {
            let raw = (if diff < 0 { diff - 1 } else { diff }) as u32 & ((1u32 << s) - 1);
            sink.bits(raw, s);
        }
        Ok(())
    })
}

/// DC refinement: one raw bit per block, no entropy tables at all.
fn dc_refine_scan(
    coef: &CoefBuffer,
    geom: &Geometry,
    sspec: &ScanSpec,
    interval: usize,
    w: &mut BitWriter,
) {
    let al = sspec.al;
    for_each_dc_block(geom, &sspec.comps, interval, |_ci, idx, rst| {
        if let Some(n) = rst {
            w.put_restart_marker(n);
        }
        let dc = coef.block(idx)[0] as i32;
        w.put_bits(((dc >> al) & 1) as u32, 1);
        Ok(())
    })
    .expect("dc refine emits no fallible symbols");
}

/// AC first pass over the unpadded grid: (run, size) pairs on shifted
/// magnitudes with cross-block EOB runs.
fn ac_first_scan<S: Sink>(
    coef: &CoefBuffer,
    geom: &Geometry,
    sspec: &ScanSpec,
    interval: usize,
    st: &mut ScanState,
    sink: &mut S,
) -> Result<()> {
    let ci = sspec.comps[0];
    let (bw, bh) = non_interleaved_grid(geom, ci);
    for by in 0..bh {
        for bx in 0..bw {
            if let Some(n) = restart_before(by * bw + bx, interval) {
                restart(sink, st, n)?;
            }
            let block = coef.block(geom.block_index(ci, bx, by));
            let mut r = 0u32;
            for k in sspec.ss..=sspec.se {
                let v = block[ZIGZAG[k]] as i32;
                let temp = (v.unsigned_abs() >> sspec.al) as i32;
                if temp == 0 {
                    r += 1;
                    continue;
                }
                flush_eobrun(sink, st)?;
                while r > 15 {
                    sink.symbol(0, 0xF0)?; // ZRL
                    r -= 16;
                }
                let s = magnitude_category(temp);
                if s > 10 {
                    return Err(Error::Malformed("AC coefficient out of range"));
                }
                sink.symbol(0, ((r as u8) << 4) | s as u8)?;
                // Negative values send the complement of the shifted
                // magnitude: !temp == -temp - 1, the F.1.2.1 trick.
                let raw = (if v < 0 { !(temp as u32) } else { temp as u32 }) & ((1u32 << s) - 1);
                sink.bits(raw, s);
                r = 0;
            }
            if r > 0 {
                st.eobrun += 1;
                if st.eobrun == 0x7FFF {
                    flush_eobrun(sink, st)?;
                }
            }
        }
    }
    Ok(())
}

/// AC refinement pass: correction bits for known-nonzero coefficients
/// buffered behind the symbols that delimit them, newly nonzero `±1`
/// placements, EOB runs carrying the leftovers.
fn ac_refine_scan<S: Sink>(
    coef: &CoefBuffer,
    geom: &Geometry,
    sspec: &ScanSpec,
    interval: usize,
    st: &mut ScanState,
    sink: &mut S,
) -> Result<()> {
    let ci = sspec.comps[0];
    let (bw, bh) = non_interleaved_grid(geom, ci);
    for by in 0..bh {
        for bx in 0..bw {
            if let Some(n) = restart_before(by * bw + bx, interval) {
                restart(sink, st, n)?;
            }
            let block = coef.block(geom.block_index(ci, bx, by));
            // Shifted magnitudes and the last newly-nonzero position: runs
            // beyond it fold into the EOB run instead of ZRL symbols.
            let mut absv = [0i32; 64];
            let mut eob = 0usize;
            for k in sspec.ss..=sspec.se {
                let t = (block[ZIGZAG[k]].unsigned_abs() >> sspec.al) as i32;
                absv[k] = t;
                if t == 1 {
                    eob = k;
                }
            }
            let mut r = 0u32;
            let mut br: Vec<u8> = Vec::new(); // this block's pending correction bits
            for k in sspec.ss..=sspec.se {
                let temp = absv[k];
                if temp == 0 {
                    r += 1;
                    continue;
                }
                while r > 15 && k <= eob {
                    flush_eobrun(sink, st)?;
                    sink.symbol(0, 0xF0)?;
                    r -= 16;
                    for &b in &br {
                        sink.bits(b as u32, 1);
                    }
                    br.clear();
                }
                if temp > 1 {
                    // History coefficient: append its next bit.
                    br.push((temp & 1) as u8);
                    continue;
                }
                flush_eobrun(sink, st)?;
                sink.symbol(0, ((r as u8) << 4) | 1)?;
                sink.bits(u32::from(block[ZIGZAG[k]] >= 0), 1);
                for &b in &br {
                    sink.bits(b as u32, 1);
                }
                br.clear();
                r = 0;
            }
            if r > 0 || !br.is_empty() {
                st.eobrun += 1;
                st.corr_bits.extend_from_slice(&br);
                if st.eobrun == 0x7FFF || st.corr_bits.len() > CORR_BIT_LIMIT {
                    flush_eobrun(sink, st)?;
                }
            }
        }
    }
    Ok(())
}

/// Encode one scan: optimal tables (if any), DHT + SOS headers, entropy
/// bits — appended to `out`.
fn encode_scan(
    out: &mut Vec<u8>,
    coef: &CoefBuffer,
    geom: &Geometry,
    frame: &FrameInfo,
    sspec: &ScanSpec,
) -> Result<()> {
    if sspec.is_dc() && sspec.is_refinement() {
        // Raw-bit scan: no Huffman tables, single pass.
        write_scan_header(out, frame, sspec);
        let mut w = BitWriter::new();
        dc_refine_scan(coef, geom, sspec, frame.restart_interval, &mut w);
        out.extend_from_slice(&w.finish());
        return Ok(());
    }

    // Counting pass.
    let mut count = CountSink {
        freq: [[0u32; FREQ_SLOTS]; 2],
    };
    run_scan(coef, geom, sspec, frame.restart_interval, &mut count)?;

    // Optimal tables for the slots the scan used, DHT segments in slot
    // order. DC scans put luma on slot 0 and chroma on slot 1; AC scans
    // use slot 0 of the AC class.
    let class = u8::from(!sspec.is_dc());
    let mut tables: [Option<EncodeTable>; 2] = [None, None];
    for (slot, table) in tables.iter_mut().enumerate() {
        if count.freq[slot].iter().any(|&f| f != 0) {
            let spec = spec_from_frequencies(&count.freq[slot])?;
            markers::write_dht(out, class, slot as u8, &spec);
            *table = Some(EncodeTable::build(&spec)?);
        }
    }

    write_scan_header(out, frame, sspec);

    // Emitting pass.
    let mut emit = EmitSink {
        w: BitWriter::new(),
        tables,
    };
    run_scan(coef, geom, sspec, frame.restart_interval, &mut emit)?;
    out.extend_from_slice(&emit.w.finish());
    Ok(())
}

fn write_scan_header(out: &mut Vec<u8>, frame: &FrameInfo, sspec: &ScanSpec) {
    let table_free = sspec.is_dc() && sspec.is_refinement();
    let comps: Vec<(u8, u8, u8)> = sspec
        .comps
        .iter()
        .map(|&ci| {
            let id = frame.components[ci].id;
            let dc_tbl = if sspec.is_dc() && !table_free {
                u8::from(ci != 0)
            } else {
                0
            };
            (id, dc_tbl, 0u8)
        })
        .collect();
    markers::write_sos_scan(
        out,
        &comps,
        sspec.ss as u8,
        sspec.se as u8,
        sspec.ah as u8,
        sspec.al as u8,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progressive::decode::decode_scans;
    use crate::progressive::parse::{is_progressive, parse_progressive};
    use crate::types::Subsampling;

    fn noise_rgb(w: usize, h: usize, seed: u32) -> Vec<u8> {
        let mut state = seed | 1;
        (0..w * h * 3)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                (state >> 24) as u8
            })
            .collect()
    }

    fn gradient_rgb(w: usize, h: usize) -> Vec<u8> {
        let mut rgb = Vec::with_capacity(w * h * 3);
        for y in 0..h {
            for x in 0..w {
                rgb.push((x * 255 / w.max(1)) as u8);
                rgb.push((y * 255 / h.max(1)) as u8);
                rgb.push(128);
            }
        }
        rgb
    }

    fn reference_coefficients(rgb: &[u8], geom: &Geometry, quality: u8) -> CoefBuffer {
        let planes = build_component_planes(rgb, geom);
        let (coef, _, _) = transform_and_quantize(&planes, geom, quality).unwrap();
        coef
    }

    #[test]
    fn roundtrip_recovers_exact_coefficients() {
        let cases = [
            (ScanPreset::Standard10, Subsampling::S420, 37usize, 29usize),
            (ScanPreset::Standard10, Subsampling::S444, 64, 48),
            (ScanPreset::Spectral4, Subsampling::S422, 40, 24),
        ];
        // DRI 3: EOB runs, buffered correction bits and DC predictors all
        // cross restart boundaries in every scan kind.
        let runs = cases
            .into_iter()
            .enumerate()
            .flat_map(|c| [(c, 0usize), (c, 3)]);
        for ((ci_case, (preset, sub, w, h)), restart_interval) in runs {
            let rgb = if ci_case == 1 {
                gradient_rgb(w, h) // smooth content: long EOB runs
            } else {
                noise_rgb(w, h, 13 + ci_case as u32)
            };
            let params = EncodeParams {
                quality: 80,
                subsampling: sub,
                restart_interval,
            };
            let file = encode_rgb_progressive(&rgb, w as u32, h as u32, &params, preset).unwrap();
            assert!(is_progressive(&file));
            let prog = parse_progressive(&file).unwrap();
            assert!(prog.complete && prog.damage.is_none());
            assert_eq!(prog.scans.len(), preset.scans().len());
            assert!(prog
                .scans
                .iter()
                .all(|s| s.restart_interval == restart_interval));

            let geom = Geometry::new(w, h, sub).unwrap();
            let want = reference_coefficients(&rgb, &geom, 80);
            let mut got = CoefBuffer::new(&geom);
            let out = decode_scans(&prog, &geom, &mut got, None, false).unwrap();
            assert!(!out.truncated);
            assert_eq!(out.scans_decoded, prog.scans.len());

            for (ci, comp) in geom.comps.iter().enumerate() {
                let (bwu, bhu) = non_interleaved_grid(&geom, ci);
                for by in 0..comp.height_blocks {
                    for bx in 0..comp.width_blocks {
                        let idx = geom.block_index(ci, bx, by);
                        let wv = want.block(idx);
                        let gv = got.block(idx);
                        if bx < bwu && by < bhu {
                            assert_eq!(wv, gv, "comp {ci} block ({bx},{by})");
                        } else {
                            // MCU-padding blocks: covered by the interleaved
                            // DC scan, skipped by non-interleaved AC scans.
                            assert_eq!(wv[0], gv[0], "comp {ci} pad DC ({bx},{by})");
                            assert!(gv[1..].iter().all(|&c| c == 0));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn dc_only_prefix_is_flat_blocks() {
        let (w, h) = (48usize, 32usize);
        let rgb = noise_rgb(w, h, 29);
        let params = EncodeParams::default();
        let file =
            encode_rgb_progressive(&rgb, w as u32, h as u32, &params, ScanPreset::Standard10)
                .unwrap();
        let prog = parse_progressive(&file).unwrap();
        let geom = Geometry::new(w, h, params.subsampling).unwrap();
        let want = reference_coefficients(&rgb, &geom, params.quality);
        let mut got = CoefBuffer::new(&geom);
        let out = decode_scans(&prog, &geom, &mut got, Some(1), false).unwrap();
        assert_eq!(out.scans_decoded, 1);
        assert_eq!(out.refine_passes, 0);
        for idx in 0..got.num_blocks() {
            let gv = got.block(idx);
            // Scan 1 transmits dc >> 1, shifted back up.
            assert_eq!(gv[0] as i32, ((want.block(idx)[0] as i32) >> 1) << 1);
            assert!(gv[1..].iter().all(|&c| c == 0));
            assert_eq!(got.eob(idx), 0);
        }
        // Zero scans is a well-defined (flat gray) render.
        let mut empty = CoefBuffer::new(&geom);
        let out0 = decode_scans(&prog, &geom, &mut empty, Some(0), false).unwrap();
        assert_eq!(out0.scans_decoded, 0);
        assert!(empty.as_slice().iter().all(|&c| c == 0));
    }

    #[test]
    fn refinement_passes_are_counted() {
        let (w, h) = (24usize, 24usize);
        let rgb = noise_rgb(w, h, 31);
        let file = encode_rgb_progressive(
            &rgb,
            w as u32,
            h as u32,
            &EncodeParams::default(),
            ScanPreset::Standard10,
        )
        .unwrap();
        let prog = parse_progressive(&file).unwrap();
        assert_eq!(prog.refinement_scans(), 5); // scans 6..10 refine
        let geom = Geometry::new(w, h, Subsampling::S422).unwrap();
        let mut coef = CoefBuffer::new(&geom);
        let out = decode_scans(&prog, &geom, &mut coef, None, false).unwrap();
        assert_eq!(out.refine_passes, 5);
    }
}
