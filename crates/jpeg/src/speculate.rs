//! Speculative self-synchronizing Huffman decoding of restart-free scans.
//!
//! The paper calls entropy decoding "strictly sequential" because "the JPEG
//! standard does not enforce the self-synchronization property" (§1). In
//! practice, however, Huffman streams *do* self-synchronize: a decoder
//! started at an arbitrary byte offset produces garbage for a short prefix
//! and then converges onto the true codeword boundaries (Klein & Wiseman;
//! Weißenberger & Schmidt use exactly this to decode JPEG on GPUs). This
//! module exploits that statistically-certain convergence while keeping the
//! output **provably bit-identical** to the sequential pass:
//!
//! 1. [`plan_chunks`] splits a marker-free payload into evenly spaced,
//!    byte-aligned chunks (start bytes nudged off stuffed `FF 00` pairs).
//! 2. Each chunk is decoded speculatively by [`decode_chunk_speculative`]
//!    into a staging area, recording at every MCU boundary the canonical
//!    raw-bit position ([`crate::bitio::BitReader::bit_checkpoint`]) and the
//!    worker-local DC predictors. Chunk workers are embarrassingly parallel.
//! 3. [`stitch_segment`] replays the stream exactly: a single reconciling
//!    decoder walks the chunks in order, re-decodes each chunk's short
//!    unconverged prefix, and — the moment its canonical position equals a
//!    staged checkpoint — **adopts** the remaining staged MCUs wholesale,
//!    fixing up DC coefficients by the per-component predictor delta and
//!    jumping to the worker's exit state.
//!
//! Correctness rests on determinism: decoding is a pure function of the
//! canonical bit position and the byte slice, so once positions agree, the
//! staged blocks, metrics, exit state — and any staged *error* — are exactly
//! what the sequential decoder would produce. A chunk that never converges
//! (possible only on corrupt data) is simply re-decoded exactly; the fast
//! path is an optimization the slow path never depends on.

use crate::bitio::BitReader;
use crate::coef::CoefBuffer;
use crate::entropy::HuffmanTables;
use crate::error::Result;
use crate::geometry::Geometry;
use crate::huffman::HuffDecoder;
use crate::metrics::RowMetrics;

/// Minimum payload bytes per speculative chunk. Convergence prefixes are a
/// handful of MCUs (tens of bytes); chunks far larger than the prefix keep
/// the waste fraction negligible while still letting small test images
/// exercise the path.
pub const MIN_CHUNK_BYTES: usize = 384;

/// Observability counters of one speculative decode (ISSUE 6 satellite:
/// surfaced through `SessionStats`/`ServerStats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpecStats {
    /// Speculative chunk workers launched (the leading exact chunk included).
    pub chunks: u64,
    /// Chunks whose staged positions the stitch pass converged onto.
    pub synced: u64,
    /// Staged MCUs adopted verbatim (modulo the DC predictor fix-up).
    pub adopted_mcus: u64,
    /// Staged MCUs discarded as pre-convergence garbage.
    pub wasted_mcus: u64,
    /// MCUs the stitch pass re-decoded exactly (convergence gaps).
    pub redecoded_mcus: u64,
}

impl SpecStats {
    /// Accumulate another run's counters.
    pub fn merge(&mut self, other: &SpecStats) {
        self.chunks += other.chunks;
        self.synced += other.synced;
        self.adopted_mcus += other.adopted_mcus;
        self.wasted_mcus += other.wasted_mcus;
        self.redecoded_mcus += other.redecoded_mcus;
    }

    /// Mean convergence prefix (wasted + re-decoded MCUs) per speculative
    /// chunk boundary — the quantity `profile::train` fits into the cost
    /// model's speculation-waste term. The leading chunk starts exact, so
    /// boundaries are `chunks - 1`.
    pub fn prefix_mcus_per_boundary(&self) -> f64 {
        let boundaries = self.chunks.saturating_sub(1);
        if boundaries == 0 {
            return 0.0;
        }
        (self.wasted_mcus + self.redecoded_mcus) as f64 / boundaries as f64
    }
}

/// Work counters of one speculatively decoded MCU.
#[derive(Debug, Clone, Copy, Default)]
pub struct McuMetrics {
    /// Bits consumed.
    pub bits: u32,
    /// Huffman symbols decoded (DC included).
    pub symbols: u32,
    /// Nonzero coefficients (DC included).
    pub nonzero: u32,
}

/// MCU-granular Huffman decoder resumable from an arbitrary byte offset of a
/// marker-free payload. Used both by the speculative chunk workers (starting
/// mid-stream with zeroed predictors) and by the stitch pass's exact
/// reconciling decoder (starting at offset 0).
pub struct McuDecoder<'a> {
    reader: BitReader<'a>,
    tables: &'a HuffmanTables,
    /// Running DC predictors — worker-local (relative) when started
    /// mid-stream, absolute for the exact decoder.
    pub dc_pred: [i32; 4],
}

impl<'a> McuDecoder<'a> {
    /// Build a decoder over `payload` starting at `start_byte`, borrowing
    /// the image's Huffman tables.
    pub fn new_at(tables: &'a HuffmanTables, payload: &'a [u8], start_byte: usize) -> Self {
        McuDecoder {
            reader: BitReader::new_at(payload, start_byte),
            tables,
            dc_pred: [0; 4],
        }
    }

    /// Canonical raw-bit position of the next codeword (see
    /// [`BitReader::bit_checkpoint`]).
    #[inline]
    pub fn checkpoint(&self) -> u64 {
        self.reader.bit_checkpoint()
    }

    /// Jump to another decoder's captured reader state and predictors.
    fn restore(&mut self, reader: BitReader<'a>, dc_pred: [i32; 4]) {
        self.reader = reader;
        self.dc_pred = dc_pred;
    }

    /// Decode one MCU, handing each block to `emit(ci, v, h, coefs, eob)` in
    /// scan order. Block DC values reflect `self.dc_pred` — relative when
    /// the decoder started mid-stream.
    pub fn decode_next_mcu(
        &mut self,
        emit: &mut impl FnMut(usize, usize, usize, &[i16; 64], u8),
    ) -> Result<McuMetrics> {
        let bits_before = self.reader.bits_consumed();
        let mut m = McuMetrics::default();
        for (ci, comp) in self.tables.components().iter().enumerate() {
            let (dc, ac) = self.tables.of(comp);
            for v in 0..comp.v_samp {
                for h in 0..comp.h_samp {
                    let mut block = [0i16; 64];
                    let diff = HuffDecoder::decode_dc_diff(&mut self.reader, dc)?;
                    self.dc_pred[ci] = self.dc_pred[ci].wrapping_add(diff);
                    block[0] = self.dc_pred[ci] as i16;
                    let (symbols, nonzero, eob) =
                        HuffDecoder::decode_ac_block(&mut self.reader, ac, &mut block)?;
                    m.symbols += symbols + 1;
                    m.nonzero += nonzero + (diff != 0) as u32;
                    emit(ci, v, h, &block, eob);
                }
            }
        }
        m.bits = (self.reader.bits_consumed() - bits_before) as u32;
        Ok(m)
    }
}

/// Staged output of one speculative chunk worker.
pub struct StagedChunk<'a> {
    /// Payload byte offset this worker started at.
    pub start_byte: usize,
    /// Canonical bit position at the start of each staged MCU, strictly
    /// increasing; one entry per staged MCU.
    checkpoints: Vec<u64>,
    /// Worker-local DC predictors before each checkpointed MCU.
    pred_before: Vec<[i32; 4]>,
    /// Flat staging area: `staged × blocks_per_mcu` blocks of 64 coefficients.
    blocks: Vec<i16>,
    /// EOB sidecar, one per staged block.
    eobs: Vec<u8>,
    /// Work counters per staged MCU.
    mcu_metrics: Vec<McuMetrics>,
    /// Reader state + predictors after the last staged MCU (absent when no
    /// attempt survived to the stop boundary).
    exit: Option<(BitReader<'a>, [i32; 4])>,
    /// MCUs decoded and thrown away across failed attempts (a mis-phased
    /// speculative decode hits `BadHuffmanCode` on garbage; the worker then
    /// restarts one byte past the failure point).
    discarded_mcus: u64,
    /// Total speculative work done (garbage prefix, failed attempts and all)
    /// — what the virtual-time scheduler prices this worker with.
    pub metrics: RowMetrics,
}

impl StagedChunk<'_> {
    /// Number of fully staged MCUs.
    pub fn staged(&self) -> usize {
        self.mcu_metrics.len()
    }

    /// Canonical bit positions recorded at staged MCU boundaries.
    pub fn checkpoints(&self) -> &[u64] {
        &self.checkpoints
    }
}

/// Split `payload` into up to `want` speculative chunks of at least
/// [`MIN_CHUNK_BYTES`], returning `(start, stop)` byte ranges. Starts are
/// nudged off the `00` of stuffed `FF 00` pairs so a mid-stream reader
/// classifies every byte it can reach exactly like a reader coming from the
/// left. The first chunk always starts at 0.
pub fn plan_chunks(payload: &[u8], want: usize) -> Vec<(usize, usize)> {
    let max_n = (payload.len() / MIN_CHUNK_BYTES).max(1);
    let n = want.clamp(1, max_n);
    let mut starts: Vec<usize> = Vec::with_capacity(n);
    for i in 0..n {
        let mut s = i * payload.len() / n;
        while s > 0 && s < payload.len() && payload[s] == 0x00 && payload[s - 1] == 0xFF {
            s += 1;
        }
        if starts.last().is_none_or(|&p| s > p) {
            starts.push(s);
        }
    }
    let mut out = Vec::with_capacity(starts.len());
    for (i, &s) in starts.iter().enumerate() {
        let stop = starts.get(i + 1).copied().unwrap_or(payload.len());
        if s < stop || i == 0 {
            out.push((s, stop));
        }
    }
    out
}

/// Speculatively decode one chunk of a marker-free `payload` (a whole
/// no-restart scan, or one restart interval): start at `start_byte` with
/// zeroed predictors, stage MCUs until the first MCU boundary at or past
/// `stop_byte` (bit positions ≥ `8·stop_byte`), a marker/EOF, or `max_mcus`
/// staged.
///
/// A mis-phased speculative decode can hit `BadHuffmanCode` on garbage; the
/// worker then discards the attempt and **restarts one byte past the
/// failure point** — the ISSUE's "trying bit phases as needed". Discarding
/// is safe: an attempt that errors can never have passed through a true
/// stream position (decoding from a true position replays the valid
/// sequential decode), so none of its checkpoints were adoptable anyway.
/// Symmetrically, the kept error-free attempt can never sync ahead of a
/// *true* stream error — so adoption can't mask one. Decode errors are
/// therefore never staged; on corrupt data they surface from the stitch
/// pass's exact reconciler with the sequential decoder's exact error.
pub fn decode_chunk_speculative<'a>(
    geom: &Geometry,
    tables: &'a HuffmanTables,
    payload: &'a [u8],
    start_byte: usize,
    stop_byte: usize,
    max_mcus: usize,
) -> StagedChunk<'a> {
    let bpm = geom.blocks_per_mcu();
    let stop_bits = 8 * stop_byte as u64;
    let mut chunk = StagedChunk {
        start_byte,
        checkpoints: Vec::new(),
        pred_before: Vec::new(),
        blocks: Vec::new(),
        eobs: Vec::new(),
        mcu_metrics: Vec::new(),
        exit: None,
        discarded_mcus: 0,
        metrics: RowMetrics::default(),
    };
    let mut attempt_start = start_byte;
    'attempts: while attempt_start < stop_byte.min(payload.len()) || attempt_start == start_byte {
        // Never start on the 00 of a stuffed FF 00 pair (it carries no bits
        // and a left-arriving reader would skip it).
        while attempt_start > 0
            && attempt_start < payload.len()
            && payload[attempt_start] == 0x00
            && payload[attempt_start - 1] == 0xFF
        {
            attempt_start += 1;
        }
        let mut dec = McuDecoder::new_at(tables, payload, attempt_start);
        loop {
            let cp = dec.checkpoint();
            if cp == u64::MAX || cp >= stop_bits || chunk.staged() >= max_mcus {
                chunk.exit = Some((dec.reader.clone(), dec.dc_pred));
                break 'attempts;
            }
            chunk.checkpoints.push(cp);
            chunk.pred_before.push(dec.dc_pred);
            let res = dec.decode_next_mcu(&mut |_ci, _v, _h, block, eob| {
                chunk.blocks.extend_from_slice(block);
                chunk.eobs.push(eob);
            });
            match res {
                Ok(m) => {
                    chunk.mcu_metrics.push(m);
                    chunk.metrics.bits += m.bits as u64;
                    chunk.metrics.symbols += m.symbols as u64;
                    chunk.metrics.nonzero_coefs += m.nonzero as u64;
                    chunk.metrics.blocks += bpm as u64;
                    for &e in &chunk.eobs[chunk.eobs.len() - bpm..] {
                        chunk.metrics.record_eob(e);
                    }
                }
                Err(_) => {
                    // Discard the attempt, restart past the failure point.
                    chunk.discarded_mcus += chunk.staged() as u64;
                    let fail_cp = dec.checkpoint();
                    chunk.checkpoints.clear();
                    chunk.pred_before.clear();
                    chunk.blocks.clear();
                    chunk.eobs.clear();
                    chunk.mcu_metrics.clear();
                    if fail_cp == u64::MAX {
                        break 'attempts; // failed inside EOF/marker padding
                    }
                    attempt_start = ((fail_cp / 8 + 1) as usize).max(attempt_start + 1);
                    continue 'attempts;
                }
            }
        }
    }
    chunk
}

/// Outcome of stitching one segment's staged chunks.
#[derive(Debug, Clone, Default)]
pub struct StitchOutcome {
    /// Exact re-decode work done serially by the reconciler (gap MCUs).
    pub stitch_metrics: RowMetrics,
    /// Metrics of the blocks actually written — identical to what the
    /// sequential decoder would report for this segment.
    pub written: RowMetrics,
    /// Speculation counters.
    pub stats: SpecStats,
}

/// Reconcile staged chunks into the coefficient buffer, re-decoding
/// convergence gaps exactly. `start_mcu`/`mcu_count` locate the segment in
/// the global MCU sequence (the whole image for a no-restart scan). The
/// result — coefficients, EOBs, and any returned error — is bit-identical
/// to a sequential decode of `payload`.
pub fn stitch_segment<'a>(
    geom: &Geometry,
    tables: &'a HuffmanTables,
    payload: &'a [u8],
    start_mcu: usize,
    mcu_count: usize,
    chunks: &[StagedChunk<'a>],
    coef: &mut CoefBuffer,
) -> Result<StitchOutcome> {
    let mut out = StitchOutcome {
        stats: SpecStats {
            chunks: chunks.len() as u64,
            ..SpecStats::default()
        },
        ..StitchOutcome::default()
    };
    let bpm = geom.blocks_per_mcu();
    let comps: Vec<(usize, usize)> = tables
        .components()
        .iter()
        .map(|c| (c.h_samp, c.v_samp))
        .collect();
    let mut dec = McuDecoder::new_at(tables, payload, 0);
    let mut mcu = 0usize;

    // Decode one MCU exactly, writing blocks straight to their slots and
    // recording their EOB classes into `written` (adopted staged blocks
    // record theirs at adoption time).
    let decode_exact = |dec: &mut McuDecoder<'_>,
                        mcu: usize,
                        coef: &mut CoefBuffer,
                        written: &mut RowMetrics|
     -> Result<McuMetrics> {
        let g = start_mcu + mcu;
        let (mcu_x, row) = (g % geom.mcus_x, g / geom.mcus_x);
        dec.decode_next_mcu(&mut |ci, v, h, block, eob| {
            let (h_samp, v_samp) = comps[ci];
            let idx = geom.block_index(ci, mcu_x * h_samp + h, row * v_samp + v);
            *coef.block_mut(idx) = *block;
            coef.set_eob(idx, eob);
            written.record_eob(eob);
        })
    };

    'chunks: for ch in chunks {
        // MCUs staged by discarded mis-phased attempts are pure waste.
        out.stats.wasted_mcus += ch.discarded_mcus;
        if mcu >= mcu_count {
            break;
        }
        let Some(&last_cp) = ch.checkpoints.last() else {
            continue; // every attempt was discarded: nothing to adopt
        };
        // Advance exactly until we land on one of this chunk's checkpoints
        // or overshoot its coverage.
        let sync = loop {
            if mcu >= mcu_count {
                break 'chunks;
            }
            let cp = dec.checkpoint();
            if cp > last_cp {
                break None;
            }
            if let Ok(j) = ch.checkpoints.binary_search(&cp) {
                break Some(j);
            }
            let m = decode_exact(&mut dec, mcu, coef, &mut out.written)?;
            add_mcu(&mut out.stitch_metrics, &m, bpm);
            add_mcu(&mut out.written, &m, bpm);
            mcu += 1;
            out.stats.redecoded_mcus += 1;
        };
        let Some(j) = sync else {
            // Never converged (corrupt data): all of this chunk's staged
            // work is waste; the reconciler keeps decoding exactly.
            out.stats.wasted_mcus += ch.staged() as u64;
            continue;
        };
        out.stats.synced += 1;
        out.stats.wasted_mcus += j as u64;
        // Adopt staged MCUs j.. with the DC predictor delta folded in.
        let delta: [i32; 4] =
            std::array::from_fn(|c| dec.dc_pred[c].wrapping_sub(ch.pred_before[j][c]));
        let take = (ch.staged() - j).min(mcu_count - mcu);
        for k in j..j + take {
            let g = start_mcu + mcu;
            let (mcu_x, row) = (g % geom.mcus_x, g / geom.mcus_x);
            let mut slot = k * bpm;
            for (ci, &(h_samp, v_samp)) in comps.iter().enumerate() {
                for v in 0..v_samp {
                    for h in 0..h_samp {
                        let idx = geom.block_index(ci, mcu_x * h_samp + h, row * v_samp + v);
                        let src = &ch.blocks[slot * 64..slot * 64 + 64];
                        let dst = coef.block_mut(idx);
                        dst.copy_from_slice(src);
                        dst[0] = dst[0].wrapping_add(delta[ci] as i16);
                        let eob = ch.eobs[slot];
                        coef.set_eob(idx, eob);
                        out.written.record_eob(eob);
                        slot += 1;
                    }
                }
            }
            let m = ch.mcu_metrics[k];
            out.written.bits += m.bits as u64;
            out.written.symbols += m.symbols as u64;
            out.written.nonzero_coefs += m.nonzero as u64;
            out.written.blocks += bpm as u64;
            mcu += 1;
            out.stats.adopted_mcus += 1;
        }
        // Wasted staged MCUs include any tail beyond the image (take capped
        // by mcu_count).
        out.stats.wasted_mcus += (ch.staged() - j - take) as u64;
        if mcu >= mcu_count {
            break;
        }
        if j + take == ch.staged() {
            // Coverage exhausted mid-image: resume from the worker's exit
            // state (a kept attempt always records one) with the predictor
            // delta folded in.
            let (reader, exit_pred) = ch.exit.clone().expect("kept attempt has exit state");
            dec.restore(
                reader,
                std::array::from_fn(|c| exit_pred[c].wrapping_add(delta[c])),
            );
        }
    }
    // Tail (and full fallback when nothing converged): exact decode.
    while mcu < mcu_count {
        let m = decode_exact(&mut dec, mcu, coef, &mut out.written)?;
        add_mcu(&mut out.stitch_metrics, &m, bpm);
        add_mcu(&mut out.written, &m, bpm);
        mcu += 1;
        out.stats.redecoded_mcus += 1;
    }
    Ok(out)
}

fn add_mcu(into: &mut RowMetrics, m: &McuMetrics, blocks: usize) {
    into.bits += m.bits as u64;
    into.symbols += m.symbols as u64;
    into.nonzero_coefs += m.nonzero as u64;
    into.blocks += blocks as u64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{encode_rgb, EncodeParams};
    use crate::entropy::EntropyDecoder;
    use crate::markers::parse_jpeg;
    use crate::testutil::noise_rgb;
    use crate::types::Subsampling;

    fn jpeg_of(w: usize, h: usize, q: u8, sub: Subsampling) -> Vec<u8> {
        encode_rgb(
            &noise_rgb(w * h, 0xA5A5),
            w as u32,
            h as u32,
            &EncodeParams {
                quality: q,
                subsampling: sub,
                restart_interval: 0,
            },
        )
        .unwrap()
    }

    fn spec_decode(jpeg: &[u8], want_chunks: usize) -> (CoefBuffer, CoefBuffer, StitchOutcome) {
        let parsed = parse_jpeg(jpeg).unwrap();
        let geom = Geometry::new(
            parsed.frame.width,
            parsed.frame.height,
            parsed.frame.subsampling,
        )
        .unwrap();
        let total = geom.mcus_x * geom.mcus_y;
        let tables = HuffmanTables::new(&parsed).unwrap();

        let mut seq = EntropyDecoder::new(&parsed, &geom, &tables);
        let mut want = CoefBuffer::new(&geom);
        seq.decode_remaining(&mut want).unwrap();

        let payload = parsed.scan_data;
        let ranges = plan_chunks(payload, want_chunks);
        let chunks: Vec<_> = ranges
            .iter()
            .map(|&(s, e)| decode_chunk_speculative(&geom, &tables, payload, s, e, total))
            .collect();
        let mut got = CoefBuffer::new(&geom);
        let out = stitch_segment(&geom, &tables, payload, 0, total, &chunks, &mut got).unwrap();
        (got, want, out)
    }

    #[test]
    fn checkpoints_strictly_increase() {
        let jpeg = jpeg_of(160, 96, 80, Subsampling::S420);
        let parsed = parse_jpeg(&jpeg).unwrap();
        let geom = Geometry::new(160, 96, Subsampling::S420).unwrap();
        let total = geom.mcus_x * geom.mcus_y;
        let payload = parsed.scan_data;
        let tables = HuffmanTables::new(&parsed).unwrap();
        let ch = decode_chunk_speculative(&geom, &tables, payload, 0, payload.len(), total);
        assert!(ch.staged() > 0);
        assert!(ch.checkpoints.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(ch.discarded_mcus, 0, "chunk 0 starts exact: no restarts");
    }

    #[test]
    fn speculative_decode_is_bit_identical_across_chunk_counts() {
        for sub in [Subsampling::S444, Subsampling::S422, Subsampling::S420] {
            for q in [50u8, 80, 92] {
                let jpeg = jpeg_of(168, 120, q, sub);
                for n in [2usize, 3, 4, 8] {
                    let (got, want, out) = spec_decode(&jpeg, n);
                    assert_eq!(
                        got.as_slice(),
                        want.as_slice(),
                        "{sub:?} q{q} {n} chunks: coefficients differ"
                    );
                    for b in 0..want.num_blocks() {
                        assert_eq!(got.eob(b), want.eob(b), "{sub:?} q{q} {n} chunks: EOB {b}");
                    }
                    assert_eq!(out.stats.chunks as usize, plan_chunks_len(&jpeg, n));
                    // The leading chunk starts exact, so at least it syncs.
                    assert!(out.stats.synced >= 1);
                }
            }
        }
    }

    fn plan_chunks_len(jpeg: &[u8], n: usize) -> usize {
        let parsed = parse_jpeg(jpeg).unwrap();
        plan_chunks(parsed.scan_data, n).len()
    }

    #[test]
    fn written_metrics_match_sequential_totals() {
        let jpeg = jpeg_of(200, 144, 82, Subsampling::S422);
        let parsed = parse_jpeg(&jpeg).unwrap();
        let geom = Geometry::new(200, 144, Subsampling::S422).unwrap();
        let tables = HuffmanTables::new(&parsed).unwrap();
        let mut seq = EntropyDecoder::new(&parsed, &geom, &tables);
        let mut coef = CoefBuffer::new(&geom);
        let seq_total = seq.decode_remaining(&mut coef).unwrap().total();

        let (_, _, out) = spec_decode(&jpeg, 4);
        assert_eq!(out.written.bits, seq_total.bits);
        assert_eq!(out.written.symbols, seq_total.symbols);
        assert_eq!(out.written.nonzero_coefs, seq_total.nonzero_coefs);
        assert_eq!(out.written.blocks, seq_total.blocks);
        assert_eq!(out.written.eob_classes, seq_total.eob_classes);
    }

    #[test]
    fn convergence_prefix_is_short_on_real_streams() {
        let jpeg = jpeg_of(256, 192, 80, Subsampling::S420);
        let (_, _, out) = spec_decode(&jpeg, 4);
        assert!(out.stats.synced >= 2, "stats: {:?}", out.stats);
        // Self-synchronization: the garbage prefix is a few MCUs, not a
        // chunk's worth.
        assert!(
            out.stats.prefix_mcus_per_boundary() < 32.0,
            "prefix too long: {:?}",
            out.stats
        );
        assert!(out.stats.adopted_mcus > out.stats.redecoded_mcus);
    }

    #[test]
    fn truncated_payload_errors_like_sequential() {
        let jpeg = jpeg_of(96, 96, 85, Subsampling::S444);
        let parsed = parse_jpeg(&jpeg).unwrap();
        let geom = Geometry::new(96, 96, Subsampling::S444).unwrap();
        let total = geom.mcus_x * geom.mcus_y;
        let cut = parsed.scan_data.len() / 3;
        let payload = &parsed.scan_data[..cut];
        let tables = HuffmanTables::new(&parsed).unwrap();

        let mut seq = McuDecoder::new_at(&tables, payload, 0);
        let seq_err = (0..total).find_map(|_| seq.decode_next_mcu(&mut |_, _, _, _, _| {}).err());

        let ranges = plan_chunks(payload, 4);
        let chunks: Vec<_> = ranges
            .iter()
            .map(|&(s, e)| decode_chunk_speculative(&geom, &tables, payload, s, e, total))
            .collect();
        let mut coef = CoefBuffer::new(&geom);
        let spec_err = stitch_segment(&geom, &tables, payload, 0, total, &chunks, &mut coef).err();
        assert_eq!(spec_err, seq_err, "speculative error must match sequential");
    }
}
