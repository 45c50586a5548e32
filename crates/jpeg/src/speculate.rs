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
//!    byte-aligned chunks (start bytes nudged off stuffed `FF 00` pairs,
//!    [`off_stuffing`]).
//! 2. Each chunk is decoded speculatively by [`decode_chunk_speculative`]
//!    into a staging area, recording for every block its canonical raw-bit
//!    start position ([`crate::bitio::BitReader::bit_checkpoint`]), bits
//!    and symbols ([`BlockAt`]), and at every MCU boundary the worker-local
//!    DC predictors. Chunk workers are embarrassingly parallel.
//! 3. [`Stitch`] replays the stream exactly, resumable chunk by chunk
//!    ([`stitch_segment`] in one go): a single reconciling decoder walks
//!    the chunks in order, re-decodes each chunk's short
//!    unconverged prefix, and — the moment its canonical position equals a
//!    staged MCU's — **adopts** the remaining staged MCUs wholesale,
//!    fixing up DC coefficients by the per-component predictor delta and
//!    jumping to the worker's exit state. Adopted or re-decoded, every final
//!    MCU is handed on with its blocks' records ([`Stitch::drain_written`]),
//!    so the exact decode's block positions are known without decoding the
//!    scan again.
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

/// One block of a decode: where it starts and its Huffman work. Records are
/// kept in scan order, so a block's place in its MCU follows from its
/// index.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockAt {
    /// The canonical bit position it starts at ([`McuDecoder::checkpoint`]);
    /// `u64::MAX` for a block decoded from the padding past a marker or the
    /// end, which has no position.
    pub at: u64,
    /// Bits consumed.
    pub bits: u32,
    /// Huffman symbols decoded (DC included).
    pub symbols: u32,
}

/// MCU-granular Huffman decoder resumable from an arbitrary byte offset of a
/// marker-free payload. Used by the speculative chunk workers (starting
/// mid-stream with zeroed predictors), by the stitch pass's exact
/// reconciling decoder (starting at offset 0), and block by block by
/// [`converge_blocks`].
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

    /// Decode the next block, of component `ci`, into `block` (all zeros on
    /// entry): its record, its nonzero coefficients (DC included) and its
    /// EOB. The DC value reflects `self.dc_pred` — relative when the decoder
    /// started mid-stream. The record counts the bits and symbols decoded
    /// even where it has no position.
    #[inline]
    pub fn decode_block(&mut self, ci: usize, block: &mut [i16; 64]) -> Result<(BlockAt, u32, u8)> {
        let at = self.reader.bit_checkpoint();
        let before = self.reader.bits_consumed();
        let (dc, ac) = self.tables.of(&self.tables.components()[ci]);
        let diff = HuffDecoder::decode_dc_diff(&mut self.reader, dc)?;
        self.dc_pred[ci] = self.dc_pred[ci].wrapping_add(diff);
        block[0] = self.dc_pred[ci] as i16;
        let (symbols, nonzero, eob) = HuffDecoder::decode_ac_block(&mut self.reader, ac, block)?;
        let rec = BlockAt {
            at,
            bits: (self.reader.bits_consumed() - before) as u32,
            symbols: symbols + 1,
        };
        Ok((rec, nonzero + u32::from(diff != 0), eob))
    }

    /// Decode one MCU block by block ([`Self::decode_block`]), handing each
    /// to `emit(ci, v, h, coefs, record, eob)` in scan order.
    pub fn decode_next_mcu(
        &mut self,
        emit: &mut impl FnMut(usize, usize, usize, &[i16; 64], BlockAt, u8),
    ) -> Result<McuMetrics> {
        let mut m = McuMetrics::default();
        for (ci, comp) in self.tables.components().iter().enumerate() {
            for v in 0..comp.v_samp {
                for h in 0..comp.h_samp {
                    let mut block = [0i16; 64];
                    let (rec, nonzero, eob) = self.decode_block(ci, &mut block)?;
                    m.bits += rec.bits;
                    m.symbols += rec.symbols;
                    m.nonzero += nonzero;
                    emit(ci, v, h, &block, rec, eob);
                }
            }
        }
        Ok(m)
    }
}

/// `byte`, or the first byte past it that is not the `00` of a stuffed
/// `FF 00` pair: such a byte carries no bits and a reader arriving from
/// the left skips it, so a decoder never starts on one.
pub fn off_stuffing(payload: &[u8], mut byte: usize) -> usize {
    while byte > 0 && byte < payload.len() && payload[byte] == 0x00 && payload[byte - 1] == 0xFF {
        byte += 1;
    }
    byte
}

/// Decode speculatively from byte `start` of a marker-free `payload`:
/// `attempt` runs a decoder positioned at an attempt's start and returns
/// `Ok` once it is done. A mis-phased attempt can hit a bad code on
/// garbage; when `attempt` fails, the next one starts one byte past the
/// failure point — unless it failed inside the padding past a marker or
/// the end, or the next start would be at or past `stop`.
fn speculate<'a>(
    tables: &'a HuffmanTables,
    payload: &'a [u8],
    start: usize,
    stop: usize,
    mut attempt: impl FnMut(&mut McuDecoder<'a>) -> Result<()>,
) {
    let mut byte = start;
    loop {
        byte = off_stuffing(payload, byte);
        let mut dec = McuDecoder::new_at(tables, payload, byte);
        if attempt(&mut dec).is_ok() {
            return;
        }
        let fail = dec.checkpoint();
        if fail == u64::MAX {
            return;
        }
        byte = ((fail / 8 + 1) as usize).max(byte + 1);
        if byte >= stop.min(payload.len()) {
            return;
        }
    }
}

/// Staged output of one speculative chunk worker.
pub struct StagedChunk<'a> {
    /// Payload byte offset this worker started at.
    pub start_byte: usize,
    /// Worker-local DC predictors before each staged MCU.
    pred_before: Vec<[i32; 4]>,
    /// Flat staging area: `staged × blocks_per_mcu` blocks of 64 coefficients.
    blocks: Vec<i16>,
    /// EOB sidecar, one per staged block.
    eobs: Vec<u8>,
    /// Record of each staged block; an MCU starts where its first block
    /// does, and the positions strictly increase.
    records: Vec<BlockAt>,
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

    /// The staged MCU of `bpm` blocks that starts at canonical bit `cp`.
    fn mcu_at(&self, cp: u64, bpm: usize) -> Option<usize> {
        let i = self.records.binary_search_by_key(&cp, |r| r.at).ok()?;
        i.is_multiple_of(bpm).then_some(i / bpm)
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
        let s = off_stuffing(payload, i * payload.len() / n);
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
    // The chunk's share of the payload's MCUs, with some slack: staging
    // grows past it only on unevenly dense data.
    let span = stop_byte.saturating_sub(start_byte).min(payload.len());
    let expect = (max_mcus * span / payload.len().max(1)) * 9 / 8 + 4;
    let mut chunk = StagedChunk {
        start_byte,
        pred_before: Vec::with_capacity(expect),
        blocks: Vec::with_capacity(expect * bpm * 64),
        eobs: Vec::with_capacity(expect * bpm),
        records: Vec::with_capacity(expect * bpm),
        mcu_metrics: Vec::with_capacity(expect),
        exit: None,
        discarded_mcus: 0,
        metrics: RowMetrics::default(),
    };
    speculate(tables, payload, start_byte, stop_byte, |dec| loop {
        let cp = dec.checkpoint();
        if cp == u64::MAX || cp >= stop_bits || chunk.staged() >= max_mcus {
            chunk.exit = Some((dec.reader.clone(), dec.dc_pred));
            return Ok(());
        }
        chunk.pred_before.push(dec.dc_pred);
        let res = dec.decode_next_mcu(&mut |_ci, _v, _h, block, rec, eob| {
            chunk.blocks.extend_from_slice(block);
            chunk.eobs.push(eob);
            chunk.records.push(rec);
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
            Err(e) => {
                // Discard the attempt: the next restarts past the failure.
                chunk.discarded_mcus += chunk.staged() as u64;
                chunk.pred_before.clear();
                chunk.blocks.clear();
                chunk.eobs.clear();
                chunk.records.clear();
                chunk.mcu_metrics.clear();
                return Err(e);
            }
        }
    });
    chunk
}

/// Where a decoder started mid-stream falls into step with the exact one
/// ([`converge_blocks`]): the index of the exact decode's block it lands
/// on, if any, and the work it decoded before — blocks whose values are
/// garbage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Convergence {
    /// The index of the exact decode's block the decoder is in sync at.
    pub sync: Option<usize>,
    /// Bits consumed before it, failed attempts included.
    pub bits: u64,
    /// Huffman symbols decoded before it.
    pub symbols: u64,
    /// Blocks decoded before it.
    pub blocks: u64,
}

/// Decode speculatively from byte `start_byte` of a marker-free `payload`,
/// block by block through the MCU's block pattern from its first block,
/// until the decoder starts a block at the position and in the place of
/// its MCU of one of an exact decode's blocks, before byte `stop_byte` —
/// the end of its subsequence — or meets a marker or the end. `exact(bit)`
/// names the exact decode's block that starts at `bit`, if any: its index
/// and its place in its MCU. A mis-phased attempt that fails restarts one
/// byte past the failure point, as [`decode_chunk_speculative`] does; its
/// bits count as garbage. Returns the index the decoder falls into step
/// at, if it does, and the work decoded before it.
pub fn converge_blocks(
    tables: &HuffmanTables,
    payload: &[u8],
    start_byte: usize,
    mut exact: impl FnMut(u64) -> Option<(usize, u8)>,
    stop_byte: usize,
) -> Convergence {
    // The component of each block of an MCU, in scan order.
    let mut pattern = Vec::new();
    for (ci, c) in tables.components().iter().enumerate() {
        pattern.extend(std::iter::repeat_n(ci, c.h_samp * c.v_samp));
    }
    let stop = 8 * stop_byte as u64;
    let mut out = Convergence::default();
    speculate(tables, payload, start_byte, stop_byte, |dec| {
        for (phase, &ci) in pattern.iter().enumerate().cycle() {
            let cp = dec.checkpoint();
            if cp == u64::MAX || cp >= stop {
                break;
            }
            if let Some((j, _)) = exact(cp).filter(|&(_, p)| p as usize == phase) {
                out.sync = Some(j);
                break;
            }
            match dec.decode_block(ci, &mut [0; 64]) {
                Ok((b, _, _)) => {
                    out.bits += b.bits as u64;
                    out.symbols += b.symbols as u64;
                    out.blocks += 1;
                }
                Err(e) => {
                    let fail = dec.checkpoint();
                    if fail != u64::MAX {
                        out.bits += fail.saturating_sub(cp);
                    }
                    return Err(e);
                }
            }
        }
        Ok(())
    });
    out
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

/// One MCU a [`Stitch`] made final: its decode work, and whether the
/// reconciler decoded it itself rather than adopting it from a staging.
/// Its blocks' records travel beside it ([`Stitch::drain_written`]).
#[derive(Debug, Clone, Copy)]
pub struct Written {
    /// The MCU's Huffman work.
    pub metrics: McuMetrics,
    /// Decoded by the reconciler (a convergence gap or the tail).
    pub exact: bool,
}

/// The exact reconciler of one segment, resumable chunk by chunk: each
/// [`Self::push`] takes the segment's next staged chunk in order and
/// leaves every MCU up to the end of that chunk's coverage final in the
/// coefficient buffer; [`Self::finish`] decodes whatever is left. The MCUs
/// final so far ([`Self::done_mcus`]) only ever grow, and the written
/// blocks' metrics are added, MCU by MCU, to the row of the image they
/// belong to, so a caller can hand rows on as soon as they are final.
///
/// Everything written — coefficients, EOBs, per-row metrics and any error —
/// is what a sequential decode of the payload produces, whichever way the
/// chunks were cut.
pub struct Stitch<'a> {
    geom: Geometry,
    comps: Vec<(usize, usize)>,
    dec: McuDecoder<'a>,
    start_mcu: usize,
    mcu_count: usize,
    /// MCUs of the segment final so far.
    mcu: usize,
    /// False once the reconciler's reader no longer sits where a
    /// sequential decoder's would after the final MCUs (staged MCUs were
    /// adopted past the segment's end without an exit state).
    exact_reader: bool,
    /// Set once a push found the segment complete.
    ended: bool,
    out: StitchOutcome,
    /// The MCUs made final since the last [`Self::drain_written`], in order,
    /// and their blocks' records.
    written: Vec<Written>,
    records: Vec<BlockAt>,
}

impl<'a> Stitch<'a> {
    /// A reconciler for the segment of `mcu_count` MCUs from global MCU
    /// `start_mcu` whose entropy bytes start `payload`. The payload may run
    /// on past the segment (its restart marker, say): a reader stops at a
    /// marker either way.
    pub fn new(
        geom: &Geometry,
        tables: &'a HuffmanTables,
        payload: &'a [u8],
        start_mcu: usize,
        mcu_count: usize,
    ) -> Self {
        let comps = (tables.components().iter())
            .map(|c| (c.h_samp, c.v_samp))
            .collect();
        Stitch {
            geom: geom.clone(),
            comps,
            dec: McuDecoder::new_at(tables, payload, 0),
            start_mcu,
            mcu_count,
            mcu: 0,
            exact_reader: true,
            ended: false,
            out: StitchOutcome::default(),
            written: Vec::new(),
            records: Vec::new(),
        }
    }

    /// Global index one past the last final MCU.
    pub fn done_mcus(&self) -> usize {
        self.start_mcu + self.mcu
    }

    /// True once every MCU of the segment is final.
    pub fn is_done(&self) -> bool {
        self.mcu >= self.mcu_count
    }

    /// What the reconciler has done so far.
    pub fn outcome(&self) -> &StitchOutcome {
        &self.out
    }

    /// The MCUs made final since the last call, in order; their blocks'
    /// records, in scan order, are appended to `records`.
    pub fn drain_written(&mut self, records: &mut Vec<BlockAt>) -> std::vec::Drain<'_, Written> {
        records.append(&mut self.records);
        self.written.drain(..)
    }

    /// After the segment's last MCU, read the restart marker that must
    /// follow it, exactly as a sequential decoder does before the next
    /// interval: its number, or the error the sequential decoder reports.
    /// `None` when the reconciler cannot vouch for its reader position.
    pub fn restart_marker(&mut self) -> Option<Result<u8>> {
        debug_assert!(self.is_done());
        self.exact_reader
            .then(|| self.dec.reader.read_restart_marker())
    }

    /// Decode the segment's next MCU exactly into `coef`.
    fn step(&mut self, coef: &mut CoefBuffer, rows: &mut [RowMetrics]) -> Result<()> {
        let g = self.start_mcu + self.mcu;
        let (mcu_x, row) = (g % self.geom.mcus_x, g / self.geom.mcus_x);
        let (geom, comps, records) = (&self.geom, &self.comps, &mut self.records);
        let mut classes = RowMetrics::default();
        let m = self.dec.decode_next_mcu(&mut |ci, v, h, block, rec, eob| {
            let (h_samp, v_samp) = comps[ci];
            let idx = geom.block_index(ci, mcu_x * h_samp + h, row * v_samp + v);
            *coef.block_mut(idx) = *block;
            coef.set_eob(idx, eob);
            classes.record_eob(eob);
            records.push(rec);
        })?;
        let bpm = self.geom.blocks_per_mcu();
        add_mcu(&mut classes, &m, bpm);
        add_mcu(&mut self.out.stitch_metrics, &m, bpm);
        self.out.written.add(&classes);
        rows[row].add(&classes);
        self.mcu += 1;
        self.out.stats.redecoded_mcus += 1;
        self.written.push(Written {
            metrics: m,
            exact: true,
        });
        Ok(())
    }

    /// Reconcile the segment's next staged chunk into `coef`: re-decode
    /// exactly until the reconciler lands on one of the chunk's
    /// checkpoints, adopt the staged MCUs from there (DC fixed up by the
    /// predictor delta) and resume from the worker's exit state. A chunk
    /// that never converges is waste; the reconciler then stops at the
    /// first MCU past the chunk's coverage.
    pub fn push(
        &mut self,
        ch: &StagedChunk<'a>,
        coef: &mut CoefBuffer,
        rows: &mut [RowMetrics],
    ) -> Result<()> {
        self.out.stats.chunks += 1;
        // Chunks pushed once the segment is complete count as launched and
        // nothing else (the counters the trainer fits are the one-shot
        // stitch's).
        if self.ended {
            return Ok(());
        }
        // MCUs staged by discarded mis-phased attempts are pure waste.
        self.out.stats.wasted_mcus += ch.discarded_mcus;
        if self.is_done() {
            self.ended = true;
            return Ok(());
        }
        if ch.staged() == 0 {
            return Ok(()); // every attempt was discarded: nothing to adopt
        }
        let bpm = self.geom.blocks_per_mcu();
        let last_cp = ch.records[(ch.staged() - 1) * bpm].at;
        // Advance exactly until we land on one of this chunk's checkpoints
        // or overshoot its coverage.
        let j = loop {
            if self.is_done() {
                self.ended = true;
                return Ok(());
            }
            let cp = self.dec.checkpoint();
            if cp > last_cp {
                // Never converged (corrupt data): all of this chunk's
                // staged work is waste; the reconciler decodes on exactly.
                self.out.stats.wasted_mcus += ch.staged() as u64;
                return Ok(());
            }
            if let Some(j) = ch.mcu_at(cp, bpm) {
                break j;
            }
            self.step(coef, rows)?;
        };
        self.out.stats.synced += 1;
        self.out.stats.wasted_mcus += j as u64;
        // Adopt staged MCUs j.. with the DC predictor delta folded in.
        let delta: [i32; 4] =
            std::array::from_fn(|c| self.dec.dc_pred[c].wrapping_sub(ch.pred_before[j][c]));
        let take = (ch.staged() - j).min(self.mcu_count - self.mcu);
        let geom = &self.geom;
        for k in j..j + take {
            let g = self.start_mcu + self.mcu;
            let (mcu_x, row) = (g % geom.mcus_x, g / geom.mcus_x);
            let mut written = RowMetrics::default();
            let mut slot = k * bpm;
            for (ci, &(h_samp, v_samp)) in self.comps.iter().enumerate() {
                for v in 0..v_samp {
                    for h in 0..h_samp {
                        let idx = geom.block_index(ci, mcu_x * h_samp + h, row * v_samp + v);
                        let src = &ch.blocks[slot * 64..slot * 64 + 64];
                        let dst = coef.block_mut(idx);
                        dst.copy_from_slice(src);
                        dst[0] = dst[0].wrapping_add(delta[ci] as i16);
                        let eob = ch.eobs[slot];
                        coef.set_eob(idx, eob);
                        written.record_eob(eob);
                        slot += 1;
                    }
                }
            }
            add_mcu(&mut written, &ch.mcu_metrics[k], bpm);
            self.out.written.add(&written);
            rows[row].add(&written);
            self.mcu += 1;
            self.out.stats.adopted_mcus += 1;
            self.written.push(Written {
                metrics: ch.mcu_metrics[k],
                exact: false,
            });
        }
        (self.records).extend_from_slice(&ch.records[j * bpm..(j + take) * bpm]);
        // Wasted staged MCUs include any tail beyond the segment (take
        // capped by its MCU count).
        self.out.stats.wasted_mcus += (ch.staged() - j - take) as u64;
        if j + take == ch.staged() {
            // Coverage exhausted: resume from the worker's exit state (a
            // kept attempt always records one) with the predictor delta
            // folded in.
            let (reader, exit_pred) = ch.exit.clone().expect("kept attempt has exit state");
            self.dec.restore(
                reader,
                std::array::from_fn(|c| exit_pred[c].wrapping_add(delta[c])),
            );
        } else {
            self.exact_reader = false;
        }
        self.ended = self.is_done();
        Ok(())
    }

    /// Decode the rest of the segment exactly: the tail past the last
    /// chunk's coverage, or all of it when nothing converged.
    pub fn finish(&mut self, coef: &mut CoefBuffer, rows: &mut [RowMetrics]) -> Result<()> {
        while !self.is_done() {
            self.step(coef, rows)?;
        }
        Ok(())
    }
}

/// Reconcile staged chunks into the coefficient buffer in one go,
/// re-decoding convergence gaps exactly: [`Stitch`] over every chunk, then
/// the tail. `start_mcu`/`mcu_count` locate the segment in the global MCU
/// sequence (the whole image for a no-restart scan). The result —
/// coefficients, EOBs, and any returned error — is bit-identical to a
/// sequential decode of `payload`.
pub fn stitch_segment<'a>(
    geom: &Geometry,
    tables: &'a HuffmanTables,
    payload: &'a [u8],
    start_mcu: usize,
    mcu_count: usize,
    chunks: &[StagedChunk<'a>],
    coef: &mut CoefBuffer,
) -> Result<StitchOutcome> {
    let mut rows = vec![RowMetrics::default(); geom.mcus_y];
    let mut stitch = Stitch::new(geom, tables, payload, start_mcu, mcu_count);
    for ch in chunks {
        stitch.push(ch, coef, &mut rows)?;
    }
    stitch.finish(coef, &mut rows)?;
    Ok(stitch.out)
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
        assert_eq!(ch.records.len(), ch.staged() * geom.blocks_per_mcu());
        let placed = ch.records.iter().take_while(|r| r.at != u64::MAX);
        assert!(placed.clone().zip(placed.skip(1)).all(|(a, b)| a.at < b.at));
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

    /// Block indices of MCU rows `[0, rows)`, in scan order.
    fn blocks_of_rows(geom: &Geometry, tables: &HuffmanTables, rows: usize) -> Vec<usize> {
        let mut out = Vec::new();
        for row in 0..rows {
            for mcu_x in 0..geom.mcus_x {
                for (ci, c) in tables.components().iter().enumerate() {
                    for v in 0..c.v_samp {
                        for h in 0..c.h_samp {
                            let (bx, by) = (mcu_x * c.h_samp + h, row * c.v_samp + v);
                            out.push(geom.block_index(ci, bx, by));
                        }
                    }
                }
            }
        }
        out
    }

    #[test]
    fn chunk_by_chunk_stitch_agrees_with_one_shot_and_sequential() {
        // Random images × chunk counts × pristine, truncated and bit-flipped
        // payloads: the resumable stitch, the one-shot stitch and the
        // sequential decoder write the same coefficients and EOBs, report
        // the same per-row metrics and the same error at the same row, and
        // the rows a push leaves final never go back.
        let mut state = 0x2545_F491u32;
        let mut rand = |n: usize| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            (state >> 8) as usize % n.max(1)
        };
        let mut errors = 0;
        for (w, h, q, sub) in [
            (96, 64, 80, Subsampling::S420),
            (72, 40, 92, Subsampling::S444),
            (120, 48, 50, Subsampling::S422),
        ] {
            let jpeg = jpeg_of(w, h, q, sub);
            let parsed = parse_jpeg(&jpeg).unwrap();
            let geom = Geometry::new(w, h, sub).unwrap();
            let tables = HuffmanTables::new(&parsed).unwrap();
            let total = geom.mcus_x * geom.mcus_y;
            for case in 0..12 {
                let mut payload = parsed.scan_data.to_vec();
                match case % 3 {
                    0 => {}
                    1 => payload.truncate(rand(payload.len())),
                    _ => {
                        let i = rand(payload.len());
                        payload[i] ^= 1 << rand(8);
                    }
                }
                let mut damaged = parsed.clone();
                damaged.scan_data = &payload;
                let mut seq = EntropyDecoder::new(&damaged, &geom, &tables);
                let mut want = CoefBuffer::new(&geom);
                let (mut want_rows, mut want_err) = (Vec::new(), None);
                while !seq.is_finished() {
                    match seq.decode_mcu_row(&mut want) {
                        Ok(m) => want_rows.push(m),
                        Err(e) => {
                            want_err = Some(e);
                            break;
                        }
                    }
                }
                errors += usize::from(want_err.is_some());
                let final_rows = want_rows.len();
                for n in [1, 2, 3, 5, 8] {
                    let ctx = format!("{w}x{h} q{q} case {case}, {n} chunks");
                    let chunks: Vec<_> = (plan_chunks(&payload, n).iter())
                        .map(|&(a, b)| {
                            decode_chunk_speculative(&geom, &tables, &payload, a, b, total)
                        })
                        .collect();
                    let mut one = CoefBuffer::new(&geom);
                    let one_res =
                        stitch_segment(&geom, &tables, &payload, 0, total, &chunks, &mut one);
                    let mut got = CoefBuffer::new(&geom);
                    let mut rows = vec![RowMetrics::default(); geom.mcus_y];
                    let mut stitch = Stitch::new(&geom, &tables, &payload, 0, total);
                    let (mut released, mut res) = (0, Ok(()));
                    for ch in &chunks {
                        res = stitch.push(ch, &mut got, &mut rows);
                        let now = stitch.done_mcus() / geom.mcus_x;
                        assert!(now >= released, "{ctx}: released rows went back");
                        released = now;
                        if res.is_err() {
                            break;
                        }
                    }
                    if res.is_ok() {
                        res = stitch.finish(&mut got, &mut rows);
                    }
                    assert_eq!(res.as_ref().err(), want_err.as_ref(), "{ctx}: error");
                    assert_eq!(one_res.as_ref().err(), want_err.as_ref(), "{ctx}: one shot");
                    let surfaced = stitch.done_mcus() / geom.mcus_x;
                    assert_eq!(surfaced, final_rows.min(geom.mcus_y), "{ctx}: error row");
                    assert_eq!(&rows[..final_rows], &want_rows[..], "{ctx}: row metrics");
                    for b in blocks_of_rows(&geom, &tables, final_rows) {
                        assert_eq!(got.block(b), want.block(b), "{ctx}: block {b}");
                        assert_eq!(got.eob(b), want.eob(b), "{ctx}: EOB {b}");
                    }
                    assert_eq!(got.as_slice(), one.as_slice(), "{ctx}: one-shot blocks");
                    if let Ok(out) = one_res {
                        assert_eq!(out.stats, stitch.outcome().stats, "{ctx}: counters");
                    }
                }
            }
        }
        assert!(errors > 0, "some damage must surface as an error");
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
        let seq_err =
            (0..total).find_map(|_| seq.decode_next_mcu(&mut |_, _, _, _, _, _| {}).err());

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
