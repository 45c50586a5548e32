//! Parallel entropy decoding: Huffman decoding of any baseline scan on
//! the session's `threads` workers, feeding the split loop row by row.
//!
//! The paper treats entropy decoding as strictly sequential because "the
//! JPEG standard does not enforce the self-synchronization property" (§1).
//! Two escapes exist, and the `Feed` uses both:
//!
//! * **Restart segments** — when the encoder emitted DRI, each interval is
//!   byte-aligned with reset predictors and decodes independently (Klein &
//!   Wiseman, the paper's related work).
//! * **Speculative self-synchronization** — inside a segment (the whole
//!   scan when there are no restarts) chunk workers started at evenly
//!   spaced byte offsets converge onto the true codeword boundaries after a
//!   short prefix ([`hetjpeg_jpeg::speculate`], after Weißenberger &
//!   Schmidt), and a stitch reconciles their staged output into the exact
//!   sequential result.
//!
//! The planner cuts the scan into row-ordered feed chunks: every restart
//! segment, and inside any segment longer than a feed chunk, speculative
//! chunks of about a feed chunk's MCUs. The workers decode every chunk
//! into staging on a scoped thread pool; the loop's thread then stitches
//! them in order (`Feed::advance`), each chunk's staging freed once it
//! is stitched, and MCU rows become final as the stitch passes them. The
//! output is bit-identical to the sequential pass; on any stream damage
//! the feed hands over to the sequential decoder (`Entropy::until`), so
//! errors are the sequential decoder's too.
//!
//! The workers and the stitch record every block they decode — its
//! canonical start bit, bits and symbols ([`BlockAt`]) — and the feed
//! keeps the record of each stitched block beside its MCU's work. The
//! device's Huffman lanes over the GPU rows (`Feed::device_lanes`) are
//! read off that record, so the host decodes every block once; only a
//! lane's unsynchronised prefix is decoded again.
//!
//! On the virtual clock the chunks are list-scheduled onto `threads`
//! workers in ticket order, each priced from its measured effort
//! (convergence waste included) plus [`SEGMENT_OVERHEAD_S`]; the loop's
//! thread waits for a chunk's worker, then pays the stitch's measured
//! re-decode. Rows therefore release in waves of `threads` chunks.
//! `Mode::ParallelEntropy` is this feed with no GPU rows: the whole scan
//! released, then the SIMD band.

use crate::platform::Platform;
use hetjpeg_gpusim::subseq::{Lane, SubseqTable, Work};
use hetjpeg_jpeg::coef::CoefBuffer;
use hetjpeg_jpeg::decoder::Prepared;
use hetjpeg_jpeg::entropy::{split_restart_segments, HuffmanTables, RestartSegment};
use hetjpeg_jpeg::geometry::Geometry;
use hetjpeg_jpeg::metrics::RowMetrics;
use hetjpeg_jpeg::speculate::{
    converge_blocks, decode_chunk_speculative, off_stuffing, plan_chunks, BlockAt, McuMetrics,
    SpecStats, StagedChunk, Stitch, Written,
};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Fixed virtual-time overhead charged per feed chunk (per-chunk set-up
/// and worker hand-off in the real decode).
pub const SEGMENT_OVERHEAD_S: f64 = 2e-6;

/// Scan bytes per subsequence of the device's Huffman decode (1 024 bits).
/// A lane issues its subsequence serially, so a longer one raises the
/// launch's serial floor, and a shorter one makes the overflow into the
/// next (a few MCUs) a larger share of the work; on the §5.1 corpus 128
/// decoded fastest of 64–384 and priced closest (docs/PERF.md).
pub const SUBSEQ_BYTES: usize = 128;

/// Blocks' worth of scan a subsequence holds at least.
pub const SUBSEQ_BLOCKS: usize = 16;

/// Scan bytes per subsequence over a stretch of `mcus` MCUs of `blocks`
/// blocks each in `bytes`: [`SUBSEQ_BYTES`], or [`SUBSEQ_BLOCKS`] blocks'
/// worth where blocks are longer, so that a lane usually falls into step
/// inside its own subsequence.
fn subseq_bytes(mcus: usize, blocks: usize, bytes: usize) -> usize {
    SUBSEQ_BYTES.max((SUBSEQ_BLOCKS * bytes).div_ceil((mcus * blocks).max(1)))
}

/// One feed chunk: the byte range `[start, stop)` of one restart segment's
/// payload.
#[derive(Debug, Clone, Copy)]
struct Job {
    segment: usize,
    start: usize,
    stop: usize,
}

/// The damage a feed cannot vouch for: the stitch failed, or a restart
/// marker is not where a sequential decoder expects it. The sequential
/// decoder takes over and reports what it finds.
#[derive(Debug)]
pub(crate) struct Handover;

/// The fed entropy source of one image: staged chunks, stitched in order.
pub(crate) struct Feed<'a> {
    geom: &'a Geometry,
    tables: &'a HuffmanTables,
    scan: &'a [u8],
    segments: Vec<RestartSegment>,
    jobs: Vec<Job>,
    /// Each job's staged output until it is stitched.
    staged: Vec<Option<StagedChunk<'a>>>,
    /// Each job's worker seconds: its measured effort, convergence waste
    /// included, and [`SEGMENT_OVERHEAD_S`].
    effort: Vec<f64>,
    /// The workers the jobs are list-scheduled onto.
    workers: usize,
    /// When each job's worker finishes on the virtual clock.
    ready_at: Vec<f64>,
    /// Jobs stitched into the coefficient buffer so far. The stitch runs
    /// ahead of the virtual clock: its result is the same whenever it
    /// runs, and what it did is kept to be priced when the loop gets there.
    stitched: usize,
    /// The segment being stitched, its reconciler.
    stitch: Option<Stitch<'a>>,
    /// The MCUs stitched and not yet final on the virtual clock, in order,
    /// each with the job whose stitch made it final.
    pending: VecDeque<(usize, Written)>,
    /// The job whose stitch failed or whose segment's restart marker is
    /// not where the sequential decoder reads it: nothing after its MCUs
    /// can be vouched for.
    broken: Option<usize>,
    /// The job whose worker the loop waits for.
    next: usize,
    /// MCUs final on the virtual clock.
    final_mcus: usize,
    /// The exact re-decode the loop has paid in the current segment.
    redecoded: RowMetrics,
    /// Written metrics per MCU row, complete for the rows already final.
    rows: Vec<RowMetrics>,
    /// MCU rows final so far.
    released: usize,
    /// Per block of the MCUs stitched so far, in scan order: where it
    /// starts in its segment's payload and its Huffman work, as the workers
    /// and the stitch decoded it.
    blocks: Vec<BlockAt>,
    /// Per MCU stitched so far, in order: its Huffman work.
    work: Vec<McuMetrics>,
    /// Counters of the segments stitched so far.
    pub(crate) spec: SpecStats,
}

impl<'a> Feed<'a> {
    /// Plan `prep`'s scan into feed chunks — `chunks_for(segment)` of them
    /// per restart segment — and decode them all on `threads` workers.
    /// `None` with one thread (the sequential decoder is the source), or
    /// when the scan is not [`feedable`].
    pub(crate) fn new(
        prep: &'a Prepared<'_>,
        platform: &Platform,
        threads: usize,
        chunks_for: impl Fn(&RestartSegment) -> usize,
    ) -> Option<Feed<'a>> {
        let (geom, scan) = (&prep.geom, prep.parsed.scan_data);
        let tables = prep.huffman_tables().ok()?;
        if threads <= 1 || !feedable(prep) {
            return None;
        }
        let segments = split_restart_segments(&prep.parsed, geom);
        let mut jobs = Vec::new();
        for (segment, seg) in segments.iter().enumerate() {
            let payload = &scan[seg.offset..(seg.offset + seg.len).min(scan.len())];
            for (start, stop) in plan_chunks(payload, chunks_for(seg)) {
                jobs.push(Job {
                    segment,
                    start,
                    stop,
                });
            }
            // A segment that ends in a restart marker: its last worker stops
            // inside the final data byte (a stuffed `00` carries no bits), so
            // it never stages an MCU decoded from the padding before the
            // marker, and its exit state is where a sequential reader reads
            // the marker.
            if segment + 1 < segments.len() {
                let stuffed = payload.ends_with(&[0xFF, 0x00]);
                let last_byte = payload.len().saturating_sub(1 + usize::from(stuffed));
                let last = jobs.last_mut().expect("a chunk per segment");
                last.stop = last.stop.min(last_byte).max(last.start);
            }
        }
        let mut feed = Feed {
            geom,
            tables,
            scan,
            staged: Vec::new(),
            effort: Vec::with_capacity(jobs.len()),
            workers: threads.min(jobs.len()).max(1),
            ready_at: Vec::new(),
            stitched: 0,
            stitch: None,
            pending: VecDeque::new(),
            broken: None,
            next: 0,
            final_mcus: 0,
            redecoded: RowMetrics::default(),
            rows: vec![RowMetrics::default(); geom.mcus_y],
            released: 0,
            blocks: Vec::with_capacity(geom.mcus_x * geom.mcus_y * geom.blocks_per_mcu()),
            work: Vec::with_capacity(geom.mcus_x * geom.mcus_y),
            spec: SpecStats::default(),
            segments,
            jobs,
        };
        feed.staged = feed.decode_jobs(threads);
        feed.effort = (feed.staged.iter().flatten())
            .map(|ch| platform.cpu.huff_time(&ch.metrics) + SEGMENT_OVERHEAD_S)
            .collect();
        feed.schedule(0, 0.0);
        Some(feed)
    }

    /// List-schedule the efforts of jobs `first..` onto the workers, all
    /// free at `start`, in ticket order: each job goes to the worker that
    /// frees up first.
    fn schedule(&mut self, first: usize, start: f64) {
        let mut free_at = vec![start; self.workers];
        self.ready_at.resize(first, 0.0);
        for &effort in &self.effort[first..] {
            let w = (0..free_at.len())
                .min_by(|&a, &b| free_at[a].total_cmp(&free_at[b]))
                .expect("at least one worker");
            free_at[w] += effort;
            self.ready_at.push(free_at[w]);
        }
    }

    /// A segment's entropy bytes, with the restart marker that ends it: a
    /// reader stops at the marker, and the stitch reads it at the end.
    fn payload(&self, seg: &RestartSegment) -> &'a [u8] {
        let scan = self.scan;
        &scan[seg.offset.min(scan.len())..(seg.offset + seg.len + 2).min(scan.len())]
    }

    /// Decode every job speculatively on a scoped ticket pool of `threads`
    /// workers, the calling thread one of them.
    fn decode_jobs(&self, threads: usize) -> Vec<Option<StagedChunk<'a>>> {
        let next = AtomicUsize::new(0);
        let staged: Mutex<Vec<Option<StagedChunk<'a>>>> =
            Mutex::new((0..self.jobs.len()).map(|_| None).collect());
        let work = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(job) = self.jobs.get(i) else {
                break;
            };
            let seg = &self.segments[job.segment];
            let ch = decode_chunk_speculative(
                self.geom,
                self.tables,
                self.payload(seg),
                job.start,
                job.stop,
                seg.mcu_count,
            );
            staged.lock().expect("staging mutex")[i] = Some(ch);
        };
        std::thread::scope(|s| {
            for _ in 1..threads.min(self.jobs.len()) {
                s.spawn(work);
            }
            work();
        });
        staged.into_inner().expect("staging mutex")
    }

    /// MCU rows final so far; they only ever grow.
    pub(crate) fn released(&self) -> usize {
        self.released
    }

    /// Written metrics of MCU row `row`, once it is final.
    pub(crate) fn row(&self, row: usize) -> RowMetrics {
        self.rows[row]
    }

    /// Stitch the next job into `coef`: adopt its chunk, then, after a
    /// segment's last chunk, re-decode its tail and read its restart
    /// marker. What the stitch made final joins `pending`.
    fn stitch_next(&mut self, coef: &mut CoefBuffer) {
        let k = self.stitched;
        let job = self.jobs[k];
        let seg = self.segments[job.segment];
        let payload = self.payload(&seg);
        let last = self.is_last_of_segment(k);
        let more = job.segment + 1 < self.segments.len();
        let (geom, tables) = (self.geom, self.tables);
        let stitch = (self.stitch).get_or_insert_with(|| {
            Stitch::new(geom, tables, payload, seg.start_mcu, seg.mcu_count)
        });
        let ch = self.staged[k].take().expect("each job is stitched once");
        let mut res = stitch.push(&ch, coef, &mut self.rows);
        drop(ch);
        self.stitched += 1;
        if res.is_ok() && last {
            res = stitch.finish(coef, &mut self.rows);
        }
        for w in stitch.drain_written(&mut self.blocks) {
            self.work.push(w.metrics);
            self.pending.push_back((k, w));
        }
        let expected = (job.segment & 7) as u8;
        if res.is_err()
            || (last && more && !matches!(stitch.restart_marker(), Some(Ok(n)) if n == expected))
        {
            self.broken.get_or_insert(k);
        }
        if last {
            let stitch = self.stitch.take().expect("the segment's reconciler");
            self.spec.merge(&stitch.outcome().stats);
        }
    }

    fn is_last_of_segment(&self, k: usize) -> bool {
        (self.jobs.get(k + 1)).is_none_or(|j| j.segment != self.jobs[k].segment)
    }

    /// The next stitched MCU, stitching on when none is left.
    fn take_pending(&mut self, coef: &mut CoefBuffer) -> Result<(usize, Written), Handover> {
        loop {
            if let Some(w) = self.pending.pop_front() {
                return Ok(w);
            }
            if self.broken.is_some() || self.stitched == self.jobs.len() {
                return Err(Handover);
            }
            self.stitch_next(coef);
        }
    }

    /// Release more rows on the loop's thread, whose virtual clock is `now`,
    /// towards the first `want`: while the next chunk's worker is still
    /// busy, the loop decodes ahead exactly, MCU by MCU, at its own Huffman
    /// cost (taking the stitched result: it is the same); once the worker
    /// is done, the rest of its chunk is final at the stitch's exact
    /// re-decode cost. After a segment's last chunk its tail is re-decoded
    /// and its restart marker read. The rows this completed are
    /// [`Self::released`].
    pub(crate) fn advance(
        &mut self,
        coef: &mut CoefBuffer,
        platform: &Platform,
        now: &mut f64,
        want: usize,
    ) -> Result<(), Handover> {
        let (mcus_x, bpm) = (self.geom.mcus_x, self.geom.blocks_per_mcu());
        let cost = |w: &Written| mcu_cost(&w.metrics, bpm);
        let k = self.next;
        let seg = self.segments[self.jobs[k].segment];
        let seg_end = seg.start_mcu + seg.mcu_count;
        let ready = self.ready_at[k];
        if *now < ready && self.final_mcus < seg_end {
            while *now < ready && self.final_mcus < (want * mcus_x).min(seg_end) {
                let (_, w) = self.take_pending(coef)?;
                let m = cost(&w);
                *now += platform.cpu.huff_time(&m);
                self.redecoded.add(&m);
                self.final_mcus += 1;
            }
            self.released = self.final_mcus / mcus_x;
            return Ok(());
        }
        let before = platform.cpu.huff_time(&self.redecoded);
        if self.final_mcus < seg_end {
            *now = now.max(ready); // a chunk past the segment's end is waste
        }
        while self.stitched <= k && self.broken.is_none() {
            self.stitch_next(coef);
        }
        while self.pending.front().is_some_and(|&(j, _)| j == k) {
            let (_, w) = self.pending.pop_front().expect("a pending MCU");
            if w.exact {
                self.redecoded.add(&cost(&w));
            }
            self.final_mcus += 1;
        }
        *now += platform.cpu.huff_time(&self.redecoded) - before;
        if self.broken.is_some_and(|b| b <= k) {
            return Err(Handover);
        }
        if self.is_last_of_segment(k) {
            self.redecoded = RowMetrics::default();
        }
        self.next += 1;
        self.released = self.final_mcus / mcus_x;
        Ok(())
    }
}

impl Feed<'_> {
    /// Make MCU rows up to `end` final for the device, which decodes their
    /// Huffman: stitched on the host, with no time passing on the loop's
    /// clock.
    pub(crate) fn skip(&mut self, coef: &mut CoefBuffer, end: usize) -> Result<(), Handover> {
        let want = end * self.geom.mcus_x;
        while self.final_mcus < want {
            self.take_pending(coef)?;
            self.final_mcus += 1;
        }
        self.released = self.released.max(end);
        Ok(())
    }

    /// The device's lanes over MCU rows `rows`, which are stitched, and
    /// the scan bytes they span, read off the blocks the feed recorded. Each
    /// restart segment's share of the rows starts a lane in sync at its
    /// first MCU (the device's state there, or the restart marker), and a
    /// lane at every [`subseq_bytes`]-th byte after it, which a decoder
    /// started there falls into step with at a block of the exact decode,
    /// in its place in the MCU, before its subsequence ends
    /// ([`converge_blocks`]). A lane covers the blocks from its own to the
    /// next lanes' first in-step block: pass 1 decodes its garbage and the
    /// rest of its subsequence, pass 2 the overflow past the subsequence's
    /// end. Blocks a decode padded past a marker or the end have no
    /// position and no work; MCUs that start in the padding belong to no
    /// lane. Byte ranges are relative to the first MCU's byte; blocks are
    /// packed indices of `rows`.
    pub(crate) fn device_lanes(&self, rows: Range<usize>) -> (SubseqTable, Range<usize>) {
        let (geom, mx) = (self.geom, self.geom.mcus_x);
        let bpm = geom.blocks_per_mcu();
        let mcus = rows.start * mx..rows.end * mx;
        debug_assert!(self.work.len() >= mcus.end, "the rows are stitched");
        let mut table = SubseqTable::default();
        // Each block of an MCU, in scan order: its component, v and h.
        let mut pattern = Vec::with_capacity(bpm);
        for (c, comp) in geom.comps.iter().enumerate() {
            for v in 0..comp.v_samp {
                pattern.extend((0..comp.h_samp).map(|h| (c, v, h)));
            }
        }
        // Where each component's blocks start in the packed region.
        let mut base = Vec::with_capacity(geom.comps.len());
        let mut acc = 0;
        for c in &geom.comps {
            base.push(acc);
            acc += rows.len() * c.v_samp * c.width_blocks;
        }
        let packed = |m: usize, j: usize| {
            let (c, v, h) = pattern[j];
            let comp = &geom.comps[c];
            let (row, x) = (m / mx - rows.start, m % mx);
            (base[c] + (row * comp.v_samp + v) * comp.width_blocks + x * comp.h_samp + h) as u32
        };
        let (mut lo, mut hi) = (usize::MAX, 0);
        // The segments in order, from the one holding the first MCU.
        let from = (self.segments).partition_point(|s| s.start_mcu + s.mcu_count <= mcus.start);
        for seg in self.segments[from..]
            .iter()
            .take_while(|s| s.start_mcu < mcus.end)
        {
            let a = mcus.start.max(seg.start_mcu);
            let b = (seg.start_mcu + seg.mcu_count).min(mcus.end);
            let payload = self.payload(seg);
            // The portion's blocks, the first `n` of them in MCUs that start
            // at a position.
            let recs = &self.blocks[a * bpm..b * bpm];
            let work = &self.work[a..b];
            let n = recs.partition_point(|r| r.at != u64::MAX).div_ceil(bpm) * bpm;
            let bits = 8 * seg.len as u64;
            let end = match n {
                0 => 0,
                n => {
                    let last = (n - 1) / bpm;
                    let end = recs[last * bpm].at.saturating_add(work[last].bits as u64);
                    end.div_ceil(8).min(seg.len as u64) as usize
                }
            };
            let first = (recs[0].at.min(bits) / 8) as usize;
            // Scan-relative byte where block `u` of the portion starts.
            let byte = |u: usize| {
                seg.offset
                    + if u < n {
                        (recs[u].at.min(bits) / 8) as usize
                    } else {
                        end
                    }
            };
            // The work of blocks `r`: whole MCUs as the decode measured them.
            let sum = |r: Range<usize>| {
                let mut w = Work::default();
                let mut u = r.start;
                while u < r.end {
                    if u.is_multiple_of(bpm) && u + bpm <= r.end {
                        w.add(&mcu_work(&work[u / bpm], bpm));
                        u += bpm;
                    } else {
                        w.add(&block_work(&recs[u]));
                        u += 1;
                    }
                }
                w
            };
            (lo, hi) = (lo.min(seg.offset + first), hi.max(seg.offset + end));
            let step = subseq_bytes(b - a, bpm, end.saturating_sub(first)).max(1);
            let mut starts = vec![first];
            let mut s = first + step;
            while s < end {
                let t = off_stuffing(payload, s);
                if t < end && t > *starts.last().expect("a lane") {
                    starts.push(t);
                }
                s += step;
            }
            // The first block each lane's own subsequence may hold, and
            // where its decoder falls into step. A lane's decoder runs to
            // its subsequence's end at most: one that is not in step by
            // then leaves its stretch to the lanes before it.
            let placed = &recs[..n];
            let own_first: Vec<usize> = (starts.iter())
                .map(|&s| placed.partition_point(|r| r.at < 8 * s as u64))
                .collect();
            let exact = |cp: u64| {
                let u = placed.binary_search_by_key(&cp, |r| r.at).ok()?;
                Some((u, (u % bpm) as u8))
            };
            let mut sync = vec![0];
            let mut garbage = vec![Work::default()];
            for (i, &s) in starts.iter().enumerate().skip(1) {
                let stop = starts.get(i + 1).copied().unwrap_or(end);
                let c = converge_blocks(self.tables, payload, s, exact, stop);
                sync.push(c.sync.unwrap_or(n));
                garbage.push(Work {
                    bits: c.bits,
                    symbols: c.symbols,
                    blocks: c.blocks,
                });
            }
            let mut next = vec![n; starts.len()];
            for i in (0..starts.len().saturating_sub(1)).rev() {
                next[i] = next[i + 1].min(sync[i + 1]);
            }
            for i in 0..starts.len() {
                let own_end = own_first.get(i + 1).copied().unwrap_or(n);
                let (sy, nx) = (sync[i], next[i].max(sync[i]));
                let split = own_end.max(sy).min(nx);
                let mut own = garbage[i];
                own.add(&sum(sy..split));
                let o = table.overflow.len();
                table
                    .overflow
                    .extend(recs[split..nx].iter().map(block_work));
                let b0 = table.blocks.len();
                table
                    .blocks
                    .extend((sy..nx).map(|u| packed(a + u / bpm, u % bpm)));
                table.lanes.push(Lane {
                    own_bytes: seg.offset + starts[i]..byte(own_end),
                    overflow_bytes: byte(split)..byte(nx),
                    covered_bytes: byte(sy)..byte(nx),
                    own,
                    overflow: o..table.overflow.len(),
                    covered: sum(sy..nx),
                    blocks: b0..table.blocks.len(),
                });
            }
            // MCUs past a padded end belong to no lane: the last one takes
            // their blocks, which the device writes as zeros.
            let last = table.lanes.last_mut().expect("a lane");
            for m in a + n / bpm..b {
                table.blocks.extend((0..bpm).map(|j| packed(m, j)));
            }
            last.blocks.end = table.blocks.len();
        }
        let r0 = lo;
        for l in &mut table.lanes {
            for r in [
                &mut l.own_bytes,
                &mut l.overflow_bytes,
                &mut l.covered_bytes,
            ] {
                *r = r.start - r0..r.end.max(r.start) - r0;
            }
        }
        (table, lo..hi)
    }

    /// Hand the loop the CPU band from MCU row `from` on, its clock `now`
    /// where the device's decoder state at that row reached the host. The
    /// rows before are the device's, final at no CPU time
    /// ([`Self::skip`]); rows after `from` the device decoded already (a
    /// re-partition moved the split back) the loop decodes again, exactly.
    /// The workers then start over at `now` on the chunks the band's rows
    /// are in, as [`Self::new`] cut them — the first of them from the
    /// loop's next row, in step, with no garbage — for [`Self::advance`]
    /// to release as it releases any feed's rows.
    pub(crate) fn band(
        &mut self,
        coef: &mut CoefBuffer,
        platform: &Platform,
        from: usize,
        now: &mut f64,
    ) -> Result<(), Handover> {
        let bpm = self.geom.blocks_per_mcu();
        self.skip(coef, from)?;
        let again = (self.work[from * self.geom.mcus_x..self.final_mcus].iter()).fold(
            RowMetrics::default(),
            |mut t, m| {
                t.add(&mcu_cost(m, bpm));
                t
            },
        );
        *now += platform.cpu.huff_time(&again);
        while self.pending.is_empty() {
            if self.broken.is_some() || self.stitched == self.jobs.len() {
                return Err(Handover);
            }
            self.stitch_next(coef);
        }
        let k = self.pending.front().expect("a pending MCU").0;
        let mut first = RowMetrics::default();
        for (_, w) in self.pending.iter().take_while(|&&(j, _)| j == k) {
            first.add(&mcu_cost(&w.metrics, bpm));
        }
        self.effort[k] = platform.cpu.huff_time(&first) + SEGMENT_OVERHEAD_S;
        self.next = k;
        self.redecoded = RowMetrics::default();
        self.schedule(k, *now);
        Ok(())
    }
}

/// The Huffman work of one MCU of `bpm` blocks, as the CPU prices it.
fn mcu_cost(m: &McuMetrics, bpm: usize) -> RowMetrics {
    RowMetrics {
        bits: m.bits as u64,
        symbols: m.symbols as u64,
        nonzero_coefs: m.nonzero as u64,
        blocks: bpm as u64,
        ..RowMetrics::default()
    }
}

/// The Huffman work of one MCU of `bpm` blocks, as the device prices it.
fn mcu_work(m: &McuMetrics, bpm: usize) -> Work {
    Work {
        bits: m.bits as u64,
        symbols: m.symbols as u64,
        blocks: bpm as u64,
    }
}

/// The Huffman work of one recorded block, as the device prices it: none
/// for a block without a position, which a decode padded past a marker or
/// the end.
fn block_work(r: &BlockAt) -> Work {
    let placed = r.at != u64::MAX;
    Work {
        bits: if placed { r.bits as u64 } else { 0 },
        symbols: if placed { r.symbols as u64 } else { 0 },
        blocks: 1,
    }
}

/// The entropy threads a plan for `prep` runs on: the session's
/// `threads`, or one when the scan is not [`feedable`] — it is then decoded
/// and priced sequentially.
pub(crate) fn threads_for(prep: &Prepared<'_>, threads: usize) -> usize {
    if threads > 1 && feedable(prep) {
        threads
    } else {
        1
    }
}

/// False when `prep`'s restart structure is already damaged: a segment
/// longer than the interval means a missing marker, which only the
/// sequential decoder reports exactly.
pub(crate) fn feedable(prep: &Prepared<'_>) -> bool {
    match prep.parsed.frame.restart_interval {
        0 => true,
        interval => (split_restart_segments(&prep.parsed, &prep.geom).iter())
            .all(|s| s.mcu_count <= interval),
    }
}

/// Stitch every chunk of a fed decode of `prep` into `coef`, returning the
/// speculation counters — the trainer's measurement of the convergence
/// prefix, with `chunks` speculative chunks per restart segment — and the
/// whole image's subsequence lanes with the scan bytes they span.
pub(crate) fn speculation_stats(
    prep: &Prepared<'_>,
    platform: &Platform,
    chunks: usize,
    coef: &mut CoefBuffer,
) -> Option<(SpecStats, (SubseqTable, Range<usize>))> {
    let mut feed = Feed::new(prep, platform, chunks, |_| chunks)?;
    // At the end of time every worker is done: the reconciler never runs
    // ahead, so the counters are the chunks' own.
    let mut now = f64::INFINITY;
    while feed.released() < prep.geom.mcus_y {
        feed.advance(coef, platform, &mut now, prep.geom.mcus_y)
            .ok()?;
    }
    let lanes = feed.device_lanes(0..prep.geom.mcus_y);
    Some((feed.spec, lanes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::tests::to_rgb;
    use crate::schedule::{dispatch, split, DecodeOutcome, Mode};
    use crate::workspace::Workspace;
    use hetjpeg_jpeg::encoder::{encode_rgb, EncodeParams};
    use hetjpeg_jpeg::speculate::McuDecoder;
    use hetjpeg_jpeg::types::Subsampling;

    fn decode(
        mode: Mode,
        prep: &Prepared<'_>,
        platform: &Platform,
        threads: usize,
        ws: &mut Workspace,
    ) -> DecodeOutcome {
        let model = platform.untrained_model();
        to_rgb(|out| dispatch(prep, mode, platform, &model, threads, None, ws, out)).unwrap()
    }

    fn simd(prep: &Prepared<'_>, platform: &Platform, ws: &mut Workspace) -> DecodeOutcome {
        decode(Mode::Simd, prep, platform, 1, ws)
    }

    fn par(
        prep: &Prepared<'_>,
        platform: &Platform,
        n: usize,
        ws: &mut Workspace,
    ) -> DecodeOutcome {
        decode(Mode::ParallelEntropy, prep, platform, n, ws)
    }

    fn noise_jpeg(
        w: usize,
        h: usize,
        seed: u32,
        q: u8,
        sub: Subsampling,
        interval: usize,
    ) -> Vec<u8> {
        let mut rgb = Vec::with_capacity(w * h * 3);
        let mut s = seed;
        for _ in 0..w * h {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            rgb.extend_from_slice(&[(s >> 8) as u8, (s >> 16) as u8, (s >> 24) as u8]);
        }
        let params = EncodeParams {
            quality: q,
            subsampling: sub,
            restart_interval: interval,
        };
        encode_rgb(&rgb, w as u32, h as u32, &params).unwrap()
    }

    fn jpeg_with_restarts(w: usize, h: usize, interval: usize) -> Vec<u8> {
        noise_jpeg(w, h, 7, 82, Subsampling::S422, interval)
    }

    /// Every chunk of a fed decode stitched into `coef`, with the feed's
    /// counters; `None` when the feed refused the scan or handed over.
    fn feed_all(
        prep: &Prepared<'_>,
        threads: usize,
        feed_rows: usize,
        coef: &mut CoefBuffer,
    ) -> Option<(Vec<RowMetrics>, SpecStats)> {
        let platform = Platform::gtx560();
        let feed_mcus = feed_rows * prep.geom.mcus_x;
        let mut feed = Feed::new(prep, &platform, threads, |s| {
            s.mcu_count.div_ceil(feed_mcus)
        })?;
        let mut now = 0.0;
        while feed.released() < prep.geom.mcus_y {
            let before = feed.released();
            feed.advance(coef, &platform, &mut now, prep.geom.mcus_y)
                .ok()?;
            assert!(feed.released() >= before, "released rows never go back");
        }
        Some((feed.rows.clone(), feed.spec))
    }

    #[test]
    fn parallel_entropy_is_bit_identical_and_faster_with_restarts() {
        let jpeg = jpeg_with_restarts(256, 256, 4);
        let platform = Platform::gtx560();
        let prep = Prepared::new(&jpeg).unwrap();
        let mut ws = Workspace::default();
        let simd_out = simd(&prep, &platform, &mut ws);
        let par = par(&prep, &platform, 4, &mut ws);
        assert_eq!(par.image.data, simd_out.image.data);
        // Four workers over many segments shrink the Huffman wall-time well
        // below the sequential stage.
        assert!(
            par.times.huffman < simd_out.times.huffman,
            "parallel huffman {:.4}ms vs sequential {:.4}ms",
            par.times.huffman * 1e3,
            simd_out.times.huffman * 1e3
        );
        assert!(par.total() < simd_out.total());
    }

    #[test]
    fn no_restart_markers_speculate_and_beat_sequential_entropy() {
        // The restart-free stream does not fall back to sequential entropy:
        // speculative chunk workers + stitch shrink the Huffman wall-time
        // below the sequential stage while staying bit-identical.
        let jpeg = jpeg_with_restarts(320, 240, 0);
        let platform = Platform::gt430();
        let prep = Prepared::new(&jpeg).unwrap();
        let mut ws = Workspace::default();
        let simd_out = simd(&prep, &platform, &mut ws);
        let par = par(&prep, &platform, 4, &mut ws);
        assert_eq!(par.image.data, simd_out.image.data);
        assert!(
            par.times.huffman < simd_out.times.huffman,
            "speculative huffman {:.4}ms vs sequential {:.4}ms",
            par.times.huffman * 1e3,
            simd_out.times.huffman * 1e3
        );
        // Speculation counters surfaced through the workspace.
        let spec = ws.spec;
        assert!(spec.chunks >= 2 && spec.synced >= 1, "{spec:?}");
    }

    #[test]
    fn one_thread_degenerates_to_sequential_entropy() {
        let jpeg = jpeg_with_restarts(128, 96, 0);
        let platform = Platform::gt430();
        let prep = Prepared::new(&jpeg).unwrap();
        let mut ws = Workspace::default();
        let simd_out = simd(&prep, &platform, &mut ws);
        let par = par(&prep, &platform, 1, &mut ws);
        assert_eq!(par.image.data, simd_out.image.data);
        // One thread is the sequential decoder: the same Huffman span.
        assert_eq!(
            par.times.huffman.to_bits(),
            simd_out.times.huffman.to_bits()
        );
        assert_eq!(par.total().to_bits(), simd_out.total().to_bits());
        assert_eq!(ws.spec, SpecStats::default(), "nothing speculated");
    }

    #[test]
    fn more_virtual_workers_never_slow_the_schedule() {
        let jpeg = jpeg_with_restarts(192, 160, 2);
        let platform = Platform::gtx680();
        let prep = Prepared::new(&jpeg).unwrap();
        let mut ws = Workspace::default();
        let mut last = f64::INFINITY;
        for threads in [1usize, 2, 4, 8] {
            let out = par(&prep, &platform, threads, &mut ws);
            assert!(
                out.times.huffman <= last * 1.0001,
                "{threads} threads: {} vs {}",
                out.times.huffman,
                last
            );
            last = out.times.huffman;
        }
    }

    #[test]
    fn parallel_entropy_matches_sequential() {
        for interval in [0usize, 2, 5, 16] {
            let jpeg = noise_jpeg(160, 128, 31, 80, Subsampling::S422, interval);
            let prep = Prepared::new(&jpeg).unwrap();
            let (want, want_rows) = prep.entropy_decode_all().unwrap();
            for threads in [2usize, 8] {
                for feed_rows in [1, 3, prep.geom.mcus_y] {
                    let mut got = CoefBuffer::new(&prep.geom);
                    let ctx = format!("interval {interval}, {threads} threads, {feed_rows} rows");
                    let (rows, _) = feed_all(&prep, threads, feed_rows, &mut got).expect(&ctx);
                    assert_eq!(got.as_slice(), want.as_slice(), "{ctx}");
                    // EOBs must match too — the sparse IDCT dispatch reads them.
                    for b in 0..want.num_blocks() {
                        assert_eq!(got.eob(b), want.eob(b), "{ctx}: block {b} EOB");
                    }
                    // Per-row classes price the CPU band; restart-free rows
                    // match the sequential decoder's metrics outright.
                    for (r, (got, want)) in rows.iter().zip(&want_rows.per_row).enumerate() {
                        assert_eq!(got.eob_classes, want.eob_classes, "{ctx}: row {r}");
                        if interval == 0 {
                            assert_eq!(got, want, "{ctx}: row {r}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn speculative_path_runs_on_restart_free_streams() {
        // interval 0 → the speculative chunk workers + stitch, not a
        // sequential fallback.
        let jpeg = noise_jpeg(256, 160, 77, 80, Subsampling::S420, 0);
        let prep = Prepared::new(&jpeg).unwrap();
        let (want, _) = prep.entropy_decode_all().unwrap();
        let mut coef = CoefBuffer::new(&prep.geom);
        let rows = prep.geom.mcus_y.div_ceil(4);
        let (_, spec) = feed_all(&prep, 4, rows, &mut coef).unwrap();
        assert_eq!(coef.as_slice(), want.as_slice());
        assert!(spec.chunks >= 2, "speculation launched: {spec:?}");
        assert!(spec.adopted_mcus > 0, "{spec:?}");
    }

    #[test]
    fn long_restart_intervals_are_chunked_inside_segments() {
        // A restart interval longer than a feed chunk: the planner chunks
        // speculatively inside each segment, and a split plan decoding
        // through the feed stays bit-identical.
        let jpeg = noise_jpeg(192, 144, 13, 82, Subsampling::S422, 96);
        let prep = Prepared::new(&jpeg).unwrap();
        let segments = split_restart_segments(&prep.parsed, &prep.geom);
        assert!(segments.len() > 1);
        let platform = Platform::gtx680();
        let model = platform.untrained_model();
        let mut ws = Workspace::default();
        let want = simd(&prep, &platform, &mut ws);
        let before = ws.spec;
        for mode in [Mode::PipelinedGpu, Mode::Pps, Mode::ParallelEntropy] {
            let plan = split::Plan::of(mode, &prep, &model, 4);
            let got =
                to_rgb(|out| split::decode(&prep, &platform, &model, &plan, None, &mut ws, out));
            assert_eq!(got.unwrap().image.data, want.image.data, "{mode:?}");
        }
        let chunks = ws.spec.chunks - before.chunks;
        assert!(chunks > 3 * segments.len() as u64, "{chunks} chunks");
    }

    /// The device's Huffman pass over `prep`'s rows, in two passes split at
    /// `split` as a re-partition makes them, fed by `threads` workers: the
    /// lanes cover every MCU once, inside the scan, and the subsequence
    /// kernels write exactly the compacted layout of the sequential
    /// decoder's coefficients. Returns whether a lane start was nudged off
    /// the `00` of a stuffed `FF 00`, and whether a pass ended mid-byte.
    fn assert_device_pass(
        prep: &Prepared<'_>,
        threads: usize,
        split: usize,
        ctx: &str,
    ) -> (bool, bool) {
        use crate::gpu_decode::{GpuContext, ScanSource, TransferMode};
        let (geom, scan) = (&prep.geom, prep.parsed.scan_data);
        let platform = Platform::gtx560();
        let (want, _) = prep.entropy_decode_all().expect(ctx);
        let feed_mcus = geom.mcus_y.div_ceil(threads) * geom.mcus_x;
        let mut feed = Feed::new(prep, &platform, threads, |s| {
            s.mcu_count.div_ceil(feed_mcus)
        })
        .unwrap_or_else(|| panic!("{ctx}: fed"));
        let mut coef = CoefBuffer::new(geom);
        let mut gpu = GpuContext::new(&platform, TransferMode::Compacted);
        let (mut nudged, mut mid_byte) = (false, false);
        for (r0, r1) in [(0, split), (split, geom.mcus_y)] {
            if r0 == r1 {
                continue;
            }
            feed.skip(&mut coef, r1)
                .unwrap_or_else(|_| panic!("{ctx}: stitched"));
            let (table, bytes) = feed.device_lanes(r0..r1);
            let ctx = format!("{ctx}, rows {r0}..{r1}");
            assert!(bytes.end <= scan.len(), "{ctx}: inside the scan");
            let n = geom.blocks_in_mcu_rows(r0, r1);
            let mut blocks = table.blocks.clone();
            blocks.sort_unstable();
            assert!(
                blocks.iter().copied().eq(0..n as u32),
                "{ctx}: every block once"
            );
            let covered: u64 = table.lanes.iter().map(|l| l.covered.blocks).sum();
            assert_eq!(covered, n as u64, "{ctx}: the lanes tile the rows");
            let ends = table.lanes.iter().map(|l| l.blocks.end);
            assert!(ends.eq(table
                .lanes
                .iter()
                .skip(1)
                .map(|l| l.blocks.start)
                .chain([n])));
            for l in &table.lanes {
                for r in [&l.own_bytes, &l.overflow_bytes, &l.covered_bytes] {
                    assert!(r.start <= r.end && r.end <= bytes.len(), "{ctx}: {r:?}");
                }
                let s = bytes.start + l.own_bytes.start;
                nudged |= s > 0 && scan[s - 1] == 0x00 && s > 1 && scan[s - 2] == 0xFF;
            }
            let m1 = r1 * geom.mcus_x - 1;
            let at = feed.blocks[m1 * geom.blocks_per_mcu()].at;
            mid_byte |= !(at + feed.work[m1].bits as u64).is_multiple_of(8);
            let src = ScanSource {
                bytes: &scan[bytes],
                table: &table,
            };
            gpu.decode_entropy(prep, &coef, src, r0, r1);
            let (mut payload, mut offsets) = (Vec::new(), Vec::new());
            want.pack_compacted_into(geom, r0, r1, &mut payload, &mut offsets);
            let mut eobs = Vec::new();
            want.pack_eobs_mcu_rows_into(geom, r0, r1, &mut eobs);
            let le = |v: &[i16]| v.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>();
            let words: Vec<u8> = offsets.iter().flat_map(|x| x.to_le_bytes()).collect();
            let [got_payload, got_offsets, got_eobs] = gpu.entropy_written();
            assert!(got_payload == le(&payload), "{ctx}: coefficients");
            assert!(got_offsets == words, "{ctx}: offset table");
            assert!(got_eobs == eobs, "{ctx}: EOB sidecar");
        }
        (nudged, mid_byte)
    }

    /// The device lanes' test images: every subsampling × quality, widths
    /// from one block to past a thousand (odd ones included), restart
    /// intervals of none, one (small and wide images) and three MCUs and
    /// one longer than a feed chunk. Each comes with a name for messages.
    fn lane_matrix() -> Vec<(String, Vec<u8>)> {
        let mut out = Vec::new();
        for sub in [Subsampling::S444, Subsampling::S422, Subsampling::S420] {
            for (q, w, h, interval) in [
                (30, 8, 8, 0),
                (75, 9, 40, 1),
                (30, 257, 48, 1),
                (95, 17, 33, 3),
                (30, 63, 24, 0),
                (75, 257, 40, 0),
                (95, 513, 24, 3),
                (75, 1031, 16, 0),
                (95, 100, 64, 40),
            ] {
                let ctx = format!("{} q{q} {w}x{h} DRI {interval}", sub.notation());
                out.push((ctx, noise_jpeg(w, h, (w * h) as u32, q, sub, interval)));
            }
        }
        out
    }

    #[test]
    fn device_entropy_writes_the_sequential_coefficients() {
        // Every image of the lane matrix in two device passes split
        // mid-image, fed by two and three workers.
        let (mut nudged, mut mid_byte) = (false, false);
        for (ctx, jpeg) in lane_matrix() {
            let prep = Prepared::new(&jpeg).unwrap();
            for threads in [2, 3] {
                let split = (prep.geom.mcus_y / 2).max(1);
                let (a, b) = assert_device_pass(&prep, threads, split, &ctx);
                (nudged, mid_byte) = (nudged | a, mid_byte | b);
            }
        }
        assert!(nudged, "no lane start fell on a stuffed FF 00");
        assert!(mid_byte, "no pass ended mid-byte");
    }

    /// A plain sequential decode's record of `prep`'s blocks, block by
    /// block through each restart segment, up to the first failing block.
    fn sequential_records(prep: &Prepared<'_>) -> Vec<BlockAt> {
        let (geom, scan) = (&prep.geom, prep.parsed.scan_data);
        let tables = prep.huffman_tables().unwrap();
        let mut pattern = Vec::new();
        for (ci, c) in geom.comps.iter().enumerate() {
            pattern.extend(std::iter::repeat_n(ci, c.h_samp * c.v_samp));
        }
        let mut out = Vec::new();
        for seg in split_restart_segments(&prep.parsed, geom) {
            let payload = &scan[seg.offset..(seg.offset + seg.len + 2).min(scan.len())];
            let mut dec = McuDecoder::new_at(tables, payload, 0);
            for _ in 0..seg.mcu_count {
                for &ci in &pattern {
                    match dec.decode_block(ci, &mut [0; 64]) {
                        Ok((rec, _, _)) => out.push(rec),
                        Err(_) => return out,
                    }
                }
            }
        }
        out
    }

    #[test]
    fn the_feed_records_each_block_as_a_sequential_decode_does() {
        // The lane matrix cut into 2–8 feed chunks a segment, pristine, cut
        // and byte-flipped: the feed's record of every block it stitched
        // equals a plain sequential block-by-block decode, up to the
        // handover on damage. Blocks decoded from the padding past a
        // marker or the end have no position and read as no work.
        let platform = Platform::gtx560();
        let (mut padded, mut handed_over) = (0, 0);
        for (ctx, jpeg) in lane_matrix() {
            let scan = Prepared::new(&jpeg).unwrap().parsed.scan_data;
            let (at, len) = (scan.as_ptr() as usize - jpeg.as_ptr() as usize, scan.len());
            let mut cut = jpeg[..at + len * 2 / 3].to_vec();
            cut.extend_from_slice(&[0xFF, 0xD9]);
            let mut flipped = jpeg.clone();
            flipped[at + len / 2] ^= 0x5A;
            for (case, bytes) in [("pristine", &jpeg), ("cut", &cut), ("flipped", &flipped)] {
                let Ok(prep) = Prepared::new(bytes) else {
                    continue;
                };
                let want = sequential_records(&prep);
                let blocks = prep.geom.mcus_x * prep.geom.mcus_y * prep.geom.blocks_per_mcu();
                for chunks in 2..=8 {
                    let ctx = format!("{ctx}, {case}, {chunks} chunks");
                    let Some(mut feed) = Feed::new(&prep, &platform, 2, |_| chunks) else {
                        continue; // a damaged restart structure is never fed
                    };
                    let mut coef = CoefBuffer::new(&prep.geom);
                    let whole = feed.skip(&mut coef, prep.geom.mcus_y).is_ok();
                    let got = &feed.blocks;
                    assert!(got.len() <= want.len(), "{ctx}: {} blocks", got.len());
                    assert!(got[..] == want[..got.len()], "{ctx}: records");
                    if whole {
                        assert_eq!(got.len(), blocks, "{ctx}: every block");
                    } else {
                        assert!(case != "pristine", "{ctx}: handed over");
                        handed_over += 1;
                    }
                    for r in got.iter().filter(|r| r.at == u64::MAX) {
                        let none = Work {
                            blocks: 1,
                            ..Work::default()
                        };
                        assert_eq!(block_work(r), none, "{ctx}: padded block");
                        padded += 1;
                    }
                }
            }
        }
        assert!(padded > 0, "no block was decoded from padding");
        assert!(handed_over > 0, "no damaged stream handed over");
    }

    #[test]
    fn damaged_device_plans_fail_and_salvage_as_sequential() {
        // Cut and byte-flipped streams through every fed GPU plan: strict
        // handling returns the sequential decoder's error, tolerant
        // handling the salvage fill's pixels.
        use crate::session::{DecodeOptions, Decoder, Strictness};
        let session = |threads| {
            Decoder::builder()
                .platform(Platform::gtx680())
                .threads(threads)
                .build()
                .unwrap()
        };
        let (fed, one) = (session(2), session(1));
        let mut checked = 0;
        for interval in [0, 3] {
            let jpeg = noise_jpeg(96, 128, 5, 75, Subsampling::S422, interval);
            let mut cases: Vec<Vec<u8>> = [40, 70]
                .map(|pct| jpeg[..jpeg.len() * pct / 100].to_vec())
                .into();
            for pct in [35, 55, 80] {
                let mut bad = jpeg.clone();
                let i = bad.len() * pct / 100;
                bad[i] ^= 0x5A;
                cases.push(bad);
            }
            for bad in &cases {
                let strict = |dec: &Decoder, mode| dec.decode(bad, DecodeOptions::with_mode(mode));
                let want = strict(&one, Mode::Simd);
                let tolerant = |dec: &Decoder, mode| {
                    let opts = DecodeOptions {
                        strictness: Strictness::Tolerant,
                        ..DecodeOptions::with_mode(mode)
                    };
                    dec.decode(bad, opts).map(|o| o.image.data)
                };
                let salvaged = tolerant(&one, Mode::Simd);
                for mode in [Mode::Gpu, Mode::PipelinedGpu, Mode::Sps, Mode::Pps] {
                    let ctx = format!("DRI {interval}, {} bytes, {mode:?}", bad.len());
                    match (&want, strict(&fed, mode)) {
                        (Err(w), Err(g)) => assert_eq!(&g, w, "{ctx}"),
                        (Ok(w), Ok(g)) => assert!(g.image.data == w.image.data, "{ctx}"),
                        (w, g) => panic!("{ctx}: {:?} vs {:?}", w.as_ref().err(), g.err()),
                    }
                    assert_eq!(tolerant(&fed, mode), salvaged, "{ctx}: salvage");
                }
                checked += u64::from(want.is_err());
            }
        }
        assert!(
            checked >= 3,
            "only {checked} streams failed a strict decode"
        );
    }

    #[test]
    fn parallel_entropy_surfaces_errors() {
        let rgb = vec![128u8; 64 * 64 * 3];
        let params = EncodeParams {
            quality: 80,
            subsampling: Subsampling::S422,
            restart_interval: 2,
        };
        let jpeg = encode_rgb(&rgb, 64, 64, &params).unwrap();
        let mut prep = Prepared::new(&jpeg).unwrap();
        // Remove the AC tables so every segment fails to decode.
        prep.parsed.ac_specs = [None, None, None, None];
        let platform = Platform::gtx560();
        let model = platform.untrained_model();
        let mut ws = Workspace::default();
        let res = to_rgb(|out| {
            dispatch(
                &prep,
                Mode::ParallelEntropy,
                &platform,
                &model,
                4,
                None,
                &mut ws,
                out,
            )
        });
        assert!(res.is_err());
    }
}
