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
//! On the virtual clock the chunks are list-scheduled onto `threads`
//! workers in ticket order, each priced from its measured effort
//! (convergence waste included) plus [`SEGMENT_OVERHEAD_S`]; the loop's
//! thread waits for a chunk's worker, then pays the stitch's measured
//! re-decode. Rows therefore release in waves of `threads` chunks.
//! `Mode::ParallelEntropy` is this feed with no GPU rows: the whole scan
//! released, then the SIMD band.

use crate::platform::Platform;
use hetjpeg_jpeg::coef::CoefBuffer;
use hetjpeg_jpeg::decoder::Prepared;
use hetjpeg_jpeg::entropy::{split_restart_segments, HuffmanTables, RestartSegment};
use hetjpeg_jpeg::geometry::Geometry;
use hetjpeg_jpeg::metrics::RowMetrics;
use hetjpeg_jpeg::speculate::{
    decode_chunk_speculative, plan_chunks, SpecStats, StagedChunk, Stitch, Written,
};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Fixed virtual-time overhead charged per feed chunk (per-chunk set-up
/// and worker hand-off in the real decode).
pub const SEGMENT_OVERHEAD_S: f64 = 2e-6;

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
            ready_at: Vec::with_capacity(jobs.len()),
            stitched: 0,
            stitch: None,
            pending: VecDeque::new(),
            broken: None,
            next: 0,
            final_mcus: 0,
            redecoded: RowMetrics::default(),
            rows: vec![RowMetrics::default(); geom.mcus_y],
            released: 0,
            spec: SpecStats::default(),
            segments,
            jobs,
        };
        feed.staged = feed.decode_jobs(threads);
        // List-schedule the measured efforts onto the workers in ticket
        // order: each chunk goes to the worker that frees up first.
        let mut free_at = vec![0.0f64; threads.min(feed.jobs.len()).max(1)];
        for ch in feed.staged.iter().flatten() {
            let w = (0..free_at.len())
                .min_by(|&a, &b| free_at[a].total_cmp(&free_at[b]))
                .expect("at least one worker");
            free_at[w] += platform.cpu.huff_time(&ch.metrics) + SEGMENT_OVERHEAD_S;
            feed.ready_at.push(free_at[w]);
        }
        Some(feed)
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
        self.pending.extend(stitch.drain_written().map(|w| (k, w)));
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
        let cost = |w: &Written| RowMetrics {
            bits: w.metrics.bits as u64,
            symbols: w.metrics.symbols as u64,
            nonzero_coefs: w.metrics.nonzero as u64,
            blocks: bpm as u64,
            ..RowMetrics::default()
        };
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
/// prefix, with `chunks` speculative chunks per restart segment.
pub(crate) fn speculation_stats(
    prep: &Prepared<'_>,
    platform: &Platform,
    chunks: usize,
    coef: &mut CoefBuffer,
) -> Option<SpecStats> {
    let mut feed = Feed::new(prep, platform, chunks, |_| chunks)?;
    // At the end of time every worker is done: the reconciler never runs
    // ahead, so the counters are the chunks' own.
    let mut now = f64::INFINITY;
    while feed.released() < prep.geom.mcus_y {
        feed.advance(coef, platform, &mut now, prep.geom.mcus_y)
            .ok()?;
    }
    Some(feed.spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::tests::to_rgb;
    use crate::schedule::{dispatch, split, DecodeOutcome, Mode};
    use crate::workspace::Workspace;
    use hetjpeg_jpeg::encoder::{encode_rgb, EncodeParams};
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
