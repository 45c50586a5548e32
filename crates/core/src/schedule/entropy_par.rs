//! `Mode::ParallelEntropy`: parallel Huffman decoding of any baseline scan.
//!
//! The paper treats entropy decoding as strictly sequential because "the
//! JPEG standard does not enforce the self-synchronization property" (§1).
//! Two escapes exist, and [`decode_entropy_parallel_into`] uses both on a
//! scoped thread pool:
//!
//! * **Restart segments** — when the encoder emitted DRI, each interval is
//!   byte-aligned with reset predictors and decodes independently (Klein &
//!   Wiseman, the paper's related work).
//! * **Speculative self-synchronization** — without restart markers the
//!   stream still self-synchronizes in practice: chunk workers started at
//!   evenly spaced byte offsets converge onto the true codeword boundaries
//!   after a short prefix ([`hetjpeg_jpeg::speculate`], after Weißenberger
//!   & Schmidt), and a serial stitch pass reconciles their staged output
//!   into the exact sequential result.
//!
//! Either way the output is bit-identical to the sequential pass. The
//! functional output comes from that real threaded decode, while the
//! virtual-time trace list-schedules the measured per-unit Huffman work
//! (segments, or speculative chunk efforts including their convergence
//! waste) onto `threads` virtual workers, appends the serial stitch span,
//! then the CPU render at the SIMD costs.
//!
//! The parallel phase is priced with the **sparse-aware** per-unit cost
//! ([`crate::cost::CpuCostModel::parallel_time_sparse`]): this mode
//! postdates the paper, so unlike the six calibrated modes it has no
//! Fig. 6/7 anchor to preserve, and the EOB-class histogram the entropy
//! decoder collects is exactly the retraining input the ROADMAP calls for.
//!
//! With one thread the mode degenerates to sequential entropy + SIMD band,
//! still byte-identical.

use super::{render_cpu, DecodeOutcome, Filled, Mode, Target};
use crate::platform::Platform;
use crate::timeline::{Resource, Trace};
use crate::workspace::Workspace;
use hetjpeg_jpeg::coef::CoefBuffer;
use hetjpeg_jpeg::decoder::Prepared;
use hetjpeg_jpeg::entropy::{decode_mcu_segment_into, split_restart_segments, RestartSegment};
use hetjpeg_jpeg::error::Result;
use hetjpeg_jpeg::metrics::RowMetrics;
use hetjpeg_jpeg::speculate::{
    decode_chunk_speculative, plan_chunks, stitch_segment, SpecStats, StagedChunk,
};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Fixed virtual-time overhead charged per restart segment (per-segment
/// Huffman table construction and worker hand-off in the real driver).
pub const SEGMENT_OVERHEAD_S: f64 = 2e-6;

/// List-schedule measured per-segment Huffman work onto `threads` virtual
/// workers in ticket order — each segment goes to the worker that frees up
/// first, matching the real driver's atomic work-stealing ticket. Pushes
/// one trace span per segment and returns the Huffman wall-time.
pub(crate) fn schedule_segments(
    platform: &Platform,
    seg_metrics: &[RowMetrics],
    threads: usize,
    trace: &mut Trace,
) -> f64 {
    let workers = threads.clamp(1, seg_metrics.len().max(1));
    let mut free_at = vec![0.0f64; workers];
    for m in seg_metrics {
        let w = free_at
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("at least one worker");
        let start = free_at[w];
        let t = platform.cpu.huff_time(m) + SEGMENT_OVERHEAD_S;
        trace.push("huffman", Resource::Cpu, start, start + t);
        free_at[w] = start + t;
    }
    free_at.iter().fold(0.0f64, |a, &b| a.max(b))
}

/// Virtual-time schedule of a full parallel entropy phase: the per-unit
/// work (restart segments, or speculative chunk efforts with their
/// convergence waste priced in) list-scheduled onto `threads` workers,
/// followed by the serial stitch span when the speculative path ran.
/// Returns the Huffman wall-time and the *written* EOB-class histogram —
/// not the workers' own counters, which include pre-convergence garbage.
pub(crate) fn schedule_entropy(
    platform: &Platform,
    out: &EntropyParallelOutcome,
    threads: usize,
    trace: &mut Trace,
) -> (f64, [u64; 4]) {
    let mut wall = schedule_segments(platform, &out.unit_metrics, threads, trace);
    if out.spec.chunks > 0 {
        // The stitch reconciler runs serially after the workers join.
        let t = platform.cpu.huff_time(&out.stitch_metrics);
        trace.push("stitch", Resource::Cpu, wall, wall + t);
        wall += t;
    }
    (wall, out.classes)
}

/// Parallel-entropy decode on pooled scratch: segment-parallel on
/// restartful streams, speculative chunk workers + stitch on restart-free
/// ones, then the CPU render.
pub(crate) fn decode_parallel_entropy_in(
    prep: &Prepared<'_>,
    platform: &Platform,
    threads: usize,
    ws: &mut Workspace,
    out: &mut Target<'_>,
) -> Result<DecodeOutcome> {
    ws.ensure(prep);
    // Functional decode on real threads, with per-unit work metrics.
    let outcome = decode_entropy_parallel_into(prep, threads, ws.parts().coef)?;
    ws.spec.merge(&outcome.spec);

    let mut trace = Trace::default();
    let (t_huff, classes) = schedule_entropy(platform, &outcome, threads, &mut trace);
    let filled = Filled {
        trace,
        t_huff,
        classes,
        truncated: false,
    };
    let mode = Mode::ParallelEntropy;
    render_cpu(prep, platform, ws.parts(), filled, mode, out)
}

/// Aggregated result of the parallel entropy phase — what the virtual-time
/// scheduler of `Mode::ParallelEntropy` prices.
#[derive(Debug, Clone, Default)]
pub struct EntropyParallelOutcome {
    /// Work metrics of each parallel unit, in launch order: one per restart
    /// segment on the segment-parallel path, one per speculative chunk
    /// worker (its total speculative effort, discarded attempts included)
    /// on the speculative path.
    pub unit_metrics: Vec<RowMetrics>,
    /// Exact re-decode work the serial stitch pass performed (zero on the
    /// segment-parallel and sequential paths).
    pub stitch_metrics: RowMetrics,
    /// EOB-class histogram of the blocks actually written — the sparse
    /// pricing input for the parallel phase. On the speculative path this
    /// comes from the *stitched* output, not the workers (whose counters
    /// include pre-convergence garbage).
    pub classes: [u64; 4],
    /// Speculation counters (all zero unless the speculative path ran).
    pub spec: SpecStats,
}

/// CI/testing hook: when `HETJPEG_FORCE_SPECULATIVE=1`, even
/// restartful streams are decoded through the speculative chunking (within
/// each restart segment), so the speculative path is exercised on corpora
/// that happen to carry DRI.
fn force_speculative() -> bool {
    std::env::var("HETJPEG_FORCE_SPECULATIVE").is_ok_and(|v| v == "1")
}

/// Decode the whole scan into a caller-owned (pooled) buffer on `threads`
/// workers, returning per-unit work metrics plus stitch/speculation
/// accounting. Restartful streams use the segment-parallel path (unless
/// `HETJPEG_FORCE_SPECULATIVE=1` routes them through per-segment
/// speculative chunking); restart-free streams use the speculative path;
/// one thread decodes sequentially.
pub fn decode_entropy_parallel_into(
    prep: &Prepared<'_>,
    threads: usize,
    coef: &mut CoefBuffer,
) -> Result<EntropyParallelOutcome> {
    let geom = &prep.geom;
    let segments = split_restart_segments(&prep.parsed, geom);
    if threads <= 1 {
        let mut dec = prep.entropy_decoder()?;
        let all = dec.decode_remaining(coef)?;
        let total = all.total();
        return Ok(EntropyParallelOutcome {
            classes: total.eob_classes,
            unit_metrics: vec![total],
            ..Default::default()
        });
    }
    if segments.len() <= 1 || force_speculative() {
        return decode_entropy_speculative_into(prep, &segments, threads, coef);
    }

    let tables = prep.huffman_tables()?;
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let first_err: Mutex<Option<hetjpeg_jpeg::Error>> = Mutex::new(None);
    let seg_metrics: Mutex<Vec<Option<RowMetrics>>> = Mutex::new(vec![None; segments.len()]);
    let writer = coef.writer();
    std::thread::scope(|s| {
        for _ in 0..threads.min(segments.len()) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                // Once any segment failed the decode is doomed; don't burn
                // time decoding the rest of a large image.
                if i >= segments.len() || failed.load(Ordering::Relaxed) {
                    break;
                }
                // SAFETY: each segment index is claimed by exactly one
                // worker (the atomic ticket), and segments partition the
                // MCU sequence, so concurrent writes target disjoint
                // blocks.
                let res = unsafe {
                    decode_mcu_segment_into(&prep.parsed, geom, tables, &segments[i], &writer)
                };
                match res {
                    Ok(m) => seg_metrics.lock().expect("metrics mutex")[i] = Some(m),
                    Err(e) => {
                        first_err.lock().expect("error mutex").get_or_insert(e);
                        failed.store(true, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    if let Some(e) = first_err.into_inner().expect("error mutex") {
        return Err(e);
    }
    let unit_metrics: Vec<RowMetrics> = seg_metrics
        .into_inner()
        .expect("metrics mutex")
        .into_iter()
        .map(|m| m.expect("every segment decoded"))
        .collect();
    let mut classes = [0u64; 4];
    for m in &unit_metrics {
        for (a, b) in classes.iter_mut().zip(m.eob_classes) {
            *a += b;
        }
    }
    Ok(EntropyParallelOutcome {
        unit_metrics,
        classes,
        ..Default::default()
    })
}

/// The speculative path: plan byte-aligned chunks inside each segment (the
/// whole scan when no restarts), decode every chunk speculatively on a
/// scoped ticket pool, then stitch each segment serially into `coef`. The
/// stitch re-decodes the short unconverged prefixes exactly, so errors (and
/// output) match the sequential decoder bit for bit.
pub(crate) fn decode_entropy_speculative_into(
    prep: &Prepared<'_>,
    segments: &[RestartSegment],
    threads: usize,
    coef: &mut CoefBuffer,
) -> Result<EntropyParallelOutcome> {
    let geom = &prep.geom;
    let tables = prep.huffman_tables()?;
    let scan = prep.parsed.scan_data;
    let payload_of = |seg: &RestartSegment| {
        &scan[seg.offset.min(scan.len())..(seg.offset + seg.len).min(scan.len())]
    };

    // Flatten every segment's chunk plan into one global job list.
    let mut jobs: Vec<(usize, usize, usize)> = Vec::new(); // (segment, start, stop)
    let mut seg_jobs: Vec<std::ops::Range<usize>> = Vec::with_capacity(segments.len());
    for (si, seg) in segments.iter().enumerate() {
        let lo = jobs.len();
        for (start, stop) in plan_chunks(payload_of(seg), threads) {
            jobs.push((si, start, stop));
        }
        seg_jobs.push(lo..jobs.len());
    }

    let next = AtomicUsize::new(0);
    let staged: Mutex<Vec<Option<StagedChunk<'_>>>> =
        Mutex::new((0..jobs.len()).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..threads.min(jobs.len()) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                let (si, start, stop) = jobs[i];
                let seg = &segments[si];
                let ch = decode_chunk_speculative(
                    geom,
                    tables,
                    payload_of(seg),
                    start,
                    stop,
                    seg.mcu_count,
                );
                staged.lock().expect("staging mutex")[i] = Some(ch);
            });
        }
    });

    let mut staged = staged
        .into_inner()
        .expect("staging mutex")
        .into_iter()
        .map(|c| c.expect("every chunk decoded"));

    // Serial stitch, segment by segment (the reconciler is the only writer,
    // so no unsafe aliasing is needed on this path).
    let mut out = EntropyParallelOutcome::default();
    for (si, seg) in segments.iter().enumerate() {
        let chunks: Vec<_> = (&mut staged).take(seg_jobs[si].len()).collect();
        for ch in &chunks {
            out.unit_metrics.push(ch.metrics);
        }
        let stitched = stitch_segment(
            geom,
            tables,
            payload_of(seg),
            seg.start_mcu,
            seg.mcu_count,
            &chunks,
            coef,
        )?;
        out.stitch_metrics.add(&stitched.stitch_metrics);
        for (a, b) in out.classes.iter_mut().zip(stitched.written.eob_classes) {
            *a += b;
        }
        out.spec.merge(&stitched.stats);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::dispatch;
    use crate::schedule::tests::to_rgb;
    use hetjpeg_jpeg::encoder::{encode_rgb, EncodeParams};
    use hetjpeg_jpeg::types::Subsampling;

    fn simd(prep: &Prepared<'_>, platform: &Platform, ws: &mut Workspace) -> DecodeOutcome {
        let model = platform.untrained_model();
        to_rgb(|out| dispatch(prep, Mode::Simd, platform, &model, 1, ws, out)).unwrap()
    }

    fn par(
        prep: &Prepared<'_>,
        platform: &Platform,
        n: usize,
        ws: &mut Workspace,
    ) -> DecodeOutcome {
        to_rgb(|out| decode_parallel_entropy_in(prep, platform, n, ws, out)).unwrap()
    }

    fn jpeg_with_restarts(w: usize, h: usize, interval: usize) -> Vec<u8> {
        let mut rgb = Vec::with_capacity(w * h * 3);
        let mut s = 7u32;
        for _ in 0..w * h {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            rgb.extend_from_slice(&[(s >> 8) as u8, (s >> 16) as u8, (s >> 24) as u8]);
        }
        encode_rgb(
            &rgb,
            w as u32,
            h as u32,
            &EncodeParams {
                quality: 82,
                subsampling: Subsampling::S422,
                restart_interval: interval,
            },
        )
        .unwrap()
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
        // PR 6: the restart-free stream no longer falls back to sequential
        // entropy — speculative chunk workers + stitch shrink the Huffman
        // wall-time below the sequential stage while staying bit-identical.
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
        // One worker: the Huffman wall-time is the sequential time plus
        // the fixed per-unit overhead.
        assert!(par.times.huffman >= simd_out.times.huffman);
        assert!(par.times.huffman <= simd_out.times.huffman + 2.0 * SEGMENT_OVERHEAD_S);
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
        let (w, h) = (160usize, 128usize);
        let mut rgb = Vec::with_capacity(w * h * 3);
        let mut s = 31u32;
        for _ in 0..w * h {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            rgb.extend_from_slice(&[(s >> 8) as u8, (s >> 16) as u8, (s >> 24) as u8]);
        }
        for interval in [0usize, 2, 5, 16] {
            let jpeg = encode_rgb(
                &rgb,
                w as u32,
                h as u32,
                &EncodeParams {
                    quality: 80,
                    subsampling: Subsampling::S422,
                    restart_interval: interval,
                },
            )
            .unwrap();
            let prep = Prepared::new(&jpeg).unwrap();
            let (want, _) = prep.entropy_decode_all().unwrap();
            for threads in [1usize, 2, 8] {
                let mut got = CoefBuffer::new(&prep.geom);
                decode_entropy_parallel_into(&prep, threads, &mut got).unwrap();
                assert_eq!(
                    got.as_slice(),
                    want.as_slice(),
                    "interval {interval}, {threads} threads"
                );
                // EOBs must match too — the sparse IDCT dispatch reads them.
                for b in 0..want.num_blocks() {
                    assert_eq!(got.eob(b), want.eob(b), "block {b} EOB");
                }
            }
        }
    }

    #[test]
    fn speculative_path_runs_on_restart_free_streams() {
        // interval 0 → the speculative chunk workers + stitch, not a
        // sequential fallback.
        let (w, h) = (256usize, 160usize);
        let mut rgb = Vec::with_capacity(w * h * 3);
        let mut s = 77u32;
        for _ in 0..w * h {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            rgb.extend_from_slice(&[(s >> 8) as u8, (s >> 16) as u8, (s >> 24) as u8]);
        }
        let jpeg = encode_rgb(
            &rgb,
            w as u32,
            h as u32,
            &EncodeParams {
                quality: 80,
                subsampling: Subsampling::S420,
                restart_interval: 0,
            },
        )
        .unwrap();
        let prep = Prepared::new(&jpeg).unwrap();
        let (want, _) = prep.entropy_decode_all().unwrap();
        let mut coef = CoefBuffer::new(&prep.geom);
        let out = decode_entropy_parallel_into(&prep, 4, &mut coef).unwrap();
        assert_eq!(coef.as_slice(), want.as_slice());
        assert!(out.spec.chunks >= 2, "speculation launched: {:?}", out.spec);
        assert!(out.spec.adopted_mcus > 0, "{:?}", out.spec);
        assert_eq!(out.unit_metrics.len() as u64, out.spec.chunks);
        // The written histogram matches the sequential decode's exactly.
        assert_eq!(out.classes, want_classes(&prep));
    }

    fn want_classes(prep: &Prepared<'_>) -> [u64; 4] {
        let mut dec = prep.entropy_decoder().unwrap();
        let mut coef = CoefBuffer::new(&prep.geom);
        let all = dec.decode_remaining(&mut coef).unwrap();
        all.total().eob_classes
    }

    #[test]
    fn forced_speculation_chunks_restartful_segments() {
        // The HETJPEG_FORCE_SPECULATIVE=1 CI hook routes restartful streams
        // through per-segment speculative chunking; exercise the routine it
        // dispatches to directly (env vars are racy across parallel tests).
        let (w, h) = (192usize, 144usize);
        let mut rgb = Vec::with_capacity(w * h * 3);
        let mut s = 13u32;
        for _ in 0..w * h {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            rgb.extend_from_slice(&[(s >> 8) as u8, (s >> 16) as u8, (s >> 24) as u8]);
        }
        let jpeg = encode_rgb(
            &rgb,
            w as u32,
            h as u32,
            &EncodeParams {
                quality: 82,
                subsampling: Subsampling::S422,
                restart_interval: 8,
            },
        )
        .unwrap();
        let prep = Prepared::new(&jpeg).unwrap();
        let (want, _) = prep.entropy_decode_all().unwrap();
        let segments = hetjpeg_jpeg::entropy::split_restart_segments(&prep.parsed, &prep.geom);
        assert!(segments.len() > 1);
        let mut coef = CoefBuffer::new(&prep.geom);
        let out = decode_entropy_speculative_into(&prep, &segments, 4, &mut coef).unwrap();
        assert_eq!(coef.as_slice(), want.as_slice());
        for b in 0..want.num_blocks() {
            assert_eq!(coef.eob(b), want.eob(b), "block {b} EOB");
        }
        assert!(out.spec.chunks as usize >= segments.len());
    }

    #[test]
    fn parallel_entropy_surfaces_errors() {
        let (w, h) = (64usize, 64usize);
        let rgb = vec![128u8; w * h * 3];
        let jpeg = encode_rgb(
            &rgb,
            w as u32,
            h as u32,
            &EncodeParams {
                quality: 80,
                subsampling: Subsampling::S422,
                restart_interval: 2,
            },
        )
        .unwrap();
        let mut prep = Prepared::new(&jpeg).unwrap();
        // Remove the AC tables so every segment fails to decode.
        prep.parsed.ac_specs = [None, None, None, None];
        let mut coef = CoefBuffer::new(&prep.geom);
        assert!(decode_entropy_parallel_into(&prep, 4, &mut coef).is_err());
    }
}
