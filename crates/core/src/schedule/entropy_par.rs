//! `Mode::ParallelEntropy`: parallel Huffman decoding of any baseline scan.
//!
//! The paper treats entropy decoding as strictly sequential (§1); restart
//! markers make each interval independently decodable, and — since PR 6 —
//! restart-*free* streams are split by speculative self-synchronization
//! ([`hetjpeg_jpeg::speculate`]): chunk workers decode from evenly spaced
//! byte offsets and a serial stitch pass reconciles their staged output
//! into the exact sequential result.
//! [`crate::exec::decode_entropy_parallel_into`] really decodes both paths
//! on a scoped thread pool. This module wires that driver in as a
//! first-class decode mode: the functional output comes from the real
//! threaded decode, while the virtual-time trace list-schedules the
//! measured per-unit Huffman work (segments, or speculative chunk efforts
//! including their convergence waste) onto `threads` virtual workers,
//! appends the serial stitch span, then the CPU render at the SIMD costs.
//!
//! The parallel phase is priced with the **sparse-aware** per-unit cost
//! ([`crate::cost::CpuCostModel::parallel_time_sparse`]): this mode
//! postdates the paper, so unlike the six calibrated modes it has no
//! Fig. 6/7 anchor to preserve, and the EOB-class histogram the entropy
//! decoder collects is exactly the retraining input the ROADMAP calls for.
//!
//! With one thread the mode degenerates to sequential entropy + SIMD band,
//! still byte-identical.

use super::{render_cpu, DecodeOutcome, Filled, Mode};
use crate::exec::{decode_entropy_parallel_into, EntropyParallelOutcome};
use crate::platform::Platform;
use crate::session::OutputFormat;
use crate::timeline::{Resource, Trace};
use crate::workspace::Workspace;
use hetjpeg_jpeg::decoder::Prepared;
use hetjpeg_jpeg::error::Result;

/// Fixed virtual-time overhead charged per restart segment (per-segment
/// Huffman table construction and worker hand-off in the real driver).
pub const SEGMENT_OVERHEAD_S: f64 = 2e-6;

/// List-schedule measured per-segment Huffman work onto `threads` virtual
/// workers in ticket order — each segment goes to the worker that frees up
/// first, matching the real driver's atomic work-stealing ticket. Pushes
/// one trace span per segment and returns the Huffman wall-time plus the
/// accumulated EOB-class histogram.
pub(crate) fn schedule_segments(
    platform: &Platform,
    seg_metrics: &[hetjpeg_jpeg::metrics::RowMetrics],
    threads: usize,
    trace: &mut Trace,
) -> (f64, [u64; 4]) {
    let workers = threads.clamp(1, seg_metrics.len().max(1));
    let mut free_at = vec![0.0f64; workers];
    let mut classes = [0u64; 4];
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
        for (a, b) in classes.iter_mut().zip(m.eob_classes) {
            *a += b;
        }
    }
    let wall = free_at.iter().fold(0.0f64, |a, &b| a.max(b));
    (wall, classes)
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
    let (mut wall, _) = schedule_segments(platform, &out.unit_metrics, threads, trace);
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
    format: OutputFormat,
    ws: &mut Workspace,
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
    render_cpu(
        prep,
        platform,
        ws.parts(),
        filled,
        Mode::ParallelEntropy,
        format,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::single;
    use hetjpeg_jpeg::encoder::{encode_rgb, EncodeParams};
    use hetjpeg_jpeg::types::Subsampling;

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
        let simd_out =
            single::decode_cpu_in(&prep, &platform, Mode::Simd, OutputFormat::Rgb, &mut ws)
                .unwrap();
        let par =
            decode_parallel_entropy_in(&prep, &platform, 4, OutputFormat::Rgb, &mut ws).unwrap();
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
        let simd_out =
            single::decode_cpu_in(&prep, &platform, Mode::Simd, OutputFormat::Rgb, &mut ws)
                .unwrap();
        let par =
            decode_parallel_entropy_in(&prep, &platform, 4, OutputFormat::Rgb, &mut ws).unwrap();
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
        let simd_out =
            single::decode_cpu_in(&prep, &platform, Mode::Simd, OutputFormat::Rgb, &mut ws)
                .unwrap();
        let par =
            decode_parallel_entropy_in(&prep, &platform, 1, OutputFormat::Rgb, &mut ws).unwrap();
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
            let out =
                decode_parallel_entropy_in(&prep, &platform, threads, OutputFormat::Rgb, &mut ws)
                    .unwrap();
            assert!(
                out.times.huffman <= last * 1.0001,
                "{threads} threads: {} vs {}",
                out.times.huffman,
                last
            );
            last = out.times.huffman;
        }
    }
}
