//! Real-thread pipelined execution on the host.
//!
//! The virtual-time schedulers in [`crate::schedule`] model the paper's
//! three machines; this module demonstrates that the same pipeline
//! structure delivers *actual wall-clock* overlap on the host running this
//! code: the entropy thread Huffman-decodes chunk after chunk and streams
//! packed coefficient chunks over a channel to a worker that runs the GPU
//! kernels (functionally, on the simulator's thread pool), while the CPU
//! band is decoded with the SIMD-style path. This is the "re-engineering
//! legacy code for heterogeneous multicores" half of the paper (§3) made
//! concrete with channels instead of OpenCL async commands.
//!
//! The pipeline is allocation-free per chunk in the steady state: the
//! chunk channel is **bounded** (back-pressure instead of unbounded queue
//! growth when the GPU worker falls behind), and consumed chunk buffers are
//! recycled to the entropy thread through a return channel acting as a
//! free-list, so `pack_mcu_rows_into` reuses their capacity.

use crate::gpu_decode::{GpuContext, KernelPlan, TransferMode};
use crate::model::PerformanceModel;
use crate::partition::pps;
use crate::platform::Platform;
use hetjpeg_jpeg::coef::CoefBuffer;
use hetjpeg_jpeg::decoder::{simd, Prepared};
use hetjpeg_jpeg::error::Result;
use hetjpeg_jpeg::types::RgbImage;
use std::time::{Duration, Instant};

/// In-flight chunk bound of the pipeline channel: enough to keep the GPU
/// worker busy while the entropy thread decodes the next chunk, small
/// enough to cap staging memory at a few chunks.
const PIPELINE_DEPTH: usize = 2;

/// Outcome of a real-thread decode.
#[derive(Debug)]
pub struct ThreadedOutcome {
    /// Decoded image (byte-identical to every other mode).
    pub image: RgbImage,
    /// Wall-clock duration of the parallel decode.
    pub wall: Duration,
    /// MCU rows executed through the GPU path.
    pub gpu_mcu_rows: usize,
}

/// Implementation of the real-thread pipeline behind
/// [`crate::session::Decoder::decode_threaded`]: entropy+CPU-band on the
/// calling thread, GPU kernels on a worker fed through a bounded channel
/// with pooled chunk buffers. The worker owns one device context for the
/// whole decode and reads each chunk back into its rows of the image.
pub(crate) fn decode_pps_threaded_impl(
    data: &[u8],
    platform: &Platform,
    model: &PerformanceModel,
) -> Result<ThreadedOutcome> {
    let prep = Prepared::new(data)?;
    let geom = &prep.geom;
    let d = prep.parsed.entropy_density();
    let chunk_rows = model.chunk_mcu_rows.max(1);
    let chunk_px = (chunk_rows * geom.mcu_h) as f64;
    let part = pps::initial_partition(model, geom, d, chunk_px);
    let gpu_end = part.gpu_mcu_rows;

    let start = Instant::now();
    let mut image = RgbImage::new(geom.width, geom.height);
    let row_bytes = geom.width * 3;
    let (gpu_px_end, _) = geom.mcu_rows_to_pixel_rows(gpu_end, geom.mcus_y);
    let (gpu_rgb, cpu_rgb) = image.data.split_at_mut(gpu_px_end * row_bytes);

    crossbeam::scope(|s| -> Result<()> {
        type Chunk = (usize, usize, Vec<i16>, Vec<u8>);
        let (tx, rx) = crossbeam::channel::bounded::<Chunk>(PIPELINE_DEPTH);
        // Free-list of consumed chunk buffers flowing back to the producer.
        let (pool_tx, pool_rx) = crossbeam::channel::unbounded::<(Vec<i16>, Vec<u8>)>();
        let prep_ref = &prep;

        // GPU worker: functional kernel execution per chunk (coefficients
        // plus the EOB sidecar the kernels dispatch on), returning each
        // chunk buffer pair to the pool once decoded.
        let worker = s.spawn(move |_| -> Result<()> {
            let mut gpu = GpuContext::new(platform, TransferMode::default());
            for (row0, row1, packed, eobs) in rx.iter() {
                let (p0, p1) = prep_ref.geom.mcu_rows_to_pixel_rows(row0, row1);
                gpu.decode_packed_region(
                    prep_ref,
                    &packed,
                    &eobs,
                    row0,
                    row1,
                    model.wg_blocks,
                    KernelPlan::Merged,
                    &mut gpu_rgb[p0 * row_bytes..p1 * row_bytes],
                )?;
                let _ = pool_tx.send((packed, eobs)); // producer may already be done
            }
            Ok(())
        });

        // Entropy thread (this thread): decode and stream the GPU's chunks.
        let mut coef = CoefBuffer::new(geom);
        let mut dec = prep.entropy_decoder()?;
        let mut row = 0usize;
        while row < gpu_end {
            let end = (row + chunk_rows).min(gpu_end);
            for _ in row..end {
                dec.decode_mcu_row(&mut coef)?;
            }
            let (mut packed, mut eobs) = pool_rx.try_recv().unwrap_or_default();
            coef.pack_mcu_rows_into(geom, row, end, &mut packed);
            coef.pack_eobs_mcu_rows_into(geom, row, end, &mut eobs);
            tx.send((row, end, packed, eobs)).expect("gpu worker alive");
            row = end;
        }
        drop(tx);

        // CPU band: finish Huffman, then the SIMD-style parallel phase.
        if gpu_end < geom.mcus_y {
            while !dec.is_finished() {
                dec.decode_mcu_row(&mut coef)?;
            }
            let mut scratch = simd::SimdScratch::new(&prep);
            let mut sink = simd::RgbBand::new(&prep, gpu_end, geom.mcus_y, cpu_rgb)?;
            simd::render_rows(&prep, &coef, gpu_end, geom.mcus_y, &mut scratch, &mut sink);
        }
        worker.join().expect("gpu worker panicked")
    })
    .expect("scope panicked")?;

    Ok(ThreadedOutcome {
        image,
        wall: start.elapsed(),
        gpu_mcu_rows: gpu_end,
    })
}

/// Aggregated result of the parallel entropy phase — what the virtual-time
/// scheduler of `Mode::ParallelEntropy` prices.
#[derive(Debug, Clone, Default)]
pub struct EntropyParallelOutcome {
    /// Work metrics of each parallel unit, in launch order: one per restart
    /// segment on the segment-parallel path, one per speculative chunk
    /// worker (its total speculative effort, discarded attempts included)
    /// on the speculative path.
    pub unit_metrics: Vec<hetjpeg_jpeg::metrics::RowMetrics>,
    /// Exact re-decode work the serial stitch pass performed (zero on the
    /// segment-parallel and sequential paths).
    pub stitch_metrics: hetjpeg_jpeg::metrics::RowMetrics,
    /// EOB-class histogram of the blocks actually written — the sparse
    /// pricing input for the parallel phase. On the speculative path this
    /// comes from the *stitched* output, not the workers (whose counters
    /// include pre-convergence garbage).
    pub classes: [u64; 4],
    /// Speculation counters (all zero unless the speculative path ran).
    pub spec: hetjpeg_jpeg::speculate::SpecStats,
}

/// CI/testing hook (ISSUE 6): when `HETJPEG_FORCE_SPECULATIVE=1`, even
/// restartful streams are decoded through the speculative chunking (within
/// each restart segment), so the speculative path is exercised on corpora
/// that happen to carry DRI.
fn force_speculative() -> bool {
    std::env::var("HETJPEG_FORCE_SPECULATIVE").is_ok_and(|v| v == "1")
}

/// Parallel Huffman decoding of *any* baseline scan.
///
/// The paper treats entropy decoding as strictly sequential because "the
/// JPEG standard does not enforce the self-synchronization property" (§1).
/// Two escapes exist, and this driver uses both:
///
/// * **Restart segments** — when the encoder emitted DRI, each interval is
///   byte-aligned with reset predictors and decodes independently on a
///   scoped thread pool (Klein & Wiseman, the paper's related work).
/// * **Speculative self-synchronization** — without restart markers the
///   stream still self-synchronizes in practice: chunk workers started at
///   evenly spaced byte offsets converge onto the true codeword boundaries
///   after a short prefix ([`hetjpeg_jpeg::speculate`], after Weißenberger
///   & Schmidt), and a serial stitch pass reconciles their staged output
///   into the exact sequential result.
///
/// Either way the output is bit-identical to the sequential pass.
pub fn decode_entropy_parallel(
    prep: &Prepared<'_>,
    threads: usize,
) -> Result<hetjpeg_jpeg::coef::CoefBuffer> {
    let mut coef = CoefBuffer::new(&prep.geom);
    decode_entropy_parallel_into(prep, threads, &mut coef)?;
    Ok(coef)
}

/// [`decode_entropy_parallel`] into a caller-owned (pooled) buffer,
/// returning per-unit work metrics plus stitch/speculation accounting.
/// Restartful streams use the segment-parallel path (unless
/// `HETJPEG_FORCE_SPECULATIVE=1` routes them through per-segment
/// speculative chunking); restart-free streams use the speculative path;
/// one thread decodes sequentially.
pub fn decode_entropy_parallel_into(
    prep: &Prepared<'_>,
    threads: usize,
    coef: &mut CoefBuffer,
) -> Result<EntropyParallelOutcome> {
    use hetjpeg_jpeg::entropy::{decode_mcu_segment_into, split_restart_segments};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

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
    let threads = threads.min(segments.len());
    let next = AtomicUsize::new(0);
    let failed = std::sync::atomic::AtomicBool::new(false);
    let first_err: Mutex<Option<hetjpeg_jpeg::Error>> = Mutex::new(None);
    let seg_metrics: Mutex<Vec<Option<hetjpeg_jpeg::metrics::RowMetrics>>> =
        Mutex::new(vec![None; segments.len()]);
    let writer = coef.writer();
    crossbeam::scope(|s| {
        for _ in 0..threads {
            let next = &next;
            let failed = &failed;
            let segments = &segments;
            let writer = &writer;
            let first_err = &first_err;
            let seg_metrics = &seg_metrics;
            s.spawn(move |_| loop {
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
                    decode_mcu_segment_into(&prep.parsed, geom, tables, &segments[i], writer)
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
    })
    .expect("entropy worker panicked");

    if let Some(e) = first_err.into_inner().expect("error mutex") {
        return Err(e);
    }
    let unit_metrics: Vec<hetjpeg_jpeg::metrics::RowMetrics> = seg_metrics
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
    segments: &[hetjpeg_jpeg::entropy::RestartSegment],
    threads: usize,
    coef: &mut CoefBuffer,
) -> Result<EntropyParallelOutcome> {
    use hetjpeg_jpeg::speculate::{decode_chunk_speculative, plan_chunks, stitch_segment};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let geom = &prep.geom;
    let tables = prep.huffman_tables()?;
    let scan = prep.parsed.scan_data;
    let payload_of = |seg: &hetjpeg_jpeg::entropy::RestartSegment| {
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
    let staged: Mutex<Vec<Option<hetjpeg_jpeg::speculate::StagedChunk<'_>>>> =
        Mutex::new((0..jobs.len()).map(|_| None).collect());
    crossbeam::scope(|s| {
        for _ in 0..threads.min(jobs.len()) {
            let next = &next;
            let jobs = &jobs;
            let staged = &staged;
            s.spawn(move |_| loop {
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
    })
    .expect("speculative worker panicked");

    let staged: Vec<hetjpeg_jpeg::speculate::StagedChunk<'_>> = staged
        .into_inner()
        .expect("staging mutex")
        .into_iter()
        .map(|c| c.expect("every chunk decoded"))
        .collect();

    // Serial stitch, segment by segment (the reconciler is the only writer,
    // so no unsafe aliasing is needed on this path).
    let mut out = EntropyParallelOutcome::default();
    let mut staged = staged.into_iter();
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
    use hetjpeg_jpeg::decoder::decode;
    use hetjpeg_jpeg::encoder::{encode_rgb, EncodeParams};
    use hetjpeg_jpeg::types::Subsampling;

    fn jpeg_of(w: usize, h: usize) -> Vec<u8> {
        let mut rgb = Vec::with_capacity(w * h * 3);
        let mut s = 99u32;
        for _ in 0..w * h {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            rgb.extend_from_slice(&[(s >> 8) as u8, (s >> 16) as u8, (s >> 24) as u8]);
        }
        encode_rgb(
            &rgb,
            w as u32,
            h as u32,
            &EncodeParams {
                quality: 80,
                subsampling: Subsampling::S422,
                restart_interval: 0,
            },
        )
        .unwrap()
    }

    #[test]
    fn threaded_decode_is_bit_identical_to_reference() {
        let jpeg = jpeg_of(160, 192);
        let platform = Platform::gtx560();
        let model = platform.untrained_model();
        let want = decode(&jpeg).unwrap();
        let got = decode_pps_threaded_impl(&jpeg, &platform, &model).unwrap();
        assert_eq!(got.image.data, want.data);
        assert!(got.wall.as_nanos() > 0);
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
                let got = decode_entropy_parallel(&prep, threads).unwrap();
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
        // interval 0 → the speculative chunk workers + stitch, not the
        // sequential fallback that existed before PR 6.
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
        assert!(decode_entropy_parallel(&prep, 4).is_err());
    }

    #[test]
    fn threaded_decode_handles_all_gpu_and_all_cpu_partitions() {
        let jpeg = jpeg_of(96, 96);
        // Force extremes with doctored models.
        let platform = Platform::gtx680();
        let mut all_gpu = platform.untrained_model();
        all_gpu.p_cpu.coefs[1][1] *= 1e3; // CPU looks terrible => all GPU
        let out = decode_pps_threaded_impl(&jpeg, &platform, &all_gpu).unwrap();
        assert_eq!(out.image.data, decode(&jpeg).unwrap().data);

        let mut all_cpu = platform.untrained_model();
        all_cpu.p_gpu.coefs[1][1] *= 1e3; // GPU looks terrible => all CPU
        let out = decode_pps_threaded_impl(&jpeg, &platform, &all_cpu).unwrap();
        assert_eq!(out.image.data, decode(&jpeg).unwrap().data);
    }
}
