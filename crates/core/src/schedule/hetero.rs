//! Heterogeneous decode modes: SPS (§5.2.1) and PPS (§5.2.2).
//!
//! The `*_in` functions are the implementations on pooled scratch.

use super::{entropy_into, eob_classes_in, DecodeOutcome, Mode};
use crate::gpu_decode::{GpuContext, KernelPlan};
use crate::model::PerformanceModel;
use crate::partition::{pps, sps, Partition};
use crate::platform::Platform;
use crate::timeline::{Breakdown, Resource, Trace};
use crate::workspace::Workspace;
use hetjpeg_gpusim::CommandQueue;
use hetjpeg_jpeg::decoder::{simd, Prepared};
use hetjpeg_jpeg::error::Result;
use hetjpeg_jpeg::metrics::ParallelWork;
use hetjpeg_jpeg::types::RgbImage;

/// SPS on pooled scratch: Huffman-decode everything, then split the
/// parallel phase between GPU (initial rows) and CPU SIMD (final rows) at
/// the Eq. 10 balance point.
pub(crate) fn decode_sps_in(
    prep: &Prepared<'_>,
    platform: &Platform,
    model: &PerformanceModel,
    ws: &mut Workspace,
) -> Result<DecodeOutcome> {
    let geom = &prep.geom;
    ws.ensure(prep);
    let p = ws.parts();
    let (rows, t_huff) = entropy_into(prep, platform, p.coef)?;
    let part = sps::partition(model, geom);
    let g_rows = part.gpu_mcu_rows;

    let mut trace = Trace::default();
    trace.push("huffman", Resource::Cpu, 0.0, t_huff);
    let mut image = RgbImage::new(geom.width, geom.height);
    let mut b = Breakdown {
        huffman: t_huff,
        ..Default::default()
    };
    let mut q = CommandQueue::new();
    let mut cpu_now = t_huff;

    if g_rows > 0 {
        // Asynchronous dispatch of the GPU share, then the CPU continues.
        let t_disp = platform.cpu.dispatch_time(geom, 0, g_rows);
        trace.push("dispatch", Resource::Cpu, cpu_now, cpu_now + t_disp);
        cpu_now += t_disp;
        b.dispatch = t_disp;

        let (p0, p1) = geom.mcu_rows_to_pixel_rows(0, g_rows);
        let res = p.gpu.on(platform).decode_region(
            prep,
            p.coef,
            0,
            g_rows,
            model.wg_blocks,
            KernelPlan::Merged,
            &mut image.data[p0 * geom.width * 3..p1 * geom.width * 3],
        )?;
        p.stats.h2d_transfers += 1;
        p.stats.h2d_bytes += res.h2d_bytes as u64;
        let h2d = q.enqueue("h2d", cpu_now, res.h2d_time);
        trace.push("h2d", Resource::Gpu, h2d.start, h2d.end);
        b.h2d = res.h2d_time;
        for &(_, t) in &res.kernel_times {
            let ev = q.enqueue("kernel", q.drain_time(), t);
            trace.push("kernel", Resource::Gpu, ev.start, ev.end);
            b.kernels += t;
        }
        let d2h = q.enqueue("d2h", q.drain_time(), res.d2h_time);
        trace.push("d2h", Resource::Gpu, d2h.start, d2h.end);
        b.d2h = res.d2h_time;
    }

    if part.cpu_mcu_rows > 0 {
        let (p0, p1) = geom.mcu_rows_to_pixel_rows(g_rows, geom.mcus_y);
        let out = &mut image.data[p0 * geom.width * 3..p1 * geom.width * 3];
        let mut sink = simd::RgbBand::new(prep, g_rows, geom.mcus_y, out)?;
        let (work, _) = simd::render_rows(prep, p.coef, g_rows, geom.mcus_y, p.scratch, &mut sink);
        let classes = eob_classes_in(&rows, g_rows, geom.mcus_y);
        let t_band = platform.cpu.parallel_time_sparse(&work, &classes, true);
        trace.push("cpu-simd", Resource::Cpu, cpu_now, cpu_now + t_band);
        cpu_now += t_band;
        b.cpu_parallel = t_band;
    }

    b.total = cpu_now.max(q.drain_time());
    Ok(DecodeOutcome {
        image,
        ycc: None,
        times: b,
        trace,
        partition: Some(part),
        mode: Mode::Sps,
        truncated: false,
    })
}

/// PPS on pooled scratch: the GPU share is entropy-decoded in chunks and
/// dispatched asynchronously (overlapping Huffman with kernels, Fig. 8c);
/// before the last GPU chunk the split is re-balanced from the *measured*
/// Huffman progress (Eq. 16–17). Setting `repartition_enabled` to false is
/// the §5.2.2 ablation: on images whose entropy is skewed along the scan
/// direction, the initial (uniform-density) split stays in place and the
/// slower side dominates.
pub(crate) fn decode_pps_in(
    prep: &Prepared<'_>,
    platform: &Platform,
    model: &PerformanceModel,
    repartition_enabled: bool,
    ws: &mut Workspace,
) -> Result<DecodeOutcome> {
    let geom = &prep.geom;
    let w = geom.width as f64;
    let h = geom.height as f64;
    let d = prep.parsed.entropy_density(); // Eq. (3)
    let chunk_rows = model.chunk_mcu_rows.max(1);
    let chunk_px = (chunk_rows * geom.mcu_h) as f64;

    // Initial split (Eq. 15).
    let init = pps::initial_partition(model, geom, d, chunk_px);
    let mut gpu_end = init.gpu_mcu_rows; // GPU takes MCU rows [0, gpu_end)
    let est_total_huff = model.huff_time(w * h, d);

    ws.ensure(prep);
    let p = ws.parts();
    let gpu = p.gpu.on(platform);
    let mut dec = prep.entropy_decoder()?;
    let mut trace = Trace::default();
    let mut q = CommandQueue::new();
    let mut image = RgbImage::new(geom.width, geom.height);
    let mut b = Breakdown::default();
    let mut cpu_now = 0.0f64;
    let mut huff_spent = 0.0f64; // actual Huffman time so far
    let mut prefix_classes = [0u64; 4]; // EOB histogram of the rows so far
    let mut prefix_bits = 0u64; // entropy bits of the rows so far
    let mut repartitioned = false;

    let enqueue_gpu_chunk = |prep: &Prepared<'_>,
                             coef: &hetjpeg_jpeg::coef::CoefBuffer,
                             gpu: &mut GpuContext,
                             stats: &mut crate::workspace::PoolStats,
                             row0: usize,
                             row1: usize,
                             cpu_now: &mut f64,
                             trace: &mut Trace,
                             q: &mut CommandQueue,
                             b: &mut Breakdown,
                             image: &mut RgbImage|
     -> Result<()> {
        let t_disp = platform.cpu.dispatch_time(geom, row0, row1);
        trace.push("dispatch", Resource::Cpu, *cpu_now, *cpu_now + t_disp);
        *cpu_now += t_disp;
        b.dispatch += t_disp;
        let (p0, p1) = geom.mcu_rows_to_pixel_rows(row0, row1);
        let res = gpu.decode_region(
            prep,
            coef,
            row0,
            row1,
            model.wg_blocks,
            KernelPlan::Merged,
            &mut image.data[p0 * geom.width * 3..p1 * geom.width * 3],
        )?;
        stats.h2d_transfers += 1;
        stats.h2d_bytes += res.h2d_bytes as u64;
        let h2d = q.enqueue("h2d", *cpu_now, res.h2d_time);
        trace.push("h2d", Resource::Gpu, h2d.start, h2d.end);
        b.h2d += res.h2d_time;
        for &(_, t) in &res.kernel_times {
            let ev = q.enqueue("kernel", q.drain_time(), t);
            trace.push("kernel", Resource::Gpu, ev.start, ev.end);
            b.kernels += t;
        }
        let d2h = q.enqueue("d2h", q.drain_time(), res.d2h_time);
        trace.push("d2h", Resource::Gpu, d2h.start, d2h.end);
        b.d2h += res.d2h_time;
        Ok(())
    };

    // Pipeline the GPU share chunk by chunk.
    let mut row = 0usize;
    while row < gpu_end {
        let is_last_chunk = row + chunk_rows >= gpu_end;
        if is_last_chunk && !repartitioned && row > 0 && repartition_enabled {
            // Re-partition before the last GPU chunk (Eq. 16) using the
            // corrected density (Eq. 17), the GPU's current backlog, and —
            // since the PR-3 sparse retrain — the tail's expected IDCT
            // sparsity: the prefix's measured EOB discount, scaled by the
            // density correction (denser entropy ⇒ denser blocks), against
            // the corpus-average discount `PCPU` was fit at.
            repartitioned = true;
            let rows_done_px = (row * geom.mcu_h) as f64;
            let h_left = h - rows_done_px;
            let d_new = pps::corrected_density(d, est_total_huff, huff_spent, h_left, h);
            let backlog = (q.drain_time() - cpu_now).max(0.0);
            let prefix_discount = crate::cost::CpuCostModel::idct_discount(&prefix_classes);
            // Extrapolate the prefix's measured discount to the tail by
            // the tail-over-*prefix* density ratio (the prefix discount
            // was observed at the prefix's density, not the whole-image
            // average); `band_scale_for_discount` clamps the result.
            let d_prefix = prefix_bits as f64 / 8.0 / (w * rows_done_px).max(1.0);
            let tail_discount = if d_prefix > 0.0 {
                prefix_discount * d_new / d_prefix
            } else {
                prefix_discount
            };
            let tail_work = ParallelWork::for_mcu_rows(geom, row, geom.mcus_y);
            let cpu_scale = platform.cpu.band_scale_for_discount(
                &tail_work,
                tail_discount,
                model.pcpu_idct_discount,
            );
            let re = pps::repartition(model, geom, h_left, d_new, backlog, cpu_scale);
            // New boundary: GPU keeps `re.gpu_mcu_rows` of the remaining.
            gpu_end = (row + re.gpu_mcu_rows).min(geom.mcus_y);
        }
        if row >= gpu_end {
            break;
        }
        let end = (row + chunk_rows).min(gpu_end);
        let huff_start = cpu_now;
        for _ in row..end {
            let m = dec.decode_mcu_row(p.coef)?;
            let t = platform.cpu.huff_time(&m);
            cpu_now += t;
            huff_spent += t;
            prefix_bits += m.bits;
            for (a, b) in prefix_classes.iter_mut().zip(m.eob_classes) {
                *a += b;
            }
        }
        b.huffman += cpu_now - huff_start;
        trace.push("huffman", Resource::Cpu, huff_start, cpu_now);
        enqueue_gpu_chunk(
            prep,
            p.coef,
            gpu,
            p.stats,
            row,
            end,
            &mut cpu_now,
            &mut trace,
            &mut q,
            &mut b,
            &mut image,
        )?;
        row = end;
    }

    // CPU share: Huffman for the remaining rows, then the SIMD band
    // (sparse-priced from the rows' own EOB histograms).
    let cpu_rows0 = gpu_end;
    if cpu_rows0 < geom.mcus_y {
        let huff_start = cpu_now;
        let mut classes = [0u64; 4];
        while !dec.is_finished() {
            let m = dec.decode_mcu_row(p.coef)?;
            cpu_now += platform.cpu.huff_time(&m);
            for (a, b) in classes.iter_mut().zip(m.eob_classes) {
                *a += b;
            }
        }
        b.huffman += cpu_now - huff_start;
        trace.push("huffman", Resource::Cpu, huff_start, cpu_now);

        let (p0, p1) = geom.mcu_rows_to_pixel_rows(cpu_rows0, geom.mcus_y);
        let out = &mut image.data[p0 * geom.width * 3..p1 * geom.width * 3];
        let mut sink = simd::RgbBand::new(prep, cpu_rows0, geom.mcus_y, out)?;
        let (work, _) =
            simd::render_rows(prep, p.coef, cpu_rows0, geom.mcus_y, p.scratch, &mut sink);
        let t_band = platform.cpu.parallel_time_sparse(&work, &classes, true);
        trace.push("cpu-simd", Resource::Cpu, cpu_now, cpu_now + t_band);
        cpu_now += t_band;
        b.cpu_parallel = t_band;
    }

    b.total = cpu_now.max(q.drain_time());
    let part = Partition {
        gpu_mcu_rows: gpu_end,
        cpu_mcu_rows: geom.mcus_y - gpu_end,
        x_pixel_rows: init.x_pixel_rows,
        iterations: init.iterations,
        predicted_cpu: init.predicted_cpu,
        predicted_gpu: init.predicted_gpu,
    };
    Ok(DecodeOutcome {
        image,
        ycc: None,
        times: b,
        trace,
        partition: Some(part),
        mode: Mode::Pps,
        truncated: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::single;
    use crate::session::OutputFormat;
    use hetjpeg_jpeg::encoder::{encode_rgb, EncodeParams};
    use hetjpeg_jpeg::types::Subsampling;

    fn jpeg_of(w: usize, h: usize, detail: u32) -> Vec<u8> {
        let mut rgb = Vec::with_capacity(w * h * 3);
        let mut s = detail | 1;
        for i in 0..w * h {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            let noise = (s >> 24) as u8;
            let base = ((i * 3) % 256) as u8;
            rgb.extend_from_slice(&[base.wrapping_add(noise / 4), base, noise]);
        }
        encode_rgb(
            &rgb,
            w as u32,
            h as u32,
            &EncodeParams {
                quality: 85,
                subsampling: Subsampling::S422,
                restart_interval: 0,
            },
        )
        .unwrap()
    }

    #[test]
    fn sps_output_matches_simd_bytes() {
        let jpeg = jpeg_of(192, 256, 77);
        for platform in Platform::all() {
            let model = platform.untrained_model();
            let prep = Prepared::new(&jpeg).unwrap();
            let mut ws = Workspace::default();
            let simd_out =
                single::decode_cpu_in(&prep, &platform, Mode::Simd, OutputFormat::Rgb, &mut ws)
                    .unwrap();
            let sps_out = decode_sps_in(&prep, &platform, &model, &mut ws).unwrap();
            assert_eq!(simd_out.image.data, sps_out.image.data, "{}", platform.name);
            let part = sps_out.partition.unwrap();
            assert_eq!(part.gpu_mcu_rows + part.cpu_mcu_rows, prep.geom.mcus_y);
        }
    }

    #[test]
    fn pps_output_matches_simd_bytes() {
        let jpeg = jpeg_of(192, 320, 99);
        for platform in Platform::all() {
            let model = platform.untrained_model();
            let prep = Prepared::new(&jpeg).unwrap();
            let mut ws = Workspace::default();
            let simd_out =
                single::decode_cpu_in(&prep, &platform, Mode::Simd, OutputFormat::Rgb, &mut ws)
                    .unwrap();
            let pps_out = decode_pps_in(&prep, &platform, &model, true, &mut ws).unwrap();
            assert_eq!(simd_out.image.data, pps_out.image.data, "{}", platform.name);
        }
    }

    #[test]
    fn pps_beats_sps() {
        // PPS hides Huffman behind GPU work; SPS cannot (Fig. 8).
        let jpeg = jpeg_of(512, 512, 1234);
        let platform = Platform::gtx560();
        let model = platform.untrained_model();
        let prep = Prepared::new(&jpeg).unwrap();
        let mut ws = Workspace::default();
        let sps_out = decode_sps_in(&prep, &platform, &model, &mut ws).unwrap();
        let pps_out = decode_pps_in(&prep, &platform, &model, true, &mut ws).unwrap();
        assert!(
            pps_out.total() < sps_out.total(),
            "pps {:.3}ms vs sps {:.3}ms",
            pps_out.total() * 1e3,
            sps_out.total() * 1e3
        );
    }

    #[test]
    fn hetero_beats_simd_even_on_weak_gpu() {
        // The §6.2 headline for the GT 430: "Despite the slow GPU, the
        // cooperative CPU-GPU executions achieved speedups over
        // libjpeg-turbo's SIMD mode." Like the paper, the partitioner runs
        // on a *profiled* model, not the analytic seed.
        let platform = Platform::gt430();
        let train_imgs: Vec<Vec<u8>> = [(128usize, 128usize), (256, 256), (384, 256), (512, 384)]
            .iter()
            .map(|&(w, h)| jpeg_of(w, h, (w + h) as u32))
            .collect();
        let model = crate::profile::train(
            &platform,
            &train_imgs,
            crate::profile::TrainOptions {
                max_degree: 3,
                wg_blocks: Some(8),
                chunk_mcu_rows: Some(8),
            },
        );
        let jpeg = jpeg_of(512, 512, 5);
        let prep = Prepared::new(&jpeg).unwrap();
        let mut ws = Workspace::default();
        let simd_out =
            single::decode_cpu_in(&prep, &platform, Mode::Simd, OutputFormat::Rgb, &mut ws)
                .unwrap();
        let sps_out = decode_sps_in(&prep, &platform, &model, &mut ws).unwrap();
        assert!(
            sps_out.total() < simd_out.total(),
            "SPS {:.3}ms vs SIMD {:.3}ms",
            sps_out.total() * 1e3,
            simd_out.total() * 1e3
        );
        let pps_out = decode_pps_in(&prep, &platform, &model, true, &mut ws).unwrap();
        assert!(
            pps_out.total() < simd_out.total(),
            "PPS {:.3}ms vs SIMD {:.3}ms",
            pps_out.total() * 1e3,
            simd_out.total() * 1e3
        );
    }

    #[test]
    fn repartitioning_helps_on_skewed_entropy() {
        // Detail ramps concentrate entropy (and, since the PR-3 sparse
        // retrain, IDCT density) at one end of the image: the
        // uniform-density initial split mis-places the boundary, and the
        // Eq. 16/17 correction — now with the sparsity-corrected `PCPU`
        // term (prefix discount extrapolated by the tail/prefix density
        // ratio) — moves it. Across platforms × ramp directions the
        // corrected split must never lose and win clearly in most
        // configurations.
        use hetjpeg_corpus::{generate_jpeg, ImageSpec, Pattern};
        let mut improved = 0usize;
        let mut cases = 0usize;
        for (top, bottom) in [(0.05, 0.95), (0.95, 0.05)] {
            let spec = ImageSpec {
                width: 384,
                height: 512,
                pattern: Pattern::DetailRamp { top, bottom },
                seed: 11,
            };
            let jpeg = generate_jpeg(&spec, 85, Subsampling::S422).unwrap();
            for platform in Platform::all() {
                let model = platform.untrained_model();
                let prep = Prepared::new(&jpeg).unwrap();
                let mut ws = Workspace::default();
                let with = decode_pps_in(&prep, &platform, &model, true, &mut ws).unwrap();
                let without = decode_pps_in(&prep, &platform, &model, false, &mut ws).unwrap();
                assert_eq!(with.image.data, without.image.data);
                assert!(
                    with.total() <= without.total() * 1.001,
                    "{} ramp {top}->{bottom}: repartitioning hurt: {:.3}ms vs {:.3}ms",
                    platform.name,
                    with.total() * 1e3,
                    without.total() * 1e3
                );
                // The boundary must actually have moved.
                assert_ne!(
                    with.partition.unwrap().gpu_mcu_rows,
                    without.partition.unwrap().gpu_mcu_rows,
                    "{} ramp {top}->{bottom}: Eq. 16/17 should adjust the split",
                    platform.name
                );
                cases += 1;
                if with.total() < without.total() * 0.99 {
                    improved += 1;
                }
            }
        }
        assert!(
            improved * 3 >= cases * 2,
            "repartitioning should clearly win in most skewed cases: {improved}/{cases}"
        );
    }

    #[test]
    fn pps_is_best_mode_on_fast_gpus() {
        let jpeg = jpeg_of(384, 512, 42);
        let platform = Platform::gtx680();
        let model = platform.untrained_model();
        let prep = Prepared::new(&jpeg).unwrap();
        let mut ws = Workspace::default();
        let totals: Vec<(Mode, f64)> = vec![
            (
                Mode::Simd,
                single::decode_cpu_in(&prep, &platform, Mode::Simd, OutputFormat::Rgb, &mut ws)
                    .unwrap()
                    .total(),
            ),
            (
                Mode::Gpu,
                single::decode_gpu_in(&prep, &platform, &model, &mut ws)
                    .unwrap()
                    .total(),
            ),
            (
                Mode::Sps,
                decode_sps_in(&prep, &platform, &model, &mut ws)
                    .unwrap()
                    .total(),
            ),
            (
                Mode::Pps,
                decode_pps_in(&prep, &platform, &model, true, &mut ws)
                    .unwrap()
                    .total(),
            ),
        ];
        let pps_total = totals.last().unwrap().1;
        for &(m, t) in &totals[..totals.len() - 1] {
            assert!(
                pps_total <= t * 1.02,
                "PPS {pps_total} should beat {m:?} {t}"
            );
        }
    }
}
