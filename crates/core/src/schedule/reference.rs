//! The oracle of the split scheduler: the GPU, pipelined-GPU, SPS and PPS
//! mode bodies and the batch staging and finish as they were before
//! `split.rs` replaced them, changed only in their names and in reaching
//! the device through [`gpu_on`]; and the CPU modes' fill-then-render body
//! (`Filled`, `render_cpu`) as it was before they became plans of the
//! same loop, its band written out for a whole RGB image. `split::tests` holds the
//! split scheduler to them bit for bit.
//!
//! Test code only. A change that moves a timeline on purpose deletes this
//! file in the same change.

use super::{eob_classes_in, DecodeOutcome, Mode};
use crate::gpu_decode::{GpuContext, KernelPlan};
use crate::model::PerformanceModel;
use crate::partition::{pps, sps, Partition};
use crate::platform::Platform;
use crate::timeline::{Breakdown, Resource, Trace};
use crate::workspace::{gpu_on, Workspace};
use hetjpeg_gpusim::CommandQueue;
use hetjpeg_jpeg::coef::CoefBuffer;
use hetjpeg_jpeg::decoder::{simd, Prepared};
use hetjpeg_jpeg::error::Result;
use hetjpeg_jpeg::metrics::{ParallelWork, RowMetrics};
use hetjpeg_jpeg::progressive::{self, ProgressiveParsed};
use hetjpeg_jpeg::types::RgbImage;

fn entropy_into(
    prep: &Prepared<'_>,
    platform: &Platform,
    coef: &mut CoefBuffer,
) -> Result<(Vec<hetjpeg_jpeg::metrics::RowMetrics>, f64)> {
    let mut dec = prep.entropy_decoder()?;
    let mut rows = Vec::with_capacity(prep.geom.mcus_y);
    let mut total = 0.0;
    while !dec.is_finished() {
        let m = dec.decode_mcu_row(coef)?;
        total += platform.cpu.huff_time(&m);
        rows.push(m);
    }
    Ok((rows, total))
}

pub(crate) fn gpu(
    prep: &Prepared<'_>,
    platform: &Platform,
    model: &PerformanceModel,
    ws: &mut Workspace,
) -> Result<DecodeOutcome> {
    let geom = &prep.geom;
    ws.ensure(prep);
    let p = ws.parts();
    let (_rows, t_huff) = entropy_into(prep, platform, p.coef)?;
    let t_disp = platform.cpu.dispatch_time(geom, 0, geom.mcus_y);

    let mut image = RgbImage::new(geom.width, geom.height);
    let res = gpu_on(p.gpu, platform).decode_region(
        prep,
        p.coef,
        0,
        geom.mcus_y,
        model.wg_blocks,
        KernelPlan::Merged,
        &mut image.data,
    )?;
    p.stats.h2d_transfers += 1;
    p.stats.h2d_bytes += res.h2d_bytes as u64;

    let mut trace = Trace::default();
    trace.push("huffman", Resource::Cpu, 0.0, t_huff);
    trace.push("dispatch", Resource::Cpu, t_huff, t_huff + t_disp);
    let mut q = CommandQueue::new();
    let h2d = q.enqueue("h2d", t_huff + t_disp, res.h2d_time);
    trace.push("h2d", Resource::Gpu, h2d.start, h2d.end);
    let mut kernels_total = 0.0;
    for &(name, t) in &res.kernel_times {
        let ev = q.enqueue(name, h2d.end, t);
        trace.push("kernel", Resource::Gpu, ev.start, ev.end);
        kernels_total += t;
    }
    let d2h = q.enqueue("d2h", q.drain_time(), res.d2h_time);
    trace.push("d2h", Resource::Gpu, d2h.start, d2h.end);

    Ok(DecodeOutcome {
        image,
        ycc: None,
        times: Breakdown {
            huffman: t_huff,
            dispatch: t_disp,
            h2d: res.h2d_time,
            kernels: kernels_total,
            d2h: res.d2h_time,
            total: q.drain_time(),
            ..Default::default()
        },
        trace,
        partition: None,
        mode: Mode::Gpu,
        truncated: false,
    })
}

pub(crate) struct GpuBatchMember {
    image: RgbImage,
    t_huff: f64,
    t_disp: f64,
    kernel_times: Vec<(&'static str, f64)>,
    d2h_time: f64,
    pub(crate) h2d_bytes: usize,
}

pub(crate) fn gpu_batch_stage(
    prep: &Prepared<'_>,
    platform: &Platform,
    model: &PerformanceModel,
    ws: &mut Workspace,
) -> Result<GpuBatchMember> {
    let geom = &prep.geom;
    ws.ensure(prep);
    let p = ws.parts();
    let (_rows, t_huff) = entropy_into(prep, platform, p.coef)?;
    let t_disp = platform.cpu.dispatch_time(geom, 0, geom.mcus_y);
    let mut image = RgbImage::new(geom.width, geom.height);
    let res = gpu_on(p.gpu, platform).decode_region(
        prep,
        p.coef,
        0,
        geom.mcus_y,
        model.wg_blocks,
        KernelPlan::Merged,
        &mut image.data,
    )?;
    p.stats.h2d_bytes += res.h2d_bytes as u64;
    Ok(GpuBatchMember {
        image,
        t_huff,
        t_disp,
        kernel_times: res.kernel_times,
        d2h_time: res.d2h_time,
        h2d_bytes: res.h2d_bytes,
    })
}

pub(crate) fn gpu_batch_finish(m: GpuBatchMember, h2d_share: f64) -> DecodeOutcome {
    let mut trace = Trace::default();
    trace.push("huffman", Resource::Cpu, 0.0, m.t_huff);
    trace.push("dispatch", Resource::Cpu, m.t_huff, m.t_huff + m.t_disp);
    let mut q = CommandQueue::new();
    let h2d = q.enqueue("h2d", m.t_huff + m.t_disp, h2d_share);
    trace.push("h2d", Resource::Gpu, h2d.start, h2d.end);
    let mut kernels_total = 0.0;
    for &(name, t) in &m.kernel_times {
        let ev = q.enqueue(name, h2d.end, t);
        trace.push("kernel", Resource::Gpu, ev.start, ev.end);
        kernels_total += t;
    }
    let d2h = q.enqueue("d2h", q.drain_time(), m.d2h_time);
    trace.push("d2h", Resource::Gpu, d2h.start, d2h.end);
    DecodeOutcome {
        image: m.image,
        ycc: None,
        times: Breakdown {
            huffman: m.t_huff,
            dispatch: m.t_disp,
            h2d: h2d_share,
            kernels: kernels_total,
            d2h: m.d2h_time,
            total: q.drain_time(),
            ..Default::default()
        },
        trace,
        partition: None,
        mode: Mode::Gpu,
        truncated: false,
    }
}

pub(crate) fn pipelined_gpu(
    prep: &Prepared<'_>,
    platform: &Platform,
    model: &PerformanceModel,
    ws: &mut Workspace,
) -> Result<DecodeOutcome> {
    let geom = &prep.geom;
    let chunk = model.chunk_mcu_rows.max(1);
    ws.ensure(prep);
    let p = ws.parts();
    let gpu = gpu_on(p.gpu, platform);

    let mut dec = prep.entropy_decoder()?;
    let mut trace = Trace::default();
    let mut q = CommandQueue::new();
    let mut image = RgbImage::new(geom.width, geom.height);

    let mut cpu_now = 0.0;
    let mut b = Breakdown::default();
    let mut row = 0usize;
    while row < geom.mcus_y {
        let end = (row + chunk).min(geom.mcus_y);
        let huff_start = cpu_now;
        for _ in row..end {
            let m = dec.decode_mcu_row(p.coef)?;
            cpu_now += platform.cpu.huff_time(&m);
        }
        b.huffman += cpu_now - huff_start;
        trace.push("huffman", Resource::Cpu, huff_start, cpu_now);

        let t_disp = platform.cpu.dispatch_time(geom, row, end);
        trace.push("dispatch", Resource::Cpu, cpu_now, cpu_now + t_disp);
        cpu_now += t_disp;
        b.dispatch += t_disp;

        let (p0, p1) = geom.mcu_rows_to_pixel_rows(row, end);
        let res = gpu.decode_region(
            prep,
            p.coef,
            row,
            end,
            model.wg_blocks,
            KernelPlan::Merged,
            &mut image.data[p0 * geom.width * 3..p1 * geom.width * 3],
        )?;
        p.stats.h2d_transfers += 1;
        p.stats.h2d_bytes += res.h2d_bytes as u64;
        let h2d = q.enqueue("h2d", cpu_now, res.h2d_time);
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
        row = end;
    }

    b.total = cpu_now.max(q.drain_time());
    Ok(DecodeOutcome {
        image,
        ycc: None,
        times: b,
        trace,
        partition: None,
        mode: Mode::PipelinedGpu,
        truncated: false,
    })
}

pub(crate) fn sps(
    prep: &Prepared<'_>,
    platform: &Platform,
    model: &PerformanceModel,
    ws: &mut Workspace,
) -> Result<DecodeOutcome> {
    let geom = &prep.geom;
    ws.ensure(prep);
    let p = ws.parts();
    let (rows, t_huff) = entropy_into(prep, platform, p.coef)?;
    let part = sps::partition(model, geom, prep.parsed.entropy_density());
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
        let t_disp = platform.cpu.dispatch_time(geom, 0, g_rows);
        trace.push("dispatch", Resource::Cpu, cpu_now, cpu_now + t_disp);
        cpu_now += t_disp;
        b.dispatch = t_disp;

        let (p0, p1) = geom.mcu_rows_to_pixel_rows(0, g_rows);
        let res = gpu_on(p.gpu, platform).decode_region(
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
        simd::render_rows(prep, p.coef, g_rows, geom.mcus_y, p.scratch, &mut sink);
        let work = ParallelWork::for_mcu_rows(geom, g_rows, geom.mcus_y);
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

pub(crate) fn pps(
    prep: &Prepared<'_>,
    platform: &Platform,
    model: &PerformanceModel,
    repartition_enabled: bool,
    ws: &mut Workspace,
) -> Result<DecodeOutcome> {
    let geom = &prep.geom;
    let w = geom.width as f64;
    let h = geom.height as f64;
    let d = prep.parsed.entropy_density();
    let chunk_rows = model.chunk_mcu_rows.max(1);
    let chunk_px = (chunk_rows * geom.mcu_h) as f64;

    let init = pps::initial_partition(model, geom, d, chunk_px);
    let mut gpu_end = init.gpu_mcu_rows;
    let est_total_huff = model.huff_time(w * h, d);

    ws.ensure(prep);
    let p = ws.parts();
    let gpu = gpu_on(p.gpu, platform);
    let mut dec = prep.entropy_decoder()?;
    let mut trace = Trace::default();
    let mut q = CommandQueue::new();
    let mut image = RgbImage::new(geom.width, geom.height);
    let mut b = Breakdown::default();
    let mut cpu_now = 0.0f64;
    let mut huff_spent = 0.0f64;
    let mut prefix_classes = [0u64; 4];
    let mut prefix_bits = 0u64;
    let mut repartitioned = false;

    let enqueue_chunk = |prep: &Prepared<'_>,
                         coef: &CoefBuffer,
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

    let mut row = 0usize;
    while row < gpu_end {
        let is_last_chunk = row + chunk_rows >= gpu_end;
        if is_last_chunk && !repartitioned && row > 0 && repartition_enabled {
            repartitioned = true;
            let rows_done_px = (row * geom.mcu_h) as f64;
            let h_left = h - rows_done_px;
            let d_new = pps::corrected_density(d, est_total_huff, huff_spent, h_left, h);
            let backlog = (q.drain_time() - cpu_now).max(0.0);
            let prefix_discount = crate::cost::CpuCostModel::idct_discount(&prefix_classes);
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
            let re = pps::repartition(model, geom, h_left, d_new, backlog, cpu_scale, chunk_px);
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
        enqueue_chunk(
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
        simd::render_rows(prep, p.coef, cpu_rows0, geom.mcus_y, p.scratch, &mut sink);
        let work = ParallelWork::for_mcu_rows(geom, cpu_rows0, geom.mcus_y);
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

/// `Sequential`, `Simd` and `ParallelEntropy` at one thread: the
/// sequential fill — for a `salvage`, into a zeroed buffer and stopped at
/// the damage — then the whole image as one CPU band.
pub(crate) fn cpu(
    prep: &Prepared<'_>,
    platform: &Platform,
    mode: Mode,
    salvage: bool,
    ws: &mut Workspace,
) -> Result<DecodeOutcome> {
    match salvage {
        true => ws.ensure_zeroed(prep),
        false => ws.ensure(prep),
    }
    let mut dec = prep.entropy_decoder()?;
    let (mut rows, mut t_huff, mut truncated) = (Vec::new(), 0.0, false);
    while rows.len() < prep.geom.mcus_y {
        match dec.decode_mcu_row(ws.parts().coef) {
            Ok(m) => {
                t_huff += platform.cpu.huff_time(&m);
                rows.push(m);
            }
            Err(_) if salvage => {
                truncated = true;
                break;
            }
            Err(e) => return Err(e),
        }
    }
    let classes = eob_classes_in(&rows, 0, rows.len());
    render_cpu(prep, platform, t_huff, classes, truncated, mode, ws)
}

/// A progressive scan script decoded in full, rendered as `mode`.
pub(crate) fn progressive(
    prep: &Prepared<'_>,
    parsed: &ProgressiveParsed<'_>,
    platform: &Platform,
    mode: Mode,
    ws: &mut Workspace,
) -> Result<DecodeOutcome> {
    ws.ensure(prep);
    let coef = ws.parts().coef;
    coef.reset_for(&prep.geom);
    let out = progressive::decode_scans(parsed, &prep.geom, coef, None, false)?;
    let mut total = RowMetrics::default();
    for r in &out.rows {
        total.add(r);
    }
    let t_huff = platform.cpu.progressive_huff_time(&total, out.block_visits);
    let classes = eob_classes_in(&out.rows, 0, out.rows.len());
    render_cpu(prep, platform, t_huff, classes, out.truncated, mode, ws)
}

/// A serial Huffman span of `t_huff` from time zero, then the whole image
/// as one CPU band priced from `classes`, at the scalar costs for
/// `Sequential`.
fn render_cpu(
    prep: &Prepared<'_>,
    platform: &Platform,
    t_huff: f64,
    classes: [u64; 4],
    truncated: bool,
    mode: Mode,
    ws: &mut Workspace,
) -> Result<DecodeOutcome> {
    let geom = &prep.geom;
    let p = ws.parts();
    let mut image = RgbImage::new(geom.width, geom.height);
    let mut sink = simd::RgbBand::new(prep, 0, geom.mcus_y, &mut image.data)?;
    simd::render_rows(prep, p.coef, 0, geom.mcus_y, p.scratch, &mut sink);
    let use_simd = mode != Mode::Sequential;
    let work = ParallelWork::for_mcu_rows(geom, 0, geom.mcus_y);
    let t_band = platform.cpu.parallel_time_sparse(&work, &classes, use_simd);
    let mut trace = Trace::default();
    trace.push("huffman", Resource::Cpu, 0.0, t_huff);
    let label = if use_simd { "cpu-simd" } else { "cpu-scalar" };
    trace.push(label, Resource::Cpu, t_huff, t_huff + t_band);
    Ok(DecodeOutcome {
        image,
        ycc: None,
        times: Breakdown {
            huffman: t_huff,
            cpu_parallel: t_band,
            total: t_huff + t_band,
            ..Default::default()
        },
        trace,
        partition: None,
        mode,
        truncated,
    })
}
