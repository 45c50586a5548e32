//! The split scheduler: every concrete mode as a plan over one loop.
//!
//! The paper's GPU decoder, pipelined decoder, SPS and PPS are one
//! two-phase schedule (Fig. 5a/5b, §4.5, §5.2.1–5.2.2): the GPU takes the
//! image's initial MCU rows and the CPU the rest; the CPU modes take none.
//! The modes differ only in where the split row sits, whether Huffman
//! decoding is chunked so that it overlaps device work, and how many
//! threads decode it — and a [`Plan`] holds just those:
//!
//! | mode | GPU rows | Huffman chunk | re-partition | entropy threads |
//! |---|---|---|---|---|
//! | `Sequential` | none | none | no | one; scalar CPU band |
//! | `Simd` | none | none | no | one |
//! | `Gpu` | all | none: every row first | no | session |
//! | `PipelinedGpu` | all | `chunk_mcu_rows` | no | session |
//! | `Sps` | Eq. 10 | none | no | session |
//! | `Pps` | Eq. 15 | `chunk_mcu_rows` | before the last chunk (Eq. 16/17) | session |
//! | `ParallelEntropy` | none | none | no | session |
//!
//! The entropy step has three sources: one thread is the paper's
//! sequential Huffman on the loop's thread; more feed the loop from the
//! session's entropy workers ([`super::entropy_par`]); and a filled buffer
//! (a progressive scan script, a tolerant salvage) is charged as its one
//! serial Huffman span at the first step, with no decoder built. Fed, the
//! GPU's rows are not the CPU's at all: the device decodes their Huffman
//! from their scan in one pass before the first chunk
//! ([`GpuContext::decode_entropy`](crate::gpu_decode::GpuContext::decode_entropy)),
//! the chunks decode from its resident coefficients, and a split's CPU
//! band waits for the decoder state the pass reads back.
//!
//! [`decode`] runs a plan through the three steps of every decode: the
//! entropy step (a chunk's rows, or every row first), the GPU chunk — its
//! CPU side ships the rows (dispatch, device decode, bytes counted), its
//! device side places them (H2D, kernels, D2H) — and the CPU band for the
//! rows the GPU does not take. A batched `Gpu` member ([`GpuBatchMember`])
//! ships when it is staged and is placed once the batch's one coalesced
//! transfer is priced.
//!
//! Where the device side goes depends on the plan. On the paper's schedule
//! — one entropy thread, `Gpu`, `Sps`, a batched member — the GPU has one
//! in-order queue: each chunk's H2D, kernels and D2H run one after another,
//! and after the previous chunk's. A fed, chunked plan (`PipelinedGpu` and
//! `Pps` on more than one entropy thread) adds a copy engine beside the
//! compute engine, as a GTX 560 Ti has: it moves one transfer at a time
//! while a kernel runs, so chunk k+1's H2D runs under chunk k's kernels and
//! chunk k's D2H under chunk k+1's. Because the copy engine runs its
//! transfers in the order it gets them, chunk k's D2H is held back until
//! chunk k+1's H2D is issued — or issued first, when chunk k's kernels end
//! before that H2D is ready — and the last one when the timeline closes.

use super::{
    copy_d2h, entropy_par, eob_classes_in, rgb_rows, DecodeOutcome, Entropy, Fill, Mode, Target,
    Timeline,
};
use crate::gpu_decode::{GpuEntropyResult, GpuRegionResult, KernelPlan, ScanSource};
use crate::model::PerformanceModel;
use crate::partition::{pps, sps, Partition};
use crate::platform::Platform;
use crate::timeline::Resource;
use crate::workspace::{gpu_on, Workspace, WsParts};
use hetjpeg_gpusim::CommandQueue;
use hetjpeg_jpeg::decoder::Prepared;
use hetjpeg_jpeg::error::Result;
use hetjpeg_jpeg::geometry::Geometry;
use hetjpeg_jpeg::metrics::ParallelWork;
use hetjpeg_jpeg::speculate::MIN_CHUNK_BYTES;
use std::ops::Range;

/// What tells one split-loop mode from another.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Plan {
    /// The mode the outcome reports.
    pub(crate) mode: Mode,
    /// The GPU takes MCU rows `[0, gpu_rows)`, the CPU the rest.
    pub(crate) gpu_rows: usize,
    /// Huffman chunk height in MCU rows; `None` Huffman-decodes every row
    /// first and ships the GPU share as one region.
    pub(crate) chunk: Option<usize>,
    /// Move the split once, before the last GPU chunk, from the measured
    /// Huffman progress (Eq. 16/17).
    pub(crate) repartition: bool,
    /// The split to report; its row counts become the final ones.
    pub(crate) partition: Option<Partition>,
    /// Entropy threads: one decodes sequentially on the loop's thread,
    /// more feed the loop from that many workers. `Sequential` and `Simd`
    /// always decode with one.
    pub(crate) threads: usize,
    /// The height of a feed chunk in MCU rows: a `threads`-th of the image,
    /// and no more than a Huffman chunk, so that even a short image spreads
    /// over every worker.
    pub(crate) feed_rows: usize,
    /// The scan the plan is priced for.
    pub(crate) density: Density,
}

/// What a plan is priced from besides the geometry: Eq. 3's entropy
/// density and the scan's bytes, which cap the feed's speculative chunks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Density {
    /// File bytes per pixel (Eq. 3).
    pub(crate) per_px: f64,
    /// Bytes from the scan's first entropy-coded byte to the end of the
    /// file.
    pub(crate) scan_bytes: usize,
}

impl Density {
    /// `prep`'s own.
    pub(crate) fn of(prep: &Prepared<'_>) -> Density {
        Density {
            per_px: prep.parsed.entropy_density(),
            scan_bytes: prep.parsed.scan_data.len(),
        }
    }

    /// Scan bytes per pixel of `geom`'s image.
    pub(crate) fn scan_per_px(&self, geom: &Geometry) -> f64 {
        self.scan_bytes as f64 / geom.pixels().max(1) as f64
    }
}

impl Plan {
    /// The plan of `mode` for `prep`'s image, its entropy step fed by
    /// `threads` workers (see [`entropy_par::threads_for`]).
    pub(crate) fn of(
        mode: Mode,
        prep: &Prepared<'_>,
        model: &PerformanceModel,
        threads: usize,
    ) -> Plan {
        Plan::priced_at(mode, prep, Density::of(prep), model, threads)
    }

    /// [`Plan::of`] priced as if `prep`'s scan had `density`.
    pub(crate) fn priced_at(
        mode: Mode,
        prep: &Prepared<'_>,
        density: Density,
        model: &PerformanceModel,
        threads: usize,
    ) -> Plan {
        let geom = &prep.geom;
        let d = density.per_px; // Eq. (3)
        let chunk = model.chunk_mcu_rows.max(1);
        let whole = Plan {
            mode,
            gpu_rows: geom.mcus_y,
            chunk: None,
            repartition: false,
            partition: None,
            threads,
            feed_rows: chunk.min(geom.mcus_y.div_ceil(threads.max(1))).max(1),
            density,
        };
        match mode {
            Mode::Gpu => whole,
            Mode::Sequential | Mode::Simd => Plan {
                gpu_rows: 0,
                threads: 1,
                ..whole
            },
            Mode::ParallelEntropy => Plan {
                gpu_rows: 0,
                ..whole
            },
            Mode::PipelinedGpu => Plan {
                chunk: Some(chunk),
                ..whole
            },
            Mode::Sps => {
                let part = match threads > 1 {
                    true => whole.device_partition(prep, model, None),
                    false => sps::partition(model, geom, d), // Eq. 10
                };
                Plan {
                    gpu_rows: part.gpu_mcu_rows,
                    partition: Some(part),
                    ..whole
                }
            }
            Mode::Pps => {
                let chunk_px = (chunk * geom.mcu_h) as f64;
                let plan = Plan {
                    chunk: Some(chunk),
                    repartition: true,
                    ..whole
                };
                let part = match threads > 1 {
                    true => plan.device_partition(prep, model, Some(chunk_px)),
                    false => pps::initial_partition(model, geom, d, chunk_px), // Eq. 15
                };
                Plan {
                    gpu_rows: part.gpu_mcu_rows,
                    partition: Some(part),
                    ..plan
                }
            }
            Mode::Auto => unreachable!("Auto is resolved to a concrete mode first"),
        }
    }

    /// The model's release curve of this plan's entropy step on `prep`:
    /// `None` when it decodes sequentially. The chunks are the feed's: per
    /// restart interval (or the whole scan), as many as it takes to keep
    /// each within a feed chunk, no more than its bytes allow.
    pub(crate) fn release(
        &self,
        prep: &Prepared<'_>,
        model: &PerformanceModel,
    ) -> Option<pps::Release> {
        if self.threads <= 1 {
            return None;
        }
        Some(self.release_from(prep, model, 0.0))
    }

    /// [`Self::release`]'s curve of the image's rows from pixel row `skip`
    /// on, on the same chunks ([`pps::Release::from_row`]).
    fn release_from(
        &self,
        prep: &Prepared<'_>,
        model: &PerformanceModel,
        skip: f64,
    ) -> pps::Release {
        let geom = &prep.geom;
        let mcus = geom.mcus_x * geom.mcus_y;
        let feed_mcus = self.feed_rows * geom.mcus_x;
        let interval = match prep.parsed.frame.restart_interval {
            0 => mcus,
            i => i.min(mcus),
        };
        let segments = mcus.div_ceil(interval);
        let bytes = self.density.scan_bytes / segments;
        let per_segment = (interval.div_ceil(feed_mcus)).min((bytes / MIN_CHUNK_BYTES).max(1));
        pps::Release::from_row(
            model,
            geom.width as f64,
            geom.height as f64,
            self.density.per_px,
            mcus as f64,
            self.threads,
            segments * per_segment,
            per_segment > 1,
            skip,
        )
    }

    /// Seconds a fed CPU band of the image's last `x` pixel rows takes to
    /// make every row final once the device's decoder state at its first
    /// row is on the host: the release curve of the feed's chunks from that
    /// row on, as `entropy_par::Feed::band` runs them.
    pub(crate) fn band_huff(&self, prep: &Prepared<'_>, model: &PerformanceModel, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let h = prep.geom.height as f64;
        self.release_from(prep, model, (h - x).max(0.0)).at(x)
    }

    /// The fed split of this plan, whose GPU decodes its rows' Huffman:
    /// SPS without a chunk height, PPS with one
    /// ([`pps::device_partition`]).
    fn device_partition(
        &self,
        prep: &Prepared<'_>,
        model: &PerformanceModel,
        chunk_px: Option<f64>,
    ) -> Partition {
        let band = |x: f64| self.band_huff(prep, model, x);
        let (geom, d) = (&prep.geom, self.density.per_px);
        let scan = self.density.scan_per_px(geom);
        pps::device_partition(model, geom, d, scan, chunk_px, &band)
    }
}

/// Decode `prep` under `plan` into `out` on the workspace's pools and
/// device, from `fill` when the workspace's coefficient buffer already
/// holds one, else from the scan. The GPU's rows go out chunk by chunk,
/// then the CPU band, so a tile stream stays in row order; once its sink
/// declines a tile, no further chunk ships and no band renders.
pub(crate) fn decode(
    prep: &Prepared<'_>,
    platform: &Platform,
    model: &PerformanceModel,
    plan: &Plan,
    fill: Option<Fill>,
    ws: &mut Workspace,
    out: &mut Target<'_>,
) -> Result<DecodeOutcome> {
    let geom = &prep.geom;
    let truncated = fill.as_ref().is_some_and(|f| f.truncated);
    let mut ent = match fill {
        Some(fill) => Entropy::filled(fill),
        None => {
            ws.ensure(prep);
            Entropy::new(prep, platform, plan.threads, plan.feed_rows)?
        }
    };
    let mut p = ws.parts();
    let mut tl = Timeline::default();
    if plan.threads > 1 && plan.chunk.is_some() {
        tl.copy = Some(CommandQueue::new());
    }
    // Fed, the GPU decodes its rows' Huffman: they need none on the CPU.
    let mut device = plan.threads > 1 && plan.gpu_rows > 0 && ent.is_fed();
    let chunk = match plan.chunk {
        Some(rows) => rows,
        None => {
            if !device {
                ent.until(geom.mcus_y, p.coef, platform, &mut tl)?;
            }
            geom.mcus_y
        }
    };
    // The GPU share, chunk by chunk: Huffman, then an asynchronous
    // dispatch after which the CPU resumes at once. Fed, the device decodes
    // the share's Huffman in one pass before its first chunk — and the rows
    // a re-partition adds, in another — and the chunks decode from its
    // resident coefficients; a split reads every decoded row's state back.
    let mut gpu_end = plan.gpu_rows;
    let mut repartition = plan.repartition;
    let (mut row, mut decoded) = (0, 0);
    while row < gpu_end && out.open() {
        if repartition && row > 0 && row + chunk >= gpu_end {
            repartition = false;
            let on_device = device.then_some(decoded);
            gpu_end = repartitioned_end(prep, platform, model, plan, &ent, &tl, row, on_device);
            if row >= gpu_end {
                break;
            }
        }
        let end = (row + chunk).min(gpu_end);
        if device && decoded < end {
            match ent.device(gpu_end, p.coef)? {
                Some((table, bytes)) => {
                    let bytes = &prep.parsed.scan_data[bytes];
                    let scan = ScanSource {
                        bytes,
                        table: &table,
                    };
                    let gpu = gpu_on(p.gpu, platform);
                    let res = gpu.decode_entropy(prep, p.coef, scan, decoded, gpu_end);
                    p.stats.h2d_transfers += 1;
                    p.stats.h2d_bytes += res.h2d_bytes as u64;
                    tl.place_entropy(&res, plan.partition.is_some());
                    decoded = gpu_end;
                }
                // Damage the feed cannot vouch for: the CPU decodes the rest.
                None => device = false,
            }
        }
        let resident = end <= decoded;
        if !resident {
            ent.until(end, p.coef, platform, &mut tl)?;
            p.stats.h2d_transfers += 1;
        }
        let res = tl.ship(prep, platform, model, &mut p, row..end, resident, out)?;
        tl.place(res.h2d_time, &res, resident);
        row = end;
    }
    // The CPU share: its Huffman, then the band, sparse-priced from the
    // band's own EOB histograms.
    if gpu_end < geom.mcus_y && out.open() {
        match tl.band_state.take() {
            Some(at) => ent.band((gpu_end, geom.mcus_y), at, p.coef, platform, &mut tl)?,
            None => ent.until(geom.mcus_y, p.coef, platform, &mut tl)?,
        }
        let classes = eob_classes_in(&ent.rows, gpu_end, geom.mcus_y);
        let use_simd = plan.mode != Mode::Sequential;
        tl.cpu_band(prep, platform, &mut p, out, gpu_end, &classes, use_simd)?;
    }
    let partition = plan.partition.map(|part| Partition {
        gpu_mcu_rows: gpu_end,
        cpu_mcu_rows: geom.mcus_y - gpu_end,
        ..part
    });
    p.spec.merge(&ent.spec());
    Ok(tl.outcome(geom, plan.mode, partition, truncated))
}

#[cfg(test)]
thread_local! {
    /// This thread's latest sequential Eq. 16: the GPU rows decoded before
    /// it and `pps::repartition`'s arguments after the geometry, for tests
    /// that price the splits beside the one it chose.
    pub(crate) static LAST_EQ16: std::cell::Cell<Option<(usize, [f64; 5])>> =
        const { std::cell::Cell::new(None) };
}

/// Assert where Eq. 16 put the split of the re-partition tests' 384×512
/// detail ramp `top → bottom` on `platform`'s analytic seed at `threads(1)`,
/// from `initial` GPU rows to `kept`: it moves it, except on the GTX 680
/// with the dense top, where its own makespan is lowest at the initial
/// split (docs/PERF.md, "Eq. 16 on the faster device"). There it must keep
/// it, as the argmin of this thread's latest sequential Eq. 16: a row either
/// way prices no lower.
#[cfg(test)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn assert_ramp_repartition(
    model: &PerformanceModel,
    geom: &Geometry,
    platform: &Platform,
    (top, bottom): (f64, f64),
    initial: usize,
    kept: usize,
    ctx: &str,
) {
    if !(platform.name == "GTX 680" && top > bottom) {
        assert_ne!(kept, initial, "{ctx}: Eq. 16/17 should move the split");
        return;
    }
    assert_eq!(kept, initial, "{ctx}: Eq. 16 keeps the split");
    let (row, [h_left, d_new, backlog, cpu_scale, chunk_px]) =
        LAST_EQ16.take().expect("a sequential Eq. 16 ran");
    let price = |gpu| {
        pps::repartition_makespan(
            model, geom, h_left, d_new, backlog, cpu_scale, chunk_px, gpu,
        )
    };
    let kept = kept - row;
    let re = pps::repartition(model, geom, h_left, d_new, backlog, cpu_scale, chunk_px);
    assert_eq!(re.gpu_mcu_rows, kept, "{ctx}: Eq. 16's split");
    for gpu in [kept - 1, kept + 1] {
        assert!(
            price(gpu) >= price(kept),
            "{ctx}: Eq. 16 prices {gpu} GPU rows at {:.6} ms, below the kept {kept} at {:.6} ms",
            price(gpu) * 1e3,
            price(kept) * 1e3
        );
    }
}

/// Re-partition before the last GPU chunk (Eq. 16), once the GPU's `row`
/// rows are decoded and shipped (a fed step may have released more; the
/// correction reads these rows only). It prices the tail from the
/// corrected density (Eq. 17), from the GPU's current backlog — fed, where
/// both engines stand, the held-back D2H included — with the GPU's
/// Huffman on the device when it decoded the rows `on_device` names so far
/// and the band's on the plan's release curve, and from the tail's expected
/// IDCT sparsity: the prefix's
/// measured EOB discount, scaled by the density correction (denser entropy
/// ⇒ denser blocks), against the corpus-average discount `PCPU` was fit
/// at. Returns the GPU's new end row.
#[allow(clippy::too_many_arguments)]
fn repartitioned_end(
    prep: &Prepared<'_>,
    platform: &Platform,
    model: &PerformanceModel,
    plan: &Plan,
    ent: &Entropy<'_>,
    tl: &Timeline,
    row: usize,
    on_device: Option<usize>,
) -> usize {
    debug_assert!(ent.rows.len() >= row, "the GPU's rows are decoded");
    let geom = &prep.geom;
    let w = geom.width as f64;
    let h = geom.height as f64;
    let d = prep.parsed.entropy_density(); // Eq. (3)
    let est_total_huff = model.huff_time(w * h, d);
    let prefix_classes = eob_classes_in(&ent.rows, 0, row);
    let prefix_bits: u64 = ent.rows[..row].iter().map(|m| m.bits).sum();
    let rows_done_px = (row * geom.mcu_h) as f64;
    let h_left = h - rows_done_px;
    let huff_so_far = (ent.rows[..row].iter()).fold(0.0, |t, m| t + platform.cpu.huff_time(m));
    let d_new = pps::corrected_density(d, est_total_huff, huff_so_far, h_left, h);
    let engines = tl.engines();
    let backlog = (engines.drained() - tl.cpu_now).max(0.0);
    let prefix_discount = crate::cost::CpuCostModel::idct_discount(&prefix_classes);
    // Extrapolate the prefix's measured discount to the tail by the
    // tail-over-*prefix* density ratio (the prefix discount was observed
    // at the prefix's density, not the whole-image average);
    // `band_scale_for_discount` clamps the result.
    let d_prefix = prefix_bits as f64 / 8.0 / (w * rows_done_px).max(1.0);
    let tail_discount = if d_prefix > 0.0 {
        prefix_discount * d_new / d_prefix
    } else {
        prefix_discount
    };
    let tail_work = ParallelWork::for_mcu_rows(geom, row, geom.mcus_y);
    let fit_at = model.pcpu_idct_discount;
    let cpu_scale = platform
        .cpu
        .band_scale_for_discount(&tail_work, tail_discount, fit_at);
    let chunk_px = (model.chunk_mcu_rows.max(1) * geom.mcu_h) as f64;
    let re = if let Some(decoded) = on_device {
        let band = |x: f64| plan.band_huff(prep, model, x);
        let scan = plan.density.scan_per_px(geom) * d_new / d.max(f64::MIN_POSITIVE);
        let decoded = (decoded.saturating_sub(row) * geom.mcu_h) as f64;
        let state = tl.band_state.unwrap_or(tl.cpu_now);
        let at = (tl.cpu_now, engines);
        pps::repartition_device(
            model,
            geom,
            h_left,
            d_new,
            scan,
            cpu_scale,
            chunk_px,
            at,
            (decoded, state),
            &band,
        )
    } else {
        #[cfg(test)]
        LAST_EQ16.set(Some((row, [h_left, d_new, backlog, cpu_scale, chunk_px])));
        pps::repartition(model, geom, h_left, d_new, backlog, cpu_scale, chunk_px)
    };
    // New boundary: the GPU keeps `re.gpu_mcu_rows` of the remaining rows.
    (row + re.gpu_mcu_rows).min(geom.mcus_y)
}

impl Timeline {
    /// The GPU chunk's CPU side: dispatch MCU rows `rows` asynchronously —
    /// the CPU resumes right after — and decode them on the workspace's
    /// device into `out`, counting the bytes shipped: the coefficients, or
    /// nothing when they are `resident` on the device, written by its
    /// Huffman pass ([`Self::place_entropy`]). A tile stream stages
    /// the region alone in the pooled tile buffer and sends it one MCU row
    /// per tile. Returns the region's device times for [`Self::place`].
    #[allow(clippy::too_many_arguments)]
    fn ship(
        &mut self,
        prep: &Prepared<'_>,
        platform: &Platform,
        model: &PerformanceModel,
        p: &mut WsParts<'_>,
        rows: Range<usize>,
        resident: bool,
        out: &mut Target<'_>,
    ) -> Result<GpuRegionResult> {
        let t_disp = platform.cpu.dispatch_time(&prep.geom, rows.start, rows.end);
        let now = self.cpu_now;
        self.trace
            .push("dispatch", Resource::Cpu, now, now + t_disp);
        self.cpu_now += t_disp;
        self.b.dispatch += t_disp;
        let (geom, gpu, coef) = (&prep.geom, gpu_on(p.gpu, platform), &*p.coef);
        let (r0, r1) = (rows.start, rows.end);
        let wg = model.wg_blocks;
        let mut decode = |dst: &mut [u8]| {
            gpu.decode_resident(prep, coef, resident, r0, r1, wg, KernelPlan::Merged, dst)
        };
        let res = match out {
            Target::Rgb(image) => decode(rgb_rows(image, geom, r0, r1))?,
            Target::Tiles(tiles) => {
                let len = geom.rgb_bytes_in_mcu_rows(r0, r1);
                if p.tile.len() < len {
                    p.tile.resize(len, 0);
                }
                let res = decode(&mut p.tile[..len])?;
                tiles.send(geom, rows, &p.tile[..len]);
                res
            }
            Target::Planar(_) => unreachable!("dispatch refuses planar output on the GPU"),
        };
        p.stats.h2d_bytes += res.h2d_bytes as u64;
        Ok(res)
    }

    /// The GPU chunk's device side, once the dispatch has returned: the
    /// H2D, taking `h2d` seconds (the region's own transfer, or a batch
    /// member's share of one coalesced transfer), then the kernels, then
    /// the D2H. On the one in-order queue they follow one another and the
    /// previous chunk. With a copy engine the transfers go there: the last
    /// chunk's held-back D2H before this H2D when it can start sooner
    /// ([`pps::d2h_first`]), else after it; the kernels follow the H2D on
    /// the compute engine; and this chunk's D2H is held back. A chunk whose
    /// coefficients are `resident` ships nothing: the held-back D2H goes to
    /// the copy engine at once and the kernels follow the dispatch.
    fn place(&mut self, h2d: f64, res: &GpuRegionResult, resident: bool) {
        let loaded = match resident {
            false => self.h2d(h2d),
            true => {
                if let (Some(copy), Some(d2h)) = (&mut self.copy, self.held_d2h.take()) {
                    copy_d2h(copy, &mut self.trace, d2h);
                }
                self.cpu_now
            }
        };
        let mut ready = loaded;
        for &(_, t) in &res.kernel_times {
            let ev = self.q.enqueue("kernel", ready, t);
            debug_assert!(ev.start >= loaded, "a kernel starts before its H2D ends");
            self.trace.push("kernel", Resource::Gpu, ev.start, ev.end);
            self.b.kernels += t;
            ready = ev.end;
        }
        let computed = self.q.drain_time();
        match self.copy {
            None => {
                let ev = self.q.enqueue("d2h", computed, res.d2h_time);
                self.trace.push("d2h", Resource::Gpu, ev.start, ev.end);
            }
            Some(_) => self.held_d2h = Some((computed, res.d2h_time)),
        }
        self.b.d2h += res.d2h_time;
    }

    /// An H2D of `t` seconds ready when the CPU is: on the in-order queue,
    /// or on the copy engine with the last chunk's held-back D2H before it
    /// when that can start sooner ([`pps::d2h_first`]), else after it.
    /// Returns when the bytes are on the device.
    fn h2d(&mut self, t: f64) -> f64 {
        let ready = self.cpu_now;
        let loaded = match &mut self.copy {
            None => {
                let ev = self.q.enqueue("h2d", ready, t);
                self.trace.push("h2d", Resource::Gpu, ev.start, ev.end);
                ev.end
            }
            Some(copy) => {
                let mut held = self.held_d2h.take();
                if let Some(d2h) =
                    held.filter(|&(at, _)| pps::d2h_first(copy.drain_time(), at, ready))
                {
                    copy_d2h(copy, &mut self.trace, d2h);
                    held = None;
                }
                let free = copy.drain_time();
                let ev = copy.enqueue("h2d", ready, t);
                debug_assert!(ev.start >= free, "two transfers at once on the copy engine");
                self.trace.push("h2d", Resource::Copy, ev.start, ev.end);
                if let Some(d2h) = held {
                    copy_d2h(copy, &mut self.trace, d2h);
                }
                ev.end
            }
        };
        self.b.h2d += t;
        loaded
    }

    /// The device's Huffman pass over a fed plan's GPU rows: the scan and
    /// its subsequence table up ([`Self::h2d`]), the two subsequence
    /// kernels on the compute engine, and with `readback` every decoded
    /// row's decoder state back to the host once they end — on the copy
    /// engine when there is one — for whichever row the CPU band starts at.
    fn place_entropy(&mut self, res: &GpuEntropyResult, readback: bool) {
        let mut ready = self.h2d(res.h2d_time);
        for &(_, t) in &res.kernel_times {
            let ev = self.q.enqueue("gpu-huffman", ready, t);
            self.trace
                .push("gpu-huffman", Resource::Gpu, ev.start, ev.end);
            self.b.kernels += t;
            ready = ev.end;
        }
        if readback {
            let t = res.readback_time;
            let (ev, on) = match &mut self.copy {
                None => (self.q.enqueue("state", ready, t), Resource::Gpu),
                Some(copy) => (copy.enqueue("state", ready, t), Resource::Copy),
            };
            self.trace.push("state", on, ev.start, ev.end);
            self.b.d2h += t;
            self.band_state = Some(ev.end);
        }
    }

    /// Where the device's engines stand, for the Eq. 16 re-partition.
    fn engines(&self) -> pps::Engines {
        pps::Engines {
            compute: self.q.drain_time(),
            copy: self.copy.as_ref().map_or(0.0, CommandQueue::drain_time),
            pending: self.held_d2h,
        }
    }
}

/// One image of a batched whole-image GPU decode (PR 9), staged: the `Gpu`
/// plan up to the device placement, which waits until the batch's one
/// coalesced host→device transfer is priced.
pub(crate) struct GpuBatchMember {
    image: Target<'static>,
    tl: Timeline,
    res: GpuRegionResult,
    geom: Geometry,
}

impl GpuBatchMember {
    /// Stage one image: the entropy step, then the GPU chunk's CPU side
    /// over the whole image. The payload still crosses the bus, so its
    /// bytes count; the transfer does not, and nothing is placed yet. The
    /// caller prices ONE coalesced PCIe transfer over all members
    /// ([`hetjpeg_gpusim::PcieModel::batched_transfer_time`]) and counts it.
    pub(crate) fn stage(
        prep: &Prepared<'_>,
        platform: &Platform,
        model: &PerformanceModel,
        threads: usize,
        ws: &mut Workspace,
    ) -> Result<GpuBatchMember> {
        let geom = &prep.geom;
        ws.ensure(prep);
        let mut p = ws.parts();
        let mut tl = Timeline::default();
        let threads = entropy_par::threads_for(prep, threads);
        let plan = Plan::of(Mode::Gpu, prep, model, threads);
        let mut ent = Entropy::new(prep, platform, plan.threads, plan.feed_rows)?;
        ent.until(geom.mcus_y, p.coef, platform, &mut tl)?;
        p.spec.merge(&ent.spec());
        let mut image = Target::Rgb(None);
        let res = tl.ship(
            prep,
            platform,
            model,
            &mut p,
            0..geom.mcus_y,
            false,
            &mut image,
        )?;
        Ok(GpuBatchMember {
            image,
            tl,
            res,
            geom: geom.clone(),
        })
    }

    /// Bytes this image adds to the coalesced transfer.
    pub(crate) fn h2d_bytes(&self) -> usize {
        self.res.h2d_bytes
    }

    /// Place the member with `h2d_share`, its byte-proportional slice of
    /// the batch's single H2D time.
    pub(crate) fn finish(mut self, h2d_share: f64) -> DecodeOutcome {
        self.tl.place(h2d_share, &self.res, false);
        let out = self.tl.outcome(&self.geom, Mode::Gpu, None, false);
        self.image.finish(out).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::reference;
    use crate::schedule::tests::to_rgb;
    use crate::session::{DecodeOptions, Decoder};
    use crate::timeline::Breakdown;
    use hetjpeg_corpus::{generate_jpeg, generate_progressive_jpeg, generate_rgb};
    use hetjpeg_corpus::{ImageSpec, Pattern};
    use hetjpeg_jpeg::encoder::{encode_rgb, EncodeParams};
    use hetjpeg_jpeg::markers::{self, Parsed};
    use hetjpeg_jpeg::progressive::ScanPreset;
    use hetjpeg_jpeg::types::Subsampling;

    /// What an outcome says besides its pixels, every number as its bits.
    #[derive(Debug, PartialEq)]
    struct Exact {
        times: [u64; 7],
        spans: Vec<(&'static str, Resource, u64, u64)>,
        partition: Option<(usize, usize, u64, usize, u64, u64)>,
        mode: Mode,
        truncated: bool,
    }

    fn exact(out: &DecodeOutcome) -> Exact {
        let Breakdown {
            huffman,
            h2d,
            kernels,
            d2h,
            cpu_parallel,
            dispatch,
            total,
        } = out.times;
        Exact {
            times: [huffman, h2d, kernels, d2h, cpu_parallel, dispatch, total].map(f64::to_bits),
            spans: (out.trace.spans.iter())
                .map(|s| (s.label, s.resource, s.start.to_bits(), s.end.to_bits()))
                .collect(),
            partition: out.partition.map(|p| {
                (
                    p.gpu_mcu_rows,
                    p.cpu_mcu_rows,
                    p.x_pixel_rows.to_bits(),
                    p.iterations,
                    p.predicted_cpu.to_bits(),
                    p.predicted_gpu.to_bits(),
                )
            }),
            mode: out.mode,
            truncated: out.truncated,
        }
    }

    /// `plan` into a whole RGB image.
    fn decode(
        prep: &Prepared<'_>,
        platform: &Platform,
        model: &PerformanceModel,
        plan: &Plan,
        ws: &mut Workspace,
    ) -> Result<DecodeOutcome> {
        to_rgb(|out| super::decode(prep, platform, model, plan, None, ws, out))
    }

    /// `f`'s result on `ws`, with the H2D transfers and bytes it counted.
    fn counted(
        ws: &mut Workspace,
        f: impl FnOnce(&mut Workspace) -> Result<DecodeOutcome>,
    ) -> (Result<DecodeOutcome>, (u64, u64)) {
        let before = ws.stats();
        let out = f(ws);
        let after = ws.stats();
        let transfers = after.h2d_transfers - before.h2d_transfers;
        (out, (transfers, after.h2d_bytes - before.h2d_bytes))
    }

    /// Runs `plan` on the shared `ws` and the parent's body for it on a
    /// fresh workspace, and asserts the same pixels, every number to the
    /// bit and the same H2D counter deltas — or the same error and the same
    /// deltas. Returns the split scheduler's outcome (`None` on the error)
    /// and transfer count.
    fn assert_parent_equal(
        prep: &Prepared<'_>,
        platform: &Platform,
        model: &PerformanceModel,
        plan: &Plan,
        ws: &mut Workspace,
        ctx: &str,
    ) -> (Option<DecodeOutcome>, u64) {
        let (want, want_counts) = counted(&mut Workspace::default(), |ws| match plan.mode {
            Mode::Sequential | Mode::Simd => reference::cpu(prep, platform, plan.mode, false, ws),
            Mode::Gpu => reference::gpu(prep, platform, model, ws),
            Mode::PipelinedGpu => reference::pipelined_gpu(prep, platform, model, ws),
            Mode::Sps => reference::sps(prep, platform, model, ws),
            _ => reference::pps(prep, platform, model, plan.repartition, ws),
        });
        let (got, counts) = counted(ws, |ws| decode(prep, platform, model, plan, ws));
        assert_eq!(counts, want_counts, "{ctx}: H2D transfers and bytes");
        match (&got, want) {
            (Ok(out), Ok(want)) => {
                assert!(out.image.data == want.image.data, "{ctx}: pixels");
                assert_eq!(exact(out), exact(&want), "{ctx}");
            }
            (got, want) => assert_eq!(got.as_ref().err(), want.err().as_ref(), "{ctx}"),
        }
        (got.ok(), counts.0)
    }

    /// The models of the matrix: the platform's seed, and two doctored so
    /// that the SPS and PPS splits put every row on the GPU, and none.
    fn models(platform: &Platform) -> [PerformanceModel; 3] {
        let seed = platform.untrained_model();
        let mut all_gpu = seed.clone();
        all_gpu.p_cpu.coefs[0][0] += 10.0; // the CPU band looks hopeless
        let mut all_cpu = seed.clone();
        all_cpu.p_gpu.coefs[0][0] += 10.0; // the GPU share looks hopeless
        [seed, all_gpu, all_cpu]
    }

    /// Every plan of the matrix on one image, all on the shared `ws`:
    /// `PipelinedGpu` and PPS (re-partitioning on and off) at chunk
    /// heights of the default, 1 and past the image; `Sps` and PPS under
    /// each model; `Gpu` once; `Sequential` and `Simd` once, priced for one
    /// entropy thread and for four.
    fn assert_image(prep: &Prepared<'_>, platform: &Platform, ws: &mut Workspace, ctx: &str) {
        let mcus_y = prep.geom.mcus_y;
        for (m, model) in models(platform).into_iter().enumerate() {
            if m > 0 {
                let want = if m == 1 { mcus_y } else { 0 };
                for mode in [Mode::Sps, Mode::Pps] {
                    let got = Plan::of(mode, prep, &model, 1).gpu_rows;
                    assert_eq!(
                        got, want,
                        "{ctx}: model {m} must put {mode:?}'s split at an end"
                    );
                }
            }
            for (c, chunk) in [model.chunk_mcu_rows, 1, mcus_y + 1]
                .into_iter()
                .enumerate()
            {
                let model = PerformanceModel {
                    chunk_mcu_rows: chunk,
                    ..model.clone()
                };
                if m == 0 && c == 0 {
                    for mode in [Mode::Sequential, Mode::Simd] {
                        for threads in [1, 4] {
                            let plan = Plan::of(mode, prep, &model, threads);
                            assert_eq!((plan.gpu_rows, plan.threads), (0, 1), "{ctx}");
                            let ctx = format!("{ctx}, {mode:?} at {threads} threads");
                            assert_parent_equal(prep, platform, &model, &plan, ws, &ctx);
                        }
                    }
                }
                for mode in [Mode::Gpu, Mode::PipelinedGpu, Mode::Sps, Mode::Pps] {
                    let reads_split = matches!(mode, Mode::Sps | Mode::Pps);
                    let reads_chunk = matches!(mode, Mode::PipelinedGpu | Mode::Pps);
                    if (m > 0 && !reads_split) || (c > 0 && !reads_chunk) {
                        continue;
                    }
                    let plan = Plan::of(mode, prep, &model, 1);
                    let ctx = format!("{ctx}, model {m}, chunk {chunk}, {mode:?}");
                    assert_parent_equal(prep, platform, &model, &plan, ws, &ctx);
                    if plan.repartition {
                        let fixed = Plan {
                            repartition: false,
                            ..plan
                        };
                        let ctx = format!("{ctx} without re-partitioning");
                        assert_parent_equal(prep, platform, &model, &fixed, ws, &ctx);
                    }
                }
            }
        }
    }

    #[test]
    fn split_scheduler_equals_the_parent_bodies_bit_for_bit() {
        let mut ws = Workspace::default();
        for platform in Platform::all() {
            for sub in [Subsampling::S444, Subsampling::S422, Subsampling::S420] {
                let mcu_h = if sub == Subsampling::S420 { 16 } else { 8 };
                // One MCU row; exactly one default chunk; odd; tall, with a
                // short last chunk and a clipped last MCU row. Each clipped
                // row is more than half there, so the doctored models'
                // splits round to the image's ends.
                for (w, h) in [
                    (48, mcu_h),
                    (48, 16 * mcu_h),
                    (97, 61),
                    (40, 51 * mcu_h - 3),
                ] {
                    let spec = ImageSpec {
                        width: w,
                        height: h,
                        pattern: Pattern::PhotoLike { detail: 0.6 },
                        seed: (w * h) as u64,
                    };
                    let jpeg = generate_jpeg(&spec, 85, sub).expect("encode");
                    let prep = Prepared::new(&jpeg).expect("parse");
                    let ctx = format!("{} {} {w}x{h}", platform.name, sub.notation());
                    assert_image(&prep, &platform, &mut ws, &ctx);
                    let preset = ScanPreset::Standard10;
                    let prog = generate_progressive_jpeg(&spec, 85, sub, preset).expect("encode");
                    assert_progressive(&prog, &platform, &mut ws, &ctx);
                }
            }
        }
    }

    #[test]
    fn fed_chunked_plans_run_two_engines() {
        // Over the image matrix above, fed by two and four entropy
        // workers, `PipelinedGpu` and PPS place their transfers on the copy
        // engine beside the kernels. The timeline must still hold: one
        // transfer at a time on the copy engine, one kernel at a time on
        // the compute engine, no chunk's kernels before its H2D, no D2H
        // before its chunk's kernels, and the decode ends when the CPU and
        // both engines are done. The pixels are those of one thread.
        let mut ws = Workspace::default();
        for platform in Platform::all() {
            for sub in [Subsampling::S444, Subsampling::S422, Subsampling::S420] {
                let mcu_h = if sub == Subsampling::S420 { 16 } else { 8 };
                for (w, h) in [
                    (48, mcu_h),
                    (48, 16 * mcu_h),
                    (97, 61),
                    (40, 51 * mcu_h - 3),
                ] {
                    let spec = ImageSpec {
                        width: w,
                        height: h,
                        pattern: Pattern::PhotoLike { detail: 0.6 },
                        seed: (w * h) as u64,
                    };
                    let jpeg = generate_jpeg(&spec, 85, sub).expect("encode");
                    let prep = Prepared::new(&jpeg).expect("parse");
                    let seed = platform.untrained_model();
                    for chunk in [seed.chunk_mcu_rows, 1] {
                        let model = PerformanceModel {
                            chunk_mcu_rows: chunk,
                            ..seed.clone()
                        };
                        for mode in [Mode::PipelinedGpu, Mode::Pps] {
                            let one = Plan::of(mode, &prep, &model, 1);
                            let want = decode(&prep, &platform, &model, &one, &mut ws);
                            let want = want.expect("one thread").image.data;
                            for threads in [2, 4] {
                                let plan = Plan::of(mode, &prep, &model, threads);
                                let ctx = format!(
                                    "{} {} {w}x{h}, chunk {chunk}, {mode:?} at {threads} threads",
                                    platform.name,
                                    sub.notation()
                                );
                                let out = decode(&prep, &platform, &model, &plan, &mut ws);
                                let out = out.expect("decode");
                                assert!(out.image.data == want, "{ctx}: pixels");
                                assert_two_engines(&out, &ctx);
                            }
                        }
                    }
                }
            }
        }
    }

    /// The timeline invariants of a decode whose GPU has a copy engine.
    fn assert_two_engines(out: &DecodeOutcome, ctx: &str) {
        let spans = &out.trace.spans;
        let on = |r: Resource| -> Vec<&crate::timeline::Span> {
            let mut v: Vec<_> = spans.iter().filter(|s| s.resource == r).collect();
            v.sort_by(|a, b| a.start.total_cmp(&b.start));
            v
        };
        for (r, what) in [(Resource::Copy, "transfers"), (Resource::Gpu, "kernels")] {
            for pair in on(r).windows(2) {
                assert!(
                    pair[1].start >= pair[0].end,
                    "{ctx}: {what} overlap: {:?} and {:?}",
                    pair[0],
                    pair[1]
                );
            }
        }
        let gpu = on(Resource::Gpu);
        assert!(
            gpu.iter()
                .all(|s| matches!(s.label, "kernel" | "gpu-huffman")),
            "{ctx}: only kernels on the compute engine"
        );
        // Fed, the device's Huffman pass ships the scan and its kernels
        // decode it; every chunk then decodes from the resident
        // coefficients: no kernel before the pass's H2D, no chunk kernel
        // before the pass's kernels, and chunk k's D2H — the k-th — after
        // chunk k's kernels.
        let first_h2d = spans
            .iter()
            .find(|s| s.label == "h2d")
            .map_or(0.0, |s| s.end);
        let mut pass_end = 0.0f64;
        let mut kernel_ends: Vec<f64> = Vec::new();
        let mut d2h_starts = Vec::new();
        for s in spans {
            match s.label {
                "gpu-huffman" => {
                    assert!(s.start >= first_h2d, "{ctx}: Huffman before the scan");
                    pass_end = pass_end.max(s.end);
                }
                "dispatch" => kernel_ends.push(0.0),
                "kernel" => {
                    let k = kernel_ends.len() - 1;
                    assert!(
                        s.start >= pass_end,
                        "{ctx}: chunk {k}'s kernel before the pass"
                    );
                    kernel_ends[k] = s.end;
                }
                "d2h" => d2h_starts.push(s.start),
                _ => {}
            }
        }
        assert!(
            kernel_ends.is_empty() || pass_end > 0.0,
            "{ctx}: the device's Huffman"
        );
        assert_eq!(
            d2h_starts.len(),
            kernel_ends.len(),
            "{ctx}: one D2H per chunk"
        );
        for (k, (&start, &end)) in d2h_starts.iter().zip(&kernel_ends).enumerate() {
            assert!(
                start >= end,
                "{ctx}: chunk {k}'s D2H before its kernels end"
            );
        }
        let end = |r: Resource| on(r).iter().map(|s| s.end).fold(0.0, f64::max);
        let last = end(Resource::Cpu)
            .max(end(Resource::Gpu))
            .max(end(Resource::Copy));
        assert_eq!(
            out.times.total, last,
            "{ctx}: the later of the CPU and both engines"
        );
    }

    /// `Sequential` and `Simd` over the fill of `jpeg`'s progressive scan
    /// script equal the parent's CPU body for it.
    fn assert_progressive(jpeg: &[u8], platform: &Platform, ws: &mut Workspace, ctx: &str) {
        let Ok(Parsed::Progressive(parsed)) = markers::parse(jpeg) else {
            panic!("{ctx}: a progressive stream");
        };
        let prep = Prepared::from_progressive(&parsed).expect("frame");
        let model = platform.untrained_model();
        for mode in [Mode::Sequential, Mode::Simd] {
            let opts = DecodeOptions::default();
            let fill = Fill::progressive(&parsed, &prep, platform, &opts, ws).expect("fill");
            let plan = Plan::of(mode, &prep, &model, 1);
            let got =
                to_rgb(|out| super::decode(&prep, platform, &model, &plan, Some(fill), ws, out));
            let want =
                reference::progressive(&prep, &parsed, platform, mode, &mut Workspace::default());
            let (got, want) = (got.expect("decode"), want.expect("oracle"));
            assert!(
                got.image.data == want.image.data,
                "{ctx}, progressive {mode:?}: pixels"
            );
            assert_eq!(exact(&got), exact(&want), "{ctx}, progressive {mode:?}");
        }
    }

    #[test]
    fn repartitioning_on_skewed_entropy_equals_the_parent_bit_for_bit() {
        // Detail ramps make Eq. 16/17 move the boundary, so the
        // re-partitioned path runs for real.
        let mut ws = Workspace::default();
        for (top, bottom) in [(0.05, 0.95), (0.95, 0.05)] {
            let spec = ImageSpec {
                width: 384,
                height: 512,
                pattern: Pattern::DetailRamp { top, bottom },
                seed: 11,
            };
            let jpeg = generate_jpeg(&spec, 85, Subsampling::S422).expect("encode");
            let prep = Prepared::new(&jpeg).expect("parse");
            for platform in Platform::all() {
                let model = platform.untrained_model();
                let plan = Plan::of(Mode::Pps, &prep, &model, 1);
                let ctx = format!("{} ramp {top}->{bottom}", platform.name);
                let (out, _) = assert_parent_equal(&prep, &platform, &model, &plan, &mut ws, &ctx);
                let moved = out.expect("decode").partition.expect("split").gpu_mcu_rows;
                let case = (top, bottom);
                assert_ramp_repartition(
                    &model,
                    &prep.geom,
                    &platform,
                    case,
                    plan.gpu_rows,
                    moved,
                    &ctx,
                );
                let fixed = Plan {
                    repartition: false,
                    ..plan
                };
                assert_parent_equal(&prep, &platform, &model, &fixed, &mut ws, &ctx);
            }
        }
    }

    #[test]
    fn batched_gpu_members_equal_the_parent_batch_bit_for_bit() {
        for n in [2usize, 8] {
            let images: Vec<Vec<u8>> = (0..n)
                .map(|i| {
                    let spec = ImageSpec {
                        width: 48 + 16 * i,
                        height: 40 + 8 * (i % 3),
                        pattern: Pattern::PhotoLike { detail: 0.5 },
                        seed: i as u64,
                    };
                    generate_jpeg(&spec, 80, Subsampling::S420).expect("encode")
                })
                .collect();
            let decoder = Decoder::builder()
                .platform(Platform::gtx680())
                .threads(1)
                .build()
                .expect("session");
            let got = decoder.decode_batch(&images, DecodeOptions::with_mode(Mode::Gpu));
            let counts = decoder.pool_stats();
            // The parent's batch: stage every member, price one coalesced
            // transfer, finish each member with its byte-proportional share.
            let (platform, model) = (decoder.platform(), decoder.model());
            let mut ws = Workspace::default();
            let staged: Vec<_> = (images.iter())
                .map(|j| {
                    let prep = Prepared::new(j).expect("parse");
                    reference::gpu_batch_stage(&prep, platform, model, &mut ws).expect("stage")
                })
                .collect();
            let sizes: Vec<usize> = staged.iter().map(|m| m.h2d_bytes).collect();
            let total: usize = sizes.iter().sum();
            let batch_time = platform.pcie.batched_transfer_time(&sizes, true);
            for (i, (got, m)) in got.iter().zip(staged).enumerate() {
                let share = batch_time * m.h2d_bytes as f64 / total as f64;
                let want = reference::gpu_batch_finish(m, share);
                let got = got.as_ref().expect("decode");
                assert!(
                    got.image.data == want.image.data,
                    "{n} members, #{i}: pixels"
                );
                assert_eq!(exact(got), exact(&want), "{n} members, #{i}");
            }
            let want_counts = (1, ws.stats().h2d_bytes);
            assert_eq!(
                (counts.h2d_transfers, counts.h2d_bytes),
                want_counts,
                "{n} members"
            );
        }
    }

    #[test]
    fn a_stream_cut_inside_the_gpu_share_fails_as_the_parent_did() {
        // Restart markers make the cut an error — the next RSTn never
        // comes — instead of zero padding. Every plan must return the
        // parent's error under strict handling, and the chunks shipped
        // before it must count as they did.
        let spec = ImageSpec {
            width: 64,
            height: 256,
            pattern: Pattern::PhotoLike { detail: 0.6 },
            seed: 5,
        };
        let params = EncodeParams {
            quality: 85,
            subsampling: Subsampling::S422,
            restart_interval: 4,
        };
        let mut jpeg = encode_rgb(&generate_rgb(&spec), 64, 256, &params).expect("encode");
        jpeg.truncate(jpeg.len() * 2 / 5);
        let prep = Prepared::new(&jpeg).expect("headers survive the cut");
        let platform = Platform::gtx680();
        let mut ws = Workspace::default();
        for chunk in [1, 4] {
            let model = PerformanceModel {
                chunk_mcu_rows: chunk,
                ..platform.untrained_model()
            };
            for mode in [Mode::Gpu, Mode::PipelinedGpu, Mode::Sps, Mode::Pps] {
                let plan = Plan::of(mode, &prep, &model, 1);
                let ctx = format!("chunk {chunk}, {mode:?}");
                let (out, transfers) =
                    assert_parent_equal(&prep, &platform, &model, &plan, &mut ws, &ctx);
                assert!(out.is_none(), "{ctx}: the cut must fail a strict decode");
                if plan.chunk.is_some() {
                    assert!(transfers > 0, "{ctx}: chunks ship before the cut");
                }
                assert_fed_fail_alike(&prep, &platform, &model, &plan, &ctx);
            }
        }
        // Salvaged, the cut is a fill: a plan with no GPU rows over it
        // equals the parent's salvage.
        let model = platform.untrained_model();
        for mode in [Mode::Sequential, Mode::Simd, Mode::ParallelEntropy] {
            ws.ensure_zeroed(&prep);
            let fill = Fill::salvage(&prep, &platform, ws.parts().coef).expect("salvage");
            let plan = Plan::of(mode, &prep, &model, 1);
            let got = to_rgb(|out| {
                super::decode(&prep, &platform, &model, &plan, Some(fill), &mut ws, out)
            });
            let want = reference::cpu(&prep, &platform, mode, true, &mut Workspace::default());
            let (got, want) = (got.expect("salvage"), want.expect("oracle"));
            assert!(
                got.truncated && got.image.data == want.image.data,
                "{mode:?} salvage"
            );
            assert_eq!(exact(&got), exact(&want), "{mode:?} salvage");
        }
    }

    /// `plan` fed by two and four entropy workers fails as it fails with
    /// its Huffman decoded sequentially: the same error, after the same
    /// H2D transfers and bytes at two and four workers. Fed, a scan the
    /// feed takes ships the GPU share's scan bytes in one transfer when
    /// the damage is past the share's rows — the chunks then decode from
    /// the device's resident coefficients — and, when the damage is inside
    /// them, hands over to the sequential decoder and ships what one
    /// worker ships.
    fn assert_fed_fail_alike(
        prep: &Prepared<'_>,
        platform: &Platform,
        model: &PerformanceModel,
        plan: &Plan,
        ctx: &str,
    ) {
        let run = |threads| {
            let plan = Plan { threads, ..*plan };
            counted(&mut Workspace::default(), |ws| {
                decode(prep, platform, model, &plan, ws)
            })
        };
        let (want, (mut want_transfers, _)) = run(1);
        let want = want
            .err()
            .unwrap_or_else(|| panic!("{ctx}: the damage must fail"));
        let mcus_y = prep.geom.mcus_y;
        if plan.gpu_rows > 0 && entropy_par::feedable(prep) {
            let mut dec = prep.entropy_decoder().expect("tables");
            let mut coef = hetjpeg_jpeg::coef::CoefBuffer::new(&prep.geom);
            let clean = (0..mcus_y).take_while(|_| dec.decode_mcu_row(&mut coef).is_ok());
            if clean.count() >= plan.gpu_rows {
                want_transfers = 1;
            }
        }
        let mut fed_bytes = None;
        for threads in [2, 4] {
            let (got, (transfers, bytes)) = run(threads);
            assert_eq!(got.err().as_ref(), Some(&want), "{ctx}, {threads} threads");
            assert_eq!(transfers, want_transfers, "{ctx}, {threads} threads: H2D");
            assert_eq!(
                *fed_bytes.get_or_insert(bytes),
                bytes,
                "{ctx}, {threads} threads"
            );
        }
    }

    #[test]
    fn a_damaged_stream_fails_alike_fed_or_sequential() {
        // Bytes flipped inside the scan, with and without restart markers:
        // the feed's stitch meets the damage and hands over to the
        // sequential decoder, which reports it where it always did.
        let spec = ImageSpec {
            width: 64,
            height: 256,
            pattern: Pattern::PhotoLike { detail: 0.6 },
            seed: 5,
        };
        let platform = Platform::gtx680();
        let model = PerformanceModel {
            chunk_mcu_rows: 2,
            ..platform.untrained_model()
        };
        let mut failed = 0;
        for interval in [0, 4] {
            let params = EncodeParams {
                quality: 85,
                subsampling: Subsampling::S422,
                restart_interval: interval,
            };
            let jpeg = encode_rgb(&generate_rgb(&spec), 64, 256, &params).expect("encode");
            for at in (30..80).step_by(2) {
                let mut bad = jpeg.clone();
                let i = bad.len() * at / 100;
                bad[i] ^= 0x5A;
                let prep = Prepared::new(&bad).expect("headers survive");
                let strict = Plan::of(Mode::Gpu, &prep, &model, 1);
                let sequential = counted(&mut Workspace::default(), |ws| {
                    decode(&prep, &platform, &model, &strict, ws)
                });
                if sequential.0.is_ok() {
                    continue; // the flip decoded into other valid codes
                }
                failed += 1;
                for mode in [Mode::Gpu, Mode::PipelinedGpu, Mode::Sps, Mode::Pps] {
                    // The Eq. 16 re-partition prices the feed it runs on,
                    // so it moves PPS's boundary differently: hold the
                    // split still to compare what ships.
                    let plan = Plan {
                        repartition: false,
                        ..Plan::of(mode, &prep, &model, 1)
                    };
                    let ctx = format!("DRI {interval}, flip at {at}%, {mode:?}");
                    assert_fed_fail_alike(&prep, &platform, &model, &plan, &ctx);
                }
            }
        }
        assert!(failed >= 4, "only {failed} flips failed a strict decode");
    }
}
