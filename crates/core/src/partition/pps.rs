//! Pipelined Partitioning Scheme (paper §5.2.2).
//!
//! PPS overlaps the GPU's share with Huffman decoding: the GPU's rows are
//! entropy-decoded chunk by chunk and dispatched asynchronously, and the
//! CPU then decodes its own rows and renders them. At `x` CPU pixel rows
//! the GPU takes `g = h − x`, fed in `n = ⌈g/c⌉` chunks of `c` rows, and
//! Eq. 15 balances the two sides of that overlap:
//!
//! ```text
//! CPU(x) = THuff(w, h, d) + PCPU(w, x)·k(d) + n·Tdisp(w, c)
//! GPU(x) = max(THuff(w, c, d) + Tdisp(w, c) + PGPU(w, g),    device-bound
//!              THuff(w, g, d) + n·Tdisp(w, c) + PGPU(w, c))  feed-bound
//! ```
//!
//! The CPU pays all of the Huffman decoding and every dispatch. The device
//! starts once the first chunk is decoded and dispatched, and it cannot
//! finish before the last chunk is fed at Huffman rate and decoded. `k(d)`
//! is the model's `pcpu_density` factor. The last chunk may be shorter
//! than `c`; the forms price it at its own height. The split is placed on
//! the fitted `PGPU`: `Mode::Auto` adds the compacted payload's density
//! correction only when it prices the result, because inside the balance
//! it made the splits worse.
//!
//! Because "the density of entropy data is unlikely to be evenly
//! distributed in practice", the split is **re-computed before the last GPU
//! chunk** (Eq. 16) on the same two sides, over the rows still to decode,
//! with a corrected density (Eq. 17), the device's backlog, and `PCPU`
//! scaled by the tail's measured sparsity instead of `k(d)`.
//!
//! With more than one session thread the GPU's rows are not Huffman-decoded
//! on the CPU at all: the device decodes them from their scan
//! (`Overlap::device_walk`), and only the CPU band's rows are the entropy
//! workers', released on a [`Release`] curve. A fed plan's device has two
//! engines when it is chunked: the copy engine moves one transfer at a time
//! while the compute engine runs kernels ([`Engines`]). The GPU share's
//! sides then jump — where the share outgrows the rows the device decoded,
//! where a chunk starts — so the fed split is the MCU row of the smallest
//! makespan, found by scanning every one ([`device_partition`], Eq. 16's
//! [`repartition_device`]). At one thread every form is the sequential one
//! above, bit for bit, on the paper's one in-order queue.

use super::newton::newton_solve;
use super::Partition;
use crate::model::PerformanceModel;
use crate::regress::{Poly1, Poly2};
use crate::schedule::entropy_par::SEGMENT_OVERHEAD_S;
use hetjpeg_jpeg::geometry::Geometry;
use std::cell::Cell;

/// One `(w, rows)` form of the model at a fixed image width, as a
/// polynomial in the rows alone, with its slope: Newton only moves the
/// rows, so the width's powers are reduced once per solve.
#[derive(Debug, Clone)]
struct AtWidth {
    value: Poly1,
    slope: Poly1,
}

impl AtWidth {
    fn new(form: &Poly2, w: f64) -> Self {
        let value = form.at_x(w);
        AtWidth {
            slope: value.derivative(),
            value,
        }
    }

    /// The form for a band of `rows` — zero for an empty band, never
    /// negative, as the model's accessors price it — and its slope.
    fn at(&self, rows: f64) -> (f64, f64) {
        let value = if rows <= 0.0 {
            0.0
        } else {
            self.value.eval(rows).max(0.0)
        };
        (value, self.slope.eval(rows))
    }
}

/// Where the device's engines stand in a fed, chunked loop, in seconds
/// into the decode: when each is next free, and the D2H the last chunk's
/// kernels left, which the copy engine has not been given yet. The copy
/// engine runs its transfers in the order it is given them, so a chunk's
/// D2H is held back until the next chunk's H2D is issued, or issued first
/// when it can start strictly sooner (on a tie the H2D goes first).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Engines {
    /// When the compute engine is next free.
    pub compute: f64,
    /// When the copy engine is next free.
    pub copy: f64,
    /// The held-back D2H: when its kernels end, and its seconds.
    pub pending: Option<(f64, f64)>,
}

impl Engines {
    /// When both engines are done, the held-back D2H run.
    pub fn drained(&self) -> f64 {
        let copy = match self.pending {
            Some((ready, t)) => self.copy.max(ready) + t,
            None => self.copy,
        };
        self.compute.max(copy)
    }

    /// An H2D of `h2d` seconds ready at `ready`: the held-back D2H and the
    /// H2D go to the copy engine in the order they can start. Returns when
    /// the bytes are on the device.
    fn h2d(&mut self, ready: f64, h2d: f64) -> f64 {
        let mut pending = self.pending.take();
        if let Some((at, t)) = pending.filter(|&(at, _)| d2h_first(self.copy, at, ready)) {
            self.copy = self.copy.max(at) + t;
            pending = None;
        }
        self.copy = self.copy.max(ready) + h2d;
        let loaded = self.copy;
        if let Some((at, t)) = pending {
            self.copy = self.copy.max(at) + t;
        }
        loaded
    }

    /// The device's Huffman pass, ready at `ready`: its H2D, then `entropy`
    /// seconds of kernels. Returns when the kernels end.
    fn entropy_pass(&mut self, ready: f64, h2d: f64, entropy: f64) -> f64 {
        let loaded = self.h2d(ready, h2d);
        self.compute = self.compute.max(loaded) + entropy;
        self.compute
    }

    /// A chunk whose coefficients are resident, dispatched at `ready`: the
    /// held-back D2H goes to the copy engine at once, the kernels run on
    /// the compute engine, and this chunk's D2H is held back.
    fn place_resident(&mut self, ready: f64, kernels: f64, d2h: f64) {
        if let Some((at, t)) = self.pending.take() {
            self.copy = self.copy.max(at) + t;
        }
        self.compute = self.compute.max(ready) + kernels;
        self.pending = Some((self.compute, d2h));
    }
}

/// Whether a copy engine free at `copy_free` runs a held-back D2H, ready at
/// `d2h_ready`, before the next chunk's H2D, ready at `h2d_ready`: only
/// when the D2H can start strictly sooner. On a tie the H2D goes first, so
/// the compute engine is fed.
pub(crate) fn d2h_first(copy_free: f64, d2h_ready: f64, h2d_ready: f64) -> bool {
    d2h_ready.max(copy_free) < h2d_ready.max(copy_free)
}

/// The pipelined overlap of Eq. 15/16 for one image: what its two sides
/// are priced from. The GPU takes rows in chunks of `chunk` pixel rows,
/// all decoded at density `d`.
#[derive(Debug, Clone)]
pub struct Overlap {
    w: f64,
    chunk: f64,
    backlog: f64,
    chunked: bool,
    h2d: f64,
    t_disp: AtWidth,
    p_gpu: AtWidth,
    /// The model's stage forms reduced for this image: the H2D at its
    /// density, in a band's pixels; the kernels and the D2H at its width,
    /// in a band's rows.
    stages: [Poly1; 3],
    /// Huffman seconds per pixel row: `THuff` is linear in the rows.
    huff_row: f64,
    /// `Tdisp`, `PGPU` and the stages of one full chunk.
    chunk_disp: f64,
    chunk_dev: f64,
    chunk_stages: [f64; 3],
    /// `THuffGPU` at the image's density, and its scan bytes per pixel.
    entropy: crate::model::GpuEntropy,
    d: f64,
    scan_per_px: f64,
}

/// The overlap's prices for one GPU share, each with its slope in the
/// share's rows.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sides {
    /// Every dispatch of the share: the CPU pays them between its Huffman
    /// spans.
    pub(crate) dispatches: (f64, f64),
    /// When the device finishes: the later of the device-bound and the
    /// feed-bound finish.
    pub(crate) gpu: (f64, f64),
}

impl Overlap {
    /// The overlap of an image `w` pixels wide at entropy density `d`, fed
    /// in chunks of `chunk` (at least one) pixel rows once the device has
    /// drained `backlog` seconds of queued work. With `chunked` the device
    /// work is priced chunk by chunk, each chunk paying the fixed terms of
    /// `PGPU` (latency, launches); without, as one band. `h2d` is added to
    /// every `PGPU` band per pixel ([`PerformanceModel::h2d_correction`]).
    pub fn new(
        model: &PerformanceModel,
        w: f64,
        d: f64,
        chunk: f64,
        backlog: f64,
        chunked: bool,
        h2d: f64,
    ) -> Self {
        let chunk = chunk.max(1.0);
        let st = &model.gpu_stages;
        let mut overlap = Overlap {
            w,
            chunk,
            backlog,
            chunked,
            h2d,
            t_disp: AtWidth::new(&model.t_disp, w),
            p_gpu: AtWidth::new(&model.p_gpu, w),
            stages: [st.h2d.at_x(d), st.kernels.at_x(w), st.d2h.at_x(w)],
            huff_row: model.huff_time(w, d),
            chunk_disp: 0.0,
            chunk_dev: 0.0,
            chunk_stages: [0.0; 3],
            entropy: model.thuff_gpu.clone(),
            d,
            scan_per_px: d,
        };
        overlap.chunk_disp = overlap.t_disp.at(chunk).0;
        overlap.chunk_dev = overlap.device(chunk).0;
        overlap.chunk_stages = overlap.stages(chunk);
        overlap
    }

    /// The device time of a band of `rows` as `[H2D, kernels, D2H]`, as
    /// [`PerformanceModel::gpu_stage_times`] prices it.
    fn stages(&self, rows: f64) -> [f64; 3] {
        if rows <= 0.0 {
            return [0.0; 3];
        }
        let [h2d, kernels, d2h] = &self.stages;
        let stages = [h2d.eval(self.w * rows), kernels.eval(rows), d2h.eval(rows)];
        stages.map(|t| t.max(0.0))
    }

    /// `PGPU` of a band of `rows` plus the H2D correction, and its slope,
    /// as [`PerformanceModel::p_gpu_at_density`] prices it.
    fn device(&self, rows: f64) -> (f64, f64) {
        let (base, slope) = self.p_gpu.at(rows);
        let slope = slope + self.h2d * self.w;
        if base <= 0.0 {
            return (base, slope);
        }
        ((base + self.h2d * self.w * rows).max(0.0), slope)
    }

    /// The prices of a GPU share of `g` pixel rows. With no rows there is
    /// nothing to dispatch and the device finishes its backlog.
    pub(crate) fn at(&self, g: f64) -> Sides {
        if g <= 0.0 {
            return Sides {
                dispatches: (0.0, 0.0),
                gpu: (self.backlog, 0.0),
            };
        }
        // ⌈g/c⌉ chunks, the last one `last` rows high.
        let n = (g / self.chunk).ceil().max(1.0);
        let last = g - (n - 1.0) * self.chunk;
        let last_disp = self.t_disp.at(last);
        let last_dev = self.device(last);
        let disp = ((n - 1.0) * self.chunk_disp + last_disp.0, last_disp.1);
        // Device-bound: the first chunk decoded and dispatched (or the
        // backlog drained), then all of the device work.
        let fed_first = if n > 1.0 {
            (self.huff_row * self.chunk + self.chunk_disp, 0.0)
        } else {
            (self.huff_row * g + last_disp.0, self.huff_row + last_disp.1)
        };
        let start = if fed_first.0 >= self.backlog {
            fed_first
        } else {
            (self.backlog, 0.0)
        };
        let work = if self.chunked {
            ((n - 1.0) * self.chunk_dev + last_dev.0, last_dev.1)
        } else if n > 1.0 {
            self.device(g)
        } else {
            last_dev
        };
        let device = (start.0 + work.0, start.1 + work.1);
        // Feed-bound: every GPU row decoded and dispatched, then the last
        // chunk's device time.
        let feed = (
            self.huff_row * g + disp.0 + last_dev.0,
            self.huff_row + disp.1 + last_dev.1,
        );
        Sides {
            dispatches: disp,
            gpu: if device.0 >= feed.0 { device } else { feed },
        }
    }
}

impl Overlap {
    /// The same overlap with the GPU's Huffman decoded on the device, from
    /// a scan of `scan_per_px` bytes per pixel.
    pub fn with_scan(self, scan_per_px: f64) -> Self {
        Overlap {
            scan_per_px,
            ..self
        }
    }

    /// `THuffGPU` of a band of `rows`.
    fn entropy(&self, rows: f64) -> f64 {
        self.entropy.time(self.scan_per_px * self.w * rows, self.d)
    }

    /// The device-entropy walk over a GPU share of `g` pixel rows on a loop
    /// free at `start`, the device's `engines` where they stand, the
    /// share's first `decoded` rows' Huffman already decoded on the device
    /// and their states on the host at `state`. Before the first chunk's
    /// dispatch the device's Huffman pass over the rest of the share is
    /// placed: its scan's H2D, `THuffGPU`, and with `readback` every row's
    /// state back. Every chunk — the whole share as one with `serial` — is
    /// then dispatched at once and decodes from the resident coefficients:
    /// its kernels and D2H, no H2D. With `serial` the device has one
    /// in-order queue, else two engines. Returns when the dispatches end,
    /// when the band's state is on the host, and when the device is done.
    #[allow(clippy::too_many_arguments)]
    fn device_walk(
        &self,
        g: f64,
        start: f64,
        engines: &Engines,
        serial: bool,
        readback: bool,
        decoded: f64,
        state: f64,
    ) -> (f64, f64, f64) {
        let (mut cpu, mut eng, mut queue, mut state) = (start, *engines, engines.drained(), state);
        let fresh = g - decoded;
        if fresh > 0.0 {
            let [h2d, _, _] = self.stages(fresh);
            let ent = self.entropy(fresh);
            let back = if readback { self.entropy.readback } else { 0.0 };
            if serial {
                queue = queue.max(cpu) + h2d + ent + back;
                state = queue;
            } else {
                let end = eng.entropy_pass(cpu, h2d, ent);
                if readback {
                    eng.copy = eng.copy.max(end) + back;
                    state = eng.copy;
                }
            }
        }
        let chunk = if serial { g } else { self.chunk };
        let mut done = 0.0;
        while done < g {
            let rows = chunk.min(g - done);
            done += rows;
            cpu += self.t_disp.at(rows).0;
            let [_, kernels, d2h] = match rows == self.chunk {
                true => self.chunk_stages,
                false => self.stages(rows),
            };
            if serial {
                queue = queue.max(cpu) + kernels + d2h;
            } else {
                eng.place_resident(cpu, kernels, d2h);
            }
        }
        let dev = if serial { queue } else { eng.drained() };
        (cpu, state, dev)
    }
}

/// When a fed entropy step makes an image's rows final on the loop's
/// thread, priced from the model: `THuff(w·h, d)` split evenly over the
/// feed's chunks, each worker's chunk costing its share plus the per-chunk
/// overhead, list-scheduled onto the workers in row order; a speculative
/// chunk boundary pays the trained convergence prefix twice, half as the
/// worker's garbage and half as the stitch's exact re-decode on the loop.
/// So rows release in waves of `threads` chunks, the first wave's first
/// chunk at the sequential rate.
#[derive(Debug, Clone)]
pub struct Release {
    /// Pixel rows per feed chunk.
    chunk_rows: f64,
    /// Sequential Huffman seconds per pixel row.
    huff_row: f64,
    /// The image's pixel rows above the rows released, and the chunk that
    /// holds the first released row.
    skip: f64,
    first: usize,
    /// When each chunk from `first` on, in row order, is final.
    final_at: Vec<f64>,
    /// Per chunk `j`: the earliest the loop can decode the first released
    /// row onwards at the sequential rate, having waited from the start or
    /// for a chunk `i ≤ j` — min over `i` of (chunk `i − 1` final) − (rows
    /// released before chunk `i`)·`huff_row`.
    ramp: Vec<f64>,
}

impl Release {
    /// The release curve of a `w × h` image at density `d` with `mcus`
    /// MCUs, decoded on `threads` workers in `chunks` feed chunks;
    /// `speculative` when the chunks start mid-segment (no restart marker
    /// at their boundaries).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        model: &PerformanceModel,
        w: f64,
        h: f64,
        d: f64,
        mcus: f64,
        threads: usize,
        chunks: usize,
        speculative: bool,
    ) -> Release {
        Self::from_row(model, w, h, d, mcus, threads, chunks, speculative, 0.0)
    }

    /// [`Self::new`]'s release of the image's rows from pixel row `skip`
    /// on, the decoder state at that row in hand: the workers start on the
    /// chunks [`Self::new`] cuts the image into from the one holding that
    /// row — which decodes from the row, in step, with no convergence
    /// prefix — and [`Self::at`] counts rows from it.
    #[allow(clippy::too_many_arguments)]
    pub fn from_row(
        model: &PerformanceModel,
        w: f64,
        h: f64,
        d: f64,
        mcus: f64,
        threads: usize,
        chunks: usize,
        speculative: bool,
        skip: f64,
    ) -> Release {
        let n = chunks.max(1);
        let thuff = model.huff_time(w * h, d);
        let share = thuff / n as f64 + SEGMENT_OVERHEAD_S;
        let prefix = match speculative {
            true => 0.5 * model.spec_prefix_mcus.max(0.0) * thuff / mcus.max(1.0),
            false => 0.0,
        };
        let (chunk_rows, huff_row) = (h / n as f64, thuff / h);
        let first = ((skip / chunk_rows) as usize).min(n - 1);
        let mut free_at = vec![0.0f64; threads.clamp(1, n - first)];
        let mut stitched = 0.0f64;
        let final_at: Vec<f64> = (first..n)
            .map(|j| {
                let (share, waste) = match j == first {
                    true if skip > 0.0 => {
                        let rows = (first + 1) as f64 * chunk_rows - skip;
                        (rows.max(0.0) * huff_row + SEGMENT_OVERHEAD_S, 0.0)
                    }
                    true => (share, 0.0),
                    false => (share, prefix),
                };
                let worker = (0..free_at.len())
                    .min_by(|&a, &b| free_at[a].total_cmp(&free_at[b]))
                    .expect("at least one worker");
                free_at[worker] += share + waste;
                stitched = stitched.max(free_at[worker]) + waste;
                stitched
            })
            .collect();
        let mut lowest = f64::INFINITY;
        let ramp = (first..n)
            .map(|i| {
                let (since, before) = match i == first {
                    true => (0.0, 0.0),
                    false => (final_at[i - first - 1], i as f64 * chunk_rows - skip),
                };
                lowest = lowest.min(since - before * huff_row);
                lowest
            })
            .collect();
        Release {
            chunk_rows,
            huff_row,
            skip,
            first,
            final_at,
            ramp,
        }
    }

    /// When the first `rows` pixel rows released are final: when the chunk
    /// holding the last of them is stitched, or earlier if the loop,
    /// waiting since an earlier chunk was stitched, decodes the rest itself
    /// at the sequential rate.
    pub fn at(&self, rows: f64) -> f64 {
        if rows <= 0.0 {
            return 0.0;
        }
        let n = self.first + self.final_at.len();
        let y = self.skip + rows;
        let j = ((y / self.chunk_rows).ceil() as usize).clamp(self.first + 1, n) - 1 - self.first;
        self.final_at[j].min(self.ramp[j] + rows * self.huff_row)
    }
}

/// The fed plans with GPU rows decode those rows' Huffman on the device:
/// seconds until every row of a CPU band of its last `x` pixel rows is
/// final, counted from when the band's first decoder state is on the host.
pub type BandHuff<'a> = &'a dyn Fn(f64) -> f64;

/// Where the balanced overlap's Huffman comes from.
#[derive(Clone, Copy)]
enum Feed<'r> {
    /// Decoded on the CPU side's own thread: `huff` seconds of it.
    Sequential { huff: f64 },
    /// Decoded on the device for the GPU's share
    /// ([`Overlap::device_walk`]) and fed for the CPU band, which waits for
    /// the device's state at its first row and then takes `band(x)`. The
    /// share is placed on a loop free `start` seconds into the decode, the
    /// device's `engines` where they stand, on one in-order queue and as
    /// one chunk with `serial` (SPS); its first `decoded` rows are decoded
    /// already, their states on the host at `state`.
    Device {
        band: BandHuff<'r>,
        start: f64,
        engines: Engines,
        serial: bool,
        decoded: f64,
        state: f64,
    },
}

/// Initial PPS split for an image with density `d`, given the tuned chunk
/// height in pixel rows (`c` in Eq. 15), on the paper's schedule: one
/// entropy thread, Huffman on the CPU side.
pub fn initial_partition(
    model: &PerformanceModel,
    geom: &Geometry,
    d: f64,
    chunk_pixel_rows: f64,
) -> Partition {
    let w = geom.width as f64;
    let h = geom.height as f64;
    let k = model.pcpu_density_factor(d);
    let overlap = Overlap::new(model, w, d, chunk_pixel_rows.min(h), 0.0, false, 0.0);
    let feed = Feed::Sequential {
        huff: model.huff_time(w * h, d),
    };
    balance(model, &overlap, h, geom.mcus_y, geom.mcu_h, feed, k)
}

/// The split of a fed plan whose GPU decodes its share's Huffman
/// (Eq. 10 and 15 with `THuffGPU`): the share is dispatched at once, as one
/// chunk on the in-order queue without `chunk_pixel_rows` (SPS), else in
/// chunks of that many rows on the two engines (PPS); the CPU band waits for
/// the decoder state at its first row, then takes `band(x)` and
/// `PCPU(w, x)·k(d)`. The scan has `scan_per_px` bytes per pixel.
pub fn device_partition(
    model: &PerformanceModel,
    geom: &Geometry,
    d: f64,
    scan_per_px: f64,
    chunk_pixel_rows: Option<f64>,
    band: BandHuff<'_>,
) -> Partition {
    let (w, h) = (geom.width as f64, geom.height as f64);
    let chunk = chunk_pixel_rows.unwrap_or(h).min(h);
    let overlap = Overlap::new(model, w, d, chunk, 0.0, true, 0.0).with_scan(scan_per_px);
    let feed = Feed::Device {
        band,
        start: 0.0,
        engines: Engines::default(),
        serial: chunk_pixel_rows.is_none(),
        decoded: 0.0,
        state: 0.0,
    };
    let k = model.pcpu_density_factor(d);
    balance(model, &overlap, h, geom.mcus_y, geom.mcu_h, feed, k)
}

/// Eq. 16 for a fed PPS whose GPU decodes its share's Huffman: the split
/// of the `h_left` pixel rows still to come, at the corrected density
/// `d_new` (its scan `scan_per_px` bytes per pixel), on a loop at `now`
/// seconds into the decode with the device's `engines` where they stand,
/// the first `decoded` of those rows decoded on the device already and
/// their states on the host at `state`; `cpu_scale` as in [`repartition`].
#[allow(clippy::too_many_arguments)]
pub fn repartition_device(
    model: &PerformanceModel,
    geom: &Geometry,
    h_left: f64,
    d_new: f64,
    scan_per_px: f64,
    cpu_scale: f64,
    chunk_pixel_rows: f64,
    (now, engines): (f64, Engines),
    (decoded, state): (f64, f64),
    band: BandHuff<'_>,
) -> Partition {
    let w = geom.width as f64;
    let chunk = chunk_pixel_rows.min(h_left);
    let overlap = Overlap::new(model, w, d_new, chunk, 0.0, true, 0.0).with_scan(scan_per_px);
    let feed = Feed::Device {
        band,
        start: now,
        engines,
        serial: false,
        decoded,
        state,
    };
    let rows = geom.round_rows_to_mcu(h_left);
    balance(model, &overlap, h_left, rows, geom.mcu_h, feed, cpu_scale)
}

impl Overlap {
    /// A device-entropy plan with every row on the GPU — `PipelinedGpu`
    /// on the two engines, `Gpu` with `serial` as one chunk on the in-order
    /// queue: when the later of the dispatches and the device ends.
    pub fn device_only(&self, h: f64, serial: bool) -> f64 {
        let (disp, _, dev) = self.device_walk(h, 0.0, &Engines::default(), serial, false, 0.0, 0.0);
        disp.max(dev)
    }
}

/// Density correction (Eq. 17): scale the global density by how much
/// Huffman time remains relative to how many rows remain.
///
/// * `est_total_huff` — model-estimated Huffman time of the full image,
/// * `actual_huff_so_far` — measured Huffman time of the rows decoded,
/// * `rows_left` / `rows_total` — unprocessed vs total pixel rows.
pub fn corrected_density(
    d: f64,
    est_total_huff: f64,
    actual_huff_so_far: f64,
    rows_left: f64,
    rows_total: f64,
) -> f64 {
    if est_total_huff <= 0.0 || rows_total <= 0.0 || rows_left <= 0.0 {
        return d;
    }
    let time_ratio = ((est_total_huff - actual_huff_so_far) / est_total_huff).max(0.0);
    let height_ratio = rows_left / rows_total;
    (time_ratio / height_ratio) * d
}

/// Re-partition before the last GPU chunk (Eq. 16): `h_left` pixel rows are
/// still unprocessed, the GPU still owes `prev_gpu_backlog` seconds of
/// queued work, the density estimate has been corrected to `d_new`, and the
/// GPU's rows keep coming in chunks of `chunk_pixel_rows`. `cpu_scale`
/// corrects the `PCPU` closed form for the tail's measured IDCT sparsity
/// relative to the corpus average the model was fit at (1.0 = no
/// correction; see
/// [`crate::cost::CpuCostModel::band_scale_for_discount`]).
///
/// Returns the new split of the *remaining* rows (CPU gets the final
/// `cpu_mcu_rows` of those).
pub fn repartition(
    model: &PerformanceModel,
    geom: &Geometry,
    h_left: f64,
    d_new: f64,
    prev_gpu_backlog: f64,
    cpu_scale: f64,
    chunk_pixel_rows: f64,
) -> Partition {
    let (overlap, huff) = remaining(
        model,
        geom,
        h_left,
        d_new,
        prev_gpu_backlog,
        chunk_pixel_rows,
    );
    let feed = Feed::Sequential { huff };
    // Rows are counted against the full-image geometry (MCU height).
    let rows = geom.round_rows_to_mcu(h_left);
    balance(model, &overlap, h_left, rows, geom.mcu_h, feed, cpu_scale)
}

/// Eq. 16's predicted makespan of the remaining rows when the GPU keeps
/// `gpu_mcu_rows` of them, over [`repartition`]'s arguments: the value its
/// split minimises.
#[cfg(test)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn repartition_makespan(
    model: &PerformanceModel,
    geom: &Geometry,
    h_left: f64,
    d_new: f64,
    prev_gpu_backlog: f64,
    cpu_scale: f64,
    chunk_pixel_rows: f64,
    gpu_mcu_rows: usize,
) -> f64 {
    let (overlap, huff) = remaining(
        model,
        geom,
        h_left,
        d_new,
        prev_gpu_backlog,
        chunk_pixel_rows,
    );
    let x = (h_left - (gpu_mcu_rows * geom.mcu_h) as f64).clamp(0.0, h_left);
    let p_cpu = AtWidth::new(&model.p_cpu, overlap.w);
    let [cpu, _, gpu, _] = sequential_sides(&p_cpu, &overlap, h_left, huff, cpu_scale, x);
    cpu.max(gpu)
}

/// The sides of a split of `h` pixel rows, `x` of them the CPU's, on the
/// sequential feed: the CPU decodes all the Huffman (`huff`), then its band
/// at `PCPU(w, x)·cpu_scale`, and dispatches the GPU's chunks; the GPU's
/// side is the overlap's walk of the other `h − x` rows. Returns `[CPU,
/// dCPU/dx, GPU, dGPU/dx]`.
fn sequential_sides(
    p_cpu: &AtWidth,
    overlap: &Overlap,
    h: f64,
    huff: f64,
    cpu_scale: f64,
    x: f64,
) -> [f64; 4] {
    let (band, band_dx) = p_cpu.at(x);
    let Sides { dispatches, gpu } = overlap.at(h - x);
    let cpu = huff + band * cpu_scale + dispatches.0;
    let cpu_dx = band_dx * cpu_scale - dispatches.1;
    [cpu, cpu_dx, gpu.0, -gpu.1]
}

/// Eq. 16's overlap of the `h_left` rows still to decode on the paper's
/// schedule, and their Huffman time on the CPU.
fn remaining(
    model: &PerformanceModel,
    geom: &Geometry,
    h_left: f64,
    d_new: f64,
    prev_gpu_backlog: f64,
    chunk_pixel_rows: f64,
) -> (Overlap, f64) {
    let w = geom.width as f64;
    let chunk = chunk_pixel_rows.min(h_left);
    let overlap = Overlap::new(model, w, d_new, chunk, prev_gpu_backlog, false, 0.0);
    (overlap, model.huff_time(w * h_left, d_new))
}

/// Solve `CPU(x) = GPU(h − x)` over `h` pixel rows (`rows` MCU rows of
/// `mcu_h`, the CPU taking the final ones) by Newton's method, where the
/// CPU side is `PCPU(w, x)·cpu_scale` after the entropy step: fed, once the
/// loop has dispatched the GPU share and every row is released;
/// sequentially, its Huffman plus the GPU share's dispatches. Of the two
/// MCU-row splits around the root, the one with the smaller predicted
/// makespan wins; the predictions are its sides.
fn balance(
    model: &PerformanceModel,
    overlap: &Overlap,
    h: f64,
    rows: usize,
    mcu_h: usize,
    feed: Feed<'_>,
    cpu_scale: f64,
) -> Partition {
    let p_cpu = AtWidth::new(&model.p_cpu, overlap.w);
    // (CPU, GPU) at `x` CPU rows, each with its slope in x. Newton asks
    // for f and f' at the same point: price it once.
    let last = Cell::new((f64::NAN, [0.0; 4]));
    let sides = |x: f64| {
        let (at, v) = last.get();
        if at == x {
            return v;
        }
        let v = match feed {
            Feed::Sequential { huff } => sequential_sides(&p_cpu, overlap, h, huff, cpu_scale, x),
            Feed::Device {
                band: huff,
                start,
                engines,
                serial,
                decoded,
                state,
            } => {
                let g = h - x;
                let decoded = decoded.min(g);
                let (disp, state, dev) =
                    overlap.device_walk(g, start, &engines, serial, true, decoded, state);
                let ready = match x > 0.0 {
                    true => disp.max(state) + huff(x),
                    false => disp,
                };
                // The split is scanned, not solved: no slopes.
                [
                    ready - start + p_cpu.at(x).0 * cpu_scale,
                    0.0,
                    dev - start,
                    0.0,
                ]
            }
        };
        last.set((x, v));
        v
    };
    let f = |x: f64| {
        let [cpu, _, gpu, _] = sides(x);
        cpu - gpu
    };
    let df = |x: f64| {
        let [_, cpu_dx, _, gpu_dx] = sides(x);
        cpu_dx - gpu_dx
    };
    // The CPU's pixel rows when it takes the final `k` MCU rows.
    let x_of = |k: usize| (h - ((rows - k) * mcu_h) as f64).clamp(0.0, h);
    let span = |k: usize| {
        let [cpu, _, gpu, _] = sides(x_of(k));
        cpu.max(gpu)
    };
    let (cpu_mcu_rows, x, iterations) = match feed {
        // A device-entropy share's sides jump where it outgrows the rows
        // the device decoded and where a chunk starts: the split is the
        // MCU row of the smallest makespan, by pricing every one once (the
        // first of equals).
        Feed::Device { .. } => {
            let spans = (0..=rows).map(|k| (k, span(k)));
            let best = spans.reduce(|b, c| if c.1 < b.1 { c } else { b });
            let best = best.map_or(0, |(k, _)| k);
            (best, x_of(best), rows + 1)
        }
        _ => {
            let r = newton_solve(f, df, h / 2.0, 0.0, h, 0.5, 30);
            let lo = rows.saturating_sub(((h - r.x) / mcu_h as f64).ceil() as usize);
            let hi = (lo + 1).min(rows);
            let k = if span(hi) < span(lo) { hi } else { lo };
            (k, r.x, r.iterations)
        }
    };
    let [predicted_cpu, _, predicted_gpu, _] = sides(x_of(cpu_mcu_rows));
    Partition {
        gpu_mcu_rows: rows - cpu_mcu_rows,
        cpu_mcu_rows,
        x_pixel_rows: x,
        iterations,
        predicted_cpu,
        predicted_gpu,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Platform;
    use hetjpeg_jpeg::types::Subsampling;

    fn geom(w: usize, h: usize) -> Geometry {
        Geometry::new(w, h, Subsampling::S422).unwrap()
    }

    #[test]
    fn release_prices_speculation_waste_honestly() {
        // A 1-megapixel restart-free scan, ~8k MCUs, on four workers.
        let model = PerformanceModel::analytic_seed(&Platform::gtx560());
        let (w, h, d, mcus) = (1024.0, 1024.0, 0.2, 8192.0);
        let thuff = model.huff_time(w * h, d);
        let release = |chunks, prefix| {
            let model = PerformanceModel {
                spec_prefix_mcus: prefix,
                ..model.clone()
            };
            Release::new(&model, w, h, d, mcus, 4, chunks, chunks > 1).at(h)
        };
        // One chunk is the sequential decode: the loop decodes it itself
        // sooner than the worker hands it over.
        let one = release(1, 6.0);
        assert!((one - thuff).abs() <= thuff * 1e-12, "{one} vs {thuff}");
        // Four chunks with a short prefix beat sequential comfortably.
        assert!(
            release(4, 6.0) < thuff / 1.8,
            "4-chunk release {}",
            release(4, 6.0)
        );
        // The waste is monotone in the fitted prefix, and a prefix
        // comparable to the whole stream prices the workers out: the loop
        // decodes on itself, no faster than sequential.
        assert!(release(4, mcus / 8.0) > release(4, 6.0));
        assert!(release(4, mcus / 2.0) >= thuff * (1.0 - 1e-12));
        // Sixteen chunks release in four waves: the first rows long before
        // the last, and the first at the sequential rate.
        let r = Release::new(&model, w, h, d, mcus, 4, 16, true);
        assert!(r.at(h / 16.0) < r.at(h) / 3.0);
        assert_eq!(r.at(1.0), (thuff / h).min(r.at(h / 16.0)));
    }

    #[test]
    fn a_release_from_a_row_runs_the_chunks_from_there() {
        let model = PerformanceModel::analytic_seed(&Platform::gtx560());
        let (w, h, d, mcus) = (1024.0, 1024.0, 0.2, 8192.0);
        let from = |skip| Release::from_row(&model, w, h, d, mcus, 4, 16, true, skip);
        // From the top it is the whole image's curve, bit for bit.
        let whole = Release::new(&model, w, h, d, mcus, 4, 16, true);
        for rows in [0.5, 1.0, 63.9, 64.0, 64.1, 500.0, h] {
            assert_eq!(from(0.0).at(rows).to_bits(), whole.at(rows).to_bits());
        }
        let (huff_row, chunk) = (model.huff_time(w * h, d) / h, h / 16.0);
        for skip in [100.0, 128.0, 900.0, 1000.0] {
            let x = h - skip;
            let tail = from(skip);
            // Never faster than its rows' Huffman over the workers, never
            // slower than the loop decoding them itself.
            let all = tail.at(x);
            assert!(all >= x * huff_row / 4.0, "{skip}: {all}");
            assert!(all <= x * huff_row * (1.0 + 1e-12), "{skip}: {all}");
            // Its first chunk starts in step at the row: the rows up to
            // the chunk grid's next boundary are final at the sequential
            // rate, or once that chunk's worker is done.
            let first = (skip / chunk).floor() * chunk + chunk - skip;
            let t = tail.at(first);
            assert!(
                t <= first * huff_row + SEGMENT_OVERHEAD_S * (1.0 + 1e-9),
                "{skip}: {t}"
            );
        }
        // A tail inside the last chunk is one in-step chunk: the loop's own
        // sequential decode of it.
        let last = from(h - 10.0).at(10.0);
        assert!((last - 10.0 * huff_row).abs() <= 1e-12 * last, "{last}");
    }

    /// A 1024-wide image at density 0.2: the device walk over `g` of its
    /// 1024 rows in chunks of 64 on the two engines: (when the dispatches
    /// end, when the device ends).
    fn walk(model: &PerformanceModel, g: f64) -> (f64, f64) {
        let overlap = Overlap::new(model, 1024.0, 0.2, 64.0, 0.0, true, 0.0).with_scan(0.2);
        let e = Engines::default();
        let (disp, _, dev) = overlap.device_walk(g, 0.0, &e, false, false, 0.0, 0.0);
        (disp, dev)
    }

    #[test]
    fn fed_walk_overlaps_the_engines_and_never_beats_the_busier() {
        // The device finishes no later than the same chunks on one in-order
        // queue, and no sooner than the busier engine's work: the Huffman
        // pass and every chunk's kernels on the compute engine, the pass's
        // H2D and every chunk's D2H on the copy engine.
        let model = PerformanceModel::analytic_seed(&Platform::gtx560());
        let w = 1024.0;
        for g in [64.0, 200.0, 600.0, 1024.0] {
            let (_, two) = walk(&model, g);
            let [h2d, _, _] = model.gpu_stage_times(w, g, 0.2);
            let ent = model.thuff_gpu.time(0.2 * w * g, 0.2);
            let (mut copy, mut compute, mut done) = (h2d, ent, 0.0);
            let (mut cpu, mut one) = (0.0f64, h2d + ent);
            while done < g {
                let rows = f64::min(64.0, g - done);
                done += rows;
                let [_, kernels, d2h] = model.gpu_stage_times(w, rows, 0.2);
                (copy, compute) = (copy + d2h, compute + kernels);
                cpu += model.t_disp(w, rows);
                one = one.max(cpu) + kernels + d2h;
            }
            assert!(
                two <= one * (1.0 + 1e-12),
                "{g}: two engines {two} vs one queue {one}"
            );
            assert!(
                two >= f64::max(copy, compute) * (1.0 - 1e-12),
                "{g}: {two} under the busier engine"
            );
            if g > 64.0 {
                assert!(two < one, "{g}: several chunks must overlap");
            }
        }
    }

    #[test]
    fn pps_gives_gpu_more_than_sps() {
        // Because Huffman time sits on the CPU side of the PPS balance, the
        // GPU's share must grow relative to SPS (compare Eq. 10 vs Eq. 15).
        let model = PerformanceModel::analytic_seed(&Platform::gtx560());
        let g = geom(2048, 2048);
        let sps = crate::partition::sps::partition(&model, &g, 0.2);
        let pps = initial_partition(&model, &g, 0.2, 128.0);
        assert!(
            pps.gpu_mcu_rows >= sps.gpu_mcu_rows,
            "pps gpu {} vs sps gpu {}",
            pps.gpu_mcu_rows,
            sps.gpu_mcu_rows
        );
    }

    #[test]
    fn denser_images_shift_work_to_gpu() {
        // More entropy => longer Huffman => the CPU is busier => the GPU
        // should receive at least as many rows.
        let model = PerformanceModel::analytic_seed(&Platform::gtx560());
        let g = geom(1024, 1024);
        let sparse = initial_partition(&model, &g, 0.05, 64.0);
        let dense = initial_partition(&model, &g, 0.45, 64.0);
        assert!(dense.gpu_mcu_rows >= sparse.gpu_mcu_rows);
    }

    #[test]
    fn corrected_density_directions() {
        // Remaining time ratio > height ratio => denser tail (Eq. 17's
        // "more workload should be allocated to the GPU").
        let d = corrected_density(0.2, 1.0, 0.3, 0.5, 1.0);
        assert!(d > 0.2, "denser tail: {d}");
        // Remaining time ratio < height ratio => sparser tail.
        let d = corrected_density(0.2, 1.0, 0.7, 0.5, 1.0);
        assert!(d < 0.2, "sparser tail: {d}");
        // Perfectly uniform => unchanged.
        let d = corrected_density(0.2, 1.0, 0.5, 0.5, 1.0);
        assert!((d - 0.2).abs() < 1e-12);
        // Degenerate inputs pass through.
        assert_eq!(corrected_density(0.2, 0.0, 0.0, 0.5, 1.0), 0.2);
    }

    #[test]
    fn backlog_shifts_work_to_cpu() {
        let model = PerformanceModel::analytic_seed(&Platform::gtx560());
        let g = geom(1024, 1024);
        let no_backlog = repartition(&model, &g, 512.0, 0.2, 0.0, 1.0, 64.0);
        let backlog = repartition(&model, &g, 512.0, 0.2, 0.05, 1.0, 64.0);
        assert!(
            backlog.cpu_mcu_rows >= no_backlog.cpu_mcu_rows,
            "backlogged GPU should shed rows: {} vs {}",
            backlog.cpu_mcu_rows,
            no_backlog.cpu_mcu_rows
        );
    }

    #[test]
    fn denser_tail_sparsity_shifts_work_back_to_gpu() {
        // A cpu_scale > 1 (tail denser than the corpus the model was fit
        // at) makes the CPU band pricier, so the CPU must keep fewer rows.
        let model = PerformanceModel::analytic_seed(&Platform::gt430());
        let g = geom(1024, 1024);
        let neutral = repartition(&model, &g, 512.0, 0.25, 0.01, 1.0, 64.0);
        let dense_tail = repartition(&model, &g, 512.0, 0.25, 0.01, 1.6, 64.0);
        assert!(
            dense_tail.cpu_mcu_rows <= neutral.cpu_mcu_rows,
            "denser tail should shed CPU rows: {} vs {}",
            dense_tail.cpu_mcu_rows,
            neutral.cpu_mcu_rows
        );
    }

    #[test]
    fn repartition_keeps_the_argmin_of_its_makespan() {
        // Eq. 16 rounds its Newton root to the better of two MCU rows: a
        // row either way of the split it keeps prices no lower.
        let g = geom(640, 480);
        for platform in Platform::all() {
            let model = PerformanceModel::analytic_seed(&platform);
            for (h_left, backlog, cpu_scale) in
                [(160.0, 0.0, 1.0), (480.0, 1e-4, 1.6), (96.0, 5e-4, 0.7)]
            {
                let p = repartition(&model, &g, h_left, 0.3, backlog, cpu_scale, 64.0);
                let price = |gpu| {
                    repartition_makespan(&model, &g, h_left, 0.3, backlog, cpu_scale, 64.0, gpu)
                };
                let kept = price(p.gpu_mcu_rows);
                let rows = g.round_rows_to_mcu(h_left);
                for gpu in [p.gpu_mcu_rows.wrapping_sub(1), p.gpu_mcu_rows + 1] {
                    if gpu <= rows {
                        assert!(price(gpu) >= kept, "{} {h_left}: {gpu} rows", platform.name);
                    }
                }
            }
        }
    }

    #[test]
    fn repartition_never_exceeds_remaining_rows() {
        let model = PerformanceModel::analytic_seed(&Platform::gt430());
        let g = geom(640, 480);
        for h_left in [48.0, 160.0, 480.0] {
            for backlog in [0.0, 0.001, 0.1] {
                for cpu_scale in [0.6, 1.0, 1.8] {
                    let p = repartition(&model, &g, h_left, 0.3, backlog, cpu_scale, 64.0);
                    assert!(p.cpu_mcu_rows + p.gpu_mcu_rows <= g.mcus_y);
                    assert!(p.x_pixel_rows >= 0.0 && p.x_pixel_rows <= h_left);
                }
            }
        }
    }
}
