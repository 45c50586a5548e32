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
//! With more than one session thread the Huffman decoding is not the CPU
//! side's: the entropy workers release rows on a [`Release`] curve `R(r)`
//! (waves of `threads` feed chunks, the first at the sequential rate), and
//! Eq. 15/16 walk the loop chunk by chunk ([`Overlap::fed`]). A fed plan's
//! device has two engines: the copy engine moves one transfer at a time
//! while the compute engine runs kernels, so chunk `j+1`'s H2D runs under
//! chunk `j`'s kernels and chunk `j`'s D2H under chunk `j+1`'s. A chunk's
//! device time is its three stages `H(c) + K(c) + D(c)` by the model's
//! stage forms ([`PerformanceModel::gpu_stage_times`]), and with `copy_j`
//! and `comp_j` the engines' free times:
//!
//! ```text
//! dispatch_j = max(dispatch_{j−1}, R(end_j)) + Tdisp(w, c_j)
//! D2H_{j−1}  on the copy engine first if it can start sooner than H2D_j:
//!              max(copy, comp_{j−1}) < max(copy, dispatch_j)
//! h2d_j      = max(copy, dispatch_j) + H(c_j)           then D2H_{j−1}
//! comp_j     = max(comp_{j−1}, h2d_j) + K(c_j)
//! CPU(x)     = max(dispatch_n, R(h)) + PCPU(w, x)·k(d)
//! GPU(x)     = max(comp_n, copy_n after D2H_n)
//! ```
//!
//! Without the stage forms (a model file older than the copy engine)
//! the walk prices the serial queue instead, `device_j = max(device_{j−1},
//! dispatch_j) + PGPU(w, c_j)`, which never undercuts the two engines.
//! Newton steers the fed balance by the busier engine's rate per row. A
//! fed split is device-bound, so its device work is always priced chunk by
//! chunk. Eq. 16 evaluates the same walk over the rows still to come, on
//! the plan's curve, from the loop's current time and the engines' state
//! ([`Engines`]: the held-back D2H included). At one thread every form is
//! the sequential one above, bit for bit, on the paper's one in-order
//! queue.

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

    /// Place one chunk whose H2D is ready at `ready`, its device time split
    /// into `[H2D, kernels, D2H]`: the held-back D2H and this H2D go to the
    /// copy engine in the order they can start, the kernels follow the H2D
    /// on the compute engine, and this chunk's D2H is held back.
    fn place(&mut self, ready: f64, [h2d, kernels, d2h]: [f64; 3]) {
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
        self.compute = self.compute.max(loaded) + kernels;
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
    stages: Option<[Poly1; 3]>,
    /// Huffman seconds per pixel row: `THuff` is linear in the rows.
    huff_row: f64,
    /// `Tdisp`, `PGPU` and the stages of one full chunk.
    chunk_disp: f64,
    chunk_dev: f64,
    chunk_stages: Option<[f64; 3]>,
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
        let mut overlap = Overlap {
            w,
            chunk,
            backlog,
            chunked,
            h2d,
            t_disp: AtWidth::new(&model.t_disp, w),
            p_gpu: AtWidth::new(&model.p_gpu, w),
            stages: (model.gpu_stages.as_ref())
                .map(|st| [st.h2d.at_x(d), st.kernels.at_x(w), st.d2h.at_x(w)]),
            huff_row: model.huff_time(w, d),
            chunk_disp: 0.0,
            chunk_dev: 0.0,
            chunk_stages: None,
        };
        overlap.chunk_disp = overlap.t_disp.at(chunk).0;
        overlap.chunk_dev = overlap.device(chunk).0;
        overlap.chunk_stages = overlap.stages(chunk);
        overlap
    }

    /// The device time of a band of `rows` as `[H2D, kernels, D2H]`, as
    /// [`PerformanceModel::gpu_stage_times`] prices it; `None` without the
    /// stage forms.
    fn stages(&self, rows: f64) -> Option<[f64; 3]> {
        let [h2d, kernels, d2h] = self.stages.as_ref()?;
        if rows <= 0.0 {
            return Some([0.0; 3]);
        }
        let stages = [h2d.eval(self.w * rows), kernels.eval(rows), d2h.eval(rows)];
        Some(stages.map(|t| t.max(0.0)))
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
    /// The fed loop over a GPU share of `g` pixel rows that starts `from`
    /// rows into an image of `h`, on a loop that is free `start` seconds
    /// into the decode, with the device's `engines` where they stand: each
    /// chunk waits for its rows' [`Release`], is dispatched, and is placed
    /// on the two engines once the dispatch returned ([`Engines`]), or on
    /// the serial queue without the model's stage forms; its device work
    /// is priced chunk by chunk. Returns, relative to `start`, when the
    /// loop can render its band — every GPU chunk dispatched and every row
    /// final — and when the device finishes, the last D2H included.
    pub fn fed(
        &self,
        release: &Release,
        from: f64,
        g: f64,
        h: f64,
        start: f64,
        engines: &Engines,
    ) -> (f64, f64) {
        let (mut cpu, mut engines, mut serial) = (start, *engines, engines.drained());
        let mut done = 0.0;
        while done < g {
            let rows = self.chunk.min(g - done);
            done += rows;
            cpu = cpu.max(release.at(from + done)) + self.t_disp.at(rows).0;
            let stages = match rows == self.chunk {
                true => self.chunk_stages,
                false => self.stages(rows),
            };
            match stages {
                Some(stages) => engines.place(cpu, stages),
                None => serial = serial.max(cpu) + self.device(rows).0,
            }
        }
        let dev = match self.stages {
            Some(_) => engines.drained(),
            None => serial,
        };
        (cpu.max(release.at(h)) - start, dev - start)
    }

    /// The device's mean seconds per pixel row over a full chunk on a GPU
    /// share of `g` pixel rows — the slope Newton steers the fed balance
    /// by. Over several chunks the engines overlap, and the busier one sets
    /// the pace; a share of one chunk runs its stages one after another, as
    /// does the serial queue without the stage forms.
    fn device_rate(&self, g: f64) -> f64 {
        match self.chunk_stages {
            Some([h2d, kernels, d2h]) if g > self.chunk => kernels.max(h2d + d2h) / self.chunk,
            Some([h2d, kernels, d2h]) => (h2d + kernels + d2h) / self.chunk,
            None => self.chunk_dev / self.chunk,
        }
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
    /// When each chunk, in row order, is final.
    final_at: Vec<f64>,
    /// Per chunk `j`: the earliest the loop can decode row 0 onwards at
    /// the sequential rate, having waited from the start or for a chunk
    /// `i ≤ j` — min over `i` of (chunk `i − 1` final) − (rows before chunk
    /// `i`)·`huff_row`.
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
        let n = chunks.max(1);
        let thuff = model.huff_time(w * h, d);
        let share = thuff / n as f64 + SEGMENT_OVERHEAD_S;
        let prefix = match speculative {
            true => 0.5 * model.spec_prefix_mcus.max(0.0) * thuff / mcus.max(1.0),
            false => 0.0,
        };
        let mut free_at = vec![0.0f64; threads.clamp(1, n)];
        let mut stitched = 0.0f64;
        let final_at: Vec<f64> = (0..n)
            .map(|j| {
                let waste = if j == 0 { 0.0 } else { prefix };
                let worker = (0..free_at.len())
                    .min_by(|&a, &b| free_at[a].total_cmp(&free_at[b]))
                    .expect("at least one worker");
                free_at[worker] += share + waste;
                stitched = stitched.max(free_at[worker]) + waste;
                stitched
            })
            .collect();
        let (chunk_rows, huff_row) = (h / n as f64, thuff / h);
        let mut lowest = f64::INFINITY;
        let ramp = (0..n)
            .map(|i| {
                let since = if i == 0 { 0.0 } else { final_at[i - 1] };
                lowest = lowest.min(since - i as f64 * chunk_rows * huff_row);
                lowest
            })
            .collect();
        Release {
            chunk_rows,
            huff_row,
            final_at,
            ramp,
        }
    }

    /// When the first `rows` pixel rows are final: when the chunk holding
    /// the last of them is stitched, or earlier if the loop, waiting since
    /// an earlier chunk was stitched, decodes the rest itself at the
    /// sequential rate.
    pub fn at(&self, rows: f64) -> f64 {
        if rows <= 0.0 {
            return 0.0;
        }
        let n = self.final_at.len();
        let j = ((rows / self.chunk_rows).ceil() as usize).clamp(1, n) - 1;
        self.final_at[j].min(self.ramp[j] + rows * self.huff_row)
    }
}

/// Where the balanced overlap's Huffman comes from.
#[derive(Clone, Copy)]
enum Feed<'r> {
    /// Decoded on the CPU side's own thread: `huff` seconds of it.
    Sequential { huff: f64 },
    /// Released by the entropy workers; the share starts `from` rows into
    /// an image of `h` on a loop free `start` seconds into the decode, the
    /// device's `engines` where they stand.
    Fed {
        release: &'r Release,
        from: f64,
        h: f64,
        start: f64,
        engines: Engines,
    },
}

/// Initial PPS split for an image with density `d`, given the tuned chunk
/// height in pixel rows (`c` in Eq. 15). With a `release` curve the
/// entropy step is fed and the device work is priced chunk by chunk.
pub fn initial_partition(
    model: &PerformanceModel,
    geom: &Geometry,
    d: f64,
    chunk_pixel_rows: f64,
    release: Option<&Release>,
) -> Partition {
    let w = geom.width as f64;
    let h = geom.height as f64;
    let k = model.pcpu_density_factor(d);
    let chunked = release.is_some();
    let overlap = Overlap::new(model, w, d, chunk_pixel_rows.min(h), 0.0, chunked, 0.0);
    let feed = match release {
        Some(release) => Feed::Fed {
            release,
            from: 0.0,
            h,
            start: 0.0,
            engines: Engines::default(),
        },
        None => Feed::Sequential {
            huff: model.huff_time(w * h, d),
        },
    };
    balance(model, &overlap, h, geom.mcus_y, geom.mcu_h, feed, k)
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
///
/// Fed, the rows still to come are released on the plan's `release`
/// curve — the workers started with the image — the loop is at `now`
/// seconds into the decode and the device's engines stand at `engines`
/// (the backlog, a held-back D2H included; `prev_gpu_backlog` prices the
/// sequential form only).
#[allow(clippy::too_many_arguments)]
pub fn repartition(
    model: &PerformanceModel,
    geom: &Geometry,
    h_left: f64,
    d_new: f64,
    prev_gpu_backlog: f64,
    cpu_scale: f64,
    chunk_pixel_rows: f64,
    fed: Option<(&Release, f64, Engines)>,
) -> Partition {
    let w = geom.width as f64;
    let h = geom.height as f64;
    let chunk = chunk_pixel_rows.min(h_left);
    let overlap = Overlap::new(model, w, d_new, chunk, prev_gpu_backlog, fed.is_some(), 0.0);
    let feed = match fed {
        Some((release, now, engines)) => Feed::Fed {
            release,
            from: h - h_left,
            h,
            start: now,
            engines,
        },
        None => Feed::Sequential {
            huff: model.huff_time(w * h_left, d_new),
        },
    };
    // Rows are counted against the full-image geometry (MCU height).
    let rows = geom.round_rows_to_mcu(h_left);
    balance(model, &overlap, h_left, rows, geom.mcu_h, feed, cpu_scale)
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
        let (band, band_dx) = p_cpu.at(x);
        let v = match feed {
            Feed::Sequential { huff } => {
                let Sides { dispatches, gpu } = overlap.at(h - x);
                let cpu = huff + band * cpu_scale + dispatches.0;
                let cpu_dx = band_dx * cpu_scale - dispatches.1;
                [cpu, cpu_dx, gpu.0, -gpu.1]
            }
            Feed::Fed {
                release,
                from,
                h: image,
                start,
                engines,
            } => {
                let (ready, gpu) = overlap.fed(release, from, h - x, image, start, &engines);
                let cpu = ready + band * cpu_scale;
                [cpu, band_dx * cpu_scale, gpu, -overlap.device_rate(h - x)]
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
    let r = newton_solve(f, df, h / 2.0, 0.0, h, 0.5, 30);
    // The CPU's pixel rows when it takes the final `k` MCU rows.
    let x_of = |k: usize| (h - ((rows - k) * mcu_h) as f64).clamp(0.0, h);
    let span = |k: usize| {
        let [cpu, _, gpu, _] = sides(x_of(k));
        cpu.max(gpu)
    };
    let lo = rows.saturating_sub(((h - r.x) / mcu_h as f64).ceil() as usize);
    let hi = (lo + 1).min(rows);
    let cpu_mcu_rows = if span(hi) < span(lo) { hi } else { lo };
    let [predicted_cpu, _, predicted_gpu, _] = sides(x_of(cpu_mcu_rows));
    Partition {
        gpu_mcu_rows: rows - cpu_mcu_rows,
        cpu_mcu_rows,
        x_pixel_rows: r.x,
        iterations: r.iterations,
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

    /// A 1024-wide image's fed walk over `g` of its 1024 rows, in chunks
    /// of 64, on `model`: (when the loop can render, when the device ends).
    fn walk(model: &PerformanceModel, g: f64) -> (f64, f64) {
        let (w, h, d) = (1024.0, 1024.0, 0.2);
        let release = Release::new(model, w, h, d, 8192.0, 4, 16, true);
        let overlap = Overlap::new(model, w, d, 64.0, 0.0, true, 0.0);
        overlap.fed(&release, 0.0, g, h, 0.0, &Engines::default())
    }

    #[test]
    fn fed_walk_without_stage_forms_is_the_serial_queue() {
        // A model file older than the copy engine: each chunk's transfers
        // and kernels run one after another, after the previous chunk's,
        // in `PGPU`.
        let seeded = PerformanceModel::analytic_seed(&Platform::gtx560());
        let model = PerformanceModel {
            gpu_stages: None,
            ..seeded
        };
        let (w, h, d) = (1024.0, 1024.0, 0.2);
        let release = Release::new(&model, w, h, d, 8192.0, 4, 16, true);
        for g in [0.0, 40.0, 64.0, 600.0, 1024.0] {
            let (mut cpu, mut dev, mut done) = (0.0f64, 0.0f64, 0.0);
            while done < g {
                let rows = f64::min(64.0, g - done);
                done += rows;
                cpu = cpu.max(release.at(done)) + model.t_disp(w, rows);
                dev = dev.max(cpu) + model.p_gpu(w, rows);
            }
            let want = (cpu.max(release.at(h)), dev);
            let got = walk(&model, g);
            assert!(
                (got.0 - want.0).abs() <= 1e-15 && (got.1 - want.1).abs() <= 1e-15,
                "{g}: {got:?} vs {want:?}"
            );
        }
    }

    #[test]
    fn fed_walk_overlaps_the_engines_and_never_beats_the_busier() {
        // With the stage forms the device finishes no later than the
        // serial queue of the same stages, and no sooner than the busier
        // engine's work.
        let model = PerformanceModel::analytic_seed(&Platform::gtx560());
        let serial = PerformanceModel {
            gpu_stages: None,
            p_gpu: {
                // `PGPU` as the sum of the seed's stages.
                let st = model.gpu_stages.as_ref().expect("the seed has stage forms");
                let mut p = model.p_gpu.clone();
                p.coefs[0][0] = st.h2d.coefs[0][0] + st.kernels.coefs[0][0] + st.d2h.coefs[0][0];
                p
            },
            ..model.clone()
        };
        for g in [64.0, 200.0, 600.0, 1024.0] {
            let (_, two) = walk(&model, g);
            let (_, one) = walk(&serial, g);
            let (mut copy, mut compute, mut done) = (0.0, 0.0, 0.0);
            while done < g {
                let rows = f64::min(64.0, g - done);
                done += rows;
                let [h2d, kernels, d2h] = model.gpu_stage_times(1024.0, rows, 0.2).unwrap();
                (copy, compute) = (copy + h2d + d2h, compute + kernels);
            }
            assert!(
                two <= one * (1.0 + 1e-12),
                "{g}: two engines {two} vs serial {one}"
            );
            assert!(
                two >= f64::max(copy, compute),
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
        let pps = initial_partition(&model, &g, 0.2, 128.0, None);
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
        let sparse = initial_partition(&model, &g, 0.05, 64.0, None);
        let dense = initial_partition(&model, &g, 0.45, 64.0, None);
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
        let no_backlog = repartition(&model, &g, 512.0, 0.2, 0.0, 1.0, 64.0, None);
        let backlog = repartition(&model, &g, 512.0, 0.2, 0.05, 1.0, 64.0, None);
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
        let neutral = repartition(&model, &g, 512.0, 0.25, 0.01, 1.0, 64.0, None);
        let dense_tail = repartition(&model, &g, 512.0, 0.25, 0.01, 1.6, 64.0, None);
        assert!(
            dense_tail.cpu_mcu_rows <= neutral.cpu_mcu_rows,
            "denser tail should shed CPU rows: {} vs {}",
            dense_tail.cpu_mcu_rows,
            neutral.cpu_mcu_rows
        );
    }

    #[test]
    fn repartition_never_exceeds_remaining_rows() {
        let model = PerformanceModel::analytic_seed(&Platform::gt430());
        let g = geom(640, 480);
        for h_left in [48.0, 160.0, 480.0] {
            for backlog in [0.0, 0.001, 0.1] {
                for cpu_scale in [0.6, 1.0, 1.8] {
                    let p = repartition(&model, &g, h_left, 0.3, backlog, cpu_scale, 64.0, None);
                    assert!(p.cpu_mcu_rows + p.gpu_mcu_rows <= g.mcus_y);
                    assert!(p.x_pixel_rows >= 0.0 && p.x_pixel_rows <= h_left);
                }
            }
        }
    }
}
