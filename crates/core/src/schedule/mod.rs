//! The decode modes: the paper's six (§6) — sequential, SIMD, GPU,
//! pipelined GPU, SPS, PPS — plus the restart-aware parallel-entropy mode
//! and the model-driven `Auto` selector.
//!
//! Every concrete mode really decodes the image (the outputs of all seven
//! are byte-identical — enforced by `tests/modes_agree.rs`) and
//! simultaneously builds the virtual-time execution trace from which the
//! paper's figures are regenerated.
//!
//! A decode is made of three steps, each written once and each advancing
//! one virtual timeline: the entropy step and the CPU band (here) and the
//! GPU chunk (`split`). A CPU-only mode fills the coefficient buffer
//! (`Filled`) and renders it as one CPU band (`render_cpu`). The four
//! GPU-involving modes are plans over one split scheduler (`split`): the
//! GPU takes the image's initial MCU rows and the CPU the rest, and the
//! modes differ only in where that split sits and whether Huffman decoding
//! is chunked so that it overlaps device work.
//!
//! The entry point is the session API ([`crate::session::Decoder`]), which
//! owns the platform, the trained model and the pooled scratch. (The
//! pre-session free functions — `decode_with_mode` and the per-mode
//! wrappers — were removed in PR 4 after one release of deprecation; see
//! docs/API.md for the migration table.)

pub mod auto;
pub mod entropy_par;
pub(crate) mod split;

use crate::model::PerformanceModel;
use crate::partition::Partition;
use crate::platform::Platform;
use crate::session::OutputFormat;
use crate::timeline::{Breakdown, Resource, Trace};
use crate::workspace::{Workspace, WsParts};
use hetjpeg_gpusim::CommandQueue;
use hetjpeg_jpeg::coef::CoefBuffer;
use hetjpeg_jpeg::decoder::{simd, Prepared};
use hetjpeg_jpeg::entropy::EntropyDecoder;
use hetjpeg_jpeg::error::{Error, Result};
use hetjpeg_jpeg::geometry::Geometry;
use hetjpeg_jpeg::metrics::RowMetrics;
use hetjpeg_jpeg::types::{RgbImage, YccImage};

/// Default worker count for [`Mode::ParallelEntropy`]; the session API
/// makes it configurable (`Decoder::builder().threads(n)`).
pub const DEFAULT_ENTROPY_THREADS: usize = 4;

/// Decode mode selector: the paper's six decoder versions (§6), the
/// restart-aware parallel-entropy extension, and the model-driven selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Scalar CPU decoding (libjpeg-turbo without SIMD).
    Sequential,
    /// Optimized CPU decoding (libjpeg-turbo's SIMD yardstick).
    Simd,
    /// Whole-image GPU offload after Huffman decoding (Fig. 5a).
    Gpu,
    /// Chunked GPU offload overlapped with Huffman decoding (Fig. 5b).
    PipelinedGpu,
    /// Simple Partitioning Scheme: CPU+GPU split after Huffman (§5.2.1).
    Sps,
    /// Pipelined Partitioning Scheme: split + overlap + re-partitioning
    /// (§5.2.2).
    Pps,
    /// Intra-stream-parallel Huffman decoding on a thread pool, then the
    /// SIMD parallel phase. With restart markers it exploits the
    /// byte-aligned synchronization points DRI inserts; without them it
    /// speculatively decodes evenly spaced chunks, relying on Huffman
    /// self-synchronization (Klein & Wiseman) and a stitch pass that
    /// re-decodes the short unconverged prefix at each boundary, so the
    /// output stays bit-identical to sequential on restart-free streams.
    ParallelEntropy,
    /// Pick among the seven concrete modes per image with the trained §5.1
    /// model (`THuff`, `PCPU`, `PGPU`, `Tdisp`) — the paper's dynamic
    /// partitioning idea promoted to dynamic *mode selection*. The outcome
    /// reports the concrete mode that was chosen.
    Auto,
}

impl Mode {
    /// All concrete modes in presentation order (the paper's six plus
    /// `ParallelEntropy`; `Auto` is a selector, not a decoder).
    pub fn all() -> [Mode; 7] {
        [
            Mode::Sequential,
            Mode::Simd,
            Mode::Gpu,
            Mode::PipelinedGpu,
            Mode::Sps,
            Mode::Pps,
            Mode::ParallelEntropy,
        ]
    }

    /// The paper's original six modes, for experiments that reproduce its
    /// tables verbatim.
    pub fn paper_six() -> [Mode; 6] {
        [
            Mode::Sequential,
            Mode::Simd,
            Mode::Gpu,
            Mode::PipelinedGpu,
            Mode::Sps,
            Mode::Pps,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Mode::Sequential => "sequential",
            Mode::Simd => "SIMD",
            Mode::Gpu => "GPU",
            Mode::PipelinedGpu => "pipeline",
            Mode::Sps => "SPS",
            Mode::Pps => "PPS",
            Mode::ParallelEntropy => "par-entropy",
            Mode::Auto => "auto",
        }
    }

    /// True for modes whose whole pipeline runs on the CPU (no simulated
    /// GPU involvement) — the only modes that can produce planar output
    /// without a device round-trip.
    pub fn is_cpu_only(&self) -> bool {
        matches!(self, Mode::Sequential | Mode::Simd | Mode::ParallelEntropy)
    }
}

/// Result of decoding with one mode.
#[derive(Debug, Clone)]
pub struct DecodeOutcome {
    /// The decoded image (bit-identical across modes). Empty `data` when
    /// planar output was requested — see [`Self::ycc`].
    pub image: RgbImage,
    /// Planar YCbCr output, populated instead of `image` when
    /// [`crate::session::OutputFormat::PlanarYcc`] was requested.
    pub ycc: Option<YccImage>,
    /// Per-stage totals.
    pub times: Breakdown,
    /// Full execution trace (Fig. 5/8-style).
    pub trace: Trace,
    /// The partition used, for SPS/PPS.
    pub partition: Option<Partition>,
    /// The concrete mode that produced this outcome (`Mode::Auto` resolves
    /// to its selection).
    pub mode: Mode,
    /// True when a tolerant decode salvaged a truncated/corrupt entropy
    /// stream: rows past the damage are neutral gray.
    pub truncated: bool,
}

impl DecodeOutcome {
    /// End-to-end virtual time.
    pub fn total(&self) -> f64 {
        self.times.total
    }

    /// The RGB image, if RGB output was produced.
    pub fn rgb(&self) -> Option<&RgbImage> {
        if self.image.data.is_empty() {
            None
        } else {
            Some(&self.image)
        }
    }

    /// The planar YCbCr image, if planar output was requested.
    pub fn planar(&self) -> Option<&YccImage> {
        self.ycc.as_ref()
    }
}

/// Route one prepared image through a concrete mode; the session resolves
/// [`Mode::Auto`] (through its decision cache) before it gets here. All
/// decode paths share the caller's pooled [`Workspace`]. Planar output
/// comes from the CPU render only (the simulated GPU kernels produce RGB).
pub(crate) fn dispatch(
    prep: &Prepared<'_>,
    mode: Mode,
    format: OutputFormat,
    platform: &Platform,
    model: &PerformanceModel,
    threads: usize,
    ws: &mut Workspace,
) -> Result<DecodeOutcome> {
    match mode {
        Mode::Sequential | Mode::Simd => decode_cpu_in(prep, platform, mode, format, ws),
        Mode::ParallelEntropy => {
            entropy_par::decode_parallel_entropy_in(prep, platform, threads, format, ws)
        }
        Mode::Auto => unreachable!("the session resolves Auto before dispatch"),
        _ if format != OutputFormat::Rgb => Err(Error::Unsupported(
            "planar output requires a CPU mode (sequential, SIMD or par-entropy)",
        )),
        _ => {
            let plan = split::Plan::of(mode, prep, model);
            split::decode(prep, platform, model, &plan, ws)
        }
    }
}

/// CPU-only decoding ([`Mode::Sequential`] or [`Mode::Simd`]) on pooled
/// scratch: sequential entropy, then the CPU render.
pub(crate) fn decode_cpu_in(
    prep: &Prepared<'_>,
    platform: &Platform,
    mode: Mode,
    format: OutputFormat,
    ws: &mut Workspace,
) -> Result<DecodeOutcome> {
    ws.ensure(prep);
    let filled = Filled::sequential(prep, platform, ws.parts().coef)?;
    render_cpu(prep, platform, ws.parts(), filled, mode, format)
}

/// The virtual timeline one decode builds as it runs (Figs. 5/8): the
/// CPU's clock, the GPU's in-order command queue, the per-stage totals and
/// the trace. The steps of the decode advance it — [`Entropy::until`], the
/// GPU chunk (`split`) and [`Self::cpu_band`] — and [`Self::outcome`]
/// closes it.
#[derive(Default)]
struct Timeline {
    /// When the CPU is next free.
    cpu_now: f64,
    q: CommandQueue,
    b: Breakdown,
    trace: Trace,
}

/// Where a CPU band's pixels go.
enum BandOut<'a> {
    /// MCU rows from the given one to the last, into their interleaved RGB
    /// rows of the image.
    Rgb(&'a mut RgbImage, usize),
    /// The whole image, into planes.
    Planar(&'a mut YccImage),
}

impl Timeline {
    /// The CPU band: the MCU rows `out` names through the render loop on
    /// the workspace's pinned kernel level, priced by the sparse cost model
    /// from the band's EOB `classes` — at the SIMD costs, or at the scalar
    /// ones without `use_simd` — once the CPU is free.
    fn cpu_band(
        &mut self,
        prep: &Prepared<'_>,
        platform: &Platform,
        p: &mut WsParts<'_>,
        out: BandOut<'_>,
        classes: &[u64; 4],
        use_simd: bool,
    ) -> Result<()> {
        let (cpu, end) = (&platform.cpu, prep.geom.mcus_y);
        let t_band = match out {
            BandOut::Rgb(image, row0) => {
                let band = rgb_rows(image, &prep.geom, row0, end);
                let mut sink = simd::RgbBand::new(prep, row0, end, band)?;
                let (work, _) = simd::render_rows(prep, p.coef, row0, end, p.scratch, &mut sink);
                cpu.parallel_time_sparse(&work, classes, use_simd)
            }
            BandOut::Planar(planes) => {
                let mut sink = simd::Planar::new(prep, planes)?;
                let (work, _) = simd::render_rows(prep, p.coef, 0, end, p.scratch, &mut sink);
                cpu.parallel_time_planar_sparse(&work, classes, use_simd)
            }
        };
        let label = if use_simd { "cpu-simd" } else { "cpu-scalar" };
        let now = self.cpu_now;
        self.trace.push(label, Resource::Cpu, now, now + t_band);
        self.cpu_now += t_band;
        self.b.cpu_parallel = t_band;
        Ok(())
    }

    /// Close the timeline: the decode ends when the CPU and the GPU queue
    /// are both done.
    fn outcome(
        mut self,
        image: RgbImage,
        ycc: Option<YccImage>,
        mode: Mode,
        partition: Option<Partition>,
        truncated: bool,
    ) -> DecodeOutcome {
        self.b.total = self.cpu_now.max(self.q.drain_time());
        DecodeOutcome {
            image,
            ycc,
            times: self.b,
            trace: self.trace,
            partition,
            mode,
            truncated,
        }
    }
}

/// The entropy step's state for one image: the sequential Huffman decoder,
/// the work metrics of every MCU row decoded so far (their EOB-class
/// histograms price CPU bands) and those rows' Huffman time, summed in row
/// order.
struct Entropy<'a> {
    dec: EntropyDecoder<'a>,
    rows: Vec<RowMetrics>,
    spent: f64,
}

impl<'a> Entropy<'a> {
    fn new(prep: &'a Prepared<'_>) -> Result<Self> {
        Ok(Entropy {
            dec: prep.entropy_decoder()?,
            rows: Vec::with_capacity(prep.geom.mcus_y),
            spent: 0.0,
        })
    }

    /// The entropy step: decode the MCU rows up to `end` into `coef` as one
    /// Huffman span on `tl`'s CPU — nothing when they are decoded already.
    fn until(
        &mut self,
        end: usize,
        coef: &mut CoefBuffer,
        platform: &Platform,
        tl: &mut Timeline,
    ) -> Result<()> {
        if self.rows.len() >= end {
            return Ok(());
        }
        let start = tl.cpu_now;
        while self.rows.len() < end {
            let m = self.dec.decode_mcu_row(coef)?;
            let t = platform.cpu.huff_time(&m);
            tl.cpu_now += t;
            self.spent += t;
            self.rows.push(m);
        }
        tl.b.huffman += tl.cpu_now - start;
        tl.trace.push("huffman", Resource::Cpu, start, tl.cpu_now);
        Ok(())
    }
}

/// The interleaved RGB bytes of MCU rows `[r0, r1)` of `image`.
fn rgb_rows<'a>(image: &'a mut RgbImage, geom: &Geometry, r0: usize, r1: usize) -> &'a mut [u8] {
    let (p0, p1) = geom.mcu_rows_to_pixel_rows(r0, r1);
    &mut image.data[p0 * geom.width * 3..p1 * geom.width * 3]
}

/// The account of a filled coefficient buffer — the first of the two steps
/// every CPU-only decode is composed of: what the entropy phase cost under
/// the platform model, and what [`render_cpu`] prices its band from.
/// However the buffer was filled (baseline sequential, parallel entropy,
/// progressive scans, tolerant salvage), the render that follows is the
/// same.
pub(crate) struct Filled {
    /// The entropy phase's spans; the render span is appended to them.
    pub trace: Trace,
    /// Virtual time at which the entropy phase ends and the render starts.
    pub t_huff: f64,
    /// EOB-class histogram of the blocks written — the sparse-pricing
    /// input. Blocks missing from it price as dense.
    pub classes: [u64; 4],
    /// True when the buffer holds less than the whole image (salvaged
    /// rows, a scan prefix).
    pub truncated: bool,
}

impl Filled {
    /// An entropy phase that ran as one serial span from time zero.
    pub(crate) fn serial(t_huff: f64, classes: [u64; 4], truncated: bool) -> Filled {
        let mut trace = Trace::default();
        trace.push("huffman", Resource::Cpu, 0.0, t_huff);
        Filled {
            trace,
            t_huff,
            classes,
            truncated,
        }
    }

    /// Fill `coef` with the sequential baseline entropy decode.
    pub(crate) fn sequential(
        prep: &Prepared<'_>,
        platform: &Platform,
        coef: &mut CoefBuffer,
    ) -> Result<Filled> {
        let mut ent = Entropy::new(prep)?;
        ent.until(prep.geom.mcus_y, coef, platform, &mut Timeline::default())?;
        let classes = eob_classes_in(&ent.rows, 0, ent.rows.len());
        Ok(Filled::serial(ent.spent, classes, false))
    }
}

/// The second step of every CPU-only decode: the whole image as one CPU
/// band on the workspace's pinned kernel level, into the sink `format`
/// asks for. `mode` prices the band (`Sequential` at the scalar costs,
/// anything else at the SIMD costs) and labels the outcome; it does not
/// choose code.
pub(crate) fn render_cpu(
    prep: &Prepared<'_>,
    platform: &Platform,
    mut p: WsParts<'_>,
    filled: Filled,
    mode: Mode,
    format: OutputFormat,
) -> Result<DecodeOutcome> {
    let geom = &prep.geom;
    let Filled {
        trace,
        t_huff,
        classes,
        truncated,
    } = filled;
    let mut tl = Timeline {
        cpu_now: t_huff,
        b: Breakdown {
            huffman: t_huff,
            ..Default::default()
        },
        trace,
        ..Default::default()
    };
    let use_simd = mode != Mode::Sequential;
    // Planar outcomes leave `image.data` empty; `ycc` carries the pixels.
    let mut image = RgbImage {
        width: geom.width,
        height: geom.height,
        data: Vec::new(),
    };
    let ycc = match format {
        OutputFormat::Rgb => {
            image.data = vec![0u8; geom.width * geom.height * 3];
            let band = BandOut::Rgb(&mut image, 0);
            tl.cpu_band(prep, platform, &mut p, band, &classes, use_simd)?;
            None
        }
        OutputFormat::PlanarYcc => {
            let mut planes = YccImage::new(geom.width, geom.height);
            let band = BandOut::Planar(&mut planes);
            tl.cpu_band(prep, platform, &mut p, band, &classes, use_simd)?;
            Some(planes)
        }
    };
    Ok(tl.outcome(image, ycc, mode, None, truncated))
}

/// EOB-class histogram of MCU rows `[start, end)` — the sparse-pricing
/// input for a band of the parallel phase.
pub(crate) fn eob_classes_in(rows: &[RowMetrics], start: usize, end: usize) -> [u64; 4] {
    let mut classes = [0u64; 4];
    for m in &rows[start.min(rows.len())..end.min(rows.len())] {
        for (a, b) in classes.iter_mut().zip(m.eob_classes) {
            *a += b;
        }
    }
    classes
}

#[cfg(test)]
mod reference;

// Mode-level tests: the CPU-only decode and the single-device GPU plans
// (`single`), and the CPU/GPU splits (`hetero`).
#[cfg(test)]
mod single {
    mod tests;
}
#[cfg(test)]
mod hetero {
    mod tests;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_names_and_order() {
        let names: Vec<&str> = Mode::all().iter().map(|m| m.name()).collect();
        assert_eq!(
            names,
            vec![
                "sequential",
                "SIMD",
                "GPU",
                "pipeline",
                "SPS",
                "PPS",
                "par-entropy"
            ]
        );
        // The selector is not a concrete mode.
        assert!(!Mode::all().contains(&Mode::Auto));
        assert_eq!(Mode::paper_six().len(), 6);
    }

    #[test]
    fn cpu_only_classification() {
        assert!(Mode::Sequential.is_cpu_only());
        assert!(Mode::Simd.is_cpu_only());
        assert!(Mode::ParallelEntropy.is_cpu_only());
        for m in [Mode::Gpu, Mode::PipelinedGpu, Mode::Sps, Mode::Pps] {
            assert!(!m.is_cpu_only());
        }
    }
}
