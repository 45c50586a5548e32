//! The decode modes: the paper's six (§6) — sequential, SIMD, GPU,
//! pipelined GPU, SPS, PPS — plus the restart-aware parallel-entropy mode
//! and the model-driven `Auto` selector.
//!
//! Every concrete mode really decodes the image (the outputs of all seven
//! are byte-identical — enforced by `tests/modes_agree.rs`) and
//! simultaneously builds the virtual-time execution trace from which the
//! paper's figures are regenerated.
//!
//! The entry point is the session API ([`crate::session::Decoder`]), which
//! owns the platform, the trained model and the pooled scratch. (The
//! pre-session free functions — `decode_with_mode` and the
//! `single`/`hetero` wrappers — were removed in PR 4 after one release of
//! deprecation; see docs/API.md for the migration table.)

pub mod auto;
pub mod entropy_par;
pub(crate) mod hetero;
pub(crate) mod single;

use crate::model::PerformanceModel;
use crate::partition::Partition;
use crate::platform::Platform;
use crate::session::OutputFormat;
use crate::timeline::{Breakdown, Resource, Trace};
use crate::workspace::{Workspace, WsParts};
use hetjpeg_jpeg::coef::CoefBuffer;
use hetjpeg_jpeg::decoder::{simd, Prepared};
use hetjpeg_jpeg::error::{Error, Result};
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

/// Route one prepared image through the requested mode, resolving
/// [`Mode::Auto`] via the performance model first. All decode paths share
/// the caller's pooled [`Workspace`]. Planar output comes from the CPU
/// render only (the simulated GPU kernels produce RGB).
pub(crate) fn dispatch(
    prep: &Prepared<'_>,
    mode: Mode,
    format: OutputFormat,
    platform: &Platform,
    model: &PerformanceModel,
    threads: usize,
    ws: &mut Workspace,
) -> Result<DecodeOutcome> {
    let mode = match mode {
        Mode::Auto => auto::select_mode(prep, platform, model, threads).mode,
        m => m,
    };
    match mode {
        Mode::Sequential | Mode::Simd => single::decode_cpu_in(prep, platform, mode, format, ws),
        Mode::ParallelEntropy => {
            entropy_par::decode_parallel_entropy_in(prep, platform, threads, format, ws)
        }
        _ if format != OutputFormat::Rgb => Err(Error::Unsupported(
            "planar output requires a CPU mode (sequential, SIMD or par-entropy)",
        )),
        Mode::Gpu => single::decode_gpu_in(prep, platform, model, ws),
        Mode::PipelinedGpu => single::decode_pipelined_gpu_in(prep, platform, model, ws),
        Mode::Sps => hetero::decode_sps_in(prep, platform, model, ws),
        Mode::Pps => hetero::decode_pps_in(prep, platform, model, true, ws),
        Mode::Auto => unreachable!("Auto resolved above"),
    }
}

/// Entropy-decode every MCU row into `coef`, returning the per-row work
/// metrics and the total Huffman time under the platform cost model. The
/// per-row metrics carry the EOB-class histograms the sparse-aware band
/// pricing consumes ([`crate::cost::CpuCostModel::parallel_time_sparse`]);
/// [`eob_classes_in`] sums them over a band.
pub(crate) fn entropy_into(
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
        let (rows, t_huff) = entropy_into(prep, platform, coef)?;
        let classes = eob_classes_in(&rows, 0, rows.len());
        Ok(Filled::serial(t_huff, classes, false))
    }
}

/// The second step of every CPU-only decode: the whole image through the
/// render loop on the workspace's pinned kernel level, into the sink
/// `format` asks for. `mode` prices the band (`Sequential` at the scalar
/// costs, anything else at the SIMD costs) and labels the outcome; it does
/// not choose code.
pub(crate) fn render_cpu(
    prep: &Prepared<'_>,
    platform: &Platform,
    p: WsParts<'_>,
    filled: Filled,
    mode: Mode,
    format: OutputFormat,
) -> Result<DecodeOutcome> {
    let geom = &prep.geom;
    let use_simd = mode != Mode::Sequential;
    let Filled {
        mut trace,
        t_huff,
        classes,
        truncated,
    } = filled;
    let (data, ycc, t_band) = match format {
        OutputFormat::Rgb => {
            let mut data = vec![0u8; geom.width * geom.height * 3];
            let mut sink = simd::RgbBand::new(prep, 0, geom.mcus_y, &mut data)?;
            let (work, _) = simd::render_rows(prep, p.coef, 0, geom.mcus_y, p.scratch, &mut sink);
            let t = platform.cpu.parallel_time_sparse(&work, &classes, use_simd);
            (data, None, t)
        }
        OutputFormat::PlanarYcc => {
            let mut planes = YccImage::new(geom.width, geom.height);
            let mut sink = simd::Planar::new(prep, &mut planes)?;
            let (work, _) = simd::render_rows(prep, p.coef, 0, geom.mcus_y, p.scratch, &mut sink);
            let t = platform
                .cpu
                .parallel_time_planar_sparse(&work, &classes, use_simd);
            // Planar outcomes leave `image.data` empty; `ycc` carries the
            // pixels.
            (Vec::new(), Some(planes), t)
        }
    };
    trace.push(
        if use_simd { "cpu-simd" } else { "cpu-scalar" },
        Resource::Cpu,
        t_huff,
        t_huff + t_band,
    );
    Ok(DecodeOutcome {
        image: RgbImage {
            width: geom.width,
            height: geom.height,
            data,
        },
        ycc,
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

/// EOB-class histogram of MCU rows `[start, end)` — the sparse-pricing
/// input for a band of the parallel phase.
pub(crate) fn eob_classes_in(
    rows: &[hetjpeg_jpeg::metrics::RowMetrics],
    start: usize,
    end: usize,
) -> [u64; 4] {
    let mut classes = [0u64; 4];
    for m in &rows[start.min(rows.len())..end.min(rows.len())] {
        for (a, b) in classes.iter_mut().zip(m.eob_classes) {
            *a += b;
        }
    }
    classes
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
