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
//! GPU chunk (`split`). Every concrete mode is a plan over the one split
//! loop (`split`), whose entropy step takes its rows from the sequential
//! decoder, the session's entropy workers (`entropy_par`) or a buffer
//! filled before the loop (`Fill`: a progressive scan script, a tolerant
//! salvage). Every step writes into one output `Target` — a whole RGB
//! image, planes, or MCU-row tiles handed to a sink in row order — so
//! whole and streamed output are the same decode.
//!
//! The entry point is the session API ([`crate::session::Decoder`]), which
//! owns the platform, the trained model and the pooled scratch.

pub mod auto;
pub mod entropy_par;
pub(crate) mod split;

use crate::model::PerformanceModel;
use crate::partition::Partition;
use crate::platform::Platform;
use crate::session::{DecodeOptions, OutputFormat, RowStreamOutcome, RowTile, Strictness};
use crate::timeline::{Breakdown, Resource, Trace};
use crate::workspace::{Workspace, WsParts};
use hetjpeg_gpusim::subseq::SubseqTable;
use hetjpeg_gpusim::CommandQueue;
use hetjpeg_jpeg::coef::CoefBuffer;
use hetjpeg_jpeg::decoder::{simd, Prepared};
use hetjpeg_jpeg::entropy::{EntropyDecoder, RestartSegment};
use hetjpeg_jpeg::error::{Error, Result};
use hetjpeg_jpeg::geometry::Geometry;
use hetjpeg_jpeg::metrics::{ParallelWork, RowMetrics};
use hetjpeg_jpeg::progressive::{self, ProgressiveParsed};
use hetjpeg_jpeg::speculate::SpecStats;
use hetjpeg_jpeg::types::{RgbImage, YccImage};
use std::ops::Range;

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

/// Route one prepared image through a concrete mode into `out`; the
/// session resolves [`Mode::Auto`] (through its decision cache) before it
/// gets here. Every mode is a [`split::Plan`] over the one split loop, on
/// the caller's pooled [`Workspace`]; a `fill` already in the workspace's
/// coefficient buffer is the entropy source instead of the scan, and its
/// plan is priced at one entropy thread. Planar output comes from the CPU
/// band only (the simulated GPU kernels produce RGB).
#[allow(clippy::too_many_arguments)]
pub(crate) fn dispatch(
    prep: &Prepared<'_>,
    mode: Mode,
    platform: &Platform,
    model: &PerformanceModel,
    threads: usize,
    fill: Option<Fill>,
    ws: &mut Workspace,
    out: &mut Target<'_>,
) -> Result<DecodeOutcome> {
    match mode {
        Mode::Auto => unreachable!("the session resolves Auto before dispatch"),
        _ if !mode.is_cpu_only() && matches!(out, Target::Planar(_)) => Err(Error::Unsupported(
            "planar output requires a CPU mode (sequential, SIMD or par-entropy)",
        )),
        _ => {
            let threads = match fill {
                Some(_) => 1,
                None => entropy_par::threads_for(prep, threads),
            };
            let plan = split::Plan::of(mode, prep, model, threads);
            split::decode(prep, platform, model, &plan, fill, ws, out)
        }
    }
}

/// Where a decode's pixels go — the one output target every decode body
/// renders into, whichever steps the mode runs. A whole-frame decode
/// passes an image, a planar decode planes, a streamed decode a tile sink.
pub(crate) enum Target<'a> {
    /// Interleaved RGB into a whole image, allocated at its first write.
    Rgb(Option<RgbImage>),
    /// Full-resolution planar YCbCr into a whole image, allocated at its
    /// first write; CPU bands only.
    Planar(Option<YccImage>),
    /// Interleaved RGB one MCU row at a time, top to bottom, to a sink:
    /// CPU bands render through the workspace's pooled tile buffer and GPU
    /// chunks are staged there, so no whole-image buffer exists.
    Tiles(Tiles<'a>),
}

/// A tile sink and how far its stream got: MCU rows `[0, tiles)` are out,
/// in order, and once the sink declines a tile (`completed` is false)
/// nothing more renders or ships.
pub(crate) struct Tiles<'a> {
    sink: &'a mut dyn FnMut(RowTile<'_>) -> bool,
    sent: RowStreamOutcome,
}

impl<'a> Target<'a> {
    /// A whole image in `format`, its pixels allocated at their first write,
    /// after the pooled buffers are shaped (allocating them up front raised
    /// the peak resident set of a 3 MP decode loop by two images).
    pub(crate) fn whole(format: OutputFormat) -> Target<'a> {
        match format {
            OutputFormat::Rgb => Target::Rgb(None),
            OutputFormat::PlanarYcc => Target::Planar(None),
        }
    }

    /// A tile stream into `sink`.
    pub(crate) fn tiles(sink: &'a mut dyn FnMut(RowTile<'_>) -> bool) -> Target<'a> {
        let sent = RowStreamOutcome::WHOLE;
        Target::Tiles(Tiles { sink, sent })
    }

    /// False once a tile sink stopped the stream.
    fn open(&self) -> bool {
        !matches!(self, Target::Tiles(t) if !t.sent.completed)
    }

    /// `out` with this target's pixels in it, and the stream's account (a
    /// whole image sends no tiles and is always complete).
    pub(crate) fn finish(self, mut out: DecodeOutcome) -> (DecodeOutcome, RowStreamOutcome) {
        match self {
            Target::Rgb(image) => out.image = image.unwrap_or(out.image),
            Target::Planar(planes) => out.ycc = planes,
            Target::Tiles(t) => return (out, t.sent),
        }
        (out, RowStreamOutcome::WHOLE)
    }
}

impl Tiles<'_> {
    /// Send `rgb`, the interleaved RGB of MCU rows `rows`, one tile per MCU
    /// row until the sink declines one; true when it took them all.
    fn send(&mut self, geom: &Geometry, rows: Range<usize>, rgb: &[u8]) -> bool {
        let (top, row_bytes) = (rows.start * geom.mcu_h, geom.width * 3);
        for r in rows {
            if !self.sent.completed {
                break;
            }
            let (y0, y1) = geom.mcu_rows_to_pixel_rows(r, r + 1);
            let rgb = &rgb[(y0 - top) * row_bytes..(y1 - top) * row_bytes];
            self.sent.tiles += 1;
            self.sent.completed = (self.sink)(RowTile {
                y0,
                rows: y1 - y0,
                width: geom.width,
                height: geom.height,
                rgb,
            });
        }
        self.sent.completed
    }
}

/// The virtual timeline one decode builds as it runs (Figs. 5/8): the
/// CPU's clock, the GPU's command queues, the per-stage totals and the
/// trace. On the paper's schedule the GPU has one in-order queue, its
/// transfers and kernels one after another; a fed, chunked plan adds a
/// copy engine beside the compute engine (`split`), so one chunk's
/// transfers run under another's kernels. The steps of the decode advance
/// it — [`Entropy::until`], the GPU chunk (`split`) and
/// [`Self::cpu_band`] — and [`Self::outcome`] closes it.
#[derive(Default)]
struct Timeline {
    /// When the CPU is next free.
    cpu_now: f64,
    /// The compute engine's queue; with no copy engine, the transfers'
    /// too.
    q: CommandQueue,
    /// The copy engine's queue, on a fed, chunked plan: every transfer,
    /// one at a time.
    copy: Option<CommandQueue>,
    /// The last chunk's D2H, held back from the copy engine until the next
    /// chunk's H2D is issued: when its kernels end, and its seconds.
    held_d2h: Option<(f64, f64)>,
    /// When the device's decoder state at the CPU band's first row is on
    /// the host, once the last GPU chunk's Huffman kernels read it back.
    band_state: Option<f64>,
    b: Breakdown,
    trace: Trace,
}

impl Timeline {
    /// The CPU band: MCU rows `row0` to the last into `out` through the
    /// render loop on the workspace's pinned kernel level, priced by the
    /// sparse cost model from the band's EOB `classes` — at the SIMD costs,
    /// or at the scalar ones without `use_simd` — once the CPU is free. A
    /// tile stream resumes past the tiles it already sent.
    #[allow(clippy::too_many_arguments)]
    fn cpu_band(
        &mut self,
        prep: &Prepared<'_>,
        platform: &Platform,
        p: &mut WsParts<'_>,
        out: &mut Target<'_>,
        row0: usize,
        classes: &[u64; 4],
        use_simd: bool,
    ) -> Result<()> {
        let (geom, end) = (&prep.geom, prep.geom.mcus_y);
        match out {
            Target::Rgb(image) => {
                let band = rgb_rows(image, geom, row0, end);
                let mut sink = simd::RgbBand::new(prep, row0, end, band)?;
                simd::render_rows(prep, p.coef, row0, end, p.scratch, &mut sink);
            }
            Target::Planar(planes) => {
                let planes = planes.get_or_insert_with(|| YccImage::new(geom.width, geom.height));
                let mut sink = simd::Planar::new(prep, planes)?;
                simd::render_rows(prep, p.coef, row0, end, p.scratch, &mut sink);
            }
            Target::Tiles(tiles) => {
                let from = row0.max(tiles.sent.tiles);
                let mut sink = simd::RgbTiles::new(prep, from, p.tile, |y0, _, rgb: &[u8]| {
                    let r = y0 / geom.mcu_h;
                    tiles.send(geom, r..r + 1, rgb)
                });
                simd::render_rows(prep, p.coef, from, end, p.scratch, &mut sink);
            }
        }
        let (cpu, work) = (&platform.cpu, ParallelWork::for_mcu_rows(geom, row0, end));
        let t_band = match out {
            Target::Planar(_) => cpu.parallel_time_planar_sparse(&work, classes, use_simd),
            _ => cpu.parallel_time_sparse(&work, classes, use_simd),
        };
        let label = if use_simd { "cpu-simd" } else { "cpu-scalar" };
        let now = self.cpu_now;
        self.trace.push(label, Resource::Cpu, now, now + t_band);
        self.cpu_now += t_band;
        self.b.cpu_parallel = t_band;
        Ok(())
    }

    /// Close the timeline: the last D2H goes to the copy engine, and the
    /// decode ends when the CPU and every GPU engine are done. The pixels
    /// are the target's ([`Target::finish`]).
    fn outcome(
        mut self,
        geom: &Geometry,
        mode: Mode,
        partition: Option<Partition>,
        truncated: bool,
    ) -> DecodeOutcome {
        self.b.total = match &mut self.copy {
            None => self.cpu_now.max(self.q.drain_time()),
            Some(copy) => {
                if let Some(d2h) = self.held_d2h.take() {
                    copy_d2h(copy, &mut self.trace, d2h);
                }
                let done = self.cpu_now.max(self.q.drain_time());
                done.max(copy.drain_time())
            }
        };
        DecodeOutcome {
            image: RgbImage {
                width: geom.width,
                height: geom.height,
                data: Vec::new(),
            },
            ycc: None,
            times: self.b,
            trace: self.trace,
            partition,
            mode,
            truncated,
        }
    }
}

/// Issue a held-back D2H, `(ready, seconds)`, on the copy engine `copy`.
fn copy_d2h(copy: &mut CommandQueue, trace: &mut Trace, (ready, t): (f64, f64)) {
    let ev = copy.enqueue("d2h", ready, t);
    debug_assert!(ev.start >= ready, "a D2H starts before its kernels end");
    trace.push("d2h", Resource::Copy, ev.start, ev.end);
}

/// The entropy step's state for one image: where its rows come from, and
/// the work metrics of every MCU row final so far (their EOB-class
/// histograms price CPU bands).
struct Entropy<'a> {
    source: Source<'a>,
    rows: Vec<RowMetrics>,
}

/// Where the entropy step's rows come from.
enum Source<'a> {
    /// The scan: the paper's sequential Huffman decoder on the loop's own
    /// thread, or, while there is a feed, the session's entropy workers,
    /// which hand over to the decoder at damage they cannot vouch for.
    Scan(Box<EntropyDecoder<'a>>, Option<Box<entropy_par::Feed<'a>>>),
    /// A buffer filled before the loop: no decoder, one span.
    Fill(Fill),
}

impl<'a> Entropy<'a> {
    /// The entropy step of `prep`'s scan: sequential with one thread, else
    /// fed by `threads` workers in chunks of at most `feed_rows` MCU rows.
    fn new(
        prep: &'a Prepared<'a>,
        platform: &Platform,
        threads: usize,
        feed_rows: usize,
    ) -> Result<Self> {
        let dec = Box::new(prep.entropy_decoder()?);
        let feed_mcus = feed_rows.max(1) * prep.geom.mcus_x;
        let chunks = |seg: &RestartSegment| seg.mcu_count.div_ceil(feed_mcus);
        let feed = entropy_par::Feed::new(prep, platform, threads, chunks).map(Box::new);
        Ok(Entropy {
            source: Source::Scan(dec, feed),
            rows: Vec::with_capacity(prep.geom.mcus_y),
        })
    }

    /// The entropy step over a filled buffer.
    fn filled(fill: Fill) -> Self {
        Entropy {
            source: Source::Fill(fill),
            rows: Vec::new(),
        }
    }

    /// The entropy step of the GPU's MCU rows up to `end`, when the feed
    /// is the source: the device decodes their Huffman, so no time passes
    /// on the CPU; the host stitches them (the values the device writes)
    /// and measures their subsequences. Returns the rows' subsequence lanes
    /// and the scan bytes they span, or `None` when the CPU must decode the
    /// rows — there is no feed, or it met damage it cannot vouch for and
    /// handed over.
    fn device(
        &mut self,
        end: usize,
        coef: &mut CoefBuffer,
    ) -> Result<Option<(SubseqTable, Range<usize>)>> {
        let start = self.rows.len();
        let Source::Scan(_, Some(feed)) = &mut self.source else {
            return Ok(None);
        };
        if feed.skip(coef, end).is_err() {
            self.hand_over(coef)?;
            return Ok(None);
        }
        self.rows.extend((start..end).map(|r| feed.row(r)));
        Ok(Some(feed.device_lanes(start..end)))
    }

    /// The CPU band's entropy step over MCU rows `from` to `rows`, the
    /// last, fed, once the device's decoder state at row `from` is on the
    /// host at `state_at`: one Huffman span from the CPU's clock, the wait
    /// for the state included, in which the workers decode the band's rows
    /// from that state on ([`entropy_par::Feed::band`]). Rows the device
    /// decoded past `from` (a re-partition moved the split back) are
    /// decoded again here. Without a feed, [`Self::until`].
    fn band(
        &mut self,
        (from, rows): (usize, usize),
        state_at: f64,
        coef: &mut CoefBuffer,
        platform: &Platform,
        tl: &mut Timeline,
    ) -> Result<()> {
        let Source::Scan(_, Some(feed)) = &mut self.source else {
            return self.until(rows, coef, platform, tl);
        };
        let start = tl.cpu_now;
        let mut now = start.max(state_at);
        if feed.band(coef, platform, from, &mut now).is_err() {
            self.hand_over(coef)?;
            return self.until(rows, coef, platform, tl);
        }
        tl.cpu_now = now;
        self.release(rows, coef, platform, tl)?;
        tl.b.huffman += tl.cpu_now - start;
        tl.trace.push("huffman", Resource::Cpu, start, tl.cpu_now);
        Ok(())
    }

    /// The entropy step: make the MCU rows up to `end` final in `coef` as
    /// one Huffman span on `tl`'s CPU — nothing when they are final
    /// already. Decoding sequentially, the span is the decode; fed, it is
    /// the wait for the rows' release and the stitch; over a fill, it is
    /// the fill's, and every row is final after it.
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
        self.release(end, coef, platform, tl)?;
        tl.b.huffman += tl.cpu_now - start;
        tl.trace.push("huffman", Resource::Cpu, start, tl.cpu_now);
        Ok(())
    }

    /// [`Self::until`]'s decode, on `tl`'s CPU clock, without its span.
    fn release(
        &mut self,
        end: usize,
        coef: &mut CoefBuffer,
        platform: &Platform,
        tl: &mut Timeline,
    ) -> Result<()> {
        while self.rows.len() < end {
            let m = match &mut self.source {
                Source::Scan(dec, None) => {
                    let m = dec.decode_mcu_row(coef)?;
                    tl.cpu_now += platform.cpu.huff_time(&m);
                    m
                }
                Source::Scan(_, Some(feed)) if feed.released() > self.rows.len() => {
                    feed.row(self.rows.len())
                }
                Source::Scan(_, Some(feed)) => {
                    if feed.advance(coef, platform, &mut tl.cpu_now, end).is_err() {
                        self.hand_over(coef)?;
                    }
                    continue;
                }
                Source::Fill(fill) => {
                    tl.cpu_now += fill.span;
                    self.rows.append(&mut fill.rows);
                    break;
                }
            };
            self.rows.push(m);
        }
        Ok(())
    }

    /// The feed met damage it cannot vouch for: the sequential decoder
    /// re-decodes the rows already final — the same values — and takes
    /// over, so what follows, an error included, is exactly its.
    fn hand_over(&mut self, coef: &mut CoefBuffer) -> Result<()> {
        let Source::Scan(dec, feed) = &mut self.source else {
            unreachable!("only a feed hands over");
        };
        // The decoder has not moved while the feed was the source.
        *feed = None;
        for _ in 0..self.rows.len() {
            dec.decode_mcu_row(coef)?;
        }
        Ok(())
    }

    /// True while the entropy workers are the source.
    fn is_fed(&self) -> bool {
        matches!(self.source, Source::Scan(_, Some(_)))
    }

    /// Speculation counters of the feed's stitched segments.
    fn spec(&self) -> SpecStats {
        match &self.source {
            Source::Scan(_, Some(feed)) => feed.spec,
            _ => SpecStats::default(),
        }
    }
}

/// A filled coefficient buffer, the entropy step's third source: every MCU
/// row made final before the loop runs — by a progressive scan script or a
/// tolerant salvage — with the rows' work metrics and the one serial
/// Huffman span that filled them. A row it has no metrics for (a salvage's
/// damaged tail, zero coefficients) is absent from the EOB histograms, so
/// it prices as dense.
pub(crate) struct Fill {
    rows: Vec<RowMetrics>,
    span: f64,
    /// True when the buffer holds less than the whole image (salvaged rows,
    /// a scan prefix).
    truncated: bool,
}

impl Fill {
    /// `rows`, the metrics of the first MCU rows of `geom`'s image, filled
    /// in `span` seconds of serial Huffman.
    fn new(geom: &Geometry, mut rows: Vec<RowMetrics>, span: f64, truncated: bool) -> Fill {
        rows.resize(geom.mcus_y, RowMetrics::default());
        Fill {
            rows,
            span,
            truncated,
        }
    }

    /// Decode `parsed`'s scan script — every scan, or the `max_scans`
    /// prefix, stopping at damage under tolerant handling — into the
    /// workspace's buffer, zeroed first: scans accumulate into prior
    /// state, and a prefix leaves later bands untouched. The buffer
    /// re-derives the EOB classes from the accumulated state. A prefix or
    /// a tolerated truncation is partial.
    pub(crate) fn progressive(
        parsed: &ProgressiveParsed<'_>,
        prep: &Prepared<'_>,
        platform: &Platform,
        opts: &DecodeOptions,
        ws: &mut Workspace,
    ) -> Result<Fill> {
        let (max_scans, tolerant) = (opts.max_scans, opts.strictness == Strictness::Tolerant);
        ws.ensure(prep);
        let coef = ws.parts().coef;
        coef.reset_for(&prep.geom);
        let out = progressive::decode_scans(parsed, &prep.geom, coef, max_scans, tolerant)?;
        let partial = out.truncated || max_scans.is_some_and(|m| m < parsed.scans.len());
        ws.progressive.scans_decoded += out.scans_decoded as u64;
        ws.progressive.refine_passes += out.refine_passes;
        ws.progressive.partial_renders += u64::from(partial);
        let mut total = RowMetrics::default();
        for r in &out.rows {
            total.add(r);
        }
        let span = platform.cpu.progressive_huff_time(&total, out.block_visits);
        Ok(Fill::new(&prep.geom, out.rows, span, partial))
    }

    /// Salvage: the sequential baseline decode into `coef`, zeroed, stopped
    /// at the damage instead of failing there. The damaged tail stays zero
    /// coefficients, which render neutral gray.
    pub(crate) fn salvage(
        prep: &Prepared<'_>,
        platform: &Platform,
        coef: &mut CoefBuffer,
    ) -> Result<Fill> {
        let mut dec = prep.entropy_decoder()?;
        let mut rows = Vec::with_capacity(prep.geom.mcus_y);
        while rows.len() < prep.geom.mcus_y {
            let Ok(m) = dec.decode_mcu_row(coef) else {
                break;
            };
            rows.push(m);
        }
        let span = (rows.iter()).fold(0.0, |t, m| t + platform.cpu.huff_time(m));
        let truncated = rows.len() < prep.geom.mcus_y;
        Ok(Fill::new(&prep.geom, rows, span, truncated))
    }

    /// The EOB-class histogram of the whole buffer.
    pub(crate) fn classes(&self) -> [u64; 4] {
        eob_classes_in(&self.rows, 0, self.rows.len())
    }
}

/// The interleaved RGB bytes of MCU rows `[r0, r1)` of a whole image,
/// allocated at its first write.
fn rgb_rows<'a>(
    image: &'a mut Option<RgbImage>,
    geom: &Geometry,
    r0: usize,
    r1: usize,
) -> &'a mut [u8] {
    let image = image.get_or_insert_with(|| RgbImage::new(geom.width, geom.height));
    let (p0, p1) = geom.mcu_rows_to_pixel_rows(r0, r1);
    &mut image.data[p0 * geom.width * 3..p1 * geom.width * 3]
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

    /// `decode` into a whole RGB image, with the pixels in its outcome.
    pub(crate) fn to_rgb(
        decode: impl FnOnce(&mut Target<'_>) -> Result<DecodeOutcome>,
    ) -> Result<DecodeOutcome> {
        let mut out = Target::whole(OutputFormat::Rgb);
        let outcome = decode(&mut out)?;
        Ok(out.finish(outcome).0)
    }

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
