//! The session decode API: a builder-constructed [`Decoder`] that owns the
//! platform, the trained performance model, the worker-thread budget and
//! the pooled scratch, and decodes any number of images through one
//! adaptive entry point.
//!
//! This is the shape the paper's contribution wants to be consumed in:
//! *dynamic* partitioning means the caller should not pick a [`Mode`] by
//! hand — [`Mode::Auto`] (the default) prices all seven concrete modes with
//! the §5.1 closed forms per image and runs the cheapest. A session
//! amortizes everything that is per-machine rather than per-image: the
//! whole-image coefficient buffer, the render scratch, the GPU chunk
//! staging, and the `Auto` decisions themselves (cached per image shape).
//!
//! ```
//! use hetjpeg_core::{DecodeOptions, Decoder, Platform};
//! use hetjpeg_corpus::{generate_jpeg, ImageSpec, Pattern};
//! use hetjpeg_jpeg::types::Subsampling;
//!
//! let spec = ImageSpec { width: 96, height: 96,
//!                        pattern: Pattern::PhotoLike { detail: 0.5 }, seed: 1 };
//! let jpeg = generate_jpeg(&spec, 85, Subsampling::S420).unwrap();
//! let decoder = Decoder::builder().platform(Platform::gtx560()).build().unwrap();
//! let out = decoder.decode(&jpeg, DecodeOptions::default()).unwrap();
//! assert_eq!(out.image.width, 96);
//! ```

use crate::exec::{decode_pps_threaded_impl, ThreadedOutcome};
use crate::model::PerformanceModel;
use crate::platform::Platform;
use crate::schedule::{auto, dispatch, eob_classes_in, render_cpu, DecodeOutcome, Filled, Mode};
use crate::workspace::{PoolStats, Workspace};
use hetjpeg_jpeg::decoder::kernels::SimdLevel;
use hetjpeg_jpeg::decoder::{simd, Prepared};
use hetjpeg_jpeg::error::{Error, Result};
use hetjpeg_jpeg::metrics::{ParallelWork, RowMetrics};
use hetjpeg_jpeg::progressive::{self, ProgressiveParsed};
use hetjpeg_jpeg::types::Subsampling;
use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;

/// Upper bound on configurable entropy worker threads — far above any
/// plausible host, low enough to catch garbage configuration up front.
pub const MAX_THREADS: usize = 256;

/// Default entry cap for the per-session `Mode::Auto` decision cache.
///
/// Each entry is one (shape, density bucket, restart interval) key mapped
/// to a [`Mode`] — a few dozen bytes — so the cap exists to bound a
/// pathological workload (every image a new shape, e.g. an adversarial
/// upload stream), not memory pressure under normal traffic. 128 distinct
/// shapes comfortably covers a real gallery/thumbnail mix.
pub const DEFAULT_AUTO_CACHE_CAP: usize = 128;

/// Pixel-format of the decoded output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Interleaved 8-bit RGB ([`DecodeOutcome::image`]).
    #[default]
    Rgb,
    /// Full-resolution planar YCbCr ([`DecodeOutcome::ycc`]): chroma
    /// upsampled, color conversion skipped — what re-encode/tone-map/ML
    /// pipelines consume. Requires a CPU mode (the simulated GPU kernels
    /// produce RGB).
    PlanarYcc,
}

/// How the decoder reacts to damaged entropy streams and incompatible
/// option combinations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strictness {
    /// Any error aborts the decode (library default).
    #[default]
    Strict,
    /// Browser-style salvage: a truncated or corrupt entropy stream yields
    /// a partial image (damaged rows decode to neutral gray,
    /// [`DecodeOutcome::truncated`] set), and planar output silently falls
    /// back to the SIMD CPU path when a GPU mode was requested.
    Tolerant,
}

/// Per-call decode options. `Default` is `Mode::Auto`, RGB output, strict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodeOptions {
    /// Decode mode; [`Mode::Auto`] (default) selects per image via the
    /// trained model.
    pub mode: Mode,
    /// Output pixel format.
    pub format: OutputFormat,
    /// Error-handling policy.
    pub strictness: Strictness,
    /// Decompression-bomb guard: images with more pixels than this are
    /// rejected before any allocation. `None` (default) disables the guard.
    pub max_pixels: Option<usize>,
    /// Run the render kernels at an explicit [`SimdLevel`] for this call,
    /// clamped to what the host can run, overriding the session's one-time
    /// dispatch choice — the testing hook that keeps the scalar and SSE2
    /// kernels exercised on an AVX2 host (output is bit-identical at every
    /// level). [`Mode::Sequential`] is the scalar pipeline and renders at
    /// [`SimdLevel::Scalar`] regardless.
    pub force_simd_level: Option<SimdLevel>,
    /// For progressive (SOF2) images: decode at most this many scans and
    /// render the prefix — a coarser but well-defined image
    /// ([`DecodeOutcome::truncated`] set when the limit bites). `None`
    /// (default) decodes the full scan script; baseline images ignore the
    /// option (their single scan is always "all of them").
    pub max_scans: Option<usize>,
}

impl Default for DecodeOptions {
    fn default() -> Self {
        DecodeOptions {
            mode: Mode::Auto,
            format: OutputFormat::Rgb,
            strictness: Strictness::Strict,
            max_pixels: None,
            force_simd_level: None,
            max_scans: None,
        }
    }
}

impl DecodeOptions {
    /// Options with an explicit mode (other fields default).
    pub fn with_mode(mode: Mode) -> Self {
        DecodeOptions {
            mode,
            ..Default::default()
        }
    }

    /// Set the output format.
    pub fn format(mut self, format: OutputFormat) -> Self {
        self.format = format;
        self
    }

    /// Switch to tolerant (salvaging) error handling.
    pub fn tolerant(mut self) -> Self {
        self.strictness = Strictness::Tolerant;
        self
    }

    /// Set the decompression-bomb guard.
    pub fn max_pixels(mut self, px: usize) -> Self {
        self.max_pixels = Some(px);
        self
    }

    /// Force an explicit kernel dispatch level for this call (testing
    /// hook; clamped to the host's capability).
    pub fn force_simd(mut self, level: SimdLevel) -> Self {
        self.force_simd_level = Some(level);
        self
    }

    /// Decode at most `scans` scans of a progressive image (prefix render).
    pub fn max_scans(mut self, scans: usize) -> Self {
        self.max_scans = Some(scans);
        self
    }
}

/// Errors detected by [`DecoderBuilder::build`] — configuration problems
/// that would otherwise surface as panics or garbage partitions mid-decode.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// Thread count outside `1..=MAX_THREADS`.
    InvalidThreads(usize),
    /// The model was trained for a different platform than the session's.
    ModelPlatformMismatch {
        /// Platform the model was trained for.
        model: String,
        /// Platform the session was built with.
        platform: String,
    },
    /// The model itself is unusable; the string names the defect.
    InvalidModel(&'static str),
    /// `Mode::Auto` cache cap of zero — the session could never cache a
    /// decision and every decode would re-price all seven modes.
    InvalidAutoCacheCap,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::InvalidThreads(n) => {
                write!(f, "thread count {n} outside 1..={MAX_THREADS}")
            }
            BuildError::ModelPlatformMismatch { model, platform } => write!(
                f,
                "performance model was trained for {model:?} but the session targets {platform:?}"
            ),
            BuildError::InvalidModel(what) => write!(f, "invalid performance model: {what}"),
            BuildError::InvalidAutoCacheCap => {
                write!(
                    f,
                    "auto_cache_cap must be >= 1 (use a cap of 1 to effectively disable caching)"
                )
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Builder for [`Decoder`]. Platform defaults to the GTX 560 machine, the
/// model to the platform's analytic seed, threads to 4.
#[derive(Debug, Clone, Default)]
pub struct DecoderBuilder {
    platform: Option<Platform>,
    model: Option<PerformanceModel>,
    threads: Option<usize>,
    auto_cache_cap: Option<usize>,
}

impl DecoderBuilder {
    /// Target platform (Table 1 machine).
    pub fn platform(mut self, platform: Platform) -> Self {
        self.platform = Some(platform);
        self
    }

    /// Trained performance model; defaults to the platform's analytic seed
    /// ([`Platform::untrained_model`]).
    pub fn model(mut self, model: PerformanceModel) -> Self {
        self.model = Some(model);
        self
    }

    /// Entropy worker threads for `Mode::ParallelEntropy` (and its `Auto`
    /// pricing).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Entry cap for the `Mode::Auto` decision cache (default
    /// [`DEFAULT_AUTO_CACHE_CAP`]). When full, the least-recently-used
    /// entry is evicted; [`SessionStats`] reports hits, evaluations and
    /// evictions. Must be at least 1.
    pub fn auto_cache_cap(mut self, cap: usize) -> Self {
        self.auto_cache_cap = Some(cap);
        self
    }

    /// Validate the configuration up front and construct the session. The
    /// parallel-phase kernel dispatch ([`SimdLevel`]) is resolved here,
    /// once per session — decodes never re-detect CPU features.
    pub fn build(self) -> std::result::Result<Decoder, BuildError> {
        // The session prices its own bands from the kernels it really
        // dispatches: a host (or HETJPEG_SIMD cap) resolved below AVX2
        // caps the cost model's vector factors *before* anything is
        // derived from it — in particular the default analytic seed model
        // below, so Mode::Auto and the CPU/GPU partition points never
        // assume speedups this session's dispatch policy will not deliver.
        // (An explicitly supplied trained model is taken as-is.)
        let simd_level = SimdLevel::detect();
        let mut platform = self.platform.unwrap_or_else(Platform::gtx560);
        platform.cpu = platform.cpu.at_level(simd_level);
        let model = self.model.unwrap_or_else(|| platform.untrained_model());
        let threads = self.threads.unwrap_or(entropy_par_default_threads());
        if threads == 0 || threads > MAX_THREADS {
            return Err(BuildError::InvalidThreads(threads));
        }
        let auto_cache_cap = self.auto_cache_cap.unwrap_or(DEFAULT_AUTO_CACHE_CAP);
        if auto_cache_cap == 0 {
            return Err(BuildError::InvalidAutoCacheCap);
        }
        if model.platform != platform.name {
            return Err(BuildError::ModelPlatformMismatch {
                model: model.platform.clone(),
                platform: platform.name.to_string(),
            });
        }
        // Defects that would otherwise panic or mis-partition mid-decode:
        // a zero work-group divides by zero inside the kernels, a zero
        // chunk height dead-locks the chunk loop's progress assumptions,
        // and non-finite coefficients poison every Newton solve.
        if model.wg_blocks == 0 {
            return Err(BuildError::InvalidModel("wg_blocks must be >= 1"));
        }
        if model.chunk_mcu_rows == 0 {
            return Err(BuildError::InvalidModel("chunk_mcu_rows must be >= 1"));
        }
        let finite1 = |p: &crate::regress::Poly1| p.coefs.iter().all(|c| c.is_finite());
        let finite2 = |p: &crate::regress::Poly2| {
            p.coefs.iter().flatten().all(|c| c.is_finite())
                && p.x_scale.is_finite()
                && p.y_scale.is_finite()
        };
        if !finite1(&model.thuff_ns_per_px)
            || !finite2(&model.p_cpu)
            || !finite2(&model.p_gpu)
            || !finite2(&model.t_disp)
        {
            return Err(BuildError::InvalidModel("non-finite coefficient"));
        }
        Ok(Decoder {
            platform,
            model,
            threads,
            simd_level,
            state: Mutex::new(SessionState {
                ws: Workspace::default(),
                auto_cache: AutoCache::new(auto_cache_cap),
            }),
        })
    }
}

fn entropy_par_default_threads() -> usize {
    crate::schedule::DEFAULT_ENTROPY_THREADS
}

/// Key under which `Mode::Auto` decisions are cached: every model input
/// that can change the prediction, plus the selection space (planar output
/// restricts the candidates to CPU-only modes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct AutoKey {
    width: usize,
    height: usize,
    subsampling: Subsampling,
    /// Entropy density quantized to 1/16 B/px. The bucket must be coarse
    /// enough that a batch of same-shaped, same-corpus images shares one
    /// decision: the original 1/4096 quantization put every image of a
    /// six-image q85 4:2:2 batch in its own bucket (`auto_evals: 6,
    /// auto_cache_hits: 0`), defeating the cache. Mode-choice boundaries
    /// move slowly in `d` (Fig. 7 is a gentle line), so 1/16 B/px is still
    /// far finer than any decision flip observed across the corpora.
    density_q: u64,
    restart_interval: usize,
    /// True when the decision was restricted to CPU-only modes.
    cpu_only: bool,
}

/// The `Mode::Auto` decision cache with LRU eviction.
///
/// Entries are tiny, so the structure optimizes for simplicity: a map from
/// key to `(mode, last_used)` stamped by a monotone tick, with an `O(cap)`
/// scan for the eviction victim. Caps are small (hundreds at most), every
/// lookup already holds the session lock, and a linked-list LRU would buy
/// nothing measurable at this size.
struct AutoCache {
    cap: usize,
    tick: u64,
    entries: HashMap<AutoKey, (Mode, u64)>,
}

impl AutoCache {
    fn new(cap: usize) -> Self {
        assert!(cap >= 1, "builder validated the cap");
        AutoCache {
            cap,
            tick: 0,
            entries: HashMap::with_capacity(cap.min(64)),
        }
    }

    /// Look up a cached decision, refreshing its recency on a hit.
    fn get(&mut self, key: &AutoKey) -> Option<Mode> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(key).map(|(mode, used)| {
            *used = tick;
            *mode
        })
    }

    /// Insert a decision, evicting the least-recently-used entry when the
    /// cache is at its cap. Returns `true` when an eviction happened.
    fn insert(&mut self, key: AutoKey, mode: Mode) -> bool {
        self.tick += 1;
        let mut evicted = false;
        if self.entries.len() >= self.cap && !self.entries.contains_key(&key) {
            if let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| *k)
            {
                self.entries.remove(&victim);
                evicted = true;
            }
        }
        self.entries.insert(key, (mode, self.tick));
        evicted
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

struct SessionState {
    ws: Workspace,
    auto_cache: AutoCache,
}

/// How one image of a [`Decoder::decode_batch`] call is executed.
enum BatchPlan {
    /// Whole-image GPU mode: staged for the batch's single coalesced H2D
    /// transfer (or the staging error).
    Stage(Result<crate::schedule::single::GpuBatchMember>),
    /// A concrete non-GPU mode, already resolved (possibly from the `Auto`
    /// cache) — decode per-image without re-resolving.
    Resolved(Mode),
    /// Nothing resolved; take the ordinary per-image path untouched.
    Solo,
}

/// A point-in-time snapshot of a session's pool and cache counters —
/// what the server layer aggregates into its per-shard statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionStats {
    /// Cumulative pool/cache counters (allocations amortized, `Auto`
    /// evaluations, cache hits, evictions).
    pub pool: PoolStats,
    /// Current number of cached `Mode::Auto` decisions.
    pub auto_cache_len: usize,
    /// The session's configured cache cap.
    pub auto_cache_cap: usize,
    /// The kernel dispatch level that served the session's most recent
    /// decode (the build-time resolution before any decode happens):
    /// [`SimdLevel::Scalar`] after a [`Mode::Sequential`] decode, the
    /// per-call forced level after a forced one, the session's level
    /// otherwise — so the server layer can assert which kernels actually
    /// served traffic rather than which were configured.
    pub simd_level: SimdLevel,
    /// Cumulative speculative-entropy counters (ISSUE 6): chunk workers
    /// launched, convergence-prefix MCUs wasted, stitch re-decodes — how
    /// much the restart-free parallel path speculated and how much of it
    /// paid off.
    pub spec: hetjpeg_jpeg::speculate::SpecStats,
    /// Cumulative progressive-decode counters (PR 7): scans decoded,
    /// refinement passes, partial (prefix) renders served.
    pub progressive: hetjpeg_jpeg::progressive::ProgressiveStats,
}

/// One finished MCU-row tile handed to a [`Decoder::decode_rows`] sink:
/// a horizontal band of interleaved RGB pixel rows, borrowed from the
/// decoder's pooled tile buffer for the duration of the callback.
#[derive(Debug)]
pub struct RowTile<'a> {
    /// First pixel row of the tile (0-based, top of image = 0).
    pub y0: usize,
    /// Number of pixel rows in the tile (one MCU row's worth — `mcu_h`,
    /// except the last tile of an image whose height is not a multiple).
    pub rows: usize,
    /// Image width in pixels (every tile spans the full width).
    pub width: usize,
    /// Total image height in pixels — known from the first tile, so sinks
    /// that forward the stream (or pre-allocate) need not wait for the
    /// final summary.
    pub height: usize,
    /// `rows * width * 3` bytes of interleaved RGB, bit-identical to the
    /// corresponding rows of a whole-image [`Decoder::decode`] in any
    /// mode.
    pub rgb: &'a [u8],
}

/// Summary returned by [`Decoder::decode_rows`] after the tile stream
/// ends (normally or by sink abort).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowStreamOutcome {
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Total MCU rows in the image (the tile count of a complete stream).
    pub mcu_rows: usize,
    /// Tiles actually delivered to the sink.
    pub tiles: usize,
    /// True when the pixels are a salvage/prefix render (tolerant salvage
    /// of a damaged stream, or a `max_scans` progressive prefix) — the
    /// same meaning as [`DecodeOutcome::truncated`].
    pub truncated: bool,
    /// False when the sink aborted the stream before the last tile.
    pub completed: bool,
    /// The render path used: [`Mode::Sequential`] for the scalar kernels,
    /// [`Mode::Simd`] otherwise. Output bytes are identical either way.
    pub mode: Mode,
}

/// A decode session: platform + model + thread budget + pooled scratch.
///
/// Construct with [`Decoder::builder`]; decode with [`Decoder::decode`] /
/// [`Decoder::decode_batch`]. The session is `Sync` — concurrent calls
/// serialize on the internal workspace lock.
pub struct Decoder {
    platform: Platform,
    model: PerformanceModel,
    threads: usize,
    /// Parallel-phase kernel dispatch, detected once at build time.
    simd_level: SimdLevel,
    state: Mutex<SessionState>,
}

impl fmt::Debug for Decoder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Decoder")
            .field("platform", &self.platform.name)
            .field("model", &self.model.platform)
            .field("threads", &self.threads)
            .field("simd_level", &self.simd_level)
            .finish_non_exhaustive()
    }
}

impl Decoder {
    /// Start building a session.
    pub fn builder() -> DecoderBuilder {
        DecoderBuilder::default()
    }

    /// The session's platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The session's performance model.
    pub fn model(&self) -> &PerformanceModel {
        &self.model
    }

    /// The session's entropy worker-thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The parallel-phase kernel dispatch this session resolved at build
    /// time (best available unless capped by `HETJPEG_SIMD`).
    pub fn simd_level(&self) -> SimdLevel {
        self.simd_level
    }

    /// Cumulative pool/cache counters — how many allocations the session
    /// amortized away so far.
    pub fn pool_stats(&self) -> PoolStats {
        self.stats().pool
    }

    /// True when a decode on this session panicked and left the internal
    /// workspace lock poisoned. A poisoned session must not decode again
    /// (its pooled buffers may be half-written); callers that isolate
    /// panics — the serve layer's shard workers — check this and rebuild
    /// the session. Statistics remain readable on a poisoned session.
    pub fn is_poisoned(&self) -> bool {
        self.state.is_poisoned()
    }

    /// Fault-injection seam: acquire the session lock and panic while
    /// holding it, poisoning the session exactly as a panic in the middle
    /// of a real decode would. The serve layer's deterministic fault
    /// harness uses this to prove panic isolation and session rebuild
    /// against genuine lock poisoning rather than a simulated stand-in.
    pub fn inject_panic(&self, msg: &str) -> ! {
        let _guard = self.state.lock().expect("decoder state lock");
        panic!("{}", msg.to_owned());
    }

    /// Snapshot of the session's statistics: the pool counters plus the
    /// `Mode::Auto` cache occupancy and cap. Tolerates a poisoned session
    /// (the counters are plain integers; a mid-decode panic cannot tear
    /// them), so a supervisor can still account for a crashed session
    /// before discarding it.
    pub fn stats(&self) -> SessionStats {
        let state = match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        SessionStats {
            pool: state.ws.stats(),
            auto_cache_len: state.auto_cache.len(),
            auto_cache_cap: state.auto_cache.cap,
            simd_level: state.ws.simd_level().unwrap_or(self.simd_level),
            spec: state.ws.spec_stats(),
            progressive: state.ws.progressive_stats(),
        }
    }

    /// Decode one image.
    pub fn decode(&self, data: &[u8], opts: DecodeOptions) -> Result<DecodeOutcome> {
        let mut state = self.state.lock().expect("decoder state lock");
        self.decode_locked(&mut state, data, &opts)
    }

    /// Decode a batch of images under one workspace lock: pooled buffers,
    /// GPU staging and cached `Auto` decisions are reused across the whole
    /// batch. Returns one result per input, in order.
    ///
    /// Images that resolve to the whole-image GPU mode additionally share
    /// **one** coalesced host→device transfer (PR 9): each image's
    /// compacted payload is staged, the batch pays the PCIe fixed cost
    /// once ([`hetjpeg_gpusim::PcieModel::batched_transfer_time`]), and
    /// each outcome's `h2d` is its byte-proportional share of that single
    /// transfer. [`PoolStats::h2d_transfers`] counts one per batch on this
    /// path. Everything else (CPU modes, partitioned modes, progressive,
    /// planar, errors) decodes exactly as [`Decoder::decode`] would.
    pub fn decode_batch(
        &self,
        images: &[impl AsRef<[u8]>],
        opts: DecodeOptions,
    ) -> Vec<Result<DecodeOutcome>> {
        let mut state = self.state.lock().expect("decoder state lock");
        if images.len() < 2 {
            return images
                .iter()
                .map(|data| self.decode_locked(&mut state, data.as_ref(), &opts))
                .collect();
        }
        let mut results: Vec<Option<Result<DecodeOutcome>>> = images.iter().map(|_| None).collect();
        let mut staged: Vec<(usize, crate::schedule::single::GpuBatchMember)> = Vec::new();
        for (i, data) in images.iter().enumerate() {
            let data = data.as_ref();
            match self.plan_batch_member(&mut state, data, &opts) {
                BatchPlan::Stage(Ok(m)) => {
                    staged.push((i, m));
                }
                // A staging failure under strict handling is the same error
                // a solo decode would return; tolerant handling re-routes
                // through the salvaging path with the already-resolved mode
                // (so the `Auto` cache is not consulted twice per image).
                BatchPlan::Stage(Err(e)) if opts.strictness == Strictness::Strict => {
                    results[i] = Some(Err(e));
                }
                BatchPlan::Stage(Err(_)) => {
                    let forced = DecodeOptions {
                        mode: Mode::Gpu,
                        ..opts
                    };
                    results[i] = Some(self.decode_locked(&mut state, data, &forced));
                }
                BatchPlan::Resolved(mode) => {
                    let forced = DecodeOptions { mode, ..opts };
                    results[i] = Some(self.decode_locked(&mut state, data, &forced));
                }
                BatchPlan::Solo => {
                    results[i] = Some(self.decode_locked(&mut state, data, &opts));
                }
            }
        }
        if !staged.is_empty() {
            let sizes: Vec<usize> = staged.iter().map(|(_, m)| m.h2d_bytes).collect();
            let total_bytes: usize = sizes.iter().sum();
            let batch_time = self.platform.pcie.batched_transfer_time(&sizes, true);
            state.ws.stats.h2d_transfers += 1;
            for (i, m) in staged {
                let share = if total_bytes > 0 {
                    batch_time * m.h2d_bytes as f64 / total_bytes as f64
                } else {
                    batch_time / sizes.len() as f64
                };
                results[i] = Some(Ok(crate::schedule::single::finish_gpu_batch_member(
                    m, share,
                )));
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every batch slot decided"))
            .collect()
    }

    /// Decode one image as a stream of MCU-row tiles instead of a
    /// whole-image buffer: the entropy phase runs to completion (it is
    /// inherently sequential), then each MCU row is rendered by the CPU
    /// render loop into the session's pooled tile buffer and handed to
    /// `sink` while cache-hot. Peak pixel memory is **one tile**
    /// (`width * mcu_h * 3` bytes) no matter how tall the image — the
    /// serving layer's bounded streaming responses are built on this.
    ///
    /// Tile bytes are bit-identical to the corresponding rows of
    /// [`Decoder::decode`] in *any* mode (the cross-mode bit-identity
    /// invariant), so a streamed response reassembles exactly to the
    /// whole-image frame. `opts.mode == Sequential` renders on the scalar
    /// kernels; every other mode (GPU modes included — their pixels are
    /// identical) renders on the session's kernel level. Progressive
    /// sources honor `max_scans`; `Strictness::Tolerant` salvages damaged
    /// streams exactly as `decode` would. Only RGB output streams —
    /// planar requests are rejected.
    ///
    /// `sink` returning `false` aborts the stream after the current tile
    /// ([`RowStreamOutcome::completed`] reports `false`).
    pub fn decode_rows(
        &self,
        data: &[u8],
        opts: DecodeOptions,
        sink: &mut dyn FnMut(RowTile<'_>) -> bool,
    ) -> Result<RowStreamOutcome> {
        if opts.format != OutputFormat::Rgb {
            return Err(Error::Unsupported(
                "row streaming produces interleaved RGB only",
            ));
        }
        let mut guard = self.state.lock().expect("decoder state lock");
        let ws = &mut guard.ws;
        let (prep, scans) = open(data, &opts)?;
        let mode = match opts.mode {
            Mode::Sequential => Mode::Sequential,
            _ => Mode::Simd,
        };
        self.pin_level(ws, &opts, mode);
        let filled = match scans {
            Some(parsed) => self.fill_progressive(ws, &parsed, &prep, &opts)?,
            None => {
                ws.ensure(&prep);
                match Filled::sequential(&prep, &self.platform, ws.parts().coef) {
                    Err(e) if opts.strictness == Strictness::Tolerant && is_stream_error(&e) => {
                        self.fill_salvage(ws, &prep)?
                    }
                    other => other?,
                }
            }
        };

        let geom = &prep.geom;
        let p = ws.parts();
        let mut tiles = 0usize;
        let mut tile_sink = simd::RgbTiles::new(&prep, 0, p.tile, |y0, rows, rgb: &[u8]| {
            tiles += 1;
            sink(RowTile {
                y0,
                rows,
                width: geom.width,
                height: geom.height,
                rgb,
            })
        });
        let (_, completed) =
            simd::render_rows(&prep, p.coef, 0, geom.mcus_y, p.scratch, &mut tile_sink);
        Ok(RowStreamOutcome {
            width: geom.width,
            height: geom.height,
            mcu_rows: geom.mcus_y,
            tiles,
            truncated: filled.truncated,
            completed,
            mode,
        })
    }

    /// Batched-transfer pre-pass for one image: stage it for the coalesced
    /// GPU batch when — and only when — a solo decode would take the
    /// whole-image GPU mode. [`BatchPlan::Resolved`] carries the mode an
    /// `Auto` image resolved to (concrete but not GPU) so the per-image
    /// fallback does not consult the decision cache a second time;
    /// [`BatchPlan::Solo`] means nothing was resolved (different format,
    /// progressive, unparseable, over the pixel guard).
    fn plan_batch_member(
        &self,
        state: &mut SessionState,
        data: &[u8],
        opts: &DecodeOptions,
    ) -> BatchPlan {
        if opts.format != OutputFormat::Rgb || progressive::is_progressive(data) {
            return BatchPlan::Solo;
        }
        let Ok((prep, _)) = open(data, opts) else {
            return BatchPlan::Solo;
        };
        let mode = match opts.mode {
            Mode::Auto => self.auto_mode(state, &prep, false),
            m => m,
        };
        if mode != Mode::Gpu {
            return BatchPlan::Resolved(mode);
        }
        self.pin_level(&mut state.ws, opts, mode);
        BatchPlan::Stage(crate::schedule::single::decode_gpu_batch_stage(
            &prep,
            &self.platform,
            &self.model,
            &mut state.ws,
        ))
    }

    /// Decode with the real two-thread PPS pipeline (wall-clock, not
    /// virtual time) — the host demonstration of §3/§4.5.
    pub fn decode_threaded(&self, data: &[u8]) -> Result<ThreadedOutcome> {
        let transfer = {
            let state = self.state.lock().expect("decoder state lock");
            state.ws.gpu.transfer()
        };
        decode_pps_threaded_impl(data, &self.platform, &self.model, transfer)
    }

    /// Predict every concrete mode's total for an image without decoding
    /// it — the ranking `Mode::Auto` decides on.
    pub fn predict(&self, data: &[u8]) -> Result<auto::AutoDecision> {
        let prep = Prepared::new(data)?;
        Ok(auto::select_mode(
            &prep,
            &self.platform,
            &self.model,
            self.threads,
        ))
    }

    /// Resolve the kernel level of one call, once: [`Mode::Sequential`] is
    /// the scalar pipeline; every other mode renders at the per-call
    /// forced level if there is one, else at the level the session
    /// detected at build time.
    fn pin_level(&self, ws: &mut Workspace, opts: &DecodeOptions, mode: Mode) {
        ws.set_simd_level(match (mode, opts.force_simd_level) {
            (Mode::Sequential, _) => SimdLevel::Scalar,
            (_, Some(forced)) => forced,
            (_, None) => self.simd_level,
        });
    }

    fn decode_locked(
        &self,
        state: &mut SessionState,
        data: &[u8],
        opts: &DecodeOptions,
    ) -> Result<DecodeOutcome> {
        let (prep, scans) = open(data, opts)?;
        if let Some(parsed) = scans {
            return self.decode_progressive(&mut state.ws, &parsed, &prep, opts);
        }
        let tolerant = opts.strictness == Strictness::Tolerant;
        // Planar output comes from the CPU render only: `Auto` is
        // restricted to the modes that have one (cached under its own
        // selection-space key), a tolerant call falls back to SIMD, and a
        // strict call with a GPU mode is refused by `dispatch`.
        let planar = opts.format == OutputFormat::PlanarYcc;
        let mode = match opts.mode {
            Mode::Auto => self.auto_mode(state, &prep, planar),
            m if planar && tolerant && !m.is_cpu_only() => Mode::Simd,
            m => m,
        };
        let ws = &mut state.ws;
        self.pin_level(ws, opts, mode);
        let res = dispatch(
            &prep,
            mode,
            opts.format,
            &self.platform,
            &self.model,
            self.threads,
            ws,
        );
        match res {
            Err(e) if tolerant && is_stream_error(&e) => {
                let filled = self.fill_salvage(ws, &prep)?;
                let mode = if mode.is_cpu_only() { mode } else { Mode::Simd };
                render_cpu(&prep, &self.platform, ws.parts(), filled, mode, opts.format)
            }
            other => other,
        }
    }

    /// The progressive (SOF2) decode: fill from the scan script, then the
    /// CPU render. The accumulated coefficients live in host memory and
    /// every scan is strictly sequential, so no GPU mode applies: `Auto`
    /// prices the scalar vs SIMD band with the per-class sparse costs (an
    /// early prefix is dramatically sparse and prices accordingly), forced
    /// `Sequential` stays sequential, and every other forced mode renders
    /// as SIMD.
    fn decode_progressive(
        &self,
        ws: &mut Workspace,
        parsed: &ProgressiveParsed<'_>,
        prep: &Prepared<'_>,
        opts: &DecodeOptions,
    ) -> Result<DecodeOutcome> {
        let filled = self.fill_progressive(ws, parsed, prep, opts)?;
        let mode = match opts.mode {
            Mode::Auto => {
                let cpu = &self.platform.cpu;
                let work = ParallelWork::for_mcu_rows(&prep.geom, 0, prep.geom.mcus_y);
                let scalar = cpu.parallel_time_sparse(&work, &filled.classes, false);
                let simd = cpu.parallel_time_sparse(&work, &filled.classes, true);
                if simd <= scalar {
                    Mode::Simd
                } else {
                    Mode::Sequential
                }
            }
            Mode::Sequential => Mode::Sequential,
            _ => Mode::Simd,
        };
        self.pin_level(ws, opts, mode);
        render_cpu(prep, &self.platform, ws.parts(), filled, mode, opts.format)
    }

    /// Fill from a progressive scan script: decode every scan (or the
    /// `max_scans` prefix) sequentially into the pooled coefficient
    /// buffer, which re-derives the EOB classes from the accumulated
    /// state. A prefix or a tolerated truncation is a partial render.
    fn fill_progressive(
        &self,
        ws: &mut Workspace,
        parsed: &ProgressiveParsed<'_>,
        prep: &Prepared<'_>,
        opts: &DecodeOptions,
    ) -> Result<Filled> {
        // Progressive scans accumulate into prior state, and a prefix
        // render leaves later bands untouched — the buffer must be zeroed.
        ws.ensure(prep);
        let coef = ws.parts().coef;
        coef.reset_for(&prep.geom);
        let outcome = progressive::decode_scans(
            parsed,
            &prep.geom,
            coef,
            opts.max_scans,
            opts.strictness == Strictness::Tolerant,
        )?;

        let limited = opts.max_scans.is_some_and(|m| m < parsed.scans.len());
        let partial = limited || outcome.truncated;
        ws.progressive.scans_decoded += outcome.scans_decoded as u64;
        ws.progressive.refine_passes += outcome.refine_passes;
        ws.progressive.partial_renders += u64::from(partial);

        let mut total = RowMetrics::default();
        for r in &outcome.rows {
            total.add(r);
        }
        let t_huff = self
            .platform
            .cpu
            .progressive_huff_time(&total, outcome.block_visits);
        let classes = eob_classes_in(&outcome.rows, 0, outcome.rows.len());
        Ok(Filled::serial(t_huff, classes, partial))
    }

    /// Tolerant salvage fill: sequentially entropy-decode as far as the
    /// stream allows and leave the damaged tail as zero coefficients,
    /// which render neutral gray. The tail rows are absent from the
    /// histogram and price as dense — conservative for such a region.
    fn fill_salvage(&self, ws: &mut Workspace, prep: &Prepared<'_>) -> Result<Filled> {
        ws.ensure_zeroed(prep);
        let coef = ws.parts().coef;
        let mut dec = prep.entropy_decoder()?;
        let mut t_huff = 0.0;
        let mut rows_ok = 0usize;
        let mut classes = [0u64; 4];
        while !dec.is_finished() {
            let Ok(m) = dec.decode_mcu_row(coef) else {
                break;
            };
            t_huff += self.platform.cpu.huff_time(&m);
            rows_ok += 1;
            for (a, b) in classes.iter_mut().zip(m.eob_classes) {
                *a += b;
            }
        }
        Ok(Filled::serial(t_huff, classes, rows_ok < prep.geom.mcus_y))
    }

    /// `Mode::Auto` with the per-shape session cache. `cpu_only` restricts
    /// the selection space (planar output) and is part of the cache key.
    fn auto_mode(&self, state: &mut SessionState, prep: &Prepared<'_>, cpu_only: bool) -> Mode {
        let key = AutoKey {
            width: prep.geom.width,
            height: prep.geom.height,
            subsampling: prep.geom.subsampling,
            density_q: (prep.parsed.entropy_density() * 16.0).round() as u64,
            restart_interval: prep.parsed.frame.restart_interval,
            cpu_only,
        };
        if let Some(mode) = state.auto_cache.get(&key) {
            state.ws.stats.auto_cache_hits += 1;
            return mode;
        }
        let mode = if cpu_only {
            auto::select_cpu_mode(prep, &self.platform, &self.model, self.threads).mode
        } else {
            auto::select_mode(prep, &self.platform, &self.model, self.threads).mode
        };
        state.ws.stats.auto_evals += 1;
        if state.auto_cache.insert(key, mode) {
            state.ws.stats.auto_evictions += 1;
        }
        mode
    }
}

/// Parse `data`, baseline or progressive, and apply the checks that come
/// before any allocation: strict handling refuses a damaged or incomplete
/// scan script, and the `max_pixels` guard refuses an oversized frame. The
/// second value is the scan script of a progressive source.
fn open<'a>(
    data: &'a [u8],
    opts: &DecodeOptions,
) -> Result<(Prepared<'a>, Option<ProgressiveParsed<'a>>)> {
    let (prep, scans) = if progressive::is_progressive(data) {
        let parsed = progressive::parse_progressive(data)?;
        if opts.strictness == Strictness::Strict {
            if let Some(damage) = &parsed.damage {
                return Err(damage.clone());
            }
            if !parsed.complete {
                return Err(Error::UnexpectedEof);
            }
        }
        (Prepared::from_progressive(&parsed)?, Some(parsed))
    } else {
        (Prepared::new(data)?, None)
    };
    if opts.max_pixels.is_some_and(|max| prep.geom.pixels() > max) {
        return Err(Error::Unsupported("image exceeds the max_pixels guard"));
    }
    Ok((prep, scans))
}

/// True for errors that indicate a damaged/truncated entropy stream — the
/// class a tolerant decode can salvage. Header-level problems (missing
/// tables, bad dimensions) are not salvageable.
fn is_stream_error(e: &Error) -> bool {
    matches!(
        e,
        Error::UnexpectedEof | Error::BadHuffmanCode | Error::RestartMismatch { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetjpeg_jpeg::encoder::{encode_rgb, EncodeParams};

    fn jpeg_of(w: usize, h: usize, interval: usize) -> Vec<u8> {
        let mut rgb = Vec::with_capacity(w * h * 3);
        let mut s = 17u32;
        for _ in 0..w * h {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            rgb.extend_from_slice(&[(s >> 8) as u8, (s >> 16) as u8, (s >> 24) as u8]);
        }
        encode_rgb(
            &rgb,
            w as u32,
            h as u32,
            &EncodeParams {
                quality: 84,
                subsampling: Subsampling::S422,
                restart_interval: interval,
            },
        )
        .unwrap()
    }

    #[test]
    fn builder_validates_up_front() {
        assert!(matches!(
            Decoder::builder().threads(0).build(),
            Err(BuildError::InvalidThreads(0))
        ));
        assert!(matches!(
            Decoder::builder().threads(MAX_THREADS + 1).build(),
            Err(BuildError::InvalidThreads(_))
        ));
        // Model trained for another machine is rejected.
        let p680 = Platform::gtx680();
        assert!(matches!(
            Decoder::builder()
                .platform(Platform::gt430())
                .model(p680.untrained_model())
                .build(),
            Err(BuildError::ModelPlatformMismatch { .. })
        ));
        // A zero work-group size would divide by zero inside the kernels.
        let mut bad = Platform::gtx560().untrained_model();
        bad.wg_blocks = 0;
        assert!(matches!(
            Decoder::builder().model(bad).build(),
            Err(BuildError::InvalidModel(_))
        ));
        let mut nan = Platform::gtx560().untrained_model();
        nan.p_gpu.coefs[1][1] = f64::NAN;
        assert!(matches!(
            Decoder::builder().model(nan).build(),
            Err(BuildError::InvalidModel(_))
        ));
        // The happy path still builds.
        assert!(Decoder::builder()
            .platform(Platform::gtx680())
            .threads(8)
            .build()
            .is_ok());
    }

    #[test]
    fn max_pixels_guard_rejects_before_decoding() {
        let jpeg = jpeg_of(64, 64, 0);
        let dec = Decoder::builder().build().unwrap();
        let err = dec
            .decode(&jpeg, DecodeOptions::default().max_pixels(1000))
            .unwrap_err();
        assert!(matches!(err, Error::Unsupported(_)));
        assert!(dec
            .decode(&jpeg, DecodeOptions::default().max_pixels(64 * 64))
            .is_ok());
    }

    #[test]
    fn tolerant_salvage_of_truncated_stream() {
        // Restart markers make truncation detectable: the reader pads
        // zero bits at EOF, but the expected RSTn can never appear.
        let mut jpeg = jpeg_of(96, 96, 4);
        // Chop the tail of the scan (keep the headers).
        jpeg.truncate(jpeg.len() - jpeg.len() / 3);
        let dec = Decoder::builder().build().unwrap();
        // Strict fails…
        assert!(dec
            .decode(&jpeg, DecodeOptions::with_mode(Mode::Simd))
            .is_err());
        // …tolerant salvages a partial image.
        let out = dec
            .decode(&jpeg, DecodeOptions::with_mode(Mode::Simd).tolerant())
            .unwrap();
        assert!(out.truncated);
        assert_eq!(out.image.width, 96);
        assert_eq!(out.image.data.len(), 96 * 96 * 3);
        // The damaged tail is neutral gray (zero coefficients).
        let last_px = &out.image.data[96 * 95 * 3..96 * 95 * 3 + 3];
        assert_eq!(last_px, &[128, 128, 128]);
    }

    #[test]
    fn planar_mode_rules() {
        let jpeg = jpeg_of(64, 48, 0);
        let dec = Decoder::builder().build().unwrap();
        let planar = DecodeOptions::with_mode(Mode::Pps).format(OutputFormat::PlanarYcc);
        // Strict: GPU modes cannot produce planar output.
        assert!(dec.decode(&jpeg, planar).is_err());
        // Tolerant: falls back to the SIMD CPU path.
        let out = dec.decode(&jpeg, planar.tolerant()).unwrap();
        assert_eq!(out.mode, Mode::Simd);
        let ycc = out.planar().expect("planar output");
        assert_eq!(ycc.y.len(), 64 * 48);
        assert!(out.rgb().is_none());
        // Planar converts to the exact RGB bytes of an RGB decode.
        let rgb = dec
            .decode(&jpeg, DecodeOptions::with_mode(Mode::Simd))
            .unwrap();
        assert_eq!(ycc.to_rgb().data, rgb.image.data);
    }

    #[test]
    fn auto_with_planar_selects_among_cpu_modes() {
        // The default mode (Auto) must work with planar output even when
        // the RGB ranking would pick a GPU mode: the selection is
        // restricted to the modes that can produce planes.
        let decoder = Decoder::builder()
            .platform(Platform::gtx680()) // RGB Auto picks a GPU mode here
            .threads(4)
            .build()
            .unwrap();
        let jpeg = jpeg_of(96, 96, 3);
        let out = decoder
            .decode(
                &jpeg,
                DecodeOptions::default().format(OutputFormat::PlanarYcc),
            )
            .expect("planar auto decode");
        assert!(out.mode.is_cpu_only(), "picked {:?}", out.mode);
        assert!(out.planar().is_some());
        // Restart-rich image + threads ⇒ the cpu-only ranking should favour
        // parallel entropy over plain SIMD.
        assert_eq!(out.mode, Mode::ParallelEntropy);
    }

    #[test]
    fn salvage_counts_one_pool_use_per_decode() {
        let mut jpeg = jpeg_of(96, 96, 4);
        jpeg.truncate(jpeg.len() - jpeg.len() / 3);
        let dec = Decoder::builder().build().unwrap();
        let out = dec
            .decode(&jpeg, DecodeOptions::with_mode(Mode::Simd).tolerant())
            .unwrap();
        assert!(out.truncated);
        let stats = dec.pool_stats();
        // The failed strict attempt allocated the pools; the salvage pass
        // must not double-count the same decode.
        assert_eq!(stats.coef_allocs + stats.coef_reuses, 1);
        assert_eq!(stats.scratch_allocs + stats.scratch_reuses, 1);
    }

    #[test]
    fn batch_reuses_pools_and_auto_cache() {
        // Distinct images (different seeds ⇒ slightly different entropy
        // densities) of one shape: the q85 4:2:2 batch scenario
        // whose fine-grained density key used to miss the cache on every
        // image (auto_evals: 6, auto_cache_hits: 0).
        let images: Vec<Vec<u8>> = (0..5)
            .map(|i| {
                let mut rgb = Vec::with_capacity(80 * 80 * 3);
                let mut s = 1000 + i as u32;
                for _ in 0..80 * 80 {
                    s = s.wrapping_mul(1664525).wrapping_add(1013904223);
                    rgb.extend_from_slice(&[(s >> 8) as u8, (s >> 16) as u8, (s >> 24) as u8]);
                }
                encode_rgb(
                    &rgb,
                    80,
                    80,
                    &EncodeParams {
                        quality: 84,
                        subsampling: Subsampling::S422,
                        restart_interval: 0,
                    },
                )
                .unwrap()
            })
            .collect();
        let dec = Decoder::builder()
            .platform(Platform::gtx680())
            .build()
            .unwrap();
        let outs = dec.decode_batch(&images, DecodeOptions::default());
        assert_eq!(outs.len(), 5);
        for o in &outs {
            assert!(o.is_ok());
        }
        let stats = dec.pool_stats();
        // One allocation, four reuses: the batch amortized the pools.
        assert_eq!(stats.coef_allocs, 1);
        assert_eq!(stats.coef_reuses, 4);
        assert_eq!(stats.scratch_allocs, 1);
        assert_eq!(stats.scratch_reuses, 4);
        // Same shape + near-identical density ⇒ one model evaluation, every
        // later image served from the cache.
        assert_eq!(stats.auto_evals, 1);
        assert_eq!(stats.auto_cache_hits, images.len() as u64 - 1);
    }

    #[test]
    fn batched_gpu_decode_coalesces_h2d() {
        // Four images forced through the whole-image GPU mode: a batch must
        // ship ONE coalesced transfer (the PCIe fixed cost paid once),
        // produce pixels bit-identical to solo decodes, and attribute the
        // batch's H2D time byte-proportionally across the outcomes.
        let images: Vec<Vec<u8>> = (0..4).map(|i| jpeg_of(96, 64 + 16 * i, 0)).collect();
        let opts = DecodeOptions::with_mode(Mode::Gpu);

        let solo = Decoder::builder()
            .platform(Platform::gtx680())
            .build()
            .unwrap();
        let solo_outs: Vec<_> = images
            .iter()
            .map(|j| solo.decode(j, opts).unwrap())
            .collect();
        let s = solo.pool_stats();
        assert_eq!(s.h2d_transfers, images.len() as u64); // one per decode
        assert!(s.h2d_bytes > 0);

        let batched = Decoder::builder()
            .platform(Platform::gtx680())
            .build()
            .unwrap();
        let batch_outs = batched.decode_batch(&images, opts);
        let b = batched.pool_stats();
        assert_eq!(b.h2d_transfers, 1, "one transfer per batch, not per image");
        assert_eq!(b.h2d_bytes, s.h2d_bytes, "same payload bytes cross the bus");

        let mut solo_h2d = 0.0;
        let mut batch_h2d = 0.0;
        for (got, want) in batch_outs.iter().zip(&solo_outs) {
            let got = got.as_ref().unwrap();
            assert_eq!(got.image.data, want.image.data);
            assert_eq!(got.mode, Mode::Gpu);
            assert!(got.times.h2d > 0.0);
            solo_h2d += want.times.h2d;
            batch_h2d += got.times.h2d;
        }
        // Solo pays the PCIe latency four times; the batch pays it once.
        let saved = solo_h2d - batch_h2d;
        let lat = batched.platform().pcie.latency_us * 1e-6;
        assert!(
            (saved - 3.0 * lat).abs() < 1e-12,
            "batch should save exactly 3 latencies: saved {saved:e}, latency {lat:e}"
        );
    }

    #[test]
    fn mixed_batch_counts_transfers_per_path() {
        // Auto on a weak-GPU platform routes these images to CPU modes: the
        // batch must not stage a coalesced transfer at all, and fall back
        // per-image with the exact same results as solo decodes.
        let images: Vec<Vec<u8>> = (0..3).map(|_| jpeg_of(64, 64, 0)).collect();
        let dec = Decoder::builder()
            .platform(Platform::gt430())
            .build()
            .unwrap();
        let outs = dec.decode_batch(&images, DecodeOptions::default());
        let solo = Decoder::builder()
            .platform(Platform::gt430())
            .build()
            .unwrap();
        for (o, img) in outs.iter().zip(&images) {
            let o = o.as_ref().unwrap();
            let want = solo.decode(img, DecodeOptions::default()).unwrap();
            assert_eq!(o.image.data, want.image.data);
            assert_eq!(o.mode, want.mode);
        }
        // Decision caching is unchanged by the batch pre-pass: one eval,
        // the rest cache hits — never two lookups per image.
        let s = dec.pool_stats();
        assert_eq!(s.auto_evals, 1);
        assert_eq!(s.auto_cache_hits, images.len() as u64 - 1);
    }

    #[test]
    fn auto_cache_evicts_lru_first_at_cap() {
        // Cap 2, three shapes. Access order a, b, a, c: at c's insertion
        // the cache is full and b — not the refreshed a — is the LRU
        // victim.
        let dec = Decoder::builder().auto_cache_cap(2).build().unwrap();
        let a = jpeg_of(64, 48, 0);
        let b = jpeg_of(80, 48, 0);
        let c = jpeg_of(96, 48, 0);
        for j in [&a, &b, &a, &c] {
            dec.decode(j, DecodeOptions::default()).unwrap();
        }
        let s = dec.stats();
        assert_eq!((s.auto_cache_len, s.auto_cache_cap), (2, 2));
        assert_eq!(s.pool.auto_evals, 3); // a, b, c priced
        assert_eq!(s.pool.auto_cache_hits, 1); // the second a
        assert_eq!(s.pool.auto_evictions, 1); // b evicted for c
                                              // a was refreshed by its second decode, so it is still cached…
        dec.decode(&a, DecodeOptions::default()).unwrap();
        assert_eq!(dec.stats().pool.auto_cache_hits, 2);
        // …while b (the LRU victim) must be re-evaluated, evicting again.
        dec.decode(&b, DecodeOptions::default()).unwrap();
        let s = dec.stats();
        assert_eq!(s.pool.auto_evals, 4);
        assert_eq!(s.pool.auto_evictions, 2);
    }

    #[test]
    fn zero_auto_cache_cap_is_rejected() {
        assert!(matches!(
            Decoder::builder().auto_cache_cap(0).build(),
            Err(BuildError::InvalidAutoCacheCap)
        ));
        assert!(Decoder::builder().auto_cache_cap(1).build().is_ok());
    }

    #[test]
    fn threaded_session_decode_matches_reference() {
        let jpeg = jpeg_of(160, 128, 0);
        let dec = Decoder::builder().build().unwrap();
        let out = dec.decode_threaded(&jpeg).unwrap();
        let want = hetjpeg_jpeg::decoder::decode(&jpeg).unwrap();
        assert_eq!(out.image.data, want.data);
    }

    fn rgb_of(w: usize, h: usize, seed: u32) -> Vec<u8> {
        let mut rgb = Vec::with_capacity(w * h * 3);
        let mut s = seed;
        for _ in 0..w * h {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            rgb.extend_from_slice(&[(s >> 8) as u8, (s >> 16) as u8, (s >> 24) as u8]);
        }
        rgb
    }

    #[test]
    fn progressive_decode_matches_baseline_pixels() {
        use hetjpeg_jpeg::progressive::{encode_rgb_progressive, ScanPreset};
        // Same pixels, same quality, same subsampling ⇒ identical quantized
        // coefficients ⇒ the progressive decode must reproduce the baseline
        // decode bit-for-bit, in every forced render mode.
        let (w, h) = (77usize, 53usize); // deliberately unaligned
        let rgb = rgb_of(w, h, 41);
        for sub in [Subsampling::S444, Subsampling::S422, Subsampling::S420] {
            let params = EncodeParams {
                quality: 86,
                subsampling: sub,
                restart_interval: 0,
            };
            let base = encode_rgb(&rgb, w as u32, h as u32, &params).unwrap();
            let prog =
                encode_rgb_progressive(&rgb, w as u32, h as u32, &params, ScanPreset::Standard10)
                    .unwrap();
            let dec = Decoder::builder().build().unwrap();
            let want = dec.decode(&base, DecodeOptions::default()).unwrap();
            for mode in [Mode::Auto, Mode::Sequential, Mode::Simd, Mode::Pps] {
                let out = dec.decode(&prog, DecodeOptions::with_mode(mode)).unwrap();
                assert!(!out.truncated);
                assert!(out.mode.is_cpu_only(), "picked {:?}", out.mode);
                assert_eq!(
                    out.image.data,
                    want.image.data,
                    "progressive != baseline for {} mode {mode:?}",
                    sub.notation()
                );
            }
            let s = dec.stats();
            assert_eq!(s.progressive.scans_decoded, 4 * 10);
            assert_eq!(s.progressive.refine_passes, 4 * 5);
            assert_eq!(s.progressive.partial_renders, 0);
        }
    }

    #[test]
    fn max_scans_prefix_is_a_partial_render() {
        use hetjpeg_jpeg::progressive::{encode_rgb_progressive, ScanPreset};
        let (w, h) = (64usize, 48usize);
        let rgb = rgb_of(w, h, 7);
        let params = EncodeParams {
            quality: 84,
            subsampling: Subsampling::S420,
            restart_interval: 0,
        };
        let prog =
            encode_rgb_progressive(&rgb, w as u32, h as u32, &params, ScanPreset::Standard10)
                .unwrap();
        let dec = Decoder::builder().build().unwrap();
        let full = dec.decode(&prog, DecodeOptions::default()).unwrap();
        // A one-scan prefix (the interleaved DC scan) renders flat 8×8
        // blocks: a well-defined image, flagged truncated.
        let out = dec
            .decode(&prog, DecodeOptions::default().max_scans(1))
            .unwrap();
        assert!(out.truncated);
        assert_eq!(out.image.data.len(), w * h * 3);
        assert_ne!(out.image.data, full.image.data);
        // A limit at (or past) the script length is a complete decode.
        let all = dec
            .decode(&prog, DecodeOptions::default().max_scans(10))
            .unwrap();
        assert!(!all.truncated);
        assert_eq!(all.image.data, full.image.data);
        let s = dec.stats();
        assert_eq!(s.progressive.partial_renders, 1);
        assert_eq!(s.progressive.scans_decoded, 10 + 1 + 10);
        // Planar output works on the progressive path too.
        let ycc = dec
            .decode(
                &prog,
                DecodeOptions::default().format(OutputFormat::PlanarYcc),
            )
            .unwrap();
        assert_eq!(
            ycc.planar().expect("planar output").to_rgb().data,
            full.image.data
        );
    }

    #[test]
    fn progressive_truncated_stream_salvages_under_tolerant() {
        use hetjpeg_jpeg::progressive::{encode_rgb_progressive, ScanPreset};
        let (w, h) = (64usize, 64usize);
        let rgb = rgb_of(w, h, 99);
        let params = EncodeParams {
            quality: 85,
            subsampling: Subsampling::S422,
            restart_interval: 0,
        };
        let mut prog =
            encode_rgb_progressive(&rgb, w as u32, h as u32, &params, ScanPreset::Standard10)
                .unwrap();
        prog.truncate(prog.len() / 2);
        let dec = Decoder::builder().build().unwrap();
        // Strict refuses the incomplete scan script…
        assert!(dec.decode(&prog, DecodeOptions::default()).is_err());
        // …tolerant renders whatever scans arrived.
        let out = dec
            .decode(&prog, DecodeOptions::default().tolerant())
            .unwrap();
        assert!(out.truncated);
        assert_eq!(out.image.data.len(), w * h * 3);
        assert_eq!(dec.stats().progressive.partial_renders, 1);
    }
}
