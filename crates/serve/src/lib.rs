//! # hetjpeg-serve — multi-session decode server front end
//!
//! The `hetjpeg-core` [`Decoder`](hetjpeg_core::Decoder) session is the
//! unit of scaling: it owns
//! one platform + trained model + pooled scratch and amortizes them across
//! images. This crate scales *across* sessions the way the paper scales
//! across devices — where Sodsong et al. partition one image between CPU
//! and GPU, a server partitions a **stream of requests** between session
//! shards:
//!
//! * a **shard pool** ([`Server`]) of worker threads, each owning its own
//!   `Decoder` session (same platform/model configuration, independent
//!   pools and `Mode::Auto` caches);
//! * an **admission queue** per shard — bounded, so a flooded server
//!   exerts backpressure on submitters instead of growing an unbounded
//!   backlog — whose consumer takes whatever is already queued (up to
//!   [`ServeConfig::max_batch`]) and serves it under one hot session; it
//!   never holds a request back to wait for company;
//! * **shape-keyed routing**: requests are routed to shards by a cheap
//!   header scan of (width, height, subsampling), so images of one shape
//!   land on one session and its per-shape `Auto` decision cache and
//!   re-shaped pooled buffers stay hot — with overflow spill to the next
//!   shard with queue room, so a single-shape workload still uses every
//!   shard;
//! * a **length-prefixed wire protocol** ([`protocol`]) served over TCP or
//!   stdio by the `hetjpeg-serve` binary, plus the in-process
//!   [`ServeHandle`] used by tests and benches.
//!
//! ```
//! use hetjpeg_serve::{ServeConfig, Server};
//! use hetjpeg_corpus::{generate_jpeg, ImageSpec, Pattern};
//! use hetjpeg_jpeg::types::Subsampling;
//!
//! let spec = ImageSpec { width: 96, height: 96,
//!                        pattern: Pattern::PhotoLike { detail: 0.5 }, seed: 9 };
//! let jpeg = generate_jpeg(&spec, 85, Subsampling::S420).unwrap();
//!
//! let server = Server::start(ServeConfig { shards: 2, ..ServeConfig::default() }).unwrap();
//! let handle = server.handle();
//! let out = handle.decode(&jpeg).unwrap();          // synchronous round trip
//! assert_eq!(out.image.width, 96);
//! let ticket = handle.submit(jpeg).unwrap();        // or async: submit…
//! assert!(ticket.wait().is_ok());                   // …and await the ticket
//! let stats = server.shutdown();                    // drains in-flight batches
//! assert_eq!(stats.requests(), 2);
//! ```
//!
//! See `docs/ARCHITECTURE.md` for a request's full path through the
//! server and how the pieces map onto the paper.

#![warn(missing_docs)]

pub mod fault;
#[cfg(unix)]
pub mod frontend;
pub mod pool;
pub mod protocol;

pub use pool::{
    Notifier, RequestOptions, ServeHandle, ServeReply, Served, ServedStream, Server, ServerStats,
    ShardStats, StreamEnd, StreamEvent, StreamTile, SubmitOptions, Ticket, TryEvent, TILE_POOL_CAP,
};

use hetjpeg_core::{DecodeOptions, Platform, DEFAULT_AUTO_CACHE_CAP};
use std::fmt;
use std::time::Duration;

/// Configuration for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of session shards (worker threads, each owning one
    /// `Decoder`). Defaults to the host's available parallelism, capped
    /// at 8.
    pub shards: usize,
    /// Per-shard admission-queue depth. A submit against a full queue
    /// blocks — backpressure, not unbounded buffering.
    pub queue_depth: usize,
    /// Maximum already-queued requests a shard worker takes off its queue
    /// in one go (it never waits for more to arrive).
    pub max_batch: usize,
    /// `Mode::Auto` decision-cache cap for each shard's session.
    pub auto_cache_cap: usize,
    /// Target platform shared by every shard.
    pub platform: Platform,
    /// Trained performance model; `None` uses the platform's analytic
    /// seed.
    pub model: Option<hetjpeg_core::model::PerformanceModel>,
    /// Entropy worker threads per session (`Mode::ParallelEntropy`).
    pub threads: usize,
    /// Decode options applied to every request (mode, strictness,
    /// `max_pixels` guard). The output format must be RGB for the wire
    /// protocol.
    pub options: DecodeOptions,
    /// Per-request decode budget for *progressive* (SOF2) images. When a
    /// progressive request is predicted (from the shard's measured decode
    /// throughput) to exceed this budget, the shard answers with a prefix
    /// render instead: `max_scans` is reduced to the largest scan prefix
    /// whose predicted time fits, and the outcome is flagged truncated.
    /// Baseline images and the first progressive request of a shard (which
    /// seeds the throughput estimate) always decode in full. `None`
    /// disables pacing.
    pub scan_deadline: Option<Duration>,
    /// Deterministic fault-injection schedule ([`fault::FaultPlan`]); `None`
    /// (the default) disables injection entirely. [`Server::start`] also
    /// honors the `HETJPEG_FAULT` environment variable when this is `None`.
    pub fault_plan: Option<std::sync::Arc<fault::FaultPlan>>,
    /// Consecutive decode *panics* on one shard that trip its circuit
    /// breaker (an open breaker routes new requests to other shards and
    /// fail-fasts its own queue until a backoff probe succeeds). Decode
    /// errors — a malformed request — do not count. Must be ≥ 1.
    pub breaker_threshold: u32,
    /// Initial breaker cooldown: how long a tripped shard waits before the
    /// half-open probe. Doubles on each re-trip, capped at 64× the base.
    pub breaker_cooldown: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let shards = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8);
        ServeConfig {
            shards,
            queue_depth: 64,
            max_batch: 8,
            auto_cache_cap: DEFAULT_AUTO_CACHE_CAP,
            platform: Platform::gtx560(),
            model: None,
            threads: 4,
            options: DecodeOptions::default(),
            scan_deadline: None,
            fault_plan: None,
            breaker_threshold: 5,
            breaker_cooldown: Duration::from_millis(200),
        }
    }
}

/// Errors surfaced by the server API.
#[derive(Debug)]
pub enum ServeError {
    /// The server configuration was rejected (invalid shard count, or the
    /// underlying session builder refused the platform/model/threads).
    Config(ConfigError),
    /// The server is shutting down and no longer admits requests.
    ShuttingDown,
    /// The decode itself failed; carries the codec error verbatim.
    Decode(hetjpeg_jpeg::error::Error),
    /// The shard worker died before answering (a bug, not a request
    /// error).
    WorkerGone,
    /// The decode panicked. The panic was confined to this request: the
    /// shard rebuilt its session and kept serving. Carries the panic
    /// payload's message.
    Panicked(String),
    /// The request was shed — its deadline is not achievable at current
    /// load, or its home shard's circuit breaker is open. Carries a
    /// retry-after hint derived from the shard's estimated drain time.
    Busy {
        /// Suggested wait before retrying.
        retry_after: Duration,
    },
    /// The request was queued when the server shut down; it was drained
    /// with this explicit error instead of being dropped silently.
    Shutdown,
}

/// Why [`Server::start`] rejected a [`ServeConfig`].
#[derive(Debug)]
pub enum ConfigError {
    /// `shards` was zero.
    ZeroShards,
    /// `queue_depth` was zero (every submit would deadlock).
    ZeroQueueDepth,
    /// `max_batch` was zero (a batch could never form).
    ZeroMaxBatch,
    /// `breaker_threshold` was zero (the breaker would trip before the
    /// first request).
    ZeroBreakerThreshold,
    /// The `HETJPEG_FAULT` spec (or `ServeConfig::fault_plan` source
    /// string) failed to parse.
    Fault(fault::FaultParseError),
    /// The per-shard session builder rejected the configuration.
    Session(hetjpeg_core::BuildError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Config(c) => write!(f, "invalid server configuration: {c}"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Decode(e) => write!(f, "decode failed: {e}"),
            ServeError::WorkerGone => write!(f, "shard worker terminated unexpectedly"),
            ServeError::Panicked(msg) => {
                write!(f, "decode panicked (session rebuilt): {msg}")
            }
            ServeError::Busy { retry_after } => write!(
                f,
                "busy: deadline not achievable, retry after {}us",
                retry_after.as_micros()
            ),
            ServeError::Shutdown => {
                write!(f, "request drained by server shutdown before decode")
            }
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroShards => write!(f, "shards must be >= 1"),
            ConfigError::ZeroQueueDepth => write!(f, "queue_depth must be >= 1"),
            ConfigError::ZeroMaxBatch => write!(f, "max_batch must be >= 1"),
            ConfigError::ZeroBreakerThreshold => {
                write!(f, "breaker_threshold must be >= 1")
            }
            ConfigError::Fault(e) => write!(f, "fault plan: {e}"),
            ConfigError::Session(e) => write!(f, "session builder: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}
impl std::error::Error for ConfigError {}
