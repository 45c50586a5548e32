//! The shard pool: worker threads owning one [`Decoder`] session each, fed
//! by bounded per-shard admission queues whose consumers take whatever is
//! already queued and decode it under one hot session.
//!
//! ## Why shards, and why shape-keyed routing
//!
//! A `Decoder` serializes decodes on its internal workspace lock — that is
//! what lets it reuse one coefficient buffer and one render scratch
//! across images. Throughput therefore scales by adding *sessions*, not by
//! hammering one session from more threads. Each shard worker owns its
//! session outright, so shards decode truly concurrently.
//!
//! Routing by image shape (width, height, subsampling — read by a cheap
//! header scan, no entropy work) keeps each session's per-shape state hot:
//! the pooled buffers are re-shaped only when the shape actually changes,
//! and the `Mode::Auto` decision cache sees the same keys again and again
//! instead of a shuffled mix. The same idea at a different scale as the
//! paper's partitioning: send work where its state already lives.
//!
//! Affinity is a preference, not a pin: when a shape's home queue is full
//! the request spills to the next shard with room, so a workload of one
//! shape (all thumbnails the same size) still fans out across every shard
//! instead of serializing behind one worker. The spilled-to session pays
//! one extra `Auto` evaluation and a buffer re-shape — both cheap — and
//! then is hot for that shape too.
//!
//! ## Batch admission
//!
//! Each worker blocks on its queue; on the first arrival it also takes
//! whatever else is **already** queued, up to [`ServeConfig::max_batch`],
//! and serves that group under its session, one request at a time. It
//! never waits for company: a lone request starts decoding the moment the
//! worker is free, and under load the group is as large as the backlog —
//! batching that costs no latency because nothing is held back to form
//! it. `batches`, `requests` and the `max_batch` high-water mark in
//! [`ShardStats`] therefore measure real queueing, not a window. The
//! queues are bounded: a flooded server blocks submitters (backpressure)
//! rather than queueing without limit.
//!
//! ## Completion notification
//!
//! A submitter that cannot block on its [`Ticket`] — the event-driven
//! front end — passes a [`Notifier`] with the request
//! ([`ServeHandle::submit_nonblocking`]). The worker calls it after every
//! message it sends toward that request: the ticket's reply and each
//! [`StreamEvent`], on every exit of the serve path (decode, decode
//! error, shed, breaker-open, shutdown drain, recovered panic), and once
//! more when it lets go of the request, so even a worker that dies
//! mid-request leaves its submitter a wake-up to find the hang-up with.
//! Blocking submitters pass none and pay nothing.
//!
//! ## Failure domains (PR 8)
//!
//! Every decode runs inside `catch_unwind`: a panicking request is
//! answered with [`ServeError::Panicked`], the shard's poisoned session is
//! rebuilt (fresh pools, empty `Auto` cache — its *statistics* survive via
//! a retired-totals accumulator), and the worker keeps serving. A
//! per-shard **circuit breaker** trips after
//! [`ServeConfig::breaker_threshold`] consecutive panics: an open shard is
//! routed around at submit time (overflow-spill reuse) and fail-fasts its
//! own queue with [`ServeError::Busy`] until a backoff probe half-opens
//! it; a successful probe closes it again. During shutdown an open shard
//! drains its queue with explicit [`ServeError::Shutdown`] errors instead
//! of silently dropping tickets.
//!
//! ## SLO admission (PR 8)
//!
//! [`ServeHandle::submit_with`] accepts an optional per-request deadline.
//! At admission the home shard's completion time is estimated as its
//! queued work plus this request's predicted cost — `Decoder::predict`'s
//! §5.1 virtual seconds scaled by the shard's observed wall-per-virtual
//! ratio for baseline images, measured bytes/s throughput for progressive
//! ones. Infeasible requests are shed with [`ServeError::Busy`] (carrying
//! a retry-after hint) or, when [`SubmitOptions::degrade`] opts in,
//! admitted degraded: progressive sources fall back to a `max_scans`
//! prefix render sized to the remaining budget, baseline sources to
//! [`hetjpeg_core::Strictness::Tolerant`]. Estimates start optimistic (an
//! uncalibrated shard admits everything) and self-correct as the shard
//! observes its own workload.

use crate::fault::{FaultPlan, FaultSite};
use crate::{ConfigError, ServeConfig, ServeError};
use hetjpeg_core::timeline::{Breakdown, Trace};
use hetjpeg_core::{
    DecodeOptions, DecodeOutcome, Decoder, Mode, OutputFormat, SessionStats, SimdLevel, Strictness,
};
use hetjpeg_jpeg::types::RgbImage;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{mpsc, Arc, Mutex, Once};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One queued decode request: the image bytes, the reply slot the worker
/// answers into, and the admission-control context attached at submit.
struct Request {
    data: Vec<u8>,
    reply: Notifying<Result<ServeReply, ServeError>>,
    /// Per-request decode overrides (and the streaming opt-in).
    options: RequestOptions,
    /// Absolute completion deadline, when the submitter set one.
    deadline: Option<Instant>,
    /// The submitter opted into degraded service instead of shedding.
    degrade: bool,
    /// Admission already judged the deadline infeasible: the worker must
    /// degrade (the submitter opted in) rather than decode in full.
    degrade_now: bool,
    /// Predicted §5.1 virtual microseconds for this image, when admission
    /// priced it — what calibrates the shard's wall-per-virtual ratio.
    predicted_virtual_us: Option<u64>,
    /// Microseconds of estimated work charged to the serving shard's
    /// queue; the worker credits it back when the request completes.
    charged_us: u64,
}

/// Completion callback of an event-driven submitter
/// ([`ServeHandle::submit_nonblocking`]): the shard worker calls it after
/// every message it sends toward the request's [`Ticket`] or
/// [`ServedStream`], so a loop that cannot block on those channels knows
/// when to look. It runs on the worker between decodes — keep it cheap and
/// never block in it. Spurious calls must be harmless.
pub type Notifier = Arc<dyn Fn() + Send + Sync>;

/// The worker's sending half of a reply or stream-event channel, paired
/// with the submitter's [`Notifier`] so that "send, then tell the
/// submitter to look" is one operation no exit path can forget half of.
struct Notifying<T> {
    // Field order is drop order: the channel disconnects first and the
    // drop notification fires second, so a submitter woken because the
    // worker let go of an unanswered request finds the hang-up, not an
    // empty channel.
    tx: mpsc::Sender<T>,
    notifier: NotifyOnDrop,
}

/// Fires the notifier once more when the worker drops its end — the
/// backstop for a request that is never answered (a worker dying outside
/// `catch_unwind`, a request dropped on a closed queue).
struct NotifyOnDrop(Option<Notifier>);

impl Drop for NotifyOnDrop {
    fn drop(&mut self) {
        if let Some(notify) = &self.0 {
            notify();
        }
    }
}

impl<T> Notifying<T> {
    fn new(tx: mpsc::Sender<T>, notifier: Option<Notifier>) -> Notifying<T> {
        Notifying {
            tx,
            notifier: NotifyOnDrop(notifier),
        }
    }

    /// A second channel toward the same submitter (a reply's stream).
    fn sibling<U>(&self, tx: mpsc::Sender<U>) -> Notifying<U> {
        Notifying::new(tx, self.notifier.0.clone())
    }

    /// Send, then notify — in that order, so the message is in the channel
    /// before the submitter is told to look for it.
    fn send(&self, msg: T) -> Result<(), mpsc::SendError<T>> {
        let sent = self.tx.send(msg);
        if let Some(notify) = &self.notifier.0 {
            notify();
        }
        sent
    }
}

/// A successful server response: the decode outcome plus whether the
/// server degraded the request (prefix render / tolerant salvage) to meet
/// its deadline.
#[derive(Debug, Clone)]
pub struct Served {
    /// The decode outcome (bit-identical to a direct [`Decoder`] call
    /// unless `degraded`).
    pub outcome: DecodeOutcome,
    /// True when the server applied the degradation ladder to this request
    /// instead of shedding it ([`SubmitOptions::degrade`]).
    pub degraded: bool,
}

/// A worker's answer to one request: either a whole-image response or the
/// receiving end of a row-tile stream ([`RequestOptions::streaming`]).
// `Whole` dominates the size, but the enum is moved at most twice per
// request (worker → reply slot → caller) and never stored in bulk, so the
// indirection a `Box` buys is all cost.
#[allow(clippy::large_enum_variant)]
pub enum ServeReply {
    /// The whole decoded image, buffered.
    Whole(Served),
    /// A chunked response: consume [`StreamEvent`]s as the worker renders
    /// MCU-row tiles. Peak buffering is bounded by the worker's tile pool
    /// ([`TILE_POOL_CAP`] tiles), not the image size.
    Stream(ServedStream),
}

impl std::fmt::Debug for ServeReply {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeReply::Whole(s) => f.debug_tuple("Whole").field(s).finish(),
            ServeReply::Stream(_) => f.debug_tuple("Stream").finish(),
        }
    }
}

/// Receiving side of a streamed response: a sequence of
/// [`StreamEvent::Begin`], zero or more [`StreamEvent::Tile`]s in row
/// order, and a terminal [`StreamEvent::End`].
pub struct ServedStream {
    rx: mpsc::Receiver<StreamEvent>,
}

/// Outcome of [`ServedStream::try_next`].
pub enum TryEvent {
    /// The next event.
    Event(StreamEvent),
    /// Nothing available yet; the worker is still rendering.
    Pending,
    /// The worker hung up without a terminal event (a bug or a killed
    /// worker) — treat as [`ServeError::WorkerGone`].
    Gone,
}

impl ServedStream {
    /// Block for the next event; `None` once the stream is exhausted (the
    /// terminal [`StreamEvent::End`] was already delivered) or the worker
    /// died without one.
    pub fn recv(&self) -> Option<StreamEvent> {
        self.rx.recv().ok()
    }

    /// Non-blocking [`ServedStream::recv`] — what the event-driven front
    /// end pumps from its poll loop.
    pub fn try_next(&self) -> TryEvent {
        match self.rx.try_recv() {
            Ok(ev) => TryEvent::Event(ev),
            Err(mpsc::TryRecvError::Empty) => TryEvent::Pending,
            Err(mpsc::TryRecvError::Disconnected) => TryEvent::Gone,
        }
    }
}

/// One event of a streamed response.
pub enum StreamEvent {
    /// Stream prologue: image geometry and the degrade flag, sent before
    /// the first tile.
    Begin {
        /// Image width in pixels.
        width: u32,
        /// Image height in pixels.
        height: u32,
        /// The response is degraded (scan-prefix render / tolerant
        /// salvage) — the streamed mirror of [`Served::degraded`].
        degraded: bool,
    },
    /// One MCU-row tile of interleaved RGB, in top-to-bottom row order.
    Tile(StreamTile),
    /// Terminal event: the stream summary, or the error that ended it.
    /// Always the last event of a stream. An `Err` *before* any `Begin`
    /// means the request failed whole (decode error, shed, shutdown); an
    /// `Err` after `Begin` aborts a partially delivered image.
    End(Result<StreamEnd, ServeError>),
}

/// Summary carried by a successful [`StreamEvent::End`].
#[derive(Debug, Clone, Copy)]
pub struct StreamEnd {
    /// Tiles delivered.
    pub tiles: u64,
    /// The pixels are a salvage/prefix render, same meaning as
    /// [`DecodeOutcome::truncated`].
    pub truncated: bool,
    /// Render path used (output bytes are mode-invariant).
    pub mode: Mode,
    /// Image width in pixels (repeated from `Begin` so `End`-only
    /// consumers need no cross-event state).
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
    /// The response was degraded (repeated from `Begin`).
    pub degraded: bool,
}

/// One row tile of a streamed response. The backing buffer is borrowed
/// from the shard worker's bounded tile pool; **dropping the tile returns
/// it**. A consumer that holds tiles (or stops consuming) therefore
/// backpressures the worker after [`TILE_POOL_CAP`] tiles in flight —
/// that bound, not the image height, is the peak response memory.
pub struct StreamTile {
    buf: Vec<u8>,
    pool: mpsc::Sender<Vec<u8>>,
}

impl StreamTile {
    /// The tile's interleaved RGB bytes (`rows * width * 3`).
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }
}

impl std::fmt::Debug for StreamTile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamTile")
            .field("len", &self.buf.len())
            .finish()
    }
}

impl Drop for StreamTile {
    fn drop(&mut self) {
        // Hand the allocation back to the worker's pool; if the worker is
        // gone the buffer simply frees.
        let _ = self.pool.send(std::mem::take(&mut self.buf));
    }
}

/// Receipt for a submitted request; [`Ticket::wait`] blocks until the
/// shard worker has decoded the image.
pub struct Ticket {
    rx: mpsc::Receiver<Result<ServeReply, ServeError>>,
}

impl Ticket {
    /// Block until the decode finishes and return its outcome. Streamed
    /// replies are reassembled into a whole image first.
    pub fn wait(self) -> Result<DecodeOutcome, ServeError> {
        self.wait_served().map(|s| s.outcome)
    }

    /// Block until the decode finishes and return the full server
    /// response, including the degradation flag. Streamed replies are
    /// reassembled into a whole image first (tile bytes are bit-identical
    /// to the whole-image decode, so the result is indistinguishable from
    /// a non-streamed response except for the zeroed timing breakdown).
    pub fn wait_served(self) -> Result<Served, ServeError> {
        match self.wait_reply()? {
            ServeReply::Whole(s) => Ok(s),
            ServeReply::Stream(stream) => assemble_stream(&stream),
        }
    }

    /// Block until the worker answers and return the raw reply — the only
    /// waiter that surfaces a streamed response without reassembly.
    pub fn wait_reply(self) -> Result<ServeReply, ServeError> {
        match self.rx.recv() {
            Ok(r) => r,
            Err(_) => Err(ServeError::WorkerGone),
        }
    }

    /// Non-blocking poll: `None` while the worker has not answered yet.
    /// A dead worker answers [`ServeError::WorkerGone`]. The event-driven
    /// front end pumps tickets with this when the request's [`Notifier`]
    /// has fired.
    pub fn try_reply(&self) -> Option<Result<ServeReply, ServeError>> {
        match self.rx.try_recv() {
            Ok(r) => Some(r),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::WorkerGone)),
        }
    }

    /// The ticket of a request the pool refused at submission: already
    /// answered with the refusal, so a submitter that keeps its replies in
    /// a queue of tickets needs no second kind of entry.
    #[cfg(unix)] // its one user, the event front end, is unix-only
    pub(crate) fn refused(error: ServeError) -> Ticket {
        let (tx, rx) = mpsc::channel();
        let _ = tx.send(Err(error));
        Ticket { rx }
    }

    /// A ticket with no server behind it: the returned closure plays the
    /// worker — it answers (send, then notify) when called with `Some`,
    /// and lets go of the request unanswered on `None` or when dropped.
    #[cfg(test)]
    pub(crate) fn detached(
        notifier: Option<Notifier>,
    ) -> (
        Ticket,
        impl FnOnce(Option<Result<ServeReply, ServeError>>) + Send,
    ) {
        let (tx, rx) = mpsc::channel();
        let slot = Notifying::new(tx, notifier);
        (Ticket { rx }, move |reply| {
            if let Some(reply) = reply {
                let _ = slot.send(reply);
            }
        })
    }
}

/// Reassemble a streamed reply into a whole [`Served`] response
/// ([`Ticket::wait_served`]'s compatibility path).
fn assemble_stream(stream: &ServedStream) -> Result<Served, ServeError> {
    let mut dims = (0usize, 0usize);
    let mut degraded = false;
    let mut data = Vec::new();
    loop {
        match stream.recv() {
            Some(StreamEvent::Begin {
                width,
                height,
                degraded: d,
            }) => {
                dims = (width as usize, height as usize);
                degraded = d;
                data.reserve(dims.0 * dims.1 * 3);
            }
            Some(StreamEvent::Tile(t)) => data.extend_from_slice(t.bytes()),
            Some(StreamEvent::End(Ok(end))) => {
                return Ok(Served {
                    outcome: DecodeOutcome {
                        image: RgbImage {
                            width: dims.0,
                            height: dims.1,
                            data,
                        },
                        ycc: None,
                        // A streamed decode reports no per-stage timing;
                        // the tile pipeline is not instrumented per stage.
                        times: Breakdown::default(),
                        trace: Trace::default(),
                        partition: None,
                        mode: end.mode,
                        truncated: end.truncated,
                    },
                    degraded: degraded || end.degraded,
                });
            }
            Some(StreamEvent::End(Err(e))) => return Err(e),
            None => return Err(ServeError::WorkerGone),
        }
    }
}

/// Per-request decode overrides, carried in-process via
/// [`SubmitOptions::options`] and on the wire via the v2 options block.
/// Every field defaults to "inherit the server's configuration". Overrides
/// compose with the server's own guards: `max_pixels` and `max_scans` take
/// the **minimum** of the request's and the server's values, and
/// `simd_cap` can only lower the session's dispatch level, never raise it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestOptions {
    /// Output format override. Planar YCC is in-process only — the wire
    /// protocol carries interleaved RGB, so a wire request overriding to
    /// planar is answered with an in-band error.
    pub format: Option<OutputFormat>,
    /// Strictness override (e.g. a client preferring tolerant salvage of
    /// damaged streams over a hard error).
    pub strictness: Option<Strictness>,
    /// Per-request decompression-bomb guard, min-composed with the
    /// server's.
    pub max_pixels: Option<u64>,
    /// Cap the kernel dispatch level for this request (reproducibility /
    /// debugging hook; output bytes are identical at every level).
    pub simd_cap: Option<SimdLevel>,
    /// Progressive scan prefix, min-composed with the server's pacing.
    pub max_scans: Option<u32>,
    /// The client accepts a row-tile streamed response. The worker streams
    /// when this is set and the effective output format is RGB; otherwise
    /// it falls back to a whole-image reply.
    pub streaming: bool,
}

/// Per-request submission options ([`ServeHandle::submit_with`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubmitOptions {
    /// Complete-by deadline, relative to submission. `None` (default)
    /// disables SLO admission for this request.
    pub deadline: Option<Duration>,
    /// When the deadline is judged infeasible, degrade the request
    /// (progressive → scan-prefix render, baseline → tolerant salvage)
    /// instead of shedding it with [`ServeError::Busy`].
    pub degrade: bool,
    /// Per-request decode overrides (output format, strictness, guards,
    /// SIMD cap, scan prefix) and the streaming opt-in.
    pub options: RequestOptions,
}

/// Monotone per-shard counters, updated by the worker (and, for admission
/// sheds, the submitter), read by [`Server::stats`].
#[derive(Default)]
struct ShardCounters {
    requests: AtomicU64,
    batches: AtomicU64,
    decode_errors: AtomicU64,
    max_batch: AtomicU64,
    deadline_partials: AtomicU64,
    panics_recovered: AtomicU64,
    sessions_rebuilt: AtomicU64,
    breaker_trips: AtomicU64,
    shed: AtomicU64,
    degraded: AtomicU64,
    shutdown_drained: AtomicU64,
    streamed: AtomicU64,
    stream_tile_peak: AtomicU64,
}

/// A snapshot of one shard's counters plus its session's statistics.
#[derive(Debug, Clone, Copy)]
pub struct ShardStats {
    /// Requests decoded by this shard.
    pub requests: u64,
    /// Coalesced batches served (each covers one admission group).
    pub batches: u64,
    /// Requests whose decode returned an error.
    pub decode_errors: u64,
    /// Largest batch the admission loop coalesced.
    pub max_batch: u64,
    /// Progressive requests answered with a deadline-paced prefix render
    /// ([`crate::ServeConfig::scan_deadline`]).
    pub deadline_partials: u64,
    /// Decode panics confined to their request (answered with
    /// [`ServeError::Panicked`], worker kept serving).
    pub panics_recovered: u64,
    /// Sessions rebuilt after a panic poisoned the previous one.
    pub sessions_rebuilt: u64,
    /// Circuit-breaker trips (threshold consecutive panics, or a failed
    /// half-open probe).
    pub breaker_trips: u64,
    /// Requests shed with [`ServeError::Busy`] — deadline infeasible at
    /// admission, deadline already missed at decode, or breaker open.
    pub shed: u64,
    /// Requests served degraded instead of shed ([`SubmitOptions::degrade`]).
    pub degraded: u64,
    /// Queued requests drained with [`ServeError::Shutdown`] when the
    /// server shut down while this shard's breaker was open.
    pub shutdown_drained: u64,
    /// Requests answered as row-tile streams ([`RequestOptions::streaming`]).
    pub streamed: u64,
    /// High-water mark of stream tiles in flight at once from this shard —
    /// the observable proof that streamed responses buffer at most
    /// [`TILE_POOL_CAP`] tiles, not the whole image.
    pub stream_tile_peak: u64,
    /// The shard session's pool/cache statistics (allocations amortized,
    /// `Auto` evaluations, cache hits, evictions, cache occupancy),
    /// *cumulative across session rebuilds*.
    pub session: SessionStats,
}

/// Aggregated server statistics: one [`ShardStats`] per shard.
#[derive(Debug, Clone)]
pub struct ServerStats {
    /// Per-shard snapshots, in shard order.
    pub shards: Vec<ShardStats>,
}

impl ServerStats {
    /// Total requests decoded.
    pub fn requests(&self) -> u64 {
        self.shards.iter().map(|s| s.requests).sum()
    }

    /// Total coalesced batches served.
    pub fn batches(&self) -> u64 {
        self.shards.iter().map(|s| s.batches).sum()
    }

    /// Total requests whose decode errored.
    pub fn decode_errors(&self) -> u64 {
        self.shards.iter().map(|s| s.decode_errors).sum()
    }

    /// Mean images per batch — the admission loop's amortization factor.
    pub fn mean_batch(&self) -> f64 {
        let b = self.batches();
        if b == 0 {
            0.0
        } else {
            self.requests() as f64 / b as f64
        }
    }

    /// The kernel dispatch level the shard sessions decode at, when every
    /// shard agrees (they always do — shards are built identically from
    /// one config; `None` only for an empty shard list). The smoke test
    /// asserts this against the host's detected level so a silent fallback
    /// to scalar can't masquerade as a passing end-to-end run.
    pub fn simd_level(&self) -> Option<hetjpeg_core::SimdLevel> {
        let first = self.shards.first().map(|s| s.session.simd_level)?;
        self.shards
            .iter()
            .all(|s| s.session.simd_level == first)
            .then_some(first)
    }

    /// Total `Mode::Auto` decisions served from the per-shard caches.
    pub fn auto_cache_hits(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.session.pool.auto_cache_hits)
            .sum()
    }

    /// Total `Mode::Auto` decisions priced from the model.
    pub fn auto_evals(&self) -> u64 {
        self.shards.iter().map(|s| s.session.pool.auto_evals).sum()
    }

    /// Total `Mode::Auto` cache evictions (LRU, per-shard caps).
    pub fn auto_evictions(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.session.pool.auto_evictions)
            .sum()
    }

    /// Total host→device transfers issued across all shard sessions. A
    /// `decode_batch` that coalesces several images' compacted payloads
    /// counts **one** transfer (PR 9); per-request serving counts one per
    /// GPU region transfer. Cumulative across session rebuilds, so a
    /// fault-induced mid-run rebuild never resets or double-counts it.
    pub fn h2d_transfers(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.session.pool.h2d_transfers)
            .sum()
    }

    /// Total bytes shipped host→device across all shard sessions
    /// (compacted payload + offset table + EOB sidecar under the default
    /// transfer layout). Cumulative across session rebuilds.
    pub fn h2d_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.session.pool.h2d_bytes).sum()
    }

    /// Speculation counters merged across shards (ISSUE 6): how often the
    /// restart-free parallel entropy path ran and what it cost, so the
    /// serve path can observe the speculative mode in production.
    pub fn speculation(&self) -> hetjpeg_jpeg::speculate::SpecStats {
        let mut total = hetjpeg_jpeg::speculate::SpecStats::default();
        for s in &self.shards {
            total.merge(&s.session.spec);
        }
        total
    }

    /// Total speculative segments (chunks) launched across shards.
    pub fn speculative_chunks(&self) -> u64 {
        self.speculation().chunks
    }

    /// Total convergence-prefix MCUs wasted by speculation across shards.
    pub fn speculation_wasted_mcus(&self) -> u64 {
        self.speculation().wasted_mcus
    }

    /// Total MCUs the stitch pass re-decoded exactly across shards.
    pub fn stitch_redecoded_mcus(&self) -> u64 {
        self.speculation().redecoded_mcus
    }

    /// Progressive-decode counters merged across shards (PR 7): scans
    /// decoded, refinement passes, and partial (prefix) renders — so the
    /// serve path can observe the multi-scan subsystem in production.
    pub fn progressive(&self) -> hetjpeg_jpeg::progressive::ProgressiveStats {
        let mut total = hetjpeg_jpeg::progressive::ProgressiveStats::default();
        for s in &self.shards {
            total.merge(&s.session.progressive);
        }
        total
    }

    /// Total progressive requests answered with a deadline-paced prefix
    /// render instead of the full scan sequence.
    pub fn deadline_partials(&self) -> u64 {
        self.shards.iter().map(|s| s.deadline_partials).sum()
    }

    /// Total decode panics confined to their request (PR 8).
    pub fn panics_recovered(&self) -> u64 {
        self.shards.iter().map(|s| s.panics_recovered).sum()
    }

    /// Total shard sessions rebuilt after a panic (PR 8).
    pub fn sessions_rebuilt(&self) -> u64 {
        self.shards.iter().map(|s| s.sessions_rebuilt).sum()
    }

    /// Total circuit-breaker trips (PR 8).
    pub fn breaker_trips(&self) -> u64 {
        self.shards.iter().map(|s| s.breaker_trips).sum()
    }

    /// Total requests shed with [`ServeError::Busy`] (PR 8).
    pub fn shed(&self) -> u64 {
        self.shards.iter().map(|s| s.shed).sum()
    }

    /// Total requests served degraded instead of shed (PR 8).
    pub fn degraded(&self) -> u64 {
        self.shards.iter().map(|s| s.degraded).sum()
    }

    /// Total queued requests drained with [`ServeError::Shutdown`] (PR 8).
    pub fn shutdown_drained(&self) -> u64 {
        self.shards.iter().map(|s| s.shutdown_drained).sum()
    }

    /// Total requests answered as row-tile streams.
    pub fn streamed(&self) -> u64 {
        self.shards.iter().map(|s| s.streamed).sum()
    }

    /// Highest number of stream tiles any shard ever had in flight at
    /// once — bounded by [`TILE_POOL_CAP`] by construction; the streaming
    /// tests assert it to prove peak response buffering stays tile-sized.
    pub fn stream_tile_peak(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.stream_tile_peak)
            .max()
            .unwrap_or(0)
    }
}

/// Circuit-breaker states (`Breaker::state`).
const BREAKER_CLOSED: u8 = 0;
const BREAKER_OPEN: u8 = 1;
const BREAKER_HALF_OPEN: u8 = 2;

/// Per-shard circuit breaker. Only the shard's own worker mutates it (the
/// worker is single-threaded per shard); submitters only read
/// [`Breaker::is_open`] to route around tripped shards, so plain atomic
/// loads/stores suffice — no CAS protocol needed.
struct Breaker {
    /// Consecutive decode *panics* (decode errors don't count — a
    /// malformed request is the client's fault, not the shard's).
    consecutive: AtomicU32,
    state: AtomicU8,
    /// When an open breaker may half-open, in µs since the server epoch.
    open_until_us: AtomicU64,
    /// Current cooldown; doubles on each trip, reset on close.
    cooldown_us: AtomicU64,
}

/// What the worker's breaker gate says about the next request.
enum Gate {
    /// Serve it (normally, or as the half-open probe).
    Admit,
    /// Fail-fast: the breaker is open for this much longer.
    Open(Duration),
}

impl Breaker {
    fn new(base_cooldown_us: u64) -> Breaker {
        Breaker {
            consecutive: AtomicU32::new(0),
            state: AtomicU8::new(BREAKER_CLOSED),
            open_until_us: AtomicU64::new(0),
            cooldown_us: AtomicU64::new(base_cooldown_us),
        }
    }

    /// Worker-side gate, consulted before each decode.
    fn gate(&self, now_us: u64) -> Gate {
        match self.state.load(Ordering::Acquire) {
            BREAKER_OPEN => {
                let until = self.open_until_us.load(Ordering::Acquire);
                if now_us >= until {
                    // Cooldown elapsed: this request is the probe.
                    self.state.store(BREAKER_HALF_OPEN, Ordering::Release);
                    Gate::Admit
                } else {
                    Gate::Open(Duration::from_micros(until - now_us))
                }
            }
            _ => Gate::Admit,
        }
    }

    /// Submitter-side read-only check for routing.
    fn is_open(&self, now_us: u64) -> bool {
        self.state.load(Ordering::Acquire) == BREAKER_OPEN
            && now_us < self.open_until_us.load(Ordering::Acquire)
    }

    /// A decode completed without panicking (decode errors included).
    fn on_success(&self, base_cooldown_us: u64) {
        self.consecutive.store(0, Ordering::Release);
        if self.state.load(Ordering::Acquire) != BREAKER_CLOSED {
            // Half-open probe succeeded: close and forget the backoff.
            self.cooldown_us.store(base_cooldown_us, Ordering::Release);
            self.state.store(BREAKER_CLOSED, Ordering::Release);
        }
    }

    /// A decode panicked; returns true when this trips (or re-trips) the
    /// breaker. A failed half-open probe re-trips immediately regardless
    /// of the threshold.
    fn on_panic(&self, threshold: u32, base_cooldown_us: u64, now_us: u64) -> bool {
        let n = self.consecutive.fetch_add(1, Ordering::AcqRel) + 1;
        let probe_failed = self.state.load(Ordering::Acquire) == BREAKER_HALF_OPEN;
        if !probe_failed && n < threshold {
            return false;
        }
        let cd = self.cooldown_us.load(Ordering::Acquire);
        self.open_until_us.store(now_us + cd, Ordering::Release);
        self.cooldown_us
            .store((cd * 2).min(base_cooldown_us * 64), Ordering::Release);
        self.state.store(BREAKER_OPEN, Ordering::Release);
        true
    }
}

/// Per-shard load estimate and calibration for SLO admission. The queue
/// charge is written by submitters and credited back by the worker (hence
/// signed — the two races harmlessly); the calibration EWMAs are written
/// only by the shard's own worker.
#[derive(Default)]
struct ShardLoad {
    /// Estimated microseconds of work queued on (or running in) the shard.
    queued_us: AtomicI64,
    /// EWMA of wall-seconds per §5.1 virtual second (f64 bits; 0 =
    /// uncalibrated).
    wall_per_virtual: AtomicU64,
    /// EWMA of compressed bytes decoded per wall second (f64 bits; 0 =
    /// uncalibrated). Mirrors the worker's [`Pacer`] for admission use.
    bytes_per_sec: AtomicU64,
}

impl ShardLoad {
    fn queued(&self) -> u64 {
        self.queued_us.load(Ordering::Acquire).max(0) as u64
    }

    fn charge(&self, us: u64) {
        self.queued_us.fetch_add(us as i64, Ordering::AcqRel);
    }

    fn credit(&self, us: u64) {
        self.queued_us.fetch_sub(us as i64, Ordering::AcqRel);
    }

    fn ratio(&self) -> Option<f64> {
        let v = f64::from_bits(self.wall_per_virtual.load(Ordering::Acquire));
        (v > 0.0).then_some(v)
    }

    fn rate(&self) -> Option<f64> {
        let v = f64::from_bits(self.bytes_per_sec.load(Ordering::Acquire));
        (v > 0.0).then_some(v)
    }

    fn observe_ratio(&self, obs: f64) {
        if !obs.is_finite() || obs <= 0.0 {
            return;
        }
        let next = match self.ratio() {
            Some(prev) => 0.7 * prev + 0.3 * obs,
            None => obs,
        };
        self.wall_per_virtual
            .store(next.to_bits(), Ordering::Release);
    }

    fn publish_rate(&self, rate: f64) {
        if rate.is_finite() && rate > 0.0 {
            self.bytes_per_sec.store(rate.to_bits(), Ordering::Release);
        }
    }
}

/// Session statistics retired by panic-recovery rebuilds: the cumulative
/// history of every previous session of one shard, folded into stats
/// snapshots so a rebuild never resets the shard's observable accounting.
#[derive(Default)]
struct RetiredTotals {
    pool: hetjpeg_core::PoolStats,
    spec: hetjpeg_jpeg::speculate::SpecStats,
    progressive: hetjpeg_jpeg::progressive::ProgressiveStats,
}

/// Everything needed to (re)build one shard's `Decoder` session — kept so
/// panic recovery can replace a poisoned session with an identical fresh
/// one.
struct SessionSpec {
    platform: hetjpeg_core::Platform,
    model: hetjpeg_core::model::PerformanceModel,
    threads: usize,
    auto_cache_cap: usize,
}

impl SessionSpec {
    fn build(&self) -> Result<Decoder, hetjpeg_core::BuildError> {
        Decoder::builder()
            .platform(self.platform.clone())
            .model(self.model.clone())
            .threads(self.threads)
            .auto_cache_cap(self.auto_cache_cap)
            .build()
    }
}

struct ShardState {
    /// The shard's current session. The worker holds its own working
    /// clone; this shared slot exists so [`Server::stats`] snapshots the
    /// *current* session even across rebuilds.
    decoder: Mutex<Arc<Decoder>>,
    retired: Mutex<RetiredTotals>,
    counters: ShardCounters,
    breaker: Breaker,
    load: ShardLoad,
    spec: SessionSpec,
}

struct Inner {
    /// Intake side of every shard queue. `None` once shutdown began —
    /// taking the senders is what lets the workers drain and exit.
    senders: Mutex<Option<Vec<crossbeam::channel::Sender<Request>>>>,
    shards: Vec<ShardState>,
    /// Set before intake closes; workers draining a breaker-open queue
    /// answer [`ServeError::Shutdown`] instead of `Busy` once this is set.
    shutting_down: AtomicBool,
    /// Server birth instant; breaker timestamps are µs offsets from it.
    epoch: Instant,
    plan: Option<Arc<FaultPlan>>,
    breaker_threshold: u32,
    breaker_base_us: u64,
    opts: DecodeOptions,
    scan_deadline: Option<Duration>,
}

impl Inner {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

/// The server: a pool of shard workers plus the shared intake state.
///
/// Constructed by [`Server::start`]; hand out [`ServeHandle`]s (cheap
/// clones) to submitters. [`Server::shutdown`] stops intake, drains every
/// in-flight batch, joins the workers and returns the final statistics.
/// Dropping the server without calling `shutdown` performs the same
/// drain-and-join.
pub struct Server {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

/// Cloneable, thread-safe submission handle to a running [`Server`].
#[derive(Clone)]
pub struct ServeHandle {
    inner: Arc<Inner>,
}

/// Install (once per process) a panic hook that stays silent for panics
/// the shard workers are about to catch and convert into error replies —
/// the default hook's backtrace spew would otherwise drown test output —
/// and delegates every other panic to the previously installed hook.
fn install_quiet_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SUPPRESS_PANIC_REPORT.with(|s| s.get()) {
                prev(info);
            }
        }));
    });
}

thread_local! {
    static SUPPRESS_PANIC_REPORT: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// RAII guard that marks panics on this thread as handled (caught and
/// converted to error replies) for the quiet panic hook.
struct SuppressPanicReport;

impl SuppressPanicReport {
    fn new() -> SuppressPanicReport {
        SUPPRESS_PANIC_REPORT.with(|s| s.set(true));
        SuppressPanicReport
    }
}

impl Drop for SuppressPanicReport {
    fn drop(&mut self) {
        SUPPRESS_PANIC_REPORT.with(|s| s.set(false));
    }
}

impl Server {
    /// Validate `config`, build one `Decoder` session per shard and spawn
    /// the shard workers.
    pub fn start(config: ServeConfig) -> Result<Server, ServeError> {
        if config.shards == 0 {
            return Err(ServeError::Config(ConfigError::ZeroShards));
        }
        if config.queue_depth == 0 {
            return Err(ServeError::Config(ConfigError::ZeroQueueDepth));
        }
        if config.max_batch == 0 {
            return Err(ServeError::Config(ConfigError::ZeroMaxBatch));
        }
        if config.breaker_threshold == 0 {
            return Err(ServeError::Config(ConfigError::ZeroBreakerThreshold));
        }
        let plan = match config.fault_plan {
            Some(plan) => Some(plan),
            None => FaultPlan::from_env().map_err(|e| ServeError::Config(ConfigError::Fault(e)))?,
        };
        install_quiet_panic_hook();

        let breaker_base_us = config.breaker_cooldown.as_micros().max(1) as u64;
        let mut senders = Vec::with_capacity(config.shards);
        let mut receivers = Vec::with_capacity(config.shards);
        let mut shards = Vec::with_capacity(config.shards);
        for _ in 0..config.shards {
            let spec = SessionSpec {
                platform: config.platform.clone(),
                model: config
                    .model
                    .clone()
                    .unwrap_or_else(|| config.platform.untrained_model()),
                threads: config.threads,
                auto_cache_cap: config.auto_cache_cap,
            };
            let decoder = Arc::new(
                spec.build()
                    .map_err(|e| ServeError::Config(ConfigError::Session(e)))?,
            );
            let (tx, rx) = crossbeam::channel::bounded::<Request>(config.queue_depth);
            senders.push(tx);
            receivers.push(rx);
            shards.push(ShardState {
                decoder: Mutex::new(decoder),
                retired: Mutex::new(RetiredTotals::default()),
                counters: ShardCounters::default(),
                breaker: Breaker::new(breaker_base_us),
                load: ShardLoad::default(),
                spec,
            });
        }

        let inner = Arc::new(Inner {
            senders: Mutex::new(Some(senders)),
            shards,
            shutting_down: AtomicBool::new(false),
            epoch: Instant::now(),
            plan,
            breaker_threshold: config.breaker_threshold,
            breaker_base_us,
            opts: config.options,
            scan_deadline: config.scan_deadline,
        });

        let mut workers = Vec::with_capacity(config.shards);
        for (i, rx) in receivers.into_iter().enumerate() {
            let worker_inner = Arc::clone(&inner);
            let max_batch = config.max_batch;
            workers.push(
                std::thread::Builder::new()
                    .name(format!("hetjpeg-shard-{i}"))
                    .spawn(move || shard_worker(&worker_inner, i, &rx, max_batch))
                    .expect("spawn shard worker"),
            );
        }

        Ok(Server { inner, workers })
    }

    /// A cloneable submission handle bound to this server.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Snapshot of every shard's counters and session statistics. Session
    /// statistics are cumulative across panic-recovery rebuilds: retired
    /// sessions' totals are folded into the current session's.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            shards: self
                .inner
                .shards
                .iter()
                .map(|s| {
                    let decoder = Arc::clone(&s.decoder.lock().expect("shard decoder slot"));
                    let mut session = decoder.stats();
                    let retired = s.retired.lock().expect("shard retired totals");
                    session.pool.merge(&retired.pool);
                    session.spec.merge(&retired.spec);
                    session.progressive.merge(&retired.progressive);
                    ShardStats {
                        requests: s.counters.requests.load(Ordering::Relaxed),
                        batches: s.counters.batches.load(Ordering::Relaxed),
                        decode_errors: s.counters.decode_errors.load(Ordering::Relaxed),
                        max_batch: s.counters.max_batch.load(Ordering::Relaxed),
                        deadline_partials: s.counters.deadline_partials.load(Ordering::Relaxed),
                        panics_recovered: s.counters.panics_recovered.load(Ordering::Relaxed),
                        sessions_rebuilt: s.counters.sessions_rebuilt.load(Ordering::Relaxed),
                        breaker_trips: s.counters.breaker_trips.load(Ordering::Relaxed),
                        shed: s.counters.shed.load(Ordering::Relaxed),
                        degraded: s.counters.degraded.load(Ordering::Relaxed),
                        shutdown_drained: s.counters.shutdown_drained.load(Ordering::Relaxed),
                        streamed: s.counters.streamed.load(Ordering::Relaxed),
                        stream_tile_peak: s.counters.stream_tile_peak.load(Ordering::Relaxed),
                        session,
                    }
                })
                .collect(),
        }
    }

    /// Graceful shutdown: stop admitting, let every worker drain the
    /// requests already queued (their replies are still delivered — as
    /// decodes on healthy shards, as explicit [`ServeError::Shutdown`]
    /// errors on breaker-open ones), join the workers, and return the
    /// final statistics.
    pub fn shutdown(mut self) -> ServerStats {
        self.close_and_join();
        self.stats()
    }

    fn close_and_join(&mut self) {
        // Order matters: workers must observe the flag before the queue
        // disconnect so breaker-open shards drain with Shutdown (not Busy)
        // errors.
        self.inner.shutting_down.store(true, Ordering::Release);
        // Taking the senders closes every queue once outstanding submit()
        // clones finish their sends; workers then drain buffered requests
        // and exit on the disconnect.
        *self.inner.senders.lock().expect("server intake lock") = None;
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

impl ServeHandle {
    /// Submit an image for decoding; returns a [`Ticket`] to await.
    ///
    /// Admission prefers the image's home shard (shape-keyed, cache-hot)
    /// but never serializes a homogeneous workload behind one worker: when
    /// the home queue is full (or its circuit breaker is open) the request
    /// spills to the next eligible shard with room, and only when *every*
    /// queue is unavailable does the submit block on the home shard
    /// (backpressure).
    pub fn submit(&self, data: Vec<u8>) -> Result<Ticket, ServeError> {
        self.submit_with(data, SubmitOptions::default())
    }

    /// [`Self::submit`] with per-request SLO options. With a deadline set,
    /// admission estimates the home shard's completion time (queued work
    /// plus this request's predicted cost); infeasible requests are shed
    /// with [`ServeError::Busy`] — or admitted degraded when
    /// [`SubmitOptions::degrade`] opts in. An uncalibrated shard admits
    /// optimistically; the worker still sheds or degrades requests whose
    /// deadline has already passed when they reach the front of the queue,
    /// so an admission mistake delays a request but never lets it decode
    /// in full past its deadline silently.
    pub fn submit_with(&self, data: Vec<u8>, options: SubmitOptions) -> Result<Ticket, ServeError> {
        self.submit_impl(data, options, None)
    }

    /// [`Self::submit_with`] that never blocks the caller: when every
    /// eligible shard queue is full the request is rejected with
    /// [`ServeError::Busy`] (retry hint from the home shard's estimated
    /// drain time) instead of falling back to a blocking send. The
    /// event-driven front end submits with this from its single poll
    /// thread, which must never park on a full queue — backpressure is
    /// surfaced to the client as an in-band `Busy` frame instead.
    ///
    /// Nor can that thread park on the ticket, so the worker calls
    /// `notifier` whenever there is something to collect: after the
    /// ticket's reply and after every [`StreamEvent`] of a streamed one
    /// (see [`Notifier`]). Poll with [`Ticket::try_reply`] /
    /// [`ServedStream::try_next`] when it fires.
    pub fn submit_nonblocking(
        &self,
        data: Vec<u8>,
        options: SubmitOptions,
        notifier: Notifier,
    ) -> Result<Ticket, ServeError> {
        self.submit_impl(data, options, Some(notifier))
    }

    /// `notifier` is what tells the two kinds of submitter apart: one that
    /// brings a completion callback is an event loop and must never block
    /// on a full queue; one that brings none waits on its ticket and may
    /// as well wait for queue room.
    fn submit_impl(
        &self,
        data: Vec<u8>,
        options: SubmitOptions,
        notifier: Option<Notifier>,
    ) -> Result<Ticket, ServeError> {
        let block = notifier.is_none();
        let shards = self.inner.shards.len();
        let base = route(&data, shards);
        let home = &self.inner.shards[base];

        // SLO admission: price the request against the home shard.
        let mut predicted_virtual_us = None;
        let mut estimate_us = None;
        if options.deadline.is_some() {
            if hetjpeg_jpeg::progressive::is_progressive(&data) {
                // `Decoder::predict` prices baseline pipelines only; for
                // progressive sources the shard's measured byte throughput
                // is the estimator (same signal as scan pacing).
                estimate_us = home
                    .load
                    .rate()
                    .map(|rate| (data.len() as f64 / rate * 1e6) as u64);
            } else {
                let decoder = Arc::clone(&home.decoder.lock().expect("shard decoder slot"));
                if let Ok(d) = decoder.predict(&data) {
                    let virtual_us = d
                        .predictions
                        .iter()
                        .find(|p| p.mode == d.mode)
                        .map(|p| (p.seconds * 1e6) as u64);
                    predicted_virtual_us = virtual_us;
                    estimate_us = match (virtual_us, home.load.ratio()) {
                        (Some(v), Some(r)) => Some((v as f64 * r) as u64),
                        _ => None,
                    };
                }
            }
        }
        let mut degrade_now = false;
        if let (Some(deadline), Some(est)) = (options.deadline, estimate_us) {
            let completion_us = home.load.queued() + est;
            if completion_us > deadline.as_micros() as u64 {
                if options.degrade {
                    degrade_now = true;
                } else {
                    home.counters.shed.fetch_add(1, Ordering::Relaxed);
                    return Err(ServeError::Busy {
                        retry_after: Duration::from_micros(home.load.queued().max(1000)),
                    });
                }
            }
        }

        let charged_us = estimate_us.unwrap_or(0);
        let (reply, rx) = mpsc::channel();
        let mut req = Request {
            data,
            reply: Notifying::new(reply, notifier),
            options: options.options,
            deadline: options.deadline.map(|d| Instant::now() + d),
            degrade: options.degrade,
            degrade_now,
            predicted_virtual_us,
            charged_us,
        };
        let now_us = self.inner.now_us();
        // The non-blocking pass runs under the intake lock (try_send never
        // blocks); the fallback blocking send happens outside it so a
        // backpressured submitter cannot serialize other submitters or
        // deadlock shutdown.
        let tx = {
            let guard = self.inner.senders.lock().expect("server intake lock");
            let senders = match guard.as_ref() {
                Some(senders) => senders,
                None => return Err(ServeError::ShuttingDown),
            };
            let mut offset = 0;
            loop {
                // Nothing non-blocking worked (every queue full or
                // breaker-open). A blocking submitter falls back to a
                // blocking send on the home shard outside the lock (an
                // open home breaker fail-fasts the request from the
                // worker side); a non-blocking submitter sheds with Busy.
                if offset == shards {
                    if block {
                        break senders[base].clone();
                    }
                    home.counters.shed.fetch_add(1, Ordering::Relaxed);
                    return Err(ServeError::Busy {
                        retry_after: Duration::from_micros(home.load.queued().max(1000)),
                    });
                }
                let idx = (base + offset) % shards;
                // Route around tripped shards; their worker would only
                // fail-fast the request anyway.
                if self.inner.shards[idx].breaker.is_open(now_us) {
                    offset += 1;
                    continue;
                }
                match senders[idx].try_send(req) {
                    Ok(()) => {
                        self.inner.shards[idx].load.charge(charged_us);
                        return Ok(Ticket { rx });
                    }
                    Err(crossbeam::channel::TrySendError::Full(r)) => {
                        req = r;
                        offset += 1;
                    }
                    Err(crossbeam::channel::TrySendError::Disconnected(_)) => {
                        return Err(ServeError::ShuttingDown)
                    }
                }
            }
        };
        tx.send(req).map_err(|_| ServeError::ShuttingDown)?;
        self.inner.shards[base].load.charge(charged_us);
        Ok(Ticket { rx })
    }

    /// Synchronous round trip: submit and wait.
    pub fn decode(&self, data: &[u8]) -> Result<DecodeOutcome, ServeError> {
        self.submit(data.to_vec())?.wait()
    }

    /// Synchronous round trip with SLO options, returning the full
    /// [`Served`] response (outcome + degradation flag).
    pub fn decode_with(&self, data: &[u8], options: SubmitOptions) -> Result<Served, ServeError> {
        self.submit_with(data.to_vec(), options)?.wait_served()
    }

    /// The shard this image would be routed to under shape-keyed routing
    /// (before overflow spill) — the diagnostic tests and fault plans use
    /// to aim shard-targeted rules.
    pub fn home_shard(&self, data: &[u8]) -> usize {
        route(data, self.inner.shards.len())
    }

    /// The active fault-injection plan, when one was configured — the
    /// serving loops use it to wrap connection readers in
    /// [`crate::fault::ChaosReader`] when the plan has read faults.
    pub fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.inner.plan.clone()
    }
}

/// Maximum row tiles one shard may have in flight to stream consumers at
/// once. This bound — not the image height — is a streamed response's peak
/// pixel memory: the worker blocks (briefly) for a returned buffer rather
/// than allocating a fifth tile.
pub const TILE_POOL_CAP: usize = 4;

/// How long the worker waits for a stream consumer to return a tile
/// buffer before declaring the consumer stalled and aborting the stream.
/// Keeps a dead-slow (or wedged) client from pinning a shard worker
/// forever; the consumer sees a terminal error event.
const TILE_STALL_LIMIT: Duration = Duration::from_secs(10);

/// The per-worker pool of row-tile buffers behind [`StreamTile`]:
/// at most [`TILE_POOL_CAP`] buffers circulate between the worker and the
/// stream consumer; dropped tiles return their allocation through the
/// channel.
struct TilePool {
    tx: mpsc::Sender<Vec<u8>>,
    rx: mpsc::Receiver<Vec<u8>>,
    free: Vec<Vec<u8>>,
    in_flight: usize,
}

impl TilePool {
    fn new() -> TilePool {
        let (tx, rx) = mpsc::channel();
        TilePool {
            tx,
            rx,
            free: Vec::new(),
            in_flight: 0,
        }
    }

    /// Take a buffer, blocking (bounded by [`TILE_STALL_LIMIT`]) when the
    /// cap is reached until the consumer returns one — the backpressure
    /// that bounds peak response memory. `None` means the consumer
    /// stalled; the caller aborts the stream.
    fn acquire(&mut self, counters: &ShardCounters) -> Option<Vec<u8>> {
        while let Ok(buf) = self.rx.try_recv() {
            self.in_flight -= 1;
            self.free.push(buf);
        }
        if self.in_flight >= TILE_POOL_CAP {
            match self.rx.recv_timeout(TILE_STALL_LIMIT) {
                Ok(buf) => {
                    self.in_flight -= 1;
                    self.free.push(buf);
                }
                // Disconnect is impossible (the pool holds its own sender);
                // a timeout means the consumer stalled.
                Err(_) => return None,
            }
        }
        self.in_flight += 1;
        counters
            .stream_tile_peak
            .fetch_max(self.in_flight as u64, Ordering::Relaxed);
        Some(self.free.pop().unwrap_or_default())
    }
}

/// Measured decode throughput of one shard, in compressed bytes per
/// second, smoothed over recent requests. Seeds the prediction behind
/// [`crate::ServeConfig::scan_deadline`] and the progressive-admission
/// estimate: whole-request throughput is a deliberately coarse proxy (it
/// folds entropy *and* render cost into one rate), but it needs no model
/// training and self-corrects as the shard observes its own workload.
#[derive(Default)]
struct Pacer {
    bytes_per_sec: Option<f64>,
}

impl Pacer {
    fn observe(&mut self, bytes: usize, took: std::time::Duration) {
        let secs = took.as_secs_f64();
        if secs <= 0.0 {
            return;
        }
        let obs = bytes as f64 / secs;
        self.bytes_per_sec = Some(match self.bytes_per_sec {
            Some(prev) => 0.7 * prev + 0.3 * obs,
            None => obs,
        });
    }
}

/// Decide whether a progressive request must be paced: `Some(k)` means
/// "decode only the first `k` scans" — the largest prefix whose predicted
/// time (scan bytes over the shard's measured throughput) fits the budget,
/// never fewer than the first scan (a DC render is the floor the server
/// promises). `None` means the full scan script fits (or the request is
/// not progressive, or no throughput has been measured yet).
fn paced_scan_limit(
    data: &[u8],
    budget: std::time::Duration,
    bytes_per_sec: Option<f64>,
) -> Option<usize> {
    let rate = bytes_per_sec?;
    if !hetjpeg_jpeg::progressive::is_progressive(data) {
        return None;
    }
    let parsed = hetjpeg_jpeg::progressive::parse_progressive(data).ok()?;
    let total: usize = parsed.scans.iter().map(|s| s.data.len()).sum();
    let budget_bytes = rate * budget.as_secs_f64();
    if total as f64 <= budget_bytes {
        return None;
    }
    let mut cum = 0usize;
    let mut k = 0usize;
    for scan in &parsed.scans {
        cum += scan.data.len();
        if cum as f64 <= budget_bytes {
            k += 1;
        } else {
            break;
        }
    }
    Some(k.max(1))
}

/// Extract a human-readable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The per-shard consumer: block for the first request, take whatever else
/// is already queued (natural batching — the worker never waits for
/// company), then serve each request of the group through the full
/// resilience pipeline ([`serve_one`]).
fn shard_worker(
    inner: &Inner,
    shard: usize,
    rx: &crossbeam::channel::Receiver<Request>,
    max_batch: usize,
) {
    let state = &inner.shards[shard];
    let mut decoder = Arc::clone(&state.decoder.lock().expect("shard decoder slot"));
    let mut batch: Vec<Request> = Vec::with_capacity(max_batch);
    let mut pacer = Pacer::default();
    let mut tiles = TilePool::new();
    loop {
        match rx.recv() {
            Ok(first) => batch.push(first),
            // Intake closed and queue drained: the shard is done.
            Err(_) => return,
        }
        while batch.len() < max_batch {
            match rx.try_recv() {
                Ok(r) => batch.push(r),
                // Empty, or disconnected with nothing left: serve what we
                // have; the next outer recv() observes a disconnect.
                Err(_) => break,
            }
        }

        state.counters.batches.fetch_add(1, Ordering::Relaxed);
        state
            .counters
            .requests
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        state
            .counters
            .max_batch
            .fetch_max(batch.len() as u64, Ordering::Relaxed);
        for req in batch.drain(..) {
            serve_one(inner, shard, &mut decoder, &mut pacer, &mut tiles, req);
        }
    }
}

/// Fold a request's per-request overrides into the server's base decode
/// options. Guards compose conservatively: `max_pixels`/`max_scans` take
/// the minimum of request and server values, and the SIMD cap can only
/// lower the level the decode would otherwise run at.
fn apply_request_options(opts: &mut DecodeOptions, ro: &RequestOptions, session_level: SimdLevel) {
    if let Some(f) = ro.format {
        opts.format = f;
    }
    if let Some(s) = ro.strictness {
        opts.strictness = s;
    }
    if let Some(mp) = ro.max_pixels {
        let mp = mp.min(usize::MAX as u64) as usize;
        opts.max_pixels = Some(opts.max_pixels.map_or(mp, |m| m.min(mp)));
    }
    if let Some(cap) = ro.simd_cap {
        let base = opts.force_simd_level.unwrap_or(session_level);
        opts.force_simd_level = Some(base.min(cap));
    }
    if let Some(ms) = ro.max_scans {
        let ms = ms.max(1) as usize;
        opts.max_scans = Some(opts.max_scans.map_or(ms, |m| m.min(ms)));
    }
}

/// Serve one request end to end: fault sites, breaker gate, late-deadline
/// shed/degrade, the `catch_unwind`-isolated decode, panic recovery with
/// session rebuild, calibration, and the reply.
fn serve_one(
    inner: &Inner,
    shard: usize,
    decoder: &mut Arc<Decoder>,
    pacer: &mut Pacer,
    tiles: &mut TilePool,
    req: Request,
) {
    let state = &inner.shards[shard];
    let counters = &state.counters;

    // Fault site: artificial per-request latency (a stalled worker).
    if let Some(plan) = &inner.plan {
        if let Some(d) = plan.latency(Some(shard)) {
            std::thread::sleep(d);
        }
    }

    // Circuit-breaker gate: an open shard fail-fasts its queue instead of
    // decoding on a session that keeps panicking.
    if let Gate::Open(retry_after) = state.breaker.gate(inner.now_us()) {
        let reply = if inner.shutting_down.load(Ordering::Acquire) {
            counters.shutdown_drained.fetch_add(1, Ordering::Relaxed);
            Err(ServeError::Shutdown)
        } else {
            counters.shed.fetch_add(1, Ordering::Relaxed);
            Err(ServeError::Busy { retry_after })
        };
        let _ = req.reply.send(reply);
        state.load.credit(req.charged_us);
        return;
    }

    // Late-deadline check: admission was optimistic (or the queue slower
    // than estimated) and the deadline has already passed. Shed or degrade
    // now — never decode in full past a deadline silently.
    let mut degrade_now = req.degrade_now;
    if let Some(dl) = req.deadline {
        if Instant::now() >= dl {
            if req.degrade {
                degrade_now = true;
            } else {
                counters.shed.fetch_add(1, Ordering::Relaxed);
                let _ = req.reply.send(Err(ServeError::Busy {
                    retry_after: Duration::from_micros(state.load.queued().max(1000)),
                }));
                state.load.credit(req.charged_us);
                return;
            }
        }
    }

    // Assemble this request's decode options: base config, per-request
    // overrides, scan-deadline pacing, degradation ladder, alloc-cap
    // fault. Overrides come first so the ladder min-composes onto them.
    let mut opts = inner.opts;
    apply_request_options(&mut opts, &req.options, decoder.simd_level());
    let mut scan_limit = inner
        .scan_deadline
        .and_then(|budget| paced_scan_limit(&req.data, budget, pacer.bytes_per_sec));
    let paced = scan_limit.is_some();
    let mut degraded = false;
    if degrade_now {
        if hetjpeg_jpeg::progressive::is_progressive(&req.data) {
            // Degrade to the largest scan prefix the remaining budget can
            // absorb; a missed deadline floors at the DC-only render.
            let remaining = req
                .deadline
                .map(|d| d.saturating_duration_since(Instant::now()))
                .unwrap_or(Duration::ZERO);
            let k = if remaining.is_zero() {
                Some(1)
            } else {
                paced_scan_limit(&req.data, remaining, pacer.bytes_per_sec)
            };
            if let Some(k) = k {
                scan_limit = Some(scan_limit.map_or(k, |l| l.min(k)));
                degraded = true;
            }
        } else {
            opts = opts.tolerant();
            degraded = true;
        }
    }
    if let Some(k) = scan_limit {
        opts = opts.max_scans(match opts.max_scans {
            Some(m) => m.min(k),
            None => k,
        });
    }
    if let Some(plan) = &inner.plan {
        // Fault site: allocation-cap failure — flows the decoder's real
        // decompression-bomb guard path, not a simulated error.
        if plan.fires(FaultSite::AllocCap, Some(shard)) {
            opts = opts.max_pixels(1);
        }
    }

    // Fault site: decode panic, injected inside the session lock so it
    // poisons the session exactly as a real mid-decode panic would.
    let inject_panic = inner
        .plan
        .as_ref()
        .is_some_and(|p| p.fires(FaultSite::Panic, Some(shard)));

    // Streaming opt-in with a streamable (RGB) effective format: answer
    // with a row-tile stream instead of a whole-image buffer.
    if req.options.streaming && opts.format == OutputFormat::Rgb {
        serve_streaming(
            inner,
            shard,
            decoder,
            pacer,
            tiles,
            req,
            opts,
            degraded,
            paced,
            inject_panic,
        );
        return;
    }

    let t0 = Instant::now();
    let result = {
        let _quiet = SuppressPanicReport::new();
        let d = &**decoder;
        let data = &req.data;
        catch_unwind(AssertUnwindSafe(move || {
            if inject_panic {
                d.inject_panic("injected decode panic");
            }
            d.decode(data, opts)
        }))
    };
    match result {
        Ok(out) => {
            state.breaker.on_success(inner.breaker_base_us);
            observe_calibration(state, pacer, &req, t0.elapsed());
            match out {
                Ok(outcome) => {
                    if paced {
                        counters.deadline_partials.fetch_add(1, Ordering::Relaxed);
                    }
                    if degraded {
                        counters.degraded.fetch_add(1, Ordering::Relaxed);
                    }
                    let _ = req
                        .reply
                        .send(Ok(ServeReply::Whole(Served { outcome, degraded })));
                }
                Err(e) => {
                    counters.decode_errors.fetch_add(1, Ordering::Relaxed);
                    let _ = req.reply.send(Err(ServeError::Decode(e)));
                }
            }
        }
        Err(payload) => {
            let msg = recover_panic(inner, shard, decoder, payload);
            let _ = req.reply.send(Err(ServeError::Panicked(msg)));
        }
    }
    state.load.credit(req.charged_us);
}

/// Feed one completed decode's wall time into the shard's pacing and
/// admission calibration (shared by the whole-image and streaming paths).
fn observe_calibration(state: &ShardState, pacer: &mut Pacer, req: &Request, wall: Duration) {
    pacer.observe(req.data.len(), wall);
    if let Some(rate) = pacer.bytes_per_sec {
        state.load.publish_rate(rate);
    }
    if let Some(v_us) = req.predicted_virtual_us {
        if v_us > 0 {
            state
                .load
                .observe_ratio(wall.as_micros() as f64 / v_us as f64);
        }
    }
}

/// Panic bookkeeping shared by the whole-image and streaming paths:
/// count the recovery, rebuild the poisoned session (retiring its
/// statistics), drive the breaker, and return the panic message.
fn recover_panic(
    inner: &Inner,
    shard: usize,
    decoder: &mut Arc<Decoder>,
    payload: Box<dyn std::any::Any + Send>,
) -> String {
    let state = &inner.shards[shard];
    let counters = &state.counters;
    let msg = panic_message(payload);
    counters.panics_recovered.fetch_add(1, Ordering::Relaxed);
    // The panic poisoned the session's workspace lock; rebuild a
    // fresh identical session and retire the old one's statistics
    // so the shard's cumulative accounting survives.
    // Rebuild failure is impossible for a config that already built
    // once; if it somehow happens, keep the poisoned session — every
    // decode on it panics, is caught here, and the breaker walls the
    // shard off.
    if let Ok(fresh) = state.spec.build() {
        let old = decoder.stats();
        {
            let mut retired = state.retired.lock().expect("shard retired totals");
            retired.pool.merge(&old.pool);
            retired.spec.merge(&old.spec);
            retired.progressive.merge(&old.progressive);
        }
        let fresh = Arc::new(fresh);
        *state.decoder.lock().expect("shard decoder slot") = Arc::clone(&fresh);
        *decoder = fresh;
        counters.sessions_rebuilt.fetch_add(1, Ordering::Relaxed);
    }
    if state.breaker.on_panic(
        inner.breaker_threshold,
        inner.breaker_base_us,
        inner.now_us(),
    ) {
        counters.breaker_trips.fetch_add(1, Ordering::Relaxed);
    }
    msg
}

/// The streaming tail of [`serve_one`]: hand the submitter a
/// [`ServedStream`] immediately, then render the image as MCU-row tiles
/// through [`Decoder::decode_rows`], pushing each tile (in a pooled
/// buffer) as a [`StreamEvent`]. The tile pool bounds tiles in flight at
/// [`TILE_POOL_CAP`]; a consumer that stops draining backpressures the
/// worker and, past [`TILE_STALL_LIMIT`], aborts the stream. Panics are
/// recovered exactly as on the whole-image path, with the terminal error
/// delivered in-stream.
#[allow(clippy::too_many_arguments)]
fn serve_streaming(
    inner: &Inner,
    shard: usize,
    decoder: &mut Arc<Decoder>,
    pacer: &mut Pacer,
    tiles: &mut TilePool,
    req: Request,
    opts: DecodeOptions,
    degraded: bool,
    paced: bool,
    inject_panic: bool,
) {
    let state = &inner.shards[shard];
    let counters = &state.counters;
    let (etx, erx) = mpsc::channel::<StreamEvent>();
    let etx = req.reply.sibling(etx);
    if req
        .reply
        .send(Ok(ServeReply::Stream(ServedStream { rx: erx })))
        .is_err()
    {
        // Nobody is waiting on the ticket: skip the decode entirely.
        state.load.credit(req.charged_us);
        return;
    }
    let t0 = Instant::now();
    let result = {
        let _quiet = SuppressPanicReport::new();
        let d = &**decoder;
        let data = &req.data;
        let etx = &etx;
        let pool = &mut *tiles;
        catch_unwind(AssertUnwindSafe(move || {
            if inject_panic {
                d.inject_panic("injected decode panic");
            }
            let mut begun = false;
            d.decode_rows(data, opts, &mut |tile| {
                if !begun {
                    begun = true;
                    let begin = StreamEvent::Begin {
                        width: tile.width as u32,
                        height: tile.height as u32,
                        degraded,
                    };
                    if etx.send(begin).is_err() {
                        return false;
                    }
                }
                let Some(mut buf) = pool.acquire(counters) else {
                    return false; // consumer stalled past the limit
                };
                buf.clear();
                buf.extend_from_slice(tile.rgb);
                etx.send(StreamEvent::Tile(StreamTile {
                    buf,
                    pool: pool.tx.clone(),
                }))
                .is_ok()
            })
        }))
    };
    match result {
        Ok(out) => {
            state.breaker.on_success(inner.breaker_base_us);
            observe_calibration(state, pacer, &req, t0.elapsed());
            match out {
                Ok(rso) => {
                    if paced {
                        counters.deadline_partials.fetch_add(1, Ordering::Relaxed);
                    }
                    if degraded {
                        counters.degraded.fetch_add(1, Ordering::Relaxed);
                    }
                    counters.streamed.fetch_add(1, Ordering::Relaxed);
                    let _ = etx.send(StreamEvent::End(Ok(StreamEnd {
                        tiles: rso.tiles as u64,
                        truncated: rso.truncated,
                        mode: rso.mode,
                        width: rso.width as u32,
                        height: rso.height as u32,
                        degraded,
                    })));
                }
                Err(e) => {
                    counters.decode_errors.fetch_add(1, Ordering::Relaxed);
                    let _ = etx.send(StreamEvent::End(Err(ServeError::Decode(e))));
                }
            }
        }
        Err(payload) => {
            let msg = recover_panic(inner, shard, decoder, payload);
            let _ = etx.send(StreamEvent::End(Err(ServeError::Panicked(msg))));
        }
    }
    state.load.credit(req.charged_us);
}

/// Home shard for an image, by its shape fingerprint ([`ServeHandle::submit`]
/// spills to other shards when the home queue is full). Unparseable data
/// goes to shard 0, where the decode will produce the error that is then
/// reported through the request's own reply slot.
fn route(data: &[u8], shards: usize) -> usize {
    match shape_key(data) {
        Some(key) => {
            let mut h = DefaultHasher::new();
            key.hash(&mut h);
            (h.finish() % shards as u64) as usize
        }
        None => 0,
    }
}

/// Cheap shape fingerprint (width, height, component count, luma sampling
/// factors) read by scanning the marker stream for SOF0/SOF1/SOF2 — no
/// entropy decoding, no table parsing, no allocation. Progressive (SOF2)
/// images share the fingerprint space with baseline ones: a progressive
/// image routes to the same shard as its baseline counterpart of the same
/// shape, where the pooled buffers for that shape already live. `None`
/// when the bytes carry no recognized frame header.
fn shape_key(data: &[u8]) -> Option<(u16, u16, u8, u8)> {
    use hetjpeg_jpeg::markers::m;
    if data.len() < 4 || data[0] != 0xFF || data[1] != m::SOI {
        return None;
    }
    let mut pos = 2usize;
    while pos + 3 < data.len() {
        if data[pos] != 0xFF {
            return None;
        }
        let marker = data[pos + 1];
        match marker {
            // Padding / RSTn / TEM: no length field.
            0xFF => {
                pos += 1;
                continue;
            }
            m::TEM | m::RST0..=m::RST7 => {
                pos += 2;
                continue;
            }
            // SOS or EOI before any SOF: give up.
            m::SOS | m::EOI => return None,
            _ => {}
        }
        let len = u16::from_be_bytes([data[pos + 2], data[pos + 3]]) as usize;
        if len < 2 || pos + 2 + len > data.len() {
            return None;
        }
        if marker == m::SOF0 || marker == m::SOF1 || marker == m::SOF2 {
            // SOF segment: precision(1) height(2) width(2) ncomp(1), then
            // per component (id, sampling, tq).
            let seg = &data[pos + 4..pos + 2 + len];
            if seg.len() < 6 {
                return None;
            }
            let height = u16::from_be_bytes([seg[1], seg[2]]);
            let width = u16::from_be_bytes([seg[3], seg[4]]);
            let ncomp = seg[5];
            let sampling = if seg.len() >= 9 { seg[7] } else { 0 };
            return Some((width, height, ncomp, sampling));
        }
        pos += 2 + len;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetjpeg_corpus::{generate_jpeg, ImageSpec, Pattern};
    use hetjpeg_jpeg::types::Subsampling;

    fn jpeg(w: usize, h: usize, seed: u64) -> Vec<u8> {
        let spec = ImageSpec {
            width: w,
            height: h,
            pattern: Pattern::PhotoLike { detail: 0.5 },
            seed,
        };
        generate_jpeg(&spec, 85, Subsampling::S420).unwrap()
    }

    fn progressive_jpeg(w: usize, h: usize, seed: u64) -> Vec<u8> {
        let spec = ImageSpec {
            width: w,
            height: h,
            pattern: Pattern::PhotoLike { detail: 0.5 },
            seed,
        };
        hetjpeg_corpus::generate_progressive_jpeg(
            &spec,
            85,
            Subsampling::S420,
            hetjpeg_jpeg::progressive::ScanPreset::Standard10,
        )
        .unwrap()
    }

    #[test]
    fn shape_key_reads_the_frame_header() {
        let j = jpeg(96, 64, 1);
        let (w, h, ncomp, sampling) = shape_key(&j).expect("baseline jpeg has a shape");
        assert_eq!((w, h, ncomp), (96, 64, 3));
        assert_eq!(sampling, 0x22, "4:2:0 luma sampling factors");
        // Same shape, different pixels: identical key.
        assert_eq!(shape_key(&j), shape_key(&jpeg(96, 64, 2)));
        // Different shape: different key.
        assert_ne!(shape_key(&j), shape_key(&jpeg(64, 96, 1)));
        // Garbage is unroutable, not a panic.
        assert_eq!(shape_key(b"not a jpeg"), None);
        assert_eq!(shape_key(&j[..3]), None);
        // A progressive (SOF2) image of the same shape shares the key —
        // it must land on the shard whose buffers are hot for that shape.
        let prog = progressive_jpeg(96, 64, 1);
        assert_eq!(shape_key(&prog), shape_key(&j));
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        let j = jpeg(128, 96, 3);
        for shards in 1..5 {
            let s = route(&j, shards);
            assert!(s < shards);
            assert_eq!(s, route(&j, shards), "routing is deterministic");
        }
        assert_eq!(route(b"garbage", 4), 0);
    }

    #[test]
    fn same_shape_lands_on_one_shard() {
        let shards = 4;
        let target = route(&jpeg(96, 64, 1), shards);
        for seed in 2..10 {
            assert_eq!(route(&jpeg(96, 64, seed), shards), target);
        }
    }

    #[test]
    fn config_validation() {
        let bad = |c: ServeConfig| matches!(Server::start(c), Err(ServeError::Config(_)));
        assert!(bad(ServeConfig {
            shards: 0,
            ..ServeConfig::default()
        }));
        assert!(bad(ServeConfig {
            queue_depth: 0,
            ..ServeConfig::default()
        }));
        assert!(bad(ServeConfig {
            max_batch: 0,
            ..ServeConfig::default()
        }));
        assert!(bad(ServeConfig {
            auto_cache_cap: 0,
            ..ServeConfig::default()
        }));
        assert!(bad(ServeConfig {
            threads: 0,
            ..ServeConfig::default()
        }));
        assert!(bad(ServeConfig {
            breaker_threshold: 0,
            ..ServeConfig::default()
        }));
    }

    #[test]
    fn speculation_counters_surface_in_server_stats() {
        // A restart-free stream decoded under `Mode::ParallelEntropy`
        // takes the speculative path (ISSUE 6); its counters must be
        // visible through the server's aggregated statistics.
        let server = Server::start(ServeConfig {
            shards: 1,
            threads: 4,
            options: hetjpeg_core::DecodeOptions {
                mode: hetjpeg_core::Mode::ParallelEntropy,
                ..hetjpeg_core::DecodeOptions::default()
            },
            ..ServeConfig::default()
        })
        .unwrap();
        let handle = server.handle();
        handle.decode(&jpeg(256, 160, 7)).unwrap();
        let stats = server.shutdown();
        let spec = stats.speculation();
        assert!(spec.chunks >= 2, "speculative chunks launched: {spec:?}");
        assert!(spec.synced >= 1, "at least one boundary converged");
        assert!(spec.adopted_mcus > 0, "staged MCUs adopted: {spec:?}");
        assert_eq!(stats.speculative_chunks(), spec.chunks);
        assert_eq!(
            stats.speculation_wasted_mcus() + stats.stitch_redecoded_mcus(),
            spec.wasted_mcus + spec.redecoded_mcus,
        );
    }

    #[test]
    fn progressive_requests_decode_and_surface_counters() {
        // A progressive image served next to its baseline counterpart
        // produces the same bytes, and the multi-scan counters appear in
        // the aggregated server statistics.
        let server = Server::start(ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let handle = server.handle();
        let base_out = handle.decode(&jpeg(96, 64, 11)).unwrap();
        let prog_out = handle.decode(&progressive_jpeg(96, 64, 11)).unwrap();
        assert!(!prog_out.truncated);
        assert_eq!(prog_out.image.data, base_out.image.data);
        let stats = server.shutdown();
        let p = stats.progressive();
        assert_eq!(p.scans_decoded, 10, "Standard10 scan script: {p:?}");
        assert_eq!(p.refine_passes, 5);
        assert_eq!(p.partial_renders, 0);
        assert_eq!(stats.deadline_partials(), 0);
    }

    #[test]
    fn progressive_deadline_yields_partial_renders() {
        let server = Server::start(ServeConfig {
            shards: 1,
            scan_deadline: Some(std::time::Duration::from_nanos(1)),
            ..ServeConfig::default()
        })
        .unwrap();
        let handle = server.handle();
        let prog = progressive_jpeg(128, 96, 3);
        // The first request seeds the shard's throughput estimate and
        // decodes in full…
        let first = handle.decode(&prog).unwrap();
        assert!(!first.truncated);
        // …after which a 1 ns budget can never absorb the scan script:
        // the shard answers with a prefix render, flagged truncated.
        let paced = handle.decode(&prog).unwrap();
        assert!(paced.truncated, "paced decode is a prefix render");
        assert_eq!(paced.image.data.len(), 128 * 96 * 3);
        assert_ne!(paced.image.data, first.image.data);
        let stats = server.shutdown();
        assert_eq!(stats.deadline_partials(), 1);
        let p = stats.progressive();
        assert_eq!(p.partial_renders, 1);
        assert_eq!(p.scans_decoded, 10 + 1, "full script + the DC prefix");
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let server = Server::start(ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let handle = server.handle();
        let j = jpeg(64, 64, 5);
        assert!(handle.decode(&j).is_ok());
        server.shutdown();
        assert!(matches!(handle.submit(j), Err(ServeError::ShuttingDown)));
    }

    #[test]
    fn breaker_trips_after_consecutive_panics_and_half_open_probe_closes_it() {
        let server = Server::start(ServeConfig {
            shards: 1,
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_millis(50),
            fault_plan: Some(Arc::new(
                // The first two decodes on the shard panic; everything
                // after decodes normally, so the half-open probe succeeds.
                FaultPlan::parse("panic=#1,panic=#2").unwrap(),
            )),
            ..ServeConfig::default()
        })
        .unwrap();
        let handle = server.handle();
        let j = jpeg(64, 64, 9);

        // Panic 1: recovered, session rebuilt, breaker still closed.
        assert!(matches!(
            handle.decode(&j),
            Err(ServeError::Panicked(msg)) if msg.contains("injected")
        ));
        // Panic 2: recovered and trips the breaker (threshold 2).
        assert!(matches!(handle.decode(&j), Err(ServeError::Panicked(_))));
        // Open breaker fail-fasts with Busy and a retry hint.
        match handle.decode(&j) {
            Err(ServeError::Busy { retry_after }) => {
                assert!(retry_after <= Duration::from_millis(50));
            }
            other => panic!("expected Busy from open breaker, got {other:?}"),
        }
        // After the cooldown the next request is the half-open probe; the
        // fault plan is exhausted, so it succeeds and closes the breaker.
        std::thread::sleep(Duration::from_millis(120));
        let probe = handle.decode(&j).expect("half-open probe decodes");
        assert_eq!(probe.image.data.len(), 64 * 64 * 3);
        let after = handle.decode(&j).expect("breaker closed again");
        assert_eq!(after.image.data, probe.image.data);

        let stats = server.shutdown();
        assert_eq!(stats.panics_recovered(), 2);
        assert_eq!(stats.sessions_rebuilt(), 2);
        assert_eq!(stats.breaker_trips(), 1);
        assert_eq!(stats.shed(), 1);
        assert_eq!(stats.decode_errors(), 0);
    }

    #[test]
    fn infeasible_deadlines_are_shed_or_degraded() {
        let server = Server::start(ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let handle = server.handle();
        let j = jpeg(96, 96, 21);

        // Warm-up with generous deadlines: the first requests are admitted
        // optimistically (no calibration yet) and teach the shard its
        // wall-per-virtual ratio.
        for _ in 0..3 {
            let s = handle
                .decode_with(
                    &j,
                    SubmitOptions {
                        deadline: Some(Duration::from_secs(10)),
                        degrade: false,
                        ..SubmitOptions::default()
                    },
                )
                .expect("feasible deadline decodes");
            assert!(!s.degraded);
        }

        // A zero deadline is infeasible once calibrated: shed with Busy.
        match handle.decode_with(
            &j,
            SubmitOptions {
                deadline: Some(Duration::ZERO),
                degrade: false,
                ..SubmitOptions::default()
            },
        ) {
            Err(ServeError::Busy { retry_after }) => {
                assert!(retry_after > Duration::ZERO);
            }
            other => panic!("expected Busy shed, got {other:?}"),
        }

        // Same deadline with degrade opted in: served tolerant, flagged.
        let s = handle
            .decode_with(
                &j,
                SubmitOptions {
                    deadline: Some(Duration::ZERO),
                    degrade: true,
                    ..SubmitOptions::default()
                },
            )
            .expect("degraded service instead of shed");
        assert!(s.degraded);
        assert_eq!(s.outcome.image.data.len(), 96 * 96 * 3);

        let stats = server.shutdown();
        assert_eq!(stats.shed(), 1);
        assert_eq!(stats.degraded(), 1);
        assert_eq!(stats.requests(), 4, "the shed request never queued");
    }

    #[test]
    fn infeasible_progressive_deadline_degrades_to_prefix_render() {
        let server = Server::start(ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let handle = server.handle();
        let prog = progressive_jpeg(128, 96, 5);

        // Seed the byte-throughput estimate (progressive admission prices
        // by measured rate, not the §5.1 model).
        let full = handle.decode(&prog).expect("seed decode");
        assert!(!full.truncated);

        let s = handle
            .decode_with(
                &prog,
                SubmitOptions {
                    deadline: Some(Duration::ZERO),
                    degrade: true,
                    ..SubmitOptions::default()
                },
            )
            .expect("degraded prefix render");
        assert!(s.degraded);
        assert!(s.outcome.truncated, "prefix render is flagged truncated");
        assert_eq!(s.outcome.image.data.len(), 128 * 96 * 3);
        assert_ne!(s.outcome.image.data, full.image.data);

        let stats = server.shutdown();
        assert_eq!(stats.degraded(), 1);
        assert_eq!(stats.progressive().partial_renders, 1);
    }

    #[test]
    fn h2d_counters_survive_fault_rebuild_without_double_count() {
        // PR 9: the H2D counters ride SessionStats → ShardStats →
        // ServerStats and must be cumulative across a fault-induced
        // session rebuild — neither reset (losing the retired session's
        // transfers) nor double-counted (merging them twice).
        let server = Server::start(ServeConfig {
            shards: 1,
            platform: hetjpeg_core::Platform::gtx680(),
            options: DecodeOptions::with_mode(hetjpeg_core::Mode::Gpu),
            fault_plan: Some(Arc::new(FaultPlan::parse("panic=#3").unwrap())),
            ..ServeConfig::default()
        })
        .unwrap();
        let handle = server.handle();
        let j = jpeg(96, 72, 21);

        handle.decode(&j).unwrap();
        handle.decode(&j).unwrap();
        let mid = server.stats();
        assert_eq!(
            mid.h2d_transfers(),
            2,
            "whole-image GPU serving ships one transfer per request"
        );
        assert!(mid.h2d_bytes() > 0);

        // Request 3 panics before any transfer; the shard session is
        // rebuilt and its counters retired into the cumulative totals.
        assert!(matches!(handle.decode(&j), Err(ServeError::Panicked(_))));
        handle.decode(&j).unwrap();
        handle.decode(&j).unwrap();

        let stats = server.shutdown();
        assert_eq!(stats.sessions_rebuilt(), 1);
        assert_eq!(
            stats.h2d_transfers(),
            4,
            "rebuild must neither reset nor double-count transfers"
        );
        assert_eq!(
            stats.h2d_bytes(),
            2 * mid.h2d_bytes(),
            "same image decoded twice more: payload bytes double exactly"
        );
    }

    #[test]
    fn decode_batch_counts_transfers_per_batch_across_shard_counts() {
        // The session-level batched H2D path under a sharded layout: eight
        // requests split round-robin across 1/2/4 shard sessions, each
        // shard serving its share with ONE `decode_batch` call. Transfers
        // must count per batch — not per image — and the payload bytes
        // must be invariant to the shard count.
        let images: Vec<Vec<u8>> = (0..8u64)
            .map(|i| jpeg(80, 56 + 8 * (i as usize % 3), i))
            .collect();
        let opts = DecodeOptions::with_mode(hetjpeg_core::Mode::Gpu);
        let mut byte_totals = Vec::new();
        for shards in [1usize, 2, 4] {
            let mut transfers = 0u64;
            let mut bytes = 0u64;
            for shard in 0..shards {
                let d = Decoder::builder()
                    .platform(hetjpeg_core::Platform::gtx680())
                    .build()
                    .unwrap();
                let share: Vec<&[u8]> = images
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % shards == shard)
                    .map(|(_, v)| v.as_slice())
                    .collect();
                for r in d.decode_batch(&share, opts) {
                    r.expect("batched decode");
                }
                let s = d.pool_stats();
                transfers += s.h2d_transfers;
                bytes += s.h2d_bytes;
            }
            assert_eq!(
                transfers, shards as u64,
                "{shards} shards: one coalesced transfer per shard batch"
            );
            byte_totals.push(bytes);
        }
        assert!(
            byte_totals.iter().all(|&b| b == byte_totals[0]),
            "payload bytes must be invariant to sharding: {byte_totals:?}"
        );
    }
}
