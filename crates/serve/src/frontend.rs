//! Event-driven TCP front end: one thread, completion-driven I/O, no
//! per-connection threads and no clock.
//!
//! The thread-per-connection loop in [`crate::protocol::serve_tcp`] costs
//! two OS threads per connection, which is why it needs a hard
//! [`crate::protocol::MAX_CONNECTIONS`] cap at all. This module replaces
//! it with a single-threaded readiness loop over nonblocking sockets
//! (epoll on Linux via the offline `polling` shim, a level-triggered
//! claim-all fallback elsewhere): idle connections cost one registered fd
//! and a small buffer, **zero threads and zero loop passes**, so the
//! connection cap becomes a soft admission knob — an over-cap client is
//! told `Busy` in-band with a retry hint instead of being silently
//! dropped.
//!
//! The loop blocks in the poller with no timeout and wakes for exactly
//! three reasons, each naming the connections it concerns:
//!
//! * a socket is **readable** — read until `WouldBlock` into the input
//!   buffer, cut complete frames with [`parse_request`] and submit each via
//!   [`ServeHandle::submit_nonblocking`] — the frontend thread must never
//!   sleep on a full shard queue, so queue pressure surfaces as an in-band
//!   `Busy` frame (same shed the SLO admission path produces);
//! * a **completion**: a shard worker answered a ticket or pushed a stream
//!   event for one of this loop's requests. The request carried the
//!   connection's [`Notifier`], which puts the connection's token on the
//!   shared ready list and fires the poller's wake handle (see the
//!   `ReadyList` type in this file for the no-lost-wake-up protocol);
//! * a socket is **writable** again after a `WouldBlock` left output
//!   unflushed — write interest is registered exactly while that is so.
//!
//! Each connection so named pumps replies **in request order** — whole
//! images serialize straight into the output buffer; streamed replies
//! drain their tile channel incrementally, so response memory for a
//! streaming connection stays at a few row tiles plus the write watermark
//! — and writes until `WouldBlock`, alternating the two until neither
//! makes progress. It closes once a goodbye (or EOF) has been read and
//! every pending reply is flushed. A pass never visits a connection no
//! event named, so the loop's cost scales with ready sockets by
//! construction.
//!
//! Backpressure: the output buffer is only refilled while it holds less
//! than [`WRITE_WATERMARK`] unflushed bytes; a slow reader therefore
//! stalls its own stream's tile drain (tiles stay pooled in the shard)
//! rather than ballooning server memory, and resumes on the writable
//! event.

use crate::pool::{Notifier, ServeHandle, ServeReply, ServedStream, StreamEvent, Ticket, TryEvent};
use crate::protocol::{
    forced_streaming, parse_request, write_response, write_stream_failure, Crc32, MAX_FRAME,
    STATUS_STREAM_BEGIN, STATUS_STREAM_CHUNK, STATUS_STREAM_FINAL,
};
use crate::ServeError;
use polling::{Event, Interest, Poller, Waker};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Soft cap on concurrently open connections (default for
/// [`FrontEnd::new`]); over-cap accepts are answered with a `Busy` frame
/// and closed. Unlike the thread-per-connection cap this bounds only fd
/// and buffer usage — idle connections cost no threads.
pub const DEFAULT_MAX_CONNECTIONS: usize = 1024;

/// Stop refilling a connection's output buffer while it already holds
/// this many unflushed bytes. Bounds per-connection response memory and
/// exerts backpressure on streaming decodes (tiles stay in the shard's
/// bounded pool until the client drains).
pub const WRITE_WATERMARK: usize = 1 << 20;

/// Cap on a connection's *input* buffer. A frame can legitimately be up
/// to 4 + [`MAX_FRAME`] bytes; anything growing beyond that is a protocol
/// violation.
const READ_LIMIT: usize = 4 + MAX_FRAME as usize;

/// Poller tokens of the two sources that are not connections. Connection
/// tokens count up from zero and never get here.
const LISTENER_TOKEN: u64 = u64::MAX;
const WAKER_TOKEN: u64 = u64::MAX - 1;

/// Counters published by [`FrontEnd::run`] (readable concurrently via
/// [`FrontEndStats`]).
#[derive(Debug, Default)]
pub struct FrontEndCounters {
    accepted: AtomicU64,
    rejected: AtomicU64,
    requests: AtomicU64,
    peak_connections: AtomicU64,
    wakeups: AtomicU64,
    /// Calls to `fill` — how many connections the loop actually read.
    #[cfg(test)]
    fills: AtomicU64,
}

/// Snapshot of a front end's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontEndStats {
    /// Connections accepted and served.
    pub accepted: u64,
    /// Connections refused over the cap (each got a `Busy` frame first).
    pub rejected: u64,
    /// Request frames parsed and submitted.
    pub requests: u64,
    /// High-water mark of concurrently open connections.
    pub peak_connections: u64,
    /// Loop passes: how many times the poller woke the loop. An idle front
    /// end makes none, whatever the number of open connections; a request
    /// costs a handful (its bytes arriving, its reply or tiles completing,
    /// its socket draining), independent of how many others are open.
    pub wakeups: u64,
}

/// Connections with a completion to collect: shard workers push a
/// connection's token (through its [`Notifier`]) after every reply or
/// stream event they send for it, and fire the poller's wake handle.
///
/// Wake-ups coalesce through `armed`: only the notifier that arms an
/// unarmed flag writes the eventfd; everyone after it just leaves a token.
/// The loop side ([`ReadyList::take`]) runs when the poller reports the
/// wake handle — whose `wait` has by then drained the eventfd — and clears
/// the flag **before** it takes the tokens and before anything is pumped.
/// That order is the no-lost-wake-up invariant:
///
/// * a notifier whose token the loop took pushed it before the take, and
///   sent its message before that — the pump that follows sees it;
/// * a notifier whose token the loop did *not* take pushed it after the
///   take, hence tests the flag after the clear: it finds it unarmed (and
///   fires the eventfd, so the next wait returns) or armed by a notifier
///   that, by the same argument, already fired it.
///
/// A completion is therefore either seen by this pass or re-arms the fd.
/// The price is an occasional empty pass (a token taken by this pass whose
/// notifier then finds the flag cleared), never a missed one.
struct ReadyList {
    waker: Waker,
    armed: AtomicBool,
    tokens: Mutex<Vec<u64>>,
}

impl ReadyList {
    /// Worker side. The message this announces is already in its channel.
    fn notify(&self, token: u64) {
        {
            let mut tokens = self.tokens.lock().expect("ready list lock");
            // A stream's notifications come in runs from one connection;
            // collapsing the run keeps the list at a few entries however
            // far ahead of the loop a worker gets.
            if tokens.last() != Some(&token) {
                tokens.push(token);
            }
        }
        // AcqRel: the swap is ordered after the push above and before the
        // eventfd write below; it pairs with the Release clear in `take`.
        if !self.armed.swap(true, Ordering::AcqRel) {
            // A failed eventfd write has no recovery here, and cannot
            // happen short of fd exhaustion tearing the process down.
            let _ = self.waker.wake();
        }
    }

    /// Loop side: call when (and only when) the poller reported the wake
    /// handle. Appends the connections to service to `into`.
    fn take(&self, into: &mut Vec<(u64, bool)>) {
        // Invariant (see the type's docs): fd drained by the reporting
        // wait, flag cleared here, tokens taken next, pump after that.
        self.armed.store(false, Ordering::Release);
        let mut tokens = self.tokens.lock().expect("ready list lock");
        into.extend(tokens.drain(..).map(|token| (token, false)));
    }
}

/// One queued reply slot. Replies are written strictly in request order,
/// so a slot may sit behind earlier slots while already resolved.
enum Pending {
    /// Submitted to the pool (or refused by it, which is a ticket that is
    /// already answered); resolved by polling the ticket.
    Waiting(Ticket),
    /// A streamed reply mid-drain: tiles are serialized as they arrive.
    Streaming {
        stream: ServedStream,
        begun: bool,
        crc: Crc32,
    },
}

/// Per-connection state.
struct Conn {
    stream: TcpStream,
    /// What a shard worker calls when it has something for this
    /// connection; every request submitted from it carries a clone.
    notifier: Notifier,
    /// Unparsed request bytes.
    buf: Vec<u8>,
    /// In-order reply queue.
    pending: VecDeque<Pending>,
    /// Serialized-but-unflushed response bytes.
    out: Vec<u8>,
    /// Flushed prefix of `out`.
    out_pos: usize,
    /// Goodbye or EOF seen: close once `pending` and `out` drain.
    closing: bool,
    /// The last flush stopped at `WouldBlock` with bytes left over; only
    /// a writable event resumes it.
    blocked: bool,
    /// The interest currently registered with the poller.
    interest: Interest,
}

impl Conn {
    fn unflushed(&self) -> usize {
        self.out.len() - self.out_pos
    }

    fn done(&self) -> bool {
        self.closing && self.pending.is_empty() && self.unflushed() == 0
    }

    /// The interest this connection's state calls for: nothing more to
    /// read once it is closing (an EOF stays "readable" forever under a
    /// level-triggered poller), write readiness exactly while blocked.
    fn wanted_interest(&self) -> Interest {
        Interest {
            readable: !self.closing,
            writable: self.blocked,
        }
    }
}

/// The event-driven front end. Construct with [`FrontEnd::new`], then
/// [`run`](FrontEnd::run) the loop (it owns the calling thread until
/// [`stop`](FrontEnd::stop) is flagged or the listener dies).
pub struct FrontEnd {
    handle: ServeHandle,
    listener: TcpListener,
    max_connections: usize,
    stop: AtomicBool,
    counters: FrontEndCounters,
    ready: Arc<ReadyList>,
}

impl FrontEnd {
    /// Wrap a listener with the [`DEFAULT_MAX_CONNECTIONS`] soft cap.
    pub fn new(handle: ServeHandle, listener: TcpListener) -> io::Result<FrontEnd> {
        FrontEnd::with_max_connections(handle, listener, DEFAULT_MAX_CONNECTIONS)
    }

    /// Wrap a listener with an explicit connection cap (`0` is clamped
    /// to 1).
    pub fn with_max_connections(
        handle: ServeHandle,
        listener: TcpListener,
        max_connections: usize,
    ) -> io::Result<FrontEnd> {
        listener.set_nonblocking(true)?;
        Ok(FrontEnd {
            handle,
            listener,
            max_connections: max_connections.max(1),
            stop: AtomicBool::new(false),
            counters: FrontEndCounters::default(),
            ready: Arc::new(ReadyList {
                waker: Waker::new()?,
                armed: AtomicBool::new(false),
                tokens: Mutex::new(Vec::new()),
            }),
        })
    }

    /// Flag the loop to exit and wake it so it notices now. Safe from any
    /// thread.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        let _ = self.ready.waker.wake();
    }

    /// Counter snapshot; callable concurrently with [`run`](Self::run).
    pub fn stats(&self) -> FrontEndStats {
        FrontEndStats {
            accepted: self.counters.accepted.load(Ordering::Acquire),
            rejected: self.counters.rejected.load(Ordering::Acquire),
            requests: self.counters.requests.load(Ordering::Acquire),
            peak_connections: self.counters.peak_connections.load(Ordering::Acquire),
            wakeups: self.counters.wakeups.load(Ordering::Acquire),
        }
    }

    /// Run the readiness loop on the calling thread until
    /// [`stop`](Self::stop) is flagged or the listener fails fatally.
    /// Returns the number of requests served.
    pub fn run(&self) -> io::Result<u64> {
        let mut event_loop = Loop::new(self)?;
        while !self.stop.load(Ordering::Acquire) {
            event_loop.pass()?;
        }
        Ok(self.counters.requests.load(Ordering::Acquire))
    }
}

/// What one [`FrontEnd::run`] owns: the poller, the open connections and
/// the per-pass scratch.
struct Loop<'a> {
    fe: &'a FrontEnd,
    poller: Poller,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    force_streaming: bool,
    events: Vec<Event>,
    /// Connections this pass must service, with whether to read them
    /// first.
    work: Vec<(u64, bool)>,
}

impl<'a> Loop<'a> {
    fn new(fe: &'a FrontEnd) -> io::Result<Loop<'a>> {
        let mut poller = Poller::new()?;
        poller.register(fe.listener.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE)?;
        poller.register_waker(&fe.ready.waker, WAKER_TOKEN)?;
        Ok(Loop {
            fe,
            poller,
            conns: HashMap::new(),
            next_token: 0,
            force_streaming: forced_streaming(),
            events: Vec::new(),
            work: Vec::new(),
        })
    }

    /// Block until something happens, then service exactly the
    /// connections it happened to.
    fn pass(&mut self) -> io::Result<()> {
        self.events.clear();
        self.poller.wait(&mut self.events, None)?;
        self.fe.counters.wakeups.fetch_add(1, Ordering::AcqRel);

        self.work.clear();
        let mut accept = false;
        for ev in &self.events {
            match ev.token {
                LISTENER_TOKEN => accept = true,
                WAKER_TOKEN => self.fe.ready.take(&mut self.work),
                token => self.work.push((token, ev.readable)),
            }
        }
        if accept {
            self.accept_ready()?;
        }
        // One visit per connection however many events and completions
        // named it; it is read if any of them said readable.
        self.work.sort_unstable();
        self.work.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            kept.1 |= same && later.1;
            same
        });

        for &(token, readable) in &self.work {
            // A completion can outlive the connection it was for.
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            let read_ok = match (readable, conn.closing) {
                (false, _) => true,
                // A closing connection has no read interest, so "readable"
                // on one is the poller reporting an error or hang-up:
                // nobody is left to write the pending replies to.
                (true, true) => false,
                (true, false) => Self::fill(
                    conn,
                    &self.fe.counters,
                    &self.fe.handle,
                    self.force_streaming,
                ),
            };
            let mut alive = read_ok && Self::service(conn);
            let wanted = conn.wanted_interest();
            if alive && !conn.done() && wanted != conn.interest {
                alive = self
                    .poller
                    .modify(conn.stream.as_raw_fd(), token, wanted)
                    .is_ok();
                conn.interest = wanted;
            }
            if !alive || conn.done() {
                let conn = self.conns.remove(&token).expect("connection just serviced");
                let _ = self.poller.deregister(conn.stream.as_raw_fd());
                let _ = conn.stream.shutdown(Shutdown::Both);
            }
        }
        Ok(())
    }

    /// Drain the accept queue; over-cap connections get a `Busy` frame
    /// then close.
    fn accept_ready(&mut self) -> io::Result<()> {
        let counters = &self.fe.counters;
        loop {
            let (stream, _) = match self.fe.listener.accept() {
                Ok(pair) => pair,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::ConnectionAborted
                            | io::ErrorKind::ConnectionReset
                            | io::ErrorKind::Interrupted
                    ) =>
                {
                    continue
                }
                Err(e) if matches!(e.raw_os_error(), Some(23) | Some(24)) => return Ok(()),
                Err(e) => return Err(e),
            };
            if self.conns.len() >= self.fe.max_connections {
                counters.rejected.fetch_add(1, Ordering::AcqRel);
                let mut stream = stream;
                let _ = write_response(
                    &mut stream,
                    &Err(ServeError::Busy {
                        retry_after: Duration::from_millis(10),
                    }),
                );
                let _ = stream.shutdown(Shutdown::Both);
                continue;
            }
            if self.adopt(stream).is_some() {
                counters.accepted.fetch_add(1, Ordering::AcqRel);
                counters
                    .peak_connections
                    .fetch_max(self.conns.len() as u64, Ordering::AcqRel);
            }
        }
    }

    /// Take ownership of a connected socket: nonblocking, registered for
    /// reads, with the notifier its requests will carry. `None` when the
    /// socket could not be set up (it is dropped, closing it).
    fn adopt(&mut self, stream: TcpStream) -> Option<u64> {
        stream.set_nonblocking(true).ok()?;
        let token = self.next_token;
        self.poller
            .register(stream.as_raw_fd(), token, Interest::READABLE)
            .ok()?;
        self.next_token += 1;
        let ready = Arc::clone(&self.fe.ready);
        self.conns.insert(
            token,
            Conn {
                stream,
                notifier: Arc::new(move || ready.notify(token)),
                buf: Vec::new(),
                pending: VecDeque::new(),
                out: Vec::new(),
                out_pos: 0,
                closing: false,
                blocked: false,
                interest: Interest::READABLE,
            },
        );
        Some(token)
    }

    /// Read until `WouldBlock`, then parse and submit every complete
    /// frame. Returns `false` when the connection should be torn down
    /// (I/O error or protocol violation).
    fn fill(
        conn: &mut Conn,
        counters: &FrontEndCounters,
        handle: &ServeHandle,
        force_streaming: bool,
    ) -> bool {
        #[cfg(test)]
        counters.fills.fetch_add(1, Ordering::Relaxed);
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.closing = true;
                    break;
                }
                Ok(n) => {
                    if conn.buf.len() + n > READ_LIMIT {
                        return false;
                    }
                    conn.buf.extend_from_slice(&chunk[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        loop {
            match parse_request(&conn.buf) {
                Ok(None) => break,
                Ok(Some((None, consumed))) => {
                    conn.buf.drain(..consumed);
                    conn.closing = true;
                    break;
                }
                Ok(Some((Some(mut frame), consumed))) => {
                    conn.buf.drain(..consumed);
                    if force_streaming && frame.v2 {
                        frame.options.options.streaming = true;
                    }
                    counters.requests.fetch_add(1, Ordering::AcqRel);
                    // A refusal (shed, shutting down) still takes its place in
                    // the reply order; the pump that follows this fill in
                    // the same pass finds it answered.
                    let ticket = handle
                        .submit_nonblocking(frame.jpeg, frame.options, Arc::clone(&conn.notifier))
                        .unwrap_or_else(Ticket::refused);
                    conn.pending.push_back(Pending::Waiting(ticket));
                }
                Err(_) => return false,
            }
        }
        true
    }

    /// Pump and flush until neither makes progress, so that a flush which
    /// drains the buffer below the watermark is followed by the pump the
    /// watermark was holding back — in this pass, because no later event
    /// would ask for it. Returns `false` on a dead socket.
    fn service(conn: &mut Conn) -> bool {
        loop {
            let pumped = Self::pump(conn);
            match Self::flush(conn) {
                None => return false,
                Some(flushed) if !pumped && !flushed => return true,
                Some(_) => {}
            }
        }
    }

    /// Move resolved replies, **in request order**, into the output
    /// buffer, stopping at the first still-waiting ticket or once the
    /// write watermark is reached. Returns whether anything moved.
    fn pump(conn: &mut Conn) -> bool {
        let mut progress = false;
        while conn.unflushed() < WRITE_WATERMARK {
            let Some(front) = conn.pending.front_mut() else {
                break;
            };
            // `conn.out` is a `Write` that cannot fail, hence the ignored
            // results below.
            match front {
                Pending::Waiting(ticket) => match ticket.try_reply() {
                    None => break,
                    Some(Ok(ServeReply::Stream(stream))) => {
                        *front = Pending::Streaming {
                            stream,
                            begun: false,
                            crc: Crc32::new(),
                        };
                    }
                    Some(Ok(ServeReply::Whole(served))) => {
                        let _ = write_response(&mut conn.out, &Ok(served));
                        conn.pending.pop_front();
                    }
                    Some(Err(e)) => {
                        let _ = write_response(&mut conn.out, &Err(e));
                        conn.pending.pop_front();
                    }
                },
                Pending::Streaming { stream, begun, crc } => match stream.try_next() {
                    TryEvent::Pending => break,
                    TryEvent::Event(StreamEvent::Begin {
                        width,
                        height,
                        degraded,
                    }) => {
                        conn.out
                            .extend_from_slice(&[STATUS_STREAM_BEGIN, u8::from(degraded)]);
                        conn.out.extend_from_slice(&width.to_be_bytes());
                        conn.out.extend_from_slice(&height.to_be_bytes());
                        *begun = true;
                    }
                    TryEvent::Event(StreamEvent::Tile(tile)) => {
                        let bytes = tile.bytes();
                        crc.update(bytes);
                        conn.out.extend_from_slice(&[STATUS_STREAM_CHUNK]);
                        conn.out
                            .extend_from_slice(&(bytes.len() as u32).to_be_bytes());
                        conn.out.extend_from_slice(bytes);
                    }
                    TryEvent::Event(StreamEvent::End(result)) => {
                        match result {
                            Ok(_) if *begun => {
                                conn.out.extend_from_slice(&[STATUS_STREAM_FINAL, 0u8]);
                                conn.out.extend_from_slice(&crc.finish().to_be_bytes());
                            }
                            // Defensive: End(Ok) without a Begin means the
                            // decode emitted zero tiles — answer with a
                            // plain error frame, never a headerless stream
                            // trailer.
                            Ok(_) => {
                                let _ = write_stream_failure(
                                    &mut conn.out,
                                    false,
                                    &ServeError::WorkerGone,
                                );
                            }
                            Err(e) => {
                                let _ = write_stream_failure(&mut conn.out, *begun, &e);
                            }
                        }
                        conn.pending.pop_front();
                    }
                    TryEvent::Gone => {
                        let _ =
                            write_stream_failure(&mut conn.out, *begun, &ServeError::WorkerGone);
                        conn.pending.pop_front();
                    }
                },
            }
            progress = true;
        }
        progress
    }

    /// Write `conn.out` until `WouldBlock`, recording in `conn.blocked`
    /// whether that is where it stopped. Returns whether any byte left,
    /// or `None` on a dead socket.
    fn flush(conn: &mut Conn) -> Option<bool> {
        let start = conn.out_pos;
        conn.blocked = false;
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => return None,
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    conn.blocked = true;
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return None,
            }
        }
        let progress = conn.out_pos > start;
        if conn.out_pos == conn.out.len() {
            conn.out.clear();
            conn.out_pos = 0;
        } else if conn.out_pos > WRITE_WATERMARK {
            conn.out.drain(..conn.out_pos);
            conn.out_pos = 0;
        }
        Some(progress)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{read_response, write_request, ServerReply};
    use crate::{ServeConfig, Server};
    use hetjpeg_corpus::{generate_jpeg, ImageSpec, Pattern};
    use hetjpeg_jpeg::types::Subsampling;
    use std::time::Instant;

    fn server() -> Server {
        Server::start(ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        })
        .unwrap()
    }

    fn front_end(server: &Server) -> (FrontEnd, std::net::SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        (FrontEnd::new(server.handle(), listener).unwrap(), addr)
    }

    /// A loop the test drives pass by pass, holding one connection whose
    /// pending queue the test fills by hand, and that connection's client
    /// end.
    fn loop_with_one_connection(
        fe: &FrontEnd,
        addr: std::net::SocketAddr,
    ) -> (Loop<'_>, u64, TcpStream) {
        let client = TcpStream::connect(addr).unwrap();
        let mut event_loop = Loop::new(fe).unwrap();
        let accepted = loop {
            match fe.listener.accept() {
                Ok((stream, _)) => break stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::yield_now(),
                Err(e) => panic!("accept failed: {e}"),
            }
        };
        let token = event_loop.adopt(accepted).unwrap();
        (event_loop, token, client)
    }

    // Linux only: the fallback poller cannot block on a source, so its
    // loop ticks by design.
    #[cfg(target_os = "linux")]
    #[test]
    fn idle_connections_cost_no_passes_and_a_request_touches_only_its_own() {
        let server = server();
        let (fe, addr) = front_end(&server);
        let fe = Arc::new(fe);
        let runner = {
            let fe = Arc::clone(&fe);
            std::thread::spawn(move || fe.run())
        };
        let spec = ImageSpec {
            width: 64,
            height: 48,
            pattern: Pattern::PhotoLike { detail: 0.5 },
            seed: 7,
        };
        let jpeg = generate_jpeg(&spec, 85, Subsampling::S420).unwrap();
        let want = server.handle().decode(&jpeg).unwrap().image.data;

        let mut clients: Vec<TcpStream> =
            (0..64).map(|_| TcpStream::connect(addr).unwrap()).collect();
        // Every connect has completed, so the accept pass that counts the
        // 64th leaves the accept queue empty behind it.
        let deadline = Instant::now() + Duration::from_secs(30);
        while fe.stats().accepted < 64 {
            assert!(Instant::now() < deadline, "accepts stalled");
            std::thread::sleep(Duration::from_millis(1));
        }

        // 64 open, idle connections: the loop does not run at all.
        let idle = fe.stats();
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(
            fe.stats().wakeups - idle.wakeups,
            0,
            "an idle front end makes zero passes"
        );

        // One request on one of them: a handful of passes (bytes in,
        // completion, maybe the worker's parting notification) and reads
        // of that connection only — not a sweep of the other 63.
        let fills = fe.counters.fills.load(Ordering::Relaxed);
        let client = &mut clients[17];
        write_request(client, &jpeg).unwrap();
        match read_response(client).unwrap() {
            ServerReply::Ok(frame) => assert_eq!(frame.rgb, want),
            other => panic!("expected a decoded frame, got {other:?}"),
        }
        let passes = fe.stats().wakeups - idle.wakeups;
        let fills = fe.counters.fills.load(Ordering::Relaxed) - fills;
        assert!(passes <= 8, "{passes} passes for one request");
        assert!(fills <= 4, "{fills} connections read for one request");

        fe.stop();
        runner.join().unwrap().unwrap();
        server.shutdown();
    }

    #[test]
    fn completions_racing_the_loop_are_never_lost() {
        // 10^5 tickets on one connection, answered from a second thread as
        // fast as it can go while this loop drains the wake handle, clears
        // the flag and pumps. There is no socket traffic to rescue a lost
        // wake-up and the wait has no timeout, so losing one hangs the
        // test; every reply must reach the client, in order.
        const REPLIES: usize = 100_000;
        let server = server();
        let (fe, addr) = front_end(&server);
        let (mut event_loop, token, mut client) = loop_with_one_connection(&fe, addr);
        let conn = event_loop.conns.get_mut(&token).unwrap();
        let mut workers = Vec::with_capacity(REPLIES);
        for _ in 0..REPLIES {
            let (ticket, worker) = Ticket::detached(Some(Arc::clone(&conn.notifier)));
            conn.pending.push_back(Pending::Waiting(ticket));
            workers.push(worker);
        }
        // Close once everything is flushed, so the client sees EOF.
        conn.closing = true;

        std::thread::scope(|s| {
            s.spawn(move || {
                for (i, worker) in workers.into_iter().enumerate() {
                    // A one-byte frame (status 3) and a five-byte one
                    // (status 2 + hint), so a reordering shows.
                    worker(Some(Err(if i % 2 == 0 {
                        ServeError::Shutdown
                    } else {
                        ServeError::Busy {
                            retry_after: Duration::from_micros(i as u64),
                        }
                    })));
                }
            });
            s.spawn(move || {
                while !event_loop.conns.is_empty() {
                    event_loop.pass().unwrap();
                }
            });
            for i in 0..REPLIES {
                let reply = read_response(&mut client).unwrap();
                if i % 2 == 0 {
                    assert_eq!(reply, ServerReply::Shutdown, "reply {i}");
                } else {
                    let retry_after = Duration::from_micros(i as u64);
                    assert_eq!(reply, ServerReply::Busy { retry_after }, "reply {i}");
                }
            }
            let mut rest = Vec::new();
            client.read_to_end(&mut rest).unwrap();
            assert!(rest.is_empty(), "nothing after the last reply");
        });
        server.shutdown();
    }

    #[test]
    fn a_request_dropped_unanswered_still_wakes_its_connection() {
        // The worker lets go of a request without answering (it died, or
        // the queue closed under it): the connection must learn of the
        // hang-up from a notification, there being no tick to find it.
        let server = server();
        let (fe, addr) = front_end(&server);
        let (mut event_loop, token, mut client) = loop_with_one_connection(&fe, addr);
        let conn = event_loop.conns.get_mut(&token).unwrap();
        let (ticket, worker) = Ticket::detached(Some(Arc::clone(&conn.notifier)));
        conn.pending.push_back(Pending::Waiting(ticket));
        conn.closing = true;

        worker(None);
        while !event_loop.conns.is_empty() {
            event_loop.pass().unwrap();
        }
        match read_response(&mut client).unwrap() {
            ServerReply::Error(msg) => assert!(msg.contains("terminated"), "{msg}"),
            other => panic!("expected the worker-gone error frame, got {other:?}"),
        }
        server.shutdown();
    }
}
