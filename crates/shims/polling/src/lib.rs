//! Offline stand-in for a readiness-polling crate (the mio/polling niche):
//! just enough API for an event-driven connection front end — register
//! file descriptors with a token and a read/write interest, change that
//! interest, wait for readiness, and wake a blocked wait from another
//! thread.
//!
//! On Linux this is real `epoll` plus an `eventfd` wake handle via direct
//! FFI (std already links libc, so the syscall wrappers cost no new
//! dependency). Everywhere else a portable timer-tick fallback sleeps out
//! the timeout and reports every registered source as ready — correct (if
//! busier) for callers that use nonblocking I/O and treat `WouldBlock` as
//! "not actually ready", which is the contract level-triggered readiness
//! APIs require anyway.
//!
//! Like the other shims under `crates/shims/`, swap this for the real
//! crate if the build environment ever gets network access.

use std::io;
use std::sync::Arc;
use std::time::Duration;

/// One readiness event: the token the source was registered under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Caller-chosen identifier from [`Poller::register`] or
    /// [`Poller::register_waker`].
    pub token: u64,
    /// The source is (claimed) readable; for a [`Waker`], it was fired.
    /// Error and hang-up conditions report as readable *and* writable so
    /// the caller's next read or write observes them in-band. The fallback
    /// poller claims every registered interest each tick; callers must
    /// treat `WouldBlock` on the subsequent I/O as "not ready".
    pub readable: bool,
    /// The source is (claimed) writable.
    pub writable: bool,
}

/// Interest set for [`Poller::register`] and [`Poller::modify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the source becomes readable.
    pub readable: bool,
    /// Wake when the source becomes writable.
    pub writable: bool,
}

impl Interest {
    /// Readable-only interest — what an accept/request front end wants
    /// while it has nothing blocked on the way out.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
}

#[cfg(target_os = "linux")]
mod sys {
    use super::{Event, Interest};
    use std::fs::File;
    use std::io::{self, Read, Write};
    use std::os::fd::{AsRawFd, FromRawFd};
    use std::sync::Arc;
    use std::time::Duration;

    const EPOLL_CLOEXEC: i32 = 0x80000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EFD_CLOEXEC: i32 = 0x80000;
    const EFD_NONBLOCK: i32 = 0x800;

    /// x86-64 Linux ABI layout of `struct epoll_event` (packed — the
    /// kernel shares this layout with 32-bit userspace).
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    fn interest_bits(interest: Interest) -> u32 {
        (if interest.readable { EPOLLIN } else { 0 })
            | (if interest.writable { EPOLLOUT } else { 0 })
    }

    /// The wake handle's kernel object: a nonblocking `eventfd` counter.
    /// Any number of writes before a read leave it readable once; the read
    /// resets it. The `File` owns the descriptor and closes it on drop.
    pub struct WakeFd(File);

    impl WakeFd {
        pub fn new() -> io::Result<WakeFd> {
            // SAFETY: `eventfd` takes two integers and touches no memory
            // of ours; a negative return is an error, anything else is a
            // fresh descriptor nobody else holds.
            let fd = unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            // SAFETY: `fd` was just returned by `eventfd`, is open, and is
            // owned by nothing else, so the `File` may take sole ownership
            // (and close it exactly once).
            Ok(WakeFd(unsafe { File::from_raw_fd(fd) }))
        }

        pub fn wake(&self) -> io::Result<()> {
            match (&self.0).write(&1u64.to_ne_bytes()) {
                Ok(_) => Ok(()),
                // The counter is saturated: it is already as signalled as
                // it can be.
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(()),
                Err(e) => Err(e),
            }
        }

        /// Reset the counter; a counter already at zero (`WouldBlock`) is
        /// as drained as it gets.
        fn drain(&self) {
            let _ = (&self.0).read(&mut [0u8; 8]);
        }
    }

    /// Real epoll-backed poller.
    pub struct Poller {
        epfd: i32,
        buf: Vec<EpollEvent>,
        /// Registered wake handles by token; the clone keeps each
        /// descriptor open for as long as epoll may report it.
        wakers: Vec<(u64, Arc<WakeFd>)>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            // SAFETY: `epoll_create1` takes one integer and touches no
            // memory of ours.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; 256],
                wakers: Vec::new(),
            })
        }

        fn ctl(&mut self, op: i32, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: interest_bits(interest),
                data: token,
            };
            // SAFETY: `ev` is a live, correctly laid-out `epoll_event` for
            // the duration of the call and the kernel only reads it;
            // `epfd` is this poller's own open epoll descriptor. A stale
            // or foreign `fd` is reported as an error, not dereferenced.
            if unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn register(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        pub fn modify(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        pub fn deregister(&mut self, fd: i32) -> io::Result<()> {
            // The kernel ignores the event argument for DEL (but pre-2.6.9
            // kernels reject a null one, hence the dummy).
            self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::READABLE)
        }

        pub fn register_waker(&mut self, waker: &Arc<WakeFd>, token: u64) -> io::Result<()> {
            self.register(waker.0.as_raw_fd(), token, Interest::READABLE)?;
            self.wakers.push((token, Arc::clone(waker)));
            Ok(())
        }

        pub fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            let timeout_ms = match timeout {
                // Round up so a sub-millisecond timeout still sleeps
                // instead of spinning.
                Some(d) => d.as_millis().max(1).min(i32::MAX as u128) as i32,
                None => -1,
            };
            let n = loop {
                // SAFETY: `buf` is a live allocation of `buf.len()`
                // `epoll_event`s that the kernel may write up to
                // `maxevents` of, and nothing else borrows it during the
                // call; `epfd` is this poller's own open descriptor.
                let n = unsafe {
                    epoll_wait(
                        self.epfd,
                        self.buf.as_mut_ptr(),
                        self.buf.len() as i32,
                        timeout_ms,
                    )
                };
                if n >= 0 {
                    break n as usize;
                }
                let e = io::Error::last_os_error();
                if e.kind() != io::ErrorKind::Interrupted {
                    return Err(e);
                }
                // A stray signal is a spurious wakeup, not a poller
                // failure: a timed wait reports it as an early timeout, an
                // untimed one has no deadline to honour and waits again.
                if timeout.is_some() {
                    return Ok(0);
                }
            };
            for ev in &self.buf[..n] {
                // Copy out of the packed struct; references into it would
                // be unaligned.
                let (bits, token) = (ev.events, ev.data);
                // A fired wake handle is consumed by the wait that reports
                // it: every wake before this point collapses into this one
                // event.
                if let Some((_, waker)) = self.wakers.iter().find(|(t, _)| *t == token) {
                    waker.drain();
                }
                // Error/hangup conditions report as both: the caller's
                // read or write observes the actual EOF/error in-band.
                events.push(Event {
                    token,
                    readable: bits & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0,
                    writable: bits & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(n)
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: `epfd` came from `epoll_create1` in `new`, is closed
            // nowhere else, and is not used after this.
            unsafe {
                close(self.epfd);
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::{Event, Interest};
    use std::io;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    /// The one timer left in the stack: how long the fallback sleeps when
    /// asked to wait without a timeout.
    const TICK: Duration = Duration::from_millis(1);

    /// The wake handle without an eventfd: a flag the next tick reports.
    pub struct WakeFd(AtomicBool);

    impl WakeFd {
        pub fn new() -> io::Result<WakeFd> {
            Ok(WakeFd(AtomicBool::new(false)))
        }

        pub fn wake(&self) -> io::Result<()> {
            // Release pairs with the Acquire swap in `wait`: what the
            // waking thread wrote before `wake` is visible to the waiter
            // that sees the flag.
            self.0.store(true, Ordering::Release);
            Ok(())
        }
    }

    /// Portable fallback: a timer tick that claims every registered
    /// interest ready. Callers using nonblocking I/O observe `WouldBlock`
    /// on the ones that are not, so behavior is correct, just busier (one
    /// pass over the registration table per tick).
    pub struct Poller {
        registered: Vec<(i32, u64, Interest)>,
        wakers: Vec<(u64, Arc<WakeFd>)>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                registered: Vec::new(),
                wakers: Vec::new(),
            })
        }

        pub fn register(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
            self.registered.push((fd, token, interest));
            Ok(())
        }

        pub fn modify(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
            match self.registered.iter_mut().find(|(f, _, _)| *f == fd) {
                Some(entry) => {
                    *entry = (fd, token, interest);
                    Ok(())
                }
                None => Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    "source is not registered",
                )),
            }
        }

        pub fn deregister(&mut self, fd: i32) -> io::Result<()> {
            self.registered.retain(|&(f, _, _)| f != fd);
            Ok(())
        }

        pub fn register_waker(&mut self, waker: &Arc<WakeFd>, token: u64) -> io::Result<()> {
            self.wakers.push((token, Arc::clone(waker)));
            Ok(())
        }

        pub fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            std::thread::sleep(timeout.unwrap_or(TICK));
            let before = events.len();
            for (token, waker) in &self.wakers {
                if waker.0.swap(false, Ordering::Acquire) {
                    events.push(Event {
                        token: *token,
                        readable: true,
                        writable: false,
                    });
                }
            }
            for &(_, token, interest) in &self.registered {
                events.push(Event {
                    token,
                    readable: interest.readable,
                    writable: interest.writable,
                });
            }
            Ok(events.len() - before)
        }
    }
}

/// A handle other threads fire to wake a [`Poller::wait`]: registered like
/// any source ([`Poller::register_waker`]) and reported as a readable
/// event under its token.
///
/// Wakes coalesce: any number of [`Waker::wake`] calls before a wait
/// produce one event, and the wait that reports the event consumes it —
/// the next wait blocks again unless someone fired in between. (Linux: a
/// nonblocking `eventfd`, one 8-byte write per wake. Fallback: a flag the
/// next tick reports.)
pub struct Waker {
    inner: Arc<sys::WakeFd>,
}

impl Waker {
    /// Create an unfired wake handle.
    pub fn new() -> io::Result<Waker> {
        Ok(Waker {
            inner: Arc::new(sys::WakeFd::new()?),
        })
    }

    /// Fire: the current or next [`Poller::wait`] on a poller this handle
    /// is registered with returns. Safe from any thread.
    pub fn wake(&self) -> io::Result<()> {
        self.inner.wake()
    }
}

/// Readiness poller: register sources by raw fd + token, wait for events.
///
/// Level-triggered: a source that stays ready is reported again on the
/// next [`Poller::wait`].
pub struct Poller {
    inner: sys::Poller,
}

impl Poller {
    /// Create a poller.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            inner: sys::Poller::new()?,
        })
    }

    /// Register a source (by raw fd) under `token`. The caller keeps
    /// ownership of the fd and must [`Poller::deregister`] before closing
    /// it (the fallback poller tracks fds by value).
    pub fn register(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
        self.inner.register(fd, token, interest)
    }

    /// Replace a registered source's interest (and token).
    pub fn modify(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
        self.inner.modify(fd, token, interest)
    }

    /// Remove a previously registered source.
    pub fn deregister(&mut self, fd: i32) -> io::Result<()> {
        self.inner.deregister(fd)
    }

    /// Register a wake handle under `token`. The poller keeps the handle's
    /// kernel object alive itself, so the [`Waker`] may be dropped (or
    /// outlive the poller) without ceremony.
    pub fn register_waker(&mut self, waker: &Waker, token: u64) -> io::Result<()> {
        self.inner.register_waker(&waker.inner, token)
    }

    /// Wait up to `timeout` and append readiness events to `events` (not
    /// cleared first). Returns how many were appended; 0 means the timeout
    /// (or, for a timed wait, a stray signal) elapsed first. `None` blocks
    /// until a source is ready or a registered [`Waker`] fires — on Linux;
    /// the fallback poller has no way to block on a source and ticks
    /// instead.
    pub fn wait(
        &mut self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        self.inner.wait(events, timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::time::{Duration, Instant};

    #[cfg(unix)]
    fn raw_fd(s: &impl std::os::fd::AsRawFd) -> i32 {
        s.as_raw_fd()
    }

    #[test]
    #[cfg(unix)]
    fn tcp_readability_is_reported() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut poller = Poller::new().unwrap();
        poller
            .register(raw_fd(&listener), 7, Interest::READABLE)
            .unwrap();

        // Nothing pending: a short wait times out (the fallback poller
        // legitimately claims readiness here, so only assert on Linux).
        let mut events = Vec::new();
        #[cfg(target_os = "linux")]
        {
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            assert!(events.is_empty(), "no connection yet: {events:?}");
        }

        // A connection attempt makes the listener readable.
        let mut client = TcpStream::connect(addr).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            events.clear();
            poller
                .wait(&mut events, Some(Duration::from_millis(50)))
                .unwrap();
            if events.iter().any(|e| e.token == 7 && e.readable) {
                break;
            }
            assert!(Instant::now() < deadline, "listener never became readable");
        }
        let (stream, _) = listener.accept().unwrap();

        // Same for a data socket.
        poller
            .register(raw_fd(&stream), 9, Interest::READABLE)
            .unwrap();
        client.write_all(b"x").unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            events.clear();
            poller
                .wait(&mut events, Some(Duration::from_millis(50)))
                .unwrap();
            if events.iter().any(|e| e.token == 9 && e.readable) {
                break;
            }
            assert!(Instant::now() < deadline, "stream never became readable");
        }
        poller.deregister(raw_fd(&stream)).unwrap();
        poller.deregister(raw_fd(&listener)).unwrap();
    }

    #[test]
    fn wait_times_out_without_sources() {
        let mut poller = Poller::new().unwrap();
        let mut events = Vec::new();
        let t0 = Instant::now();
        poller
            .wait(&mut events, Some(Duration::from_millis(5)))
            .unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(1));
        assert!(events.is_empty());
    }

    #[test]
    fn a_wake_from_another_thread_returns_an_untimed_wait() {
        let mut poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller.register_waker(&waker, 42).unwrap();
        let mut events = Vec::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                // Long enough that the main thread is usually parked in
                // `wait` already; the assertion holds either way, because
                // a wake before the wait makes the wait return at once.
                std::thread::sleep(Duration::from_millis(20));
                waker.wake().unwrap();
            });
            // No timeout: a wake that does not reach the wait hangs the
            // test instead of being papered over.
            while events.is_empty() {
                poller.wait(&mut events, None).unwrap();
            }
        });
        assert_eq!(
            events,
            [Event {
                token: 42,
                readable: true,
                writable: false
            }]
        );
    }

    #[test]
    fn wakes_coalesce_and_the_reporting_wait_consumes_them() {
        let mut poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller.register_waker(&waker, 5).unwrap();
        for _ in 0..1000 {
            waker.wake().unwrap();
        }
        let mut events = Vec::new();
        while events.is_empty() {
            poller.wait(&mut events, None).unwrap();
        }
        assert_eq!(events.len(), 1, "1000 wakes, one event: {events:?}");
        assert_eq!(events[0].token, 5);

        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "the wake was consumed: {events:?}");

        // And the handle is reusable afterwards.
        waker.wake().unwrap();
        while events.is_empty() {
            poller.wait(&mut events, None).unwrap();
        }
        assert_eq!(events.len(), 1);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn write_interest_follows_modify_and_the_send_buffer() {
        use std::io::Read;

        /// Nonblocking-write `stream` until the kernel refuses more.
        fn fill_send_buffer(stream: &mut TcpStream) {
            let chunk = [0xA5u8; 64 * 1024];
            loop {
                match stream.write(&chunk) {
                    Ok(_) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                    Err(e) => panic!("write failed: {e}"),
                }
            }
        }

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        let fd = raw_fd(&stream);
        let short = Some(Duration::from_millis(20));

        let mut poller = Poller::new().unwrap();
        let mut events = Vec::new();
        poller.register(fd, 3, Interest::READABLE).unwrap();
        poller.wait(&mut events, short).unwrap();
        assert!(events.is_empty(), "read interest only, nothing to read");

        // Write interest on an idle connected socket: writable at once.
        let both = Interest {
            readable: true,
            writable: true,
        };
        poller.modify(fd, 3, both).unwrap();
        poller.wait(&mut events, None).unwrap();
        assert_eq!(
            events,
            [Event {
                token: 3,
                readable: false,
                writable: true
            }]
        );

        // Fill the send path until the report stops. (One refusal is not
        // enough: the kernel keeps moving queued bytes into the peer's
        // receive buffer, which frees send space for a moment.)
        let mut rounds = 0;
        loop {
            fill_send_buffer(&mut stream);
            events.clear();
            poller.wait(&mut events, short).unwrap();
            if events.is_empty() {
                break;
            }
            rounds += 1;
            assert!(rounds < 10_000, "the socket never stopped being writable");
        }

        // The peer reads: writable again. The reader drains until the
        // sender goes quiet so the window reopens however much was queued.
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                peer.set_read_timeout(Some(Duration::from_millis(200)))
                    .unwrap();
                let mut sink = vec![0u8; 1 << 20];
                while peer.read(&mut sink).is_ok_and(|n| n > 0) {}
            });
            while events.is_empty() {
                poller.wait(&mut events, None).unwrap();
            }
            assert!(events[0].writable, "{events:?}");
            reader.join().unwrap();
        });

        // Back to read-only: silence, although the socket is writable.
        poller.modify(fd, 3, Interest::READABLE).unwrap();
        events.clear();
        poller.wait(&mut events, short).unwrap();
        assert!(events.is_empty(), "write interest was dropped: {events:?}");
        poller.deregister(fd).unwrap();
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn pollers_and_wakers_release_their_descriptors() {
        fn open_fds() -> usize {
            std::fs::read_dir("/proc/self/fd").unwrap().count()
        }
        let before = open_fds();
        for _ in 0..10_000 {
            let mut poller = Poller::new().unwrap();
            let waker = Waker::new().unwrap();
            poller.register_waker(&waker, 1).unwrap();
        }
        // Two descriptors per cycle would be 20 000 leaked; the slack only
        // absorbs what the other tests in this process hold open.
        let after = open_fds();
        assert!(
            after <= before + 32,
            "descriptors leaked: {before} before, {after} after"
        );
    }
}
