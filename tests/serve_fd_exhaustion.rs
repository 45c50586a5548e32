//! The event front end when the process runs out of file descriptors. This
//! is the only test of its binary because it lowers `RLIMIT_NOFILE` for the
//! whole process, which every other test running meanwhile would feel.

// `RLIMIT_NOFILE` is 7, `CLOCK_PROCESS_CPUTIME_ID` 2, and `struct rlimit`
// and `struct timespec` two 64-bit integers each on these targets.
#![cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]

use hetjpeg::serve::frontend::FrontEnd;
use hetjpeg::serve::protocol::{self, ServerReply};
use hetjpeg::serve::{ServeConfig, Server};
use hetjpeg_corpus::{generate_jpeg, ImageSpec, Pattern};
use hetjpeg_jpeg::types::Subsampling;
use std::fs::File;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

const RLIMIT_NOFILE: i32 = 7;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time the whole process has used, without opening anything (the fd
/// table may be full).
fn process_cpu() -> Duration {
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a valid, writable `struct timespec` for the call.
    assert_eq!(
        unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) },
        0
    );
    Duration::new(t.sec as u64, t.nsec as u32)
}

/// Set the soft open-file limit, keeping the hard one.
fn set_nofile_soft(cur: u64) -> u64 {
    let mut limit = RLimit { cur: 0, max: 0 };
    // SAFETY: `limit` is a valid, writable `struct rlimit` for the call.
    assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut limit) }, 0);
    let old = limit.cur;
    limit.cur = cur.min(limit.max);
    // SAFETY: `limit` is a valid `struct rlimit`; the call only reads it.
    assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, &limit) }, 0);
    old
}

/// A connection that has sent `jpeg` and read a decoded frame back.
fn served(addr: SocketAddr, jpeg: &[u8]) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    protocol::write_request(&mut stream, jpeg).unwrap();
    let reply = protocol::read_response(&mut stream).unwrap();
    assert!(reply.frame().is_some(), "expected pixels, got {reply:?}");
    stream
}

#[test]
fn fd_exhaustion_sheds_in_band_instead_of_spinning() {
    let server = Server::start(ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fe = Arc::new(FrontEnd::new(server.handle(), listener).unwrap());
    let runner = {
        let fe = Arc::clone(&fe);
        std::thread::spawn(move || fe.run())
    };
    let spec = ImageSpec {
        width: 64,
        height: 48,
        pattern: Pattern::PhotoLike { detail: 0.5 },
        seed: 17,
    };
    let jpeg = generate_jpeg(&spec, 85, Subsampling::S420).unwrap();
    // One request served first: the loop is up, holding its poller, its
    // wake handle and its spare fd, before any of them could be refused.
    // The connection stays open until the table is given back: closed
    // here, the loop could free its socket after the table is full, and
    // accept the next client into that slot instead of shedding it.
    let first = served(addr, &jpeg);

    // Fill the fd table: cap it a little above the highest fd in use, then
    // open files until the kernel says no.
    let highest = std::fs::read_dir("/proc/self/fd")
        .unwrap()
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u64>().ok())
        .max()
        .unwrap();
    let original = set_nofile_soft(highest + 16);
    let mut filler = Vec::new();
    let exhausted = loop {
        match File::open("/dev/null") {
            Ok(f) => filler.push(f),
            Err(e) => break e,
        }
    };
    // One slot for the client's socket; the server's accept finds none.
    filler.pop();
    let before = fe.stats();
    let mut client = TcpStream::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Wait for the loop to shed the client, then watch it sit still: no
    // passes, and no CPU burnt inside one either (on Linux `accept` keeps
    // saying EMFILE while the table is full, waiting connection or not).
    let deadline = Instant::now() + Duration::from_secs(10);
    while fe.stats().rejected == before.rejected && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let cpu = process_cpu();
    std::thread::sleep(Duration::from_millis(200));
    let cpu = process_cpu() - cpu;
    let passes = fe.stats().wakeups - before.wakeups;
    let reply = protocol::read_response(&mut client);
    let mut rest = Vec::new();
    let after_busy = client.read_to_end(&mut rest);
    // Give the table back before asserting, so a failure reports cleanly.
    drop(filler);
    set_nofile_soft(original);
    drop(first);

    assert_eq!(exhausted.raw_os_error(), Some(24), "{exhausted}");
    assert!(
        passes <= 4,
        "{passes} loop passes to shed one client and idle 200 ms with the fd table full"
    );
    assert!(
        cpu < Duration::from_millis(50),
        "{cpu:?} of CPU in 200 ms with the fd table full and nothing to do"
    );
    match reply {
        Ok(ServerReply::Busy { retry_after }) => assert!(retry_after > Duration::ZERO),
        other => panic!("expected an in-band Busy, got {other:?}"),
    }
    assert!(
        matches!(after_busy, Ok(0)),
        "the shed connection is closed after its Busy frame: {after_busy:?}"
    );
    assert_eq!(fe.stats().rejected - before.rejected, 1);
    assert_eq!(fe.stats().accepted, before.accepted);

    // With descriptors back, the next client is served normally.
    let mut stream = served(addr, &jpeg);
    protocol::write_goodbye(&mut stream).unwrap();
    fe.stop();
    runner.join().unwrap().unwrap();
    server.shutdown();
}
