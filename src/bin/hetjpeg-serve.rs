//! `hetjpeg-serve` — the multi-session decode server front end.
//!
//! ```text
//! hetjpeg-serve --addr 127.0.0.1:7033 --shards 4          # TCP server
//! hetjpeg-serve --stdio < frames.bin > responses.bin      # stdio framing
//! hetjpeg-serve --smoke                                   # CI self-test
//! hetjpeg-serve --chaos-smoke                             # CI fault-tolerance proof
//! ```
//!
//! The wire protocol is length-prefixed (see `hetjpeg_serve::protocol`):
//! requests are v1 (`u32_be length + JPEG`) or v2 frames carrying a
//! per-request deadline, degrade-ok flag, TLV decode options and a
//! streaming opt-in; responses are `ok`, `error`, `busy`, `shutdown`,
//! `degraded-ok` or streamed (`begin`/`chunk`*/`final` with a CRC-32)
//! frames. A zero-length request closes the connection gracefully.
//!
//! `--addr` serves with the event-driven front end
//! (`hetjpeg_serve::frontend`): one thread, epoll readiness and shard
//! completions, zero threads and zero loop passes per idle connection.
//! `--max-connections N` sets its admission cap (over-cap clients get a
//! `busy` frame, never a silent drop). The front end is unix-only: on other
//! hosts only `--stdio` serves, and `--addr`, `--smoke` and `--chaos-smoke`
//! exit with the usage message.
//!
//! `--smoke` is the end-to-end proof CI runs: serve through that same
//! front end on an ephemeral loopback port, decode corpus images from two
//! pipelined client connections — one speaking v1, one v2 with streamed
//! replies — compare every payload against a direct `Decoder::decode`,
//! and shut down checking the front end's and the drain's accounting.
//!
//! `--chaos-smoke` is the PR-8 resilience proof: run seeded fault plans
//! (decode panics, a stalled shard, short/EINTR reads) against real
//! traffic (the short/EINTR reads through the front end's own reader) and
//! assert that non-faulted requests stay bit-identical to direct decodes,
//! panicked sessions are rebuilt (counter-verified), the circuit breaker
//! sheds around a dying shard, and deadline-infeasible requests are shed
//! or degraded — never silently slow.
//!
//! `--fault SPEC` (or `HETJPEG_FAULT`) arms the deterministic fault
//! harness on any serving mode; see `hetjpeg_serve::fault` for the
//! grammar. Any other `--` argument is a usage error (exit 2).

use hetjpeg_core::{DecodeOptions, Platform};
use hetjpeg_serve::fault::FaultPlan;
use hetjpeg_serve::{protocol, ServeConfig, Server};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
#[cfg(unix)]
use {
    hetjpeg_core::Decoder,
    hetjpeg_corpus::{generate_jpeg, ImageSpec, Pattern},
    hetjpeg_jpeg::types::Subsampling,
    hetjpeg_serve::frontend::{FrontEnd, FrontEndStats, DEFAULT_MAX_CONNECTIONS},
    hetjpeg_serve::{ServeError, ServeHandle, SubmitOptions},
    std::net::{SocketAddr, TcpListener, TcpStream},
};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  hetjpeg-serve (--addr HOST:PORT | --stdio | --smoke | --chaos-smoke)\n\
         \u{20}              [--shards N] [--queue-depth N] [--cache-cap N] [--threads N]\n\
         \u{20}              [--platform gt430|gtx560|gtx680] [--model model.txt]\n\
         \u{20}              [--max-pixels N] [--tolerant] [--max-scans N] [--scan-deadline-us N]\n\
         \u{20}              [--fault SPEC[:SEED]] [--breaker-threshold N] [--breaker-cooldown-us N]\n\
         \u{20}              [--max-connections N]"
    );
    ExitCode::from(2)
}

/// Flags followed by a value, and flags that stand alone.
const VALUE_FLAGS: [&str; 14] = [
    "--addr",
    "--shards",
    "--queue-depth",
    "--cache-cap",
    "--threads",
    "--platform",
    "--model",
    "--max-pixels",
    "--max-scans",
    "--scan-deadline-us",
    "--fault",
    "--breaker-threshold",
    "--breaker-cooldown-us",
    "--max-connections",
];
const SWITCHES: [&str; 4] = ["--stdio", "--smoke", "--chaos-smoke", "--tolerant"];

/// Refuse any `--` argument that is not a known flag: a typo or a retired
/// flag must not run the server on a default nobody asked for.
fn check_flags(args: &[String]) -> Result<(), ExitCode> {
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if VALUE_FLAGS.contains(&arg.as_str()) {
            args.next();
        } else if arg.starts_with("--") && !SWITCHES.contains(&arg.as_str()) {
            eprintln!("unknown flag {arg}");
            return Err(usage());
        }
    }
    Ok(())
}

fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse_or_usage<T: std::str::FromStr>(args: &[String], key: &str) -> Result<Option<T>, ExitCode> {
    match arg_value(args, key) {
        None => Ok(None),
        Some(v) => v.parse().map(Some).map_err(|_| {
            eprintln!("invalid {key} value {v:?}");
            usage()
        }),
    }
}

fn config_from_args(args: &[String]) -> Result<ServeConfig, ExitCode> {
    check_flags(args)?;
    let mut config = ServeConfig::default();
    if let Some(n) = parse_or_usage(args, "--shards")? {
        config.shards = n;
    }
    if let Some(n) = parse_or_usage(args, "--queue-depth")? {
        config.queue_depth = n;
    }
    if let Some(n) = parse_or_usage(args, "--cache-cap")? {
        config.auto_cache_cap = n;
    }
    if let Some(n) = parse_or_usage(args, "--threads")? {
        config.threads = n;
    }
    match arg_value(args, "--platform").as_deref() {
        None => {}
        Some("gt430") => config.platform = Platform::gt430(),
        Some("gtx560") => config.platform = Platform::gtx560(),
        Some("gtx680") => config.platform = Platform::gtx680(),
        Some(other) => {
            eprintln!("unknown platform {other}");
            return Err(usage());
        }
    }
    if let Some(path) = arg_value(args, "--model") {
        match std::fs::read_to_string(&path)
            .ok()
            .and_then(|t| hetjpeg_core::model::PerformanceModel::load_str(&t))
        {
            Some(m) => config.model = Some(m),
            None => {
                eprintln!("cannot load model from {path}");
                return Err(ExitCode::FAILURE);
            }
        }
    }
    let mut opts = DecodeOptions::default();
    if let Some(px) = parse_or_usage(args, "--max-pixels")? {
        opts = opts.max_pixels(px);
    }
    if args.iter().any(|a| a == "--tolerant") {
        opts = opts.tolerant();
    }
    if let Some(n) = parse_or_usage(args, "--max-scans")? {
        opts = opts.max_scans(n);
    }
    config.options = opts;
    if let Some(us) = parse_or_usage::<u64>(args, "--scan-deadline-us")? {
        config.scan_deadline = Some(Duration::from_micros(us));
    }
    if let Some(spec) = arg_value(args, "--fault") {
        match FaultPlan::parse(&spec) {
            Ok(plan) => config.fault_plan = Some(Arc::new(plan)),
            Err(e) => {
                eprintln!("invalid --fault spec: {e}");
                return Err(ExitCode::FAILURE);
            }
        }
    }
    if let Some(n) = parse_or_usage(args, "--breaker-threshold")? {
        config.breaker_threshold = n;
    }
    if let Some(us) = parse_or_usage::<u64>(args, "--breaker-cooldown-us")? {
        config.breaker_cooldown = Duration::from_micros(us);
    }
    Ok(config)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match config_from_args(&args) {
        Ok(c) => c,
        Err(code) => return code,
    };
    let flag = |f: &str| args.iter().any(|a| a == f);
    let addr = arg_value(&args, "--addr");
    #[cfg(unix)]
    {
        if flag("--smoke") {
            return smoke(config);
        }
        if flag("--chaos-smoke") {
            return chaos_smoke(config);
        }
        if let (false, Some(addr)) = (flag("--stdio"), &addr) {
            return run_tcp(config, addr, &args);
        }
    }
    if flag("--stdio") && addr.is_none() {
        return run_stdio(config);
    }
    usage()
}

fn print_stats(stats: &hetjpeg_serve::ServerStats) {
    let t = stats.total();
    let pool = t.session.pool;
    eprintln!(
        "served {} requests in {} batches (mean batch {:.2}, errors {}); \
         auto cache: {} evals, {} hits, {} evictions",
        t.requests,
        t.batches,
        t.requests as f64 / t.batches.max(1) as f64,
        t.decode_errors,
        pool.auto_evals,
        pool.auto_cache_hits,
        pool.auto_evictions,
    );
    let prog = t.session.progressive;
    if prog.scans_decoded > 0 {
        eprintln!(
            "progressive: {} scans decoded, {} refinement passes, \
             {} partial renders ({} deadline-paced)",
            prog.scans_decoded, prog.refine_passes, prog.partial_renders, t.deadline_partials,
        );
    }
    if t.panics_recovered + t.breaker_trips + t.shed + t.degraded + t.shutdown_drained > 0 {
        eprintln!(
            "resilience: {} panics recovered, {} sessions rebuilt, {} breaker trips, \
             {} shed, {} degraded, {} drained at shutdown",
            t.panics_recovered,
            t.sessions_rebuilt,
            t.breaker_trips,
            t.shed,
            t.degraded,
            t.shutdown_drained,
        );
    }
}

/// Start the shard pool, or say why it cannot start.
fn start(config: ServeConfig) -> Option<Server> {
    Server::start(config)
        .map_err(|e| eprintln!("cannot start server: {e}"))
        .ok()
}

fn run_stdio(config: ServeConfig) -> ExitCode {
    let Some(server) = start(config) else {
        return ExitCode::FAILURE;
    };
    let result = protocol::serve_stdio(&server.handle());
    let stats = server.shutdown();
    print_stats(&stats);
    match result {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("stdio serving failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(unix)]
fn run_tcp(config: ServeConfig, addr: &str, args: &[String]) -> ExitCode {
    let max_connections = match parse_or_usage(args, "--max-connections") {
        Ok(n) => n.unwrap_or(DEFAULT_MAX_CONNECTIONS),
        Err(code) => return code,
    };
    let listener = match TcpListener::bind(addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(server) = start(config) else {
        return ExitCode::FAILURE;
    };
    let local = listener.local_addr().map(|a| a.to_string());
    eprintln!(
        "hetjpeg-serve listening on {}",
        local.as_deref().unwrap_or(addr)
    );
    let result = FrontEnd::with_max_connections(server.handle(), listener, max_connections)
        .and_then(|fe| {
            let served = fe.run();
            let stats = fe.stats();
            eprintln!(
                "front end: {} connections accepted ({} refused, peak {} open), \
                 {} requests in {} loop wake-ups",
                stats.accepted,
                stats.rejected,
                stats.peak_connections,
                stats.requests,
                stats.wakeups,
            );
            served
        });
    let stats = server.shutdown();
    print_stats(&stats);
    match result {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("TCP serving failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Serve `handle` through a [`FrontEnd`] on an ephemeral loopback port —
/// the path `--addr` ships — while `clients` runs, then stop it.
#[cfg(unix)]
fn through_front_end<T>(
    handle: &ServeHandle,
    clients: impl FnOnce(SocketAddr) -> T,
) -> (T, FrontEndStats) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let fe = Arc::new(FrontEnd::new(handle.clone(), listener).expect("front end"));
    // Not scoped: a panicking client must end the process, not wait on a
    // loop nobody stops.
    let runner = {
        let fe = Arc::clone(&fe);
        std::thread::spawn(move || fe.run())
    };
    let out = clients(addr);
    fe.stop();
    runner
        .join()
        .expect("front-end thread")
        .expect("front-end loop");
    (out, fe.stats())
}

/// Direct session decodes with `config`'s platform, model, threads and
/// options: the bytes every served reply must equal.
#[cfg(unix)]
fn reference(config: &ServeConfig) -> impl Fn(&[u8]) -> Vec<u8> {
    let model = config.model.clone();
    let decoder = Decoder::builder()
        .platform(config.platform.clone())
        .model(model.unwrap_or_else(|| config.platform.untrained_model()))
        .threads(config.threads)
        .build()
        .expect("reference session");
    let options = config.options;
    move |jpeg| {
        decoder
            .decode(jpeg, options)
            .expect("reference decode")
            .image
            .data
    }
}

/// Pipeline the `(jpeg, want)` cases' requests on one new connection to
/// `addr` — `write` frames the `i`th, and every request is written before
/// any reply is read — then say goodbye, and count the replies that are not
/// a full-fidelity frame of the case's `want` pixels.
#[cfg(unix)]
fn pipelined_mismatches<'a>(
    addr: SocketAddr,
    cases: impl IntoIterator<Item = (&'a Vec<u8>, &'a Vec<u8>)>,
    write: impl Fn(&mut TcpStream, usize, &[u8]) -> std::io::Result<()>,
) -> usize {
    let cases: Vec<_> = cases.into_iter().collect();
    let mut stream = TcpStream::connect(addr).expect("connect");
    for (i, (jpeg, _)) in cases.iter().enumerate() {
        write(&mut stream, i, jpeg).expect("write request");
    }
    protocol::write_goodbye(&mut stream).expect("goodbye");
    let mut mismatches = 0;
    for (i, (_, want)) in cases.iter().enumerate() {
        let reply = protocol::read_response(&mut stream).expect("read response");
        if !matches!(&reply, protocol::ServerReply::Ok(frame) if &frame.rgb == *want) {
            let why = reply.into_frame().err();
            eprintln!(
                "reply {i}: {}",
                why.as_deref().unwrap_or("not the reference pixels")
            );
            mismatches += 1;
        }
    }
    mismatches
}

/// CI self-test: full server lifecycle over the real TCP protocol and the
/// event front end, byte-compared against direct session decodes.
#[cfg(unix)]
fn smoke(mut config: ServeConfig) -> ExitCode {
    config.shards = config.shards.max(2);
    let shards = config.shards;

    // A small mixed corpus: several shapes, subsamplings and qualities.
    let mut corpus: Vec<Vec<u8>> = [
        (96usize, 96usize, 85u8, Subsampling::S420),
        (128, 96, 85, Subsampling::S422),
        (96, 96, 92, Subsampling::S420),
        (160, 128, 80, Subsampling::S444),
    ]
    .iter()
    .enumerate()
    .flat_map(|(i, &(w, h, q, sub))| {
        (0..3).map(move |seed| {
            let spec = ImageSpec {
                width: w,
                height: h,
                pattern: Pattern::PhotoLike { detail: 0.55 },
                seed: (i * 100 + seed) as u64,
            };
            generate_jpeg(&spec, q, sub).expect("encode corpus image")
        })
    })
    .collect();
    // Plus progressive (SOF2) counterparts: the smoke proves multi-scan
    // requests ride the same wire and match direct decodes byte for byte.
    for seed in 0..2u64 {
        let spec = ImageSpec {
            width: 112,
            height: 80,
            pattern: Pattern::PhotoLike { detail: 0.55 },
            seed: 900 + seed,
        };
        corpus.push(
            hetjpeg_corpus::generate_progressive_jpeg(
                &spec,
                85,
                Subsampling::S420,
                hetjpeg_jpeg::progressive::ScanPreset::Standard10,
            )
            .expect("encode progressive corpus image"),
        );
    }
    let corpus = corpus;

    let decode = reference(&config);
    let references: Vec<Vec<u8>> = corpus.iter().map(|j| decode(j)).collect();

    let Some(server) = start(config) else {
        return ExitCode::FAILURE;
    };

    let total = corpus.len();
    let mut streamed = SubmitOptions::default();
    streamed.options.streaming = true;
    let (mismatches, fe_stats) = through_front_end(&server.handle(), |addr| {
        // Two pipelined client connections splitting the corpus: the first
        // speaks v1, the second v2 with streamed replies.
        let v1 = |w: &mut TcpStream, _, j: &[u8]| protocol::write_request(w, j);
        let v2 = |w: &mut TcpStream, _, j: &[u8]| protocol::write_request_v2_opts(w, j, &streamed);
        let cases = || corpus.iter().zip(&references);
        pipelined_mismatches(addr, cases().step_by(2), v1)
            + pipelined_mismatches(addr, cases().skip(1).step_by(2), v2)
    });

    let stats = server.shutdown();
    print_stats(&stats);
    let t = stats.total();
    if mismatches != 0 {
        eprintln!("smoke: FAILED: {mismatches} replies differ from direct decode");
        return ExitCode::FAILURE;
    }
    let v2_requests = total as u64 / 2;
    if t.requests != total as u64 || t.decode_errors != 0 || t.streamed != v2_requests {
        eprintln!(
            "smoke: accounting mismatch: {} requests recorded for {total} sent, {} errors, \
             {} streamed for {v2_requests} streaming requests",
            t.requests, t.decode_errors, t.streamed,
        );
        return ExitCode::FAILURE;
    }
    if fe_stats.accepted != 2 || fe_stats.rejected != 0 || fe_stats.requests != total as u64 {
        eprintln!("smoke: front-end accounting mismatch: {fe_stats:?}");
        return ExitCode::FAILURE;
    }
    // Every shard must have decoded at the host's detected kernel level
    // (honoring HETJPEG_SIMD) — a silent scalar fallback would still
    // produce bit-identical bytes, so only the stats can catch it. (The
    // stats report what the last decode dispatched, so this also says no
    // shard's last request resolved to `Mode::Sequential`.)
    let expected = hetjpeg_core::SimdLevel::detect();
    if stats.simd_level() != Some(expected) {
        eprintln!(
            "smoke: shard SIMD level {:?} != detected {:?}",
            stats.simd_level(),
            expected
        );
        return ExitCode::FAILURE;
    }
    // The two progressive requests must have exercised the multi-scan
    // path: 10 scans and 5 refinement passes each, no partial renders.
    let prog = t.session.progressive;
    if prog.scans_decoded != 20 || prog.refine_passes != 10 || prog.partial_renders != 0 {
        eprintln!("smoke: unexpected progressive counters: {prog:?}");
        return ExitCode::FAILURE;
    }
    // Deadline pacing end to end: seed a 1-shard server's throughput
    // estimate with one full decode, then a 1 ns budget must force a
    // prefix render flagged truncated and counted as deadline-paced.
    let paced_spec = ImageSpec {
        width: 112,
        height: 80,
        pattern: Pattern::PhotoLike { detail: 0.55 },
        seed: 900,
    };
    let paced_jpeg = hetjpeg_corpus::generate_progressive_jpeg(
        &paced_spec,
        85,
        Subsampling::S420,
        hetjpeg_jpeg::progressive::ScanPreset::Standard10,
    )
    .expect("encode paced image");
    let paced_server = Server::start(ServeConfig {
        shards: 1,
        scan_deadline: Some(Duration::from_nanos(1)),
        ..ServeConfig::default()
    })
    .expect("start paced server");
    let paced_handle = paced_server.handle();
    let seeded = paced_handle.decode(&paced_jpeg).expect("seeding decode");
    let paced_out = paced_handle.decode(&paced_jpeg).expect("paced decode");
    let paced_stats = paced_server.shutdown().total();
    if seeded.truncated
        || !paced_out.truncated
        || paced_stats.deadline_partials != 1
        || paced_stats.session.progressive.partial_renders != 1
    {
        eprintln!(
            "smoke: deadline pacing misbehaved: seeded.truncated={} paced.truncated={} \
             deadline_partials={} progressive={:?}",
            seeded.truncated,
            paced_out.truncated,
            paced_stats.deadline_partials,
            paced_stats.session.progressive,
        );
        return ExitCode::FAILURE;
    }
    println!(
        "smoke OK: {total} images through {shards} shards over TCP via the event front end \
         ({} kernels), v1 and streamed v2, all payloads bit-identical to direct decode",
        expected.name()
    );
    ExitCode::SUCCESS
}

/// CI resilience proof: run seeded fault plans against real traffic and
/// verify the failure-domain guarantees end to end — panic isolation with
/// counter-verified session rebuild, circuit-breaker shedding, chaotic
/// reads that never desync the framing, and SLO shed/degrade behaviour.
#[cfg(unix)]
fn chaos_smoke(config: ServeConfig) -> ExitCode {
    macro_rules! check {
        ($cond:expr, $($msg:tt)+) => {
            if !$cond {
                eprintln!("chaos-smoke FAILED: {}", format_args!($($msg)+));
                return ExitCode::FAILURE;
            }
        };
    }

    let jpeg_for = |seed: u64| {
        let spec = ImageSpec {
            width: 96,
            height: 96,
            pattern: Pattern::PhotoLike { detail: 0.55 },
            seed,
        };
        generate_jpeg(&spec, 85, Subsampling::S420).expect("encode chaos image")
    };
    let ref_bytes = reference(&config);

    // Phase 1 — panic isolation on a stuttering shard. One decode panic
    // (request #2 of the home shard) plus a 3 ms stall on every 2nd
    // request; everything except the panicked request must come back
    // bit-identical, and the shard must keep serving after its rebuild.
    let plan = Arc::new(FaultPlan::parse("panic=#2,latency=2x3ms:7").expect("phase 1 plan"));
    eprintln!("chaos-smoke phase 1: {}", plan.describe());
    let mut cfg = config.clone();
    cfg.shards = 2;
    cfg.breaker_threshold = 99; // keep the breaker out of this phase
    cfg.fault_plan = Some(plan.clone());
    let server = Server::start(cfg).expect("phase 1 server");
    let handle = server.handle();
    let mut panicked = 0usize;
    for i in 0..6u64 {
        let jpeg = jpeg_for(i);
        let want = ref_bytes(&jpeg);
        match handle.decode(&jpeg) {
            Ok(out) => {
                check!(
                    out.image.data == want,
                    "phase 1: payload mismatch on image {i}"
                );
            }
            Err(ServeError::Panicked(_)) => {
                panicked += 1;
                check!(
                    i == 1,
                    "phase 1: panic fired on image {i}, expected image 1"
                );
            }
            Err(e) => check!(false, "phase 1: unexpected error on image {i}: {e}"),
        }
    }
    // The rebuilt session keeps serving, bit-identically.
    let jpeg = jpeg_for(100);
    let want = ref_bytes(&jpeg);
    match handle.decode(&jpeg) {
        Ok(out) => check!(
            out.image.data == want,
            "phase 1: post-rebuild payload mismatch"
        ),
        Err(e) => check!(false, "phase 1: post-rebuild decode failed: {e}"),
    }
    let t = server.shutdown().total();
    check!(panicked == 1, "phase 1: saw {panicked} panics, expected 1");
    check!(
        t.requests == 7
            && t.panics_recovered == 1
            && t.sessions_rebuilt == 1
            && t.decode_errors == 0
            && t.breaker_trips == 0,
        "phase 1 counters: {t:?}"
    );
    // Deterministic schedule: 1 panic + 3 latency stalls (reads 2, 4, 6).
    check!(
        plan.injections_fired() == 4,
        "phase 1: {} injections fired, expected 4",
        plan.injections_fired()
    );

    // Phase 2 — circuit breaker around a dying shard: two consecutive
    // panics trip it, the next request is shed fast with a retry hint,
    // and after the cooldown a half-open probe closes it again.
    let mut cfg = config.clone();
    cfg.shards = 1;
    cfg.breaker_threshold = 2;
    cfg.breaker_cooldown = Duration::from_millis(60);
    cfg.fault_plan = Some(Arc::new(
        FaultPlan::parse("panic=#1,panic=#2:5").expect("phase 2 plan"),
    ));
    let server = Server::start(cfg).expect("phase 2 server");
    let handle = server.handle();
    let jpeg = jpeg_for(200);
    let want = ref_bytes(&jpeg);
    for n in 0..2 {
        check!(
            matches!(handle.decode(&jpeg), Err(ServeError::Panicked(_))),
            "phase 2: decode {n} did not panic as planned"
        );
    }
    match handle.decode(&jpeg) {
        Err(ServeError::Busy { retry_after }) => check!(
            retry_after <= Duration::from_millis(60),
            "phase 2: retry-after {}us exceeds the cooldown",
            retry_after.as_micros()
        ),
        _ => check!(false, "phase 2: expected Busy while the breaker is open"),
    }
    std::thread::sleep(Duration::from_millis(150));
    match handle.decode(&jpeg) {
        Ok(out) => check!(
            out.image.data == want,
            "phase 2: post-probe payload mismatch"
        ),
        Err(e) => check!(false, "phase 2: half-open probe failed: {e}"),
    }
    let t = server.shutdown().total();
    check!(
        t.panics_recovered == 2
            && t.sessions_rebuilt == 2
            && t.breaker_trips == 1
            && t.shed == 1
            && t.decode_errors == 0,
        "phase 2 counters: {t:?}"
    );

    // Phase 3 — chaotic connection reads over real TCP: every 2nd read
    // of the front end's connection reader is interrupted (EINTR) or
    // returns 1 byte, across mixed v1/v2 frames. Framing must never
    // desync; every payload bit-identical.
    let plan = Arc::new(FaultPlan::parse("shortread=2:11").expect("phase 3 plan"));
    eprintln!("chaos-smoke phase 3: {}", plan.describe());
    let mut cfg = config.clone();
    cfg.shards = 2;
    cfg.fault_plan = Some(plan.clone());
    let server = Server::start(cfg).expect("phase 3 server");
    let jpegs: Vec<Vec<u8>> = (0..6).map(|i| jpeg_for(300 + i)).collect();
    let wants: Vec<Vec<u8>> = jpegs.iter().map(|j| ref_bytes(j)).collect();
    let (mismatches, _) = through_front_end(&server.handle(), |addr| {
        let mixed = |w: &mut TcpStream, i, j: &[u8]| match i {
            0..4 => protocol::write_request(w, j),
            _ => protocol::write_request_v2(w, j, Some(Duration::from_secs(5)), true),
        };
        pipelined_mismatches(addr, jpegs.iter().zip(&wants), mixed)
    });
    check!(
        mismatches == 0,
        "phase 3: {mismatches} replies differ from direct decode"
    );
    let t = server.shutdown().total();
    check!(
        t.requests == 6 && t.decode_errors == 0 && t.shed == 0,
        "phase 3 counters: {t:?}"
    );
    check!(
        plan.injections_fired() > 0,
        "phase 3: the chaos reader never fired"
    );

    // Phase 4 — SLO admission and the degradation ladder: infeasible
    // deadlines are shed with Busy, or served degraded (tolerant salvage /
    // scan-prefix render) when the client opts in — never silently slow.
    let mut cfg = config.clone();
    cfg.shards = 1;
    let server = Server::start(cfg).expect("phase 4 server");
    let handle = server.handle();
    let jpeg = jpeg_for(400);
    let want = ref_bytes(&jpeg);
    for n in 0..3 {
        let served = handle.decode_with(
            &jpeg,
            SubmitOptions {
                deadline: Some(Duration::from_secs(10)),
                degrade: false,
                ..SubmitOptions::default()
            },
        );
        check!(
            matches!(&served, Ok(s) if !s.degraded && s.outcome.image.data == want),
            "phase 4: calibration decode {n} failed"
        );
    }
    let shed = handle.decode_with(
        &jpeg,
        SubmitOptions {
            deadline: Some(Duration::ZERO),
            degrade: false,
            ..SubmitOptions::default()
        },
    );
    check!(
        matches!(shed, Err(ServeError::Busy { .. })),
        "phase 4: infeasible deadline was not shed"
    );
    let degraded = handle.decode_with(
        &jpeg,
        SubmitOptions {
            deadline: Some(Duration::ZERO),
            degrade: true,
            ..SubmitOptions::default()
        },
    );
    check!(
        matches!(&degraded, Ok(s) if s.degraded),
        "phase 4: degrade-ok request was not served degraded"
    );
    let prog_spec = ImageSpec {
        width: 112,
        height: 80,
        pattern: Pattern::PhotoLike { detail: 0.55 },
        seed: 410,
    };
    let prog = hetjpeg_corpus::generate_progressive_jpeg(
        &prog_spec,
        85,
        Subsampling::S420,
        hetjpeg_jpeg::progressive::ScanPreset::Standard10,
    )
    .expect("encode progressive chaos image");
    check!(
        matches!(&handle.decode(&prog), Ok(o) if !o.truncated),
        "phase 4: seeding progressive decode failed"
    );
    let prefix = handle.decode_with(
        &prog,
        SubmitOptions {
            deadline: Some(Duration::ZERO),
            degrade: true,
            ..SubmitOptions::default()
        },
    );
    check!(
        matches!(&prefix, Ok(s) if s.degraded && s.outcome.truncated),
        "phase 4: progressive request did not degrade to a prefix render"
    );
    let t = server.shutdown().total();
    check!(
        t.shed == 1 && t.degraded == 2 && t.decode_errors == 0,
        "phase 4 counters: {t:?}"
    );

    println!(
        "chaos-smoke OK: panics isolated with sessions rebuilt, breaker shed around a dying \
         shard and re-closed after its probe, chaotic reads never desynced the framing, \
         infeasible deadlines shed or degraded; every healthy payload bit-identical to direct \
         decode and zero worker threads lost"
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn unknown_flags_are_a_usage_error() {
        let ok = "--stdio --shards 2 --tolerant --fault latency=2x1ms --max-connections 9";
        let config = config_from_args(&args(ok)).expect("known flags parse");
        assert_eq!(config.shards, 2);
        for bad in [
            "--stdio --max-batch 8",
            "--shard 2 --stdio",
            "--stdio --smoke-test",
        ] {
            assert!(config_from_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
