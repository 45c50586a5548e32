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
//! On unix, `--addr` serves with the event-driven front end
//! (`hetjpeg_serve::frontend`): one thread, epoll readiness and shard
//! completions, zero threads and zero loop passes per idle connection. `--threaded-frontend` selects the legacy
//! thread-per-connection loop; `--max-connections N` sets the admission
//! cap for either (over-cap clients get a `busy` frame, never a silent
//! drop).
//!
//! `--smoke` is the end-to-end proof CI runs: start a TCP server on an
//! ephemeral loopback port, decode corpus images through the protocol
//! from several pipelined client connections, compare every payload
//! against a direct `Decoder::decode`, and shut down checking the drain
//! accounting.
//!
//! `--chaos-smoke` is the PR-8 resilience proof: run seeded fault plans
//! (decode panics, a stalled shard, short/EINTR reads) against real
//! traffic and assert that non-faulted requests stay bit-identical to
//! direct decodes, panicked sessions are rebuilt (counter-verified), the
//! circuit breaker sheds around a dying shard, and deadline-infeasible
//! requests are shed or degraded — never silently slow.
//!
//! `--fault SPEC` (or `HETJPEG_FAULT`) arms the deterministic fault
//! harness on any serving mode; see `hetjpeg_serve::fault` for the
//! grammar.

use hetjpeg_core::{DecodeOptions, Decoder, Platform};
use hetjpeg_corpus::{generate_jpeg, ImageSpec, Pattern};
use hetjpeg_jpeg::types::Subsampling;
use hetjpeg_serve::fault::{ChaosReader, FaultPlan};
use hetjpeg_serve::{protocol, ServeConfig, ServeError, Server, SubmitOptions};
use std::net::{TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  hetjpeg-serve (--addr HOST:PORT | --stdio | --smoke | --chaos-smoke)\n\
         \u{20}              [--shards N] [--queue-depth N] [--max-batch N]\n\
         \u{20}              [--cache-cap N] [--threads N] [--platform gt430|gtx560|gtx680]\n\
         \u{20}              [--model model.txt] [--max-pixels N] [--tolerant]\n\
         \u{20}              [--max-scans N] [--scan-deadline-us N]\n\
         \u{20}              [--fault SPEC[:SEED]] [--breaker-threshold N] [--breaker-cooldown-us N]\n\
         \u{20}              [--max-connections N] [--threaded-frontend]"
    );
    ExitCode::from(2)
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
    let mut config = ServeConfig::default();
    if let Some(n) = parse_or_usage(args, "--shards")? {
        config.shards = n;
    }
    if let Some(n) = parse_or_usage(args, "--queue-depth")? {
        config.queue_depth = n;
    }
    if let Some(n) = parse_or_usage(args, "--max-batch")? {
        config.max_batch = n;
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
    if args.iter().any(|a| a == "--smoke") {
        return smoke(config);
    }
    if args.iter().any(|a| a == "--chaos-smoke") {
        return chaos_smoke(config);
    }
    let stdio = args.iter().any(|a| a == "--stdio");
    let addr = arg_value(&args, "--addr");
    match (stdio, addr) {
        (true, None) => run_stdio(config),
        (false, Some(addr)) => run_tcp(config, &addr, &args),
        _ => usage(),
    }
}

fn print_stats(stats: &hetjpeg_serve::ServerStats) {
    eprintln!(
        "served {} requests in {} batches (mean batch {:.2}, errors {}); \
         auto cache: {} evals, {} hits, {} evictions",
        stats.requests(),
        stats.batches(),
        stats.mean_batch(),
        stats.decode_errors(),
        stats.auto_evals(),
        stats.auto_cache_hits(),
        stats.auto_evictions(),
    );
    let prog = stats.progressive();
    if prog.scans_decoded > 0 {
        eprintln!(
            "progressive: {} scans decoded, {} refinement passes, \
             {} partial renders ({} deadline-paced)",
            prog.scans_decoded,
            prog.refine_passes,
            prog.partial_renders,
            stats.deadline_partials(),
        );
    }
    let resilience = stats.panics_recovered()
        + stats.breaker_trips()
        + stats.shed()
        + stats.degraded()
        + stats.shutdown_drained();
    if resilience > 0 {
        eprintln!(
            "resilience: {} panics recovered, {} sessions rebuilt, {} breaker trips, \
             {} shed, {} degraded, {} drained at shutdown",
            stats.panics_recovered(),
            stats.sessions_rebuilt(),
            stats.breaker_trips(),
            stats.shed(),
            stats.degraded(),
            stats.shutdown_drained(),
        );
    }
}

fn run_stdio(config: ServeConfig) -> ExitCode {
    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot start server: {e}");
            return ExitCode::FAILURE;
        }
    };
    let handle = server.handle();
    let result = protocol::serve_stdio(&handle);
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

fn run_tcp(config: ServeConfig, addr: &str, args: &[String]) -> ExitCode {
    let threaded = args.iter().any(|a| a == "--threaded-frontend");
    let max_connections = match parse_or_usage::<usize>(args, "--max-connections") {
        Ok(n) => n,
        Err(code) => return code,
    };
    let listener = match TcpListener::bind(addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot start server: {e}");
            return ExitCode::FAILURE;
        }
    };
    let local = listener.local_addr().map(|a| a.to_string());
    eprintln!(
        "hetjpeg-serve listening on {}",
        local.as_deref().unwrap_or(addr)
    );
    let handle = server.handle();
    let result = serve_listener(&handle, listener, threaded, max_connections);
    let stats = server.shutdown();
    print_stats(&stats);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("TCP serving failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Dispatch to the event-driven front end (the default on unix) or the
/// thread-per-connection loop (`--threaded-frontend`, and the only option
/// off-unix).
fn serve_listener(
    handle: &hetjpeg_serve::ServeHandle,
    listener: TcpListener,
    threaded: bool,
    max_connections: Option<usize>,
) -> std::io::Result<()> {
    #[cfg(unix)]
    if !threaded {
        use hetjpeg_serve::frontend::{FrontEnd, DEFAULT_MAX_CONNECTIONS};
        let fe = FrontEnd::with_max_connections(
            handle.clone(),
            listener,
            max_connections.unwrap_or(DEFAULT_MAX_CONNECTIONS),
        )?;
        let served = fe.run();
        let stats = fe.stats();
        eprintln!(
            "front end: {} connections accepted ({} refused over the cap, peak {} open), \
             {} requests in {} loop wake-ups",
            stats.accepted, stats.rejected, stats.peak_connections, stats.requests, stats.wakeups,
        );
        return served.map(|_| ());
    }
    let _ = threaded;
    protocol::serve_tcp_with(
        handle,
        listener,
        max_connections.unwrap_or(protocol::MAX_CONNECTIONS),
    )
}

/// CI self-test: full server lifecycle over the real TCP protocol,
/// byte-compared against direct session decodes.
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

    // Reference bytes from a plain session with the same configuration.
    let reference_decoder = Decoder::builder()
        .platform(config.platform.clone())
        .model(
            config
                .model
                .clone()
                .unwrap_or_else(|| config.platform.untrained_model()),
        )
        .threads(config.threads)
        .build()
        .expect("reference session");
    let references: Vec<Vec<u8>> = corpus
        .iter()
        .map(|j| {
            reference_decoder
                .decode(j, config.options)
                .expect("reference decode")
                .image
                .data
                .clone()
        })
        .collect();

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("smoke: cannot start server: {e}");
            return ExitCode::FAILURE;
        }
    };
    let handle = server.handle();

    let total = corpus.len();
    let ok = std::thread::scope(|s| {
        // The accept loop runs for the duration of the scope; it exits
        // when the listener is dropped after the clients finish... the
        // listener cannot be "closed" portably, so the accept thread is
        // left to end with the process in real serving; here the clients
        // finish first and the scope would block — so serve a bounded
        // number of connections instead.
        let accept_handle = handle.clone();
        s.spawn(move || {
            for _ in 0..2 {
                if let Ok((mut stream, _)) = listener.accept() {
                    let conn_handle = accept_handle.clone();
                    let mut reader = stream.try_clone().expect("clone stream");
                    let _ = protocol::serve_connection(&conn_handle, &mut reader, &mut stream);
                }
            }
        });

        // Two pipelined client connections splitting the corpus.
        let mut mismatches = 0usize;
        let mut answered = 0usize;
        for half in 0..2 {
            let mut stream = TcpStream::connect(addr).expect("connect");
            let jpegs: Vec<&Vec<u8>> = corpus.iter().skip(half).step_by(2).collect();
            let refs: Vec<&Vec<u8>> = references.iter().skip(half).step_by(2).collect();
            // Pipeline: write every request before reading any response.
            for j in &jpegs {
                protocol::write_request(&mut stream, j).expect("write request");
            }
            protocol::write_goodbye(&mut stream).expect("goodbye");
            for (i, want) in refs.iter().enumerate() {
                match protocol::read_response(&mut stream)
                    .expect("read response")
                    .into_frame()
                {
                    Ok(frame) => {
                        answered += 1;
                        if &frame.rgb != *want {
                            eprintln!("smoke: payload mismatch on image {i} of half {half}");
                            mismatches += 1;
                        }
                    }
                    Err(msg) => {
                        eprintln!("smoke: server error on image {i} of half {half}: {msg}");
                        mismatches += 1;
                    }
                }
            }
        }
        mismatches == 0 && answered == total
    });

    let stats = server.shutdown();
    print_stats(&stats);
    if !ok {
        eprintln!("smoke: FAILED");
        return ExitCode::FAILURE;
    }
    if stats.requests() != total as u64 || stats.decode_errors() != 0 {
        eprintln!(
            "smoke: accounting mismatch: {} requests recorded for {total} sent, {} errors",
            stats.requests(),
            stats.decode_errors()
        );
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
    let prog = stats.progressive();
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
    let paced_stats = paced_server.shutdown();
    if seeded.truncated
        || !paced_out.truncated
        || paced_stats.deadline_partials() != 1
        || paced_stats.progressive().partial_renders != 1
    {
        eprintln!(
            "smoke: deadline pacing misbehaved: seeded.truncated={} paced.truncated={} \
             deadline_partials={} progressive={:?}",
            seeded.truncated,
            paced_out.truncated,
            paced_stats.deadline_partials(),
            paced_stats.progressive(),
        );
        return ExitCode::FAILURE;
    }
    println!(
        "smoke OK: {total} images through {shards} shards over TCP ({} kernels), all payloads \
         bit-identical to direct decode",
        expected.name()
    );
    ExitCode::SUCCESS
}

/// CI resilience proof: run seeded fault plans against real traffic and
/// verify the failure-domain guarantees end to end — panic isolation with
/// counter-verified session rebuild, circuit-breaker shedding, chaotic
/// reads that never desync the framing, and SLO shed/degrade behaviour.
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
    let reference = Decoder::builder()
        .platform(config.platform.clone())
        .model(
            config
                .model
                .clone()
                .unwrap_or_else(|| config.platform.untrained_model()),
        )
        .threads(config.threads)
        .build()
        .expect("reference session");
    let ref_bytes = |jpeg: &[u8]| {
        reference
            .decode(jpeg, config.options)
            .expect("reference decode")
            .image
            .data
            .clone()
    };

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
    let stats = server.shutdown();
    check!(panicked == 1, "phase 1: saw {panicked} panics, expected 1");
    check!(
        stats.requests() == 7
            && stats.panics_recovered() == 1
            && stats.sessions_rebuilt() == 1
            && stats.decode_errors() == 0
            && stats.breaker_trips() == 0,
        "phase 1 counters: requests={} panics_recovered={} sessions_rebuilt={} errors={} trips={}",
        stats.requests(),
        stats.panics_recovered(),
        stats.sessions_rebuilt(),
        stats.decode_errors(),
        stats.breaker_trips(),
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
    let stats = server.shutdown();
    check!(
        stats.panics_recovered() == 2
            && stats.sessions_rebuilt() == 2
            && stats.breaker_trips() == 1
            && stats.shed() == 1
            && stats.decode_errors() == 0,
        "phase 2 counters: panics_recovered={} sessions_rebuilt={} trips={} shed={} errors={}",
        stats.panics_recovered(),
        stats.sessions_rebuilt(),
        stats.breaker_trips(),
        stats.shed(),
        stats.decode_errors(),
    );

    // Phase 3 — chaotic connection reads over real TCP: every 2nd read
    // is interrupted (EINTR) or returns 1 byte, across mixed v1/v2
    // frames. Framing must never desync; every payload bit-identical.
    let plan = Arc::new(FaultPlan::parse("shortread=2:11").expect("phase 3 plan"));
    eprintln!("chaos-smoke phase 3: {}", plan.describe());
    let mut cfg = config.clone();
    cfg.shards = 2;
    cfg.fault_plan = Some(plan.clone());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let server = Server::start(cfg).expect("phase 3 server");
    let handle = server.handle();
    let jpegs: Vec<Vec<u8>> = (0..6).map(|i| jpeg_for(300 + i)).collect();
    let wants: Vec<Vec<u8>> = jpegs.iter().map(|j| ref_bytes(j)).collect();
    let wire_ok = std::thread::scope(|s| {
        let accept_handle = handle.clone();
        let plan_srv = plan.clone();
        s.spawn(move || {
            if let Ok((mut stream, _)) = listener.accept() {
                let reader = stream.try_clone().expect("clone stream");
                let mut chaos = ChaosReader::new(reader, plan_srv);
                let _ = protocol::serve_connection(&accept_handle, &mut chaos, &mut stream);
            }
        });
        let mut stream = TcpStream::connect(addr).expect("connect");
        for (i, j) in jpegs.iter().enumerate() {
            if i < 4 {
                protocol::write_request(&mut stream, j).expect("v1 request");
            } else {
                protocol::write_request_v2(&mut stream, j, Some(Duration::from_secs(5)), true)
                    .expect("v2 request");
            }
        }
        protocol::write_goodbye(&mut stream).expect("goodbye");
        let mut good = true;
        for (i, want) in wants.iter().enumerate() {
            match protocol::read_response(&mut stream).expect("read response") {
                protocol::ServerReply::Ok(frame) => {
                    if &frame.rgb != want {
                        eprintln!("chaos-smoke: phase 3: payload mismatch on image {i}");
                        good = false;
                    }
                }
                _ => {
                    eprintln!("chaos-smoke: phase 3: non-ok reply on image {i}");
                    good = false;
                }
            }
        }
        good
    });
    check!(wire_ok, "phase 3: wire roundtrip failed");
    let stats = server.shutdown();
    check!(
        stats.requests() == 6 && stats.decode_errors() == 0 && stats.shed() == 0,
        "phase 3 counters: requests={} errors={} shed={}",
        stats.requests(),
        stats.decode_errors(),
        stats.shed(),
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
    let stats = server.shutdown();
    check!(
        stats.shed() == 1 && stats.degraded() == 2 && stats.decode_errors() == 0,
        "phase 4 counters: shed={} degraded={} errors={}",
        stats.shed(),
        stats.degraded(),
        stats.decode_errors(),
    );

    println!(
        "chaos-smoke OK: panics isolated with sessions rebuilt, breaker shed around a dying \
         shard and re-closed after its probe, chaotic reads never desynced the framing, \
         infeasible deadlines shed or degraded; every healthy payload bit-identical to direct \
         decode and zero worker threads lost"
    );
    ExitCode::SUCCESS
}
