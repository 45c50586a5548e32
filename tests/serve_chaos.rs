//! Chaos matrix for the fault-tolerant serving layer: seeded fault plans
//! (decode panics, 100% latency on one shard, torn wire frames) asserting
//! bit-identical results for every unaffected request, no worker-thread
//! death, and exact `ServerStats` counter deltas — plus the
//! shutdown-vs-inflight regression for breaker-open shards.

use hetjpeg::serve::fault::{ChaosReader, FaultPlan};
use hetjpeg::serve::{protocol, ServeConfig, ServeError, Server};
use hetjpeg::{DecodeOptions, Decoder};
use hetjpeg_corpus::{generate_jpeg, ImageSpec, Pattern};
use hetjpeg_jpeg::types::Subsampling;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn jpeg_for(seed: u64) -> Vec<u8> {
    let spec = ImageSpec {
        width: 96,
        height: 96,
        pattern: Pattern::PhotoLike { detail: 0.5 },
        seed,
    };
    generate_jpeg(&spec, 85, Subsampling::S420).unwrap()
}

fn reference_bytes(jpegs: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let dec = Decoder::builder().build().unwrap();
    jpegs
        .iter()
        .map(|j| dec.decode(j, DecodeOptions::default()).unwrap().image.data)
        .collect()
}

#[test]
fn seeded_panic_plan_isolates_one_request_and_rebuilds_the_session() {
    // The home shard's 3rd decode panics; every other request — before and
    // after the panic, on the same session lineage — must stay
    // bit-identical to a direct decode, with exact counter deltas.
    let plan = Arc::new(FaultPlan::parse("panic=#3:21").unwrap());
    let server = Server::start(ServeConfig {
        shards: 2,
        breaker_threshold: 99,
        fault_plan: Some(plan.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let handle = server.handle();
    let jpegs: Vec<Vec<u8>> = (0..8).map(jpeg_for).collect();
    let refs = reference_bytes(&jpegs);
    // Serial submission of one shape: everything lands on the home shard,
    // so the #3 schedule is deterministic.
    let mut panicked = Vec::new();
    for (i, j) in jpegs.iter().enumerate() {
        match handle.decode(j) {
            Ok(out) => assert_eq!(out.image.data, refs[i], "image {i}"),
            Err(ServeError::Panicked(msg)) => {
                assert!(msg.contains("injected"), "unexpected payload: {msg}");
                panicked.push(i);
            }
            Err(e) => panic!("image {i}: unexpected error {e}"),
        }
    }
    assert_eq!(panicked, vec![2], "exactly the 3rd request panics");
    let stats = server.shutdown();
    assert_eq!(stats.requests(), 8);
    assert_eq!(stats.panics_recovered(), 1);
    assert_eq!(stats.sessions_rebuilt(), 1);
    assert_eq!(stats.decode_errors(), 0);
    assert_eq!(stats.breaker_trips(), 0);
    assert_eq!(plan.injections_fired(), 1);
}

#[test]
fn full_latency_on_one_shard_slows_but_never_corrupts() {
    // 100% latency on the traffic's home shard: every request sleeps 5 ms
    // before decoding. Results stay bit-identical and no counter moves —
    // latency faults are invisible except in wall-clock.
    let jpegs: Vec<Vec<u8>> = (100..104).map(jpeg_for).collect();
    let refs = reference_bytes(&jpegs);
    // Learn the home shard for this shape first (routing is deterministic
    // for a given shard count), then aim the plan at it.
    let probe = Server::start(ServeConfig {
        shards: 2,
        // An inert plan so a CI-wide HETJPEG_FAULT cannot leak in here.
        fault_plan: Some(Arc::new(FaultPlan::parse("latency=#999999x1us:1").unwrap())),
        ..ServeConfig::default()
    })
    .unwrap();
    let home = probe.handle().home_shard(&jpegs[0]);
    probe.shutdown();

    let plan = Arc::new(FaultPlan::parse(&format!("latency@{home}=1x5ms:3")).unwrap());
    let server = Server::start(ServeConfig {
        shards: 2,
        fault_plan: Some(plan.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let handle = server.handle();
    let t0 = Instant::now();
    for (i, j) in jpegs.iter().enumerate() {
        let out = handle
            .decode(j)
            .unwrap_or_else(|e| panic!("image {i}: {e}"));
        assert_eq!(out.image.data, refs[i], "image {i}");
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed >= Duration::from_millis(20),
        "4 requests x 5 ms of injected latency must show up in wall-clock, got {elapsed:?}"
    );
    let stats = server.shutdown();
    assert_eq!(stats.requests(), 4);
    assert_eq!(stats.decode_errors(), 0);
    assert_eq!(stats.panics_recovered(), 0);
    assert_eq!(
        plan.injections_fired(),
        4,
        "every request on shard {home} stalled"
    );
}

#[test]
fn torn_wire_frames_kill_the_connection_but_not_the_server() {
    // A torn read mid-frame severs that connection; the request already
    // parsed is answered, the server survives, and a fresh connection
    // decodes normally afterwards.
    let plan = Arc::new(FaultPlan::parse("torn=#3:9").unwrap());
    let server = Server::start(ServeConfig {
        shards: 2,
        fault_plan: Some(plan.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let handle = server.handle();
    let jpegs: Vec<Vec<u8>> = (200..203).map(jpeg_for).collect();
    let refs = reference_bytes(&jpegs);

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|s| {
        let accept_handle = handle.clone();
        let plan_srv = plan.clone();
        s.spawn(move || {
            // Connection 1 reads through the chaos harness and tears.
            if let Ok((mut stream, _)) = listener.accept() {
                let reader = stream.try_clone().unwrap();
                let mut chaos = ChaosReader::new(reader, plan_srv);
                let _ = protocol::serve_connection(&accept_handle, &mut chaos, &mut stream);
            }
            // Connection 2 is clean.
            if let Ok((mut stream, _)) = listener.accept() {
                let mut reader = stream.try_clone().unwrap();
                let _ = protocol::serve_connection(&accept_handle, &mut reader, &mut stream);
            }
        });

        // Client 1: pipeline three requests; the server's read side tears
        // on its 3rd read call (request 2's length prefix), so exactly one
        // request is answered before the connection dies.
        let mut stream = TcpStream::connect(addr).unwrap();
        for j in &jpegs {
            protocol::write_request(&mut stream, j).unwrap();
        }
        protocol::write_goodbye(&mut stream).unwrap();
        let first = protocol::read_response(&mut stream)
            .unwrap()
            .into_frame()
            .expect("request 1 answered before the tear");
        assert_eq!(first.rgb, refs[0]);
        assert!(
            protocol::read_response(&mut stream).is_err(),
            "the torn connection must error out, not hang or desync"
        );
        drop(stream);

        // Client 2: the server is still healthy.
        let mut stream = TcpStream::connect(addr).unwrap();
        protocol::write_request(&mut stream, &jpegs[1]).unwrap();
        protocol::write_goodbye(&mut stream).unwrap();
        let frame = protocol::read_response(&mut stream)
            .unwrap()
            .into_frame()
            .expect("clean connection decodes");
        assert_eq!(frame.rgb, refs[1]);
    });
    // And the in-process path never noticed any of it.
    let out = handle.decode(&jpegs[2]).unwrap();
    assert_eq!(out.image.data, refs[2]);
    let stats = server.shutdown();
    assert_eq!(stats.requests(), 3);
    assert_eq!(stats.decode_errors(), 0);
    assert_eq!(stats.panics_recovered(), 0);
    assert!(plan.injections_fired() >= 1, "the tear must have fired");
}

#[test]
fn shutdown_drains_breaker_open_queue_with_explicit_errors() {
    // Regression for the shutdown-vs-inflight race: requests queued behind
    // an open breaker when shutdown begins must be answered with explicit
    // Shutdown errors, not dropped (hanging their tickets) and not Busy.
    let plan = Arc::new(FaultPlan::parse("panic=#1,panic=#2,latency=#3x300ms:3").unwrap());
    let server = Server::start(ServeConfig {
        shards: 1,
        breaker_threshold: 2,
        breaker_cooldown: Duration::from_secs(10),
        fault_plan: Some(plan),
        ..ServeConfig::default()
    })
    .unwrap();
    let handle = server.handle();
    let jpeg = jpeg_for(300);
    // Two panics trip the breaker (10 s cooldown keeps it open).
    for n in 0..2 {
        assert!(
            matches!(handle.decode(&jpeg), Err(ServeError::Panicked(_))),
            "decode {n} should panic"
        );
    }
    // Request 3 stalls the worker for 300 ms before it reaches the breaker
    // gate; requests 4 and 5 queue up behind it. Shutdown flips the flag
    // while the worker is still asleep, so all three must drain as
    // Shutdown — proof the flag is checked at the gate, not at submit.
    let tickets: Vec<_> = (0..3)
        .map(|_| handle.submit(jpeg.clone()).unwrap())
        .collect();
    std::thread::sleep(Duration::from_millis(50));
    let stats = server.shutdown();
    for (i, t) in tickets.into_iter().enumerate() {
        assert!(
            matches!(t.wait(), Err(ServeError::Shutdown)),
            "queued ticket {i} must surface the shutdown drain explicitly"
        );
    }
    assert_eq!(stats.shutdown_drained(), 3);
    assert_eq!(stats.breaker_trips(), 1);
    assert_eq!(stats.panics_recovered(), 2);
    assert_eq!(stats.sessions_rebuilt(), 2);
    assert_eq!(stats.shed(), 0, "drained requests are Shutdown, not Busy");
}

/// Run the event-driven front end on a loopback port for the duration of
/// `client`: the error exits of the serve path below are only reachable
/// by its connections through a completion notification — there is no
/// tick to find an un-notified reply — so a missing one hangs the client's
/// read (bounded by its read timeout) instead of passing late.
#[cfg(unix)]
fn through_front_end(server: &Server, client: impl FnOnce(&mut TcpStream)) {
    use hetjpeg::serve::frontend::FrontEnd;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fe = Arc::new(FrontEnd::new(server.handle(), listener).unwrap());
    let runner = {
        let fe = Arc::clone(&fe);
        std::thread::spawn(move || fe.run())
    };
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    client(&mut stream);
    protocol::write_goodbye(&mut stream).unwrap();
    fe.stop();
    runner.join().unwrap().unwrap();
}

#[cfg(unix)]
#[test]
fn panic_isolation_holds_through_the_event_front_end() {
    // The seeded-panic case again, over TCP through `FrontEnd`, with every
    // other request streamed so the panic (the 3rd decode) is recovered on
    // the streaming path and its neighbours on the whole-frame one.
    let plan = Arc::new(FaultPlan::parse("panic=#3:21").unwrap());
    let server = Server::start(ServeConfig {
        shards: 2,
        breaker_threshold: 99,
        fault_plan: Some(plan.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let jpegs: Vec<Vec<u8>> = (0..6).map(jpeg_for).collect();
    let refs = reference_bytes(&jpegs);
    through_front_end(&server, |stream| {
        for (i, j) in jpegs.iter().enumerate() {
            if i % 2 == 0 {
                let mut options = hetjpeg::serve::SubmitOptions::default();
                options.options.streaming = true;
                protocol::write_request_v2_opts(stream, j, &options).unwrap();
            } else {
                protocol::write_request(stream, j).unwrap();
            }
            match protocol::read_response(stream).unwrap() {
                protocol::ServerReply::Ok(frame) => {
                    assert_ne!(i, 2, "the 3rd request panics");
                    assert_eq!(frame.rgb, refs[i], "image {i}");
                }
                protocol::ServerReply::Error(msg) => {
                    assert_eq!(i, 2, "unexpected error on image {i}: {msg}");
                    assert!(msg.contains("injected"), "unexpected payload: {msg}");
                }
                other => panic!("image {i}: unexpected reply {other:?}"),
            }
        }
    });
    let stats = server.shutdown();
    assert_eq!(stats.requests(), 6);
    assert_eq!(stats.panics_recovered(), 1);
    assert_eq!(stats.sessions_rebuilt(), 1);
    assert_eq!(stats.streamed(), 2, "requests 0 and 4; request 2 panicked");
    assert_eq!(stats.decode_errors(), 0);
    assert_eq!(plan.injections_fired(), 1);
}

#[cfg(unix)]
#[test]
fn open_breaker_sheds_through_the_event_front_end() {
    // Three pipelined requests are all queued while the first one's
    // injected stall holds the worker. Two whole-frame panics then trip
    // the breaker, so the third meets it open at the worker's gate and
    // must come back as an in-band Busy frame with the cooldown as its
    // hint. (Sent any later it would be shed at submission, before the
    // worker: `requests == 3` below says it was not.)
    let server = Server::start(ServeConfig {
        shards: 1,
        breaker_threshold: 2,
        breaker_cooldown: Duration::from_secs(10),
        fault_plan: Some(Arc::new(
            FaultPlan::parse("latency=#1x200ms,panic=#1,panic=#2").unwrap(),
        )),
        ..ServeConfig::default()
    })
    .unwrap();
    let jpeg = jpeg_for(500);
    through_front_end(&server, |stream| {
        use std::io::Write;
        let mut pipelined = Vec::new();
        protocol::write_request(&mut pipelined, &jpeg).unwrap();
        protocol::write_request(&mut pipelined, &jpeg).unwrap();
        // v2: only v2 clients are ever sent a Busy status.
        protocol::write_request_v2(&mut pipelined, &jpeg, None, false).unwrap();
        stream.write_all(&pipelined).unwrap();
        for n in 0..2 {
            match protocol::read_response(stream).unwrap() {
                protocol::ServerReply::Error(msg) => assert!(msg.contains("panicked"), "{msg}"),
                other => panic!("decode {n} should panic, got {other:?}"),
            }
        }
        match protocol::read_response(stream).unwrap() {
            protocol::ServerReply::Busy { retry_after } => {
                assert!(retry_after <= Duration::from_secs(10));
            }
            other => panic!("expected Busy from the open breaker, got {other:?}"),
        }
    });
    let stats = server.shutdown();
    assert_eq!(stats.requests(), 3, "all three reached the worker");
    assert_eq!(stats.panics_recovered(), 2);
    assert_eq!(stats.breaker_trips(), 1);
    assert_eq!(stats.shed(), 1);
}

#[test]
fn transparent_fault_plan_leaves_results_and_counters_untouched() {
    // The CI suite runs once under HETJPEG_FAULT with a plan like this one:
    // sleeps and wire-read faults only, nothing that can alter a decode.
    // Prove such a plan is observationally transparent — bit-identical
    // output, clean counters — while still exercising the injection paths.
    let plan = Arc::new(FaultPlan::parse("latency=9x200us,shortread=2:42").unwrap());
    let server = Server::start(ServeConfig {
        shards: 2,
        fault_plan: Some(plan.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let handle = server.handle();
    let jpegs: Vec<Vec<u8>> = (400..412).map(jpeg_for).collect();
    let refs = reference_bytes(&jpegs);
    for (i, j) in jpegs.iter().enumerate() {
        let out = handle
            .decode(j)
            .unwrap_or_else(|e| panic!("image {i}: {e}"));
        assert_eq!(out.image.data, refs[i], "image {i}");
    }
    let stats = server.shutdown();
    assert_eq!(stats.requests(), 12);
    assert_eq!(stats.decode_errors(), 0);
    assert_eq!(stats.panics_recovered(), 0);
    assert_eq!(stats.shed(), 0);
    assert_eq!(stats.degraded(), 0);
    // 12 one-shape requests on one shard: the every-9th latency rule fired.
    assert!(plan.injections_fired() >= 1);
}
