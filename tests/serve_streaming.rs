//! PR 10 integration proofs: per-request decode options, row-tile
//! streaming responses (in-process and on the wire), the event-driven
//! front end, and the serve-path drop/deadline bugfixes.
//!
//! The central invariant: a streamed response reassembles **bit-identical**
//! to the whole-image reply and to a direct `Decoder::decode`, across
//! decode modes and per-request option sets, while the shard's in-flight
//! tile count never exceeds the bounded tile pool.

use hetjpeg::serve::protocol::{
    self, forced_streaming, read_response, read_response_streamed, write_goodbye, write_request,
    write_request_v2_opts, ServerReply,
};
use hetjpeg::serve::{
    RequestOptions, ServeConfig, ServeError, ServeReply, Server, StreamEvent, SubmitOptions,
    TILE_POOL_CAP,
};
use hetjpeg::{DecodeOptions, Decoder, OutputFormat, Strictness};
use hetjpeg_corpus::{generate_jpeg, generate_progressive_jpeg, ImageSpec, Pattern};
use hetjpeg_jpeg::progressive::ScanPreset;
use hetjpeg_jpeg::types::Subsampling;
use std::io::Cursor;
use std::time::{Duration, Instant};

fn jpeg(w: usize, h: usize, seed: u64, sub: Subsampling) -> Vec<u8> {
    let spec = ImageSpec {
        width: w,
        height: h,
        pattern: Pattern::PhotoLike { detail: 0.6 },
        seed,
    };
    generate_jpeg(&spec, 85, sub).unwrap()
}

fn progressive(w: usize, h: usize, seed: u64) -> Vec<u8> {
    let spec = ImageSpec {
        width: w,
        height: h,
        pattern: Pattern::PhotoLike { detail: 0.6 },
        seed,
    };
    generate_progressive_jpeg(&spec, 85, Subsampling::S420, ScanPreset::Standard10).unwrap()
}

/// A high-entropy restart-interval JPEG whose truncation genuinely severs
/// entropy data (corpus `generate_jpeg` streams can survive truncation
/// because their entropy segment ends early).
fn restart_noise_jpeg(w: usize, h: usize, seed: u32) -> Vec<u8> {
    use hetjpeg_jpeg::encoder::{encode_rgb, EncodeParams};
    let mut rgb = Vec::with_capacity(w * h * 3);
    let mut s = seed | 1;
    for _ in 0..w * h {
        s = s.wrapping_mul(1664525).wrapping_add(1013904223);
        rgb.extend_from_slice(&[(s >> 8) as u8, (s >> 16) as u8, (s >> 24) as u8]);
    }
    encode_rgb(
        &rgb,
        w as u32,
        h as u32,
        &EncodeParams {
            quality: 82,
            subsampling: Subsampling::S420,
            restart_interval: 2,
        },
    )
    .unwrap()
}

fn streaming_submit() -> SubmitOptions {
    SubmitOptions {
        options: RequestOptions {
            streaming: true,
            ..RequestOptions::default()
        },
        ..SubmitOptions::default()
    }
}

/// Drain a streamed reply by hand, checking event-order invariants.
fn assemble(
    stream: &hetjpeg::serve::ServedStream,
) -> (u32, u32, Vec<u8>, hetjpeg::serve::StreamEnd) {
    let mut dims = None;
    let mut rgb = Vec::new();
    loop {
        match stream.recv().expect("stream ends with End, not a hangup") {
            StreamEvent::Begin {
                width,
                height,
                degraded: _,
            } => {
                assert!(dims.is_none(), "Begin arrives exactly once");
                assert!(rgb.is_empty(), "Begin precedes every tile");
                dims = Some((width, height));
            }
            StreamEvent::Tile(tile) => {
                assert!(dims.is_some(), "tiles only after Begin");
                rgb.extend_from_slice(tile.bytes());
            }
            StreamEvent::End(result) => {
                let end = result.expect("stream ends cleanly");
                let (w, h) = dims.expect("Begin arrived");
                assert_eq!(end.width, w);
                assert_eq!(end.height, h);
                return (w, h, rgb, end);
            }
        }
    }
}

#[test]
fn streamed_replies_are_bit_identical_across_modes_and_shapes() {
    let cases = [
        jpeg(96, 96, 1, Subsampling::S420),
        jpeg(128, 64, 2, Subsampling::S422),
        jpeg(64, 96, 3, Subsampling::S444),
        jpeg(200, 120, 4, Subsampling::S420),
        progressive(128, 96, 5),
    ];
    let dec = Decoder::builder().build().unwrap();
    let server = Server::start(ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let handle = server.handle();
    for (i, j) in cases.iter().enumerate() {
        let reference = dec.decode(j, DecodeOptions::default()).unwrap().image;

        // Manual assembly from the event stream.
        let ticket = handle.submit_with(j.clone(), streaming_submit()).unwrap();
        match ticket.wait_reply().unwrap() {
            ServeReply::Stream(stream) => {
                let (w, h, rgb, end) = assemble(&stream);
                assert_eq!(
                    (w as usize, h as usize),
                    (reference.width, reference.height)
                );
                assert_eq!(rgb, reference.data, "case {i}: streamed bytes differ");
                assert!(end.tiles > 0);
                assert!(!end.truncated);
            }
            ServeReply::Whole(_) => panic!("case {i}: streaming opt-in ignored"),
        }

        // The convenience reassembly path must agree too.
        let served = handle
            .submit_with(j.clone(), streaming_submit())
            .unwrap()
            .wait_served()
            .unwrap();
        assert_eq!(served.outcome.image.data, reference.data);
        assert!(!served.degraded);

        // And a non-streaming submit of the same bytes.
        let whole = handle.decode(j).unwrap();
        assert_eq!(whole.image.data, reference.data);
    }
    let stats = server.shutdown();
    assert_eq!(stats.streamed(), cases.len() as u64 * 2);
    assert!(
        stats.stream_tile_peak() <= TILE_POOL_CAP as u64,
        "tile pool leaked: peak {} > cap {}",
        stats.stream_tile_peak(),
        TILE_POOL_CAP
    );
    assert!(stats.stream_tile_peak() > 0);
}

#[test]
fn per_request_options_override_server_defaults() {
    // Sequential mode: `Mode::Auto`'s padded entropy path would mask the
    // strictness test (it survives truncation that Sequential rejects).
    let server = Server::start(ServeConfig {
        shards: 1,
        options: DecodeOptions::with_mode(hetjpeg::core::Mode::Sequential),
        ..ServeConfig::default()
    })
    .unwrap();
    let handle = server.handle();
    let j = jpeg(96, 96, 11, Subsampling::S420);
    let dec = Decoder::builder().build().unwrap();

    // Output format: the server default is RGB; a per-request PlanarYcc
    // request comes back with planar planes instead.
    let ycc = handle
        .decode_with(
            &j,
            SubmitOptions {
                options: RequestOptions {
                    format: Some(OutputFormat::PlanarYcc),
                    ..RequestOptions::default()
                },
                ..SubmitOptions::default()
            },
        )
        .unwrap();
    assert!(ycc.outcome.ycc.is_some(), "planar output requested");

    // SIMD cap: forcing scalar per-request must stay bit-identical.
    let scalar = handle
        .decode_with(
            &j,
            SubmitOptions {
                options: RequestOptions {
                    simd_cap: Some(hetjpeg::core::SimdLevel::Scalar),
                    ..RequestOptions::default()
                },
                ..SubmitOptions::default()
            },
        )
        .unwrap();
    let reference = dec.decode(&j, DecodeOptions::default()).unwrap();
    assert_eq!(scalar.outcome.image.data, reference.image.data);

    // max_pixels: a per-request guard far below the image size rejects it
    // (decompression-bomb defense per request, not just per server).
    let bombed = handle.decode_with(
        &j,
        SubmitOptions {
            options: RequestOptions {
                max_pixels: Some(16),
                ..RequestOptions::default()
            },
            ..SubmitOptions::default()
        },
    );
    assert!(
        matches!(bombed, Err(ServeError::Decode(_))),
        "per-request max_pixels was ignored: {bombed:?}"
    );

    // Strictness: a truncated JPEG fails the strict server default but a
    // per-request tolerant override salvages a partial image.
    let mut cut = restart_noise_jpeg(160, 120, 12);
    cut.truncate(cut.len() * 6 / 10);
    assert!(
        matches!(handle.decode(&cut), Err(ServeError::Decode(_))),
        "strict default should reject the truncated image"
    );
    let salvaged = handle
        .decode_with(
            &cut,
            SubmitOptions {
                options: RequestOptions {
                    strictness: Some(Strictness::Tolerant),
                    ..RequestOptions::default()
                },
                ..SubmitOptions::default()
            },
        )
        .unwrap();
    assert!(salvaged.outcome.truncated);
    assert_eq!(salvaged.outcome.image.data.len(), 160 * 120 * 3);

    // max_scans: a progressive request capped to its first scan renders a
    // prefix (flagged truncated), different from the full render.
    let prog = progressive(128, 96, 13);
    let full = handle.decode(&prog).unwrap();
    assert!(!full.truncated);
    let prefix = handle
        .decode_with(
            &prog,
            SubmitOptions {
                options: RequestOptions {
                    max_scans: Some(1),
                    ..RequestOptions::default()
                },
                ..SubmitOptions::default()
            },
        )
        .unwrap();
    assert!(prefix.outcome.truncated);
    assert_ne!(prefix.outcome.image.data, full.image.data);

    server.shutdown();
}

#[test]
fn streaming_composes_with_per_request_options() {
    let server = Server::start(ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let handle = server.handle();
    let dec = Decoder::builder().build().unwrap();

    // Tolerant salvage of a truncated image, streamed: identical to the
    // direct tolerant decode, End flagged truncated. (Sequential-mode
    // reference: `Auto` pads truncated entropy instead of salvaging.)
    let mut cut = restart_noise_jpeg(160, 120, 21);
    cut.truncate(cut.len() * 6 / 10);
    let reference = dec
        .decode(
            &cut,
            DecodeOptions::with_mode(hetjpeg::core::Mode::Sequential).tolerant(),
        )
        .unwrap();
    let mut sub = streaming_submit();
    sub.options.strictness = Some(Strictness::Tolerant);
    match handle.submit_with(cut, sub).unwrap().wait_reply().unwrap() {
        ServeReply::Stream(stream) => {
            let (_, _, rgb, end) = assemble(&stream);
            assert_eq!(rgb, reference.image.data);
            assert!(end.truncated);
        }
        ServeReply::Whole(_) => panic!("streaming opt-in ignored"),
    }

    // Scan-prefix render of a progressive image, streamed: identical to
    // the direct max_scans decode.
    let prog = progressive(128, 96, 22);
    let reference = dec
        .decode(&prog, DecodeOptions::default().max_scans(3))
        .unwrap();
    let mut sub = streaming_submit();
    sub.options.max_scans = Some(3);
    match handle.submit_with(prog, sub).unwrap().wait_reply().unwrap() {
        ServeReply::Stream(stream) => {
            let (_, _, rgb, end) = assemble(&stream);
            assert_eq!(rgb, reference.image.data);
            assert!(end.truncated);
        }
        ServeReply::Whole(_) => panic!("streaming opt-in ignored"),
    }

    // A streaming request whose decode *fails* surfaces the error through
    // the stream End (or pre-Begin error), not a hang.
    let mut sub = streaming_submit();
    sub.options.max_pixels = Some(16);
    let big = jpeg(96, 96, 23, Subsampling::S420);
    let err = handle.submit_with(big, sub).unwrap().wait_served();
    assert!(matches!(err, Err(ServeError::Decode(_))), "{err:?}");

    let stats = server.shutdown();
    assert!(stats.stream_tile_peak() <= TILE_POOL_CAP as u64);
}

#[test]
fn wire_streaming_roundtrips_and_matches_whole_frames() {
    let server = Server::start(ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let handle = server.handle();
    let cases = [
        jpeg(96, 96, 31, Subsampling::S420),
        jpeg(128, 64, 32, Subsampling::S422),
        progressive(128, 96, 33),
    ];

    // One pipelined connection: for each image, a plain v2 request then a
    // streaming-opted request. Responses must pair up bit-identically.
    let mut request_bytes = Vec::new();
    for j in &cases {
        write_request_v2_opts(&mut request_bytes, j, &SubmitOptions::default()).unwrap();
        write_request_v2_opts(&mut request_bytes, j, &streaming_submit()).unwrap();
    }
    write_goodbye(&mut request_bytes).unwrap();

    let mut reader = Cursor::new(request_bytes);
    let mut response_bytes: Vec<u8> = Vec::new();
    let served = protocol::serve_connection(&handle, &mut reader, &mut response_bytes).unwrap();
    assert_eq!(served, cases.len() as u64 * 2);

    let mut r = Cursor::new(response_bytes);
    for (i, _) in cases.iter().enumerate() {
        let whole = read_response(&mut r).unwrap();
        let whole = whole.frame().unwrap_or_else(|| panic!("case {i} whole"));
        let streamed = read_response(&mut r).unwrap();
        let streamed = streamed
            .frame()
            .unwrap_or_else(|| panic!("case {i} streamed"));
        assert_eq!(whole, streamed, "case {i}: stream reassembly differs");
    }

    // Sink-mode client: chunks delivered incrementally, same bytes.
    let j = &cases[0];
    let mut request_bytes = Vec::new();
    write_request_v2_opts(&mut request_bytes, j, &streaming_submit()).unwrap();
    write_goodbye(&mut request_bytes).unwrap();
    let mut reader = Cursor::new(request_bytes);
    let mut response_bytes: Vec<u8> = Vec::new();
    protocol::serve_connection(&handle, &mut reader, &mut response_bytes).unwrap();
    let reference = handle.decode(j).unwrap().image.data;
    let mut sunk = Vec::new();
    let reply = read_response_streamed(&mut Cursor::new(response_bytes), &mut |chunk| {
        sunk.extend_from_slice(chunk)
    })
    .unwrap();
    assert!(reply.frame().is_some());
    assert_eq!(sunk, reference);

    let stats = server.shutdown();
    assert!(stats.stream_tile_peak() <= TILE_POOL_CAP as u64);
}

#[test]
fn v1_clients_never_see_stream_statuses_even_when_forced() {
    // The HETJPEG_SERVE_STREAMING override applies to v2 frames only; a
    // v1 frame on the same connection must still get a status-0 frame.
    // (The env var itself is exercised by the CI matrix; here we assert
    // the v1 half of the contract directly via the request path.)
    let server = Server::start(ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let handle = server.handle();
    let j = jpeg(96, 96, 41, Subsampling::S420);
    let mut request_bytes = Vec::new();
    write_request(&mut request_bytes, &j).unwrap();
    write_goodbye(&mut request_bytes).unwrap();
    let mut reader = Cursor::new(request_bytes);
    let mut response_bytes: Vec<u8> = Vec::new();
    protocol::serve_connection(&handle, &mut reader, &mut response_bytes).unwrap();
    assert_eq!(response_bytes[0], 0, "v1 reply must be a status-0 frame");
    server.shutdown();
}

#[test]
fn saturated_listener_sheds_with_busy_not_silence() {
    use std::io::Read;
    use std::net::{TcpListener, TcpStream};

    let server = Server::start(ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let handle = server.handle();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    // serve_tcp_with blocks until the listener dies, so run it detached;
    // the test only needs its accept behavior.
    let accept_handle = handle.clone();
    std::thread::spawn(move || {
        let _ = protocol::serve_tcp_with(&accept_handle, listener, 1);
    });

    // First connection occupies the single slot (prove it works).
    let mut first = TcpStream::connect(addr).unwrap();
    let j = jpeg(96, 96, 51, Subsampling::S420);
    write_request(&mut first, &j).unwrap();
    let reply = read_response(&mut first).unwrap();
    assert!(reply.frame().is_some(), "slot-holder is served: {reply:?}");

    // Second connection, while the first is still open: the old code
    // silently closed it; now it must answer Busy with a retry hint.
    let mut second = TcpStream::connect(addr).unwrap();
    second
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    match read_response(&mut second) {
        Ok(ServerReply::Busy { retry_after }) => assert!(retry_after > Duration::ZERO),
        other => panic!("expected an in-band Busy shed, got {other:?}"),
    }
    // …and the connection is then closed by the server.
    let mut rest = Vec::new();
    let n = second.read_to_end(&mut rest).unwrap_or(0);
    assert_eq!(n, 0, "no bytes after the Busy frame");

    write_goodbye(&mut first).unwrap();
    drop(first);
    server.shutdown();
}

#[test]
fn feasible_deadline_is_not_degraded_by_a_long_coalesce_window() {
    // Regression: a coalescing wait longer than a request's deadline used
    // to hold a feasible request past it, and the late recheck degraded
    // (or shed) it — an SLO miss the server manufactured. The worker no
    // longer waits for batch company at all; the behaviour stays pinned.
    let server = Server::start(ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let handle = server.handle();
    let j = jpeg(96, 96, 61, Subsampling::S420);

    // Calibrate the shard: three deadline-bearing requests teach it its
    // wall-per-virtual ratio.
    let warm: Vec<_> = (0..3)
        .map(|_| {
            handle
                .submit_with(
                    j.clone(),
                    SubmitOptions {
                        deadline: Some(Duration::from_secs(30)),
                        ..SubmitOptions::default()
                    },
                )
                .unwrap()
        })
        .collect();
    for t in warm {
        assert!(!t.wait_served().unwrap().degraded);
    }

    // The probe: a 1-second deadline against a millisecond decode is
    // comfortably feasible — it must be served in full and promptly, with
    // no degrade and no shed.
    let started = Instant::now();
    let served = handle
        .decode_with(
            &j,
            SubmitOptions {
                deadline: Some(Duration::from_secs(1)),
                degrade: true,
                ..SubmitOptions::default()
            },
        )
        .unwrap();
    let elapsed = started.elapsed();
    assert!(
        !served.degraded,
        "feasible request was degraded by the coalesce window"
    );
    assert!(
        elapsed < Duration::from_secs(3),
        "a lone request was held back: took {elapsed:?}"
    );

    let stats = server.shutdown();
    assert_eq!(stats.degraded(), 0);
    assert_eq!(stats.shed(), 0);
}

#[cfg(unix)]
#[test]
fn event_frontend_serves_keepalive_pipelined_and_streaming_clients() {
    use hetjpeg::serve::frontend::FrontEnd;
    use std::net::{TcpListener, TcpStream};
    use std::sync::Arc;

    let server = Server::start(ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let handle = server.handle();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fe = Arc::new(FrontEnd::with_max_connections(handle.clone(), listener, 8).unwrap());
    let runner = {
        let fe = Arc::clone(&fe);
        std::thread::spawn(move || fe.run())
    };

    let cases = [
        jpeg(96, 96, 71, Subsampling::S420),
        jpeg(128, 64, 72, Subsampling::S422),
        progressive(128, 96, 73),
    ];
    let refs: Vec<_> = cases
        .iter()
        .map(|j| handle.decode(j).unwrap().image.data)
        .collect();

    // Three concurrent keep-alive connections, each pipelining a v1, a
    // plain v2 and a streaming request per image.
    std::thread::scope(|s| {
        for conn in 0..3 {
            let cases = &cases;
            let refs = &refs;
            s.spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .unwrap();
                for (j, want) in cases.iter().zip(refs) {
                    write_request(&mut stream, j).unwrap();
                    write_request_v2_opts(&mut stream, j, &SubmitOptions::default()).unwrap();
                    write_request_v2_opts(&mut stream, j, &streaming_submit()).unwrap();
                    for kind in ["v1", "v2", "streamed"] {
                        let reply = read_response(&mut stream).unwrap();
                        let frame = reply
                            .frame()
                            .unwrap_or_else(|| panic!("conn {conn} {kind}: {reply:?}"));
                        assert_eq!(&frame.rgb, want, "conn {conn} {kind}");
                    }
                }
                write_goodbye(&mut stream).unwrap();
                // The frontend closes after draining a goodbye.
                let mut rest = Vec::new();
                use std::io::Read;
                stream.read_to_end(&mut rest).unwrap();
                assert!(rest.is_empty());
            });
        }
    });

    let stats = fe.stats();
    assert_eq!(stats.accepted, 3);
    assert_eq!(stats.requests, 3 * 3 * 3);
    assert!(stats.peak_connections <= 3);
    assert_eq!(stats.rejected, 0);

    fe.stop();
    runner.join().unwrap().unwrap();
    let stats = server.shutdown();
    assert!(stats.stream_tile_peak() <= TILE_POOL_CAP as u64);
}

#[cfg(unix)]
#[test]
fn event_frontend_sheds_over_cap_connections_in_band() {
    use hetjpeg::serve::frontend::FrontEnd;
    use std::net::{TcpListener, TcpStream};
    use std::sync::Arc;

    let server = Server::start(ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let handle = server.handle();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fe = Arc::new(FrontEnd::with_max_connections(handle.clone(), listener, 1).unwrap());
    let runner = {
        let fe = Arc::clone(&fe);
        std::thread::spawn(move || fe.run())
    };

    // Occupy the only slot with a half-done exchange so the connection
    // stays registered.
    let mut first = TcpStream::connect(addr).unwrap();
    first
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let j = jpeg(96, 96, 81, Subsampling::S420);
    write_request(&mut first, &j).unwrap();
    let reply = read_response(&mut first).unwrap();
    assert!(reply.frame().is_some());

    let mut second = TcpStream::connect(addr).unwrap();
    second
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    match read_response(&mut second) {
        Ok(ServerReply::Busy { .. }) => {}
        other => panic!("expected Busy shed from the frontend, got {other:?}"),
    }

    write_goodbye(&mut first).unwrap();
    drop(first);
    drop(second);
    // The slot frees; a third connection is admitted.
    std::thread::sleep(Duration::from_millis(50));
    let mut third = TcpStream::connect(addr).unwrap();
    third
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write_request(&mut third, &j).unwrap();
    assert!(read_response(&mut third).unwrap().frame().is_some());
    write_goodbye(&mut third).unwrap();
    drop(third);

    let stats = fe.stats();
    assert!(stats.rejected >= 1);
    fe.stop();
    runner.join().unwrap().unwrap();
    server.shutdown();
}

/// A client that stops reading mid-reply must neither spin the loop nor be
/// forgotten by it: with no tick to retry the flush, write interest is the
/// only thing that resumes a `WouldBlock`ed connection. One reply of ~9 MiB
/// — more than a loopback socket pair buffers with nobody reading — is
/// requested, left unread until the front end has gone quiet, left unread
/// for 300 ms more while the loop's pass counter is watched, then read to
/// the end and compared with the direct decode. (Linux only: the fallback
/// poller cannot block on a source, so its loop ticks by design.)
#[cfg(target_os = "linux")]
fn stalled_reader_neither_spins_nor_waits_for_a_clock(streaming: bool) {
    use hetjpeg::serve::frontend::FrontEnd;
    use std::io::Read;
    use std::net::{TcpListener, TcpStream};
    use std::sync::{Arc, OnceLock};

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
    // Both callers want the same 3 MP image and its direct decode; in a
    // debug build making them is most of the test, so make them once.
    static IMAGE: OnceLock<(Vec<u8>, hetjpeg_jpeg::types::RgbImage)> = OnceLock::new();
    let (j, reference) = IMAGE.get_or_init(|| {
        let j = jpeg(2048, 1536, 111, Subsampling::S420);
        let decoder = Decoder::builder().build().unwrap();
        let reference = decoder.decode(&j, DecodeOptions::default()).unwrap().image;
        (j, reference)
    });

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let mut options = SubmitOptions::default();
    options.options.streaming = streaming;
    write_request_v2_opts(&mut stream, j, &options).unwrap();

    // The reply has started (its first byte is here, unconsumed)…
    stream.peek(&mut [0u8; 1]).unwrap();
    // …and the front end has stopped making passes: every buffer on
    // the way to this client is full. A loop that polls on a clock
    // never gets here.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let before = fe.stats().wakeups;
        std::thread::sleep(Duration::from_millis(100));
        if fe.stats().wakeups == before {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the front end never went quiet behind a client that is not reading"
        );
    }

    let stalled = fe.stats().wakeups;
    std::thread::sleep(Duration::from_millis(300));
    let during_stall = fe.stats().wakeups - stalled;
    assert!(
        during_stall <= 2,
        "{during_stall} loop passes in 300 ms with the writer stalled"
    );

    // Reading again must resume the writer, on writability alone.
    let reply = read_response(&mut stream).unwrap();
    let frame = reply
        .frame()
        .unwrap_or_else(|| panic!("stalled reply: {reply:?}"));
    assert_eq!(
        (frame.width as usize, frame.height as usize),
        (reference.width, reference.height)
    );
    assert!(frame.rgb == reference.data, "resumed reply differs");
    write_goodbye(&mut stream).unwrap();
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    fe.stop();
    runner.join().unwrap().unwrap();
    let stats = server.shutdown();
    assert_eq!(stats.streamed(), u64::from(streaming || forced_streaming()));
    assert!(stats.stream_tile_peak() <= TILE_POOL_CAP as u64);
}

#[cfg(target_os = "linux")]
#[test]
fn stalled_streamed_reply_resumes_on_writability() {
    stalled_reader_neither_spins_nor_waits_for_a_clock(true);
}

#[cfg(target_os = "linux")]
#[test]
fn stalled_whole_frame_reply_resumes_on_writability() {
    stalled_reader_neither_spins_nor_waits_for_a_clock(false);
}

#[test]
fn submission_errors_surface_on_streaming_tickets() {
    // Shutdown drain with a streaming opt-in: the ticket answers Shutdown
    // (or ShuttingDown at submit), never hangs and never panics the
    // worker.
    let server = Server::start(ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let handle = server.handle();
    let j = jpeg(96, 96, 91, Subsampling::S420);
    let t = handle.submit_with(j.clone(), streaming_submit()).unwrap();
    assert!(t.wait_served().is_ok());
    server.shutdown();
    match handle.submit_with(j, streaming_submit()) {
        Err(ServeError::ShuttingDown) => {}
        Ok(t) => match t.wait_served() {
            Err(ServeError::Shutdown) | Err(ServeError::ShuttingDown) => {}
            other => panic!("expected shutdown drain, got {other:?}"),
        },
        Err(e) => panic!("unexpected submit error: {e}"),
    }
}
