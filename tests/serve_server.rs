//! Integration tests for the multi-session decode server: bit-identity of
//! server output against direct session decodes across shard counts and
//! queue pressure, graceful shutdown draining, per-request error
//! isolation, and the wire protocol end to end.

use hetjpeg::serve::{protocol, ServeConfig, ServeError, Server};
use hetjpeg::{DecodeOptions, Decoder};
use hetjpeg_corpus::{generate_jpeg, ImageSpec, Pattern};
use hetjpeg_jpeg::types::Subsampling;
use std::io::Cursor;
use std::time::{Duration, Instant};

/// A small mixed corpus: three shapes × two subsamplings, several seeds.
fn mixed_corpus() -> Vec<Vec<u8>> {
    let mut jpegs = Vec::new();
    for (i, &(w, h, sub)) in [
        (96usize, 96usize, Subsampling::S420),
        (128, 64, Subsampling::S422),
        (64, 96, Subsampling::S444),
    ]
    .iter()
    .enumerate()
    {
        for seed in 0..4u64 {
            let spec = ImageSpec {
                width: w,
                height: h,
                pattern: Pattern::PhotoLike { detail: 0.5 },
                seed: i as u64 * 50 + seed,
            };
            jpegs.push(generate_jpeg(&spec, 85, sub).unwrap());
        }
    }
    jpegs
}

fn reference_bytes(corpus: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let dec = Decoder::builder().build().unwrap();
    corpus
        .iter()
        .map(|j| dec.decode(j, DecodeOptions::default()).unwrap().image.data)
        .collect()
}

#[test]
fn server_output_is_bit_identical_across_shard_counts() {
    let corpus = mixed_corpus();
    let refs = reference_bytes(&corpus);
    for shards in [1usize, 2, 4] {
        let server = Server::start(ServeConfig {
            shards,
            ..ServeConfig::default()
        })
        .unwrap();
        let handle = server.handle();
        // Async submission of the whole corpus, then await in order.
        let tickets: Vec<_> = corpus
            .iter()
            .map(|j| handle.submit(j.clone()).unwrap())
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            let out = t.wait().unwrap_or_else(|e| panic!("image {i}: {e}"));
            assert_eq!(out.image.data, refs[i], "shards={shards}, image {i}");
        }
        let stats = server.shutdown();
        assert_eq!(stats.requests(), corpus.len() as u64);
        assert_eq!(stats.decode_errors(), 0);
    }
}

#[test]
fn server_output_survives_queue_pressure_and_concurrent_submitters() {
    // Tiny queues force backpressure (blocking submits) and tiny batches;
    // four submitter threads hammer two shards concurrently.
    let corpus = mixed_corpus();
    let refs = reference_bytes(&corpus);
    let server = Server::start(ServeConfig {
        shards: 2,
        queue_depth: 1,
        max_batch: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let handle = server.handle();
    std::thread::scope(|s| {
        for chunk in 0..4usize {
            let handle = handle.clone();
            let corpus = &corpus;
            let refs = &refs;
            s.spawn(move || {
                // Each submitter replays the corpus slice twice.
                for round in 0..2 {
                    for i in (chunk..corpus.len()).step_by(4) {
                        let out = handle.decode(&corpus[i]).unwrap_or_else(|e| {
                            panic!("chunk {chunk} round {round} image {i}: {e}")
                        });
                        assert_eq!(out.image.data, refs[i], "image {i}");
                    }
                }
            });
        }
    });
    let stats = server.shutdown();
    assert_eq!(stats.requests(), corpus.len() as u64 * 2);
    assert_eq!(stats.decode_errors(), 0);
    // Every shard that saw traffic amortized its pools: reuses dominate
    // allocations under shape-keyed routing.
    for shard in &stats.shards {
        if shard.requests > 0 {
            assert!(shard.session.pool.coef_reuses >= shard.session.pool.coef_allocs);
        }
    }
}

#[test]
fn homogeneous_workload_spills_across_shards() {
    // Every request has the same shape, so shape routing alone would pin
    // the whole workload to one shard. With a depth-1 queue the home shard
    // saturates immediately and submits must spill to the other shard.
    let jpegs: Vec<Vec<u8>> = (0..32u64)
        .map(|seed| {
            let spec = ImageSpec {
                width: 128,
                height: 128,
                pattern: Pattern::PhotoLike { detail: 0.6 },
                seed,
            };
            generate_jpeg(&spec, 85, Subsampling::S420).unwrap()
        })
        .collect();
    let refs = reference_bytes(&jpegs);
    let server = Server::start(ServeConfig {
        shards: 2,
        queue_depth: 1,
        max_batch: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let handle = server.handle();
    let tickets: Vec<_> = jpegs
        .iter()
        .map(|j| handle.submit(j.clone()).unwrap())
        .collect();
    for (i, t) in tickets.into_iter().enumerate() {
        let out = t.wait().unwrap_or_else(|e| panic!("image {i}: {e}"));
        assert_eq!(out.image.data, refs[i], "image {i}");
    }
    let stats = server.shutdown();
    assert_eq!(stats.requests(), jpegs.len() as u64);
    let busy = stats.shards.iter().filter(|s| s.requests > 0).count();
    assert_eq!(busy, 2, "one-shape traffic must fan out: {stats:?}");
}

#[test]
fn graceful_shutdown_drains_in_flight_batches() {
    // Shutdown right behind a burst of submissions: the workers hold
    // nothing back to form batches, so draining answers every queued
    // request promptly and bit-identically.
    let corpus = mixed_corpus();
    let refs = reference_bytes(&corpus);
    let server = Server::start(ServeConfig {
        shards: 2,
        max_batch: 64,
        ..ServeConfig::default()
    })
    .unwrap();
    let handle = server.handle();
    let tickets: Vec<_> = corpus
        .iter()
        .map(|j| handle.submit(j.clone()).unwrap())
        .collect();
    let t0 = Instant::now();
    let stats = server.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(4),
        "shutdown must drain promptly"
    );
    assert_eq!(stats.requests(), corpus.len() as u64, "all drained");
    for (i, t) in tickets.into_iter().enumerate() {
        let out = t
            .wait()
            .unwrap_or_else(|e| panic!("image {i} lost in shutdown: {e}"));
        assert_eq!(out.image.data, refs[i], "image {i}");
    }
    // New submissions are refused after shutdown.
    assert!(matches!(
        handle.submit(corpus[0].clone()),
        Err(ServeError::ShuttingDown)
    ));
}

#[test]
fn per_request_errors_do_not_poison_the_batch() {
    let corpus = mixed_corpus();
    let refs = reference_bytes(&corpus);
    let server = Server::start(ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let handle = server.handle();
    let good_a = handle.submit(corpus[0].clone()).unwrap();
    let bad = handle
        .submit(b"\xff\xd8 definitely not a jpeg".to_vec())
        .unwrap();
    let good_b = handle.submit(corpus[1].clone()).unwrap();
    assert_eq!(good_a.wait().unwrap().image.data, refs[0]);
    assert!(matches!(bad.wait(), Err(ServeError::Decode(_))));
    assert_eq!(good_b.wait().unwrap().image.data, refs[1]);
    let stats = server.shutdown();
    assert_eq!(stats.decode_errors(), 1);
    assert_eq!(stats.requests(), 3);
}

#[test]
fn wire_protocol_roundtrip_matches_direct_decode() {
    // serve_connection over an in-memory transport: pipelined request
    // frames in, in-order response frames out, payloads bit-identical.
    let corpus = mixed_corpus();
    let refs = reference_bytes(&corpus);
    let server = Server::start(ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let handle = server.handle();

    let mut request_stream = Vec::new();
    for j in &corpus {
        protocol::write_request(&mut request_stream, j).unwrap();
    }
    // Interleave a broken request; its error frame must keep the order.
    protocol::write_request(&mut request_stream, b"broken").unwrap();
    protocol::write_goodbye(&mut request_stream).unwrap();

    let mut responses: Vec<u8> = Vec::new();
    let served =
        protocol::serve_connection(&handle, &mut Cursor::new(request_stream), &mut responses)
            .unwrap();
    assert_eq!(served, corpus.len() as u64 + 1);

    let mut r = Cursor::new(responses);
    for want in &refs {
        let frame = protocol::read_response(&mut r)
            .unwrap()
            .into_frame()
            .expect("ok frame");
        assert_eq!(&frame.rgb, want);
        assert_eq!(frame.rgb.len(), (frame.width * frame.height * 3) as usize);
    }
    let err = protocol::read_response(&mut r)
        .unwrap()
        .into_frame()
        .expect_err("error frame");
    assert!(err.contains("decode failed"), "{err}");
    server.shutdown();
}

#[test]
fn wire_v2_deadlines_ride_the_same_connection() {
    // v2 frames (deadline + degrade-ok) interleave with v1 frames on one
    // connection: a generous deadline decodes at full fidelity, an
    // already-expired deadline with degrade-ok comes back as an in-band
    // Degraded frame — never a silent full-cost decode.
    let corpus = mixed_corpus();
    let refs = reference_bytes(&corpus);
    let server = Server::start(ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let handle = server.handle();

    let mut request_stream = Vec::new();
    protocol::write_request(&mut request_stream, &corpus[0]).unwrap();
    protocol::write_request_v2(
        &mut request_stream,
        &corpus[1],
        Some(Duration::from_secs(30)),
        false,
    )
    .unwrap();
    protocol::write_request_v2(
        &mut request_stream,
        &corpus[2],
        Some(Duration::from_nanos(1)),
        true,
    )
    .unwrap();
    protocol::write_goodbye(&mut request_stream).unwrap();

    let mut responses: Vec<u8> = Vec::new();
    let served =
        protocol::serve_connection(&handle, &mut Cursor::new(request_stream), &mut responses)
            .unwrap();
    assert_eq!(served, 3);

    let mut r = Cursor::new(responses);
    match protocol::read_response(&mut r).unwrap() {
        protocol::ServerReply::Ok(frame) => assert_eq!(&frame.rgb, &refs[0]),
        other => panic!("v1 frame: expected Ok, got {other:?}"),
    }
    match protocol::read_response(&mut r).unwrap() {
        protocol::ServerReply::Ok(frame) => assert_eq!(&frame.rgb, &refs[1]),
        other => panic!("feasible v2 frame: expected Ok, got {other:?}"),
    }
    match protocol::read_response(&mut r).unwrap() {
        // Tolerant salvage of a well-formed baseline image is still exact;
        // the degradation is surfaced by the status byte.
        protocol::ServerReply::Degraded(frame) => assert_eq!(&frame.rgb, &refs[2]),
        other => panic!("expired v2 frame: expected Degraded, got {other:?}"),
    }
    let stats = server.shutdown();
    assert_eq!(stats.requests(), 3);
    assert_eq!(stats.degraded(), 1);
    assert_eq!(stats.shed(), 0);
    assert_eq!(stats.decode_errors(), 0);
}

#[test]
fn shard_caches_evict_under_shape_churn() {
    // More shapes than the per-shard cache cap: the LRU must evict and the
    // server stats must surface it.
    let shapes: Vec<Vec<u8>> = (0..6usize)
        .map(|i| {
            let spec = ImageSpec {
                width: 48 + 16 * i,
                height: 48,
                pattern: Pattern::PhotoLike { detail: 0.4 },
                seed: i as u64,
            };
            generate_jpeg(&spec, 85, Subsampling::S420).unwrap()
        })
        .collect();
    let server = Server::start(ServeConfig {
        shards: 1,
        auto_cache_cap: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let handle = server.handle();
    for round in 0..2 {
        for (i, j) in shapes.iter().enumerate() {
            handle
                .decode(j)
                .unwrap_or_else(|e| panic!("round {round} shape {i}: {e}"));
        }
    }
    let stats = server.shutdown();
    assert!(
        stats.auto_evictions() > 0,
        "cap 2 with 6 shapes must evict: {stats:?}"
    );
    assert_eq!(stats.shards[0].session.auto_cache_cap, 2);
    assert!(stats.shards[0].session.auto_cache_len <= 2);
    // Sequential shape churn thrashes a cap-2 LRU: every decode misses.
    assert_eq!(stats.auto_evals(), 12);

    // Same traffic with an adequate cap: the second round is all hits.
    let server = Server::start(ServeConfig {
        shards: 1,
        auto_cache_cap: 16,
        ..ServeConfig::default()
    })
    .unwrap();
    let handle = server.handle();
    for j in shapes.iter().chain(shapes.iter()) {
        handle.decode(j).unwrap();
    }
    let stats = server.shutdown();
    assert_eq!(stats.auto_evals(), 6);
    assert_eq!(stats.auto_cache_hits(), 6);
    assert_eq!(stats.auto_evictions(), 0);
}
