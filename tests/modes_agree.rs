//! Cross-crate invariant: every decode mode, on every platform, produces
//! byte-identical pixels — the property that lets the scheduler place the
//! partition boundary anywhere without visible seams. Runs through the
//! session API; all seven concrete modes (including the restart-aware
//! parallel-entropy mode) are in the matrix, and since PR 5 the kernel
//! dispatch level (scalar / SSE2 / native, now covering the vector IDCT)
//! is an explicit axis too. CI re-runs the whole suite under
//! `HETJPEG_SIMD=scalar` *and* `HETJPEG_SIMD=sse2`, so AVX2-only
//! divergence cannot hide behind the host's best level.

use hetjpeg_core::platform::Platform;
use hetjpeg_core::schedule::Mode;
use hetjpeg_core::timeline::Resource;
use hetjpeg_core::{DecodeOptions, DecodeOutcome, Decoder, SimdLevel};
use hetjpeg_corpus::{generate_jpeg, ImageSpec, Pattern};
use hetjpeg_jpeg::decoder::decode;
use hetjpeg_jpeg::encoder::{encode_rgb, EncodeParams};
use hetjpeg_jpeg::types::Subsampling;

fn session_for(platform: &Platform) -> Decoder {
    session_with(platform, 4)
}

fn session_with(platform: &Platform, threads: usize) -> Decoder {
    Decoder::builder()
        .platform(platform.clone())
        .threads(threads)
        .build()
        .expect("valid configuration")
}

fn gallery() -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for (i, (w, h, pattern)) in [
        (200usize, 120usize, Pattern::PhotoLike { detail: 0.7 }),
        (127, 93, Pattern::WhiteNoise { amount: 0.5 }), // odd dims
        (256, 64, Pattern::Gradient),                   // extreme aspect
        (
            64,
            256,
            Pattern::ValueNoise {
                octaves: 5,
                detail: 0.6,
            },
        ),
    ]
    .into_iter()
    .enumerate()
    {
        for sub in [Subsampling::S444, Subsampling::S422, Subsampling::S420] {
            let spec = ImageSpec {
                width: w,
                height: h,
                pattern,
                seed: 900 + i as u64,
            };
            let jpeg = generate_jpeg(&spec, 82, sub).expect("encode");
            out.push((format!("{w}x{h}-{}", sub.notation()), jpeg));
        }
    }
    out
}

/// What an outcome says besides its pixels, every number as its bits.
type Account = (
    [u64; 7],
    Vec<(&'static str, Resource, u64, u64)>,
    Option<(usize, usize, u64, usize, u64, u64)>,
    Mode,
    bool,
);

fn account(out: &DecodeOutcome) -> Account {
    let t = &out.times;
    let times = [
        t.huffman,
        t.h2d,
        t.kernels,
        t.d2h,
        t.cpu_parallel,
        t.dispatch,
        t.total,
    ];
    let spans = (out.trace.spans.iter())
        .map(|s| (s.label, s.resource, s.start.to_bits(), s.end.to_bits()))
        .collect();
    let partition = out.partition.map(|p| {
        let (x, cpu, gpu) = (p.x_pixel_rows, p.predicted_cpu, p.predicted_gpu);
        let rows = (p.gpu_mcu_rows, p.cpu_mcu_rows, p.iterations);
        (
            rows.0,
            rows.1,
            x.to_bits(),
            rows.2,
            cpu.to_bits(),
            gpu.to_bits(),
        )
    });
    (
        times.map(f64::to_bits),
        spans,
        partition,
        out.mode,
        out.truncated,
    )
}

/// `decoder.decode_rows` with its tiles joined, each checked to be the
/// next rows of the image: tiles are contiguous, none is sent twice, and
/// every row is sent.
fn streamed(decoder: &Decoder, jpeg: &[u8], opts: DecodeOptions) -> (DecodeOutcome, Vec<u8>) {
    let (mut rgb, mut next) = (Vec::new(), 0);
    let (out, stream) = decoder
        .decode_rows(jpeg, opts, &mut |t| {
            assert_eq!(t.y0, next, "tiles are contiguous and sent once");
            assert_eq!(t.rgb.len(), t.rows * t.width * 3);
            next += t.rows;
            rgb.extend_from_slice(t.rgb);
            true
        })
        .expect("stream");
    assert!(stream.completed);
    assert_eq!(next, out.image.height, "every row is sent");
    assert!(
        out.image.data.is_empty(),
        "a stream's outcome holds no pixels"
    );
    (out, rgb)
}

#[test]
fn all_modes_all_platforms_bit_identical() {
    // Every mode at the default four entropy threads, and the four GPU
    // plans also with their Huffman decoded sequentially (one thread, the
    // paper's schedule) and fed by two workers.
    let gpu_plans = [Mode::Gpu, Mode::PipelinedGpu, Mode::Sps, Mode::Pps];
    for (name, jpeg) in gallery() {
        let reference = decode(&jpeg).expect("reference decode").data;
        for platform in Platform::all() {
            for threads in [1, 2, 4] {
                let decoder = session_with(&platform, threads);
                let modes: Vec<Mode> = match threads {
                    4 => Mode::all().into_iter().chain([Mode::Auto]).collect(),
                    _ => gpu_plans.to_vec(),
                };
                for mode in modes {
                    let ctx = format!(
                        "{name}: {} under {mode:?}, {threads} threads",
                        platform.name
                    );
                    let opts = DecodeOptions::with_mode(mode);
                    let out =
                        (decoder.decode(&jpeg, opts)).unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    assert!(out.image.data == reference, "{ctx} differs from reference");
                    // The same decode as a row stream: the same pixels, and
                    // the same account of how they were made.
                    let (rows, rgb) = streamed(&decoder, &jpeg, opts);
                    assert!(rgb == reference, "{ctx}: streamed bytes differ");
                    assert_eq!(account(&rows), account(&out), "{ctx}: streamed outcome");
                }
            }
        }
    }
}

/// The dispatch-level axis of the matrix: every mode × every level the
/// host can run (scalar, SSE2, native) must produce the reference bytes.
/// This is what catches SSE2-only or AVX2-only divergence in-process —
/// the env-capped CI passes then repeat it with the cap as the native
/// level, covering hosts this process can't emulate.
#[test]
fn all_modes_agree_at_every_simd_level() {
    let platform = Platform::gtx560();
    let decoder = session_for(&platform);
    for (name, jpeg) in gallery().into_iter().step_by(2) {
        let reference = decode(&jpeg).expect("reference decode").data;
        for level in SimdLevel::all_available() {
            for mode in Mode::all() {
                let out = decoder
                    .decode(&jpeg, DecodeOptions::with_mode(mode).force_simd(level))
                    .unwrap_or_else(|e| panic!("{name} {mode:?} at {}: {e}", level.name()));
                assert_eq!(
                    out.image.data,
                    reference,
                    "{name}: {mode:?} at {} differs from reference",
                    level.name()
                );
            }
        }
    }
}

#[test]
fn parallel_entropy_agrees_across_restart_intervals() {
    // The seventh mode's own matrix: restart-interval × threads. With DRI
    // the segments decode on real threads; without it the speculative
    // self-synchronizing path chunks the scan and stitches (ISSUE 6).
    // Bytes must match the reference either way.
    let (w, h) = (160usize, 120usize);
    let mut rgb = Vec::with_capacity(w * h * 3);
    let mut s = 5u32;
    for _ in 0..w * h {
        s = s.wrapping_mul(1664525).wrapping_add(1013904223);
        rgb.extend_from_slice(&[(s >> 8) as u8, (s >> 16) as u8, (s >> 24) as u8]);
    }
    for sub in [Subsampling::S444, Subsampling::S422, Subsampling::S420] {
        for interval in [0usize, 2, 7, 16] {
            let jpeg = encode_rgb(
                &rgb,
                w as u32,
                h as u32,
                &EncodeParams {
                    quality: 82,
                    subsampling: sub,
                    restart_interval: interval,
                },
            )
            .expect("encode");
            let reference = decode(&jpeg).expect("reference").data;
            for threads in [1usize, 2, 8] {
                let decoder = Decoder::builder()
                    .platform(Platform::gtx560())
                    .threads(threads)
                    .build()
                    .expect("valid configuration");
                let out = decoder
                    .decode(&jpeg, DecodeOptions::with_mode(Mode::ParallelEntropy))
                    .expect("decode");
                assert_eq!(
                    out.image.data,
                    reference,
                    "{} DRI {interval} with {threads} threads",
                    sub.notation()
                );
            }
        }
    }
}

#[test]
fn restart_free_speculation_agrees_across_quality_and_simd() {
    // ISSUE 6 acceptance axis: restart-free streams decoded by the
    // speculative parallel-entropy path must be bit-identical to the
    // sequential reference across sub × quality × threads × SIMD level —
    // and at 4 threads the decode must actually have speculated rather
    // than quietly running one worker.
    let (w, h) = (176usize, 128usize);
    let mut rgb = Vec::with_capacity(w * h * 3);
    let mut s = 9u32;
    for _ in 0..w * h {
        s = s.wrapping_mul(1664525).wrapping_add(1013904223);
        rgb.extend_from_slice(&[(s >> 8) as u8, (s >> 16) as u8, (s >> 24) as u8]);
    }
    for sub in [Subsampling::S444, Subsampling::S422, Subsampling::S420] {
        for quality in [55u8, 80, 92] {
            let jpeg = encode_rgb(
                &rgb,
                w as u32,
                h as u32,
                &EncodeParams {
                    quality,
                    subsampling: sub,
                    restart_interval: 0,
                },
            )
            .expect("encode");
            let reference = decode(&jpeg).expect("reference").data;
            for threads in [2usize, 4] {
                let decoder = Decoder::builder()
                    .platform(Platform::gtx560())
                    .threads(threads)
                    .build()
                    .expect("valid configuration");
                for level in SimdLevel::all_available() {
                    let out = decoder
                        .decode(
                            &jpeg,
                            DecodeOptions::with_mode(Mode::ParallelEntropy).force_simd(level),
                        )
                        .expect("decode");
                    assert_eq!(
                        out.image.data,
                        reference,
                        "q{quality} {} {threads}t at {}",
                        sub.notation(),
                        level.name()
                    );
                }
                if threads == 4 {
                    let spec = decoder.stats().spec;
                    assert!(
                        spec.chunks >= 2 && spec.synced >= 1,
                        "q{quality} {} never speculated: {spec:?}",
                        sub.notation()
                    );
                }
            }
        }
    }
}

#[test]
fn progressive_full_scan_decode_matches_baseline_counterpart() {
    // PR-7 acceptance axis: the same pixels encoded baseline and
    // progressive share identical quantized coefficients, so a full-scan
    // progressive decode must reproduce the baseline decode bit for bit —
    // under every scan-script preset, concrete mode and `Auto`, whole and
    // streamed, and at every SIMD level. Since
    // PR 25 also with DRI 3 (EOB runs and refinement state reset at every
    // RSTn), at the degenerate shapes whose padding blocks lie outside the
    // T.81 non-interleaved grid, and for a dense q95 member.
    use hetjpeg_corpus::generate_rgb;
    use hetjpeg_jpeg::progressive::{encode_rgb_progressive, ScanPreset};
    let decoder = session_for(&Platform::gtx560());
    for (i, (w, h, pattern, quality)) in [
        (200usize, 120usize, Pattern::PhotoLike { detail: 0.7 }, 82u8),
        (127, 93, Pattern::WhiteNoise { amount: 0.5 }, 82), // odd dims
        (1, 1, Pattern::PhotoLike { detail: 0.7 }, 82),
        (1, 300, Pattern::PhotoLike { detail: 0.7 }, 82),
        (300, 1, Pattern::WhiteNoise { amount: 0.5 }, 82),
        (17, 17, Pattern::WhiteNoise { amount: 0.5 }, 82),
        (96, 64, Pattern::WhiteNoise { amount: 0.8 }, 95), // dense
    ]
    .into_iter()
    .enumerate()
    {
        for sub in [Subsampling::S444, Subsampling::S422, Subsampling::S420] {
            let spec = ImageSpec {
                width: w,
                height: h,
                pattern,
                seed: 1200 + i as u64,
            };
            let rgb = generate_rgb(&spec);
            for restart_interval in [0usize, 3] {
                let params = EncodeParams {
                    quality,
                    subsampling: sub,
                    restart_interval,
                };
                let base = encode_rgb(&rgb, w as u32, h as u32, &params).expect("encode baseline");
                let reference = decode(&base).expect("reference decode").data;
                for preset in [ScanPreset::Standard10, ScanPreset::Spectral4] {
                    let prog = encode_rgb_progressive(&rgb, w as u32, h as u32, &params, preset)
                        .expect("encode progressive");
                    let case = format!(
                        "{w}x{h} q{quality} {} DRI {restart_interval} {preset:?}",
                        sub.notation()
                    );
                    for level in SimdLevel::all_available() {
                        for mode in Mode::all().into_iter().chain([Mode::Auto]) {
                            let ctx = format!("{case} {mode:?} at {}", level.name());
                            let opts = DecodeOptions::with_mode(mode).force_simd(level);
                            let out = (decoder.decode(&prog, opts))
                                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                            assert!(!out.truncated);
                            assert!(out.image.data == reference, "{ctx} differs from baseline");
                            // Every concrete mode runs as requested; `Auto`
                            // picks a CPU band from the fill.
                            if mode != Mode::Auto {
                                assert_eq!(out.mode, mode, "{ctx}");
                            }
                            let (rows, rgb) = streamed(&decoder, &prog, opts);
                            assert!(rgb == reference, "{ctx}: streamed bytes differ");
                            assert_eq!(account(&rows), account(&out), "{ctx}: streamed outcome");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn doctored_models_cannot_break_correctness() {
    // Whatever nonsense the performance model predicts, partitioning only
    // moves the boundary — the pixels must stay right. The 4:2:0 inputs at
    // both ends of the quality axis, with one-row chunks, drive many small
    // GPU chunks through the split loop.
    let inputs = [
        (Platform::gtx560(), 160, 3, 85u8, Subsampling::S422),
        (Platform::gtx680(), 200, 11, 30, Subsampling::S420),
        (Platform::gtx680(), 200, 11, 95, Subsampling::S420),
    ];
    for (platform, height, seed, quality, sub) in inputs {
        let spec = ImageSpec {
            width: 160,
            height,
            pattern: Pattern::PhotoLike { detail: 0.5 },
            seed,
        };
        let jpeg = generate_jpeg(&spec, quality, sub).expect("encode");
        let reference = decode(&jpeg).expect("reference").data;

        let mut skew_gpu = platform.untrained_model();
        skew_gpu.p_gpu.coefs[0][0] += 10.0; // GPU looks 10s slower: all-CPU split
        let mut skew_cpu = platform.untrained_model();
        skew_cpu.p_cpu.coefs[0][0] += 10.0; // CPU looks awful: all-GPU split
        let mut tiny_chunks = platform.untrained_model();
        tiny_chunks.chunk_mcu_rows = 1;

        for model in [skew_gpu, skew_cpu, tiny_chunks] {
            let decoder = Decoder::builder()
                .platform(platform.clone())
                .model(model)
                .build()
                .expect("valid configuration");
            // Auto must also stay correct whatever the skew makes it pick.
            for mode in [Mode::Sps, Mode::Pps, Mode::PipelinedGpu, Mode::Auto] {
                let out = decoder
                    .decode(&jpeg, DecodeOptions::with_mode(mode))
                    .expect("decode");
                assert_eq!(
                    out.image.data,
                    reference,
                    "{} q{quality} {} {mode:?}",
                    platform.gpu.name,
                    sub.notation()
                );
            }
        }
    }
}

#[test]
fn sparse_dispatch_agrees_across_modes() {
    // Sweep the quality axis so every sparse-IDCT class dominates somewhere:
    // q25 4:2:0 smooth gradients are DC-only/corner-heavy, q95 dense. Every
    // mode (including the sparse-dispatching CPU paths and the dense GPU
    // kernels) must produce the reference bytes.
    for (quality, pattern) in [
        (25u8, Pattern::Gradient),
        (50, Pattern::PhotoLike { detail: 0.3 }),
        (80, Pattern::PhotoLike { detail: 0.6 }),
        (95, Pattern::WhiteNoise { amount: 0.8 }),
    ] {
        for sub in [Subsampling::S444, Subsampling::S422, Subsampling::S420] {
            let spec = ImageSpec {
                width: 120,
                height: 88,
                pattern,
                seed: 42,
            };
            let jpeg = generate_jpeg(&spec, quality, sub).expect("encode");
            let reference = decode(&jpeg).expect("reference").data;
            let platform = Platform::gtx560();
            let decoder = session_for(&platform);
            for mode in Mode::all() {
                let out = decoder
                    .decode(&jpeg, DecodeOptions::with_mode(mode))
                    .expect("decode");
                assert_eq!(
                    out.image.data,
                    reference,
                    "q{quality} {} {:?} differs from reference",
                    sub.notation(),
                    mode
                );
            }
        }
    }
}

#[test]
fn breakdown_totals_are_consistent() {
    let spec = ImageSpec {
        width: 192,
        height: 128,
        pattern: Pattern::PhotoLike { detail: 0.6 },
        seed: 8,
    };
    let jpeg = generate_jpeg(&spec, 85, Subsampling::S422).expect("encode");
    for platform in Platform::all() {
        let decoder = session_for(&platform);
        for mode in Mode::all() {
            let out = decoder
                .decode(&jpeg, DecodeOptions::with_mode(mode))
                .expect("decode");
            // Stages can overlap but never exceed their serial sum, and the
            // total must cover the sequential Huffman stage.
            assert!(
                out.times.total <= out.times.serial_sum() + 1e-12,
                "{mode:?}"
            );
            assert!(out.times.total >= out.times.huffman - 1e-12, "{mode:?}");
            assert!(
                (out.trace.makespan() - out.times.total).abs() < 1e-9,
                "{mode:?} trace/total mismatch"
            );
        }
    }
}
