//! Property-based tests across the whole stack.

use hetjpeg_core::model::PerformanceModel;
use hetjpeg_core::partition::{pps, sps};
use hetjpeg_core::platform::Platform;
use hetjpeg_core::profile::{train, TrainOptions};
use hetjpeg_core::schedule::auto::predict_all;
use hetjpeg_core::schedule::Mode;
use hetjpeg_core::timeline::Resource;
use hetjpeg_core::{DecodeOptions, Decoder};
use hetjpeg_corpus::{generate_jpeg, training_set, CorpusParams, ImageSpec, Pattern};
use hetjpeg_jpeg::decoder::{decode, Prepared};
use hetjpeg_jpeg::geometry::Geometry;
use hetjpeg_jpeg::types::Subsampling;
use proptest::prelude::*;
use std::sync::OnceLock;

fn subsampling_strategy() -> impl Strategy<Value = Subsampling> {
    prop_oneof![
        Just(Subsampling::S444),
        Just(Subsampling::S422),
        Just(Subsampling::S420),
    ]
}

fn pattern_strategy() -> impl Strategy<Value = Pattern> {
    prop_oneof![
        Just(Pattern::Gradient),
        (2u8..7, 0.1f64..0.9).prop_map(|(o, d)| Pattern::ValueNoise {
            octaves: o,
            detail: d
        }),
        (0.1f64..1.0).prop_map(|a| Pattern::WhiteNoise { amount: a }),
        (0.2f64..0.9).prop_map(|d| Pattern::PhotoLike { detail: d }),
    ]
}

/// A small trained GTX 560 model, fitted once for the whole binary.
fn trained() -> &'static PerformanceModel {
    static MODEL: OnceLock<PerformanceModel> = OnceLock::new();
    MODEL.get_or_init(|| trained_on(&Platform::gtx560()))
}

/// The small corpus's model trained on `platform`.
fn trained_on(platform: &Platform) -> PerformanceModel {
    let params = CorpusParams {
        min_dim: 64,
        max_dim: 256,
        steps: 3,
        subsampling: Subsampling::S422,
        quality: 85,
        restart_interval: 0,
    };
    let jpegs: Vec<Vec<u8>> = training_set(&params).into_iter().map(|c| c.jpeg).collect();
    let opts = TrainOptions {
        max_degree: 3,
        wg_blocks: Some(8),
        chunk_mcu_rows: None,
    };
    train(platform, &jpegs, opts)
}

/// The busier engine's work over a device-entropy share of `g` rows of a
/// `w`-wide image at density `d` in chunks of `c` rows, its scan `scan`
/// bytes per pixel: `THuffGPU` of the share plus every chunk's kernels on
/// the compute engine, or the share's scan H2D plus every chunk's D2H on
/// the copy engine.
fn busier_engine(
    model: &PerformanceModel,
    w: f64,
    d: f64,
    scan: f64,
) -> impl Fn(f64, f64) -> f64 + '_ {
    move |g, c| {
        let stage = |rows| model.gpu_stage_times(w, rows, d);
        let mut compute = model.thuff_gpu.time(scan * w * g, d);
        let mut copy = if g > 0.0 { stage(g)[0] } else { 0.0 };
        let mut done = 0.0;
        while done < g {
            let rows = c.min(g - done);
            done += rows;
            let [_, kernels, d2h] = stage(rows);
            (compute, copy) = (compute + kernels, copy + d2h);
        }
        f64::max(compute, copy)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every (image, platform, mode) combination decodes to the reference
    /// bytes.
    #[test]
    fn random_images_decode_identically_under_all_modes(
        w in 24usize..140,
        h in 24usize..140,
        sub in subsampling_strategy(),
        pattern in pattern_strategy(),
        quality in 40u8..=95,
        seed in any::<u64>(),
    ) {
        let spec = ImageSpec { width: w, height: h, pattern, seed };
        let jpeg = generate_jpeg(&spec, quality, sub).expect("encode");
        let reference = decode(&jpeg).expect("reference").data;
        let decoder = Decoder::builder()
            .platform(Platform::gtx560())
            .build()
            .expect("valid configuration");
        for mode in [Mode::Gpu, Mode::PipelinedGpu, Mode::Sps, Mode::Pps, Mode::Auto] {
            let out = decoder
                .decode(&jpeg, DecodeOptions::with_mode(mode))
                .expect("decode");
            prop_assert_eq!(&out.image.data, &reference, "{:?}", mode);
        }
    }

    /// Partitions always cover the image exactly, whatever the geometry.
    #[test]
    fn partitions_cover_image(
        w in 16usize..4000,
        h in 16usize..4000,
        sub in subsampling_strategy(),
        platform_idx in 0usize..3,
    ) {
        let geom = Geometry::new(w, h, sub).expect("geometry");
        let platform = &Platform::all()[platform_idx];
        let model = platform.untrained_model();
        let p = sps::partition(&model, &geom, 0.2);
        prop_assert_eq!(p.cpu_mcu_rows + p.gpu_mcu_rows, geom.mcus_y);
        let q = pps::initial_partition(&model, &geom, 0.2, (geom.mcu_h * 8) as f64);
        prop_assert_eq!(q.cpu_mcu_rows + q.gpu_mcu_rows, geom.mcus_y);
    }

    /// Eq. 15 charges the CPU all of the image's Huffman decoding, and the
    /// GPU cannot finish before its own rows are Huffman-decoded: at the
    /// split it returns, the CPU side is at least `THuff(w·h, d)` and the
    /// GPU side at least `THuff` of the GPU's rows — for the seed and a
    /// trained model, at any chunk height.
    #[test]
    fn eq15_sides_cover_their_huffman(
        w in 16usize..2048,
        h in 16usize..2048,
        d in 0.01f64..1.0,
        chunk_mcu_rows in 1usize..40,
        sub in subsampling_strategy(),
        trained_model in any::<bool>(),
    ) {
        let geom = Geometry::new(w, h, sub).expect("geometry");
        let model = if trained_model { trained().clone() } else { Platform::gtx560().untrained_model() };
        let chunk_px = (chunk_mcu_rows * geom.mcu_h) as f64;
        let part = pps::initial_partition(&model, &geom, d, chunk_px);
        let huff = model.huff_time((w * h) as f64, d);
        prop_assert!(part.predicted_cpu >= huff, "CPU side {} < THuff {}", part.predicted_cpu, huff);
        let gpu_px = h.min(part.gpu_mcu_rows * geom.mcu_h);
        let gpu_huff = model.huff_time((w * gpu_px) as f64, d);
        prop_assert!(
            part.predicted_gpu >= gpu_huff,
            "GPU side {} < THuff of its {} rows {}", part.predicted_gpu, gpu_px, gpu_huff
        );
    }

    /// Fed, Eq. 10's and 15's sides cover the work each needs: the CPU's
    /// its band's release (the band waits for the device's state, then
    /// decodes its rows fed), and the device's its share's Huffman pass
    /// (`THuffGPU`) — with and without a chunk height. The band is
    /// released by the image's feed chunks from its first row on. A release
    /// is never faster than `THuff / threads`: the band's, the whole
    /// image's, and the whole image's release of the GPU's rows.
    #[test]
    fn fed_eq15_sides_cover_their_release(
        w in 16usize..2048,
        h in 16usize..2048,
        d in 0.01f64..1.0,
        chunk_mcu_rows in 1usize..40,
        chunks in 1usize..64,
        threads in 2usize..8,
        speculative in any::<bool>(),
        sub in subsampling_strategy(),
        trained_model in any::<bool>(),
    ) {
        let geom = Geometry::new(w, h, sub).expect("geometry");
        let model = if trained_model { trained().clone() } else { Platform::gtx560().untrained_model() };
        let chunk_px = (chunk_mcu_rows * geom.mcu_h) as f64;
        let mcus = (geom.mcus_x * geom.mcus_y) as f64;
        let (wf, hf) = (w as f64, h as f64);
        let release = |skip: f64| {
            pps::Release::from_row(&model, wf, hf, d, mcus, threads, chunks, speculative, skip)
        };
        let band = |x: f64| release(hf - x).at(x);
        let floor = |x: f64| model.huff_time(wf * x, d) / threads as f64;
        let all = band(hf);
        prop_assert!(all >= floor(hf), "release {} < THuff/{} {}", all, threads, floor(hf));
        for chunk in [None, Some(chunk_px)] {
            let part = pps::device_partition(&model, &geom, d, d, chunk, &band);
            // The split's pixel rows as the balance counts them: the GPU
            // takes whole MCU rows from the top.
            let cpu_px = (hf - (part.gpu_mcu_rows * geom.mcu_h) as f64).clamp(0.0, hf);
            let released = band(cpu_px);
            prop_assert!(
                released >= floor(cpu_px),
                "{:?}: band release {} of {} rows < THuff/{} {}", chunk, released, cpu_px, threads, floor(cpu_px)
            );
            prop_assert!(
                part.predicted_cpu >= released,
                "{:?}: CPU side {} < its band's release {}", chunk, part.predicted_cpu, released
            );
            let gpu_px = hf - cpu_px;
            let fed = release(0.0).at(gpu_px);
            prop_assert!(
                fed >= floor(gpu_px),
                "{:?}: release {} of {} rows < THuff/{} {}", chunk, fed, gpu_px, threads, floor(gpu_px)
            );
            let pass = model.thuff_gpu.time(d * wf * gpu_px, d);
            prop_assert!(
                part.predicted_gpu >= pass,
                "{:?}: GPU side {} < THuffGPU of its {} rows {}", chunk, part.predicted_gpu, gpu_px, pass
            );
        }
    }

    /// Fed, the GPU decodes its share's Huffman, and the walk of Eq. 10,
    /// 15 and 16 runs each chunk's transfers on the copy engine beside the
    /// kernels — but never beats the busier engine, the Huffman kernels
    /// counted as compute-engine work. `Gpu` (one chunk on the in-order
    /// queue) and the pipeline (chunks on the two engines) take every row,
    /// SPS and PPS their split's, whichever band release the CPU side
    /// waits for; the device finishes no sooner than `THuffGPU` of the
    /// share plus every chunk's kernels, nor than the share's scan H2D plus
    /// every chunk's D2H.
    #[test]
    fn fed_walk_never_beats_the_busier_engine(
        w in 16usize..2048,
        h in 16usize..2048,
        d in 0.01f64..1.0,
        chunk_mcu_rows in 1usize..40,
        chunks in 1usize..64,
        threads in 2usize..8,
        speculative in any::<bool>(),
        sub in subsampling_strategy(),
        trained_model in any::<bool>(),
    ) {
        let geom = Geometry::new(w, h, sub).expect("geometry");
        let model = if trained_model { trained().clone() } else { Platform::gtx560().untrained_model() };
        let (wf, hf) = (w as f64, h as f64);
        let chunk_px = ((chunk_mcu_rows * geom.mcu_h) as f64).min(hf);
        let mcus = (geom.mcus_x * geom.mcus_y) as f64;
        let floors = busier_engine(&model, wf, d, d);
        for (serial, c) in [(true, hf), (false, chunk_px)] {
            let overlap = pps::Overlap::new(&model, wf, d, c, 0.0, true, 0.0).with_scan(d);
            let (price, floor) = (overlap.device_only(hf, serial), floors(hf, c));
            prop_assert!(price >= floor * (1.0 - 1e-12), "serial {}: {} < {}", serial, price, floor);
        }
        let band = |x: f64| {
            let release = pps::Release::from_row(&model, wf, hf, d, mcus, threads, chunks, speculative, hf - x);
            release.at(x)
        };
        for chunk in [None, Some(chunk_px)] {
            let part = pps::device_partition(&model, &geom, d, d, chunk, &band);
            let g = hf.min((part.gpu_mcu_rows * geom.mcu_h) as f64);
            let floor = floors(g, chunk.unwrap_or(g));
            prop_assert!(
                part.predicted_gpu >= floor * (1.0 - 1e-12),
                "split {:?} on {} rows: {} < {}", chunk, g, part.predicted_gpu, floor
            );
        }
    }

    /// `Auto`'s prices of the fed plans on real scans never beat the busier
    /// engine either, the scan's bytes per pixel its own: `Gpu` and the
    /// pipeline over every row — one chunk, or chunks of the model's
    /// height — and SPS and PPS over their split's.
    #[test]
    fn fed_prices_never_beat_the_busier_engine(
        w in 16usize..1200,
        h in 16usize..1200,
        detail in 0.05f64..1.0,
        chunk_mcu_rows in 1usize..40,
        sub in subsampling_strategy(),
        seed in any::<u64>(),
        trained_model in any::<bool>(),
    ) {
        let spec = ImageSpec { width: w, height: h, pattern: Pattern::PhotoLike { detail }, seed };
        let jpeg = generate_jpeg(&spec, 85, sub).expect("encode");
        let prep = Prepared::new(&jpeg).expect("parse");
        let platform = Platform::gtx560();
        let base = if trained_model { trained().clone() } else { platform.untrained_model() };
        let model = PerformanceModel { chunk_mcu_rows, ..base };
        let geom = &prep.geom;
        let d = prep.parsed.entropy_density();
        let scan = prep.parsed.scan_data.len() as f64 / geom.pixels() as f64;
        let (wf, hf) = (w as f64, h as f64);
        let chunk_px = ((chunk_mcu_rows * geom.mcu_h) as f64).min(hf);
        let floors = busier_engine(&model, wf, d, scan);
        let prices = predict_all(&prep, &platform, &model, 2);
        let price = |mode| prices.iter().find(|p| p.mode == mode).expect("a price").seconds;
        for (mode, c) in [(Mode::Gpu, hf), (Mode::PipelinedGpu, chunk_px)] {
            let floor = floors(hf, c);
            prop_assert!(price(mode) >= floor * (1.0 - 1e-12), "{:?}: {} < {}", mode, price(mode), floor);
        }
        let band = |x: f64| model.huff_time(wf * x, d) / 2.0;
        for chunk in [None, Some(chunk_px)] {
            let part = pps::device_partition(&model, geom, d, scan, chunk, &band);
            let g = hf.min((part.gpu_mcu_rows * geom.mcu_h) as f64);
            let floor = floors(g, chunk.unwrap_or(g));
            prop_assert!(
                part.predicted_gpu >= floor * (1.0 - 1e-12),
                "split {:?} on {} rows: {} < {}", chunk, g, part.predicted_gpu, floor
            );
        }
    }

    /// `Auto`'s prices of the two overlapped modes never undercut the
    /// Huffman decoding they overlap with on the paper's schedule; fed, the
    /// device decodes their GPU rows' Huffman, and the release floor is
    /// checked where the workers decode every row, the parallel-entropy
    /// plan's.
    #[test]
    fn overlapped_predictions_cover_their_huffman(
        w in 16usize..400,
        h in 16usize..400,
        detail in 0.05f64..1.0,
        chunk_mcu_rows in 1usize..40,
        seed in any::<u64>(),
        trained_model in any::<bool>(),
    ) {
        let spec = ImageSpec { width: w, height: h, pattern: Pattern::PhotoLike { detail }, seed };
        let jpeg = generate_jpeg(&spec, 85, Subsampling::S422).expect("encode");
        let prep = Prepared::new(&jpeg).expect("parse");
        let platform = Platform::gtx560();
        let base = if trained_model { trained().clone() } else { platform.untrained_model() };
        let model = PerformanceModel { chunk_mcu_rows, ..base };
        let d = prep.parsed.entropy_density();
        let huff = model.huff_time((w * h) as f64, d);
        // One thread decodes Huffman on the loop's own thread; four feed
        // it, and no release is faster than `THuff / threads`.
        for (threads, modes) in [(1, [Mode::Pps, Mode::PipelinedGpu]), (4, [Mode::ParallelEntropy; 2])] {
            let floor = huff / threads as f64;
            for p in predict_all(&prep, &platform, &model, threads) {
                if modes.contains(&p.mode) {
                    prop_assert!(
                        p.seconds >= floor,
                        "{:?} at {} threads: {} < THuff/{} {}", p.mode, threads, p.seconds, threads, floor
                    );
                }
            }
        }
    }

    /// The density correction (Eq. 17) is monotone in the remaining-time
    /// ratio and exact at uniformity.
    #[test]
    fn density_correction_properties(
        d in 0.01f64..1.0,
        spent_frac in 0.0f64..1.0,
        rows_left_frac in 0.01f64..1.0,
    ) {
        let est_total = 1.0;
        let corrected = pps::corrected_density(
            d, est_total, spent_frac, rows_left_frac, 1.0);
        prop_assert!(corrected >= 0.0);
        // At perfect uniformity (time spent == rows consumed) it's exact.
        let uniform = pps::corrected_density(
            d, est_total, 1.0 - rows_left_frac, rows_left_frac, 1.0);
        prop_assert!((uniform - d).abs() < 1e-9);
    }

    /// Virtual time is deterministic: decoding twice gives identical
    /// schedules and totals.
    #[test]
    fn schedules_are_deterministic(
        seed in any::<u64>(),
        sub in subsampling_strategy(),
    ) {
        let spec = ImageSpec {
            width: 96, height: 80,
            pattern: Pattern::PhotoLike { detail: 0.6 }, seed,
        };
        let jpeg = generate_jpeg(&spec, 85, sub).expect("encode");
        let decoder = Decoder::builder()
            .platform(Platform::gtx680())
            .build()
            .expect("valid configuration");
        let a = decoder.decode(&jpeg, DecodeOptions::with_mode(Mode::Pps)).expect("a");
        let b = decoder.decode(&jpeg, DecodeOptions::with_mode(Mode::Pps)).expect("b");
        prop_assert_eq!(a.total(), b.total());
        prop_assert_eq!(a.trace.spans.len(), b.trace.spans.len());
    }
}

/// Fed by two entropy workers, `PipelinedGpu` runs its transfers on the copy
/// engine beside its kernels, and `Auto`'s price of it walks the same two
/// engines: on the trained GTX 560 model the prediction is within 15 % of
/// the measured virtual total on every image of a held-out set, and
/// within 6 % on average.
#[test]
fn fed_pipeline_predictions_match_their_measured_totals() {
    let params = CorpusParams {
        min_dim: 64,
        max_dim: 256,
        steps: 3,
        subsampling: Subsampling::S422,
        quality: 85,
        restart_interval: 0,
    };
    let platform = Platform::gtx560();
    let model = trained();
    let decoder = Decoder::builder()
        .platform(platform.clone())
        .threads(2)
        .model(model.clone())
        .build()
        .expect("valid configuration");
    let (mut sum, mut n) = (0.0, 0);
    for img in hetjpeg_corpus::test_set(&params) {
        let out = decoder
            .decode(&img.jpeg, DecodeOptions::with_mode(Mode::PipelinedGpu))
            .expect("decode");
        assert!(
            out.trace
                .spans
                .iter()
                .any(|s| s.resource == hetjpeg_core::timeline::Resource::Copy),
            "fed, the pipeline has a copy engine"
        );
        let prep = Prepared::new(&img.jpeg).expect("parse");
        let predicted = predict_all(&prep, &platform, model, 2)
            .into_iter()
            .find(|p| p.mode == Mode::PipelinedGpu)
            .expect("a pipeline price")
            .seconds;
        let err = (predicted - out.total()).abs() / out.total();
        assert!(
            err < 0.15,
            "{}x{}: predicted {predicted}, measured {}",
            img.width,
            img.height,
            out.total()
        );
        sum += err;
        n += 1;
    }
    let mean = sum / n as f64;
    assert!(mean < 0.06, "mean error {mean:.4}");
}

/// Fed by two entropy workers, the GPU decodes its rows' Huffman: on the
/// trained GTX 560 Ti model, `Auto`'s price of `Gpu`, whose every row is the
/// device's, is within 15 % of the measured virtual total on every image
/// of a held-out set, and with SPS's price of its GPU side — when the
/// device is done: the Huffman pass, the state read-back and the chunk on
/// its in-order queue — within 6 % on average. A split's GPU share is a
/// small scan, whose pass time is set by its longest lane and varies by
/// up to a quarter between images of one shape and density, which
/// `THuffGPU(bytes, d)` cannot see; a split's CPU band is priced by `THuff`
/// and `PCPU`, whose per-image error reaches ±20 %. The model is trained on
/// the session's platform, whose CPU costs follow the kernel level it
/// dispatches, a `HETJPEG_SIMD` cap included.
#[test]
fn device_entropy_predictions_match_their_measured_totals() {
    let params = CorpusParams {
        min_dim: 64,
        max_dim: 256,
        steps: 3,
        subsampling: Subsampling::S422,
        quality: 85,
        restart_interval: 0,
    };
    let session = Decoder::builder().platform(Platform::gtx560()).build();
    let platform = session.expect("valid configuration").platform().clone();
    let model = &trained_on(&platform);
    let decoder = Decoder::builder()
        .platform(platform.clone())
        .threads(2)
        .model(model.clone())
        .build()
        .expect("valid configuration");
    let (mut sum, mut n, mut splits) = (0.0, 0, 0);
    for img in hetjpeg_corpus::test_set(&params) {
        let prep = Prepared::new(&img.jpeg).expect("parse");
        let prices = predict_all(&prep, &platform, model, 2);
        for mode in [Mode::Gpu, Mode::Sps] {
            let out = decoder
                .decode(&img.jpeg, DecodeOptions::with_mode(mode))
                .expect("decode");
            let spans = &out.trace.spans;
            if !spans.iter().any(|s| s.label == "gpu-huffman") {
                continue; // the split left the GPU no rows
            }
            let (predicted, measured) = match mode {
                Mode::Gpu => {
                    let price = prices.iter().find(|p| p.mode == mode).expect("a price");
                    (price.seconds, out.total())
                }
                _ => {
                    splits += 1;
                    let device = spans.iter().filter(|s| s.resource != Resource::Cpu);
                    let done = device.map(|s| s.end).fold(0.0, f64::max);
                    (out.partition.expect("a split").predicted_gpu, done)
                }
            };
            let err = (predicted - measured).abs() / measured;
            assert!(
                mode != Mode::Gpu || err < 0.15,
                "{}x{} {mode:?}: predicted {predicted}, measured {measured}",
                img.width,
                img.height,
            );
            sum += err;
            n += 1;
        }
    }
    assert!(
        splits >= 10,
        "only {splits} splits ran the device's Huffman"
    );
    let mean = sum / n as f64;
    assert!(mean < 0.06, "mean error {mean:.4}");
}
