//! Property-based tests across the whole stack.

use hetjpeg_core::model::PerformanceModel;
use hetjpeg_core::partition::{pps, sps};
use hetjpeg_core::platform::Platform;
use hetjpeg_core::profile::{train, TrainOptions};
use hetjpeg_core::schedule::auto::predict_all;
use hetjpeg_core::schedule::Mode;
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
    MODEL.get_or_init(|| {
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
        train(&Platform::gtx560(), &jpegs, opts)
    })
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
        let q = pps::initial_partition(&model, &geom, 0.2, (geom.mcu_h * 8) as f64, None);
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
        let part = pps::initial_partition(&model, &geom, d, chunk_px, None);
        let huff = model.huff_time((w * h) as f64, d);
        prop_assert!(part.predicted_cpu >= huff, "CPU side {} < THuff {}", part.predicted_cpu, huff);
        let gpu_px = h.min(part.gpu_mcu_rows * geom.mcu_h);
        let gpu_huff = model.huff_time((w * gpu_px) as f64, d);
        prop_assert!(
            part.predicted_gpu >= gpu_huff,
            "GPU side {} < THuff of its {} rows {}", part.predicted_gpu, gpu_px, gpu_huff
        );
    }

    /// Fed by entropy workers, Eq. 15's floors are the feed's release of
    /// the rows each side needs — every row for the CPU's band, the GPU's
    /// own rows for the device — and a release is never faster than
    /// `THuff / threads`.
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
        let release = pps::Release::new(
            &model, w as f64, h as f64, d, mcus, threads, chunks, speculative);
        let part = pps::initial_partition(&model, &geom, d, chunk_px, Some(&release));
        let all = release.at(h as f64);
        let huff = model.huff_time((w * h) as f64, d);
        prop_assert!(all >= huff / threads as f64, "release {} < THuff/{} of {}", all, threads, huff);
        prop_assert!(part.predicted_cpu >= all, "CPU side {} < release {}", part.predicted_cpu, all);
        let gpu_px = h.min(part.gpu_mcu_rows * geom.mcu_h);
        let fed = release.at(gpu_px as f64);
        let gpu_huff = model.huff_time((w * gpu_px) as f64, d);
        prop_assert!(fed >= gpu_huff / threads as f64, "release {} of {} rows", fed, gpu_px);
        prop_assert!(
            part.predicted_gpu >= fed,
            "GPU side {} < release of its {} rows {}", part.predicted_gpu, gpu_px, fed
        );
    }

    /// Fed, the walk of Eq. 15/16 runs each chunk's transfers on the copy
    /// engine beside the kernels, so it may beat the serial queue — but
    /// never the busier engine: the device finishes no sooner than the
    /// chunks' summed kernels, nor than their summed transfers.
    #[test]
    fn fed_walk_never_beats_the_busier_engine(
        w in 16usize..2048,
        h in 16usize..2048,
        d in 0.01f64..1.0,
        chunk_mcu_rows in 1usize..40,
        g_frac in 0.0f64..1.0,
        chunks in 1usize..64,
        threads in 2usize..8,
        speculative in any::<bool>(),
        sub in subsampling_strategy(),
        trained_model in any::<bool>(),
    ) {
        let geom = Geometry::new(w, h, sub).expect("geometry");
        let model = if trained_model { trained().clone() } else { Platform::gtx560().untrained_model() };
        let (w, h) = (w as f64, h as f64);
        let chunk = ((chunk_mcu_rows * geom.mcu_h) as f64).min(h);
        let mcus = (geom.mcus_x * geom.mcus_y) as f64;
        let release = pps::Release::new(&model, w, h, d, mcus, threads, chunks, speculative);
        let overlap = pps::Overlap::new(&model, w, d, chunk, 0.0, true, 0.0);
        let g = (g_frac * h).round();
        let (_, device) = overlap.fed(&release, 0.0, g, h, 0.0, &pps::Engines::default());
        let (mut transfers, mut kernels, mut done) = (0.0, 0.0, 0.0);
        while done < g {
            let rows = chunk.min(g - done);
            done += rows;
            let [h2d, k, d2h] = model.gpu_stage_times(w, rows, d).expect("stage forms");
            transfers += h2d + d2h;
            kernels += k;
        }
        let floor = f64::max(transfers, kernels);
        prop_assert!(
            device >= floor * (1.0 - 1e-12),
            "device {} < max(transfers {}, kernels {}) over {} rows", device, transfers, kernels, g
        );
    }

    /// `Auto`'s prices of the two overlapped modes never undercut the
    /// Huffman decoding they overlap with.
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
        for threads in [1, 4] {
            let floor = huff / threads as f64;
            for p in predict_all(&prep, &platform, &model, threads) {
                if matches!(p.mode, Mode::Pps | Mode::PipelinedGpu) {
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
