//! Session-API acceptance tests: `Mode::Auto` bit-identity against its own
//! selection across subsampling/quality/restart combinations (property
//! test), batch pool-reuse accounting, and the scenario axes
//! (planar output, tolerant salvage, validation).

use hetjpeg_core::platform::Platform;
use hetjpeg_core::schedule::Mode;
use hetjpeg_core::{BuildError, DecodeOptions, Decoder, OutputFormat};
use hetjpeg_jpeg::encoder::{encode_rgb, EncodeParams};
use hetjpeg_jpeg::types::Subsampling;
use proptest::prelude::*;

fn noise_jpeg(
    w: usize,
    h: usize,
    quality: u8,
    sub: Subsampling,
    interval: usize,
    seed: u32,
) -> Vec<u8> {
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
            quality,
            subsampling: sub,
            restart_interval: interval,
        },
    )
    .expect("encode")
}

fn subsampling_strategy() -> impl Strategy<Value = Subsampling> {
    prop_oneof![
        Just(Subsampling::S444),
        Just(Subsampling::S422),
        Just(Subsampling::S420),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The acceptance property: whatever concrete mode `Auto` selects, its
    /// output is bit-identical to decoding with that mode directly —
    /// across subsampling, quality and restart-interval combinations, on
    /// every platform.
    #[test]
    fn auto_is_bit_identical_to_its_selection(
        w in 32usize..160,
        h in 32usize..160,
        sub in subsampling_strategy(),
        quality in 30u8..=95,
        interval in 0usize..8,
        platform_idx in 0usize..3,
        threads in 1usize..8,
        seed in any::<u32>(),
    ) {
        let jpeg = noise_jpeg(w, h, quality, sub, interval, seed);
        let platform = Platform::all()[platform_idx].clone();
        let decoder = Decoder::builder()
            .platform(platform)
            .threads(threads)
            .build()
            .expect("valid configuration");
        let auto = decoder.decode(&jpeg, DecodeOptions::default()).expect("auto decode");
        prop_assert_ne!(auto.mode, Mode::Auto, "outcome must report the selection");
        let direct = decoder
            .decode(&jpeg, DecodeOptions::with_mode(auto.mode))
            .expect("direct decode");
        prop_assert_eq!(&auto.image.data, &direct.image.data, "{:?}", auto.mode);
        prop_assert_eq!(auto.total(), direct.total());
    }
}

#[test]
fn batch_decode_amortizes_pools_across_many_images() {
    // The acceptance assertion for buffer reuse: N same-shaped images, one
    // large-buffer allocation.
    let images: Vec<Vec<u8>> = (0..8)
        .map(|i| noise_jpeg(128, 96, 85, Subsampling::S420, 0, 100 + i))
        .collect();
    let decoder = Decoder::builder()
        .platform(Platform::gtx560())
        .build()
        .expect("valid configuration");
    let outs = decoder.decode_batch(&images, DecodeOptions::with_mode(Mode::Pps));
    assert!(outs.iter().all(|o| o.is_ok()));
    let stats = decoder.pool_stats();
    assert_eq!(stats.coef_allocs, 1, "one coefficient-buffer allocation");
    assert_eq!(stats.coef_reuses, 7, "seven pool reuses");
    assert_eq!(stats.scratch_allocs, 1);
    assert_eq!(stats.scratch_reuses, 7);

    // The same batch through Mode::Auto: identical shape (distinct seeds,
    // so only near-identical densities) must evaluate the model once and
    // serve every other image from the decision cache.
    let outs = decoder.decode_batch(&images, DecodeOptions::default());
    assert!(outs.iter().all(|o| o.is_ok()));
    let stats = decoder.pool_stats();
    assert_eq!(stats.auto_evals, 1, "one Auto evaluation for the batch");
    assert_eq!(
        stats.auto_cache_hits,
        images.len() as u64 - 1,
        "every later same-shape image hits the Auto cache"
    );

    // A shape change re-shapes in place rather than allocating a new pool.
    let other = noise_jpeg(64, 64, 85, Subsampling::S422, 0, 9);
    decoder
        .decode(&other, DecodeOptions::with_mode(Mode::Simd))
        .expect("decode");
    let stats = decoder.pool_stats();
    assert_eq!(stats.coef_allocs, 1);
    assert_eq!(stats.coef_reuses, 2 * images.len() as u64);
}

/// One session's device context, device buffers and staging serve images
/// of any shape in any order. A large image, then a small one of another
/// subsampling, then a large one again — under every GPU-backed mode —
/// must come out exactly as from a session built for that image alone:
/// same pixels, same virtual times, same transfer accounting. Nothing of
/// the bigger earlier regions may be left in `planes`, `rgb` or local
/// memory.
#[test]
fn one_session_across_shapes_matches_a_fresh_session_per_image() {
    let gallery = [
        noise_jpeg(200, 136, 85, Subsampling::S422, 0, 11),
        noise_jpeg(40, 24, 60, Subsampling::S420, 0, 12),
        noise_jpeg(168, 152, 90, Subsampling::S444, 0, 13),
        noise_jpeg(57, 43, 75, Subsampling::S422, 0, 14),
        noise_jpeg(216, 120, 80, Subsampling::S420, 0, 15),
    ];
    let session = || {
        Decoder::builder()
            .platform(Platform::gtx680())
            .build()
            .expect("session")
    };
    for mode in [Mode::Gpu, Mode::PipelinedGpu, Mode::Sps, Mode::Pps] {
        let shared = session();
        for (i, jpeg) in gallery.iter().enumerate() {
            let label = format!("{mode:?} image {i}");
            let before = shared.stats().pool;
            let got = shared
                .decode(jpeg, DecodeOptions::with_mode(mode))
                .expect("shared session decode");
            let after = shared.stats().pool;

            let fresh = session();
            let want = fresh
                .decode(jpeg, DecodeOptions::with_mode(mode))
                .expect("fresh session decode");
            let alone = fresh.stats().pool;

            assert_eq!(got.image.data, want.image.data, "{label}");
            assert_eq!(got.times, want.times, "{label}");
            assert_eq!(got.partition, want.partition, "{label}");
            assert_eq!(
                after.h2d_transfers - before.h2d_transfers,
                alone.h2d_transfers,
                "{label}"
            );
            assert_eq!(
                after.h2d_bytes - before.h2d_bytes,
                alone.h2d_bytes,
                "{label}"
            );
            // The shared session re-shapes its pools where the fresh one
            // allocates them: one coefficient buffer either way.
            assert_eq!(
                (after.coef_allocs + after.coef_reuses) - (before.coef_allocs + before.coef_reuses),
                alone.coef_allocs,
                "{label}"
            );
        }
        assert_eq!(shared.stats().pool.coef_allocs, 1, "{mode:?}");
        assert_eq!(shared.stats().pool.scratch_allocs, 1, "{mode:?}");
    }
}

#[test]
fn mixed_gallery_through_auto_matches_reference() {
    // A heterogeneous batch (sizes, qualities, restart intervals) through
    // the default options: every outcome byte-identical to the reference
    // decoder, every selection a concrete mode.
    let gallery: Vec<Vec<u8>> = vec![
        noise_jpeg(96, 96, 40, Subsampling::S444, 0, 1),
        noise_jpeg(200, 80, 85, Subsampling::S422, 4, 2),
        noise_jpeg(64, 160, 95, Subsampling::S420, 2, 3),
        noise_jpeg(144, 144, 70, Subsampling::S422, 0, 4),
    ];
    let decoder = Decoder::builder()
        .platform(Platform::gt430())
        .threads(4)
        .build()
        .expect("valid configuration");
    for (out, jpeg) in decoder
        .decode_batch(&gallery, DecodeOptions::default())
        .into_iter()
        .zip(&gallery)
    {
        let out = out.expect("decode");
        let reference = hetjpeg_jpeg::decoder::decode(jpeg).expect("reference");
        assert_eq!(out.image.data, reference.data);
        assert_ne!(out.mode, Mode::Auto);
    }
}

#[test]
fn planar_output_converts_to_reference_rgb() {
    for sub in [Subsampling::S444, Subsampling::S422, Subsampling::S420] {
        let jpeg = noise_jpeg(100, 76, 85, sub, 0, 5);
        let decoder = Decoder::builder().build().expect("valid configuration");
        let out = decoder
            .decode(
                &jpeg,
                DecodeOptions::with_mode(Mode::Simd).format(OutputFormat::PlanarYcc),
            )
            .expect("planar decode");
        let ycc = out.planar().expect("planar output present");
        assert!(out.rgb().is_none(), "no RGB when planar was requested");
        let reference = hetjpeg_jpeg::decoder::decode(&jpeg).expect("reference");
        assert_eq!(
            ycc.to_rgb().data,
            reference.data,
            "{} planar→RGB mismatch",
            sub.notation()
        );
    }
}

#[test]
fn planar_through_parallel_entropy_matches_too() {
    let jpeg = noise_jpeg(128, 128, 82, Subsampling::S422, 3, 6);
    let decoder = Decoder::builder()
        .threads(4)
        .build()
        .expect("valid configuration");
    let out = decoder
        .decode(
            &jpeg,
            DecodeOptions::with_mode(Mode::ParallelEntropy).format(OutputFormat::PlanarYcc),
        )
        .expect("planar decode");
    let reference = hetjpeg_jpeg::decoder::decode(&jpeg).expect("reference");
    assert_eq!(out.planar().unwrap().to_rgb().data, reference.data);
}

#[test]
fn session_dispatch_choice_is_honored_and_force_scalar_matches() {
    // The kernel dispatch is resolved once at build time; the per-call
    // forced-scalar override swaps in the portable kernels, and both must
    // produce identical bytes for every mode and output format.
    use hetjpeg_core::SimdLevel;
    let scalar = |opts: DecodeOptions| opts.force_simd(SimdLevel::Scalar);
    let decoder = Decoder::builder()
        .platform(Platform::gtx560())
        .threads(4)
        .build()
        .expect("valid configuration");
    assert_eq!(
        decoder.simd_level(),
        SimdLevel::detect(),
        "session resolves the host's one-time dispatch choice at build"
    );
    for (jpeg_idx, jpeg) in [
        noise_jpeg(120, 88, 80, Subsampling::S420, 3, 21),
        noise_jpeg(97, 61, 90, Subsampling::S422, 0, 22), // odd dims
    ]
    .iter()
    .enumerate()
    {
        for mode in [Mode::Simd, Mode::Sps, Mode::Pps, Mode::ParallelEntropy] {
            let fast = decoder
                .decode(jpeg, DecodeOptions::with_mode(mode))
                .expect("decode");
            let forced = decoder
                .decode(jpeg, scalar(DecodeOptions::with_mode(mode)))
                .expect("forced-scalar decode");
            assert_eq!(
                fast.image.data, forced.image.data,
                "image {jpeg_idx} {mode:?}: forced-scalar bytes differ"
            );
        }
        // Planar output at the session's level vs forced scalar.
        let planar = DecodeOptions::with_mode(Mode::Simd).format(OutputFormat::PlanarYcc);
        let fast = decoder.decode(jpeg, planar).expect("planar");
        let forced = decoder.decode(jpeg, scalar(planar)).expect("planar forced");
        assert_eq!(
            fast.planar().unwrap().to_rgb().data,
            forced.planar().unwrap().to_rgb().data,
            "image {jpeg_idx}: planar forced-scalar bytes differ"
        );
    }

    // The stats report what the last decode really dispatched, whichever
    // entry point it came through: `Sequential` is the scalar pipeline
    // (even under a forced level), and the next `Simd` decode is back on
    // the session's level, or on the level forced for it.
    let jpeg = noise_jpeg(72, 40, 85, Subsampling::S420, 0, 23);
    let level_after = |entry: &str, opts: DecodeOptions| {
        match entry {
            "whole-frame" => drop(decoder.decode(&jpeg, opts).expect(entry)),
            "planar" => drop(
                decoder
                    .decode(&jpeg, opts.format(OutputFormat::PlanarYcc))
                    .expect(entry),
            ),
            _ => {
                let streamed = decoder
                    .decode_rows(&jpeg, opts, &mut |_| true)
                    .expect(entry);
                assert!(streamed.completed);
            }
        }
        decoder.stats().simd_level
    };
    let seq = DecodeOptions::with_mode(Mode::Sequential);
    let simd = DecodeOptions::with_mode(Mode::Simd);
    for entry in ["whole-frame", "planar", "rows"] {
        assert_eq!(level_after(entry, seq), SimdLevel::Scalar, "{entry}");
        assert_eq!(level_after(entry, simd), decoder.simd_level(), "{entry}");
        for level in SimdLevel::all_available() {
            assert_eq!(level_after(entry, simd.force_simd(level)), level, "{entry}");
            assert_eq!(
                level_after(entry, seq.force_simd(level)),
                SimdLevel::Scalar,
                "{entry}"
            );
        }
    }
}

#[test]
fn tolerant_salvage_at_odd_dimensions_matches_forced_scalar() {
    // Truncated streams at 1-px-odd dimensions: the salvage pass runs the
    // render loop over an image whose tail rows never saw entropy data
    // (zero coefficients → neutral gray). The vector kernels must neither
    // read past the plane edges nor diverge from the scalar kernels on
    // the damaged tail.
    let decoder = Decoder::builder().build().expect("valid configuration");
    for sub in [Subsampling::S444, Subsampling::S422, Subsampling::S420] {
        for (w, h) in [(17usize, 33usize), (33, 17), (49, 49)] {
            let mut jpeg = noise_jpeg(w, h, 82, sub, 2, (w * 100 + h) as u32);
            jpeg.truncate(jpeg.len() - jpeg.len() / 3);
            let opts = DecodeOptions::with_mode(Mode::Simd).tolerant();
            let fast = decoder.decode(&jpeg, opts).expect("tolerant decode");
            let forced = decoder
                .decode(&jpeg, opts.force_simd(hetjpeg_core::SimdLevel::Scalar))
                .expect("tolerant forced-scalar decode");
            assert!(fast.truncated, "{w}x{h} {} should salvage", sub.notation());
            assert_eq!(
                fast.image.data,
                forced.image.data,
                "{w}x{h} {}: salvaged bytes differ between levels",
                sub.notation()
            );
            // The damaged tail renders neutral gray.
            let last_px = &fast.image.data[(h - 1) * w * 3..(h - 1) * w * 3 + 3];
            assert_eq!(last_px, &[128, 128, 128], "{w}x{h} {}", sub.notation());
        }
    }
}

#[test]
fn construction_validates_instead_of_panicking_mid_decode() {
    // A model with wg_blocks = 0 used to panic inside the GPU kernels; the
    // builder now rejects it up front.
    let platform = Platform::gtx560();
    let mut broken = platform.untrained_model();
    broken.wg_blocks = 0;
    let err = Decoder::builder()
        .platform(platform.clone())
        .model(broken)
        .build()
        .unwrap_err();
    assert!(matches!(err, BuildError::InvalidModel(_)), "{err}");

    // Cross-platform model mis-wiring is caught too.
    let err = Decoder::builder()
        .platform(Platform::gt430())
        .model(Platform::gtx680().untrained_model())
        .build()
        .unwrap_err();
    assert!(
        matches!(err, BuildError::ModelPlatformMismatch { .. }),
        "{err}"
    );
}
