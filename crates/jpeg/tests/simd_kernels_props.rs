//! PR-3 acceptance matrix: the runtime-dispatched SIMD kernels are
//! bit-identical to the scalar stage code — at the row-kernel level on
//! arbitrary bytes, and end-to-end across subsampling × quality × odd
//! dimensions × restart intervals × output sink for every [`SimdLevel`]
//! the host can run.
//!
//! On an AVX2 host the matrix covers Scalar/SSE2/AVX2; on older x86-64 it
//! degrades to Scalar/SSE2, elsewhere to Scalar only — and CI additionally
//! runs the whole suite under `HETJPEG_SIMD=scalar` so the fallback stays
//! green on any runner.

use hetjpeg_jpeg::color::{ycc_to_rgb, YccTables};
use hetjpeg_jpeg::decoder::kernels::{blend_v2_row, convert_row, upsample_row_h2v1, SimdLevel};
use hetjpeg_jpeg::decoder::{simd, Prepared};
use hetjpeg_jpeg::encoder::{encode_rgb, EncodeParams};
use hetjpeg_jpeg::sample::{upsample_row_h2v1_blockwise, upsample_v2_pair};
use hetjpeg_jpeg::types::Subsampling;
use proptest::prelude::*;

mod common;

fn subsampling_strategy() -> impl Strategy<Value = Subsampling> {
    prop_oneof![
        Just(Subsampling::S444),
        Just(Subsampling::S422),
        Just(Subsampling::S420),
    ]
}

fn noise_rgb(w: usize, h: usize, seed: u32) -> Vec<u8> {
    let mut rgb = Vec::with_capacity(w * h * 3);
    let mut s = seed | 1;
    for _ in 0..w * h {
        s = s.wrapping_mul(1664525).wrapping_add(1013904223);
        rgb.extend_from_slice(&[(s >> 8) as u8, (s >> 16) as u8, (s >> 24) as u8]);
    }
    rgb
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Row-kernel oracle: the h2v1 upsampler matches Algorithm 1 on every
    /// level for arbitrary segment counts and bytes.
    #[test]
    fn upsample_kernel_matches_algorithm1(
        segs in 1usize..24,
        seed in any::<u32>(),
    ) {
        let input: Vec<u8> = noise_rgb(segs * 8, 1, seed)[..segs * 8].to_vec();
        let mut want = vec![0u8; segs * 16];
        upsample_row_h2v1_blockwise(&input, &mut want);
        for level in SimdLevel::all_available() {
            let mut got = vec![0u8; segs * 16];
            upsample_row_h2v1(level, &input, &mut got);
            prop_assert_eq!(&got, &want, "{} segs {}", level.name(), segs);
        }
    }

    /// Row-kernel oracle: the vertical blend matches the scalar pair filter
    /// at every level, including non-multiple-of-16 widths.
    #[test]
    fn blend_kernel_matches_pair_filter(
        len in 1usize..100,
        seed in any::<u32>(),
    ) {
        let near: Vec<u8> = noise_rgb(len, 1, seed)[..len].to_vec();
        let far: Vec<u8> = noise_rgb(len, 1, seed ^ 0xABCD)[..len].to_vec();
        let want: Vec<u8> = near.iter().zip(far.iter())
            .map(|(&n, &f)| upsample_v2_pair(n, f)).collect();
        for level in SimdLevel::all_available() {
            let mut got = vec![0u8; len];
            blend_v2_row(level, &near, &far, &mut got);
            prop_assert_eq!(&got, &want, "{} len {}", level.name(), len);
        }
    }

    /// Row-kernel oracle: fixed-point color conversion matches Algorithm 2
    /// at every level, including widths that exercise the vector tail.
    #[test]
    fn convert_kernel_matches_algorithm2(
        w in 1usize..80,
        seed in any::<u32>(),
    ) {
        let tab = YccTables::new();
        let y: Vec<u8> = noise_rgb(w, 1, seed)[..w].to_vec();
        let cb: Vec<u8> = noise_rgb(w, 1, seed ^ 0x1111)[..w].to_vec();
        let cr: Vec<u8> = noise_rgb(w, 1, seed ^ 0x2222)[..w].to_vec();
        let mut want = vec![0u8; w * 3];
        for x in 0..w {
            want[x * 3..x * 3 + 3].copy_from_slice(&ycc_to_rgb(y[x], cb[x], cr[x]));
        }
        for level in SimdLevel::all_available() {
            let mut got = vec![0u8; w * 3];
            convert_row(level, &tab, &y, &cb, &cr, &mut got);
            prop_assert_eq!(&got, &want, "{} width {}", level.name(), w);
        }
    }

    /// End-to-end matrix: the render loop is bit-identical to the
    /// three-pass oracle at every level, across subsampling × quality ×
    /// odd dimensions × restart intervals — into every sink (RGB bands,
    /// tiles, planar), over whole-image and split bands.
    #[test]
    fn pipeline_bit_identical_across_levels(
        w in 1usize..130,
        h in 1usize..130,
        sub in subsampling_strategy(),
        quality in 25u8..=95,
        interval in 0usize..6,
        seed in any::<u32>(),
    ) {
        let jpeg = encode_rgb(
            &noise_rgb(w, h, seed),
            w as u32,
            h as u32,
            &EncodeParams { quality, subsampling: sub, restart_interval: interval },
        ).expect("encode");
        let prep = Prepared::new(&jpeg).expect("parse");
        let (coef, _) = prep.entropy_decode_all().expect("entropy");
        let want = common::oracle(&prep, &coef);
        let label = format!("{w}x{h} {} q{quality} dri{interval}", sub.notation());
        for level in SimdLevel::all_available() {
            common::assert_every_sink_matches(&prep, &coef, level, &want, &label);
        }
    }
}

/// The 1-px-odd edge matrix the row-tile kernels must survive without
/// reading past plane edges: dimensions one pixel past every MCU boundary,
/// for every subsampling mode, at every level. The vector kernels never
/// read more than `width` samples from a row (the tail is scalar), and the
/// padded plane geometry covers the rest — these decodes would panic on a
/// slice overrun and diverge on an edge-replication mistake.
#[test]
fn one_px_odd_dimensions_every_mode() {
    for sub in [Subsampling::S444, Subsampling::S422, Subsampling::S420] {
        let (mw, mh) = match sub {
            Subsampling::S444 => (8, 8),
            Subsampling::S422 => (16, 8),
            Subsampling::S420 => (16, 16),
        };
        for (w, h) in [
            (1usize, 1usize),
            (mw + 1, mh + 1),
            (2 * mw + 1, mh - 1),
            (mw - 1, 2 * mh + 1),
            (3 * mw + 1, 3 * mh + 1),
        ] {
            let jpeg = encode_rgb(
                &noise_rgb(w, h, (w * 31 + h) as u32),
                w as u32,
                h as u32,
                &EncodeParams {
                    quality: 80,
                    subsampling: sub,
                    restart_interval: 2,
                },
            )
            .expect("encode");
            let prep = Prepared::new(&jpeg).expect("parse");
            let (coef, _) = prep.entropy_decode_all().expect("entropy");
            let want = common::oracle(&prep, &coef);
            let label = format!("{w}x{h} {}", sub.notation());
            for level in SimdLevel::all_available() {
                common::assert_every_sink_matches(&prep, &coef, level, &want, &label);
            }
        }
    }
}

/// Edge replication at the image's last row/column: a constant image must
/// stay exactly constant through upsampling (the triangular filter blends
/// a value with itself at every replicated edge), at every level.
#[test]
fn constant_image_stays_constant_at_odd_edges() {
    for sub in [Subsampling::S444, Subsampling::S422, Subsampling::S420] {
        let (w, h) = (17usize, 9usize);
        let rgb = vec![113u8; w * h * 3];
        let jpeg = encode_rgb(
            &rgb,
            w as u32,
            h as u32,
            &EncodeParams {
                quality: 95,
                subsampling: sub,
                restart_interval: 0,
            },
        )
        .expect("encode");
        let prep = Prepared::new(&jpeg).expect("parse");
        let (coef, _) = prep.entropy_decode_all().expect("entropy");
        for level in SimdLevel::all_available() {
            let mut scratch = simd::SimdScratch::with_level(&prep, level);
            let mcus = prep.geom.mcus_y;
            let mut got = vec![0u8; prep.geom.rgb_bytes_in_mcu_rows(0, mcus)];
            let mut sink = simd::RgbBand::new(&prep, 0, mcus, &mut got).expect("band");
            simd::render_rows(&prep, &coef, 0, mcus, &mut scratch, &mut sink);
            let first = &got[..3];
            assert!(
                got.chunks_exact(3).all(|px| px == first),
                "{} {}: constant image must decode flat",
                sub.notation(),
                level.name()
            );
        }
    }
}
