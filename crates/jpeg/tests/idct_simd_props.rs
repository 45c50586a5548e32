//! PR-5 acceptance matrix for the vectorized EOB-dispatched islow IDCT:
//! scalar vs SSE2 vs AVX2 bit-identity per sparse class on arbitrary
//! in-domain blocks, per-class oracles against the f64 reference DCT, and
//! end-to-end decode identity across quality × subsampling × odd
//! dimensions × restart intervals × output sink at every [`SimdLevel`] the
//! host can run.
//!
//! On an AVX2 host the matrix covers Scalar/SSE2/AVX2; on older x86-64 it
//! degrades to Scalar/SSE2, elsewhere to Scalar only — and CI additionally
//! runs the whole suite under `HETJPEG_SIMD=scalar` *and*
//! `HETJPEG_SIMD=sse2`, so both fallback tiers stay green on any runner.

use hetjpeg_jpeg::dct::simd_islow::dequant_idct_block_level;
use hetjpeg_jpeg::dct::sparse::{class_for_eob, SparseClass, EOB_CORNER2, EOB_CORNER4};
use hetjpeg_jpeg::dct::{reference, sparse};
use hetjpeg_jpeg::decoder::kernels::SimdLevel;
use hetjpeg_jpeg::decoder::Prepared;
use hetjpeg_jpeg::encoder::{encode_rgb, EncodeParams};
use hetjpeg_jpeg::testutil::{coef_block_for_eob, noise_rgb as noise_rgb_px, quant_8bit};
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

/// An EOB chosen inside one class's range, plus the class.
fn eob_strategy() -> impl Strategy<Value = u8> {
    prop_oneof![
        Just(0u8),
        1u8..=EOB_CORNER2,
        (EOB_CORNER2 + 1)..=EOB_CORNER4,
        (EOB_CORNER4 + 1)..=63u8,
    ]
}

/// The shared generators (`hetjpeg_jpeg::testutil`) under this suite's
/// historical names.
fn coefs_for_eob(seed: u64, eob: u8, magnitude: i32) -> [i16; 64] {
    coef_block_for_eob(seed, eob as usize, magnitude)
}

fn quant_for(seed: u64) -> [u16; 64] {
    quant_8bit(seed)
}

fn noise_rgb(w: usize, h: usize, seed: u32) -> Vec<u8> {
    noise_rgb_px(w * h, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Block-level bit-identity: every available level matches the scalar
    /// sparse dispatch on arbitrary in-domain blocks of every EOB class.
    #[test]
    fn idct_levels_bit_identical_per_class(
        eob in eob_strategy(),
        seed in any::<u64>(),
        magnitude in 1i32..=2047,
    ) {
        let coefs = coefs_for_eob(seed, eob, magnitude);
        let quant = quant_for(seed ^ 0xFACE);
        let want = dequant_idct_block_level(SimdLevel::Scalar, &coefs, &quant, eob);
        for level in SimdLevel::all_available() {
            let got = dequant_idct_block_level(level, &coefs, &quant, eob);
            prop_assert_eq!(got, want, "{} eob {} class {:?}",
                level.name(), eob, class_for_eob(eob));
        }
    }

    /// Per-class oracle: every level stays within ±1 of the f64 reference
    /// IDCT (the islow algorithm's accuracy bound) — so the vector paths
    /// are not just mutually consistent but *correct*.
    #[test]
    fn idct_levels_match_reference_oracle(
        eob in eob_strategy(),
        seed in any::<u64>(),
    ) {
        let coefs = coefs_for_eob(seed, eob, 255);
        let quant = quant_for(seed ^ 0xBEEF);
        let mut dq = [0i32; 64];
        for i in 0..64 {
            dq[i] = coefs[i] as i32 * quant[i] as i32;
        }
        // Keep the dequantized magnitudes in the realistic range the ±1
        // islow accuracy bound is stated for.
        for v in dq.iter_mut() {
            *v = (*v).clamp(-65_000, 65_000);
        }
        let mut clamped = [0i16; 64];
        let mut cq = [1u16; 64];
        for i in 0..64 {
            // Re-express the clamped dq exactly with quant 1 so the fused
            // entry point sees the same block the oracle prices.
            clamped[i] = dq[i].clamp(-32_768, 32_767) as i16;
            cq[i] = 1;
            dq[i] = clamped[i] as i32;
        }
        let want = reference::idct_to_samples(&dq);
        for level in SimdLevel::all_available() {
            let got = dequant_idct_block_level(level, &clamped, &cq, eob);
            for i in 0..64 {
                prop_assert!(
                    (got[i] as i32 - want[i] as i32).abs() <= 1,
                    "{} px {}: got {} reference {}",
                    level.name(), i, got[i], want[i]
                );
            }
        }
    }

    /// End-to-end matrix: the render loop decodes identically at every
    /// level, into every sink, across subsampling × quality × odd
    /// dimensions × restart intervals — the full-decode twin of the
    /// block-level matrix.
    #[test]
    fn decode_bit_identical_across_levels(
        sub in subsampling_strategy(),
        quality in 55u8..=95,
        dw in 0usize..16,
        dh in 0usize..16,
        interval in prop_oneof![Just(0usize), 1usize..8],
        seed in any::<u32>(),
    ) {
        let (w, h) = (33 + dw, 31 + dh); // odd bases: MCU-ragged edges
        let jpeg = encode_rgb(
            &noise_rgb(w, h, seed),
            w as u32,
            h as u32,
            &EncodeParams { quality, subsampling: sub, restart_interval: interval },
        ).expect("encode");
        let prep = Prepared::new(&jpeg).expect("parse");
        let (coef, _) = prep.entropy_decode_all().expect("entropy");
        let want = common::oracle(&prep, &coef);
        let label = format!("{} q{quality} {w}x{h} dri {interval}", sub.notation());
        for level in SimdLevel::all_available() {
            common::assert_every_sink_matches(&prep, &coef, level, &want, &label);
        }
    }
}

/// The class thresholds the dispatcher keys on are exactly the sparse
/// module's zigzag-derived bounds (pinning the matrix's axis).
#[test]
fn class_axis_covers_all_four_classes() {
    assert_eq!(class_for_eob(0), SparseClass::DcOnly);
    assert_eq!(class_for_eob(EOB_CORNER2), SparseClass::Corner2);
    assert_eq!(class_for_eob(EOB_CORNER4), SparseClass::Corner4);
    assert_eq!(class_for_eob(EOB_CORNER4 + 1), SparseClass::Dense);
    assert_eq!(class_for_eob(63), SparseClass::Dense);
}

/// Exhaustive (non-proptest) sweep of every EOB value at every level on a
/// fixed seed — cheap enough to run wholesale, catches off-by-one class
/// boundaries that random sampling can miss.
#[test]
fn every_eob_value_is_bit_identical() {
    let quant = quant_for(11);
    for eob in 0u8..64 {
        let coefs = coefs_for_eob(1000 + eob as u64, eob, 512);
        let want = dequant_idct_block_level(SimdLevel::Scalar, &coefs, &quant, eob);
        for level in SimdLevel::all_available() {
            assert_eq!(
                dequant_idct_block_level(level, &coefs, &quant, eob),
                want,
                "{} eob {eob}",
                level.name()
            );
        }
    }
    // Loose-bound semantics across the class boundaries too.
    let coefs = coefs_for_eob(7, 2, 300);
    let want = dequant_idct_block_level(SimdLevel::Scalar, &coefs, &quant, 2);
    for level in SimdLevel::all_available() {
        for eob in [sparse::EOB_CORNER2, sparse::EOB_CORNER4, 63] {
            assert_eq!(
                dequant_idct_block_level(level, &coefs, &quant, eob),
                want,
                "{} loose bound {eob}",
                level.name()
            );
        }
    }
}
