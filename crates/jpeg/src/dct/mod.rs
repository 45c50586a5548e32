//! Forward and inverse 8x8 DCT-II transforms.
//!
//! Paper §4.1 implements the 2-D IDCT as a 1-D column pass followed by a 1-D
//! row pass (Equations (1) and (2)) using the AAN fast algorithm of
//! Arai–Agui–Nakajima (paper reference \[26\]). Every decode path here, the
//! simulated GPU's kernels included, runs libjpeg's integer islow pass
//! instead, so that CPU and GPU partitions produce identical pixels. This
//! module provides:
//!
//! * [`reference`](mod@crate::dct::reference) — a direct f64 evaluation of Equations (1)/(2); slow but
//!   obviously correct, used as the oracle in tests,
//! * [`islow`] — the 13-bit fixed-point "islow" integer IDCT and the matching
//!   integer FDCT (libjpeg's accuracy-first pair); these are the *bit-exact*
//!   transforms used by every decode mode so that CPU and GPU partitions
//!   produce identical pixels,
//! * [`sparse`] — EOB-dispatched pruned islow variants (DC-only flat fill,
//!   2×2 / 4×4 corner butterflies) with fused dequantize+IDCT+store; the
//!   per-block dispatch the CPU hot paths run, bit-identical to [`islow`],
//! * [`simd_islow`] — runtime-dispatched SSE2/AVX2 vector kernels for the
//!   same EOB-dispatched fused pass (column-parallel butterflies: AVX2 on
//!   i32 lanes behind a per-block range guard, SSE2 on i64 lanes),
//!   bit-identical to [`sparse`] at every level; what the render loop runs
//!   when the session's `SimdLevel` allows.

pub mod islow;
pub mod reference;
pub mod simd_islow;
pub mod sparse;

/// Clamp a level-shifted IDCT output value to the 8-bit sample range.
///
/// Mirrors libjpeg's range-limit table: input is a centered sample in roughly
/// [-384, 383]; output is `clamp(x + 128, 0, 255)`.
#[inline(always)]
pub fn range_limit(x: i32) -> u8 {
    (x + 128).clamp(0, 255) as u8
}

/// Number of fractional bits retained between the two islow passes.
pub const PASS1_BITS: i32 = 2;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_limit_clamps() {
        assert_eq!(range_limit(0), 128);
        assert_eq!(range_limit(-128), 0);
        assert_eq!(range_limit(127), 255);
        assert_eq!(range_limit(-4000), 0);
        assert_eq!(range_limit(4000), 255);
    }
}
