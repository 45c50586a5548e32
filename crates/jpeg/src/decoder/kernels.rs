//! Runtime-dispatched SIMD kernels for the parallel phase.
//!
//! The paper's §1 premise is that a hand-SIMDized sequential decoder runs
//! roughly twice as fast as the scalar one; until this module the "SIMD
//! mode" was plane-restructured scalar code. Here are the real vector
//! kernels for the two stages that dominate the parallel phase after the
//! PR-1 IDCT work — chroma upsampling and YCbCr→RGB conversion — as
//! `core::arch::x86_64` SSE2 and AVX2 paths behind runtime CPU-feature
//! dispatch, with the existing scalar code ([`crate::sample`],
//! [`crate::color`]) as the portable fallback.
//!
//! Every kernel is **bit-identical** to its scalar counterpart: the SIMD
//! arithmetic is the same 16-bit triangular filter (Algorithm 1) and the
//! same `SCALE_BITS` fixed-point conversion (Algorithm 2), lane-for-lane —
//! enforced by the proptest matrix in `tests/simd_kernels_props.rs` and by
//! the cross-mode bit-identity suites.
//!
//! Dispatch is represented by [`SimdLevel`], detected **once** per process
//! (cached `is_x86_feature_detected!`) and then carried by the decoder
//! session ([`super::simd::SimdScratch`]), not re-queried per row. The
//! `HETJPEG_SIMD` environment variable (`scalar` | `sse2` | `avx2`) caps the
//! detected level so CI can exercise the fallback paths on any host.

use crate::color::{YccTables, FIX_0_34414, FIX_0_71414, FIX_1_40200, FIX_1_77200, ONE_HALF};
use crate::sample::{upsample_row_h2v1_blockwise, upsample_v2_pair};
use std::sync::OnceLock;

/// Vector instruction set the parallel-phase kernels run on.
///
/// Ordered: a level implies every lower one is also usable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdLevel {
    /// Portable scalar kernels — `Mode::Sequential`'s level, and the
    /// fallback on hosts without the vector sets.
    Scalar,
    /// 128-bit SSE2 kernels (baseline on every x86-64).
    Sse2,
    /// 256-bit AVX2 kernels.
    Avx2,
}

static DETECTED: OnceLock<SimdLevel> = OnceLock::new();

impl SimdLevel {
    /// The best level this host supports, detected once per process and
    /// cached. Honors the `HETJPEG_SIMD` cap (`scalar` | `sse2` | `avx2`)
    /// so test runs can force the fallback paths.
    pub fn detect() -> SimdLevel {
        *DETECTED.get_or_init(|| Self::detect_uncached().min(Self::env_cap()))
    }

    fn env_cap() -> SimdLevel {
        match std::env::var("HETJPEG_SIMD").as_deref() {
            Ok("scalar") => SimdLevel::Scalar,
            Ok("sse2") => SimdLevel::Sse2,
            Ok("avx2") | Err(_) => SimdLevel::Avx2,
            Ok(other) => {
                // A typoed cap must not silently disable the coverage the
                // caller asked for (the CI forced-scalar pass relies on it).
                eprintln!(
                    "hetjpeg: ignoring unrecognized HETJPEG_SIMD value {other:?} \
                     (expected scalar|sse2|avx2)"
                );
                SimdLevel::Avx2
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    fn detect_uncached() -> SimdLevel {
        if is_x86_feature_detected!("avx2") {
            SimdLevel::Avx2
        } else {
            // SSE2 is part of the x86-64 baseline.
            SimdLevel::Sse2
        }
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn detect_uncached() -> SimdLevel {
        SimdLevel::Scalar
    }

    /// Whether this level's kernels can run on the current host.
    pub fn is_available(self) -> bool {
        self <= Self::detect_uncached()
    }

    /// The nearest level the current host can actually run — the dispatch
    /// functions clamp through this, so requesting an unavailable level
    /// (e.g. `Avx2` on a pre-AVX2 chip) degrades instead of executing a
    /// `#[target_feature]` function the CPU lacks.
    pub fn clamp_to_host(self) -> SimdLevel {
        self.min(Self::detect_uncached())
    }

    /// Every level the current host can run, lowest first — the axis the
    /// bit-identity proptest matrix sweeps.
    pub fn all_available() -> Vec<SimdLevel> {
        [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2]
            .into_iter()
            .filter(|l| l.is_available())
            .collect()
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// Fused dequantize + EOB-dispatched IDCT + store of one block, dispatched
/// on `level` — the IDCT member of the kernel family (PR 5), delegating to
/// [`crate::dct::simd_islow`]. Bit-identical to
/// [`crate::dct::sparse::dequant_idct_to`] at every level; same contract
/// (row `r` of the 8×8 result lands at `dst[base + r * stride ..][..8]`,
/// `eob` bounds the highest nonzero zigzag index).
#[inline]
pub fn dequant_idct_block(
    level: SimdLevel,
    coefs: &[i16; 64],
    quant: &[u16; 64],
    eob: u8,
    dst: &mut [u8],
    base: usize,
    stride: usize,
) {
    crate::dct::simd_islow::dequant_idct_to_level(level, coefs, quant, eob, dst, base, stride)
}

/// Blockwise "fancy" h2v1 upsampling of a whole chroma row (Algorithm 1 on
/// each aligned 8-sample segment), dispatched on `level`. Bit-identical to
/// [`upsample_row_h2v1_blockwise`].
///
/// `input.len()` must be a multiple of 8 (chroma planes are padded to whole
/// blocks) and `output.len() == 2 * input.len()`.
#[inline]
pub fn upsample_row_h2v1(level: SimdLevel, input: &[u8], output: &mut [u8]) {
    // Real (release-mode) checks: the vector paths below drive raw-pointer
    // loads/stores off these lengths, so a mismatch must panic here rather
    // than read out of bounds.
    assert_eq!(output.len(), input.len() * 2);
    assert!(input.len().is_multiple_of(8));
    match level.clamp_to_host() {
        SimdLevel::Scalar => upsample_row_h2v1_blockwise(input, output),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => unsafe { x86::upsample_row_h2v1_sse2(input, output) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::upsample_row_h2v1_avx2(input, output) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => upsample_row_h2v1_blockwise(input, output),
    }
}

/// Vertical triangular blend of two chroma rows (the 4:2:0 first pass):
/// `out[i] = (3 * near[i] + far[i] + 2) / 4`, dispatched on `level`.
/// Bit-identical to a scalar [`upsample_v2_pair`] loop.
#[inline]
pub fn blend_v2_row(level: SimdLevel, near: &[u8], far: &[u8], out: &mut [u8]) {
    // Real checks — the vector paths use raw-pointer accesses (see
    // `upsample_row_h2v1`).
    assert_eq!(near.len(), far.len());
    assert_eq!(near.len(), out.len());
    match level.clamp_to_host() {
        SimdLevel::Scalar => blend_v2_row_scalar(near, far, out),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => unsafe { x86::blend_v2_row_sse2(near, far, out) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::blend_v2_row_avx2(near, far, out) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => blend_v2_row_scalar(near, far, out),
    }
}

fn blend_v2_row_scalar(near: &[u8], far: &[u8], out: &mut [u8]) {
    for ((t, &n), &f) in out.iter_mut().zip(near.iter()).zip(far.iter()) {
        *t = upsample_v2_pair(n, f);
    }
}

/// YCbCr→RGB for one pixel row into interleaved RGB bytes, dispatched on
/// `level`. `out.len()` is `3 * width`; `y`/`cb`/`cr` must hold at least
/// `width` samples (they are full plane rows, so usually hold more — the
/// kernels never read past `width`). Bit-identical to
/// [`crate::color::ycc_to_rgb`] / [`crate::color::ycc_to_rgb_tab`].
#[inline]
pub fn convert_row(
    level: SimdLevel,
    tab: &YccTables,
    y: &[u8],
    cb: &[u8],
    cr: &[u8],
    out: &mut [u8],
) {
    let w = out.len() / 3;
    // Real checks — the vector paths use raw-pointer accesses (see
    // `upsample_row_h2v1`).
    assert!(y.len() >= w && cb.len() >= w && cr.len() >= w);
    match level.clamp_to_host() {
        SimdLevel::Scalar => convert_row_scalar(tab, y, cb, cr, out),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => {
            let done = unsafe { x86::convert_row_sse2(y, cb, cr, out) };
            convert_row_scalar(
                tab,
                &y[done..],
                &cb[done..],
                &cr[done..],
                &mut out[done * 3..],
            );
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            let done = unsafe { x86::convert_row_avx2(y, cb, cr, out) };
            convert_row_scalar(
                tab,
                &y[done..],
                &cb[done..],
                &cr[done..],
                &mut out[done * 3..],
            );
        }
        #[cfg(not(target_arch = "x86_64"))]
        _ => convert_row_scalar(tab, y, cb, cr, out),
    }
}

/// Table-driven scalar conversion (the portable fallback and the tail
/// handler for the vector kernels).
fn convert_row_scalar(tab: &YccTables, y: &[u8], cb: &[u8], cr: &[u8], out: &mut [u8]) {
    let w = out.len() / 3;
    for (((&yv, &cbv), &crv), px) in y[..w]
        .iter()
        .zip(cb[..w].iter())
        .zip(cr[..w].iter())
        .zip(out.chunks_exact_mut(3))
    {
        let rgb = crate::color::ycc_to_rgb_tab(tab, yv, cbv, crv);
        px.copy_from_slice(&rgb);
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The vector implementations. All arithmetic mirrors the scalar code
    //! exactly: u16 lanes for the `(3a + b + k) >> 2` triangular filters
    //! (inputs ≤ 255, so `3a + b + 2 ≤ 1022` never overflows), i32 lanes
    //! for the `SCALE_BITS` fixed-point color transform, and saturating
    //! packs for the `clamp(0, 255)`.

    use super::{FIX_0_34414, FIX_0_71414, FIX_1_40200, FIX_1_77200, ONE_HALF};
    use core::arch::x86_64::*;

    /// One Algorithm-1 segment on u16x8 lanes: `even = (3v + left + 1) >> 2`,
    /// `odd = (3v + right + 2) >> 2` with edge replication folded into the
    /// shifted vectors — `(4v + 1) >> 2 == v` and `(4v + 2) >> 2 == v`, so
    /// the replicated end lanes reproduce `Out[0] = In[0]` / `Out[15] = In[7]`
    /// exactly.
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn upsample_row_h2v1_sse2(input: &[u8], output: &mut [u8]) {
        let zero = _mm_setzero_si128();
        let one = _mm_set1_epi16(1);
        let two = _mm_set1_epi16(2);
        let three = _mm_set1_epi16(3);
        let lane0 = _mm_cvtsi32_si128(0xFFFF);
        let lane7 = _mm_slli_si128(lane0, 14);
        for (seg_in, seg_out) in input.chunks_exact(8).zip(output.chunks_exact_mut(16)) {
            let v8 = unsafe { _mm_loadl_epi64(seg_in.as_ptr() as *const __m128i) };
            let v = _mm_unpacklo_epi8(v8, zero);
            let left = _mm_or_si128(_mm_slli_si128(v, 2), _mm_and_si128(v, lane0));
            let right = _mm_or_si128(_mm_srli_si128(v, 2), _mm_and_si128(v, lane7));
            let v3 = _mm_mullo_epi16(v, three);
            let even = _mm_srli_epi16(_mm_add_epi16(_mm_add_epi16(v3, left), one), 2);
            let odd = _mm_srli_epi16(_mm_add_epi16(_mm_add_epi16(v3, right), two), 2);
            let il_lo = _mm_unpacklo_epi16(even, odd);
            let il_hi = _mm_unpackhi_epi16(even, odd);
            let bytes = _mm_packus_epi16(il_lo, il_hi);
            unsafe { _mm_storeu_si128(seg_out.as_mut_ptr() as *mut __m128i, bytes) };
        }
    }

    /// Two Algorithm-1 segments per iteration: each 128-bit lane holds one
    /// segment's u16x8, and the per-lane byte shifts / unpacks / packs of
    /// AVX2 are exactly the per-segment operations the filter needs.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn upsample_row_h2v1_avx2(input: &[u8], output: &mut [u8]) {
        let one = _mm256_set1_epi16(1);
        let two = _mm256_set1_epi16(2);
        let three = _mm256_set1_epi16(3);
        #[rustfmt::skip]
        let lane0 = _mm256_set_epi16(
            0, 0, 0, 0, 0, 0, 0, -1,
            0, 0, 0, 0, 0, 0, 0, -1,
        );
        let lane7 = _mm256_slli_si256(lane0, 14);
        let pairs = input.chunks_exact(16);
        let tail_in = pairs.remainder();
        for (seg_in, seg_out) in pairs.zip(output.chunks_exact_mut(32)) {
            let v16 = unsafe { _mm_loadu_si128(seg_in.as_ptr() as *const __m128i) };
            let v = _mm256_cvtepu8_epi16(v16);
            let left = _mm256_or_si256(_mm256_slli_si256(v, 2), _mm256_and_si256(v, lane0));
            let right = _mm256_or_si256(_mm256_srli_si256(v, 2), _mm256_and_si256(v, lane7));
            let v3 = _mm256_mullo_epi16(v, three);
            let even = _mm256_srli_epi16(_mm256_add_epi16(_mm256_add_epi16(v3, left), one), 2);
            let odd = _mm256_srli_epi16(_mm256_add_epi16(_mm256_add_epi16(v3, right), two), 2);
            let il_lo = _mm256_unpacklo_epi16(even, odd);
            let il_hi = _mm256_unpackhi_epi16(even, odd);
            let bytes = _mm256_packus_epi16(il_lo, il_hi);
            unsafe { _mm256_storeu_si256(seg_out.as_mut_ptr() as *mut __m256i, bytes) };
        }
        if !tail_in.is_empty() {
            let done = input.len() - tail_in.len();
            unsafe { upsample_row_h2v1_sse2(tail_in, &mut output[done * 2..]) };
        }
    }

    /// `(3 * near + far + 2) >> 2` on u16 lanes, 16 bytes per iteration.
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn blend_v2_row_sse2(near: &[u8], far: &[u8], out: &mut [u8]) {
        let zero = _mm_setzero_si128();
        let two = _mm_set1_epi16(2);
        let three = _mm_set1_epi16(3);
        let n = near.len();
        let mut i = 0;
        while i + 16 <= n {
            let nv = unsafe { _mm_loadu_si128(near.as_ptr().add(i) as *const __m128i) };
            let fv = unsafe { _mm_loadu_si128(far.as_ptr().add(i) as *const __m128i) };
            let n_lo = _mm_unpacklo_epi8(nv, zero);
            let n_hi = _mm_unpackhi_epi8(nv, zero);
            let f_lo = _mm_unpacklo_epi8(fv, zero);
            let f_hi = _mm_unpackhi_epi8(fv, zero);
            let t_lo = _mm_srli_epi16(
                _mm_add_epi16(_mm_add_epi16(_mm_mullo_epi16(n_lo, three), f_lo), two),
                2,
            );
            let t_hi = _mm_srli_epi16(
                _mm_add_epi16(_mm_add_epi16(_mm_mullo_epi16(n_hi, three), f_hi), two),
                2,
            );
            let bytes = _mm_packus_epi16(t_lo, t_hi);
            unsafe { _mm_storeu_si128(out.as_mut_ptr().add(i) as *mut __m128i, bytes) };
            i += 16;
        }
        super::blend_v2_row_scalar(&near[i..], &far[i..], &mut out[i..]);
    }

    /// `(3 * near + far + 2) >> 2` on u16 lanes, 32 bytes per iteration.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn blend_v2_row_avx2(near: &[u8], far: &[u8], out: &mut [u8]) {
        let zero = _mm256_setzero_si256();
        let two = _mm256_set1_epi16(2);
        let three = _mm256_set1_epi16(3);
        let n = near.len();
        let mut i = 0;
        while i + 32 <= n {
            let nv = unsafe { _mm256_loadu_si256(near.as_ptr().add(i) as *const __m256i) };
            let fv = unsafe { _mm256_loadu_si256(far.as_ptr().add(i) as *const __m256i) };
            let n_lo = _mm256_unpacklo_epi8(nv, zero);
            let n_hi = _mm256_unpackhi_epi8(nv, zero);
            let f_lo = _mm256_unpacklo_epi8(fv, zero);
            let f_hi = _mm256_unpackhi_epi8(fv, zero);
            let t_lo = _mm256_srli_epi16(
                _mm256_add_epi16(_mm256_add_epi16(_mm256_mullo_epi16(n_lo, three), f_lo), two),
                2,
            );
            let t_hi = _mm256_srli_epi16(
                _mm256_add_epi16(_mm256_add_epi16(_mm256_mullo_epi16(n_hi, three), f_hi), two),
                2,
            );
            // unpack/pack are per-lane inverses, so byte order is preserved.
            let bytes = _mm256_packus_epi16(t_lo, t_hi);
            unsafe { _mm256_storeu_si256(out.as_mut_ptr().add(i) as *mut __m256i, bytes) };
            i += 32;
        }
        unsafe { blend_v2_row_sse2(&near[i..], &far[i..], &mut out[i..]) };
    }

    /// Low 32 bits of a lane-wise 32-bit product (SSE2 has no `mullo_epi32`;
    /// the low half of the product is sign-agnostic, so `mul_epu32` on the
    /// even/odd lanes reassembles it exactly).
    #[target_feature(enable = "sse2")]
    fn mullo_epi32_sse2(a: __m128i, b: __m128i) -> __m128i {
        let even = _mm_mul_epu32(a, b);
        let odd = _mm_mul_epu32(_mm_srli_epi64(a, 32), _mm_srli_epi64(b, 32));
        let even = _mm_shuffle_epi32(even, 0b00_00_10_00);
        let odd = _mm_shuffle_epi32(odd, 0b00_00_10_00);
        _mm_unpacklo_epi32(even, odd)
    }

    /// Algorithm 2 on i32x4 lanes, 8 pixels per iteration. Returns how many
    /// pixels were converted (the caller runs the scalar tail).
    ///
    /// Lane math is the inline fixed-point path of `color::ycc_to_rgb`
    /// verbatim; `packs_epi32` → `packus_epi16` realizes the final
    /// `clamp(0, 255)` exactly (intermediate values fit i16).
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn convert_row_sse2(y: &[u8], cb: &[u8], cr: &[u8], out: &mut [u8]) -> usize {
        let w = out.len() / 3;
        let zero = _mm_setzero_si128();
        let c128 = _mm_set1_epi32(128);
        let half = _mm_set1_epi32(ONE_HALF);
        let f140 = _mm_set1_epi32(FIX_1_40200);
        let f177 = _mm_set1_epi32(FIX_1_77200);
        let f034 = _mm_set1_epi32(FIX_0_34414);
        let f071 = _mm_set1_epi32(FIX_0_71414);

        let widen = |v8: __m128i| {
            let v16 = _mm_unpacklo_epi8(v8, zero);
            (_mm_unpacklo_epi16(v16, zero), _mm_unpackhi_epi16(v16, zero))
        };
        let mut x = 0;
        let mut r8 = [0u8; 16];
        let mut g8 = [0u8; 16];
        let mut b8 = [0u8; 16];
        while x + 8 <= w {
            let yv = unsafe { _mm_loadl_epi64(y.as_ptr().add(x) as *const __m128i) };
            let cbv = unsafe { _mm_loadl_epi64(cb.as_ptr().add(x) as *const __m128i) };
            let crv = unsafe { _mm_loadl_epi64(cr.as_ptr().add(x) as *const __m128i) };
            let (y_lo, y_hi) = widen(yv);
            let (cb_lo, cb_hi) = widen(cbv);
            let (cr_lo, cr_hi) = widen(crv);

            let mut r16 = zero;
            let mut g16 = zero;
            let mut b16 = zero;
            for (hi, (yv, (xb, xr))) in [
                (
                    false,
                    (
                        y_lo,
                        (_mm_sub_epi32(cb_lo, c128), _mm_sub_epi32(cr_lo, c128)),
                    ),
                ),
                (
                    true,
                    (
                        y_hi,
                        (_mm_sub_epi32(cb_hi, c128), _mm_sub_epi32(cr_hi, c128)),
                    ),
                ),
            ] {
                let r = _mm_add_epi32(
                    yv,
                    _mm_srai_epi32(_mm_add_epi32(mullo_epi32_sse2(xr, f140), half), 16),
                );
                let b = _mm_add_epi32(
                    yv,
                    _mm_srai_epi32(_mm_add_epi32(mullo_epi32_sse2(xb, f177), half), 16),
                );
                let g = _mm_add_epi32(
                    yv,
                    _mm_srai_epi32(
                        _mm_sub_epi32(
                            _mm_sub_epi32(half, mullo_epi32_sse2(xb, f034)),
                            mullo_epi32_sse2(xr, f071),
                        ),
                        16,
                    ),
                );
                if hi {
                    r16 = _mm_packs_epi32(r16, r);
                    g16 = _mm_packs_epi32(g16, g);
                    b16 = _mm_packs_epi32(b16, b);
                } else {
                    r16 = r;
                    g16 = g;
                    b16 = b;
                }
            }
            unsafe {
                _mm_storeu_si128(r8.as_mut_ptr() as *mut __m128i, _mm_packus_epi16(r16, r16));
                _mm_storeu_si128(g8.as_mut_ptr() as *mut __m128i, _mm_packus_epi16(g16, g16));
                _mm_storeu_si128(b8.as_mut_ptr() as *mut __m128i, _mm_packus_epi16(b16, b16));
            }
            interleave_rgb(&r8[..8], &g8[..8], &b8[..8], &mut out[x * 3..x * 3 + 24]);
            x += 8;
        }
        x
    }

    /// Algorithm 2 on i32x8 lanes, 16 pixels per iteration. Returns how
    /// many pixels were converted.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn convert_row_avx2(y: &[u8], cb: &[u8], cr: &[u8], out: &mut [u8]) -> usize {
        let w = out.len() / 3;
        let c128 = _mm256_set1_epi32(128);
        let half = _mm256_set1_epi32(ONE_HALF);
        let f140 = _mm256_set1_epi32(FIX_1_40200);
        let f177 = _mm256_set1_epi32(FIX_1_77200);
        let f034 = _mm256_set1_epi32(FIX_0_34414);
        let f071 = _mm256_set1_epi32(FIX_0_71414);

        let mut x = 0;
        let mut r8 = [0u8; 16];
        let mut g8 = [0u8; 16];
        let mut b8 = [0u8; 16];
        while x + 16 <= w {
            let load8 = |p: &[u8], off: usize| unsafe {
                _mm256_cvtepu8_epi32(_mm_loadl_epi64(p.as_ptr().add(off) as *const __m128i))
            };
            let mut chans = [_mm256_setzero_si256(); 6]; // r_lo, r_hi, g_lo, g_hi, b_lo, b_hi
            for half_idx in 0..2usize {
                let off = x + half_idx * 8;
                let yv = load8(y, off);
                let xb = _mm256_sub_epi32(load8(cb, off), c128);
                let xr = _mm256_sub_epi32(load8(cr, off), c128);
                let r = _mm256_add_epi32(
                    yv,
                    _mm256_srai_epi32(_mm256_add_epi32(_mm256_mullo_epi32(xr, f140), half), 16),
                );
                let b = _mm256_add_epi32(
                    yv,
                    _mm256_srai_epi32(_mm256_add_epi32(_mm256_mullo_epi32(xb, f177), half), 16),
                );
                let g = _mm256_add_epi32(
                    yv,
                    _mm256_srai_epi32(
                        _mm256_sub_epi32(
                            _mm256_sub_epi32(half, _mm256_mullo_epi32(xb, f034)),
                            _mm256_mullo_epi32(xr, f071),
                        ),
                        16,
                    ),
                );
                chans[half_idx] = r;
                chans[2 + half_idx] = g;
                chans[4 + half_idx] = b;
            }
            // packs within 128-bit lanes scrambles [lo0 hi0 lo1 hi1]; the
            // permute restores pixel order before the final u8 pack.
            let pack16 = |lo: __m256i, hi: __m256i| {
                let p = _mm256_permute4x64_epi64(_mm256_packs_epi32(lo, hi), 0b11_01_10_00);
                _mm_packus_epi16(_mm256_castsi256_si128(p), _mm256_extracti128_si256(p, 1))
            };
            unsafe {
                _mm_storeu_si128(r8.as_mut_ptr() as *mut __m128i, pack16(chans[0], chans[1]));
                _mm_storeu_si128(g8.as_mut_ptr() as *mut __m128i, pack16(chans[2], chans[3]));
                _mm_storeu_si128(b8.as_mut_ptr() as *mut __m128i, pack16(chans[4], chans[5]));
            }
            interleave_rgb(&r8, &g8, &b8, &mut out[x * 3..x * 3 + 48]);
            x += 16;
        }
        x
    }

    /// Interleave planar channel bytes into RGB triples.
    #[inline(always)]
    fn interleave_rgb(r: &[u8], g: &[u8], b: &[u8], out: &mut [u8]) {
        for (((px, &rv), &gv), &bv) in out
            .chunks_exact_mut(3)
            .zip(r.iter())
            .zip(g.iter())
            .zip(b.iter())
        {
            px[0] = rv;
            px[1] = gv;
            px[2] = bv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::ycc_to_rgb;

    fn pseudo_bytes(n: usize, seed: u32) -> Vec<u8> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(1664525).wrapping_add(1013904223);
                (s >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn detection_is_cached_and_available() {
        let a = SimdLevel::detect();
        let b = SimdLevel::detect();
        assert_eq!(a, b);
        assert!(a.is_available());
        assert!(SimdLevel::all_available().contains(&SimdLevel::Scalar));
    }

    #[test]
    fn upsample_levels_match_scalar_oracle() {
        for len in [8usize, 16, 24, 64, 136] {
            let input = pseudo_bytes(len, 7 + len as u32);
            let mut want = vec![0u8; len * 2];
            upsample_row_h2v1_blockwise(&input, &mut want);
            for level in SimdLevel::all_available() {
                let mut got = vec![0u8; len * 2];
                upsample_row_h2v1(level, &input, &mut got);
                assert_eq!(got, want, "{} len {len}", level.name());
            }
        }
    }

    #[test]
    fn blend_levels_match_scalar_oracle() {
        for len in [1usize, 8, 15, 16, 17, 31, 32, 33, 120] {
            let near = pseudo_bytes(len, 3);
            let far = pseudo_bytes(len, 11);
            let mut want = vec![0u8; len];
            blend_v2_row_scalar(&near, &far, &mut want);
            for level in SimdLevel::all_available() {
                let mut got = vec![0u8; len];
                blend_v2_row(level, &near, &far, &mut got);
                assert_eq!(got, want, "{} len {len}", level.name());
            }
        }
    }

    #[test]
    fn convert_levels_match_inline_oracle() {
        let tab = YccTables::new();
        for w in [1usize, 7, 8, 9, 15, 16, 17, 40, 129] {
            let y = pseudo_bytes(w, 5);
            let cb = pseudo_bytes(w, 6);
            let cr = pseudo_bytes(w, 9);
            let mut want = vec![0u8; w * 3];
            for x in 0..w {
                want[x * 3..x * 3 + 3].copy_from_slice(&ycc_to_rgb(y[x], cb[x], cr[x]));
            }
            for level in SimdLevel::all_available() {
                let mut got = vec![0u8; w * 3];
                convert_row(level, &tab, &y, &cb, &cr, &mut got);
                assert_eq!(got, want, "{} width {w}", level.name());
            }
        }
    }

    #[test]
    fn convert_handles_extreme_chroma() {
        // Saturation corners: both clamps and the exact neutral axis.
        let tab = YccTables::new();
        let mut y = Vec::new();
        let mut cb = Vec::new();
        let mut cr = Vec::new();
        for yv in [0u8, 128, 255] {
            for c in [0u8, 1, 127, 128, 129, 254, 255] {
                y.push(yv);
                cb.push(c);
                cr.push(255 - c);
            }
        }
        let w = y.len();
        let mut want = vec![0u8; w * 3];
        for x in 0..w {
            want[x * 3..x * 3 + 3].copy_from_slice(&ycc_to_rgb(y[x], cb[x], cr[x]));
        }
        for level in SimdLevel::all_available() {
            let mut got = vec![0u8; w * 3];
            convert_row(level, &tab, &y, &cb, &cr, &mut got);
            assert_eq!(got, want, "{}", level.name());
        }
    }
}
