//! Runtime-dispatched SSE2/AVX2 islow IDCT kernels with EOB dispatch.
//!
//! The same EOB-dispatched sparse classes as [`crate::dct::sparse`]
//! (DC-only flat fill, pruned 2×2 / 4×4 corner butterflies, dense 8×8),
//! with the two 1-D passes running several columns per butterfly on x86
//! vector units, behind the session's [`SimdLevel`] choice.
//!
//! # Bit-identity
//!
//! Every level produces bytes **identical** to the scalar
//! [`crate::dct::sparse::dequant_idct_to`] (and so to
//! [`crate::dct::islow::idct_block`]), which computes in i64: both vector
//! kernels run the scalar butterfly itself on a lane type, the per-class
//! pruning drops only exact zeros, and the flat-column shortcut is
//! arithmetically the full butterfly on a DC-only column
//! (`descale(dc << 13, 11) = dc << 2`). `tests/idct_simd_props.rs` pins
//! this per class × level.
//!
//! ## AVX2: i32 lanes behind a per-block guard
//!
//! Each pass runs once over all eight columns in 8×i32 lanes
//! (`_mm256_mullo_epi32` products). Wrapping i32 arithmetic equals the
//! scalar i64 arithmetic when no sum leaves i32, and that is proved per
//! block, not assumed:
//!
//! * **Term-sum bound.** With every input at most `M` in magnitude, bound
//!   each intermediate by the sum of its terms' magnitudes (`|c|` times the
//!   operand for a constant product). Every intermediate reaches an output
//!   through additions and constants ≥ 1, so the outputs carry the largest
//!   bound: output 1 (`tmp11 + t2`), **178 219 · M** (`BUTTERFLY_GAIN`; a
//!   unit test recomputes it by running the butterfly on bounds).
//! * **Pass 1** rounds with 2¹⁰ before `>> 11`: exact when
//!   178 219 · M + 2¹⁰ < 2³¹, i.e. max|dq| ≤ **12 049** (`PASS1_MAX`).
//! * **Pass 2** rounds with 2¹⁷ before `>> 18`: exact when the largest
//!   pass-1 output is ≤ **12 048** (`PASS2_MAX`).
//!
//! The kernel checks each bound in-register (abs, max, compare) before its
//! pass and hands a failing block to the scalar path; [`i32_lanes_exact`]
//! states the guard on the scalar pass. Pass-1 outputs reach about four
//! times a column's largest input (the transform is orthogonal up to
//! scale), so the guard admits max|dq| up to ≈ 3 000. Corpus images at
//! quality 50–100 — photograph-like, but also white noise and
//! checkerboards — peak near 2 800 in pass 1 (`tests/idct_i32_guard.rs`
//! holds every block of the natural ones to the guard); the fallback is
//! for adversarial streams.
//!
//! ## SSE2: i64 lanes
//!
//! SSE2 has no 32-bit lane multiply, so it sums in i64 lanes with exact
//! 32×32→64 widening products, exact while every multiplicand fits i32:
//! with |dq| ≤ 32768·255 < 2²³, pass-1 multiplicands (sums of ≤ 4 inputs)
//! are < 2²⁵, pass-1 outputs < 2²⁹, pass-2 multiplicands < 2³⁰.
//!
//! ## Input domain
//!
//! Both levels dequantize `i16` coefficients with *signed* 16-bit lane
//! products (`pmaddwd` on AVX2, `mullo`/`mulhi` on SSE2), exact for
//! quantization values ≤ 32 767 on AVX2 (past that the product is wrong
//! before the guard sees it) and ≤ 255 on SSE2 — the 8-bit DQT domain
//! `markers.rs` enforces, which programmatic
//! [`crate::quant::QuantTable`]s must keep too.
//!
//! # Shape
//!
//! AVX2: dequant (one `pmaddwd` per row) → guard → column pass → transpose
//! of the live columns → guard → row pass, whose outputs are pixel columns
//! → saturating packs around the `+128` (exactly
//! [`crate::dct::range_limit`]) → byte shuffle to rows → strided stores.
//! SSE2 runs the same passes on i64 pairs. DC-only blocks keep the scalar
//! flat fill.

use super::islow::{idct_pass1, CONST_BITS};
use super::sparse::{class_for_eob, dequant_idct_to, SparseClass};
use super::PASS1_BITS;
use crate::decoder::kernels::SimdLevel;

/// Pass-1 descale (`CONST_BITS - PASS1_BITS`).
const P1: i32 = CONST_BITS - PASS1_BITS;
/// Pass-2 descale (`CONST_BITS + PASS1_BITS + 3`).
const P2: i32 = CONST_BITS + PASS1_BITS + 3;

/// Term-sum gain of one islow 1-D pass: every sum the butterfly forms is at
/// most `BUTTERFLY_GAIN` times its largest input in magnitude (module docs).
pub(crate) const BUTTERFLY_GAIN: i64 = 178_219;

/// Largest input magnitude for which a pass descaling by `descale` bits,
/// rounding constant included, stays inside i32.
const fn i32_input_limit(descale: i32) -> i32 {
    ((i32::MAX as i64 - (1 << (descale - 1))) / BUTTERFLY_GAIN) as i32
}

/// Largest max|dq| the AVX2 kernel's i32 column pass is exact for.
pub(crate) const PASS1_MAX: i32 = i32_input_limit(P1);
/// Largest pass-1 output magnitude the AVX2 kernel's i32 row pass is exact
/// for.
pub(crate) const PASS2_MAX: i32 = i32_input_limit(P2);

/// The AVX2 kernel's guard, restated on the scalar column pass: whether
/// its i32 lanes compute this block exactly. True when every dequantized
/// coefficient of the block's live `K`×`K` corner is at most
/// `PASS1_MAX` in magnitude and every column-pass output at most
/// `PASS2_MAX`; blocks it rejects take the scalar i64 path at every
/// level. Quantization values must be ≤ 32 767 (module docs).
pub fn i32_lanes_exact(coefs: &[i16; 64], quant: &[u16; 64], eob: u8) -> bool {
    let k = class_for_eob(eob).live_k();
    (0..k).all(|col| {
        let mut v = [0i64; 8];
        for (r, slot) in v.iter_mut().take(k).enumerate() {
            *slot = coefs[r * 8 + col] as i64 * quant[r * 8 + col] as i64;
        }
        v.iter().all(|d| d.abs() <= PASS1_MAX as i64)
            && idct_pass1(v).iter().all(|o| o.abs() <= PASS2_MAX as i64)
    })
}

/// Fused dequantize + EOB-dispatched IDCT + store of one block, dispatched
/// on `level`. Same contract as [`dequant_idct_to`] (row `r` of the 8×8
/// result lands at `dst[base + r * stride ..][..8]`, `eob` is an upper
/// bound on the highest nonzero zigzag index) and **bit-identical** to it
/// at every level; `level` is clamped to what the host can run.
#[inline]
pub fn dequant_idct_to_level(
    level: SimdLevel,
    coefs: &[i16; 64],
    quant: &[u16; 64],
    eob: u8,
    dst: &mut [u8],
    base: usize,
    stride: usize,
) {
    let class = class_for_eob(eob);
    // Two early-outs before touching the host clamp (a cached feature
    // probe, but not free at a few ns per block): the DC-only flat fill
    // has no butterflies to vectorize, and a scalar session must pay
    // nothing over the direct sparse dispatch.
    if class == SparseClass::DcOnly || level == SimdLevel::Scalar {
        return dequant_idct_to(coefs, quant, eob, dst, base, stride);
    }
    match level.clamp_to_host() {
        SimdLevel::Scalar => dequant_idct_to(coefs, quant, eob, dst, base, stride),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => match class {
            SparseClass::DcOnly => unreachable!("handled above"),
            // Measured policy (PR 5's per-class IDCT microbench at
            // HETJPEG_SIMD=sse2, docs/PERF.md): with only two i64 lanes and the emulated
            // 64-bit signed multiply, the SSE2 butterflies beat the scalar
            // path's per-column pruning only on the 4×4 class (≈1.5×);
            // 2×2 blocks are too small (≈0.93×) and dense-class blocks
            // are dominated by the scalar flat-column shortcut (≈0.8× in
            // corpus context). So SSE2 dispatches the 4×4 kernel and
            // keeps scalar elsewhere; the bypassed kernels stay correct
            // and unit-tested.
            SparseClass::Corner2 => dequant_idct_to(coefs, quant, eob, dst, base, stride),
            SparseClass::Corner4 => unsafe {
                x86::dequant_idct_sse2::<4>(coefs, quant, dst, base, stride)
            },
            SparseClass::Dense => dequant_idct_to(coefs, quant, eob, dst, base, stride),
        },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            // SAFETY: `clamp_to_host` returned Avx2, so the host runs AVX2.
            let exact = unsafe {
                match class {
                    SparseClass::Corner2 => {
                        x86::dequant_idct_i32x8::<2>(coefs, quant, dst, base, stride)
                    }
                    SparseClass::Corner4 => {
                        x86::dequant_idct_i32x8::<4>(coefs, quant, dst, base, stride)
                    }
                    _ => x86::dequant_idct_i32x8::<8>(coefs, quant, dst, base, stride),
                }
            };
            if !exact {
                dequant_idct_to(coefs, quant, eob, dst, base, stride);
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        _ => dequant_idct_to(coefs, quant, eob, dst, base, stride),
    }
}

/// [`dequant_idct_to_level`] into a fresh 8×8 block — the test/oracle
/// entry point mirroring [`crate::dct::sparse::idct_block_sparse`].
pub fn dequant_idct_block_level(
    level: SimdLevel,
    coefs: &[i16; 64],
    quant: &[u16; 64],
    eob: u8,
) -> [u8; 64] {
    let mut out = [0u8; 64];
    dequant_idct_to_level(level, coefs, quant, eob, &mut out, 0, 8);
    out
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The vector implementations. Column-parallel layout: a register row
    //! holds one input row across columns, so the lane-wise butterfly —
    //! the scalar [`butterfly_k`] on a lane type — computes all column
    //! transforms at once; the row pass is the same butterfly after an
    //! in-register transpose.

    use super::{P1, P2, PASS1_MAX, PASS2_MAX};
    use crate::dct::islow::butterfly_k;
    use crate::dct::PASS1_BITS;
    use core::arch::x86_64::*;
    use core::ops::{Add, Mul, Neg, Shl, Sub};

    /// A vector register as a butterfly value. The operations are plain
    /// trait methods, so the intrinsics in them are `unsafe` to call; every
    /// value is built and used inside a function with the lane type's
    /// target feature enabled, into which they inline.
    macro_rules! lane_type {
        ($name:ident, $reg:ty, $zero:ident, $add:ident, $sub:ident, $mul:expr, $shl:ident) => {
            #[derive(Clone, Copy)]
            struct $name($reg);

            impl Default for $name {
                #[inline(always)]
                fn default() -> Self {
                    // SAFETY: see `lane_type!`.
                    $name(unsafe { $zero() })
                }
            }
            impl Add for $name {
                type Output = Self;
                #[inline(always)]
                fn add(self, o: Self) -> Self {
                    // SAFETY: see `lane_type!`.
                    $name(unsafe { $add(self.0, o.0) })
                }
            }
            impl Sub for $name {
                type Output = Self;
                #[inline(always)]
                fn sub(self, o: Self) -> Self {
                    // SAFETY: see `lane_type!`.
                    $name(unsafe { $sub(self.0, o.0) })
                }
            }
            impl Neg for $name {
                type Output = Self;
                #[inline(always)]
                fn neg(self) -> Self {
                    Self::default() - self
                }
            }
            impl Mul<i64> for $name {
                type Output = Self;
                #[inline(always)]
                fn mul(self, c: i64) -> Self {
                    // SAFETY: see `lane_type!`.
                    $name(unsafe { $mul(self.0, c) })
                }
            }
            impl Shl<i32> for $name {
                type Output = Self;
                #[inline(always)]
                fn shl(self, n: i32) -> Self {
                    // SAFETY: see `lane_type!`.
                    $name(unsafe { $shl(self.0, _mm_cvtsi32_si128(n)) })
                }
            }
        };
    }

    // ------------------------------- AVX2 -------------------------------

    /// `lane * c` on eight i32 lanes (low 32 bits of the product).
    #[target_feature(enable = "avx2")]
    fn mul_c_i32x8(a: __m256i, c: i64) -> __m256i {
        _mm256_mullo_epi32(a, _mm256_set1_epi32(c as i32))
    }

    lane_type!(
        I32x8,
        __m256i,
        _mm256_setzero_si256,
        _mm256_add_epi32,
        _mm256_sub_epi32,
        mul_c_i32x8,
        _mm256_sll_epi32
    );

    /// One 1-D pass on eight i32 lanes (eight independent columns), inputs
    /// `0..K` live, output descale `N` — exactly the scalar `idct_1d_k`
    /// when every input is within the pass's guard.
    #[target_feature(enable = "avx2")]
    fn idct_1d_i32x8<const K: usize, const N: i32>(v: &[__m256i; 8]) -> [__m256i; 8] {
        let round = _mm256_set1_epi32(1 << (N - 1));
        butterfly_k::<I32x8, K>(v.map(I32x8))
            .map(|x| _mm256_srai_epi32::<N>(_mm256_add_epi32(x.0, round)))
    }

    /// The guard: whether every lane of rows `0..K` is at most `limit` in
    /// magnitude. (`abs` cannot overflow: |dq| ≤ 2¹⁵·2¹⁵, and admitted
    /// pass-1 outputs are far smaller still.)
    #[target_feature(enable = "avx2")]
    pub(super) fn within_i32x8<const K: usize>(v: &[__m256i; 8], limit: i32) -> bool {
        let max = (v[1..K].iter()).fold(_mm256_abs_epi32(v[0]), |m, r| {
            _mm256_max_epi32(m, _mm256_abs_epi32(*r))
        });
        _mm256_movemask_epi8(_mm256_cmpgt_epi32(max, _mm256_set1_epi32(limit))) == 0
    }

    /// Columns `0..K` of `w` as registers, one row of `w` per lane: the
    /// row pass's inputs. Rows `r` and `r + 4` share a register (low and
    /// high 128-bit half), then a 4×4 transpose inside each half turns four
    /// such registers into four columns. Columns `>= K` are zero in `w`, so
    /// for `K <= 4` only the low halves are transposed.
    #[target_feature(enable = "avx2")]
    fn live_columns<const K: usize>(w: &[__m256i; 8]) -> [__m256i; 8] {
        let mut out = [_mm256_setzero_si256(); 8];
        for (half, cols) in out.chunks_exact_mut(4).take(K.div_ceil(4)).enumerate() {
            let pair = |r: usize| match half {
                0 => _mm256_permute2x128_si256::<0x20>(w[r], w[r + 4]),
                _ => _mm256_permute2x128_si256::<0x31>(w[r], w[r + 4]),
            };
            let t0 = _mm256_unpacklo_epi32(pair(0), pair(1));
            let t1 = _mm256_unpackhi_epi32(pair(0), pair(1));
            let t2 = _mm256_unpacklo_epi32(pair(2), pair(3));
            let t3 = _mm256_unpackhi_epi32(pair(2), pair(3));
            cols[0] = _mm256_unpacklo_epi64(t0, t2);
            cols[1] = _mm256_unpackhi_epi64(t0, t2);
            cols[2] = _mm256_unpacklo_epi64(t1, t3);
            cols[3] = _mm256_unpackhi_epi64(t1, t3);
        }
        out
    }

    /// Dequantize row `r` of the block into an i32×8 row, columns `>= K`
    /// zeroed as the scalar `dequant_corner` leaves them: coefficients
    /// sign-extended, quantization values zero-extended, and `pmaddwd`
    /// forming each i16 × i16 product exactly (the zero upper half of the
    /// quantization lane cancels the coefficient's sign word).
    #[target_feature(enable = "avx2")]
    fn dequant_row_avx2<const K: usize>(coefs: &[i16; 64], quant: &[u16; 64], r: usize) -> __m256i {
        // SAFETY: each load reads the eight 16-bit values of row `r`.
        let (c, q) = unsafe {
            (
                _mm_loadu_si128(coefs[r * 8..][..8].as_ptr().cast()),
                _mm_loadu_si128(quant[r * 8..][..8].as_ptr().cast()),
            )
        };
        let dq = _mm256_madd_epi16(_mm256_cvtepi16_epi32(c), _mm256_cvtepu16_epi32(q));
        let col = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        _mm256_and_si256(dq, _mm256_cmpgt_epi32(_mm256_set1_epi32(K as i32), col))
    }

    /// Pack the row pass's output — `o[c]` is pixel column `c`, one row per
    /// lane — to samples and store them row by row. `range_limit` (+128,
    /// clamp to 0..=255) is a saturating i32→i16 pack, a saturating +128 and
    /// a saturating i16→u8 pack; a byte shuffle then turns each 128-bit
    /// half's 4×4 column-major bytes row-major.
    #[target_feature(enable = "avx2")]
    fn store_columns(o: &[__m256i; 8], dst: &mut [u8], base: usize, stride: usize) {
        let off = _mm256_set1_epi16(128);
        let pack = |a: __m256i, b: __m256i| _mm256_adds_epi16(_mm256_packs_epi32(a, b), off);
        // Per half: columns 0..4 (b0) / 4..8 (b1), four rows each.
        let b0 = _mm256_packus_epi16(pack(o[0], o[1]), pack(o[2], o[3]));
        let b1 = _mm256_packus_epi16(pack(o[4], o[5]), pack(o[6], o[7]));
        let to_rows = _mm256_setr_epi8(
            0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15, //
            0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15,
        );
        let t0 = _mm256_shuffle_epi8(b0, to_rows);
        let t1 = _mm256_shuffle_epi8(b1, to_rows);
        // Rows (0, 1 | 4, 5) and (2, 3 | 6, 7), eight bytes each.
        let lo = _mm256_unpacklo_epi32(t0, t1);
        let hi = _mm256_unpackhi_epi32(t0, t1);
        let halves = |v: __m256i| [_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v)];
        let ([r0, r4], [r2, r6]) = (halves(lo), halves(hi));
        for (r, v) in [(0, r0), (2, r2), (4, r4), (6, r6)] {
            let (o, p) = (base + r * stride, base + (r + 1) * stride);
            // SAFETY: each store writes the eight bytes of one output row,
            // bounds-checked by the slice.
            unsafe {
                _mm_storel_epi64(dst[o..o + 8].as_mut_ptr().cast(), v);
                _mm_storeh_pd(dst[p..p + 8].as_mut_ptr().cast(), _mm_castsi128_pd(v));
            }
        }
    }

    /// Fused dequant + pruned 2-D islow IDCT + strided store on 8×i32
    /// lanes, AVX2. Only the top-left `K`×`K` of the block may be nonzero
    /// (`K = 8` dense). Returns `false`, having written nothing, when the
    /// block fails the guard of either pass — the caller then decodes it
    /// on the scalar i64 path.
    #[target_feature(enable = "avx2")]
    pub(super) fn dequant_idct_i32x8<const K: usize>(
        coefs: &[i16; 64],
        quant: &[u16; 64],
        dst: &mut [u8],
        base: usize,
        stride: usize,
    ) -> bool {
        // Column pass: live input rows are 0..K, columns >= K are zero and
        // stay zero (descale(0, n) == 0). When every column's ACs are zero
        // the butterfly reduces to `dc << PASS1_BITS` lane-wise (bit-exact
        // — module docs).
        let zero = _mm256_setzero_si256();
        let mut v = [zero; 8];
        for (r, row) in v.iter_mut().enumerate().take(K) {
            *row = dequant_row_avx2::<K>(coefs, quant, r);
        }
        if !within_i32x8::<K>(&v, PASS1_MAX) {
            return false;
        }
        let ac = (v[1..K].iter()).fold(zero, |a, r| _mm256_or_si256(a, *r));
        let w = if _mm256_testz_si256(ac, ac) != 0 {
            [_mm256_slli_epi32::<{ PASS1_BITS }>(v[0]); 8]
        } else {
            idct_1d_i32x8::<K, P1>(&v)
        };

        // Row pass = the same butterfly across the live columns, one
        // pixel row per lane; its outputs are pixel columns.
        let wt = live_columns::<K>(&w);
        if !within_i32x8::<K>(&wt, PASS2_MAX) {
            return false;
        }
        store_columns(&idct_1d_i32x8::<K, P2>(&wt), dst, base, stride);
        true
    }

    // ------------------------------- SSE2 -------------------------------

    /// Exact `lane_i64 * c` on two i64 lanes whose values fit i32:
    /// unsigned 32×32→64 product plus a sign correction of `c << 32` for
    /// negative lanes.
    #[target_feature(enable = "sse2")]
    fn mul_c_sse2(a: __m128i, c: i64) -> __m128i {
        let cv = _mm_set1_epi64x(c);
        let prod = _mm_mul_epu32(a, cv);
        // Per-qword sign mask of the (i32-ranged) value: replicate each
        // low dword and shift its sign across the lane.
        let sign = _mm_srai_epi32::<31>(_mm_shuffle_epi32::<0b10_10_00_00>(a));
        let corr = _mm_and_si128(sign, _mm_slli_epi64::<32>(cv));
        _mm_sub_epi64(prod, corr)
    }

    lane_type!(
        I64x2,
        __m128i,
        _mm_setzero_si128,
        _mm_add_epi64,
        _mm_sub_epi64,
        mul_c_sse2,
        _mm_sll_epi64
    );

    /// One 1-D pass on two i64 lanes, inputs `0..K` live, output descale
    /// `N`. The arithmetic 64-bit shift is emulated from a logical shift of
    /// the low halves and an arithmetic shift of the high halves (exact for
    /// `N < 32`).
    #[target_feature(enable = "sse2")]
    fn idct_1d_sse2<const K: usize, const N: i32>(v: &[__m128i; 8]) -> [__m128i; 8] {
        let round = _mm_set1_epi64x(1i64 << (N - 1));
        let low_mask = _mm_set1_epi64x(0xFFFF_FFFF);
        butterfly_k::<I64x2, K>(v.map(I64x2)).map(|x| {
            let r = _mm_add_epi64(x.0, round);
            let (lo, hi) = (_mm_srli_epi64::<N>(r), _mm_srai_epi32::<N>(r));
            _mm_or_si128(_mm_and_si128(lo, low_mask), _mm_andnot_si128(low_mask, hi))
        })
    }

    /// Column pass on one i64×2 quarter with the scalar path's flat-column
    /// shortcut lifted to the pair: when both columns' ACs are zero the
    /// butterfly reduces to `dc << PASS1_BITS` lane-wise (bit-exact — module
    /// docs).
    #[target_feature(enable = "sse2")]
    fn pass1_quarter_sse2<const K: usize>(v: &[__m128i; 8]) -> [__m128i; 8] {
        let zero = _mm_setzero_si128();
        let acc = (v[1..K].iter()).fold(zero, |a, r| _mm_or_si128(a, *r));
        if _mm_movemask_epi8(_mm_cmpeq_epi32(acc, zero)) == 0xFFFF {
            return [_mm_slli_epi64::<{ PASS1_BITS }>(v[0]); 8];
        }
        idct_1d_sse2::<K, P1>(v)
    }

    /// Low dwords of two i64×2 vectors into one i32×4 row quarter.
    #[target_feature(enable = "sse2")]
    fn narrow_pair_sse2(lo: __m128i, hi: __m128i) -> __m128i {
        let a = _mm_shuffle_epi32::<0b00_00_10_00>(lo);
        let b = _mm_shuffle_epi32::<0b00_00_10_00>(hi);
        _mm_unpacklo_epi64(a, b)
    }

    /// Sign-extend an i32×4 into (lanes 0..2, lanes 2..4) i64×2 halves.
    #[target_feature(enable = "sse2")]
    fn widen_quad_sse2(v: __m128i) -> (__m128i, __m128i) {
        let sign = _mm_srai_epi32::<31>(v);
        (_mm_unpacklo_epi32(v, sign), _mm_unpackhi_epi32(v, sign))
    }

    /// 4×4 i32 transpose.
    #[target_feature(enable = "sse2")]
    fn tr4_sse2(a: __m128i, b: __m128i, c: __m128i, d: __m128i) -> [__m128i; 4] {
        let t0 = _mm_unpacklo_epi32(a, b);
        let t1 = _mm_unpacklo_epi32(c, d);
        let t2 = _mm_unpackhi_epi32(a, b);
        let t3 = _mm_unpackhi_epi32(c, d);
        [
            _mm_unpacklo_epi64(t0, t1),
            _mm_unpackhi_epi64(t0, t1),
            _mm_unpacklo_epi64(t2, t3),
            _mm_unpackhi_epi64(t2, t3),
        ]
    }

    /// 8×8 i32 transpose over (left, right) half-rows.
    #[target_feature(enable = "sse2")]
    fn transpose8_sse2(l: &[__m128i; 8], r: &[__m128i; 8]) -> ([__m128i; 8], [__m128i; 8]) {
        let tl = tr4_sse2(l[0], l[1], l[2], l[3]);
        let bl = tr4_sse2(l[4], l[5], l[6], l[7]);
        let tr = tr4_sse2(r[0], r[1], r[2], r[3]);
        let br = tr4_sse2(r[4], r[5], r[6], r[7]);
        (
            [tl[0], tl[1], tl[2], tl[3], tr[0], tr[1], tr[2], tr[3]],
            [bl[0], bl[1], bl[2], bl[3], br[0], br[1], br[2], br[3]],
        )
    }

    /// Dequantize row `r` into (left, right) i32×4 half-rows, zeroing
    /// columns `>= K`.
    #[target_feature(enable = "sse2")]
    fn dequant_row_sse2<const K: usize>(
        coefs: &[i16; 64],
        quant: &[u16; 64],
        r: usize,
    ) -> (__m128i, __m128i) {
        let c16 = unsafe { _mm_loadu_si128(coefs[r * 8..].as_ptr() as *const __m128i) };
        let q16 = unsafe { _mm_loadu_si128(quant[r * 8..].as_ptr() as *const __m128i) };
        let plo = _mm_mullo_epi16(c16, q16);
        let phi = _mm_mulhi_epi16(c16, q16);
        let left = _mm_unpacklo_epi16(plo, phi);
        let right = _mm_unpackhi_epi16(plo, phi);
        match K {
            2 => (
                _mm_and_si128(left, _mm_setr_epi32(-1, -1, 0, 0)),
                _mm_setzero_si128(),
            ),
            4 => (left, _mm_setzero_si128()),
            _ => (left, right),
        }
    }

    /// Fused dequant + pruned 2-D islow IDCT + strided store, SSE2.
    #[target_feature(enable = "sse2")]
    pub(super) fn dequant_idct_sse2<const K: usize>(
        coefs: &[i16; 64],
        quant: &[u16; 64],
        dst: &mut [u8],
        base: usize,
        stride: usize,
    ) {
        let zero = _mm_setzero_si128();

        // Column pass over four i64×2 quarters (columns 0-1, 2-3, 4-5,
        // 6-7); the right-half quarters are all-zero for K <= 4.
        let mut q = [[zero; 8]; 4];
        #[allow(clippy::needless_range_loop)] // r indexes four arrays at once
        for r in 0..K {
            let (left, right) = dequant_row_sse2::<K>(coefs, quant, r);
            let (q0, q1) = widen_quad_sse2(left);
            q[0][r] = q0;
            q[1][r] = q1;
            if K > 4 {
                let (q2, q3) = widen_quad_sse2(right);
                q[2][r] = q2;
                q[3][r] = q3;
            }
        }
        let w0 = pass1_quarter_sse2::<K>(&q[0]);
        let w1 = pass1_quarter_sse2::<K>(&q[1]);
        let (w2, w3) = if K <= 4 {
            ([zero; 8], [zero; 8])
        } else {
            (
                pass1_quarter_sse2::<K>(&q[2]),
                pass1_quarter_sse2::<K>(&q[3]),
            )
        };
        let mut wl = [zero; 8];
        let mut wr = [zero; 8];
        for r in 0..8 {
            wl[r] = narrow_pair_sse2(w0[r], w1[r]);
            wr[r] = narrow_pair_sse2(w2[r], w3[r]);
        }

        // Row pass on the transpose.
        let (tl, tr) = transpose8_sse2(&wl, &wr);
        let mut t = [[zero; 8]; 4];
        for r in 0..K {
            let (q0, q1) = widen_quad_sse2(tl[r]);
            let (q2, q3) = widen_quad_sse2(tr[r]);
            t[0][r] = q0;
            t[1][r] = q1;
            t[2][r] = q2;
            t[3][r] = q3;
        }
        let o0 = idct_1d_sse2::<K, P2>(&t[0]);
        let o1 = idct_1d_sse2::<K, P2>(&t[1]);
        let o2 = idct_1d_sse2::<K, P2>(&t[2]);
        let o3 = idct_1d_sse2::<K, P2>(&t[3]);
        let mut ol = [zero; 8];
        let mut or = [zero; 8];
        for r in 0..8 {
            ol[r] = narrow_pair_sse2(o0[r], o1[r]);
            or[r] = narrow_pair_sse2(o2[r], o3[r]);
        }
        let (rl, rr) = transpose8_sse2(&ol, &or);

        // range_limit + pack + store.
        let off = _mm_set1_epi32(128);
        for r in 0..8 {
            let l = _mm_add_epi32(rl[r], off);
            let h = _mm_add_epi32(rr[r], off);
            let p16 = _mm_packs_epi32(l, h);
            let p8 = _mm_packus_epi16(p16, p16);
            let o = base + r * stride;
            unsafe { _mm_storel_epi64(dst[o..o + 8].as_mut_ptr() as *mut __m128i, p8) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dct::islow::butterfly_k;
    use crate::dct::sparse::idct_block_sparse;
    use crate::testutil::{coef_block_for_eob, quant_8bit};
    use std::cell::Cell;
    use std::ops::{Add, Mul, Neg, Shl, Sub};

    fn coef_block(seed: u64, eob: usize) -> [i16; 64] {
        coef_block_for_eob(seed, eob, 1024)
    }

    fn quant_of(seed: u64) -> [u16; 64] {
        quant_8bit(seed)
    }

    /// Every level is bit-identical to the scalar sparse dispatch across
    /// the full EOB range.
    #[test]
    fn all_levels_match_scalar_across_eob() {
        for eob in 0..64usize {
            for seed in 0..4u64 {
                let coefs = coef_block(seed * 64 + eob as u64, eob);
                let quant = quant_of(seed);
                let mut dq = [0i32; 64];
                for i in 0..64 {
                    dq[i] = coefs[i] as i32 * quant[i] as i32;
                }
                let want = idct_block_sparse(&dq, eob as u8);
                for level in SimdLevel::all_available() {
                    let got = dequant_idct_block_level(level, &coefs, &quant, eob as u8);
                    assert_eq!(got, want, "{} eob {eob} seed {seed}", level.name());
                }
            }
        }
    }

    /// Extreme coefficients at the edge of the decoder's domain (|c| up to
    /// 32767, q = 255) still match bit-for-bit — the i32-multiplicand
    /// range proof in the module docs, exercised.
    #[test]
    fn extreme_domain_matches_scalar() {
        let quant = [255u16; 64];
        for pattern in 0..6 {
            let mut coefs = [0i16; 64];
            for (i, slot) in coefs.iter_mut().enumerate() {
                *slot = match pattern {
                    0 => 32767,
                    1 => -32768,
                    2 => {
                        if i % 2 == 0 {
                            32767
                        } else {
                            -32768
                        }
                    }
                    3 => {
                        if i / 8 % 2 == 0 {
                            -32768
                        } else {
                            32767
                        }
                    }
                    4 => ((i as i32 * 9973 - 32000) % 32768) as i16,
                    _ => -((i as i32 * 7919) % 32768) as i16,
                };
            }
            let mut dq = [0i32; 64];
            for i in 0..64 {
                dq[i] = coefs[i] as i32 * quant[i] as i32;
            }
            let want = idct_block_sparse(&dq, 63);
            for level in SimdLevel::all_available() {
                let got = dequant_idct_block_level(level, &coefs, &quant, 63);
                assert_eq!(got, want, "{} pattern {pattern}", level.name());
            }
        }
    }

    /// The strided store writes exactly the 8×8 window.
    #[test]
    fn strided_store_stays_in_window() {
        let coefs = coef_block(99, 30);
        let quant = quant_of(7);
        let want = dequant_idct_block_level(SimdLevel::Scalar, &coefs, &quant, 30);
        for level in SimdLevel::all_available() {
            let stride = 29;
            let mut plane = vec![0xAAu8; stride * 16];
            let base = 2 * stride + 5;
            dequant_idct_to_level(level, &coefs, &quant, 30, &mut plane, base, stride);
            for r in 0..8 {
                assert_eq!(
                    &plane[base + r * stride..base + r * stride + 8],
                    &want[r * 8..r * 8 + 8],
                    "{} row {r}",
                    level.name()
                );
                assert_eq!(plane[base + r * stride + 8], 0xAA, "{} spill", level.name());
            }
            assert_eq!(plane[base - 1], 0xAA);
        }
    }

    /// The SSE2 2×2 and dense kernels are dispatch-bypassed on measured
    /// grounds (the scalar per-column pruning wins there) but must stay
    /// bit-exact — call them directly.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn bypassed_sse2_kernels_stay_bit_exact() {
        if !SimdLevel::Sse2.is_available() {
            return;
        }
        for seed in 0..8u64 {
            for (k, eob) in [(2usize, 2usize), (8, 10), (8, 30), (8, 63)] {
                let coefs = coef_block(seed * 7 + eob as u64, eob);
                let quant = quant_of(seed);
                let want = dequant_idct_block_level(SimdLevel::Scalar, &coefs, &quant, eob as u8);
                let mut got = [0u8; 64];
                unsafe {
                    match k {
                        2 => super::x86::dequant_idct_sse2::<2>(&coefs, &quant, &mut got, 0, 8),
                        _ => super::x86::dequant_idct_sse2::<8>(&coefs, &quant, &mut got, 0, 8),
                    }
                }
                assert_eq!(got, want, "K {k} seed {seed} eob {eob}");
            }
        }
    }

    /// A looser-than-necessary EOB bound is still exact at every level
    /// (upper-bound semantics, matching the scalar dispatch).
    #[test]
    fn looser_bound_is_exact_at_every_level() {
        let coefs = coef_block(3, 2);
        let quant = quant_of(3);
        let want = dequant_idct_block_level(SimdLevel::Scalar, &coefs, &quant, 63);
        for level in SimdLevel::all_available() {
            for eob in [2u8, 5, 9, 20, 63] {
                let got = dequant_idct_block_level(level, &coefs, &quant, eob);
                assert_eq!(got, want, "{} bound {eob}", level.name());
            }
        }
    }

    thread_local! {
        /// The largest bound any [`TermSum`] operation has produced.
        static LARGEST: Cell<i64> = const { Cell::new(0) };
    }

    /// A butterfly value replaced by the sum of the magnitudes of its
    /// terms; every operation records its result in [`LARGEST`].
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    struct TermSum(i64);

    impl TermSum {
        fn seen(v: i64) -> Self {
            LARGEST.with(|m| m.set(m.get().max(v)));
            TermSum(v)
        }
    }
    impl Add for TermSum {
        type Output = Self;
        fn add(self, o: Self) -> Self {
            Self::seen(self.0 + o.0)
        }
    }
    impl Sub for TermSum {
        type Output = Self;
        // The bound of a difference is the sum of the operands' bounds.
        #[allow(clippy::suspicious_arithmetic_impl)]
        fn sub(self, o: Self) -> Self {
            Self::seen(self.0 + o.0)
        }
    }
    impl Neg for TermSum {
        type Output = Self;
        fn neg(self) -> Self {
            self
        }
    }
    impl Mul<i64> for TermSum {
        type Output = Self;
        fn mul(self, c: i64) -> Self {
            Self::seen(self.0 * c.abs())
        }
    }
    impl Shl<i32> for TermSum {
        type Output = Self;
        fn shl(self, n: i32) -> Self {
            Self::seen(self.0 << n)
        }
    }

    /// Largest output bound and largest intermediate bound of the
    /// `K`-input butterfly on unit inputs.
    fn gain<const K: usize>() -> (i64, i64) {
        LARGEST.with(|m| m.set(0));
        let out = butterfly_k::<TermSum, K>([TermSum(1); 8]);
        (
            out.iter().map(|t| t.0).max().unwrap(),
            LARGEST.with(Cell::get),
        )
    }

    /// The guard constants follow from the butterfly itself: run on
    /// term-sum bounds it yields 178 219 for the dense pass, the outputs
    /// carry the largest bound of any intermediate, the pruned passes stay
    /// below it, and each limit is the largest input that keeps the sum plus
    /// its rounding constant inside i32.
    #[test]
    fn guard_constants_follow_from_the_butterfly() {
        let (out, any) = gain::<8>();
        assert_eq!(out, BUTTERFLY_GAIN);
        assert_eq!(any, BUTTERFLY_GAIN, "an intermediate exceeds every output");
        assert_eq!(
            butterfly_k::<TermSum, 8>([TermSum(1); 8])[1].0,
            BUTTERFLY_GAIN,
            "output 1 (tmp11 + t2) is the largest"
        );
        for (k, g) in [(1, gain::<1>()), (2, gain::<2>()), (4, gain::<4>())] {
            assert!(
                g.0 <= BUTTERFLY_GAIN && g.1 <= BUTTERFLY_GAIN,
                "K = {k}: {g:?}"
            );
        }
        assert_eq!((PASS1_MAX, PASS2_MAX), (12_049, 12_048));
        for (limit, descale) in [(PASS1_MAX, P1), (PASS2_MAX, P2)] {
            let round = 1i64 << (descale - 1);
            assert!(BUTTERFLY_GAIN * limit as i64 + round <= i32::MAX as i64);
            assert!(BUTTERFLY_GAIN * (limit as i64 + 1) + round > i32::MAX as i64);
        }
    }

    /// Quant 1 makes a block's coefficients its dequantized values.
    const UNIT_QUANT: [u16; 64] = [1; 64];

    /// The AVX2 kernel's verdict on a block (`None` without AVX2), after
    /// checking that whatever it wrote matches the scalar path.
    fn avx2_admits(coefs: &[i16; 64], quant: &[u16; 64], eob: u8) -> Option<bool> {
        #[cfg(target_arch = "x86_64")]
        if SimdLevel::Avx2.is_available() {
            let want = dequant_idct_block_level(SimdLevel::Scalar, coefs, quant, eob);
            let mut got = [0u8; 64];
            // SAFETY: AVX2 is available.
            let admitted = unsafe {
                match class_for_eob(eob) {
                    SparseClass::DcOnly => return None,
                    SparseClass::Corner2 => {
                        x86::dequant_idct_i32x8::<2>(coefs, quant, &mut got, 0, 8)
                    }
                    SparseClass::Corner4 => {
                        x86::dequant_idct_i32x8::<4>(coefs, quant, &mut got, 0, 8)
                    }
                    SparseClass::Dense => {
                        x86::dequant_idct_i32x8::<8>(coefs, quant, &mut got, 0, 8)
                    }
                }
            };
            if admitted {
                assert_eq!(got, want, "admitted block decodes exactly");
            } else {
                assert_eq!(got, [0u8; 64], "a rejected block writes nothing");
            }
            return Some(admitted);
        }
        None
    }

    /// Both sides of the column-pass bound: the in-register guard admits
    /// max|dq| = 12 049 and rejects 12 050, whichever row and sign holds
    /// it; blocks at either value decode bit-identically at every level.
    #[test]
    fn pass1_bound_both_sides() {
        #[cfg(target_arch = "x86_64")]
        if SimdLevel::Avx2.is_available() {
            use core::arch::x86_64::*;
            for (m, ok) in [(PASS1_MAX, true), (PASS1_MAX + 1, false)] {
                for row in 0..8 {
                    for sign in [1, -1] {
                        // SAFETY: AVX2 is available.
                        let admits = unsafe {
                            let mut v = [_mm256_set1_epi32(7); 8];
                            v[row] = _mm256_setr_epi32(0, 1, -2, sign * m, 3, 0, -5, 9);
                            x86::within_i32x8::<8>(&v, PASS1_MAX)
                        };
                        assert_eq!(admits, ok, "max {m} in row {row} sign {sign}");
                    }
                }
            }
        }
        for m in [PASS1_MAX, PASS1_MAX + 1] {
            for (eob, pattern) in [(2u8, 0u64), (9, 1), (63, 2), (63, 3)] {
                let mut coefs = coef_block_for_eob(pattern * 31 + 5, eob as usize, 3000);
                let at = crate::zigzag::ZIGZAG[eob as usize];
                coefs[at] = if pattern % 2 == 0 {
                    m as i16
                } else {
                    -(m as i16)
                };
                assert!(
                    !i32_lanes_exact(&coefs, &UNIT_QUANT, eob),
                    "pass-1 outputs exceed pass 2's bound"
                );
                assert!(!avx2_admits(&coefs, &UNIT_QUANT, eob).unwrap_or(false));
                let want = dequant_idct_block_level(SimdLevel::Scalar, &coefs, &UNIT_QUANT, eob);
                for level in SimdLevel::all_available() {
                    let got = dequant_idct_block_level(level, &coefs, &UNIT_QUANT, eob);
                    assert_eq!(got, want, "{} max {m} eob {eob}", level.name());
                }
            }
        }
        // Why pass 1 needs a guard of its own: dq = 2¹⁸ at rows 0 and 4 of
        // a column makes its even-part sum (2·2¹⁸) << 13 ≡ 0 mod 2³², so
        // unguarded i32 lanes would hand pass 2 an all-zero workspace that
        // passes its bound, and print a flat mid-grey block where half the
        // rows saturate.
        let (mut coefs, mut quant) = ([0i16; 64], [1u16; 64]);
        for at in [0, 32] {
            coefs[at] = 16;
            quant[at] = 16_384;
        }
        assert!(!avx2_admits(&coefs, &quant, 10).unwrap_or(false));
        let want = dequant_idct_block_level(SimdLevel::Scalar, &coefs, &quant, 10);
        assert_eq!(want.iter().filter(|&&p| p == 255).count(), 32);
        for level in SimdLevel::all_available() {
            assert_eq!(dequant_idct_block_level(level, &coefs, &quant, 10), want);
        }
    }

    /// Both sides of the row-pass bound: blocks whose largest column-pass
    /// output is exactly 12 048 are admitted, 12 049 rejected, and both
    /// decode bit-identically at every level. Each block carries one
    /// two-coefficient column (`dq` at rows 0 and 1), found by search.
    #[test]
    fn pass2_bound_both_sides() {
        let largest = |a: i64, b: i64| {
            let mut v = [0i64; 8];
            v[0] = a;
            v[1] = b;
            idct_pass1(v).iter().map(|o| o.abs()).max().unwrap()
        };
        for (target, ok) in [(PASS2_MAX as i64, true), (PASS2_MAX as i64 + 1, false)] {
            let (a, b) = (2800..3013i64)
                .flat_map(|a| (1..80i64).map(move |b| (a, b)))
                .find(|&(a, b)| largest(a, b) == target)
                .expect("a column hitting the target exists");
            // Column 0 (a 2×2-class block) and column 5 (dense).
            for (col, eob) in [(0usize, 2u8), (5, 63)] {
                let mut coefs = [0i16; 64];
                coefs[col] = a as i16;
                coefs[8 + col] = -b as i16;
                coefs[if col == 0 { 1 } else { 17 }] = 1; // a small neighbour column
                let (v0, v1) = (coefs[col] as i64, coefs[8 + col] as i64);
                assert_eq!(largest(v0, v1), target, "column {col}");
                assert_eq!(
                    i32_lanes_exact(&coefs, &UNIT_QUANT, eob),
                    ok,
                    "{target} col {col}"
                );
                if let Some(admitted) = avx2_admits(&coefs, &UNIT_QUANT, eob) {
                    assert_eq!(admitted, ok, "kernel verdict at {target}, column {col}");
                }
                let want = dequant_idct_block_level(SimdLevel::Scalar, &coefs, &UNIT_QUANT, eob);
                for level in SimdLevel::all_available() {
                    let got = dequant_idct_block_level(level, &coefs, &UNIT_QUANT, eob);
                    assert_eq!(got, want, "{} target {target} column {col}", level.name());
                }
            }
        }
    }

    /// The in-register guard and [`i32_lanes_exact`] agree on random
    /// blocks spanning both bounds — small and large coefficients, 8-bit
    /// and 15-bit quantization values, every class — and every block
    /// decodes bit-identically at every level either way.
    #[test]
    fn kernel_admits_exactly_what_the_guard_states() {
        let (mut admitted, mut rejected) = (0, 0);
        for seed in 0..840u64 {
            let eob = [1u8, 2, 5, 9, 20, 63][seed as usize % 6];
            let magnitude = [2, 10, 40, 700, 3000, 12_050, 32_767][seed as usize / 6 % 7];
            let coefs = coef_block_for_eob(seed, eob as usize, magnitude);
            let quant = match seed / 42 % 3 {
                0 => UNIT_QUANT,
                1 => quant_8bit(seed),
                _ => quant_8bit(seed).map(|q| q * 128),
            };
            let exact = i32_lanes_exact(&coefs, &quant, eob);
            if let Some(verdict) = avx2_admits(&coefs, &quant, eob) {
                assert_eq!(verdict, exact, "seed {seed}");
            }
            let want = dequant_idct_block_level(SimdLevel::Scalar, &coefs, &quant, eob);
            for level in SimdLevel::all_available() {
                if level == SimdLevel::Sse2 && quant.iter().any(|&q| q > 255) {
                    continue; // SSE2's domain is the 8-bit DQT (module docs)
                }
                let got = dequant_idct_block_level(level, &coefs, &quant, eob);
                assert_eq!(got, want, "{} seed {seed}", level.name());
            }
            if exact {
                admitted += 1;
            } else {
                rejected += 1;
            }
        }
        assert!(admitted > 100 && rejected > 100, "{admitted} / {rejected}");
    }
}
