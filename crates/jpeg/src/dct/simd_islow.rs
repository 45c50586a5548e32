//! Runtime-dispatched SSE2/AVX2 islow IDCT kernels with EOB dispatch.
//!
//! PR 3 vectorized the upsample and color stages; the islow IDCT stayed
//! scalar and became the largest CPU band in the cost model. This module
//! closes that gap: the same EOB-dispatched sparse classes as
//! [`crate::dct::sparse`] (DC-only flat fill, pruned 2×2 / 4×4 corner
//! butterflies, dense 8×8), but with the two 1-D passes running **eight
//! columns per butterfly** on x86 vector units, behind the session's
//! [`SimdLevel`] choice.
//!
//! # Bit-identity
//!
//! Every level produces bytes **identical** to the scalar
//! [`crate::dct::sparse::dequant_idct_to`] (and therefore to the dense
//! [`crate::dct::islow::idct_block`]). The scalar transform computes in
//! i64; the vector paths keep i64 lanes for every sum and run the constant
//! multiplies as exact 32×32→64 widening products, which is equivalent as
//! long as every multiplicand fits in i32. That is guaranteed by the
//! decoder's input domain:
//!
//! * coefficients come out of entropy decode as `i16` (|c| ≤ 32768 — the
//!   DC predictor truncates to i16, AC magnitudes are ≤ 15 bits),
//! * quantization values are 8-bit (`markers.rs` rejects 16-bit DQT), so
//!   |dq| = |c|·q ≤ 32768·255 < 2²³.
//!
//! From there the pass-1 multiplicands are sums of at most four inputs
//! (< 2²⁵), pass-1 outputs are < 2²⁹ after the `>> 11` descale, and the
//! pass-2 multiplicands are sums of two of those (< 2³⁰) — all inside i32.
//! The per-class pruning drops only exact zeros (same argument as
//! `idct_1d_k`), and the scalar flat-column shortcut of `idct_pass1_k` is
//! arithmetically identical to the full butterfly on a DC-only column
//! (`descale(dc << 13, 11) = dc << 2` exactly), so the vector code can skip
//! the data-dependent branch without changing a bit. The proptest matrix in
//! `tests/idct_simd_props.rs` pins all of this per class × level.
//!
//! Callers that construct [`crate::quant::QuantTable`]s programmatically
//! must stay inside the parser-enforced 8-bit domain (values ≤ 255) for the
//! identity to hold; larger divisors can push pass-1 multiplicands past
//! i32.
//!
//! # Shape
//!
//! One block goes: fused dequant (i16×u16 → i32 via `mullo`/`mulhi`
//! interleave) → column pass on i64 lanes → narrow to an 8×8 i32 tile →
//! transpose → row pass (same butterfly) → transpose back → `+128`,
//! saturating pack (exactly [`crate::dct::range_limit`]) → eight 8-byte
//! stores through the caller's stride. For the 2×2 / 4×4 classes the
//! upper column half is provably zero and the pass-2 butterflies read only
//! the live rows, so the pruning wins on the vector paths too. DC-only
//! blocks keep the scalar flat fill at every level — there is nothing to
//! vectorize in a `fill`.

use super::sparse::{class_for_eob, dequant_idct_to, SparseClass};
use crate::decoder::kernels::SimdLevel;

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
            // and unit-tested — AVX2's 4-lane versions of the same code
            // win across the board.
            SparseClass::Corner2 => dequant_idct_to(coefs, quant, eob, dst, base, stride),
            SparseClass::Corner4 => unsafe {
                x86::dequant_idct_sse2::<4>(coefs, quant, dst, base, stride)
            },
            SparseClass::Dense => dequant_idct_to(coefs, quant, eob, dst, base, stride),
        },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => match class {
            SparseClass::DcOnly => unreachable!("handled above"),
            SparseClass::Corner2 => unsafe {
                x86::dequant_idct_avx2::<2>(coefs, quant, dst, base, stride)
            },
            SparseClass::Corner4 => unsafe {
                x86::dequant_idct_avx2::<4>(coefs, quant, dst, base, stride)
            },
            SparseClass::Dense => unsafe {
                x86::dequant_idct_avx2::<8>(coefs, quant, dst, base, stride)
            },
        },
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
    //! holds one input row across columns, so the lane-wise butterfly
    //! computes all column transforms at once; the row pass is the same
    //! butterfly after an in-register 8×8 i32 transpose. All sums ride in
    //! i64 lanes and the constant multiplies are exact 32×32→64 widening
    //! products (see the module docs for the range proof), so every lane
    //! computes precisely the scalar `idct_1d_k` arithmetic.

    use crate::dct::islow::{
        CONST_BITS, FIX_0_298631336, FIX_0_390180644, FIX_0_541196100, FIX_0_765366865,
        FIX_0_899976223, FIX_1_175875602, FIX_1_501321110, FIX_1_847759065, FIX_1_961570560,
        FIX_2_053119869, FIX_2_562915447, FIX_3_072711026,
    };
    use crate::dct::PASS1_BITS;
    use core::arch::x86_64::*;

    /// Pass-1 descale (`CONST_BITS - PASS1_BITS`).
    const P1: i32 = CONST_BITS - PASS1_BITS;
    /// Pass-2 descale (`CONST_BITS + PASS1_BITS + 3`).
    const P2: i32 = CONST_BITS + PASS1_BITS + 3;

    // ------------------------------- AVX2 -------------------------------

    /// Exact `lane_i64 * c` for lanes whose value fits i32 (the low dwords
    /// are the sign-complete value, which is all `mul_epi32` reads).
    #[target_feature(enable = "avx2")]
    fn mul_c_avx2(a: __m256i, c: i64) -> __m256i {
        _mm256_mul_epi32(a, _mm256_set1_epi64x(c))
    }

    /// `descale(v, N)` on i64 lanes: round, then an arithmetic 64-bit
    /// shift emulated as logical-shift low halves blended with
    /// arithmetically shifted high halves (exact for `N < 32`).
    #[target_feature(enable = "avx2")]
    fn descale_avx2<const N: i32>(v: __m256i) -> __m256i {
        let r = _mm256_add_epi64(v, _mm256_set1_epi64x(1i64 << (N - 1)));
        let lo = _mm256_srli_epi64::<N>(r);
        let hi = _mm256_srai_epi32::<N>(r);
        _mm256_blend_epi32::<0b1010_1010>(lo, hi)
    }

    /// The 1-D islow butterfly on four i64 lanes (four independent
    /// columns), inputs `0..K` live, output descale `N` — the vector twin
    /// of `idct_1d_k::<K>`.
    #[target_feature(enable = "avx2")]
    fn idct_1d_avx2<const K: usize, const N: i32>(v: &[__m256i; 8]) -> [__m256i; 8] {
        let zero = _mm256_setzero_si256();
        let at = |i: usize| if i < K { v[i] } else { zero };
        // Even part.
        let z2 = at(2);
        let z3 = at(6);
        let z1 = mul_c_avx2(_mm256_add_epi64(z2, z3), FIX_0_541196100);
        let tmp2 = _mm256_sub_epi64(z1, mul_c_avx2(z3, FIX_1_847759065));
        let tmp3 = _mm256_add_epi64(z1, mul_c_avx2(z2, FIX_0_765366865));
        let z2 = at(0);
        let z3 = at(4);
        let tmp0 = _mm256_slli_epi64::<{ CONST_BITS }>(_mm256_add_epi64(z2, z3));
        let tmp1 = _mm256_slli_epi64::<{ CONST_BITS }>(_mm256_sub_epi64(z2, z3));
        let tmp10 = _mm256_add_epi64(tmp0, tmp3);
        let tmp13 = _mm256_sub_epi64(tmp0, tmp3);
        let tmp11 = _mm256_add_epi64(tmp1, tmp2);
        let tmp12 = _mm256_sub_epi64(tmp1, tmp2);

        // Odd part.
        let t0 = at(7);
        let t1 = at(5);
        let t2 = at(3);
        let t3 = at(1);
        let z1 = _mm256_add_epi64(t0, t3);
        let z2 = _mm256_add_epi64(t1, t2);
        let z3 = _mm256_add_epi64(t0, t2);
        let z4 = _mm256_add_epi64(t1, t3);
        let z5 = mul_c_avx2(_mm256_add_epi64(z3, z4), FIX_1_175875602);
        let t0 = mul_c_avx2(t0, FIX_0_298631336);
        let t1 = mul_c_avx2(t1, FIX_2_053119869);
        let t2 = mul_c_avx2(t2, FIX_3_072711026);
        let t3 = mul_c_avx2(t3, FIX_1_501321110);
        let z1 = _mm256_sub_epi64(zero, mul_c_avx2(z1, FIX_0_899976223));
        let z2 = _mm256_sub_epi64(zero, mul_c_avx2(z2, FIX_2_562915447));
        let z3 = _mm256_sub_epi64(z5, mul_c_avx2(z3, FIX_1_961570560));
        let z4 = _mm256_sub_epi64(z5, mul_c_avx2(z4, FIX_0_390180644));
        let t0 = _mm256_add_epi64(_mm256_add_epi64(t0, z1), z3);
        let t1 = _mm256_add_epi64(_mm256_add_epi64(t1, z2), z4);
        let t2 = _mm256_add_epi64(_mm256_add_epi64(t2, z2), z3);
        let t3 = _mm256_add_epi64(_mm256_add_epi64(t3, z1), z4);

        [
            descale_avx2::<N>(_mm256_add_epi64(tmp10, t3)),
            descale_avx2::<N>(_mm256_add_epi64(tmp11, t2)),
            descale_avx2::<N>(_mm256_add_epi64(tmp12, t1)),
            descale_avx2::<N>(_mm256_add_epi64(tmp13, t0)),
            descale_avx2::<N>(_mm256_sub_epi64(tmp13, t0)),
            descale_avx2::<N>(_mm256_sub_epi64(tmp12, t1)),
            descale_avx2::<N>(_mm256_sub_epi64(tmp11, t2)),
            descale_avx2::<N>(_mm256_sub_epi64(tmp10, t3)),
        ]
    }

    /// Column pass on one i64×4 half with the scalar path's flat-column
    /// shortcut lifted to the half: when all four columns' ACs are zero
    /// the butterfly reduces to `dc << PASS1_BITS` lane-wise (bit-exact —
    /// module docs), which real "dense"-class photographic blocks hit
    /// constantly on their high-frequency columns. This is what keeps the
    /// vector path ahead of the (column-adaptive) scalar code on mixed
    /// blocks, not just on fully populated ones.
    #[target_feature(enable = "avx2")]
    fn pass1_half_avx2<const K: usize>(v: &[__m256i; 8]) -> [__m256i; 8] {
        let mut acc = _mm256_setzero_si256();
        for r in v.iter().take(K).skip(1) {
            acc = _mm256_or_si256(acc, *r);
        }
        if _mm256_testz_si256(acc, acc) != 0 {
            return [_mm256_slli_epi64::<{ PASS1_BITS }>(v[0]); 8];
        }
        idct_1d_avx2::<K, P1>(v)
    }

    /// Take the (sign-complete) low dwords of two i64×4 vectors into one
    /// i32×8 row.
    #[target_feature(enable = "avx2")]
    fn narrow_pair_avx2(lo: __m256i, hi: __m256i) -> __m256i {
        let idx = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
        let a = _mm256_permutevar8x32_epi32(lo, idx);
        let b = _mm256_permutevar8x32_epi32(hi, idx);
        _mm256_inserti128_si256::<1>(a, _mm256_castsi256_si128(b))
    }

    /// Sign-extend an i32×8 row into (low-columns, high-columns) i64×4
    /// halves.
    #[target_feature(enable = "avx2")]
    fn widen_row_avx2(v: __m256i) -> (__m256i, __m256i) {
        (
            _mm256_cvtepi32_epi64(_mm256_castsi256_si128(v)),
            _mm256_cvtepi32_epi64(_mm256_extracti128_si256::<1>(v)),
        )
    }

    /// In-register 8×8 i32 transpose.
    #[target_feature(enable = "avx2")]
    fn transpose8_avx2(r: &[__m256i; 8]) -> [__m256i; 8] {
        let t0 = _mm256_unpacklo_epi32(r[0], r[1]);
        let t1 = _mm256_unpackhi_epi32(r[0], r[1]);
        let t2 = _mm256_unpacklo_epi32(r[2], r[3]);
        let t3 = _mm256_unpackhi_epi32(r[2], r[3]);
        let t4 = _mm256_unpacklo_epi32(r[4], r[5]);
        let t5 = _mm256_unpackhi_epi32(r[4], r[5]);
        let t6 = _mm256_unpacklo_epi32(r[6], r[7]);
        let t7 = _mm256_unpackhi_epi32(r[6], r[7]);
        let u0 = _mm256_unpacklo_epi64(t0, t2);
        let u1 = _mm256_unpackhi_epi64(t0, t2);
        let u2 = _mm256_unpacklo_epi64(t1, t3);
        let u3 = _mm256_unpackhi_epi64(t1, t3);
        let u4 = _mm256_unpacklo_epi64(t4, t6);
        let u5 = _mm256_unpackhi_epi64(t4, t6);
        let u6 = _mm256_unpacklo_epi64(t5, t7);
        let u7 = _mm256_unpackhi_epi64(t5, t7);
        [
            _mm256_permute2x128_si256::<0x20>(u0, u4),
            _mm256_permute2x128_si256::<0x20>(u1, u5),
            _mm256_permute2x128_si256::<0x20>(u2, u6),
            _mm256_permute2x128_si256::<0x20>(u3, u7),
            _mm256_permute2x128_si256::<0x31>(u0, u4),
            _mm256_permute2x128_si256::<0x31>(u1, u5),
            _mm256_permute2x128_si256::<0x31>(u2, u6),
            _mm256_permute2x128_si256::<0x31>(u3, u7),
        ]
    }

    /// Dequantize row `r` of the block into an i32×8 row, zeroing columns
    /// `>= K` exactly as the scalar `dequant_corner` does.
    #[target_feature(enable = "avx2")]
    fn dequant_row_avx2<const K: usize>(coefs: &[i16; 64], quant: &[u16; 64], r: usize) -> __m256i {
        let c16 = unsafe { _mm_loadu_si128(coefs[r * 8..].as_ptr() as *const __m128i) };
        let q16 = unsafe { _mm_loadu_si128(quant[r * 8..].as_ptr() as *const __m128i) };
        // Exact signed i16 × (positive ≤ 255) product via mullo/mulhi
        // interleave.
        let plo = _mm_mullo_epi16(c16, q16);
        let phi = _mm_mulhi_epi16(c16, q16);
        let p0 = _mm_unpacklo_epi16(plo, phi);
        let p1 = _mm_unpackhi_epi16(plo, phi);
        let dq = _mm256_inserti128_si256::<1>(_mm256_castsi128_si256(p0), p1);
        match K {
            2 => _mm256_and_si256(dq, _mm256_setr_epi32(-1, -1, 0, 0, 0, 0, 0, 0)),
            4 => _mm256_and_si256(dq, _mm256_setr_epi32(-1, -1, -1, -1, 0, 0, 0, 0)),
            _ => dq,
        }
    }

    /// Fused dequant + pruned 2-D islow IDCT + strided store, AVX2. Only
    /// the top-left `K`×`K` of the block may be nonzero (`K = 8` dense).
    #[target_feature(enable = "avx2")]
    pub(super) fn dequant_idct_avx2<const K: usize>(
        coefs: &[i16; 64],
        quant: &[u16; 64],
        dst: &mut [u8],
        base: usize,
        stride: usize,
    ) {
        let zero = _mm256_setzero_si256();

        // Column pass: live input rows are 0..K; columns >= K are zero, so
        // for K <= 4 the whole high half of the butterfly is zeros in,
        // zeros out (descale(0, n) == 0) and is skipped.
        let mut vlo = [zero; 8];
        let mut vhi = [zero; 8];
        for r in 0..K {
            let dq = dequant_row_avx2::<K>(coefs, quant, r);
            let (l, h) = widen_row_avx2(dq);
            vlo[r] = l;
            vhi[r] = h;
        }
        let wlo = pass1_half_avx2::<K>(&vlo);
        let whi = if K <= 4 {
            [zero; 8]
        } else {
            pass1_half_avx2::<K>(&vhi)
        };
        let mut w = [zero; 8];
        for r in 0..8 {
            w[r] = narrow_pair_avx2(wlo[r], whi[r]);
        }

        // Row pass = the same column-parallel butterfly on the transpose;
        // it reads only rows 0..K of the transpose (columns >= K of the
        // workspace are zero by construction).
        let wt = transpose8_avx2(&w);
        let mut tlo = [zero; 8];
        let mut thi = [zero; 8];
        for r in 0..K {
            let (l, h) = widen_row_avx2(wt[r]);
            tlo[r] = l;
            thi[r] = h;
        }
        let olo = idct_1d_avx2::<K, P2>(&tlo);
        let ohi = idct_1d_avx2::<K, P2>(&thi);
        let mut ot = [zero; 8];
        for r in 0..8 {
            ot[r] = narrow_pair_avx2(olo[r], ohi[r]);
        }
        let rows = transpose8_avx2(&ot);

        // range_limit = +128 then clamp(0, 255): saturating i32→i16→u8
        // packs realize the clamp exactly.
        let off = _mm256_set1_epi32(128);
        for (r, row) in rows.iter().enumerate() {
            let v = _mm256_add_epi32(*row, off);
            let p16 = _mm256_packs_epi32(v, v);
            let p16 = _mm256_permute4x64_epi64::<0b00_00_10_00>(p16);
            let p8 = _mm_packus_epi16(_mm256_castsi256_si128(p16), _mm256_castsi256_si128(p16));
            let o = base + r * stride;
            unsafe { _mm_storel_epi64(dst[o..o + 8].as_mut_ptr() as *mut __m128i, p8) };
        }
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

    /// `descale(v, N)` on two i64 lanes (see `descale_avx2`).
    #[target_feature(enable = "sse2")]
    fn descale_sse2<const N: i32>(v: __m128i) -> __m128i {
        let r = _mm_add_epi64(v, _mm_set1_epi64x(1i64 << (N - 1)));
        let lo = _mm_srli_epi64::<N>(r);
        let hi = _mm_srai_epi32::<N>(r);
        let low_mask = _mm_set1_epi64x(0xFFFF_FFFF);
        _mm_or_si128(_mm_and_si128(lo, low_mask), _mm_andnot_si128(low_mask, hi))
    }

    /// The 1-D islow butterfly on two i64 lanes — same structure as
    /// `idct_1d_avx2`.
    #[target_feature(enable = "sse2")]
    fn idct_1d_sse2<const K: usize, const N: i32>(v: &[__m128i; 8]) -> [__m128i; 8] {
        let zero = _mm_setzero_si128();
        let at = |i: usize| if i < K { v[i] } else { zero };
        // Even part.
        let z2 = at(2);
        let z3 = at(6);
        let z1 = mul_c_sse2(_mm_add_epi64(z2, z3), FIX_0_541196100);
        let tmp2 = _mm_sub_epi64(z1, mul_c_sse2(z3, FIX_1_847759065));
        let tmp3 = _mm_add_epi64(z1, mul_c_sse2(z2, FIX_0_765366865));
        let z2 = at(0);
        let z3 = at(4);
        let tmp0 = _mm_slli_epi64::<{ CONST_BITS }>(_mm_add_epi64(z2, z3));
        let tmp1 = _mm_slli_epi64::<{ CONST_BITS }>(_mm_sub_epi64(z2, z3));
        let tmp10 = _mm_add_epi64(tmp0, tmp3);
        let tmp13 = _mm_sub_epi64(tmp0, tmp3);
        let tmp11 = _mm_add_epi64(tmp1, tmp2);
        let tmp12 = _mm_sub_epi64(tmp1, tmp2);

        // Odd part.
        let t0 = at(7);
        let t1 = at(5);
        let t2 = at(3);
        let t3 = at(1);
        let z1 = _mm_add_epi64(t0, t3);
        let z2 = _mm_add_epi64(t1, t2);
        let z3 = _mm_add_epi64(t0, t2);
        let z4 = _mm_add_epi64(t1, t3);
        let z5 = mul_c_sse2(_mm_add_epi64(z3, z4), FIX_1_175875602);
        let t0 = mul_c_sse2(t0, FIX_0_298631336);
        let t1 = mul_c_sse2(t1, FIX_2_053119869);
        let t2 = mul_c_sse2(t2, FIX_3_072711026);
        let t3 = mul_c_sse2(t3, FIX_1_501321110);
        let z1 = _mm_sub_epi64(zero, mul_c_sse2(z1, FIX_0_899976223));
        let z2 = _mm_sub_epi64(zero, mul_c_sse2(z2, FIX_2_562915447));
        let z3 = _mm_sub_epi64(z5, mul_c_sse2(z3, FIX_1_961570560));
        let z4 = _mm_sub_epi64(z5, mul_c_sse2(z4, FIX_0_390180644));
        let t0 = _mm_add_epi64(_mm_add_epi64(t0, z1), z3);
        let t1 = _mm_add_epi64(_mm_add_epi64(t1, z2), z4);
        let t2 = _mm_add_epi64(_mm_add_epi64(t2, z2), z3);
        let t3 = _mm_add_epi64(_mm_add_epi64(t3, z1), z4);

        [
            descale_sse2::<N>(_mm_add_epi64(tmp10, t3)),
            descale_sse2::<N>(_mm_add_epi64(tmp11, t2)),
            descale_sse2::<N>(_mm_add_epi64(tmp12, t1)),
            descale_sse2::<N>(_mm_add_epi64(tmp13, t0)),
            descale_sse2::<N>(_mm_sub_epi64(tmp13, t0)),
            descale_sse2::<N>(_mm_sub_epi64(tmp12, t1)),
            descale_sse2::<N>(_mm_sub_epi64(tmp11, t2)),
            descale_sse2::<N>(_mm_sub_epi64(tmp10, t3)),
        ]
    }

    /// Column pass on one i64×2 quarter with the flat-column shortcut
    /// lifted to the pair (see `pass1_half_avx2`).
    #[target_feature(enable = "sse2")]
    fn pass1_quarter_sse2<const K: usize>(v: &[__m128i; 8]) -> [__m128i; 8] {
        let zero = _mm_setzero_si128();
        let mut acc = zero;
        for r in v.iter().take(K).skip(1) {
            acc = _mm_or_si128(acc, *r);
        }
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
    use crate::dct::sparse::idct_block_sparse;
    use crate::testutil::{coef_block_for_eob, quant_8bit};

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
}
