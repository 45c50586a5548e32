//! Accurate 13-bit fixed-point DCT pair (libjpeg's "islow" algorithm,
//! after Loeffler–Ligtenberg–Moshovitz).
//!
//! Both decode paths — the CPU render loop and the simulated GPU IDCT
//! kernel — run this integer transform so that every decoding mode of the
//! scheduler produces **bit-identical** pixels regardless of where the
//! partition boundary falls. That property is load-bearing for the
//! cross-mode equivalence tests in `tests/modes_agree.rs`.

use super::{range_limit, PASS1_BITS};

pub(crate) const CONST_BITS: i32 = 13;

pub(crate) const FIX_0_298631336: i64 = 2446;
pub(crate) const FIX_0_390180644: i64 = 3196;
pub(crate) const FIX_0_541196100: i64 = 4433;
pub(crate) const FIX_0_765366865: i64 = 6270;
pub(crate) const FIX_0_899976223: i64 = 7373;
pub(crate) const FIX_1_175875602: i64 = 9633;
pub(crate) const FIX_1_501321110: i64 = 12299;
pub(crate) const FIX_1_847759065: i64 = 15137;
pub(crate) const FIX_1_961570560: i64 = 16069;
pub(crate) const FIX_2_053119869: i64 = 16819;
pub(crate) const FIX_2_562915447: i64 = 20995;
pub(crate) const FIX_3_072711026: i64 = 25172;

/// Round-to-nearest right shift.
#[inline(always)]
fn descale(x: i64, n: i32) -> i64 {
    (x + (1i64 << (n - 1))) >> n
}

/// One 1-D islow IDCT butterfly over eight values, of which only the first
/// `K` may be nonzero (`K = 8` is the dense case).
///
/// With `K < 8` the compiler constant-folds the zero inputs away, which is
/// what makes the EOB-dispatched sparse paths in [`crate::dct::sparse`]
/// cheap — and because dropped terms are exact zeros, the descaled results
/// are **bit-identical** to the dense butterfly. The caller chooses the
/// output descale; the even-part DC path is `<< CONST_BITS` before
/// combination.
#[inline(always)]
fn idct_1d_k<const K: usize>(v: [i64; 8], out_descale: i32) -> [i64; 8] {
    let at = |i: usize| if i < K { v[i] } else { 0 };
    // Even part.
    let z2 = at(2);
    let z3 = at(6);
    let z1 = (z2 + z3) * FIX_0_541196100;
    let tmp2 = z1 - z3 * FIX_1_847759065;
    let tmp3 = z1 + z2 * FIX_0_765366865;
    let z2 = at(0);
    let z3 = at(4);
    let tmp0 = (z2 + z3) << CONST_BITS;
    let tmp1 = (z2 - z3) << CONST_BITS;
    let tmp10 = tmp0 + tmp3;
    let tmp13 = tmp0 - tmp3;
    let tmp11 = tmp1 + tmp2;
    let tmp12 = tmp1 - tmp2;

    // Odd part.
    let t0 = at(7);
    let t1 = at(5);
    let t2 = at(3);
    let t3 = at(1);
    let z1 = t0 + t3;
    let z2 = t1 + t2;
    let z3 = t0 + t2;
    let z4 = t1 + t3;
    let z5 = (z3 + z4) * FIX_1_175875602;
    let t0 = t0 * FIX_0_298631336;
    let t1 = t1 * FIX_2_053119869;
    let t2 = t2 * FIX_3_072711026;
    let t3 = t3 * FIX_1_501321110;
    let z1 = -z1 * FIX_0_899976223;
    let z2 = -z2 * FIX_2_562915447;
    let z3 = -z3 * FIX_1_961570560 + z5;
    let z4 = -z4 * FIX_0_390180644 + z5;
    let t0 = t0 + z1 + z3;
    let t1 = t1 + z2 + z4;
    let t2 = t2 + z2 + z3;
    let t3 = t3 + z1 + z4;

    [
        descale(tmp10 + t3, out_descale),
        descale(tmp11 + t2, out_descale),
        descale(tmp12 + t1, out_descale),
        descale(tmp13 + t0, out_descale),
        descale(tmp13 - t0, out_descale),
        descale(tmp12 - t1, out_descale),
        descale(tmp11 - t2, out_descale),
        descale(tmp10 - t3, out_descale),
    ]
}

/// Column pass with only the first `K` inputs possibly nonzero; bit-exact
/// with [`idct_pass1`] on such inputs (same flat-column shortcut, same
/// arithmetic minus the terms that are provably zero).
#[inline(always)]
pub(crate) fn idct_pass1_k<const K: usize>(v: [i64; 8]) -> [i64; 8] {
    let mut all_ac_zero = true;
    let mut i = 1;
    while i < K {
        all_ac_zero &= v[i] == 0;
        i += 1;
    }
    if all_ac_zero {
        let dc = v[0] << PASS1_BITS;
        return [dc; 8];
    }
    idct_1d_k::<K>(v, CONST_BITS - PASS1_BITS)
}

/// Row pass with only the first `K` inputs possibly nonzero; bit-exact with
/// [`idct_row`] on such inputs.
#[inline(always)]
pub(crate) fn idct_row_k<const K: usize>(row: &[i64; 8]) -> [u8; 8] {
    let vals = idct_1d_k::<K>(*row, CONST_BITS + PASS1_BITS + 3);
    let mut out = [0u8; 8];
    for (o, &v) in out.iter_mut().zip(vals.iter()) {
        *o = range_limit(v as i32);
    }
    out
}

/// Column pass of the islow IDCT (paper Eq. (1)) on one column of eight
/// dequantized values; the result keeps `PASS1_BITS` fractional bits.
///
/// Exposed because the GPU kernel of §4.1 assigns one work-item per column
/// and stores this intermediate in local memory before the row pass.
#[inline]
pub fn idct_pass1(v: [i64; 8]) -> [i64; 8] {
    idct_pass1_k::<8>(v)
}

/// Column pass over column `col` of a full dequantized block.
#[inline]
pub fn idct_column(coefs: &[i32; 64], col: usize) -> [i64; 8] {
    let mut v = [0i64; 8];
    for (r, slot) in v.iter_mut().enumerate() {
        *slot = coefs[r * 8 + col] as i64;
    }
    idct_pass1(v)
}

/// Row pass of the islow IDCT (paper Eq. (2)) over one intermediate row,
/// producing level-shifted, range-limited samples.
#[inline]
pub fn idct_row(row: &[i64; 8]) -> [u8; 8] {
    idct_row_k::<8>(row)
}

/// Full 2-D islow IDCT of one dequantized block: column pass then row pass.
pub fn idct_block(coefs: &[i32; 64]) -> [u8; 64] {
    // Column pass into a workspace laid out row-major.
    let mut ws = [0i64; 64];
    for col in 0..8 {
        let c = idct_column(coefs, col);
        for (r, &v) in c.iter().enumerate() {
            ws[r * 8 + col] = v;
        }
    }
    // Row pass.
    let mut out = [0u8; 64];
    for r in 0..8 {
        let mut row = [0i64; 8];
        row.copy_from_slice(&ws[r * 8..r * 8 + 8]);
        let px = idct_row(&row);
        out[r * 8..r * 8 + 8].copy_from_slice(&px);
    }
    out
}

/// One 1-D islow FDCT butterfly (jfdctint structure).
#[inline(always)]
fn fdct_1d(v: [i64; 8], pass2: bool) -> [i64; 8] {
    let tmp0 = v[0] + v[7];
    let tmp7 = v[0] - v[7];
    let tmp1 = v[1] + v[6];
    let tmp6 = v[1] - v[6];
    let tmp2 = v[2] + v[5];
    let tmp5 = v[2] - v[5];
    let tmp3 = v[3] + v[4];
    let tmp4 = v[3] - v[4];

    let tmp10 = tmp0 + tmp3;
    let tmp13 = tmp0 - tmp3;
    let tmp11 = tmp1 + tmp2;
    let tmp12 = tmp1 - tmp2;

    let mut out = [0i64; 8];
    if !pass2 {
        out[0] = (tmp10 + tmp11) << PASS1_BITS;
        out[4] = (tmp10 - tmp11) << PASS1_BITS;
    } else {
        // Pass 2 also removes the x8 block scale (3 extra bits) so the
        // output is a true-scale DCT coefficient ready for `QuantTable`.
        out[0] = descale(tmp10 + tmp11, PASS1_BITS + 3);
        out[4] = descale(tmp10 - tmp11, PASS1_BITS + 3);
    }
    let even_descale = if pass2 {
        CONST_BITS + PASS1_BITS + 3
    } else {
        CONST_BITS - PASS1_BITS
    };
    let z1 = (tmp12 + tmp13) * FIX_0_541196100;
    out[2] = descale(z1 + tmp13 * FIX_0_765366865, even_descale);
    out[6] = descale(z1 - tmp12 * FIX_1_847759065, even_descale);

    let z1 = tmp4 + tmp7;
    let z2 = tmp5 + tmp6;
    let z3 = tmp4 + tmp6;
    let z4 = tmp5 + tmp7;
    let z5 = (z3 + z4) * FIX_1_175875602;
    let tmp4 = tmp4 * FIX_0_298631336;
    let tmp5 = tmp5 * FIX_2_053119869;
    let tmp6 = tmp6 * FIX_3_072711026;
    let tmp7 = tmp7 * FIX_1_501321110;
    let z1 = -z1 * FIX_0_899976223;
    let z2 = -z2 * FIX_2_562915447;
    let z3 = -z3 * FIX_1_961570560 + z5;
    let z4 = -z4 * FIX_0_390180644 + z5;
    out[7] = descale(tmp4 + z1 + z3, even_descale);
    out[5] = descale(tmp5 + z2 + z4, even_descale);
    out[3] = descale(tmp6 + z2 + z3, even_descale);
    out[1] = descale(tmp7 + z1 + z4, even_descale);
    out
}

/// Forward 2-D islow DCT of a level-shifted sample block (values in
/// [-128, 127]); output is true-scale coefficients (matching
/// [`super::reference::fdct_f64`] within rounding error).
pub fn fdct_block(samples: &[i32; 64]) -> [i32; 64] {
    // Row pass.
    let mut ws = [0i64; 64];
    for r in 0..8 {
        let mut row = [0i64; 8];
        for (c, slot) in row.iter_mut().enumerate() {
            *slot = samples[r * 8 + c] as i64;
        }
        let o = fdct_1d(row, false);
        ws[r * 8..r * 8 + 8].copy_from_slice(&o);
    }
    // Column pass.
    let mut out = [0i32; 64];
    for c in 0..8 {
        let mut col = [0i64; 8];
        for (r, slot) in col.iter_mut().enumerate() {
            *slot = ws[r * 8 + c];
        }
        let o = fdct_1d(col, true);
        for (r, &v) in o.iter().enumerate() {
            out[r * 8 + c] = v as i32;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dct::reference;

    fn pseudo_block(seed: i32) -> [i32; 64] {
        let mut b = [0i32; 64];
        let mut state = seed.wrapping_mul(2654435761u32 as i32) | 1;
        for v in b.iter_mut() {
            state = state.wrapping_mul(1103515245).wrapping_add(12345);
            *v = (state >> 16) % 128; // [-127, 127]
        }
        b
    }

    #[test]
    fn fdct_matches_reference_within_rounding() {
        for seed in 0..20 {
            let samples = pseudo_block(seed);
            let got = fdct_block(&samples);
            let mut f = [0.0f64; 64];
            for (d, &s) in f.iter_mut().zip(samples.iter()) {
                *d = s as f64;
            }
            let want = reference::fdct_f64(&f);
            for i in 0..64 {
                assert!(
                    (got[i] as f64 - want[i]).abs() <= 1.0,
                    "seed {seed} coef {i}: got {} want {}",
                    got[i],
                    want[i]
                );
            }
        }
    }

    #[test]
    fn idct_matches_reference_within_one() {
        for seed in 0..20 {
            // Coefficients in a realistic dequantized range.
            let mut coefs = pseudo_block(seed);
            for c in coefs.iter_mut() {
                *c *= 8;
            }
            coefs[0] += 300;
            let got = idct_block(&coefs);
            let want = reference::idct_to_samples(&coefs);
            for i in 0..64 {
                assert!(
                    (got[i] as i32 - want[i] as i32).abs() <= 1,
                    "seed {seed} px {i}: got {} want {}",
                    got[i],
                    want[i]
                );
            }
        }
    }

    #[test]
    fn dc_only_shortcut_is_flat() {
        let mut coefs = [0i32; 64];
        coefs[0] = 160; // sample value 160/8 = 20 above mid-gray
        let px = idct_block(&coefs);
        for &p in px.iter() {
            assert_eq!(p, 148);
        }
    }

    #[test]
    fn zero_block_is_mid_gray() {
        let px = idct_block(&[0i32; 64]);
        assert!(px.iter().all(|&p| p == 128));
    }

    #[test]
    fn fdct_then_idct_roundtrips_samples() {
        for seed in 0..10 {
            let samples = pseudo_block(seed);
            let coefs = fdct_block(&samples);
            let px = idct_block(&coefs);
            for i in 0..64 {
                let want = (samples[i] + 128).clamp(0, 255);
                assert!(
                    (px[i] as i32 - want).abs() <= 2,
                    "seed {seed} px {i}: got {} want {}",
                    px[i],
                    want
                );
            }
        }
    }

    #[test]
    fn column_then_row_equals_block() {
        let coefs = {
            let mut c = pseudo_block(7);
            for v in c.iter_mut() {
                *v *= 4;
            }
            c
        };
        let whole = idct_block(&coefs);
        // Rebuild through the exposed per-column / per-row API (the GPU
        // kernel's decomposition).
        let mut ws = [0i64; 64];
        for col in 0..8 {
            let c = idct_column(&coefs, col);
            for (r, &v) in c.iter().enumerate() {
                ws[r * 8 + col] = v;
            }
        }
        let mut rebuilt = [0u8; 64];
        for r in 0..8 {
            let mut row = [0i64; 8];
            row.copy_from_slice(&ws[r * 8..r * 8 + 8]);
            rebuilt[r * 8..r * 8 + 8].copy_from_slice(&idct_row(&row));
        }
        assert_eq!(whole, rebuilt);
    }
}
