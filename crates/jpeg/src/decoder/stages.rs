//! The three-pass scalar parallel phase: the oracle the render loop is held
//! to.
//!
//! Dequantize + IDCT a band into whole-image sample planes, upsample its
//! chroma into band-sized rasters, then color-convert — three separate
//! passes with full intermediate planes, in plain scalar code
//! ([`crate::dct::sparse`], [`crate::sample`], [`crate::color`]). It shares
//! no loop and no kernel dispatch with [`super::simd::render_rows`], which
//! is what makes it worth comparing against: [`crate::decoder::decode`],
//! the corpus generator's reference pixels, the GPU-kernel unit tests and
//! the cross-mode bit-identity suites all use it as the reference. Nothing
//! a decode session executes calls it.
//!
//! Like the loop, each pass operates on a band of MCU rows: the paper's
//! partitioning "splits images horizontally such that the initial x rows
//! ... are assigned to the GPU, and the remaining h − x rows are assigned
//! to the CPU" (§5.2).

use crate::coef::CoefBuffer;
use crate::color::ycc_to_rgb;
use crate::dct::sparse::dequant_idct_to;
use crate::decoder::Prepared;
use crate::error::{Error, Result};
use crate::metrics::ParallelWork;
use crate::planes::SamplePlanes;
use crate::sample::{upsample_row_h2v1_blockwise, upsample_v2_pair};
use crate::types::Subsampling;

/// Dequantize + IDCT every block of MCU rows `[start, end)` into `planes`.
///
/// `planes` must span the whole image; only the band's block rows are
/// written, so disjoint bands can be processed independently. Each block is
/// dequantized, transformed and stored in a single fused pass, dispatched
/// on its recorded EOB (DC-only / 2×2 / 4×4 / dense — all bit-identical).
pub fn dequant_idct_region(
    prep: &Prepared<'_>,
    coef: &CoefBuffer,
    start: usize,
    end: usize,
    planes: &mut SamplePlanes,
) {
    let geom = &prep.geom;
    for (ci, comp) in geom.comps.iter().enumerate() {
        let quant = &prep.quant[ci].values;
        let stride = planes.strides[ci];
        let plane = &mut planes.planes[ci];
        let by0 = start * comp.v_samp;
        let by1 = (end * comp.v_samp).min(comp.height_blocks);
        for by in by0..by1 {
            let row_base = by * 8 * stride;
            for bx in 0..comp.width_blocks {
                let idx = geom.block_index(ci, bx, by);
                dequant_idct_to(
                    coef.block(idx),
                    quant,
                    coef.eob(idx),
                    plane,
                    row_base + bx * 8,
                    stride,
                );
            }
        }
    }
}

/// Upsample the chroma planes of MCU rows `[start, end)` to full resolution.
///
/// Returns full-resolution Cb/Cr rasters for the band's pixel rows
/// (band-local row indexing, luma plane width). 4:4:4 input is copied
/// through unchanged.
pub fn upsample_region(
    prep: &Prepared<'_>,
    planes: &SamplePlanes,
    start: usize,
    end: usize,
) -> (Vec<u8>, Vec<u8>) {
    let geom = &prep.geom;
    let lw = geom.comps[0].plane_width();
    let (p0, p1) = (
        start * geom.mcu_h,
        (end * geom.mcu_h).min(geom.comps[0].plane_height()),
    );
    let band_rows = p1 - p0;
    let mut cb = vec![0u8; band_rows * lw];
    let mut cr = vec![0u8; band_rows * lw];
    let mut vtmp = vec![0u8; geom.comps[1].plane_width()];

    match geom.subsampling {
        Subsampling::S444 => {
            for r in 0..band_rows {
                let y = p0 + r;
                cb[r * lw..(r + 1) * lw].copy_from_slice(planes.row(1, y));
                cr[r * lw..(r + 1) * lw].copy_from_slice(planes.row(2, y));
            }
        }
        Subsampling::S422 => {
            // Chroma plane has the same height as luma, half the width.
            for r in 0..band_rows {
                let y = p0 + r;
                upsample_row_h2v1_blockwise(planes.row(1, y), &mut cb[r * lw..(r + 1) * lw]);
                upsample_row_h2v1_blockwise(planes.row(2, y), &mut cr[r * lw..(r + 1) * lw]);
            }
        }
        Subsampling::S420 => {
            // Vertical (blockwise triangular) then horizontal (Algorithm 1).
            let ch = geom.comps[1].plane_height();
            for r in 0..band_rows {
                let y = p0 + r; // luma row
                let cy = (y / 2).min(ch - 1);
                // Blockwise vertical neighbour: stay inside the 8-row block.
                let block_base = cy & !7;
                let neighbour = if y % 2 == 0 {
                    cy.saturating_sub(1).max(block_base)
                } else {
                    (cy + 1).min(block_base + 7).min(ch - 1)
                };
                for c in 0..2usize {
                    let near = planes.row(1 + c, cy);
                    let far = planes.row(1 + c, neighbour);
                    for ((t, &n), &f) in vtmp.iter_mut().zip(near.iter()).zip(far.iter()) {
                        *t = upsample_v2_pair(n, f);
                    }
                    let dst = if c == 0 {
                        &mut cb[r * lw..(r + 1) * lw]
                    } else {
                        &mut cr[r * lw..(r + 1) * lw]
                    };
                    upsample_row_h2v1_blockwise(&vtmp, dst);
                }
            }
        }
    }
    (cb, cr)
}

/// Color-convert MCU rows `[start, end)` into `out`, which must hold exactly
/// the band's `width * rows * 3` bytes (clipped to real image rows).
pub fn color_convert_region(
    prep: &Prepared<'_>,
    planes: &SamplePlanes,
    cb: &[u8],
    cr: &[u8],
    start: usize,
    end: usize,
    out: &mut [u8],
) -> Result<()> {
    let geom = &prep.geom;
    let (r0, r1) = geom.mcu_rows_to_pixel_rows(start, end);
    let w = geom.width;
    if out.len() != (r1 - r0) * w * 3 {
        return Err(Error::BufferSize {
            expected: (r1 - r0) * w * 3,
            got: out.len(),
        });
    }
    let lw = geom.comps[0].plane_width();
    let band_p0 = start * geom.mcu_h;
    for (ri, row_out) in out.chunks_exact_mut(w * 3).enumerate() {
        let y = r0 + ri;
        let band_row = y - band_p0;
        let yrow = planes.row(0, y);
        let cb_row = &cb[band_row * lw..band_row * lw + lw];
        let cr_row = &cr[band_row * lw..band_row * lw + lw];
        for (x, px) in row_out.chunks_exact_mut(3).enumerate() {
            let rgb = ycc_to_rgb(yrow[x], cb_row[x], cr_row[x]);
            px.copy_from_slice(&rgb);
        }
    }
    Ok(())
}

/// The whole parallel phase for a band as the composition of the three
/// passes: dequant + IDCT + upsample + color conversion, writing
/// interleaved RGB for the band's pixel rows into `out`.
///
/// Returns the work metrics the cost model charges for the band.
pub fn decode_region_rgb(
    prep: &Prepared<'_>,
    coef: &CoefBuffer,
    start: usize,
    end: usize,
    out: &mut [u8],
) -> Result<ParallelWork> {
    let mut planes = SamplePlanes::new(&prep.geom);
    dequant_idct_region(prep, coef, start, end, &mut planes);
    let (cb, cr) = upsample_region(prep, &planes, start, end);
    color_convert_region(prep, &planes, &cb, &cr, start, end, out)?;
    Ok(ParallelWork::for_mcu_rows(&prep.geom, start, end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::Prepared;
    use crate::encoder::{encode_rgb, EncodeParams};
    use crate::types::Subsampling;

    fn setup(sub: Subsampling, w: usize, h: usize) -> (Vec<u8>, Vec<u8>) {
        let mut rgb = Vec::with_capacity(w * h * 3);
        for y in 0..h {
            for x in 0..w {
                rgb.extend_from_slice(&[
                    ((x * 7 + y * 3) % 256) as u8,
                    ((x * 2 + y * 11) % 256) as u8,
                    ((x * 5 + y * 5) % 256) as u8,
                ]);
            }
        }
        let jpeg = encode_rgb(
            &rgb,
            w as u32,
            h as u32,
            &EncodeParams {
                quality: 88,
                subsampling: sub,
                restart_interval: 0,
            },
        )
        .unwrap();
        (rgb, jpeg)
    }

    #[test]
    fn idct_region_only_touches_band() {
        let (_, jpeg) = setup(Subsampling::S444, 32, 32);
        let prep = Prepared::new(&jpeg).unwrap();
        let (coef, _) = prep.entropy_decode_all().unwrap();
        let mut planes = SamplePlanes::new(&prep.geom);
        dequant_idct_region(&prep, &coef, 1, 2, &mut planes);
        // Rows of MCU row 0 remain zero, rows of MCU row 1 are written.
        assert!(planes.row(0, 0).iter().all(|&v| v == 0));
        assert!(planes.row(0, 8).iter().any(|&v| v != 0));
        assert!(planes.row(0, 16).iter().all(|&v| v == 0));
    }

    #[test]
    fn upsample_444_is_passthrough() {
        let (_, jpeg) = setup(Subsampling::S444, 16, 16);
        let prep = Prepared::new(&jpeg).unwrap();
        let (coef, _) = prep.entropy_decode_all().unwrap();
        let mut planes = SamplePlanes::new(&prep.geom);
        dequant_idct_region(&prep, &coef, 0, prep.geom.mcus_y, &mut planes);
        let (cb, cr) = upsample_region(&prep, &planes, 0, prep.geom.mcus_y);
        assert_eq!(&cb[0..16], planes.row(1, 0));
        assert_eq!(&cr[0..16], planes.row(2, 0));
    }

    #[test]
    fn color_convert_rejects_bad_buffer() {
        let (_, jpeg) = setup(Subsampling::S444, 16, 16);
        let prep = Prepared::new(&jpeg).unwrap();
        let (coef, _) = prep.entropy_decode_all().unwrap();
        let mut planes = SamplePlanes::new(&prep.geom);
        dequant_idct_region(&prep, &coef, 0, 1, &mut planes);
        let (cb, cr) = upsample_region(&prep, &planes, 0, 1);
        let mut tiny = vec![0u8; 3];
        assert!(color_convert_region(&prep, &planes, &cb, &cr, 0, 1, &mut tiny).is_err());
    }

    #[test]
    fn work_metrics_scale_with_band_size() {
        let (_, jpeg) = setup(Subsampling::S422, 64, 64);
        let prep = Prepared::new(&jpeg).unwrap();
        let (coef, _) = prep.entropy_decode_all().unwrap();
        let mut out1 = vec![0u8; prep.geom.rgb_bytes_in_mcu_rows(0, 1)];
        let w1 = decode_region_rgb(&prep, &coef, 0, 1, &mut out1).unwrap();
        let mut out2 = vec![0u8; prep.geom.rgb_bytes_in_mcu_rows(0, 2)];
        let w2 = decode_region_rgb(&prep, &coef, 0, 2, &mut out2).unwrap();
        assert_eq!(w2.idct_blocks, 2 * w1.idct_blocks);
        assert_eq!(w2.color_pixels, 2 * w1.color_pixels);
    }

    #[test]
    fn dense_eob_fallback_decodes_identically() {
        // Blocks written through `block_mut` lose their sparse EOB and fall
        // back to the dense bound; pixels must not change.
        let (_, jpeg) = setup(Subsampling::S420, 40, 40);
        let prep = Prepared::new(&jpeg).unwrap();
        let (coef, _) = prep.entropy_decode_all().unwrap();
        let mut dense = coef.clone();
        for idx in 0..dense.num_blocks() {
            let copy = *dense.block(idx);
            *dense.block_mut(idx) = copy; // resets EOB to 63
            assert_eq!(dense.eob(idx), crate::coef::EOB_DENSE);
        }
        let bytes = prep.geom.rgb_bytes_in_mcu_rows(0, prep.geom.mcus_y);
        let mut a = vec![0u8; bytes];
        let mut b = vec![0u8; bytes];
        decode_region_rgb(&prep, &coef, 0, prep.geom.mcus_y, &mut a).unwrap();
        decode_region_rgb(&prep, &dense, 0, prep.geom.mcus_y, &mut b).unwrap();
        assert_eq!(a, b);
    }
}
