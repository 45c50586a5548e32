//! The CPU render loop: the parallel phase over any band of MCU rows, at
//! any kernel level, into any row sink.
//!
//! Everything a CPU ever renders goes through [`render_rows`]: dequantize
//! and IDCT one MCU row into MCU-row-local scratch planes (one fused
//! EOB-dispatched pass per block, [`kernels::dequant_idct_block`]), then
//! upsample each pixel row of that tile while it is still cache-hot and
//! hand it to the sink — the CPU analogue of the merged GPU kernel of
//! §4.4, with no full-image intermediate plane between the stages. Two
//! things vary and both are arguments:
//!
//! * the **kernel level** ([`SimdLevel`], carried by the [`SimdScratch`]):
//!   `Scalar` is the paper's "sequential mode" pipeline, `Sse2`/`Avx2` its
//!   "SIMD mode" (libjpeg-turbo's hand-written vector code, §1). Output
//!   bytes are identical at every level; the platform cost model charges
//!   by *mode*, not by which host kernels ran (see `hetjpeg-core`);
//! * **where rows go** (a [`RowSink`]): interleaved RGB into a band of the
//!   caller's image ([`RgbBand`] — a whole-frame decode is this sink over
//!   all rows), full-resolution planes into a [`YccImage`] ([`Planar`]),
//!   or RGB into a one-MCU-row tile handed to a callback ([`RgbTiles`] —
//!   the streaming-response hook).
//!
//! The loop is generic over the sink (monomorphised: no `dyn` call per
//! pixel row). The three-pass [`super::stages`] functions share no code
//! with it and exist as the oracle the tests hold it to.

use crate::coef::CoefBuffer;
use crate::color::YccTables;
use crate::decoder::kernels::{self, SimdLevel};
use crate::decoder::Prepared;
use crate::error::{Error, Result};
use crate::geometry::Geometry;
use crate::types::{Subsampling, YccImage};

/// Where the rows [`render_rows`] produces go.
pub trait RowSink {
    /// Take pixel row `y` of the image at full resolution. `luma`, `cb`
    /// and `cr` are plane rows: each holds at least the image width
    /// (planes are padded to whole blocks; samples past the width are
    /// padding). `level` is the kernel level the band renders on.
    fn row(&mut self, level: SimdLevel, y: usize, luma: &[u8], cb: &[u8], cr: &[u8]);

    /// The MCU row covering pixel rows `y0 .. y0 + rows` is complete.
    /// Returning `false` stops the band after this MCU row.
    fn mcu_row_done(&mut self, _y0: usize, _rows: usize) -> bool {
        true
    }
}

/// Interleaved RGB into the caller's slice, which holds exactly the
/// band's pixel rows.
pub struct RgbBand<'a> {
    ycc: &'a YccTables,
    /// Image pixel row stored at the start of `out`.
    y0: usize,
    row_bytes: usize,
    out: &'a mut [u8],
}

impl<'a> RgbBand<'a> {
    /// A sink for MCU rows `[start, end)`; `out` must hold exactly the
    /// band's `width * rows * 3` bytes (clipped to real image rows).
    pub fn new(
        prep: &'a Prepared<'_>,
        start: usize,
        end: usize,
        out: &'a mut [u8],
    ) -> Result<Self> {
        let expected = prep.geom.rgb_bytes_in_mcu_rows(start, end);
        if out.len() != expected {
            return Err(Error::BufferSize {
                expected,
                got: out.len(),
            });
        }
        Ok(RgbBand {
            ycc: &prep.ycc,
            y0: start * prep.geom.mcu_h,
            row_bytes: prep.geom.width * 3,
            out,
        })
    }
}

impl RowSink for RgbBand<'_> {
    #[inline]
    fn row(&mut self, level: SimdLevel, y: usize, luma: &[u8], cb: &[u8], cr: &[u8]) {
        let at = (y - self.y0) * self.row_bytes;
        let out = &mut self.out[at..at + self.row_bytes];
        kernels::convert_row(level, self.ycc, luma, cb, cr, out);
    }
}

/// Interleaved RGB, one MCU row at a time: each finished MCU row is handed
/// to `deliver` as `(first_pixel_row, pixel_rows, rgb)` out of a
/// caller-owned tile buffer, so peak pixel memory is one MCU row
/// (`width * mcu_h * 3` bytes) regardless of image height. `deliver`
/// returning `false` stops the band after that tile. Tile bytes are the
/// corresponding rows of an [`RgbBand`] render.
pub struct RgbTiles<'a, F> {
    /// The tile buffer as a one-MCU-row band, re-based after every tile.
    tile: RgbBand<'a>,
    deliver: F,
}

impl<'a, F: FnMut(usize, usize, &[u8]) -> bool> RgbTiles<'a, F> {
    /// A sink for a band starting at MCU row `start`. `tile` is grown to
    /// one MCU row if it is smaller and never shrunk, so a pooled buffer
    /// stops allocating after its first image of a given width.
    pub fn new(prep: &'a Prepared<'_>, start: usize, tile: &'a mut Vec<u8>, deliver: F) -> Self {
        let geom = &prep.geom;
        let tile_bytes = geom.width * geom.mcu_h * 3;
        if tile.len() < tile_bytes {
            tile.resize(tile_bytes, 0);
        }
        RgbTiles {
            tile: RgbBand {
                ycc: &prep.ycc,
                y0: start * geom.mcu_h,
                row_bytes: geom.width * 3,
                out: tile,
            },
            deliver,
        }
    }
}

impl<F: FnMut(usize, usize, &[u8]) -> bool> RowSink for RgbTiles<'_, F> {
    #[inline]
    fn row(&mut self, level: SimdLevel, y: usize, luma: &[u8], cb: &[u8], cr: &[u8]) {
        self.tile.row(level, y, luma, cb, cr);
    }

    fn mcu_row_done(&mut self, y0: usize, rows: usize) -> bool {
        self.tile.y0 = y0 + rows;
        (self.deliver)(y0, rows, &self.tile.out[..rows * self.tile.row_bytes])
    }
}

/// Full-resolution Y/Cb/Cr planes, color conversion skipped: what planar
/// consumers (re-encode, tone-mapping, ML preprocessing) want.
/// [`YccImage::to_rgb`] recovers the exact bytes of an [`RgbBand`] render.
pub struct Planar<'a> {
    out: &'a mut YccImage,
}

impl<'a> Planar<'a> {
    /// A sink into `out`, which must span the whole image (a band writes
    /// only its own pixel rows).
    pub fn new(prep: &Prepared<'_>, out: &'a mut YccImage) -> Result<Self> {
        let geom = &prep.geom;
        if out.width != geom.width || out.height != geom.height {
            return Err(Error::BufferSize {
                expected: geom.width * geom.height,
                got: out.width * out.height,
            });
        }
        Ok(Planar { out })
    }
}

impl RowSink for Planar<'_> {
    #[inline]
    fn row(&mut self, _level: SimdLevel, y: usize, luma: &[u8], cb: &[u8], cr: &[u8]) {
        let w = self.out.width;
        let at = y * w..(y + 1) * w;
        self.out.y[at.clone()].copy_from_slice(&luma[..w]);
        self.out.cb[at.clone()].copy_from_slice(&cb[..w]);
        self.out.cr[at].copy_from_slice(&cr[..w]);
    }
}

/// MCU-row-local scratch planes plus the kernel level the loop runs on,
/// reused across bands and decodes so steady-state rendering performs no
/// heap allocation.
pub struct SimdScratch {
    /// Vector instruction set the kernels run on; chosen at construction
    /// (or via [`Self::set_level`]), not per row.
    level: SimdLevel,
    /// Luma samples: `luma_width x mcu_h`.
    y: Vec<u8>,
    /// Subsampled chroma: `chroma_width x 8` each.
    cb: Vec<u8>,
    cr: Vec<u8>,
    /// One full-resolution upsampled chroma row each.
    cb_row: Vec<u8>,
    cr_row: Vec<u8>,
    /// Vertically upsampled (still horizontally subsampled) row for 4:2:0.
    vtmp: Vec<u8>,
}

impl SimdScratch {
    /// Allocate scratch sized for one MCU row of `prep`'s geometry, with
    /// the host's best detected kernel level.
    pub fn new(prep: &Prepared<'_>) -> Self {
        Self::with_level(prep, SimdLevel::detect())
    }

    /// Allocate scratch with an explicit kernel level. An unavailable
    /// level is clamped to the host's best ([`SimdLevel::clamp_to_host`]),
    /// never executed.
    pub fn with_level(prep: &Prepared<'_>, level: SimdLevel) -> Self {
        let mut scratch = SimdScratch {
            level: level.clamp_to_host(),
            y: Vec::new(),
            cb: Vec::new(),
            cr: Vec::new(),
            cb_row: Vec::new(),
            cr_row: Vec::new(),
            vtmp: Vec::new(),
        };
        scratch.reset_for(prep);
        scratch
    }

    /// The kernel level this scratch dispatches to.
    pub fn level(&self) -> SimdLevel {
        self.level
    }

    /// Override the kernel level; clamped to what the host can run.
    pub fn set_level(&mut self, level: SimdLevel) {
        self.level = level.clamp_to_host();
    }

    /// Re-shape the scratch for another image, reusing the allocations —
    /// the session decoder's pool hook. The dispatch choice is retained.
    pub fn reset_for(&mut self, prep: &Prepared<'_>) {
        let lw = prep.geom.comps[0].plane_width();
        let cw = prep.geom.comps[1].plane_width();
        let mcu_h = prep.geom.mcu_h;
        for (buf, len) in [
            (&mut self.y, lw * mcu_h),
            (&mut self.cb, cw * 8),
            (&mut self.cr, cw * 8),
            (&mut self.cb_row, lw),
            (&mut self.cr_row, lw),
            (&mut self.vtmp, cw),
        ] {
            buf.clear();
            buf.resize(len, 0);
        }
    }

    /// Dequantize + IDCT all blocks of one MCU row into the scratch
    /// planes, one fused EOB-dispatched pass per block.
    fn idct_mcu_row(&mut self, prep: &Prepared<'_>, coef: &CoefBuffer, mcu_row: usize) {
        let geom = &prep.geom;
        for (ci, comp) in geom.comps.iter().enumerate() {
            let quant = &prep.quant[ci].values;
            let plane_w = comp.plane_width();
            let by0 = mcu_row * comp.v_samp;
            let dst = match ci {
                0 => &mut self.y,
                1 => &mut self.cb,
                _ => &mut self.cr,
            };
            for dv in 0..comp.v_samp {
                let by = by0 + dv;
                if by >= comp.height_blocks {
                    continue;
                }
                let row_base = (dv * 8) * plane_w;
                for bx in 0..comp.width_blocks {
                    let idx = geom.block_index(ci, bx, by);
                    kernels::dequant_idct_block(
                        self.level,
                        coef.block(idx),
                        quant,
                        coef.eob(idx),
                        dst,
                        row_base + bx * 8,
                        plane_w,
                    );
                }
            }
        }
    }

    /// Pixel row `local` of the tile at full resolution, as `(luma, cb,
    /// cr)` plane rows. 4:4:4 chroma needs no upsampling and is handed out
    /// in place; 4:2:2 and 4:2:0 are upsampled into the row buffers.
    fn pixel_row(&mut self, geom: &Geometry, local: usize) -> (&[u8], &[u8], &[u8]) {
        let lw = geom.comps[0].plane_width();
        let cw = geom.comps[1].plane_width();
        let luma = &self.y[local * lw..(local + 1) * lw];
        let at = local * cw..(local + 1) * cw;
        match geom.subsampling {
            Subsampling::S444 => return (luma, &self.cb[at.clone()], &self.cr[at]),
            Subsampling::S422 => {
                kernels::upsample_row_h2v1(self.level, &self.cb[at.clone()], &mut self.cb_row);
                kernels::upsample_row_h2v1(self.level, &self.cr[at], &mut self.cr_row);
            }
            Subsampling::S420 => {
                // Blockwise vertical neighbour: stay inside the tile's
                // 8-row chroma block (edge rows blend with themselves,
                // i.e. replicate — same arithmetic as the three-pass
                // oracle).
                let cy = local / 2;
                let neighbour = if local.is_multiple_of(2) {
                    cy.saturating_sub(1)
                } else {
                    (cy + 1).min(7)
                };
                for (plane, dst) in [(&self.cb, &mut self.cb_row), (&self.cr, &mut self.cr_row)] {
                    let near = &plane[cy * cw..(cy + 1) * cw];
                    let far = &plane[neighbour * cw..(neighbour + 1) * cw];
                    kernels::blend_v2_row(self.level, near, far, &mut self.vtmp);
                    kernels::upsample_row_h2v1(self.level, &self.vtmp, dst);
                }
            }
        }
        (luma, &self.cb_row, &self.cr_row)
    }
}

/// The parallel phase over MCU rows `[start, end)` of a filled
/// coefficient buffer: every pixel row of the band goes to `sink`, on the
/// kernel level `scratch` carries.
///
/// Returns whether the band completed (`false` when the sink stopped it).
pub fn render_rows<S: RowSink>(
    prep: &Prepared<'_>,
    coef: &CoefBuffer,
    start: usize,
    end: usize,
    scratch: &mut SimdScratch,
    sink: &mut S,
) -> bool {
    let geom = &prep.geom;
    let level = scratch.level;
    for mcu_row in start..end {
        scratch.idct_mcu_row(prep, coef, mcu_row);
        let (py0, py1) = geom.mcu_rows_to_pixel_rows(mcu_row, mcu_row + 1);
        for y in py0..py1 {
            let (luma, cb, cr) = scratch.pixel_row(geom, y - py0);
            sink.row(level, y, luma, cb, cr);
        }
        if !sink.mcu_row_done(py0, py1 - py0) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::stages;
    use crate::encoder::{encode_rgb, EncodeParams};
    use crate::metrics::ParallelWork;
    use crate::planes::SamplePlanes;

    fn textured_rgb(w: usize, h: usize) -> Vec<u8> {
        let mut rgb = Vec::with_capacity(w * h * 3);
        let mut s = 0x1234_5678u32;
        for _ in 0..w * h {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            rgb.push((s >> 8) as u8);
            rgb.push((s >> 16) as u8);
            rgb.push((s >> 24) as u8);
        }
        rgb
    }

    fn jpeg_of(w: usize, h: usize, quality: u8, subsampling: Subsampling) -> Vec<u8> {
        let params = EncodeParams {
            quality,
            subsampling,
            restart_interval: 0,
        };
        encode_rgb(&textured_rgb(w, h), w as u32, h as u32, &params).unwrap()
    }

    /// Render MCU rows `[a, b)` to RGB through the loop.
    fn render_rgb(
        prep: &Prepared<'_>,
        coef: &CoefBuffer,
        a: usize,
        b: usize,
        scratch: &mut SimdScratch,
    ) -> Vec<u8> {
        let mut out = vec![0u8; prep.geom.rgb_bytes_in_mcu_rows(a, b)];
        let mut sink = RgbBand::new(prep, a, b, &mut out).unwrap();
        assert!(render_rows(prep, coef, a, b, scratch, &mut sink));
        out
    }

    #[test]
    fn simd_band_equals_scalar_band_at_every_level() {
        for sub in [Subsampling::S444, Subsampling::S422, Subsampling::S420] {
            let jpeg = jpeg_of(48, 48, 60, sub);
            let prep = Prepared::new(&jpeg).unwrap();
            let (coef, _) = prep.entropy_decode_all().unwrap();
            for level in SimdLevel::all_available() {
                let mut scratch = SimdScratch::with_level(&prep, level);
                for (a, b) in [(0usize, 1usize), (1, 3), (0, prep.geom.mcus_y)] {
                    let mut want = vec![0u8; prep.geom.rgb_bytes_in_mcu_rows(a, b)];
                    stages::decode_region_rgb(&prep, &coef, a, b, &mut want).unwrap();
                    let got = render_rgb(&prep, &coef, a, b, &mut scratch);
                    assert_eq!(
                        want,
                        got,
                        "{} {} band {a}..{b}",
                        sub.notation(),
                        level.name()
                    );
                }
            }
        }
    }

    #[test]
    fn planar_tile_path_matches_scalar_planar() {
        for sub in [Subsampling::S444, Subsampling::S422, Subsampling::S420] {
            let (w, h) = (52usize, 41usize); // non-MCU-aligned on purpose
            let jpeg = jpeg_of(w, h, 75, sub);
            let prep = Prepared::new(&jpeg).unwrap();
            let (coef, _) = prep.entropy_decode_all().unwrap();
            let mcus = prep.geom.mcus_y;
            // The planar oracle: the first two passes of the three-pass
            // pipeline, clipped to the image.
            let mut planes = SamplePlanes::new(&prep.geom);
            stages::dequant_idct_region(&prep, &coef, 0, mcus, &mut planes);
            let (want_cb, want_cr) = stages::upsample_region(&prep, &planes, 0, mcus);
            let lw = planes.strides[0];
            for level in SimdLevel::all_available() {
                let mut scratch = SimdScratch::with_level(&prep, level);
                let mut got = YccImage::new(w, h);
                // Two bands to exercise band composition.
                for (a, b) in [(0, mcus / 2), (mcus / 2, mcus)] {
                    let mut sink = Planar::new(&prep, &mut got).unwrap();
                    render_rows(&prep, &coef, a, b, &mut scratch, &mut sink);
                }
                for y in 0..h {
                    let label = format!("{} {} row {y}", sub.notation(), level.name());
                    assert_eq!(got.y[y * w..][..w], planes.row(0, y)[..w], "{label} Y");
                    assert_eq!(got.cb[y * w..][..w], want_cb[y * lw..][..w], "{label} Cb");
                    assert_eq!(got.cr[y * w..][..w], want_cr[y * lw..][..w], "{label} Cr");
                }
            }
        }
    }

    #[test]
    fn work_metrics_match_scalar() {
        let jpeg = jpeg_of(32, 32, 85, Subsampling::S422);
        let prep = Prepared::new(&jpeg).unwrap();
        let (coef, _) = prep.entropy_decode_all().unwrap();
        let mut a = vec![0u8; prep.geom.rgb_bytes_in_mcu_rows(0, 2)];
        let wa = stages::decode_region_rgb(&prep, &coef, 0, 2, &mut a).unwrap();
        render_rgb(&prep, &coef, 0, 2, &mut SimdScratch::new(&prep));
        assert_eq!(wa, ParallelWork::for_mcu_rows(&prep.geom, 0, 2));
    }

    #[test]
    fn scratch_reuse_and_level_retention() {
        let jpeg = jpeg_of(40, 24, 85, Subsampling::S420);
        let other = jpeg_of(72, 56, 85, Subsampling::S444);
        let prep = Prepared::new(&jpeg).unwrap();
        let (coef, _) = prep.entropy_decode_all().unwrap();
        // A scratch that served another shape first, then was re-shaped.
        let mut scratch =
            SimdScratch::with_level(&Prepared::new(&other).unwrap(), SimdLevel::Scalar);
        assert_eq!(scratch.level(), SimdLevel::Scalar);
        scratch.reset_for(&prep);
        assert_eq!(scratch.level(), SimdLevel::Scalar, "reset keeps the choice");
        let mcus = prep.geom.mcus_y;
        let fresh = render_rgb(&prep, &coef, 0, mcus, &mut SimdScratch::new(&prep));
        let reused = render_rgb(&prep, &coef, 0, mcus, &mut scratch);
        assert_eq!(fresh, reused);
    }

    #[test]
    fn rejects_bad_output_buffer() {
        let jpeg = jpeg_of(16, 16, 85, Subsampling::S444);
        let prep = Prepared::new(&jpeg).unwrap();
        let mut tiny = vec![0u8; 10];
        assert!(RgbBand::new(&prep, 0, 1, &mut tiny).is_err());
        let mut wrong = YccImage::new(8, 8);
        assert!(Planar::new(&prep, &mut wrong).is_err());
    }
}
