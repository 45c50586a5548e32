//! Coordinate algebra: pixels ↔ MCUs ↔ blocks ↔ component planes.
//!
//! All partitioning in the scheduler happens at MCU-row granularity (paper
//! §5.2: "Variable x is rounded to the nearest value evenly divisible by the
//! number of rows in an MCU ... due to libjpeg-turbo's convention to decode
//! images in units of MCUs"). This module centralizes the conversions so
//! every stage — CPU or GPU — agrees on where a region starts and ends.

use crate::error::{Error, Result};
use crate::types::Subsampling;

/// Per-component geometry derived from sampling factors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompGeom {
    /// Horizontal sampling factor.
    pub h_samp: usize,
    /// Vertical sampling factor.
    pub v_samp: usize,
    /// Width of the padded component plane in blocks.
    pub width_blocks: usize,
    /// Height of the padded component plane in blocks.
    pub height_blocks: usize,
    /// Offset (in blocks) of this component's plane inside the shared
    /// coefficient buffer (planar Y ‖ Cb ‖ Cr layout of paper §4).
    pub plane_block_offset: usize,
}

impl CompGeom {
    /// Plane width in samples (padded to whole blocks).
    #[inline]
    pub fn plane_width(&self) -> usize {
        self.width_blocks * 8
    }

    /// Plane height in samples (padded to whole blocks).
    #[inline]
    pub fn plane_height(&self) -> usize {
        self.height_blocks * 8
    }
}

/// Whole-image geometry: dimensions, MCU grid and component planes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Geometry {
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Chroma subsampling.
    pub subsampling: Subsampling,
    /// MCU width in pixels (8 or 16).
    pub mcu_w: usize,
    /// MCU height in pixels (8 or 16).
    pub mcu_h: usize,
    /// MCUs per image row.
    pub mcus_x: usize,
    /// Number of MCU rows.
    pub mcus_y: usize,
    /// Per-component geometry: `[Y, Cb, Cr]`.
    pub comps: [CompGeom; 3],
    /// Total coefficient blocks in the image (all components).
    pub total_blocks: usize,
}

impl Geometry {
    /// Compute the geometry for an image.
    pub fn new(width: usize, height: usize, subsampling: Subsampling) -> Result<Self> {
        if width == 0 || height == 0 || width > 65535 || height > 65535 {
            return Err(Error::BadDimensions);
        }
        let (hs, vs) = subsampling.luma_factors();
        let mcu_w = hs * 8;
        let mcu_h = vs * 8;
        let mcus_x = width.div_ceil(mcu_w);
        let mcus_y = height.div_ceil(mcu_h);

        let mut comps = [CompGeom {
            h_samp: 1,
            v_samp: 1,
            width_blocks: 0,
            height_blocks: 0,
            plane_block_offset: 0,
        }; 3];
        let mut offset = 0usize;
        for (i, comp) in comps.iter_mut().enumerate() {
            let (ch, cv) = if i == 0 { (hs, vs) } else { (1, 1) };
            comp.h_samp = ch;
            comp.v_samp = cv;
            comp.width_blocks = mcus_x * ch;
            comp.height_blocks = mcus_y * cv;
            comp.plane_block_offset = offset;
            offset += comp.width_blocks * comp.height_blocks;
        }

        Ok(Geometry {
            width,
            height,
            subsampling,
            mcu_w,
            mcu_h,
            mcus_x,
            mcus_y,
            comps,
            total_blocks: offset,
        })
    }

    /// Total pixels in the (unpadded) image.
    #[inline]
    pub fn pixels(&self) -> usize {
        self.width * self.height
    }

    /// Pixel row range covered by MCU rows `[start, end)`, clipped to the
    /// image height.
    #[inline]
    pub fn mcu_rows_to_pixel_rows(&self, start: usize, end: usize) -> (usize, usize) {
        (
            (start * self.mcu_h).min(self.height),
            (end * self.mcu_h).min(self.height),
        )
    }

    /// Number of MCU rows covering `pixel_rows` rows, i.e. the partition
    /// rounding the paper applies to the Newton solution.
    #[inline]
    pub fn pixel_rows_to_mcu_rows(&self, pixel_rows: usize) -> usize {
        pixel_rows.div_ceil(self.mcu_h).min(self.mcus_y)
    }

    /// Round a pixel-row count to the *nearest* MCU-row multiple (paper
    /// §5.2), clamped to `[0, height of image in MCU rows]`.
    #[inline]
    pub fn round_rows_to_mcu(&self, pixel_rows: f64) -> usize {
        let rows = (pixel_rows / self.mcu_h as f64).round();
        (rows.max(0.0) as usize).min(self.mcus_y)
    }

    /// Blocks contained in MCU rows `[start, end)` for all components.
    pub fn blocks_in_mcu_rows(&self, start: usize, end: usize) -> usize {
        let rows = end.saturating_sub(start);
        self.comps
            .iter()
            .map(|c| c.width_blocks * c.v_samp * rows)
            .sum()
    }

    /// Blocks contained in one interleaved MCU across all components.
    #[inline]
    pub fn blocks_per_mcu(&self) -> usize {
        self.comps.iter().map(|c| c.h_samp * c.v_samp).sum()
    }

    /// Coefficient-buffer block index of block (`bx`, `by`) of component `c`.
    #[inline]
    pub fn block_index(&self, c: usize, bx: usize, by: usize) -> usize {
        let comp = &self.comps[c];
        debug_assert!(bx < comp.width_blocks && by < comp.height_blocks);
        comp.plane_block_offset + by * comp.width_blocks + bx
    }

    /// Size in bytes of the coefficient data for MCU rows `[start, end)`
    /// (i16 per coefficient) — the quantity shipped over the simulated PCIe
    /// bus before GPU decoding.
    pub fn coef_bytes_in_mcu_rows(&self, start: usize, end: usize) -> usize {
        self.blocks_in_mcu_rows(start, end) * 64 * 2
    }

    /// Size in bytes of the RGB output for MCU rows `[start, end)` (clipped
    /// to real image rows) — the read-back volume.
    pub fn rgb_bytes_in_mcu_rows(&self, start: usize, end: usize) -> usize {
        let (r0, r1) = self.mcu_rows_to_pixel_rows(start, end);
        (r1 - r0) * self.width * 3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_444() {
        let g = Geometry::new(64, 48, Subsampling::S444).unwrap();
        assert_eq!((g.mcu_w, g.mcu_h), (8, 8));
        assert_eq!((g.mcus_x, g.mcus_y), (8, 6));
        for c in &g.comps {
            assert_eq!(c.width_blocks, 8);
            assert_eq!(c.height_blocks, 6);
        }
        assert_eq!(g.total_blocks, 3 * 48);
    }

    #[test]
    fn geometry_422() {
        let g = Geometry::new(64, 48, Subsampling::S422).unwrap();
        assert_eq!((g.mcu_w, g.mcu_h), (16, 8));
        assert_eq!((g.mcus_x, g.mcus_y), (4, 6));
        assert_eq!(g.comps[0].width_blocks, 8);
        assert_eq!(g.comps[1].width_blocks, 4);
        assert_eq!(g.comps[2].width_blocks, 4);
        // Y plane: 48 blocks, chroma: 24 each.
        assert_eq!(g.total_blocks, 48 + 24 + 24);
        assert_eq!(g.comps[1].plane_block_offset, 48);
        assert_eq!(g.comps[2].plane_block_offset, 72);
    }

    #[test]
    fn geometry_420() {
        let g = Geometry::new(33, 17, Subsampling::S420).unwrap();
        assert_eq!((g.mcu_w, g.mcu_h), (16, 16));
        assert_eq!((g.mcus_x, g.mcus_y), (3, 2));
        assert_eq!(g.comps[0].width_blocks, 6);
        assert_eq!(g.comps[0].height_blocks, 4);
        assert_eq!(g.comps[1].width_blocks, 3);
        assert_eq!(g.comps[1].height_blocks, 2);
    }

    #[test]
    fn non_multiple_dimensions_pad_up() {
        let g = Geometry::new(17, 9, Subsampling::S422).unwrap();
        assert_eq!((g.mcus_x, g.mcus_y), (2, 2));
        assert_eq!(g.comps[0].plane_width(), 32);
        assert_eq!(g.comps[0].plane_height(), 16);
    }

    #[test]
    fn pixel_row_round_trips() {
        let g = Geometry::new(128, 128, Subsampling::S422).unwrap();
        assert_eq!(g.mcu_rows_to_pixel_rows(0, 2), (0, 16));
        assert_eq!(g.pixel_rows_to_mcu_rows(16), 2);
        assert_eq!(g.pixel_rows_to_mcu_rows(17), 3);
        assert_eq!(g.round_rows_to_mcu(12.0), 2); // 12/8 = 1.5 rounds to 2
        assert_eq!(g.round_rows_to_mcu(11.9), 1);
        assert_eq!(g.round_rows_to_mcu(-5.0), 0);
        assert_eq!(g.round_rows_to_mcu(1e9), g.mcus_y);
    }

    #[test]
    fn transfer_sizes() {
        let g = Geometry::new(32, 32, Subsampling::S444).unwrap();
        // One MCU row: 4 blocks per component = 12 blocks = 12*128 bytes.
        assert_eq!(g.coef_bytes_in_mcu_rows(0, 1), 12 * 128);
        assert_eq!(g.rgb_bytes_in_mcu_rows(0, 1), 8 * 32 * 3);
        // Clipping: last MCU row of a 17px-high image covers 1 pixel row.
        let g = Geometry::new(32, 17, Subsampling::S444).unwrap();
        assert_eq!(g.rgb_bytes_in_mcu_rows(2, 3), 32 * 3);
    }

    #[test]
    fn extreme_sizes_match_a_wide_oracle() {
        // Arithmetic only: the largest frames are never allocated. The
        // oracle recomputes every quantity in u128 from the sampling table,
        // so an overflow or a clipping slip in the usize code shows.
        for (w, h) in [
            (1, 1),
            (1, 65535),
            (65535, 1),
            (65535, 65535),
            (65535, 65521),
        ] {
            for (sub, hs, vs) in [
                (Subsampling::S444, 1u128, 1u128),
                (Subsampling::S422, 2, 1),
                (Subsampling::S420, 2, 2),
            ] {
                let ctx = format!("{w}x{h} {}", sub.notation());
                let g = Geometry::new(w, h, sub).unwrap();
                let (w, h) = (w as u128, h as u128);
                let (mcu_w, mcu_h) = (8 * hs, 8 * vs);
                let (mx, my) = (w.div_ceil(mcu_w), h.div_ceil(mcu_h));
                assert_eq!((g.mcus_x as u128, g.mcus_y as u128), (mx, my), "{ctx}");
                // (width, height) in blocks of Y, Cb, Cr.
                let dims = [(mx * hs, my * vs), (mx, my), (mx, my)];
                let total: u128 = dims.iter().map(|(bw, bh)| bw * bh).sum();
                assert_eq!(g.total_blocks as u128, total, "{ctx}");
                let mut offset = 0u128;
                for (c, (bw, bh)) in dims.into_iter().enumerate() {
                    let last = g.block_index(c, bw as usize - 1, bh as usize - 1);
                    assert_eq!(last as u128, offset + bw * bh - 1, "{ctx} comp {c}");
                    offset += bw * bh;
                }
                let per_row = mx * hs * vs + 2 * mx;
                let my = my as usize;
                for (a, b) in [(0, my), (0, 1), (my - 1, my), (my / 2, my), (my, my)] {
                    let ctx = format!("{ctx} rows {a}..{b}");
                    let blocks = (b - a) as u128 * per_row;
                    assert_eq!(g.blocks_in_mcu_rows(a, b) as u128, blocks, "{ctx}");
                    let coef = g.coef_bytes_in_mcu_rows(a, b) as u128;
                    assert_eq!(coef, blocks * 128, "{ctx}");
                    let (p0, p1) = ((a as u128 * mcu_h).min(h), (b as u128 * mcu_h).min(h));
                    let (g0, g1) = g.mcu_rows_to_pixel_rows(a, b);
                    assert_eq!((g0 as u128, g1 as u128), (p0, p1), "{ctx}");
                    let rgb = g.rgb_bytes_in_mcu_rows(a, b) as u128;
                    assert_eq!(rgb, (p1 - p0) * w * 3, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn zero_and_oversized_dimensions_rejected() {
        assert!(Geometry::new(0, 10, Subsampling::S444).is_err());
        assert!(Geometry::new(10, 0, Subsampling::S444).is_err());
        assert!(Geometry::new(70000, 10, Subsampling::S444).is_err());
    }

    #[test]
    fn block_index_layout_is_planar() {
        let g = Geometry::new(32, 16, Subsampling::S422).unwrap();
        // Y plane first, row-major blocks.
        assert_eq!(g.block_index(0, 0, 0), 0);
        assert_eq!(g.block_index(0, 3, 1), 4 + 3);
        // Cb plane follows all Y blocks.
        assert_eq!(g.block_index(1, 0, 0), 8);
        assert_eq!(g.block_index(2, 0, 0), 12);
    }
}
