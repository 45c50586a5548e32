//! Per-component sample planes between IDCT and color conversion.

use crate::geometry::Geometry;

/// Padded 8-bit sample storage for the three components after IDCT.
///
/// Chroma planes are stored at their *subsampled* resolution; upsampling
/// happens on the way into color conversion (merged, as in the §4.4 GPU
/// kernel) or explicitly via [`crate::decoder::stages`].
#[derive(Debug, Clone)]
pub struct SamplePlanes {
    /// One plane per component, `plane_width x plane_height` raster each.
    pub planes: [Vec<u8>; 3],
    /// Row stride (= padded plane width) per component.
    pub strides: [usize; 3],
}

impl SamplePlanes {
    /// Allocate zeroed planes for the image geometry.
    pub fn new(geom: &Geometry) -> Self {
        let mk = |c: usize| {
            let comp = &geom.comps[c];
            vec![0u8; comp.plane_width() * comp.plane_height()]
        };
        SamplePlanes {
            planes: [mk(0), mk(1), mk(2)],
            strides: [
                geom.comps[0].plane_width(),
                geom.comps[1].plane_width(),
                geom.comps[2].plane_width(),
            ],
        }
    }

    /// Write an 8x8 IDCT output block at block coordinates (`bx`, `by`) of
    /// component `c`.
    #[inline]
    pub fn store_block(&mut self, c: usize, bx: usize, by: usize, samples: &[u8; 64]) {
        let stride = self.strides[c];
        let base = by * 8 * stride + bx * 8;
        let plane = &mut self.planes[c];
        for (r, row) in samples.chunks_exact(8).enumerate() {
            let off = base + r * stride;
            plane[off..off + 8].copy_from_slice(row);
        }
    }

    /// Borrow one raster row of component `c`.
    #[inline]
    pub fn row(&self, c: usize, y: usize) -> &[u8] {
        let stride = self.strides[c];
        &self.planes[c][y * stride..(y + 1) * stride]
    }

    /// Mutably borrow one raster row of component `c`.
    #[inline]
    pub fn row_mut(&mut self, c: usize, y: usize) -> &mut [u8] {
        let stride = self.strides[c];
        &mut self.planes[c][y * stride..(y + 1) * stride]
    }

    /// Sample accessor with plane-local coordinates.
    #[inline]
    pub fn at(&self, c: usize, x: usize, y: usize) -> u8 {
        self.planes[c][y * self.strides[c] + x]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Subsampling;

    #[test]
    fn plane_sizes_follow_geometry() {
        let g = Geometry::new(20, 12, Subsampling::S422).unwrap();
        let p = SamplePlanes::new(&g);
        // Y: 2 MCUs wide => 32x16 padded.
        assert_eq!(p.planes[0].len(), 32 * 16);
        assert_eq!(p.strides[0], 32);
        // Chroma: 16x16 padded.
        assert_eq!(p.planes[1].len(), 16 * 16);
        assert_eq!(p.strides[1], 16);
    }

    #[test]
    fn store_block_lands_at_raster_position() {
        let g = Geometry::new(16, 16, Subsampling::S444).unwrap();
        let mut p = SamplePlanes::new(&g);
        let mut block = [0u8; 64];
        for (i, v) in block.iter_mut().enumerate() {
            *v = i as u8;
        }
        p.store_block(0, 1, 1, &block);
        assert_eq!(p.at(0, 8, 8), 0);
        assert_eq!(p.at(0, 9, 8), 1);
        assert_eq!(p.at(0, 8, 9), 8);
        assert_eq!(p.at(0, 15, 15), 63);
        // Outside the block untouched.
        assert_eq!(p.at(0, 0, 0), 0);
        assert_eq!(p.at(0, 7, 7), 0);
    }

    #[test]
    fn rows_are_stride_wide() {
        let g = Geometry::new(16, 16, Subsampling::S422).unwrap();
        let mut p = SamplePlanes::new(&g);
        p.row_mut(1, 3)[0] = 9;
        assert_eq!(p.row(1, 3).len(), p.strides[1]);
        assert_eq!(p.at(1, 0, 3), 9);
    }
}
