//! GPU kernels for the parallel phase (paper §4.1–4.4).
//!
//! Every kernel runs the **same integer arithmetic** as the CPU stage
//! functions in `hetjpeg-jpeg`, decomposed into the paper's work-item
//! layout, so the heterogeneous schedulers produce byte-identical images no
//! matter where the partition falls:
//!
//! * [`idct::IdctKernel`] — 8 work-items per block, column pass in
//!   registers, intermediate in local memory, row pass + vectorized 8-byte
//!   stores (§4.1);
//! * [`upsample::UpsampleKernel422`] — 16 work-items per chroma block,
//!   even/odd row halves of Algorithm 1 (§4.2);
//! * [`color::ColorKernel`] — one work-item per 8-pixel row segment,
//!   24 output bytes packed into six `uchar4` vectors (§4.3, Fig. 4);
//! * [`merged::IdctColorKernel444`] — IDCT×3 + color conversion in one
//!   kernel for 4:4:4 (§4.4);
//! * [`merged::UpsampleColorKernel`] — upsampling + color conversion in one
//!   kernel for 4:2:2 / 4:2:0, 128 work-items per group, parity-major item
//!   order to avoid branch divergence (§4.4).
//!
//! The three pixel kernels convert into a work-group tile in local memory
//! and write it out as row-contiguous `uchar16` stores (`color.rs`
//! module docs).
//!
//! [`RegionLayout`] fixes the buffer geometry: a packed coefficient buffer
//! (planar Y‖Cb‖Cr, §4), per-component sample planes, and the interleaved
//! RGB output of Fig. 3(b).

pub mod color;
pub mod idct;
pub mod merged;
pub mod testutil;
pub mod upsample;

use hetjpeg_jpeg::geometry::Geometry;

/// How the IDCT-family kernels read their coefficient input (PR 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoefAccess {
    /// Dense packed blocks: 64 `i16` per block at
    /// `coef_base[c] + bidx * 64` — the pre-PR-9 layout (with or without a
    /// meaningful EOB sidecar).
    #[default]
    Dense,
    /// Compacted ≤EOB prefixes: block `i`'s class corner (`k`×`k` `i16`,
    /// row major, `k` from its EOB class) lives at offset-table entry `i`
    /// (`i16` units from the payload start), where `i` is the global
    /// packed block index `RegionLayout::eob_base(c) + bidx`. The kernels
    /// load only the corner — the coalescing cost of the now-irregular
    /// addresses is metered honestly by the simulator, which is exactly
    /// the trade the transfer benches price.
    Compacted {
        /// Per-block `u32` offset table buffer.
        offsets: hetjpeg_gpusim::BufId,
    },
}

/// Scalar-op charges for kernel arithmetic, shared by all kernels so the
/// timing model sees consistent work accounting.
pub mod ops {
    use hetjpeg_jpeg::dct::sparse::SparseClass;

    /// One 8-point islow IDCT butterfly (column or row pass), dense.
    pub const IDCT_1D: u64 = 50;
    /// One pruned 1-D IDCT pass per sparse class (DC-only flat, 2-input,
    /// 4-input, dense) — what the EOB-dispatched kernels charge since
    /// PR 5. The ratios follow the pruned butterflies' op counts (a
    /// DC-only pass is one shift + broadcast; the 2×2/4×4 passes keep a
    /// proportional share of the multiplies/adds).
    pub const IDCT_1D_BY_CLASS: [u64; 4] = [6, 16, 28, IDCT_1D];

    /// The 1-D IDCT charge for a block's sparse class.
    #[inline]
    pub fn idct_1d_class(class: SparseClass) -> u64 {
        IDCT_1D_BY_CLASS[class.index()]
    }

    /// Dequantizing one coefficient (multiply).
    pub const DEQUANT: u64 = 1;
    /// Producing one upsampled chroma sample (Algorithm 1 line).
    pub const UPSAMPLE_OUT: u64 = 4;
    /// Converting one pixel (Algorithm 2, fixed point).
    pub const COLOR_PX: u64 = 10;
    /// Range-limit + pack of one 8-sample row.
    pub const PACK_ROW: u64 = 10;
    /// Locating one 16-byte window of a tile copy-out (its run, its output
    /// and tile addresses) and shifting its staged words into place.
    pub const TILE_WINDOW: u64 = 6;
}

/// Byte/element offsets of one decode region inside the device buffers.
///
/// A *region* is a band of MCU rows `[row0, row1)` — either a whole image,
/// a partition's share, or one pipeline chunk (§4.5). The coefficient
/// buffer holds `CoefBuffer::pack_mcu_rows(row0, row1)`: per component, the
/// region's block rows contiguously.
#[derive(Debug, Clone)]
pub struct RegionLayout {
    /// First MCU row (inclusive).
    pub row0: usize,
    /// Last MCU row (exclusive).
    pub row1: usize,
    /// Image width in pixels.
    pub width: usize,
    /// Pixel rows covered (clipped to image height).
    pub pixel_rows: usize,
    /// Element offset of each component's blocks in the packed coefficient
    /// buffer (in i16 units).
    pub coef_base: [usize; 3],
    /// Number of blocks per component in the region.
    pub comp_blocks: [usize; 3],
    /// Blocks per row for each component.
    pub comp_width_blocks: [usize; 3],
    /// Block rows in the region per component.
    pub comp_block_rows: [usize; 3],
    /// Byte offset of each component's plane in the planes buffer.
    pub plane_base: [usize; 3],
    /// Row stride (bytes) of each component plane.
    pub plane_stride: [usize; 3],
    /// Total bytes of the planes buffer.
    pub planes_len: usize,
    /// Total bytes of the packed coefficient buffer.
    pub coef_bytes: usize,
    /// Bytes of the RGB output region.
    pub rgb_len: usize,
    /// Luma sampling factors (h, v).
    pub luma_samp: (usize, usize),
}

impl RegionLayout {
    /// Compute the layout for MCU rows `[row0, row1)` of an image.
    pub fn new(geom: &Geometry, row0: usize, row1: usize) -> Self {
        assert!(
            row0 < row1 && row1 <= geom.mcus_y,
            "invalid region {row0}..{row1}"
        );
        let mut coef_base = [0usize; 3];
        let mut comp_blocks = [0usize; 3];
        let mut comp_width_blocks = [0usize; 3];
        let mut comp_block_rows = [0usize; 3];
        let mut plane_base = [0usize; 3];
        let mut plane_stride = [0usize; 3];
        let mut coef_off = 0usize;
        let mut plane_off = 0usize;
        for (c, comp) in geom.comps.iter().enumerate() {
            let rows = (row1 - row0) * comp.v_samp;
            coef_base[c] = coef_off;
            comp_width_blocks[c] = comp.width_blocks;
            comp_block_rows[c] = rows;
            comp_blocks[c] = comp.width_blocks * rows;
            coef_off += comp_blocks[c] * 64;
            plane_base[c] = plane_off;
            plane_stride[c] = comp.plane_width();
            plane_off += comp.plane_width() * rows * 8;
        }
        let (p0, p1) = geom.mcu_rows_to_pixel_rows(row0, row1);
        RegionLayout {
            row0,
            row1,
            width: geom.width,
            pixel_rows: p1 - p0,
            coef_base,
            comp_blocks,
            comp_width_blocks,
            comp_block_rows,
            plane_base,
            plane_stride,
            planes_len: plane_off,
            coef_bytes: coef_off * 2,
            rgb_len: (p1 - p0) * geom.width * 3,
            luma_samp: geom.subsampling.luma_factors(),
        }
    }

    /// MCU rows in the region.
    pub fn mcu_rows(&self) -> usize {
        self.row1 - self.row0
    }

    /// Block offset of component `c` in the packed **EOB sidecar** buffer
    /// (one byte per block, same block order as the coefficient buffer —
    /// `CoefBuffer::pack_eobs_mcu_rows_into`).
    #[inline]
    pub fn eob_base(&self, c: usize) -> usize {
        self.coef_base[c] / 64
    }

    /// Total blocks in the region — the EOB sidecar's byte length.
    #[inline]
    pub fn eob_bytes(&self) -> usize {
        self.comp_blocks.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetjpeg_jpeg::types::Subsampling;

    #[test]
    fn layout_422_offsets() {
        let g = Geometry::new(64, 64, Subsampling::S422).unwrap();
        let l = RegionLayout::new(&g, 1, 3);
        assert_eq!(l.mcu_rows(), 2);
        // Y: 8 blocks/row x 2 rows, chroma 4 x 2.
        assert_eq!(l.comp_blocks, [16, 8, 8]);
        assert_eq!(l.coef_base, [0, 16 * 64, 24 * 64]);
        assert_eq!(l.coef_bytes, 32 * 64 * 2);
        // Planes: Y 64 wide x 16 rows; chroma 32 x 16.
        assert_eq!(l.plane_base, [0, 64 * 16, 64 * 16 + 32 * 16]);
        assert_eq!(l.plane_stride, [64, 32, 32]);
        assert_eq!(l.rgb_len, 16 * 64 * 3);
    }

    #[test]
    fn layout_clips_pixel_rows() {
        let g = Geometry::new(32, 20, Subsampling::S444).unwrap();
        // Rows 2..3 cover pixel rows 16..20 only.
        let l = RegionLayout::new(&g, 2, 3);
        assert_eq!(l.pixel_rows, 4);
        assert_eq!(l.rgb_len, 4 * 32 * 3);
    }

    #[test]
    #[should_panic(expected = "invalid region")]
    fn layout_rejects_empty_region() {
        let g = Geometry::new(32, 32, Subsampling::S444).unwrap();
        let _ = RegionLayout::new(&g, 2, 2);
    }

    #[test]
    fn layout_420_has_double_luma_rows() {
        let g = Geometry::new(64, 64, Subsampling::S420).unwrap();
        let l = RegionLayout::new(&g, 0, 1);
        // One MCU row = 2 luma block rows, 1 chroma block row.
        assert_eq!(l.comp_block_rows, [2, 1, 1]);
        assert_eq!(l.pixel_rows, 16);
    }
}
