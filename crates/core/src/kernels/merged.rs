//! Merged kernels (paper §4.4).
//!
//! "Previously stored data in local memory is no longer accessible on the
//! next kernel invocation. Intermediate results must be stored back to
//! global memory at the end of each kernel invocation, which generates
//! unnecessary memory traffic. Because the computation of color conversion
//! has no data dependency among pixels, it can be merged with the preceding
//! kernel."
//!
//! * 4:4:4 → [`IdctColorKernel444`]: the IDCT kernel "repeats the
//!   computation three times for the three color spaces" and converts the
//!   row it already holds in registers.
//! * 4:2:2 → [`UpsampleColorKernel`]: "We use two OpenCL work-items to
//!   perform upsampling on a Cb and Cr row such that at the end of
//!   upsampling, chrominance information of one row is stored in the
//!   registers of each work-item. ... Our work-group in the merged kernel,
//!   consisting of 128 work-items, processes two groups of four blocks.
//!   ... 64 work-items compute upsampling on the same index of different
//!   eight-pixel row segments to avoid branch-divergence."
//! * 4:2:0 is handled "in a similar manner as 4:2:2" with an extra
//!   vertical blend.
//!
//! Neither kernel stores a pixel from its work-item. Both convert into the
//! group's output tile in local memory (`color.rs` module docs) and, after
//! a barrier, write the tile out as row runs of aligned `uchar16` stores:
//!
//! * `UpsampleColorKernel`'s tile is the pixel rows of its chroma blocks,
//!   16 px wide each: 8 rows × 128 px for 4:2:2 at 8 blocks a group, 16
//!   rows × 64 px for 4:2:0 at 4, i.e. 3 072 bytes of pixels, plus one
//!   4-byte pad a row (3 104 and 3 136 bytes of `local_bytes`). Its items
//!   run blocks fastest within each parity half, so a warp's plane loads
//!   span a row of the group's blocks.
//! * `IdctColorKernel444`'s tile follows its column-pass intermediates: 8
//!   rows of `blocks_per_group` 8×8 blocks, 8 · (24 · `blocks_per_group`
//!   + 4) bytes.

use super::color::Tile;
use super::idct::BLOCK_LMEM_STRIDE;
use super::ops;
use super::{CoefAccess, RegionLayout};
use hetjpeg_gpusim::{BufId, GroupCtx, Kernel};
use hetjpeg_jpeg::dct::sparse::{class_for_eob, idct_pass1_class, idct_row_class};
use hetjpeg_jpeg::sample::{upsample_h2v1_even_half, upsample_h2v1_odd_half, upsample_v2_pair};

/// Merged dequant + IDCT (×3 components) + color conversion for 4:4:4.
/// Like [`super::idct::IdctKernel`], the IDCT halves are EOB-dispatched
/// per component block since PR 5 (one sidecar byte per block).
pub struct IdctColorKernel444 {
    /// Packed coefficient buffer (i16).
    pub coef: BufId,
    /// Per-block EOB sidecar (u8, same block order as `coef`).
    pub eobs: BufId,
    /// RGB output buffer.
    pub rgb: BufId,
    /// Region geometry.
    pub layout: RegionLayout,
    /// Per-component quantization tables (constant memory).
    pub quant: [[u16; 64]; 3],
    /// Block positions per work-group (8 items each).
    pub blocks_per_group: usize,
    /// Coefficient layout: dense packed blocks or PR 9's compacted
    /// class-corner payload with an offset table.
    pub access: CoefAccess,
}

impl IdctColorKernel444 {
    /// Local bytes of the three components' column-pass intermediates.
    fn idct_bytes(&self) -> usize {
        self.blocks_per_group * 3 * BLOCK_LMEM_STRIDE * 8
    }

    /// The group's output tile, after the intermediates: 8 rows of
    /// `blocks_per_group` 8×8 blocks.
    fn tile(&self) -> Tile {
        Tile {
            base: self.idct_bytes(),
            blocks: self.blocks_per_group,
            block_w: 8,
            block_h: 8,
            grid_w: self.layout.comp_width_blocks[0],
            grid_blocks: self.layout.comp_blocks[0],
            width: self.layout.width,
            pixel_rows: self.layout.pixel_rows,
            rgb: self.rgb,
        }
    }

    /// Work-groups needed (over the shared 4:4:4 block grid).
    pub fn num_groups(&self) -> usize {
        self.tile().groups()
    }
}

impl Kernel for IdctColorKernel444 {
    fn name(&self) -> &'static str {
        "idct+color (4:4:4)"
    }

    fn items_per_group(&self) -> usize {
        self.blocks_per_group * 8
    }

    fn local_bytes(&self) -> usize {
        // Three components' intermediates per block position, then the tile.
        self.idct_bytes() + self.tile().bytes()
    }

    fn run_group(&self, ctx: &mut GroupCtx<'_>) {
        let nblocks = self.layout.comp_blocks[0];
        let wb = self.layout.comp_width_blocks[0];
        let first_block = ctx.group_id * self.blocks_per_group;
        let (coef, eobs) = (self.coef, self.eobs);
        let pixel_rows = self.layout.pixel_rows;
        let lstride = BLOCK_LMEM_STRIDE;
        let tile = self.tile();

        // Phase 1 — column pass for all three components ("the IDCT kernel
        // repeats the computation three times for the three color spaces"),
        // each component's block EOB-dispatched for compute while the
        // loads stay dense (coalescing — see the idct module docs).
        ctx.phase(|it| {
            let lb = it.id() / 8;
            let col = it.id() % 8;
            let bidx = first_block + lb;
            if !it.branch(bidx < nblocks) {
                return;
            }
            for c in 0..3 {
                let class = class_for_eob(it.gload_u8(eobs, self.layout.eob_base(c) + bidx));
                let lmem_base = (lb * 3 + c) * lstride;
                // Data-dependent dispatch, two class bits (see idct.rs).
                it.branch(class.index() & 1 != 0);
                it.branch(class.index() & 2 != 0);
                let mut v = [0i64; 8];
                match self.access {
                    CoefAccess::Dense => {
                        let base = self.layout.coef_base[c] + bidx * 64;
                        for (r, slot) in v.iter_mut().enumerate() {
                            let raw = it.gload_i16(coef, (base + r * 8 + col) * 2) as i64;
                            it.charge(ops::DEQUANT);
                            *slot = raw * self.quant[c][r * 8 + col] as i64;
                        }
                    }
                    CoefAccess::Compacted { offsets } => {
                        // Broadcast offset word, then the block's k×k
                        // corner — see the idct kernel's compacted arm.
                        let off =
                            it.gload_u32(offsets, (self.layout.eob_base(c) + bidx) * 4) as usize;
                        let k = class.live_k();
                        if it.branch(col < k) {
                            for (r, slot) in v.iter_mut().enumerate().take(k) {
                                let raw = it.gload_i16(coef, (off + r * k + col) * 2) as i64;
                                it.charge(ops::DEQUANT);
                                *slot = raw * self.quant[c][r * 8 + col] as i64;
                            }
                        }
                    }
                }
                it.charge(ops::idct_1d_class(class));
                let out = idct_pass1_class(v, class);
                for (r, &val) in out.iter().enumerate() {
                    it.lstore_i64((lmem_base + r * 8 + col) * 8, val);
                }
            }
        });

        // Phase 2 — row pass ×3 plus color conversion from registers into
        // the tile.
        ctx.phase(|it| {
            let lb = it.id() / 8;
            let row = it.id() % 8;
            let bidx = first_block + lb;
            if !it.branch(bidx < nblocks) {
                return;
            }
            let mut rows = [[0u8; 8]; 3];
            for (c, row_out) in rows.iter_mut().enumerate() {
                let class = class_for_eob(it.gload_u8(eobs, self.layout.eob_base(c) + bidx));
                let lmem_base = (lb * 3 + c) * lstride;
                it.branch(class.index() & 1 != 0);
                it.branch(class.index() & 2 != 0);
                let mut v = [0i64; 8];
                for (k, slot) in v.iter_mut().enumerate() {
                    *slot = it.lload_i64((lmem_base + row * 8 + k) * 8);
                }
                it.charge(ops::idct_1d_class(class) + ops::PACK_ROW);
                *row_out = idct_row_class(&v, class);
            }
            if !it.branch((bidx / wb) * 8 + row < pixel_rows) {
                return;
            }
            tile.convert_segment(it, lb, row, 0, &rows[0], &rows[1], &rows[2]);
        });

        // Phase 3 — the tile's row runs out to the RGB buffer.
        tile.store(ctx);
    }
}

/// Merged upsampling + color conversion for 4:2:2 and 4:2:0.
pub struct UpsampleColorKernel {
    /// Sample planes (u8) written by the IDCT kernel.
    pub planes: BufId,
    /// RGB output buffer.
    pub rgb: BufId,
    /// Region geometry.
    pub layout: RegionLayout,
    /// Vertical chroma upsampling too (4:2:0)?
    pub v2: bool,
    /// Chroma blocks per work-group. The paper's 128-item group is 8 blocks
    /// for 4:2:2 (16 items each) and 4 blocks for 4:2:0 (32 items each).
    pub blocks_per_group: usize,
    /// Parity-major item ordering (the paper's §4.4 anti-divergence layout).
    /// `false` only for the ablation bench.
    pub parity_major: bool,
}

impl UpsampleColorKernel {
    /// Items serving one chroma block.
    fn items_per_block(&self) -> usize {
        if self.v2 {
            32 // 16 output rows x 2 halves
        } else {
            16 // 8 output rows x 2 halves
        }
    }

    /// The group's output tile: the pixel rows of `blocks_per_group`
    /// chroma blocks, 16 pixels wide each (8 rows × 128 px for 4:2:2, 16
    /// rows × 64 px for 4:2:0 at the paper's group sizes).
    fn tile(&self) -> Tile {
        Tile {
            base: 0,
            blocks: self.blocks_per_group,
            block_w: 16,
            block_h: self.items_per_block() / 2,
            grid_w: self.layout.comp_width_blocks[1],
            grid_blocks: self.layout.comp_blocks[1],
            width: self.layout.width,
            pixel_rows: self.layout.pixel_rows,
            rgb: self.rgb,
        }
    }

    /// Work-groups needed (over the chroma block grid).
    pub fn num_groups(&self) -> usize {
        self.tile().groups()
    }

    /// Map a work-item id to (local block, output row, odd parity).
    #[inline]
    fn decompose(&self, id: usize) -> (usize, usize, bool) {
        let rows_per_block = self.items_per_block() / 2;
        if self.parity_major {
            // First half of the group: even halves of every row of every
            // block; second half: odd halves — warps never mix parity.
            // Blocks fastest, so a warp's loads span a row of the group's
            // blocks.
            let half = self.blocks_per_group * rows_per_block;
            let odd = id >= half;
            let idx = id % half;
            (
                idx % self.blocks_per_group,
                idx / self.blocks_per_group,
                odd,
            )
        } else {
            // Naive order: (block, row, parity) interleaved.
            let per_block = self.items_per_block();
            let lb = id / per_block;
            let j = id % per_block;
            (lb, j / 2, j % 2 == 1)
        }
    }
}

impl Kernel for UpsampleColorKernel {
    fn name(&self) -> &'static str {
        if self.v2 {
            "upsample+color (4:2:0)"
        } else {
            "upsample+color (4:2:2)"
        }
    }

    fn items_per_group(&self) -> usize {
        self.blocks_per_group * self.items_per_block()
    }

    fn local_bytes(&self) -> usize {
        self.tile().bytes()
    }

    fn run_group(&self, ctx: &mut GroupCtx<'_>) {
        let nblocks = self.layout.comp_blocks[1];
        let wb = self.layout.comp_width_blocks[1];
        let c_stride = self.layout.plane_stride[1];
        let cb_base = self.layout.plane_base[1];
        let cr_base = self.layout.plane_base[2];
        let y_base = self.layout.plane_base[0];
        let y_stride = self.layout.plane_stride[0];
        let first_block = ctx.group_id * self.blocks_per_group;
        let planes = self.planes;
        let pixel_rows = self.layout.pixel_rows;
        let tile = self.tile();

        ctx.phase(|it| {
            let (lb, out_row, odd) = self.decompose(it.id());
            let bidx = first_block + lb;
            if !it.branch(bidx < nblocks) {
                return;
            }
            // The even/odd formula split of Algorithm 1: a real branch in
            // the OpenCL kernel, divergent only if a warp mixes parities.
            let odd = it.branch(odd);
            let by = bidx / wb;
            let bx = bidx % wb;

            // Which luma row does this item produce, and which chroma row(s)
            // feed it?
            let (y_px, near_row, far_row) = if self.v2 {
                let y_px = by * 16 + out_row;
                let cy = out_row / 2;
                let neigh = if out_row % 2 == 0 {
                    cy.saturating_sub(1)
                } else {
                    (cy + 1).min(7)
                };
                (y_px, by * 8 + cy, by * 8 + neigh)
            } else {
                let y_px = by * 8 + out_row;
                (y_px, by * 8 + out_row, by * 8 + out_row)
            };
            if !it.branch(y_px < pixel_rows) {
                return;
            }

            // Load the 8-sample chroma row segments as uchar8 vectors (both
            // components); for 4:2:0 also the vertical neighbour rows,
            // blended in registers.
            let mut cb_seg = it.gload_vec8(planes, cb_base + near_row * c_stride + bx * 8);
            let mut cr_seg = it.gload_vec8(planes, cr_base + near_row * c_stride + bx * 8);
            if self.v2 {
                let far_cb = it.gload_vec8(planes, cb_base + far_row * c_stride + bx * 8);
                let far_cr = it.gload_vec8(planes, cr_base + far_row * c_stride + bx * 8);
                it.charge(16 * ops::UPSAMPLE_OUT);
                for k in 0..8 {
                    cb_seg[k] = upsample_v2_pair(cb_seg[k], far_cb[k]);
                    cr_seg[k] = upsample_v2_pair(cr_seg[k], far_cr[k]);
                }
            }
            it.charge(16 * ops::UPSAMPLE_OUT);
            let (cb, cr) = if odd {
                (
                    upsample_h2v1_odd_half(&cb_seg),
                    upsample_h2v1_odd_half(&cr_seg),
                )
            } else {
                (
                    upsample_h2v1_even_half(&cb_seg),
                    upsample_h2v1_even_half(&cr_seg),
                )
            };

            // Load the 8 luma samples for this half-row and convert into
            // the tile.
            let half = if odd { 8 } else { 0 };
            let yv = it.gload_vec8(planes, y_base + y_px * y_stride + bx * 16 + half);
            tile.convert_segment(it, lb, out_row, half, &yv, &cb, &cr);
        });
        tile.store(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu_decode::TransferMode;
    use crate::kernels::idct::IdctKernel;
    use crate::kernels::testutil::stage_region;
    use hetjpeg_gpusim::{DeviceSpec, GpuSim};
    use hetjpeg_jpeg::decoder::{stages, Prepared};
    use hetjpeg_jpeg::encoder::{encode_rgb, EncodeParams};
    use hetjpeg_jpeg::types::Subsampling;

    fn make_jpeg(w: usize, h: usize, sub: Subsampling) -> Vec<u8> {
        let mut rgb = Vec::with_capacity(w * h * 3);
        for y in 0..h {
            for x in 0..w {
                rgb.extend_from_slice(&[
                    ((x * 3 + y * 13) % 256) as u8,
                    ((x * 17 + y * 5) % 256) as u8,
                    ((x + y * 11) % 256) as u8,
                ]);
            }
        }
        encode_rgb(
            &rgb,
            w as u32,
            h as u32,
            &EncodeParams {
                quality: 78,
                subsampling: sub,
                restart_interval: 0,
            },
        )
        .unwrap()
    }

    #[test]
    fn merged_444_matches_cpu_region_bitexact() {
        for (w, h) in [(32usize, 32usize), (52, 37)] {
            for mode in [TransferMode::Dense, TransferMode::Compacted] {
                let jpeg = make_jpeg(w, h, Subsampling::S444);
                let prep = Prepared::new(&jpeg).unwrap();
                let geom = &prep.geom;
                let (coefbuf, _) = prep.entropy_decode_all().unwrap();
                let layout = RegionLayout::new(geom, 0, geom.mcus_y);

                let mut sim = GpuSim::new(DeviceSpec::gtx680());
                let rgb = sim.create_buffer(layout.rgb_len);
                let staged = stage_region(&mut sim, &layout, &coefbuf, geom, mode);

                let k = IdctColorKernel444 {
                    coef: staged.coef,
                    eobs: staged.eobs,
                    rgb,
                    layout: layout.clone(),
                    quant: [
                        prep.quant[0].values,
                        prep.quant[1].values,
                        prep.quant[2].values,
                    ],
                    blocks_per_group: 4,
                    access: staged.access,
                };
                sim.launch(&k, k.num_groups());

                let mut want = vec![0u8; layout.rgb_len];
                stages::decode_region_rgb(&prep, &coefbuf, 0, geom.mcus_y, &mut want).unwrap();
                assert_eq!(sim.read_buffer(rgb), &want[..], "{w}x{h} {mode:?}");
            }
        }
    }

    fn run_merged_chroma(
        sub: Subsampling,
        w: usize,
        h: usize,
        parity_major: bool,
    ) -> (Vec<u8>, Vec<u8>, u64) {
        let jpeg = make_jpeg(w, h, sub);
        let prep = Prepared::new(&jpeg).unwrap();
        let (coefbuf, _) = prep.entropy_decode_all().unwrap();
        let rows = (0, prep.geom.mcus_y);
        let wg = if sub == Subsampling::S420 { 4 } else { 8 };
        let (got, want, stats) = run_tiled(&prep, &coefbuf, rows, wg, true, parity_major);
        (got, want, stats.divergent_branches)
    }

    #[test]
    fn merged_422_matches_cpu_region_bitexact() {
        for (w, h) in [(64usize, 32usize), (50, 23)] {
            let (got, want, _) = run_merged_chroma(Subsampling::S422, w, h, true);
            assert_eq!(got, want, "{w}x{h}");
        }
    }

    #[test]
    fn merged_420_matches_cpu_region_bitexact() {
        for (w, h) in [(64usize, 64usize), (48, 35)] {
            let (got, want, _) = run_merged_chroma(Subsampling::S420, w, h, true);
            assert_eq!(got, want, "{w}x{h}");
        }
    }

    #[test]
    fn parity_major_order_eliminates_divergence() {
        // On an MCU-aligned image the parity-major layout should show no
        // divergence, while the naive interleaved order diverges in every
        // warp (§4.4's design rationale).
        let (_, _, div_good) = run_merged_chroma(Subsampling::S422, 128, 64, true);
        let (got, want, div_bad) = run_merged_chroma(Subsampling::S422, 128, 64, false);
        assert_eq!(got, want, "naive order must still be correct");
        assert_eq!(div_good, 0, "parity-major should not diverge");
        assert!(div_bad > 0, "interleaved order should diverge");
    }

    /// The RGB of MCU rows `rows` through one tiled kernel of `wg` blocks
    /// a group — `merged`: `IdctColorKernel444` or IDCT +
    /// `UpsampleColorKernel` (in `parity_major` order or the naive one);
    /// unmerged: IDCT (+ `UpsampleKernel422`) + `ColorKernel` — with that
    /// kernel's launch statistics, and the CPU's RGB of the same rows.
    fn run_tiled(
        prep: &Prepared<'_>,
        coefbuf: &hetjpeg_jpeg::coef::CoefBuffer,
        rows: (usize, usize),
        wg: usize,
        merged: bool,
        parity_major: bool,
    ) -> (Vec<u8>, Vec<u8>, hetjpeg_gpusim::LaunchStats) {
        use crate::kernels::color::ColorKernel;
        use crate::kernels::upsample::UpsampleKernel422;
        let geom = &prep.geom;
        let layout = RegionLayout::new(geom, rows.0, rows.1);
        let mut sim = GpuSim::new(DeviceSpec::gtx560ti());
        let planes = sim.create_buffer(layout.planes_len);
        let rgb = sim.create_buffer(layout.rgb_len);
        let staged = stage_region(&mut sim, &layout, coefbuf, geom, TransferMode::Compacted);
        let quant = |c: usize| prep.quant[c].values;
        let sub = geom.subsampling;
        let stats = if merged && sub == Subsampling::S444 {
            let k = IdctColorKernel444 {
                coef: staged.coef,
                eobs: staged.eobs,
                rgb,
                layout: layout.clone(),
                quant: [quant(0), quant(1), quant(2)],
                blocks_per_group: wg,
                access: staged.access,
            };
            sim.launch(&k, k.num_groups())
        } else {
            for c in 0..3 {
                let k = IdctKernel {
                    coef: staged.coef,
                    eobs: staged.eobs,
                    planes,
                    layout: layout.clone(),
                    comp: c,
                    quant: quant(c),
                    blocks_per_group: 4,
                    pad_lmem: true,
                    access: staged.access,
                };
                sim.launch(&k, k.num_groups());
            }
            if merged {
                let k = UpsampleColorKernel {
                    planes,
                    rgb,
                    layout: layout.clone(),
                    v2: sub == Subsampling::S420,
                    blocks_per_group: wg,
                    parity_major,
                };
                sim.launch(&k, k.num_groups())
            } else {
                let lw = layout.plane_stride[0];
                let mut chroma = (planes, layout.plane_base[1], layout.plane_base[2]);
                if sub == Subsampling::S422 {
                    let lrows = layout.comp_block_rows[0] * 8;
                    let upsampled = sim.create_buffer(2 * lw * lrows);
                    for (comp, out_base) in [(1usize, 0usize), (2, lw * lrows)] {
                        let k = UpsampleKernel422 {
                            planes,
                            upsampled,
                            layout: layout.clone(),
                            comp,
                            out_base,
                            out_stride: lw,
                            blocks_per_group: 8,
                        };
                        sim.launch(&k, k.num_groups());
                    }
                    chroma = (upsampled, 0, lw * lrows);
                }
                let k = ColorKernel {
                    y_buf: planes,
                    y_base: layout.plane_base[0],
                    y_stride: lw,
                    cb_buf: chroma.0,
                    cb_base: chroma.1,
                    cr_buf: chroma.0,
                    cr_base: chroma.2,
                    c_stride: lw,
                    rgb,
                    width: layout.width,
                    rows: layout.pixel_rows,
                    blocks_per_group: wg,
                };
                sim.launch(&k, k.num_groups())
            }
        };
        let mut want = vec![0u8; layout.rgb_len];
        stages::decode_region_rgb(prep, coefbuf, rows.0, rows.1, &mut want).unwrap();
        (sim.read_buffer(rgb).to_vec(), want, stats)
    }

    #[test]
    fn tiled_kernels_match_decode_region_rgb() {
        // Every tiled kernel, bit for bit against the CPU region decode:
        // ragged widths and heights, whole images and chunks from an MCU
        // row past the first, three group sizes. Groups straddling a block
        // row's end and last groups past the final block both occur; debug
        // builds also check that the groups' copy-outs write disjoint
        // ranges (the launch audit).
        let (mut straddles, mut past_end) = (0usize, 0usize);
        for sub in [Subsampling::S444, Subsampling::S422, Subsampling::S420] {
            for w in [1usize, 17, 50, 127, 300, 1031] {
                for h in [1usize, 23, 93] {
                    let jpeg = make_jpeg(w, h, sub);
                    let prep = Prepared::new(&jpeg).unwrap();
                    let (coefbuf, _) = prep.entropy_decode_all().unwrap();
                    let n = prep.geom.mcus_y;
                    let mut regions = vec![(0, n)];
                    if n > 1 {
                        regions.extend([(1, n), (n / 2, n / 2 + 1)]);
                    }
                    for &rows in &regions {
                        let layout = RegionLayout::new(&prep.geom, rows.0, rows.1);
                        // The tiles' block grid: luma for 4:4:4, else chroma.
                        let c = usize::from(sub != Subsampling::S444);
                        let (wb, blocks) = (layout.comp_width_blocks[c], layout.comp_blocks[c]);
                        for wg in [4usize, 8, 32] {
                            straddles += usize::from(wb % wg != 0 && blocks > wb);
                            past_end += usize::from(blocks % wg != 0);
                            for merged in [true, false] {
                                if !merged && sub == Subsampling::S420 {
                                    continue; // no unmerged 4:2:0 plan
                                }
                                let (got, want, _) =
                                    run_tiled(&prep, &coefbuf, rows, wg, merged, true);
                                assert!(
                                    got == want,
                                    "{sub:?} {w}x{h} rows {rows:?} wg {wg} merged {merged}"
                                );
                            }
                        }
                    }
                }
            }
        }
        assert!(straddles > 0 && past_end > 0, "{straddles} {past_end}");
    }

    #[test]
    fn merged_kernels_write_whole_segments() {
        // A 512×512 image's RGB is 786 432 bytes: at least 6 144 write
        // transactions. The tile copy-out may pay one more per tile row
        // (a run that shares a 128-byte segment with its neighbour's). The
        // per-item stores paid one per item row in each warp slot: 98 304
        // for 4:2:2 (gpu_kernel_inspect). Measured: 4:2:2 6 144; 4:4:4 and
        // 4:2:0 8 704, because their tile rows are 192 bytes (8 blocks of
        // 8 px, 4 of 16), so every other run shares a segment with its
        // neighbour's, and a run whose windows two warps split pays its
        // middle segment twice.
        let want = [
            (Subsampling::S444, 8704),
            (Subsampling::S422, 6144),
            (Subsampling::S420, 8704),
        ];
        for (sub, tx) in want {
            let jpeg = make_jpeg(512, 512, sub);
            let prep = Prepared::new(&jpeg).unwrap();
            let (coefbuf, _) = prep.entropy_decode_all().unwrap();
            let n = prep.geom.mcus_y;
            let wg = if sub == Subsampling::S420 { 4 } else { 8 };
            let (got, want, stats) = run_tiled(&prep, &coefbuf, (0, n), wg, true, true);
            assert!(got == want, "{sub:?}");
            let rgb = 512 * 512 * 3;
            let tile_rows = stats.groups * if sub == Subsampling::S420 { 16 } else { 8 };
            assert!(
                stats.gmem_write_transactions <= (rgb as u64).div_ceil(128) + tile_rows,
                "{sub:?}: {stats:?}"
            );
            assert_eq!(stats.gmem_write_transactions, tx, "{sub:?}");
        }
    }
}
