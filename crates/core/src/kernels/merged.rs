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

use super::color::ColorKernel;
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
    /// Work-groups needed (over the shared 4:4:4 block grid).
    pub fn num_groups(&self) -> usize {
        self.layout.comp_blocks[0].div_ceil(self.blocks_per_group)
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
        // Three components' intermediates per block position.
        self.blocks_per_group * 3 * BLOCK_LMEM_STRIDE * 8
    }

    fn run_group(&self, ctx: &mut GroupCtx<'_>) {
        let nblocks = self.layout.comp_blocks[0];
        let wb = self.layout.comp_width_blocks[0];
        let first_block = ctx.group_id * self.blocks_per_group;
        let (coef, eobs, rgb) = (self.coef, self.eobs, self.rgb);
        let width = self.layout.width;
        let pixel_rows = self.layout.pixel_rows;
        let lstride = BLOCK_LMEM_STRIDE;

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

        // Phase 2 — row pass ×3 plus color conversion from registers.
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
            let by = bidx / wb;
            let bx = bidx % wb;
            let y_px = by * 8 + row;
            if !it.branch(y_px < pixel_rows) {
                return;
            }
            ColorKernel::convert_segment(
                it,
                rgb,
                width,
                y_px,
                bx * 8,
                &rows[0],
                &rows[1],
                &rows[2],
            );
        });
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

    /// Work-groups needed (over the chroma block grid).
    pub fn num_groups(&self) -> usize {
        self.layout.comp_blocks[1].div_ceil(self.blocks_per_group)
    }

    /// Map a work-item id to (local block, output row, odd parity).
    #[inline]
    fn decompose(&self, id: usize) -> (usize, usize, bool) {
        let rows_per_block = self.items_per_block() / 2;
        if self.parity_major {
            // First half of the group: even halves of every row of every
            // block; second half: odd halves — warps never mix parity.
            let half = self.blocks_per_group * rows_per_block;
            let odd = id >= half;
            let idx = id % half;
            (idx / rows_per_block, idx % rows_per_block, odd)
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

    fn run_group(&self, ctx: &mut GroupCtx<'_>) {
        let nblocks = self.layout.comp_blocks[1];
        let wb = self.layout.comp_width_blocks[1];
        let c_stride = self.layout.plane_stride[1];
        let cb_base = self.layout.plane_base[1];
        let cr_base = self.layout.plane_base[2];
        let y_base = self.layout.plane_base[0];
        let y_stride = self.layout.plane_stride[0];
        let first_block = ctx.group_id * self.blocks_per_group;
        let (planes, rgb) = (self.planes, self.rgb);
        let width = self.layout.width;
        let pixel_rows = self.layout.pixel_rows;

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

            // Load the 8 luma samples for this half-row and convert.
            let x0 = bx * 16 + if odd { 8 } else { 0 };
            let yv = it.gload_vec8(planes, y_base + y_px * y_stride + x0);
            ColorKernel::convert_segment(it, rgb, width, y_px, x0, &yv, &cb, &cr);
        });
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
        let geom = &prep.geom;
        let (coefbuf, _) = prep.entropy_decode_all().unwrap();
        let layout = RegionLayout::new(geom, 0, geom.mcus_y);

        let mut sim = GpuSim::new(DeviceSpec::gtx560ti());
        let planes = sim.create_buffer(layout.planes_len);
        let rgb = sim.create_buffer(layout.rgb_len);
        let staged = stage_region(&mut sim, &layout, &coefbuf, geom, TransferMode::Compacted);

        for c in 0..3 {
            let k = IdctKernel {
                coef: staged.coef,
                eobs: staged.eobs,
                planes,
                layout: layout.clone(),
                comp: c,
                quant: prep.quant[c].values,
                blocks_per_group: 4,
                pad_lmem: true,
                access: staged.access,
            };
            sim.launch(&k, k.num_groups());
        }
        let k = UpsampleColorKernel {
            planes,
            rgb,
            layout: layout.clone(),
            v2: sub == Subsampling::S420,
            blocks_per_group: if sub == Subsampling::S420 { 4 } else { 8 },
            parity_major,
        };
        let stats = sim.launch(&k, k.num_groups());

        let mut want = vec![0u8; layout.rgb_len];
        stages::decode_region_rgb(&prep, &coefbuf, 0, geom.mcus_y, &mut want).unwrap();
        (
            sim.read_buffer(rgb).to_vec(),
            want,
            stats.divergent_branches,
        )
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
}
