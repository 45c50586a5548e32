//! The IDCT kernel (paper §4.1), EOB-dispatched since PR 5.
//!
//! "We employ eight OpenCL work-items per block. The input data is
//! de-quantized after being loaded from global memory. Each work-item
//! performs the column pass followed by the row pass. A work-item stores an
//! eight-pixel column directly to its registers ... The intermediate results
//! from the column pass are shared among work-items within a group to
//! process the row pass. Thus, local memory is the suitable choice. ...
//! a work-group performs IDCT on a multiple of four blocks to ensure that
//! the number of work-items per group is a multiple of 32."
//!
//! The paper's GPU baseline runs every block dense; Weißenberger & Schmidt
//! (PAPERS.md) show sparsity-aware GPU IDCT kernels win. Since PR 5 the
//! kernel ships a one-byte-per-block **EOB sidecar** alongside the packed
//! coefficients and dispatches each block to the same pruned sparse
//! classes as the CPU paths ([`hetjpeg_jpeg::dct::sparse`]): the butterfly
//! work per 1-D pass is charged per class ([`ops::IDCT_1D_BY_CLASS`]), so
//! the simulated kernel time — and through it the trained `PGPU` band
//! pricing — finally sees sparsity. The **memory access pattern stays
//! uniform** across the warp (every item issues the dense load/store
//! sequence): pruning the loads per class would misalign the warp's
//! access slots in mixed-class warps and serialize what the §4.1 layout
//! carefully coalesces — on the simulator's transaction model exactly as
//! on real hardware, the coalescing loss would cost more than the skipped
//! bytes. The class dispatch itself is recorded as a (potentially
//! divergent) branch, so mixed-class warps pay the honest divergence
//! charge the dense baseline never had. Output stays bit-identical: the
//! pruned passes drop only exact zeros.

use super::ops;
use super::{CoefAccess, RegionLayout};
use hetjpeg_gpusim::{BufId, GroupCtx, Kernel};
use hetjpeg_jpeg::dct::sparse::{class_for_eob, idct_pass1_class, idct_row_class};

/// Local-memory stride per block in i64 units; padded from 64 to reduce
/// shared-memory bank conflicts between the column and row passes. The
/// `ablations` bench compares this against the unpadded layout.
pub const BLOCK_LMEM_STRIDE: usize = 65;

/// Dequantize + 2-D IDCT of one component's blocks into its sample plane.
pub struct IdctKernel {
    /// Packed coefficient buffer (i16).
    pub coef: BufId,
    /// Per-block EOB sidecar (u8, same block order as `coef`).
    pub eobs: BufId,
    /// Sample planes buffer (u8).
    pub planes: BufId,
    /// Region geometry.
    pub layout: RegionLayout,
    /// Which component this launch covers.
    pub comp: usize,
    /// Quantization table (natural order) — constant memory.
    pub quant: [u16; 64],
    /// Blocks per work-group (a multiple of 4; tuned in profiling, §5.1).
    pub blocks_per_group: usize,
    /// Pad local memory rows (the optimized layout). `false` only for the
    /// ablation bench.
    pub pad_lmem: bool,
    /// Coefficient layout: dense packed blocks or PR 9's compacted
    /// class-corner payload with an offset table.
    pub access: CoefAccess,
}

impl IdctKernel {
    /// Number of work-groups needed for this launch.
    pub fn num_groups(&self) -> usize {
        self.layout.comp_blocks[self.comp].div_ceil(self.blocks_per_group)
    }

    #[inline]
    fn lmem_stride(&self) -> usize {
        if self.pad_lmem {
            BLOCK_LMEM_STRIDE
        } else {
            64
        }
    }
}

impl Kernel for IdctKernel {
    fn name(&self) -> &'static str {
        "idct"
    }

    fn items_per_group(&self) -> usize {
        self.blocks_per_group * 8
    }

    fn local_bytes(&self) -> usize {
        self.blocks_per_group * self.lmem_stride() * 8
    }

    fn run_group(&self, ctx: &mut GroupCtx<'_>) {
        let nblocks = self.layout.comp_blocks[self.comp];
        let wb = self.layout.comp_width_blocks[self.comp];
        let coef_base = self.layout.coef_base[self.comp];
        let plane_base = self.layout.plane_base[self.comp];
        let stride = self.layout.plane_stride[self.comp];
        let lstride = self.lmem_stride();
        let first_block = ctx.group_id * self.blocks_per_group;
        let (coef, eobs, planes) = (self.coef, self.eobs, self.planes);
        let eob_base = self.layout.eob_base(self.comp);

        // Phase 1 — column pass: item = (local block, column). Loads stay
        // dense (coalescing, see module docs); the butterfly and its
        // charge are EOB-dispatched per block.
        ctx.phase(|it| {
            let lb = it.id() / 8;
            let col = it.id() % 8;
            let bidx = first_block + lb;
            if !it.branch(bidx < nblocks) {
                return;
            }
            let class = class_for_eob(it.gload_u8(eobs, eob_base + bidx));
            // Data-dependent dispatch, recorded as the class's two bits so
            // *any* class mix within the warp diverges (a single dense/
            // sparse predicate would count DC-only next to 4x4 as uniform).
            it.branch(class.index() & 1 != 0);
            it.branch(class.index() & 2 != 0);
            let mut v = [0i64; 8];
            match self.access {
                CoefAccess::Dense => {
                    for (r, slot) in v.iter_mut().enumerate() {
                        let addr = (coef_base + bidx * 64 + r * 8 + col) * 2;
                        let c = it.gload_i16(coef, addr) as i64;
                        it.charge(ops::DEQUANT);
                        *slot = c * self.quant[r * 8 + col] as i64;
                    }
                }
                CoefAccess::Compacted { offsets } => {
                    // One broadcast offset word per block — the warp's eight
                    // copies dedup into a single transaction — then each
                    // live column loads the block's k×k corner. Columns and
                    // rows beyond the corner are exact zeros by the EOB
                    // bound, so `v` simply stays zeroed and the butterfly
                    // output is bit-identical to the dense load.
                    let off = it.gload_u32(offsets, (eob_base + bidx) * 4) as usize;
                    let k = class.live_k();
                    if it.branch(col < k) {
                        for (r, slot) in v.iter_mut().enumerate().take(k) {
                            let c = it.gload_i16(coef, (off + r * k + col) * 2) as i64;
                            it.charge(ops::DEQUANT);
                            *slot = c * self.quant[r * 8 + col] as i64;
                        }
                    }
                }
            }
            it.charge(ops::idct_1d_class(class));
            let out = idct_pass1_class(v, class);
            for (r, &val) in out.iter().enumerate() {
                it.lstore_i64((lb * lstride + r * 8 + col) * 8, val);
            }
        });

        // Phase 2 — row pass (after the local-memory barrier): item =
        // (local block, row). Beyond the class's live columns the
        // workspace holds exact zeros the pruned row butterfly drops.
        ctx.phase(|it| {
            let lb = it.id() / 8;
            let row = it.id() % 8;
            let bidx = first_block + lb;
            if !it.branch(bidx < nblocks) {
                return;
            }
            let class = class_for_eob(it.gload_u8(eobs, eob_base + bidx));
            it.branch(class.index() & 1 != 0);
            it.branch(class.index() & 2 != 0);
            let mut v = [0i64; 8];
            for (c, slot) in v.iter_mut().enumerate() {
                *slot = it.lload_i64((lb * lstride + row * 8 + c) * 8);
            }
            it.charge(ops::idct_1d_class(class) + ops::PACK_ROW);
            let px = idct_row_class(&v, class);
            let by = bidx / wb;
            let bx = bidx % wb;
            let addr = plane_base + (by * 8 + row) * stride + bx * 8;
            it.gstore_vec8(planes, addr, px);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu_decode::TransferMode;
    use crate::kernels::testutil::stage_region;
    use hetjpeg_gpusim::{DeviceSpec, GpuSim, LaunchStats};
    use hetjpeg_jpeg::decoder::{stages, Prepared};
    use hetjpeg_jpeg::encoder::{encode_rgb, EncodeParams};
    use hetjpeg_jpeg::planes::SamplePlanes;
    use hetjpeg_jpeg::types::Subsampling;

    fn make_image(w: usize, h: usize, sub: Subsampling) -> Vec<u8> {
        let mut rgb = Vec::with_capacity(w * h * 3);
        for y in 0..h {
            for x in 0..w {
                rgb.extend_from_slice(&[
                    ((x * 5 + y * 3) % 256) as u8,
                    ((x * 2 + y * 7) % 256) as u8,
                    ((x * 11 + y) % 256) as u8,
                ]);
            }
        }
        encode_rgb(
            &rgb,
            w as u32,
            h as u32,
            &EncodeParams {
                quality: 82,
                subsampling: sub,
                restart_interval: 0,
            },
        )
        .unwrap()
    }

    /// Run the IDCT kernel for all components — in both the dense and the
    /// compacted coefficient layout — and compare every plane byte against
    /// the CPU `dequant_idct_region` stage.
    #[test]
    fn idct_kernel_matches_cpu_stage_bitexact() {
        for sub in [Subsampling::S444, Subsampling::S422] {
            for mode in [TransferMode::Dense, TransferMode::Compacted] {
                let jpeg = make_image(48, 32, sub);
                let prep = Prepared::new(&jpeg).unwrap();
                let (coefbuf, _) = prep.entropy_decode_all().unwrap();
                let geom = &prep.geom;
                let layout = RegionLayout::new(geom, 0, geom.mcus_y);

                let mut sim = GpuSim::new(DeviceSpec::gtx560ti());
                let planes = sim.create_buffer(layout.planes_len);
                let staged = stage_region(&mut sim, &layout, &coefbuf, geom, mode);

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
                    let stats = sim.launch(&k, k.num_groups());
                    assert!(stats.compute_ops > 0);
                }

                // CPU reference.
                let mut ref_planes = SamplePlanes::new(geom);
                stages::dequant_idct_region(&prep, &coefbuf, 0, geom.mcus_y, &mut ref_planes);

                let out = sim.read_buffer(planes);
                for c in 0..3 {
                    let comp = &geom.comps[c];
                    let stride = layout.plane_stride[c];
                    for row in 0..comp.plane_height() {
                        let got = &out[layout.plane_base[c] + row * stride
                            ..layout.plane_base[c] + row * stride + stride];
                        let want = ref_planes.row(c, row);
                        assert_eq!(got, want, "{} {mode:?} comp {c} row {row}", sub.notation());
                    }
                }
            }
        }
    }

    /// A ragged launch (blocks not a multiple of the group size) must guard
    /// with a (divergent) branch rather than write out of bounds.
    #[test]
    fn ragged_tail_group_diverges_but_stays_in_bounds() {
        let jpeg = make_image(24, 16, Subsampling::S444); // 3x2 blocks per comp
        let prep = Prepared::new(&jpeg).unwrap();
        let geom = &prep.geom;
        let (coefbuf, _) = prep.entropy_decode_all().unwrap();
        let layout = RegionLayout::new(geom, 0, geom.mcus_y);

        let mut sim = GpuSim::new(DeviceSpec::gt430());
        let planes = sim.create_buffer(layout.planes_len);
        let staged = stage_region(&mut sim, &layout, &coefbuf, geom, TransferMode::Compacted);

        // 6 blocks with groups of 4 -> second group is half empty.
        let k = IdctKernel {
            coef: staged.coef,
            eobs: staged.eobs,
            planes,
            layout: layout.clone(),
            comp: 0,
            quant: prep.quant[0].values,
            blocks_per_group: 4,
            pad_lmem: true,
            access: staged.access,
        };
        assert_eq!(k.num_groups(), 2);
        let stats = sim.launch(&k, k.num_groups());
        // The tail group's guard is warp-divergent (items 0..16 active).
        assert!(stats.divergent_branches > 0);
    }

    /// The chroma IDCT of a 64×64 4:2:2 image (plenty of sparse blocks at
    /// q82) staged in `mode`: launch statistics, H2D bytes and planes.
    fn sparse_chroma_idct(mode: TransferMode) -> (LaunchStats, usize, Vec<u8>) {
        let jpeg = make_image(64, 64, Subsampling::S422);
        let prep = Prepared::new(&jpeg).unwrap();
        let geom = &prep.geom;
        let (coefbuf, _) = prep.entropy_decode_all().unwrap();
        let layout = RegionLayout::new(geom, 0, geom.mcus_y);
        let mut sim = GpuSim::new(DeviceSpec::gtx560ti());
        let planes = sim.create_buffer(layout.planes_len);
        let staged = stage_region(&mut sim, &layout, &coefbuf, geom, mode);
        let k = IdctKernel {
            coef: staged.coef,
            eobs: staged.eobs,
            planes,
            layout: layout.clone(),
            comp: 1,
            quant: prep.quant[1].values,
            blocks_per_group: 4,
            pad_lmem: true,
            access: staged.access,
        };
        let stats = sim.launch(&k, k.num_groups());
        (stats, staged.h2d_bytes, sim.read_buffer(planes).to_vec())
    }

    /// The EOB dispatch must shrink the kernel's work on sparse content:
    /// fewer compute ops than the all-dense-EOB baseline, bit-identical
    /// output, and real divergence on mixed-class warps.
    #[test]
    fn eob_dispatch_cuts_work_on_sparse_content() {
        let (dense_stats, _, dense_out) = sparse_chroma_idct(TransferMode::Dense);
        let (sparse_stats, _, sparse_out) = sparse_chroma_idct(TransferMode::Compacted);
        assert_eq!(sparse_out, dense_out, "EOB dispatch must not change bytes");
        assert!(
            sparse_stats.compute_ops < dense_stats.compute_ops,
            "sparse {} vs dense {} ops",
            sparse_stats.compute_ops,
            dense_stats.compute_ops
        );
        // The class branch is data-dependent: mixed warps diverge (the
        // all-dense sidecar is uniform, so the baseline has none).
        assert!(sparse_stats.divergent_branches > dense_stats.divergent_branches);
    }

    /// The compacted layout (PR 9) must stay bit-identical to the dense
    /// one while shrinking both the H2D payload and the coefficient reads
    /// on sparse content — the offset-table broadcasts cost less than the
    /// skipped dense zeros.
    #[test]
    fn compacted_access_is_bitexact_and_cuts_traffic() {
        let (dense_stats, dense_h2d, dense_out) = sparse_chroma_idct(TransferMode::Dense);
        let (comp_stats, comp_h2d, comp_out) = sparse_chroma_idct(TransferMode::Compacted);
        assert_eq!(comp_out, dense_out, "compacted reads must not change bytes");
        assert!(
            comp_h2d < dense_h2d,
            "compacted H2D {comp_h2d} vs dense {dense_h2d}"
        );
        // Kernel-side reads trade coalescing for footprint: the corner
        // loads are irregular, so transactions can grow even as bytes
        // shrink. Bound the regression honestly rather than pretending
        // the pattern stays uniform.
        assert!(
            comp_stats.bus_bytes() < 2 * dense_stats.bus_bytes(),
            "compacted bus {} vs dense {}",
            comp_stats.bus_bytes(),
            dense_stats.bus_bytes()
        );
        // Skipping the zero region also skips its dequant charges.
        assert!(comp_stats.compute_ops < dense_stats.compute_ops);
        // The `col < k` guard is honestly divergent on mixed-class warps.
        assert!(comp_stats.divergent_branches >= dense_stats.divergent_branches);
    }

    /// Padding the local buffer must reduce bank conflicts.
    #[test]
    fn lmem_padding_reduces_conflicts() {
        let jpeg = make_image(64, 32, Subsampling::S444);
        let prep = Prepared::new(&jpeg).unwrap();
        let geom = &prep.geom;
        let (coefbuf, _) = prep.entropy_decode_all().unwrap();
        let layout = RegionLayout::new(geom, 0, geom.mcus_y);

        let run = |pad: bool| {
            let mut sim = GpuSim::new(DeviceSpec::gtx560ti());
            let planes = sim.create_buffer(layout.planes_len);
            let staged = stage_region(&mut sim, &layout, &coefbuf, geom, TransferMode::Compacted);
            let k = IdctKernel {
                coef: staged.coef,
                eobs: staged.eobs,
                planes,
                layout: layout.clone(),
                comp: 0,
                quant: prep.quant[0].values,
                blocks_per_group: 4,
                pad_lmem: pad,
                access: staged.access,
            };
            sim.launch(&k, k.num_groups())
        };
        let padded = run(true);
        let unpadded = run(false);
        assert!(
            padded.lmem_conflict_cycles <= unpadded.lmem_conflict_cycles,
            "padded {} vs unpadded {}",
            padded.lmem_conflict_cycles,
            unpadded.lmem_conflict_cycles
        );
    }
}
