//! The standalone color-conversion kernel (paper §4.3) and the RGB tile
//! every pixel kernel writes its output through.
//!
//! "A work-item accesses global memory three times for its Y, Cb and Cr
//! values to calculate R, G and B values for one pixel. ... a work-item
//! should perform color conversion on a multiple of four pixels. An
//! eight-pixel row has 24 elements. We group four pixels to six vectors of
//! four elements ... The number of transfers is thereby reduced by a factor
//! of four" (Fig. 4).
//!
//! The kernel reads Y (and chroma, both at full resolution) from plane
//! buffers laid out block-row-major and writes the pixel-ordered
//! interleaved RGB of Fig. 3(b).
//!
//! **The tile store.** A work-item converts an 8-pixel row segment of one
//! block, so the lanes of a warp sit on several image rows; stored from the
//! items, a warp's 24-byte writes land in as many 128-byte segments as it
//! has rows. Instead every pixel kernel (this one and the merged kernels of
//! `merged.rs`) converts into a `Tile` in local memory — its six `uchar4`
//! vectors of Fig. 4 become six local word stores — and after a barrier
//! the group writes the tile out row by row (`Tile::store`):
//!
//! * the tile holds `block_h` pixel rows of the group's blocks side by
//!   side, `3 · block_w` bytes per block, each row padded by one bank word
//!   so that the items of a warp, which sit on several tile rows, spread
//!   over the banks (conflict-free for 4:2:2's warp of 8 blocks × 4 rows,
//!   at most two-way for the other kernels) — `local_bytes` is `block_h ·
//!   (3 · block_w · blocks + 4)`;
//! * the copy-out cuts the group's blocks into runs that each lie on one
//!   block row of the image (a group can wrap past a row's end, and the
//!   last group can run past the last block) and clips every run's pixel
//!   rows at `width` and `pixel_rows`;
//! * the runs' bytes are dealt to the items in 16-byte windows aligned in
//!   the RGB buffer: item `i` takes the group's windows `i`, `i + items`,
//!   …, so a warp stores 512 contiguous bytes per slot. A whole window is
//!   one `uchar16` store; the partial windows at a run's ends are written
//!   with naturally aligned 8-, 4- and 1-byte stores. Each window's staged
//!   words are read back in address order with local word loads, so their
//!   bank conflicts are metered like any other (lanes eight windows apart
//!   share a bank: four-way).

use super::ops;
use hetjpeg_gpusim::{BufId, GroupCtx, ItemCtx, Kernel};
use hetjpeg_jpeg::color::ycc_to_rgb;
use std::cell::RefCell;

/// A work-group's RGB output staged in local memory (see the module docs):
/// `block_h` pixel rows of `blocks` blocks of the launch's block grid.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tile {
    /// Local-memory byte offset of the tile.
    pub base: usize,
    /// Blocks per work-group.
    pub blocks: usize,
    /// Block width in pixels.
    pub block_w: usize,
    /// Block height in pixels: the tile's rows.
    pub block_h: usize,
    /// Blocks per row of the block grid.
    pub grid_w: usize,
    /// Blocks in the grid.
    pub grid_blocks: usize,
    /// Image width in pixels.
    pub width: usize,
    /// Pixel rows of the output region.
    pub pixel_rows: usize,
    /// RGB output buffer.
    pub rgb: BufId,
}

/// One tile row of one block-row run: RGB bytes `g0..g1` of the output,
/// staged from local byte `t0`.
#[derive(Clone, Copy)]
struct Run {
    g0: usize,
    g1: usize,
    t0: usize,
}

impl Run {
    /// Aligned 16-byte windows of the output the run touches.
    fn windows(&self) -> usize {
        (self.g1 - 1) / 16 - self.g0 / 16 + 1
    }
}

impl Tile {
    /// Bytes of one tile row: the blocks' pixels plus one bank word.
    fn row_bytes(&self) -> usize {
        self.blocks * self.block_w * 3 + 4
    }

    /// Local memory the tile takes.
    pub fn bytes(&self) -> usize {
        self.block_h * self.row_bytes()
    }

    /// Work-groups covering the grid.
    pub fn groups(&self) -> usize {
        self.grid_blocks.div_ceil(self.blocks)
    }

    /// Convert one 8-pixel segment — row `row`, pixels `x..x + 8` of the
    /// group's block `lb` — into the tile: six local word stores (the six
    /// `uchar4` vectors of Fig. 4).
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn convert_segment(
        &self,
        it: &mut ItemCtx<'_, '_>,
        lb: usize,
        row: usize,
        x: usize,
        yv: &[u8; 8],
        cb: &[u8; 8],
        cr: &[u8; 8],
    ) {
        it.charge(8 * ops::COLOR_PX);
        let mut bytes = [0u8; 24];
        for k in 0..8 {
            let px = ycc_to_rgb(yv[k], cb[k], cr[k]);
            bytes[k * 3..k * 3 + 3].copy_from_slice(&px);
        }
        let at = self.base + row * self.row_bytes() + (lb * self.block_w + x) * 3;
        for (v, word) in bytes.chunks_exact(4).enumerate() {
            it.lstore_i32(at + v * 4, i32::from_le_bytes(word.try_into().expect("4")));
        }
    }

    /// Visit the runs of the group whose first block is `first`: block-row
    /// pieces of the group's blocks, row by row, clipped to the image.
    fn for_each_run(&self, first: usize, mut f: impl FnMut(&Run)) {
        let end = (first + self.blocks).min(self.grid_blocks);
        let mut b = first;
        while b < end {
            let (by, bx) = (b / self.grid_w, b % self.grid_w);
            let n = (end - b).min(self.grid_w - bx);
            let x0 = bx * self.block_w;
            let x1 = ((bx + n) * self.block_w).min(self.width);
            let rows = self
                .pixel_rows
                .saturating_sub(by * self.block_h)
                .min(self.block_h);
            if x0 < x1 {
                for r in 0..rows {
                    let line = (by * self.block_h + r) * self.width;
                    f(&Run {
                        g0: (line + x0) * 3,
                        g1: (line + x1) * 3,
                        t0: self.base + r * self.row_bytes() + (b - first) * self.block_w * 3,
                    });
                }
            }
            b += n;
        }
    }

    /// Write the staged tile to the RGB buffer: a phase of its own after
    /// the converting phase's barrier (see the module docs). The group's
    /// runs are listed once, each with its first window, in a buffer the
    /// thread keeps from group to group; a lane finds the run of each of
    /// its windows by bisection.
    pub fn store(&self, ctx: &mut GroupCtx<'_>) {
        thread_local! {
            static RUNS: RefCell<Vec<(usize, Run)>> = const { RefCell::new(Vec::new()) };
        }
        let first = ctx.group_id * self.blocks;
        let items = ctx.items();
        RUNS.with_borrow_mut(|runs| {
            runs.clear();
            let mut windows = 0;
            self.for_each_run(first, |run| {
                runs.push((windows, *run));
                windows += run.windows();
            });
            let runs = &runs[..];
            ctx.phase(|it| {
                let id = it.id();
                // `for (w = id; w < windows; w += items)`.
                it.branch_run(
                    windows.saturating_sub(id).div_ceil(items),
                    windows.div_ceil(items),
                );
                let mut k = 0;
                for w in (id..windows).step_by(items) {
                    k += runs[k..].partition_point(|&(start, _)| start <= w) - 1;
                    let (start, run) = &runs[k];
                    self.copy_window(it, run, w - start);
                }
            });
        });
    }

    /// Copy window `w` of `run` from the tile to the RGB buffer.
    fn copy_window(&self, it: &mut ItemCtx<'_, '_>, run: &Run, w: usize) {
        it.charge(ops::TILE_WINDOW);
        let win = (run.g0 / 16 + w) * 16;
        let (a, b) = (run.g0.max(win), run.g1.min(win + 16));
        let t = run.t0 + (a - run.g0);
        let mut staged = [0u8; 20];
        let words = t / 4..(t + b - a).div_ceil(4);
        for (k, word) in words.enumerate() {
            staged[k * 4..k * 4 + 4].copy_from_slice(&it.lload_i32(word * 4).to_le_bytes());
        }
        let bytes = &staged[t % 4..t % 4 + (b - a)];
        if b - a == 16 {
            it.gstore_vec16(self.rgb, a, bytes.try_into().expect("16"));
            return;
        }
        // A run's partial end window: naturally aligned narrow stores.
        let mut i = a;
        while i < b {
            let v = &bytes[i - a..];
            i += if i % 8 == 0 && b - i >= 8 {
                it.gstore_vec8(self.rgb, i, v[..8].try_into().expect("8"));
                8
            } else if i % 4 == 0 && b - i >= 4 {
                it.gstore_vec4(self.rgb, i, v[..4].try_into().expect("4"));
                4
            } else {
                it.gstore_u8(self.rgb, i, v[0]);
                1
            };
        }
    }
}

/// YCbCr→RGB over full-resolution planes: 8 work-items per 8×8 block of
/// pixels, one per 8-pixel row segment, the group's blocks fastest.
pub struct ColorKernel {
    /// Buffer holding the luma plane.
    pub y_buf: BufId,
    /// Byte offset of the luma plane.
    pub y_base: usize,
    /// Luma row stride.
    pub y_stride: usize,
    /// Buffer holding full-resolution Cb.
    pub cb_buf: BufId,
    /// Cb offset.
    pub cb_base: usize,
    /// Buffer holding full-resolution Cr.
    pub cr_buf: BufId,
    /// Cr offset.
    pub cr_base: usize,
    /// Chroma row stride (equals luma stride once upsampled).
    pub c_stride: usize,
    /// RGB output buffer.
    pub rgb: BufId,
    /// Image width in pixels.
    pub width: usize,
    /// Pixel rows to convert.
    pub rows: usize,
    /// 8×8 pixel blocks per work-group.
    pub blocks_per_group: usize,
}

impl ColorKernel {
    /// The group's output tile over the image's 8×8 pixel blocks.
    fn tile(&self) -> Tile {
        let grid_w = self.width.div_ceil(8);
        Tile {
            base: 0,
            blocks: self.blocks_per_group,
            block_w: 8,
            block_h: 8,
            grid_w,
            grid_blocks: grid_w * self.rows.div_ceil(8),
            width: self.width,
            pixel_rows: self.rows,
            rgb: self.rgb,
        }
    }

    /// Work-groups needed.
    pub fn num_groups(&self) -> usize {
        self.tile().groups()
    }
}

impl Kernel for ColorKernel {
    fn name(&self) -> &'static str {
        "color"
    }

    fn items_per_group(&self) -> usize {
        self.blocks_per_group * 8
    }

    fn local_bytes(&self) -> usize {
        self.tile().bytes()
    }

    fn run_group(&self, ctx: &mut GroupCtx<'_>) {
        let tile = self.tile();
        let first = ctx.group_id * self.blocks_per_group;
        ctx.phase(|it| {
            // Blocks fastest: a warp's loads span a row of the group's blocks.
            let (lb, r) = (
                it.id() % self.blocks_per_group,
                it.id() / self.blocks_per_group,
            );
            let block = first + lb;
            if !it.branch(block < tile.grid_blocks) {
                return;
            }
            let y_px = (block / tile.grid_w) * 8 + r;
            let x0 = (block % tile.grid_w) * 8;
            if !it.branch(y_px < self.rows) {
                return;
            }
            // "A work-item accesses global memory three times for its Y, Cb
            // and Cr values" — one uchar8 vector load per plane.
            let yv = it.gload_vec8(self.y_buf, self.y_base + y_px * self.y_stride + x0);
            let cb = it.gload_vec8(self.cb_buf, self.cb_base + y_px * self.c_stride + x0);
            let cr = it.gload_vec8(self.cr_buf, self.cr_base + y_px * self.c_stride + x0);
            tile.convert_segment(it, lb, r, 0, &yv, &cb, &cr);
        });
        tile.store(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetjpeg_gpusim::{DeviceSpec, GpuSim};

    /// Planes of known values, converted on a device of `spec`.
    fn convert(
        spec: DeviceSpec,
        w: usize,
        rows: usize,
        stride: usize,
        blocks_per_group: usize,
    ) -> (Vec<u8>, [Vec<u8>; 3], hetjpeg_gpusim::LaunchStats) {
        let mut sim = GpuSim::new(spec);
        let y = sim.create_buffer(stride * rows);
        let cb = sim.create_buffer(stride * rows);
        let cr = sim.create_buffer(stride * rows);
        let rgb = sim.create_buffer(w * rows * 3);

        let mut planes = [
            vec![0u8; stride * rows],
            vec![0u8; stride * rows],
            vec![0u8; stride * rows],
        ];
        for r in 0..rows {
            for x in 0..stride {
                planes[0][r * stride + x] = ((r * 31 + x * 7) % 256) as u8;
                planes[1][r * stride + x] = ((r * 13 + x * 11) % 256) as u8;
                planes[2][r * stride + x] = ((r * 29 + x * 3) % 256) as u8;
            }
        }
        sim.write_buffer(y, 0, &planes[0]);
        sim.write_buffer(cb, 0, &planes[1]);
        sim.write_buffer(cr, 0, &planes[2]);

        let k = ColorKernel {
            y_buf: y,
            y_base: 0,
            y_stride: stride,
            cb_buf: cb,
            cb_base: 0,
            cr_buf: cr,
            cr_base: 0,
            c_stride: stride,
            rgb,
            width: w,
            rows,
            blocks_per_group,
        };
        let stats = sim.launch(&k, k.num_groups());
        (sim.read_buffer(rgb).to_vec(), planes, stats)
    }

    /// Build planes with known values, convert, compare against the CPU
    /// conversion function pixel by pixel.
    #[test]
    fn color_kernel_matches_cpu_conversion() {
        // Deliberately ragged: 20 = 2 full + 1 partial block per row, 9
        // rows; the second group of 4 blocks runs past the last block.
        let (w, rows, stride) = (20usize, 9usize, 24usize);
        let (out, [y, cb, cr], stats) = convert(DeviceSpec::gtx680(), w, rows, stride, 4);
        assert!(stats.divergent_branches > 0);
        for r in 0..rows {
            for x in 0..w {
                let i = r * stride + x;
                let want = ycc_to_rgb(y[i], cb[i], cr[i]);
                let got = &out[(r * w + x) * 3..(r * w + x) * 3 + 3];
                assert_eq!(got, &want, "pixel ({x},{r})");
            }
        }
    }

    #[test]
    fn tile_stores_write_whole_segments() {
        // Per-item stores put a warp's 24-byte segments on as many 128-byte
        // segments as it has image rows (Fig. 4's six uchar4 vectors only
        // cut the store instructions). Staged in the tile and written as
        // aligned uchar16 windows, 256×8 pixels at 16 blocks a group (384
        // bytes a tile row, every run 128-byte aligned) cost exactly one
        // transaction per 128 output bytes.
        let (w, rows) = (256usize, 8usize);
        let (_, _, stats) = convert(DeviceSpec::gtx560ti(), w, rows, w, 16);
        assert_eq!(stats.divergent_branches, 0);
        assert_eq!(stats.gmem_write_bytes, (w * rows * 3) as u64);
        assert_eq!(stats.gmem_write_transactions, (w * rows * 3 / 128) as u64);
    }
}
