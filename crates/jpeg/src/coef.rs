//! The whole-image coefficient buffer.
//!
//! Paper §3 replaces libjpeg-turbo's MCU-row buffers with whole-image
//! buffers "large enough to keep an image as a whole in memory", and §4
//! fixes the layout as "Y blocks followed by Cb blocks followed by Cr
//! blocks" so the upsampling kernel never has to skip over interleaved luma
//! data — the property the coalescing ablation bench measures.
//!
//! Alongside the coefficients the buffer carries one **end-of-block index**
//! per block: the highest zigzag position that may hold a nonzero
//! coefficient, recorded for free during entropy decode. Downstream IDCT
//! stages dispatch on it to sparse fast paths (see [`crate::dct::sparse`])
//! without rescanning the block. The stored value is an *upper bound* —
//! using a larger EOB is always correct, just slower — and every write path
//! that bypasses entropy decode resets it to the dense-safe 63.

use crate::geometry::Geometry;

/// Whole-image DCT coefficient storage: one contiguous `i16` allocation,
/// blocks of 64 natural-order coefficients, planar per component, plus a
/// per-block EOB side array.
#[derive(Debug, Clone)]
pub struct CoefBuffer {
    data: Vec<i16>,
    /// Per-block EOB upper bound (highest possibly-nonzero zigzag index).
    eob: Vec<u8>,
}

/// Dense-safe EOB: assume every coefficient may be nonzero.
pub const EOB_DENSE: u8 = 63;

impl CoefBuffer {
    /// Allocate a zeroed buffer for an image's geometry.
    pub fn new(geom: &Geometry) -> Self {
        CoefBuffer {
            data: vec![0; geom.total_blocks * 64],
            eob: vec![EOB_DENSE; geom.total_blocks],
        }
    }

    /// Number of blocks the buffer holds.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.eob.len()
    }

    /// Re-shape the buffer for another image's geometry, reusing the
    /// existing allocations. All coefficients are zeroed and every EOB is
    /// reset to the dense-safe maximum, exactly as a fresh buffer starts —
    /// what callers that may leave blocks untouched (e.g. salvage of a
    /// truncated stream) need.
    pub fn reset_for(&mut self, geom: &Geometry) {
        self.data.clear();
        self.data.resize(geom.total_blocks * 64, 0);
        self.eob.clear();
        self.eob.resize(geom.total_blocks, EOB_DENSE);
    }

    /// Re-shape for another image *without* clearing: contents are
    /// unspecified (stale from the previous image) until written. A full
    /// entropy decode overwrites every block's 64 coefficients and its EOB,
    /// so the decode paths skip the whole-buffer memset `reset_for` pays —
    /// the difference was measurable on batch decodes (PR 2).
    pub fn reset_for_entropy(&mut self, geom: &Geometry) {
        self.data.resize(geom.total_blocks * 64, 0);
        self.eob.resize(geom.total_blocks, EOB_DENSE);
    }

    /// Borrow the coefficients of one block (natural order).
    #[inline]
    pub fn block(&self, block_index: usize) -> &[i16; 64] {
        let off = block_index * 64;
        self.data[off..off + 64].try_into().expect("block slice")
    }

    /// Mutably borrow one block. Resets the block's EOB to the dense-safe
    /// maximum, since the caller may write anywhere; use [`Self::set_eob`]
    /// afterwards to restore a tighter bound.
    #[inline]
    pub fn block_mut(&mut self, block_index: usize) -> &mut [i16; 64] {
        self.eob[block_index] = EOB_DENSE;
        let off = block_index * 64;
        (&mut self.data[off..off + 64])
            .try_into()
            .expect("block slice")
    }

    /// The block's EOB upper bound (highest possibly-nonzero zigzag index).
    #[inline]
    pub fn eob(&self, block_index: usize) -> u8 {
        self.eob[block_index]
    }

    /// Record a block's EOB. `eob` must bound the highest nonzero zigzag
    /// position actually present, or sparse IDCT dispatch will drop
    /// coefficients.
    #[inline]
    pub fn set_eob(&mut self, block_index: usize, eob: u8) {
        debug_assert!(eob <= EOB_DENSE);
        self.eob[block_index] = eob;
    }

    /// The raw flat storage (e.g. for simulated PCIe transfer sizing).
    #[inline]
    pub fn as_slice(&self) -> &[i16] {
        &self.data
    }

    /// Mutable access to the raw flat storage. The caller may write any
    /// coefficient, so every block's EOB is reset to the dense-safe
    /// maximum — previously recorded sparsity is discarded.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [i16] {
        self.eob.fill(EOB_DENSE);
        &mut self.data
    }

    /// Byte length of the buffer (what a host→device write would ship).
    #[inline]
    pub fn byte_len(&self) -> usize {
        self.data.len() * 2
    }

    /// Copy the coefficient range covering MCU rows `[start, end)` of every
    /// component into a packed staging vector, in component order. This is
    /// the chunk payload of the pipelined execution mode (§4.5): each
    /// Huffman-decoded chunk ships only its own blocks.
    pub fn pack_mcu_rows(&self, geom: &Geometry, start: usize, end: usize) -> Vec<i16> {
        let mut out = Vec::new();
        self.pack_mcu_rows_into(geom, start, end, &mut out);
        out
    }

    /// Like [`Self::pack_mcu_rows`] but reuses `out`'s allocation — the
    /// pipelined executor recycles chunk buffers through a pool so
    /// steady-state decode performs no per-chunk heap allocation.
    pub fn pack_mcu_rows_into(
        &self,
        geom: &Geometry,
        start: usize,
        end: usize,
        out: &mut Vec<i16>,
    ) {
        out.clear();
        out.reserve(geom.blocks_in_mcu_rows(start, end) * 64);
        for r in packed_block_ranges(geom, start, end) {
            out.extend_from_slice(&self.data[r.start * 64..r.end * 64]);
        }
    }

    /// Pack the per-block EOB sidecar for MCU rows `[start, end)` in
    /// exactly the block order of [`Self::pack_mcu_rows`] — the one extra
    /// byte per block the GPU path ships so its IDCT kernels can dispatch
    /// on sparsity like the CPU ones (PR 5). Both packers walk
    /// `packed_block_ranges`, so the orders cannot drift apart.
    pub fn pack_eobs_mcu_rows_into(
        &self,
        geom: &Geometry,
        start: usize,
        end: usize,
        out: &mut Vec<u8>,
    ) {
        out.clear();
        out.reserve(geom.blocks_in_mcu_rows(start, end));
        for r in packed_block_ranges(geom, start, end) {
            out.extend_from_slice(&self.eob[r]);
        }
    }

    /// A copy of this buffer with every EOB forced to the dense-safe
    /// maximum — the pre-PR-5 "GPU baseline is dense" behaviour. Kernel
    /// tests/benches/examples stage this ablation through
    /// `hetjpeg_core::kernels::testutil` rather than calling this directly,
    /// so the three transfer-layout variants share one staging definition.
    pub fn clone_with_dense_eobs(&self) -> Self {
        CoefBuffer {
            data: self.data.clone(),
            eob: vec![EOB_DENSE; self.eob.len()],
        }
    }

    /// Pack MCU rows `[start, end)` in the **compacted transfer layout**
    /// (Weißenberger & Schmidt): per block, only the ≤EOB class corner —
    /// `k`×`k` natural-order coefficients, row major, `k` =
    /// [`SparseClass::live_k`](crate::dct::sparse::SparseClass::live_k) —
    /// plus a `u32` offset-table entry per block (in `i16` units from the
    /// payload start) so a GPU work-item can index any block directly.
    ///
    /// The offset table is computed by an **exclusive scan over per-block-row
    /// EOB-class histograms** (the parallel-packer formulation: each block
    /// row's size is a pure function of its histogram,
    /// [`crate::metrics::compacted_coefs`]), then filled in row-locally.
    /// Block order is exactly [`Self::pack_mcu_rows_into`]'s
    /// (`packed_block_ranges` is the single traversal definition), so the
    /// offset table, the EOB sidecar and the dense layout all agree on
    /// which block is which.
    pub fn pack_compacted_into(
        &self,
        geom: &Geometry,
        start: usize,
        end: usize,
        payload: &mut Vec<i16>,
        offsets: &mut Vec<u32>,
    ) {
        use crate::dct::sparse::class_for_eob;
        payload.clear();
        offsets.clear();
        offsets.reserve(geom.blocks_in_mcu_rows(start, end));

        // Pass 1: per-block-row class histograms -> exclusive scan.
        let mut row_base = Vec::new();
        let mut acc = 0usize;
        for r in packed_block_ranges(geom, start, end) {
            let mut hist = [0u64; crate::dct::sparse::NUM_SPARSE_CLASSES];
            for &e in &self.eob[r] {
                hist[class_for_eob(e).index()] += 1;
            }
            row_base.push(acc);
            acc += crate::metrics::compacted_coefs(&hist) as usize;
        }
        assert!(
            acc <= u32::MAX as usize,
            "compacted offset table overflow: {acc} i16s"
        );
        payload.reserve(acc);

        // Pass 2: emit each block's corner at its scanned offset.
        for (r, base) in packed_block_ranges(geom, start, end).zip(row_base) {
            let mut off = base;
            for b in r {
                offsets.push(off as u32);
                off += push_compacted_block(self.block(b), self.eob[b], payload);
            }
        }
        debug_assert_eq!(payload.len(), acc);
    }

    /// Create a shared handle for concurrent block writes from multiple
    /// threads (the parallel restart-segment entropy decoder). The handle
    /// borrows the buffer exclusively, so no other access can overlap it.
    pub fn writer(&mut self) -> CoefWriter<'_> {
        CoefWriter {
            data: self.data.as_mut_ptr(),
            eob: self.eob.as_mut_ptr(),
            blocks: self.eob.len(),
            _marker: std::marker::PhantomData,
        }
    }
}

/// The packed block-index ranges of MCU rows `[start, end)`, in exactly
/// the order the packed buffers store them: per component, each block
/// row's contiguous index range. The coefficient packer and the EOB
/// sidecar packer both iterate this one definition — the GPU kernels'
/// `eob_base` arithmetic (byte `i` of the sidecar describes block `i` of
/// the packed coefficients) depends on the two orders never drifting
/// apart, so the traversal is written once.
fn packed_block_ranges<'a>(
    geom: &'a Geometry,
    start: usize,
    end: usize,
) -> impl Iterator<Item = std::ops::Range<usize>> + 'a {
    geom.comps.iter().enumerate().flat_map(move |(c, comp)| {
        let by0 = start * comp.v_samp;
        let by1 = (end * comp.v_samp).min(comp.height_blocks);
        (by0..by1).map(move |by| {
            let first = geom.block_index(c, 0, by);
            first..first + comp.width_blocks
        })
    })
}

/// Append one block's compacted representation — its EOB class's `k`×`k`
/// natural-order corner, row major — to `payload`; returns the number of
/// `i16` values appended ([`crate::dct::sparse::CLASS_COEFS`] of the
/// class). Every compacted packer goes through this one emitter so the
/// block layout cannot drift between the whole-buffer path, the packed-
/// chunk path and the tests' oracle.
#[inline]
pub fn push_compacted_block(block: &[i16; 64], eob: u8, payload: &mut Vec<i16>) -> usize {
    let k = crate::dct::sparse::class_for_eob(eob).live_k();
    for row in 0..k {
        payload.extend_from_slice(&block[row * 8..row * 8 + k]);
    }
    k * k
}

/// Compact an already-packed dense chunk (64 `i16` per block, the pipelined
/// executor's channel payload) plus its EOB sidecar into the compacted
/// layout of [`CoefBuffer::pack_compacted_into`]. Block order is the packed
/// order, i.e. byte `i` of `eobs` describes blocks `64*i..64*i+64` of
/// `packed` and offset-table entry `i` of the output.
pub fn compact_packed_blocks(
    packed: &[i16],
    eobs: &[u8],
    payload: &mut Vec<i16>,
    offsets: &mut Vec<u32>,
) {
    assert_eq!(packed.len(), eobs.len() * 64, "packed/sidecar disagree");
    payload.clear();
    offsets.clear();
    offsets.reserve(eobs.len());
    for (i, &eob) in eobs.iter().enumerate() {
        let block: &[i16; 64] = packed[i * 64..i * 64 + 64].try_into().expect("block");
        let off = payload.len();
        assert!(off <= u32::MAX as usize, "compacted offset table overflow");
        offsets.push(off as u32);
        push_compacted_block(block, eob, payload);
    }
}

/// Reconstruct the dense packed layout (64 `i16` per block) from a
/// compacted payload, its offset table and the EOB sidecar — the host-side
/// unpack oracle the transfer-layer property tests round-trip through (the
/// GPU kernels index the compacted payload directly instead).
pub fn unpack_compacted_blocks(payload: &[i16], offsets: &[u32], eobs: &[u8]) -> Vec<i16> {
    assert_eq!(offsets.len(), eobs.len(), "offset table/sidecar disagree");
    let mut out = vec![0i16; eobs.len() * 64];
    for (i, (&off, &eob)) in offsets.iter().zip(eobs).enumerate() {
        let k = crate::dct::sparse::class_for_eob(eob).live_k();
        let off = off as usize;
        for row in 0..k {
            out[i * 64 + row * 8..i * 64 + row * 8 + k]
                .copy_from_slice(&payload[off + row * k..off + row * k + k]);
        }
    }
    out
}

/// Shared-write handle over a [`CoefBuffer`], allowing worker threads to
/// store decoded blocks directly into their disjoint regions instead of
/// accumulating `(index, block)` pairs and copying after a join.
///
/// Block granularity is the unit of disjointness: writes to *different*
/// block indices never alias (each block owns its 64 coefficients and its
/// EOB slot), so threads decoding disjoint MCU ranges — e.g. distinct
/// restart segments — can write concurrently without synchronization.
pub struct CoefWriter<'a> {
    data: *mut i16,
    eob: *mut u8,
    blocks: usize,
    _marker: std::marker::PhantomData<&'a mut CoefBuffer>,
}

// SAFETY: the writer only exposes `write_block`, whose contract (below)
// requires callers to keep concurrently written block indices disjoint;
// under that contract all pointer accesses are race-free.
unsafe impl Send for CoefWriter<'_> {}
unsafe impl Sync for CoefWriter<'_> {}

impl CoefWriter<'_> {
    /// Store one block's coefficients and EOB.
    ///
    /// # Safety
    ///
    /// No two threads may call this concurrently with the same
    /// `block_index`. Callers decoding restart segments satisfy this by
    /// construction: segments partition the MCU sequence, and every block
    /// index belongs to exactly one MCU.
    #[inline]
    pub unsafe fn write_block(&self, block_index: usize, block: &[i16; 64], eob: u8) {
        assert!(block_index < self.blocks, "block index out of range");
        // SAFETY: in-bounds per the assert; disjointness per the contract.
        unsafe {
            std::ptr::copy_nonoverlapping(block.as_ptr(), self.data.add(block_index * 64), 64);
            *self.eob.add(block_index) = eob;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Subsampling;

    #[test]
    fn allocation_matches_geometry() {
        let g = Geometry::new(32, 16, Subsampling::S422).unwrap();
        let buf = CoefBuffer::new(&g);
        assert_eq!(buf.as_slice().len(), g.total_blocks * 64);
        assert_eq!(buf.byte_len(), g.total_blocks * 128);
    }

    #[test]
    fn block_views_are_disjoint_and_stable() {
        let g = Geometry::new(32, 16, Subsampling::S444).unwrap();
        let mut buf = CoefBuffer::new(&g);
        buf.block_mut(0)[0] = 11;
        buf.block_mut(1)[0] = 22;
        assert_eq!(buf.block(0)[0], 11);
        assert_eq!(buf.block(1)[0], 22);
        assert_eq!(buf.block(0)[1], 0);
    }

    #[test]
    fn eob_defaults_dense_and_block_mut_resets_it() {
        let g = Geometry::new(16, 16, Subsampling::S444).unwrap();
        let mut buf = CoefBuffer::new(&g);
        assert_eq!(buf.eob(0), EOB_DENSE);
        buf.set_eob(0, 3);
        assert_eq!(buf.eob(0), 3);
        // Any raw rewrite must fall back to the dense-safe bound.
        buf.block_mut(0)[63] = 5;
        assert_eq!(buf.eob(0), EOB_DENSE);
        buf.set_eob(1, 9);
        let _ = buf.as_mut_slice();
        assert_eq!(buf.eob(1), EOB_DENSE);
    }

    #[test]
    fn writer_stores_blocks_and_eobs() {
        let g = Geometry::new(32, 32, Subsampling::S444).unwrap();
        let mut buf = CoefBuffer::new(&g);
        let mut block = [0i16; 64];
        block[0] = 7;
        block[9] = -3;
        {
            let w = buf.writer();
            // SAFETY: single thread, distinct indices.
            unsafe {
                w.write_block(2, &block, 9);
                w.write_block(5, &block, 9);
            }
        }
        assert_eq!(buf.block(2)[0], 7);
        assert_eq!(buf.block(5)[9], -3);
        assert_eq!(buf.eob(2), 9);
        assert_eq!(buf.block(3)[0], 0);
    }

    #[test]
    fn pack_mcu_rows_collects_all_components() {
        let g = Geometry::new(16, 16, Subsampling::S422).unwrap();
        let mut buf = CoefBuffer::new(&g);
        // Tag each block with its index.
        for b in 0..g.total_blocks {
            buf.block_mut(b)[0] = b as i16;
        }
        // MCU row 0 of a 16x16 4:2:2 image: Y row 0 (2 blocks), Cb row 0
        // (1 block), Cr row 0 (1 block).
        let packed = buf.pack_mcu_rows(&g, 0, 1);
        assert_eq!(packed.len(), 4 * 64);
        let tags: Vec<i16> = packed.chunks_exact(64).map(|b| b[0]).collect();
        let y_off = 0;
        let cb_off = g.comps[1].plane_block_offset as i16;
        let cr_off = g.comps[2].plane_block_offset as i16;
        assert_eq!(tags, vec![y_off, y_off + 1, cb_off, cr_off]);
    }

    #[test]
    fn pack_into_reuses_allocation() {
        let g = Geometry::new(32, 32, Subsampling::S420).unwrap();
        let buf = CoefBuffer::new(&g);
        let mut out = Vec::new();
        buf.pack_mcu_rows_into(&g, 0, 1, &mut out);
        let first = out.len();
        let cap = out.capacity();
        buf.pack_mcu_rows_into(&g, 1, 2, &mut out);
        assert_eq!(out.len(), first);
        assert_eq!(out.capacity(), cap);
        assert_eq!(out, buf.pack_mcu_rows(&g, 1, 2));
    }

    #[test]
    fn pack_full_image_equals_whole_buffer_size() {
        let g = Geometry::new(24, 24, Subsampling::S444).unwrap();
        let buf = CoefBuffer::new(&g);
        let packed = buf.pack_mcu_rows(&g, 0, g.mcus_y);
        assert_eq!(packed.len(), buf.as_slice().len());
    }

    /// Seed a buffer with one block of every sparse class, cycling.
    fn classy_buffer(g: &Geometry) -> CoefBuffer {
        let mut buf = CoefBuffer::new(g);
        let eobs = [0u8, 2, 9, 63];
        for b in 0..g.total_blocks {
            let eob = eobs[b % 4];
            let block = crate::testutil::coef_block_for_eob(b as u64 + 7, eob as usize, 300);
            *buf.block_mut(b) = block;
            buf.set_eob(b, eob);
        }
        buf
    }

    #[test]
    fn compacted_pack_roundtrips_and_matches_histogram_prediction() {
        for sub in [Subsampling::S444, Subsampling::S422, Subsampling::S420] {
            let g = Geometry::new(40, 24, sub).unwrap();
            let buf = classy_buffer(&g);
            for (a, b) in [(0usize, g.mcus_y), (0, 1), (1, g.mcus_y)] {
                let dense = buf.pack_mcu_rows(&g, a, b);
                let mut eobs = Vec::new();
                buf.pack_eobs_mcu_rows_into(&g, a, b, &mut eobs);
                let (mut payload, mut offsets) = (Vec::new(), Vec::new());
                buf.pack_compacted_into(&g, a, b, &mut payload, &mut offsets);

                // Size is exactly the histogram prediction.
                let mut hist = [0u64; 4];
                for &e in &eobs {
                    hist[crate::dct::sparse::class_for_eob(e).index()] += 1;
                }
                assert_eq!(
                    payload.len() as u64,
                    crate::metrics::compacted_coefs(&hist),
                    "{:?} rows {a}..{b}",
                    sub
                );
                assert_eq!(offsets.len(), eobs.len());

                // Roundtrip through the unpack oracle is the dense layout.
                assert_eq!(unpack_compacted_blocks(&payload, &offsets, &eobs), dense);

                // The packed-chunk compactor agrees with the scan packer.
                let (mut p2, mut o2) = (Vec::new(), Vec::new());
                compact_packed_blocks(&dense, &eobs, &mut p2, &mut o2);
                assert_eq!(p2, payload);
                assert_eq!(o2, offsets);
            }
        }
    }

    #[test]
    fn compacted_pack_degenerate_extremes() {
        let g = Geometry::new(16, 16, Subsampling::S444).unwrap();
        // All-dense: compacted degenerates to the dense layout plus offsets.
        let mut buf = CoefBuffer::new(&g);
        for b in 0..g.total_blocks {
            buf.block_mut(b)[63] = b as i16 + 1; // EOB stays dense-safe 63
        }
        let (mut payload, mut offsets) = (Vec::new(), Vec::new());
        buf.pack_compacted_into(&g, 0, g.mcus_y, &mut payload, &mut offsets);
        assert_eq!(payload, buf.pack_mcu_rows(&g, 0, g.mcus_y));
        assert_eq!(offsets[1], 64);

        // All DC-only: one i16 per block.
        let mut buf = CoefBuffer::new(&g);
        for b in 0..g.total_blocks {
            buf.block_mut(b)[0] = -(b as i16);
            buf.set_eob(b, 0);
        }
        buf.pack_compacted_into(&g, 0, g.mcus_y, &mut payload, &mut offsets);
        assert_eq!(payload.len(), g.total_blocks);
        assert!(offsets.iter().enumerate().all(|(i, &o)| o as usize == i));
        let mut eobs = Vec::new();
        buf.pack_eobs_mcu_rows_into(&g, 0, g.mcus_y, &mut eobs);
        assert_eq!(
            unpack_compacted_blocks(&payload, &offsets, &eobs),
            buf.pack_mcu_rows(&g, 0, g.mcus_y)
        );
    }
}
