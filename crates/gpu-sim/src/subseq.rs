//! Subsequence-parallel Huffman decoding on the simulated GPU.
//!
//! Weißenberger & Schmidt ("Accelerating JPEG Decompression on GPUs",
//! PAPERS.md) decode a Huffman scan with one thread per fixed-size
//! *subsequence* of its bytes. A thread started at an arbitrary byte decodes
//! garbage for a short prefix and then falls onto the true codeword
//! boundaries (Huffman codes self-synchronise). The decode runs in four
//! passes:
//!
//! 1. **decode** — every lane decodes its own subsequence speculatively;
//! 2. **overflow** — every lane decodes on into the next subsequence until
//!    it reaches a point where the next lane's own decode is in sync;
//! 3. **scan** — a prefix scan turns the lanes' output counts into output
//!    offsets (the DC predictors ride along);
//! 4. **write** — every lane decodes the stretch it covers once more, now
//!    from a known state, and writes its coefficients.
//!
//! Passes 1–2 are one launch ([`SubseqDecodeKernel`]) and passes 3–4 a
//! second ([`SubseqWriteKernel`]): the launch boundary is the device-wide
//! barrier the offset scan needs, because no work-group may read what
//! another writes in the same launch.
//!
//! The simulator does not re-run the Huffman decode on every lane: the
//! caller measured it, lane by lane ([`SubseqTable`]), and this module is
//! the cost core that charges it. Every charge comes from the operations
//! of the CPU decode loop (`huffman/decode.rs`), counted once per lane:
//!
//! | unit | ops | what the loop does |
//! |---|---|---|
//! | symbol | [`OPS_PER_SYMBOL`] = 20 | buffered-bits test and branch (2), peek shift and mask (2), table load (1), code-length test (1), skip shift and subtract (2), symbol count (1), run/size split (2), end-of-block test (1), run add and bound test (2), zigzag load (1), inline-value test (1), coefficient store (1), nonzero, EOB and index updates (3) |
//! | scan byte | [`OPS_PER_BYTE`] = 5 | refill: byte load, `FF` test, stuffing test, shift-or into the bit buffer, count update |
//! | block | [`OPS_PER_BLOCK`] = 8 | loop set-up of index, counts and EOB (4), DC predictor add (1), block emit (3) |
//! | sync test | [`OPS_PER_SYNC_TEST`] = 2 | per overflow step (a block): compare the position and the place in the MCU with the next lane's, branch |
//! | DC fix-up | [`OPS_PER_DC_FIXUP`] = 2 | per written block: add the scanned predictor base, store it |
//!
//! The scan bytes a lane decodes are loaded from device memory sixteen at
//! a time. The write pass stages each lane's coefficients in local memory
//! (one op a word) and the warp stores the group's output together —
//! each block's compacted corner, its offset-table word and its EOB byte,
//! the layout the IDCT and merged kernels read — sixteen bytes a lane,
//! neighbouring lanes writing neighbouring bytes.

use crate::kernel::{GroupCtx, ItemCtx, Kernel};
use crate::{BufId, GpuSim, LaunchStats};
use std::ops::Range;

/// Decode-loop operations per Huffman symbol (see the module table).
pub const OPS_PER_SYMBOL: u64 = 20;
/// Bit-buffer refill operations per scan byte.
pub const OPS_PER_BYTE: u64 = 5;
/// Per-block operations of the decode loop.
pub const OPS_PER_BLOCK: u64 = 8;
/// Operations of one synchronisation test in the overflow pass.
pub const OPS_PER_SYNC_TEST: u64 = 2;
/// Operations of one block's DC fix-up in the write pass.
pub const OPS_PER_DC_FIXUP: u64 = 2;
/// Bytes of a lane's record: its output block and coefficient counts and
/// its DC predictor sums, written by pass 2 and scanned by pass 3.
pub const LANE_RECORD_BYTES: usize = 16;

/// Lanes per work-group: one warp.
const LANES: usize = 32;

/// Measured Huffman work of a stretch of scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Bits consumed.
    pub bits: u64,
    /// Huffman symbols decoded (DC included).
    pub symbols: u64,
    /// Blocks decoded.
    pub blocks: u64,
}

impl Work {
    /// The decode loop's operations for this work.
    pub fn ops(&self) -> u64 {
        self.bits * OPS_PER_BYTE / 8 + self.symbols * OPS_PER_SYMBOL + self.blocks * OPS_PER_BLOCK
    }

    /// Add `other` to this.
    pub fn add(&mut self, other: &Work) {
        self.bits += other.bits;
        self.symbols += other.symbols;
        self.blocks += other.blocks;
    }
}

/// One subsequence's lane, as measured by a host decode of the scan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Lane {
    /// Scan bytes pass 1 reads: from the lane's start to the end of its
    /// own subsequence, the unsynchronised prefix included.
    pub own_bytes: Range<usize>,
    /// Scan bytes pass 2 reads past the subsequence's end.
    pub overflow_bytes: Range<usize>,
    /// Scan bytes of the stretch the lane covers, which pass 4 decodes
    /// again.
    pub covered_bytes: Range<usize>,
    /// Pass 1: the garbage decoded before the lane is in sync, then the
    /// rest of its subsequence.
    pub own: Work,
    /// Pass 2: the overflow, one entry per step (a block), a range of
    /// [`SubseqTable::overflow`].
    pub overflow: Range<usize>,
    /// Pass 4: the stretch the lane covers — from the first block it is
    /// in sync at up to the first the next lanes are.
    pub covered: Work,
    /// The packed blocks the lane writes, a range of
    /// [`SubseqTable::blocks`].
    pub blocks: Range<usize>,
}

/// Every lane of one decode, in scan order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SubseqTable {
    /// The lanes.
    pub lanes: Vec<Lane>,
    /// Per overflow step, its work.
    pub overflow: Vec<Work>,
    /// Packed block indices, lane by lane.
    pub blocks: Vec<u32>,
}

impl SubseqTable {
    /// The lanes of work-group `g`.
    fn group(&self, g: usize) -> &[Lane] {
        let lo = (g * LANES).min(self.lanes.len());
        &self.lanes[lo..(lo + LANES).min(self.lanes.len())]
    }

    /// Work-groups of a launch over the table.
    pub fn groups(&self) -> usize {
        self.lanes.len().div_ceil(LANES).max(1)
    }
}

/// The compacted coefficient layout the write pass produces: each block's
/// ≤ EOB corner in `payload` from `offsets[b]` (in `i16`s), and its EOB.
#[derive(Debug, Clone, Copy)]
pub struct Compacted<'a> {
    /// Every block's corner, back to back.
    pub payload: &'a [i16],
    /// Per block, where its corner starts, in `i16`s.
    pub offsets: &'a [u32],
    /// `offsets` as little-endian bytes.
    pub offset_bytes: &'a [u8],
    /// Per block, its EOB.
    pub eobs: &'a [u8],
}

/// The device buffers of a subsequence decode.
#[derive(Debug, Clone, Copy)]
pub struct SubseqBuffers {
    /// The scan bytes, as shipped.
    pub scan: BufId,
    /// One [`LANE_RECORD_BYTES`] record per lane.
    pub records: BufId,
    /// One `u32` output total per work-group.
    pub totals: BufId,
    /// The compacted payload, offset table and EOB sidecar written.
    pub coef: BufId,
    /// See `coef`.
    pub offsets: BufId,
    /// See `coef`.
    pub eobs: BufId,
}

/// Load the scan bytes `range` of `buf` (`len` long), sixteen at a time.
fn read_scan(it: &mut ItemCtx<'_, '_>, buf: BufId, range: &Range<usize>, len: usize) {
    let end = range.end.min(len);
    let mut at = range.start & !15;
    while at < end {
        at += match len - at {
            16.. => {
                it.gload_vec16(buf, at);
                16
            }
            8..=15 => {
                it.gload_vec8(buf, at);
                8
            }
            _ => {
                it.gload_u8(buf, at);
                1
            }
        };
    }
}

/// Passes 1 and 2: one lane per subsequence, 32 to a work-group.
pub struct SubseqDecodeKernel<'t> {
    /// The measured lanes.
    pub table: &'t SubseqTable,
    /// The buffers.
    pub bufs: SubseqBuffers,
    /// Scan bytes in `bufs.scan`.
    pub scan_len: usize,
    /// Per lane, its output block count and corner length in `i16`s.
    pub counts: &'t [(u32, u32)],
}

impl Kernel for SubseqDecodeKernel<'_> {
    fn name(&self) -> &'static str {
        "huffman-decode"
    }

    fn items_per_group(&self) -> usize {
        LANES
    }

    fn local_bytes(&self) -> usize {
        LANES * 4
    }

    fn run_group(&self, ctx: &mut GroupCtx<'_>) {
        let (table, bufs, len) = (self.table, self.bufs, self.scan_len);
        let lanes = table.group(ctx.group_id);
        let base = ctx.group_id * LANES;
        // Pass 1: each lane decodes its own subsequence, garbage first.
        ctx.phase(|it| {
            if it.branch(it.id() < lanes.len()) {
                let lane = &lanes[it.id()];
                read_scan(it, bufs.scan, &lane.own_bytes, len);
                it.charge(lane.own.ops());
            }
        });
        // Pass 2: the overflow, a lockstep loop over the warp's longest,
        // one synchronisation test per step; then the lane's record.
        let trips = (lanes.iter()).map(|l| l.overflow.len()).max().unwrap_or(0);
        let counts = self.counts;
        ctx.phase(|it| {
            if it.branch(it.id() < lanes.len()) {
                let lane = &lanes[it.id()];
                let steps = &table.overflow[lane.overflow.clone()];
                it.branch_run(steps.len(), trips);
                let ops: u64 = steps.iter().map(|w| w.ops() + OPS_PER_SYNC_TEST).sum();
                it.charge(ops);
                read_scan(it, bufs.scan, &lane.overflow_bytes, len);
                let (blocks, coefs) = counts[base + it.id()];
                let mut rec = [0u8; LANE_RECORD_BYTES];
                rec[..4].copy_from_slice(&blocks.to_le_bytes());
                rec[4..8].copy_from_slice(&coefs.to_le_bytes());
                it.gstore_vec16(bufs.records, (base + it.id()) * LANE_RECORD_BYTES, rec);
                it.lstore_i32(it.id() * 4, coefs as i32);
            }
        });
        // The group's output total: lane 0 sums the warp's counts from
        // local memory and stores it.
        let group = ctx.group_id;
        ctx.phase(|it| {
            if it.branch(it.id() == 0) {
                let mut total = 0i32;
                for i in 0..LANES {
                    total = total.wrapping_add(it.lload_i32(i * 4));
                }
                it.gstore_vec4(bufs.totals, group * 4, total.to_le_bytes());
            }
        });
    }
}

/// Passes 3 and 4: the offset scan and the write.
pub struct SubseqWriteKernel<'t> {
    /// The measured lanes.
    pub table: &'t SubseqTable,
    /// The buffers.
    pub bufs: SubseqBuffers,
    /// Scan bytes in `bufs.scan`.
    pub scan_len: usize,
    /// The layout written.
    pub out: Compacted<'t>,
}

impl Kernel for SubseqWriteKernel<'_> {
    fn name(&self) -> &'static str {
        "huffman-write"
    }

    fn items_per_group(&self) -> usize {
        LANES
    }

    fn local_bytes(&self) -> usize {
        LANES * 4
    }

    fn run_group(&self, ctx: &mut GroupCtx<'_>) {
        let (table, bufs, len, out) = (self.table, self.bufs, self.scan_len, self.out);
        let lanes = table.group(ctx.group_id);
        let (base, group) = (ctx.group_id * LANES, ctx.group_id);
        // Pass 3: every lane reads its record's count into local memory;
        // then lane 0 adds the earlier groups' totals and scans the warp's
        // counts into exclusive offsets in place.
        ctx.phase(|it| {
            let id = it.id();
            let coefs = if it.branch(id < lanes.len()) {
                it.gload_u32(bufs.records, (base + id) * LANE_RECORD_BYTES + 4) as i32
            } else {
                0
            };
            it.lstore_i32(id * 4, coefs);
        });
        ctx.phase(|it| {
            if it.branch(it.id() == 0) {
                let mut sum = 0i32;
                for g in 0..group {
                    sum = sum.wrapping_add(it.gload_u32(bufs.totals, g * 4) as i32);
                }
                for i in 0..LANES {
                    let count = it.lload_i32(i * 4);
                    it.lstore_i32(i * 4, sum);
                    sum = sum.wrapping_add(count);
                }
            }
        });
        // Pass 4: each lane decodes the stretch it covers again, from the
        // scanned state, and stages its coefficients in local memory (one
        // op per word staged); then the warp writes the group's output out
        // together, coalesced, and each block's DC gets its scanned base.
        ctx.phase(|it| {
            let id = it.id();
            if !it.branch(id < lanes.len()) {
                return;
            }
            let lane = &lanes[id];
            it.lload_i32(id * 4);
            read_scan(it, bufs.scan, &lane.covered_bytes, len);
            let staged: u64 = (table.blocks[lane.blocks.clone()].iter())
                .map(|&b| corner_len(&out, b as usize).div_ceil(2) as u64)
                .sum();
            it.charge(lane.covered.ops() + staged);
        });
        // The group's blocks, in packed order, are a few runs of
        // consecutive blocks (one per component and block row); each run's
        // corners, offset words and EOBs are three contiguous byte ranges,
        // which the warp copies out sixteen bytes a lane at a time.
        let mut blocks: Vec<u32> = (lanes.iter())
            .flat_map(|l| table.blocks[l.blocks.clone()].iter().copied())
            .collect();
        blocks.sort_unstable();
        let mut runs: Vec<Range<usize>> = Vec::new();
        for &b in &blocks {
            match runs.last_mut() {
                Some(r) if r.end == b as usize => r.end += 1,
                _ => runs.push(b as usize..b as usize + 1),
            }
        }
        // Each run's corners as the little-endian bytes the warp stores,
        // staged once for the group.
        let corners: Vec<(usize, Vec<u8>)> = (runs.iter())
            .map(|r| {
                let coefs = out.offsets[r.start] as usize..corner_end(&out, r.end - 1);
                let bytes = out.payload[coefs.clone()]
                    .iter()
                    .flat_map(|v| v.to_le_bytes());
                (2 * coefs.start, bytes.collect())
            })
            .collect();
        ctx.phase(|it| {
            for (r, (addr, corner)) in runs.iter().zip(&corners) {
                copy_out(it, bufs.coef, *addr, corner);
                let words = 4 * r.start..4 * r.end;
                copy_out(it, bufs.offsets, words.start, &out.offset_bytes[words]);
                copy_out(it, bufs.eobs, r.start, &out.eobs[r.clone()]);
            }
            let mine = (blocks.len() + LANES - 1 - it.id()) / LANES;
            it.charge(mine as u64 * OPS_PER_DC_FIXUP);
        });
    }
}

/// Lane `it`'s share of a warp copy of `src` to `buf` from `addr`: every
/// sixteen-byte window the lane's id picks, the short tail eight, four or
/// one byte at a time.
fn copy_out(it: &mut ItemCtx<'_, '_>, buf: BufId, addr: usize, src: &[u8]) {
    let mut at = it.id() * 16;
    while at < src.len() {
        let mut i = at;
        let end = (at + 16).min(src.len());
        while i < end {
            let n = match end - i {
                16.. => 16,
                8..=15 => 8,
                4..=7 => 4,
                _ => 1,
            };
            let b = &src[i..i + n];
            match n {
                16 => it.gstore_vec16(buf, addr + i, b.try_into().expect("16")),
                8 => it.gstore_vec8(buf, addr + i, b.try_into().expect("8")),
                4 => it.gstore_vec4(buf, addr + i, b.try_into().expect("4")),
                _ => it.gstore_u8(buf, addr + i, b[0]),
            }
            i += n;
        }
        at += 16 * LANES;
    }
}

/// Where block `b`'s compacted corner ends in `out`, in `i16`s.
fn corner_end(out: &Compacted<'_>, b: usize) -> usize {
    out.offsets
        .get(b + 1)
        .map_or(out.payload.len(), |&o| o as usize)
}

/// The `i16`s of block `b`'s compacted corner in `out`.
fn corner_len(out: &Compacted<'_>, b: usize) -> usize {
    corner_end(out, b) - out.offsets[b] as usize
}

/// Run both launches of a subsequence decode of `table` over the scan
/// already in `bufs.scan` (`scan_len` bytes), writing `out` into the
/// coefficient buffers, which the caller has shaped. Returns the two
/// launches' statistics, decode first.
pub fn launch_subseq_decode(
    sim: &mut GpuSim,
    table: &SubseqTable,
    bufs: SubseqBuffers,
    scan_len: usize,
    out: Compacted<'_>,
) -> [(LaunchStats, usize); 2] {
    let groups = table.groups();
    sim.recreate_buffer(bufs.records, groups * LANES * LANE_RECORD_BYTES);
    sim.recreate_buffer(bufs.totals, groups * 4);
    let counts: Vec<(u32, u32)> = (table.lanes.iter())
        .map(|l| {
            let blocks = &table.blocks[l.blocks.clone()];
            let coefs = blocks.iter().map(|&b| corner_len(&out, b as usize) as u32);
            (blocks.len() as u32, coefs.sum())
        })
        .collect();
    let decode = SubseqDecodeKernel {
        table,
        bufs,
        scan_len,
        counts: &counts,
    };
    let a = sim.launch(&decode, groups);
    let write = SubseqWriteKernel {
        table,
        bufs,
        scan_len,
        out,
    };
    let b = sim.launch(&write, groups);
    [(a, decode.items_per_group()), (b, write.items_per_group())]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use crate::TimingModel;

    /// `n` lanes over a scan of `n · bytes` bytes, each covering one block
    /// of `k` coefficients, the overflow of lane `i` `overflow(i)` steps.
    fn table(n: usize, bytes: usize, overflow: impl Fn(usize) -> usize) -> SubseqTable {
        let mut t = SubseqTable::default();
        let work = Work {
            bits: 8 * bytes as u64,
            symbols: bytes as u64 / 2,
            blocks: 4,
        };
        for i in 0..n {
            let lo = t.overflow.len();
            t.overflow.extend((0..overflow(i)).map(|_| Work {
                bits: 64,
                symbols: 10,
                blocks: 1,
            }));
            t.lanes.push(Lane {
                own_bytes: i * bytes..(i + 1) * bytes,
                overflow_bytes: (i + 1) * bytes..((i + 1) * bytes + 8 * overflow(i)).min(n * bytes),
                covered_bytes: i * bytes..(i + 1) * bytes,
                own: work,
                overflow: lo..t.overflow.len(),
                covered: work,
                blocks: i..i + 1,
            });
            t.blocks.push(i as u32);
        }
        t
    }

    fn run(
        sim: &mut GpuSim,
        t: &SubseqTable,
        bytes: usize,
        k: usize,
    ) -> (Vec<u8>, [(LaunchStats, usize); 2]) {
        let n = t.lanes.len();
        let mut buf = || sim.create_buffer(0);
        let bufs = SubseqBuffers {
            scan: buf(),
            records: buf(),
            totals: buf(),
            coef: buf(),
            offsets: buf(),
            eobs: buf(),
        };
        let scan: Vec<u8> = (0..n * bytes).map(|i| i as u8).collect();
        sim.recreate_buffer_from(bufs.scan, &scan);
        let payload: Vec<i16> = (0..n * k).map(|i| i as i16 - 7).collect();
        let offsets: Vec<u32> = (0..n).map(|i| (i * k) as u32).collect();
        let eobs: Vec<u8> = (0..n).map(|i| i as u8).collect();
        sim.recreate_buffer(bufs.coef, payload.len() * 2);
        sim.recreate_buffer(bufs.offsets, n * 4);
        sim.recreate_buffer(bufs.eobs, n);
        let words: Vec<u8> = offsets.iter().flat_map(|o| o.to_le_bytes()).collect();
        let out = Compacted {
            payload: &payload,
            offsets: &offsets,
            offset_bytes: &words,
            eobs: &eobs,
        };
        let stats = launch_subseq_decode(sim, t, bufs, scan.len(), out);
        let mut want = Vec::new();
        for v in &payload {
            want.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(
            sim.read_buffer(bufs.coef),
            &want[..],
            "the payload is written"
        );
        let words: Vec<u8> = offsets.iter().flat_map(|o| o.to_le_bytes()).collect();
        assert_eq!(sim.read_buffer(bufs.offsets), &words[..]);
        assert_eq!(sim.read_buffer(bufs.eobs), &eobs[..]);
        (sim.read_buffer(bufs.records).to_vec(), stats)
    }

    #[test]
    fn totals_cover_subsequence_plus_prefix() {
        // Each lane's record holds what it covers — its subsequence and
        // the overflow into the next — as blocks and corner coefficients:
        // here one block of `k` a lane.
        for (n, k) in [(5, 4), (40, 16), (64, 1)] {
            let mut sim = GpuSim::new(DeviceSpec::gtx680());
            let t = table(n, 96, |i| i % 3);
            let (records, _) = run(&mut sim, &t, 96, k);
            for i in 0..n {
                let rec = &records[i * LANE_RECORD_BYTES..];
                let word = |at: usize| u32::from_le_bytes(rec[at..at + 4].try_into().expect("4"));
                assert_eq!((word(0), word(4)), (1, k as u32), "lane {i} of {n}");
            }
        }
    }

    #[test]
    fn the_write_pass_lays_out_the_compacted_blocks() {
        for (n, k) in [(1, 1), (33, 4), (70, 16), (64, 64)] {
            let mut sim = GpuSim::new(DeviceSpec::gtx680());
            let t = table(n, 96, |i| i % 3);
            let (_, [(a, _), (b, _)]) = run(&mut sim, &t, 96, k);
            assert_eq!(a.groups as usize, n.div_ceil(32));
            assert_eq!(b.groups, a.groups);
        }
    }

    #[test]
    fn uniform_prefixes_run_convergence_free_of_divergence() {
        // A warp whose lanes all overflow alike adds no divergent step to
        // one that does not overflow at all.
        let mut sim = GpuSim::new(DeviceSpec::gtx560ti());
        let (_, [(none, _), _]) = run(&mut sim, &table(32, 64, |_| 0), 64, 4);
        let (_, [(even, _), _]) = run(&mut sim, &table(32, 64, |_| 5), 64, 4);
        assert_eq!(even.divergent_branches, none.divergent_branches);
    }

    #[test]
    fn uneven_prefixes_charge_per_segment_divergence() {
        // The overflow loop adds one divergent step per trip the lanes
        // disagree on: overflows 0..=7 disagree on 7, 0..=15 on 15.
        let mut sim = GpuSim::new(DeviceSpec::gtx560ti());
        let (_, [(even, _), _]) = run(&mut sim, &table(32, 64, |_| 5), 64, 4);
        let (_, [(b, _), _]) = run(&mut sim, &table(32, 64, |i| i % 8), 64, 4);
        assert_eq!(b.divergent_branches - even.divergent_branches, 7);
        let (_, [(c, _), _]) = run(&mut sim, &table(32, 64, |i| i % 16), 64, 4);
        assert_eq!(c.divergent_branches - even.divergent_branches, 15);
    }

    #[test]
    fn compute_charge_covers_decode_and_overflow() {
        let mut sim = GpuSim::new(DeviceSpec::gt430());
        let t = table(40, 128, |i| i % 4);
        let (_, [(a, _), (b, _)]) = run(&mut sim, &t, 128, 16);
        let own: u64 = t.lanes.iter().map(|l| l.own.ops()).sum();
        let over: u64 = t.overflow.iter().map(|w| w.ops() + OPS_PER_SYNC_TEST).sum();
        let covered: u64 = t.lanes.iter().map(|l| l.covered.ops()).sum();
        assert!(
            a.compute_ops >= own + over,
            "{} vs {}",
            a.compute_ops,
            own + over
        );
        assert!(b.compute_ops >= covered + 40 * OPS_PER_DC_FIXUP);
    }

    #[test]
    fn long_lanes_are_priced_by_their_issue() {
        // A few long lanes: the launch's total spread over the device is
        // far below one lane's issue time, and the serial floor prices it.
        let d = DeviceSpec::gtx560ti();
        let mut sim = GpuSim::new(d.clone());
        let t = table(8, 4096, |_| 2);
        let (_, [(a, items), _]) = run(&mut sim, &t, 4096, 4);
        let lane = t.lanes[0].own.ops();
        assert!(a.max_warp_ops >= lane);
        let spread = TimingModel::compute_time(&d, &a, items);
        let serial = TimingModel::serial_time(&d, &a);
        assert!(serial > 4.0 * spread, "serial {serial} vs spread {spread}");
        let t = TimingModel::kernel_time(&d, &a, items);
        assert!((t - d.launch_overhead_us * 1e-6 - serial).abs() < 1e-15);
    }
}
