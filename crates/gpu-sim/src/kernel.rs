//! Kernel execution contexts: work-groups, work-items, lockstep phases.
//!
//! A kernel runs one work-group at a time via [`Kernel::run_group`]. Inside,
//! the group executes a sequence of **phases**; each phase runs the phase
//! closure once per work-item. Phase boundaries are the barriers: local
//! memory written in phase *k* is visible to all items in phase *k+1* —
//! exactly the `barrier(CLK_LOCAL_MEM_FENCE)` structure of the paper's
//! IDCT kernel (column pass → barrier → row pass, §4.1).
//!
//! All global/local accesses and arithmetic go through [`ItemCtx`] so the
//! executor can meter coalescing, bank conflicts, divergence and compute.
//! A phase runs its items warp by warp; each warp's accounting is folded
//! when its last lane retires, so the trackers only ever hold one warp.

use crate::memory::{Buffer, GmemTracker, LocalMem};
use crate::stats::LaunchStats;

/// A simulated GPU kernel.
///
/// Work-groups of a launch run concurrently on host workers, so a kernel
/// must keep the discipline a real GPU kernel needs: groups write pairwise
/// disjoint global ranges and never read bytes another group writes in the
/// same launch. Debug builds check every launch against it.
pub trait Kernel: Sync {
    /// Kernel name for reports.
    fn name(&self) -> &'static str;
    /// Work-items per work-group (the paper tunes this between 4 and 32
    /// MCUs' worth, §5.1).
    fn items_per_group(&self) -> usize;
    /// Local memory bytes to allocate per group.
    fn local_bytes(&self) -> usize {
        0
    }
    /// Execute one work-group.
    fn run_group(&self, ctx: &mut GroupCtx<'_>);
}

/// Divergence bits of one issue slot of the running warp: has any lane
/// taken / not taken the branch?
const TAKEN: u8 = 1;
const NOT_TAKEN: u8 = 2;

/// The host-side bookkeeping of one executor worker: local memory, the
/// coalescing / conflict / divergence trackers and the counters they fold
/// into. It outlives launches — the device keeps one per worker — so its
/// tables grow to the largest warp seen and are then only reset.
///
/// The trackers hold one warp at a time: a phase runs its items warp by
/// warp, and each warp's entries are folded into the counters when its
/// last lane retires.
#[derive(Debug, Default)]
pub(crate) struct GroupState {
    local: LocalMem,
    gmem: GmemTracker,
    /// Divergence bits of the running warp, by issue slot.
    branch_slots: Vec<u8>,
    /// `branch_slots[..branch_seqs]` may be non-zero.
    branch_seqs: usize,
    /// Issue slots of each warp of the running group so far.
    warp_issue: Vec<u64>,
    stats: LaunchStats,
    /// Byte ranges the current group touched (recorded in debug builds).
    log: crate::memory::audit::GroupLog,
}

impl GroupState {
    /// Fold the running warp's trackers into the counters and empty them.
    fn retire_warp(&mut self) {
        let (r, w) = self.gmem.retire_warp();
        self.stats.gmem_read_transactions += r;
        self.stats.gmem_write_transactions += w;
        for s in self.branch_slots[..self.branch_seqs].iter_mut() {
            if *s == TAKEN | NOT_TAKEN {
                self.stats.divergent_branches += 1;
            }
            *s = 0;
        }
        self.branch_seqs = 0;
        self.local.retire_warp();
    }

    /// Fold the finished group's longest warp into the counters.
    fn retire_group(&mut self) {
        let longest = self.warp_issue.iter().copied().max().unwrap_or(0);
        self.stats.max_warp_ops = self.stats.max_warp_ops.max(longest);
        self.warp_issue.clear();
    }
}

/// Per-group execution context. One is built per worker per launch and
/// reset for each work-group the worker runs.
pub struct GroupCtx<'a> {
    /// Index of this group in the NDRange.
    pub group_id: usize,
    items: usize,
    warp_size: usize,
    buffers: &'a [Buffer],
    st: GroupState,
}

impl<'a> GroupCtx<'a> {
    /// Shape `st` for `kernel`'s groups on a device of `warp_size` lanes.
    pub(crate) fn new(
        mut st: GroupState,
        kernel: &dyn Kernel,
        warp_size: usize,
        buffers: &'a [Buffer],
    ) -> Self {
        st.local.configure(kernel.local_bytes(), warp_size);
        st.gmem.configure(warp_size);
        st.stats = LaunchStats::default();
        GroupCtx {
            group_id: 0,
            items: kernel.items_per_group(),
            warp_size,
            buffers,
            st,
        }
    }

    /// Start work-group `group_id`: local memory reads as zero again, the
    /// trackers are empty (every warp ends drained), and the counters keep
    /// summing over the groups this worker runs.
    pub(crate) fn reset(&mut self, group_id: usize) {
        self.st.retire_group();
        self.group_id = group_id;
        self.st.local.reset();
        self.st.stats.groups += 1;
        self.st.stats.items += self.items as u64;
    }

    /// Number of work-items in this group.
    #[inline(always)]
    pub fn items(&self) -> usize {
        self.items
    }

    /// Run one lockstep phase over all work-items, warp by warp, retiring
    /// each warp's coalescing / conflict / divergence accounting when its
    /// last lane is done; the phase's end is the implicit barrier.
    pub fn phase<F: FnMut(&mut ItemCtx<'_, 'a>)>(&mut self, mut f: F) {
        let mut ops = 0u64;
        let mut first = 0;
        self.st
            .warp_issue
            .resize(self.items.div_ceil(self.warp_size), 0);
        while first < self.items {
            let end = (first + self.warp_size).min(self.items);
            let mut busiest = 0u64;
            for item in first..end {
                let (lpos, wpos) = (self.st.local.logged(), self.st.gmem.logged());
                let mut ictx = ItemCtx {
                    grp: self,
                    item,
                    seq: 0,
                    ops: 0,
                    lpos,
                    wpos,
                    branch_seqs: 0,
                };
                f(&mut ictx);
                let ItemCtx {
                    seq,
                    ops: charged,
                    lpos,
                    wpos,
                    branch_seqs,
                    ..
                } = ictx;
                // Every issued operation costs one op on top of the charges.
                ops += charged + seq as u64;
                busiest = busiest.max(charged + seq as u64);
                // The trackers keep slots as `u32`.
                assert!(seq <= u32::MAX as usize + 1, "too many operations");
                self.st.local.end_lane(lpos);
                self.st.gmem.end_lane(wpos);
                self.st.branch_seqs = self.st.branch_seqs.max(branch_seqs);
            }
            self.st.retire_warp();
            self.st.warp_issue[first / self.warp_size] += busiest;
            first = end;
        }
        self.st.stats.compute_ops += ops;
    }

    /// The statistics of every group run since [`Self::new`], and the
    /// worker state for the device to keep.
    pub(crate) fn finish(self) -> (LaunchStats, GroupState) {
        let mut st = self.st;
        st.retire_group();
        st.stats.gmem_read_bytes = st.gmem.read_bytes;
        st.stats.gmem_write_bytes = st.gmem.write_bytes;
        st.stats.lmem_accesses = st.local.accesses;
        st.stats.lmem_conflict_cycles = st.local.conflict_cycles;
        (st.stats, st)
    }

    /// Hand the group's access log to the launch's.
    pub(crate) fn log_into(&mut self, launch: &mut crate::memory::audit::LaunchLog) {
        launch.absorb(self.group_id, &mut self.st.log);
    }
}

/// Per-work-item view during a phase.
pub struct ItemCtx<'g, 'a> {
    grp: &'g mut GroupCtx<'a>,
    item: usize,
    /// Operations issued so far: the next one's lockstep slot.
    seq: usize,
    /// Scalar ops charged through [`Self::charge`].
    ops: u64,
    /// The lane's write cursors into the local-memory and store logs.
    lpos: usize,
    wpos: usize,
    /// One past the slot of the lane's latest branch.
    branch_seqs: usize,
}

impl<'g, 'a> ItemCtx<'g, 'a> {
    /// Local work-item id within the group.
    #[inline(always)]
    pub fn id(&self) -> usize {
        self.item
    }

    /// Group id in the NDRange.
    #[inline(always)]
    pub fn group_id(&self) -> usize {
        self.grp.group_id
    }

    /// Global work-item id.
    #[inline(always)]
    pub fn global_id(&self) -> usize {
        self.grp.group_id * self.grp.items + self.item
    }

    /// Charge `n` scalar compute operations.
    #[inline(always)]
    pub fn charge(&mut self, n: u64) {
        self.ops += n;
    }

    /// Issue the item's next operation: its lockstep slot.
    #[inline(always)]
    fn issue(&mut self) -> usize {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// [`Self::issue`] as the trackers store slots.
    #[inline(always)]
    fn issue_slot(&mut self) -> u32 {
        self.issue() as u32
    }

    /// Record a potentially divergent branch; returns `taken` unchanged so
    /// it can wrap a condition inline.
    #[inline(always)]
    pub fn branch(&mut self, taken: bool) -> bool {
        let seq = self.issue();
        let slots = &mut self.grp.st.branch_slots;
        if seq >= slots.len() {
            slots.resize(seq + 1, 0);
        }
        slots[seq] |= if taken { TAKEN } else { NOT_TAKEN };
        self.branch_seqs = seq + 1;
        taken
    }

    /// A lockstep-predicated loop of `trips` steps whose first `taken` the
    /// lane takes: one potentially divergent branch per step, exactly as
    /// `trips` calls of [`Self::branch`] record them.
    #[inline(always)]
    pub fn branch_run(&mut self, taken: usize, trips: usize) {
        if trips == 0 {
            return;
        }
        let seq = self.seq;
        self.seq += trips;
        let slots = &mut self.grp.st.branch_slots;
        if seq + trips > slots.len() {
            slots.resize(seq + trips, 0);
        }
        let taken = taken.min(trips);
        slots[seq..seq + taken].iter_mut().for_each(|s| *s |= TAKEN);
        slots[seq + taken..seq + trips]
            .iter_mut()
            .for_each(|s| *s |= NOT_TAKEN);
        self.branch_seqs = seq + trips;
    }

    #[inline(always)]
    fn record_gmem(&mut self, buf: usize, addr: usize, len: usize, write: bool) {
        let seq = self.issue_slot();
        let st = &mut self.grp.st;
        if write {
            st.gmem.write(&mut self.wpos, seq, buf, addr, len);
        } else {
            st.gmem.read(buf, addr, len);
        }
        if cfg!(debug_assertions) {
            st.log.record(buf, addr, len, write);
        }
    }

    /// Global load: one `i16` at byte address `addr`.
    #[inline(always)]
    pub fn gload_i16(&mut self, buf: crate::BufId, addr: usize) -> i16 {
        self.record_gmem(buf.0, addr, 2, false);
        i16::from_le_bytes(self.grp.buffers[buf.0].load::<2>(addr))
    }

    /// Global load: one byte.
    #[inline(always)]
    pub fn gload_u8(&mut self, buf: crate::BufId, addr: usize) -> u8 {
        self.record_gmem(buf.0, addr, 1, false);
        self.grp.buffers[buf.0].load::<1>(addr)[0]
    }

    /// Global load: one little-endian `u32` word — the offset-table reads
    /// of the compacted coefficient layout (one per block, broadcast across
    /// the block's items, so warps coalesce them like any other word load).
    #[inline(always)]
    pub fn gload_u32(&mut self, buf: crate::BufId, addr: usize) -> u32 {
        self.record_gmem(buf.0, addr, 4, false);
        u32::from_le_bytes(self.grp.buffers[buf.0].load::<4>(addr))
    }

    /// Global vectorized load of 8 bytes (`uchar8`) — the wide loads the
    /// paper's kernels use for row segments.
    #[inline(always)]
    pub fn gload_vec8(&mut self, buf: crate::BufId, addr: usize) -> [u8; 8] {
        self.record_gmem(buf.0, addr, 8, false);
        self.grp.buffers[buf.0].load::<8>(addr)
    }

    /// Global vectorized load of 16 bytes (`uint4`).
    #[inline(always)]
    pub fn gload_vec16(&mut self, buf: crate::BufId, addr: usize) -> [u8; 16] {
        self.record_gmem(buf.0, addr, 16, false);
        self.grp.buffers[buf.0].load::<16>(addr)
    }

    /// Global store of `N` bytes.
    #[inline(always)]
    fn gstore<const N: usize>(&mut self, buf: crate::BufId, addr: usize, v: [u8; N]) {
        self.record_gmem(buf.0, addr, N, true);
        // SAFETY: the kernel discipline (see [`Kernel`]) keeps every other
        // work-group off these bytes for the launch; debug builds log the
        // range above and check it when the launch retires.
        unsafe { self.grp.buffers[buf.0].store::<N>(addr, v) }
    }

    /// Global store: one byte (uncoalesced-friendly scalar store).
    #[inline(always)]
    pub fn gstore_u8(&mut self, buf: crate::BufId, addr: usize, v: u8) {
        self.gstore(buf, addr, [v]);
    }

    /// Global vectorized store of 4 bytes (`uchar4` in OpenCL terms) — the
    /// paper's Fig. 4 vectorization unit.
    #[inline(always)]
    pub fn gstore_vec4(&mut self, buf: crate::BufId, addr: usize, v: [u8; 4]) {
        self.gstore(buf, addr, v);
    }

    /// Global vectorized store of 8 bytes (`uchar8`).
    #[inline(always)]
    pub fn gstore_vec8(&mut self, buf: crate::BufId, addr: usize, v: [u8; 8]) {
        self.gstore(buf, addr, v);
    }

    /// Global vectorized store of 16 bytes (`uchar16`).
    #[inline(always)]
    pub fn gstore_vec16(&mut self, buf: crate::BufId, addr: usize, v: [u8; 16]) {
        self.gstore(buf, addr, v);
    }

    /// Global store of one `i16`.
    #[inline(always)]
    pub fn gstore_i16(&mut self, buf: crate::BufId, addr: usize, v: i16) {
        self.gstore(buf, addr, v.to_le_bytes());
    }

    /// Local-memory load of an `i64` word (byte address).
    #[inline(always)]
    pub fn lload_i64(&mut self, addr: usize) -> i64 {
        let seq = self.issue_slot();
        self.grp.st.local.load_i64(&mut self.lpos, seq, addr)
    }

    /// Local-memory store of an `i64` word.
    #[inline(always)]
    pub fn lstore_i64(&mut self, addr: usize, v: i64) {
        let seq = self.issue_slot();
        self.grp.st.local.store_i64(&mut self.lpos, seq, addr, v);
    }

    /// Local-memory load of an `i32` word.
    #[inline(always)]
    pub fn lload_i32(&mut self, addr: usize) -> i32 {
        let seq = self.issue_slot();
        self.grp.st.local.load_i32(&mut self.lpos, seq, addr)
    }

    /// Local-memory store of an `i32` word.
    #[inline(always)]
    pub fn lstore_i32(&mut self, addr: usize, v: i32) {
        let seq = self.issue_slot();
        self.grp.st.local.store_i32(&mut self.lpos, seq, addr, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use crate::exec::GpuSim;

    /// Copies an i16 buffer to another, one item per element.
    struct CopyKernel {
        n: usize,
        src: crate::BufId,
        dst: crate::BufId,
    }

    impl Kernel for CopyKernel {
        fn name(&self) -> &'static str {
            "copy"
        }
        fn items_per_group(&self) -> usize {
            32
        }
        fn run_group(&self, ctx: &mut GroupCtx<'_>) {
            let (src, dst, n) = (self.src, self.dst, self.n);
            ctx.phase(|it| {
                let gid = it.global_id();
                if gid < n {
                    let v = it.gload_i16(src, gid * 2);
                    it.charge(1);
                    it.gstore_i16(dst, gid * 2, v.wrapping_add(1));
                }
            });
        }
    }

    #[test]
    fn copy_kernel_is_functional_and_coalesced() {
        let mut sim = GpuSim::new(DeviceSpec::gtx560ti());
        let n = 256usize;
        let src = sim.create_buffer(n * 2);
        let dst = sim.create_buffer(n * 2);
        let data: Vec<u8> = (0..n).flat_map(|i| (i as i16).to_le_bytes()).collect();
        sim.write_buffer(src, 0, &data);

        let k = CopyKernel { n, src, dst };
        let stats = sim.launch(&k, n / 32);

        // Functional result.
        let out = sim.read_buffer(dst);
        for i in 0..n {
            let v = i16::from_le_bytes([out[i * 2], out[i * 2 + 1]]);
            assert_eq!(v, i as i16 + 1);
        }
        // 32 items x 2 bytes = 64 bytes per warp -> 1 transaction each way
        // per warp (64 <= 128).
        assert_eq!(stats.groups, 8);
        assert_eq!(stats.items, 256);
        assert_eq!(stats.gmem_read_transactions, 8);
        assert_eq!(stats.gmem_write_transactions, 8);
        assert_eq!(stats.gmem_read_bytes, 512);
        assert_eq!(stats.divergent_branches, 0);
    }

    /// Word loads through an offset table: every item of a warp reads the
    /// same u32 then a data word it points at — the compacted-layout
    /// access shape.
    struct IndexedKernel {
        offs: crate::BufId,
        data: crate::BufId,
        dst: crate::BufId,
    }
    impl Kernel for IndexedKernel {
        fn name(&self) -> &'static str {
            "indexed"
        }
        fn items_per_group(&self) -> usize {
            32
        }
        fn run_group(&self, ctx: &mut GroupCtx<'_>) {
            let (offs, data, dst) = (self.offs, self.data, self.dst);
            ctx.phase(|it| {
                let o = it.gload_u32(offs, (it.id() / 8) * 4) as usize;
                let v = it.gload_i16(data, (o + it.id() % 8) * 2);
                it.gstore_i16(dst, it.id() * 2, v);
            });
        }
    }

    #[test]
    fn u32_offset_loads_are_functional_and_dedup_within_warp() {
        let mut sim = GpuSim::new(DeviceSpec::gtx560ti());
        let offs = sim.create_buffer(4 * 4);
        let data = sim.create_buffer(64 * 2);
        let dst = sim.create_buffer(32 * 2);
        // Four "blocks" at scattered offsets 0, 40, 8, 24.
        let table: [u32; 4] = [0, 40, 8, 24];
        let obytes: Vec<u8> = table.iter().flat_map(|v| v.to_le_bytes()).collect();
        sim.write_buffer(offs, 0, &obytes);
        let dbytes: Vec<u8> = (0..64i16).flat_map(|v| v.to_le_bytes()).collect();
        sim.write_buffer(data, 0, &dbytes);

        let stats = sim.launch(&IndexedKernel { offs, data, dst }, 1);
        let out = sim.read_buffer(dst);
        for i in 0..32usize {
            let v = i16::from_le_bytes([out[i * 2], out[i * 2 + 1]]);
            assert_eq!(v as usize, table[i / 8] as usize + i % 8);
        }
        // The 32 offset loads hit a single 16-byte table line (deduped) and
        // the scattered data words stay within two 128-byte lines, so the
        // read side costs far fewer transactions than 64 scalar loads.
        assert!(stats.gmem_read_transactions <= 4, "{stats:?}");
    }

    /// Strided reads: every item reads 128 bytes apart.
    struct StridedKernel {
        src: crate::BufId,
    }
    impl Kernel for StridedKernel {
        fn name(&self) -> &'static str {
            "strided"
        }
        fn items_per_group(&self) -> usize {
            32
        }
        fn run_group(&self, ctx: &mut GroupCtx<'_>) {
            let src = self.src;
            ctx.phase(|it| {
                let _ = it.gload_u8(src, it.id() * 128);
            });
        }
    }

    #[test]
    fn strided_access_costs_32_transactions() {
        let mut sim = GpuSim::new(DeviceSpec::gtx560ti());
        let src = sim.create_buffer(32 * 128);
        let stats = sim.launch(&StridedKernel { src }, 1);
        assert_eq!(stats.gmem_read_transactions, 32);
        assert!(stats.coalescing_efficiency() < 0.01 + 32.0 / (32.0 * 128.0));
    }

    /// Local memory passes data between phases (the barrier semantics).
    struct BarrierKernel {
        dst: crate::BufId,
    }
    impl Kernel for BarrierKernel {
        fn name(&self) -> &'static str {
            "barrier"
        }
        fn items_per_group(&self) -> usize {
            32
        }
        fn local_bytes(&self) -> usize {
            32 * 8
        }
        fn run_group(&self, ctx: &mut GroupCtx<'_>) {
            // Phase 1: item i writes i^2 to local[i].
            ctx.phase(|it| {
                let v = (it.id() * it.id()) as i64;
                it.lstore_i64(it.id() * 8, v);
            });
            // Phase 2: item i reads its neighbour's value (needs barrier).
            let dst = self.dst;
            ctx.phase(|it| {
                let n = (it.id() + 1) % 32;
                let v = it.lload_i64(n * 8);
                it.gstore_i16(dst, it.id() * 2, v as i16);
            });
        }
    }

    #[test]
    fn phases_act_as_barriers() {
        let mut sim = GpuSim::new(DeviceSpec::gt430());
        let dst = sim.create_buffer(64);
        sim.launch(&BarrierKernel { dst }, 1);
        let out = sim.read_buffer(dst);
        for i in 0..32usize {
            let v = i16::from_le_bytes([out[i * 2], out[i * 2 + 1]]);
            let n = ((i + 1) % 32) as i16;
            assert_eq!(v, n * n);
        }
    }

    /// Divergence: half the warp takes a different path.
    struct DivergentKernel;
    impl Kernel for DivergentKernel {
        fn name(&self) -> &'static str {
            "divergent"
        }
        fn items_per_group(&self) -> usize {
            32
        }
        fn run_group(&self, ctx: &mut GroupCtx<'_>) {
            ctx.phase(|it| {
                if it.branch(it.id() % 2 == 0) {
                    it.charge(10);
                } else {
                    it.charge(20);
                }
            });
        }
    }

    /// Uniform branch: whole warp agrees.
    struct UniformKernel;
    impl Kernel for UniformKernel {
        fn name(&self) -> &'static str {
            "uniform"
        }
        fn items_per_group(&self) -> usize {
            64
        }
        fn run_group(&self, ctx: &mut GroupCtx<'_>) {
            ctx.phase(|it| {
                // Warp 0 takes it, warp 1 doesn't — but within each warp the
                // decision is uniform, so no divergence.
                if it.branch(it.id() < 32) {
                    it.charge(5);
                }
            });
        }
    }

    #[test]
    fn divergence_detected_only_within_warps() {
        let mut sim = GpuSim::new(DeviceSpec::gtx680());
        let s1 = sim.launch(&DivergentKernel, 4);
        assert_eq!(s1.divergent_branches, 4); // one per group's single warp
        let s2 = sim.launch(&UniformKernel, 4);
        assert_eq!(s2.divergent_branches, 0);
    }
}
