//! Device global memory with warp-granular access tracking.
//!
//! Global buffers are untyped byte arrays (as in OpenCL). Typed accessors on
//! [`crate::ItemCtx`] record `(sequence, address, width)` per access;
//! [`GmemTracker`] folds them into 128-byte transactions per warp per
//! lockstep instruction slot — the coalescing rule the paper's buffer
//! layouts and vectorized writes are designed around (§4) — and
//! [`LocalMem`] folds local accesses into bank conflicts.
//!
//! A phase runs its items warp by warp, so the trackers hold one warp: a
//! lane appends its accesses to a log through a cursor it carries, and the
//! log is cut into slot lists and folded when the warp's last lane
//! retires. Two exact memos make most folds a lookup — slot lists by their
//! offsets from their first entry ([`FoldMemo`]), whole warps of the
//! IDCT-family kernels by their shape ([`WarpShapes`]) — keyed on access
//! patterns only. Everything lives as long as the executor's worker that
//! owns it and keeps its capacity, so the steady state of a launch
//! performs no heap traffic.

use crate::TRANSACTION_BYTES;
use std::cell::UnsafeCell;

/// One device buffer. Interior-mutable so disjoint work-groups can write in
/// parallel from the executor's host workers.
///
/// The bytes are individual cells, so workers only ever share
/// `&[UnsafeCell<u8>]` and write through raw pointers — no `&mut` to the
/// storage exists while a launch runs.
pub struct Buffer {
    data: Vec<UnsafeCell<u8>>,
}

// SAFETY: `data` is only written through `&self` by `store`, during a
// launch. `GpuSim::launch` holds `&mut GpuSim`, so no host-side view
// (`host_slice`) can coexist with it, and within the launch the kernel
// discipline — work-groups write pairwise disjoint byte ranges and never
// read a range another group writes in the same launch — means no byte is
// accessed by two workers unless both only read it. That discipline is what
// a real GPU kernel needs for a defined result; under `debug_assertions`
// the executor records every group's ranges and panics when a launch
// breaks it (see `audit`).
unsafe impl Sync for Buffer {}

impl Buffer {
    /// Allocate a zeroed buffer.
    pub fn new(len: usize) -> Self {
        let mut b = Buffer { data: Vec::new() };
        b.reset_zeroed(len);
        b
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Host-side read access (not tracked). Launches take `&mut GpuSim`, so
    /// the borrow checker keeps this view from overlapping one.
    pub fn host_slice(&self) -> &[u8] {
        // SAFETY: `UnsafeCell<u8>` is `repr(transparent)` over `u8`, and no
        // write through `&self` is in flight (stores only happen inside a
        // launch, which excludes this borrow — see the `Sync` impl).
        unsafe { std::slice::from_raw_parts(self.data.as_ptr().cast::<u8>(), self.data.len()) }
    }

    /// Host-side write access.
    pub(crate) fn host_slice_mut(&mut self) -> &mut [u8] {
        // SAFETY: same layout argument as `host_slice`; `&mut self` makes
        // this the only access path to the cells.
        unsafe {
            std::slice::from_raw_parts_mut(self.data.as_mut_ptr().cast::<u8>(), self.data.len())
        }
    }

    /// Make the buffer `len` zero bytes, keeping its allocation: afterwards
    /// it is indistinguishable from `Buffer::new(len)`.
    pub(crate) fn reset_zeroed(&mut self, len: usize) {
        self.data.clear();
        self.data.resize_with(len, || UnsafeCell::new(0));
    }

    /// Make the buffer exactly `bytes`, keeping its allocation.
    pub(crate) fn reset_to(&mut self, bytes: &[u8]) {
        self.data.clear();
        self.data.extend(bytes.iter().map(|&b| UnsafeCell::new(b)));
    }

    /// Device-side load of `N` bytes at `addr`.
    #[inline]
    pub(crate) fn load<const N: usize>(&self, addr: usize) -> [u8; N] {
        let cells = &self.data[addr..addr + N];
        // SAFETY: `cells` is `N` in-bounds cells with `u8` layout; by the
        // kernel discipline no other group writes them during this launch,
        // and this group's own earlier stores are sequenced before the load.
        unsafe { cells.as_ptr().cast::<[u8; N]>().read() }
    }

    /// Device-side store of `N` bytes at `addr`.
    ///
    /// # Safety
    /// No other work-group may access `addr..addr + N` of this buffer
    /// during the same launch.
    #[inline]
    pub(crate) unsafe fn store<const N: usize>(&self, addr: usize, v: [u8; N]) {
        let cells = &self.data[addr..addr + N];
        // SAFETY: in bounds by the slice above; exclusive by the caller's
        // contract; `UnsafeCell` makes writing through `&self` defined.
        unsafe {
            UnsafeCell::raw_get(cells.as_ptr())
                .cast::<[u8; N]>()
                .write(v)
        }
    }
}

/// Fixed-width entry lists keyed by issue slot, reused across warps,
/// phases and work-groups.
///
/// An item's `seq`-th operation issues in lockstep with the `seq`-th
/// operation of every other lane of its warp, so whatever a warp-level
/// rule folds (store coalescing, bank conflicts) is a list of at most
/// `width` entries per `seq`. Sequence numbers are shared by every
/// operation kind and can run into the thousands in loopy kernels, so
/// `slot_of_seq` maps the ones this table actually sees to compact slots.
#[derive(Debug, Default)]
struct SlotTable<T> {
    width: usize,
    /// `seq` → compact slot + 1; 0 = not seen since the last drain.
    slot_of_seq: Vec<u32>,
    /// The `seq` of each slot in use, in slot order.
    seqs: Vec<u32>,
    /// Per slot: entry count. Grows to the most slots a warp has used.
    len: Vec<u32>,
    /// `[slot][width]` entries.
    entries: Vec<T>,
}

impl<T: Copy + Default> SlotTable<T> {
    /// Shape the table for lists of up to `width` entries. Must be called
    /// with the table drained.
    fn configure(&mut self, width: usize) {
        debug_assert!(self.seqs.is_empty());
        if width != self.width {
            self.width = width;
            self.len.clear();
            self.entries.clear();
        }
    }

    /// Append `v` to the list of `seq`.
    #[inline]
    fn push(&mut self, seq: u32, v: T) {
        let slot = match self.slot_of_seq.get(seq as usize) {
            Some(&s) if s != 0 => s as usize - 1,
            _ => self.open(seq),
        };
        let n = &mut self.len[slot];
        self.entries[slot * self.width + *n as usize] = v;
        *n += 1;
    }

    /// Give `seq` the next compact slot.
    #[cold]
    fn open(&mut self, seq: u32) -> usize {
        let seq = seq as usize;
        if seq >= self.slot_of_seq.len() {
            self.slot_of_seq.resize(seq + 1, 0);
        }
        let slot = self.seqs.len();
        self.seqs.push(seq as u32);
        self.slot_of_seq[seq] = slot as u32 + 1;
        if self.len.len() <= slot {
            self.len.resize(slot + 1, 0);
            self.entries.resize((slot + 1) * self.width, T::default());
        }
        slot
    }

    /// Visit every list, then empty the table (capacity stays).
    fn drain(&mut self, mut f: impl FnMut(&[T])) {
        for (slot, &seq) in self.seqs.iter().enumerate() {
            let n = std::mem::take(&mut self.len[slot]) as usize;
            f(&self.entries[slot * self.width..slot * self.width + n]);
            self.slot_of_seq[seq as usize] = 0;
        }
        self.seqs.clear();
    }
}

/// A [`LaneLog`] entry: the issue slot of an access and what its slot list
/// holds of it.
trait Logged: Copy + Default {
    type Val: Copy + Default;
    fn new(seq: u32, v: Self::Val) -> Self;
    fn seq(self) -> u32;
    fn val(self) -> Self::Val;
}

/// A local access: its slot in the upper half, its word in the lower, so
/// one wrapping subtraction compares two lanes' accesses (see
/// [`WarpShapes`]).
impl Logged for u64 {
    type Val = u32;
    #[inline(always)]
    fn new(seq: u32, word: u32) -> Self {
        (seq as u64) << 32 | word as u64
    }
    #[inline(always)]
    fn seq(self) -> u32 {
        (self >> 32) as u32
    }
    #[inline(always)]
    fn val(self) -> u32 {
        self as u32
    }
}

/// A store: its slot and one segment id it touches.
impl Logged for (u32, u64) {
    type Val = u64;
    #[inline(always)]
    fn new(seq: u32, seg: u64) -> Self {
        (seq, seg)
    }
    #[inline(always)]
    fn seq(self) -> u32 {
        self.0
    }
    #[inline(always)]
    fn val(self) -> u64 {
        self.1
    }
}

/// One kind of metered access of the running warp, as its lanes issued
/// it: a phase runs items warp by warp, so a lane's entries arrive as one
/// run, and the warp's slot lists are only complete when its last lane
/// retires. Recording is an append; the lists are formed at that point.
///
/// Most warps issue in lockstep — every lane puts its entries at the same
/// sequence numbers — and then the `j`-th entries of all lanes are one
/// slot's list, read straight out of the runs. Warps whose lanes drift
/// apart are sorted into a [`SlotTable`], which only ever holds one warp.
#[derive(Debug, Default)]
struct LaneLog<E: Logged> {
    /// Entries lane after lane in `buf[..len]`; the rest is room for the
    /// running lane, which writes through a cursor of its own (see
    /// [`Self::push`]).
    buf: Vec<E>,
    len: usize,
    /// Finished lanes.
    lanes: usize,
    /// Length of lane 0's run.
    lead: usize,
    /// One slot's list, gathered from the runs.
    slot: Vec<E::Val>,
    table: SlotTable<E::Val>,
}

impl<E: Logged> LaneLog<E> {
    /// Shape the log for slot lists of up to `width` entries. Must be
    /// called with the log drained.
    fn configure(&mut self, width: usize) {
        debug_assert!(self.lanes == 0 && self.len == 0);
        self.table.configure(width);
    }

    /// The finished lanes' entries.
    #[inline]
    fn log(&self) -> &[E] {
        &self.buf[..self.len]
    }

    /// Append an entry for the running lane at its cursor `at`, which
    /// starts at [`Self::len`] and is handed back to [`Self::end_lane`].
    /// The cursor lives with the lane, not in the log, so consecutive
    /// appends do not wait on each other through memory.
    #[inline(always)]
    fn push(&mut self, at: &mut usize, seq: u32, v: E::Val) {
        match self.buf.get_mut(*at) {
            Some(e) => *e = E::new(seq, v),
            None => self.grow_with(E::new(seq, v)),
        }
        *at += 1;
    }

    /// Make room and append `e` at the end of the buffer.
    #[cold]
    fn grow_with(&mut self, e: E) {
        let room = (2 * self.buf.len()).max(256);
        self.buf.push(e);
        self.buf.resize(room, E::default());
    }

    /// Close the running lane's run, which ends at `at`.
    #[inline]
    fn end_lane(&mut self, at: usize) {
        debug_assert!(at >= self.len);
        self.len = at;
        if self.lanes == 0 {
            self.lead = at;
        }
        self.lanes += 1;
    }

    /// Lane 0's run length `n`, when the log is `lanes` copies of lane 0's
    /// sequence numbers: then the `j`-th entries of every `n`-entry run
    /// share one slot.
    fn lockstep_run(&self) -> Option<usize> {
        let n = self.lead;
        let log = self.log();
        let lead = &log[..n];
        let same = |run: &[E]| {
            run.iter()
                .zip(lead)
                .fold(0, |acc, (a, b)| acc | (a.seq() ^ b.seq()))
                == 0
        };
        (log.len() == n * self.lanes && (n == 0 || log.chunks_exact(n).all(same))).then_some(n)
    }

    /// Visit the warp's slot lists, in no particular order, then empty the
    /// log. Each list is visited once and is never empty.
    fn drain(&mut self, mut f: impl FnMut(&[E::Val])) {
        let log = &self.buf[..self.len];
        if let Some(n) = self.lockstep_run() {
            // Entries of one access share a slot, and lane 0's sequence
            // numbers never decrease, so a slot is a stretch of columns.
            let mut j = 0;
            while j < n {
                let seq = log[j].seq();
                let mut k = j + 1;
                while k < n && log[k].seq() == seq {
                    k += 1;
                }
                self.slot.clear();
                if k == j + 1 {
                    self.slot
                        .extend(log[j..].iter().step_by(n).map(|e| e.val()));
                } else {
                    for run in log.chunks_exact(n) {
                        self.slot.extend(run[j..k].iter().map(|e| e.val()));
                    }
                }
                f(&self.slot);
                j = k;
            }
        } else {
            for &e in log {
                self.table.push(e.seq(), e.val());
            }
            self.table.drain(f);
        }
        self.clear();
    }

    fn clear(&mut self) {
        self.len = 0;
        self.lanes = 0;
        self.lead = 0;
    }
}

/// An entry of a slot list whose fold is translation-invariant: adding one
/// constant to every entry of a list (wrapping) leaves the folded count
/// unchanged, so lists are memoised by their offsets from the first entry.
trait Offset: Copy + Default + Eq {
    /// `self - base`, wrapping; a bijection for any fixed `base`.
    fn offset_from(self, base: Self) -> Self;
    /// The bits the memo hashes.
    fn bits(self) -> u64;
}

impl Offset for u32 {
    #[inline]
    fn offset_from(self, base: Self) -> Self {
        self.wrapping_sub(base)
    }
    #[inline]
    fn bits(self) -> u64 {
        self as u64
    }
}

impl Offset for u64 {
    #[inline]
    fn offset_from(self, base: Self) -> Self {
        self.wrapping_sub(base)
    }
    #[inline]
    fn bits(self) -> u64 {
        self
    }
}

/// Direct-mapped memo of folded slot lists, keyed by the list's offsets
/// from its first entry (see [`Offset`]). A probe compares the whole key,
/// so a hit is exact; a miss folds the list and replaces the line. Keys are
/// access *patterns* — the same shapes recur in every warp of a kernel and
/// in every launch of it — never data.
#[derive(Debug, Default)]
struct FoldMemo<T> {
    width: usize,
    /// `[line][width]` offsets.
    keys: Vec<T>,
    /// Per line: key length + 1; 0 = empty.
    lens: Vec<u32>,
    vals: Vec<u32>,
}

/// Lines of a [`FoldMemo`].
const MEMO_LINES: usize = 64;

impl<T: Offset> FoldMemo<T> {
    /// Shape the memo for lists of up to `width` entries, forgetting every
    /// line if the width changes.
    fn configure(&mut self, width: usize) {
        if width != self.width {
            self.width = width;
            self.keys.clear();
            self.keys.resize(MEMO_LINES * width, T::default());
            self.lens.clear();
            self.lens.resize(MEMO_LINES, 0);
            self.vals.clear();
            self.vals.resize(MEMO_LINES, 0);
        }
    }

    /// The fold of the non-empty list `entries`: memoised, or computed by
    /// `fold` and remembered.
    #[inline]
    fn fold(&mut self, entries: &[T], fold: impl FnOnce(&[T]) -> u32) -> u32 {
        let (n, base) = (entries.len(), entries[0]);
        // The line is picked from a sample of the offsets; the probe below
        // still compares all of them.
        let mut h = n as u64;
        for i in [n / 4, n / 2, 3 * n / 4, n - 1] {
            h = (h ^ entries[i].offset_from(base).bits()).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        let line = (h >> 58) as usize % MEMO_LINES;
        let key = &mut self.keys[line * self.width..line * self.width + n];
        if self.lens[line] == n as u32 + 1
            && key.iter().zip(entries).fold(0, |acc, (&k, &e)| {
                acc | (k.bits() ^ e.offset_from(base).bits())
            }) == 0
        {
            return self.vals[line];
        }
        for (k, &e) in key.iter_mut().zip(entries) {
            *k = e.offset_from(base);
        }
        let v = fold(entries);
        self.lens[line] = entries.len() as u32 + 1;
        self.vals[line] = v;
        v
    }
}

/// Coalescing tracker for the running warp of one work-group.
///
/// **Writes** are charged per lockstep slot: the `k`-th store of every item
/// in a warp issues together, and the distinct 128-byte segments touched in
/// that slot become transactions (Fermi's L1 is write-through, so stores
/// always pay). **Reads** are charged per *phase*: distinct segments
/// touched by the warp across the whole phase — modelling the L1 cache
/// that serves repeated and neighbouring loads within a phase's working
/// set (this is the "optimized for GPU memory hierarchies" assumption of
/// paper §4; without it, byte-granular loads would be charged as if every
/// issue slot missed cache). A warp's part of a phase ends when its last
/// lane retires, so both are counted then.
#[derive(Debug, Default)]
pub(crate) struct GmemTracker {
    /// Distinct segments the running warp has read.
    read_segments: SegmentSet,
    /// The segment the warp's latest load resolved to.
    last_read: u64,
    /// Segment ids of the running warp's stores (one or two per store, not
    /// deduplicated).
    writes: LaneLog<(u32, u64)>,
    /// Distinct-segment counts of store slots, by segment pattern: the
    /// count of a list is translation-invariant.
    write_memo: FoldMemo<u64>,
    /// Useful bytes.
    pub read_bytes: u64,
    pub write_bytes: u64,
}

/// No segment id equals this: ids carry a buffer index in the upper bits.
const NO_SEGMENT: u64 = u64::MAX;

impl GmemTracker {
    /// Shape the tracker for warps of `warp_size` lanes and zero the byte
    /// counters.
    pub fn configure(&mut self, warp_size: usize) {
        self.last_read = NO_SEGMENT;
        // An access is narrower than a segment, so it touches at most two.
        self.writes.configure(2 * warp_size);
        self.write_memo.configure(2 * warp_size);
        self.read_bytes = 0;
        self.write_bytes = 0;
    }

    /// Record a load of `len` bytes at byte address `addr` of buffer `buf`
    /// (the id goes in the upper bits so different buffers never coalesce).
    #[inline(always)]
    pub fn read(&mut self, buf: usize, addr: usize, len: usize) {
        debug_assert!(len as u64 <= TRANSACTION_BYTES);
        let first_seg = ((buf as u64) << 40) | (addr as u64 / TRANSACTION_BYTES);
        let last_seg = ((buf as u64) << 40) | ((addr + len - 1) as u64 / TRANSACTION_BYTES);
        for seg in first_seg..=last_seg {
            if self.last_read != seg {
                self.read_segments.insert(seg);
                self.last_read = seg;
            }
        }
        self.read_bytes += len as u64;
    }

    /// Record a store like [`Self::read`], issued by the running lane as
    /// its `seq`-th operation; `at` is the lane's cursor (see
    /// [`Self::logged`]).
    #[inline(always)]
    pub fn write(&mut self, at: &mut usize, seq: u32, buf: usize, addr: usize, len: usize) {
        debug_assert!(len as u64 <= TRANSACTION_BYTES);
        let first_seg = ((buf as u64) << 40) | (addr as u64 / TRANSACTION_BYTES);
        let last_seg = ((buf as u64) << 40) | ((addr + len - 1) as u64 / TRANSACTION_BYTES);
        self.writes.push(at, seq, first_seg);
        if last_seg != first_seg {
            self.writes.push(at, seq, last_seg);
        }
        self.write_bytes += len as u64;
    }

    /// Where the next lane's store cursor starts.
    #[inline]
    pub fn logged(&self) -> usize {
        self.writes.len
    }

    /// Close the running lane's run of stores, which ends at `at`.
    #[inline]
    pub fn end_lane(&mut self, at: usize) {
        self.writes.end_lane(at);
    }

    /// Transactions (reads, writes) of the running warp, which has retired.
    pub fn retire_warp(&mut self) -> (u64, u64) {
        let r = self.read_segments.clear() as u64;
        self.last_read = NO_SEGMENT;
        let mut w = 0u64;
        let memo = &mut self.write_memo;
        self.writes.drain(|segs| {
            w += memo.fold(segs, distinct) as u64;
        });
        (r, w)
    }
}

/// A set of segment ids: open addressing over a power-of-two table kept at
/// most half full, emptied through the list of filled lines.
#[derive(Debug, Default)]
struct SegmentSet {
    /// `NO_SEGMENT` marks an empty line.
    lines: Vec<u64>,
    /// The lines in use.
    filled: Vec<u32>,
}

impl SegmentSet {
    #[inline]
    fn insert(&mut self, seg: u64) {
        if 2 * (self.filled.len() + 1) > self.lines.len() {
            self.grow();
        }
        let mask = self.lines.len() - 1;
        let mut i = (seg.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize & mask;
        loop {
            let line = &mut self.lines[i];
            if *line == seg {
                return;
            }
            if *line == NO_SEGMENT {
                *line = seg;
                self.filled.push(i as u32);
                return;
            }
            i = (i + 1) & mask;
        }
    }

    #[cold]
    fn grow(&mut self) {
        let old: Vec<u64> = self
            .filled
            .iter()
            .map(|&i| self.lines[i as usize])
            .collect();
        let size = (2 * self.lines.len()).max(64);
        self.lines.clear();
        self.lines.resize(size, NO_SEGMENT);
        self.filled.clear();
        for seg in old {
            self.insert(seg);
        }
    }

    /// Empty the set; returns how many segments it held.
    fn clear(&mut self) -> usize {
        for &i in &self.filled {
            self.lines[i as usize] = NO_SEGMENT;
        }
        let n = self.filled.len();
        self.filled.clear();
        n
    }
}

/// Distinct values of a short list.
fn distinct(segs: &[u64]) -> u32 {
    let mut n = 0;
    for (i, s) in segs.iter().enumerate() {
        if !segs[..i].contains(s) {
            n += 1;
        }
    }
    n
}

/// A warp's local accesses in the shape the IDCT-family kernels give them:
/// every lane runs the same access sequence, moved as a whole to other
/// issue slots and other words. Read off a [`LaneLog`] of `runs` runs of
/// `n` packed entries each (slot in the upper half, word in the lower),
/// lane 0's run first, it is
///
/// `[n, runs, lane 0's entries − its first entry…, then per run: its first
/// entry − lane 0's first entry]`,
///
/// each difference wrapping in 64 bits. Words stay below 2^31, so a
/// difference names one (slot shift mod 2^32, word shift) pair, and slots
/// are `u32`, so equal slots are equal mod 2^32: the shape gives the log's
/// entries less one common slot and one common word offset. A common slot
/// offset only renames slots, and a common word offset moves every slot
/// list by the same amount, which keeps its bank conflicts (see
/// [`Offset`]); so the warp's conflict cycles are a function of the shape.
#[derive(Debug, Default)]
struct WarpShapes {
    /// The shape being probed.
    shape: Vec<u64>,
    /// `[line][SHAPE_MAX]` shapes.
    keys: Vec<u64>,
    /// Per line: shape length + 1; 0 = empty.
    lens: Vec<u32>,
    vals: Vec<u64>,
}

/// Lines of [`WarpShapes`] and the longest shape it keeps.
const SHAPE_LINES: usize = 128;
const SHAPE_MAX: usize = 64;

impl WarpShapes {
    /// Describe `log` into `self.shape` and return its memo line, or `None`
    /// when the log has no such shape or it is too long to keep.
    fn describe(&mut self, log: &LaneLog<u64>) -> Option<usize> {
        let (n, total) = (log.lead, log.len);
        if n == 0 || total % n != 0 || 2 + n + total / n > SHAPE_MAX {
            return None;
        }
        let log = log.log();
        let lead = &log[..n];
        let shape = &mut self.shape;
        shape.clear();
        shape.extend([n as u64, (total / n) as u64]);
        shape.extend(lead.iter().map(|e| e.wrapping_sub(lead[0])));
        let mut h = n as u64;
        for run in log.chunks_exact(n) {
            let d = run[0].wrapping_sub(lead[0]);
            let off = run
                .iter()
                .zip(lead)
                .fold(0, |acc, (e, l)| acc | (e.wrapping_sub(*l) ^ d));
            if off != 0 {
                return None;
            }
            shape.push(d);
            h = (h ^ d).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        if self.keys.is_empty() {
            self.keys.resize(SHAPE_LINES * SHAPE_MAX, 0);
            self.lens.resize(SHAPE_LINES, 0);
            self.vals.resize(SHAPE_LINES, 0);
        }
        Some((h >> 57) as usize % SHAPE_LINES)
    }

    /// The memoised conflict cycles of the described shape on `line`.
    fn get(&self, line: usize) -> Option<u64> {
        let key = &self.keys[line * SHAPE_MAX..][..self.shape.len()];
        (self.lens[line] as usize == self.shape.len() + 1 && key == &self.shape[..])
            .then(|| self.vals[line])
    }

    fn put(&mut self, line: usize, cycles: u64) {
        self.keys[line * SHAPE_MAX..][..self.shape.len()].copy_from_slice(&self.shape);
        self.lens[line] = self.shape.len() as u32 + 1;
        self.vals[line] = cycles;
    }
}

// Word offsets wrap modulo 2^32; the bank of `base + offset` only follows
// from the offset when the bank count divides that modulus.
const _: () = assert!((1u64 << 32).is_multiple_of(crate::LMEM_BANKS as u64));

/// Work-group local (shared) memory with bank-conflict accounting.
#[derive(Debug, Default)]
pub(crate) struct LocalMem {
    data: Vec<u8>,
    /// Word addresses the running warp touched, with their slots.
    words: LaneLog<u64>,
    /// Conflict cycles of whole warps, by shape.
    shapes: WarpShapes,
    /// Conflict cycles of slot lists, by word pattern: banks rotate and
    /// distinctness is kept when every word moves by one offset.
    memo: FoldMemo<u32>,
    /// Per word of `data`: the last slot fold that saw it (see
    /// [`Self::retire_warp`]).
    seen_in: Vec<u32>,
    /// Ordinal of the latest slot fold; 0 = none yet.
    fold: u32,
    /// Total accesses.
    pub accesses: u64,
    /// Extra serialized cycles from conflicts.
    pub conflict_cycles: u64,
}

impl LocalMem {
    /// Shape local memory for warps of `warp_size` lanes with `len` bytes,
    /// zero the bytes and the counters.
    pub fn configure(&mut self, len: usize, warp_size: usize) {
        // Word addresses stay below 2^31 (see `WarpShapes`).
        assert!(len / 4 < 1 << 31, "local memory of {len} bytes");
        self.words.configure(warp_size);
        self.memo.configure(warp_size);
        self.data.clear();
        self.data.resize(len, 0);
        if self.seen_in.len() < len / 4 + 1 {
            self.seen_in.resize(len / 4 + 1, 0);
        }
        self.accesses = 0;
        self.conflict_cycles = 0;
    }

    /// Re-zero the bytes for the next work-group, so a kernel cannot
    /// observe what the previous group left behind. The counters keep
    /// summing.
    pub fn reset(&mut self) {
        self.data.fill(0);
    }

    // The accessors record for the running lane at its cursor `at` (see
    // [`Self::logged`]).

    /// Load a 4-byte word (i32) at word-aligned byte address.
    #[inline(always)]
    pub fn load_i32(&mut self, at: &mut usize, seq: u32, addr: usize) -> i32 {
        let v = i32::from_le_bytes(self.data[addr..addr + 4].try_into().expect("lmem load"));
        self.words.push(at, seq, (addr / 4) as u32);
        v
    }

    /// Store a 4-byte word.
    #[inline(always)]
    pub fn store_i32(&mut self, at: &mut usize, seq: u32, addr: usize, v: i32) {
        self.data[addr..addr + 4].copy_from_slice(&v.to_le_bytes());
        self.words.push(at, seq, (addr / 4) as u32);
    }

    /// Load an 8-byte word (i64 — the islow IDCT intermediate).
    #[inline(always)]
    pub fn load_i64(&mut self, at: &mut usize, seq: u32, addr: usize) -> i64 {
        let v = i64::from_le_bytes(self.data[addr..addr + 8].try_into().expect("lmem load"));
        self.words.push(at, seq, (addr / 4) as u32);
        v
    }

    /// Store an 8-byte word.
    #[inline(always)]
    pub fn store_i64(&mut self, at: &mut usize, seq: u32, addr: usize, v: i64) {
        self.data[addr..addr + 8].copy_from_slice(&v.to_le_bytes());
        self.words.push(at, seq, (addr / 4) as u32);
    }

    /// Where the next lane's cursor starts.
    #[inline]
    pub fn logged(&self) -> usize {
        self.words.len
    }

    /// Close the running lane's run of accesses, which ends at `at`.
    #[inline]
    pub fn end_lane(&mut self, at: usize) {
        self.words.end_lane(at);
    }

    /// Fold the retired warp's bank accesses into conflict cycles: a warp
    /// access that hits the same bank (word address modulo 32, the cc 2.x
    /// mapping) at `k` distinct addresses serializes into `k` cycles (k−1
    /// extra); same-address hits broadcast for free.
    ///
    /// A warp whose shape (see [`WarpShapes`]) was folded before costs a
    /// memo probe. Otherwise its slot lists are folded one by one: a list
    /// whose word pattern was folded before costs a probe too, and the
    /// rest are counted without sorting or clearing — every slot fold gets
    /// the next ordinal, and a word counts for its bank the first time the
    /// current ordinal is stamped on it.
    pub fn retire_warp(&mut self) {
        let LocalMem {
            words,
            shapes,
            memo,
            seen_in,
            fold,
            accesses,
            conflict_cycles,
            ..
        } = self;
        *accesses += words.len as u64;
        let line = shapes.describe(words);
        if let Some(cycles) = line.and_then(|line| shapes.get(line)) {
            *conflict_cycles += cycles;
            words.clear();
            return;
        }
        let mut cycles = 0u64;
        words.drain(|words| {
            cycles += memo.fold(words, |words| {
                if *fold == u32::MAX {
                    seen_in.fill(0);
                    *fold = 0;
                }
                *fold += 1;
                let mut per_bank = [0u8; crate::LMEM_BANKS];
                let mut worst = 1u8;
                for &w in words.iter() {
                    // `w` indexed `data` in the access itself, so it is in range.
                    let seen = &mut seen_in[w as usize];
                    if *seen != *fold {
                        *seen = *fold;
                        let n = &mut per_bank[w as usize % crate::LMEM_BANKS];
                        *n += 1;
                        worst = worst.max(*n);
                    }
                }
                (worst - 1) as u32
            }) as u64
        });
        if let Some(line) = line {
            shapes.put(line, cycles);
        }
        *conflict_cycles += cycles;
    }
}

/// Launch-time check of the kernel discipline [`Buffer`]'s `Sync` impl
/// rests on: every group logs the byte ranges it reads and writes, and the
/// retiring launch asserts that writes of different groups are disjoint and
/// that no group read bytes another group wrote. The executor only records
/// and checks under `debug_assertions`; elsewhere the logs stay empty.
pub(crate) mod audit {
    /// A byte range `start..end` of buffer `buf`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    pub struct Span {
        pub buf: usize,
        pub start: usize,
        pub end: usize,
    }

    /// One work-group's accesses.
    #[derive(Debug, Default)]
    pub struct GroupLog {
        reads: Vec<Span>,
        writes: Vec<Span>,
    }

    impl GroupLog {
        #[inline]
        pub fn record(&mut self, buf: usize, addr: usize, len: usize, write: bool) {
            let spans = if write {
                &mut self.writes
            } else {
                &mut self.reads
            };
            let new = Span {
                buf,
                start: addr,
                end: addr + len,
            };
            // Neighbouring accesses of one item usually extend the last span.
            match spans.last_mut() {
                Some(s) if s.buf == buf && new.start <= s.end && s.start <= new.end => {
                    s.start = s.start.min(new.start);
                    s.end = s.end.max(new.end);
                }
                _ => spans.push(new),
            }
        }
    }

    /// Sort and merge overlapping or touching spans in place.
    fn normalize(spans: &mut Vec<Span>) {
        spans.sort_unstable();
        let mut out = 0;
        for i in 0..spans.len() {
            let s = spans[i];
            if out > 0 && spans[out - 1].buf == s.buf && s.start <= spans[out - 1].end {
                spans[out - 1].end = spans[out - 1].end.max(s.end);
            } else {
                spans[out] = s;
                out += 1;
            }
        }
        spans.truncate(out);
    }

    /// The accesses of a whole launch, keyed by group.
    #[derive(Debug, Default)]
    pub struct LaunchLog {
        reads: Vec<(Span, usize)>,
        writes: Vec<(Span, usize)>,
    }

    impl LaunchLog {
        /// Move `group`'s accesses in, leaving `log` empty for the next
        /// group.
        pub fn absorb(&mut self, group: usize, log: &mut GroupLog) {
            normalize(&mut log.reads);
            normalize(&mut log.writes);
            self.reads.extend(log.reads.drain(..).map(|s| (s, group)));
            self.writes.extend(log.writes.drain(..).map(|s| (s, group)));
        }

        pub fn merge(&mut self, other: LaunchLog) {
            self.reads.extend(other.reads);
            self.writes.extend(other.writes);
        }

        /// Panic if two groups wrote overlapping bytes, or a group read
        /// bytes another group wrote.
        pub fn assert_disciplined(mut self, kernel: &str) {
            // Sorted by start, each write only has to clear the span before
            // it once overlapping spans of one group are merged — and spans
            // of different groups must not overlap at all.
            self.writes.sort_unstable();
            let mut merged: Vec<(Span, usize)> = Vec::with_capacity(self.writes.len());
            for &(w, g) in &self.writes {
                match merged.last_mut() {
                    Some((m, mg)) if m.buf == w.buf && w.start < m.end => {
                        assert!(
                            *mg == g,
                            "kernel `{kernel}`: work-groups {mg} and {g} both write buffer {} \
                             bytes {}..{}",
                            w.buf,
                            w.start,
                            m.end.min(w.end),
                        );
                        m.end = m.end.max(w.end);
                    }
                    _ => merged.push((w, g)),
                }
            }
            for &(r, g) in &self.reads {
                let from = merged.partition_point(|&(w, _)| (w.buf, w.end) <= (r.buf, r.start));
                for &(w, wg) in &merged[from..] {
                    if w.buf != r.buf || w.start >= r.end {
                        break;
                    }
                    assert!(
                        wg == g,
                        "kernel `{kernel}`: work-group {g} reads buffer {} bytes {}..{} that \
                         work-group {wg} writes in the same launch",
                        r.buf,
                        r.start.max(w.start),
                        r.end.min(w.end),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_warp_tracker() -> GmemTracker {
        let mut t = GmemTracker::default();
        t.configure(32);
        t
    }

    fn one_warp_lmem(len: usize) -> LocalMem {
        let mut l = LocalMem::default();
        l.configure(len, 32);
        l
    }

    /// A lane whose one operation is a `len`-byte store at `addr` of
    /// buffer `buf`, issued in slot `seq`.
    fn store(t: &mut GmemTracker, seq: u32, buf: usize, addr: usize, len: usize) {
        let mut at = t.logged();
        t.write(&mut at, seq, buf, addr, len);
        t.end_lane(at);
    }

    /// A lane whose one operation is a word load at `addr`, in slot `seq`.
    fn load(l: &mut LocalMem, seq: u32, addr: usize) -> i32 {
        let mut at = l.logged();
        let v = l.load_i32(&mut at, seq, addr);
        l.end_lane(at);
        v
    }

    #[test]
    fn buffer_host_roundtrip() {
        let mut b = Buffer::new(8);
        b.host_slice_mut()[3] = 42;
        assert_eq!(b.host_slice()[3], 42);
        assert_eq!(b.len(), 8);
        // A reused buffer is a fresh one: zeroed, or exactly the new bytes.
        b.reset_zeroed(4);
        assert_eq!(b.host_slice(), &[0; 4]);
        b.reset_to(&[1, 2, 3, 4, 5, 6]);
        assert_eq!(b.host_slice(), &[1, 2, 3, 4, 5, 6]);
        b.reset_zeroed(8);
        assert_eq!(b.host_slice(), &[0; 8]);
    }

    #[test]
    fn fully_coalesced_warp_is_minimal_transactions() {
        // 32 items reading consecutive 4-byte words: 128 bytes = 1 segment.
        let mut t = one_warp_tracker();
        for item in 0..32usize {
            t.read(0, item * 4, 4);
        }
        let (r, w) = t.retire_warp();
        assert_eq!((r, w), (1, 0));
    }

    #[test]
    fn strided_warp_explodes_transactions() {
        // 32 items reading 4 bytes each, 128 bytes apart: 32 segments.
        let mut t = one_warp_tracker();
        for item in 0..32usize {
            t.read(0, item * 128, 4);
        }
        let (r, _) = t.retire_warp();
        assert_eq!(r, 32);
    }

    #[test]
    fn different_buffers_never_coalesce() {
        let mut t = one_warp_tracker();
        t.read(0, 0, 4);
        t.read(1, 0, 4);
        let (r, _) = t.retire_warp();
        assert_eq!(r, 2);
    }

    #[test]
    fn unaligned_access_spans_two_segments() {
        let mut t = one_warp_tracker();
        store(&mut t, 0, 0, 126, 4);
        let (_, w) = t.retire_warp();
        assert_eq!(w, 2);
    }

    #[test]
    fn bank_conflicts_counted() {
        let mut l = one_warp_lmem(33 * 4 * 4);
        // Two items hitting bank 0 at distinct addresses (0 and 128 bytes
        // = word 0 and word 32, both bank 0): 1 extra cycle.
        load(&mut l, 0, 0);
        load(&mut l, 0, 128);
        l.retire_warp();
        assert_eq!(l.conflict_cycles, 1);

        // Broadcast: same address from many items is free.
        let mut l = one_warp_lmem(256);
        for _item in 0..8 {
            load(&mut l, 0, 64);
        }
        l.retire_warp();
        assert_eq!(l.conflict_cycles, 0);
        assert_eq!(l.accesses, 8);
    }

    #[test]
    fn conflict_free_padded_layout() {
        // Classic 33-word row padding: column accesses hit distinct banks.
        let mut l = one_warp_lmem(33 * 4 * 32);
        for item in 0..32 {
            load(&mut l, 0, item * 33 * 4); // row-major stride of 33 words
        }
        l.retire_warp();
        assert_eq!(l.conflict_cycles, 0, "33-stride should be conflict-free");
    }

    #[test]
    fn lmem_data_roundtrips() {
        let mut l = one_warp_lmem(64);
        let mut at = l.logged();
        l.store_i64(&mut at, 0, 8, -123456789);
        assert_eq!(l.load_i64(&mut at, 1, 8), -123456789);
        l.store_i32(&mut at, 2, 0, 77);
        assert_eq!(l.load_i32(&mut at, 3, 0), 77);
        l.end_lane(at);
        assert_eq!(l.logged(), 4);
        // The next group starts from zeroed local memory.
        l.retire_warp();
        l.reset();
        assert_eq!(load(&mut l, 0, 8), 0);
    }

    #[test]
    fn slot_tables_keep_capacity_and_forget_contents() {
        let mut t = one_warp_tracker();
        // Lane 0 stores at a high sequence number, lane 1 at a low one (the
        // lanes drift apart, so the warp is sorted into the slot table),
        // then a phase that never reaches it: nothing may leak across the
        // barrier.
        store(&mut t, 900, 0, 0, 4);
        store(&mut t, 3, 0, 4096, 4);
        assert_eq!(t.retire_warp(), (0, 2));
        store(&mut t, 3, 0, 0, 4);
        assert_eq!(t.retire_warp(), (0, 1));
        assert_eq!(t.retire_warp(), (0, 0));
        // Two sequence numbers in use cost two compact slots of `width`
        // entries, not 901: only the `seq` → slot index spans them.
        let table = &t.writes.table;
        assert_eq!(table.len.len(), 2);
        assert_eq!(table.entries.len(), 2 * table.width);
        assert!(table.seqs.is_empty());
        assert!(table.slot_of_seq.iter().all(|&s| s == 0));
        assert!(t.writes.len == 0 && t.writes.lanes == 0);

        // Nor from one warp to the next: two warps storing to one segment
        // in the same slot pay one transaction each, and a warp's bank
        // conflicts never meet the next warp's words.
        for addr in [0, 4] {
            store(&mut t, 0, 0, addr, 4);
        }
        assert_eq!(t.retire_warp(), (0, 1));
        store(&mut t, 0, 0, 8, 4);
        assert_eq!(t.retire_warp(), (0, 1));
        let mut l = one_warp_lmem(256);
        load(&mut l, 5, 0);
        l.retire_warp();
        load(&mut l, 5, 128);
        l.retire_warp();
        assert_eq!((l.accesses, l.conflict_cycles), (2, 0));
    }

    #[test]
    fn memoised_folds_equal_fresh_folds_for_translated_patterns() {
        // One word pattern at many bases (and so many bank rotations) and
        // one store pattern at every alignment within a segment: the
        // memo must hand back what a direct fold computes.
        let pattern: Vec<usize> = (0..32).map(|i| (i % 8) * 2 + (i / 8) * 130).collect();
        for base in [0usize, 1, 7, 31, 32, 33, 200] {
            let mut memo = one_warp_lmem(4096);
            let mut fresh = one_warp_lmem(4096);
            for _ in 0..2 {
                for &p in &pattern {
                    load(&mut memo, 0, (base + p) * 4);
                }
                memo.retire_warp();
            }
            for &p in &pattern {
                load(&mut fresh, 0, (base + p) * 4);
            }
            fresh.retire_warp();
            assert_eq!(
                memo.conflict_cycles,
                2 * fresh.conflict_cycles,
                "base {base}"
            );
        }
        for base in (0..256).step_by(4) {
            let mut memo = one_warp_tracker();
            let mut fresh = one_warp_tracker();
            for t in [&mut memo, &mut fresh] {
                for lane in 0..32 {
                    store(t, 0, 1, base + (lane % 8) * 24 + (lane / 8) * 3072, 16);
                }
            }
            let (_, want) = fresh.retire_warp();
            assert_eq!(memo.retire_warp(), (0, want), "base {base}");
            for lane in 0..32 {
                store(
                    &mut memo,
                    0,
                    1,
                    384 + base + (lane % 8) * 24 + (lane / 8) * 3072,
                    16,
                );
            }
            assert_eq!(memo.retire_warp(), (0, want), "base {base} + 3 segments");
        }
    }
}
