//! Device global memory with warp-granular access tracking.
//!
//! Global buffers are untyped byte arrays (as in OpenCL). Typed accessors on
//! [`crate::ItemCtx`] record `(sequence, address, width)` per access;
//! [`GmemTracker`] folds them into 128-byte transactions per warp per
//! lockstep instruction slot — the coalescing rule the paper's buffer
//! layouts and vectorized writes are designed around (§4).
//!
//! The trackers are fixed-shape and live as long as the executor's worker
//! that owns them: a phase barrier resets lengths and watermarks, never
//! capacity, so the steady state of a launch performs no heap traffic.

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

/// Fixed-width entry lists keyed by (issue slot, warp), reused across
/// phases and work-groups.
///
/// An item's `seq`-th operation issues in lockstep with the `seq`-th
/// operation of every other lane of its warp, so whatever a warp-level
/// rule folds (store coalescing, bank conflicts) is a list of at most
/// `width` entries per `(seq, warp)`. Sequence numbers are shared by every
/// operation kind and can run into the thousands in loopy kernels, so
/// `slot_of_seq` maps the ones this table actually sees to compact slots.
#[derive(Debug, Default)]
struct SlotTable<T> {
    warps: usize,
    width: usize,
    /// `seq` → compact slot + 1; 0 = not seen this phase.
    slot_of_seq: Vec<u32>,
    /// `slot_of_seq[..seen_seqs]` may be non-zero.
    seen_seqs: usize,
    used_slots: usize,
    /// `[slot][warp]` entry counts.
    len: Vec<u8>,
    /// `[slot][warp][width]` entries.
    entries: Vec<T>,
}

impl<T: Copy + Default> SlotTable<T> {
    /// Shape the table for groups of `warps` warps with up to `width`
    /// entries per list. Must be called with the table drained.
    fn configure(&mut self, warps: usize, width: usize) {
        assert!(width <= u8::MAX as usize, "slot width {width} overflows u8");
        debug_assert_eq!((self.seen_seqs, self.used_slots), (0, 0));
        if (warps, width) != (self.warps, self.width) {
            self.warps = warps;
            self.width = width;
            self.len.clear();
            self.entries.clear();
        }
    }

    /// The list of `(seq, warp)`: its length counter and its storage.
    #[inline]
    fn list(&mut self, seq: usize, warp: usize) -> (&mut u8, &mut [T]) {
        if seq >= self.seen_seqs {
            if seq >= self.slot_of_seq.len() {
                self.slot_of_seq.resize(seq + 1, 0);
            }
            self.seen_seqs = seq + 1;
        }
        let mut slot = self.slot_of_seq[seq] as usize;
        if slot == 0 {
            self.used_slots += 1;
            slot = self.used_slots;
            self.slot_of_seq[seq] = slot as u32;
            if self.len.len() < slot * self.warps {
                self.len.resize(slot * self.warps, 0);
                self.entries
                    .resize(slot * self.warps * self.width, T::default());
            }
        }
        let i = (slot - 1) * self.warps + warp;
        (
            &mut self.len[i],
            &mut self.entries[i * self.width..(i + 1) * self.width],
        )
    }

    /// Visit every non-empty list, then empty the table (capacity stays).
    fn drain(&mut self, mut f: impl FnMut(&[T])) {
        for i in 0..self.used_slots * self.warps {
            let n = std::mem::take(&mut self.len[i]) as usize;
            if n > 0 {
                f(&self.entries[i * self.width..i * self.width + n]);
            }
        }
        self.slot_of_seq[..self.seen_seqs].fill(0);
        self.seen_seqs = 0;
        self.used_slots = 0;
    }
}

/// Coalescing tracker for the warps of one work-group, one lockstep phase
/// at a time.
///
/// **Writes** are charged per lockstep slot: the `k`-th store of every item
/// in a warp issues together, and the distinct 128-byte segments touched in
/// that slot become transactions (Fermi's L1 is write-through, so stores
/// always pay). **Reads** are charged per *phase*: distinct segments
/// touched by the warp across the whole phase — modelling the L1 cache
/// that serves repeated and neighbouring loads within a phase's working
/// set (this is the "optimized for GPU memory hierarchies" assumption of
/// paper §4; without it, byte-granular loads would be charged as if every
/// issue slot missed cache).
#[derive(Debug, Default)]
pub(crate) struct GmemTracker {
    /// Per warp: distinct segments read during the current phase.
    read_segments: Vec<Vec<u64>>,
    /// Per warp: the segment its latest load resolved to.
    last_read: Vec<u64>,
    /// Distinct segment ids per (issue slot, warp) of stores.
    write_slots: SlotTable<u64>,
    /// Useful bytes.
    pub read_bytes: u64,
    pub write_bytes: u64,
}

/// No segment id equals this: ids carry a buffer index in the upper bits.
const NO_SEGMENT: u64 = u64::MAX;

impl GmemTracker {
    /// Shape the tracker for groups of `warps` warps of `warp_size` lanes
    /// and zero the byte counters.
    pub fn configure(&mut self, warps: usize, warp_size: usize) {
        self.read_segments.resize_with(warps, Vec::new);
        self.last_read.clear();
        self.last_read.resize(warps, NO_SEGMENT);
        // An access is narrower than a segment, so it touches at most two.
        self.write_slots.configure(warps, 2 * warp_size);
        self.read_bytes = 0;
        self.write_bytes = 0;
    }

    /// Record an access of `len` bytes at byte address `addr` of buffer
    /// `buf` (the id goes in the upper bits so different buffers never
    /// coalesce), issued by a lane of `warp` as its `seq`-th operation.
    #[inline]
    pub fn record(
        &mut self,
        warp: usize,
        seq: usize,
        buf: usize,
        addr: usize,
        len: usize,
        write: bool,
    ) {
        debug_assert!(len as u64 <= TRANSACTION_BYTES);
        let first_seg = ((buf as u64) << 40) | (addr as u64 / TRANSACTION_BYTES);
        let last_seg = ((buf as u64) << 40) | ((addr + len - 1) as u64 / TRANSACTION_BYTES);
        if write {
            let (n, set) = self.write_slots.list(seq, warp);
            for seg in first_seg..=last_seg {
                let seen = &set[..*n as usize];
                if seen.last() != Some(&seg) && !seen.contains(&seg) {
                    set[*n as usize] = seg;
                    *n += 1;
                }
            }
            self.write_bytes += len as u64;
        } else {
            let set = &mut self.read_segments[warp];
            let last = &mut self.last_read[warp];
            for seg in first_seg..=last_seg {
                if *last != seg {
                    if !set.contains(&seg) {
                        set.push(seg);
                    }
                    *last = seg;
                }
            }
            self.read_bytes += len as u64;
        }
    }

    /// Transactions accumulated (reads, writes) over all warps, consuming
    /// the phase.
    pub fn finish_phase(&mut self) -> (u64, u64) {
        let mut r = 0u64;
        for set in self.read_segments.iter_mut() {
            r += set.len() as u64;
            set.clear();
        }
        self.last_read.fill(NO_SEGMENT);
        let mut w = 0u64;
        self.write_slots.drain(|set| w += set.len() as u64);
        (r, w)
    }
}

/// Work-group local (shared) memory with bank-conflict accounting.
#[derive(Debug, Default)]
pub(crate) struct LocalMem {
    data: Vec<u8>,
    /// Word addresses touched per (issue slot, warp).
    word_slots: SlotTable<u32>,
    /// Per word of `data`: the last slot fold that saw it (see
    /// [`Self::finish_phase`]).
    seen_in: Vec<u32>,
    /// Ordinal of the latest slot fold; 0 = none yet.
    fold: u32,
    /// Total accesses.
    pub accesses: u64,
    /// Extra serialized cycles from conflicts.
    pub conflict_cycles: u64,
}

impl LocalMem {
    /// Shape local memory for groups of `warps` warps of `warp_size` lanes
    /// with `len` bytes, zero the bytes and the counters.
    pub fn configure(&mut self, len: usize, warps: usize, warp_size: usize) {
        self.word_slots.configure(warps, warp_size);
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

    #[inline]
    fn track(&mut self, warp: usize, seq: usize, addr: usize) {
        self.accesses += 1;
        let (n, words) = self.word_slots.list(seq, warp);
        words[*n as usize] = (addr / 4) as u32;
        *n += 1;
    }

    /// Load a 4-byte word (i32) at word-aligned byte address.
    #[inline]
    pub fn load_i32(&mut self, warp: usize, seq: usize, addr: usize) -> i32 {
        self.track(warp, seq, addr);
        i32::from_le_bytes(self.data[addr..addr + 4].try_into().expect("lmem load"))
    }

    /// Store a 4-byte word.
    #[inline]
    pub fn store_i32(&mut self, warp: usize, seq: usize, addr: usize, v: i32) {
        self.track(warp, seq, addr);
        self.data[addr..addr + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Load an 8-byte word (i64 — the islow IDCT intermediate).
    #[inline]
    pub fn load_i64(&mut self, warp: usize, seq: usize, addr: usize) -> i64 {
        self.track(warp, seq, addr);
        i64::from_le_bytes(self.data[addr..addr + 8].try_into().expect("lmem load"))
    }

    /// Store an 8-byte word.
    #[inline]
    pub fn store_i64(&mut self, warp: usize, seq: usize, addr: usize, v: i64) {
        self.track(warp, seq, addr);
        self.data[addr..addr + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Fold this phase's per-warp bank accesses into conflict cycles: a warp
    /// access that hits the same bank (word address modulo 32, the cc 2.x
    /// mapping) at `k` distinct addresses serializes into `k` cycles (k−1
    /// extra); same-address hits broadcast for free.
    ///
    /// Distinct addresses are counted without sorting or clearing: every
    /// slot fold gets the next ordinal, and a word counts for its bank the
    /// first time the current ordinal is stamped on it.
    pub fn finish_phase(&mut self) {
        let LocalMem {
            word_slots,
            seen_in,
            fold,
            conflict_cycles,
            ..
        } = self;
        word_slots.drain(|words| {
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
            *conflict_cycles += (worst - 1) as u64;
        });
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
        t.configure(1, 32);
        t
    }

    fn one_warp_lmem(len: usize) -> LocalMem {
        let mut l = LocalMem::default();
        l.configure(len, 1, 32);
        l
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
            t.record(0, 0, 0, item * 4, 4, false);
        }
        let (r, w) = t.finish_phase();
        assert_eq!((r, w), (1, 0));
    }

    #[test]
    fn strided_warp_explodes_transactions() {
        // 32 items reading 4 bytes each, 128 bytes apart: 32 segments.
        let mut t = one_warp_tracker();
        for item in 0..32usize {
            t.record(0, 0, 0, item * 128, 4, false);
        }
        let (r, _) = t.finish_phase();
        assert_eq!(r, 32);
    }

    #[test]
    fn different_buffers_never_coalesce() {
        let mut t = one_warp_tracker();
        t.record(0, 0, 0, 0, 4, false);
        t.record(0, 0, 1, 0, 4, false);
        let (r, _) = t.finish_phase();
        assert_eq!(r, 2);
    }

    #[test]
    fn unaligned_access_spans_two_segments() {
        let mut t = one_warp_tracker();
        t.record(0, 0, 0, 126, 4, true);
        let (_, w) = t.finish_phase();
        assert_eq!(w, 2);
    }

    #[test]
    fn bank_conflicts_counted() {
        let mut l = one_warp_lmem(33 * 4 * 4);
        // Two items hitting bank 0 at distinct addresses (0 and 128 bytes
        // = word 0 and word 32, both bank 0): 1 extra cycle.
        l.load_i32(0, 0, 0);
        l.load_i32(0, 0, 128);
        l.finish_phase();
        assert_eq!(l.conflict_cycles, 1);

        // Broadcast: same address from many items is free.
        let mut l = one_warp_lmem(256);
        for _item in 0..8 {
            l.load_i32(0, 0, 64);
        }
        l.finish_phase();
        assert_eq!(l.conflict_cycles, 0);
    }

    #[test]
    fn conflict_free_padded_layout() {
        // Classic 33-word row padding: column accesses hit distinct banks.
        let mut l = one_warp_lmem(33 * 4 * 32);
        for item in 0..32 {
            l.load_i32(0, 0, item * 33 * 4); // row-major stride of 33 words
        }
        l.finish_phase();
        assert_eq!(l.conflict_cycles, 0, "33-stride should be conflict-free");
    }

    #[test]
    fn lmem_data_roundtrips() {
        let mut l = one_warp_lmem(64);
        l.store_i64(0, 0, 8, -123456789);
        assert_eq!(l.load_i64(0, 1, 8), -123456789);
        l.store_i32(0, 2, 0, 77);
        assert_eq!(l.load_i32(0, 3, 0), 77);
        // The next group starts from zeroed local memory.
        l.finish_phase();
        l.reset();
        assert_eq!(l.load_i64(0, 0, 8), 0);
    }

    #[test]
    fn slot_tables_keep_capacity_and_forget_contents() {
        let mut t = one_warp_tracker();
        // A store at a high sequence number, then a phase that never
        // reaches it: nothing may leak across the barrier.
        t.record(0, 900, 0, 0, 4, true);
        t.record(0, 3, 0, 4096, 4, true);
        assert_eq!(t.finish_phase(), (0, 2));
        t.record(0, 3, 0, 0, 4, true);
        assert_eq!(t.finish_phase(), (0, 1));
        assert_eq!(t.finish_phase(), (0, 0));
        // Two sequence numbers in use cost two compact slots, not 901.
        assert_eq!(t.write_slots.len.len(), 2);
    }
}
