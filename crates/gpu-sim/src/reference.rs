//! The allocation-heavy accounting the trackers replaced, kept as the
//! oracle for them and for their memos: the per-warp `WarpTracker`, the
//! per-slot `LocalMem` bank fold and the group bookkeeping exactly as they
//! stood before, plus property tests that drive both implementations with
//! the same seeded random and kernel-shaped access traces and demand equal
//! [`LaunchStats`].

use crate::device::DeviceSpec;
use crate::kernel::{GroupCtx, ItemCtx, Kernel};
use crate::stats::LaunchStats;
use crate::{BufId, GpuSim, LMEM_BANKS, TRANSACTION_BYTES};

/// Per-warp coalescing tracker for one lockstep phase (reference).
#[derive(Debug, Default)]
struct WarpTracker {
    read_segments: Vec<u64>,
    write_slots: Vec<Vec<u64>>,
    read_bytes: u64,
    write_bytes: u64,
}

impl WarpTracker {
    fn record(&mut self, seq: usize, buf: usize, addr: usize, len: usize, write: bool) {
        let first_seg = ((buf as u64) << 40) | (addr as u64 / TRANSACTION_BYTES);
        let last_seg = ((buf as u64) << 40) | ((addr + len - 1) as u64 / TRANSACTION_BYTES);
        if write {
            if self.write_slots.len() <= seq {
                self.write_slots.resize_with(seq + 1, Vec::new);
            }
            let set = &mut self.write_slots[seq];
            for seg in first_seg..=last_seg {
                if !set.contains(&seg) {
                    set.push(seg);
                }
            }
            self.write_bytes += len as u64;
        } else {
            for seg in first_seg..=last_seg {
                if !self.read_segments.contains(&seg) {
                    self.read_segments.push(seg);
                }
            }
            self.read_bytes += len as u64;
        }
    }

    fn finish_phase(&mut self) -> (u64, u64) {
        let r = self.read_segments.len() as u64;
        let w: u64 = self.write_slots.iter().map(|s| s.len() as u64).sum();
        self.read_segments.clear();
        self.write_slots.clear();
        (r, w)
    }
}

/// Bank-conflict accounting of work-group local memory (reference).
#[derive(Debug)]
struct LocalMem {
    /// `bank_slots[warp][seq]` = (bank, word address) pairs.
    bank_slots: Vec<Vec<Vec<(usize, usize)>>>,
    accesses: u64,
    conflict_cycles: u64,
    warp_size: usize,
}

impl LocalMem {
    fn new(warps: usize, warp_size: usize) -> Self {
        LocalMem {
            bank_slots: vec![Vec::new(); warps.max(1)],
            accesses: 0,
            conflict_cycles: 0,
            warp_size,
        }
    }

    fn track(&mut self, item: usize, seq: usize, addr: usize) {
        self.accesses += 1;
        let warp = item / self.warp_size;
        let slots = &mut self.bank_slots[warp];
        if slots.len() <= seq {
            slots.resize_with(seq + 1, Vec::new);
        }
        let bank = (addr / 4) % LMEM_BANKS;
        slots[seq].push((bank, addr / 4));
    }

    fn finish_phase(&mut self) {
        for warp_slots in self.bank_slots.iter_mut() {
            for slot in warp_slots.iter_mut() {
                if slot.is_empty() {
                    continue;
                }
                let mut max_multiplicity = 1usize;
                for bank in 0..LMEM_BANKS {
                    let mut addrs: Vec<usize> = slot
                        .iter()
                        .filter(|&&(b, _)| b == bank)
                        .map(|&(_, a)| a)
                        .collect();
                    addrs.sort_unstable();
                    addrs.dedup();
                    max_multiplicity = max_multiplicity.max(addrs.len().max(1));
                }
                self.conflict_cycles += (max_multiplicity - 1) as u64;
                slot.clear();
            }
        }
    }
}

/// One metered operation of a work-item.
#[derive(Debug, Clone, Copy)]
enum Op {
    Charge(u64),
    Branch(bool),
    /// Global load of 1, 2, 4 or 8 bytes.
    GLoad(usize, usize, usize),
    /// Global store of 1, 2, 4, 8 or 16 bytes.
    GStore(usize, usize, usize),
    /// Local access of 4 or 8 bytes.
    Local(usize, usize, bool),
}

/// `trace[group][phase][item]` = the item's operations in that phase.
type Trace = Vec<Vec<Vec<Vec<Op>>>>;

/// The statistics the reference accounting gives `trace`.
fn reference_stats(trace: &Trace, items: usize, warp_size: usize) -> LaunchStats {
    let warps = items.div_ceil(warp_size);
    let mut total = LaunchStats::default();
    for group in trace {
        let mut stats = LaunchStats {
            groups: 1,
            items: items as u64,
            ..Default::default()
        };
        let mut local = LocalMem::new(warps, warp_size);
        let mut trackers: Vec<WarpTracker> = (0..warps).map(|_| WarpTracker::default()).collect();
        let mut branch_slots: Vec<Vec<(bool, bool)>> = vec![Vec::new(); warps];
        let mut warp_issue = vec![0u64; warps];
        for phase in group {
            let mut busiest = vec![0u64; warps];
            for (item, ops) in phase.iter().enumerate() {
                let warp = item / warp_size;
                let mut seq = 0usize;
                let mut lane = 0u64;
                for &op in ops {
                    if let Op::Charge(n) = op {
                        stats.compute_ops += n;
                        lane += n;
                        continue;
                    }
                    lane += 1;
                    stats.compute_ops += 1;
                    match op {
                        Op::Charge(_) => unreachable!(),
                        Op::Branch(taken) => {
                            let slots = &mut branch_slots[warp];
                            if slots.len() <= seq {
                                slots.resize(seq + 1, (false, false));
                            }
                            if taken {
                                slots[seq].0 = true;
                            } else {
                                slots[seq].1 = true;
                            }
                        }
                        Op::GLoad(buf, addr, len) => {
                            trackers[warp].record(seq, buf, addr, len, false)
                        }
                        Op::GStore(buf, addr, len) => {
                            trackers[warp].record(seq, buf, addr, len, true)
                        }
                        Op::Local(addr, _, _) => local.track(item, seq, addr),
                    }
                    seq += 1;
                }
                busiest[warp] = busiest[warp].max(lane);
            }
            for (total, b) in warp_issue.iter_mut().zip(busiest) {
                *total += b;
            }
            for t in trackers.iter_mut() {
                let (r, w) = t.finish_phase();
                stats.gmem_read_transactions += r;
                stats.gmem_write_transactions += w;
            }
            for slots in branch_slots.iter_mut() {
                stats.divergent_branches += slots.iter().filter(|s| s.0 && s.1).count() as u64;
                slots.clear();
            }
            local.finish_phase();
        }
        for t in &trackers {
            stats.gmem_read_bytes += t.read_bytes;
            stats.gmem_write_bytes += t.write_bytes;
        }
        stats.lmem_accesses = local.accesses;
        stats.lmem_conflict_cycles = local.conflict_cycles;
        stats.max_warp_ops = warp_issue.into_iter().max().unwrap_or(0);
        total.merge(&stats);
    }
    total
}

/// Replays a [`Trace`] through the real contexts.
struct TraceKernel<'t> {
    trace: &'t Trace,
    items: usize,
    local_bytes: usize,
}

impl Kernel for TraceKernel<'_> {
    fn name(&self) -> &'static str {
        "trace"
    }
    fn items_per_group(&self) -> usize {
        self.items
    }
    fn local_bytes(&self) -> usize {
        self.local_bytes
    }
    fn run_group(&self, ctx: &mut GroupCtx<'_>) {
        for phase in &self.trace[ctx.group_id] {
            ctx.phase(|it| {
                for &op in &phase[it.id()] {
                    replay(it, op);
                }
            });
        }
    }
}

fn replay(it: &mut ItemCtx<'_, '_>, op: Op) {
    match op {
        Op::Charge(n) => it.charge(n),
        Op::Branch(taken) => {
            it.branch(taken);
        }
        Op::GLoad(buf, addr, 1) => {
            it.gload_u8(BufId(buf), addr);
        }
        Op::GLoad(buf, addr, 2) => {
            it.gload_i16(BufId(buf), addr);
        }
        Op::GLoad(buf, addr, 4) => {
            it.gload_u32(BufId(buf), addr);
        }
        Op::GLoad(buf, addr, _) => {
            it.gload_vec8(BufId(buf), addr);
        }
        Op::GStore(buf, addr, 1) => it.gstore_u8(BufId(buf), addr, 7),
        Op::GStore(buf, addr, 2) => it.gstore_i16(BufId(buf), addr, 7),
        Op::GStore(buf, addr, 4) => it.gstore_vec4(BufId(buf), addr, [7; 4]),
        Op::GStore(buf, addr, 8) => it.gstore_vec8(BufId(buf), addr, [7; 8]),
        Op::GStore(buf, addr, _) => it.gstore_vec16(BufId(buf), addr, [7; 16]),
        Op::Local(addr, 4, true) => it.lstore_i32(addr, 7),
        Op::Local(addr, 4, false) => {
            it.lload_i32(addr);
        }
        Op::Local(addr, _, true) => it.lstore_i64(addr, 7),
        Op::Local(addr, _, false) => {
            it.lload_i64(addr);
        }
    }
}

/// splitmix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
    fn pick<T: Copy>(&mut self, of: &[T]) -> T {
        of[self.below(of.len())]
    }
}

const BUFFERS: usize = 3;
/// Every group may read this prefix of each buffer; nobody writes it.
const SHARED_BYTES: usize = 1024;
/// Bytes of each buffer only group `g` reads and writes, after the prefix.
const GROUP_BYTES: usize = 640;
const LOCAL_BYTES: usize = 2048;

/// A random trace over `groups` groups of `items` items. Addresses are drawn
/// so warps mix coalesced runs, strides, broadcasts, unaligned widths that
/// straddle 128-byte segments, and n-way bank collisions; items skip
/// operations at random, so their sequence numbers drift apart.
fn random_trace(rng: &mut Rng, groups: usize, items: usize) -> Trace {
    (0..groups)
        .map(|g| {
            let phases = 1 + rng.below(3);
            (0..phases)
                .map(|_| {
                    // One recipe per phase: what lane `i` does at step `s`,
                    // so lanes line up — until a lane drops a step.
                    let steps = 1 + rng.below(12);
                    let recipe: Vec<(usize, usize, usize, usize)> = (0..steps)
                        .map(|_| {
                            (
                                rng.below(6),
                                rng.below(1 << 16),
                                rng.below(200),
                                rng.below(4),
                            )
                        })
                        .collect();
                    let skip_one_in = rng.pick(&[0usize, 0, 3, 9]);
                    (0..items)
                        .map(|i| {
                            let mut ops = Vec::new();
                            for &(kind, base, stride, buf) in &recipe {
                                if skip_one_in > 0 && rng.below(skip_one_in) == 0 {
                                    continue;
                                }
                                let buf = buf % BUFFERS;
                                let lane_off = match stride % 4 {
                                    0 => 0,                 // broadcast
                                    1 => i * (stride % 17), // small stride, unaligned
                                    2 => i * 128,           // one segment / bank per lane
                                    _ => rng.below(600),    // scattered
                                };
                                ops.push(match kind {
                                    0 => Op::Charge(1 + (base % 40) as u64),
                                    1 => Op::Branch((base + i * stride) % 3 != 0),
                                    2 => {
                                        let len = rng.pick(&[1usize, 2, 4, 8]);
                                        let own = rng.below(3) == 0;
                                        let (lo, span) = if own {
                                            (SHARED_BYTES + g * GROUP_BYTES, GROUP_BYTES)
                                        } else {
                                            (0, SHARED_BYTES)
                                        };
                                        Op::GLoad(buf, lo + (base + lane_off) % (span - len), len)
                                    }
                                    3 => {
                                        let len = rng.pick(&[1usize, 2, 4, 8, 16]);
                                        let lo = SHARED_BYTES + g * GROUP_BYTES;
                                        let at = (base + lane_off) % (GROUP_BYTES - len);
                                        Op::GStore(buf, lo + at, len)
                                    }
                                    _ => {
                                        let len = rng.pick(&[4usize, 8]);
                                        let at = (base + lane_off * 4) % (LOCAL_BYTES - len);
                                        Op::Local(at / len * len, len, kind == 4)
                                    }
                                });
                            }
                            ops
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Local bytes and per-group store bytes of [`shaped_trace`].
const SHAPED_LOCAL_BYTES: usize = 12 * 1024;
const SHAPED_GROUP_BYTES: usize = 2304;

/// A trace shaped like the IDCT-family kernels, over `groups` groups of
/// `items` items in blocks of eight lanes. Phase 1: each block draws a
/// class `k` (1, 2, 4 or 8); its lanes below column `k` issue `k` loads
/// before their eight local stores, so lanes' sequence numbers drift apart
/// by class, and blocks past `live` (in the last group) stop after their
/// first branch; the local row stride is drawn per launch. Phase 2:
/// lockstep local loads of a row, then either one 8-byte row store or six
/// 4-byte stores along a 200-byte "image row", with odd rows sometimes
/// issuing an extra branch first. Every group runs
/// the same pattern translated: its local words by a group offset, its
/// stores by a group base at a group-drawn alignment within 128 bytes.
fn shaped_trace(rng: &mut Rng, groups: usize, items: usize) -> Trace {
    let blocks = items.div_ceil(8);
    let six_stores = rng.below(2) == 0;
    let drift_stores = rng.below(2) == 0;
    // The local row stride: drifting lanes mix rows in one slot, so it
    // changes the conflicts while every lane's offset from lane 0 stays.
    let row_words = rng.pick(&[16usize, 18, 34]);
    (0..groups)
        .map(|g| {
            let ks: Vec<usize> = (0..blocks).map(|_| rng.pick(&[1usize, 2, 4, 8])).collect();
            let live = if g + 1 == groups {
                1 + rng.below(blocks)
            } else {
                blocks
            };
            // Even, so the 8-byte local accesses stay aligned.
            let lbase = 2 * rng.below(32);
            let store_base = SHARED_BYTES + g * SHAPED_GROUP_BYTES + rng.below(128);
            let word = |lb: usize, r: usize, c: usize| lbase + lb * 130 + r * row_words + c * 2;
            let column = (0..items)
                .map(|i| {
                    let (lb, col) = (i / 8, i % 8);
                    let mut ops = vec![Op::Branch(lb < live)];
                    if lb >= live {
                        return ops;
                    }
                    let k = ks[lb];
                    ops.push(Op::Branch(col < k));
                    if col < k {
                        for r in 0..k {
                            ops.push(Op::GLoad(0, (lb * 64 + r * k + col) * 2 % SHARED_BYTES, 2));
                        }
                    }
                    ops.push(Op::Charge(3));
                    for r in 0..8 {
                        ops.push(Op::Local(word(lb, r, col) * 4, 8, true));
                    }
                    ops
                })
                .collect();
            let row = (0..items)
                .map(|i| {
                    let (lb, row) = (i / 8, i % 8);
                    let mut ops = vec![Op::Branch(lb < live)];
                    if lb >= live {
                        return ops;
                    }
                    ops.push(Op::GLoad(1, lb, 1));
                    for c in 0..8 {
                        ops.push(Op::Local(word(lb, row, c) * 4, 8, false));
                    }
                    if drift_stores && row % 2 == 1 {
                        ops.push(Op::Branch(ks[lb] > 2));
                    }
                    if six_stores {
                        let at = store_base + row * 200 + lb * 24;
                        ops.extend((0..6).map(|v| Op::GStore(2, at + 4 * v, 4)));
                    } else {
                        ops.push(Op::GStore(2, store_base + (lb * 8 + row) * 8, 8));
                    }
                    ops
                })
                .collect();
            vec![column, row]
        })
        .collect()
}

/// A simulator with the three trace buffers, each `own` bytes per group
/// after the shared prefix.
fn trace_device(groups: usize, own: usize, host_threads: usize) -> GpuSim {
    let mut sim = GpuSim::new(DeviceSpec::gtx560ti());
    for _ in 0..BUFFERS {
        sim.create_buffer(SHARED_BYTES + groups * own);
    }
    sim.host_threads = host_threads;
    sim
}

#[test]
fn fixed_shape_trackers_match_the_reference_on_random_traces() {
    let mut rng = Rng(0x5EED_2014);
    // Full warps, partial last warps of groups of one to five warps, a
    // group smaller than a warp, and one launch wide enough to run on
    // several host workers.
    let cases = [
        (5usize, 64usize),
        (7, 40),
        (3, 24),
        (4, 96),
        (2, 130),
        (6, 150),
        (400, 96),
    ];
    for (case, &(groups, items)) in cases.iter().enumerate() {
        for round in 0..if groups > 100 { 1 } else { 12 } {
            let trace = random_trace(&mut rng, groups, items);
            let mut sim = trace_device(groups, GROUP_BYTES, 3);
            let kernel = TraceKernel {
                trace: &trace,
                items,
                local_bytes: LOCAL_BYTES,
            };
            let want = reference_stats(&trace, items, sim.device.warp_size);
            let got = sim.launch(&kernel, groups);
            assert_eq!(got, want, "case {case} round {round}");
            // The same device again: trackers reused across launches, and
            // the count cannot depend on how many workers shared it.
            sim.host_threads = 1;
            assert_eq!(sim.launch(&kernel, groups), want, "case {case} relaunch");
        }
    }
}

/// Kernel-shaped traces — drifting and lockstep lanes, one pattern
/// translated across groups and alignments — over launches of 1 to 9 and
/// 37 groups of one to five warps, each at 1, 2 and 3 host threads on one
/// reused device: the memoised folds must agree with the reference.
#[test]
fn memoised_folds_match_the_reference_on_kernel_shaped_traces() {
    let mut rng = Rng(0x5EED_0035);
    let widths = [8usize, 32, 40, 64, 96, 120, 150, 160];
    let mut sims: Vec<GpuSim> = (1..=3)
        .map(|t| trace_device(37, SHAPED_GROUP_BYTES, t))
        .collect();
    for (n, groups) in (1..=9).chain([37]).enumerate() {
        for round in 0..3 {
            let items = widths[(n + round) % widths.len()];
            let trace = shaped_trace(&mut rng, groups, items);
            let kernel = TraceKernel {
                trace: &trace,
                items,
                local_bytes: SHAPED_LOCAL_BYTES,
            };
            let want = reference_stats(&trace, items, 32);
            for sim in &mut sims {
                let got = sim.launch(&kernel, groups);
                let threads = sim.host_threads;
                assert_eq!(
                    got, want,
                    "{groups} groups of {items}, {threads} host threads"
                );
            }
        }
    }
}
