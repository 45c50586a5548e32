//! The allocation-heavy accounting the fixed-shape trackers replaced, kept
//! as the oracle for them: the per-warp `WarpTracker`, the per-slot
//! `LocalMem` bank fold and the group bookkeeping exactly as they stood
//! before, plus a property test that drives both implementations with the
//! same seeded random access traces and demands equal [`LaunchStats`].

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
        for phase in group {
            for (item, ops) in phase.iter().enumerate() {
                let warp = item / warp_size;
                let mut seq = 0usize;
                for &op in ops {
                    if let Op::Charge(n) = op {
                        stats.compute_ops += n;
                        continue;
                    }
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

#[test]
fn fixed_shape_trackers_match_the_reference_on_random_traces() {
    let mut rng = Rng(0x5EED_2014);
    // Full warps, a partial last warp, a group smaller than a warp, and
    // one launch wide enough to run on several host workers.
    for (case, &(groups, items)) in [(5usize, 64usize), (7, 40), (3, 24), (4, 96), (400, 96)]
        .iter()
        .enumerate()
    {
        for round in 0..if groups > 100 { 1 } else { 12 } {
            let trace = random_trace(&mut rng, groups, items);
            let mut sim = GpuSim::new(DeviceSpec::gtx560ti());
            for _ in 0..BUFFERS {
                sim.create_buffer(SHARED_BYTES + groups * GROUP_BYTES);
            }
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
