//! The device executor: buffers + parallel work-group dispatch.
//!
//! A launch runs its groups on the calling thread and on the device's
//! launch helpers (`helpers.rs`), host threads that outlive the
//! launch: one helper per `ITEMS_PER_HELPER` work-items beyond the calling
//! thread's share, so that waking a helper costs less than the groups it
//! takes.

use crate::device::DeviceSpec;
use crate::helpers::Helpers;
use crate::kernel::{GroupCtx, GroupState, Kernel};
use crate::memory::audit::LaunchLog;
use crate::memory::Buffer;
use crate::stats::LaunchStats;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Work-items a launch must hold per host worker beyond the calling
/// thread before it wakes that worker. A spawned helper cost as much as
/// 4096 items; a kept one, spinning or parked, pays for itself at 1024
/// (no lower threshold measured faster on a 2-vCPU host).
const ITEMS_PER_HELPER: usize = 1024;

/// Handle to a device buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufId(pub usize);

/// A simulated GPU: a device spec plus its global-memory buffers.
///
/// Work-groups of a launch are handed out by an atomic counter to the
/// calling thread and to the device's launch helpers, which it spawns at
/// the first launch that wants them and joins when it is dropped (see
/// [`Self::host_threads`]);
/// the **simulated** time is computed from the merged [`LaunchStats`] by
/// [`crate::TimingModel`], so host parallelism affects only wall-clock,
/// never results.
pub struct GpuSim {
    /// The simulated device.
    pub device: DeviceSpec,
    buffers: Vec<Buffer>,
    /// Most host workers a launch may use, the calling thread included. A
    /// launch uses one worker more than it has whole multiples of 1024
    /// work-items, up to this cap and never more than it has groups.
    pub host_threads: usize,
    /// The calling thread's bookkeeping, kept between launches so its
    /// tables are grown once per device rather than once per work-group;
    /// each helper keeps its own.
    caller: GroupState,
    helpers: Helpers,
}

impl GpuSim {
    /// Create a simulator for `device` with one host worker per available
    /// core.
    pub fn new(device: DeviceSpec) -> Self {
        let host_threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        GpuSim {
            device,
            buffers: Vec::new(),
            host_threads,
            caller: GroupState::default(),
            helpers: Helpers::default(),
        }
    }

    /// Allocate a zeroed device buffer of `len` bytes.
    pub fn create_buffer(&mut self, len: usize) -> BufId {
        self.buffers.push(Buffer::new(len));
        BufId(self.buffers.len() - 1)
    }

    /// Re-create buffer `id` as `len` zero bytes in its existing
    /// allocation — to everything that follows it is a buffer fresh from
    /// [`Self::create_buffer`].
    pub fn recreate_buffer(&mut self, id: BufId, len: usize) {
        self.buffers[id.0].reset_zeroed(len);
    }

    /// Re-create buffer `id` holding exactly `data`, in its existing
    /// allocation: [`Self::create_buffer`] plus a whole-buffer
    /// [`Self::write_buffer`] without the zero fill in between.
    pub fn recreate_buffer_from(&mut self, id: BufId, data: &[u8]) {
        self.buffers[id.0].reset_to(data);
    }

    /// Host → device copy (the data movement itself; the *time* it takes is
    /// modeled by [`crate::PcieModel`] and applied on the command queue).
    pub fn write_buffer(&mut self, id: BufId, offset: usize, data: &[u8]) {
        self.buffers[id.0].host_slice_mut()[offset..offset + data.len()].copy_from_slice(data);
    }

    /// Device → host view (zero-copy in the simulator).
    pub fn read_buffer(&self, id: BufId) -> &[u8] {
        self.buffers[id.0].host_slice()
    }

    /// Buffer length in bytes.
    pub fn buffer_len(&self, id: BufId) -> usize {
        self.buffers[id.0].len()
    }

    /// Execute `num_groups` work-groups of `kernel` and return merged
    /// statistics.
    ///
    /// Kernels must keep the [`Kernel`] discipline (disjoint writes per
    /// group, no reads of another group's writes). All our kernels
    /// partition output by `group_id`; debug builds assert it when the
    /// launch retires. Taking `&mut self` keeps host-side buffer views from
    /// overlapping a launch.
    pub fn launch(&mut self, kernel: &dyn Kernel, num_groups: usize) -> LaunchStats {
        // Each helper woken must have enough work-items to pay for it.
        let affordable = num_groups.saturating_mul(kernel.items_per_group()) / ITEMS_PER_HELPER;
        let threads = self
            .host_threads
            .min(affordable.saturating_add(1))
            .min(num_groups)
            .max(1);
        let (buffers, warp_size) = (&self.buffers[..], self.device.warp_size);

        let next = AtomicUsize::new(0);
        let work = |st: &mut GroupState| {
            let mut ctx = GroupCtx::new(std::mem::take(st), kernel, warp_size, buffers);
            let mut log = LaunchLog::default();
            loop {
                // Relaxed: the counter only hands out indices; the groups'
                // results are published when the helpers count themselves
                // done.
                let g = next.fetch_add(1, Ordering::Relaxed);
                if g >= num_groups {
                    break;
                }
                ctx.reset(g);
                kernel.run_group(&mut ctx);
                if cfg!(debug_assertions) {
                    ctx.log_into(&mut log);
                }
            }
            let (stats, state) = ctx.finish();
            *st = state;
            (stats, log)
        };
        let done = self.helpers.run(threads - 1, &mut self.caller, &work);

        let mut total = LaunchStats::default();
        let mut launch_log = LaunchLog::default();
        for (stats, log) in done {
            total.merge(&stats);
            launch_log.merge(log);
        }
        if cfg!(debug_assertions) {
            launch_log.assert_disciplined(kernel.name());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{GroupCtx, Kernel};

    struct FillKernel {
        dst: BufId,
    }
    impl Kernel for FillKernel {
        fn name(&self) -> &'static str {
            "fill"
        }
        fn items_per_group(&self) -> usize {
            64
        }
        fn run_group(&self, ctx: &mut GroupCtx<'_>) {
            let dst = self.dst;
            ctx.phase(|it| {
                let gid = it.global_id();
                it.gstore_u8(dst, gid, (gid % 251) as u8);
            });
        }
    }

    /// A lockstep-predicated loop, as a run or branch by branch, with a
    /// load after it.
    struct Loops {
        run: bool,
        dst: BufId,
    }
    impl Kernel for Loops {
        fn name(&self) -> &'static str {
            "loops"
        }
        fn items_per_group(&self) -> usize {
            48
        }
        fn run_group(&self, ctx: &mut GroupCtx<'_>) {
            let (run, dst) = (self.run, self.dst);
            ctx.phase(|it| {
                let (taken, trips) = (it.id() % 7, 9 + it.group_id() % 2);
                if run {
                    it.branch_run(taken, trips);
                } else {
                    for k in 0..trips {
                        it.branch(k < taken);
                    }
                }
                it.gload_u8(dst, it.global_id());
            });
        }
    }

    #[test]
    fn a_branch_run_records_what_its_branches_do() {
        let mut sim = GpuSim::new(DeviceSpec::gtx560ti());
        let dst = sim.create_buffer(48 * 5);
        let looped = sim.launch(&Loops { run: false, dst }, 5);
        let run = sim.launch(&Loops { run: true, dst }, 5);
        assert!(looped.divergent_branches > 0);
        assert_eq!(run, looped);
    }

    #[test]
    fn parallel_and_serial_execution_agree() {
        // Enough work-items for three workers.
        let groups = 203usize;
        let len = groups * 64;

        let mut par = GpuSim::new(DeviceSpec::gtx680());
        par.host_threads = 3;
        let dst = par.create_buffer(len);
        let stats_par = par.launch(&FillKernel { dst }, groups);

        let mut ser = GpuSim::new(DeviceSpec::gtx680());
        ser.host_threads = 1;
        let dst2 = ser.create_buffer(len);
        let stats_ser = ser.launch(&FillKernel { dst: dst2 }, groups);

        assert_eq!(par.read_buffer(dst), ser.read_buffer(dst2));
        assert_eq!(stats_par, stats_ser, "stats must be order-independent");
    }

    #[test]
    fn helpers_outlive_launches_and_agree_with_serial_execution() {
        // Two helpers kept across fifty launches of every size: none
        // (fewer than 16 groups of 64 items), one or both of them wanted,
        // in turn, on one device.
        let mut par = GpuSim::new(DeviceSpec::gtx680());
        par.host_threads = 3;
        let mut ser = GpuSim::new(DeviceSpec::gtx680());
        ser.host_threads = 1;
        for launch in 0..50usize {
            let groups = [1, 8, 20, 40, 203][launch % 5] + launch % 3;
            let (dst, dst2) = (
                par.create_buffer(groups * 64),
                ser.create_buffer(groups * 64),
            );
            let stats_par = par.launch(&FillKernel { dst }, groups);
            let stats_ser = ser.launch(&FillKernel { dst: dst2 }, groups);
            assert_eq!(
                par.read_buffer(dst),
                ser.read_buffer(dst2),
                "launch {launch}"
            );
            assert_eq!(stats_par, stats_ser, "launch {launch}");
        }
    }

    struct PanicKernel;
    impl Kernel for PanicKernel {
        fn name(&self) -> &'static str {
            "panic"
        }
        fn items_per_group(&self) -> usize {
            64
        }
        fn run_group(&self, ctx: &mut GroupCtx<'_>) {
            if ctx.group_id % 50 == 49 {
                panic!("group {} failed", ctx.group_id);
            }
        }
    }

    #[test]
    fn a_panicking_group_unwinds_the_launch_and_the_device_stays_usable() {
        let mut sim = GpuSim::new(DeviceSpec::gtx680());
        sim.host_threads = 3;
        for _ in 0..3 {
            let launch = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sim.launch(&PanicKernel, 203);
            }));
            assert!(launch.is_err(), "the panic must reach the caller");
        }
        let dst = sim.create_buffer(203 * 64);
        let stats = sim.launch(&FillKernel { dst }, 203);
        assert_eq!(stats.groups, 203);
    }

    #[test]
    fn zero_groups_is_a_noop() {
        let mut sim = GpuSim::new(DeviceSpec::gt430());
        let dst = sim.create_buffer(16);
        let stats = sim.launch(&FillKernel { dst }, 0);
        assert_eq!(stats, LaunchStats::default());
    }

    #[test]
    fn buffer_write_read_roundtrip() {
        let mut sim = GpuSim::new(DeviceSpec::gt430());
        let b = sim.create_buffer(8);
        sim.write_buffer(b, 2, &[9, 8, 7]);
        assert_eq!(sim.read_buffer(b), &[0, 0, 9, 8, 7, 0, 0, 0]);
        assert_eq!(sim.buffer_len(b), 8);
    }

    /// Each group stores one byte at `at(group)` and, if `read` is given,
    /// loads the byte at `read(group)` first.
    struct PokeKernel {
        buf: BufId,
        at: fn(usize) -> usize,
        read: Option<fn(usize) -> usize>,
    }
    impl Kernel for PokeKernel {
        fn name(&self) -> &'static str {
            "poke"
        }
        fn items_per_group(&self) -> usize {
            1
        }
        fn run_group(&self, ctx: &mut GroupCtx<'_>) {
            let group = ctx.group_id;
            ctx.phase(|it| {
                if let Some(read) = self.read {
                    it.gload_u8(self.buf, read(group));
                }
                it.gstore_u8(self.buf, (self.at)(group), 1);
            });
        }
    }

    fn poke(at: fn(usize) -> usize, read: Option<fn(usize) -> usize>) {
        let mut sim = GpuSim::new(DeviceSpec::gt430());
        let buf = sim.create_buffer(64);
        sim.launch(&PokeKernel { buf, at, read }, 4);
    }

    /// The discipline `Buffer: Sync` rests on, checked when a launch
    /// retires (debug builds): groups may overlap themselves, not others.
    #[test]
    fn disciplined_kernels_pass_the_launch_audit() {
        poke(|g| g, None);
        poke(|g| g, Some(|g| g)); // a group may read back its own bytes
        poke(|g| g, Some(|g| 32 + g)); // and bytes nobody writes
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "both write buffer 0 bytes 1..2")]
    fn overlapping_writes_of_two_groups_fail_the_launch_audit() {
        poke(|g| g / 2 + 1, None);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "work-group 0 reads buffer 0 bytes 1..2 that work-group 1 writes")]
    fn reading_another_groups_write_fails_the_launch_audit() {
        poke(|g| g, Some(|g| (g + 1) % 4));
    }
}
