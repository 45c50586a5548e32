//! The device executor: buffers + parallel work-group dispatch.

use crate::device::DeviceSpec;
use crate::kernel::{GroupCtx, GroupState, Kernel};
use crate::memory::audit::LaunchLog;
use crate::memory::Buffer;
use crate::stats::LaunchStats;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Handle to a device buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufId(pub usize);

/// A simulated GPU: a device spec plus its global-memory buffers.
///
/// Work-groups of a launch are handed out by an atomic counter to the
/// calling thread and to scoped helper threads, one worker per host thread
/// (never more than there are groups); the **simulated** time is computed
/// from the merged [`LaunchStats`] by [`crate::TimingModel`], so host
/// parallelism affects only wall-clock, never results.
pub struct GpuSim {
    /// The simulated device.
    pub device: DeviceSpec,
    buffers: Vec<Buffer>,
    /// Most host workers a launch may use, the calling thread included.
    pub host_threads: usize,
    /// The workers' bookkeeping, kept between launches so its tables are
    /// grown once per device rather than once per work-group.
    workers: Vec<GroupState>,
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
            workers: Vec::new(),
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
        let threads = self.host_threads.min(num_groups).max(1);
        let mut states = std::mem::take(&mut self.workers);
        states.resize_with(states.len().max(threads), GroupState::default);
        let idle = states.split_off(threads);
        let (buffers, warp_size) = (&self.buffers[..], self.device.warp_size);

        let next = AtomicUsize::new(0);
        let work = |st: GroupState| {
            let mut ctx = GroupCtx::new(st, kernel, warp_size, buffers);
            let mut log = LaunchLog::default();
            loop {
                // Relaxed: the counter only hands out indices; the groups'
                // results are published by the join below.
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
            (ctx.finish(), log)
        };
        let mut states = states.into_iter();
        let mine = states.next().expect("at least one worker");
        let done = std::thread::scope(|s| {
            let spawned: Vec<_> = states.map(|st| s.spawn(|| work(st))).collect();
            let mut done = vec![work(mine)];
            for h in spawned {
                done.push(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
            }
            done
        });

        let mut total = LaunchStats::default();
        let mut launch_log = LaunchLog::default();
        self.workers = idle;
        for ((stats, st), log) in done {
            total.merge(&stats);
            self.workers.push(st);
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

    #[test]
    fn parallel_and_serial_execution_agree() {
        let groups = 37usize;
        let len = groups * 64;

        let mut par = GpuSim::new(DeviceSpec::gtx680());
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
