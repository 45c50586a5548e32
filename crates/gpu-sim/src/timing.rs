//! The analytic kernel timing model.
//!
//! Kernel device time follows the classic roofline shape:
//!
//! ```text
//! t = launch_overhead + max(compute_time, memory_time, serial_time)
//! ```
//!
//! * `compute_time` charges every metered scalar op against the device's
//!   effective issue rate, inflated by warp under-occupancy, bank-conflict
//!   serialization and divergence replay;
//! * `memory_time` charges coalesced 128-byte transactions against the
//!   global-memory bandwidth;
//! * `serial_time` is the launch's longest warp issuing its instructions
//!   one after another at one core's effective rate: however idle the
//!   other cores are, a warp issues in lockstep, so a few long serial
//!   lanes (one per Huffman subsequence, say) cannot be spread over the
//!   device the way `compute_time` spreads the launch's total.
//!
//! The merged-kernel and vectorization optimizations of paper §4 show up
//! directly: fewer transactions → smaller `memory_time`; the JPEG kernels
//! are memory-bound on the big devices (which is why the paper's measured
//! kernel speedup ratio GTX 680 : GTX 560 ≈ 13.7 : 10 tracks the bandwidth
//! ratio 1.5, not the 4.9× core-count ratio).

use crate::device::DeviceSpec;
use crate::stats::LaunchStats;

/// Extra scalar-op charge for a warp-divergent branch (both paths replay).
pub const DIVERGENCE_PENALTY_OPS: f64 = 32.0;

/// Cycles an SM spends scheduling one work-group in and out (barrier
/// drain, register allocation). Small groups pay this more often — the
/// reason the §5.1 work-group sweep is not flat.
pub const GROUP_OVERHEAD_CYCLES: f64 = 100.0;

/// Converts launch statistics into simulated device seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct TimingModel;

impl TimingModel {
    /// Compute-side time in seconds.
    pub fn compute_time(device: &DeviceSpec, stats: &LaunchStats, items_per_group: usize) -> f64 {
        let warp = device.warp_size;
        let lanes = items_per_group.div_ceil(warp).max(1) * warp;
        // Idle lanes in partially filled warps still consume issue slots.
        let occupancy = (items_per_group as f64 / lanes as f64).clamp(1.0 / warp as f64, 1.0);
        // Per-group scheduling stalls occupy a whole SM's issue slots.
        let group_ops = stats.groups as f64 * GROUP_OVERHEAD_CYCLES * device.cores_per_sm as f64;
        let effective_ops = stats.compute_ops as f64 / occupancy
            + stats.lmem_conflict_cycles as f64 * warp as f64
            + stats.divergent_branches as f64 * DIVERGENCE_PENALTY_OPS
            + group_ops * device.ipc_efficiency; // overhead is raw cycles, not issue-limited
        effective_ops / device.peak_ops_per_sec()
    }

    /// Memory-side time in seconds.
    pub fn memory_time(device: &DeviceSpec, stats: &LaunchStats) -> f64 {
        stats.bus_bytes() as f64 / (device.gmem_bandwidth_gbps * 1e9)
    }

    /// Serial floor in seconds: the longest warp's issue slots at one
    /// core's clock times the device's IPC efficiency.
    pub fn serial_time(device: &DeviceSpec, stats: &LaunchStats) -> f64 {
        stats.max_warp_ops as f64 / (device.clock_mhz * 1e6 * device.ipc_efficiency)
    }

    /// Total kernel time in seconds.
    pub fn kernel_time(device: &DeviceSpec, stats: &LaunchStats, items_per_group: usize) -> f64 {
        device.launch_overhead_us * 1e-6
            + Self::compute_time(device, stats, items_per_group)
                .max(Self::memory_time(device, stats))
                .max(Self::serial_time(device, stats))
    }

    /// True when the launch is memory-bound on this device.
    pub fn is_memory_bound(
        device: &DeviceSpec,
        stats: &LaunchStats,
        items_per_group: usize,
    ) -> bool {
        Self::memory_time(device, stats) > Self::compute_time(device, stats, items_per_group)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(ops: u64, read_tx: u64, write_tx: u64) -> LaunchStats {
        LaunchStats {
            groups: 1,
            items: 32,
            compute_ops: ops,
            gmem_read_transactions: read_tx,
            gmem_write_transactions: write_tx,
            ..Default::default()
        }
    }

    #[test]
    fn empty_launch_costs_only_overhead() {
        let d = DeviceSpec::gtx560ti();
        let t = TimingModel::kernel_time(&d, &LaunchStats::default(), 32);
        assert!((t - d.launch_overhead_us * 1e-6).abs() < 1e-12);
    }

    #[test]
    fn memory_bound_launch_scales_with_bandwidth() {
        // Huge traffic, negligible compute.
        let s = stats(10, 1_000_000, 0);
        let t560 = TimingModel::kernel_time(&DeviceSpec::gtx560ti(), &s, 32)
            - DeviceSpec::gtx560ti().launch_overhead_us * 1e-6;
        let t680 = TimingModel::kernel_time(&DeviceSpec::gtx680(), &s, 32)
            - DeviceSpec::gtx680().launch_overhead_us * 1e-6;
        let ratio = t560 / t680;
        let bw_ratio =
            DeviceSpec::gtx680().gmem_bandwidth_gbps / DeviceSpec::gtx560ti().gmem_bandwidth_gbps;
        assert!((ratio - bw_ratio).abs() < 0.01);
    }

    #[test]
    fn compute_bound_launch_scales_with_cores() {
        let s = stats(1_000_000_000, 1, 0);
        let d430 = DeviceSpec::gt430();
        let d680 = DeviceSpec::gtx680();
        let t430 = TimingModel::compute_time(&d430, &s, 32);
        let t680 = TimingModel::compute_time(&d680, &s, 32);
        let expect = d680.peak_ops_per_sec() / d430.peak_ops_per_sec();
        assert!((t430 / t680 - expect).abs() / expect < 0.01);
    }

    #[test]
    fn partial_warps_cost_more() {
        let d = DeviceSpec::gtx560ti();
        let s = stats(1_000_000, 0, 0);
        let full = TimingModel::compute_time(&d, &s, 32);
        let partial = TimingModel::compute_time(&d, &s, 20); // 20 of 32 lanes
        assert!(partial > full * 1.5);
    }

    #[test]
    fn divergence_and_conflicts_add_time() {
        let d = DeviceSpec::gt430();
        let base = stats(1000, 0, 0);
        let mut worse = base;
        worse.divergent_branches = 100;
        worse.lmem_conflict_cycles = 50;
        assert!(
            TimingModel::compute_time(&d, &worse, 32) > TimingModel::compute_time(&d, &base, 32)
        );
    }

    #[test]
    fn one_long_warp_is_priced_by_its_issue_not_the_device_width() {
        // One warp of 32 lanes at 3 000 ops each on the GTX 560 Ti: spread
        // over 384 cores it would take ≈ 0.3 µs, but the warp issues its
        // 3 000 slots one after another, ≈ 3.9 µs at 1 644 MHz × 0.47.
        let d = DeviceSpec::gtx560ti();
        let mut s = stats(32 * 3000, 0, 0);
        s.max_warp_ops = 3000;
        let spread = TimingModel::compute_time(&d, &s, 32);
        assert!(spread < 0.4e-6, "{spread}");
        let serial = TimingModel::serial_time(&d, &s);
        assert!((serial - 3000.0 / (1644e6 * 0.47)).abs() < 1e-15);
        let t = TimingModel::kernel_time(&d, &s, 32) - d.launch_overhead_us * 1e-6;
        assert!((t - serial).abs() < 1e-15, "{t} vs {serial}");
    }

    #[test]
    fn boundedness_classifier() {
        let d = DeviceSpec::gtx680();
        assert!(TimingModel::is_memory_bound(&d, &stats(10, 100_000, 0), 32));
        assert!(!TimingModel::is_memory_bound(
            &d,
            &stats(100_000_000, 1, 0),
            32
        ));
    }
}
