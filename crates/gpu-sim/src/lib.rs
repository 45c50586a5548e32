//! # hetjpeg-gpusim — an OpenCL-style GPU simulator
//!
//! The paper runs its kernels on three NVIDIA GPUs (GT 430, GTX 560 Ti,
//! GTX 680; Table 1) through OpenCL. No GPU is available to this
//! reproduction, so this crate provides a **functional + analytic**
//! simulator:
//!
//! * **Functional**: kernels are real Rust code executed over an
//!   NDRange of work-groups/work-items with work-group `local memory`,
//!   lockstep *phases* separated by implicit barriers, and full access to
//!   device global memory — their outputs are bit-checked against the CPU
//!   decode path.
//! * **Analytic**: every global access is classified warp-by-warp into
//!   128-byte memory transactions (the coalescing rule of NVIDIA compute
//!   capability 2.x, which the paper optimizes for in §4), local-memory
//!   accesses are checked for bank conflicts, branches for warp divergence,
//!   and compute is metered in scalar-op units. A calibrated
//!   [`timing::TimingModel`] turns those counters into device time:
//!   `max(compute, memory) + launch overhead`, the classic roofline.
//!
//! Commands (buffer writes, launches, reads) flow through an asynchronous
//! in-order [`queue::CommandQueue`] with a virtual device timeline, which is
//! what the heterogeneous scheduler overlaps against CPU Huffman decoding
//! (paper Fig. 5/8).
//!
//! Execution is deterministic: work-groups may run on a host thread pool,
//! but all statistics are order-independent sums and kernels must write
//! disjoint output ranges per group (the same discipline real GPU kernels
//! need).

pub mod device;
pub mod exec;
pub mod kernel;
mod memory;
pub mod pcie;
pub mod queue;
#[cfg(test)]
mod reference;
pub mod stats;
pub mod subseq;
pub mod timing;

pub use device::DeviceSpec;
pub use exec::{BufId, GpuSim};
pub use kernel::{GroupCtx, ItemCtx, Kernel};
pub use pcie::PcieModel;
pub use queue::{CommandQueue, Event};
pub use stats::LaunchStats;
pub use subseq::{launch_subseq_sync, SubseqSyncKernel};
pub use timing::TimingModel;

/// Memory transaction granularity in bytes (compute capability 2.x L1 line).
pub const TRANSACTION_BYTES: u64 = 128;

/// Number of shared-memory banks (compute capability 2.x/3.x).
pub const LMEM_BANKS: usize = 32;
