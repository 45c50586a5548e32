//! Launch statistics collected by the instrumented executor.

/// Order-independent counters accumulated over one kernel launch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaunchStats {
    /// Work-groups executed.
    pub groups: u64,
    /// Work-items executed (groups × items per group).
    pub items: u64,
    /// Scalar compute operations charged via [`crate::ItemCtx::charge`].
    pub compute_ops: u64,
    /// 128-byte global read transactions after warp coalescing.
    pub gmem_read_transactions: u64,
    /// 128-byte global write transactions after warp coalescing.
    pub gmem_write_transactions: u64,
    /// Useful bytes read from global memory (before transaction rounding).
    pub gmem_read_bytes: u64,
    /// Useful bytes written to global memory.
    pub gmem_write_bytes: u64,
    /// Local-memory accesses.
    pub lmem_accesses: u64,
    /// Extra serialized local-memory cycles caused by bank conflicts.
    pub lmem_conflict_cycles: u64,
    /// Warp-divergent branch sites encountered.
    pub divergent_branches: u64,
    /// Issue slots of the launch's longest warp: summed over the phases of
    /// its work-group, each phase's busiest lane (its charged ops plus one
    /// per issued operation). A warp issues in lockstep, so no spread of
    /// the other warps can finish the launch before this one.
    pub max_warp_ops: u64,
}

impl LaunchStats {
    /// Merge counters from another (sub-)launch.
    pub fn merge(&mut self, other: &LaunchStats) {
        self.groups += other.groups;
        self.items += other.items;
        self.compute_ops += other.compute_ops;
        self.gmem_read_transactions += other.gmem_read_transactions;
        self.gmem_write_transactions += other.gmem_write_transactions;
        self.gmem_read_bytes += other.gmem_read_bytes;
        self.gmem_write_bytes += other.gmem_write_bytes;
        self.lmem_accesses += other.lmem_accesses;
        self.lmem_conflict_cycles += other.lmem_conflict_cycles;
        self.divergent_branches += other.divergent_branches;
        self.max_warp_ops = self.max_warp_ops.max(other.max_warp_ops);
    }

    /// Total global transactions.
    pub fn gmem_transactions(&self) -> u64 {
        self.gmem_read_transactions + self.gmem_write_transactions
    }

    /// Bytes moved over the memory bus (transactions × 128).
    pub fn bus_bytes(&self) -> u64 {
        self.gmem_transactions() * crate::TRANSACTION_BYTES
    }

    /// Coalescing efficiency: useful bytes / bus bytes (1.0 = perfect).
    pub fn coalescing_efficiency(&self) -> f64 {
        let useful = (self.gmem_read_bytes + self.gmem_write_bytes) as f64;
        let bus = self.bus_bytes() as f64;
        if bus == 0.0 {
            1.0
        } else {
            useful / bus
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_everything() {
        let mut a = LaunchStats {
            groups: 1,
            compute_ops: 10,
            ..Default::default()
        };
        let b = LaunchStats {
            groups: 2,
            compute_ops: 5,
            gmem_read_transactions: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.groups, 3);
        assert_eq!(a.compute_ops, 15);
        assert_eq!(a.gmem_read_transactions, 3);
    }

    #[test]
    fn coalescing_efficiency_bounds() {
        let s = LaunchStats {
            gmem_read_transactions: 1,
            gmem_read_bytes: 128,
            ..Default::default()
        };
        assert!((s.coalescing_efficiency() - 1.0).abs() < 1e-12);
        let bad = LaunchStats {
            gmem_read_transactions: 32,
            gmem_read_bytes: 128,
            ..Default::default()
        };
        assert!((bad.coalescing_efficiency() - 1.0 / 32.0).abs() < 1e-12);
        assert_eq!(LaunchStats::default().coalescing_efficiency(), 1.0);
    }
}
