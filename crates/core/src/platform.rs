//! Simulated evaluation platforms (paper Table 1).
//!
//! A [`Platform`] bundles a CPU cost model, a simulated GPU and a PCIe
//! model. The three presets correspond to the paper's three machines; the
//! calibration anchors are listed in the [`crate::cost`] module docs and
//! `docs/PERF.md`.

use crate::cost::CpuCostModel;
use crate::model::PerformanceModel;
use hetjpeg_gpusim::{DeviceSpec, PcieModel};

/// One CPU–GPU combination.
#[derive(Debug, Clone)]
pub struct Platform {
    /// Machine name as in Table 1 ("GT 430", "GTX 560", "GTX 680").
    pub name: &'static str,
    /// Host CPU cost model.
    pub cpu: CpuCostModel,
    /// Simulated GPU device.
    pub gpu: DeviceSpec,
    /// Host↔device transfer model.
    pub pcie: PcieModel,
}

impl Platform {
    /// Machine 1: Intel i7-2600K + NVIDIA GT 430 (the weak-GPU case where
    /// GPU-only decoding loses to CPU SIMD, §6.1).
    pub fn gt430() -> Self {
        Platform {
            name: "GT 430",
            cpu: CpuCostModel::i7_2600k(),
            gpu: DeviceSpec::gt430(),
            // The paper observed distinctly slower transfers on this
            // machine ("a 27% slower data transfer", §6.1).
            pcie: PcieModel {
                latency_us: 12.0,
                pinned_gbps: 3.5,
                pageable_gbps: 1.8,
            },
        }
    }

    /// Machine 2: Intel i7-2600K + NVIDIA GTX 560 Ti.
    pub fn gtx560() -> Self {
        Platform {
            name: "GTX 560",
            cpu: CpuCostModel::i7_2600k(),
            gpu: DeviceSpec::gtx560ti(),
            pcie: PcieModel::gen2_x16(),
        }
    }

    /// Machine 3: Intel i7-3770K + NVIDIA GTX 680 (PCIe 3.0 board).
    pub fn gtx680() -> Self {
        Platform {
            name: "GTX 680",
            cpu: CpuCostModel::i7_3770k(),
            gpu: DeviceSpec::gtx680(),
            pcie: PcieModel {
                latency_us: 8.0,
                pinned_gbps: 11.0,
                pageable_gbps: 5.5,
            },
        }
    }

    /// All three evaluation machines, in the paper's order.
    pub fn all() -> Vec<Platform> {
        vec![Platform::gt430(), Platform::gtx560(), Platform::gtx680()]
    }

    /// A deliberately rough performance model built from the analytic cost
    /// model instead of offline profiling — enough for doc examples and for
    /// bootstrapping before [`crate::profile::train`] has run.
    ///
    /// The closed forms are degree-1 fits evaluated at a few synthetic
    /// anchor points; `profile::train` replaces them with real regressions.
    pub fn untrained_model(&self) -> PerformanceModel {
        PerformanceModel::analytic_seed(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table1_tiers() {
        let all = Platform::all();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].gpu.total_cores(), 96);
        assert_eq!(all[1].gpu.total_cores(), 384);
        assert_eq!(all[2].gpu.total_cores(), 1536);
        // Same CPU on machines 1 and 2, slightly faster on machine 3.
        assert_eq!(all[0].cpu.clock_ghz, all[1].cpu.clock_ghz);
        assert!(all[2].cpu.clock_ghz > all[1].cpu.clock_ghz);
    }

    #[test]
    fn pcie_tiers_reflect_boards() {
        assert!(Platform::gt430().pcie.pinned_gbps < Platform::gtx560().pcie.pinned_gbps);
        assert!(Platform::gtx560().pcie.pinned_gbps < Platform::gtx680().pcie.pinned_gbps);
    }
}
