//! Dynamic workload partitioning (paper §5.2).
//!
//! "Our partitioning scheme splits images horizontally such that the
//! initial x rows of the image are assigned to the GPU, and the remaining
//! h − x rows are assigned to the CPU. The value for variable x is chosen
//! such that the overall execution times for the CPU and GPU are equal ...
//! Variable x is rounded to the nearest value evenly divisible by the
//! number of rows in an MCU."
//!
//! (The paper's prose swaps which side receives `x` between sections; this
//! implementation fixes the convention: **the CPU receives the final
//! `cpu_rows` MCU rows, the GPU the initial rows**, matching Fig. 8.)

pub mod newton;
pub mod pps;
pub mod sps;

pub use newton::newton_solve;

use hetjpeg_jpeg::geometry::Geometry;

/// A resolved CPU/GPU split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Partition {
    /// MCU rows assigned to the GPU (the initial rows of the image).
    pub gpu_mcu_rows: usize,
    /// MCU rows assigned to the CPU (the final rows).
    pub cpu_mcu_rows: usize,
    /// The unrounded Newton solution, in pixel rows assigned to the CPU.
    pub x_pixel_rows: f64,
    /// Newton iterations used.
    pub iterations: usize,
    /// Predicted CPU-side time (seconds): at the Newton solution for SPS,
    /// at the returned MCU-row split for PPS.
    pub predicted_cpu: f64,
    /// Predicted GPU-side time (seconds), at the same point.
    pub predicted_gpu: f64,
}

impl Partition {
    /// Round the continuous CPU pixel-row count to MCU rows and build the
    /// final split.
    pub(crate) fn from_x(
        geom: &Geometry,
        x_pixel_rows: f64,
        iterations: usize,
        predicted_cpu: f64,
        predicted_gpu: f64,
    ) -> Self {
        let cpu_mcu_rows = geom.round_rows_to_mcu(x_pixel_rows);
        Partition {
            gpu_mcu_rows: geom.mcus_y - cpu_mcu_rows,
            cpu_mcu_rows,
            x_pixel_rows,
            iterations,
            predicted_cpu,
            predicted_gpu,
        }
    }

    /// Load imbalance of the prediction: |cpu − gpu| / max.
    pub fn predicted_imbalance(&self) -> f64 {
        let m = self.predicted_cpu.max(self.predicted_gpu);
        if m <= 0.0 {
            0.0
        } else {
            (self.predicted_cpu - self.predicted_gpu).abs() / m
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetjpeg_jpeg::types::Subsampling;

    #[test]
    fn rounding_respects_mcu_height() {
        let geom = Geometry::new(256, 256, Subsampling::S422).unwrap();
        let p = Partition::from_x(&geom, 100.0, 3, 1.0, 1.0);
        // 100 px / 8 px per MCU row = 12.5 -> rounds to 12 or 13.
        assert!(p.cpu_mcu_rows == 12 || p.cpu_mcu_rows == 13);
        assert_eq!(p.cpu_mcu_rows + p.gpu_mcu_rows, geom.mcus_y);
    }

    #[test]
    fn imbalance_metric() {
        let geom = Geometry::new(64, 64, Subsampling::S444).unwrap();
        let p = Partition::from_x(&geom, 32.0, 1, 2.0, 1.0);
        assert!((p.predicted_imbalance() - 0.5).abs() < 1e-12);
        let q = Partition::from_x(&geom, 32.0, 1, 1.0, 1.0);
        assert_eq!(q.predicted_imbalance(), 0.0);
    }
}
