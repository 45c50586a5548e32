//! Simple Partitioning Scheme (paper §5.2.1).
//!
//! After whole-image Huffman decoding, the parallel phase is split: Eq. (10)
//!
//! ```text
//! f(x) = Tdisp(w, h−x) + PCPU(w, x)·k(d) − PGPU(w, h−x)
//! ```
//!
//! balanced at `f(x) = 0` via Newton's method (Eq. 11), where `x` is the
//! number of pixel rows given to the CPU. `k(d)` is the model's
//! `pcpu_density` factor at the image's entropy density `d`.

use super::newton::newton_solve;
use super::Partition;
use crate::model::PerformanceModel;
use hetjpeg_jpeg::geometry::Geometry;

/// Solve the SPS balance point for an image with entropy density `d`.
pub fn partition(model: &PerformanceModel, geom: &Geometry, d: f64) -> Partition {
    let w = geom.width as f64;
    let h = geom.height as f64;
    let k = model.pcpu_density_factor(d);
    let cpu = |x: f64| model.t_disp(w, h - x) + model.p_cpu(w, x) * k;
    let f = |x: f64| cpu(x) - model.p_gpu(w, h - x);
    let df = |x: f64| {
        -model.t_disp.eval_dy(w, h - x)
            + model.p_cpu.eval_dy(w, x) * k
            + model.p_gpu.eval_dy(w, h - x)
    };
    let r = newton_solve(f, df, h / 2.0, 0.0, h, 0.5, 30);
    Partition::from_x(geom, r.x, r.iterations, cpu(r.x), model.p_gpu(w, h - r.x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PerformanceModel;
    use crate::platform::Platform;
    use hetjpeg_jpeg::types::Subsampling;

    fn geom(w: usize, h: usize) -> Geometry {
        Geometry::new(w, h, Subsampling::S422).unwrap()
    }

    #[test]
    fn strong_gpu_gets_most_rows() {
        let model = PerformanceModel::analytic_seed(&Platform::gtx680());
        let g = geom(2048, 2048);
        let p = partition(&model, &g, 0.2);
        assert!(
            p.gpu_mcu_rows > p.cpu_mcu_rows,
            "GTX 680 should take the bigger share: gpu={} cpu={}",
            p.gpu_mcu_rows,
            p.cpu_mcu_rows
        );
        // Balanced prediction.
        assert!(
            p.predicted_imbalance() < 0.15,
            "imbalance {}",
            p.predicted_imbalance()
        );
    }

    #[test]
    fn weak_gpu_gets_minority_share() {
        // §6.2: "both of our partitioning schemes distributed the larger
        // partition to the CPU" on the GT 430.
        let model = PerformanceModel::analytic_seed(&Platform::gt430());
        let g = geom(2048, 2048);
        let p = partition(&model, &g, 0.2);
        assert!(
            p.cpu_mcu_rows > p.gpu_mcu_rows,
            "GT 430 should keep the bigger share on the CPU: gpu={} cpu={}",
            p.gpu_mcu_rows,
            p.cpu_mcu_rows
        );
        assert!(p.gpu_mcu_rows > 0, "but the GPU still helps");
    }

    #[test]
    fn partition_covers_whole_image() {
        for platform in Platform::all() {
            let model = PerformanceModel::analytic_seed(&platform);
            for (w, h) in [(64, 64), (512, 384), (3000, 2000)] {
                let g = geom(w, h);
                let p = partition(&model, &g, 0.2);
                assert_eq!(p.cpu_mcu_rows + p.gpu_mcu_rows, g.mcus_y, "{w}x{h}");
            }
        }
    }

    #[test]
    fn balance_improves_over_naive_split() {
        // The Newton solution should beat a 50/50 split in predicted
        // makespan on an asymmetric platform.
        let model = PerformanceModel::analytic_seed(&Platform::gtx680());
        let g = geom(1920, 1080);
        let p = partition(&model, &g, 0.2);
        let (w, h) = (1920.0, 1080.0);
        let makespan = p.predicted_cpu.max(p.predicted_gpu);
        let naive =
            (model.t_disp(w, h / 2.0) + model.p_cpu(w, h / 2.0)).max(model.p_gpu(w, h / 2.0));
        assert!(
            makespan <= naive + 1e-12,
            "newton {makespan} vs naive {naive}"
        );
    }

    #[test]
    fn tiny_images_do_not_panic() {
        let model = PerformanceModel::analytic_seed(&Platform::gtx560());
        let g = geom(16, 16);
        let p = partition(&model, &g, 0.2);
        assert_eq!(p.cpu_mcu_rows + p.gpu_mcu_rows, g.mcus_y);
    }
}
