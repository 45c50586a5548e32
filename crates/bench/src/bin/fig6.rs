//! Figure 6: "Execution time of SIMD and GPU of the parallel phase on
//! GTX 560 scales linearly as image size increased."
//!
//! Prints (pixels, SIMD ms, GPU ms) series for 4:2:2 and 4:4:4 and fits a
//! line to verify linearity (the paper's justification for fitting the
//! parallel phase as a polynomial of width and height).

use hetjpeg_bench::{ascii_chart, write_csv, Scale};
use hetjpeg_core::gpu_decode::{decode_region_gpu, KernelPlan};
use hetjpeg_core::platform::Platform;
use hetjpeg_core::regress::fit_poly1_aic;
use hetjpeg_corpus::{generate_jpeg, ImageSpec, Pattern};
use hetjpeg_jpeg::decoder::Prepared;
use hetjpeg_jpeg::metrics::ParallelWork;
use hetjpeg_jpeg::types::Subsampling;

fn main() {
    let scale = Scale::from_env();
    let platform = Platform::gtx560();
    let max = scale.large_dim();
    let dims: Vec<usize> = {
        let mut v = Vec::new();
        let mut d = 128usize;
        while d <= max {
            v.push(d);
            d = d * 3 / 2 / 16 * 16;
        }
        v.push(max);
        v.dedup();
        v
    };

    println!(
        "Figure 6 — parallel-phase scaling on {} ({:?} scale)",
        platform.name, scale
    );
    println!(
        "{:<10} {:>12} {:>12} {:>12}",
        "subsamp", "pixels", "SIMD (ms)", "GPU (ms)"
    );

    let mut rows = Vec::new();
    for sub in [Subsampling::S422, Subsampling::S444] {
        let mut simd_pts = Vec::new();
        let mut gpu_pts = Vec::new();
        for &dim in &dims {
            let spec = ImageSpec {
                width: dim,
                height: dim,
                pattern: Pattern::PhotoLike { detail: 0.6 },
                seed: 4242,
            };
            let jpeg = generate_jpeg(&spec, 85, sub).expect("encode");
            let prep = Prepared::new(&jpeg).expect("parse");
            let geom = &prep.geom;
            let px = geom.pixels() as f64;

            // SIMD parallel phase (cost model over the real work counts).
            let work = ParallelWork::for_mcu_rows(geom, 0, geom.mcus_y);
            let t_simd = platform.cpu.parallel_time(&work, true);

            // GPU parallel phase (Eq. 7: transfers + kernels).
            let (coef, _) = prep.entropy_decode_all().expect("decode");
            let (_, res) = decode_region_gpu(
                &prep,
                &coef,
                0,
                geom.mcus_y,
                &platform,
                8,
                KernelPlan::Merged,
            )
            .expect("merged plan");
            let t_gpu = res.device_total();

            println!(
                "{:<10} {:>12} {:>12.3} {:>12.3}",
                sub.notation(),
                geom.pixels(),
                t_simd * 1e3,
                t_gpu * 1e3
            );
            rows.push(format!(
                "{},{},{},{}",
                sub.notation(),
                geom.pixels(),
                t_simd,
                t_gpu
            ));
            simd_pts.push((px, t_simd * 1e3));
            gpu_pts.push((px, t_gpu * 1e3));
        }

        // Linearity check: a degree-capped AIC fit should pick degree 1 and
        // explain nearly all variance.
        for (name, pts) in [("SIMD", &simd_pts), ("GPU", &gpu_pts)] {
            let xs: Vec<f64> = pts.iter().map(|p| p.0).collect();
            let ys: Vec<f64> = pts.iter().map(|p| p.1).collect();
            let (poly, rss) = fit_poly1_aic(&xs, &ys, 3);
            let mean = ys.iter().sum::<f64>() / ys.len() as f64;
            let tss: f64 = ys.iter().map(|y| (y - mean) * (y - mean)).sum();
            let r2 = if tss > 0.0 { 1.0 - rss / tss } else { 1.0 };
            println!(
                "  {} {name}: AIC degree {} fit, R^2 = {:.6} (paper: linear)",
                sub.notation(),
                poly.degree(),
                r2
            );
        }
        println!(
            "{}",
            ascii_chart(
                &format!("parallel phase, {} (x = pixels, y = ms)", sub.notation()),
                &[("SIMD", simd_pts), ("GPU", gpu_pts)],
                60,
                12,
            )
        );
    }
    let path = write_csv("fig6.csv", "subsampling,pixels,simd_s,gpu_s", &rows);
    println!("wrote {}", path.display());
}
