//! Figure 12: "The average CPU and GPU execution time with standard
//! deviation during parallel executions are balanced indicating balance
//! workload between architectures" — SPS and PPS across the three machines.
//!
//! For SPS the entropy decoding time is excluded (it precedes the parallel
//! execution); for PPS the CPU side includes its share of Huffman work that
//! runs concurrently with GPU kernels, as in the paper.

use hetjpeg_bench::{bucket_mean, ensure_model, evaluation_corpus, write_csv, Scale};
use hetjpeg_core::platform::Platform;
use hetjpeg_core::schedule::Mode;
use hetjpeg_core::timeline::Resource;
use hetjpeg_core::DecodeOptions;
use hetjpeg_jpeg::types::Subsampling;

fn main() {
    let scale = Scale::from_env();
    let sub = Subsampling::S422;
    let corpus = evaluation_corpus(sub, scale);
    println!(
        "Figure 12 — CPU vs GPU parallel-execution balance, {} images ({:?} scale)",
        corpus.len(),
        scale
    );

    let mut rows = Vec::new();
    for platform in Platform::all() {
        let decoder = hetjpeg_bench::decoder_for(&platform, ensure_model(&platform, sub, scale));
        for mode in [Mode::Sps, Mode::Pps] {
            let mut cpu_pts = Vec::new();
            let mut gpu_pts = Vec::new();
            for img in &corpus {
                let out = decoder
                    .decode(&img.jpeg, DecodeOptions::with_mode(mode))
                    .expect("decode");
                let px = (img.width * img.height) as f64;
                // GPU side: device busy time, engine by engine. On the one
                // in-order queue (one entropy thread) the compute engine
                // runs the transfers too and the copy engine is idle; fed,
                // the transfers run on the copy engine beside the kernels,
                // and the busier engine is the device's side.
                let on_gpu = |r: Resource| r != Resource::Cpu;
                let compute = out.trace.busy(Resource::Gpu);
                let copy = out.trace.busy(Resource::Copy);
                let gpu = compute.max(copy);
                // CPU side: CPU work concurrent with the GPU — every CPU
                // span from the first GPU command onward (for SPS that is
                // dispatch + the SIMD band; for PPS it also includes the
                // overlapped Huffman decoding, as in the paper, which omits
                // only the entropy decoding that precedes GPU activity).
                let first_gpu = out
                    .trace
                    .spans
                    .iter()
                    .filter(|s| on_gpu(s.resource))
                    .map(|s| s.start)
                    .fold(f64::INFINITY, f64::min);
                let cpu: f64 = out
                    .trace
                    .spans
                    .iter()
                    .filter(|s| s.resource == Resource::Cpu)
                    .map(|s| (s.end - s.start.max(first_gpu)).max(0.0))
                    .sum();
                cpu_pts.push((px, cpu * 1e3));
                gpu_pts.push((px, gpu * 1e3));
                rows.push(format!(
                    "{},{},{},{},{},{},{},{}",
                    platform.name,
                    mode.name(),
                    img.width,
                    img.height,
                    cpu,
                    gpu,
                    compute,
                    copy
                ));
            }
            println!("\n== {} / {} ==", platform.name, mode.name());
            println!(
                "{:>12} {:>12} {:>12} {:>8}",
                "pixels", "CPU (ms)", "GPU (ms)", "ratio"
            );
            let cb = bucket_mean(&cpu_pts, 6);
            let gb = bucket_mean(&gpu_pts, 6);
            for (&(px, c), &(_, g)) in cb.iter().zip(gb.iter()) {
                let ratio = if g > 0.0 { c / g } else { f64::NAN };
                println!("{:>12.0} {:>12.3} {:>12.3} {:>8.2}", px, c, g, ratio);
            }
        }
    }
    let header = "machine,mode,width,height,cpu_s,gpu_s,gpu_compute_s,gpu_copy_s";
    let path = write_csv("fig12.csv", header, &rows);
    println!("wrote {}", path.display());
}
