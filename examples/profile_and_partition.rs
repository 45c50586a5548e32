//! The offline-profiling workflow of paper §5: train a performance model
//! for a platform, inspect the fitted closed forms, then watch the
//! partitioner balance different images — including the Eq. 17 density
//! correction that re-balances skewed images mid-decode.
//!
//! ```sh
//! cargo run --release --example profile_and_partition
//! ```

use hetjpeg_core::partition::{pps, sps};
use hetjpeg_core::platform::Platform;
use hetjpeg_core::profile::{train, TrainOptions};
use hetjpeg_corpus::{generate_jpeg, training_set, CorpusParams, ImageSpec, Pattern};
use hetjpeg_jpeg::decoder::Prepared;
use hetjpeg_jpeg::types::Subsampling;

fn main() {
    let platform = Platform::gtx560();

    // 1. Offline profiling on a small training corpus (§5.1).
    println!("training on a small corpus (this runs the instrumented decoder)...");
    let corpus = training_set(&CorpusParams {
        min_dim: 96,
        max_dim: 512,
        steps: 3,
        subsampling: Subsampling::S422,
        quality: 88,
        restart_interval: 0,
    });
    let jpegs: Vec<Vec<u8>> = corpus.into_iter().map(|c| c.jpeg).collect();
    let model = train(
        &platform,
        &jpegs,
        TrainOptions {
            max_degree: 4,
            wg_blocks: None,
            chunk_mcu_rows: None,
        },
    );
    println!(
        "fitted: THuff degree {}, PCPU degree {}, PGPU degree {}; wg = {} blocks, chunk = {} MCU rows",
        model.thuff_ns_per_px.degree(),
        model.p_cpu.degree,
        model.p_gpu.degree,
        model.wg_blocks,
        model.chunk_mcu_rows
    );
    for d in [0.05, 0.15, 0.30, 0.45] {
        println!(
            "  THuffPerPixel({d:.2}) = {:.2} ns/px, PCPU density factor {:.2}",
            model.thuff_ns_per_px.eval(d),
            model.pcpu_density_factor(d)
        );
    }

    // 2. Partition decisions across image shapes (§5.2).
    println!("\nSPS and PPS splits (GPU share of MCU rows):");
    println!(
        "{:<12} {:>10} {:>10} {:>10}",
        "image", "d (B/px)", "SPS gpu%", "PPS gpu%"
    );
    for (w, h, detail) in [
        (512usize, 384usize, 0.3f64),
        (448, 448, 0.6),
        (512, 512, 0.9),
    ] {
        let spec = ImageSpec {
            width: w,
            height: h,
            pattern: Pattern::PhotoLike { detail },
            seed: 1,
        };
        let jpeg = generate_jpeg(&spec, 88, Subsampling::S422).expect("encode");
        let prep = Prepared::new(&jpeg).expect("parse");
        let d = prep.parsed.entropy_density();
        let s = sps::partition(&model, &prep.geom, d);
        let p = pps::initial_partition(
            &model,
            &prep.geom,
            d,
            (model.chunk_mcu_rows * prep.geom.mcu_h) as f64,
        );
        println!(
            "{:<12} {:>10.3} {:>9.0}% {:>9.0}%",
            format!("{w}x{h}"),
            d,
            100.0 * s.gpu_mcu_rows as f64 / prep.geom.mcus_y as f64,
            100.0 * p.gpu_mcu_rows as f64 / prep.geom.mcus_y as f64,
        );
    }

    // 3. The Eq. 17 density correction: when the bottom of an image is
    //    busier than the top, the re-partitioning shifts work to the GPU.
    println!("\nEq. 17 density correction (half the image decoded):");
    for (spent_frac, label) in [
        (0.3, "tail denser"),
        (0.5, "uniform"),
        (0.7, "tail sparser"),
    ] {
        let d0 = 0.2;
        let d_new = pps::corrected_density(d0, 1.0, spent_frac, 0.5, 1.0);
        println!(
            "  huffman {:.0}% spent at half-height ({label}): d 0.200 -> {d_new:.3}",
            spent_frac * 100.0
        );
    }
}
