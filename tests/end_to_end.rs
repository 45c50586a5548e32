//! End-to-end pipeline: synthesize corpus → offline profiling → partitioned
//! decoding — the complete §5/§6 workflow, with the paper's headline
//! claims checked in-shape.

use hetjpeg_core::platform::Platform;
use hetjpeg_core::profile::{train, TrainOptions};
use hetjpeg_core::report::amdahl_max_speedup;
use hetjpeg_core::schedule::Mode;
use hetjpeg_core::{DecodeOptions, Decoder};
use hetjpeg_corpus::{generate_jpeg, training_set, CorpusParams, ImageSpec, Pattern};
use hetjpeg_jpeg::types::Subsampling;

/// A session on the paper's schedule: Huffman decoded on one thread, as
/// the Tables 2–3 orderings and the Eq. 18/19 Amdahl bound assume.
fn trained_session(platform: &Platform) -> Decoder {
    Decoder::builder()
        .platform(platform.clone())
        .model(trained(platform))
        .threads(1)
        .build()
        .expect("valid configuration")
}

fn trained(platform: &Platform) -> hetjpeg_core::model::PerformanceModel {
    let corpus = training_set(&CorpusParams {
        min_dim: 96,
        max_dim: 448,
        steps: 3,
        subsampling: Subsampling::S422,
        quality: 88,
        restart_interval: 0,
    });
    let jpegs: Vec<Vec<u8>> = corpus.into_iter().map(|c| c.jpeg).collect();
    train(
        platform,
        &jpegs,
        TrainOptions {
            max_degree: 3,
            wg_blocks: Some(8),
            chunk_mcu_rows: Some(8),
        },
    )
}

#[test]
fn trained_pps_beats_simd_on_every_machine() {
    let spec = ImageSpec {
        width: 448,
        height: 448,
        pattern: Pattern::PhotoLike { detail: 0.7 },
        seed: 1,
    };
    let jpeg = generate_jpeg(&spec, 88, Subsampling::S422).expect("encode");
    for platform in Platform::all() {
        let decoder = trained_session(&platform);
        let simd = decoder
            .decode(&jpeg, DecodeOptions::with_mode(Mode::Simd))
            .unwrap();
        let pps = decoder
            .decode(&jpeg, DecodeOptions::with_mode(Mode::Pps))
            .unwrap();
        let speedup = simd.total() / pps.total();
        assert!(
            speedup > 1.0,
            "{}: PPS should beat SIMD, got {speedup:.2}x",
            platform.name
        );
        // And never beyond the Amdahl bound (Eq. 18/19).
        let bound = amdahl_max_speedup(simd.total(), simd.times.huffman);
        assert!(
            speedup <= bound * 1.001,
            "{}: speedup {speedup:.2} exceeds bound {bound:.2}",
            platform.name
        );
        // Mode::Auto on the trained model must pick something at least as
        // good as plain SIMD (small tolerance for prediction error).
        let auto = decoder.decode(&jpeg, DecodeOptions::default()).unwrap();
        assert_ne!(
            auto.mode,
            Mode::Simd,
            "{}: Auto should beat SIMD here",
            platform.name
        );
        assert!(
            auto.total() <= simd.total() * 1.05,
            "{}: Auto picked {:?} at {:.3}ms vs SIMD {:.3}ms",
            platform.name,
            auto.mode,
            auto.total() * 1e3,
            simd.total() * 1e3
        );
    }
}

#[test]
fn mode_ordering_matches_paper_on_gtx560() {
    // Paper Tables 2–3 ordering on the mid/high platforms:
    // PPS > pipeline > GPU and PPS > SPS > GPU. The ordering presumes the
    // canonical (AVX2) vectorized CPU path: since PR 5 a session capped
    // below that prices its CPU bands from the kernels it really runs,
    // which legitimately re-orders the modes — skip under caps.
    if hetjpeg_core::SimdLevel::detect() != hetjpeg_core::SimdLevel::Avx2 {
        eprintln!("skipping: paper ordering assumes the AVX2 dispatch tier");
        return;
    }
    let platform = Platform::gtx560();
    let decoder = trained_session(&platform);
    let spec = ImageSpec {
        width: 448,
        height: 448,
        pattern: Pattern::PhotoLike { detail: 0.7 },
        seed: 4,
    };
    let jpeg = generate_jpeg(&spec, 88, Subsampling::S422).expect("encode");
    let t = |mode| {
        decoder
            .decode(&jpeg, DecodeOptions::with_mode(mode))
            .unwrap()
            .total()
    };
    let (gpu, pipe, sps, pps) = (
        t(Mode::Gpu),
        t(Mode::PipelinedGpu),
        t(Mode::Sps),
        t(Mode::Pps),
    );
    assert!(pps <= pipe * 1.02, "PPS {pps} vs pipeline {pipe}");
    assert!(pps <= sps * 1.02, "PPS {pps} vs SPS {sps}");
    assert!(pipe < gpu, "pipeline {pipe} vs GPU {gpu}");
    assert!(sps < gpu, "SPS {sps} vs GPU {gpu}");
}

#[test]
fn weak_gpu_loses_alone_but_helps_in_partnership() {
    // The GT 430 story of §6.1/§6.2 in one test. Same canonical-tier
    // premise as `mode_ordering_matches_paper_on_gtx560`.
    if hetjpeg_core::SimdLevel::detect() != hetjpeg_core::SimdLevel::Avx2 {
        eprintln!("skipping: paper ordering assumes the AVX2 dispatch tier");
        return;
    }
    let platform = Platform::gt430();
    let decoder = trained_session(&platform);
    let spec = ImageSpec {
        width: 448,
        height: 448,
        pattern: Pattern::PhotoLike { detail: 0.7 },
        seed: 6,
    };
    let jpeg = generate_jpeg(&spec, 88, Subsampling::S422).expect("encode");
    let t = |mode| {
        decoder
            .decode(&jpeg, DecodeOptions::with_mode(mode))
            .unwrap()
            .total()
    };
    let (simd, gpu, sps, pps) = (t(Mode::Simd), t(Mode::Gpu), t(Mode::Sps), t(Mode::Pps));
    assert!(gpu > simd, "GPU-only should lose to SIMD on GT 430");
    assert!(sps < simd, "SPS should still win");
    assert!(pps < simd, "PPS should still win");
    // And the partition should favour the CPU.
    let out = decoder
        .decode(&jpeg, DecodeOptions::with_mode(Mode::Sps))
        .unwrap();
    let part = out.partition.unwrap();
    assert!(
        part.cpu_mcu_rows > part.gpu_mcu_rows,
        "GT 430 keeps the larger share on the CPU"
    );
}

#[test]
fn saved_model_reproduces_decisions() {
    let platform = Platform::gtx680();
    let model = trained(&platform);
    let text = model.save_str();
    let loaded = hetjpeg_core::model::PerformanceModel::load_str(&text).expect("parse");
    let spec = ImageSpec {
        width: 320,
        height: 320,
        pattern: Pattern::PhotoLike { detail: 0.5 },
        seed: 2,
    };
    let jpeg = generate_jpeg(&spec, 88, Subsampling::S422).expect("encode");
    let session = |m: hetjpeg_core::model::PerformanceModel| {
        Decoder::builder()
            .platform(platform.clone())
            .model(m)
            .build()
            .expect("valid configuration")
    };
    let a = session(model)
        .decode(&jpeg, DecodeOptions::with_mode(Mode::Pps))
        .unwrap();
    let b = session(loaded)
        .decode(&jpeg, DecodeOptions::with_mode(Mode::Pps))
        .unwrap();
    assert_eq!(a.partition.unwrap(), b.partition.unwrap());
    assert_eq!(a.image.data, b.image.data);
    assert!((a.total() - b.total()).abs() < 1e-12);
}
