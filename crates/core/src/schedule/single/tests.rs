//! Mode-level tests of the CPU-only decode and of the single-device GPU
//! plans, `Gpu` (Fig. 5a) and `PipelinedGpu` (Fig. 5b).

use crate::platform::Platform;
use crate::schedule::tests::to_rgb;
use crate::schedule::{dispatch, DecodeOutcome, Mode};
use crate::workspace::Workspace;
use hetjpeg_jpeg::decoder::Prepared;
use hetjpeg_jpeg::encoder::{encode_rgb, EncodeParams};
use hetjpeg_jpeg::types::Subsampling;

fn jpeg_of(w: usize, h: usize) -> Vec<u8> {
    let mut rgb = Vec::with_capacity(w * h * 3);
    for i in 0..w * h {
        rgb.extend_from_slice(&[(i % 256) as u8, (i / 3 % 256) as u8, (i * 5 % 256) as u8]);
    }
    encode_rgb(
        &rgb,
        w as u32,
        h as u32,
        &EncodeParams {
            quality: 84,
            subsampling: Subsampling::S422,
            restart_interval: 0,
        },
    )
    .unwrap()
}

/// `prep` decoded in `mode` on the platform's seed model.
fn run(mode: Mode, prep: &Prepared<'_>, platform: &Platform, ws: &mut Workspace) -> DecodeOutcome {
    let model = platform.untrained_model();
    to_rgb(|out| dispatch(prep, mode, platform, &model, 1, None, ws, out)).unwrap()
}

#[test]
fn simd_is_faster_than_sequential() {
    let jpeg = jpeg_of(256, 256);
    let platform = Platform::gtx560();
    let prep = Prepared::new(&jpeg).unwrap();
    let mut ws = Workspace::default();
    let seq = run(Mode::Sequential, &prep, &platform, &mut ws);
    let simd = run(Mode::Simd, &prep, &platform, &mut ws);
    assert_eq!(seq.image.data, simd.image.data);
    let speedup = seq.total() / simd.total();
    // §1: "twice as fast" overall.
    assert!((1.4..2.9).contains(&speedup), "SIMD speedup {speedup:.2}");
}

#[test]
fn gpu_outcome_matches_cpu_bytes() {
    let jpeg = jpeg_of(128, 128);
    let platform = Platform::gtx680();
    let prep = Prepared::new(&jpeg).unwrap();
    let mut ws = Workspace::default();
    let simd = run(Mode::Simd, &prep, &platform, &mut ws);
    let gpu = run(Mode::Gpu, &prep, &platform, &mut ws);
    assert_eq!(simd.image.data, gpu.image.data);
    // GPU breakdown contains transfers and kernels.
    assert!(gpu.times.h2d > 0.0 && gpu.times.kernels > 0.0 && gpu.times.d2h > 0.0);
    assert!(gpu.times.total >= gpu.times.huffman);
}

#[test]
fn pipelining_beats_plain_gpu_mode() {
    // §6.2: "The pipelined execution is always faster than a single
    // large GPU kernel invocation" (for multi-chunk images).
    let jpeg = jpeg_of(256, 512);
    let platform = Platform::gtx560();
    let prep = Prepared::new(&jpeg).unwrap();
    let mut ws = Workspace::default();
    let gpu = run(Mode::Gpu, &prep, &platform, &mut ws);
    let pipe = run(Mode::PipelinedGpu, &prep, &platform, &mut ws);
    assert_eq!(gpu.image.data, pipe.image.data);
    assert!(
        pipe.total() < gpu.total(),
        "pipeline {:.4}ms vs gpu {:.4}ms",
        pipe.total() * 1e3,
        gpu.total() * 1e3
    );
}

#[test]
fn single_chunk_image_degenerates_to_gpu_mode() {
    // "When the decoded image has a size smaller than the pre-determined
    // chunk size, the image is executed as one GPU kernel invocation." The
    // one chunk is the whole image, so the pipelined plan is the `Gpu` plan
    // to the last bit: same stage totals, same spans.
    let jpeg = jpeg_of(64, 32); // 4 MCU rows < default chunk of 16
    let platform = Platform::gtx560();
    let prep = Prepared::new(&jpeg).unwrap();
    let mut ws = Workspace::default();
    let gpu = run(Mode::Gpu, &prep, &platform, &mut ws);
    let pipe = run(Mode::PipelinedGpu, &prep, &platform, &mut ws);
    assert_eq!(pipe.image.data, gpu.image.data);
    assert_eq!(pipe.times, gpu.times);
    assert_eq!(pipe.trace.spans, gpu.trace.spans);
}

#[test]
fn traces_have_consistent_makespan() {
    let jpeg = jpeg_of(128, 256);
    let platform = Platform::gt430();
    let prep = Prepared::new(&jpeg).unwrap();
    let mut ws = Workspace::default();
    for out in [
        run(Mode::Simd, &prep, &platform, &mut ws),
        run(Mode::Gpu, &prep, &platform, &mut ws),
        run(Mode::PipelinedGpu, &prep, &platform, &mut ws),
    ] {
        assert!(
            (out.trace.makespan() - out.times.total).abs() < 1e-9,
            "{:?}: trace {} vs total {}",
            out.mode,
            out.trace.makespan(),
            out.times.total
        );
    }
}
