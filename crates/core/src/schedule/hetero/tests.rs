//! Mode-level tests of the CPU/GPU splits: SPS (§5.2.1) and PPS (§5.2.2).

use crate::model::PerformanceModel;
use crate::platform::Platform;
use crate::schedule::split::{self, Plan};
use crate::schedule::tests::to_rgb;
use crate::schedule::{DecodeOutcome, Mode};
use crate::workspace::Workspace;
use hetjpeg_jpeg::decoder::Prepared;
use hetjpeg_jpeg::encoder::{encode_rgb, EncodeParams};
use hetjpeg_jpeg::types::Subsampling;

fn jpeg_of(w: usize, h: usize, detail: u32) -> Vec<u8> {
    let mut rgb = Vec::with_capacity(w * h * 3);
    let mut s = detail | 1;
    for i in 0..w * h {
        s = s.wrapping_mul(1664525).wrapping_add(1013904223);
        let noise = (s >> 24) as u8;
        let base = ((i * 3) % 256) as u8;
        rgb.extend_from_slice(&[base.wrapping_add(noise / 4), base, noise]);
    }
    encode_rgb(
        &rgb,
        w as u32,
        h as u32,
        &EncodeParams {
            quality: 85,
            subsampling: Subsampling::S422,
            restart_interval: 0,
        },
    )
    .unwrap()
}

/// `prep` decoded in `mode`.
fn run(
    mode: Mode,
    prep: &Prepared<'_>,
    platform: &Platform,
    model: &PerformanceModel,
    ws: &mut Workspace,
) -> DecodeOutcome {
    let plan = Plan::of(mode, prep, model, 1);
    to_rgb(|out| split::decode(prep, platform, model, &plan, None, ws, out)).unwrap()
}

/// PPS with the Eq. 16/17 re-partitioning on or off — the §5.2.2
/// ablation: on images whose entropy is skewed along the scan direction,
/// the initial (uniform-density) split stays in place without it and the
/// slower side dominates.
fn pps(
    prep: &Prepared<'_>,
    platform: &Platform,
    model: &PerformanceModel,
    repartition: bool,
    ws: &mut Workspace,
) -> DecodeOutcome {
    let plan = Plan {
        repartition,
        ..Plan::of(Mode::Pps, prep, model, 1)
    };
    to_rgb(|out| split::decode(prep, platform, model, &plan, None, ws, out)).unwrap()
}

#[test]
fn sps_output_matches_simd_bytes() {
    let jpeg = jpeg_of(192, 256, 77);
    for platform in Platform::all() {
        let model = platform.untrained_model();
        let prep = Prepared::new(&jpeg).unwrap();
        let mut ws = Workspace::default();
        let simd_out = run(Mode::Simd, &prep, &platform, &model, &mut ws);
        let sps_out = run(Mode::Sps, &prep, &platform, &model, &mut ws);
        assert_eq!(simd_out.image.data, sps_out.image.data, "{}", platform.name);
        let part = sps_out.partition.unwrap();
        assert_eq!(part.gpu_mcu_rows + part.cpu_mcu_rows, prep.geom.mcus_y);
    }
}

#[test]
fn pps_output_matches_simd_bytes() {
    let jpeg = jpeg_of(192, 320, 99);
    for platform in Platform::all() {
        let model = platform.untrained_model();
        let prep = Prepared::new(&jpeg).unwrap();
        let mut ws = Workspace::default();
        let simd_out = run(Mode::Simd, &prep, &platform, &model, &mut ws);
        let pps_out = pps(&prep, &platform, &model, true, &mut ws);
        assert_eq!(simd_out.image.data, pps_out.image.data, "{}", platform.name);
    }
}

#[test]
fn pps_beats_sps() {
    // PPS hides Huffman behind GPU work; SPS cannot (Fig. 8).
    let jpeg = jpeg_of(512, 512, 1234);
    let platform = Platform::gtx560();
    let model = platform.untrained_model();
    let prep = Prepared::new(&jpeg).unwrap();
    let mut ws = Workspace::default();
    let sps_out = run(Mode::Sps, &prep, &platform, &model, &mut ws);
    let pps_out = pps(&prep, &platform, &model, true, &mut ws);
    assert!(
        pps_out.total() < sps_out.total(),
        "pps {:.3}ms vs sps {:.3}ms",
        pps_out.total() * 1e3,
        sps_out.total() * 1e3
    );
}

#[test]
fn hetero_beats_simd_even_on_weak_gpu() {
    // The §6.2 headline for the GT 430: "Despite the slow GPU, the
    // cooperative CPU-GPU executions achieved speedups over
    // libjpeg-turbo's SIMD mode." Like the paper, the partitioner runs
    // on a *profiled* model, not the analytic seed.
    let platform = Platform::gt430();
    let train_imgs: Vec<Vec<u8>> = [(128usize, 128usize), (256, 256), (384, 256), (512, 384)]
        .iter()
        .map(|&(w, h)| jpeg_of(w, h, (w + h) as u32))
        .collect();
    let model = crate::profile::train(
        &platform,
        &train_imgs,
        crate::profile::TrainOptions {
            max_degree: 3,
            wg_blocks: Some(8),
            chunk_mcu_rows: Some(8),
        },
    );
    let jpeg = jpeg_of(512, 512, 5);
    let prep = Prepared::new(&jpeg).unwrap();
    let mut ws = Workspace::default();
    let simd_out = run(Mode::Simd, &prep, &platform, &model, &mut ws);
    let sps_out = run(Mode::Sps, &prep, &platform, &model, &mut ws);
    assert!(
        sps_out.total() < simd_out.total(),
        "SPS {:.3}ms vs SIMD {:.3}ms",
        sps_out.total() * 1e3,
        simd_out.total() * 1e3
    );
    let pps_out = pps(&prep, &platform, &model, true, &mut ws);
    assert!(
        pps_out.total() < simd_out.total(),
        "PPS {:.3}ms vs SIMD {:.3}ms",
        pps_out.total() * 1e3,
        simd_out.total() * 1e3
    );
}

#[test]
fn repartitioning_helps_on_skewed_entropy() {
    // Detail ramps concentrate entropy (and, since the PR-3 sparse
    // retrain, IDCT density) at one end of the image: the
    // uniform-density initial split mis-places the boundary, and the
    // Eq. 16/17 correction — now with the sparsity-corrected `PCPU`
    // term (prefix discount extrapolated by the tail/prefix density
    // ratio) — moves it. Across platforms × ramp directions the
    // corrected split must never lose, must win clearly wherever a fixed
    // split beats the initial one by 1 % or more, and must win clearly or
    // leave nothing to win — no fixed split more than 0.1 % faster than
    // its own — in most configurations. (On the faster device of the
    // tiled pixel kernels, three of the six initial splits are within 1 %
    // of every fixed split, so no split can win clearly there:
    // docs/PERF.md, "Eq. 16 on the faster device".)
    use hetjpeg_corpus::{generate_jpeg, ImageSpec, Pattern};
    let mut improved = 0usize;
    let mut cases = 0usize;
    for (top, bottom) in [(0.05, 0.95), (0.95, 0.05)] {
        let spec = ImageSpec {
            width: 384,
            height: 512,
            pattern: Pattern::DetailRamp { top, bottom },
            seed: 11,
        };
        let jpeg = generate_jpeg(&spec, 85, Subsampling::S422).unwrap();
        for platform in Platform::all() {
            let model = platform.untrained_model();
            let prep = Prepared::new(&jpeg).unwrap();
            let mut ws = Workspace::default();
            let with = pps(&prep, &platform, &model, true, &mut ws);
            let without = pps(&prep, &platform, &model, false, &mut ws);
            let (kept, initial) = (
                with.partition.unwrap().gpu_mcu_rows,
                without.partition.unwrap().gpu_mcu_rows,
            );
            assert_eq!(with.image.data, without.image.data);
            let ctx = format!("{} ramp {top}->{bottom}", platform.name);
            assert!(
                with.total() <= without.total() * 1.001,
                "{ctx}: repartitioning hurt: {:.3}ms vs {:.3}ms",
                with.total() * 1e3,
                without.total() * 1e3
            );
            let case = (top, bottom);
            split::assert_ramp_repartition(
                &model, &prep.geom, &platform, case, initial, kept, &ctx,
            );
            cases += 1;
            // The best fixed boundary near the initial one: walk downhill
            // from it both ways. The total falls towards one minimum but
            // steps up by a few µs where the GPU's share starts a chunk, so
            // this finds a local minimum.
            let fixed = Plan {
                repartition: false,
                ..Plan::of(Mode::Pps, &prep, &model, 1)
            };
            let mut total = |gpu_rows: usize| {
                let plan = Plan { gpu_rows, ..fixed };
                let out = to_rgb(|out| {
                    split::decode(&prep, &platform, &model, &plan, None, &mut ws, out)
                });
                out.unwrap().total()
            };
            let mut best = without.total();
            for dir in [-1isize, 1] {
                let (mut gpu_rows, mut last) = (initial as isize + dir, without.total());
                while (0..=prep.geom.mcus_y as isize).contains(&gpu_rows) {
                    let t = total(gpu_rows as usize);
                    if t >= last {
                        break;
                    }
                    best = best.min(t);
                    (gpu_rows, last) = (gpu_rows + dir, t);
                }
            }
            let clear_win = with.total() < without.total() * 0.99;
            if best < without.total() * 0.99 {
                assert!(
                    clear_win,
                    "{ctx}: a fixed split takes {:.3}ms, the initial {:.3}ms: \
                     repartitioning should clearly win, took {:.3}ms",
                    best * 1e3,
                    without.total() * 1e3,
                    with.total() * 1e3
                );
            }
            if clear_win || with.total() <= best * 1.001 {
                improved += 1;
            }
        }
    }
    assert!(
        improved * 3 >= cases * 2,
        "repartitioning should clearly win, or leave nothing to win, in most skewed cases: \
         {improved}/{cases}"
    );
}

#[test]
fn pps_is_best_mode_on_fast_gpus() {
    let jpeg = jpeg_of(384, 512, 42);
    let platform = Platform::gtx680();
    let model = platform.untrained_model();
    let prep = Prepared::new(&jpeg).unwrap();
    let mut ws = Workspace::default();
    let totals: Vec<(Mode, f64)> = vec![
        (
            Mode::Simd,
            run(Mode::Simd, &prep, &platform, &model, &mut ws).total(),
        ),
        (
            Mode::Gpu,
            run(Mode::Gpu, &prep, &platform, &model, &mut ws).total(),
        ),
        (
            Mode::Sps,
            run(Mode::Sps, &prep, &platform, &model, &mut ws).total(),
        ),
        (
            Mode::Pps,
            pps(&prep, &platform, &model, true, &mut ws).total(),
        ),
    ];
    let pps_total = totals.last().unwrap().1;
    for &(m, t) in &totals[..totals.len() - 1] {
        assert!(
            pps_total <= t * 1.02,
            "PPS {pps_total} should beat {m:?} {t}"
        );
    }
}

#[test]
fn sps_with_every_row_on_the_gpu_is_the_gpu_mode() {
    // A model that prices the CPU band out puts the Eq. 10 split past the
    // last row: SPS is then the `Gpu` decode to the last bit — stage
    // totals and spans — bar the partition and mode it reports.
    let jpeg = jpeg_of(192, 256, 31);
    let prep = Prepared::new(&jpeg).unwrap();
    for platform in Platform::all() {
        let mut model = platform.untrained_model();
        model.p_cpu.coefs[0][0] += 10.0;
        let mut ws = Workspace::default();
        let sps_out = run(Mode::Sps, &prep, &platform, &model, &mut ws);
        let gpu_rows = sps_out.partition.unwrap().gpu_mcu_rows;
        assert_eq!(gpu_rows, prep.geom.mcus_y, "{}", platform.name);
        let gpu_out = run(Mode::Gpu, &prep, &platform, &model, &mut ws);
        assert_eq!(sps_out.image.data, gpu_out.image.data, "{}", platform.name);
        assert_eq!(sps_out.times, gpu_out.times, "{}", platform.name);
        assert_eq!(
            sps_out.trace.spans, gpu_out.trace.spans,
            "{}",
            platform.name
        );
    }
}

#[test]
fn sps_with_no_row_on_the_gpu_is_the_simd_mode() {
    // A model that prices the GPU out leaves SPS no GPU share at all: it
    // is then the SIMD decode to the last bit, bar partition and mode.
    let jpeg = jpeg_of(192, 256, 31);
    let prep = Prepared::new(&jpeg).unwrap();
    for platform in Platform::all() {
        let mut model = platform.untrained_model();
        model.p_gpu.coefs[0][0] += 10.0;
        let mut ws = Workspace::default();
        let sps_out = run(Mode::Sps, &prep, &platform, &model, &mut ws);
        assert_eq!(
            sps_out.partition.unwrap().gpu_mcu_rows,
            0,
            "{}",
            platform.name
        );
        let simd_out = run(Mode::Simd, &prep, &platform, &model, &mut ws);
        assert_eq!(sps_out.image.data, simd_out.image.data, "{}", platform.name);
        assert_eq!(sps_out.times, simd_out.times, "{}", platform.name);
        assert_eq!(
            sps_out.trace.spans, simd_out.trace.spans,
            "{}",
            platform.name
        );
    }
}
