//! PR-5 IDCT benchmark: the vectorized EOB-dispatched islow IDCT vs the
//! PR-3 scalar IDCT, per corpus, per class, and end to end.
//!
//! Stages (all on the same entropy-decoded coefficients, reused scratch):
//!
//! * `idct_stage_simd` — the dequant+IDCT stage alone over every block of
//!   the corpus: baseline is the PR-3 scalar EOB dispatch
//!   (`SimdLevel::Scalar`), optimized is the host's detected level. The
//!   dense q95 4:2:0 corpus is the headline the ≥1.5× acceptance gate
//!   reads; the sparse q80 corpus gates the ≥0.98× no-regression bound.
//! * `idct_stage_sse2` — same baseline, optimized at `SimdLevel::Sse2`,
//!   so the 128-bit path's win is recorded separately from AVX2.
//! * `idct_stage_forced_scalar` — baseline is the direct scalar sparse
//!   dispatch (`dct::sparse::dequant_idct_to`), optimized is the level
//!   dispatcher forced scalar — gates "no regression under forced-scalar
//!   fallback" (the dispatch layer must cost nothing).
//! * `parallel_phase_simd` — the PR-3 corpus stage re-run with the IDCT
//!   now vectorized: scalar stage pipeline vs the full fused row-tile
//!   SIMD pipeline.
//! * `gpu_idct_eob_dispatch` — simulated GPU IDCT kernel time with a
//!   dense EOB sidecar (the pre-PR-5 baseline behaviour) vs the real
//!   per-block EOBs — how much the GPU baseline stops being dense.
//!
//! The per-class microbench (`idct_class_*`) times one class's blocks in
//! isolation (ns/block, scalar vs vector level); its speedups calibrate
//! the cost model's `simd_idct_class_speedup` factors.
//!
//! Output: human-readable table on stdout and machine-readable
//! `BENCH_PR5.json` in the established schema, committed at the repo root.

use hetjpeg_core::gpu_decode::{GpuContext, KernelPlan, TransferMode};
use hetjpeg_core::platform::Platform;
use hetjpeg_corpus::{generate_jpeg, ImageSpec, Pattern};
use hetjpeg_jpeg::coef::CoefBuffer;
use hetjpeg_jpeg::dct::simd_islow::dequant_idct_to_level;
use hetjpeg_jpeg::dct::sparse::{class_for_eob, dequant_idct_to, SparseClass};
use hetjpeg_jpeg::decoder::kernels::SimdLevel;
use hetjpeg_jpeg::decoder::{simd, stages, Prepared};
use hetjpeg_jpeg::testutil::coef_block_for_eob;
use hetjpeg_jpeg::types::Subsampling;
use std::fmt::Write as _;
use std::time::Instant;

struct Case {
    jpeg: Vec<u8>,
    pixels: usize,
}

fn corpus(quality: u8, sub: Subsampling, detail: f64) -> Vec<Case> {
    [(512usize, 512usize, 1u64), (768, 512, 2), (512, 768, 3)]
        .into_iter()
        .map(|(w, h, seed)| {
            let spec = ImageSpec {
                width: w,
                height: h,
                pattern: Pattern::PhotoLike { detail },
                seed,
            };
            Case {
                jpeg: generate_jpeg(&spec, quality, sub).expect("encode"),
                pixels: w * h,
            }
        })
        .collect()
}

/// Best-of-`reps` wall time of `f`, in seconds.
fn time_best<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Best-of interleaved A/B timing: `f(false)` and `f(true)` alternate
/// every rep, so slow-container drift (the dominant noise here) hits both
/// sides equally instead of biasing whichever phase ran later — what the
/// forced-scalar no-regression gate needs, since its two sides are
/// near-identical code.
fn time_best_ab<F: FnMut(bool)>(reps: usize, mut f: F) -> (f64, f64) {
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let t0 = Instant::now();
        f(false);
        best_a = best_a.min(t0.elapsed().as_secs_f64());
        let t1 = Instant::now();
        f(true);
        best_b = best_b.min(t1.elapsed().as_secs_f64());
    }
    (best_a, best_b)
}

struct StageResult {
    baseline_ns: f64,
    optimized_ns: f64,
}

impl StageResult {
    fn speedup(&self) -> f64 {
        self.baseline_ns / self.optimized_ns
    }
}

/// Run the dequant+IDCT stage for every block of every image into
/// per-component planes via the level dispatcher.
fn idct_all_blocks(
    preps: &[Prepared<'_>],
    decoded: &[CoefBuffer],
    planes: &mut [Vec<Vec<u8>>],
    level: SimdLevel,
) {
    for (i, p) in preps.iter().enumerate() {
        let geom = &p.geom;
        for (ci, comp) in geom.comps.iter().enumerate() {
            let quant = &p.quant[ci].values;
            let pw = comp.plane_width();
            let dst = &mut planes[i][ci];
            for by in 0..comp.height_blocks {
                for bx in 0..comp.width_blocks {
                    let idx = geom.block_index(ci, bx, by);
                    dequant_idct_to_level(
                        level,
                        decoded[i].block(idx),
                        quant,
                        decoded[i].eob(idx),
                        dst,
                        by * 8 * pw + bx * 8,
                        pw,
                    );
                }
            }
        }
    }
}

/// Like [`idct_all_blocks`] but through the direct scalar sparse dispatch
/// (the PR-3 code path, no level dispatcher in the loop).
fn idct_all_blocks_direct_scalar(
    preps: &[Prepared<'_>],
    decoded: &[CoefBuffer],
    planes: &mut [Vec<Vec<u8>>],
) {
    for (i, p) in preps.iter().enumerate() {
        let geom = &p.geom;
        for (ci, comp) in geom.comps.iter().enumerate() {
            let quant = &p.quant[ci].values;
            let pw = comp.plane_width();
            let dst = &mut planes[i][ci];
            for by in 0..comp.height_blocks {
                for bx in 0..comp.width_blocks {
                    let idx = geom.block_index(ci, bx, by);
                    dequant_idct_to(
                        decoded[i].block(idx),
                        quant,
                        decoded[i].eob(idx),
                        dst,
                        by * 8 * pw + bx * 8,
                        pw,
                    );
                }
            }
        }
    }
}

fn measure_corpus(cases: &[Case], reps: usize, level: SimdLevel) -> Vec<(String, StageResult)> {
    let total_px: usize = cases.iter().map(|c| c.pixels).sum();
    let preps: Vec<Prepared<'_>> = cases
        .iter()
        .map(|c| Prepared::new(&c.jpeg).expect("parse"))
        .collect();
    let decoded: Vec<CoefBuffer> = preps
        .iter()
        .map(|p| p.entropy_decode_all().expect("entropy").0)
        .collect();
    let per_px = |secs: f64| secs * 1e9 / total_px as f64;

    // Per-component planes reused across reps.
    let mut planes: Vec<Vec<Vec<u8>>> = preps
        .iter()
        .map(|p| {
            p.geom
                .comps
                .iter()
                .map(|c| vec![0u8; c.plane_width() * c.plane_height()])
                .collect()
        })
        .collect();

    // The dequant+IDCT stage alone.
    // Measurement order matters: the SSE2 kernels use legacy 128-bit
    // encodings, so they are timed *before* any 256-bit AVX2 code dirties
    // the upper register halves (the transition penalty would be charged
    // to SSE2 otherwise; a real session never mixes levels).
    let (direct_scalar, dispatched_scalar) = time_best_ab(reps * 4, |dispatched| {
        if dispatched {
            idct_all_blocks(
                &preps,
                &decoded,
                &mut planes,
                std::hint::black_box(SimdLevel::Scalar),
            )
        } else {
            idct_all_blocks_direct_scalar(&preps, &decoded, &mut planes)
        }
    });
    let dispatched_sse2 = if SimdLevel::Sse2.is_available() && level > SimdLevel::Sse2 {
        Some(time_best(reps, || {
            idct_all_blocks(
                &preps,
                &decoded,
                &mut planes,
                std::hint::black_box(SimdLevel::Sse2),
            )
        }))
    } else {
        None
    };
    let dispatched_simd = time_best(reps, || {
        idct_all_blocks(&preps, &decoded, &mut planes, std::hint::black_box(level))
    });

    let mut out: Vec<(String, StageResult)> = vec![
        (
            "idct_stage_simd".into(),
            StageResult {
                baseline_ns: per_px(dispatched_scalar),
                optimized_ns: per_px(dispatched_simd),
            },
        ),
        (
            "idct_stage_forced_scalar".into(),
            StageResult {
                baseline_ns: per_px(direct_scalar),
                optimized_ns: per_px(dispatched_scalar),
            },
        ),
    ];
    if let Some(sse2) = dispatched_sse2 {
        out.push((
            "idct_stage_sse2".into(),
            StageResult {
                baseline_ns: per_px(dispatched_scalar),
                optimized_ns: per_px(sse2),
            },
        ));
    }

    // The whole parallel phase: scalar stage pipeline vs the fused SIMD
    // row-tile pipeline (now including the vector IDCT).
    let mut outs: Vec<Vec<u8>> = preps
        .iter()
        .map(|p| vec![0u8; p.geom.rgb_bytes_in_mcu_rows(0, p.geom.mcus_y)])
        .collect();
    let mut scratches: Vec<stages::Scratch> = preps.iter().map(stages::Scratch::new).collect();
    let scalar_stages = time_best(reps, || {
        for (i, p) in preps.iter().enumerate() {
            stages::decode_region_rgb_with(
                p,
                &decoded[i],
                0,
                p.geom.mcus_y,
                &mut outs[i],
                &mut scratches[i],
            )
            .unwrap();
        }
    });
    let mut fused: Vec<simd::SimdScratch> = preps
        .iter()
        .map(|p| simd::SimdScratch::with_level(p, level))
        .collect();
    let fused_t = time_best(reps, || {
        for (i, p) in preps.iter().enumerate() {
            simd::decode_region_rgb_simd_with(
                p,
                &decoded[i],
                0,
                p.geom.mcus_y,
                &mut outs[i],
                &mut fused[i],
            )
            .unwrap();
        }
    });
    out.push((
        "parallel_phase_simd".into(),
        StageResult {
            baseline_ns: per_px(scalar_stages),
            optimized_ns: per_px(fused_t),
        },
    ));

    // Simulated GPU IDCT: dense-EOB sidecar (pre-PR-5 baseline, now the
    // `TransferMode::Dense` ablation) vs the real per-block EOBs, summing
    // only the idct-family kernel times.
    let platform = Platform::gtx560();
    let idct_time = |mode: TransferMode| -> f64 {
        let mut total = 0.0;
        let mut device = GpuContext::new(&platform, mode);
        for (i, p) in preps.iter().enumerate() {
            let rows = p.geom.mcus_y;
            let mut rgb = vec![0u8; p.geom.rgb_bytes_in_mcu_rows(0, rows)];
            let res = device
                .decode_region(p, &decoded[i], 0, rows, 8, KernelPlan::Merged, &mut rgb)
                .expect("merged plan");
            total += res
                .kernel_times
                .iter()
                .filter(|(n, _)| n.starts_with("idct"))
                .map(|(_, t)| t)
                .sum::<f64>();
        }
        total
    };
    let gpu_dense = idct_time(TransferMode::Dense);
    let gpu_sparse = idct_time(TransferMode::Sidecar);
    out.push((
        "gpu_idct_eob_dispatch".into(),
        StageResult {
            baseline_ns: per_px(gpu_dense),
            optimized_ns: per_px(gpu_sparse),
        },
    ));

    out
}

/// Per-class microbench: synthetic blocks of exactly one sparse class,
/// ns/block at scalar vs `level` — calibrates `simd_idct_class_speedup`.
fn class_micro(reps: usize, level: SimdLevel) -> Vec<(String, StageResult, f64)> {
    let classes: [(&str, usize); 4] = [
        ("dc_only", 0),
        ("corner2", 2),
        ("corner4", 9),
        ("dense", 63),
    ];
    let quant = {
        let mut q = [0u16; 64];
        for (i, slot) in q.iter_mut().enumerate() {
            *slot = (16 + (i * 3) % 64) as u16;
        }
        q
    };
    let nblocks = 512usize;
    let mut out = Vec::new();
    for (name, eob) in classes {
        assert!(matches!(
            (eob, class_for_eob(eob as u8)),
            (0, SparseClass::DcOnly)
                | (2, SparseClass::Corner2)
                | (9, SparseClass::Corner4)
                | (63, SparseClass::Dense)
        ));
        let blocks: Vec<[i16; 64]> = (0..nblocks)
            .map(|b| coef_block_for_eob(0x9E37_79B9 + b as u64, eob, 256))
            .collect();
        let mut plane = vec![0u8; 8 * 8 * nblocks];
        let run = |lv: SimdLevel, plane: &mut Vec<u8>, reps: usize| {
            // black_box keeps the level a runtime value in both runs, so
            // the scalar baseline cannot be const-folded into a tighter
            // inline than the dispatched path it is compared against.
            let lv = std::hint::black_box(lv);
            time_best(reps, || {
                for (b, coefs) in blocks.iter().enumerate() {
                    dequant_idct_to_level(lv, coefs, &quant, eob as u8, plane, b * 64, 8);
                }
            })
        };
        let scalar = run(SimdLevel::Scalar, &mut plane, reps * 4);
        let vector = run(level, &mut plane, reps * 4);
        let per_block = |secs: f64| secs * 1e9 / nblocks as f64;
        out.push((
            format!("idct_class_{name}"),
            StageResult {
                baseline_ns: per_block(scalar),
                optimized_ns: per_block(vector),
            },
            per_block(scalar),
        ));
    }
    out
}

fn main() {
    let reps: usize = std::env::var("BENCH_PR5_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);
    let level = SimdLevel::detect();
    let corpora: Vec<(&str, Vec<Case>)> = vec![
        // The acceptance corpora: dense q95 4:2:0 is the headline, sparse
        // q80 4:2:0 gates no-regression.
        ("q95_420_dense", corpus(95, Subsampling::S420, 0.9)),
        ("q80_420_sparse", corpus(80, Subsampling::S420, 0.5)),
        // The cost model's reference mix and the no-upsample guard.
        ("q85_422", corpus(85, Subsampling::S422, 0.55)),
        ("q95_444_dense", corpus(95, Subsampling::S444, 0.9)),
    ];

    let mut json = String::from("{\n  \"pr\": 5,\n");
    let _ = writeln!(
        json,
        "  \"description\": \"EOB-dispatched vector islow IDCT; idct_stage_* rows time the dequant+IDCT stage alone over every block (baseline = PR-3 scalar EOB dispatch), parallel_phase_simd is the full fused pipeline vs the scalar stage pipeline, gpu_idct_eob_dispatch is the simulated GPU idct kernel time with a dense EOB sidecar vs real per-block EOBs, and idct_class_* microbenches (ns/block) calibrate the cost model's simd_idct_class_speedup factors. Noise floor: this single-core shared container shows ~±3% run-to-run drift even between interleaved best-of timings of identical code — the idct_stage_forced_scalar rows compare two near-identical code paths (direct scalar call vs dispatcher forced scalar) and their deviation from 1.0 bounds the measurement noise for every other row\","
    );
    let _ = writeln!(json, "  \"reps_best_of\": {reps},");
    let _ = writeln!(json, "  \"simd_level\": \"{}\",", level.name());
    let _ = writeln!(json, "  \"corpora\": {{");

    for (ci, (name, cases)) in corpora.iter().enumerate() {
        let pixels: usize = cases.iter().map(|c| c.pixels).sum();
        println!("== corpus {name} ({} images, {pixels} px) ==", cases.len());
        let results = measure_corpus(cases, reps, level);
        let _ = writeln!(json, "    \"{name}\": {{");
        let _ = writeln!(
            json,
            "      \"images\": {}, \"pixels\": {pixels},",
            cases.len()
        );
        let _ = writeln!(json, "      \"stages\": {{");
        for (si, (stage, r)) in results.iter().enumerate() {
            let sep = if si + 1 == results.len() { "" } else { "," };
            println!(
                "{stage:<28} before {:8.2} ns/px   after {:8.2} ns/px   speedup {:.2}x",
                r.baseline_ns,
                r.optimized_ns,
                r.speedup()
            );
            let _ = writeln!(
                json,
                "        \"{stage}\": {{\"baseline_ns_per_px\": {:.3}, \"optimized_ns_per_px\": {:.3}, \"speedup\": {:.3}}}{sep}",
                r.baseline_ns, r.optimized_ns, r.speedup()
            );
        }
        let _ = writeln!(json, "      }}");
        let sep = if ci + 1 == corpora.len() { "" } else { "," };
        let _ = writeln!(json, "    }}{sep}");
    }
    let _ = writeln!(json, "  }},");

    println!("== per-class microbench ({}) ==", level.name());
    let micro = class_micro(reps, level);
    let _ = writeln!(json, "  \"kernels\": {{");
    for (si, (stage, r, _)) in micro.iter().enumerate() {
        let sep = if si + 1 == micro.len() { "" } else { "," };
        println!(
            "{stage:<28} scalar {:8.1} ns/block   {} {:8.1} ns/block   speedup {:.2}x",
            r.baseline_ns,
            level.name(),
            r.optimized_ns,
            r.speedup()
        );
        let _ = writeln!(
            json,
            "    \"{stage}\": {{\"scalar_ns_per_block\": {:.2}, \"simd_ns_per_block\": {:.2}, \"speedup\": {:.3}}}{sep}",
            r.baseline_ns, r.optimized_ns, r.speedup()
        );
    }
    let _ = writeln!(json, "  }}\n}}");

    std::fs::write("BENCH_PR5.json", &json).expect("write BENCH_PR5.json");
    println!("wrote BENCH_PR5.json");
}
