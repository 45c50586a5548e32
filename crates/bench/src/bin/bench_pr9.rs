//! PR-9 transfer benchmark: compacted GPU coefficient transfers and
//! batched H2D.
//!
//! Everything here is measured on the *simulated* device — transfer bytes
//! are exact layout arithmetic and transfer/kernel times come from the
//! analytic PCIe/GPU models, so the numbers are deterministic and the
//! gates are exact, not wall-clock estimates.
//!
//! Sections:
//!
//! * per corpus, per transfer layout (`dense` / `sidecar` / `compacted`):
//!   total H2D bytes, modeled H2D time, and simulated kernel time — the
//!   byte ablation plus the kernel-side cost of each layout. The headline
//!   gate reads the q80 4:2:0 photo corpus: **compacted H2D bytes must be
//!   ≥ 3× smaller than dense**.
//! * batch amortization: the same compacted payloads shipped as eight
//!   individual transfers (batch-of-1) vs one coalesced transfer
//!   (batch-of-8, `Decoder::decode_batch`'s accounting), cross-checked
//!   against the session's actual per-outcome H2D attribution. Gate: the
//!   coalesced transfer saves exactly seven PCIe fixed latencies, i.e.
//!   batch-of-8 is strictly faster.
//!
//! Output: human-readable table on stdout and machine-readable
//! `BENCH_PR9.json` at the repo root.

use hetjpeg_core::gpu_decode::{GpuContext, GpuRegionResult, KernelPlan, TransferMode};
use hetjpeg_core::platform::Platform;
use hetjpeg_core::schedule::Mode;
use hetjpeg_core::{DecodeOptions, Decoder};
use hetjpeg_corpus::{generate_jpeg, ImageSpec, Pattern};
use hetjpeg_jpeg::decoder::Prepared;
use hetjpeg_jpeg::types::Subsampling;
use std::fmt::Write as _;

struct Case {
    jpeg: Vec<u8>,
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
            }
        })
        .collect()
}

#[derive(Default)]
struct LayoutTotals {
    h2d_bytes: u64,
    h2d_s: f64,
    kernels_s: f64,
}

/// Ship every image of a corpus through one transfer layout and total the
/// H2D bytes, modeled transfer time and simulated kernel time.
/// Whole-image merged-plan decode of `jpeg` on `device`, timings only.
fn decode_whole(device: &mut GpuContext, jpeg: &[u8]) -> GpuRegionResult {
    let prep = Prepared::new(jpeg).expect("parse");
    let (coef, _) = prep.entropy_decode_all().expect("entropy");
    let rows = prep.geom.mcus_y;
    let mut rgb = vec![0u8; prep.geom.rgb_bytes_in_mcu_rows(0, rows)];
    device
        .decode_region(&prep, &coef, 0, rows, 8, KernelPlan::Merged, &mut rgb)
        .expect("merged plan")
}

fn measure_layout(cases: &[Case], platform: &Platform, mode: TransferMode) -> LayoutTotals {
    let mut device = GpuContext::new(platform, mode);
    let mut t = LayoutTotals::default();
    for c in cases {
        let res = decode_whole(&mut device, &c.jpeg);
        t.h2d_bytes += res.h2d_bytes as u64;
        t.h2d_s += res.h2d_time;
        t.kernels_s += res.kernels_total();
    }
    t
}

fn main() {
    // Deterministic layout/model arithmetic: reps exist only for CLI
    // symmetry with the other benches.
    let _reps: usize = std::env::var("BENCH_PR9_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let platform = Platform::gtx680();
    let layouts = [
        ("dense", TransferMode::Dense),
        ("sidecar", TransferMode::Sidecar),
        ("compacted", TransferMode::Compacted),
    ];
    let corpora: Vec<(&str, Vec<Case>)> = vec![
        // The acceptance corpus: the ≥3× compaction gate reads this row.
        ("q80_420_photo", corpus(80, Subsampling::S420, 0.5)),
        // Context rows: a dense extreme and the cost model's reference mix.
        ("q95_420_dense", corpus(95, Subsampling::S420, 0.9)),
        ("q85_422", corpus(85, Subsampling::S422, 0.55)),
    ];

    let mut json = String::from("{\n  \"pr\": 9,\n");
    let _ = writeln!(
        json,
        "  \"description\": \"Compacted GPU coefficient transfers (PR 9): per corpus and transfer layout, total H2D bytes, modeled transfer seconds and simulated kernel seconds (all deterministic — exact layout arithmetic plus the analytic PCIe/GPU models, no wall clock). compaction_ratio is dense H2D bytes over compacted; the q80 4:2:0 photo corpus gates ratio >= 3. The batch section ships the same eight compacted payloads as eight transfers (batch-of-1) vs one coalesced decode_batch transfer (batch-of-8); the saving is exactly seven PCIe fixed latencies, cross-checked against the session's per-outcome H2D attribution.\","
    );
    let _ = writeln!(json, "  \"platform\": \"{}\",", platform.name);
    let _ = writeln!(json, "  \"corpora\": {{");

    let mut gate_ratio = 0.0f64;
    for (ci, (name, cases)) in corpora.iter().enumerate() {
        println!("== corpus {name} ({} images) ==", cases.len());
        let totals: Vec<(&str, LayoutTotals)> = layouts
            .iter()
            .map(|&(lname, mode)| (lname, measure_layout(cases, &platform, mode)))
            .collect();
        let dense_bytes = totals[0].1.h2d_bytes as f64;
        let compacted_bytes = totals[2].1.h2d_bytes as f64;
        let ratio = dense_bytes / compacted_bytes;
        if *name == "q80_420_photo" {
            gate_ratio = ratio;
        }
        let _ = writeln!(json, "    \"{name}\": {{");
        for (lname, t) in &totals {
            println!(
                "{lname:<10} h2d {:>10} B   h2d {:>9.3} ms   kernels {:>9.3} ms",
                t.h2d_bytes,
                t.h2d_s * 1e3,
                t.kernels_s * 1e3
            );
            let _ = writeln!(
                json,
                "      \"{lname}\": {{\"h2d_bytes\": {}, \"h2d_ms\": {:.4}, \"kernels_ms\": {:.4}}},",
                t.h2d_bytes,
                t.h2d_s * 1e3,
                t.kernels_s * 1e3
            );
        }
        println!("compaction ratio (dense/compacted): {ratio:.2}x");
        let _ = writeln!(json, "      \"compaction_ratio\": {ratio:.3}");
        let sep = if ci + 1 == corpora.len() { "" } else { "," };
        let _ = writeln!(json, "    }}{sep}");
    }
    let _ = writeln!(json, "  }},");

    // Batch amortization: eight compacted payloads, shipped individually
    // vs coalesced. The per-image sizes come from a real decode of eight
    // distinct images; the times are the PCIe model's.
    let batch_specs: Vec<Vec<u8>> = (0..8u64)
        .map(|i| {
            let spec = ImageSpec {
                width: 384,
                height: 256,
                pattern: Pattern::PhotoLike { detail: 0.5 },
                seed: 100 + i,
            };
            generate_jpeg(&spec, 80, Subsampling::S420).expect("encode")
        })
        .collect();
    let sizes: Vec<usize> = {
        let mut device = GpuContext::new(&platform, TransferMode::Compacted);
        batch_specs
            .iter()
            .map(|j| decode_whole(&mut device, j).h2d_bytes)
            .collect()
    };
    let one_by_one: f64 = sizes
        .iter()
        .map(|&s| platform.pcie.transfer_time(s, true))
        .sum();
    let coalesced = platform.pcie.batched_transfer_time(&sizes, true);
    let amortization = one_by_one / coalesced;

    // Cross-check: the session's batched path must attribute exactly the
    // coalesced time across its outcomes.
    let decoder = Decoder::builder()
        .platform(Platform::gtx680())
        .build()
        .expect("decoder");
    let outs = decoder.decode_batch(&batch_specs, DecodeOptions::with_mode(Mode::Gpu));
    let attributed: f64 = outs
        .iter()
        .map(|o| o.as_ref().expect("batched decode").times.h2d)
        .sum();

    println!("== batch amortization (8 × 384x256 q80 4:2:0, compacted) ==");
    println!(
        "batch-of-1: {:.3} ms   batch-of-8: {:.3} ms   amortization {amortization:.2}x",
        one_by_one * 1e3,
        coalesced * 1e3
    );
    let _ = writeln!(json, "  \"batch\": {{");
    let _ = writeln!(json, "    \"images\": {},", sizes.len());
    let _ = writeln!(json, "    \"bytes\": {},", sizes.iter().sum::<usize>());
    let _ = writeln!(json, "    \"batch_of_1_ms\": {:.4},", one_by_one * 1e3);
    let _ = writeln!(json, "    \"batch_of_8_ms\": {:.4},", coalesced * 1e3);
    let _ = writeln!(
        json,
        "    \"session_attributed_ms\": {:.4},",
        attributed * 1e3
    );
    let _ = writeln!(json, "    \"amortization\": {amortization:.3}");
    let _ = writeln!(json, "  }},");

    // Gates.
    let attribution_exact = (attributed - coalesced).abs() < 1e-9;
    let _ = writeln!(json, "  \"gates\": {{");
    let _ = writeln!(
        json,
        "    \"q80_420_compaction_ratio_ge_3\": {},",
        gate_ratio >= 3.0
    );
    let _ = writeln!(
        json,
        "    \"batch_amortization_gt_1\": {},",
        amortization > 1.0
    );
    let _ = writeln!(
        json,
        "    \"session_attribution_exact\": {attribution_exact}"
    );
    let _ = writeln!(json, "  }}\n}}");

    std::fs::write("BENCH_PR9.json", &json).expect("write BENCH_PR9.json");
    println!("wrote BENCH_PR9.json");

    assert!(
        gate_ratio >= 3.0,
        "gate: compacted H2D must be >= 3x smaller than dense on q80 4:2:0 (got {gate_ratio:.2}x)"
    );
    assert!(
        amortization > 1.0,
        "gate: coalescing must beat per-image transfers (got {amortization:.2}x)"
    );
    assert!(
        attribution_exact,
        "gate: decode_batch must attribute exactly the coalesced transfer time \
         (attributed {attributed:.9}s vs model {coalesced:.9}s)"
    );
}
