//! The metric registry: every name `spine` may print, with its unit, clock
//! and direction. `BENCHMARK.json` is generated from it (`spine manifest`)
//! and a unit test holds the two together.

use crate::json;
use crate::measure::Clock;
use crate::workload::Kind;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Concrete decode modes in `Mode::all()` order, as metric-name suffixes.
pub const MODE_TAGS: [&str; 7] = [
    "sequential",
    "simd",
    "gpu",
    "pipeline",
    "sps",
    "pps",
    "par-entropy",
];

/// Index of `simd` in [`MODE_TAGS`].
pub const SIMD: usize = 1;

/// The four simulated-GPU modes (indices into [`MODE_TAGS`]) with the
/// paper's Table 2 mean speed-up over SIMD on the GTX 560 (4:2:2).
pub const PAPER_TABLE2_GTX560: [(usize, f64); 4] = [(2, 1.59), (3, 2.19), (4, 1.81), (5, 2.34)];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    /// End-to-end only: relative worsening that counts as a regression.
    pub bound: Option<f64>,
}

use Better::{Higher, Lower};
use Clock::{Count, Virtual, Wall};

fn m(name: impl Into<String>, unit: &'static str, clock: Clock, better: Better) -> Metric {
    Metric {
        name: name.into(),
        unit,
        clock,
        better,
        bound: None,
    }
}

/// What a caller of the library or a client of the server sees. A bound
/// has to hold the spread (IQR over median) of ten runs on ten seeds, and
/// the drift between two such series, on this shared 2-vCPU host, where
/// multi-threaded decoding drifts by up to 1.28× over minutes while a
/// busy loop holds within 2 %: over ten 8–10 s runs the median-of-windows
/// throughput spread 3–20 %, and between two series 20 minutes apart its
/// median moved by up to 22 %. So the two timing bounds are the widest the
/// benchmark contract allows, not the issue's 0.10. Peak RSS (≤ 4 %) keeps
/// the issue's bound, and the virtual metrics, exact on a fixed corpus,
/// the issue's 0.5 %.
pub fn end_to_end() -> Vec<Metric> {
    let e = |name, unit, clock, better, bound| Metric {
        bound: Some(bound),
        ..m(name, unit, clock, better)
    };
    vec![
        e("setup_s", "s", Wall, Lower, 0.25),
        e("throughput_mpx_s", "Mpx/s", Wall, Higher, 0.25),
        e("peak_rss_mb", "MiB", Wall, Lower, 0.1),
        e("virt_ms_per_mpx", "ms/Mpx", Virtual, Lower, 0.005),
        e("virt_speedup_vs_simd", "ratio", Virtual, Higher, 0.005),
        e("model_err_pct", "%", Virtual, Lower, 0.005),
    ]
}

/// Single-layer numbers from the traced pass. A layer a workload does not
/// exercise reads 0 there.
pub fn per_layer() -> Vec<Metric> {
    let mut v = vec![
        m("jpeg.parse.us_per_image", "us", Wall, Lower),
        m("jpeg.entropy.ns_per_px", "ns/px", Wall, Lower),
        m("jpeg.entropy.bits_per_px", "bits/px", Count, Lower),
        m("jpeg.entropy.symbols_per_px", "1/px", Count, Lower),
        m("jpeg.idct.ns_per_px", "ns/px", Wall, Lower),
        m("jpeg.idct.ns_per_block", "ns", Wall, Lower),
        m("jpeg.idct.share_dc_only", "ratio", Count, Higher),
        m("jpeg.idct.share_2x2", "ratio", Count, Higher),
        m("jpeg.idct.share_4x4", "ratio", Count, Higher),
        m("jpeg.idct.share_dense", "ratio", Count, Lower),
        m("jpeg.upsample.ns_per_px", "ns/px", Wall, Lower),
        m("jpeg.color.ns_per_px", "ns/px", Wall, Lower),
        m("jpeg.render.ns_per_px", "ns/px", Wall, Lower),
        m(
            "jpeg.render.fusion_residual_ns_per_px",
            "ns/px",
            Wall,
            Lower,
        ),
        m("host.memcpy_gb_s", "GB/s", Wall, Higher),
        m("jpeg.idct.bw_share", "ratio", Wall, Lower),
        m("jpeg.upsample.bw_share", "ratio", Wall, Lower),
        m("jpeg.color.bw_share", "ratio", Wall, Lower),
        m("jpeg.progressive.scans_per_image", "count", Count, Lower),
        m("core.progressive.prefix1_ms_p50", "ms", Wall, Lower),
        m("core.progressive.full_ms_p50", "ms", Wall, Lower),
        m("jpeg.progressive.ns_per_px_per_scan", "ns/px", Wall, Lower),
        m("jpeg.speculate.chunks", "count", Count, Lower),
        m("jpeg.speculate.wasted_mcu_share", "ratio", Count, Lower),
        m(
            "jpeg.speculate.stitch_redecoded_mcus",
            "count",
            Count,
            Lower,
        ),
        m("core.session.fixed_us", "us", Wall, Lower),
        m("core.session.allocs_per_image", "1/image", Count, Lower),
        m("core.auto.predict_us_p50", "us", Wall, Lower),
        m("core.auto.cache_hit_share", "ratio", Count, Higher),
        m("core.auto.regret_pct", "%", Virtual, Lower),
    ];
    for tag in MODE_TAGS {
        v.push(m(
            format!("core.auto.pick_share.{tag}"),
            "ratio",
            Count,
            Higher,
        ));
    }
    for tag in MODE_TAGS {
        v.push(m(format!("core.model.err_pct.{tag}"), "%", Virtual, Lower));
    }
    for (i, tag) in MODE_TAGS.iter().enumerate() {
        if i != SIMD {
            v.push(m(
                format!("core.virt.speedup_vs_simd.{tag}"),
                "ratio",
                Virtual,
                Higher,
            ));
        }
    }
    for (i, _) in PAPER_TABLE2_GTX560 {
        let tag = MODE_TAGS[i];
        v.push(m(
            format!("core.virt.paper_ratio.{tag}"),
            "ratio",
            Virtual,
            Higher,
        ));
    }
    for stage in [
        "huffman",
        "h2d",
        "kernels",
        "d2h",
        "cpu_parallel",
        "dispatch",
    ] {
        v.push(m(
            format!("core.virt.share.{stage}"),
            "ratio",
            Virtual,
            Lower,
        ));
    }
    v.extend([
        m("core.virt.overlap_gain", "ratio", Virtual, Higher),
        m("core.pps.gpu_row_share", "ratio", Virtual, Higher),
        m("core.pps.balance_pct", "%", Virtual, Lower),
        m("core.gpu.h2d_bytes_per_px", "B/px", Count, Lower),
        m("core.gpu.h2d_transfers_per_image", "1/image", Count, Lower),
        m("core.batch.h2d_amortisation", "ratio", Virtual, Higher),
    ]);
    for (i, _) in PAPER_TABLE2_GTX560 {
        let tag = MODE_TAGS[i];
        v.push(m(
            format!("gpusim.host_ms_per_mpx.{tag}"),
            "ms/Mpx",
            Wall,
            Lower,
        ));
    }
    v.extend([
        m("core.train.s", "s", Wall, Lower),
        m(
            "serve.protocol.parse_request_ns_per_kb.v1",
            "ns/KB",
            Wall,
            Lower,
        ),
        m(
            "serve.protocol.parse_request_ns_per_kb.v2",
            "ns/KB",
            Wall,
            Lower,
        ),
        m(
            "serve.protocol.write_response_ns_per_mb",
            "ns/MB",
            Wall,
            Lower,
        ),
        m(
            "serve.protocol.read_response_ns_per_mb",
            "ns/MB",
            Wall,
            Lower,
        ),
        m("serve.pool.roundtrip_us_p50", "us", Wall, Lower),
        m("serve.pool.overhead_us_p50", "us", Wall, Lower),
        m("serve.pool.mean_batch", "count", Wall, Higher),
        m("serve.pool.shed", "count", Wall, Lower),
        m("serve.pool.degraded", "count", Wall, Lower),
        m("serve.pool.decode_errors", "count", Wall, Lower),
        m("serve.wire.overhead_us_p50", "us", Wall, Lower),
        m("serve.frontend.accepted", "count", Count, Higher),
        m("serve.frontend.rejected", "count", Count, Lower),
        m("serve.frontend.requests", "count", Count, Higher),
        m("serve.stream.first_tile_ms_p50", "ms", Wall, Lower),
        m("serve.stream.tile_gap_us_p50", "us", Wall, Lower),
        m("serve.stream.tiles_per_image", "count", Count, Lower),
        m("serve.stream.tile_peak", "count", Wall, Lower),
        m("serve.stream.vs_whole_ratio", "ratio", Wall, Lower),
        m("serve.rows.first_tile_ms_p50", "ms", Wall, Lower),
        m("client.latency_ms_p50", "ms", Wall, Lower),
        m("client.latency_ms_p90", "ms", Wall, Lower),
        m("client.latency_ms_p99", "ms", Wall, Lower),
        m("client.latency_samples", "count", Wall, Higher),
        m("trace.unattributed_share", "ratio", Wall, Lower),
        m("trace.overhead_pct", "%", Wall, Lower),
    ]);
    for gate in GATES {
        v.push(m(gate, "bool", Count, Higher));
    }
    v
}

/// The old per-PR gating assertions, carried forward as named booleans:
/// 1 = evaluated and true, 0 = not evaluated on this workload. A gate that
/// evaluates false fails the run.
pub const GATES: [&str; 6] = [
    "gate.compaction_q80_420_ge_3x",
    "gate.batch8_beats_batch1",
    "gate.spec_entropy_virtual_ge_1_8x_at_4_threads",
    "gate.progressive_dc_prefix_cheaper_than_full",
    "gate.stream_tile_peak_le_cap",
    "gate.frontend_rejected_zero",
];

/// Letters, digits, `_`, `.`, `-`; starts with a letter or digit; ≤ 64.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Letters, digits, `_`, `/`, `%`, `.`, `-`; ≤ 16.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

/// Whether a run of `kind` measures metric `name`. The result line must
/// carry every registered name, so a layer the workload does not exercise
/// (and a gate it does not evaluate) reads 0 there; `spine run` prints
/// those as n/a. A gate that evaluates false fails the run, so a 0 gate in
/// a correct result is always "not evaluated here".
pub fn exercised(kind: Kind, name: &str) -> bool {
    use Kind::{HeteroAuto, LibProgressive, ServeSmall, ServeStream};
    let under = |prefixes: &[&str]| prefixes.iter().any(|p| name.starts_with(p));
    let only: &[Kind] = if under(&[
        "jpeg.progressive.",
        "core.progressive.",
        "gate.progressive_",
    ]) {
        &[LibProgressive]
    } else if under(&[
        "core.auto.",
        "core.model.",
        "core.virt.",
        "core.pps.",
        "core.gpu.",
        "core.batch.",
        "core.train.",
        "gpusim.",
        "jpeg.speculate.",
        "gate.compaction_",
        "gate.batch8_",
        "gate.spec_entropy_",
    ]) {
        &[HeteroAuto]
    } else if under(&["serve.stream.", "serve.rows.", "gate.stream_"]) {
        &[ServeStream]
    } else if under(&["serve.", "gate.frontend_"]) {
        &[ServeSmall, ServeStream]
    } else {
        return true;
    };
    only.contains(&kind)
}

/// Values of one run keyed by metric name. Setting a name the registry
/// does not know, or one [`exercised`] says this workload does not
/// measure, or leaving out one it does, is a bug in `spine`, caught at once.
pub struct Values {
    kind: Kind,
    known: BTreeMap<String, &'static str>,
    values: BTreeMap<String, f64>,
}

impl Values {
    pub fn new(registry: &[Metric], kind: Kind) -> Values {
        for m in registry {
            assert!(valid_name(&m.name), "bad metric name {:?}", m.name);
            assert!(valid_unit(m.unit), "bad unit {:?} of {}", m.unit, m.name);
        }
        Values {
            kind,
            known: registry.iter().map(|m| (m.name.clone(), m.unit)).collect(),
            values: BTreeMap::new(),
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        assert!(self.known.contains_key(name), "unregistered metric {name}");
        assert!(exercised(self.kind, name), "{name} is not measured here");
        assert!(value.is_finite(), "metric {name} is not finite");
        self.values.insert(name.to_string(), value);
    }

    /// The `metrics` object of the result line: every registered name, 0
    /// for a layer this workload does not exercise.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, unit)) in self.known.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let v = self.values.get(name).copied();
            assert_eq!(v.is_some(), exercised(self.kind, name), "{name}");
            let _ = write!(
                out,
                "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(name),
                json::num(v.unwrap_or(0.0)),
                json::quote(unit)
            );
        }
        out.push('}');
        out
    }
}

/// `BENCHMARK.json`, generated so it cannot drift from the registry.
pub fn manifest(workloads: &[(&str, &str)]) -> String {
    let better = |b: Better| match b {
        Lower => "lower",
        Higher => "higher",
    };
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"-p\", \"hetjpeg-bench\", \"--bin\", \"spine\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"crates/bench/src/bin/spine\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {},", crate::DRIVER_SECONDS);
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in workloads.iter().enumerate() {
        let sep = if i + 1 < workloads.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"why\": {}}}{sep}",
            json::quote(name),
            json::quote(why)
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    let e2e = end_to_end();
    for (i, mt) in e2e.iter().enumerate() {
        let sep = if i + 1 < e2e.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{sep}",
            json::quote(&mt.name),
            json::quote(mt.unit),
            json::quote(better(mt.better)),
            json::num(mt.bound.expect("end-to-end metrics carry a bound"))
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, mt) in layers.iter().enumerate() {
        let sep = if i + 1 < layers.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{sep}",
            json::quote(&mt.name),
            json::quote(mt.unit),
            json::quote(better(mt.better))
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_and_units_are_valid_and_unique() {
        assert!(valid_name("core.auto.pick_share.par-entropy"));
        assert!(valid_name("3d_thing"));
        for bad in ["", ".x", "-x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_unit("Mpx/s") && valid_unit("%") && valid_unit("1/image"));
        assert!(!valid_unit("") && !valid_unit("per image") && !valid_unit(&"u".repeat(17)));

        let all: Vec<Metric> = end_to_end().into_iter().chain(per_layer()).collect();
        let mut seen = BTreeSet::new();
        for mt in &all {
            assert!(valid_name(&mt.name), "{}", mt.name);
            assert!(valid_unit(mt.unit), "{} unit {}", mt.name, mt.unit);
            assert!(seen.insert(mt.name.clone()), "duplicate {}", mt.name);
        }
        assert!(end_to_end().len() <= 16 && per_layer().len() <= 128);
        for mt in end_to_end() {
            let bound = mt.bound.unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", mt.name);
        }
        assert!(end_to_end()
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
    }

    /// Every printed name is in the committed `BENCHMARK.json` and the
    /// other way round, with the same unit, direction and bound.
    #[test]
    fn committed_manifest_matches_the_registry() {
        let text = include_str!("../../../../../BENCHMARK.json");
        let doc = json::parse(text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert_eq!(
            text,
            manifest(&crate::workload::catalogue()),
            "regenerate with `spine manifest > BENCHMARK.json`"
        );
        for (section, registry) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            let listed: BTreeSet<&str> = doc
                .get(section)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|e| e.get("name").and_then(Json::as_str).unwrap())
                .collect();
            let printed: BTreeSet<&str> = registry.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(listed, printed, "{section}");
        }
        let run_seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&run_seconds));
        let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(workloads.len(), 6);
        for w in workloads {
            assert!(valid_name(w.get("name").and_then(Json::as_str).unwrap()));
            assert!(w.get("why").and_then(Json::as_str).unwrap().len() <= 200);
        }
    }

    use crate::json::Json;

    #[test]
    fn values_fill_unexercised_layers_with_zero_and_only_those() {
        assert!(exercised(Kind::LibDense, "jpeg.idct.ns_per_px"));
        assert!(exercised(Kind::ServeSmall, "serve.pool.shed"));
        assert!(!exercised(Kind::ServeSmall, "serve.stream.tile_peak"));
        assert!(!exercised(Kind::LibSparse, "gate.batch8_beats_batch1"));
        let mut v = Values::new(&per_layer(), Kind::LibDense);
        for mt in per_layer() {
            if exercised(Kind::LibDense, &mt.name) {
                v.set(&mt.name, 12.5);
            }
        }
        let doc = json::parse(&v.to_json()).unwrap();
        assert_eq!(doc.as_obj().unwrap().len(), per_layer().len());
        let read = |name: &str| {
            doc.get(name)
                .and_then(|e| e.get("value"))
                .and_then(Json::as_f64)
        };
        assert_eq!(read("jpeg.parse.us_per_image"), Some(12.5));
        assert_eq!(read("serve.stream.tile_peak"), Some(0.0));
        // Every end-to-end metric is measured on every workload.
        for w in &crate::workload::ALL {
            assert!(end_to_end().iter().all(|m| exercised(w.kind, &m.name)));
        }
    }
}
