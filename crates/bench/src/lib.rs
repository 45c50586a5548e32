//! # hetjpeg-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation (§6):
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `fig6` | Fig. 6 — SIMD/GPU parallel-phase scaling vs pixels |
//! | `fig7` | Fig. 7 — Huffman ns/pixel vs entropy density |
//! | `fig9` | Fig. 9 — normalized stage breakdown on 2048² 4:2:2 |
//! | `fig10` | Fig. 10 — speedup over SIMD vs image size, 4 modes × 3 machines |
//! | `fig11` | Fig. 11 — % of the Amdahl bound attained by PPS (GTX 680) |
//! | `fig12` | Fig. 12 — CPU vs GPU time balance under SPS/PPS |
//! | `table2` | Table 2 — mean speedup ± CV, 4:2:2 |
//! | `table3` | Table 3 — mean speedup ± CV, 4:4:4 |
//! | `profile` | §5.1 offline profiling: trains and saves all six models |
//! | `all` | runs everything above in order |
//!
//! Scale control: set `HETJPEG_SCALE=quick|default|full` (default:
//! `default`). `full` pushes image sizes towards the paper's multi-megapixel
//! sweep; `quick` keeps everything tiny for smoke runs.
//!
//! Results are printed as aligned text and also written as CSV under
//! `results/`.

use hetjpeg_core::model::PerformanceModel;
use hetjpeg_core::platform::Platform;
use hetjpeg_core::profile::{train, TrainOptions};
use hetjpeg_corpus::{test_set, training_set, CorpusImage, CorpusParams};
use hetjpeg_jpeg::types::Subsampling;
use std::fs;
use std::path::{Path, PathBuf};

/// Experiment scale selected via `HETJPEG_SCALE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny smoke-test sizes.
    Quick,
    /// CI-friendly default.
    Default,
    /// Paper-approaching sizes (slow).
    Full,
}

impl Scale {
    /// Read the scale from the environment.
    pub fn from_env() -> Scale {
        match std::env::var("HETJPEG_SCALE").as_deref() {
            Ok("quick") => Scale::Quick,
            Ok("full") => Scale::Full,
            _ => Scale::Default,
        }
    }

    /// Training corpus parameters at this scale.
    pub fn train_params(self, sub: Subsampling) -> CorpusParams {
        let (min, max, steps) = match self {
            Scale::Quick => (64, 192, 2),
            Scale::Default => (128, 1024, 3),
            Scale::Full => (128, 1536, 5),
        };
        CorpusParams {
            min_dim: min,
            max_dim: max,
            steps,
            subsampling: sub,
            quality: 85,
            restart_interval: 0,
        }
    }

    /// Evaluation corpus parameters at this scale. The size range stays
    /// inside the training range: "Polynomial regression poorly estimates
    /// performance for images with the dimensions outside of the training
    /// set range" (§5.1) — which is why the paper crops its training images
    /// up to the largest evaluated size.
    pub fn test_params(self, sub: Subsampling) -> CorpusParams {
        let (min, max, steps) = match self {
            Scale::Quick => (80, 192, 2),
            Scale::Default => (128, 1024, 3),
            Scale::Full => (128, 1536, 5),
        };
        CorpusParams {
            min_dim: min,
            max_dim: max,
            steps,
            subsampling: sub,
            quality: 85,
            restart_interval: 0,
        }
    }

    /// The "large image" dimension used by Fig. 9-style single-image runs.
    pub fn large_dim(self) -> usize {
        match self {
            Scale::Quick => 256,
            Scale::Default => 1024,
            Scale::Full => 2048,
        }
    }
}

/// Directory where models and CSVs are written.
pub fn results_dir() -> PathBuf {
    let p = PathBuf::from("results");
    let _ = fs::create_dir_all(&p);
    p
}

/// Where the model for (platform, subsampling) trained at `scale` is
/// cached: each scale trains on its own corpus and degree, so each has its
/// own file.
fn model_path(platform: &Platform, sub: Subsampling, scale: Scale) -> PathBuf {
    let sub_tag = sub.notation().replace(':', "");
    results_dir().join(format!(
        "model-{}-{}-{}.txt",
        platform.name.replace(' ', ""),
        sub_tag,
        format!("{scale:?}").to_lowercase()
    ))
}

/// The model a cache file holds, if it loads and is one for `sub`.
fn cached_model(text: &str, sub: Subsampling) -> Option<PerformanceModel> {
    PerformanceModel::load_str(text).filter(|m| m.subsampling == sub)
}

/// Load a previously trained model for (platform, subsampling, scale), or
/// train one on the standard training corpus and cache it.
pub fn ensure_model(platform: &Platform, sub: Subsampling, scale: Scale) -> PerformanceModel {
    let path = model_path(platform, sub, scale);
    if let Some(m) = fs::read_to_string(&path)
        .ok()
        .and_then(|text| cached_model(&text, sub))
    {
        return m;
    }
    eprintln!(
        "[profile] training model for {} / {} (cache miss at {})",
        platform.name,
        sub.notation(),
        path.display()
    );
    let corpus = training_set(&scale.train_params(sub));
    let jpegs: Vec<Vec<u8>> = corpus.into_iter().map(|c| c.jpeg).collect();
    let model = train(
        platform,
        &jpegs,
        TrainOptions {
            max_degree: match scale {
                Scale::Quick => 2,
                Scale::Default => 3,
                Scale::Full => 7,
            },
            wg_blocks: None,
            chunk_mcu_rows: None,
        },
    );
    let _ = fs::write(&path, model.save_str());
    model
}

/// The evaluation corpus for a subsampling at a scale.
pub fn evaluation_corpus(sub: Subsampling, scale: Scale) -> Vec<CorpusImage> {
    test_set(&scale.test_params(sub))
}

/// Write rows as CSV under `results/`.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> PathBuf {
    let path = results_dir().join(name);
    let mut text = String::with_capacity(rows.len() * 32 + header.len() + 1);
    text.push_str(header);
    text.push('\n');
    for r in rows {
        text.push_str(r);
        text.push('\n');
    }
    fs::write(&path, text).expect("write results CSV");
    path
}

/// Render an ASCII scatter/line chart of (x, y) series — keeps figure
/// binaries self-contained in a terminal.
pub fn ascii_chart(
    title: &str,
    series: &[(&str, Vec<(f64, f64)>)],
    width: usize,
    height: usize,
) -> String {
    let mut out = format!("{title}\n");
    let all: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|(_, pts)| pts.iter().copied())
        .collect();
    if all.is_empty() {
        return out;
    }
    let (mut x0, mut x1) = (f64::MAX, f64::MIN);
    let (mut y0, mut y1) = (f64::MAX, f64::MIN);
    for &(x, y) in &all {
        x0 = x0.min(x);
        x1 = x1.max(x);
        y0 = y0.min(y);
        y1 = y1.max(y);
    }
    if (x1 - x0).abs() < 1e-12 {
        x1 = x0 + 1.0;
    }
    if (y1 - y0).abs() < 1e-12 {
        y1 = y0 + 1.0;
    }
    let marks = ['o', '+', 'x', '*', '#', '@'];
    let mut grid = vec![vec![' '; width]; height];
    for (si, (_, pts)) in series.iter().enumerate() {
        for &(x, y) in pts {
            let cx = (((x - x0) / (x1 - x0)) * (width - 1) as f64).round() as usize;
            let cy = (((y - y0) / (y1 - y0)) * (height - 1) as f64).round() as usize;
            grid[height - 1 - cy][cx.min(width - 1)] = marks[si % marks.len()];
        }
    }
    out.push_str(&format!("  y: {y0:.3} .. {y1:.3}\n"));
    for row in grid {
        out.push_str("  |");
        out.extend(row);
        out.push('\n');
    }
    out.push_str(&format!("  x: {x0:.0} .. {x1:.0}\n"));
    for (si, (name, _)) in series.iter().enumerate() {
        out.push_str(&format!("  {} = {}\n", marks[si % marks.len()], name));
    }
    out
}

/// Group samples into `n` buckets by x and average both coordinates —
/// the same presentation the paper's mean±std curves use.
pub fn bucket_mean(points: &[(f64, f64)], n: usize) -> Vec<(f64, f64)> {
    if points.is_empty() {
        return Vec::new();
    }
    let mut sorted = points.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let per = sorted.len().div_ceil(n.max(1));
    sorted
        .chunks(per)
        .map(|c| {
            let mx = c.iter().map(|p| p.0).sum::<f64>() / c.len() as f64;
            let my = c.iter().map(|p| p.1).sum::<f64>() / c.len() as f64;
            (mx, my)
        })
        .collect()
}

/// Paper reference values for Tables 2 and 3 (mean speedup over SIMD).
pub mod paper {
    /// (mode, GT 430, GTX 560, GTX 680) — Table 2, 4:2:2.
    pub const TABLE2: [(&str, f64, f64, f64); 4] = [
        ("GPU", 0.72, 1.59, 1.94),
        ("pipeline", 0.92, 2.19, 2.33),
        ("SPS", 1.31, 1.81, 2.04),
        ("PPS", 1.54, 2.34, 2.52),
    ];
    /// Table 3, 4:4:4.
    pub const TABLE3: [(&str, f64, f64, f64); 4] = [
        ("GPU", 0.66, 1.49, 1.81),
        ("pipeline", 0.83, 2.14, 2.26),
        ("SPS", 1.27, 1.76, 1.94),
        ("PPS", 1.50, 2.34, 2.45),
    ];
}

/// Check a results path exists (used by the `all` driver).
pub fn exists(p: &Path) -> bool {
    p.exists()
}

/// Build a decode session for a (platform, model) pair — the bench
/// harness's standard way into the session API.
pub fn decoder_for(platform: &Platform, model: PerformanceModel) -> hetjpeg_core::Decoder {
    hetjpeg_core::Decoder::builder()
        .platform(platform.clone())
        .model(model)
        .build()
        .expect("bench decoder configuration")
}

/// Shared driver for Tables 2 and 3: evaluate the four accelerated modes
/// against SIMD over the whole evaluation corpus on every machine, printing
/// mean speedup ± CV next to the paper's reference values.
pub fn run_table(
    title: &str,
    sub: Subsampling,
    reference: &[(&str, f64, f64, f64); 4],
    csv_name: &str,
) {
    use hetjpeg_core::report::stats;
    use hetjpeg_core::schedule::Mode;
    use hetjpeg_core::DecodeOptions;

    let scale = Scale::from_env();
    let corpus = evaluation_corpus(sub, scale);
    println!(
        "{title} — speedup over SIMD, {} images, {} ({:?} scale)",
        corpus.len(),
        sub.notation(),
        scale
    );
    let modes = [Mode::Gpu, Mode::PipelinedGpu, Mode::Sps, Mode::Pps];
    let platforms = Platform::all();
    let mut measured = vec![vec![Vec::new(); platforms.len()]; modes.len()];
    let mut rows = Vec::new();
    for (pi, platform) in platforms.iter().enumerate() {
        let decoder = decoder_for(platform, ensure_model(platform, sub, scale));
        for img in &corpus {
            let simd = decoder
                .decode(&img.jpeg, DecodeOptions::with_mode(Mode::Simd))
                .expect("simd")
                .total();
            for (mi, &mode) in modes.iter().enumerate() {
                let t = decoder
                    .decode(&img.jpeg, DecodeOptions::with_mode(mode))
                    .expect("decode")
                    .total();
                measured[mi][pi].push(simd / t);
                rows.push(format!(
                    "{},{},{},{},{}",
                    platform.name,
                    mode.name(),
                    img.width,
                    img.height,
                    simd / t
                ));
            }
        }
    }

    println!(
        "{:<10} {:>22} {:>22} {:>22}",
        "Mode", "GT 430", "GTX 560", "GTX 680"
    );
    for (mi, &mode) in modes.iter().enumerate() {
        let cells: Vec<String> = (0..platforms.len())
            .map(|pi| {
                let s = stats(&measured[mi][pi]);
                format!("{:.2} ± {:>5.2}%", s.mean, s.cv_percent)
            })
            .collect();
        println!(
            "{:<10} {:>22} {:>22} {:>22}",
            mode.name(),
            cells[0],
            cells[1],
            cells[2]
        );
        let (_rname, r430, r560, r680) = reference[mi];
        println!(
            "{:<10} {:>22} {:>22} {:>22}",
            "  (paper)",
            format!("{r430:.2}"),
            format!("{r560:.2}"),
            format!("{r680:.2}")
        );
    }
    let path = write_csv(csv_name, "machine,mode,width,height,speedup", &rows);
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing_defaults() {
        // No env manipulation here (process-global); just check presets.
        let q = Scale::Quick.train_params(Subsampling::S422);
        let f = Scale::Full.train_params(Subsampling::S422);
        assert!(q.max_dim < f.max_dim);
        assert!(Scale::Quick.large_dim() < Scale::Full.large_dim());
    }

    #[test]
    fn each_scale_caches_its_own_model() {
        let p = Platform::gtx560();
        let sub = Subsampling::S422;
        let paths = [Scale::Quick, Scale::Default, Scale::Full].map(|s| model_path(&p, sub, s));
        assert_ne!(paths[0], paths[1]);
        assert_ne!(paths[1], paths[2]);
        assert_ne!(paths[0], paths[2]);
    }

    #[test]
    fn a_cache_file_for_another_subsampling_is_a_miss() {
        let model = Platform::gtx560().untrained_model();
        let text = model.save_str();
        assert_eq!(cached_model(&text, model.subsampling), Some(model.clone()));
        // Another subsampling's model is not this one.
        assert_eq!(cached_model(&text, Subsampling::S444), None);
    }

    #[test]
    fn bucket_mean_reduces_points() {
        let pts: Vec<(f64, f64)> = (0..100).map(|i| (i as f64, 2.0 * i as f64)).collect();
        let b = bucket_mean(&pts, 5);
        assert_eq!(b.len(), 5);
        assert!(b.windows(2).all(|w| w[0].0 < w[1].0));
        for &(x, y) in &b {
            assert!((y - 2.0 * x).abs() < 1e-9);
        }
    }

    #[test]
    fn ascii_chart_renders_series() {
        let s = ascii_chart(
            "demo",
            &[("a", vec![(0.0, 0.0), (1.0, 1.0)]), ("b", vec![(0.5, 0.5)])],
            20,
            5,
        );
        assert!(s.contains("demo"));
        assert!(s.contains('o') && s.contains('+'));
    }
}
