//! The offline training pass (paper §5.1).
//!
//! "For profiling, we execute an instrumented version of the JPEG decoder
//! to determine the execution times of each decoding step for a training
//! set of images. Multivariate polynomial regression analysis is applied to
//! derive closed forms."

use crate::gpu_decode::{KernelPlan, ScanSource};
use crate::model::{GpuEntropy, GpuStages, PerformanceModel};
use crate::platform::Platform;
use crate::profile::{tune_chunk_rows, tune_wg_blocks};
use crate::regress::{fit_poly1_aic, fit_poly2_aic, fit_poly2_rel_aic, Poly1};
use crate::workspace::{gpu_on, Workspace};
use hetjpeg_jpeg::decoder::Prepared;
use hetjpeg_jpeg::metrics::ParallelWork;
use hetjpeg_jpeg::Subsampling;

/// Training knobs.
#[derive(Debug, Clone, Copy)]
pub struct TrainOptions {
    /// Maximum polynomial degree tried by AIC selection (paper: 7).
    pub max_degree: usize,
    /// Fixed work-group size; `None` tunes it on the largest image.
    pub wg_blocks: Option<usize>,
    /// Fixed chunk height; `None` tunes it on the largest images.
    pub chunk_mcu_rows: Option<usize>,
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions {
            max_degree: 7,
            wg_blocks: None,
            chunk_mcu_rows: None,
        }
    }
}

/// Run the instrumented decoder over `images` and fit the performance
/// model for `platform`.
///
/// All images must share one subsampling (the paper trains per
/// subsampling); the model records it.
pub fn train(
    platform: &Platform,
    images: &[impl AsRef<[u8]>],
    opts: TrainOptions,
) -> PerformanceModel {
    assert!(!images.is_empty(), "training set must not be empty");

    // Pick the largest image for the work-group sweep.
    let largest = images
        .iter()
        .max_by_key(|img| {
            Prepared::new(img.as_ref())
                .map(|p| p.geom.pixels())
                .unwrap_or(0)
        })
        .expect("non-empty");
    // One workspace — one device context, one set of grow-only buffers —
    // serves the work-group sweep, every training decode and the chunk
    // sweep.
    let mut ws = Workspace::default();
    let mut rgb = Vec::new();
    let wg_blocks = opts
        .wg_blocks
        .unwrap_or_else(|| tune_wg_blocks(gpu_on(&mut ws.gpu, platform), largest.as_ref()));

    let mut density_samples = Vec::with_capacity(images.len());
    let mut huff_rate_samples = Vec::with_capacity(images.len());
    let mut size_samples = Vec::with_capacity(images.len());
    let mut pcpu_samples = Vec::with_capacity(images.len());
    let mut pgpu_samples = Vec::with_capacity(images.len());
    let mut h2d_rate_samples = Vec::with_capacity(images.len());
    let mut h2d_points = Vec::with_capacity(images.len());
    let mut h2d_samples = Vec::with_capacity(images.len());
    let mut kernel_samples = Vec::with_capacity(images.len());
    let mut d2h_samples = Vec::with_capacity(images.len());
    let mut entropy_points = Vec::with_capacity(images.len());
    let mut entropy_samples = Vec::with_capacity(images.len());
    let mut readbacks = Vec::with_capacity(images.len());
    let mut tdisp_samples = Vec::with_capacity(images.len());
    let mut subsampling = Subsampling::S422;
    let mut corpus_classes = [0u64; 4];
    let mut prefix_samples: Vec<f64> = Vec::new();

    for img in images {
        let prep = Prepared::new(img.as_ref()).expect("training image parses");
        let geom = &prep.geom;
        subsampling = geom.subsampling;
        let pixels = geom.pixels() as f64;
        let d = prep.parsed.entropy_density();

        // Sequential phase: measured Huffman time per pixel vs density.
        let (coef, metrics) = prep.entropy_decode_all().expect("training image decodes");
        let t_huff = platform.cpu.huff_time(&metrics.total());
        density_samples.push(d);
        huff_rate_samples.push(t_huff / pixels * 1e9); // ns per pixel

        // Parallel phase on the CPU (SIMD path), priced sparse-aware from
        // the image's own EOB-class histogram so the trained `PCPU` closed
        // form — and through it `Mode::Auto` and the CPU/GPU partition
        // point — reflects the EOB-dispatched IDCT the band really runs
        // (the ROADMAP §5.1 retraining item).
        let work = ParallelWork::for_mcu_rows(geom, 0, geom.mcus_y);
        let classes = metrics.eob_class_totals();
        let t_cpu = platform.cpu.parallel_time_sparse(&work, &classes, true);
        size_samples.push((geom.width as f64, geom.height as f64));
        pcpu_samples.push(t_cpu);
        for (a, b) in corpus_classes.iter_mut().zip(classes) {
            *a += b;
        }

        // Speculation-waste term: run the speculative entropy path over
        // the image and record the measured convergence prefix per chunk
        // boundary — the input to the release curve (`pps::Release`). The
        // same stitch measures the image's subsequences for the device's
        // Huffman decode.
        let segments = hetjpeg_jpeg::entropy::split_restart_segments(&prep.parsed, geom);
        let mut scratch = hetjpeg_jpeg::coef::CoefBuffer::new(geom);
        let fed = crate::schedule::entropy_par::speculation_stats(
            &prep,
            platform,
            crate::schedule::DEFAULT_ENTROPY_THREADS,
            &mut scratch,
        );
        if let Some((spec, _)) = &fed {
            if spec.chunks > segments.len() as u64 {
                prefix_samples.push(spec.prefix_mcus_per_boundary());
            }
        }

        // Parallel phase on the GPU: transfers + kernels (Eq. 7).
        rgb.resize(geom.rgb_bytes_in_mcu_rows(0, geom.mcus_y), 0);
        let gpu = gpu_on(&mut ws.gpu, platform);
        let res = gpu
            .decode_region(
                &prep,
                &coef,
                0,
                geom.mcus_y,
                wg_blocks,
                KernelPlan::Merged,
                &mut rgb,
            )
            .expect("merged plan decodes every subsampling");
        pgpu_samples.push(res.device_total());
        // PR 9: the compacted H2D payload tracks content density; record
        // the measured per-pixel transfer seconds against the image's
        // density so `Mode::Auto` can correct `PGPU` for images departing
        // from the corpus average.
        h2d_rate_samples.push(res.h2d_time / pixels);
        // The same decode's stages, for the forms that price the copy and
        // compute engines apart on the fed plans. Those ship the scan and
        // decode its Huffman on the device: the H2D is the scan's, and the
        // Huffman kernels give `THuffGPU`.
        h2d_points.push((d, pixels));
        kernel_samples.push(res.kernels_total());
        d2h_samples.push(res.d2h_time);
        match &fed {
            Some((_, (table, bytes))) => {
                let bytes = &prep.parsed.scan_data[bytes.clone()];
                let scan = ScanSource { bytes, table };
                let ent = gpu.decode_entropy(&prep, &coef, scan, 0, geom.mcus_y);
                h2d_samples.push(ent.h2d_time);
                entropy_points.push((bytes.len() as f64, d));
                entropy_samples.push(ent.kernels_total());
                readbacks.push(ent.readback_time);
            }
            None => h2d_samples.push(res.h2d_time),
        }

        // Dispatch overhead.
        tdisp_samples.push(platform.cpu.dispatch_time(geom, 0, geom.mcus_y));
    }

    // A degree-d bivariate polynomial has (d+1)(d+2)/2 coefficients; with a
    // coarse size grid many samples share (w, h), so cap the degree by the
    // number of *distinct* sizes or the fit interpolates the grid and
    // mispredicts between its points.
    let mut distinct: Vec<(u64, u64)> = size_samples
        .iter()
        .map(|&(w, h)| (w as u64, h as u64))
        .collect();
    distinct.sort_unstable();
    distinct.dedup();
    let mut size_degree_cap = 1;
    while (size_degree_cap + 2) * (size_degree_cap + 3) / 2 <= distinct.len() {
        size_degree_cap += 1;
    }
    let deg2 = opts.max_degree.min(size_degree_cap);

    let (thuff, _) = fit_poly1_aic(&density_samples, &huff_rate_samples, opts.max_degree);
    let (h2d, _) = fit_poly1_aic(&density_samples, &h2d_rate_samples, opts.max_degree);
    let (p_cpu, _) = fit_poly2_aic(&size_samples, &pcpu_samples, deg2);
    // What the (w, h) form leaves over, against density: each sample over
    // its `PCPU` prediction, fitted at degree 1 (the ratio is close to
    // linear in d). A sample the form prices at nothing has no ratio.
    let (ratio_d, ratios): (Vec<f64>, Vec<f64>) = (0..pcpu_samples.len())
        .filter_map(|i| {
            let (w, h) = size_samples[i];
            let fitted = p_cpu.eval(w, h);
            (fitted > 0.0).then(|| (density_samples[i], pcpu_samples[i] / fitted))
        })
        .unzip();
    let pcpu_density = if ratio_d.len() >= 2 {
        fit_poly1_aic(&ratio_d, &ratios, 1).0
    } else {
        Poly1::new(vec![1.0])
    };
    let (p_gpu, _) = fit_poly2_aic(&size_samples, &pgpu_samples, deg2);
    let (t_disp, _) = fit_poly2_aic(&size_samples, &tdisp_samples, deg2.min(2));
    // The stages are priced per chunk, a band much smaller than most
    // training images: their forms are fitted to relative residuals, so
    // the small images weigh as much as the large. The H2D is a latency
    // plus a payload that tracks the density as much as the size.
    let gpu_stages = GpuStages {
        h2d: fit_poly2_rel_aic(&h2d_points, &h2d_samples, opts.max_degree.min(2)).0,
        kernels: fit_poly2_rel_aic(&size_samples, &kernel_samples, deg2).0,
        d2h: fit_poly2_rel_aic(&size_samples, &d2h_samples, deg2).0,
    };
    // `THuffGPU` over the scan's bytes and density, to relative residuals
    // like the stages it is priced beside; the state read-back at its mean.
    let thuff_gpu = match readbacks.len() {
        0 => GpuEntropy::seed(platform),
        n => GpuEntropy {
            decode: fit_poly2_rel_aic(&entropy_points, &entropy_samples, opts.max_degree.min(2)).0,
            readback: readbacks.iter().sum::<f64>() / n as f64,
        },
    };

    let mut model = PerformanceModel {
        platform: platform.name.to_string(),
        subsampling,
        thuff_ns_per_px: thuff,
        p_cpu,
        p_gpu,
        t_disp,
        chunk_mcu_rows: opts.chunk_mcu_rows.unwrap_or(16),
        wg_blocks,
        pcpu_idct_discount: crate::cost::CpuCostModel::idct_discount(&corpus_classes),
        spec_prefix_mcus: if prefix_samples.is_empty() {
            crate::model::SEED_SPEC_PREFIX_MCUS
        } else {
            prefix_samples.iter().sum::<f64>() / prefix_samples.len() as f64
        },
        h2d_s_per_px: h2d,
        h2d_ref_density: density_samples.iter().sum::<f64>() / density_samples.len() as f64,
        pcpu_density,
        gpu_stages,
        thuff_gpu,
    };

    if opts.chunk_mcu_rows.is_none() {
        // Tune the chunk size on the largest few images (§4.5 uses "large
        // images").
        let mut sorted: Vec<&[u8]> = images.iter().map(|i| i.as_ref()).collect();
        sorted.sort_by_key(|img| {
            std::cmp::Reverse(Prepared::new(img).map(|p| p.geom.pixels()).unwrap_or(0))
        });
        let top: Vec<&[u8]> = sorted.into_iter().take(3).collect();
        model.chunk_mcu_rows = tune_chunk_rows(platform, &model, &top, &mut ws);
    }
    model
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetjpeg_corpus::{training_set, CorpusParams};
    use hetjpeg_jpeg::types::Subsampling;

    fn small_corpus() -> Vec<Vec<u8>> {
        let params = CorpusParams {
            min_dim: 64,
            max_dim: 256,
            steps: 3,
            subsampling: Subsampling::S422,
            quality: 85,
            restart_interval: 0,
        };
        training_set(&params).into_iter().map(|c| c.jpeg).collect()
    }

    #[test]
    fn trained_model_predicts_training_points_well() {
        let platform = Platform::gtx560();
        let corpus = small_corpus();
        let model = train(
            &platform,
            &corpus,
            TrainOptions {
                max_degree: 4,
                wg_blocks: Some(8),
                chunk_mcu_rows: Some(8),
            },
        );
        assert_eq!(model.subsampling, Subsampling::S422);

        // Spot-check: prediction vs the sparse-aware measurement on a
        // member of the corpus (the trainer prices PCPU from each image's
        // EOB histogram since the PR-3 retrain).
        let prep = Prepared::new(&corpus[corpus.len() / 2]).unwrap();
        let geom = &prep.geom;
        let (_, metrics) = prep.entropy_decode_all().unwrap();
        let work = ParallelWork::for_mcu_rows(geom, 0, geom.mcus_y);
        let measured = platform
            .cpu
            .parallel_time_sparse(&work, &metrics.eob_class_totals(), true);
        let predicted = model.p_cpu(geom.width as f64, geom.height as f64);
        let rel = (predicted - measured).abs() / measured;
        // The (w, h) closed form averages over the corpus's per-image
        // sparsity spread, so the tolerance is wider than a pure-geometry
        // fit would need.
        assert!(rel < 0.35, "PCPU rel error {rel:.3}");

        // Denser entropy means denser IDCT blocks: the `PCPU` density
        // factor rises with d.
        let (k_lo, k_hi) = (model.pcpu_density.eval(0.05), model.pcpu_density.eval(0.4));
        assert!(k_hi > k_lo, "density factor {k_lo:.3} .. {k_hi:.3}");

        // Huffman model returns positive, density-increasing rates.
        let r_lo = model.thuff_ns_per_px.eval(0.05);
        let r_hi = model.thuff_ns_per_px.eval(0.4);
        assert!(r_lo > 0.0 && r_hi > r_lo, "rates {r_lo:.2} .. {r_hi:.2}");
    }

    #[test]
    fn trained_gpu_curve_is_monotonic_in_size() {
        let platform = Platform::gtx680();
        let corpus = small_corpus();
        let model = train(
            &platform,
            &corpus,
            TrainOptions {
                max_degree: 3,
                wg_blocks: Some(8),
                chunk_mcu_rows: Some(8),
            },
        );
        let a = model.p_gpu(128.0, 128.0);
        let b = model.p_gpu(256.0, 256.0);
        assert!(b > a, "PGPU must grow with size: {a} vs {b}");
    }

    #[test]
    fn trained_h2d_term_is_density_anchored() {
        // PR 9: the trainer fits the compacted transfer's per-pixel cost
        // against density and records the corpus average as the reference
        // point — where the correction must vanish exactly.
        let platform = Platform::gtx560();
        let corpus = small_corpus();
        let model = train(
            &platform,
            &corpus,
            TrainOptions {
                max_degree: 3,
                wg_blocks: Some(8),
                chunk_mcu_rows: Some(8),
            },
        );
        assert!(model.h2d_ref_density > 0.0);
        assert!(model.h2d_s_per_px.eval(model.h2d_ref_density) > 0.0);
        let (w, h) = (256.0, 256.0);
        assert_eq!(
            model.p_gpu_at_density(w, h, model.h2d_ref_density),
            model.p_gpu(w, h),
            "correction must be zero at the reference density"
        );
        // The correction moves the prediction somewhere off-reference.
        let lo = model.p_gpu_at_density(w, h, model.h2d_ref_density / 2.0);
        let hi = model.p_gpu_at_density(w, h, model.h2d_ref_density * 2.0);
        assert_ne!(lo, hi, "h2d term should not be flat across densities");
    }
}
