//! `Mode::Auto`: per-image mode selection from the §5.1 performance model.
//!
//! The paper trains closed forms `THuff(w,h,d)`, `PCPU(w,rows)`,
//! `PGPU(w,rows)` and `Tdisp(w,rows)` to place the partition boundary; the
//! same four forms are enough to predict the end-to-end time of *every*
//! decode mode from nothing but the image header (width, height, entropy
//! density, restart interval). `Auto` evaluates all seven and picks the
//! cheapest — dynamic partitioning promoted to dynamic mode selection, the
//! same adaptive-entry-point shape asymmetric-multicore decoders expose
//! (Rodríguez-Sánchez & Quintana-Ortí, PAPERS.md).
//!
//! Everything here is *prediction*: no entropy decoding happens before the
//! choice, so selection cost is a handful of Horner evaluations (plus one
//! linear scan of the entropy data to count restart segments when DRI is
//! present). The session decoder caches decisions per image shape.

use super::entropy_par::SEGMENT_OVERHEAD_S;
use super::Mode;
use crate::model::PerformanceModel;
use crate::partition::{pps, sps};
use crate::platform::Platform;
use hetjpeg_jpeg::decoder::Prepared;
use hetjpeg_jpeg::entropy::split_restart_segments;

/// One mode's predicted end-to-end time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// The mode.
    pub mode: Mode,
    /// Predicted total seconds under the trained model.
    pub seconds: f64,
}

/// The selector's decision: the winning mode plus the full ranking (useful
/// for diagnostics and the CLI's `--mode auto` report).
#[derive(Debug, Clone)]
pub struct AutoDecision {
    /// The chosen (cheapest-predicted) mode.
    pub mode: Mode,
    /// Predictions for every concrete mode, in [`Mode::all`] order.
    pub predictions: Vec<Prediction>,
}

/// Predict every concrete mode's total and pick the cheapest.
pub fn select_mode(
    prep: &Prepared<'_>,
    platform: &Platform,
    model: &PerformanceModel,
    threads: usize,
) -> AutoDecision {
    let predictions = predict_all(prep, platform, model, threads);
    let best = predictions
        .iter()
        .min_by(|a, b| a.seconds.total_cmp(&b.seconds))
        .expect("non-empty mode list");
    AutoDecision {
        mode: best.mode,
        predictions: predictions.clone(),
    }
}

/// [`select_mode`] restricted to CPU-only modes — what planar output
/// (which the GPU kernels cannot produce) selects among.
pub fn select_cpu_mode(
    prep: &Prepared<'_>,
    platform: &Platform,
    model: &PerformanceModel,
    threads: usize,
) -> AutoDecision {
    let predictions: Vec<Prediction> = predict_all(prep, platform, model, threads)
        .into_iter()
        .filter(|p| p.mode.is_cpu_only())
        .collect();
    let best = predictions
        .iter()
        .min_by(|a, b| a.seconds.total_cmp(&b.seconds))
        .expect("cpu-only mode list is non-empty");
    AutoDecision {
        mode: best.mode,
        predictions: predictions.clone(),
    }
}

/// Predicted totals for all concrete modes, in [`Mode::all`] order.
pub fn predict_all(
    prep: &Prepared<'_>,
    platform: &Platform,
    model: &PerformanceModel,
    threads: usize,
) -> Vec<Prediction> {
    let geom = &prep.geom;
    let w = geom.width as f64;
    let h = geom.height as f64;
    let d = prep.parsed.entropy_density(); // Eq. (3)
    let thuff = model.huff_time(w * h, d); // Eq. (4)
    let pcpu = model.p_cpu(w, h);
    // The scalar band costs the SIMD band times the work-mix-weighted
    // blend of the retrained per-stage factors (the vector kernels win
    // more where there is more chroma work to vectorize), evaluated at
    // the IDCT discount the trained `PCPU` form was fit at so the two
    // predictions stay consistent.
    let whole = hetjpeg_jpeg::metrics::ParallelWork::for_mcu_rows(geom, 0, geom.mcus_y);
    let scalar_ratio = platform
        .cpu
        .scalar_over_simd_at_discount(&whole, model.pcpu_idct_discount);
    let chunk_rows = model.chunk_mcu_rows.max(1);
    let chunk_px = ((chunk_rows * geom.mcu_h) as f64).min(h);
    let n_chunks = (h / chunk_px).ceil().max(1.0);
    let huff_chunk = thuff * chunk_px / h;
    // PR 9: the compacted H2D payload tracks content density, so every
    // GPU-involving mode's transfer cost departs from the fitted `PGPU`
    // form by this per-pixel delta (zero for untrained/legacy models).
    let h2d_corr_per_px =
        model.h2d_s_per_px.eval(d) - model.h2d_s_per_px.eval(model.h2d_ref_density);

    let seconds_for = |mode: Mode| -> f64 {
        match mode {
            // The scalar path pays the SIMD band times the calibrated
            // per-stage speedup blend.
            Mode::Sequential => thuff + pcpu * scalar_ratio,
            Mode::Simd => thuff + pcpu,
            // Fig. 5a: everything serial — Huffman, one dispatch, the whole
            // device phase. The GPU form is density-corrected (PR 9): the
            // compacted H2D payload of a dense image is larger than the
            // corpus reference the form was fit at, and vice versa.
            Mode::Gpu => thuff + model.t_disp(w, h) + model.p_gpu_at_density(w, h, d),
            // Fig. 5b: kernels hide behind Huffman after the first chunk's
            // latency; the CPU side pays every dispatch.
            Mode::PipelinedGpu => {
                let cpu_side = thuff + n_chunks * model.t_disp(w, chunk_px);
                let gpu_side =
                    huff_chunk + model.t_disp(w, chunk_px) + model.p_gpu_at_density(w, h, d);
                cpu_side.max(gpu_side)
            }
            // Eq. 10: Huffman first, then the balanced split. The GPU
            // share's transfer is density-corrected over its own rows.
            Mode::Sps => {
                let part = sps::partition(model, geom);
                let g_px = (part.gpu_mcu_rows * geom.mcu_h) as f64;
                let gpu = (part.predicted_gpu + h2d_corr_per_px * w * g_px).max(0.0);
                thuff + part.predicted_cpu.max(gpu)
            }
            // Eq. 15: the split already prices the overlapped Huffman; only
            // the first chunk's latency is exposed on the GPU side.
            Mode::Pps => {
                let part = pps::initial_partition(model, geom, d, chunk_px);
                let g_px = (part.gpu_mcu_rows * geom.mcu_h) as f64;
                let gpu = (part.predicted_gpu + h2d_corr_per_px * w * g_px).max(0.0);
                part.predicted_cpu.max(huff_chunk + gpu)
            }
            // Entropy decode spread over the worker pool, then the SIMD
            // band. Restart markers give exact segment boundaries; without
            // them the speculative path pays a convergence prefix per chunk
            // boundary (the trained `spec_prefix_mcus` term) plus the
            // stitch overhead.
            Mode::ParallelEntropy => {
                let segments = restart_segment_count(prep);
                if threads <= 1 {
                    // One worker decodes sequentially either way; the mode
                    // only adds overhead, so Auto never picks it.
                    thuff + SEGMENT_OVERHEAD_S + pcpu
                } else if segments > 1 {
                    let workers = threads.min(segments) as f64;
                    thuff / workers + segments as f64 * SEGMENT_OVERHEAD_S / workers + pcpu
                } else {
                    let chunks = threads.min(
                        (prep.parsed.scan_data.len() / hetjpeg_jpeg::speculate::MIN_CHUNK_BYTES)
                            .max(1),
                    );
                    let total_mcus = (geom.mcus_x * geom.mcus_y) as f64;
                    crate::cost::CpuCostModel::speculative_entropy_time(
                        thuff,
                        total_mcus,
                        model.spec_prefix_mcus,
                        chunks,
                        SEGMENT_OVERHEAD_S,
                    ) + pcpu
                }
            }
            Mode::Auto => unreachable!("Auto is not a concrete mode"),
        }
    };

    Mode::all()
        .into_iter()
        .map(|mode| Prediction {
            mode,
            seconds: seconds_for(mode),
        })
        .collect()
}

/// Number of independently decodable restart segments (1 when no DRI).
/// One linear scan of the entropy bytes; header-only otherwise.
pub fn restart_segment_count(prep: &Prepared<'_>) -> usize {
    if prep.parsed.frame.restart_interval == 0 {
        1
    } else {
        split_restart_segments(&prep.parsed, &prep.geom).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::Workspace;
    use hetjpeg_jpeg::encoder::{encode_rgb, EncodeParams};
    use hetjpeg_jpeg::types::Subsampling;

    fn jpeg_of(w: usize, h: usize, interval: usize) -> Vec<u8> {
        let mut rgb = Vec::with_capacity(w * h * 3);
        let mut s = 3u32;
        for _ in 0..w * h {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            rgb.extend_from_slice(&[(s >> 8) as u8, (s >> 16) as u8, (s >> 24) as u8]);
        }
        encode_rgb(
            &rgb,
            w as u32,
            h as u32,
            &EncodeParams {
                quality: 85,
                subsampling: Subsampling::S422,
                restart_interval: interval,
            },
        )
        .unwrap()
    }

    #[test]
    fn predictions_cover_all_modes_and_are_finite() {
        let jpeg = jpeg_of(256, 256, 0);
        let prep = Prepared::new(&jpeg).unwrap();
        let platform = Platform::gtx560();
        let model = platform.untrained_model();
        let preds = predict_all(&prep, &platform, &model, 4);
        assert_eq!(preds.len(), Mode::all().len());
        for p in &preds {
            assert!(p.seconds.is_finite() && p.seconds > 0.0, "{:?}", p.mode);
        }
    }

    #[test]
    fn doctored_models_flip_the_choice() {
        // The decision must come from the model, not a hardcoded default:
        // making the GPU look terrible must select a CPU mode, making the
        // CPU look terrible must select a GPU-involving mode.
        let jpeg = jpeg_of(384, 384, 0);
        let prep = Prepared::new(&jpeg).unwrap();
        let platform = Platform::gtx560();

        let mut gpu_awful = platform.untrained_model();
        gpu_awful.p_gpu.coefs[0][0] += 10.0;
        let pick = select_mode(&prep, &platform, &gpu_awful, 1).mode;
        assert!(pick.is_cpu_only(), "GPU-averse model picked {pick:?}");

        let mut cpu_awful = platform.untrained_model();
        cpu_awful.p_cpu.coefs[0][0] += 10.0;
        let pick = select_mode(&prep, &platform, &cpu_awful, 1).mode;
        assert!(!pick.is_cpu_only(), "CPU-averse model picked {pick:?}");
    }

    #[test]
    fn restart_rich_images_make_parallel_entropy_attractive() {
        // With a dense restart grid, many threads, and a hopeless GPU, the
        // parallel-entropy mode must win the prediction.
        let jpeg = jpeg_of(256, 256, 2);
        let prep = Prepared::new(&jpeg).unwrap();
        let platform = Platform::gt430();
        let mut model = platform.untrained_model();
        model.p_gpu.coefs[0][0] += 10.0; // GPU off the table
        let decision = select_mode(&prep, &platform, &model, 8);
        assert_eq!(decision.mode, Mode::ParallelEntropy);
        // And with one thread it must not be chosen over plain SIMD.
        let single = select_mode(&prep, &platform, &model, 1);
        assert_ne!(single.mode, Mode::ParallelEntropy);
    }

    #[test]
    fn restart_free_images_price_the_speculative_path() {
        // ISSUE 6: without restart markers, parallel entropy is priced by
        // the speculative model — cheap when the trained convergence
        // prefix is short, never chosen when speculation cannot pay.
        let jpeg = jpeg_of(384, 384, 0);
        let prep = Prepared::new(&jpeg).unwrap();
        let platform = Platform::gt430();
        let mut model = platform.untrained_model();
        model.p_gpu.coefs[0][0] += 10.0; // GPU off the table
        let decision = select_mode(&prep, &platform, &model, 8);
        assert_eq!(decision.mode, Mode::ParallelEntropy);

        // A pathological fitted prefix (most of the image re-decoded per
        // boundary) must price speculation worse than sequential SIMD.
        let mcus = (prep.geom.mcus_x * prep.geom.mcus_y) as f64;
        model.spec_prefix_mcus = mcus;
        let decision = select_mode(&prep, &platform, &model, 8);
        assert_ne!(decision.mode, Mode::ParallelEntropy);
        let preds = predict_all(&prep, &platform, &model, 8);
        let pe = preds
            .iter()
            .find(|p| p.mode == Mode::ParallelEntropy)
            .unwrap();
        let simd = preds.iter().find(|p| p.mode == Mode::Simd).unwrap();
        assert!(pe.seconds > simd.seconds, "waste term must price honestly");

        // One thread never speculates.
        model.spec_prefix_mcus = 0.0;
        let single = select_mode(&prep, &platform, &model, 1);
        assert_ne!(single.mode, Mode::ParallelEntropy);
    }

    #[test]
    fn gpu_pricing_shifts_with_payload_density() {
        // PR 9: the compacted transfer's size depends on content density,
        // so a trained `h2d_s_per_px` term must move the GPU predictions
        // with the image's density — and a large enough payload penalty
        // must flip the `Auto` decision off the GPU entirely.
        use crate::regress::Poly1;
        let jpeg = jpeg_of(384, 384, 0);
        let prep = Prepared::new(&jpeg).unwrap();
        let platform = Platform::gtx680();
        let model = platform.untrained_model();
        let d = prep.parsed.entropy_density();
        assert!(d > 0.0);
        // The fast-GPU platform picks a GPU-involving mode uncorrected
        // (single-threaded, so parallel entropy is out of the running).
        assert!(!select_mode(&prep, &platform, &model, 1).mode.is_cpu_only());

        let gpu_s = |m: &PerformanceModel| {
            predict_all(&prep, &platform, m, 1)
                .iter()
                .find(|p| p.mode == Mode::Gpu)
                .unwrap()
                .seconds
        };
        let base = gpu_s(&model);
        // Image denser than the training reference ⇒ bigger payload ⇒
        // pricier GPU.
        let mut denser = model.clone();
        denser.h2d_s_per_px = Poly1::new(vec![0.0, 1e-9]);
        denser.h2d_ref_density = 0.0;
        assert!(gpu_s(&denser) > base);
        // Image sparser than the reference ⇒ smaller payload ⇒ cheaper.
        let mut sparser = model.clone();
        sparser.h2d_s_per_px = Poly1::new(vec![0.0, 1e-9]);
        sparser.h2d_ref_density = 2.0 * d;
        assert!(gpu_s(&sparser) < base);
        // A doctored payload term large enough prices every GPU-involving
        // mode (Gpu, PipelinedGpu, and the hetero splits' GPU shares) out
        // of the running.
        let mut awful = model.clone();
        awful.h2d_s_per_px = Poly1::new(vec![0.0, 1e-5]);
        awful.h2d_ref_density = 0.0;
        let pick = select_mode(&prep, &platform, &awful, 1).mode;
        assert!(pick.is_cpu_only(), "density-priced model picked {pick:?}");
    }

    #[test]
    fn auto_outcome_is_bit_identical_to_its_selection() {
        let jpeg = jpeg_of(200, 144, 3);
        let prep = Prepared::new(&jpeg).unwrap();
        let platform = Platform::gtx680();
        let model = platform.untrained_model();
        let mut ws = Workspace::default();
        let auto_out = crate::schedule::dispatch(
            &prep,
            Mode::Auto,
            crate::OutputFormat::Rgb,
            &platform,
            &model,
            4,
            &mut ws,
        )
        .unwrap();
        assert_ne!(auto_out.mode, Mode::Auto, "outcome reports the selection");
        let direct = crate::schedule::dispatch(
            &prep,
            auto_out.mode,
            crate::OutputFormat::Rgb,
            &platform,
            &model,
            4,
            &mut ws,
        )
        .unwrap();
        assert_eq!(auto_out.image.data, direct.image.data);
        assert_eq!(auto_out.total(), direct.total());
    }
}
