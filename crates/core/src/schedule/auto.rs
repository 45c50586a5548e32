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
//! choice, so selection cost is a handful of Horner evaluations (and, with
//! more than one thread, a walk over the feed's release curve per GPU
//! plan). The session decoder caches decisions per image shape and
//! density bucket, priced at the bucket's centre, so that a cached decision
//! does not depend on which image of the bucket came first.

use super::entropy_par::{self, SEGMENT_OVERHEAD_S};
use super::split::{self, Density};
use super::Mode;
use crate::model::PerformanceModel;
use crate::partition::{pps, sps};
use crate::platform::Platform;
use hetjpeg_jpeg::decoder::Prepared;

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
    select_at(prep, Density::of(prep), platform, model, threads, false)
}

/// [`select_mode`], restricted to CPU-only modes with `cpu_only` (what
/// planar output selects among), priced as if `prep`'s scan had `density`.
pub(crate) fn select_at(
    prep: &Prepared<'_>,
    density: Density,
    platform: &Platform,
    model: &PerformanceModel,
    threads: usize,
    cpu_only: bool,
) -> AutoDecision {
    let mut predictions = predict_at(prep, density, platform, model, threads);
    predictions.retain(|p| !cpu_only || p.mode.is_cpu_only());
    cheapest(predictions)
}

/// The decision for the cheapest of `predictions`, carrying them all. Of
/// prices equal but for rounding, the first CPU-only mode wins: a split
/// that leaves the GPU idle runs the parallel-entropy schedule, and a feed
/// whose workers cannot pay leaves the loop decoding sequentially.
fn cheapest(predictions: Vec<Prediction>) -> AutoDecision {
    let fastest = (predictions.iter())
        .map(|p| p.seconds)
        .fold(f64::INFINITY, f64::min);
    let tied = |p: &&Prediction| p.seconds <= fastest * (1.0 + 1e-9);
    let best = (predictions.iter().filter(tied))
        .min_by_key(|p| !p.mode.is_cpu_only())
        .expect("the candidate list is never empty");
    AutoDecision {
        mode: best.mode,
        predictions,
    }
}

/// Predicted totals for all concrete modes, in [`Mode::all`] order.
pub fn predict_all(
    prep: &Prepared<'_>,
    platform: &Platform,
    model: &PerformanceModel,
    threads: usize,
) -> Vec<Prediction> {
    predict_at(prep, Density::of(prep), platform, model, threads)
}

/// [`predict_all`] as if `prep`'s scan had `density`.
fn predict_at(
    prep: &Prepared<'_>,
    density: Density,
    platform: &Platform,
    model: &PerformanceModel,
    threads: usize,
) -> Vec<Prediction> {
    let geom = &prep.geom;
    let w = geom.width as f64;
    let h = geom.height as f64;
    let d = density.per_px; // Eq. (3)
    let thuff = model.huff_time(w * h, d); // Eq. (4)
    let pcpu = model.p_cpu_at_density(w, h, d);
    // The scalar band costs the SIMD band times the work-mix-weighted
    // blend of the retrained per-stage factors (the vector kernels win
    // more where there is more chroma work to vectorize), evaluated at
    // the IDCT discount the density-scaled `PCPU` implies for this image
    // so the two predictions stay consistent.
    let whole = hetjpeg_jpeg::metrics::ParallelWork::for_mcu_rows(geom, 0, geom.mcus_y);
    let discount = implied_discount(platform, model, &whole, d);
    let scalar_ratio = platform.cpu.scalar_over_simd_at_discount(&whole, discount);
    let chunk_px = ((model.chunk_mcu_rows.max(1) * geom.mcu_h) as f64).min(h);
    // PR 9: the compacted H2D payload tracks content density, so every
    // GPU-involving mode's transfer cost departs from the fitted `PGPU`
    // form by this per-pixel delta (zero for the analytic seed).
    let h2d = model.h2d_correction(d);

    // With more than one thread every plan's entropy step is fed: its
    // rows are final on the model's release curve instead of at the
    // sequential Huffman rate.
    let threads = entropy_par::threads_for(prep, threads);
    let plan = |mode| split::Plan::priced_at(mode, prep, density, model, threads);
    // When a fed plan's last row is final.
    let release_all = |plan: &split::Plan| plan.release(prep, model).expect("fed").at(h);
    let seconds_for = |mode: Mode| -> f64 {
        match (mode, threads > 1) {
            // The scalar path pays the SIMD band times the calibrated
            // per-stage speedup blend.
            (Mode::Sequential, _) => thuff + pcpu * scalar_ratio,
            (Mode::Simd, _) => thuff + pcpu,
            // Fig. 5a: everything serial — Huffman, one dispatch, the whole
            // device phase. The GPU form is density-corrected (PR 9): the
            // compacted H2D payload of a dense image is larger than the
            // corpus reference the form was fit at, and vice versa.
            (Mode::Gpu, false) => thuff + model.t_disp(w, h) + model.p_gpu_at_density(w, h, d),
            // Fed, the device decodes the Huffman of every row it takes
            // (`THuffGPU`) from the scan it is shipped, on its one in-order
            // queue as one chunk, or chunk by chunk on its two engines.
            (Mode::Gpu | Mode::PipelinedGpu, true) => {
                let overlap = pps::Overlap::new(model, w, d, chunk_px, 0.0, true, 0.0);
                let overlap = overlap.with_scan(density.scan_per_px(geom));
                overlap.device_only(h, mode == Mode::Gpu)
            }
            // Fig. 5b: Eq. 15's overlap with every row on the GPU. The CPU
            // side pays the Huffman and every dispatch; the GPU side is
            // device- or feed-bound, its device work priced chunk by chunk
            // (each chunk pays the transfer latency and the launches).
            (Mode::PipelinedGpu, false) => {
                let overlap = pps::Overlap::new(model, w, d, chunk_px, 0.0, true, h2d);
                let pps::Sides { dispatches, gpu } = overlap.at(h);
                (thuff + dispatches.0).max(gpu.0)
            }
            // Eq. 10: Huffman first, then the balanced split. The GPU
            // share's transfer is density-corrected over its own rows.
            (Mode::Sps, false) => {
                let part = sps::partition(model, geom, d);
                let g_px = (part.gpu_mcu_rows * geom.mcu_h) as f64;
                let gpu = (part.predicted_gpu + h2d * w * g_px).max(0.0);
                thuff + part.predicted_cpu.max(gpu)
            }
            // Fed, Eq. 10 and 15 balance the device's Huffman and parallel
            // work against the CPU band, which waits for the device's state
            // at its first row: the split's sides are the prediction.
            (Mode::Sps | Mode::Pps, true) => {
                let plan = plan(mode);
                let part = plan.partition.expect("a split");
                if part.gpu_mcu_rows == 0 {
                    // No GPU rows: the parallel-entropy schedule exactly.
                    return release_all(&plan) + pcpu;
                }
                part.predicted_cpu.max(part.predicted_gpu)
            }
            // Eq. 15: both sides already price the overlapped Huffman; the
            // GPU side is re-priced at the split with the density-corrected
            // transfer.
            (Mode::Pps, false) => {
                let part = pps::initial_partition(model, geom, d, chunk_px);
                let overlap = pps::Overlap::new(model, w, d, chunk_px, 0.0, false, h2d);
                let g_px = h.min((part.gpu_mcu_rows * geom.mcu_h) as f64);
                part.predicted_cpu.max(overlap.at(g_px).gpu.0)
            }
            // One thread runs the SIMD schedule; priced one chunk's
            // overhead above it, so Auto picks SIMD.
            (Mode::ParallelEntropy, false) => thuff + SEGMENT_OVERHEAD_S + pcpu,
            // Entropy decode spread over the workers (restart segments, or
            // speculative chunks paying the trained convergence prefix),
            // then the SIMD band.
            (Mode::ParallelEntropy, true) => release_all(&plan(mode)) + pcpu,
            (Mode::Auto, _) => unreachable!("Auto is not a concrete mode"),
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

/// The IDCT discount at which a SIMD band of `work` costs the
/// `pcpu_density` factor at `d` times what it costs at the discount the
/// `PCPU` form was fit at: the image's expected sparsity, read off its
/// entropy density. Without a density factor it is the fitted discount.
fn implied_discount(
    platform: &Platform,
    model: &PerformanceModel,
    work: &hetjpeg_jpeg::metrics::ParallelWork,
    d: f64,
) -> f64 {
    let k = model.pcpu_density_factor(d);
    let fit_at = model.pcpu_idct_discount;
    if k == 1.0 {
        return fit_at;
    }
    // The band's price rises with its discount, smoothly between the
    // EOB-class anchors: find the anchors around the factor and
    // interpolate.
    let scale = |discount: f64| platform.cpu.band_scale_for_discount(work, discount, fit_at);
    let anchors = crate::cost::CpuCostModel::SPARSE_CLASS_FACTORS;
    let (mut lo, mut lo_scale) = (anchors[0], scale(anchors[0]));
    if k <= lo_scale {
        return lo;
    }
    for &hi in &anchors[1..] {
        let hi_scale = scale(hi);
        if k <= hi_scale {
            return lo + (hi - lo) * (k - lo_scale) / (hi_scale - lo_scale);
        }
        (lo, lo_scale) = (hi, hi_scale);
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// `model` with the GPU priced ten seconds slower on every path: its
    /// `PGPU`, and the kernels of the stage forms the fed, chunked plans
    /// price instead.
    fn gpu_off_the_table(mut model: PerformanceModel) -> PerformanceModel {
        model.p_gpu.coefs[0][0] += 10.0;
        model.gpu_stages.kernels.coefs[0][0] += 10.0;
        model
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
        let model = gpu_off_the_table(platform.untrained_model());
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
        let mut model = gpu_off_the_table(platform.untrained_model());
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
        // The waste prices the workers out; the loop then decodes on
        // itself, so the feed is never cheaper than sequential Huffman.
        assert!(
            pe.seconds >= simd.seconds * (1.0 - 1e-9),
            "waste term must price honestly"
        );

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
        let decoder = crate::Decoder::builder()
            .platform(Platform::gtx680())
            .threads(4)
            .build()
            .unwrap();
        let auto_out = decoder
            .decode(&jpeg, crate::DecodeOptions::default())
            .unwrap();
        assert_ne!(auto_out.mode, Mode::Auto, "outcome reports the selection");
        let direct = decoder
            .decode(&jpeg, crate::DecodeOptions::with_mode(auto_out.mode))
            .unwrap();
        assert_eq!(auto_out.image.data, direct.image.data);
        assert_eq!(auto_out.total(), direct.total());
    }
}
