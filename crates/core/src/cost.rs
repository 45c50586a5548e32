//! CPU-side cost model: work metrics × calibrated per-unit cycle costs.
//!
//! The paper measures wall-clock with timestamp counters (§5.1); this
//! reproduction replaces the stopwatch with an analytic clock driven by the
//! *actual work performed*: the entropy decoder reports exactly how many
//! bits/symbols/blocks each MCU row consumed
//! ([`hetjpeg_jpeg::metrics::RowMetrics`]), and the parallel stages report
//! blocks, upsampled samples and converted pixels
//! ([`hetjpeg_jpeg::metrics::ParallelWork`]). Because the counts are real,
//! the paper's empirical observations *emerge* rather than being assumed:
//! Huffman ns/pixel comes out linear in entropy density (Fig. 7) because
//! denser images really do consume proportionally more bits.
//!
//! Calibration anchors (see EXPERIMENTS.md and `docs/PERF.md`):
//! * Huffman ≈ 1.5–6 ns/pixel over d ∈ [0.05, 0.45] B/px (Fig. 7 on i7),
//! * the SIMD path's per-stage speedups are **re-anchored to the PR-3
//!   vectorized kernels** (docs/PERF.md, PR 3): the upsample and color
//!   stages run real AVX2/SSE2 kernels (measured ≈8× and ≈4.2× over
//!   scalar respectively), while the EOB-dispatched sparse IDCT is shared
//!   by both paths and gains only the row-tile fusion (a few percent).
//!   The paper's blanket "SIMD ≈ 3× on the parallel phase" assumed a
//!   vectorized IDCT (libjpeg-turbo); our pins reflect the decoder this
//!   repository actually ships.
//! * On sparse corpora (q80 4:2:0) the combination of EOB dispatch and the
//!   vector kernels lands the overall SIMD-vs-sequential speedup back at
//!   the §1 "about 2×" (PR 3 measured ≈2.2×); on dense corpora it is
//!   ≈1.5× because the scalar IDCT dominates.

use hetjpeg_jpeg::geometry::Geometry;
use hetjpeg_jpeg::metrics::{ParallelWork, RowMetrics};

/// Per-unit CPU cycle costs for one host microarchitecture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuCostModel {
    /// CPU name.
    pub name: &'static str,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Huffman decoding: cycles per entropy bit consumed.
    pub huff_cycles_per_bit: f64,
    /// Huffman decoding: cycles per symbol decoded (table walk + extend).
    pub huff_cycles_per_symbol: f64,
    /// Huffman decoding: fixed cycles per block (DC prediction, setup).
    pub huff_cycles_per_block: f64,
    /// Scalar dequant+IDCT cycles per 8x8 block.
    pub idct_cycles_per_block: f64,
    /// Scalar upsampling cycles per produced chroma sample.
    pub upsample_cycles_per_sample: f64,
    /// Scalar color-conversion cycles per pixel.
    pub color_cycles_per_pixel: f64,
    /// SIMD-path speedup of the dequant+IDCT stage **per sparse class**
    /// (DC-only, 2×2, 4×4, dense), anchored to the PR-5 vector islow
    /// kernels (docs/PERF.md, PR 5). DC-only blocks share the scalar flat
    /// fill (factor 1); the corner and dense classes run the AVX2
    /// column-parallel butterflies. The dense factor is *corpus-effective*
    /// (the scalar baseline's flat-column shortcut fires on real blocks),
    /// which is why it sits below the 4×4 factor — the all-coefficients
    /// microbench alone would claim ≈5×.
    pub simd_idct_class_speedup: [f64; 4],
    /// SIMD-path speedup of the chroma-upsample stage (the SSE2/AVX2
    /// Algorithm-1 kernels; PR-3 measurement).
    pub simd_upsample_speedup: f64,
    /// SIMD-path speedup of the color-conversion stage (the SSE2/AVX2
    /// Algorithm-2 kernels; PR-3 measurement).
    pub simd_color_speedup: f64,
    /// Fixed OpenCL dispatch overhead per command batch, µs (the paper's
    /// `Tdisp`).
    pub dispatch_base_us: f64,
    /// Additional dispatch cost per megabyte of argument/transfer setup.
    pub dispatch_us_per_mb: f64,
    /// Progressive decoding: cycles per block *visit* per scan. Every scan
    /// of a progressive script walks its band over every covered block even
    /// when EOB runs carry no bits for it, so a 10-scan script pays this
    /// roughly ten times per block on top of the bit/symbol work that
    /// [`Self::huff_time`] prices.
    pub progressive_scan_cycles_per_block: f64,
}

impl CpuCostModel {
    /// Intel i7-2600K @ 3.4 GHz (machines 1–2 of Table 1).
    pub fn i7_2600k() -> Self {
        CpuCostModel {
            name: "i7-2600K",
            clock_ghz: 3.4,
            // Calibrated to Fig. 7's best-fit line (≈1.3 + 9.4·d ns/px):
            // the per-block constant covers the DC/EOB minimum work that
            // keeps the rate positive at d → 0.
            huff_cycles_per_bit: 2.0,
            huff_cycles_per_symbol: 12.0,
            huff_cycles_per_block: 100.0,
            idct_cycles_per_block: 600.0,
            upsample_cycles_per_sample: 4.0,
            color_cycles_per_pixel: 12.0,
            // PR-3 re-anchor (docs/PERF.md, AVX2): the row-kernel
            // microbench measured ≈8× on Algorithm-1 upsampling and ≈4.2×
            // on Algorithm-2 color conversion, and the corpus-level stage
            // deltas confirm the same effective in-pipeline factors.
            // PR-5 re-anchor (docs/PERF.md): the EOB-dispatched vector
            // islow IDCT replaces the fusion-only 1.05 with per-class
            // factors — stage speedup ≈1.9× on the dense q95 4:2:0 corpus,
            // ≈1.6–2.0× on sparse q80 (DC blocks dilute it), composed of
            // these class factors.
            simd_idct_class_speedup: [1.0, 1.6, 2.6, 2.0],
            simd_upsample_speedup: 8.0,
            simd_color_speedup: 4.2,
            dispatch_base_us: 15.0,
            dispatch_us_per_mb: 1.0,
            progressive_scan_cycles_per_block: 12.0,
        }
    }

    /// Intel i7-3770K @ 3.5 GHz (machine 3 of Table 1). Ivy Bridge is a
    /// touch faster per clock as well.
    pub fn i7_3770k() -> Self {
        CpuCostModel {
            clock_ghz: 3.5,
            name: "i7-3770K",
            huff_cycles_per_bit: 1.9,
            huff_cycles_per_symbol: 11.5,
            huff_cycles_per_block: 96.0,
            idct_cycles_per_block: 580.0,
            upsample_cycles_per_sample: 3.9,
            color_cycles_per_pixel: 11.6,
            simd_idct_class_speedup: [1.0, 1.65, 2.7, 2.05],
            simd_upsample_speedup: 8.2,
            simd_color_speedup: 4.3,
            dispatch_base_us: 14.0,
            dispatch_us_per_mb: 1.0,
            progressive_scan_cycles_per_block: 11.5,
        }
    }

    #[inline]
    fn cycles_to_seconds(&self, cycles: f64) -> f64 {
        cycles / (self.clock_ghz * 1e9)
    }

    /// Upsample/color speedup divisors for the requested path (the IDCT
    /// divisor is per class — [`Self::idct_cycles`]).
    #[inline]
    fn uc_divisors(&self, simd: bool) -> (f64, f64) {
        if simd {
            (self.simd_upsample_speedup, self.simd_color_speedup)
        } else {
            (1.0, 1.0)
        }
    }

    /// This model with its vector-stage factors capped to what `level`'s
    /// dispatch policy actually runs — the canonical pins describe the
    /// AVX2 path, but a session resolved at a lower level must not price
    /// bands it cannot decode that fast. At [`hetjpeg_jpeg::decoder::kernels::SimdLevel::Sse2`] only the
    /// 4×4 IDCT class keeps a vector win (PR 5's per-class microbench under
    /// `HETJPEG_SIMD=sse2`: ≈1.47×; 2×2 and dense dispatch to scalar) and
    /// the 128-bit upsample/color kernels run at roughly half the AVX2
    /// factors; at [`hetjpeg_jpeg::decoder::kernels::SimdLevel::Scalar`] every factor is 1. The session
    /// builder applies this to its platform copy, so `Mode::Auto` and the
    /// partition points stay consistent with the kernels the session
    /// really dispatches.
    pub fn at_level(mut self, level: hetjpeg_jpeg::decoder::kernels::SimdLevel) -> Self {
        use hetjpeg_jpeg::decoder::kernels::SimdLevel;
        match level {
            SimdLevel::Avx2 => {}
            SimdLevel::Sse2 => {
                self.simd_idct_class_speedup = [1.0, 1.0, 1.47, 1.0];
                self.simd_upsample_speedup = (self.simd_upsample_speedup / 2.0).max(1.0);
                self.simd_color_speedup = (self.simd_color_speedup / 2.0).max(1.0);
            }
            SimdLevel::Scalar => {
                self.simd_idct_class_speedup = [1.0; 4];
                self.simd_upsample_speedup = 1.0;
                self.simd_color_speedup = 1.0;
            }
        }
        self
    }

    /// The SIMD IDCT speedup at an aggregate EOB discount: the class
    /// anchors ([`Self::SPARSE_CLASS_FACTORS`] ↦
    /// `simd_idct_class_speedup`) interpolated linearly, clamped outside —
    /// what callers that only carry a scalar discount (the trained
    /// `PCPU`'s `pcpu_idct_discount`, the PPS tail extrapolation) use in
    /// place of a full histogram.
    pub fn simd_idct_speedup_at_discount(&self, discount: f64) -> f64 {
        let xs = Self::SPARSE_CLASS_FACTORS;
        let ys = self.simd_idct_class_speedup;
        if discount <= xs[0] {
            return ys[0];
        }
        for i in 1..4 {
            if discount <= xs[i] {
                let t = (discount - xs[i - 1]) / (xs[i] - xs[i - 1]);
                return ys[i - 1] + t * (ys[i] - ys[i - 1]);
            }
        }
        ys[3]
    }

    /// Dequant+IDCT cycles for a band: per EOB class, each class priced at
    /// its scalar share ([`Self::SPARSE_CLASS_FACTORS`]) and, on the SIMD
    /// path, discounted by its own vector-kernel speedup. Blocks the
    /// histogram does not cover (e.g. a salvaged truncated image) are
    /// priced dense; an empty histogram prices everything dense.
    fn idct_cycles(&self, w: &ParallelWork, classes: &[u64; 4], simd: bool) -> f64 {
        let div = |c: usize| {
            if simd {
                self.simd_idct_class_speedup[c]
            } else {
                1.0
            }
        };
        let histogram_blocks: u64 = classes.iter().sum();
        if histogram_blocks == 0 {
            return w.idct_blocks as f64 * self.idct_cycles_per_block / div(3);
        }
        let mut cycles = 0.0;
        for (c, (count, factor)) in classes.iter().zip(Self::SPARSE_CLASS_FACTORS).enumerate() {
            cycles += *count as f64 * self.idct_cycles_per_block * factor / div(c);
        }
        cycles
            + w.idct_blocks.saturating_sub(histogram_blocks) as f64 * self.idct_cycles_per_block
                / div(3)
    }

    /// Huffman (entropy) decoding time for the given work metrics — the
    /// sequential phase that pins everything else (paper §1).
    pub fn huff_time(&self, m: &RowMetrics) -> f64 {
        let cycles = m.bits as f64 * self.huff_cycles_per_bit
            + m.symbols as f64 * self.huff_cycles_per_symbol
            + m.blocks as f64 * self.huff_cycles_per_block;
        self.cycles_to_seconds(cycles)
    }

    /// Entropy-phase time of a progressive scan script. `m` carries the
    /// bit/symbol totals accumulated over every decoded scan and the
    /// per-block constant once per block ([`Self::huff_time`] semantics);
    /// `scan_block_visits` is the total number of (scan, block) pairs the
    /// script walked — each pays the progressive band-loop overhead even
    /// when an EOB run skips the block entirely. With a single scan and
    /// zero extra visits this degenerates toward the baseline price, so
    /// `Mode::Auto` comparisons stay apples-to-apples.
    pub fn progressive_huff_time(&self, m: &RowMetrics, scan_block_visits: u64) -> f64 {
        self.huff_time(m)
            + self.cycles_to_seconds(
                scan_block_visits as f64 * self.progressive_scan_cycles_per_block,
            )
    }

    /// Parallel-phase time (dequant + IDCT + upsample + color) for a band's
    /// work, on the scalar or SIMD path, assuming every block pays the
    /// dense transform.
    pub fn parallel_time(&self, w: &ParallelWork, simd: bool) -> f64 {
        self.parallel_time_sparse(w, &[0, 0, 0, 0], simd)
    }

    /// Relative dequant+IDCT cost of each sparse-dispatch class (DC-only,
    /// 2×2, 4×4, dense) against the dense transform, anchored to the PR-1
    /// hot-path measurement (docs/PERF.md: ~2.25× on a q80 4:2:0 corpus whose
    /// blocks are mostly DC-only/2×2).
    pub const SPARSE_CLASS_FACTORS: [f64; 4] = [0.12, 0.28, 0.55, 1.0];

    /// [`Self::parallel_time`] with the IDCT term priced per EOB class
    /// instead of assuming every block pays the dense transform.
    ///
    /// `classes` is the band's EOB-class histogram
    /// ([`RowMetrics::eob_classes`]); if it is empty (all zeros) the dense
    /// assumption is kept, so callers without entropy metrics degrade to
    /// [`Self::parallel_time`]. Since the PR-3 retrain this is the price
    /// **every CPU band pays** — all seven modes (and therefore
    /// `Mode::Auto` and the CPU/GPU partition point) see sparsity. Since
    /// PR 5 the SIMD path divides each class by its own vector-kernel
    /// speedup (`simd_idct_class_speedup`), and the simulated GPU kernels
    /// dispatch on the same classes, so both sides of the partition are
    /// priced from the kernels actually running.
    pub fn parallel_time_sparse(&self, w: &ParallelWork, classes: &[u64; 4], simd: bool) -> f64 {
        let (du, dc) = self.uc_divisors(simd);
        let cycles = self.idct_cycles(w, classes, simd)
            + w.upsampled_samples as f64 * self.upsample_cycles_per_sample / du
            + w.color_pixels as f64 * self.color_cycles_per_pixel / dc;
        self.cycles_to_seconds(cycles)
    }

    /// Parallel-phase time *without* the color-conversion term — what the
    /// planar-YCbCr output path performs (dequant + IDCT + upsample only).
    pub fn parallel_time_planar(&self, w: &ParallelWork, simd: bool) -> f64 {
        self.parallel_time_planar_sparse(w, &[0, 0, 0, 0], simd)
    }

    /// [`Self::parallel_time_planar`] with EOB-class-aware IDCT pricing —
    /// the planar twin of [`Self::parallel_time_sparse`].
    pub fn parallel_time_planar_sparse(
        &self,
        w: &ParallelWork,
        classes: &[u64; 4],
        simd: bool,
    ) -> f64 {
        let (du, _) = self.uc_divisors(simd);
        let cycles = self.idct_cycles(w, classes, simd)
            + w.upsampled_samples as f64 * self.upsample_cycles_per_sample / du;
        self.cycles_to_seconds(cycles)
    }

    /// Scalar-over-SIMD ratio of the dense parallel phase for a given work
    /// mix — how much slower the sequential mode's band is than the SIMD
    /// band the trained `PCPU` closed form predicts. Work-mix-dependent
    /// because the per-stage speedups differ (the 4:4:4 ratio is lower:
    /// no upsampling to vectorize).
    pub fn scalar_over_simd(&self, w: &ParallelWork) -> f64 {
        self.scalar_over_simd_at_discount(w, 1.0)
    }

    /// [`Self::scalar_over_simd`] with the IDCT term discounted on both
    /// sides — the ratio consistent with a `PCPU` closed form that was fit
    /// at `discount` ([`crate::model::PerformanceModel::pcpu_idct_discount`]).
    /// Sparser content shrinks the scalar-only IDCT term, so the ratio
    /// *grows* with sparsity (the vectorized stages dominate).
    pub fn scalar_over_simd_at_discount(&self, w: &ParallelWork, discount: f64) -> f64 {
        let discount = discount.clamp(Self::SPARSE_CLASS_FACTORS[0], 1.0);
        let idct = w.idct_blocks as f64 * self.idct_cycles_per_block * discount;
        let ups = w.upsampled_samples as f64 * self.upsample_cycles_per_sample;
        let color = w.color_pixels as f64 * self.color_cycles_per_pixel;
        let scalar = idct + ups + color;
        let simd = idct / self.simd_idct_speedup_at_discount(discount)
            + ups / self.simd_upsample_speedup
            + color / self.simd_color_speedup;
        if simd <= 0.0 {
            1.0
        } else {
            scalar / simd
        }
    }

    /// Average IDCT discount of an EOB-class histogram: effective
    /// dense-equivalent blocks over real blocks, in `(0, 1]` (1.0 for an
    /// empty histogram — dense assumption).
    pub fn idct_discount(classes: &[u64; 4]) -> f64 {
        let blocks: u64 = classes.iter().sum();
        if blocks == 0 {
            return 1.0;
        }
        let mut eff = 0.0;
        for (count, factor) in classes.iter().zip(Self::SPARSE_CLASS_FACTORS) {
            eff += *count as f64 * factor;
        }
        eff / blocks as f64
    }

    /// How much a SIMD band's price changes when its IDCT discount is
    /// `observed` instead of the `assumed` discount a trained `PCPU`
    /// closed form averaged over — the sparsity twin of the paper's Eq. 17
    /// density correction, used by the PPS re-partitioning step.
    pub fn band_scale_for_discount(&self, w: &ParallelWork, observed: f64, assumed: f64) -> f64 {
        let (du, dc) = self.uc_divisors(true);
        let cycles_at = |discount: f64| {
            w.idct_blocks as f64 * self.idct_cycles_per_block * discount
                / self.simd_idct_speedup_at_discount(discount)
                + w.upsampled_samples as f64 * self.upsample_cycles_per_sample / du
                + w.color_pixels as f64 * self.color_cycles_per_pixel / dc
        };
        let denom = cycles_at(assumed.clamp(Self::SPARSE_CLASS_FACTORS[0], 1.0));
        if denom <= 0.0 {
            return 1.0;
        }
        cycles_at(observed.clamp(Self::SPARSE_CLASS_FACTORS[0], 1.0)) / denom
    }

    /// Entropy-phase time of the speculative restart-free path (ISSUE 6):
    /// `thuff` split over `chunks` workers, plus the **speculation-waste
    /// term** — the expected convergence prefix (`prefix_mcus`, fitted by
    /// `profile::train` into
    /// [`crate::model::PerformanceModel::spec_prefix_mcus`]) re-decoded
    /// once per chunk boundary, half in parallel inside the workers
    /// (wasted staged MCUs) and half serially in the stitch reconciler —
    /// priced conservatively as if all of it were serial — plus the fixed
    /// per-chunk overhead. With one chunk this degenerates to the
    /// sequential time plus one overhead, so `Mode::Auto` can never prefer
    /// speculation when it doesn't pay.
    pub fn speculative_entropy_time(
        thuff: f64,
        total_mcus: f64,
        prefix_mcus: f64,
        chunks: usize,
        overhead_s: f64,
    ) -> f64 {
        let n = chunks.max(1) as f64;
        let t_mcu = if total_mcus > 0.0 {
            thuff / total_mcus
        } else {
            0.0
        };
        thuff / n + prefix_mcus.max(0.0) * t_mcu * (n - 1.0) + n * overhead_s
    }

    /// Host-side OpenCL dispatch time (`Tdisp` in Eq. 9a) for commands
    /// covering MCU rows `[start, end)`.
    pub fn dispatch_time(&self, geom: &Geometry, start: usize, end: usize) -> f64 {
        let bytes =
            geom.coef_bytes_in_mcu_rows(start, end) + geom.rgb_bytes_in_mcu_rows(start, end);
        let mb = bytes as f64 / (1024.0 * 1024.0);
        (self.dispatch_base_us + self.dispatch_us_per_mb * mb) * 1e-6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetjpeg_jpeg::types::Subsampling;

    /// Work metrics of a synthetic 1-megapixel 4:2:2 image at a given
    /// entropy density (bytes/pixel).
    fn metrics_at_density(pixels: u64, d: f64) -> RowMetrics {
        let bits = (d * 8.0 * pixels as f64) as u64;
        RowMetrics {
            bits,
            symbols: (bits as f64 / 5.5) as u64, // ~5.5 bits/symbol typical
            nonzero_coefs: 0,
            blocks: pixels * 2 / 64,
            ..Default::default()
        }
    }

    #[test]
    fn huffman_rate_lands_in_fig7_range() {
        let cpu = CpuCostModel::i7_2600k();
        let px = 1_000_000u64;
        // d = 0.05 B/px → ~1-2 ns/px; d = 0.45 → ~5-8 ns/px.
        let lo = cpu.huff_time(&metrics_at_density(px, 0.05)) / px as f64 * 1e9;
        let hi = cpu.huff_time(&metrics_at_density(px, 0.45)) / px as f64 * 1e9;
        assert!((0.5..2.5).contains(&lo), "low-density rate {lo:.2} ns/px");
        assert!((4.0..8.5).contains(&hi), "high-density rate {hi:.2} ns/px");
        // Linear in density: doubling d roughly doubles the variable part.
        let mid = cpu.huff_time(&metrics_at_density(px, 0.225)) / px as f64 * 1e9;
        assert!(mid > lo && mid < hi);
    }

    #[test]
    fn simd_parallel_phase_pins_the_pr5_kernels() {
        // PR-5 re-anchor of the Fig. 6 pin: with the vector IDCT the dense
        // 4:2:2 SIMD band prices at ≈3.7 ns/px on the i7-2600K — finally
        // in the neighbourhood of the paper's ≈3.2 (libjpeg-turbo also
        // vectorizes its IDCT) — and a q80-like DC-heavy histogram drops
        // well below it.
        let cpu = CpuCostModel::i7_2600k();
        let geom = Geometry::new(2048, 2048, Subsampling::S422).unwrap();
        let work = ParallelWork::for_mcu_rows(&geom, 0, geom.mcus_y);
        let dense = cpu.parallel_time(&work, true) / geom.pixels() as f64 * 1e9;
        assert!((3.0..4.5).contains(&dense), "SIMD dense {dense:.2} ns/px");
        // A q80-photo-like histogram (mostly DC-only/2×2 blocks).
        let b = work.idct_blocks;
        let classes = [b / 2, b / 4, b / 8, b - b / 2 - b / 4 - b / 8];
        let sparse = cpu.parallel_time_sparse(&work, &classes, true) / geom.pixels() as f64 * 1e9;
        assert!(
            (1.5..3.0).contains(&sparse),
            "SIMD sparse {sparse:.2} ns/px"
        );
        // And sparse pricing must sit below the dense bound.
        assert!(sparse < dense);
    }

    #[test]
    fn at_level_caps_factors_to_the_dispatch_policy() {
        use hetjpeg_jpeg::decoder::kernels::SimdLevel;
        let cpu = CpuCostModel::i7_2600k();
        // AVX2 is the canonical pin set — identity.
        assert_eq!(cpu.at_level(SimdLevel::Avx2), cpu);
        // SSE2: only the 4×4 IDCT class keeps a vector win; upsample and
        // color halve. The SIMD band must therefore price *slower* than
        // the AVX2 one on the same work.
        let sse2 = cpu.at_level(SimdLevel::Sse2);
        assert_eq!(sse2.simd_idct_class_speedup[0], 1.0);
        assert_eq!(sse2.simd_idct_class_speedup[1], 1.0);
        assert!(sse2.simd_idct_class_speedup[2] > 1.0);
        assert_eq!(sse2.simd_idct_class_speedup[3], 1.0);
        let geom = Geometry::new(1024, 1024, Subsampling::S420).unwrap();
        let work = ParallelWork::for_mcu_rows(&geom, 0, geom.mcus_y);
        let b = work.idct_blocks;
        let classes = [b / 2, b / 4, b / 8, b - b / 2 - b / 4 - b / 8];
        assert!(
            sse2.parallel_time_sparse(&work, &classes, true)
                > cpu.parallel_time_sparse(&work, &classes, true)
        );
        // Scalar: the SIMD path prices exactly like the scalar path.
        let scalar = cpu.at_level(SimdLevel::Scalar);
        assert_eq!(
            scalar.parallel_time_sparse(&work, &classes, true),
            scalar.parallel_time_sparse(&work, &classes, false)
        );
        assert!((scalar.scalar_over_simd(&work) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn idct_speedup_interpolates_between_class_anchors() {
        let cpu = CpuCostModel::i7_2600k();
        let xs = CpuCostModel::SPARSE_CLASS_FACTORS;
        let ys = cpu.simd_idct_class_speedup;
        // Exact at the anchors, clamped outside, monotone between the
        // sparse anchors.
        for (x, y) in xs.iter().zip(ys.iter()) {
            assert!((cpu.simd_idct_speedup_at_discount(*x) - y).abs() < 1e-12);
        }
        assert_eq!(cpu.simd_idct_speedup_at_discount(0.0), ys[0]);
        assert_eq!(cpu.simd_idct_speedup_at_discount(2.0), ys[3]);
        let mid = cpu.simd_idct_speedup_at_discount(0.4);
        assert!(mid > ys[1] && mid < ys[2], "0.4 ↦ {mid:.2}");
    }

    #[test]
    fn per_stage_simd_factors_compose_the_ratio() {
        // The single blanket "3×" is gone: the scalar/SIMD ratio is now a
        // work-mix-weighted blend of the per-stage factors, higher where
        // there is more vectorizable work (4:2:0 > 4:2:2 > 4:4:4).
        let cpu = CpuCostModel::i7_2600k();
        let mut ratios = Vec::new();
        for sub in [Subsampling::S444, Subsampling::S422, Subsampling::S420] {
            let geom = Geometry::new(1024, 1024, sub).unwrap();
            let work = ParallelWork::for_mcu_rows(&geom, 0, geom.mcus_y);
            let ratio = cpu.scalar_over_simd(&work);
            assert!(
                ratio > cpu.simd_idct_class_speedup[0] && ratio < cpu.simd_upsample_speedup,
                "{} ratio {ratio:.2} outside stage bounds",
                sub.notation()
            );
            ratios.push(ratio);
        }
        assert!(
            ratios[0] < ratios[1] && ratios[1] < ratios[2],
            "more chroma work ⇒ bigger vector win: {ratios:?}"
        );
        // Dense 4:2:2 re-anchor with the PR-5 vector IDCT: ≈2.7× (PR 3's
        // scalar-IDCT blend sat at ≈1.7×).
        assert!(
            (2.3..3.2).contains(&ratios[1]),
            "4:2:2 ratio {:.2}",
            ratios[1]
        );
    }

    #[test]
    fn overall_simd_speedup_recovers_two_x_on_sparse_content() {
        // §1: "the SIMD-version of libjpeg-turbo decodes an image twice as
        // fast as the sequential version on an Intel i7". Re-anchored for
        // PR-5: the vector IDCT lifts the dense overall win to ≈1.8–2.2×
        // (PR 5 measured the parallel phase ≈2.1–2.6× before Huffman dilution),
        // and sparse histograms hold ≈2× as well.
        let cpu = CpuCostModel::i7_2600k();
        let geom = Geometry::new(2048, 2048, Subsampling::S422).unwrap();
        let work = ParallelWork::for_mcu_rows(&geom, 0, geom.mcus_y);
        let m = metrics_at_density(geom.pixels() as u64, 0.18);
        let seq = cpu.huff_time(&m) + cpu.parallel_time(&work, false);
        let simd = cpu.huff_time(&m) + cpu.parallel_time(&work, true);
        let dense_speedup = seq / simd;
        assert!(
            (1.6..2.3).contains(&dense_speedup),
            "dense overall SIMD speedup {dense_speedup:.2}"
        );
        let b = work.idct_blocks;
        let classes = [
            b * 6 / 10,
            b * 2 / 10,
            b / 10,
            b - b * 6 / 10 - b * 2 / 10 - b / 10,
        ];
        let m_sparse = metrics_at_density(geom.pixels() as u64, 0.1);
        let seq_s = cpu.huff_time(&m_sparse) + cpu.parallel_time_sparse(&work, &classes, false);
        let simd_s = cpu.huff_time(&m_sparse) + cpu.parallel_time_sparse(&work, &classes, true);
        let sparse_speedup = seq_s / simd_s;
        assert!(
            (1.7..2.6).contains(&sparse_speedup),
            "sparse overall SIMD speedup {sparse_speedup:.2}"
        );
        // The vector IDCT must not price sparse content *above* dense
        // content's speedup by construction alone — both land near 2×.
        // Huffman stays a large fraction of the SIMD total.
        let frac = cpu.huff_time(&m) / simd;
        assert!((0.2..0.6).contains(&frac), "Huffman fraction {frac:.2}");
    }

    #[test]
    fn sparse_pricing_discounts_sparse_blocks_only() {
        let cpu = CpuCostModel::i7_2600k();
        let geom = Geometry::new(512, 512, Subsampling::S420).unwrap();
        let work = ParallelWork::for_mcu_rows(&geom, 0, geom.mcus_y);
        let blocks = work.idct_blocks;
        // All-dense histogram reproduces the dense price exactly.
        let dense = cpu.parallel_time_sparse(&work, &[0, 0, 0, blocks], true);
        assert!((dense - cpu.parallel_time(&work, true)).abs() < 1e-15);
        // Empty histogram falls back to the dense assumption.
        let unknown = cpu.parallel_time_sparse(&work, &[0, 0, 0, 0], true);
        assert!((unknown - cpu.parallel_time(&work, true)).abs() < 1e-15);
        // A mostly-DC-only histogram is strictly cheaper, and monotone in
        // sparsity.
        let sparse = cpu.parallel_time_sparse(&work, &[blocks, 0, 0, 0], true);
        let half = cpu.parallel_time_sparse(&work, &[blocks / 2, 0, 0, blocks - blocks / 2], true);
        assert!(sparse < half && half < dense, "{sparse} {half} {dense}");
        // Planar pricing drops exactly the color term, on both the dense
        // and the sparse form.
        let planar = cpu.parallel_time_planar(&work, true);
        let color = cpu.cycles_to_seconds(
            work.color_pixels as f64 * cpu.color_cycles_per_pixel / cpu.simd_color_speedup,
        );
        assert!((cpu.parallel_time(&work, true) - planar - color).abs() < 1e-12);
        let planar_sparse = cpu.parallel_time_planar_sparse(&work, &[blocks, 0, 0, 0], true);
        assert!((sparse - planar_sparse - color).abs() < 1e-12);
    }

    #[test]
    fn speculative_entropy_time_prices_waste_honestly() {
        // A 1-megapixel no-restart scan: thuff ≈ 3 ms, ~8k MCUs.
        let (thuff, mcus) = (3e-3, 8000.0);
        let o = 2e-6;
        // One chunk degenerates to sequential + one overhead.
        let t1 = CpuCostModel::speculative_entropy_time(thuff, mcus, 6.0, 1, o);
        assert!((t1 - (thuff + o)).abs() < 1e-15);
        // Four chunks with a short prefix beat sequential comfortably.
        let t4 = CpuCostModel::speculative_entropy_time(thuff, mcus, 6.0, 4, o);
        assert!(t4 < thuff / 1.8, "4-chunk prediction {t4:.6}s");
        // The waste term is monotone in the fitted prefix, and a prefix
        // comparable to the whole stream makes speculation price *worse*
        // than sequential — Auto must never pick it then.
        let t4_long = CpuCostModel::speculative_entropy_time(thuff, mcus, mcus / 2.0, 4, o);
        assert!(t4_long > t4);
        assert!(t4_long > thuff + o);
    }

    #[test]
    fn dispatch_time_grows_with_volume() {
        let cpu = CpuCostModel::i7_2600k();
        let geom = Geometry::new(4096, 4096, Subsampling::S422).unwrap();
        let small = cpu.dispatch_time(&geom, 0, 1);
        let large = cpu.dispatch_time(&geom, 0, geom.mcus_y);
        assert!(large > small);
        assert!(small >= cpu.dispatch_base_us * 1e-6);
    }
}
