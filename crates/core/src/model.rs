//! The closed-form performance model (paper §5.1).
//!
//! "The variables to our performance model are image width, height and
//! entropy data size." The model holds four closed forms, all evaluated in
//! Horner form at run time:
//!
//! * `THuffPerPixel(d)` — Huffman ns/pixel as a polynomial of the entropy
//!   density `d = file_size / (w·h)` (Eq. 3); whole-image Huffman time is
//!   `THuff(w,h,d) = THuffPerPixel(d) · w · h` (Eq. 4);
//! * `PCPU(w, h)` — SIMD parallel-phase seconds for an h-row band, scaled
//!   by a degree ≤ 1 entropy-density factor (`pcpu_density`): the
//!   band's IDCT sparsity follows `d`, and the (w, h) form alone averages
//!   it away;
//! * `PGPU(w, h)` — GPU transfers + kernels for an h-row band (Eq. 7),
//!   with its three stages — H2D, kernels, D2H — fitted on their own as
//!   well (`gpu_stages`), so a plan whose copy engine runs beside the
//!   kernels can price each engine;
//! * `Tdisp(w, h)` — host-side dispatch overhead;
//! * `THuffGPU(bytes, d)` — the device's subsequence Huffman decode of a
//!   band's `bytes` scan bytes at entropy density `d` (`thuff_gpu`): a fed
//!   plan ships its GPU rows' scan, not their coefficients.
//!
//! Models are persisted in a tiny `key = value` text format to stay inside
//! the offline dependency set (no serde_json).

use crate::platform::Platform;
use crate::regress::{Poly1, Poly2};
use hetjpeg_jpeg::Subsampling;

/// Expected EOB-dispatch IDCT discount of a photo-like corpus, used by the
/// analytic bootstrap model before any real profiling has happened.
pub const SEED_SPARSE_IDCT_DISCOUNT: f64 = 0.45;

/// Expected convergence prefix of a speculative entropy chunk, in MCUs
/// (wasted staged MCUs + stitch re-decodes per chunk boundary), before any
/// real profiling: Huffman streams self-synchronize within a few codewords,
/// so a handful of MCUs is the observed order of magnitude.
/// `profile::train` replaces this with the measured mean.
pub const SEED_SPEC_PREFIX_MCUS: f64 = 6.0;

/// Calibrated closed forms for one (platform, subsampling) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct PerformanceModel {
    /// Platform name (Table 1 machine).
    pub platform: String,
    /// Subsampling this model was trained for.
    pub subsampling: Subsampling,
    /// Huffman ns/pixel as a function of density (bytes/pixel).
    pub thuff_ns_per_px: Poly1,
    /// SIMD parallel phase, seconds, as f(width, rows).
    pub p_cpu: Poly2,
    /// GPU transfers + kernels, seconds, as f(width, rows).
    pub p_gpu: Poly2,
    /// Dispatch overhead, seconds, as f(width, rows).
    pub t_disp: Poly2,
    /// Tuned pipeline chunk height in MCU rows (§4.5).
    pub chunk_mcu_rows: usize,
    /// Tuned work-group size in blocks (§5.1).
    pub wg_blocks: usize,
    /// Average EOB-dispatch IDCT discount the `PCPU` form was fit at
    /// (effective dense-equivalent blocks / real blocks over the training
    /// corpus; 1.0 = dense assumption). The PPS re-partitioning step uses
    /// it to correct `PCPU` when the measured sparsity of an image departs
    /// from the corpus average — the sparsity analogue of Eq. 17.
    pub pcpu_idct_discount: f64,
    /// Mean convergence prefix of a speculative entropy chunk (MCUs wasted
    /// plus re-decoded, per chunk boundary) measured over the training
    /// corpus — the speculation-waste term of the fed entropy step's
    /// release curve ([`crate::partition::pps::Release`]).
    pub spec_prefix_mcus: f64,
    /// Per-pixel H2D seconds of the *compacted* coefficient payload as a
    /// function of entropy density (PR 9). The compacted transfer ships
    /// only each block's ≤EOB corner, so its size — unlike the dense
    /// layout's — tracks content density; `Mode::Auto` corrects the fitted
    /// `PGPU` form by this term's departure from the reference density.
    /// Zero (the seed's) makes the correction vanish.
    pub h2d_s_per_px: Poly1,
    /// Entropy density (bytes/pixel) the training corpus averaged — the
    /// point `PGPU` already embeds, where the density correction is zero.
    pub h2d_ref_density: f64,
    /// Factor on `PCPU` as a function of entropy density, degree ≤ 1: the
    /// training samples over `PCPU(w, h)`, fitted against `d`. Denser
    /// entropy means denser IDCT blocks, which the `(w, h)` form cannot
    /// see. `[1.0]` (the seed's) makes it vanish bit for bit.
    pub pcpu_density: Poly1,
    /// `PGPU` split into the three stages the device's engines run,
    /// fitted from the same region decodes as `PGPU`: a fed, chunked plan
    /// runs its transfers on the copy engine beside the kernels
    /// ([`Self::gpu_stage_times`]).
    pub gpu_stages: GpuStages,
    /// `THuffGPU`: the fed plans' Huffman on the device.
    pub thuff_gpu: GpuEntropy,
}

/// `THuffGPU` ([`PerformanceModel::thuff_gpu`]): the subsequence Huffman
/// kernels of one band, and reading the decoder state at the band's end
/// back for the CPU band.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuEntropy {
    /// The kernels' seconds as `f(bytes, d)` of the band's scan bytes and
    /// entropy density.
    pub decode: Poly2,
    /// Seconds to read the decoder state back.
    pub readback: f64,
}

impl GpuEntropy {
    /// The analytic seed for `platform`: two launches, each at least one
    /// subsequence's decode issued serially, and the decode loop's ops per
    /// scan byte over the device — about 1.45 symbols and 0.16 blocks per
    /// byte at photo-like densities, decoded twice (passes 1 and 4) and a
    /// convergence prefix of about a third more.
    pub fn seed(platform: &Platform) -> GpuEntropy {
        use hetjpeg_gpusim::subseq::{OPS_PER_BLOCK, OPS_PER_BYTE, OPS_PER_SYMBOL};
        let gpu = &platform.gpu;
        let per_byte =
            OPS_PER_BYTE as f64 + 1.45 * OPS_PER_SYMBOL as f64 + 0.16 * OPS_PER_BLOCK as f64;
        let lane = crate::schedule::entropy_par::SUBSEQ_BYTES as f64 * per_byte;
        let issue = gpu.clock_mhz * 1e6 * gpu.ipc_efficiency;
        let mut decode = Poly2::zero(1);
        decode.coefs[0][0] = 2.0 * gpu.launch_overhead_us * 1e-6 + 2.0 * lane / issue;
        decode.coefs[1][0] = 2.7 * per_byte / gpu.peak_ops_per_sec();
        let state = crate::gpu_decode::STATE_BYTES;
        GpuEntropy {
            decode,
            readback: platform.pcie.transfer_time(state, true),
        }
    }

    /// The kernels' seconds for `bytes` scan bytes at density `d`, never
    /// negative and zero for no bytes.
    pub fn time(&self, bytes: f64, d: f64) -> f64 {
        if bytes <= 0.0 {
            0.0
        } else {
            self.decode.eval(bytes, d).max(0.0)
        }
    }
}

/// The stage forms of `PGPU` ([`PerformanceModel::gpu_stages`]), seconds of
/// one band, each transfer paying its own latency.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuStages {
    /// Host→device, as `f(d, pixels)` of the band's entropy density and
    /// pixels: the band's scan bytes and subsequence table, which track
    /// density as much as size.
    pub h2d: Poly2,
    /// The kernels, as `f(width, rows)`.
    pub kernels: Poly2,
    /// Device→host, the band's RGB, as `f(width, rows)`.
    pub d2h: Poly2,
}

impl PerformanceModel {
    /// Eq. (4): whole-image (or band) Huffman time for `pixels` pixels at
    /// density `d` bytes/pixel.
    pub fn huff_time(&self, pixels: f64, d: f64) -> f64 {
        (self.thuff_ns_per_px.eval(d) * 1e-9 * pixels).max(0.0)
    }

    /// SIMD parallel-phase estimate for a `width × rows` band.
    pub fn p_cpu(&self, width: f64, rows: f64) -> f64 {
        if rows <= 0.0 {
            0.0
        } else {
            self.p_cpu.eval(width, rows).max(0.0)
        }
    }

    /// [`Self::p_cpu`] for a band at entropy density `d`: scaled by the
    /// trained `pcpu_density` factor. With the identity factor `[1.0]`
    /// this is exactly [`Self::p_cpu`].
    pub fn p_cpu_at_density(&self, width: f64, rows: f64, d: f64) -> f64 {
        self.p_cpu(width, rows) * self.pcpu_density_factor(d)
    }

    /// The `pcpu_density` factor at density `d`, never negative.
    pub fn pcpu_density_factor(&self, d: f64) -> f64 {
        self.pcpu_density.eval(d).max(0.0)
    }

    /// GPU estimate (transfers + kernels) for a `width × rows` band.
    pub fn p_gpu(&self, width: f64, rows: f64) -> f64 {
        if rows <= 0.0 {
            0.0
        } else {
            self.p_gpu.eval(width, rows).max(0.0)
        }
    }

    /// Density-corrected GPU estimate (PR 9): [`Self::p_gpu`] plus the
    /// compacted-payload H2D delta between the image's density `d` and the
    /// reference density the form was fit at. With an untrained (zero)
    /// `h2d_s_per_px` this is exactly [`Self::p_gpu`].
    pub fn p_gpu_at_density(&self, width: f64, rows: f64, d: f64) -> f64 {
        let base = self.p_gpu(width, rows);
        if base <= 0.0 {
            return base;
        }
        (base + self.h2d_correction(d) * width * rows).max(0.0)
    }

    /// Per-pixel H2D seconds the compacted payload at density `d` adds to
    /// (or, below the reference density, takes from) the fitted `PGPU`
    /// form. Zero for an untrained `h2d_s_per_px`.
    pub fn h2d_correction(&self, d: f64) -> f64 {
        self.h2d_s_per_px.eval(d) - self.h2d_s_per_px.eval(self.h2d_ref_density)
    }

    /// The device time of a `width × rows` band at entropy density `d` as
    /// the stages its engines run, `[H2D, kernels, D2H]`, each never
    /// negative and zero for an empty band: the H2D of the band's scan and
    /// subsequence table, the kernels after the Huffman ones.
    pub fn gpu_stage_times(&self, width: f64, rows: f64, d: f64) -> [f64; 3] {
        if rows <= 0.0 {
            return [0.0; 3];
        }
        let st = &self.gpu_stages;
        let stages = [
            st.h2d.eval(d, width * rows),
            st.kernels.eval(width, rows),
            st.d2h.eval(width, rows),
        ];
        stages.map(|t| t.max(0.0))
    }

    /// Dispatch-overhead estimate for a `width × rows` band.
    pub fn t_disp(&self, width: f64, rows: f64) -> f64 {
        if rows <= 0.0 {
            0.0
        } else {
            self.t_disp.eval(width, rows).max(0.0)
        }
    }

    /// An analytic bootstrap model derived from the platform's cost
    /// constants rather than offline profiling; replaced by
    /// [`crate::profile::train`] for the experiments. Assumes 4:2:2-ish
    /// work ratios.
    pub fn analytic_seed(platform: &Platform) -> Self {
        let cpu = &platform.cpu;
        // Huffman ns/px at density d (see cost.rs): bits/px = 8d,
        // symbols/px ≈ 8d / 5.5, blocks/px = 2/64.
        let per_bit = cpu.huff_cycles_per_bit / cpu.clock_ghz; // ns per bit
        let per_sym = cpu.huff_cycles_per_symbol / cpu.clock_ghz;
        let per_blk = cpu.huff_cycles_per_block / cpu.clock_ghz;
        let c0 = per_blk * 2.0 / 64.0;
        let c1 = 8.0 * per_bit + (8.0 / 5.5) * per_sym;
        let thuff = Poly1::new(vec![c0, c1]);

        // SIMD parallel phase ns/px (4:2:2 ratios, see cost.rs), each
        // stage divided by its own retrained vector-kernel speedup. The
        // IDCT term carries the expected EOB-dispatch discount of a
        // photo-like corpus (mostly DC-only/2×2 blocks — the workload the
        // paper's tables measure) and, since PR 5, the vector IDCT's
        // speedup interpolated at that discount; `profile::train` replaces
        // this bootstrap guess with each training image's *measured*
        // histogram.
        let simd_cycles_per_px = cpu.idct_cycles_per_block * 2.0 / 64.0 * SEED_SPARSE_IDCT_DISCOUNT
            / cpu.simd_idct_speedup_at_discount(SEED_SPARSE_IDCT_DISCOUNT)
            + cpu.upsample_cycles_per_sample * 1.0 / cpu.simd_upsample_speedup
            + cpu.color_cycles_per_pixel / cpu.simd_color_speedup;
        let simd_ns_per_px = simd_cycles_per_px / cpu.clock_ghz;
        // p_cpu(w, rows) = simd_ns_per_px * w * rows * 1e-9: pure cross term.
        let mut p_cpu = Poly2::zero(2);
        p_cpu.coefs[1][1] = simd_ns_per_px * 1e-9;

        // GPU: transfers dominate; rough per-byte + per-pixel kernel cost.
        let bytes_per_px = 2.0 * 2.0 + 3.0; // i16 coefs (~2 samp/px) + RGB out
        let pcie_s_per_px = bytes_per_px / (platform.pcie.pinned_gbps * 1e9);
        // Rough instrumented-kernel op count per pixel. The IDCT share
        // (~40 of the pre-PR-5 70) now carries the same expected EOB
        // discount as the CPU side — the GPU kernels dispatch on the EOB
        // sidecar since PR 5, so a dense bootstrap would mis-seed the
        // partition point. The trained model measures the real value.
        let kernel_ops_per_px = 40.0 * SEED_SPARSE_IDCT_DISCOUNT + 30.0;
        let kernel_s_per_px = kernel_ops_per_px / platform.gpu.peak_ops_per_sec();
        let mem_s_per_px = 12.0 / (platform.gpu.gmem_bandwidth_gbps * 1e9);
        let gpu_s_per_px = pcie_s_per_px + kernel_s_per_px.max(mem_s_per_px);
        let mut p_gpu = Poly2::zero(2);
        p_gpu.coefs[0][0] =
            platform.pcie.latency_us * 2e-6 + platform.gpu.launch_overhead_us * 4e-6;
        p_gpu.coefs[1][1] = gpu_s_per_px;
        // Its stages, as the fed plans run them: each transfer one
        // latency, the scan up and the RGB down; the kernels the launches
        // and the rest. The scan is about `d` bytes a pixel, with its
        // subsequence table, an entry per `SUBSEQ_BYTES` of scan.
        let latency = platform.pcie.latency_us * 1e-6;
        let per_byte = 1.0 / (platform.pcie.pinned_gbps * 1e9);
        let table = crate::gpu_decode::SUBSEQ_ENTRY_BYTES as f64
            / crate::schedule::entropy_par::SUBSEQ_BYTES as f64;
        let mut h2d = Poly2::zero(2);
        (h2d.coefs[0][0], h2d.coefs[1][1]) = (latency, (1.0 + table) * per_byte);
        let mut kernels = Poly2::zero(2);
        kernels.coefs[0][0] = platform.gpu.launch_overhead_us * 4e-6;
        kernels.coefs[1][1] = kernel_s_per_px.max(mem_s_per_px);
        let mut d2h = Poly2::zero(2);
        (d2h.coefs[0][0], d2h.coefs[1][1]) = (latency, 3.0 * per_byte);
        let gpu_stages = GpuStages { h2d, kernels, d2h };
        let thuff_gpu = GpuEntropy::seed(platform);

        let mut t_disp = Poly2::zero(1);
        t_disp.coefs[0][0] = cpu.dispatch_base_us * 1e-6;

        PerformanceModel {
            platform: platform.name.to_string(),
            subsampling: Subsampling::S422,
            thuff_ns_per_px: thuff,
            p_cpu,
            p_gpu,
            t_disp,
            chunk_mcu_rows: 16,
            wg_blocks: 8,
            pcpu_idct_discount: SEED_SPARSE_IDCT_DISCOUNT,
            spec_prefix_mcus: SEED_SPEC_PREFIX_MCUS,
            h2d_s_per_px: Poly1::new(vec![0.0]),
            h2d_ref_density: 0.0,
            pcpu_density: Poly1::new(vec![1.0]),
            gpu_stages,
            thuff_gpu,
        }
    }

    /// The first defect that would make this model panic or mis-price a
    /// decode, or `None` for a usable model. A zero work-group divides by
    /// zero inside the kernels and a zero chunk height stalls the chunk
    /// loop. Every number must be finite — [`Self::load_str`] parses `NaN`
    /// and `inf`, and one poisoned term silently prices a band at nothing
    /// (`(base + NaN).max(0.0)` is 0) — every input scale positive (the
    /// forms divide by it), the IDCT discount positive and the speculation
    /// prefix non-negative.
    pub(crate) fn defect(&self) -> Option<&'static str> {
        if self.wg_blocks == 0 {
            return Some("wg_blocks must be >= 1");
        }
        if self.chunk_mcu_rows == 0 {
            return Some("chunk_mcu_rows must be >= 1");
        }
        let poly1s = [
            &self.thuff_ns_per_px,
            &self.h2d_s_per_px,
            &self.pcpu_density,
        ];
        let st = &self.gpu_stages;
        let poly2s = [
            &self.p_cpu,
            &self.p_gpu,
            &self.t_disp,
            &self.thuff_gpu.decode,
            &st.h2d,
            &st.kernels,
            &st.d2h,
        ];
        let finite_coefs = poly1s.iter().all(|p| p.coefs.iter().all(|c| c.is_finite()))
            && poly2s
                .iter()
                .all(|p| p.coefs.iter().flatten().all(|c| c.is_finite()));
        if !finite_coefs || !self.h2d_ref_density.is_finite() {
            return Some("non-finite coefficient");
        }
        let positive = |x: f64| x.is_finite() && x > 0.0;
        let scales_ok = poly1s.iter().all(|p| positive(p.x_scale))
            && poly2s
                .iter()
                .all(|p| positive(p.x_scale) && positive(p.y_scale));
        if !scales_ok {
            return Some("input scales must be finite and > 0");
        }
        if !positive(self.pcpu_idct_discount) {
            return Some("pcpu_idct_discount must be finite and > 0");
        }
        if !(self.spec_prefix_mcus.is_finite() && self.spec_prefix_mcus >= 0.0) {
            return Some("spec_prefix_mcus must be finite and >= 0");
        }
        if !positive(self.thuff_gpu.readback) {
            return Some("thuff_gpu.readback must be finite and > 0");
        }
        None
    }

    /// Serialize to the `key = value` text format.
    pub fn save_str(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("platform = {}\n", self.platform));
        out.push_str(&format!("subsampling = {}\n", self.subsampling.notation()));
        out.push_str(&format!("chunk_mcu_rows = {}\n", self.chunk_mcu_rows));
        out.push_str(&format!("wg_blocks = {}\n", self.wg_blocks));
        out.push_str(&format!(
            "pcpu_idct_discount = {:e}\n",
            self.pcpu_idct_discount
        ));
        out.push_str(&format!("spec_prefix_mcus = {:e}\n", self.spec_prefix_mcus));
        out.push_str(&format!("h2d_ref_density = {:e}\n", self.h2d_ref_density));
        let p1 = |name: &str, p: &Poly1, out: &mut String| {
            out.push_str(&format!("{name}.x_scale = {:e}\n", p.x_scale));
            let list: Vec<String> = p.coefs.iter().map(|c| format!("{c:e}")).collect();
            out.push_str(&format!("{name}.coefs = {}\n", list.join(",")));
        };
        let p2 = |name: &str, p: &Poly2, out: &mut String| {
            out.push_str(&format!("{name}.degree = {}\n", p.degree));
            out.push_str(&format!("{name}.x_scale = {:e}\n", p.x_scale));
            out.push_str(&format!("{name}.y_scale = {:e}\n", p.y_scale));
            let mut list = Vec::new();
            for row in &p.coefs {
                for &c in row {
                    list.push(format!("{c:e}"));
                }
            }
            out.push_str(&format!("{name}.coefs = {}\n", list.join(",")));
        };
        p1("thuff", &self.thuff_ns_per_px, &mut out);
        p1("h2d", &self.h2d_s_per_px, &mut out);
        p1("pcpu_density", &self.pcpu_density, &mut out);
        p2("p_cpu", &self.p_cpu, &mut out);
        p2("p_gpu", &self.p_gpu, &mut out);
        p2("t_disp", &self.t_disp, &mut out);
        p2("gpu_stages.h2d", &self.gpu_stages.h2d, &mut out);
        p2("gpu_stages.kernels", &self.gpu_stages.kernels, &mut out);
        p2("gpu_stages.d2h", &self.gpu_stages.d2h, &mut out);
        p2("thuff_gpu", &self.thuff_gpu.decode, &mut out);
        out.push_str(&format!(
            "thuff_gpu.readback = {:e}\n",
            self.thuff_gpu.readback
        ));
        out
    }

    /// Parse the text format back: `None` unless every key
    /// [`Self::save_str`] writes is present and parses.
    pub fn load_str(text: &str) -> Option<Self> {
        let mut map = std::collections::HashMap::new();
        for line in text.lines() {
            if let Some((k, v)) = line.split_once('=') {
                map.insert(k.trim(), v.trim());
            }
        }
        let get = |k: &str| map.get(k).copied();
        let num = |k: &str| get(k)?.parse::<f64>().ok();
        let count = |k: &str| get(k)?.parse::<usize>().ok();
        let parse_list = |s: &str| -> Option<Vec<f64>> {
            s.split(',').map(|t| t.trim().parse::<f64>().ok()).collect()
        };
        let p1 = |name: &str| -> Option<Poly1> {
            Some(Poly1 {
                coefs: parse_list(get(&format!("{name}.coefs"))?)?,
                x_scale: num(&format!("{name}.x_scale"))?,
            })
        };
        let p2 = |name: &str| -> Option<Poly2> {
            let degree = count(&format!("{name}.degree"))?;
            let flat = parse_list(get(&format!("{name}.coefs"))?)?;
            // The degree is the file's: a huge one must refuse, not overflow.
            let side = degree.checked_add(1)?;
            if Some(flat.len()) != side.checked_mul(side) {
                return None;
            }
            let mut p = Poly2::zero(degree);
            p.x_scale = num(&format!("{name}.x_scale"))?;
            p.y_scale = num(&format!("{name}.y_scale"))?;
            for (row, values) in p.coefs.iter_mut().zip(flat.chunks(side)) {
                row.copy_from_slice(values);
            }
            Some(p)
        };
        let subsampling = match get("subsampling")? {
            "4:4:4" => Subsampling::S444,
            "4:2:2" => Subsampling::S422,
            "4:2:0" => Subsampling::S420,
            _ => return None,
        };
        Some(PerformanceModel {
            platform: get("platform")?.to_string(),
            subsampling,
            thuff_ns_per_px: p1("thuff")?,
            p_cpu: p2("p_cpu")?,
            p_gpu: p2("p_gpu")?,
            t_disp: p2("t_disp")?,
            chunk_mcu_rows: count("chunk_mcu_rows")?,
            wg_blocks: count("wg_blocks")?,
            pcpu_idct_discount: num("pcpu_idct_discount")?,
            spec_prefix_mcus: num("spec_prefix_mcus")?,
            h2d_s_per_px: p1("h2d")?,
            h2d_ref_density: num("h2d_ref_density")?,
            pcpu_density: p1("pcpu_density")?,
            gpu_stages: GpuStages {
                h2d: p2("gpu_stages.h2d")?,
                kernels: p2("gpu_stages.kernels")?,
                d2h: p2("gpu_stages.d2h")?,
            },
            thuff_gpu: GpuEntropy {
                decode: p2("thuff_gpu")?,
                readback: num("thuff_gpu.readback")?,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetjpeg_jpeg::decoder::Prepared;

    #[test]
    fn seed_model_is_sane() {
        let m = PerformanceModel::analytic_seed(&Platform::gtx560());
        // Huffman at d=0.2 on a megapixel: low single-digit milliseconds.
        let t = m.huff_time(1e6, 0.2);
        assert!((5e-4..1e-2).contains(&t), "huff {t}");
        // CPU band time grows with rows.
        assert!(m.p_cpu(1024.0, 512.0) > m.p_cpu(1024.0, 256.0));
        // GPU time grows with rows and has a fixed floor.
        assert!(m.p_gpu(1024.0, 8.0) > 0.0);
        assert!(m.p_gpu(1024.0, 1024.0) > m.p_gpu(1024.0, 64.0));
        // Dispatch is microseconds.
        assert!(m.t_disp(4096.0, 4096.0) < 1e-3);
    }

    #[test]
    fn weak_gpu_seed_prefers_cpu() {
        // On the GT 430 seed model, GPU band time should exceed CPU SIMD
        // band time for large bands (the paper's §6.1 observation).
        let m = PerformanceModel::analytic_seed(&Platform::gt430());
        assert!(m.p_gpu(2048.0, 2048.0) > m.p_cpu(2048.0, 2048.0));
        // On the GTX 680 it is the reverse.
        let m = PerformanceModel::analytic_seed(&Platform::gtx680());
        assert!(m.p_gpu(2048.0, 2048.0) < m.p_cpu(2048.0, 2048.0));
    }

    #[test]
    fn save_load_roundtrip() {
        let m = PerformanceModel::analytic_seed(&Platform::gtx680());
        let text = m.save_str();
        let back = PerformanceModel::load_str(&text).expect("parse");
        assert_eq!(m, back);
    }

    /// A model trained on a small corpus: every key carries a fitted value.
    fn trained() -> PerformanceModel {
        let params = hetjpeg_corpus::CorpusParams {
            min_dim: 64,
            max_dim: 192,
            steps: 2,
            subsampling: Subsampling::S422,
            quality: 85,
            restart_interval: 0,
        };
        let jpegs: Vec<Vec<u8>> = (hetjpeg_corpus::training_set(&params).into_iter())
            .map(|c| c.jpeg)
            .collect();
        let opts = crate::profile::TrainOptions {
            max_degree: 2,
            wg_blocks: Some(8),
            chunk_mcu_rows: Some(4),
        };
        crate::profile::train(&Platform::gtx560(), &jpegs, opts)
    }

    /// A `width × height` photo-like 4:2:2 image.
    fn photo(width: usize, height: usize) -> Vec<u8> {
        let spec = hetjpeg_corpus::ImageSpec {
            width,
            height,
            pattern: hetjpeg_corpus::Pattern::PhotoLike { detail: 0.7 },
            seed: 3,
        };
        hetjpeg_corpus::generate_jpeg(&spec, 85, Subsampling::S422).expect("encode")
    }

    /// Every mode's predicted seconds for `prep` on the GTX 560 Ti, as bits.
    fn price_bits(prep: &Prepared, model: &PerformanceModel, threads: usize) -> Vec<u64> {
        let preds = crate::schedule::auto::predict_all(prep, &Platform::gtx560(), model, threads);
        preds.iter().map(|p| p.seconds.to_bits()).collect()
    }

    #[test]
    fn trained_model_roundtrips_with_its_density_factor() {
        let m = trained();
        assert_ne!(
            m.pcpu_density,
            Poly1::new(vec![1.0]),
            "the factor is fitted"
        );
        let back = PerformanceModel::load_str(&m.save_str()).expect("parse");
        assert_eq!(m, back);
        // The identity factor (the seed's) prices `Simd` as exactly
        // `THuff + PCPU`.
        let identity = PerformanceModel {
            pcpu_density: Poly1::new(vec![1.0]),
            ..m
        };
        let jpeg = photo(200, 136);
        let prep = Prepared::new(&jpeg).expect("parse");
        let (w, h) = (prep.geom.width as f64, prep.geom.height as f64);
        let d = prep.parsed.entropy_density();
        let preds = crate::schedule::auto::predict_all(&prep, &Platform::gtx560(), &identity, 4);
        let simd = preds.iter().find(|p| p.mode == crate::schedule::Mode::Simd);
        let exact = identity.huff_time(w * h, d) + identity.p_cpu(w, h);
        assert_eq!(simd.expect("a Simd price").seconds, exact);
    }

    #[test]
    fn trained_model_roundtrips_with_its_stage_forms() {
        let m = trained();
        let back = PerformanceModel::load_str(&m.save_str()).expect("parse");
        assert_eq!(back.gpu_stages, m.gpu_stages);
        assert_eq!(back, m);
        // At one thread nothing is fed and no price reads the stage forms;
        // fed, the chunked plans do.
        let mut doctored = m.clone();
        let st = &mut doctored.gpu_stages;
        for form in [&mut st.h2d, &mut st.kernels, &mut st.d2h] {
            form.coefs[0][0] += 1.0;
        }
        let jpeg = photo(200, 400);
        let prep = Prepared::new(&jpeg).expect("parse");
        assert_eq!(price_bits(&prep, &doctored, 1), price_bits(&prep, &m, 1));
        assert_ne!(price_bits(&prep, &doctored, 4), price_bits(&prep, &m, 4));
    }

    #[test]
    fn a_file_missing_any_key_is_refused() {
        let text = trained().save_str();
        let lines: Vec<&str> = text.lines().collect();
        assert!(PerformanceModel::load_str(&text).is_some());
        for (i, dropped) in lines.iter().enumerate() {
            let partial: String = (lines.iter().enumerate())
                .filter(|&(j, _)| j != i)
                .map(|(_, l)| format!("{l}\n"))
                .collect();
            let loaded = PerformanceModel::load_str(&partial);
            assert!(loaded.is_none(), "loaded without {dropped:?}");
        }
    }

    #[test]
    fn load_refuses_a_degree_that_overflows() {
        let text = PerformanceModel::analytic_seed(&Platform::gtx560()).save_str();
        let line = (text.lines())
            .find(|l| l.starts_with("p_cpu.degree"))
            .expect("a degree");
        for degree in ["4294967296", "18446744073709551615"] {
            let bad = text.replace(line, &format!("p_cpu.degree = {degree}"));
            assert!(PerformanceModel::load_str(&bad).is_none(), "{degree}");
        }
    }

    #[test]
    fn trained_model_roundtrips_with_its_device_huffman_form() {
        let m = trained();
        let seed = GpuEntropy::seed(&Platform::gtx560());
        assert_ne!(m.thuff_gpu.decode, seed.decode, "the form is fitted");
        let back = PerformanceModel::load_str(&m.save_str()).expect("parse");
        assert_eq!(back.thuff_gpu, m.thuff_gpu);
        assert_eq!(back, m);
    }

    #[test]
    fn defect_refuses_a_device_huffman_form_that_cannot_price() {
        let m = PerformanceModel::analytic_seed(&Platform::gtx560());
        assert_eq!(m.defect(), None);
        for readback in [0.0, -1e-6, f64::NAN, f64::INFINITY] {
            let mut bad = m.clone();
            bad.thuff_gpu.readback = readback;
            assert!(bad.defect().is_some(), "readback {readback}");
        }
        for (i, j) in [(0, 0), (1, 0), (0, 1)] {
            let mut bad = m.clone();
            bad.thuff_gpu.decode.coefs[i][j] = f64::NAN;
            assert_eq!(bad.defect(), Some("non-finite coefficient"));
        }
        for scale in [0.0, -2.0] {
            let mut bad = m.clone();
            bad.thuff_gpu.decode.x_scale = scale;
            assert!(bad.defect().is_some(), "x_scale {scale}");
            let mut bad = m.clone();
            bad.thuff_gpu.decode.y_scale = scale;
            assert!(bad.defect().is_some(), "y_scale {scale}");
        }
    }

    #[test]
    fn load_rejects_garbage() {
        assert!(PerformanceModel::load_str("").is_none());
        assert!(PerformanceModel::load_str("platform = x\n").is_none());
    }

    #[test]
    fn negative_rows_clamp_to_zero() {
        let m = PerformanceModel::analytic_seed(&Platform::gtx560());
        assert_eq!(m.p_cpu(1000.0, -5.0), 0.0);
        assert_eq!(m.p_gpu(1000.0, 0.0), 0.0);
        assert_eq!(m.t_disp(1000.0, -1.0), 0.0);
    }
}
