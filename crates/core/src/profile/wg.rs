//! Work-group size tuning (paper §5.1).
//!
//! "When we profile execution times on the GPU, OpenCL work-group sizes are
//! alternated from 4 MCUs to 32 MCUs to find the best work-group size for a
//! specific platform."

use crate::gpu_decode::{GpuContext, KernelPlan};
use hetjpeg_jpeg::decoder::Prepared;

/// Candidate work-group sizes in blocks (multiples of 4 blocks so groups
/// stay warp-aligned, §4.1).
pub const WG_CANDIDATES: [usize; 4] = [4, 8, 16, 32];

/// Sweep the candidates on a profiling image, on the trainer's device
/// context, and return the size with the lowest simulated kernel time.
pub fn tune_wg_blocks(gpu: &mut GpuContext, profiling_jpeg: &[u8]) -> usize {
    let prep = Prepared::new(profiling_jpeg).expect("profiling image parses");
    let (coef, _) = prep.entropy_decode_all().expect("profiling image decodes");
    let mut rgb = vec![0u8; prep.geom.rgb_bytes_in_mcu_rows(0, prep.geom.mcus_y)];
    let mut best = (f64::INFINITY, WG_CANDIDATES[0]);
    for &wg in &WG_CANDIDATES {
        let res = gpu
            .decode_region(
                &prep,
                &coef,
                0,
                prep.geom.mcus_y,
                wg,
                KernelPlan::Merged,
                &mut rgb,
            )
            .expect("merged plan decodes every subsampling");
        let t = res.kernels_total();
        if t < best.0 {
            best = (t, wg);
        }
    }
    best.1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu_decode::TransferMode;
    use crate::platform::Platform;
    use hetjpeg_jpeg::encoder::{encode_rgb, EncodeParams};
    use hetjpeg_jpeg::types::Subsampling;

    #[test]
    fn tuning_returns_a_candidate() {
        let mut rgb = vec![0u8; 128 * 128 * 3];
        for (i, v) in rgb.iter_mut().enumerate() {
            *v = ((i * 31) % 256) as u8;
        }
        let jpeg = encode_rgb(
            &rgb,
            128,
            128,
            &EncodeParams {
                quality: 85,
                subsampling: Subsampling::S422,
                restart_interval: 0,
            },
        )
        .unwrap();
        let mut gpu = GpuContext::new(&Platform::gtx560(), TransferMode::default());
        let wg = tune_wg_blocks(&mut gpu, &jpeg);
        assert!(WG_CANDIDATES.contains(&wg));
    }
}
