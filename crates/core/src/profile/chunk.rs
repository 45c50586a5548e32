//! Pipeline chunk-size tuning (paper §4.5).
//!
//! "The most efficient chunk size is determined through static profiling on
//! large images. Chunk sizes are varied from the full height down to an
//! eight pixel stripe. The decoding speed tends to be faster as the number
//! of chunks increases. However, as chunks become too small, GPU
//! utilization becomes low. The best sizes from each image are selected.
//! The final partition size is chosen as the largest size on the best list
//! to prevent from choosing a size that is too small wrt. GPU utilization."

use crate::model::PerformanceModel;
use crate::platform::Platform;
use crate::schedule::split::{self, Plan};
use crate::schedule::{Mode, Target};
use crate::session::OutputFormat;
use crate::workspace::Workspace;
use hetjpeg_jpeg::decoder::Prepared;

/// Candidate chunk heights in MCU rows for an image with `mcus_y` rows:
/// full height halving down to a single MCU row (an 8- or 16-pixel stripe).
pub fn candidate_chunk_rows(mcus_y: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut c = mcus_y.max(1);
    while c >= 1 {
        out.push(c);
        if c == 1 {
            break;
        }
        c /= 2;
    }
    out
}

/// Tune the chunk height over a set of (large) profiling images, decoding
/// on `ws`'s pools and device context.
pub fn tune_chunk_rows(
    platform: &Platform,
    proto_model: &PerformanceModel,
    profiling_jpegs: &[impl AsRef<[u8]>],
    ws: &mut Workspace,
) -> usize {
    let mut best_per_image = Vec::new();
    for jpeg in profiling_jpegs {
        let prep = Prepared::new(jpeg.as_ref()).expect("profiling image parses");
        let mut best = (f64::INFINITY, 1usize);
        let mut image = Target::whole(OutputFormat::Rgb);
        for c in candidate_chunk_rows(prep.geom.mcus_y) {
            let mut trial = proto_model.clone();
            trial.chunk_mcu_rows = c;
            let plan = Plan::of(Mode::PipelinedGpu, &prep, &trial, 1);
            let out = split::decode(&prep, platform, &trial, &plan, None, ws, &mut image)
                .expect("pipelined decode");
            if out.times.total < best.0 {
                best = (out.times.total, c);
            }
        }
        best_per_image.push(best.1);
    }
    // Largest of the per-image winners (§4.5).
    best_per_image.into_iter().max().unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetjpeg_jpeg::encoder::{encode_rgb, EncodeParams};
    use hetjpeg_jpeg::types::Subsampling;

    #[test]
    fn candidates_halve_down_to_one() {
        assert_eq!(candidate_chunk_rows(32), vec![32, 16, 8, 4, 2, 1]);
        assert_eq!(candidate_chunk_rows(10), vec![10, 5, 2, 1]);
        assert_eq!(candidate_chunk_rows(1), vec![1]);
        assert_eq!(candidate_chunk_rows(0), vec![1]);
    }

    #[test]
    fn tuned_chunk_is_valid_and_beats_whole_image() {
        let mut rgb = vec![0u8; 128 * 256 * 3];
        let mut s = 7u32;
        for v in rgb.iter_mut() {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            *v = (s >> 24) as u8;
        }
        let jpeg = encode_rgb(
            &rgb,
            128,
            256,
            &EncodeParams {
                quality: 85,
                subsampling: Subsampling::S422,
                restart_interval: 0,
            },
        )
        .unwrap();
        let platform = Platform::gtx560();
        let model = platform.untrained_model();
        let chunk = tune_chunk_rows(&platform, &model, &[&jpeg], &mut Workspace::default());
        let prep = Prepared::new(&jpeg).unwrap();
        assert!(chunk >= 1 && chunk <= prep.geom.mcus_y);
        // The tuned chunk must beat (or match) the single-chunk pipeline.
        let time_with = |c: usize| {
            let mut m = model.clone();
            m.chunk_mcu_rows = c;
            let plan = Plan::of(Mode::PipelinedGpu, &prep, &m, 1);
            let mut image = Target::whole(OutputFormat::Rgb);
            let mut ws = Workspace::default();
            (split::decode(&prep, &platform, &m, &plan, None, &mut ws, &mut image))
                .unwrap()
                .times
                .total
        };
        assert!(time_with(chunk) <= time_with(prep.geom.mcus_y) + 1e-12);
    }
}
