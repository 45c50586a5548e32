//! The AVX2 IDCT computes in i32 lanes only for blocks its range guard
//! admits (`dct::simd_islow::i32_lanes_exact`); everything else falls back
//! to the scalar i64 path. The fallback keeps adversarial streams exact,
//! but the speed claim rests on natural images never needing it: this
//! suite decodes photograph-like corpus images at quality 50–100 in every
//! subsampling and demands that the guard admits every block.

use hetjpeg_corpus::{generate_jpeg, ImageSpec, Pattern};
use hetjpeg_jpeg::dct::simd_islow::i32_lanes_exact;
use hetjpeg_jpeg::decoder::Prepared;
use hetjpeg_jpeg::types::Subsampling;

#[test]
fn guard_admits_every_block_of_natural_images() {
    let patterns = [
        Pattern::ValueNoise {
            octaves: 6,
            detail: 0.6,
        },
        Pattern::ValueNoise {
            octaves: 8,
            detail: 0.9,
        },
        Pattern::PhotoLike { detail: 0.7 },
        Pattern::SmoothField,
        Pattern::DetailRamp {
            top: 0.1,
            bottom: 0.95,
        },
    ];
    let mut blocks = 0usize;
    for (pi, &pattern) in patterns.iter().enumerate() {
        let spec = ImageSpec {
            width: 192,
            height: 136,
            pattern,
            seed: 40 + pi as u64,
        };
        for quality in [50u8, 75, 90, 95, 100] {
            for sub in [Subsampling::S444, Subsampling::S422, Subsampling::S420] {
                let jpeg = generate_jpeg(&spec, quality, sub).expect("encode");
                let prep = Prepared::new(&jpeg).expect("parse");
                let (coef, _) = prep.entropy_decode_all().expect("entropy");
                for b in 0..coef.num_blocks() {
                    let planes = &prep.geom.comps;
                    let c = (0..3).rev().find(|&c| b >= planes[c].plane_block_offset);
                    let quant = &prep.quant[c.expect("block in a plane")].values;
                    assert!(
                        i32_lanes_exact(coef.block(b), quant, coef.eob(b)),
                        "{} q{quality} {} block {b}",
                        pattern.name(),
                        sub.notation()
                    );
                    blocks += 1;
                }
            }
        }
    }
    assert!(blocks > 60_000, "{blocks} blocks");
}
