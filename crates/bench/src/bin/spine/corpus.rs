//! Workload corpora. Every image comes from a `hetjpeg-corpus` generator;
//! the program under test receives only the encoded bytes. `--seed` keys
//! the generators of five workloads (value noise, whose entropy density —
//! and with it every per-pixel cost — stays within a percent or so from
//! seed to seed while the pixels change) and the presentation order of
//! `hetero_auto`'s stock test set.

use crate::surface::{self, ImageSpec, Pattern, Subsampling};
use crate::workload::Kind;

/// One corpus member.
pub struct Image {
    /// The bytes the program under test decodes.
    pub jpeg: Vec<u8>,
    /// For a progressive image, the baseline encoding of the same pixels
    /// at the same quality and subsampling (same coefficients): what the
    /// baseline-only entry points (`Prepared::new`, `predict`) are given.
    pub twin: Option<Vec<u8>>,
    pub width: usize,
    pub height: usize,
    /// Reference pixels; filled in at set-up by a `Mode::Sequential`
    /// decode on a session of its own.
    pub rgb: Vec<u8>,
}

impl Image {
    pub fn mpx(&self) -> f64 {
        (self.width * self.height) as f64 / 1e6
    }

    /// The baseline-framed bytes of this image's pixels.
    pub fn baseline(&self) -> &[u8] {
        self.twin.as_deref().unwrap_or(&self.jpeg)
    }
}

/// SplitMix64 of `seed + salt`: one generator seed per (run seed, image).
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn noise(octaves: u8, detail: f64) -> Pattern {
    Pattern::ValueNoise { octaves, detail }
}

/// One crop of a workload's master render and how it is encoded.
struct Member {
    width: usize,
    height: usize,
    quality: u8,
    sub: Subsampling,
}

/// The master pattern, whether members are SOF2, and the members. One
/// render per workload, cropped at its four corners (the paper's §5.1 crop
/// procedure), keeps synthesis — most of set-up — cheap.
fn members(kind: Kind) -> (Pattern, bool, Vec<Member>) {
    use Subsampling::{S420, S422, S444};
    let m = |width, height, quality, sub| Member {
        width,
        height,
        quality,
        sub,
    };
    match kind {
        // ≈1 MP, q95 4:4:4, high detail: Huffman and dense-class IDCT do
        // the work, upsampling none. One odd-sized member.
        Kind::LibDense => (
            noise(6, 0.6),
            false,
            vec![
                m(1024, 1024, 95, S444),
                m(1280, 800, 95, S444),
                m(800, 1280, 95, S444),
                m(1023, 999, 95, S444),
            ],
        ),
        // ≈3 MP, q75 4:2:0, low detail: DC-only/2×2 IDCT, h2v2 upsample
        // and colour conversion; 9 MB of output per image.
        Kind::LibSparse => (
            noise(3, 0.35),
            false,
            vec![
                m(2048, 1536, 75, S420),
                m(1536, 2048, 75, S420),
                m(2000, 1504, 75, S420),
                m(2047, 1537, 75, S420),
            ],
        ),
        // ≈1 MP, SOF2 Standard10, q85 4:2:0, full scan script.
        Kind::LibProgressive => (
            noise(6, 0.6),
            true,
            vec![
                m(1024, 1024, 85, S420),
                m(1280, 800, 85, S420),
                m(800, 1280, 85, S420),
                m(1023, 999, 85, S420),
            ],
        ),
        Kind::HeteroAuto => unreachable!("built by hetero_test_set"),
        // Thumbnails of mixed subsampling: decode is a fraction of a
        // millisecond, so serving is nearly the whole latency.
        Kind::ServeSmall => (
            noise(5, 0.6),
            false,
            vec![
                m(160, 120, 85, S420),
                m(240, 160, 85, S422),
                m(320, 200, 85, S444),
                m(200, 150, 85, S420),
            ],
        ),
        // ≈1 MP each: 3 MB row-tile replies.
        Kind::ServeStream => (
            noise(6, 0.6),
            false,
            vec![
                m(1024, 1024, 85, S420),
                m(1280, 800, 85, S422),
                m(800, 1280, 85, S444),
            ],
        ),
    }
}

/// The evaluation corpus of the paper's experiment: the stock
/// `hetjpeg_corpus::test_set` (seven pattern families disjoint from the
/// training set's × the 3×3 crop grid of 128/368/1024 px sides, 4:2:2 q85,
/// ≈0.03–0.6 B/px). Like the paper's it is one fixed set of 63 images, so
/// the virtual figures can be held against Table 2 run after run; the seed
/// picks the order a pass presents them in (a Fisher–Yates shuffle), which
/// is what the session's pools and `Auto`'s prediction cache see.
fn hetero_test_set(seed: u64) -> Vec<Image> {
    let mut out: Vec<Image> = surface::test_jpegs()
        .into_iter()
        .map(|(jpeg, width, height)| Image {
            jpeg,
            twin: None,
            width,
            height,
            rgb: Vec::new(),
        })
        .collect();
    for i in (1..out.len()).rev() {
        let j = (mix(seed, 200 + i as u64) % (i as u64 + 1)) as usize;
        out.swap(i, j);
    }
    out
}

/// Build the corpus of one workload for one seed (references not yet
/// decoded).
pub fn build(kind: Kind, seed: u64) -> Vec<Image> {
    if kind == Kind::HeteroAuto {
        return hetero_test_set(seed);
    }
    let (pattern, progressive, members) = members(kind);
    let mw = members.iter().map(|m| m.width).max().expect("members");
    let mh = members.iter().map(|m| m.height).max().expect("members");
    let master = surface::render(&ImageSpec {
        width: mw,
        height: mh,
        pattern,
        seed: mix(seed, kind as u64),
    });
    members
        .into_iter()
        .enumerate()
        .map(|(i, m)| {
            // Corner i of the master: 0 = top-left … 3 = bottom-right.
            let x0 = (i % 2) * (mw - m.width);
            let y0 = (i / 2 % 2) * (mh - m.height);
            let rgb = surface::crop(&master, mw, mh, x0, y0, m.width, m.height);
            let baseline = surface::encode(&rgb, m.width, m.height, m.quality, m.sub);
            let (jpeg, twin) = if progressive {
                let prog = surface::encode_progressive(&rgb, m.width, m.height, m.quality, m.sub);
                (prog, Some(baseline))
            } else {
                (baseline, None)
            };
            Image {
                jpeg,
                twin,
                width: m.width,
                height: m.height,
                rgb: Vec::new(),
            }
        })
        .collect()
}

/// A small seeded image for probes that need their own input (the 16×16
/// session-cost probe, the carried-forward gates).
pub fn probe_image(
    seed: u64,
    salt: u64,
    width: usize,
    height: usize,
    pattern: Pattern,
    quality: u8,
    sub: Subsampling,
) -> Vec<u8> {
    let rgb = surface::render(&ImageSpec {
        width,
        height,
        pattern,
        seed: mix(seed, 0x9000 + salt),
    });
    surface::encode(&rgb, width, height, quality, sub)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_drives_the_bytes_and_nothing_else_does() {
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_ne!(mix(1, 0), mix(1, 1));
        let a = build(Kind::ServeSmall, 5);
        let b = build(Kind::ServeSmall, 5);
        let c = build(Kind::ServeSmall, 6);
        assert_eq!(a.len(), 4);
        for ((x, y), z) in a.iter().zip(&b).zip(&c) {
            assert_eq!(x.jpeg, y.jpeg);
            assert_ne!(x.jpeg, z.jpeg);
            assert_eq!((x.width, x.height), (z.width, z.height));
        }
    }
}
