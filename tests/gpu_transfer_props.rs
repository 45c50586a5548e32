//! PR-9 transfer-layer differential & property harness.
//!
//! The GPU H2D path ships coefficients in one of three layouts — `Dense`
//! (64 i16 per block, sparsity-blind kernels), `Sidecar` (dense payload +
//! 1-byte EOB per block) and `Compacted` (only each block's ≤EOB class
//! corner plus a u32 offset-table word per block). This suite proves the
//! layouts are *interchangeable representations of the same decode*:
//!
//! * a differential matrix (subsampling × quality × odd dims × restart ×
//!   progressive-prefix) asserting bit-identical pixels across all three
//!   layouts and both kernel plans, with H2D byte counts matching the
//!   EOB-class histogram-scan prediction **exactly**;
//! * session-level agreement across every decode mode and SIMD level on
//!   the default (compacted) path, including exact error-text agreement on
//!   corrupted streams;
//! * proptest roundtrip oracles for pack→unpack at every EOB class,
//!   including the all-DC-only / all-dense / zero-block degenerate corners
//!   and the u32 offset-table overflow bound.
//!
//! Everything is seeded; failures reproduce from the printed case label.

use hetjpeg_core::gpu_decode::{GpuContext, KernelPlan, TransferMode};
use hetjpeg_core::platform::Platform;
use hetjpeg_core::schedule::Mode;
use hetjpeg_core::{DecodeOptions, Decoder, SimdLevel};
use hetjpeg_corpus::{generate_progressive_jpeg, generate_rgb, ImageSpec, Pattern};
use hetjpeg_jpeg::coef::{compact_packed_blocks, unpack_compacted_blocks, CoefBuffer};
use hetjpeg_jpeg::dct::sparse::{class_for_eob, CLASS_COEFS};
use hetjpeg_jpeg::decoder::{decode, Prepared};
use hetjpeg_jpeg::encoder::{encode_rgb, EncodeParams};
use hetjpeg_jpeg::geometry::Geometry;
use hetjpeg_jpeg::metrics::compacted_coefs;
use hetjpeg_jpeg::progressive::{self, ScanPreset};
use hetjpeg_jpeg::types::Subsampling;
use proptest::prelude::*;

const ALL_TRANSFERS: [TransferMode; 3] = [
    TransferMode::Dense,
    TransferMode::Sidecar,
    TransferMode::Compacted,
];

/// Deterministic splitmix64 for in-test value generation.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

fn encode(spec: &ImageSpec, quality: u8, sub: Subsampling, restart: usize) -> Vec<u8> {
    let rgb = generate_rgb(spec);
    encode_rgb(
        &rgb,
        spec.width as u32,
        spec.height as u32,
        &EncodeParams {
            quality,
            subsampling: sub,
            restart_interval: restart,
        },
    )
    .expect("encode")
}

/// Offsets must be the exclusive scan of per-block class sizes: entry `i`
/// plus block `i`'s corner size lands exactly on entry `i + 1` (or the
/// payload end), so every block is in bounds and the table is monotone.
fn assert_offsets_are_exclusive_scan(payload_len: usize, offsets: &[u32], eobs: &[u8]) {
    let mut expect = 0usize;
    for (i, (&off, &eob)) in offsets.iter().zip(eobs).enumerate() {
        assert_eq!(off as usize, expect, "offset {i} breaks the scan");
        expect += CLASS_COEFS[class_for_eob(eob).index()];
    }
    assert_eq!(expect, payload_len, "scan total must equal the payload");
}

/// The differential matrix core: subsampling × quality × (odd dims,
/// restart) × transfer layout × kernel plan, every cell bit-identical to
/// the scalar reference, with dense/sidecar/compacted byte counts matching
/// the histogram-scan prediction exactly.
#[test]
fn transfer_layouts_decode_bit_identically_across_matrix() {
    // One device context per layout serves the whole matrix, so every cell
    // after the first also decodes on buffers an earlier shape left behind.
    let mut devices = ALL_TRANSFERS.map(|mode| GpuContext::new(&Platform::gtx560(), mode));
    for sub in [Subsampling::S444, Subsampling::S422, Subsampling::S420] {
        for quality in [35u8, 80, 95] {
            for (w, h, restart) in [(97usize, 61usize, 0usize), (64, 48, 3)] {
                let label = format!("{sub:?} q{quality} {w}x{h} r{restart}");
                let spec = ImageSpec {
                    width: w,
                    height: h,
                    pattern: Pattern::PhotoLike { detail: 0.6 },
                    seed: 0x9E00 + quality as u64,
                };
                let jpeg = encode(&spec, quality, sub, restart);
                let reference = decode(&jpeg).expect("reference").data;
                let prep = Prepared::new(&jpeg).expect("parse");
                let (coef, metrics) = prep.entropy_decode_all().expect("entropy");
                let blocks = prep.geom.blocks_in_mcu_rows(0, prep.geom.mcus_y);

                // The unmerged ablation plan exists for 4:2:2 only.
                let plans: &[KernelPlan] = if sub == Subsampling::S422 {
                    &[KernelPlan::Merged, KernelPlan::Unmerged]
                } else {
                    &[KernelPlan::Merged]
                };
                let mut h2d = Vec::new();
                let mut rgb = vec![0u8; reference.len()];
                for device in &mut devices {
                    let mode = device.transfer_mode();
                    for &plan in plans {
                        rgb.fill(0);
                        let res = device
                            .decode_region(&prep, &coef, 0, prep.geom.mcus_y, 8, plan, &mut rgb)
                            .expect("plan supported");
                        assert_eq!(rgb, reference, "{label} {mode:?} {plan:?}");
                        if plan == KernelPlan::Merged {
                            h2d.push(res.h2d_bytes);
                        }
                    }
                }

                // Byte accounting: dense and sidecar ship the full 128 B
                // per block (+ the 1 B sidecar each — Dense synthesizes an
                // all-dense one); compacted ships exactly the histogram-
                // scanned corner count plus 4 B offset word and 1 B EOB
                // per block.
                let (dense, sidecar, compacted) = (h2d[0], h2d[1], h2d[2]);
                assert_eq!(dense, sidecar, "{label}");
                assert_eq!(dense, blocks * 128 + blocks, "{label}");
                let predicted = compacted_coefs(&metrics.eob_class_totals()) as usize;
                assert_eq!(compacted, predicted * 2 + blocks * 4 + blocks, "{label}");
            }
        }
    }
}

/// Progressive column of the matrix: a prefix render's coefficient state
/// (unusual EOB mixes — DC-only after the first scan, refined bands later)
/// must decode identically under all three layouts, and its compacted pack
/// must roundtrip and match the per-row histogram scan.
#[test]
fn progressive_prefix_transfers_agree_and_roundtrip() {
    let mut devices = ALL_TRANSFERS.map(|mode| GpuContext::new(&Platform::gtx560(), mode));
    for preset in [ScanPreset::Standard10, ScanPreset::Spectral4] {
        let spec = ImageSpec {
            width: 81,
            height: 55,
            pattern: Pattern::PhotoLike { detail: 0.7 },
            seed: 0xB00C,
        };
        let prog = generate_progressive_jpeg(&spec, 85, Subsampling::S420, preset).expect("prog");
        let parsed = progressive::parse_progressive(&prog).expect("parse");
        let prep = Prepared::from_progressive(&parsed).expect("prepare");
        let n = parsed.scans.len();
        for k in [1usize, n / 2, n] {
            let label = format!("{preset:?} prefix {k}/{n}");
            let mut coef = CoefBuffer::new(&prep.geom);
            let outcome = progressive::decode_scans(&parsed, &prep.geom, &mut coef, Some(k), false)
                .expect("scans");

            let renders: Vec<Vec<u8>> = devices
                .iter_mut()
                .map(|device| {
                    let rows = prep.geom.mcus_y;
                    let mut rgb = vec![0u8; prep.geom.rgb_bytes_in_mcu_rows(0, rows)];
                    device
                        .decode_region(&prep, &coef, 0, rows, 8, KernelPlan::Merged, &mut rgb)
                        .expect("merged plan");
                    rgb
                })
                .collect();
            assert_eq!(renders[0], renders[1], "{label} dense vs sidecar");
            assert_eq!(renders[0], renders[2], "{label} dense vs compacted");

            let (mut payload, mut offsets) = (Vec::new(), Vec::new());
            coef.pack_compacted_into(&prep.geom, 0, prep.geom.mcus_y, &mut payload, &mut offsets);
            let predicted: u64 = outcome
                .rows
                .iter()
                .map(|r| compacted_coefs(&r.eob_classes))
                .sum();
            assert_eq!(payload.len() as u64, predicted, "{label} histogram scan");

            let dense = coef.pack_mcu_rows(&prep.geom, 0, prep.geom.mcus_y);
            let mut eobs = Vec::new();
            coef.pack_eobs_mcu_rows_into(&prep.geom, 0, prep.geom.mcus_y, &mut eobs);
            assert_offsets_are_exclusive_scan(payload.len(), &offsets, &eobs);
            assert_eq!(
                unpack_compacted_blocks(&payload, &offsets, &eobs),
                dense,
                "{label} roundtrip"
            );
        }
    }
}

/// Session-level agreement on the default (compacted) transfer path: every
/// decode mode × SIMD dispatch produces the reference bytes.
#[test]
fn decoder_modes_and_simd_levels_agree_on_default_transfer() {
    for (w, h, sub, quality, restart) in [
        (97usize, 61usize, Subsampling::S420, 80u8, 3usize),
        (50, 39, Subsampling::S444, 90, 0),
    ] {
        let spec = ImageSpec {
            width: w,
            height: h,
            pattern: Pattern::PhotoLike { detail: 0.5 },
            seed: 0x51AB,
        };
        let jpeg = encode(&spec, quality, sub, restart);
        let reference = decode(&jpeg).expect("reference").data;
        let decoder = Decoder::builder()
            .platform(Platform::gtx560())
            .threads(2)
            .build()
            .expect("decoder");
        for mode in [
            Mode::Sequential,
            Mode::Simd,
            Mode::Gpu,
            Mode::PipelinedGpu,
            Mode::Sps,
            Mode::Pps,
            Mode::ParallelEntropy,
            Mode::Auto,
        ] {
            for force in [None, Some(SimdLevel::Scalar)] {
                let opts = DecodeOptions {
                    mode,
                    force_simd_level: force,
                    ..DecodeOptions::default()
                };
                let out = decoder.decode(&jpeg, opts).expect("decode");
                assert_eq!(
                    out.image.data, reference,
                    "{sub:?} q{quality} r{restart} {mode:?} force={force:?}"
                );
            }
        }
    }
}

/// Exact error-text agreement: a corrupted stream fails identically —
/// same `Ok`/`Err`, same bytes or same error *text* — whatever decode mode
/// carries it. The entropy stage is shared, so no transfer layout may leak
/// its own failure wording.
#[test]
fn corrupt_streams_error_with_identical_text_across_modes() {
    let spec = ImageSpec {
        width: 73,
        height: 49,
        pattern: Pattern::PhotoLike { detail: 0.6 },
        seed: 0xDEAD,
    };
    let jpeg = encode(&spec, 82, Subsampling::S420, 2);
    let decoder = Decoder::builder()
        .platform(Platform::gtx560())
        .threads(2)
        .build()
        .expect("decoder");
    let modes = [
        Mode::Sequential,
        Mode::Simd,
        Mode::Gpu,
        Mode::PipelinedGpu,
        Mode::Sps,
        Mode::Pps,
    ];

    let mut rng = Rng(0xC0FFEE);
    let mut cases: Vec<(String, Vec<u8>)> = Vec::new();
    // Truncations: header, mid-entropy, just shy of EOI.
    for cut in [18usize, jpeg.len() / 3, jpeg.len() * 2 / 3, jpeg.len() - 2] {
        cases.push((format!("truncate@{cut}"), jpeg[..cut].to_vec()));
    }
    // Bit flips scattered over the stream.
    for _ in 0..12 {
        let pos = rng.range(2, jpeg.len() as u64 - 1) as usize;
        let bit = rng.range(0, 7) as u8;
        let mut bad = jpeg.clone();
        bad[pos] ^= 1 << bit;
        cases.push((format!("flip@{pos}.{bit}"), bad));
    }

    for (label, data) in &cases {
        let outcomes: Vec<Result<Vec<u8>, String>> = modes
            .iter()
            .map(|&mode| {
                decoder
                    .decode(data, DecodeOptions::with_mode(mode))
                    .map(|o| o.image.data)
                    .map_err(|e| e.to_string())
            })
            .collect();
        for (mode, outcome) in modes.iter().zip(&outcomes).skip(1) {
            assert_eq!(
                outcome, &outcomes[0],
                "{label}: {mode:?} disagrees with Sequential"
            );
        }
    }
}

/// Degenerate corners of the compacted layout, pinned deterministically:
/// zero blocks, all-DC-only, and all-dense (where the compacted payload is
/// byte-identical to the dense one — the corner *is* the block).
#[test]
fn compacted_degenerate_corners() {
    let (mut payload, mut offsets) = (Vec::new(), Vec::new());

    // Zero blocks: empty everything, unpack of nothing is nothing.
    compact_packed_blocks(&[], &[], &mut payload, &mut offsets);
    assert!(payload.is_empty() && offsets.is_empty());
    assert!(unpack_compacted_blocks(&payload, &offsets, &[]).is_empty());

    // All DC-only: one i16 per block, offsets are 0, 1, 2, ...
    let n = 37usize;
    let mut packed = vec![0i16; n * 64];
    for (i, b) in packed.chunks_exact_mut(64).enumerate() {
        b[0] = i as i16 - 18;
    }
    let eobs = vec![0u8; n];
    compact_packed_blocks(&packed, &eobs, &mut payload, &mut offsets);
    assert_eq!(payload.len(), n);
    assert_eq!(offsets, (0..n as u32).collect::<Vec<_>>());
    assert_eq!(unpack_compacted_blocks(&payload, &offsets, &eobs), packed);

    // All dense: the 8×8 corner is the whole block, so the compacted
    // payload must equal the dense packing byte for byte.
    let mut rng = Rng(0xD15C);
    for v in packed.iter_mut() {
        *v = rng.range(0, 4093) as i16 - 2047;
    }
    let eobs = vec![63u8; n];
    compact_packed_blocks(&packed, &eobs, &mut payload, &mut offsets);
    assert_eq!(payload, packed);
    assert_eq!(offsets, (0..n as u32).map(|i| i * 64).collect::<Vec<_>>());
    assert_eq!(unpack_compacted_blocks(&payload, &offsets, &eobs), packed);
}

fn subsampling_strategy() -> impl Strategy<Value = Subsampling> {
    prop_oneof![
        Just(Subsampling::S444),
        Just(Subsampling::S422),
        Just(Subsampling::S420),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Pack→unpack roundtrips for arbitrary EOB-class mixes: block count,
    /// class sequence and corner contents are all random; the payload size
    /// must equal the class-histogram prediction exactly and the unpack
    /// oracle must reproduce the dense blocks bit for bit.
    #[test]
    fn compacted_blocks_roundtrip_every_class_mix(
        classes in prop::collection::vec(0usize..4, 0..200),
        seed in any::<u64>(),
    ) {
        let mut rng = Rng(seed);
        let n = classes.len();
        let mut packed = vec![0i16; n * 64];
        let mut eobs = Vec::with_capacity(n);
        for (i, &class) in classes.iter().enumerate() {
            // An EOB representative of the class, and nonzeros confined to
            // the class's k×k corner — the invariant the entropy decoder's
            // EOB bound guarantees for real blocks.
            let (eob, k) = match class {
                0 => (0u64, 1usize),
                1 => (rng.range(1, 2), 2),
                2 => (rng.range(3, 9), 4),
                _ => (rng.range(10, 63), 8),
            };
            eobs.push(eob as u8);
            let block = &mut packed[i * 64..i * 64 + 64];
            for row in 0..k {
                for col in 0..k {
                    block[row * 8 + col] = rng.range(0, 4093) as i16 - 2047;
                }
            }
        }

        let (mut payload, mut offsets) = (Vec::new(), Vec::new());
        compact_packed_blocks(&packed, &eobs, &mut payload, &mut offsets);

        let predicted: usize = classes.iter().map(|&c| CLASS_COEFS[c]).sum();
        prop_assert_eq!(payload.len(), predicted);
        prop_assert_eq!(offsets.len(), n);
        assert_offsets_are_exclusive_scan(payload.len(), &offsets, &eobs);
        prop_assert_eq!(unpack_compacted_blocks(&payload, &offsets, &eobs), packed);
    }

    /// Whole-image packs match the histogram-scan prediction *exactly* —
    /// totals, per-MCU-row windows, and the unpack oracle — for random
    /// content, geometry, subsampling and quality.
    #[test]
    fn image_pack_matches_histogram_scan_prediction(
        w in 24usize..90,
        h in 24usize..90,
        sub in subsampling_strategy(),
        quality in 35u8..=95,
        detail in 0.2f64..0.9,
        seed in any::<u64>(),
    ) {
        let spec = ImageSpec { width: w, height: h, pattern: Pattern::PhotoLike { detail }, seed };
        let jpeg = encode(&spec, quality, sub, 0);
        let prep = Prepared::new(&jpeg).expect("parse");
        let geom = &prep.geom;
        let (coef, metrics) = prep.entropy_decode_all().expect("entropy");

        let (mut payload, mut offsets) = (Vec::new(), Vec::new());
        coef.pack_compacted_into(geom, 0, geom.mcus_y, &mut payload, &mut offsets);
        prop_assert_eq!(offsets.len(), geom.blocks_in_mcu_rows(0, geom.mcus_y));

        // Totals: whole-image histogram and the row-offset scan agree with
        // the emitted payload.
        prop_assert_eq!(payload.len() as u64, compacted_coefs(&metrics.eob_class_totals()));
        let row_off = metrics.compacted_row_offsets();
        prop_assert_eq!(*row_off.last().expect("rows"), payload.len() as u64);

        // A mid-image single-row window packs to its scan delta.
        let r = geom.mcus_y / 2;
        let (mut rp, mut ro) = (Vec::new(), Vec::new());
        coef.pack_compacted_into(geom, r, r + 1, &mut rp, &mut ro);
        prop_assert_eq!(rp.len() as u64, row_off[r + 1] - row_off[r]);

        // Unpack oracle reproduces the dense layout.
        let dense = coef.pack_mcu_rows(geom, 0, geom.mcus_y);
        let mut eobs = Vec::new();
        coef.pack_eobs_mcu_rows_into(geom, 0, geom.mcus_y, &mut eobs);
        assert_offsets_are_exclusive_scan(payload.len(), &offsets, &eobs);
        prop_assert_eq!(unpack_compacted_blocks(&payload, &offsets, &eobs), dense);
    }

    /// Offset-table overflow bound: the packer indexes the payload with
    /// `u32` words in i16 units, and asserts on overflow. Worst case is an
    /// all-dense image (64 i16 per block), so any geometry up to ~400 MPx
    /// — far beyond every admitted image — stays clear of the bound.
    #[test]
    fn offset_table_fits_u32_for_any_admitted_geometry(
        w in 16usize..20_000,
        h in 16usize..20_000,
        sub in subsampling_strategy(),
    ) {
        let geom = Geometry::new(w, h, sub).expect("geometry");
        let worst = geom.blocks_in_mcu_rows(0, geom.mcus_y) as u64 * 64;
        prop_assert!(worst <= u32::MAX as u64,
            "{w}x{h} {sub:?}: worst-case payload {worst} overflows the u32 table");
    }
}
