//! PR-5 conformance / differential-fuzz suite.
//!
//! A seeded corpus of randomly **truncated** and **bit-flipped** JPEG
//! streams is decoded under `Strictness::Tolerant`:
//!
//! * the decoder must never panic — corrupt input is an `Err` or a
//!   salvaged partial image, never a crash (the `max_pixels` guard bounds
//!   damaged SOF dimensions);
//! * forced-scalar and native SIMD dispatch must agree **exactly** on the
//!   outcome — same `Ok`/`Err`, same dimensions, same bytes. With PR 5 the
//!   IDCT itself is dispatched, so this extends the guarantee of the
//!   `DecodeOptions::force_simd` hook to the full decode path (bit
//!   flips produce exactly the extreme coefficients the vector kernels'
//!   i32-multiplicand range proof must hold for).
//!
//! Everything is seeded (no wall-clock, no external corpus): failures
//! reproduce from the printed case label alone.

use hetjpeg_core::platform::Platform;
use hetjpeg_core::schedule::Mode;
use hetjpeg_core::{DecodeOptions, Decoder, SimdLevel};
use hetjpeg_jpeg::encoder::{encode_rgb, EncodeParams};
use hetjpeg_jpeg::types::Subsampling;

/// Deterministic splitmix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn base_corpus() -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for (sub, interval, q) in [
        (Subsampling::S444, 0usize, 88u8),
        (Subsampling::S422, 4, 80),
        (Subsampling::S420, 0, 92),
        (Subsampling::S420, 3, 75),
    ] {
        let (w, h) = (97usize, 61usize); // odd dims: ragged MCU edges
        let rgb = hetjpeg_jpeg::testutil::noise_rgb(w * h, 0x5EED_0001);
        let jpeg = encode_rgb(
            &rgb,
            w as u32,
            h as u32,
            &EncodeParams {
                quality: q,
                subsampling: sub,
                restart_interval: interval,
            },
        )
        .expect("encode");
        out.push((format!("{}-dri{}-q{}", sub.notation(), interval, q), jpeg));
    }
    out
}

/// One mutated stream per (base, seed): truncation, bit flips, or both.
fn mutate(base: &[u8], rng: &mut Rng) -> Vec<u8> {
    let mut data = base.to_vec();
    match rng.below(3) {
        0 => {
            // Truncate somewhere after the first few header bytes.
            let cut = 4 + rng.below(data.len() - 4);
            data.truncate(cut);
        }
        1 => {
            // Flip 1..=8 bits anywhere (headers included).
            for _ in 0..=rng.below(8) {
                let byte = rng.below(data.len());
                data[byte] ^= 1 << rng.below(8);
            }
        }
        _ => {
            // Both: flip then truncate.
            for _ in 0..=rng.below(4) {
                let byte = rng.below(data.len());
                data[byte] ^= 1 << rng.below(8);
            }
            let cut = 4 + rng.below(data.len() - 4);
            data.truncate(cut);
        }
    }
    data
}

fn decoder() -> Decoder {
    Decoder::builder()
        .platform(Platform::gtx560())
        .threads(2)
        .build()
        .expect("valid configuration")
}

/// Decode a (possibly corrupt) stream at a forced level; panics propagate
/// to the test as failures.
fn outcome(
    dec: &Decoder,
    data: &[u8],
    mode: Mode,
    level: SimdLevel,
) -> Result<(usize, usize, Vec<u8>), String> {
    let opts = DecodeOptions::with_mode(mode)
        .tolerant()
        .max_pixels(1 << 22)
        .force_simd(level);
    dec.decode(data, opts)
        .map(|o| (o.image.width, o.image.height, o.image.data))
        .map_err(|e| e.to_string())
}

/// The fuzz matrix: 4 base streams × 64 seeded mutations × {Simd, Auto},
/// each decoded forced-scalar and at the native level; outcomes must agree
/// exactly and nothing may panic.
#[test]
fn corrupt_streams_never_panic_and_levels_agree() {
    let native = SimdLevel::detect();
    let dec = decoder();
    let mut rng = Rng(0xC0FFEE);
    let mut salvaged = 0usize;
    let mut rejected = 0usize;
    for (name, base) in base_corpus() {
        for case in 0..64 {
            let data = mutate(&base, &mut rng);
            for mode in [Mode::Simd, Mode::Auto] {
                let scalar = outcome(&dec, &data, mode, SimdLevel::Scalar);
                let vector = outcome(&dec, &data, mode, native);
                match (&scalar, &vector) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(
                            a,
                            b,
                            "{name} case {case} {mode:?}: scalar and {} outputs differ",
                            native.name()
                        );
                        salvaged += 1;
                    }
                    (Err(a), Err(b)) => {
                        assert_eq!(
                            a, b,
                            "{name} case {case} {mode:?}: error text diverged across levels"
                        );
                        rejected += 1;
                    }
                    _ => panic!(
                        "{name} case {case} {mode:?}: scalar {scalar:?} vs {} {vector:?}",
                        native.name()
                    ),
                }
            }
        }
    }
    // The mutator must actually exercise both salvage and rejection, or
    // the matrix is vacuous.
    assert!(salvaged > 0, "no mutated stream decoded tolerantly");
    assert!(rejected > 0, "no mutated stream was rejected");
}

/// The speculative-path fuzz axis (ISSUE 6): corrupt restart-free streams
/// decoded under `Mode::ParallelEntropy` — which chunks the scan and
/// speculates on 4 threads — must never panic and must agree **exactly**
/// with the sequential pass: same `Ok` bytes, same error text. Stitch
/// reconciliation guarantees errors surface only from the exact re-decode,
/// so mis-phased speculative garbage can neither mask nor invent one.
#[test]
fn speculative_entropy_agrees_with_sequential_on_corrupt_streams() {
    let spec_dec = Decoder::builder()
        .platform(Platform::gtx560())
        .threads(4)
        .build()
        .expect("valid configuration");
    let seq_dec = decoder();
    let native = SimdLevel::detect();
    let mut rng = Rng(0xDECADE);
    let mut salvaged = 0usize;
    let mut rejected = 0usize;
    for (name, base) in base_corpus() {
        if hetjpeg_jpeg::markers::parse_jpeg(&base)
            .map(|p| p.frame.restart_interval != 0)
            .unwrap_or(true)
        {
            continue; // this axis targets the no-restart speculative path
        }
        for case in 0..64 {
            let data = mutate(&base, &mut rng);
            let spec = outcome(&spec_dec, &data, Mode::ParallelEntropy, native);
            let seq = outcome(&seq_dec, &data, Mode::Sequential, native);
            match (&spec, &seq) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(
                        a, b,
                        "{name} case {case}: speculative and sequential salvages differ"
                    );
                    salvaged += 1;
                }
                (Err(a), Err(b)) => {
                    assert_eq!(
                        a, b,
                        "{name} case {case}: error text diverged from sequential"
                    );
                    rejected += 1;
                }
                _ => panic!("{name} case {case}: speculative {spec:?} vs sequential {seq:?}"),
            }
        }
    }
    assert!(salvaged > 0, "no corrupt stream decoded tolerantly");
    assert!(rejected > 0, "no corrupt stream was rejected");
}

/// Pure truncation sweep: every cut point of one stream (not just random
/// ones) decodes tolerantly without panicking, at every available level,
/// with identical salvages.
#[test]
fn every_truncation_point_is_safe() {
    let (_, base) = &base_corpus()[1]; // 4:2:2 with restarts
    let dec = decoder();
    let native = SimdLevel::detect();
    // Every prefix would be O(n²) work; step through the stream instead,
    // plus the first 64 cuts densely (header edge cases).
    let cuts: Vec<usize> = (0..base.len().min(64))
        .chain((64..base.len()).step_by(97))
        .collect();
    for cut in cuts {
        let data = &base[..cut];
        let scalar = outcome(&dec, data, Mode::Simd, SimdLevel::Scalar);
        let vector = outcome(&dec, data, Mode::Simd, native);
        match (&scalar, &vector) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "cut {cut}: salvage differs"),
            (Err(a), Err(b)) => assert_eq!(a, b, "cut {cut}: error differs"),
            _ => panic!("cut {cut}: {scalar:?} vs {vector:?}"),
        }
    }
}

/// Untouched streams through the same harness: the tolerant path must not
/// change valid decodes, and levels agree on them too (the fuzz suite's
/// control group).
#[test]
fn pristine_streams_are_unaffected_by_the_harness() {
    let dec = decoder();
    let native = SimdLevel::detect();
    for (name, base) in base_corpus() {
        let strict = dec
            .decode(&base, DecodeOptions::with_mode(Mode::Simd))
            .unwrap_or_else(|e| panic!("{name}: strict decode failed: {e}"));
        let tolerant = outcome(&dec, &base, Mode::Simd, native).expect("tolerant ok");
        assert_eq!(tolerant.2, strict.image.data, "{name}: tolerant != strict");
        let scalar = outcome(&dec, &base, Mode::Simd, SimdLevel::Scalar).expect("scalar ok");
        assert_eq!(scalar.2, strict.image.data, "{name}: scalar != native");
    }
}

fn progressive_corpus() -> Vec<(String, Vec<u8>)> {
    use hetjpeg_jpeg::progressive::{encode_rgb_progressive, ScanPreset};
    let mut out = Vec::new();
    for (sub, q, preset, interval) in [
        (Subsampling::S420, 85u8, ScanPreset::Standard10, 0usize),
        (Subsampling::S444, 90, ScanPreset::Spectral4, 0),
        (Subsampling::S422, 78, ScanPreset::Standard10, 0),
        (Subsampling::S420, 85, ScanPreset::Standard10, 3),
        (Subsampling::S444, 90, ScanPreset::Spectral4, 3),
    ] {
        let (w, h) = (97usize, 61usize); // odd dims: ragged MCU edges
        let rgb = hetjpeg_jpeg::testutil::noise_rgb(w * h, 0x5EED_0007);
        let jpeg = encode_rgb_progressive(
            &rgb,
            w as u32,
            h as u32,
            &EncodeParams {
                quality: q,
                subsampling: sub,
                restart_interval: interval,
            },
            preset,
        )
        .expect("encode progressive");
        let name = format!("prog-{}-q{}-{:?}-dri{interval}", sub.notation(), q, preset);
        out.push((name, jpeg));
    }
    out
}

/// The PR-7 fuzz axis: truncation cuts placed *at and around every scan
/// boundary* of progressive streams (scan header starts, scan entropy
/// midpoints, scan ends — the exact places where multi-scan state is
/// half-built) plus dense header cuts. Tolerant decodes must never panic
/// and forced-scalar vs native dispatch must agree exactly on every
/// salvage and every rejection.
#[test]
fn progressive_scan_boundary_truncations_are_safe() {
    let dec = decoder();
    let native = SimdLevel::detect();
    let mut salvaged = 0usize;
    let mut rejected = 0usize;
    for (name, base) in progressive_corpus() {
        let parsed =
            hetjpeg_jpeg::progressive::parse_progressive(&base).expect("pristine stream parses");
        let mut cuts: Vec<usize> = (2..48).collect(); // dense header sweep
        for scan in &parsed.scans {
            let start = scan.data_offset;
            let end = scan.data_offset + scan.data.len();
            for c in [
                start.saturating_sub(3),
                start.saturating_sub(1),
                start,
                start + 1,
                (start + end) / 2,
                end.saturating_sub(1),
                end,
                end + 1,
            ] {
                cuts.push(c.min(base.len()));
            }
        }
        cuts.sort_unstable();
        cuts.dedup();
        for &cut in &cuts {
            let data = &base[..cut];
            for mode in [Mode::Simd, Mode::Auto] {
                let scalar = outcome(&dec, data, mode, SimdLevel::Scalar);
                let vector = outcome(&dec, data, mode, native);
                match (&scalar, &vector) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(
                            a,
                            b,
                            "{name} cut {cut} {mode:?}: scalar and {} salvages differ",
                            native.name()
                        );
                        salvaged += 1;
                    }
                    (Err(a), Err(b)) => {
                        assert_eq!(
                            a, b,
                            "{name} cut {cut} {mode:?}: error text diverged across levels"
                        );
                        rejected += 1;
                    }
                    _ => panic!(
                        "{name} cut {cut} {mode:?}: scalar {scalar:?} vs {} {vector:?}",
                        native.name()
                    ),
                }
            }
        }
    }
    assert!(salvaged > 0, "no truncated progressive stream salvaged");
    assert!(rejected > 0, "no truncated progressive stream rejected");
}

/// Seeded random mutations (truncation, bit flips, both) of progressive
/// streams through the same differential harness as the baseline matrix.
#[test]
fn corrupt_progressive_streams_never_panic_and_levels_agree() {
    let native = SimdLevel::detect();
    let dec = decoder();
    let mut rng = Rng(0x5CA7_7E12);
    let mut decided = 0usize;
    let corpus = progressive_corpus();
    for (name, base) in &corpus {
        for case in 0..48 {
            let data = mutate(base, &mut rng);
            let scalar = outcome(&dec, &data, Mode::Auto, SimdLevel::Scalar);
            let vector = outcome(&dec, &data, Mode::Auto, native);
            match (&scalar, &vector) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a, b, "{name} case {case}: salvages differ across levels");
                    decided += 1;
                }
                (Err(a), Err(b)) => {
                    assert_eq!(a, b, "{name} case {case}: error text diverged");
                    decided += 1;
                }
                _ => panic!(
                    "{name} case {case}: scalar {scalar:?} vs {} {vector:?}",
                    native.name()
                ),
            }
        }
    }
    assert_eq!(
        decided,
        corpus.len() * 48,
        "every case must resolve consistently"
    );
}

/// Pristine progressive streams through the fuzz harness: tolerant
/// decoding and forced-scalar dispatch must not change a valid multi-scan
/// decode (the progressive control group).
#[test]
fn pristine_progressive_streams_are_unaffected_by_the_harness() {
    let dec = decoder();
    let native = SimdLevel::detect();
    for (name, base) in progressive_corpus() {
        let strict = dec
            .decode(&base, DecodeOptions::with_mode(Mode::Simd))
            .unwrap_or_else(|e| panic!("{name}: strict decode failed: {e}"));
        assert!(
            !strict.truncated,
            "{name}: pristine stream marked truncated"
        );
        let tolerant = outcome(&dec, &base, Mode::Simd, native).expect("tolerant ok");
        assert_eq!(tolerant.2, strict.image.data, "{name}: tolerant != strict");
        let scalar = outcome(&dec, &base, Mode::Simd, SimdLevel::Scalar).expect("scalar ok");
        assert_eq!(scalar.2, strict.image.data, "{name}: scalar != native");
    }
}

/// Every cut point through the first SOS header plus 64 entropy bytes, of
/// both frame kinds with and without DRI, decoded strict and tolerant:
/// nothing may panic and the session must never be poisoned. The header
/// readers once indexed a DRI payload past the end of a cut SOF2 stream.
#[test]
fn header_cut_points_never_panic_or_poison() {
    let dec = decoder();
    let mut corpus = base_corpus();
    corpus.extend(progressive_corpus());
    for (name, base) in &corpus {
        let mut segs = hetjpeg_jpeg::markers::Segments::new(base).expect("SOI");
        while segs.next_segment().expect("header").marker != hetjpeg_jpeg::markers::m::SOS {}
        let end = (segs.offset() + 64).min(base.len());
        for cut in 0..=end {
            for opts in [
                DecodeOptions::default(),
                DecodeOptions::default().tolerant(),
            ] {
                let decoded = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    dec.decode(&base[..cut], opts.max_pixels(1 << 22)).is_ok()
                }));
                assert!(decoded.is_ok(), "{name} cut {cut}: decode panicked");
                assert!(!dec.is_poisoned(), "{name} cut {cut}: session poisoned");
            }
        }
    }
}
