//! Whole-image decoding and the region-addressable parallel phase used by
//! the heterogeneous scheduler.
//!
//! Mirroring the paper's re-engineered libjpeg-turbo (§3), decoding is split
//! into:
//!
//! 1. a strictly sequential **entropy phase** ([`crate::entropy`]) that fills
//!    a whole-image [`CoefBuffer`], and
//! 2. a data-parallel **parallel phase** (dequantization, IDCT, upsampling,
//!    color conversion) that can run over any horizontal band of MCU rows:
//!    one render loop ([`simd::render_rows`]) parameterised by kernel level
//!    ([`kernels::SimdLevel`]) and output sink, plus the three-pass scalar
//!    oracle it is tested against ([`stages`]).
//!
//! [`decode`] runs the oracle and [`decode_simd`] the loop at the host's
//! best level; both produce identical bytes.

pub mod kernels;
pub mod simd;
pub mod stages;

use crate::coef::CoefBuffer;
use crate::color::YccTables;
use crate::entropy::{EntropyDecoder, HuffmanTables};
use crate::error::{Error, Result};
use crate::geometry::Geometry;
use crate::markers::{parse_jpeg, ParsedJpeg};
use crate::metrics::EntropyMetrics;
use crate::quant::QuantTable;
use crate::types::RgbImage;
use std::sync::OnceLock;

/// A parsed image plus everything resolved for decoding: geometry,
/// per-component quantization tables, color LUTs and — on first use — the
/// Huffman decode tables.
pub struct Prepared<'a> {
    /// Parsed marker structure.
    pub parsed: ParsedJpeg<'a>,
    /// Derived coordinate algebra.
    pub geom: Geometry,
    /// Quantization table per component (resolved from DQT slots).
    pub quant: [QuantTable; 3],
    /// Color conversion lookup tables.
    pub ycc: YccTables,
    /// Huffman decode tables, built by the first [`Self::huffman_tables`]
    /// call so header-only callers never pay for them.
    huffman: OnceLock<Result<HuffmanTables>>,
}

impl<'a> Prepared<'a> {
    /// Parse headers and resolve tables.
    pub fn new(data: &'a [u8]) -> Result<Self> {
        Self::from_parsed(parse_jpeg(data)?)
    }

    /// Resolve geometry and tables for a parsed *progressive* stream. The
    /// synthesized `parsed` carries an empty baseline scan: the progressive
    /// subsystem ([`crate::progressive`]) decodes the real scans into the
    /// coefficient buffer, and only the resolved geometry, quantization
    /// tables and density estimate are consumed downstream — calling
    /// [`Self::entropy_decoder`] on this value would decode nothing.
    pub fn from_progressive(prog: &crate::progressive::ProgressiveParsed<'a>) -> Result<Self> {
        Self::from_parsed(ParsedJpeg {
            frame: prog.frame.clone(),
            quant: prog.quant.clone(),
            dc_specs: [None, None, None, None],
            ac_specs: [None, None, None, None],
            scan_data: &[],
            file_size: prog.file_size,
        })
    }

    /// Resolve geometry and tables for a parsed baseline stream; each
    /// component's quantization table comes from its DQT slot (a
    /// one-component frame repeats its table).
    pub fn from_parsed(parsed: ParsedJpeg<'a>) -> Result<Self> {
        let frame = &parsed.frame;
        let geom = Geometry::new(frame.width, frame.height, frame.subsampling)?;
        let last = frame.components.len().saturating_sub(1);
        let quant_of = |ci: usize| -> Result<QuantTable> {
            let slot = frame
                .components
                .get(ci.min(last))
                .map_or(0, |c| c.quant_idx);
            parsed
                .quant
                .get(slot)
                .cloned()
                .flatten()
                .ok_or(Error::Malformed("missing quantization table"))
        };
        let quant = [quant_of(0)?, quant_of(1)?, quant_of(2)?];
        Ok(Prepared {
            parsed,
            geom,
            quant,
            ycc: YccTables::new(),
            huffman: OnceLock::new(),
        })
    }

    /// The image's Huffman decode tables, built once and lent to every
    /// entropy loop that decodes it (sequential, restart-segment parallel,
    /// speculative). Fails if the scan references a missing table.
    pub fn huffman_tables(&self) -> Result<&HuffmanTables> {
        self.huffman
            .get_or_init(|| HuffmanTables::new(&self.parsed))
            .as_ref()
            .map_err(Clone::clone)
    }

    /// Create the sequential entropy decoder for this image. Fails if the
    /// scan references a missing Huffman table.
    pub fn entropy_decoder(&self) -> Result<EntropyDecoder<'_>> {
        Ok(EntropyDecoder::new(
            &self.parsed,
            &self.geom,
            self.huffman_tables()?,
        ))
    }

    /// Entropy-decode the whole image into a fresh coefficient buffer.
    pub fn entropy_decode_all(&self) -> Result<(CoefBuffer, EntropyMetrics)> {
        let mut coef = CoefBuffer::new(&self.geom);
        let mut dec = self.entropy_decoder()?;
        let metrics = dec.decode_remaining(&mut coef)?;
        Ok((coef, metrics))
    }
}

/// Decode a JPEG byte stream with the three-pass scalar oracle
/// ([`stages`]) — the reference the tests hold every other path to.
pub fn decode(data: &[u8]) -> Result<RgbImage> {
    let prep = Prepared::new(data)?;
    let (coef, _) = prep.entropy_decode_all()?;
    let mut img = RgbImage::new(prep.geom.width, prep.geom.height);
    stages::decode_region_rgb(&prep, &coef, 0, prep.geom.mcus_y, &mut img.data)?;
    Ok(img)
}

/// Decode with the render loop ([`simd::render_rows`]) at the host's best
/// kernel level. Output is bit-identical to [`decode`]; only the host-side
/// speed differs.
pub fn decode_simd(data: &[u8]) -> Result<RgbImage> {
    let prep = Prepared::new(data)?;
    let (coef, _) = prep.entropy_decode_all()?;
    let mut img = RgbImage::new(prep.geom.width, prep.geom.height);
    let mut scratch = simd::SimdScratch::new(&prep);
    let mut sink = simd::RgbBand::new(&prep, 0, prep.geom.mcus_y, &mut img.data)?;
    simd::render_rows(&prep, &coef, 0, prep.geom.mcus_y, &mut scratch, &mut sink);
    Ok(img)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{encode_rgb, EncodeParams};
    use crate::types::Subsampling;

    fn checker_rgb(w: usize, h: usize) -> Vec<u8> {
        let mut rgb = Vec::with_capacity(w * h * 3);
        for y in 0..h {
            for x in 0..w {
                let v = if (x / 4 + y / 4) % 2 == 0 { 220 } else { 30 };
                rgb.extend_from_slice(&[v, 255 - v, v / 2]);
            }
        }
        rgb
    }

    #[test]
    fn decode_roundtrip_psnr_each_subsampling() {
        // The checkerboard flips chroma at exactly the subsampled Nyquist
        // rate, so 4:2:2 / 4:2:0 legitimately lose chroma energy; thresholds
        // reflect that.
        let (w, h) = (64usize, 48usize);
        let rgb = checker_rgb(w, h);
        for (sub, min_psnr) in [
            (Subsampling::S444, 24.0),
            (Subsampling::S422, 17.0),
            (Subsampling::S420, 15.0),
        ] {
            let jpeg = encode_rgb(
                &rgb,
                w as u32,
                h as u32,
                &EncodeParams {
                    quality: 92,
                    subsampling: sub,
                    restart_interval: 0,
                },
            )
            .unwrap();
            let img = decode(&jpeg).unwrap();
            assert_eq!((img.width, img.height), (w, h));
            let orig = RgbImage {
                width: w,
                height: h,
                data: rgb.clone(),
            };
            let psnr = img.psnr(&orig);
            assert!(
                psnr > min_psnr,
                "{} PSNR too low: {psnr:.1} dB",
                sub.notation()
            );
        }
    }

    #[test]
    fn smooth_image_survives_better() {
        // Smooth gradients must come back nearly unharmed under every
        // subsampling — this is the test that catches chroma misalignment.
        let (w, h) = (64usize, 64usize);
        let mut rgb = Vec::with_capacity(w * h * 3);
        for y in 0..h {
            for x in 0..w {
                rgb.extend_from_slice(&[(x * 4) as u8, (y * 4) as u8, 128]);
            }
        }
        let orig = RgbImage {
            width: w,
            height: h,
            data: rgb.clone(),
        };
        for sub in [Subsampling::S444, Subsampling::S422, Subsampling::S420] {
            let jpeg = encode_rgb(
                &rgb,
                w as u32,
                h as u32,
                &EncodeParams {
                    quality: 90,
                    subsampling: sub,
                    restart_interval: 0,
                },
            )
            .unwrap();
            let img = decode(&jpeg).unwrap();
            let psnr = img.psnr(&orig);
            assert!(
                psnr > 32.0,
                "{} smooth PSNR too low: {psnr:.1} dB",
                sub.notation()
            );
        }
    }

    #[test]
    fn simd_and_scalar_modes_are_bit_identical() {
        let (w, h) = (52usize, 37usize); // non-MCU-aligned on purpose
        let rgb = checker_rgb(w, h);
        for sub in [Subsampling::S444, Subsampling::S422, Subsampling::S420] {
            let jpeg = encode_rgb(
                &rgb,
                w as u32,
                h as u32,
                &EncodeParams {
                    quality: 77,
                    subsampling: sub,
                    restart_interval: 3,
                },
            )
            .unwrap();
            let a = decode(&jpeg).unwrap();
            let b = decode_simd(&jpeg).unwrap();
            assert_eq!(a.data, b.data, "mismatch for {}", sub.notation());
        }
    }

    /// The Huffman tables are built on first use, so header-only callers
    /// never build them and a missing table still surfaces where it always
    /// did: when the entropy decoder is created.
    #[test]
    fn missing_huffman_table_fails_at_entropy_decoder_creation() {
        let jpeg = encode_rgb(
            &checker_rgb(16, 16),
            16,
            16,
            &EncodeParams {
                quality: 50,
                subsampling: Subsampling::S444,
                restart_interval: 0,
            },
        )
        .unwrap();
        let mut prep = Prepared::new(&jpeg).unwrap();
        prep.parsed.dc_specs = [None, None, None, None];
        assert_eq!(
            prep.entropy_decoder().err(),
            Some(Error::Malformed("missing DC Huffman table"))
        );
        assert_eq!(
            prep.huffman_tables().err(),
            Some(Error::Malformed("missing DC Huffman table"))
        );
        let prep = Prepared::new(&jpeg).unwrap();
        let tables = prep.huffman_tables().unwrap() as *const HuffmanTables;
        prep.entropy_decode_all().unwrap();
        assert!(
            std::ptr::eq(tables, prep.huffman_tables().unwrap()),
            "built once"
        );
    }

    #[test]
    fn regions_compose_to_whole_image() {
        let (w, h) = (48usize, 64usize);
        let rgb = checker_rgb(w, h);
        let jpeg = encode_rgb(
            &rgb,
            w as u32,
            h as u32,
            &EncodeParams {
                quality: 80,
                subsampling: Subsampling::S422,
                restart_interval: 0,
            },
        )
        .unwrap();
        let prep = Prepared::new(&jpeg).unwrap();
        let (coef, _) = prep.entropy_decode_all().unwrap();

        let whole = decode(&jpeg).unwrap();

        // Decode in three bands and stitch.
        let mut stitched = vec![0u8; w * h * 3];
        let bands = [(0usize, 3usize), (3, 5), (5, prep.geom.mcus_y)];
        for &(a, b) in &bands {
            let (r0, r1) = prep.geom.mcu_rows_to_pixel_rows(a, b);
            let out = &mut stitched[r0 * w * 3..r1 * w * 3];
            stages::decode_region_rgb(&prep, &coef, a, b, out).unwrap();
        }
        assert_eq!(whole.data, stitched);
    }
}
