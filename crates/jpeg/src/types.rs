//! Core value types shared by encoder, decoder and scheduler.

use crate::error::{Error, Result};

/// Chroma subsampling factors supported by the codec.
///
/// The paper evaluates 4:2:2 and 4:4:4 (§6); 4:2:0 is implemented as the
/// "decoded in a similar manner" extension the paper mentions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Subsampling {
    /// No chroma subsampling; MCU is 8x8 pixels.
    S444,
    /// Chroma halved horizontally; MCU is 16x8 pixels.
    S422,
    /// Chroma halved in both directions; MCU is 16x16 pixels.
    S420,
}

impl Subsampling {
    /// (horizontal, vertical) sampling factors of the luma component.
    #[inline]
    pub fn luma_factors(self) -> (usize, usize) {
        match self {
            Subsampling::S444 => (1, 1),
            Subsampling::S422 => (2, 1),
            Subsampling::S420 => (2, 2),
        }
    }

    /// Width and height of one MCU in pixels.
    #[inline]
    pub fn mcu_size(self) -> (usize, usize) {
        let (h, v) = self.luma_factors();
        (h * 8, v * 8)
    }

    /// Number of 8x8 luma blocks per MCU.
    #[inline]
    pub fn luma_blocks_per_mcu(self) -> usize {
        let (h, v) = self.luma_factors();
        h * v
    }

    /// Human-readable notation used in reports ("4:2:2", ...).
    pub fn notation(self) -> &'static str {
        match self {
            Subsampling::S444 => "4:4:4",
            Subsampling::S422 => "4:2:2",
            Subsampling::S420 => "4:2:0",
        }
    }
}

/// One color component as described by a SOF0 segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComponentSpec {
    /// Component identifier byte from the file (1 = Y, 2 = Cb, 3 = Cr by
    /// JFIF convention).
    pub id: u8,
    /// Horizontal sampling factor (1..=4).
    pub h_samp: usize,
    /// Vertical sampling factor (1..=4).
    pub v_samp: usize,
    /// Quantization table selector (0..=3).
    pub quant_idx: usize,
    /// DC Huffman table selector, filled in by the SOS segment.
    pub dc_tbl: usize,
    /// AC Huffman table selector, filled in by the SOS segment.
    pub ac_tbl: usize,
}

/// Frame-level description assembled from SOF0/SOS/DRI segments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameInfo {
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// The components in scan order (Y, Cb, Cr).
    pub components: Vec<ComponentSpec>,
    /// Subsampling derived from the component sampling factors.
    pub subsampling: Subsampling,
    /// Restart interval in MCUs; 0 means no restart markers.
    pub restart_interval: usize,
}

impl FrameInfo {
    /// Derive the [`Subsampling`] enum from raw sampling factors.
    pub fn classify_subsampling(components: &[ComponentSpec]) -> Result<Subsampling> {
        if components.len() == 1 {
            // Grayscale is treated as 4:4:4 with a single component; the
            // decoder synthesizes neutral chroma.
            return Ok(Subsampling::S444);
        }
        if components.len() != 3 {
            return Err(Error::Unsupported("component count (need 1 or 3)"));
        }
        let y = &components[0];
        let cb = &components[1];
        let cr = &components[2];
        if cb.h_samp != 1 || cb.v_samp != 1 || cr.h_samp != 1 || cr.v_samp != 1 {
            return Err(Error::Unsupported("chroma sampling factors"));
        }
        match (y.h_samp, y.v_samp) {
            (1, 1) => Ok(Subsampling::S444),
            (2, 1) => Ok(Subsampling::S422),
            (2, 2) => Ok(Subsampling::S420),
            _ => Err(Error::Unsupported("luma sampling factors")),
        }
    }
}

/// A decoded image: tightly packed interleaved RGB, 8 bits per channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RgbImage {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// `width * height * 3` bytes, row-major, R then G then B per pixel.
    pub data: Vec<u8>,
}

impl RgbImage {
    /// Allocate a black image of the given size.
    pub fn new(width: usize, height: usize) -> Self {
        RgbImage {
            width,
            height,
            data: vec![0; width * height * 3],
        }
    }

    /// Borrow the pixel at (x, y) as an `[r, g, b]` slice.
    #[inline]
    pub fn pixel(&self, x: usize, y: usize) -> &[u8] {
        let off = (y * self.width + x) * 3;
        &self.data[off..off + 3]
    }

    /// Mean squared error against another image of identical dimensions.
    pub fn mse(&self, other: &RgbImage) -> f64 {
        assert_eq!(self.width, other.width);
        assert_eq!(self.height, other.height);
        let sum: f64 = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| {
                let d = a as f64 - b as f64;
                d * d
            })
            .sum();
        sum / self.data.len() as f64
    }

    /// Peak signal-to-noise ratio in dB against `other` (infinite if equal).
    pub fn psnr(&self, other: &RgbImage) -> f64 {
        let mse = self.mse(other);
        if mse == 0.0 {
            f64::INFINITY
        } else {
            10.0 * (255.0f64 * 255.0 / mse).log10()
        }
    }
}

/// A decoded image in planar YCbCr form: three full-resolution planes
/// (chroma upsampled, no color conversion applied).
///
/// This is the output format video and imaging pipelines that re-encode or
/// tone-map want — converting to RGB only to convert back wastes two passes
/// per pixel. Produced by the render loop's
/// [`crate::decoder::simd::Planar`] sink, which is what the session
/// decoder uses when asked for planar output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct YccImage {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// `width * height` luma samples, row-major.
    pub y: Vec<u8>,
    /// `width * height` blue-difference chroma samples (upsampled).
    pub cb: Vec<u8>,
    /// `width * height` red-difference chroma samples (upsampled).
    pub cr: Vec<u8>,
}

impl YccImage {
    /// Allocate a zeroed planar image of the given size.
    pub fn new(width: usize, height: usize) -> Self {
        YccImage {
            width,
            height,
            y: vec![0; width * height],
            cb: vec![0; width * height],
            cr: vec![0; width * height],
        }
    }

    /// Re-shape for another image size, reusing the allocations.
    pub fn reset_for(&mut self, width: usize, height: usize) {
        self.width = width;
        self.height = height;
        for plane in [&mut self.y, &mut self.cb, &mut self.cr] {
            plane.clear();
            plane.resize(width * height, 0);
        }
    }

    /// Convert to interleaved RGB with the shared fixed-point transform —
    /// bit-identical to decoding the same stream straight to RGB.
    pub fn to_rgb(&self) -> RgbImage {
        let mut img = RgbImage::new(self.width, self.height);
        for (i, px) in img.data.chunks_exact_mut(3).enumerate() {
            let rgb = crate::color::ycc_to_rgb(self.y[i], self.cb[i], self.cr[i]);
            px.copy_from_slice(&rgb);
        }
        img
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mcu_sizes_match_paper() {
        // §2: "The MCU size for 4:4:4 subsampling is 8x8 pixels ... In 4:2:2
        // subsampling ... an MCU has a size of 16x8 pixels."
        assert_eq!(Subsampling::S444.mcu_size(), (8, 8));
        assert_eq!(Subsampling::S422.mcu_size(), (16, 8));
        assert_eq!(Subsampling::S420.mcu_size(), (16, 16));
    }

    #[test]
    fn classify_subsampling_variants() {
        let mk = |h, v| {
            vec![
                ComponentSpec {
                    id: 1,
                    h_samp: h,
                    v_samp: v,
                    quant_idx: 0,
                    dc_tbl: 0,
                    ac_tbl: 0,
                },
                ComponentSpec {
                    id: 2,
                    h_samp: 1,
                    v_samp: 1,
                    quant_idx: 1,
                    dc_tbl: 1,
                    ac_tbl: 1,
                },
                ComponentSpec {
                    id: 3,
                    h_samp: 1,
                    v_samp: 1,
                    quant_idx: 1,
                    dc_tbl: 1,
                    ac_tbl: 1,
                },
            ]
        };
        assert_eq!(
            FrameInfo::classify_subsampling(&mk(1, 1)).unwrap(),
            Subsampling::S444
        );
        assert_eq!(
            FrameInfo::classify_subsampling(&mk(2, 1)).unwrap(),
            Subsampling::S422
        );
        assert_eq!(
            FrameInfo::classify_subsampling(&mk(2, 2)).unwrap(),
            Subsampling::S420
        );
        assert!(FrameInfo::classify_subsampling(&mk(4, 1)).is_err());
    }

    #[test]
    fn psnr_of_identical_images_is_infinite() {
        let img = RgbImage::new(4, 4);
        assert!(img.psnr(&img).is_infinite());
    }

    #[test]
    fn mse_counts_differences() {
        let a = RgbImage::new(2, 1);
        let mut b = RgbImage::new(2, 1);
        b.data[0] = 3; // one channel differs by 3
        let expected = 9.0 / 6.0;
        assert!((a.mse(&b) - expected).abs() < 1e-12);
    }
}
