//! Baseline JPEG encoder.
//!
//! The paper consumes corpora of existing JPEG photographs; this repository
//! synthesizes its corpora instead (see `hetjpeg-corpus`), so it needs a
//! real encoder: color conversion, chroma downsampling, forward DCT,
//! quantization and Huffman entropy coding with the Annex K tables.
//! Image content and the `quality` knob together control the entropy density
//! `d` that drives the paper's performance model.

use crate::bitio::BitWriter;
use crate::coef::CoefBuffer;
use crate::color::rgb_to_ycc;
use crate::dct::islow::fdct_block;
use crate::error::{Error, Result};
use crate::geometry::Geometry;
use crate::huffman::{spec, EncodeTable, HuffEncoder};
use crate::markers;
use crate::planes::SamplePlanes;
use crate::quant::QuantTable;
use crate::sample::{downsample_h2v2, downsample_row_h2v1};
use crate::types::{ComponentSpec, FrameInfo, Subsampling};

/// Encoder knobs.
#[derive(Debug, Clone, Copy)]
pub struct EncodeParams {
    /// IJG quality, 1..=100.
    pub quality: u8,
    /// Chroma subsampling of the output file.
    pub subsampling: Subsampling,
    /// Restart interval in MCUs (0 = none).
    pub restart_interval: usize,
}

impl Default for EncodeParams {
    fn default() -> Self {
        EncodeParams {
            quality: 85,
            subsampling: Subsampling::S422,
            restart_interval: 0,
        }
    }
}

/// Encode an interleaved RGB image to a baseline JFIF byte stream.
pub fn encode_rgb(rgb: &[u8], width: u32, height: u32, params: &EncodeParams) -> Result<Vec<u8>> {
    let (w, h) = (width as usize, height as usize);
    if rgb.len() != w * h * 3 {
        return Err(Error::BufferSize {
            expected: w * h * 3,
            got: rgb.len(),
        });
    }
    let geom = Geometry::new(w, h, params.subsampling)?;
    let planes = build_component_planes(rgb, &geom);
    let (coef, quant_l, quant_c) = transform_and_quantize(&planes, &geom, params.quality)?;
    let frame = frame_info(&geom, params);
    let scan = entropy_encode(&coef, &geom, &frame)?;
    Ok(assemble_file(&frame, &quant_l, &quant_c, &scan))
}

/// Convert RGB to padded, subsampled YCbCr component planes.
pub(crate) fn build_component_planes(rgb: &[u8], geom: &Geometry) -> SamplePlanes {
    let (w, h) = (geom.width, geom.height);
    let mut planes = SamplePlanes::new(geom);

    // Full-resolution YCbCr with edge replication into the padded area.
    let yw = geom.comps[0].plane_width();
    let yh = geom.comps[0].plane_height();
    let mut cb_full = vec![0u8; yw * yh];
    let mut cr_full = vec![0u8; yw * yh];
    for py in 0..yh {
        let sy = py.min(h - 1);
        let row_in = &rgb[sy * w * 3..(sy + 1) * w * 3];
        let y_row = planes.row_mut(0, py);
        for px in 0..yw {
            let sx = px.min(w - 1);
            let p = &row_in[sx * 3..sx * 3 + 3];
            let [y, cb, cr] = rgb_to_ycc(p[0], p[1], p[2]);
            y_row[px] = y;
            cb_full[py * yw + px] = cb;
            cr_full[py * yw + px] = cr;
        }
    }

    // Downsample chroma into the component planes.
    let cw = geom.comps[1].plane_width();
    let ch = geom.comps[1].plane_height();
    match geom.subsampling {
        Subsampling::S444 => {
            for py in 0..ch {
                planes
                    .row_mut(1, py)
                    .copy_from_slice(&cb_full[py * yw..py * yw + cw]);
                planes
                    .row_mut(2, py)
                    .copy_from_slice(&cr_full[py * yw..py * yw + cw]);
            }
        }
        Subsampling::S422 => {
            for py in 0..ch {
                downsample_row_h2v1(&cb_full[py * yw..(py + 1) * yw], planes.row_mut(1, py));
                downsample_row_h2v1(&cr_full[py * yw..(py + 1) * yw], planes.row_mut(2, py));
            }
        }
        Subsampling::S420 => {
            for py in 0..ch {
                let r0 = 2 * py;
                let r1 = (2 * py + 1).min(yh - 1);
                downsample_h2v2(
                    &cb_full[r0 * yw..(r0 + 1) * yw],
                    &cb_full[r1 * yw..(r1 + 1) * yw],
                    planes.row_mut(1, py),
                );
                downsample_h2v2(
                    &cr_full[r0 * yw..(r0 + 1) * yw],
                    &cr_full[r1 * yw..(r1 + 1) * yw],
                    planes.row_mut(2, py),
                );
            }
        }
    }
    planes
}

/// FDCT + quantization of every block of every component.
pub(crate) fn transform_and_quantize(
    planes: &SamplePlanes,
    geom: &Geometry,
    quality: u8,
) -> Result<(CoefBuffer, QuantTable, QuantTable)> {
    let quant_l = QuantTable::luma_for_quality(quality)?;
    let quant_c = QuantTable::chroma_for_quality(quality)?;
    let mut coef = CoefBuffer::new(geom);
    for (ci, comp) in geom.comps.iter().enumerate() {
        let quant = if ci == 0 { &quant_l } else { &quant_c };
        let stride = planes.strides[ci];
        let plane = &planes.planes[ci];
        for by in 0..comp.height_blocks {
            for bx in 0..comp.width_blocks {
                let mut samples = [0i32; 64];
                let base = by * 8 * stride + bx * 8;
                for r in 0..8 {
                    let row = &plane[base + r * stride..base + r * stride + 8];
                    for (c, &s) in row.iter().enumerate() {
                        samples[r * 8 + c] = s as i32 - 128; // level shift
                    }
                }
                let raw = fdct_block(&samples);
                let idx = geom.block_index(ci, bx, by);
                *coef.block_mut(idx) = quant.quantize(&raw);
            }
        }
    }
    Ok((coef, quant_l, quant_c))
}

pub(crate) fn frame_info(geom: &Geometry, params: &EncodeParams) -> FrameInfo {
    let (hs, vs) = geom.subsampling.luma_factors();
    FrameInfo {
        width: geom.width,
        height: geom.height,
        components: vec![
            ComponentSpec {
                id: 1,
                h_samp: hs,
                v_samp: vs,
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
        ],
        subsampling: geom.subsampling,
        restart_interval: params.restart_interval,
    }
}

/// Huffman-encode the whole coefficient buffer in MCU scan order.
fn entropy_encode(coef: &CoefBuffer, geom: &Geometry, frame: &FrameInfo) -> Result<Vec<u8>> {
    let dc_l = EncodeTable::build(&spec::dc_luma())?;
    let ac_l = EncodeTable::build(&spec::ac_luma())?;
    let dc_c = EncodeTable::build(&spec::dc_chroma())?;
    let ac_c = EncodeTable::build(&spec::ac_chroma())?;

    let mut w = BitWriter::new();
    let mut dc_pred = [0i32; 3];
    let mut next_restart = 0u8;
    let mut mcus_since_restart = 0usize;

    for row in 0..geom.mcus_y {
        for mcu_x in 0..geom.mcus_x {
            if frame.restart_interval > 0 && mcus_since_restart == frame.restart_interval {
                w.put_restart_marker(next_restart);
                next_restart = (next_restart + 1) & 7;
                mcus_since_restart = 0;
                dc_pred = [0; 3];
            }
            for (ci, comp) in geom.comps.iter().enumerate() {
                let (dc_t, ac_t) = if ci == 0 {
                    (&dc_l, &ac_l)
                } else {
                    (&dc_c, &ac_c)
                };
                for v in 0..comp.v_samp {
                    for hx in 0..comp.h_samp {
                        let bx = mcu_x * comp.h_samp + hx;
                        let by = row * comp.v_samp + v;
                        let block = coef.block(geom.block_index(ci, bx, by));
                        let dc = block[0] as i32;
                        HuffEncoder::encode_dc_diff(&mut w, dc_t, dc - dc_pred[ci])?;
                        dc_pred[ci] = dc;
                        HuffEncoder::encode_ac_block(&mut w, ac_t, block)?;
                    }
                }
            }
            mcus_since_restart += 1;
        }
    }
    Ok(w.finish())
}

fn assemble_file(
    frame: &FrameInfo,
    quant_l: &QuantTable,
    quant_c: &QuantTable,
    scan: &[u8],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(scan.len() + 1024);
    markers::write_soi(&mut out);
    markers::write_app0_jfif(&mut out);
    markers::write_dqt(&mut out, 0, quant_l);
    markers::write_dqt(&mut out, 1, quant_c);
    markers::write_sof(&mut out, markers::m::SOF0, frame);
    markers::write_dht(&mut out, 0, 0, &spec::dc_luma());
    markers::write_dht(&mut out, 1, 0, &spec::ac_luma());
    markers::write_dht(&mut out, 0, 1, &spec::dc_chroma());
    markers::write_dht(&mut out, 1, 1, &spec::ac_chroma());
    if frame.restart_interval > 0 {
        markers::write_dri(&mut out, frame.restart_interval as u16);
    }
    markers::write_sos(&mut out, frame);
    out.extend_from_slice(scan);
    markers::write_eoi(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::markers::parse_jpeg;

    fn noise_rgb(w: usize, h: usize, seed: u32) -> Vec<u8> {
        let mut state = seed | 1;
        (0..w * h * 3)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                (state >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn produces_parseable_files() {
        for sub in [Subsampling::S444, Subsampling::S422, Subsampling::S420] {
            let jpeg = encode_rgb(
                &noise_rgb(40, 24, 3),
                40,
                24,
                &EncodeParams {
                    quality: 70,
                    subsampling: sub,
                    restart_interval: 0,
                },
            )
            .unwrap();
            let parsed = parse_jpeg(&jpeg).unwrap();
            assert_eq!(parsed.frame.width, 40);
            assert_eq!(parsed.frame.height, 24);
            assert_eq!(parsed.frame.subsampling, sub);
        }
    }

    #[test]
    fn rejects_wrong_buffer_size() {
        let err = encode_rgb(&[0u8; 10], 4, 4, &EncodeParams::default()).unwrap_err();
        assert_eq!(
            err,
            Error::BufferSize {
                expected: 48,
                got: 10
            }
        );
    }

    #[test]
    fn quality_monotonically_shrinks_files() {
        let rgb = noise_rgb(64, 64, 7);
        let size = |q: u8| {
            encode_rgb(
                &rgb,
                64,
                64,
                &EncodeParams {
                    quality: q,
                    subsampling: Subsampling::S444,
                    restart_interval: 0,
                },
            )
            .unwrap()
            .len()
        };
        let (s20, s60, s95) = (size(20), size(60), size(95));
        assert!(s20 < s60, "q20 {s20} vs q60 {s60}");
        assert!(s60 < s95, "q60 {s60} vs q95 {s95}");
    }

    #[test]
    fn subsampling_shrinks_files_on_noise() {
        let rgb = noise_rgb(64, 64, 9);
        let enc = |sub| {
            encode_rgb(
                &rgb,
                64,
                64,
                &EncodeParams {
                    quality: 85,
                    subsampling: sub,
                    restart_interval: 0,
                },
            )
            .unwrap()
            .len()
        };
        assert!(enc(Subsampling::S422) < enc(Subsampling::S444));
        assert!(enc(Subsampling::S420) < enc(Subsampling::S422));
    }

    #[test]
    fn odd_dimensions_encode_fine() {
        for (w, h) in [(17, 11), (33, 7), (15, 31)] {
            let jpeg = encode_rgb(
                &noise_rgb(w, h, 11),
                w as u32,
                h as u32,
                &EncodeParams {
                    quality: 80,
                    subsampling: Subsampling::S420,
                    restart_interval: 0,
                },
            )
            .unwrap();
            let parsed = parse_jpeg(&jpeg).unwrap();
            assert_eq!((parsed.frame.width, parsed.frame.height), (w, h));
        }
    }
}
