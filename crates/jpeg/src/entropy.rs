//! Stateful, strictly sequential Huffman scan decoding.
//!
//! "Among all stages, Huffman decompression is strictly sequential, because
//! code-words have variable lengths and the start of a codeword in the
//! encoded bitstream is only known once the previous codeword has been
//! decoded" (paper §1). The decoder here therefore advances one MCU row at a
//! time on a single thread; the heterogeneous schedulers interleave calls to
//! [`EntropyDecoder::decode_mcu_row`] with (simulated) GPU dispatches to
//! build the pipelined timelines of paper Fig. 5(b)/Fig. 8.

use crate::bitio::BitReader;
use crate::coef::CoefBuffer;
use crate::error::{Error, Result};
use crate::geometry::Geometry;
use crate::huffman::{DecodeTable, HuffDecoder};
use crate::markers::ParsedJpeg;
use crate::metrics::{EntropyMetrics, RowMetrics};
use crate::types::ComponentSpec;

/// The Huffman decode tables of a baseline scan and the components that
/// use them, built once per image and lent to every MCU loop that decodes
/// it: the sequential [`EntropyDecoder`] and every speculative chunk and
/// stitch ([`crate::speculate::McuDecoder`]).
#[derive(Debug)]
pub struct HuffmanTables {
    dc: [Option<DecodeTable>; 4],
    ac: [Option<DecodeTable>; 4],
    comps: Vec<ComponentSpec>,
}

impl HuffmanTables {
    /// Build the DC and AC tables the frame's components reference. Fails
    /// if one of them is missing from the parsed headers.
    pub fn new(parsed: &ParsedJpeg<'_>) -> Result<Self> {
        let mut dc: [Option<DecodeTable>; 4] = [None, None, None, None];
        let mut ac: [Option<DecodeTable>; 4] = [None, None, None, None];
        for c in &parsed.frame.components {
            if dc[c.dc_tbl].is_none() {
                let spec = parsed.dc_specs[c.dc_tbl]
                    .as_ref()
                    .ok_or(Error::Malformed("missing DC Huffman table"))?;
                dc[c.dc_tbl] = Some(DecodeTable::build(spec)?);
            }
            if ac[c.ac_tbl].is_none() {
                let spec = parsed.ac_specs[c.ac_tbl]
                    .as_ref()
                    .ok_or(Error::Malformed("missing AC Huffman table"))?;
                ac[c.ac_tbl] = Some(DecodeTable::build(spec)?);
            }
        }
        Ok(HuffmanTables {
            dc,
            ac,
            comps: parsed.frame.components.clone(),
        })
    }

    /// The scan's components in MCU order.
    #[inline]
    pub(crate) fn components(&self) -> &[ComponentSpec] {
        &self.comps
    }

    /// The `(DC, AC)` tables of a component. Panics if they were not built,
    /// i.e. if the component is not from the frame these tables came from.
    #[inline]
    pub(crate) fn of(&self, comp: &ComponentSpec) -> (&DecodeTable, &DecodeTable) {
        (
            self.dc[comp.dc_tbl].as_ref().expect("dc table"),
            self.ac[comp.ac_tbl].as_ref().expect("ac table"),
        )
    }
}

/// Incremental scan decoder: one call per MCU row.
pub struct EntropyDecoder<'a> {
    reader: BitReader<'a>,
    geom: Geometry,
    tables: &'a HuffmanTables,
    dc_pred: [i32; 4],
    restart_interval: usize,
    mcus_until_restart: usize,
    next_restart: u8,
    next_row: usize,
}

impl<'a> EntropyDecoder<'a> {
    /// Prepare a decoder from parsed headers and the image's Huffman tables
    /// ([`HuffmanTables::new`] over the same headers).
    pub fn new(parsed: &ParsedJpeg<'a>, geom: &Geometry, tables: &'a HuffmanTables) -> Self {
        let restart_interval = parsed.frame.restart_interval;
        EntropyDecoder {
            reader: BitReader::new(parsed.scan_data),
            geom: geom.clone(),
            tables,
            dc_pred: [0; 4],
            restart_interval,
            mcus_until_restart: restart_interval,
            next_restart: 0,
            next_row: 0,
        }
    }

    /// True once every MCU row has been decoded.
    #[inline]
    pub fn is_finished(&self) -> bool {
        self.next_row >= self.geom.mcus_y
    }

    /// Decode the next MCU row into the shared coefficient buffer, returning
    /// the row's work metrics.
    pub fn decode_mcu_row(&mut self, coef: &mut CoefBuffer) -> Result<RowMetrics> {
        if self.is_finished() {
            return Err(Error::Malformed("decode past last MCU row"));
        }
        let row = self.next_row;
        let bits_before = self.reader.bits_consumed();
        let mut metrics = RowMetrics::default();

        for mcu_x in 0..self.geom.mcus_x {
            if self.restart_interval > 0 && self.mcus_until_restart == 0 {
                let n = self.reader.read_restart_marker()?;
                if n != self.next_restart {
                    return Err(Error::RestartMismatch {
                        expected: self.next_restart,
                        found: 0xD0 + n,
                    });
                }
                self.next_restart = (self.next_restart + 1) & 7;
                self.mcus_until_restart = self.restart_interval;
                self.dc_pred = [0; 4];
            }

            for (ci, comp) in self.tables.components().iter().enumerate() {
                let (dc, ac) = self.tables.of(comp);
                for v in 0..comp.v_samp {
                    for h in 0..comp.h_samp {
                        let bx = mcu_x * comp.h_samp + h;
                        let by = row * comp.v_samp + v;
                        let idx = self.geom.block_index(ci, bx, by);
                        let block = coef.block_mut(idx);
                        *block = [0i16; 64];

                        let diff = HuffDecoder::decode_dc_diff(&mut self.reader, dc)?;
                        self.dc_pred[ci] += diff;
                        block[0] = self.dc_pred[ci] as i16;

                        let (symbols, nonzero, eob) =
                            HuffDecoder::decode_ac_block(&mut self.reader, ac, block)?;
                        coef.set_eob(idx, eob);
                        metrics.symbols += symbols as u64 + 1; // +1 DC symbol
                        metrics.nonzero_coefs += nonzero as u64 + (diff != 0) as u64;
                        metrics.blocks += 1;
                        metrics.record_eob(eob);
                    }
                }
            }
            if self.restart_interval > 0 {
                self.mcus_until_restart -= 1;
            }
        }

        metrics.bits = self.reader.bits_consumed() - bits_before;
        self.next_row += 1;
        Ok(metrics)
    }

    /// Decode every remaining MCU row, collecting per-row metrics.
    pub fn decode_remaining(&mut self, coef: &mut CoefBuffer) -> Result<EntropyMetrics> {
        let mut all = EntropyMetrics::default();
        while !self.is_finished() {
            all.per_row.push(self.decode_mcu_row(coef)?);
        }
        Ok(all)
    }
}

/// A restart-delimited slice of the entropy stream.
///
/// Restart markers byte-align the stream and reset the DC predictors, which
/// makes each interval *independently decodable* — the property the paper
/// notes general JPEG lacks (§1, discussing self-synchronizing codes \[12\]):
/// "the JPEG standard does not enforce the self-synchronization property".
/// When the encoder emitted DRI, Huffman decoding stops being strictly
/// sequential; `hetjpeg-core`'s parallel entropy driver exploits this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartSegment {
    /// Byte offset of the segment inside the scan data (past the marker).
    pub offset: usize,
    /// Byte length up to the next marker (or end of scan).
    pub len: usize,
    /// Global index of the segment's first MCU.
    pub start_mcu: usize,
    /// Number of MCUs in the segment.
    pub mcu_count: usize,
}

/// Split the scan data at restart markers. Returns one segment per restart
/// interval; without DRI the whole scan is a single segment.
pub fn split_restart_segments(parsed: &ParsedJpeg<'_>, geom: &Geometry) -> Vec<RestartSegment> {
    let total_mcus = geom.mcus_x * geom.mcus_y;
    let interval = parsed.frame.restart_interval;
    let scan = parsed.scan_data;
    if interval == 0 {
        return vec![RestartSegment {
            offset: 0,
            len: scan.len(),
            start_mcu: 0,
            mcu_count: total_mcus,
        }];
    }
    let mut segments = Vec::with_capacity(total_mcus.div_ceil(interval));
    let mut seg_start = 0usize;
    let mut mcu = 0usize;
    let mut i = 0usize;
    while i + 1 < scan.len() && mcu < total_mcus {
        if scan[i] == 0xFF {
            let m = scan[i + 1];
            if (0xD0..=0xD7).contains(&m) {
                segments.push(RestartSegment {
                    offset: seg_start,
                    len: i - seg_start,
                    start_mcu: mcu,
                    mcu_count: interval.min(total_mcus - mcu),
                });
                mcu += interval;
                seg_start = i + 2;
                i += 2;
                continue;
            }
            if m != 0x00 && m != 0xFF {
                break; // EOI or another marker terminates the scan
            }
        }
        i += 1;
    }
    if mcu < total_mcus {
        segments.push(RestartSegment {
            offset: seg_start,
            len: scan.len() - seg_start,
            start_mcu: mcu,
            mcu_count: total_mcus - mcu,
        });
    }
    segments
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{encode_rgb, EncodeParams};
    use crate::markers::parse_jpeg;
    use crate::speculate::{decode_chunk_speculative, stitch_segment};
    use crate::types::Subsampling;

    fn gradient_rgb(w: usize, h: usize) -> Vec<u8> {
        let mut rgb = Vec::with_capacity(w * h * 3);
        for y in 0..h {
            for x in 0..w {
                rgb.push(((x * 255) / w.max(1)) as u8);
                rgb.push(((y * 255) / h.max(1)) as u8);
                rgb.push((((x + y) * 127) / (w + h).max(1)) as u8);
            }
        }
        rgb
    }

    #[test]
    fn row_by_row_matches_decode_remaining() {
        let (w, h) = (48usize, 32usize);
        let jpeg = encode_rgb(
            &gradient_rgb(w, h),
            w as u32,
            h as u32,
            &EncodeParams {
                quality: 85,
                subsampling: Subsampling::S422,
                restart_interval: 0,
            },
        )
        .unwrap();
        let parsed = parse_jpeg(&jpeg).unwrap();
        let geom = Geometry::new(
            parsed.frame.width,
            parsed.frame.height,
            parsed.frame.subsampling,
        )
        .unwrap();

        let tables = HuffmanTables::new(&parsed).unwrap();
        let mut dec1 = EntropyDecoder::new(&parsed, &geom, &tables);
        let mut coef1 = CoefBuffer::new(&geom);
        let all = dec1.decode_remaining(&mut coef1).unwrap();
        assert_eq!(all.per_row.len(), geom.mcus_y);

        let mut dec2 = EntropyDecoder::new(&parsed, &geom, &tables);
        let mut coef2 = CoefBuffer::new(&geom);
        let mut rows = 0;
        while !dec2.is_finished() {
            dec2.decode_mcu_row(&mut coef2).unwrap();
            rows += 1;
        }
        assert_eq!(rows, geom.mcus_y);
        assert_eq!(coef1.as_slice(), coef2.as_slice());
    }

    #[test]
    fn metrics_count_all_blocks() {
        let (w, h) = (32usize, 24usize);
        let jpeg = encode_rgb(
            &gradient_rgb(w, h),
            w as u32,
            h as u32,
            &EncodeParams {
                quality: 75,
                subsampling: Subsampling::S444,
                restart_interval: 0,
            },
        )
        .unwrap();
        let parsed = parse_jpeg(&jpeg).unwrap();
        let geom = Geometry::new(w, h, Subsampling::S444).unwrap();
        let tables = HuffmanTables::new(&parsed).unwrap();
        let mut dec = EntropyDecoder::new(&parsed, &geom, &tables);
        let mut coef = CoefBuffer::new(&geom);
        let m = dec.decode_remaining(&mut coef).unwrap();
        assert_eq!(m.total().blocks as usize, geom.total_blocks);
        assert!(m.total().bits > 0);
        assert!(m.total().symbols >= m.total().blocks); // at least DC per block
    }

    #[test]
    fn restart_markers_reset_predictors() {
        let (w, h) = (64usize, 16usize);
        let rgb = gradient_rgb(w, h);
        let no_rst = encode_rgb(
            &rgb,
            w as u32,
            h as u32,
            &EncodeParams {
                quality: 90,
                subsampling: Subsampling::S422,
                restart_interval: 0,
            },
        )
        .unwrap();
        let with_rst = encode_rgb(
            &rgb,
            w as u32,
            h as u32,
            &EncodeParams {
                quality: 90,
                subsampling: Subsampling::S422,
                restart_interval: 2,
            },
        )
        .unwrap();
        assert_ne!(no_rst, with_rst);

        // Both must decode to identical coefficients.
        let decode_coefs = |data: &[u8]| {
            let parsed = parse_jpeg(data).unwrap();
            let geom = Geometry::new(w, h, Subsampling::S422).unwrap();
            let tables = HuffmanTables::new(&parsed).unwrap();
            let mut dec = EntropyDecoder::new(&parsed, &geom, &tables);
            let mut coef = CoefBuffer::new(&geom);
            dec.decode_remaining(&mut coef).unwrap();
            coef.as_slice().to_vec()
        };
        assert_eq!(decode_coefs(&no_rst), decode_coefs(&with_rst));
    }

    #[test]
    fn restart_segments_cover_all_mcus_and_decode_identically() {
        let (w, h) = (64usize, 48usize);
        let jpeg = encode_rgb(
            &gradient_rgb(w, h),
            w as u32,
            h as u32,
            &EncodeParams {
                quality: 85,
                subsampling: Subsampling::S422,
                restart_interval: 3,
            },
        )
        .unwrap();
        let parsed = parse_jpeg(&jpeg).unwrap();
        let geom = Geometry::new(w, h, Subsampling::S422).unwrap();

        let segments = split_restart_segments(&parsed, &geom);
        // 4x6 = 24 MCUs at interval 3 -> 8 segments.
        assert_eq!(segments.len(), 8);
        let covered: usize = segments.iter().map(|s| s.mcu_count).sum();
        assert_eq!(covered, geom.mcus_x * geom.mcus_y);
        assert!(segments
            .windows(2)
            .all(|w| w[0].start_mcu + w[0].mcu_count == w[1].start_mcu));

        // Segment-wise decode must equal the sequential decode: each
        // segment is independently decodable from its first byte.
        let tables = HuffmanTables::new(&parsed).unwrap();
        let mut seq = EntropyDecoder::new(&parsed, &geom, &tables);
        let mut want = CoefBuffer::new(&geom);
        seq.decode_remaining(&mut want).unwrap();

        let mut got = CoefBuffer::new(&geom);
        for seg in &segments {
            let payload = &parsed.scan_data[seg.offset..seg.offset + seg.len];
            let (start, n) = (seg.start_mcu, seg.mcu_count);
            let chunk = decode_chunk_speculative(&geom, &tables, payload, 0, seg.len, n);
            let out = stitch_segment(&geom, &tables, payload, start, n, &[chunk], &mut got);
            assert!(out.unwrap().written.blocks > 0);
        }
        assert_eq!(got.as_slice(), want.as_slice());
    }

    #[test]
    fn no_dri_yields_single_segment() {
        let (w, h) = (32usize, 16usize);
        let jpeg = encode_rgb(
            &gradient_rgb(w, h),
            w as u32,
            h as u32,
            &EncodeParams {
                quality: 85,
                subsampling: Subsampling::S444,
                restart_interval: 0,
            },
        )
        .unwrap();
        let parsed = parse_jpeg(&jpeg).unwrap();
        let geom = Geometry::new(w, h, Subsampling::S444).unwrap();
        let segments = split_restart_segments(&parsed, &geom);
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].mcu_count, geom.mcus_x * geom.mcus_y);
    }

    #[test]
    fn missing_huffman_table_is_error() {
        let (w, h) = (16usize, 16usize);
        let jpeg = encode_rgb(
            &gradient_rgb(w, h),
            w as u32,
            h as u32,
            &EncodeParams {
                quality: 50,
                subsampling: Subsampling::S444,
                restart_interval: 0,
            },
        )
        .unwrap();
        let mut parsed = parse_jpeg(&jpeg).unwrap();
        parsed.ac_specs = [None, None, None, None];
        assert_eq!(
            HuffmanTables::new(&parsed).err(),
            Some(Error::Malformed("missing AC Huffman table"))
        );
        parsed.dc_specs = [None, None, None, None];
        assert_eq!(
            HuffmanTables::new(&parsed).err(),
            Some(Error::Malformed("missing DC Huffman table"))
        );
    }
}
