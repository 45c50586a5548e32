//! The JPEG marker grammar: one segment walker, one table state and one
//! SOS parser behind every header reader.
//!
//! [`Segments`] is the only code that reads marker bytes. It checks SOI,
//! skips fill bytes, knows which markers stand alone (SOI, EOI, RSTn, TEM),
//! bounds-checks every length field (DRI's must be 4) and, for the scan
//! readers, steps over an entropy-coded segment. One table state applies DQT, DHT
//! and DRI the same way for both frame kinds, and one SOS parser reads
//! every scan header. The readers are thin consumers: [`parse_jpeg`]
//! (baseline, stops at the first SOS),
//! [`crate::progressive::parse_progressive`] (every scan), [`parse`]
//! (either kind in one walk, the first SOF decides) and [`sniff_frame`] /
//! [`is_progressive`] (allocation-free looks at the first frame header).
//!
//! Frames other than baseline/extended sequential (SOF0/SOF1) and
//! progressive (SOF2) Huffman with 8-bit precision are rejected with a
//! descriptive error.

use crate::error::{Error, Result};
use crate::huffman::HuffSpec;
use crate::progressive::ProgressiveParsed;
use crate::quant::QuantTable;
use crate::types::{ComponentSpec, FrameInfo};

/// Marker byte values (the byte following 0xFF).
pub mod m {
    pub const TEM: u8 = 0x01;
    pub const RST0: u8 = 0xD0;
    pub const RST7: u8 = 0xD7;
    pub const SOI: u8 = 0xD8;
    pub const EOI: u8 = 0xD9;
    pub const SOS: u8 = 0xDA;
    pub const DQT: u8 = 0xDB;
    pub const DHT: u8 = 0xC4;
    pub const SOF0: u8 = 0xC0;
    pub const SOF1: u8 = 0xC1;
    pub const SOF2: u8 = 0xC2;
    pub const SOF9: u8 = 0xC9;
    pub const SOF10: u8 = 0xCA;
    pub const DHP: u8 = 0xDE;
    pub const DRI: u8 = 0xDD;
    pub const APP0: u8 = 0xE0;
    pub const COM: u8 = 0xFE;
}

/// True for the SOFn markers: 0xC0..=0xCF without DHT, JPG and DAC.
fn is_sof(marker: u8) -> bool {
    matches!(marker, 0xC0..=0xCF) && !matches!(marker, m::DHT | 0xC8 | 0xCC)
}

/// One marker as the walker met it, with its segment body. The body is
/// checked when the marker is read but reported only on request, so a
/// reader can reject a marker by kind before it looks at the bytes.
#[derive(Debug, Clone)]
pub struct Segment<'a> {
    /// Marker byte (the byte after 0xFF).
    pub marker: u8,
    body: Result<&'a [u8]>,
}

impl<'a> Segment<'a> {
    /// The segment body after the length field (empty for a standalone
    /// marker); `Err` when the length field is under 2 or runs past the
    /// end of the input.
    pub fn body(&self) -> Result<&'a [u8]> {
        self.body.clone()
    }
}

/// The segment walker: yields the markers of a JPEG stream in order. It
/// stops after EOI or the first error; an error in a segment's length
/// field stops it too, whether or not the reader asked for the body.
#[derive(Debug, Clone)]
pub struct Segments<'a> {
    data: &'a [u8],
    pos: usize,
    stop: Option<Error>,
    done: bool,
}

impl<'a> Segments<'a> {
    /// Start a walk; fails unless the stream opens with SOI.
    pub fn new(data: &'a [u8]) -> Result<Self> {
        if data.len() < 4 || data[..2] != [0xFF, m::SOI] {
            return Err(Error::Malformed("missing SOI"));
        }
        Ok(Segments {
            data,
            pos: 2,
            stop: None,
            done: false,
        })
    }

    /// Byte offset of the next unread byte.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Read the next marker and its segment.
    #[inline(always)]
    pub fn next_segment(&mut self) -> Result<Segment<'a>> {
        if let Some(e) = &self.stop {
            return Err(e.clone());
        }
        let data = self.data;
        if self.pos + 1 >= data.len() {
            return Err(Error::UnexpectedEof);
        }
        if data[self.pos] != 0xFF {
            return Err(Error::Malformed("expected marker"));
        }
        let mut pos = self.pos + 1;
        while data.get(pos) == Some(&0xFF) {
            pos += 1;
        }
        let marker = *data.get(pos).ok_or(Error::UnexpectedEof)?;
        pos += 1;
        if matches!(marker, m::SOI | m::EOI | m::RST0..=m::RST7 | m::TEM) {
            self.pos = pos;
            return Ok(Segment {
                marker,
                body: Ok(&[]),
            });
        }
        let body = match data.get(pos..pos + 2) {
            None => Err(Error::UnexpectedEof),
            Some(len) => match (marker, u16::from_be_bytes([len[0], len[1]]) as usize) {
                (m::DRI, len) if len != 4 => Err(Error::Malformed("DRI length")),
                (_, 0 | 1) => Err(Error::Malformed("segment length")),
                (_, len) => data.get(pos + 2..pos + len).ok_or(Error::UnexpectedEof),
            },
        };
        match &body {
            Ok(b) => self.pos = pos + 2 + b.len(),
            Err(e) => self.stop = Some(e.clone()),
        }
        Ok(Segment { marker, body })
    }

    /// Step over the entropy-coded segment that starts here (right after
    /// an SOS header) and return it: everything up to the first `FF xx`
    /// where `xx` is neither a stuffed 0x00 nor a restart marker, or to the
    /// end of the input when the stream ends inside the scan
    /// ([`Self::at_end`]).
    pub(crate) fn entropy_coded(&mut self) -> &'a [u8] {
        let (data, start) = (self.data, self.pos);
        let is_end = |w: &[u8]| w[0] == 0xFF && w[1] != 0 && !(m::RST0..=m::RST7).contains(&w[1]);
        self.pos = (data[start..].windows(2).position(is_end)).map_or(data.len(), |i| start + i);
        &data[start..self.pos]
    }

    /// True once the whole input has been consumed.
    pub(crate) fn at_end(&self) -> bool {
        self.pos >= self.data.len()
    }

    /// Read segments until one that is not a table, an APPn/COM or other
    /// skippable segment, applying DQT, DHT and DRI to `tables` on the
    /// way. What comes back is an SOFn, DHP, SOS or EOI marker; a stray
    /// standalone marker (SOI, RSTn, TEM) is an error.
    #[inline(always)]
    pub(crate) fn next_structural(&mut self, tables: &mut Tables) -> Result<Segment<'a>> {
        loop {
            let seg = self.next_segment()?;
            match seg.marker {
                m::DQT => parse_dqt(seg.body()?, &mut tables.quant)?,
                m::DHT => parse_dht(seg.body()?, &mut tables.dc_specs, &mut tables.ac_specs)?,
                m::DRI => {
                    if let [hi, lo] = *seg.body()? {
                        tables.restart_interval = u16::from_be_bytes([hi, lo]) as usize;
                    }
                }
                m::SOS | m::EOI | m::DHP => return Ok(seg),
                m::SOI | m::RST0..=m::RST7 | m::TEM => {
                    return Err(Error::Malformed("stray marker"))
                }
                marker if is_sof(marker) => return Ok(seg),
                _ => {
                    seg.body()?;
                }
            }
        }
    }
}

impl<'a> Iterator for Segments<'a> {
    type Item = Result<Segment<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let seg = self.next_segment();
        self.done = !matches!(&seg, Ok(s) if s.marker != m::EOI && s.body.is_ok());
        Some(seg)
    }
}

/// The table state a header walk accumulates: DQT, DHT and DRI apply the
/// same way for both frame kinds ([`Segments::next_structural`]); a
/// progressive scan snapshots the Huffman slots and the restart interval in
/// force at its SOS.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tables {
    /// Quantization tables by DQT slot.
    pub quant: [Option<QuantTable>; 4],
    /// DC Huffman specs by DHT slot.
    pub dc_specs: [Option<HuffSpec>; 4],
    /// AC Huffman specs by DHT slot.
    pub ac_specs: [Option<HuffSpec>; 4],
    /// Restart interval from the last DRI (0 = none).
    pub restart_interval: usize,
}

/// The error for a frame marker a reader does not decode: arithmetic and
/// hierarchical frames by name, SOF2 where a baseline frame was wanted,
/// and any other SOFn by the frame kind that was wanted.
pub(crate) fn reject_frame(marker: u8, progressive: bool) -> Error {
    match marker {
        m::SOF9 | m::SOF10 => Error::ArithmeticCoding,
        m::DHP => Error::Hierarchical,
        m::SOF2 if !progressive => Error::Unsupported("progressive JPEG"),
        _ if progressive => Error::Unsupported("expected progressive SOF2"),
        _ => Error::Unsupported("non-baseline SOF"),
    }
}

/// Everything the decoder needs, parsed from a JPEG byte stream.
#[derive(Debug, Clone)]
pub struct ParsedJpeg<'a> {
    /// Frame header info (dimensions, components, restart interval).
    pub frame: FrameInfo,
    /// Quantization tables by DQT slot.
    pub quant: [Option<QuantTable>; 4],
    /// DC Huffman specs by DHT slot.
    pub dc_specs: [Option<HuffSpec>; 4],
    /// AC Huffman specs by DHT slot.
    pub ac_specs: [Option<HuffSpec>; 4],
    /// The entropy-coded scan data (starts right after the SOS header; ends
    /// at EOI — restart markers remain embedded).
    pub scan_data: &'a [u8],
    /// Total file size in bytes; with width and height this yields the
    /// entropy-density estimate `d` of paper Eq. (3).
    pub file_size: usize,
}

impl<'a> ParsedJpeg<'a> {
    /// The paper's entropy density approximation (Eq. (3)):
    /// `d = file_size / (w * h)` in bytes per pixel.
    pub fn entropy_density(&self) -> f64 {
        self.file_size as f64 / (self.frame.width as f64 * self.frame.height as f64)
    }
}

/// A stream of either frame kind, as [`parse`] read it.
// `Baseline` is the larger variant, but a value is moved once, into the
// session's `Prepared`, per decode; a `Box` would add an allocation to
// every baseline decode and save nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Parsed<'a> {
    /// A baseline (SOF0/SOF1) stream.
    Baseline(ParsedJpeg<'a>),
    /// A progressive (SOF2) stream with its scan script.
    Progressive(ProgressiveParsed<'a>),
}

/// Walk the header to the first frame segment (SOF0, SOF1 or SOF2); the
/// errors name what a reader that wants a `progressive` frame expected.
#[inline(always)]
pub(crate) fn frame_start(
    data: &[u8],
    progressive: bool,
) -> Result<(Segments<'_>, Tables, Segment<'_>)> {
    let mut segs = Segments::new(data)?;
    let mut tables = Tables::default();
    let sof = segs.next_structural(&mut tables)?;
    match sof.marker {
        m::SOF0 | m::SOF1 | m::SOF2 => Ok((segs, tables, sof)),
        m::SOS => Err(Error::Malformed("SOS before SOF")),
        m::EOI if progressive => Err(Error::Malformed("EOI before any scan")),
        m::EOI => Err(Error::Malformed("EOI before SOS")),
        marker => Err(reject_frame(marker, progressive)),
    }
}

/// Parse a stream of either frame kind in one walk: the first SOF decides
/// whether the rest is read as a baseline frame or a progressive scan
/// script.
pub fn parse(data: &[u8]) -> Result<Parsed<'_>> {
    let (segs, tables, sof) = frame_start(data, false)?;
    if sof.marker == m::SOF2 {
        crate::progressive::parse::scans_after(data, segs, tables, &sof).map(Parsed::Progressive)
    } else {
        baseline_after(data, segs, tables, &sof).map(Parsed::Baseline)
    }
}

/// Parse the header of a baseline JPEG byte stream, up to and including
/// the one SOS. The entropy-coded bytes are not read.
pub fn parse_jpeg(data: &[u8]) -> Result<ParsedJpeg<'_>> {
    let (segs, tables, sof) = frame_start(data, false)?;
    if sof.marker == m::SOF2 {
        return Err(reject_frame(m::SOF2, false));
    }
    baseline_after(data, segs, tables, &sof)
}

/// The rest of a baseline header after its first SOF: later tables apply,
/// a later SOF0/SOF1 replaces the frame, and the SOS must be one
/// full-spectrum scan over every component.
#[inline(always)]
fn baseline_after<'a>(
    data: &'a [u8],
    mut segs: Segments<'a>,
    mut tables: Tables,
    sof: &Segment<'a>,
) -> Result<ParsedJpeg<'a>> {
    let mut frame = parse_sof(sof.body()?)?;
    let seg = loop {
        let seg = segs.next_structural(&mut tables)?;
        match seg.marker {
            m::SOS => break seg,
            m::SOF0 | m::SOF1 => frame = parse_sof(seg.body()?)?,
            m::EOI => return Err(Error::Malformed("EOI before SOS")),
            marker => return Err(reject_frame(marker, false)),
        }
    };
    let scan = parse_sos(seg.body()?, &frame)?;
    if scan.comps.len() != frame.components.len() {
        return Err(Error::Unsupported("multi-scan JPEG"));
    }
    if (scan.ss, scan.se, scan.ah, scan.al) != (0, 63, 0, 0) {
        return Err(Error::Unsupported("spectral selection"));
    }
    for sc in &scan.comps {
        let comp = &mut frame.components[sc.comp];
        (comp.dc_tbl, comp.ac_tbl) = (sc.dc_tbl, sc.ac_tbl);
    }
    frame.restart_interval = tables.restart_interval;
    Ok(ParsedJpeg {
        frame,
        quant: tables.quant,
        dc_specs: tables.dc_specs,
        ac_specs: tables.ac_specs,
        scan_data: &data[segs.offset()..],
        file_size: data.len(),
    })
}

/// The facts about a stream's first frame that routing and dispatch need,
/// read without allocating and without parsing any table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrameSniff {
    /// The SOF marker (SOF0, SOF1 or SOF2).
    pub marker: u8,
    /// Image width in pixels.
    pub width: u16,
    /// Image height in pixels.
    pub height: u16,
    /// Number of components.
    pub components: u8,
    /// Sampling factors byte of the first component (0 when the component
    /// list is cut short).
    pub luma_sampling: u8,
}

/// Read the first frame header of a stream without allocating or parsing
/// any table. `None` when the walk meets SOS, EOI, a stray standalone
/// marker, a bad length field or the end first, or when the first SOFn is
/// not SOF0, SOF1 or SOF2 with a segment of at least six bytes.
pub fn sniff_frame(data: &[u8]) -> Option<FrameSniff> {
    let stop = |s: &Segment| matches!(s.marker, m::SOS | m::SOI | m::RST0..=m::RST7 | m::TEM);
    let mut segs = Segments::new(data).ok()?.map_while(Result::ok);
    let sof = segs.find(|s| is_sof(s.marker) || stop(s))?;
    let b = sof.body().ok()?;
    if !matches!(sof.marker, m::SOF0 | m::SOF1 | m::SOF2) || b.len() < 6 {
        return None;
    }
    Some(FrameSniff {
        marker: sof.marker,
        height: u16::from_be_bytes([b[1], b[2]]),
        width: u16::from_be_bytes([b[3], b[4]]),
        components: b[5],
        luma_sampling: if b.len() >= 9 { b[7] } else { 0 },
    })
}

/// Does this byte stream carry a progressive (SOF2) frame, by
/// [`sniff_frame`]? Anything unreadable is "not progressive" and left to
/// the reader's error reporting. Never allocates.
pub fn is_progressive(data: &[u8]) -> bool {
    sniff_frame(data).is_some_and(|f| f.marker == m::SOF2)
}

pub(crate) fn parse_sof(seg: &[u8]) -> Result<FrameInfo> {
    if seg.len() < 6 {
        return Err(Error::Malformed("SOF too short"));
    }
    let precision = seg[0];
    if precision != 8 {
        return Err(Error::Unsupported("12-bit precision"));
    }
    let height = u16::from_be_bytes([seg[1], seg[2]]) as usize;
    let width = u16::from_be_bytes([seg[3], seg[4]]) as usize;
    if width == 0 || height == 0 {
        return Err(Error::BadDimensions);
    }
    let ncomp = seg[5] as usize;
    if seg.len() < 6 + 3 * ncomp {
        return Err(Error::Malformed("SOF component list"));
    }
    let mut components = Vec::with_capacity(ncomp);
    for i in 0..ncomp {
        let b = &seg[6 + 3 * i..9 + 3 * i];
        components.push(ComponentSpec {
            id: b[0],
            h_samp: (b[1] >> 4) as usize,
            v_samp: (b[1] & 0x0F) as usize,
            quant_idx: b[2] as usize,
            dc_tbl: 0,
            ac_tbl: 0,
        });
    }
    let subsampling = FrameInfo::classify_subsampling(&components)?;
    Ok(FrameInfo {
        width,
        height,
        components,
        subsampling,
        restart_interval: 0,
    })
}

pub(crate) fn parse_dqt(mut seg: &[u8], quant: &mut [Option<QuantTable>; 4]) -> Result<()> {
    while !seg.is_empty() {
        let pq = seg[0] >> 4;
        let tq = (seg[0] & 0x0F) as usize;
        if tq > 3 {
            return Err(Error::Malformed("DQT table id"));
        }
        if pq != 0 {
            return Err(Error::Unsupported("16-bit quantization table"));
        }
        if seg.len() < 65 {
            return Err(Error::Malformed("DQT too short"));
        }
        let mut zz = [0u16; 64];
        for (dst, &src) in zz.iter_mut().zip(seg[1..65].iter()) {
            *dst = src as u16;
        }
        quant[tq] = Some(QuantTable::from_zigzag(&zz));
        seg = &seg[65..];
    }
    Ok(())
}

pub(crate) fn parse_dht(
    mut seg: &[u8],
    dc: &mut [Option<HuffSpec>; 4],
    ac: &mut [Option<HuffSpec>; 4],
) -> Result<()> {
    while !seg.is_empty() {
        if seg.len() < 17 {
            return Err(Error::Malformed("DHT too short"));
        }
        let class = seg[0] >> 4;
        let id = (seg[0] & 0x0F) as usize;
        if id > 3 || class > 1 {
            return Err(Error::Malformed("DHT table id/class"));
        }
        let mut bits = [0u8; 17];
        bits[1..17].copy_from_slice(&seg[1..17]);
        let count: usize = bits[1..17].iter().map(|&b| b as usize).sum();
        if seg.len() < 17 + count {
            return Err(Error::Malformed("DHT value list"));
        }
        let values = seg[17..17 + count].to_vec();
        let spec = HuffSpec { bits, values };
        spec.validate()?;
        if class == 0 {
            dc[id] = Some(spec);
        } else {
            ac[id] = Some(spec);
        }
        seg = &seg[17 + count..];
    }
    Ok(())
}

/// One component's participation in a scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanComp {
    /// Index into `frame.components`.
    pub comp: usize,
    /// DC Huffman table selector for this scan.
    pub dc_tbl: usize,
    /// AC Huffman table selector for this scan.
    pub ac_tbl: usize,
}

/// The SOS parameters of one scan: component list, spectral window and
/// successive-approximation bit positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanHeader {
    /// Components in scan order.
    pub comps: Vec<ScanComp>,
    /// Spectral selection start (0 for DC scans).
    pub ss: usize,
    /// Spectral selection end (0 for DC scans, up to 63 for AC).
    pub se: usize,
    /// Successive approximation high bit (0 on a coefficient's first pass).
    pub ah: u32,
    /// Successive approximation low bit: coefficients arrive scaled by 2^al.
    pub al: u32,
}

impl ScanHeader {
    /// True for DC scans (spectral selection starts at coefficient 0).
    #[inline]
    pub fn is_dc(&self) -> bool {
        self.ss == 0
    }

    /// True for refinement passes (successive approximation high bit set).
    #[inline]
    pub fn is_refinement(&self) -> bool {
        self.ah != 0
    }
}

/// Parse an SOS segment against the frame's component list: 1..=Nf
/// components, each named once, with table selectors 0..=3.
pub(crate) fn parse_sos(seg: &[u8], frame: &FrameInfo) -> Result<ScanHeader> {
    let ns = *seg.first().ok_or(Error::Malformed("SOS empty"))? as usize;
    if ns == 0 || ns > frame.components.len() {
        return Err(Error::Malformed("SOS component count"));
    }
    if seg.len() < 1 + 2 * ns + 3 {
        return Err(Error::Malformed("SOS too short"));
    }
    let mut comps: Vec<ScanComp> = Vec::with_capacity(ns);
    for pair in seg[1..1 + 2 * ns].chunks_exact(2) {
        let comp = frame
            .components
            .iter()
            .position(|c| c.id == pair[0])
            .ok_or(Error::Malformed("SOS references unknown component"))?;
        if comps.iter().any(|c| c.comp == comp) {
            return Err(Error::Malformed("SOS repeats a component"));
        }
        let (dc_tbl, ac_tbl) = ((pair[1] >> 4) as usize, (pair[1] & 0x0F) as usize);
        if dc_tbl > 3 || ac_tbl > 3 {
            return Err(Error::Malformed("SOS table selector"));
        }
        comps.push(ScanComp {
            comp,
            dc_tbl,
            ac_tbl,
        });
    }
    let tail = &seg[1 + 2 * ns..];
    Ok(ScanHeader {
        comps,
        ss: tail[0] as usize,
        se: tail[1] as usize,
        ah: (tail[2] >> 4) as u32,
        al: (tail[2] & 0x0F) as u32,
    })
}

// ---------------------------------------------------------------------------
// Segment writers (used by the encoder).
// ---------------------------------------------------------------------------

/// Write one marker segment: the marker, the length field, the body.
fn write_segment(out: &mut Vec<u8>, marker: u8, body: &[u8]) {
    out.extend_from_slice(&[0xFF, marker]);
    out.extend_from_slice(&(body.len() as u16 + 2).to_be_bytes());
    out.extend_from_slice(body);
}

/// Write SOI.
pub fn write_soi(out: &mut Vec<u8>) {
    out.extend_from_slice(&[0xFF, m::SOI]);
}

/// Write EOI.
pub fn write_eoi(out: &mut Vec<u8>) {
    out.extend_from_slice(&[0xFF, m::EOI]);
}

/// Write a minimal JFIF APP0 segment: version 1.1, no aspect-ratio units,
/// 1:1 density, no thumbnail.
pub fn write_app0_jfif(out: &mut Vec<u8>) {
    write_segment(out, m::APP0, b"JFIF\0\x01\x01\0\0\x01\0\x01\0\0");
}

/// Write one DQT segment containing a single 8-bit table.
pub fn write_dqt(out: &mut Vec<u8>, slot: u8, table: &QuantTable) {
    let mut body = vec![slot & 0x0F];
    body.extend(table.to_zigzag().iter().map(|&v| v as u8));
    write_segment(out, m::DQT, &body);
}

/// Write a frame header: SOF0 (baseline) or SOF2 (progressive) — the
/// layout is the same, only the marker byte differs.
pub fn write_sof(out: &mut Vec<u8>, marker: u8, frame: &FrameInfo) {
    let [h, w] = [frame.height as u16, frame.width as u16].map(u16::to_be_bytes);
    let mut body = vec![8, h[0], h[1], w[0], w[1], frame.components.len() as u8];
    for c in &frame.components {
        let sampling = ((c.h_samp as u8) << 4) | c.v_samp as u8;
        body.extend_from_slice(&[c.id, sampling, c.quant_idx as u8]);
    }
    write_segment(out, marker, &body);
}

/// Write one DHT segment containing a single table.
pub fn write_dht(out: &mut Vec<u8>, class: u8, slot: u8, spec: &HuffSpec) {
    let id = [(class << 4) | (slot & 0x0F)];
    write_segment(
        out,
        m::DHT,
        &[&id, &spec.bits[1..17], &spec.values].concat(),
    );
}

/// Write a DRI segment.
pub fn write_dri(out: &mut Vec<u8>, interval: u16) {
    write_segment(out, m::DRI, &interval.to_be_bytes());
}

/// Write the one full-spectrum SOS header of a baseline frame (scan data
/// follows immediately after).
pub fn write_sos(out: &mut Vec<u8>, frame: &FrameInfo) {
    let comps: Vec<(u8, u8, u8)> = (frame.components.iter())
        .map(|c| (c.id, c.dc_tbl as u8, c.ac_tbl as u8))
        .collect();
    write_sos_scan(out, &comps, 0, 63, 0, 0);
}

/// Write a progressive SOS header for an arbitrary component subset and
/// spectral/approximation window. `comps` lists `(component id, dc table,
/// ac table)` in scan order; entropy-coded data follows immediately after.
pub fn write_sos_scan(out: &mut Vec<u8>, comps: &[(u8, u8, u8)], ss: u8, se: u8, ah: u8, al: u8) {
    let mut body = vec![comps.len() as u8];
    for &(id, dc_tbl, ac_tbl) in comps {
        body.extend_from_slice(&[id, (dc_tbl << 4) | ac_tbl]);
    }
    body.extend_from_slice(&[ss, se, (ah << 4) | al]);
    write_segment(out, m::SOS, &body);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::huffman::spec;
    use crate::types::Subsampling;

    fn test_frame() -> FrameInfo {
        FrameInfo {
            width: 48,
            height: 32,
            components: vec![
                ComponentSpec {
                    id: 1,
                    h_samp: 2,
                    v_samp: 1,
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
            subsampling: Subsampling::S422,
            restart_interval: 0,
        }
    }

    /// Build a header-only JPEG and parse it back.
    #[test]
    fn header_roundtrip() {
        let frame = test_frame();
        let ql = QuantTable::luma_for_quality(80).unwrap();
        let qc = QuantTable::chroma_for_quality(80).unwrap();
        let mut out = Vec::new();
        write_soi(&mut out);
        write_app0_jfif(&mut out);
        write_dqt(&mut out, 0, &ql);
        write_dqt(&mut out, 1, &qc);
        write_sof(&mut out, m::SOF0, &frame);
        write_dht(&mut out, 0, 0, &spec::dc_luma());
        write_dht(&mut out, 1, 0, &spec::ac_luma());
        write_dht(&mut out, 0, 1, &spec::dc_chroma());
        write_dht(&mut out, 1, 1, &spec::ac_chroma());
        write_dri(&mut out, 7);
        write_sos(&mut out, &frame);
        out.extend_from_slice(&[0x12, 0x34]); // fake scan bytes
        write_eoi(&mut out);

        let parsed = parse_jpeg(&out).unwrap();
        assert_eq!(parsed.frame.width, 48);
        assert_eq!(parsed.frame.height, 32);
        assert_eq!(parsed.frame.subsampling, Subsampling::S422);
        assert_eq!(parsed.frame.restart_interval, 7);
        assert_eq!(parsed.quant[0].as_ref().unwrap(), &ql);
        assert_eq!(parsed.quant[1].as_ref().unwrap(), &qc);
        assert_eq!(parsed.dc_specs[0].as_ref().unwrap(), &spec::dc_luma());
        assert_eq!(parsed.ac_specs[1].as_ref().unwrap(), &spec::ac_chroma());
        assert_eq!(parsed.scan_data, &[0x12, 0x34, 0xFF, m::EOI]);
        assert_eq!(parsed.frame.components[0].dc_tbl, 0);
        assert_eq!(parsed.frame.components[1].ac_tbl, 1);
        assert_eq!(parsed.file_size, out.len());
    }

    #[test]
    fn rejects_truncated_and_bogus_files() {
        assert!(parse_jpeg(&[]).is_err());
        assert!(parse_jpeg(&[0xFF, 0xD8]).is_err());
        assert!(parse_jpeg(b"not a jpeg at all").is_err());
        // SOI then EOI without SOS.
        assert!(parse_jpeg(&[0xFF, 0xD8, 0xFF, 0xD9]).is_err());
    }

    #[test]
    fn rejects_progressive() {
        let mut out = Vec::new();
        write_soi(&mut out);
        // SOF2 with a minimal body.
        out.extend_from_slice(&[0xFF, 0xC2, 0x00, 0x0B, 8, 0, 16, 0, 16, 1, 1, 0x11, 0]);
        write_eoi(&mut out);
        assert_eq!(
            parse_jpeg(&out).unwrap_err(),
            Error::Unsupported("progressive JPEG")
        );
    }

    #[test]
    fn recognizes_arithmetic_and_hierarchical_frames() {
        // SOF9 (arithmetic sequential) and SOF10 (arithmetic progressive)
        // must fail with the dedicated variant, not a generic message.
        for sof in [0xC9u8, 0xCA] {
            let mut out = Vec::new();
            write_soi(&mut out);
            out.extend_from_slice(&[0xFF, sof, 0x00, 0x0B, 8, 0, 16, 0, 16, 1, 1, 0x11, 0]);
            write_eoi(&mut out);
            assert_eq!(parse_jpeg(&out).unwrap_err(), Error::ArithmeticCoding);
        }
        // A DHP segment (hierarchical mode) has SOF-shaped contents.
        let mut out = Vec::new();
        write_soi(&mut out);
        out.extend_from_slice(&[0xFF, 0xDE, 0x00, 0x0B, 8, 0, 16, 0, 16, 1, 1, 0x11, 0]);
        write_eoi(&mut out);
        assert_eq!(parse_jpeg(&out).unwrap_err(), Error::Hierarchical);
    }

    #[test]
    fn entropy_density_is_file_size_over_pixels() {
        let frame = test_frame();
        let mut out = Vec::new();
        write_soi(&mut out);
        write_sof(&mut out, m::SOF0, &frame);
        write_sos(&mut out, &frame);
        out.extend_from_slice(&[0u8; 100]);
        write_eoi(&mut out);
        let parsed = parse_jpeg(&out).unwrap();
        let expect = out.len() as f64 / (48.0 * 32.0);
        assert!((parsed.entropy_density() - expect).abs() < 1e-12);
    }

    /// A baseline SOS that names component 1 twice and component 2 never
    /// used to decode wrong pixels with no error; it is refused exactly as
    /// the progressive reader refuses it.
    #[test]
    fn sos_repeating_a_component_is_rejected_for_both_frame_kinds() {
        let frame = test_frame();
        let repeat = [(1, 0, 0), (1, 1, 1), (3, 1, 1)];
        let file = |sof, se| {
            let mut out = Vec::new();
            write_soi(&mut out);
            write_sof(&mut out, sof, &frame);
            write_sos_scan(&mut out, &repeat, 0, se, 0, 0);
            out.extend_from_slice(&[0x12, 0x34]);
            write_eoi(&mut out);
            out
        };
        let refused = Error::Malformed("SOS repeats a component");
        assert_eq!(parse_jpeg(&file(m::SOF0, 63)).unwrap_err(), refused);
        let progressive = file(m::SOF2, 0);
        let progressive = crate::progressive::parse_progressive(&progressive);
        assert_eq!(progressive.unwrap_err(), refused);
    }

    #[test]
    fn walker_reads_segments_fill_bytes_and_entropy_data() {
        let data = [
            0xFF, 0xD8, // SOI
            0xFF, 0xFF, 0xFE, 0x00, 0x03, 0xAA, // fill byte, COM with one byte
            0xFF, 0xD0, 0xFF, 0x01, // RST0 and TEM stand alone
            0xFF, 0xDA, 0x00, 0x02, // an empty SOS body
            0x11, 0xFF, 0x00, 0xFF, 0xD3, 0x22, // stuffed byte, RST3
            0xFF, 0xD9, // EOI
        ];
        let mut segs = Segments::new(&data).unwrap();
        let next = |segs: &mut Segments| {
            let s = segs.next_segment().unwrap();
            (s.marker, s.body().unwrap().to_vec())
        };
        assert_eq!(next(&mut segs), (m::COM, vec![0xAA]));
        assert_eq!(next(&mut segs), (m::RST0, vec![]));
        assert_eq!(next(&mut segs), (m::TEM, vec![]));
        assert_eq!(next(&mut segs), (m::SOS, vec![]));
        assert_eq!(segs.entropy_coded(), &[0x11, 0xFF, 0x00, 0xFF, 0xD3, 0x22]);
        assert!(!segs.at_end());
        assert_eq!(next(&mut segs), (m::EOI, vec![]));
        assert_eq!(Segments::new(&data).unwrap().count(), 5, "stops after EOI");
    }

    #[test]
    fn walker_bounds_checks_every_length_field() {
        let eof = Error::UnexpectedEof;
        for (tail, err) in [
            (
                &[0xFF, 0xE1, 0x00, 0x01][..],
                Error::Malformed("segment length"),
            ),
            (&[0xFF, 0xE1, 0x00, 0x09, 0x00], eof.clone()),
            (&[0xFF, 0xE1, 0x00], eof.clone()),
            (
                &[0xFF, 0xDD, 0x00, 0x05, 0, 0, 0],
                Error::Malformed("DRI length"),
            ),
            (&[0xFF, 0xDD, 0x00, 0x04], eof.clone()),
            (&[0xFF, 0xFF, 0xFF], eof.clone()),
        ] {
            let data = [&[0xFF, 0xD8][..], tail].concat();
            let mut segs = Segments::new(&data).unwrap();
            let seg = segs.next_segment().and_then(|s| s.body());
            assert_eq!(seg.unwrap_err(), err, "{tail:x?}");
            // A bad length field stops the walk whether or not the body
            // was asked for.
            assert!(segs.next_segment().is_err());
        }
        assert_eq!(
            Segments::new(&[0xFF, 0xD9, 0, 0]).unwrap_err(),
            Error::Malformed("missing SOI")
        );
    }

    /// SOI, a three-component SOF2, then a DRI whose payload is missing:
    /// the progressive reader used to index past the end and panic.
    #[test]
    fn dri_payload_past_the_end_is_eof() {
        let frame = test_frame();
        let mut out = Vec::new();
        write_soi(&mut out);
        write_sof(&mut out, m::SOF2, &frame);
        out.extend_from_slice(&[0xFF, m::DRI, 0x00, 0x04]);
        assert_eq!(out.len(), 25);
        assert!(is_progressive(&out));
        assert_eq!(parse(&out).unwrap_err(), Error::UnexpectedEof);
        assert_eq!(
            crate::progressive::parse_progressive(&out).unwrap_err(),
            Error::UnexpectedEof
        );
    }

    #[test]
    fn sniff_reads_the_first_frame_without_tables() {
        let frame = test_frame();
        let mut out = Vec::new();
        write_soi(&mut out);
        write_sof(&mut out, m::SOF2, &frame);
        let sniff = sniff_frame(&out).unwrap();
        assert_eq!(
            (sniff.marker, sniff.width, sniff.height, sniff.components),
            (m::SOF2, 48, 32, 3)
        );
        assert_eq!(sniff.luma_sampling, 0x21);
        assert!(is_progressive(&out));
        // A cut frame segment has neither a shape nor a kind.
        let cut = &out[..out.len() - 1];
        assert!(!is_progressive(cut) && sniff_frame(cut).is_none());
        assert_eq!(sniff_frame(&[0xFF, 0xD8, 0xFF, 0xD0, 0xFF, 0xC0]), None);
    }
}
