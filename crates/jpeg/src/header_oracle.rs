//! The four hand-written header walkers the segment walker in
//! [`crate::markers`] replaced, kept verbatim as the oracle of the header
//! differential test: the baseline `parse_jpeg`, the progressive
//! `run_parse`, the `is_progressive` sniff and serve's `shape_key` byte loop.
//! Only their entry points were renamed; their bounds rules (and the DRI
//! overrun in `run_parse`) are the ones the differential holds the walker
//! against.

use crate::error::{Error, Result};
use crate::huffman::HuffSpec;
use crate::markers::{m, parse_dht, parse_dqt, parse_sof, ParsedJpeg, ScanComp, ScanHeader};
use crate::progressive::{ProgressiveParsed, Scan};
use crate::quant::QuantTable;
use crate::types::FrameInfo;

fn read_u16(data: &[u8], pos: usize) -> Result<u16> {
    if pos + 1 >= data.len() {
        return Err(Error::UnexpectedEof);
    }
    Ok(u16::from_be_bytes([data[pos], data[pos + 1]]))
}

/// The baseline parser.
pub fn parse_jpeg(data: &[u8]) -> Result<ParsedJpeg<'_>> {
    if data.len() < 4 || data[0] != 0xFF || data[1] != m::SOI {
        return Err(Error::Malformed("missing SOI"));
    }
    let mut pos = 2usize;
    let mut frame: Option<FrameInfo> = None;
    let mut quant: [Option<QuantTable>; 4] = [None, None, None, None];
    let mut dc_specs: [Option<HuffSpec>; 4] = [None, None, None, None];
    let mut ac_specs: [Option<HuffSpec>; 4] = [None, None, None, None];
    let mut restart_interval = 0usize;

    loop {
        if pos + 1 >= data.len() {
            return Err(Error::UnexpectedEof);
        }
        if data[pos] != 0xFF {
            return Err(Error::Malformed("expected marker"));
        }
        let mut marker = data[pos + 1];
        pos += 2;
        while marker == 0xFF {
            marker = *data.get(pos).ok_or(Error::UnexpectedEof)?;
            pos += 1;
        }
        match marker {
            m::SOF0 | m::SOF1 => {
                let len = read_u16(data, pos)? as usize;
                let seg = data.get(pos + 2..pos + len).ok_or(Error::UnexpectedEof)?;
                frame = Some(parse_sof(seg)?);
                pos += len;
            }
            m::SOF2 => return Err(Error::Unsupported("progressive JPEG")),
            m::SOF9 | m::SOF10 => return Err(Error::ArithmeticCoding),
            m::DHP => return Err(Error::Hierarchical),
            0xC3 | 0xC5..=0xC7 | 0xCB | 0xCD..=0xCF => {
                return Err(Error::Unsupported("non-baseline SOF"));
            }
            m::DQT => {
                let len = read_u16(data, pos)? as usize;
                let seg = data.get(pos + 2..pos + len).ok_or(Error::UnexpectedEof)?;
                parse_dqt(seg, &mut quant)?;
                pos += len;
            }
            m::DHT => {
                let len = read_u16(data, pos)? as usize;
                let seg = data.get(pos + 2..pos + len).ok_or(Error::UnexpectedEof)?;
                parse_dht(seg, &mut dc_specs, &mut ac_specs)?;
                pos += len;
            }
            m::DRI => {
                let len = read_u16(data, pos)? as usize;
                if len != 4 {
                    return Err(Error::Malformed("DRI length"));
                }
                restart_interval = read_u16(data, pos + 2)? as usize;
                pos += len;
            }
            m::SOS => {
                let len = read_u16(data, pos)? as usize;
                let seg = data.get(pos + 2..pos + len).ok_or(Error::UnexpectedEof)?;
                let mut fr = frame.ok_or(Error::Malformed("SOS before SOF"))?;
                parse_baseline_sos(seg, &mut fr)?;
                fr.restart_interval = restart_interval;
                let scan_start = pos + len;
                let scan_data = data.get(scan_start..).ok_or(Error::UnexpectedEof)?;
                return Ok(ParsedJpeg {
                    frame: fr,
                    quant,
                    dc_specs,
                    ac_specs,
                    scan_data,
                    file_size: data.len(),
                });
            }
            m::EOI => return Err(Error::Malformed("EOI before SOS")),
            0xE0..=0xEF | m::COM | 0x01 => {
                let len = read_u16(data, pos)? as usize;
                pos += len;
            }
            _ => {
                let len = read_u16(data, pos)? as usize;
                if len < 2 {
                    return Err(Error::Malformed("segment length"));
                }
                pos += len;
            }
        }
    }
}

fn parse_baseline_sos(seg: &[u8], frame: &mut FrameInfo) -> Result<()> {
    if seg.is_empty() {
        return Err(Error::Malformed("SOS empty"));
    }
    let ns = seg[0] as usize;
    if ns != frame.components.len() {
        return Err(Error::Unsupported("multi-scan JPEG"));
    }
    if seg.len() < 1 + 2 * ns + 3 {
        return Err(Error::Malformed("SOS too short"));
    }
    for i in 0..ns {
        let cs = seg[1 + 2 * i];
        let tables = seg[2 + 2 * i];
        let comp = frame
            .components
            .iter_mut()
            .find(|c| c.id == cs)
            .ok_or(Error::Malformed("SOS references unknown component"))?;
        comp.dc_tbl = (tables >> 4) as usize;
        comp.ac_tbl = (tables & 0x0F) as usize;
        if comp.dc_tbl > 3 || comp.ac_tbl > 3 {
            return Err(Error::Malformed("SOS table selector"));
        }
    }
    let tail = &seg[1 + 2 * ns..];
    if tail[0] != 0 || tail[1] != 63 || tail[2] != 0 {
        return Err(Error::Unsupported("spectral selection"));
    }
    Ok(())
}

/// The progressive sniff.
pub fn is_progressive(data: &[u8]) -> bool {
    if data.len() < 4 || data[0] != 0xFF || data[1] != m::SOI {
        return false;
    }
    let mut pos = 2usize;
    loop {
        if pos + 1 >= data.len() || data[pos] != 0xFF {
            return false;
        }
        let mut marker = data[pos + 1];
        pos += 2;
        while marker == 0xFF {
            match data.get(pos) {
                Some(&b) => marker = b,
                None => return false,
            }
            pos += 1;
        }
        match marker {
            m::SOF2 => return true,
            0xC0 | 0xC1 | 0xC3 | 0xC5..=0xC7 | 0xC9..=0xCB | 0xCD..=0xCF | m::SOS | m::EOI => {
                return false;
            }
            m::SOI | 0xD0..=0xD7 => return false,
            _ => {
                let Some(len) = read_len(data, pos) else {
                    return false;
                };
                pos += len;
            }
        }
    }
}

fn read_len(data: &[u8], pos: usize) -> Option<usize> {
    if pos + 1 >= data.len() {
        return None;
    }
    let len = u16::from_be_bytes([data[pos], data[pos + 1]]) as usize;
    if len < 2 {
        return None;
    }
    Some(len)
}

fn scan_data_end(data: &[u8], start: usize) -> usize {
    let mut i = start;
    while i + 1 < data.len() {
        if data[i] == 0xFF {
            let next = data[i + 1];
            if next != 0x00 && !(m::RST0..=m::RST7).contains(&next) {
                return i;
            }
            i += 2;
        } else {
            i += 1;
        }
    }
    data.len()
}

/// The progressive parser (panics on a DRI payload past the end).
pub fn parse_progressive(data: &[u8]) -> Result<ProgressiveParsed<'_>> {
    if data.len() < 4 || data[0] != 0xFF || data[1] != m::SOI {
        return Err(Error::Malformed("missing SOI"));
    }
    let mut st = ParseState {
        frame: None,
        quant: [None, None, None, None],
        dc_specs: [None, None, None, None],
        ac_specs: [None, None, None, None],
        restart_interval: 0,
        scans: Vec::new(),
        coef_bits: [[-1i8; 64]; 4],
        complete: false,
    };
    let damage = match run_parse(data, &mut st) {
        Ok(()) => None,
        Err(e) if st.scans.is_empty() => return Err(e),
        Err(e) => Some(e),
    };
    let frame = match st.frame {
        Some(f) => f,
        None => return Err(Error::Malformed("missing SOF2")),
    };
    if st.scans.is_empty() && damage.is_none() {
        return Err(Error::Malformed("progressive stream has no scans"));
    }
    Ok(ProgressiveParsed {
        frame,
        quant: st.quant,
        scans: st.scans,
        file_size: data.len(),
        complete: st.complete,
        damage,
    })
}

struct ParseState<'a> {
    frame: Option<FrameInfo>,
    quant: [Option<QuantTable>; 4],
    dc_specs: [Option<HuffSpec>; 4],
    ac_specs: [Option<HuffSpec>; 4],
    restart_interval: usize,
    scans: Vec<Scan<'a>>,
    coef_bits: [[i8; 64]; 4],
    complete: bool,
}

fn run_parse<'a>(data: &'a [u8], st: &mut ParseState<'a>) -> Result<()> {
    let mut pos = 2usize;
    loop {
        if pos + 1 >= data.len() {
            return Err(Error::UnexpectedEof);
        }
        if data[pos] != 0xFF {
            return Err(Error::Malformed("expected marker"));
        }
        let mut marker = data[pos + 1];
        pos += 2;
        while marker == 0xFF {
            marker = *data.get(pos).ok_or(Error::UnexpectedEof)?;
            pos += 1;
        }
        match marker {
            m::SOF2 => {
                if st.frame.is_some() {
                    return Err(Error::Malformed("duplicate SOF"));
                }
                let len = read_len(data, pos).ok_or(Error::UnexpectedEof)?;
                let seg = data.get(pos + 2..pos + len).ok_or(Error::UnexpectedEof)?;
                let frame = parse_sof(seg)?;
                if frame.components.len() > 3 {
                    return Err(Error::Unsupported("more than three components"));
                }
                st.frame = Some(frame);
                pos += len;
            }
            m::SOF0 | m::SOF1 | 0xC3 | 0xC5..=0xC7 | 0xCB | 0xCD..=0xCF => {
                return Err(Error::Unsupported("expected progressive SOF2"));
            }
            m::SOF9 | m::SOF10 => return Err(Error::ArithmeticCoding),
            m::DHP => return Err(Error::Hierarchical),
            m::DQT => {
                let len = read_len(data, pos).ok_or(Error::UnexpectedEof)?;
                let seg = data.get(pos + 2..pos + len).ok_or(Error::UnexpectedEof)?;
                parse_dqt(seg, &mut st.quant)?;
                pos += len;
            }
            m::DHT => {
                let len = read_len(data, pos).ok_or(Error::UnexpectedEof)?;
                let seg = data.get(pos + 2..pos + len).ok_or(Error::UnexpectedEof)?;
                parse_dht(seg, &mut st.dc_specs, &mut st.ac_specs)?;
                pos += len;
            }
            m::DRI => {
                let len = read_len(data, pos).ok_or(Error::UnexpectedEof)?;
                if len != 4 {
                    return Err(Error::Malformed("DRI length"));
                }
                st.restart_interval = u16::from_be_bytes([data[pos + 2], data[pos + 3]]) as usize;
                pos += len;
            }
            m::SOS => {
                let len = read_len(data, pos).ok_or(Error::UnexpectedEof)?;
                let seg = data.get(pos + 2..pos + len).ok_or(Error::UnexpectedEof)?;
                let frame = st
                    .frame
                    .as_ref()
                    .ok_or(Error::Malformed("SOS before SOF"))?;
                let header = parse_progressive_sos(seg, frame)?;
                validate_scan(&header, &mut st.coef_bits)?;
                let start = pos + len;
                if start > data.len() {
                    return Err(Error::UnexpectedEof);
                }
                let end = scan_data_end(data, start);
                st.scans.push(Scan {
                    header,
                    data: &data[start..end],
                    data_offset: start,
                    dc_specs: st.dc_specs.clone(),
                    ac_specs: st.ac_specs.clone(),
                    restart_interval: st.restart_interval,
                });
                if end >= data.len() {
                    return Err(Error::UnexpectedEof);
                }
                pos = end;
            }
            m::EOI => {
                if st.scans.is_empty() {
                    return Err(Error::Malformed("EOI before any scan"));
                }
                st.complete = true;
                return Ok(());
            }
            0xE0..=0xEF | m::COM | m::TEM => {
                let len = read_len(data, pos).ok_or(Error::UnexpectedEof)?;
                pos += len;
            }
            _ => {
                let len = read_len(data, pos).ok_or(Error::Malformed("segment length"))?;
                pos += len;
            }
        }
    }
}

fn parse_progressive_sos(seg: &[u8], frame: &FrameInfo) -> Result<ScanHeader> {
    if seg.is_empty() {
        return Err(Error::Malformed("SOS empty"));
    }
    let ns = seg[0] as usize;
    if ns == 0 || ns > frame.components.len() {
        return Err(Error::Malformed("SOS component count"));
    }
    if seg.len() < 1 + 2 * ns + 3 {
        return Err(Error::Malformed("SOS too short"));
    }
    let mut comps = Vec::with_capacity(ns);
    for i in 0..ns {
        let cs = seg[1 + 2 * i];
        let tables = seg[2 + 2 * i];
        let comp = frame
            .components
            .iter()
            .position(|c| c.id == cs)
            .ok_or(Error::Malformed("SOS references unknown component"))?;
        if comps.iter().any(|c: &ScanComp| c.comp == comp) {
            return Err(Error::Malformed("SOS repeats a component"));
        }
        let dc_tbl = (tables >> 4) as usize;
        let ac_tbl = (tables & 0x0F) as usize;
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

fn validate_scan(header: &ScanHeader, coef_bits: &mut [[i8; 64]; 4]) -> Result<()> {
    let (ss, se, ah, al) = (header.ss, header.se, header.ah, header.al);
    if ss == 0 {
        if se != 0 {
            return Err(Error::Malformed("DC scan with nonzero spectral end"));
        }
    } else {
        if header.comps.len() != 1 {
            return Err(Error::Malformed("interleaved AC scan"));
        }
        if se < ss || se > 63 {
            return Err(Error::Malformed("spectral selection range"));
        }
    }
    if al > 13 {
        return Err(Error::Malformed("successive approximation low bit"));
    }
    if ah != 0 && ah != al + 1 {
        return Err(Error::Malformed("successive approximation transition"));
    }
    for sc in &header.comps {
        let bits = &mut coef_bits[sc.comp];
        if ss > 0 && bits[0] < 0 {
            return Err(Error::Malformed("AC scan before DC scan"));
        }
        for b in &mut bits[ss..=se.max(ss)] {
            if ah == 0 {
                if *b >= 0 {
                    return Err(Error::Malformed(
                        "coefficient coded twice at full precision",
                    ));
                }
            } else if *b != ah as i8 {
                return Err(Error::Malformed("successive approximation out of order"));
            }
            *b = al as i8;
        }
    }
    Ok(())
}

/// Serve's routing fingerprint (width, height, component count, luma
/// sampling factors).
pub fn shape_key(data: &[u8]) -> Option<(u16, u16, u8, u8)> {
    if data.len() < 4 || data[0] != 0xFF || data[1] != m::SOI {
        return None;
    }
    let mut pos = 2usize;
    while pos + 3 < data.len() {
        if data[pos] != 0xFF {
            return None;
        }
        let marker = data[pos + 1];
        match marker {
            0xFF => {
                pos += 1;
                continue;
            }
            m::TEM | m::RST0..=m::RST7 => {
                pos += 2;
                continue;
            }
            m::SOS | m::EOI => return None,
            _ => {}
        }
        let len = u16::from_be_bytes([data[pos + 2], data[pos + 3]]) as usize;
        if len < 2 || pos + 2 + len > data.len() {
            return None;
        }
        if marker == m::SOF0 || marker == m::SOF1 || marker == m::SOF2 {
            let seg = &data[pos + 4..pos + 2 + len];
            if seg.len() < 6 {
                return None;
            }
            let height = u16::from_be_bytes([seg[1], seg[2]]);
            let width = u16::from_be_bytes([seg[3], seg[4]]);
            let ncomp = seg[5];
            let sampling = if seg.len() >= 9 { seg[7] } else { 0 };
            return Some((width, height, ncomp, sampling));
        }
        pos += 2 + len;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{encode_rgb, EncodeParams};
    use crate::markers::{self, Parsed};
    use crate::progressive::{self, encode_rgb_progressive, ScanPreset};
    use crate::types::Subsampling;
    use std::collections::BTreeMap;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// One entry point's answer: the `Debug` text of an `Ok` value, the
    /// error, or a panic.
    #[derive(Debug, Clone, PartialEq)]
    enum Answer {
        Ok(String),
        Err(Error),
        Panic,
    }

    fn answer<T: std::fmt::Debug>(f: impl FnOnce() -> Result<T>) -> Answer {
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => Answer::Ok(format!("{v:?}")),
            Ok(Err(e)) => Answer::Err(e),
            Err(_) => Answer::Panic,
        }
    }

    fn corpus() -> Vec<(String, Vec<u8>)> {
        let (w, h) = (24usize, 16usize);
        let rgb = crate::testutil::noise_rgb(w * h, 0x4EAD);
        let mut out = Vec::new();
        for dri in [0usize, 3] {
            let params = |subsampling| EncodeParams {
                quality: 80,
                subsampling,
                restart_interval: dri,
            };
            for sub in [Subsampling::S444, Subsampling::S422, Subsampling::S420] {
                let jpeg = encode_rgb(&rgb, w as u32, h as u32, &params(sub)).unwrap();
                out.push((format!("base-{}-dri{dri}", sub.notation()), jpeg));
            }
            for preset in [ScanPreset::Standard10, ScanPreset::Spectral4] {
                let params = params(Subsampling::S420);
                let jpeg = encode_rgb_progressive(&rgb, w as u32, h as u32, &params, preset);
                out.push((format!("prog-{preset:?}-dri{dri}"), jpeg.unwrap()));
            }
        }
        out
    }

    /// Bytes before the first entropy-coded byte.
    fn header_len(file: &[u8]) -> usize {
        match markers::parse(file).unwrap() {
            Parsed::Baseline(p) => file.len() - p.scan_data.len(),
            Parsed::Progressive(p) => p.scans[0].data_offset,
        }
    }

    /// Offset of the first segment with `marker`.
    fn find(file: &[u8], marker: u8) -> usize {
        (2..file.len())
            .find(|&i| file[i - 1] == 0xFF && file[i] == marker)
            .map(|i| i - 1)
            .unwrap()
    }

    fn splice(file: &[u8], at: usize, bytes: &[u8]) -> Vec<u8> {
        [&file[..at], bytes, &file[at..]].concat()
    }

    /// Hand-made edge cases over one baseline and one progressive file.
    fn hand_made(base: &[u8], prog: &[u8]) -> Vec<(String, Vec<u8>)> {
        let mut out = Vec::new();
        for (kind, file) in [("base", base), ("prog", prog)] {
            let sof = find(file, if kind == "base" { m::SOF0 } else { m::SOF2 });
            let sos = find(file, m::SOS);
            let mut fill = file.to_vec();
            for at in [sos, sof, 2] {
                fill = splice(&fill, at, &[0xFF, 0xFF, 0xFF]);
            }
            out.push((format!("{kind} fill bytes"), fill));
            for (name, marker) in [("APP1", 0xE1u8), ("COM", m::COM), ("TEM", m::TEM)] {
                for len in 0u8..=2 {
                    let seg = [0xFF, marker, 0, len];
                    out.push((format!("{kind} {name} len {len}"), splice(file, 2, &seg)));
                }
            }
            out.push((format!("{kind} bare TEM"), splice(file, 2, &[0xFF, m::TEM])));
            out.push((
                format!("{kind} stray SOI"),
                splice(file, 2, &[0xFF, m::SOI]),
            ));
            out.push((
                format!("{kind} stray RST0"),
                splice(file, sof, &[0xFF, m::RST0]),
            ));
            out.push((
                format!("{kind} EOI first"),
                splice(file, 2, &[0xFF, m::EOI]),
            ));
            for (dims, hi, lo) in [("1x1", 0u8, 1u8), ("65535x65535", 0xFF, 0xFF)] {
                let mut f = file.to_vec();
                f[sof + 5..sof + 9].copy_from_slice(&[hi, lo, hi, lo]);
                out.push((format!("{kind} SOF {dims}"), f));
            }
            // The SOS names component 1 twice and component 2 never.
            let mut f = file.to_vec();
            f[sos + 7] = f[sos + 5];
            out.push((format!("{kind} SOS repeats a component"), f));
        }
        let sof = find(prog, m::SOF2);
        let sof_len = usize::from(u16::from_be_bytes([prog[sof + 2], prog[sof + 3]])) + 2;
        let dup = splice(prog, sof, &prog[sof..sof + sof_len]);
        out.push(("prog duplicate SOF2".into(), dup));
        // SOI + SOF2 + a DRI whose payload is missing.
        let mut dri = prog[..sof + sof_len].to_vec();
        dri.splice(2..sof, []);
        dri.extend_from_slice(&[0xFF, m::DRI, 0, 4]);
        out.push(("prog DRI payload past the end".into(), dri));
        out
    }

    /// Every answer the old and the new readers give for one input.
    struct Answers {
        jpeg: Answer,
        progressive: Answer,
        /// What a session decodes: the old sniff-then-parse dispatch, the
        /// new one-walk [`markers::parse`].
        dispatch: Answer,
        is_progressive: bool,
        key: Option<(u16, u16, u8, u8)>,
    }

    fn old_answers(d: &[u8]) -> Answers {
        let jpeg = answer(|| parse_jpeg(d));
        let progressive = answer(|| parse_progressive(d));
        let is_progressive = is_progressive(d);
        let dispatch = if is_progressive {
            progressive.clone()
        } else {
            jpeg.clone()
        };
        Answers {
            jpeg,
            progressive,
            dispatch,
            is_progressive,
            key: shape_key(d),
        }
    }

    fn new_answers(d: &[u8]) -> Answers {
        Answers {
            jpeg: answer(|| markers::parse_jpeg(d)),
            progressive: answer(|| progressive::parse_progressive(d)),
            dispatch: match markers::parse(d) {
                Ok(Parsed::Baseline(p)) => Answer::Ok(format!("{p:?}")),
                Ok(Parsed::Progressive(p)) => Answer::Ok(format!("{p:?}")),
                Err(e) => Answer::Err(e),
            },
            is_progressive: markers::is_progressive(d),
            key: markers::sniff_frame(d)
                .map(|f| (f.width, f.height, f.components, f.luma_sampling)),
        }
    }

    /// The classes of answer the walker may change, each with the reason.
    /// Everything else must be the same answer.
    fn class_of(old: &Answer, new: &Answer) -> Option<&'static str> {
        use Answer::{Err as E, Ok as O, Panic};
        let mal = |what| E(Error::Malformed(what));
        Some(match (old, new) {
            (Panic, E(Error::UnexpectedEof)) => "P: the old progressive reader indexed a DRI payload past the end",
            (O(_), n) if *n == mal("SOS repeats a component") => "R: a baseline SOS named a component twice",
            (_, n) if *n == mal("stray marker") => "S: SOI/RSTn/TEM in the header; the old parsers read a length after it, is_progressive stopped, shape_key stepped over RSTn/TEM",
            (E(Error::UnexpectedEof) | E(Error::Malformed("expected marker")), n)
                if *n == mal("segment length") || *n == mal("DRI length") =>
            {
                "L: a length field under 2 (under 4 for DRI); the old readers answered by marker kind and parser"
            }
            (E(Error::Unsupported("multi-scan JPEG")), n) if *n == mal("SOS component count") => {
                "C: an SOS component count of 0 or above the frame's; baseline said multi-scan, progressive said count"
            }
            _ => return None,
        })
    }

    /// Changed answers by class: count and first example.
    type Changes = BTreeMap<String, (usize, String)>;

    fn compare(entry: &str, case: &str, old: &Answer, new: &Answer, changes: &mut Changes) {
        match (old, new) {
            (Answer::Ok(a), Answer::Ok(b)) => assert!(a == b, "{case}: {entry} Ok value changed"),
            (Answer::Err(a), Answer::Err(b)) if a == b => {}
            _ => {
                let class = class_of(old, new)
                    .unwrap_or_else(|| panic!("{case}: {entry} {old:?} -> {new:?}"));
                let short = |a: &Answer| match a {
                    Answer::Ok(_) => "Ok".to_string(),
                    other => format!("{other:?}"),
                };
                let example = format!("{case}, {entry}: {} -> {}", short(old), short(new));
                let kind = match old {
                    Answer::Ok(_) => "Ok -> Err",
                    Answer::Err(_) => "Err -> other Err",
                    Answer::Panic => "panic -> Err",
                };
                let key = format!("{class} [{kind}]");
                changes.entry(key).or_insert((0, example)).0 += 1;
            }
        }
    }

    fn check(case: &str, d: &[u8], changes: &mut Changes) {
        let (old, new) = (old_answers(d), new_answers(d));
        compare("parse_jpeg", case, &old.jpeg, &new.jpeg, changes);
        compare(
            "parse_progressive",
            case,
            &old.progressive,
            &new.progressive,
            changes,
        );
        compare("dispatch", case, &old.dispatch, &new.dispatch, changes);
        // Every entry point that reads the stream agrees with an `Ok`
        // parse, and routing keeps its shard. On an `Err` the sniffs may
        // only lose what they found (class S, or an SOFn other than
        // SOF0/1/2 first: the first SOF decides).
        if let Ok(parsed) = markers::parse(d) {
            let (frame, progressive, entry) = match &parsed {
                Parsed::Baseline(p) => (&p.frame, false, &new.jpeg),
                Parsed::Progressive(p) => (&p.frame, true, &new.progressive),
            };
            assert!(entry == &new.dispatch, "{case}: entry points disagree");
            assert_eq!(new.is_progressive, progressive, "{case}: sniff disagrees");
            let key = new.key.expect("an Ok parse has a routing key");
            assert_eq!(
                (usize::from(key.0), usize::from(key.1), usize::from(key.2)),
                (frame.width, frame.height, frame.components.len()),
                "{case}: sniff reads another frame"
            );
            assert_eq!(old.key, new.key, "{case}: route moved");
            assert_eq!(old.is_progressive, progressive, "{case}");
        } else {
            assert!(
                new.key.is_none() || new.key == old.key,
                "{case}: route moved"
            );
            assert!(!new.is_progressive || old.is_progressive, "{case}");
        }
    }

    #[test]
    fn header_walker_matches_the_old_readers() {
        let corpus = corpus();
        let mut changes = Changes::new();
        let mut inputs = 0usize;
        for (name, file) in &corpus {
            let head = header_len(file);
            for cut in 0..=head {
                check(&format!("{name} cut {cut}"), &file[..cut], &mut changes);
                inputs += 1;
            }
            for byte in 0..head {
                for bit in 0..8 {
                    let mut d = file.clone();
                    d[byte] ^= 1 << bit;
                    check(&format!("{name} flip {byte}.{bit}"), &d, &mut changes);
                    inputs += 1;
                }
            }
            check(name, file, &mut changes);
        }
        let (base, prog) = (&corpus[0].1, &corpus[3].1);
        for (name, d) in hand_made(base, prog) {
            check(&name, &d, &mut changes);
            inputs += 1;
        }
        eprintln!("{inputs} inputs; changed answers by class:");
        for (class, (count, example)) in &changes {
            eprintln!("{count:5}  {class}\n       e.g. {example}");
        }
        let count = |tag: &str| {
            changes
                .iter()
                .find(|(c, _)| c.starts_with(tag))
                .map_or(0, |(_, v)| v.0)
        };
        assert!(
            count("P") > 0 && count("R") > 0,
            "the corpus must reach both defects"
        );
    }
}
