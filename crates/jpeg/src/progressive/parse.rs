//! Multi-scan parsing for progressive (SOF2) streams.
//!
//! The walk is the one every header reader shares ([`crate::markers`]):
//! the same segment walker, table state and SOS parser as the baseline
//! reader. What is progressive is what happens after the frame: the file
//! interleaves marker segments *between* entropy-coded scans — DHT (and,
//! rarely, DQT/DRI) may redefine tables mid-file — so each [`Scan`]
//! snapshots the table state in force when its SOS was read. The scan
//! script is validated against the T.81 §G progression rules up front, so
//! the decode stage never has to reason about illegal coefficient
//! histories.
//!
//! Structural truncation is *recoverable by design*: every scan completed
//! before the damage is kept, and [`ProgressiveParsed::complete`] /
//! [`ProgressiveParsed::damage`] tell the caller exactly what is missing —
//! that is what lets the session serve a well-defined partial render from a
//! prefix of scans under `Strictness::Tolerant`.

use crate::error::{Error, Result};
use crate::huffman::HuffSpec;
use crate::markers::{self, m, Segment, Segments, Tables};
pub use crate::markers::{is_progressive, ScanComp, ScanHeader};
use crate::quant::QuantTable;
use crate::types::FrameInfo;

/// One parsed scan: header, entropy data, and the table state snapshot the
/// scan decodes under.
#[derive(Debug, Clone)]
pub struct Scan<'a> {
    /// SOS parameters.
    pub header: ScanHeader,
    /// Entropy-coded bytes of this scan (restart markers embedded).
    pub data: &'a [u8],
    /// Byte offset of `data` within the whole file — scan boundaries for
    /// the truncation fuzzer and for diagnostics.
    pub data_offset: usize,
    /// DC Huffman specs by slot, as defined when this scan's SOS was read.
    pub dc_specs: [Option<HuffSpec>; 4],
    /// AC Huffman specs by slot, as defined when this scan's SOS was read.
    pub ac_specs: [Option<HuffSpec>; 4],
    /// Restart interval in force for this scan (MCUs for interleaved scans,
    /// blocks for non-interleaved ones; 0 = none).
    pub restart_interval: usize,
}

/// A fully parsed progressive JPEG: frame header, quantization tables and
/// the ordered scan sequence.
#[derive(Debug, Clone)]
pub struct ProgressiveParsed<'a> {
    /// Frame header from SOF2.
    pub frame: FrameInfo,
    /// Quantization tables by DQT slot.
    pub quant: [Option<QuantTable>; 4],
    /// Scans in file order.
    pub scans: Vec<Scan<'a>>,
    /// Total file size in bytes (entropy-density input, paper Eq. (3)).
    pub file_size: usize,
    /// True when the trailing EOI was seen; false means the file is
    /// truncated after the last recovered scan.
    pub complete: bool,
    /// Set when a structural error was hit *after* at least one scan had
    /// been recovered (bit-flipped length field, illegal late scan header,
    /// ...). Strict decoding propagates it; tolerant decoding renders the
    /// recovered prefix.
    pub damage: Option<Error>,
}

impl ProgressiveParsed<'_> {
    /// The paper's entropy density approximation `d = file_size / (w * h)`.
    pub fn entropy_density(&self) -> f64 {
        self.file_size as f64 / (self.frame.width as f64 * self.frame.height as f64)
    }

    /// Number of refinement (successive-approximation) passes in the script.
    pub fn refinement_scans(&self) -> usize {
        self.scans
            .iter()
            .filter(|s| s.header.is_refinement())
            .count()
    }
}

/// Parse a complete progressive JPEG byte stream. Errors before the first
/// complete scan are fatal; later structural damage is recorded in
/// [`ProgressiveParsed::damage`] with the scan prefix preserved.
pub fn parse_progressive(data: &[u8]) -> Result<ProgressiveParsed<'_>> {
    let (segs, tables, sof) = markers::frame_start(data, true)?;
    if sof.marker != m::SOF2 {
        return Err(markers::reject_frame(sof.marker, true));
    }
    scans_after(data, segs, tables, &sof)
}

/// The rest of a progressive stream after its SOF2 segment `sof`.
pub(crate) fn scans_after<'a>(
    data: &'a [u8],
    mut segs: Segments<'a>,
    mut tables: Tables,
    sof: &Segment<'a>,
) -> Result<ProgressiveParsed<'a>> {
    let frame = markers::parse_sof(sof.body()?)?;
    if frame.components.len() > 3 {
        return Err(Error::Unsupported("more than three components"));
    }
    let mut scans = Vec::new();
    let damage = walk_scans(&mut segs, &mut tables, &frame, &mut scans).err();
    if let (Some(e), true) = (&damage, scans.is_empty()) {
        return Err(e.clone());
    }
    Ok(ProgressiveParsed {
        frame,
        quant: tables.quant,
        scans,
        file_size: data.len(),
        complete: damage.is_none(),
        damage,
    })
}

/// Read scans up to EOI, each with the table state in force at its SOS.
/// A stream that ends inside a scan keeps that scan and fails with
/// `UnexpectedEof`.
fn walk_scans<'a>(
    segs: &mut Segments<'a>,
    tables: &mut Tables,
    frame: &FrameInfo,
    scans: &mut Vec<Scan<'a>>,
) -> Result<()> {
    // Progression tracker: `coef_bits[comp][k]` is the Al after the last
    // scan that coded coefficient `k` of component `comp`, or -1 before
    // any scan has (T.81 §G.1.1.1.1 scan-script rules).
    let mut coef_bits = [[-1i8; 64]; 4];
    loop {
        let seg = segs.next_structural(tables)?;
        match seg.marker {
            m::SOS => {
                let header = markers::parse_sos(seg.body()?, frame)?;
                validate_scan(&header, &mut coef_bits)?;
                scans.push(Scan {
                    header,
                    data_offset: segs.offset(),
                    data: segs.entropy_coded(),
                    dc_specs: tables.dc_specs.clone(),
                    ac_specs: tables.ac_specs.clone(),
                    restart_interval: tables.restart_interval,
                });
                if segs.at_end() {
                    return Err(Error::UnexpectedEof);
                }
            }
            m::EOI if scans.is_empty() => return Err(Error::Malformed("EOI before any scan")),
            m::EOI => return Ok(()),
            m::SOF2 => return Err(Error::Malformed("duplicate SOF")),
            marker => return Err(markers::reject_frame(marker, true)),
        }
    }
}

/// Enforce the T.81 §G.1.1.1.1 scan-script rules and track per-coefficient
/// successive-approximation state across scans.
fn validate_scan(header: &ScanHeader, coef_bits: &mut [[i8; 64]; 4]) -> Result<()> {
    let (ss, se, ah, al) = (header.ss, header.se, header.ah, header.al);
    if ss == 0 {
        if se != 0 {
            return Err(Error::Malformed("DC scan with nonzero spectral end"));
        }
    } else {
        // AC scans are always single-component (T.81 §G.1.1.1).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::huffman::spec;
    use crate::markers::{write_dht, write_dqt, write_eoi, write_sof, write_soi, write_sos_scan};
    use crate::types::ComponentSpec;

    fn frame_3() -> FrameInfo {
        FrameInfo {
            width: 32,
            height: 24,
            components: vec![
                ComponentSpec {
                    id: 1,
                    h_samp: 2,
                    v_samp: 2,
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
            subsampling: crate::types::Subsampling::S420,
            restart_interval: 0,
        }
    }

    /// A minimal syntactically valid 2-scan progressive file (the entropy
    /// bytes are nonsense — parse never looks inside them).
    fn two_scan_file() -> Vec<u8> {
        let frame = frame_3();
        let ql = QuantTable::luma_for_quality(80).unwrap();
        let mut out = Vec::new();
        write_soi(&mut out);
        write_dqt(&mut out, 0, &ql);
        write_dqt(&mut out, 1, &ql);
        write_sof(&mut out, m::SOF2, &frame);
        write_dht(&mut out, 0, 0, &spec::dc_luma());
        write_dht(&mut out, 0, 1, &spec::dc_chroma());
        write_sos_scan(&mut out, &[(1, 0, 0), (2, 1, 0), (3, 1, 0)], 0, 0, 0, 1);
        out.extend_from_slice(&[0x55, 0xAA]); // scan 1 entropy bytes
        write_dht(&mut out, 1, 0, &spec::ac_luma());
        write_sos_scan(&mut out, &[(1, 0, 0)], 1, 5, 0, 2);
        out.extend_from_slice(&[0x12, 0xFF, 0x00, 0x34]); // stuffed FF inside
        write_eoi(&mut out);
        out
    }

    #[test]
    fn sniffs_progressive_vs_baseline() {
        let prog = two_scan_file();
        assert!(is_progressive(&prog));
        let base = crate::encoder::encode_rgb(
            &vec![128u8; 16 * 16 * 3],
            16,
            16,
            &crate::encoder::EncodeParams::default(),
        )
        .unwrap();
        assert!(!is_progressive(&base));
        assert!(!is_progressive(&[]));
        assert!(!is_progressive(&[0xFF, 0xD8, 0xFF, 0xD9]));
    }

    #[test]
    fn parses_scan_structure_and_snapshots() {
        let file = two_scan_file();
        let p = parse_progressive(&file).unwrap();
        assert!(p.complete);
        assert!(p.damage.is_none());
        assert_eq!(p.scans.len(), 2);
        let s0 = &p.scans[0];
        assert_eq!(s0.header.comps.len(), 3);
        assert!(s0.header.is_dc() && !s0.header.is_refinement());
        assert_eq!((s0.header.ah, s0.header.al), (0, 1));
        assert_eq!(s0.data, &[0x55, 0xAA]);
        // Scan 1's snapshot must not yet contain the AC table defined later.
        assert!(s0.ac_specs[0].is_none());
        let s1 = &p.scans[1];
        assert_eq!((s1.header.ss, s1.header.se), (1, 5));
        assert!(s1.ac_specs[0].is_some());
        // Stuffed FF 00 stays inside the scan data.
        assert_eq!(s1.data, &[0x12, 0xFF, 0x00, 0x34]);
        assert_eq!(&file[s1.data_offset..s1.data_offset + 4], s1.data);
    }

    #[test]
    fn truncation_preserves_scan_prefix() {
        let file = two_scan_file();
        let p_full = parse_progressive(&file).unwrap();
        // Cut inside the second scan's entropy data.
        let cut = p_full.scans[1].data_offset + 1;
        let p = parse_progressive(&file[..cut]).unwrap();
        assert!(!p.complete);
        assert_eq!(p.scans.len(), 2);
        assert_eq!(p.scans[1].data.len(), 1);
        // Cut before the first scan completes: fatal.
        let early = p_full.scans[0].data_offset.saturating_sub(4);
        assert!(parse_progressive(&file[..early]).is_err());
    }

    #[test]
    fn scan_script_violations_are_rejected() {
        let frame = frame_3();
        type ScanSpec<'a> = (&'a [(u8, u8, u8)], u8, u8, u8, u8);
        let build = |scans: &[ScanSpec]| -> Vec<u8> {
            let ql = QuantTable::luma_for_quality(80).unwrap();
            let mut out = Vec::new();
            write_soi(&mut out);
            write_dqt(&mut out, 0, &ql);
            write_sof(&mut out, m::SOF2, &frame);
            write_dht(&mut out, 0, 0, &spec::dc_luma());
            write_dht(&mut out, 1, 0, &spec::ac_luma());
            for &(comps, ss, se, ah, al) in scans {
                write_sos_scan(&mut out, comps, ss, se, ah, al);
                out.push(0x00);
            }
            write_eoi(&mut out);
            out
        };
        // AC before DC.
        let f = build(&[(&[(1, 0, 0)], 1, 5, 0, 0)]);
        assert!(parse_progressive(&f).is_err());
        // Interleaved AC scan.
        let f = build(&[
            (&[(1, 0, 0), (2, 0, 0), (3, 0, 0)], 0, 0, 0, 0),
            (&[(1, 0, 0), (2, 0, 0)], 1, 5, 0, 0),
        ]);
        assert!(parse_progressive(&f).unwrap().damage.is_some());
        // Refinement without matching prior precision.
        let f = build(&[
            (&[(1, 0, 0), (2, 0, 0), (3, 0, 0)], 0, 0, 0, 0),
            (&[(1, 0, 0)], 1, 5, 3, 2),
        ]);
        assert!(parse_progressive(&f).unwrap().damage.is_some());
        // Coefficient coded twice at full precision.
        let f = build(&[
            (&[(1, 0, 0), (2, 0, 0), (3, 0, 0)], 0, 0, 0, 0),
            (&[(1, 0, 0)], 1, 5, 0, 0),
            (&[(1, 0, 0)], 5, 10, 0, 0),
        ]);
        assert!(parse_progressive(&f).unwrap().damage.is_some());
        // A legal spectral split parses cleanly.
        let f = build(&[
            (&[(1, 0, 0), (2, 0, 0), (3, 0, 0)], 0, 0, 0, 0),
            (&[(1, 0, 0)], 1, 5, 0, 0),
            (&[(1, 0, 0)], 6, 63, 0, 0),
        ]);
        let p = parse_progressive(&f).unwrap();
        assert!(p.damage.is_none());
        assert_eq!(p.scans.len(), 3);
    }
}
