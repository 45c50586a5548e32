//! The length-prefixed wire protocol: one request grammar, the response
//! encoders, and the blocking transport behind `--stdio` and the in-memory
//! tests.
//!
//! Framing is deliberately minimal — the interesting machinery (sharding,
//! batch admission, SLO shedding) lives behind [`ServeHandle`]; the wire
//! just carries bytes in and pixels out:
//!
//! ```text
//! request  := u32_be length | payload                 (length 0 = goodbye)
//!   v1: payload = length bytes of JPEG
//!   v2: length prefix has bit 31 set; payload =
//!       version(1)=2 | flags(1) | u32_be deadline_us | u32_be jpeg_len
//!       | [u16_be opt_len | opt_len bytes of TLV options]   (flags bit 1)
//!       | jpeg
//! response := 0u8  | u32_be width | u32_be height | u32_be n | n bytes RGB
//!           | 1u8  | u32_be n | n bytes of UTF-8 error message
//!           | 2u8  | u32_be retry_after_us                    (busy / shed)
//!           | 3u8                                             (shutdown drain)
//!           | 4u8  | u32_be width | u32_be height | u32_be n | n bytes RGB
//!                                                             (degraded ok)
//!           | 5u8  | flags(1) | u32_be width | u32_be height  (stream begin)
//!           | 6u8  | u32_be n | n bytes RGB                   (stream chunk)
//!           | 7u8  | 0u8 | u32_be crc32                       (stream final)
//!           | 7u8  | 1u8 | u32_be n | n bytes UTF-8 message   (stream abort)
//! ```
//!
//! The v2 length-prefix flag bit is unambiguous because [`MAX_FRAME`] keeps
//! every legal v1 length far below `1 << 31`; a v1-only server reading a v2
//! frame fails the length guard instead of misparsing the payload. `flags`
//! bit 0 ([`FLAG_DEGRADE_OK`]) is *degrade-ok*: the client prefers a
//! degraded response (scan-prefix render or tolerant salvage) over a
//! `Busy` shed when its deadline is infeasible. Bit 1
//! ([`FLAG_HAS_OPTIONS`]) marks the per-request options block between the
//! fixed header and the JPEG: a `u16_be` length followed by `tag(1)
//! len(1) value` TLV records — unknown tags are skipped, so new options
//! deploy without breaking old servers. Bit 2 ([`FLAG_STREAM_OK`]) opts
//! into **streamed responses**: the server may answer statuses 5/6/7 —
//! a begin frame (flags bit 0 = degraded), MCU-row RGB chunks in
//! top-to-bottom order, and a final frame carrying a CRC-32 (IEEE) over
//! every chunk's payload bytes (or, on mid-stream failure, an abort
//! message). Peak server-side buffering on this path is a few row tiles,
//! and the response size is *not* capped by [`MAX_RESPONSE`].
//!
//! Deadline edges (PR 10): `deadline_us == 0` means no deadline, so
//! sub-microsecond deadlines round **up** to 1 µs rather than silently
//! becoming "none"; deadlines above `u32::MAX` µs (~71.6 min) do not fit
//! the header and are **rejected** at write time rather than silently
//! saturated. Statuses 2–7 are only ever sent in reply to v2 frames — v1
//! requests have no deadline, never shed, cannot opt into degradation or
//! streaming — so v1 clients never see a status byte they don't know.
//!
//! A v1 frame is parsed as the degenerate v2 frame — flags 0, no deadline,
//! no options, `jpeg_len` = its length — so both versions go through one
//! prefix step and one payload step, whether the bytes arrive through a
//! blocking reader ([`read_request`]) or are cut from a buffer
//! ([`parse_request`]).
//!
//! Responses are written in request order. A connection may pipeline. TCP
//! is served by `frontend::FrontEnd` (unix), one event loop for every
//! connection; [`serve_connection`] is the blocking transport — it submits
//! every request as it is read and answers from a writer thread — used by
//! [`serve_stdio`] and by tests over in-memory streams. Both encode streamed
//! replies with the same `StreamEncoder`.
//!
//! Every read in this module goes through an explicit EINTR-retrying
//! `read_full` loop rather than the reader's own `read_exact`: a wrapped
//! reader (TLS adapters, the chaos harness's [`ChaosReader`]) may surface
//! `ErrorKind::Interrupted` from `read` without retrying it, and a stray
//! signal must not tear down a healthy connection mid-frame.

use crate::fault::ChaosReader;
use crate::pool::{
    RequestOptions, ServeHandle, ServeReply, Served, StreamEvent, SubmitOptions, Ticket,
};
use crate::ServeError;
use hetjpeg_core::{OutputFormat, SimdLevel, Strictness};
use std::io::{self, Read, Write};
use std::sync::mpsc;
use std::time::Duration;

/// Request-frame guard: a length prefix above this is treated as a
/// protocol error rather than an allocation request (64 MiB is far beyond
/// any baseline JPEG this codec accepts).
pub const MAX_FRAME: u32 = 64 << 20;

/// Response-payload guard. Decoded RGB is ~3 bytes per pixel, so this is a
/// much larger bound than [`MAX_FRAME`]: 1 GiB covers ~357 megapixels. A
/// decode whose output exceeds it is answered with an in-band error frame
/// (the stream stays framed); a client reading a length above it treats
/// the stream as corrupt.
pub const MAX_RESPONSE: u32 = 1 << 30;

/// Length-prefix bit marking a protocol-v2 request frame.
pub const FRAME_V2_FLAG: u32 = 1 << 31;

/// Bytes of v2 payload header before the JPEG: version, flags,
/// deadline_us, jpeg_len.
pub const V2_HEADER_LEN: usize = 10;

/// Request-flag bit 0: the client opts into degraded service (prefix
/// render / tolerant salvage) instead of a `Busy` shed when its deadline
/// is infeasible.
pub const FLAG_DEGRADE_OK: u8 = 1;

/// Request-flag bit 1: a per-request options block (`u16_be opt_len` +
/// TLV records) sits between the fixed v2 header and the JPEG.
pub const FLAG_HAS_OPTIONS: u8 = 2;

/// Request-flag bit 2: the client accepts a streamed response (statuses
/// 5/6/7) for this request.
pub const FLAG_STREAM_OK: u8 = 4;

/// Options TLV tag: output format (1 byte: 0 = RGB, 1 = planar YCC).
pub const OPT_FORMAT: u8 = 1;
/// Options TLV tag: strictness (1 byte: 0 = strict, 1 = tolerant).
pub const OPT_STRICTNESS: u8 = 2;
/// Options TLV tag: `max_pixels` guard (8 bytes, u64_be).
pub const OPT_MAX_PIXELS: u8 = 3;
/// Options TLV tag: SIMD dispatch cap (1 byte: 0 = scalar, 1 = SSE2,
/// 2 = AVX2).
pub const OPT_SIMD_CAP: u8 = 4;
/// Options TLV tag: progressive scan prefix (4 bytes, u32_be).
pub const OPT_MAX_SCANS: u8 = 5;

/// Response status 5: stream begin (`flags(1) | width | height`; flags
/// bit 0 = degraded).
pub const STATUS_STREAM_BEGIN: u8 = 5;
/// Response status 6: one stream chunk (`u32_be n | n` RGB bytes).
pub const STATUS_STREAM_CHUNK: u8 = 6;
/// Response status 7: stream final (`0u8 | crc32` on success, `1u8 |
/// u32_be n | message` on mid-stream abort).
pub const STATUS_STREAM_FINAL: u8 = 7;

/// Running CRC-32 (IEEE 802.3: reflected, polynomial `0xEDB88320`) over
/// the RGB payload bytes of a streamed response's chunks. The final frame
/// carries it so a client can verify a reassembled stream without
/// buffering it.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

/// Slice-by-8 lookup tables. `CRC32_TABLES[0]` is the classic bytewise
/// table; `CRC32_TABLES[k][b]` is the CRC state that byte `b` leaves behind
/// after `k` further zero bytes, which is what lets eight input bytes be
/// folded with eight independent lookups instead of a chain of eight.
const CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1usize;
    while k < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// One table walk per byte: the tail of [`Crc32::update`] and the oracle
/// its tests hold the eight-byte path to.
fn crc32_bytewise(mut state: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        state = CRC32_TABLES[0][((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

impl Crc32 {
    /// Fresh checksum state.
    pub fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Fold `bytes` into the running checksum: eight bytes per step
    /// (slice-by-8), the remaining `< 8` one at a time. The state after
    /// any prefix equals the bytewise state, so how a stream is split
    /// across calls cannot matter.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &CRC32_TABLES;
        let mut state = self.state;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ state;
            let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            state = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        self.state = crc32_bytewise(state, chunks.remainder());
    }

    /// The checksum of everything folded in so far (does not consume the
    /// state; more updates may follow).
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// A successfully decoded response frame, as read back by a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseFrame {
    /// Image width in pixels.
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
    /// Interleaved 8-bit RGB, `width * height * 3` bytes.
    pub rgb: Vec<u8>,
}

/// One parsed request frame: the JPEG plus the per-request submission
/// options a v2 header carried (v1 frames parse with default options).
#[derive(Debug, Clone)]
pub struct RequestFrame {
    /// The compressed image.
    pub jpeg: Vec<u8>,
    /// Deadline / degrade / per-request decode options
    /// ([`ServeHandle::submit_with`]).
    pub options: SubmitOptions,
    /// The frame used the v2 header. Only v2 clients understand response
    /// statuses ≥ 2, so the serving loops gate streaming (including the
    /// `HETJPEG_SERVE_STREAMING` override) on this.
    pub v2: bool,
}

/// A server reply, as read back by a client — the wire-level mirror of
/// `Result<Served, ServeError>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerReply {
    /// Full-fidelity decode (status 0).
    Ok(ResponseFrame),
    /// Decode served degraded to meet its deadline (status 4): a scan-
    /// prefix render or tolerant salvage, as opted into by
    /// [`FLAG_DEGRADE_OK`].
    Degraded(ResponseFrame),
    /// Per-request failure, UTF-8 message (status 1).
    Error(String),
    /// The request was shed — deadline infeasible or shard breaker open
    /// (status 2); retry after the hint.
    Busy {
        /// Server-suggested wait before retrying.
        retry_after: Duration,
    },
    /// The request was drained by server shutdown before decode (status 3).
    Shutdown,
}

impl ServerReply {
    /// The decoded frame, for both full-fidelity and degraded successes.
    pub fn frame(&self) -> Option<&ResponseFrame> {
        match self {
            ServerReply::Ok(f) | ServerReply::Degraded(f) => Some(f),
            _ => None,
        }
    }

    /// Consume the reply; `Err` carries a human-readable description for
    /// the non-success statuses.
    pub fn into_frame(self) -> Result<ResponseFrame, String> {
        match self {
            ServerReply::Ok(f) | ServerReply::Degraded(f) => Ok(f),
            ServerReply::Error(msg) => Err(msg),
            ServerReply::Busy { retry_after } => {
                Err(format!("busy: retry after {}us", retry_after.as_micros()))
            }
            ServerReply::Shutdown => Err("server shutdown".to_string()),
        }
    }
}

/// Read exactly `buf.len()` bytes, retrying `ErrorKind::Interrupted`
/// (EINTR). `Ok(false)` when the stream ended before the first byte — a
/// clean end at a frame boundary; an end after it is `UnexpectedEof`. Used
/// for every framed read instead of the reader's own `read_exact` — see the
/// module docs.
fn read_or_eof(r: &mut impl Read, buf: &mut [u8]) -> io::Result<bool> {
    let mut got = 0usize;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) if got == 0 => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended mid-frame",
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// [`read_or_eof`] inside a frame, where the stream must not end.
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> io::Result<()> {
    if read_or_eof(r, buf)? {
        Ok(())
    } else {
        Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "stream ended mid-frame",
        ))
    }
}

/// Client side: write one v1 request frame.
pub fn write_request(w: &mut impl Write, jpeg: &[u8]) -> io::Result<()> {
    if jpeg.len() as u64 > MAX_FRAME as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "request exceeds MAX_FRAME",
        ));
    }
    w.write_all(&(jpeg.len() as u32).to_be_bytes())?;
    w.write_all(jpeg)?;
    w.flush()
}

/// Client side: write one v2 request frame carrying an optional deadline
/// and the degrade-ok flag. `deadline` is relative to submission;
/// sub-microsecond deadlines round up to 1 µs (0 on the wire means "no
/// deadline") and deadlines above `u32::MAX` µs are rejected with
/// `InvalidInput` — the header cannot represent them and silent
/// saturation would lie to the server about the client's intent.
pub fn write_request_v2(
    w: &mut impl Write,
    jpeg: &[u8],
    deadline: Option<Duration>,
    degrade_ok: bool,
) -> io::Result<()> {
    write_request_v2_opts(
        w,
        jpeg,
        &SubmitOptions {
            deadline,
            degrade: degrade_ok,
            options: RequestOptions::default(),
        },
    )
}

/// Serialize a [`RequestOptions`] into the TLV options block. Empty when
/// every override is unset (the block — and [`FLAG_HAS_OPTIONS`] — is
/// omitted entirely). The streaming opt-in travels as [`FLAG_STREAM_OK`],
/// not a TLV.
fn encode_options(ro: &RequestOptions) -> Vec<u8> {
    let mut out = Vec::new();
    if let Some(f) = ro.format {
        out.extend_from_slice(&[
            OPT_FORMAT,
            1,
            match f {
                OutputFormat::Rgb => 0,
                OutputFormat::PlanarYcc => 1,
            },
        ]);
    }
    if let Some(s) = ro.strictness {
        out.extend_from_slice(&[
            OPT_STRICTNESS,
            1,
            match s {
                Strictness::Strict => 0,
                Strictness::Tolerant => 1,
            },
        ]);
    }
    if let Some(mp) = ro.max_pixels {
        out.extend_from_slice(&[OPT_MAX_PIXELS, 8]);
        out.extend_from_slice(&mp.to_be_bytes());
    }
    if let Some(cap) = ro.simd_cap {
        out.extend_from_slice(&[
            OPT_SIMD_CAP,
            1,
            match cap {
                SimdLevel::Scalar => 0,
                SimdLevel::Sse2 => 1,
                SimdLevel::Avx2 => 2,
            },
        ]);
    }
    if let Some(ms) = ro.max_scans {
        out.extend_from_slice(&[OPT_MAX_SCANS, 4]);
        out.extend_from_slice(&ms.to_be_bytes());
    }
    out
}

/// Parse a TLV options block. Unknown tags are skipped (forward
/// compatibility: a new client option must not break an old server);
/// malformed records — truncated TLVs, wrong value lengths, unknown
/// values of *known* tags — are protocol errors.
fn decode_options(buf: &[u8]) -> io::Result<RequestOptions> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let mut ro = RequestOptions::default();
    let mut pos = 0usize;
    while pos < buf.len() {
        if pos + 2 > buf.len() {
            return Err(bad("truncated options TLV header"));
        }
        let tag = buf[pos];
        let len = buf[pos + 1] as usize;
        pos += 2;
        if pos + len > buf.len() {
            return Err(bad("options TLV value overruns the block"));
        }
        let val = &buf[pos..pos + len];
        pos += len;
        match tag {
            OPT_FORMAT => {
                ro.format = Some(match val {
                    [0] => OutputFormat::Rgb,
                    [1] => OutputFormat::PlanarYcc,
                    _ => return Err(bad("bad output-format option value")),
                });
            }
            OPT_STRICTNESS => {
                ro.strictness = Some(match val {
                    [0] => Strictness::Strict,
                    [1] => Strictness::Tolerant,
                    _ => return Err(bad("bad strictness option value")),
                });
            }
            OPT_MAX_PIXELS => match <[u8; 8]>::try_from(val) {
                Ok(b) => ro.max_pixels = Some(u64::from_be_bytes(b)),
                Err(_) => return Err(bad("max_pixels option must be 8 bytes")),
            },
            OPT_SIMD_CAP => {
                ro.simd_cap = Some(match val {
                    [0] => SimdLevel::Scalar,
                    [1] => SimdLevel::Sse2,
                    [2] => SimdLevel::Avx2,
                    _ => return Err(bad("bad SIMD-cap option value")),
                });
            }
            OPT_MAX_SCANS => match <[u8; 4]>::try_from(val) {
                Ok(b) => ro.max_scans = Some(u32::from_be_bytes(b)),
                Err(_) => return Err(bad("max_scans option must be 4 bytes")),
            },
            // Unknown tag: skip. A future protocol revision may add tags
            // this server predates; its requests must still parse.
            _ => {}
        }
    }
    Ok(ro)
}

/// Client side: write one v2 request frame with the full per-request
/// option set — deadline, degrade-ok, decode overrides (as a TLV block)
/// and the streaming opt-in ([`RequestOptions::streaming`] →
/// [`FLAG_STREAM_OK`]). See [`write_request_v2`] for the deadline edge
/// rules.
pub fn write_request_v2_opts(
    w: &mut impl Write,
    jpeg: &[u8],
    options: &SubmitOptions,
) -> io::Result<()> {
    let deadline_us = match options.deadline {
        None => 0u32,
        Some(d) => {
            let us = d.as_micros();
            if us > u32::MAX as u128 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "deadline exceeds u32::MAX microseconds (not representable in a v2 header)",
                ));
            }
            // 0 on the wire means "no deadline", so sub-µs rounds up.
            (us as u32).max(1)
        }
    };
    let opt_bytes = encode_options(&options.options);
    if opt_bytes.len() > u16::MAX as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "options block exceeds u16::MAX bytes",
        ));
    }
    let mut flags = 0u8;
    if options.degrade {
        flags |= FLAG_DEGRADE_OK;
    }
    if !opt_bytes.is_empty() {
        flags |= FLAG_HAS_OPTIONS;
    }
    if options.options.streaming {
        flags |= FLAG_STREAM_OK;
    }
    let opt_overhead = if opt_bytes.is_empty() {
        0
    } else {
        2 + opt_bytes.len() as u64
    };
    let total = jpeg.len() as u64 + V2_HEADER_LEN as u64 + opt_overhead;
    if total > MAX_FRAME as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "request exceeds MAX_FRAME",
        ));
    }
    w.write_all(&((total as u32) | FRAME_V2_FLAG).to_be_bytes())?;
    w.write_all(&[2u8, flags])?;
    w.write_all(&deadline_us.to_be_bytes())?;
    w.write_all(&(jpeg.len() as u32).to_be_bytes())?;
    if !opt_bytes.is_empty() {
        w.write_all(&(opt_bytes.len() as u16).to_be_bytes())?;
        w.write_all(&opt_bytes)?;
    }
    w.write_all(jpeg)?;
    w.flush()
}

/// Client side: write the zero-length goodbye frame.
pub fn write_goodbye(w: &mut impl Write) -> io::Result<()> {
    w.write_all(&0u32.to_be_bytes())?;
    w.flush()
}

/// The request grammar's first step: what a length prefix announces.
/// `None` is the goodbye frame; otherwise whether the frame is v2 and the
/// length of its payload, bounded by [`MAX_FRAME`] before anything is
/// allocated.
fn parse_prefix(prefix: [u8; 4]) -> io::Result<Option<(bool, usize)>> {
    let raw = u32::from_be_bytes(prefix);
    let len = raw & !FRAME_V2_FLAG;
    if len == 0 {
        return Ok(None);
    }
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "request length exceeds MAX_FRAME",
        ));
    }
    Ok(Some((raw & FRAME_V2_FLAG != 0, len as usize)))
}

/// The grammar's second step: a payload's submission options and the
/// offset of its JPEG. A v1 payload is the degenerate v2 frame — flags 0,
/// no deadline, no options, `jpeg_len` = its length — so every check below
/// is shared by both versions.
fn parse_payload(v2: bool, payload: &[u8]) -> io::Result<(SubmitOptions, usize)> {
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let (flags, deadline_us, jpeg_len, mut skip) = if v2 {
        let Some(head) = payload.first_chunk::<V2_HEADER_LEN>() else {
            return Err(bad("v2 frame shorter than its header".into()));
        };
        if head[0] != 2 {
            return Err(bad(format!("unknown request version {}", head[0])));
        }
        let deadline_us = u32::from_be_bytes([head[2], head[3], head[4], head[5]]);
        let jpeg_len = u32::from_be_bytes([head[6], head[7], head[8], head[9]]);
        (head[1], deadline_us, jpeg_len as usize, V2_HEADER_LEN)
    } else {
        (0, 0, payload.len(), 0)
    };
    let mut options = RequestOptions::default();
    if flags & FLAG_HAS_OPTIONS != 0 {
        let opt_len = match payload.get(skip..skip + 2) {
            Some(&[hi, lo]) => u16::from_be_bytes([hi, lo]) as usize,
            _ => return Err(bad("v2 frame truncates its options-block length".into())),
        };
        let block = payload
            .get(skip + 2..skip + 2 + opt_len)
            .ok_or_else(|| bad("v2 options block overruns the frame".into()))?;
        options = decode_options(block)?;
        skip += 2 + opt_len;
    }
    if jpeg_len != payload.len() - skip {
        return Err(bad("v2 jpeg_len disagrees with frame length".into()));
    }
    options.streaming = flags & FLAG_STREAM_OK != 0;
    let submit = SubmitOptions {
        deadline: (deadline_us > 0).then(|| Duration::from_micros(deadline_us as u64)),
        degrade: flags & FLAG_DEGRADE_OK != 0,
        options,
    };
    Ok((submit, skip))
}

/// Server side: read one request frame (either version) — exactly its
/// prefix, then exactly its payload, so the reader is left at the next
/// frame. `Ok(None)` on a clean end of stream (EOF at a frame boundary, or
/// the zero-length goodbye).
pub fn read_request(r: &mut impl Read) -> io::Result<Option<RequestFrame>> {
    let mut prefix = [0u8; 4];
    if !read_or_eof(r, &mut prefix)? {
        return Ok(None);
    }
    let Some((v2, len)) = parse_prefix(prefix)? else {
        return Ok(None);
    };
    let mut payload = vec![0u8; len];
    read_full(r, &mut payload)?;
    let (options, skip) = parse_payload(v2, &payload)?;
    payload.drain(..skip);
    Ok(Some(RequestFrame {
        jpeg: payload,
        options,
        v2,
    }))
}

/// Incremental request parser for the event-driven frontend: examine the
/// head of `buf` without consuming input from any reader.
///
/// Returns `Ok(None)` when `buf` does not yet hold a complete frame (read
/// more), and `Ok(Some((frame, consumed)))` when it does — the caller
/// drains `consumed` bytes. A goodbye frame (zero-length) parses as
/// `Some((None, 4))`.
pub fn parse_request(buf: &[u8]) -> io::Result<Option<(Option<RequestFrame>, usize)>> {
    let Some(&prefix) = buf.first_chunk::<4>() else {
        return Ok(None);
    };
    let Some((v2, len)) = parse_prefix(prefix)? else {
        return Ok(Some((None, 4)));
    };
    let Some(payload) = buf.get(4..4 + len) else {
        return Ok(None);
    };
    let (options, skip) = parse_payload(v2, payload)?;
    let frame = RequestFrame {
        jpeg: payload[skip..].to_vec(),
        options,
        v2,
    };
    Ok(Some((Some(frame), 4 + len)))
}

/// Server side: write one response frame from a serve result.
pub fn write_response(w: &mut impl Write, result: &Result<Served, ServeError>) -> io::Result<()> {
    match result {
        Ok(s) if s.outcome.image.data.len() as u64 > MAX_RESPONSE as u64 => write_error(
            w,
            &format!(
                "decoded image is {} bytes, over the {} byte response cap",
                s.outcome.image.data.len(),
                MAX_RESPONSE
            ),
        )?,
        Ok(s) if !s.outcome.image.data.is_empty() => {
            w.write_all(&[if s.degraded { 4u8 } else { 0u8 }])?;
            w.write_all(&(s.outcome.image.width as u32).to_be_bytes())?;
            w.write_all(&(s.outcome.image.height as u32).to_be_bytes())?;
            w.write_all(&(s.outcome.image.data.len() as u32).to_be_bytes())?;
            w.write_all(&s.outcome.image.data)?;
        }
        Ok(_) => write_error(w, "server produced no RGB output (planar options?)")?,
        Err(e) => write_failure(w, e)?,
    }
    w.flush()
}

/// The one encoding of a request that failed outside a stream: status 2
/// (busy, with its retry hint), 3 (shutdown drain) or 1 (error message).
fn write_failure(w: &mut impl Write, e: &ServeError) -> io::Result<()> {
    match e {
        ServeError::Busy { retry_after } => {
            let us = retry_after.as_micros().min(u32::MAX as u128) as u32;
            w.write_all(&[2u8])?;
            w.write_all(&us.to_be_bytes())
        }
        ServeError::Shutdown => w.write_all(&[3u8]),
        e => write_error(w, &e.to_string()),
    }
}

fn write_error(w: &mut impl Write, msg: &str) -> io::Result<()> {
    let bytes = msg.as_bytes();
    w.write_all(&[1u8])?;
    w.write_all(&(bytes.len() as u32).to_be_bytes())?;
    w.write_all(bytes)
}

/// `true` when `HETJPEG_SERVE_STREAMING` is set non-empty and not `"0"`:
/// the serving loops then stream every v2 response regardless of
/// [`FLAG_STREAM_OK`]. v1 frames are never streamed — their clients
/// predate response statuses ≥ 2.
pub fn forced_streaming() -> bool {
    std::env::var_os("HETJPEG_SERVE_STREAMING").is_some_and(|v| !v.is_empty() && v != "0")
}

/// Serializes a streamed reply one [`StreamEvent`] at a time as
/// StreamBegin / StreamChunk* / StreamFinal frames — the one encoder of
/// statuses 5/6/7, shared by [`serve_connection`] and the event front end.
/// Each MCU-row tile is written as it arrives, so peak buffering stays at
/// the tile pool, not the image.
///
/// Failure mapping follows the grammar: an error *before* StreamBegin has
/// been written goes out as an ordinary status-1/2/3 frame (the client
/// never learns a stream was attempted); an error *after* is an abort
/// StreamFinal, because the stream header is already on the wire. A
/// successful end with no StreamBegin (a decode that emitted nothing) is
/// answered with an error frame, never a headerless trailer.
#[derive(Default)]
pub(crate) struct StreamEncoder {
    begun: bool,
    crc: Crc32,
}

impl StreamEncoder {
    /// Encode `event` into `w`; `Ok(true)` when it ended the stream. A
    /// worker that hung up without an End event is passed in as
    /// `End(Err(ServeError::WorkerGone))`.
    pub(crate) fn encode(&mut self, event: StreamEvent, w: &mut impl Write) -> io::Result<bool> {
        match event {
            StreamEvent::Begin {
                width,
                height,
                degraded,
            } => {
                w.write_all(&[STATUS_STREAM_BEGIN, u8::from(degraded)])?;
                w.write_all(&width.to_be_bytes())?;
                w.write_all(&height.to_be_bytes())?;
                self.begun = true;
            }
            StreamEvent::Tile(tile) => {
                let bytes = tile.bytes();
                self.crc.update(bytes);
                w.write_all(&[STATUS_STREAM_CHUNK])?;
                w.write_all(&(bytes.len() as u32).to_be_bytes())?;
                w.write_all(bytes)?;
                // `tile` drops here, returning its buffer to the shard's
                // tile pool — the backpressure that bounds peak memory.
            }
            StreamEvent::End(result) => {
                match (result, self.begun) {
                    (Ok(_), true) => {
                        w.write_all(&[STATUS_STREAM_FINAL, 0u8])?;
                        w.write_all(&self.crc.finish().to_be_bytes())?;
                    }
                    (Ok(_), false) => write_failure(w, &ServeError::WorkerGone)?,
                    // The abort trailer is status 7 followed by an error
                    // frame (`1u8 | u32_be n | message`).
                    (Err(e), true) => {
                        w.write_all(&[STATUS_STREAM_FINAL])?;
                        write_error(w, &e.to_string())?;
                    }
                    (Err(e), false) => write_failure(w, &e)?,
                }
                return Ok(true);
            }
        }
        Ok(false)
    }
}

/// Client side: read one response frame. The `Result` is transport
/// failure; per-request outcomes (including errors, sheds and the
/// shutdown drain) arrive in-band as [`ServerReply`] variants. Streamed
/// responses (status 5/6/7) are reassembled into one whole-image
/// [`ResponseFrame`] — bit-identical to a non-streamed reply — with the
/// running CRC verified against the StreamFinal trailer and the byte count
/// against the announced `width × height × 3` (a short stream is
/// `InvalidData`, never a success).
pub fn read_response(r: &mut impl Read) -> io::Result<ServerReply> {
    read_response_impl(r, None)
}

/// Like [`read_response`], but hands each streamed row-tile chunk to
/// `sink` as it arrives *instead of* accumulating the whole image — the
/// reassembled frame in a streamed `Ok`/`Degraded` reply carries empty
/// `rgb` (dimensions are still filled in). Non-streamed replies are
/// returned whole and never touch the sink.
pub fn read_response_streamed(
    r: &mut impl Read,
    sink: &mut dyn FnMut(&[u8]),
) -> io::Result<ServerReply> {
    read_response_impl(r, Some(sink))
}

/// Destination for streamed row-tile chunks: `None` buffers them into the
/// returned frame, `Some(sink)` hands each chunk over exactly once.
type ChunkSink<'a> = Option<&'a mut dyn FnMut(&[u8])>;

fn read_response_impl(r: &mut impl Read, mut sink: ChunkSink<'_>) -> io::Result<ServerReply> {
    let mut status = [0u8; 1];
    read_full(r, &mut status)?;
    let mut u32_buf = [0u8; 4];
    match status[0] {
        s @ (0 | 4) => {
            read_full(r, &mut u32_buf)?;
            let width = u32::from_be_bytes(u32_buf);
            read_full(r, &mut u32_buf)?;
            let height = u32::from_be_bytes(u32_buf);
            read_full(r, &mut u32_buf)?;
            let len = u32::from_be_bytes(u32_buf);
            if len > MAX_RESPONSE {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "response length exceeds MAX_RESPONSE",
                ));
            }
            let mut rgb = vec![0u8; len as usize];
            read_full(r, &mut rgb)?;
            let frame = ResponseFrame { width, height, rgb };
            Ok(if s == 0 {
                ServerReply::Ok(frame)
            } else {
                ServerReply::Degraded(frame)
            })
        }
        1 => read_error_message(r),
        2 => {
            read_full(r, &mut u32_buf)?;
            Ok(ServerReply::Busy {
                retry_after: Duration::from_micros(u32::from_be_bytes(u32_buf) as u64),
            })
        }
        3 => Ok(ServerReply::Shutdown),
        5 => {
            let mut head = [0u8; 9];
            read_full(r, &mut head)?;
            let degraded = head[0] != 0;
            let width = u32::from_be_bytes([head[1], head[2], head[3], head[4]]);
            let height = u32::from_be_bytes([head[5], head[6], head[7], head[8]]);
            let mut rgb = Vec::new();
            let mut crc = Crc32::new();
            let mut received = 0u64;
            loop {
                read_full(r, &mut status)?;
                match status[0] {
                    STATUS_STREAM_CHUNK => {
                        read_full(r, &mut u32_buf)?;
                        let n = u32::from_be_bytes(u32_buf);
                        if n > MAX_RESPONSE {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                "stream chunk exceeds MAX_RESPONSE",
                            ));
                        }
                        let mut chunk = vec![0u8; n as usize];
                        read_full(r, &mut chunk)?;
                        crc.update(&chunk);
                        received += chunk.len() as u64;
                        match sink.as_deref_mut() {
                            Some(f) => f(&chunk),
                            None => {
                                if rgb.len() as u64 + chunk.len() as u64 > MAX_RESPONSE as u64 {
                                    return Err(io::Error::new(
                                        io::ErrorKind::InvalidData,
                                        "streamed response exceeds MAX_RESPONSE",
                                    ));
                                }
                                rgb.extend_from_slice(&chunk);
                            }
                        }
                    }
                    STATUS_STREAM_FINAL => {
                        let mut kind = [0u8; 1];
                        read_full(r, &mut kind)?;
                        if kind[0] == 0 {
                            read_full(r, &mut u32_buf)?;
                            let wire_crc = u32::from_be_bytes(u32_buf);
                            if wire_crc != crc.finish() {
                                return Err(io::Error::new(
                                    io::ErrorKind::InvalidData,
                                    "stream CRC mismatch",
                                ));
                            }
                            // A valid CRC over too few rows is still not
                            // the image the header announced.
                            let expected = width as u64 * height as u64 * 3;
                            if received != expected {
                                return Err(io::Error::new(
                                    io::ErrorKind::InvalidData,
                                    format!(
                                        "stream ended after {received} of {expected} pixel bytes"
                                    ),
                                ));
                            }
                            let frame = ResponseFrame { width, height, rgb };
                            return Ok(if degraded {
                                ServerReply::Degraded(frame)
                            } else {
                                ServerReply::Ok(frame)
                            });
                        }
                        // Abort trailer: the stream died mid-flight; the
                        // error message is the reply.
                        return read_error_message(r);
                    }
                    s => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("unexpected status {s} inside a stream"),
                        ))
                    }
                }
            }
        }
        s => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unknown response status {s}"),
        )),
    }
}

/// The body of an error frame (status 1, or a stream's abort trailer):
/// `u32_be n | n` bytes of UTF-8 message.
fn read_error_message(r: &mut impl Read) -> io::Result<ServerReply> {
    let mut len = [0u8; 4];
    read_full(r, &mut len)?;
    let len = u32::from_be_bytes(len);
    if len > MAX_FRAME {
        // A clamped partial read would desync the stream; treat an absurd
        // message length the same as an absurd RGB length.
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "error-message length exceeds MAX_FRAME",
        ));
    }
    let mut msg = vec![0u8; len as usize];
    read_full(r, &mut msg)?;
    Ok(ServerReply::Error(
        String::from_utf8_lossy(&msg).into_owned(),
    ))
}

/// Serve one connection: read request frames from `reader`, submit each to
/// the shard pool as it arrives, and write responses to `writer` in
/// request order from a companion thread — pipelined clients keep the
/// admission queues fed, so their frames can coalesce into batches.
/// Returns the number of requests served. This is the blocking transport
/// behind [`serve_stdio`] and the in-memory tests; TCP connections are
/// served by the event front end.
pub fn serve_connection(
    handle: &ServeHandle,
    reader: &mut impl Read,
    writer: &mut (impl Write + Send),
) -> io::Result<u64> {
    let force = forced_streaming();
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel::<Result<Ticket, ServeError>>();
        let responder = s.spawn(move || -> io::Result<u64> {
            let mut n = 0u64;
            for ticket in rx {
                match ticket.and_then(Ticket::wait_reply) {
                    Ok(ServeReply::Whole(served)) => write_response(writer, &Ok(served))?,
                    Ok(ServeReply::Stream(stream)) => {
                        let mut encoder = StreamEncoder::default();
                        let gone = || StreamEvent::End(Err(ServeError::WorkerGone));
                        while !encoder.encode(stream.recv().unwrap_or_else(gone), writer)? {}
                        writer.flush()?;
                    }
                    Err(e) => write_response(writer, &Err(e))?,
                }
                n += 1;
            }
            Ok(n)
        });
        while let Some(mut frame) = read_request(reader)? {
            // Only v2 clients understand stream statuses, so the forced-
            // streaming override never applies to a v1 frame.
            if force && frame.v2 {
                frame.options.options.streaming = true;
            }
            // Submission errors (shutdown, admission sheds) still produce
            // an in-order response frame for this request.
            let submitted = handle.submit_with(frame.jpeg, frame.options);
            if tx.send(submitted).is_err() {
                break; // responder hit an I/O error and hung up
            }
        }
        drop(tx);
        responder.join().expect("responder thread")
    })
}

/// Serve request frames from stdin and write responses to stdout until
/// EOF or the goodbye frame — the scripting-friendly transport
/// (`hetjpeg-serve --stdio`). Returns the number of requests served.
pub fn serve_stdio(handle: &ServeHandle) -> io::Result<u64> {
    let stdin = io::stdin();
    let reader = stdin.lock();
    // `Stdout` (unlocked) is used because the responder thread needs a
    // `Send` writer; its internal line-buffer lock is taken per write.
    let mut writer = io::stdout();
    match handle.fault_plan().filter(|p| p.has_read_faults()) {
        Some(plan) => {
            let mut reader = ChaosReader::new(reader, plan);
            serve_connection(handle, &mut reader, &mut writer)
        }
        None => {
            let mut reader = reader;
            serve_connection(handle, &mut reader, &mut writer)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use proptest::prelude::*;
    use std::sync::Arc;

    #[test]
    fn request_frames_roundtrip() {
        let mut buf = Vec::new();
        write_request(&mut buf, b"hello jpeg").unwrap();
        write_goodbye(&mut buf).unwrap();
        let mut r = io::Cursor::new(buf);
        let frame = read_request(&mut r).unwrap().expect("one frame");
        assert_eq!(frame.jpeg, b"hello jpeg");
        assert_eq!(frame.options.deadline, None);
        assert!(!frame.options.degrade);
        assert!(read_request(&mut r).unwrap().is_none());
        // Clean EOF also reads as end-of-stream.
        assert!(read_request(&mut io::Cursor::new(Vec::new()))
            .unwrap()
            .is_none());
    }

    #[test]
    fn v2_request_frames_carry_deadline_and_degrade() {
        let mut buf = Vec::new();
        write_request_v2(
            &mut buf,
            b"v2 jpeg",
            Some(Duration::from_micros(1500)),
            true,
        )
        .unwrap();
        write_request_v2(&mut buf, b"no slo", None, false).unwrap();
        let mut r = io::Cursor::new(buf);
        let frame = read_request(&mut r).unwrap().expect("v2 frame");
        assert_eq!(frame.jpeg, b"v2 jpeg");
        assert_eq!(frame.options.deadline, Some(Duration::from_micros(1500)));
        assert!(frame.options.degrade);
        let frame = read_request(&mut r).unwrap().expect("second v2 frame");
        assert_eq!(frame.jpeg, b"no slo");
        assert_eq!(frame.options.deadline, None);
        assert!(!frame.options.degrade);
        // Sub-microsecond deadlines survive as 1 µs, not "no deadline".
        let mut buf = Vec::new();
        write_request_v2(&mut buf, b"x", Some(Duration::from_nanos(3)), false).unwrap();
        let frame = read_request(&mut io::Cursor::new(buf)).unwrap().unwrap();
        assert_eq!(frame.options.deadline, Some(Duration::from_micros(1)));
    }

    #[test]
    fn malformed_v2_headers_are_protocol_errors() {
        // jpeg_len disagreeing with the frame length must not desync.
        let mut buf = Vec::new();
        buf.extend_from_slice(&((V2_HEADER_LEN as u32 + 4) | FRAME_V2_FLAG).to_be_bytes());
        buf.extend_from_slice(&[2u8, 0]);
        buf.extend_from_slice(&0u32.to_be_bytes()); // deadline
        buf.extend_from_slice(&99u32.to_be_bytes()); // lies about jpeg_len
        buf.extend_from_slice(&[1, 2, 3, 4]);
        let err = read_request(&mut io::Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Unknown version byte.
        let mut buf = Vec::new();
        buf.extend_from_slice(&((V2_HEADER_LEN as u32) | FRAME_V2_FLAG).to_be_bytes());
        buf.extend_from_slice(&[9u8, 0]);
        buf.extend_from_slice(&0u32.to_be_bytes());
        buf.extend_from_slice(&0u32.to_be_bytes());
        let err = read_request(&mut io::Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_length_is_a_protocol_error_not_an_allocation() {
        let mut framed = Vec::new();
        framed.extend_from_slice(&(MAX_FRAME + 1).to_be_bytes());
        framed.extend_from_slice(&[0u8; 16]);
        let err = read_request(&mut io::Cursor::new(framed)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frame_is_an_io_error() {
        let mut framed = Vec::new();
        framed.extend_from_slice(&100u32.to_be_bytes());
        framed.extend_from_slice(&[7u8; 10]); // promises 100, delivers 10
        assert!(read_request(&mut io::Cursor::new(framed)).is_err());
    }

    #[test]
    fn oversized_response_lengths_are_protocol_errors() {
        // Success frame promising more RGB than MAX_RESPONSE.
        let mut buf = vec![0u8];
        buf.extend_from_slice(&5u32.to_be_bytes());
        buf.extend_from_slice(&5u32.to_be_bytes());
        buf.extend_from_slice(&(MAX_RESPONSE + 1).to_be_bytes());
        let err = read_response(&mut io::Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Error frame promising an absurd message length must also be a
        // hard error — clamping would desync the stream.
        let mut buf = vec![1u8];
        buf.extend_from_slice(&(MAX_FRAME + 1).to_be_bytes());
        let err = read_response(&mut io::Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn error_busy_and_shutdown_responses_roundtrip() {
        let mut buf = Vec::new();
        write_response(
            &mut buf,
            &Err(ServeError::Decode(
                hetjpeg_jpeg::error::Error::BadHuffmanCode,
            )),
        )
        .unwrap();
        write_response(
            &mut buf,
            &Err(ServeError::Busy {
                retry_after: Duration::from_micros(777),
            }),
        )
        .unwrap();
        write_response(&mut buf, &Err(ServeError::Shutdown)).unwrap();
        let mut r = io::Cursor::new(buf);
        match read_response(&mut r).unwrap() {
            ServerReply::Error(msg) => assert!(msg.contains("decode failed"), "{msg}"),
            other => panic!("expected error reply, got {other:?}"),
        }
        assert_eq!(
            read_response(&mut r).unwrap(),
            ServerReply::Busy {
                retry_after: Duration::from_micros(777)
            }
        );
        assert_eq!(read_response(&mut r).unwrap(), ServerReply::Shutdown);
    }

    #[test]
    fn eintr_and_short_reads_do_not_desync_request_framing() {
        // Satellite regression (PR 8): every read in read_request — prefix
        // remainder and payload included — must survive EINTR and one-byte
        // reads. The chaos harness's short-read site makes *every* read
        // either interrupted or one byte long.
        let payload: Vec<u8> = (0u8..200).collect();
        let mut buf = Vec::new();
        write_request(&mut buf, &payload).unwrap();
        write_request_v2(&mut buf, &payload, Some(Duration::from_millis(5)), true).unwrap();
        write_goodbye(&mut buf).unwrap();
        let plan = Arc::new(FaultPlan::parse("shortread=1:11").unwrap());
        let mut r = ChaosReader::new(io::Cursor::new(buf), plan);
        let first = read_request(&mut r).unwrap().expect("v1 frame survives");
        assert_eq!(first.jpeg, payload);
        let second = read_request(&mut r).unwrap().expect("v2 frame survives");
        assert_eq!(second.jpeg, payload);
        assert_eq!(second.options.deadline, Some(Duration::from_millis(5)));
        assert!(second.options.degrade);
        assert!(read_request(&mut r).unwrap().is_none(), "goodbye survives");
    }

    #[test]
    fn torn_reads_surface_as_connection_errors() {
        let mut buf = Vec::new();
        write_request(&mut buf, &[9u8; 64]).unwrap();
        let plan = Arc::new(FaultPlan::parse("torn=#2").unwrap());
        let mut r = ChaosReader::new(io::Cursor::new(buf), plan);
        let err = read_request(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
    }

    fn full_options() -> RequestOptions {
        RequestOptions {
            format: Some(OutputFormat::PlanarYcc),
            strictness: Some(Strictness::Tolerant),
            max_pixels: Some(123_456_789_012),
            simd_cap: Some(SimdLevel::Sse2),
            max_scans: Some(7),
            streaming: true,
        }
    }

    #[test]
    fn options_block_roundtrips_on_the_wire() {
        let sub = SubmitOptions {
            deadline: Some(Duration::from_micros(777)),
            degrade: true,
            options: full_options(),
        };
        let mut buf = Vec::new();
        write_request_v2_opts(&mut buf, b"opt jpeg", &sub).unwrap();
        let frame = read_request(&mut io::Cursor::new(buf))
            .unwrap()
            .expect("frame");
        assert!(frame.v2);
        assert_eq!(frame.jpeg, b"opt jpeg");
        assert_eq!(frame.options, sub);
    }

    #[test]
    fn empty_options_produce_no_block() {
        // Default options must serialize exactly as the plain v2 writer:
        // no FLAG_HAS_OPTIONS, no opt_len bytes on the wire.
        let mut plain = Vec::new();
        write_request_v2(&mut plain, b"x", Some(Duration::from_micros(5)), false).unwrap();
        let mut via_opts = Vec::new();
        write_request_v2_opts(
            &mut via_opts,
            b"x",
            &SubmitOptions {
                deadline: Some(Duration::from_micros(5)),
                degrade: false,
                options: RequestOptions::default(),
            },
        )
        .unwrap();
        assert_eq!(plain, via_opts);
    }

    #[test]
    fn deadline_edges_round_up_and_reject() {
        // Sub-microsecond: rounds UP to 1µs, never silently to "none".
        let mut buf = Vec::new();
        write_request_v2(&mut buf, b"j", Some(Duration::from_nanos(1)), false).unwrap();
        let frame = read_request(&mut io::Cursor::new(buf)).unwrap().unwrap();
        assert_eq!(frame.options.deadline, Some(Duration::from_micros(1)));

        // Exactly u32::MAX µs: representable, roundtrips exactly.
        let max = Duration::from_micros(u32::MAX as u64);
        let mut buf = Vec::new();
        write_request_v2(&mut buf, b"j", Some(max), false).unwrap();
        let frame = read_request(&mut io::Cursor::new(buf)).unwrap().unwrap();
        assert_eq!(frame.options.deadline, Some(max));

        // One microsecond over: rejected at write time, not saturated.
        let mut buf = Vec::new();
        let err = write_request_v2(
            &mut buf,
            b"j",
            Some(Duration::from_micros(u32::MAX as u64 + 1)),
            false,
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(buf.is_empty(), "nothing hit the wire");
    }

    #[test]
    fn deadline_wire_roundtrip_is_exact_across_the_range() {
        // Property sweep: every representable deadline comes back exactly
        // — no off-by-one anywhere in [1, u32::MAX] µs.
        let mut us: u64 = 1;
        let mut samples = vec![1u64, 2, u32::MAX as u64 - 1, u32::MAX as u64];
        while us < u32::MAX as u64 {
            samples.push(us);
            samples.push(us + 1);
            us = us.saturating_mul(3);
        }
        for us in samples {
            let d = Duration::from_micros(us.min(u32::MAX as u64));
            let mut buf = Vec::new();
            write_request_v2(&mut buf, b"p", Some(d), false).unwrap();
            let frame = read_request(&mut io::Cursor::new(buf)).unwrap().unwrap();
            assert_eq!(frame.options.deadline, Some(d), "us={us}");
        }
    }

    #[test]
    fn jpeg_len_mismatch_with_options_block_is_rejected() {
        let sub = SubmitOptions {
            deadline: None,
            degrade: false,
            options: RequestOptions {
                max_scans: Some(3),
                ..RequestOptions::default()
            },
        };
        let mut buf = Vec::new();
        write_request_v2_opts(&mut buf, b"mismatch me", &sub).unwrap();
        // Corrupt the jpeg_len field (header bytes 6..10 of the payload,
        // i.e. wire offset 4+6).
        buf[4 + 6..4 + 10].copy_from_slice(&999u32.to_be_bytes());
        let err = read_request(&mut io::Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("jpeg_len"));
    }

    /// A hand-built v2 frame: `tlv`, when given, is the options block
    /// (and sets [`FLAG_HAS_OPTIONS`]).
    fn v2_frame(flags: u8, deadline_us: u32, tlv: Option<&[u8]>, jpeg: &[u8]) -> Vec<u8> {
        let block = tlv.map_or(0, |t| 2 + t.len());
        let total = (V2_HEADER_LEN + block + jpeg.len()) as u32;
        let flags = flags | if tlv.is_some() { FLAG_HAS_OPTIONS } else { 0 };
        let mut buf = (total | FRAME_V2_FLAG).to_be_bytes().to_vec();
        buf.extend_from_slice(&[2u8, flags]);
        buf.extend_from_slice(&deadline_us.to_be_bytes());
        buf.extend_from_slice(&(jpeg.len() as u32).to_be_bytes());
        if let Some(tlv) = tlv {
            buf.extend_from_slice(&(tlv.len() as u16).to_be_bytes());
            buf.extend_from_slice(tlv);
        }
        buf.extend_from_slice(jpeg);
        buf
    }

    #[test]
    fn unknown_tlv_tags_are_skipped_for_forward_compat() {
        // Hand-build a v2 frame whose options block mixes an unknown tag
        // (0xEE) between two known ones; the known ones must still parse.
        let mut tlv = Vec::new();
        tlv.extend_from_slice(&[OPT_STRICTNESS, 1, 1]);
        tlv.extend_from_slice(&[0xEE, 3, 1, 2, 3]); // future option
        tlv.extend_from_slice(&[OPT_MAX_SCANS, 4]);
        tlv.extend_from_slice(&5u32.to_be_bytes());
        let jpeg = b"fwd";
        let buf = v2_frame(0, 0, Some(&tlv), jpeg);
        let frame = read_request(&mut io::Cursor::new(buf)).unwrap().unwrap();
        assert_eq!(frame.jpeg, jpeg);
        assert_eq!(frame.options.options.strictness, Some(Strictness::Tolerant));
        assert_eq!(frame.options.options.max_scans, Some(5));
        assert_eq!(frame.options.options.format, None);
    }

    #[test]
    fn truncated_tlv_is_a_protocol_error() {
        // An options block whose last TLV claims more bytes than remain.
        let tlv = [OPT_MAX_PIXELS, 8, 0, 0]; // claims 8, has 2
        let buf = v2_frame(0, 0, Some(&tlv), b"t");
        let err = read_request(&mut io::Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn frame_length_cap_is_exact() {
        // MAX_FRAME on the nose is accepted; one byte over is refused at
        // write time and rejected at read time.
        let at_cap = vec![0u8; MAX_FRAME as usize];
        let mut buf = Vec::new();
        write_request(&mut buf, &at_cap).unwrap();
        let frame = read_request(&mut io::Cursor::new(buf)).unwrap().unwrap();
        assert_eq!(frame.jpeg.len(), MAX_FRAME as usize);

        let over = vec![0u8; MAX_FRAME as usize + 1];
        let mut buf = Vec::new();
        let err = write_request(&mut buf, &over).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);

        // A hostile length prefix one over the cap is a read-side error.
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME + 1).to_be_bytes());
        wire.extend_from_slice(&[0u8; 16]);
        let err = read_request(&mut io::Cursor::new(wire)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // And the v2 writer accounts for its header + options overhead.
        let almost = vec![0u8; MAX_FRAME as usize - V2_HEADER_LEN + 1];
        let err = write_request_v2(&mut Vec::new(), &almost, None, false).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn parse_request_is_incremental_and_handles_goodbye() {
        let sub = SubmitOptions {
            deadline: Some(Duration::from_micros(42)),
            degrade: true,
            options: RequestOptions {
                streaming: true,
                ..RequestOptions::default()
            },
        };
        let mut wire = Vec::new();
        write_request_v2_opts(&mut wire, b"first", &sub).unwrap();
        write_request(&mut wire, b"second").unwrap();
        write_goodbye(&mut wire).unwrap();
        write_request(&mut wire, b"after goodbye, never parsed by a server").unwrap();

        // Byte-at-a-time: no prefix shorter than a full frame yields one.
        let mut fed = Vec::new();
        let mut frames = Vec::new();
        let mut goodbye_at = None;
        for (i, &b) in wire.iter().enumerate() {
            fed.push(b);
            loop {
                match parse_request(&fed).unwrap() {
                    None => break,
                    Some((None, consumed)) => {
                        fed.drain(..consumed);
                        goodbye_at = Some(i);
                        break;
                    }
                    Some((Some(frame), consumed)) => {
                        fed.drain(..consumed);
                        frames.push(frame);
                    }
                }
            }
            if goodbye_at.is_some() {
                break; // goodbye mid-pipeline: later bytes are ignored
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].jpeg, b"first");
        assert_eq!(frames[0].options, sub);
        assert!(frames[0].v2);
        assert_eq!(frames[1].jpeg, b"second");
        assert!(!frames[1].v2);
        assert!(goodbye_at.is_some(), "goodbye frame was recognized");
        assert!(fed.is_empty() || !frames.is_empty());
    }

    /// What a parser made of one frame of a stream, or how the stream
    /// ended.
    #[derive(Debug, PartialEq)]
    enum Parsed {
        Frame(Vec<u8>, SubmitOptions, bool),
        End,
        Error(io::ErrorKind, String),
    }

    impl Parsed {
        fn frame(f: RequestFrame) -> Parsed {
            Parsed::Frame(f.jpeg, f.options, f.v2)
        }

        fn error(e: io::Error) -> Parsed {
            Parsed::Error(e.kind(), e.to_string())
        }
    }

    /// `wire` fed to [`parse_request`] in the pieces `cuts` make, the way
    /// the front end's reads deliver it.
    fn parse_in_pieces(wire: &[u8], cuts: &[usize]) -> Vec<Parsed> {
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (wire.len() + 1)).collect();
        cuts.sort_unstable();
        let mut buf = Vec::new();
        let mut out = Vec::new();
        let mut from = 0;
        for cut in cuts.into_iter().chain([wire.len()]) {
            buf.extend_from_slice(&wire[from..cut]);
            from = cut;
            loop {
                match parse_request(&buf) {
                    Ok(None) => break,
                    Ok(Some((None, _))) => {
                        out.push(Parsed::End);
                        return out;
                    }
                    Ok(Some((Some(frame), consumed))) => {
                        buf.drain(..consumed);
                        out.push(Parsed::frame(frame));
                    }
                    Err(e) => {
                        out.push(Parsed::error(e));
                        return out;
                    }
                }
            }
        }
        assert!(buf.is_empty(), "generated streams end at a frame boundary");
        out.push(Parsed::End);
        out
    }

    /// `wire` through [`read_request`] over a reader whose every read is
    /// one byte or an EINTR.
    fn read_chaotically(wire: &[u8]) -> Vec<Parsed> {
        let plan = Arc::new(FaultPlan::parse("shortread=1").unwrap());
        let mut r = ChaosReader::new(io::Cursor::new(wire), plan);
        let mut out = Vec::new();
        loop {
            match read_request(&mut r) {
                Ok(Some(frame)) => out.push(Parsed::frame(frame)),
                Ok(None) => out.push(Parsed::End),
                Err(e) => out.push(Parsed::error(e)),
            }
            if !matches!(out.last(), Some(Parsed::Frame(..))) {
                return out;
            }
        }
    }

    /// A valid options block drawn from `seed`'s bits: any subset of the
    /// known tags, plus an unknown one that must be skipped.
    fn tlv_block(seed: u64) -> Vec<u8> {
        let mut tlv = Vec::new();
        if seed & 1 != 0 {
            tlv.extend_from_slice(&[OPT_FORMAT, 1, (seed >> 8) as u8 & 1]);
        }
        if seed & 2 != 0 {
            tlv.extend_from_slice(&[0xEE, 3, 1, 2, 3]);
        }
        if seed & 4 != 0 {
            tlv.extend_from_slice(&[OPT_STRICTNESS, 1, (seed >> 9) as u8 & 1]);
        }
        if seed & 8 != 0 {
            tlv.extend_from_slice(&[OPT_MAX_PIXELS, 8]);
            tlv.extend_from_slice(&seed.to_be_bytes());
        }
        if seed & 16 != 0 {
            tlv.extend_from_slice(&[OPT_SIMD_CAP, 1, ((seed >> 10) % 3) as u8]);
        }
        if seed & 32 != 0 {
            tlv.extend_from_slice(&[OPT_MAX_SCANS, 4]);
            tlv.extend_from_slice(&((seed >> 32) as u32).to_be_bytes());
        }
        tlv
    }

    /// One frame of a mixed request stream: `kind` 0 is v1, 1 a plain v2
    /// frame, 2 v2 with an options block, 3 v2 with the streaming flag (and
    /// an options block half the time), 4 the goodbye.
    fn mixed_frame((kind, len, seed): (u8, usize, u64)) -> Vec<u8> {
        let jpeg: Vec<u8> = (0..len)
            .map(|i| (seed >> (i % 8 * 8)) as u8 ^ i as u8)
            .collect();
        let flags = (seed >> 40) as u8 & FLAG_DEGRADE_OK;
        let deadline_us = if seed & 128 != 0 {
            (seed >> 24) as u32
        } else {
            0
        };
        let tlv = tlv_block(seed);
        match kind {
            0 => {
                // A zero-length v1 frame is the goodbye: send one byte.
                let jpeg = if jpeg.is_empty() {
                    vec![seed as u8]
                } else {
                    jpeg
                };
                let mut buf = Vec::new();
                write_request(&mut buf, &jpeg).unwrap();
                buf
            }
            1 => v2_frame(flags, deadline_us, None, &jpeg),
            2 => v2_frame(flags, deadline_us, Some(&tlv), &jpeg),
            3 => v2_frame(
                flags | FLAG_STREAM_OK,
                deadline_us,
                (seed & 64 != 0).then_some(&tlv[..]),
                &jpeg,
            ),
            _ => 0u32.to_be_bytes().to_vec(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn request_parsing_does_not_depend_on_how_the_bytes_are_split(
            frames in prop::collection::vec((0u8..5, 0usize..48, any::<u64>()), 0..8),
            cuts in prop::collection::vec(any::<usize>(), 0..12),
        ) {
            let wire: Vec<u8> = frames.iter().copied().flat_map(mixed_frame).collect();
            let read = read_chaotically(&wire);
            prop_assert_eq!(parse_in_pieces(&wire, &cuts), read);
        }

        #[test]
        fn corrupt_headers_fail_alike_however_the_bytes_arrive(
            before in prop::collection::vec((0u8..4, 0usize..32, any::<u64>()), 0..3),
            len in 0usize..32,
            seed in any::<u64>(),
            field in 0u8..4,
            value in any::<u32>(),
            cuts in prop::collection::vec(any::<usize>(), 0..12),
        ) {
            // The target: a v2 frame whose options block starts with a
            // known one-byte record, so its first TLV length is at a fixed
            // offset.
            let mut tlv = vec![OPT_STRICTNESS, 1, 0];
            tlv.extend_from_slice(&tlv_block(seed));
            let mut target = v2_frame(0, 0, Some(&tlv), &vec![7u8; len]);
            let changed = match field {
                0 => std::mem::replace(&mut target[4], value as u8) != value as u8,
                1 => {
                    let old = target[10..14].to_vec();
                    target[10..14].copy_from_slice(&value.to_be_bytes());
                    old != target[10..14]
                }
                2 => {
                    let old = target[14..16].to_vec();
                    target[14..16].copy_from_slice(&(value as u16).to_be_bytes());
                    old != target[14..16]
                }
                _ => std::mem::replace(&mut target[17], value as u8) != value as u8,
            };
            let mut wire: Vec<u8> = before.iter().copied().flat_map(mixed_frame).collect();
            wire.extend_from_slice(&target);
            write_request(&mut wire, b"after").unwrap();

            let read = read_chaotically(&wire);
            prop_assert_eq!(parse_in_pieces(&wire, &cuts), &read[..]);
            // Version, jpeg_len and opt_len have one legal value each; a
            // corrupt TLV length may still describe a parseable block.
            if changed && field < 3 {
                let last = read.last().unwrap();
                prop_assert!(
                    matches!(last, Parsed::Error(io::ErrorKind::InvalidData, _)),
                    "field {} = {:#x}: {:?}", field, value, last
                );
            }
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE 802.3 check value for "123456789".
        let mut crc = Crc32::new();
        crc.update(b"123456789");
        assert_eq!(crc.finish(), 0xCBF4_3926);
        // Incremental == one-shot.
        let mut a = Crc32::new();
        a.update(b"1234");
        a.update(b"56789");
        assert_eq!(a.finish(), 0xCBF4_3926);
        assert_eq!(Crc32::new().finish(), 0);
    }

    proptest! {
        #[test]
        fn crc32_slice_by_8_equals_the_bytewise_oracle_however_it_is_split(
            buf in prop::collection::vec(any::<u8>(), 4104..4105),
            skip in 0usize..8,
            // Half the cases stay around the eight-byte step and its tail.
            len in prop_oneof![0usize..24, 0usize..4097],
            cuts in prop::collection::vec(any::<usize>(), 0..5),
        ) {
            // Every start alignment: drop up to seven leading bytes of the
            // allocation.
            let data = &buf[skip..skip + len];
            let oracle = crc32_bytewise(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF;

            let mut whole = Crc32::new();
            whole.update(data);
            prop_assert_eq!(whole.finish(), oracle, "unsplit, {} bytes", data.len());

            // One to five `update` calls, cut at arbitrary points (empty
            // pieces included).
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
            cuts.sort_unstable();
            let mut split = Crc32::new();
            let mut from = 0;
            for cut in cuts.iter().copied().chain([data.len()]) {
                split.update(&data[from..cut]);
                from = cut;
            }
            prop_assert_eq!(split.finish(), oracle, "{} bytes cut at {cuts:?}", data.len());
        }
    }

    #[test]
    fn streamed_response_reassembles_and_verifies_crc() {
        // Hand-craft a streamed wire response and read it back whole.
        let tiles: [&[u8]; 3] = [&[1, 2, 3, 4, 5, 6], &[7, 8, 9, 10, 11, 12], &[13, 14, 15]];
        let mut crc = Crc32::new();
        let mut wire = vec![STATUS_STREAM_BEGIN, 0u8];
        wire.extend_from_slice(&5u32.to_be_bytes());
        wire.extend_from_slice(&1u32.to_be_bytes());
        for t in tiles {
            crc.update(t);
            wire.push(STATUS_STREAM_CHUNK);
            wire.extend_from_slice(&(t.len() as u32).to_be_bytes());
            wire.extend_from_slice(t);
        }
        wire.extend_from_slice(&[STATUS_STREAM_FINAL, 0u8]);
        wire.extend_from_slice(&crc.finish().to_be_bytes());

        let reply = read_response(&mut io::Cursor::new(wire.clone())).unwrap();
        let frame = reply.frame().expect("ok frame");
        assert_eq!(frame.width, 5);
        assert_eq!(frame.height, 1);
        assert_eq!(frame.rgb, (1u8..=15).collect::<Vec<_>>());

        // Sink mode: chunks arrive in order, frame body stays empty.
        let mut seen = Vec::new();
        let reply = read_response_streamed(&mut io::Cursor::new(wire.clone()), &mut |c| {
            seen.extend_from_slice(c)
        })
        .unwrap();
        assert_eq!(seen, (1u8..=15).collect::<Vec<_>>());
        assert!(reply.frame().unwrap().rgb.is_empty());

        // A flipped payload byte fails the CRC check.
        let mut bad = wire;
        let flip_at = 2 + 8 + 1 + 4; // first byte of the first chunk
        bad[flip_at] ^= 0xFF;
        let err = read_response(&mut io::Cursor::new(bad)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("CRC"));
    }

    #[test]
    fn a_short_stream_with_a_valid_crc_is_refused() {
        // A 4×4 stream that ends after one row, with a good CRC over the
        // row it sent: not the image its header announced, read either way.
        let row = [9u8; 4 * 3];
        let mut crc = Crc32::new();
        crc.update(&row);
        let mut wire = vec![STATUS_STREAM_BEGIN, 0u8];
        wire.extend_from_slice(&4u32.to_be_bytes());
        wire.extend_from_slice(&4u32.to_be_bytes());
        wire.push(STATUS_STREAM_CHUNK);
        wire.extend_from_slice(&(row.len() as u32).to_be_bytes());
        wire.extend_from_slice(&row);
        wire.extend_from_slice(&[STATUS_STREAM_FINAL, 0u8]);
        wire.extend_from_slice(&crc.finish().to_be_bytes());

        let err = read_response(&mut io::Cursor::new(wire.clone())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("12 of 48"), "{err}");
        let err = read_response_streamed(&mut io::Cursor::new(wire), &mut |_| {}).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn stream_abort_surfaces_as_in_band_error() {
        let mut wire = vec![STATUS_STREAM_BEGIN, 0u8];
        wire.extend_from_slice(&4u32.to_be_bytes());
        wire.extend_from_slice(&4u32.to_be_bytes());
        wire.push(STATUS_STREAM_CHUNK);
        wire.extend_from_slice(&3u32.to_be_bytes());
        wire.extend_from_slice(&[1, 2, 3]);
        let msg = b"decode panicked mid-stream";
        wire.extend_from_slice(&[STATUS_STREAM_FINAL, 1u8]);
        wire.extend_from_slice(&(msg.len() as u32).to_be_bytes());
        wire.extend_from_slice(msg);
        match read_response(&mut io::Cursor::new(wire)).unwrap() {
            ServerReply::Error(m) => assert!(m.contains("mid-stream")),
            other => panic!("expected in-band error, got {other:?}"),
        }
    }
}
