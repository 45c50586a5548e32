//! The one file through which `spine` calls the five workspace crates.
//!
//! Everything else in this directory reaches the program under test only
//! through the functions and re-exported types below, and those are kept
//! to entry points the ROADMAP keeps across its planned refactors
//! (`Prepared::new`, `Prepared::entropy_decode_all`, `CoefBuffer::{block,
//! eob}`, the level-dispatched IDCT/upsample/blend/convert kernels,
//! `Decoder::{decode, decode_rows, decode_batch, predict, stats}`,
//! `profile::train`, `Server::start/shutdown`, `ServeHandle::decode_with`,
//! `FrontEnd::{new, run, stop, stats}`, and the protocol's request and
//! response functions). A pipeline or serve refactor that moves something
//! else cannot break the benchmark; one that moves these edits this file
//! and nothing beside it. Input generators (`hetjpeg-corpus` and the
//! encoder) are listed first; the program under test receives only bytes.

pub use hetjpeg_core::model::PerformanceModel;
pub use hetjpeg_core::schedule::auto::AutoDecision;
pub use hetjpeg_core::timeline::Resource;
pub use hetjpeg_core::{DecodeOutcome, Decoder, Mode, Platform, RowTile, SessionStats};
pub use hetjpeg_corpus::{ImageSpec, Pattern};
pub use hetjpeg_jpeg::coef::CoefBuffer;
pub use hetjpeg_jpeg::decoder::kernels::SimdLevel;
pub use hetjpeg_jpeg::decoder::Prepared;
pub use hetjpeg_jpeg::metrics::RowMetrics;
pub use hetjpeg_jpeg::types::Subsampling;
pub use hetjpeg_serve::frontend::{FrontEnd, FrontEndStats};
pub use hetjpeg_serve::protocol::ServerReply;
pub use hetjpeg_serve::{ServeHandle, Served, Server, ServerStats, TILE_POOL_CAP};

use hetjpeg_core::profile::{train, TrainOptions};
use hetjpeg_core::DecodeOptions;
use hetjpeg_jpeg::encoder::{encode_rgb, EncodeParams};
use hetjpeg_jpeg::progressive::{encode_rgb_progressive, ScanPreset};
use hetjpeg_serve::{protocol, RequestOptions, ServeConfig, SubmitOptions};
use std::io::{self, Read, Write};
use std::net::TcpListener;

type JpegResult<T> = hetjpeg_jpeg::Result<T>;

// ---------------------------------------------------------------- inputs

/// Render a synthetic image to interleaved RGB.
pub fn render(spec: &ImageSpec) -> Vec<u8> {
    hetjpeg_corpus::generate_rgb(spec)
}

/// Crop the `cw`×`ch` window at (`x0`, `y0`) out of a `w`×`h` render.
pub fn crop(rgb: &[u8], w: usize, h: usize, x0: usize, y0: usize, cw: usize, ch: usize) -> Vec<u8> {
    hetjpeg_corpus::crop::crop_rgb(rgb, w, h, x0, y0, cw, ch)
}

fn params(quality: u8, subsampling: Subsampling) -> EncodeParams {
    EncodeParams {
        quality,
        subsampling,
        restart_interval: 0,
    }
}

/// Encode RGB as a baseline, restart-free JPEG.
pub fn encode(rgb: &[u8], w: usize, h: usize, quality: u8, sub: Subsampling) -> Vec<u8> {
    encode_rgb(rgb, w as u32, h as u32, &params(quality, sub)).expect("corpus encode")
}

/// Encode RGB as a progressive (SOF2) JPEG with the classic 10-scan script.
pub fn encode_progressive(
    rgb: &[u8],
    w: usize,
    h: usize,
    quality: u8,
    sub: Subsampling,
) -> Vec<u8> {
    encode_rgb_progressive(
        rgb,
        w as u32,
        h as u32,
        &params(quality, sub),
        ScanPreset::Standard10,
    )
    .expect("corpus progressive encode")
}

/// The scale of the §5.1 experiment here: 128–1024 px sides in 3 steps,
/// 4:2:2 q85, restart-free.
const PAPER_CORPUS: hetjpeg_corpus::CorpusParams = hetjpeg_corpus::CorpusParams {
    min_dim: 128,
    max_dim: 1024,
    steps: 3,
    subsampling: Subsampling::S422,
    quality: 85,
    restart_interval: 0,
};

/// The §5.1 training corpus. Its pattern families and seeds are fixed and
/// disjoint from every workload corpus: it calibrates the program, it is
/// not an input of the measurement.
pub fn training_jpegs() -> Vec<Vec<u8>> {
    hetjpeg_corpus::training_set(&PAPER_CORPUS)
        .into_iter()
        .map(|c| c.jpeg)
        .collect()
}

/// The stock evaluation corpus, disjoint from the training set: 63 images
/// as `(jpeg, width, height)`.
pub fn test_jpegs() -> Vec<(Vec<u8>, usize, usize)> {
    hetjpeg_corpus::test_set(&PAPER_CORPUS)
        .into_iter()
        .map(|c| (c.jpeg, c.width, c.height))
        .collect()
}

// ------------------------------------------------------------ jpeg layer

/// The vector level this host dispatches to.
pub fn host_level() -> SimdLevel {
    SimdLevel::detect()
}

pub fn parse(jpeg: &[u8]) -> JpegResult<Prepared<'_>> {
    Prepared::new(jpeg)
}

/// Entropy-decode the whole image; the counts are summed over MCU rows.
pub fn entropy_decode(prep: &Prepared<'_>) -> JpegResult<(CoefBuffer, RowMetrics)> {
    let (coef, metrics) = prep.entropy_decode_all()?;
    Ok((coef, metrics.total()))
}

/// Dequantise + IDCT block `index` of `coef` into `dst` at `base`/`stride`.
#[inline]
pub fn idct_block(
    level: SimdLevel,
    coef: &CoefBuffer,
    index: usize,
    quant: &[u16; 64],
    dst: &mut [u8],
    base: usize,
    stride: usize,
) {
    hetjpeg_jpeg::dct::simd_islow::dequant_idct_to_level(
        level,
        coef.block(index),
        quant,
        coef.eob(index),
        dst,
        base,
        stride,
    );
}

#[inline]
pub fn upsample_h2v1(level: SimdLevel, input: &[u8], output: &mut [u8]) {
    hetjpeg_jpeg::decoder::kernels::upsample_row_h2v1(level, input, output);
}

#[inline]
pub fn blend_v2(level: SimdLevel, near: &[u8], far: &[u8], out: &mut [u8]) {
    hetjpeg_jpeg::decoder::kernels::blend_v2_row(level, near, far, out);
}

#[inline]
pub fn convert_row(
    level: SimdLevel,
    prep: &Prepared<'_>,
    y: &[u8],
    cb: &[u8],
    cr: &[u8],
    out: &mut [u8],
) {
    hetjpeg_jpeg::decoder::kernels::convert_row(level, &prep.ycc, y, cb, cr, out);
}

// ------------------------------------------------------------ core layer

/// The modelled machine every workload decodes on: i7-2600K + GTX 560 Ti.
pub fn platform() -> Platform {
    Platform::gtx560()
}

/// `profile::train` as the bench harness has always called it: degree ≤ 3,
/// work-group size and chunk height tuned on the largest images.
pub fn train_model(platform: &Platform, jpegs: &[Vec<u8>]) -> PerformanceModel {
    train(
        platform,
        jpegs,
        TrainOptions {
            max_degree: 3,
            wg_blocks: None,
            chunk_mcu_rows: None,
        },
    )
}

/// A decode session on [`platform`]; `model = None` is the analytic seed.
pub fn session(model: Option<&PerformanceModel>, threads: usize) -> Decoder {
    let mut b = Decoder::builder().platform(platform()).threads(threads);
    if let Some(m) = model {
        b = b.model(m.clone());
    }
    b.build().expect("session configuration")
}

fn options(mode: Mode, max_scans: Option<usize>) -> DecodeOptions {
    let o = DecodeOptions::with_mode(mode);
    match max_scans {
        Some(n) => o.max_scans(n),
        None => o,
    }
}

pub fn decode(dec: &Decoder, jpeg: &[u8], mode: Mode) -> JpegResult<DecodeOutcome> {
    dec.decode(jpeg, options(mode, None))
}

/// Decode at most `scans` scans of a progressive image.
pub fn decode_prefix(
    dec: &Decoder,
    jpeg: &[u8],
    mode: Mode,
    scans: usize,
) -> JpegResult<DecodeOutcome> {
    dec.decode(jpeg, options(mode, Some(scans)))
}

pub fn decode_rows(
    dec: &Decoder,
    jpeg: &[u8],
    mode: Mode,
    sink: &mut dyn FnMut(RowTile<'_>) -> bool,
) -> JpegResult<()> {
    dec.decode_rows(jpeg, options(mode, None), sink).map(|_| ())
}

pub fn decode_batch(
    dec: &Decoder,
    jpegs: &[Vec<u8>],
    mode: Mode,
) -> Vec<JpegResult<DecodeOutcome>> {
    dec.decode_batch(jpegs, options(mode, None))
}

pub fn predict(dec: &Decoder, jpeg: &[u8]) -> JpegResult<AutoDecision> {
    dec.predict(jpeg)
}

pub fn stats(dec: &Decoder) -> SessionStats {
    dec.stats()
}

// ----------------------------------------------------------- serve layer

/// Start the server both serve workloads use: two shards of two-thread
/// sessions on [`platform`], every request decoded in `mode`.
pub fn start_server(mode: Mode) -> Server {
    Server::start(ServeConfig {
        shards: 2,
        threads: 2,
        platform: platform(),
        options: DecodeOptions::with_mode(mode),
        ..ServeConfig::default()
    })
    .expect("server configuration")
}

pub fn shutdown(server: Server) -> ServerStats {
    server.shutdown()
}

/// What the pool answers a request with.
pub type ServedResult = Result<Served, hetjpeg_serve::ServeError>;

/// In-process round trip through admission, queue and shard worker.
pub fn decode_in_process(handle: &ServeHandle, jpeg: &[u8]) -> ServedResult {
    handle.decode_with(jpeg, SubmitOptions::default())
}

/// Pool counters summed over shards, read from the snapshot's fields.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolTotals {
    pub requests: u64,
    pub batches: u64,
    pub shed: u64,
    pub degraded: u64,
    pub decode_errors: u64,
    pub stream_tile_peak: u64,
}

pub fn pool_totals(stats: &ServerStats) -> PoolTotals {
    let mut t = PoolTotals::default();
    for s in &stats.shards {
        t.requests += s.requests;
        t.batches += s.batches;
        t.shed += s.shed;
        t.degraded += s.degraded;
        t.decode_errors += s.decode_errors;
        t.stream_tile_peak = t.stream_tile_peak.max(s.stream_tile_peak);
    }
    t
}

pub fn front_end(handle: ServeHandle, listener: TcpListener) -> io::Result<FrontEnd> {
    FrontEnd::new(handle, listener)
}

/// Runs the readiness loop on the calling thread until `stop_front_end`.
pub fn run_front_end(fe: &FrontEnd) -> io::Result<u64> {
    fe.run()
}

pub fn stop_front_end(fe: &FrontEnd) {
    fe.stop();
}

pub fn front_end_stats(fe: &FrontEnd) -> FrontEndStats {
    fe.stats()
}

/// The three request framings a client can send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framing {
    V1,
    V2,
    V2Streaming,
}

fn submit_options(streaming: bool) -> SubmitOptions {
    SubmitOptions {
        options: RequestOptions {
            streaming,
            ..RequestOptions::default()
        },
        ..SubmitOptions::default()
    }
}

pub fn write_request(w: &mut impl Write, jpeg: &[u8], framing: Framing) -> io::Result<()> {
    match framing {
        Framing::V1 => protocol::write_request(w, jpeg),
        Framing::V2 => protocol::write_request_v2_opts(w, jpeg, &submit_options(false)),
        Framing::V2Streaming => protocol::write_request_v2_opts(w, jpeg, &submit_options(true)),
    }
}

/// Read one reply. Streamed row tiles go to `sink` after their CRC'd
/// framing is read (the CRC trailer is checked before this returns);
/// whole-frame replies come back in the returned frame.
pub fn read_response(r: &mut impl Read, sink: &mut dyn FnMut(&[u8])) -> io::Result<ServerReply> {
    protocol::read_response_streamed(r, sink)
}

/// Server-side incremental parse of the head of `buf`; returns the bytes
/// consumed by one complete frame.
pub fn parse_request(buf: &[u8]) -> io::Result<Option<usize>> {
    Ok(protocol::parse_request(buf)?.map(|(_, consumed)| consumed))
}

pub fn write_response(w: &mut impl Write, served: &ServedResult) -> io::Result<()> {
    protocol::write_response(w, served)
}
