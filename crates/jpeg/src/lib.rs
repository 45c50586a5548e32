//! # hetjpeg-jpeg — baseline JPEG codec substrate
//!
//! A from-scratch implementation of baseline sequential JPEG (ITU-T T.81),
//! playing the role that *libjpeg-turbo* plays in the paper
//! *Dynamic Partitioning-based JPEG Decompression on Heterogeneous Multicore
//! Architectures* (Sodsong et al., PMAM/PPoPP 2014).
//!
//! The crate provides every decoding stage as a separately callable,
//! region-addressable unit so that the heterogeneous scheduler in
//! `hetjpeg-core` can split work between a CPU path and a (simulated) GPU
//! path at MCU-row granularity, exactly as the paper's re-engineered
//! libjpeg-turbo does (paper §3):
//!
//! * [`bitio`] — bit-level readers/writers with JPEG 0xFF byte stuffing,
//! * [`markers`] — JFIF segment parsing and writing,
//! * [`huffman`] — canonical Huffman coding (Annex K tables, lookahead LUT),
//! * [`quant`] — quantization tables and IJG quality scaling,
//! * [`zigzag`] — zigzag ↔ natural coefficient order,
//! * [`dct`] — forward DCT and three IDCT variants (reference f64,
//!   integer *islow*, AAN float; paper §4.1),
//! * [`color`] — YCbCr ↔ RGB conversion (paper Algorithm 2),
//! * [`sample`] — chroma down/upsampling incl. the blockwise fancy
//!   upsampler of paper Algorithm 1,
//! * [`geometry`] — MCU/block/pixel coordinate algebra,
//! * [`coef`] — the whole-image coefficient buffer (planar Y‖Cb‖Cr layout
//!   introduced in paper §4),
//! * [`entropy`] — the strictly sequential Huffman scan decoder with
//!   per-MCU-row work metrics,
//! * [`speculate`] — speculative self-synchronizing Huffman decoding of
//!   restart-free streams (chunk workers + stitch reconciliation),
//! * [`progressive`] — the progressive (SOF2) subsystem: multi-scan
//!   parsing, successive-approximation entropy decoding with coefficient
//!   accumulation, and a scan-script encoder for corpus generation,
//! * [`encoder`] — a baseline JPEG encoder used to synthesize corpora,
//! * [`decoder`] — the parallel phase over any band of MCU rows: one
//!   render loop parameterised by kernel level and output sink (what the
//!   heterogeneous scheduler hands the CPU), the three-pass scalar oracle
//!   it is tested against, and whole-image decoders over each,
//! * [`metrics`] — work counters that feed the performance model of §5.
//!
//! ## Quick example
//!
//! ```
//! use hetjpeg_jpeg::{encoder::{EncodeParams, encode_rgb}, decoder::decode};
//! use hetjpeg_jpeg::types::Subsampling;
//!
//! // A tiny 16x8 gradient image, encoded and decoded back.
//! let (w, h) = (16usize, 8usize);
//! let rgb: Vec<u8> = (0..w * h * 3).map(|i| (i % 251) as u8).collect();
//! let jpeg = encode_rgb(&rgb, w as u32, h as u32,
//!                       &EncodeParams { quality: 90, subsampling: Subsampling::S422,
//!                                       restart_interval: 0 }).unwrap();
//! let img = decode(&jpeg).unwrap();
//! assert_eq!((img.width, img.height), (16, 8));
//! ```

pub mod bitio;
pub mod coef;
pub mod color;
pub mod dct;
pub mod decoder;
pub mod encoder;
pub mod entropy;
pub mod error;
pub mod geometry;
pub mod huffman;
pub mod markers;
pub mod metrics;
pub mod planes;
pub mod progressive;
pub mod quant;
pub mod sample;
pub mod speculate;
pub mod testutil;
pub mod types;
pub mod zigzag;

pub use error::{Error, Result};
pub use types::{RgbImage, Subsampling};

/// Size of one side of a JPEG block (always 8 in baseline JPEG).
pub const DCTSIZE: usize = 8;
/// Number of samples/coefficients in a block.
pub const DCTSIZE2: usize = 64;
