//! # hetjpeg — dynamic partitioning-based JPEG decompression
//!
//! Facade over the workspace crates, re-exported under one roof:
//!
//! * [`jpeg`] (`hetjpeg-jpeg`) — the baseline JPEG codec substrate with
//!   region-addressable decode stages and the EOB-dispatched sparse hot
//!   path,
//! * [`gpusim`] (`hetjpeg-gpu-sim`) — the functional + analytic
//!   OpenCL-style GPU simulator,
//! * [`core`] (`hetjpeg-core`) — performance model, partitioners, the six
//!   decode modes, and the real-thread pipelined executor,
//! * [`corpus`] (`hetjpeg-corpus`) — synthetic corpora with controllable
//!   entropy density,
//! * [`serve`] (`hetjpeg-serve`) — the multi-session decode server:
//!   sharded session pool, async batch admission, wire protocol.
//!
//! The `hetjpeg` binary (`src/bin/hetjpeg.rs`) is the command-line front
//! end and `hetjpeg-serve` (`src/bin/hetjpeg-serve.rs`) the server; see
//! `docs/ARCHITECTURE.md` for the end-to-end picture and `docs/PERF.md`
//! for the hot-path architecture and bench methodology.

pub use hetjpeg_core as core;
pub use hetjpeg_corpus as corpus;
pub use hetjpeg_gpusim as gpusim;
pub use hetjpeg_jpeg as jpeg;
pub use hetjpeg_serve as serve;

pub use hetjpeg_core::{
    BuildError, DecodeOptions, DecodeOutcome, Decoder, DecoderBuilder, Mode, OutputFormat,
    Platform, SessionStats, Strictness,
};
pub use hetjpeg_serve::{ServeConfig, ServeHandle, Server, ServerStats};

/// Decode a JPEG byte stream with the reference three-pass scalar decoder.
///
/// For anything beyond a one-off decode, build a [`Decoder`] session (it
/// amortizes pools and `Mode::Auto` decisions across images), or front a
/// pool of sessions with [`Server`] when requests arrive concurrently:
///
/// ```
/// use hetjpeg::{DecodeOptions, Decoder, ServeConfig, Server};
/// use hetjpeg::corpus::{generate_jpeg, ImageSpec, Pattern};
/// use hetjpeg::jpeg::types::Subsampling;
///
/// let spec = ImageSpec { width: 64, height: 64,
///                        pattern: Pattern::PhotoLike { detail: 0.5 }, seed: 3 };
/// let jpeg = generate_jpeg(&spec, 85, Subsampling::S420).unwrap();
///
/// let reference = hetjpeg::decode(&jpeg).unwrap();
///
/// let decoder = Decoder::builder().build().unwrap();
/// let out = decoder.decode(&jpeg, DecodeOptions::default()).unwrap();
/// assert_eq!(out.image.data, reference.data);
///
/// let server = Server::start(ServeConfig { shards: 2, ..ServeConfig::default() }).unwrap();
/// let served = server.handle().decode(&jpeg).unwrap();
/// assert_eq!(served.image.data, reference.data);
/// server.shutdown();
/// ```
pub fn decode(data: &[u8]) -> hetjpeg_jpeg::Result<hetjpeg_jpeg::RgbImage> {
    hetjpeg_jpeg::decoder::decode(data)
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_decodes() {
        use hetjpeg_jpeg::encoder::{encode_rgb, EncodeParams};
        use hetjpeg_jpeg::types::Subsampling;
        let rgb = vec![100u8; 16 * 8 * 3];
        let jpeg = encode_rgb(
            &rgb,
            16,
            8,
            &EncodeParams {
                quality: 90,
                subsampling: Subsampling::S444,
                restart_interval: 0,
            },
        )
        .unwrap();
        let img = super::decode(&jpeg).unwrap();
        assert_eq!((img.width, img.height), (16, 8));
    }
}
