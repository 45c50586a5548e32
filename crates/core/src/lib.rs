//! # hetjpeg-core — dynamic partitioning-based heterogeneous JPEG decoding
//!
//! The primary contribution of Sodsong et al., *Dynamic Partitioning-based
//! JPEG Decompression on Heterogeneous Multicore Architectures*
//! (PMAM/PPoPP 2014), implemented on top of:
//!
//! * `hetjpeg-jpeg` — the libjpeg-turbo-equivalent codec substrate, and
//! * `hetjpeg-gpusim` — the OpenCL-style GPU simulator.
//!
//! The pieces map one-to-one onto the paper:
//!
//! | Module | Paper |
//! |---|---|
//! | [`platform`] | Table 1 machines (CPU + GPU + PCIe) |
//! | [`cost`] | CPU work-metric cost model behind Figs. 6–7 |
//! | [`kernels`] | §4.1–4.4 GPU kernels (IDCT, upsampling, color, merged) |
//! | [`gpu_decode`] | §4 GPU decode orchestration + §4.5 chunking |
//! | [`regress`] | §5.1 multivariate polynomial regression, AIC, Horner |
//! | [`profile`] | §5.1 offline profiling, §4.5 chunk tuning, work-group tuning |
//! | [`model`] | §5.1 closed forms `THuff`, `PCPU`, `PGPU`, `Tdisp` |
//! | [`partition`] | §5.2 SPS / PPS load balancing, Newton's method, Eq. 16–17 re-partitioning |
//! | [`schedule`] | §6 decode modes (the paper's six + restart-parallel entropy + `Auto`) |
//! | [`session`] | the `Decoder` session API: builder, pooled scratch, batch decode |
//! | [`report`] | §6.2 Amdahl bound (Eq. 18–19) and speedup statistics |
//! | [`timeline`] | Fig. 5 / Fig. 8 execution timelines |
//!
//! ## Quick example
//!
//! Build a [`Decoder`] session once, decode many images through it; the
//! default [`Mode::Auto`] picks the cheapest mode per image from the
//! trained §5.1 model, and the session reuses its pooled buffers across
//! calls:
//!
//! ```
//! use hetjpeg_core::{DecodeOptions, Decoder, Mode, Platform};
//! use hetjpeg_corpus::{generate_jpeg, ImageSpec, Pattern};
//! use hetjpeg_jpeg::types::Subsampling;
//!
//! let spec = ImageSpec { width: 128, height: 128,
//!                        pattern: Pattern::PhotoLike { detail: 0.6 }, seed: 7 };
//! let jpeg = generate_jpeg(&spec, 85, Subsampling::S422).unwrap();
//!
//! let platform = Platform::gtx560();
//! let decoder = Decoder::builder()
//!     .platform(platform.clone())
//!     .model(platform.untrained_model()) // or profile::train(...)
//!     .threads(4)
//!     .build()
//!     .expect("valid configuration");
//!
//! // Mode::Auto (the default) resolves to a concrete mode per image.
//! let out = decoder.decode(&jpeg, DecodeOptions::default()).unwrap();
//! assert_eq!(out.image.width, 128);
//! assert_ne!(out.mode, Mode::Auto);
//! assert!(out.times.total > 0.0);
//!
//! // Batches amortize the pooled buffers and the Auto decision.
//! let batch = vec![jpeg.clone(), jpeg];
//! let outs = decoder.decode_batch(&batch, DecodeOptions::with_mode(Mode::Pps));
//! assert!(outs.iter().all(|o| o.is_ok()));
//! ```

#![warn(missing_docs)]

pub mod cost;
pub mod gpu_decode;
pub mod kernels;
pub mod model;
pub mod partition;
pub mod platform;
pub mod profile;
pub mod regress;
pub mod report;
pub mod schedule;
pub mod session;
pub mod timeline;
pub mod workspace;

pub use hetjpeg_jpeg::decoder::kernels::SimdLevel;
pub use platform::Platform;
pub use schedule::{DecodeOutcome, Mode};
pub use session::{
    BuildError, DecodeOptions, Decoder, DecoderBuilder, OutputFormat, RowStreamOutcome, RowTile,
    SessionStats, Strictness, DEFAULT_AUTO_CACHE_CAP,
};
pub use workspace::PoolStats;
