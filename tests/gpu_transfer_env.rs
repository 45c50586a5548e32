//! `HETJPEG_GPU_TRANSFER` is read once, when a session is built. This is
//! the only test of its binary because it changes the process environment,
//! which every other session built meanwhile would see.

use hetjpeg_core::platform::Platform;
use hetjpeg_core::schedule::Mode;
use hetjpeg_core::{DecodeOptions, Decoder};
use hetjpeg_corpus::{generate_jpeg, ImageSpec, Pattern};
use hetjpeg_jpeg::types::Subsampling;

const VAR: &str = "HETJPEG_GPU_TRANSFER";

/// Pixels and H2D bytes of one decode on `dec`.
fn decode(dec: &Decoder, jpeg: &[u8], mode: Mode) -> (Vec<u8>, u64) {
    let before = dec.stats().pool.h2d_bytes;
    let out = dec
        .decode(jpeg, DecodeOptions::with_mode(mode))
        .expect("decode");
    (out.image.data, dec.stats().pool.h2d_bytes - before)
}

#[test]
fn transfer_layout_is_fixed_when_the_session_is_built() {
    let spec = ImageSpec {
        width: 160,
        height: 136,
        pattern: Pattern::PhotoLike { detail: 0.5 },
        seed: 0x7E57,
    };
    let jpeg = generate_jpeg(&spec, 80, Subsampling::S420).expect("encode");
    let session = || {
        Decoder::builder()
            .platform(Platform::gtx680())
            .build()
            .expect("session")
    };

    std::env::remove_var(VAR);
    let compacted = session();
    // Pipelined and PPS decodes ship several chunks each: a layout switch
    // between two of them is what this guards against.
    let modes = [Mode::Gpu, Mode::PipelinedGpu, Mode::Pps];
    let baseline = modes.map(|m| decode(&compacted, &jpeg, m));

    std::env::set_var(VAR, "dense");
    for (mode, want) in modes.iter().zip(&baseline) {
        let again = decode(&compacted, &jpeg, *mode);
        assert_eq!(
            &again, want,
            "{mode:?}: a built session ignores the variable"
        );
    }
    // The variable is live — a session built now ships the dense layout —
    // and stays with that session once it is unset again.
    let dense = session();
    std::env::remove_var(VAR);
    for (mode, (pixels, bytes)) in modes.iter().zip(&baseline) {
        let (dense_pixels, dense_bytes) = decode(&dense, &jpeg, *mode);
        assert_eq!(&dense_pixels, pixels, "{mode:?}");
        assert!(
            dense_bytes > *bytes,
            "{mode:?}: dense {dense_bytes} B vs compacted {bytes} B"
        );
    }
}
