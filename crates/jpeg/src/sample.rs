//! Chroma down- and upsampling.
//!
//! The upsampler implements paper **Algorithm 1** verbatim: a blockwise
//! "fancy" (triangular) filter that expands an 8-sample chroma row segment
//! to 16 output samples using only that segment — end pixels replicate
//! instead of peeking at neighbouring blocks. The paper chose this
//! formulation so two GPU work-items can upsample one row without
//! cross-block communication (§4.2); we use the identical arithmetic on the
//! CPU so both devices produce the same bytes.
//!
//! A row-wide variant (the filter libjpeg applies across whole rows) is also
//! provided; tests use it as a reference.

/// Paper Algorithm 1: upsample an 8-sample row segment to 16 samples.
///
/// Even outputs sit on the original samples' left half, odd outputs are the
/// 3:1 weighted blends; rounding alternates +2 / +1 exactly as printed.
#[inline]
pub fn upsample_h2v1_block8(input: &[u8; 8]) -> [u8; 16] {
    let inp = |i: usize| input[i] as u16;
    let mut out = [0u8; 16];
    out[0] = input[0];
    out[1] = ((inp(0) * 3 + inp(1) + 2) / 4) as u8;
    out[2] = ((inp(1) * 3 + inp(0) + 1) / 4) as u8;
    out[3] = ((inp(1) * 3 + inp(2) + 2) / 4) as u8;
    out[4] = ((inp(2) * 3 + inp(1) + 1) / 4) as u8;
    out[5] = ((inp(2) * 3 + inp(3) + 2) / 4) as u8;
    out[6] = ((inp(3) * 3 + inp(2) + 1) / 4) as u8;
    out[7] = ((inp(3) * 3 + inp(4) + 2) / 4) as u8;
    out[8] = ((inp(4) * 3 + inp(3) + 1) / 4) as u8;
    out[9] = ((inp(4) * 3 + inp(5) + 2) / 4) as u8;
    out[10] = ((inp(5) * 3 + inp(4) + 1) / 4) as u8;
    out[11] = ((inp(5) * 3 + inp(6) + 2) / 4) as u8;
    out[12] = ((inp(6) * 3 + inp(5) + 1) / 4) as u8;
    out[13] = ((inp(6) * 3 + inp(7) + 2) / 4) as u8;
    out[14] = ((inp(7) * 3 + inp(6) + 1) / 4) as u8;
    out[15] = input[7];
    out
}

/// The even-ID work-item half of Algorithm 1: produces `Out[0..8)` from
/// `In[0..=4]` (§4.2: "The work-item with the even ID reads `In[0]` to `In[4]`").
#[inline]
pub fn upsample_h2v1_even_half(input: &[u8]) -> [u8; 8] {
    debug_assert!(input.len() >= 5);
    let inp = |i: usize| input[i] as u16;
    [
        input[0],
        ((inp(0) * 3 + inp(1) + 2) / 4) as u8,
        ((inp(1) * 3 + inp(0) + 1) / 4) as u8,
        ((inp(1) * 3 + inp(2) + 2) / 4) as u8,
        ((inp(2) * 3 + inp(1) + 1) / 4) as u8,
        ((inp(2) * 3 + inp(3) + 2) / 4) as u8,
        ((inp(3) * 3 + inp(2) + 1) / 4) as u8,
        ((inp(3) * 3 + inp(4) + 2) / 4) as u8,
    ]
}

/// The odd-ID work-item half of Algorithm 1: produces `Out[8..16)` from
/// `In[3..=7]` (indices relative to the 8-sample segment).
#[inline]
pub fn upsample_h2v1_odd_half(input: &[u8]) -> [u8; 8] {
    debug_assert!(input.len() >= 8);
    let inp = |i: usize| input[i] as u16;
    [
        ((inp(4) * 3 + inp(3) + 1) / 4) as u8,
        ((inp(4) * 3 + inp(5) + 2) / 4) as u8,
        ((inp(5) * 3 + inp(4) + 1) / 4) as u8,
        ((inp(5) * 3 + inp(6) + 2) / 4) as u8,
        ((inp(6) * 3 + inp(5) + 1) / 4) as u8,
        ((inp(6) * 3 + inp(7) + 2) / 4) as u8,
        ((inp(7) * 3 + inp(6) + 1) / 4) as u8,
        input[7],
    ]
}

/// Upsample a whole chroma row of `len_in` samples to `2 * len_in` samples by
/// applying Algorithm 1 to each aligned 8-sample segment.
pub fn upsample_row_h2v1_blockwise(input: &[u8], output: &mut [u8]) {
    debug_assert_eq!(output.len(), input.len() * 2);
    debug_assert_eq!(input.len() % 8, 0);
    for (seg_in, seg_out) in input.chunks_exact(8).zip(output.chunks_exact_mut(16)) {
        let mut arr = [0u8; 8];
        arr.copy_from_slice(seg_in);
        seg_out.copy_from_slice(&upsample_h2v1_block8(&arr));
    }
}

/// Row-wide triangular h2v1 upsampling (libjpeg "fancy" filter): interior
/// outputs read across segment boundaries; only image edges replicate.
pub fn upsample_row_h2v1_rowwide(input: &[u8], output: &mut [u8]) {
    let n = input.len();
    debug_assert_eq!(output.len(), n * 2);
    if n == 0 {
        return;
    }
    output[0] = input[0];
    for i in 0..n {
        let cur = input[i] as u16 * 3;
        if i > 0 {
            output[2 * i] = ((cur + input[i - 1] as u16 + 1) / 4) as u8;
        }
        if i + 1 < n {
            output[2 * i + 1] = ((cur + input[i + 1] as u16 + 2) / 4) as u8;
        }
    }
    output[2 * n - 1] = input[n - 1];
}

/// Encoder direction: average horizontal sample pairs (h2v1).
pub fn downsample_row_h2v1(input: &[u8], output: &mut [u8]) {
    debug_assert_eq!(input.len(), output.len() * 2);
    for (o, pair) in output.iter_mut().zip(input.chunks_exact(2)) {
        *o = (pair[0] as u16 + pair[1] as u16).div_ceil(2) as u8;
    }
}

/// Encoder direction: average a 2x2 neighbourhood (h2v2, for 4:2:0).
pub fn downsample_h2v2(row0: &[u8], row1: &[u8], output: &mut [u8]) {
    debug_assert_eq!(row0.len(), row1.len());
    debug_assert_eq!(row0.len(), output.len() * 2);
    for (i, o) in output.iter_mut().enumerate() {
        let s = row0[2 * i] as u16
            + row0[2 * i + 1] as u16
            + row1[2 * i] as u16
            + row1[2 * i + 1] as u16;
        *o = ((s + 2) / 4) as u8;
    }
}

/// Vertical doubling used for 4:2:0 ("similar manner as 4:2:2", §6): the
/// blockwise triangular filter applied between vertically adjacent rows.
#[inline]
pub fn upsample_v2_pair(near: u8, far: u8) -> u8 {
    ((near as u16 * 3 + far as u16 + 2) / 4) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm1_reproduces_paper_listing() {
        // A recognisable ramp; check a few outputs against the printed rules.
        let inp = [0u8, 40, 80, 120, 160, 200, 240, 255];
        let out = upsample_h2v1_block8(&inp);
        assert_eq!(out[0], 0); // Out[0] = In[0]
        assert_eq!(out[1], ((40 + 2) / 4) as u8); // (In[0]*3 + In[1] + 2)/4 = 10
        assert_eq!(out[2], (((40 * 3) + 1) / 4) as u8); // = 30
        assert_eq!(out[8], ((160 * 3 + 120 + 1) / 4) as u8);
        assert_eq!(out[15], 255); // Out[15] = In[7]
    }

    #[test]
    fn halves_concatenate_to_full_block() {
        let inp: [u8; 8] = [13, 7, 200, 156, 92, 31, 255, 0];
        let full = upsample_h2v1_block8(&inp);
        let even = upsample_h2v1_even_half(&inp);
        let odd = upsample_h2v1_odd_half(&inp);
        assert_eq!(&full[0..8], &even);
        assert_eq!(&full[8..16], &odd);
    }

    #[test]
    fn constant_input_stays_constant() {
        let inp = [77u8; 8];
        let out = upsample_h2v1_block8(&inp);
        assert!(out.iter().all(|&v| v == 77));
        let mut row = [0u8; 32];
        upsample_row_h2v1_rowwide(&[77u8; 16], &mut row);
        assert!(row.iter().all(|&v| v == 77));
    }

    #[test]
    fn blockwise_and_rowwide_agree_inside_blocks() {
        // Interior outputs (not adjacent to an 8-boundary) match.
        let input: Vec<u8> = (0..16).map(|i| (i * 16) as u8).collect();
        let mut blockwise = vec![0u8; 32];
        let mut rowwide = vec![0u8; 32];
        upsample_row_h2v1_blockwise(&input, &mut blockwise);
        upsample_row_h2v1_rowwide(&input, &mut rowwide);
        // Outputs 2..14 come from inputs 0..8 without boundary effects.
        for i in 2..14 {
            assert_eq!(blockwise[i], rowwide[i], "index {i}");
        }
        // The seam between segments may differ (replication vs true blend).
        assert_ne!(&blockwise[..], &rowwide[..]);
    }

    #[test]
    fn upsample_preserves_mean_roughly() {
        let input: Vec<u8> = (0..24).map(|i| ((i * 37) % 256) as u8).collect();
        let mut out = vec![0u8; 48];
        upsample_row_h2v1_blockwise(&input, &mut out);
        let mean_in: f64 = input.iter().map(|&v| v as f64).sum::<f64>() / input.len() as f64;
        let mean_out: f64 = out.iter().map(|&v| v as f64).sum::<f64>() / out.len() as f64;
        assert!((mean_in - mean_out).abs() < 4.0);
    }

    #[test]
    fn downsample_h2v1_averages() {
        let input = [10u8, 20, 30, 30, 0, 255];
        let mut out = [0u8; 3];
        downsample_row_h2v1(&input, &mut out);
        assert_eq!(out, [15, 30, 128]);
    }

    #[test]
    fn downsample_h2v2_averages() {
        let r0 = [0u8, 4, 100, 104];
        let r1 = [8u8, 12, 108, 112];
        let mut out = [0u8; 2];
        downsample_h2v2(&r0, &r1, &mut out);
        assert_eq!(out, [6, 106]);
    }

    #[test]
    fn downsample_then_upsample_is_close_on_smooth_data() {
        // Smooth ramp survives the down/up cycle within a small error.
        let input: Vec<u8> = (0..32).map(|i| (i * 8) as u8).collect();
        let mut down = vec![0u8; 16];
        downsample_row_h2v1(&input, &mut down);
        let mut up = vec![0u8; 32];
        upsample_row_h2v1_blockwise(&down, &mut up);
        for i in 2..30 {
            assert!(
                (up[i] as i32 - input[i] as i32).abs() <= 8,
                "i={i}: {} vs {}",
                up[i],
                input[i]
            );
        }
    }
}
