//! The sink axis of the render-loop matrices (`simd_kernels_props.rs`,
//! `idct_simd_props.rs`): for one image at one kernel level, every sink of
//! [`simd::render_rows`] — over whole-image and split bands — must
//! reproduce the three-pass [`stages`] oracle.

use hetjpeg_jpeg::coef::CoefBuffer;
use hetjpeg_jpeg::decoder::kernels::SimdLevel;
use hetjpeg_jpeg::decoder::{simd, stages, Prepared};
use hetjpeg_jpeg::planes::SamplePlanes;
use hetjpeg_jpeg::types::YccImage;

/// What the three-pass pipeline says one image decodes to.
pub struct Oracle {
    pub rgb: Vec<u8>,
    pub ycc: YccImage,
}

/// Run the oracle: all three passes for the RGB bytes, the first two
/// (clipped to the image) for the planar samples.
pub fn oracle(prep: &Prepared<'_>, coef: &CoefBuffer) -> Oracle {
    let geom = &prep.geom;
    let mcus = geom.mcus_y;
    let mut rgb = vec![0u8; geom.rgb_bytes_in_mcu_rows(0, mcus)];
    stages::decode_region_rgb(prep, coef, 0, mcus, &mut rgb).expect("oracle");

    let mut planes = SamplePlanes::new(geom);
    stages::dequant_idct_region(prep, coef, 0, mcus, &mut planes);
    let (cb, cr) = stages::upsample_region(prep, &planes, 0, mcus);
    let (w, lw) = (geom.width, planes.strides[0]);
    let mut ycc = YccImage::new(w, geom.height);
    for y in 0..geom.height {
        ycc.y[y * w..][..w].copy_from_slice(&planes.row(0, y)[..w]);
        ycc.cb[y * w..][..w].copy_from_slice(&cb[y * lw..][..w]);
        ycc.cr[y * w..][..w].copy_from_slice(&cr[y * lw..][..w]);
    }
    Oracle { rgb, ycc }
}

/// MCU-row bands of a `ways`-way split of `mcus` rows (empty bands kept:
/// a zero-row band must render nothing).
fn bands(mcus: usize, ways: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..ways).map(move |k| (mcus * k / ways, mcus * (k + 1) / ways))
}

/// One cell of the matrix: RGB-band sink over 1-, 2- and 3-way splits ==
/// concatenated tile-sink output == planar sink (`.to_rgb()` too) == the
/// oracle; and a tile sink that declines tile `k` stops the band there,
/// charged for exactly `k + 1` MCU rows. Panics with `label` on a miss.
pub fn assert_every_sink_matches(
    prep: &Prepared<'_>,
    coef: &CoefBuffer,
    level: SimdLevel,
    want: &Oracle,
    label: &str,
) {
    let geom = &prep.geom;
    let (w, mcus) = (geom.width, geom.mcus_y);
    let label = format!("{label} {}", level.name());
    let mut scratch = simd::SimdScratch::with_level(prep, level);

    for ways in 1..=3 {
        let mut rgb = vec![0u8; want.rgb.len()];
        let mut tiled = Vec::with_capacity(want.rgb.len());
        let mut ycc = YccImage::new(w, geom.height);
        let mut tile = Vec::new();
        for (a, b) in bands(mcus, ways) {
            let (r0, r1) = geom.mcu_rows_to_pixel_rows(a, b);

            let mut sink =
                simd::RgbBand::new(prep, a, b, &mut rgb[r0 * w * 3..r1 * w * 3]).expect("band");
            let done = simd::render_rows(prep, coef, a, b, &mut scratch, &mut sink);
            assert!(done, "{label}: band {a}..{b}");

            let mut next_row = r0;
            let mut sink = simd::RgbTiles::new(prep, a, &mut tile, |y0, rows, px: &[u8]| {
                assert_eq!(y0, next_row, "{label}: tiles arrive in row order");
                assert_eq!(px.len(), rows * w * 3, "{label}: tile at row {y0}");
                next_row += rows;
                tiled.extend_from_slice(px);
                true
            });
            let done = simd::render_rows(prep, coef, a, b, &mut scratch, &mut sink);
            assert!(done, "{label}: tiles {a}..{b}");
            assert_eq!(next_row, r1, "{label}: tiles cover band {a}..{b}");

            let mut sink = simd::Planar::new(prep, &mut ycc).expect("planar");
            let done = simd::render_rows(prep, coef, a, b, &mut scratch, &mut sink);
            assert!(done, "{label}: planar {a}..{b}");
        }
        assert_eq!(rgb, want.rgb, "{label}: {ways}-way RGB bands");
        assert_eq!(tiled, want.rgb, "{label}: {ways}-way tiles");
        assert_eq!(ycc, want.ycc, "{label}: {ways}-way planar");
        assert_eq!(ycc.to_rgb().data, want.rgb, "{label}: planar to RGB");
    }

    let mut tile = Vec::new();
    for k in [0, mcus / 2, mcus - 1] {
        let mut delivered = 0;
        let mut sink = simd::RgbTiles::new(prep, 0, &mut tile, |_, _, _: &[u8]| {
            delivered += 1;
            delivered <= k
        });
        let done = simd::render_rows(prep, coef, 0, mcus, &mut scratch, &mut sink);
        assert!(!done, "{label}: stop at tile {k}");
        assert_eq!(delivered, k + 1, "{label}: stop at tile {k}");
    }
}
