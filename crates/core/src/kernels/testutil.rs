//! Shared device staging for kernel tests and examples.
//!
//! "Pack, serialize, upload coefficients, upload sidecar" for either
//! [`TransferMode`] lives here once, so the kernel unit tests and the
//! inspect example launch single kernels on exactly the buffers a region
//! decode would ship. The production path (`crate::gpu_decode::GpuContext`)
//! reuses pooled device buffers instead; this module trades that for
//! simplicity, which is fine off the hot path.

use super::{CoefAccess, RegionLayout};
use crate::gpu_decode::TransferMode;
use hetjpeg_gpusim::{BufId, GpuSim};
use hetjpeg_jpeg::coef::{CoefBuffer, EOB_DENSE};
use hetjpeg_jpeg::geometry::Geometry;

/// Device buffers of one staged region upload.
pub struct StagedRegion {
    /// Coefficient payload buffer (dense blocks or compacted corners).
    pub coef: BufId,
    /// Per-block EOB sidecar buffer.
    pub eobs: BufId,
    /// Ready-made access descriptor for the IDCT-family kernels.
    pub access: CoefAccess,
    /// Bytes a host→device transfer of this staging ships (payload +
    /// sidecar + offset table where applicable).
    pub h2d_bytes: usize,
}

/// Pack MCU rows `[layout.row0, layout.row1)` of `coefbuf` in the requested
/// layout and upload every buffer the IDCT-family kernels need.
pub fn stage_region(
    sim: &mut GpuSim,
    layout: &RegionLayout,
    coefbuf: &CoefBuffer,
    geom: &Geometry,
    mode: TransferMode,
) -> StagedRegion {
    let nblocks = layout.eob_bytes();
    let mut sidecar = Vec::new();
    coefbuf.pack_eobs_mcu_rows_into(geom, layout.row0, layout.row1, &mut sidecar);
    debug_assert_eq!(sidecar.len(), nblocks);
    if mode == TransferMode::Dense {
        sidecar.fill(EOB_DENSE);
    }
    let eobs = sim.create_buffer(nblocks);
    sim.write_buffer(eobs, 0, &sidecar);

    match mode {
        TransferMode::Dense => {
            let packed = coefbuf.pack_mcu_rows(geom, layout.row0, layout.row1);
            let bytes: Vec<u8> = packed.iter().flat_map(|v| v.to_le_bytes()).collect();
            debug_assert_eq!(bytes.len(), layout.coef_bytes);
            let coef = sim.create_buffer(layout.coef_bytes);
            sim.write_buffer(coef, 0, &bytes);
            StagedRegion {
                coef,
                eobs,
                access: CoefAccess::Dense,
                h2d_bytes: bytes.len() + nblocks,
            }
        }
        TransferMode::Compacted => {
            let (mut payload, mut table) = (Vec::new(), Vec::new());
            coefbuf.pack_compacted_into(geom, layout.row0, layout.row1, &mut payload, &mut table);
            let pbytes: Vec<u8> = payload.iter().flat_map(|v| v.to_le_bytes()).collect();
            let obytes: Vec<u8> = table.iter().flat_map(|v| v.to_le_bytes()).collect();
            let coef = sim.create_buffer(pbytes.len().max(2));
            sim.write_buffer(coef, 0, &pbytes);
            let offsets = sim.create_buffer(obytes.len().max(4));
            sim.write_buffer(offsets, 0, &obytes);
            StagedRegion {
                coef,
                eobs,
                access: CoefAccess::Compacted { offsets },
                h2d_bytes: pbytes.len() + obytes.len() + nblocks,
            }
        }
    }
}
