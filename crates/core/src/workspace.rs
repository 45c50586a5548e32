//! Pooled per-session scratch shared by every decode path.
//!
//! PR 1 made the hot path allocation-free *within* one decode; this module
//! makes it allocation-free *across* decodes: a [`Workspace`] owns the
//! whole-image coefficient buffer, the render loop's MCU-row scratch and
//! streamed-tile buffer, and the simulated GPU device with its buffers and
//! chunk staging, and re-shapes them for each image instead of
//! reallocating. The session decoder
//! ([`crate::session::Decoder`]) holds one workspace for its lifetime, so a
//! batch of same-shaped images performs the large allocations exactly once
//! — the property [`PoolStats`] exposes and the batch tests assert.

use crate::gpu_decode::{GpuContext, TransferMode};
use crate::platform::Platform;
use hetjpeg_jpeg::coef::CoefBuffer;
use hetjpeg_jpeg::decoder::kernels::SimdLevel;
use hetjpeg_jpeg::decoder::{simd, Prepared};
use hetjpeg_jpeg::geometry::Geometry;
use hetjpeg_jpeg::types::Subsampling;

/// Counters describing how often the workspace pools were (re)used. All
/// counts are cumulative over the owning session's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Fresh coefficient-buffer allocations.
    pub coef_allocs: u64,
    /// Coefficient buffers re-shaped in place (no new allocation).
    pub coef_reuses: u64,
    /// Fresh render-scratch allocations.
    pub scratch_allocs: u64,
    /// Render scratches re-shaped in place.
    pub scratch_reuses: u64,
    /// `Mode::Auto` decisions computed from the performance model.
    pub auto_evals: u64,
    /// `Mode::Auto` decisions served from the session cache.
    pub auto_cache_hits: u64,
    /// `Mode::Auto` cache entries evicted (LRU-first) to respect the
    /// session's configured entry cap.
    pub auto_evictions: u64,
    /// Host→device transfers issued to the (simulated) GPU. A batched
    /// decode that coalesces several images' payloads into one PCIe
    /// transaction counts **one** transfer here, which is what the serve
    /// tests assert (per-batch, not per-image accounting).
    pub h2d_transfers: u64,
    /// Total bytes shipped host→device (compacted payload + offset table +
    /// EOB sidecar under the default transfer mode).
    pub h2d_bytes: u64,
}

impl PoolStats {
    /// Fold another session's counters into this one — what the serve
    /// layer uses to keep a shard's cumulative accounting across session
    /// rebuilds (a recovered panic discards the session but not its
    /// history).
    pub fn merge(&mut self, other: &PoolStats) {
        self.coef_allocs += other.coef_allocs;
        self.coef_reuses += other.coef_reuses;
        self.scratch_allocs += other.scratch_allocs;
        self.scratch_reuses += other.scratch_reuses;
        self.auto_evals += other.auto_evals;
        self.auto_cache_hits += other.auto_cache_hits;
        self.auto_evictions += other.auto_evictions;
        self.h2d_transfers += other.h2d_transfers;
        self.h2d_bytes += other.h2d_bytes;
    }
}

/// Geometry fingerprint used to detect when pooled buffers can be reused
/// byte-for-byte (same shape) versus re-shaped (different shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GeomKey {
    width: usize,
    height: usize,
    subsampling: Subsampling,
}

impl GeomKey {
    pub(crate) fn of(geom: &Geometry) -> Self {
        GeomKey {
            width: geom.width,
            height: geom.height,
            subsampling: geom.subsampling,
        }
    }
}

/// The session's simulated GPU: the transfer layout, read from
/// `HETJPEG_GPU_TRANSFER` once when the slot (and so the workspace) is
/// created, and the device context, made on the first GPU region and kept
/// for every later one.
pub(crate) struct GpuSlot {
    transfer: TransferMode,
    ctx: Option<GpuContext>,
}

impl Default for GpuSlot {
    fn default() -> Self {
        GpuSlot {
            transfer: TransferMode::from_env(),
            ctx: None,
        }
    }
}

impl GpuSlot {
    /// The layout every GPU decode of this session ships.
    pub(crate) fn transfer(&self) -> TransferMode {
        self.transfer
    }

    /// The device context for `platform` (a session has one platform; a
    /// bare workspace handed a different one gets a new device).
    pub(crate) fn on(&mut self, platform: &Platform) -> &mut GpuContext {
        if !self.ctx.as_ref().is_some_and(|c| c.serves(platform)) {
            self.ctx = Some(GpuContext::new(platform, self.transfer));
        }
        self.ctx.as_mut().expect("context made above")
    }
}

/// Pooled scratch for one decode session. `Default` yields an empty pool;
/// every buffer is created lazily on first use and re-shaped afterwards.
#[derive(Default)]
pub struct Workspace {
    coef: Option<CoefBuffer>,
    scratch: Option<simd::SimdScratch>,
    scratch_key: Option<GeomKey>,
    /// The one-MCU-row RGB buffer streamed tiles are rendered into and
    /// lent out of; grows to the widest image streamed, never shrinks.
    tile: Vec<u8>,
    /// Kernel level the render scratch should dispatch to. `None` leaves
    /// the scratch's own choice (host detection) in place; the session
    /// decoder resolves it once per call.
    simd_level: Option<SimdLevel>,
    pub(crate) gpu: GpuSlot,
    pub(crate) stats: PoolStats,
    /// Cumulative speculative-entropy counters (ISSUE 6): chunk workers
    /// launched, convergence waste, stitch re-decodes. Merged in by every
    /// decode that runs the speculative path; surfaced through
    /// [`crate::SessionStats`].
    pub(crate) spec: hetjpeg_jpeg::speculate::SpecStats,
    /// Cumulative progressive-decode counters (PR 7): scans decoded,
    /// refinement passes, partial (prefix) renders. Bumped by every decode
    /// that takes the progressive path; surfaced through
    /// [`crate::SessionStats`].
    pub(crate) progressive: hetjpeg_jpeg::progressive::ProgressiveStats,
}

/// Mutable views of the workspace's independent pools, so a decode path can
/// hold the coefficient buffer and the render scratch at the same time.
pub(crate) struct WsParts<'a> {
    pub coef: &'a mut CoefBuffer,
    pub scratch: &'a mut simd::SimdScratch,
    pub tile: &'a mut Vec<u8>,
    pub gpu: &'a mut GpuSlot,
    pub stats: &'a mut PoolStats,
}

impl Workspace {
    /// Prepare every pool for decoding `prep`'s image. The coefficient
    /// buffer is re-shaped but *not* cleared — a complete entropy decode
    /// overwrites every block and EOB, so the memset would be pure cost;
    /// paths that can leave blocks untouched use [`Self::ensure_zeroed`].
    /// The render scratch is re-shaped only when the geometry changed.
    pub(crate) fn ensure(&mut self, prep: &Prepared<'_>) {
        self.ensure_counted(prep, true);
    }

    fn ensure_counted(&mut self, prep: &Prepared<'_>, count: bool) {
        let geom = &prep.geom;
        match self.coef.as_mut() {
            Some(c) => {
                c.reset_for_entropy(geom);
                if count {
                    self.stats.coef_reuses += 1;
                }
            }
            None => {
                self.coef = Some(CoefBuffer::new(geom));
                if count {
                    self.stats.coef_allocs += 1;
                }
            }
        }
        let key = GeomKey::of(geom);
        match self.scratch.as_mut() {
            Some(scratch) => {
                if self.scratch_key != Some(key) {
                    scratch.reset_for(prep);
                }
                if count {
                    self.stats.scratch_reuses += 1;
                }
            }
            None => {
                self.scratch = Some(simd::SimdScratch::new(prep));
                if count {
                    self.stats.scratch_allocs += 1;
                }
            }
        }
        self.scratch_key = Some(key);
    }

    /// Pin the kernel level the render scratch dispatches to (applied on
    /// the next [`Self::parts`], so it may be decided after the buffer is
    /// filled).
    pub(crate) fn set_simd_level(&mut self, level: SimdLevel) {
        self.simd_level = Some(level);
    }

    /// The kernel level the render scratch was last pinned to — what the
    /// most recent decode actually dispatched (`None` before the first
    /// decode). [`crate::SessionStats`] reports this rather than the
    /// session's configured level, so neither a scalar `Sequential`
    /// decode nor a stray force override can hide behind configuration.
    pub(crate) fn simd_level(&self) -> Option<SimdLevel> {
        self.simd_level
    }

    /// [`Self::ensure`] plus a full zero of the coefficient buffer — for
    /// decode paths that may leave blocks untouched (tolerant salvage of a
    /// damaged stream renders untouched blocks as neutral gray). Does not
    /// bump the pool counters: salvage runs after a failed attempt that
    /// already counted this decode.
    pub(crate) fn ensure_zeroed(&mut self, prep: &Prepared<'_>) {
        self.ensure_counted(prep, false);
        self.coef
            .as_mut()
            .expect("ensure populated the pool")
            .reset_for(&prep.geom);
    }

    /// Split the workspace into its independent pools. Call after
    /// [`Self::ensure`]; panics otherwise.
    pub(crate) fn parts(&mut self) -> WsParts<'_> {
        let scratch = self.scratch.as_mut().expect("Workspace::ensure not called");
        if let Some(level) = self.simd_level {
            scratch.set_level(level);
        }
        WsParts {
            coef: self.coef.as_mut().expect("Workspace::ensure not called"),
            scratch,
            tile: &mut self.tile,
            gpu: &mut self.gpu,
            stats: &mut self.stats,
        }
    }

    /// Cumulative pool counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Cumulative speculative-entropy counters.
    pub fn spec_stats(&self) -> hetjpeg_jpeg::speculate::SpecStats {
        self.spec
    }

    /// Cumulative progressive-decode counters.
    pub fn progressive_stats(&self) -> hetjpeg_jpeg::progressive::ProgressiveStats {
        self.progressive
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetjpeg_jpeg::encoder::{encode_rgb, EncodeParams};

    fn prep_of(w: usize, h: usize) -> Vec<u8> {
        encode_rgb(
            &vec![90u8; w * h * 3],
            w as u32,
            h as u32,
            &EncodeParams {
                quality: 85,
                subsampling: Subsampling::S422,
                restart_interval: 0,
            },
        )
        .unwrap()
    }

    #[test]
    fn pools_allocate_once_and_reuse_after() {
        let a = prep_of(64, 48);
        let b = prep_of(32, 32);
        let mut ws = Workspace::default();
        let pa = Prepared::new(&a).unwrap();
        let pb = Prepared::new(&b).unwrap();
        ws.ensure(&pa);
        ws.ensure(&pa);
        ws.ensure(&pb); // shape change: re-shaped, not reallocated
        let s = ws.stats();
        assert_eq!(s.coef_allocs, 1);
        assert_eq!(s.coef_reuses, 2);
        assert_eq!(s.scratch_allocs, 1);
        assert_eq!(s.scratch_reuses, 2);
        // Parts are usable and sized for the latest image.
        let parts = ws.parts();
        assert_eq!(parts.coef.num_blocks(), pb.geom.total_blocks);
    }
}
