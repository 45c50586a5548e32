//! GPU decode orchestration: buffers, kernel sequence, timing.
//!
//! A [`GpuContext`] is the session's simulated device: the simulator, its
//! device buffers, the host-side staging and the transfer layout, created
//! once and reused for every region. [`GpuContext::decode_region`] decodes
//! a band of MCU rows on it, following the paper's kernel plans:
//!
//! * 4:4:4 — single merged IDCT×3+color kernel (§4.4),
//! * 4:2:2 / 4:2:0 — IDCT per component into planes, then the merged
//!   upsample+color kernel (§4.4),
//! * optionally the unmerged plan (IDCT, upsample, color as separate
//!   kernels) for the §4.4 ablation.
//!
//! The coefficients reach the device one of two ways. The paper's way ships
//! them: the host packs the region's compacted coefficients and copies them
//! over. A fed plan ships its GPU share's scan bytes and subsequence table
//! instead, and [`GpuContext::decode_entropy`] runs the subsequence Huffman
//! kernels (`hetjpeg_gpusim::subseq`), which write the same compacted
//! layout on the device; its regions then decode from those resident
//! coefficients, with nothing shipped. Either way the IDCT and merged
//! kernels read the same buffers.
//!
//! The RGB bytes land in the caller's slice; the returned
//! [`GpuRegionResult`] carries the *simulated* stage durations (H2D,
//! per-kernel, D2H) that the schedulers place on the command-queue
//! timeline.

use crate::kernels::color::ColorKernel;
use crate::kernels::idct::IdctKernel;
use crate::kernels::merged::{IdctColorKernel444, UpsampleColorKernel};
use crate::kernels::upsample::UpsampleKernel422;
use crate::kernels::{CoefAccess, RegionLayout};
use crate::platform::Platform;
use hetjpeg_gpusim::subseq::{self, Compacted, SubseqBuffers, SubseqTable};
use hetjpeg_gpusim::{BufId, GpuSim, Kernel, LaunchStats, PcieModel, TimingModel};
use hetjpeg_jpeg::coef::{compact_packed_blocks, CoefBuffer, EOB_DENSE};
use hetjpeg_jpeg::decoder::Prepared;
use hetjpeg_jpeg::error::{Error, Result};
use hetjpeg_jpeg::types::Subsampling;

/// Which coefficient layout the GPU path ships over PCIe (PR 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransferMode {
    /// Dense blocks plus a synthesized all-dense sidecar: the pre-PR-5
    /// baseline, kept as the reference the compacted layout is tested
    /// against (the kernels see no sparsity).
    Dense,
    /// Compacted class-corner payload + `u32` offset table + sidecar — the
    /// production layout: only each block's ≤EOB prefix crosses the bus.
    #[default]
    Compacted,
}

/// Bytes of one subsequence-table entry shipped with the scan: the lane's
/// start byte and the first MCU it may be in sync at, a `u32` each.
pub const SUBSEQ_ENTRY_BYTES: usize = 8;

/// Bytes of the decoder state at one MCU row's start read back for a CPU
/// band: the bit position and three DC predictors, a `u32` each.
pub const STATE_BYTES: usize = 16;

/// A share of MCU rows' entropy-coded source, for a device that decodes
/// its Huffman itself: the rows' scan bytes and the lanes their
/// subsequences measured.
#[derive(Debug, Clone, Copy)]
pub struct ScanSource<'a> {
    /// The rows' scan bytes, as shipped.
    pub bytes: &'a [u8],
    /// Their subsequences, byte ranges relative to `bytes`.
    pub table: &'a SubseqTable,
}

/// Simulated timings of one device Huffman decode
/// ([`GpuContext::decode_entropy`]).
#[derive(Debug, Clone, PartialEq)]
pub struct GpuEntropyResult {
    /// Host→device transfer time of the scan bytes and the subsequence
    /// table, seconds.
    pub h2d_time: f64,
    /// Bytes shipped host→device.
    pub h2d_bytes: usize,
    /// The two subsequence kernels' simulated durations.
    pub kernel_times: Vec<(&'static str, f64)>,
    /// Their merged launch statistics.
    pub stats: LaunchStats,
    /// Reading the decoder state at every decoded MCU row's start back to
    /// the host ([`STATE_BYTES`] a row), seconds.
    pub readback_time: f64,
}

impl GpuEntropyResult {
    /// Total kernel time.
    pub fn kernels_total(&self) -> f64 {
        self.kernel_times.iter().map(|(_, t)| t).sum()
    }
}

/// Simulated timings of one GPU region decode.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuRegionResult {
    /// Host→device transfer time (coefficients), seconds.
    pub h2d_time: f64,
    /// Device→host transfer time (RGB), seconds.
    pub d2h_time: f64,
    /// Per-kernel simulated durations.
    pub kernel_times: Vec<(&'static str, f64)>,
    /// Merged launch statistics of all kernels.
    pub stats: LaunchStats,
    /// Bytes shipped host→device.
    pub h2d_bytes: usize,
    /// Bytes shipped device→host.
    pub d2h_bytes: usize,
}

impl GpuRegionResult {
    /// Total kernel time.
    pub fn kernels_total(&self) -> f64 {
        self.kernel_times.iter().map(|(_, t)| t).sum()
    }

    /// Total device-side time (transfers + kernels) — the paper's
    /// `PGPU` (Eq. 7): `Ow + Tkernel + Or`.
    pub fn device_total(&self) -> f64 {
        self.h2d_time + self.kernels_total() + self.d2h_time
    }
}

/// Kernel plan selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPlan {
    /// The paper's production plan with merged kernels (§4.4).
    Merged,
    /// Separate IDCT / upsample / color kernels (ablation baseline;
    /// 4:4:4 and 4:2:2 only).
    Unmerged,
}

/// Reusable serialization scratch of whatever [`TransferMode`] payload
/// ships: its little-endian byte image, plus the compacted corners / offset
/// table / synthesized dense sidecar the layouts need.
#[derive(Debug, Default)]
struct XferScratch {
    bytes: Vec<u8>,
    payload: Vec<i16>,
    offsets: Vec<u32>,
    obytes: Vec<u8>,
    dense_eobs: Vec<u8>,
}

/// The device buffers every region decode uses, allocated once per context
/// and re-created in place per region.
#[derive(Debug, Clone, Copy)]
struct DeviceBuffers {
    coef: BufId,
    offsets: BufId,
    eobs: BufId,
    planes: BufId,
    rgb: BufId,
    /// Upsampled chroma of the unmerged 4:2:2 plan.
    upsampled: BufId,
    /// The scan bytes and the subsequence kernels' records.
    scan: BufId,
    records: BufId,
    totals: BufId,
}

/// One simulated device and everything a session keeps on it between
/// regions: the simulator (with its worker bookkeeping), grow-only device
/// buffers, host staging, and the transfer layout resolved when the
/// context was made.
///
/// A reused device buffer is indistinguishable from a fresh zeroed one:
/// each region re-creates the buffers it uploads from exactly the uploaded
/// bytes and re-zeroes the ones its kernels fill (`planes`, `rgb`), so
/// nothing of an earlier, larger region can be read back.
pub struct GpuContext {
    device: Device,
    /// The region's packed coefficient chunk and per-block EOB sidecar,
    /// staged by [`Self::decode_region`].
    packed: Vec<i16>,
    eobs: Vec<u8>,
    /// The MCU rows whose compacted layout the device's coefficient
    /// buffers hold, written by [`Self::decode_entropy`].
    written: Option<(usize, usize)>,
}

struct Device {
    sim: GpuSim,
    pcie: PcieModel,
    mode: TransferMode,
    bufs: DeviceBuffers,
    xfer: XferScratch,
}

impl GpuContext {
    /// A context for `platform`'s GPU and PCIe link shipping `mode`.
    pub fn new(platform: &Platform, mode: TransferMode) -> Self {
        let mut sim = GpuSim::new(platform.gpu.clone());
        let mut buf = || sim.create_buffer(0);
        let bufs = DeviceBuffers {
            coef: buf(),
            offsets: buf(),
            eobs: buf(),
            planes: buf(),
            rgb: buf(),
            upsampled: buf(),
            scan: buf(),
            records: buf(),
            totals: buf(),
        };
        GpuContext {
            device: Device {
                sim,
                pcie: platform.pcie,
                mode,
                bufs,
                xfer: XferScratch::default(),
            },
            packed: Vec::new(),
            eobs: Vec::new(),
            written: None,
        }
    }

    /// The coefficient layout this context ships.
    pub fn transfer_mode(&self) -> TransferMode {
        self.device.mode
    }

    /// True when this context simulates `platform`'s device and link.
    pub fn serves(&self, platform: &Platform) -> bool {
        self.device.sim.device == platform.gpu && self.device.pcie == platform.pcie
    }

    /// Cap the host workers a launch may use (results never depend on it).
    pub fn set_host_threads(&mut self, threads: usize) {
        self.device.sim.host_threads = threads.max(1);
    }

    /// Decode MCU rows `[row0, row1)` of `coefbuf` on the device into
    /// `out`, the region's (clipped) interleaved RGB rows.
    ///
    /// `wg_blocks` is the tuned work-group size in blocks (paper §5.1 sweeps
    /// 4 to 32 MCUs); it is used for the IDCT-family kernels.
    #[allow(clippy::too_many_arguments)]
    pub fn decode_region(
        &mut self,
        prep: &Prepared<'_>,
        coefbuf: &CoefBuffer,
        row0: usize,
        row1: usize,
        wg_blocks: usize,
        plan: KernelPlan,
        out: &mut [u8],
    ) -> Result<GpuRegionResult> {
        self.decode_resident(prep, coefbuf, false, row0, row1, wg_blocks, plan, out)
    }

    /// [`Self::decode_region`] from coefficients already `resident` on the
    /// device — written there by [`Self::decode_entropy`]: nothing crosses
    /// the bus before the kernels, which read what `coefbuf` holds for the
    /// rows, the host's decode of the same scan.
    #[allow(clippy::too_many_arguments)]
    pub fn decode_resident(
        &mut self,
        prep: &Prepared<'_>,
        coefbuf: &CoefBuffer,
        resident: bool,
        row0: usize,
        row1: usize,
        wg_blocks: usize,
        plan: KernelPlan,
        out: &mut [u8],
    ) -> Result<GpuRegionResult> {
        if resident && self.written == Some((row0, row1)) {
            return (self.device).decode_packed(prep, None, row0, row1, wg_blocks, plan, out);
        }
        coefbuf.pack_mcu_rows_into(&prep.geom, row0, row1, &mut self.packed);
        coefbuf.pack_eobs_mcu_rows_into(&prep.geom, row0, row1, &mut self.eobs);
        self.written = None;
        let packed = Some((&self.packed[..], &self.eobs[..]));
        let mut res =
            (self.device).decode_packed(prep, packed, row0, row1, wg_blocks, plan, out)?;
        if resident {
            (res.h2d_time, res.h2d_bytes) = (0.0, 0);
        }
        Ok(res)
    }

    /// Decode the Huffman of MCU rows `[row0, row1)` on the device from
    /// `scan`, their scan bytes and subsequence lanes: the bytes and the
    /// table cross the bus, the two subsequence kernels write the rows'
    /// compacted coefficients — the values `coefbuf` holds for them — into
    /// the device's coefficient buffers, and the decoder state at each
    /// row's start can be read back. Returns the pass's simulated timings.
    pub fn decode_entropy(
        &mut self,
        prep: &Prepared<'_>,
        coefbuf: &CoefBuffer,
        scan: ScanSource<'_>,
        row0: usize,
        row1: usize,
    ) -> GpuEntropyResult {
        let geom = &prep.geom;
        coefbuf.pack_eobs_mcu_rows_into(geom, row0, row1, &mut self.eobs);
        let Device {
            sim,
            pcie,
            bufs,
            xfer,
            ..
        } = &mut self.device;
        coefbuf.pack_compacted_into(geom, row0, row1, &mut xfer.payload, &mut xfer.offsets);
        self.written = Some((row0, row1));
        sim.recreate_buffer_from(bufs.scan, scan.bytes);
        sim.recreate_buffer(bufs.coef, xfer.payload.len() * 2);
        sim.recreate_buffer(bufs.offsets, xfer.offsets.len() * 4);
        sim.recreate_buffer(bufs.eobs, self.eobs.len());
        let sbufs = SubseqBuffers {
            scan: bufs.scan,
            records: bufs.records,
            totals: bufs.totals,
            coef: bufs.coef,
            offsets: bufs.offsets,
            eobs: bufs.eobs,
        };
        let obytes = &mut xfer.obytes;
        obytes.clear();
        obytes.extend(xfer.offsets.iter().flat_map(|v| v.to_le_bytes()));
        let out = Compacted {
            payload: &xfer.payload,
            offsets: &xfer.offsets,
            offset_bytes: obytes,
            eobs: &self.eobs,
        };
        let mut stats = LaunchStats::default();
        let mut kernel_times = Vec::with_capacity(2);
        let launches = subseq::launch_subseq_decode(sim, scan.table, sbufs, scan.bytes.len(), out);
        for (s, items) in launches {
            stats.merge(&s);
            kernel_times.push(("huffman", TimingModel::kernel_time(&sim.device, &s, items)));
        }
        let h2d_bytes = scan.bytes.len() + scan.table.lanes.len() * SUBSEQ_ENTRY_BYTES;
        GpuEntropyResult {
            h2d_time: pcie.transfer_time(h2d_bytes, true),
            h2d_bytes,
            kernel_times,
            stats,
            readback_time: pcie.transfer_time((row1 - row0) * STATE_BYTES, true),
        }
    }

    /// What the last [`Self::decode_entropy`] wrote on the device: the
    /// compacted payload's bytes, the offset table's and the EOB sidecar.
    pub fn entropy_written(&self) -> [&[u8]; 3] {
        let (sim, bufs) = (&self.device.sim, &self.device.bufs);
        [bufs.coef, bufs.offsets, bufs.eobs].map(|b| sim.read_buffer(b))
    }
}

impl Device {
    #[allow(clippy::too_many_arguments)]
    /// Decode MCU rows `[row0, row1)` from `packed`, their dense packed
    /// coefficients and EOB sidecar, shipped in the context's layout — or,
    /// without them, from the compacted layout the device's buffers
    /// already hold for exactly these rows, shipping nothing.
    fn decode_packed(
        &mut self,
        prep: &Prepared<'_>,
        packed: Option<(&[i16], &[u8])>,
        row0: usize,
        row1: usize,
        wg_blocks: usize,
        plan: KernelPlan,
        out: &mut [u8],
    ) -> Result<GpuRegionResult> {
        let geom = &prep.geom;
        if plan == KernelPlan::Unmerged && geom.subsampling == Subsampling::S420 {
            return Err(Error::Unsupported(
                "unmerged kernel plan is 4:4:4/4:2:2 only",
            ));
        }
        let layout = RegionLayout::new(geom, row0, row1);
        assert_eq!(out.len(), layout.rgb_len, "destination is the region's RGB");
        let Device {
            sim,
            pcie,
            mode,
            bufs,
            xfer,
        } = self;
        let DeviceBuffers {
            coef,
            offsets,
            eobs,
            planes,
            rgb,
            upsampled,
            ..
        } = *bufs;

        let (access, h2d_bytes) = match packed {
            None => (CoefAccess::Compacted { offsets }, 0),
            Some((packed, eob_sidecar)) => {
                debug_assert_eq!(packed.len() * 2, layout.coef_bytes);
                debug_assert_eq!(eob_sidecar.len(), layout.eob_bytes());
                // H2D staging per transfer layout (pinned buffers, §5.1). The byte
                // serialization reuses the staging scratch: one exact resize +
                // chunked stores — the iterator-of-arrays collect this replaces was
                // measurably slower per chunk.
                let bytes = &mut xfer.bytes;
                bytes.clear();
                let (access, payload_sidecar_bytes) = match mode {
                    TransferMode::Dense => {
                        bytes.resize(packed.len() * 2, 0);
                        for (dst, v) in bytes.chunks_exact_mut(2).zip(packed.iter()) {
                            dst.copy_from_slice(&v.to_le_bytes());
                        }
                        sim.recreate_buffer_from(coef, bytes);
                        (CoefAccess::Dense, bytes.len())
                    }
                    TransferMode::Compacted => {
                        // Only each block's ≤EOB class corner crosses the bus, plus a
                        // u32 offset-table word per block locating it.
                        xfer.payload.clear();
                        xfer.offsets.clear();
                        compact_packed_blocks(
                            packed,
                            eob_sidecar,
                            &mut xfer.payload,
                            &mut xfer.offsets,
                        );
                        bytes.resize(xfer.payload.len() * 2, 0);
                        for (dst, v) in bytes.chunks_exact_mut(2).zip(xfer.payload.iter()) {
                            dst.copy_from_slice(&v.to_le_bytes());
                        }
                        xfer.obytes.clear();
                        xfer.obytes.resize(xfer.offsets.len() * 4, 0);
                        for (dst, v) in xfer.obytes.chunks_exact_mut(4).zip(xfer.offsets.iter()) {
                            dst.copy_from_slice(&v.to_le_bytes());
                        }
                        sim.recreate_buffer_from(coef, bytes);
                        sim.recreate_buffer_from(offsets, &xfer.obytes);
                        (
                            CoefAccess::Compacted { offsets },
                            bytes.len() + xfer.obytes.len(),
                        )
                    }
                };

                // The EOB sidecar rides along: one byte per block (~0.8% of the dense
                // coefficient payload) buys the kernels their sparse dispatch. The
                // Dense ablation ships an all-dense sidecar instead, blinding the
                // kernels to sparsity exactly like the pre-PR-5 baseline.
                if *mode == TransferMode::Dense {
                    xfer.dense_eobs.clear();
                    xfer.dense_eobs.resize(eob_sidecar.len(), EOB_DENSE);
                    sim.recreate_buffer_from(eobs, &xfer.dense_eobs);
                } else {
                    sim.recreate_buffer_from(eobs, eob_sidecar);
                }
                (access, payload_sidecar_bytes + eob_sidecar.len())
            }
        };
        sim.recreate_buffer(planes, layout.planes_len);
        sim.recreate_buffer(rgb, layout.rgb_len);
        let h2d_time = match h2d_bytes {
            0 => 0.0,
            n => pcie.transfer_time(n, true),
        };

        let mut kernel_times: Vec<(&'static str, f64)> = Vec::new();
        let mut stats = LaunchStats::default();
        let mut run = |sim: &mut GpuSim, name: &'static str, k: &dyn Kernel, groups: usize| {
            let s = sim.launch(k, groups);
            let t = TimingModel::kernel_time(&sim.device, &s, k.items_per_group());
            stats.merge(&s);
            kernel_times.push((name, t));
        };
        let idct = |c: usize| IdctKernel {
            coef,
            eobs,
            planes,
            layout: layout.clone(),
            comp: c,
            quant: prep.quant[c].values,
            blocks_per_group: wg_blocks,
            pad_lmem: true,
            access,
        };

        match (geom.subsampling, plan) {
            (Subsampling::S444, KernelPlan::Merged) => {
                let k = IdctColorKernel444 {
                    coef,
                    eobs,
                    rgb,
                    layout: layout.clone(),
                    quant: [
                        prep.quant[0].values,
                        prep.quant[1].values,
                        prep.quant[2].values,
                    ],
                    blocks_per_group: wg_blocks,
                    access,
                };
                run(sim, "idct+color", &k, k.num_groups());
            }
            (sub, plan) => {
                // Every other plan runs the IDCT into planes first.
                for c in 0..3 {
                    let k = idct(c);
                    run(sim, "idct", &k, k.num_groups());
                }
                // Where the color kernel finds full-resolution chroma.
                let mut chroma = (planes, layout.plane_base[1], layout.plane_base[2]);
                match (sub, plan) {
                    (_, KernelPlan::Merged) => {
                        let k = UpsampleColorKernel {
                            planes,
                            rgb,
                            layout: layout.clone(),
                            v2: sub == Subsampling::S420,
                            blocks_per_group: if sub == Subsampling::S420 { 4 } else { 8 },
                            parity_major: true,
                        };
                        run(sim, "upsample+color", &k, k.num_groups());
                    }
                    (Subsampling::S422, KernelPlan::Unmerged) => {
                        let lw = layout.plane_stride[0];
                        let lrows = layout.comp_block_rows[0] * 8;
                        sim.recreate_buffer(upsampled, 2 * lw * lrows);
                        for (comp, out_base) in [(1usize, 0usize), (2, lw * lrows)] {
                            let k = UpsampleKernel422 {
                                planes,
                                upsampled,
                                layout: layout.clone(),
                                comp,
                                out_base,
                                out_stride: lw,
                                blocks_per_group: 8,
                            };
                            run(sim, "upsample", &k, k.num_groups());
                        }
                        chroma = (upsampled, 0, lw * lrows);
                    }
                    (_, KernelPlan::Unmerged) => {}
                }
                if plan == KernelPlan::Unmerged {
                    let (c_buf, cb_base, cr_base) = chroma;
                    let k = ColorKernel {
                        y_buf: planes,
                        y_base: layout.plane_base[0],
                        y_stride: layout.plane_stride[0],
                        cb_buf: c_buf,
                        cb_base,
                        cr_buf: c_buf,
                        cr_base,
                        // 4:4:4 chroma planes and upsampled 4:2:2 chroma
                        // are both luma-wide.
                        c_stride: layout.plane_stride[0],
                        rgb,
                        width: layout.width,
                        rows: layout.pixel_rows,
                        blocks_per_group: 8,
                    };
                    run(sim, "color", &k, k.num_groups());
                }
            }
        }

        // D2H: read the region's RGB rows straight into the destination.
        out.copy_from_slice(sim.read_buffer(rgb));
        Ok(GpuRegionResult {
            h2d_time,
            d2h_time: pcie.transfer_time(out.len(), true),
            kernel_times,
            stats,
            h2d_bytes,
            d2h_bytes: out.len(),
        })
    }
}

/// One-shot [`GpuContext::decode_region`] on a fresh context shipping the
/// default transfer layout, returning the region's RGB — for benches,
/// examples and tests that decode a single region.
pub fn decode_region_gpu(
    prep: &Prepared<'_>,
    coefbuf: &CoefBuffer,
    row0: usize,
    row1: usize,
    platform: &Platform,
    wg_blocks: usize,
    plan: KernelPlan,
) -> Result<(Vec<u8>, GpuRegionResult)> {
    let mut rgb = vec![0u8; prep.geom.rgb_bytes_in_mcu_rows(row0, row1)];
    let mut ctx = GpuContext::new(platform, TransferMode::default());
    let res = ctx.decode_region(prep, coefbuf, row0, row1, wg_blocks, plan, &mut rgb)?;
    Ok((rgb, res))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetjpeg_jpeg::decoder::stages;
    use hetjpeg_jpeg::encoder::{encode_rgb, EncodeParams};

    fn jpeg_of(w: usize, h: usize, sub: Subsampling) -> Vec<u8> {
        let mut rgb = Vec::with_capacity(w * h * 3);
        for i in 0..w * h {
            rgb.extend_from_slice(&[
                ((i * 7) % 256) as u8,
                ((i * 13) % 256) as u8,
                ((i * 3) % 256) as u8,
            ]);
        }
        encode_rgb(
            &rgb,
            w as u32,
            h as u32,
            &EncodeParams {
                quality: 83,
                subsampling: sub,
                restart_interval: 0,
            },
        )
        .unwrap()
    }

    #[test]
    fn gpu_region_decode_matches_cpu_for_all_plans() {
        let platform = Platform::gtx560();
        for sub in [Subsampling::S444, Subsampling::S422, Subsampling::S420] {
            let jpeg = jpeg_of(48, 48, sub);
            let prep = Prepared::new(&jpeg).unwrap();
            let (coef, _) = prep.entropy_decode_all().unwrap();
            let mut want = vec![0u8; prep.geom.rgb_bytes_in_mcu_rows(0, prep.geom.mcus_y)];
            stages::decode_region_rgb(&prep, &coef, 0, prep.geom.mcus_y, &mut want).unwrap();

            let decode =
                |plan| decode_region_gpu(&prep, &coef, 0, prep.geom.mcus_y, &platform, 4, plan);
            let (rgb, res) = decode(KernelPlan::Merged).unwrap();
            assert_eq!(rgb, want, "merged {}", sub.notation());
            assert!(res.h2d_time > 0.0 && res.d2h_time > 0.0);
            assert!(res.kernels_total() > 0.0);

            if sub != Subsampling::S420 {
                let (rgb, _) = decode(KernelPlan::Unmerged).unwrap();
                assert_eq!(rgb, want, "unmerged {}", sub.notation());
            }
        }
    }

    /// The unmerged ablation plan has no 4:2:0 kernels: asking for it is an
    /// error the caller can handle, not a panic, and the context stays
    /// usable.
    #[test]
    fn unmerged_plan_on_420_is_unsupported_not_a_panic() {
        let platform = Platform::gtx560();
        let jpeg = jpeg_of(48, 48, Subsampling::S420);
        let prep = Prepared::new(&jpeg).unwrap();
        let (coef, _) = prep.entropy_decode_all().unwrap();
        let rows = prep.geom.mcus_y;
        let mut ctx = GpuContext::new(&platform, TransferMode::default());
        let mut rgb = vec![0u8; prep.geom.rgb_bytes_in_mcu_rows(0, rows)];
        let err = ctx
            .decode_region(&prep, &coef, 0, rows, 4, KernelPlan::Unmerged, &mut rgb)
            .unwrap_err();
        assert_eq!(
            err,
            Error::Unsupported("unmerged kernel plan is 4:4:4/4:2:2 only")
        );
        let mut want = vec![0u8; rgb.len()];
        stages::decode_region_rgb(&prep, &coef, 0, rows, &mut want).unwrap();
        ctx.decode_region(&prep, &coef, 0, rows, 4, KernelPlan::Merged, &mut rgb)
            .unwrap();
        assert_eq!(rgb, want);
    }

    /// Launch-level differential: one long-lived context per transfer
    /// layout, its workers and buffers reused over every subsampling ×
    /// work-group size × odd shape (big and small regions alternating, so
    /// each decode runs on what a different one left behind) at 1, 2 and 3
    /// host threads, must report exactly what a fresh single-threaded
    /// device reports per region — statistics, kernel times, byte counts
    /// and pixels. The largest shape's launches are wide enough to bring
    /// in helper workers.
    #[test]
    fn reused_parallel_device_matches_fresh_serial_device_across_matrix() {
        let platform = Platform::gtx680();
        let modes = [TransferMode::Dense, TransferMode::Compacted];
        let mut reused = modes.map(|mode| GpuContext::new(&platform, mode));
        for sub in [Subsampling::S444, Subsampling::S422, Subsampling::S420] {
            for (w, h) in [(131usize, 77usize), (35, 19), (61, 113), (199, 161)] {
                let jpeg = jpeg_of(w, h, sub);
                let prep = Prepared::new(&jpeg).unwrap();
                let (coef, _) = prep.entropy_decode_all().unwrap();
                let rows = prep.geom.mcus_y;
                // The whole image, then a band that ends inside it.
                for (r0, r1) in [(0, rows), (rows / 3, (rows / 3 + 2).min(rows))] {
                    let mut want_rgb = vec![0u8; prep.geom.rgb_bytes_in_mcu_rows(r0, r1)];
                    let mut got_rgb = want_rgb.clone();
                    for wg in [4usize, 8, 32] {
                        for ctx in &mut reused {
                            let label = format!(
                                "{sub:?} {w}x{h} rows {r0}..{r1} wg {wg} {:?}",
                                ctx.transfer_mode()
                            );
                            let mut fresh = GpuContext::new(&platform, ctx.transfer_mode());
                            fresh.set_host_threads(1);
                            let want = fresh
                                .decode_region(
                                    &prep,
                                    &coef,
                                    r0,
                                    r1,
                                    wg,
                                    KernelPlan::Merged,
                                    &mut want_rgb,
                                )
                                .unwrap();
                            for threads in 1..=3 {
                                ctx.set_host_threads(threads);
                                got_rgb.fill(0xA5);
                                let got = ctx
                                    .decode_region(
                                        &prep,
                                        &coef,
                                        r0,
                                        r1,
                                        wg,
                                        KernelPlan::Merged,
                                        &mut got_rgb,
                                    )
                                    .unwrap();
                                assert_eq!(got, want, "{label} at {threads} host threads");
                                assert_eq!(got_rgb, want_rgb, "{label} at {threads} host threads");
                            }
                        }
                    }
                }
            }
        }
    }

    /// Both transfer layouts must produce bit-identical RGB, with the
    /// compacted payload strictly smaller than the dense one on real
    /// (quantized) content.
    #[test]
    fn transfer_modes_agree_and_compacted_ships_less() {
        let platform = Platform::gtx560();
        // A smooth gradient quantizes to mostly DC-only / small-corner
        // blocks — the content class the compacted layout is built for
        // (the noisy `jpeg_of` pattern stays near-dense and would compact
        // by only a few percent).
        let smooth_jpeg = |w: usize, h: usize, sub: Subsampling| {
            let mut rgb = Vec::with_capacity(w * h * 3);
            for y in 0..h {
                for x in 0..w {
                    rgb.extend_from_slice(&[
                        (x / 2 + y / 3) as u8,
                        (128 + x / 4) as u8,
                        (64 + y / 2) as u8,
                    ]);
                }
            }
            encode_rgb(
                &rgb,
                w as u32,
                h as u32,
                &EncodeParams {
                    quality: 80,
                    subsampling: sub,
                    restart_interval: 0,
                },
            )
            .unwrap()
        };
        for sub in [Subsampling::S444, Subsampling::S422, Subsampling::S420] {
            let jpeg = smooth_jpeg(50, 39, sub);
            let prep = Prepared::new(&jpeg).unwrap();
            let (coef, _) = prep.entropy_decode_all().unwrap();
            let run = |mode: TransferMode| {
                let rows = prep.geom.mcus_y;
                let mut rgb = vec![0u8; prep.geom.rgb_bytes_in_mcu_rows(0, rows)];
                let res = GpuContext::new(&platform, mode)
                    .decode_region(&prep, &coef, 0, rows, 4, KernelPlan::Merged, &mut rgb)
                    .unwrap();
                (rgb, res)
            };
            let (dense_rgb, dense) = run(TransferMode::Dense);
            let (compacted_rgb, compacted) = run(TransferMode::Compacted);
            assert_eq!(dense_rgb, compacted_rgb, "{}", sub.notation());
            assert!(
                compacted.h2d_bytes < dense.h2d_bytes,
                "{}: compacted {} vs dense {}",
                sub.notation(),
                compacted.h2d_bytes,
                dense.h2d_bytes
            );
            assert!(compacted.h2d_time < dense.h2d_time);
        }
    }

    #[test]
    fn partial_region_decode_matches_cpu_band() {
        let platform = Platform::gtx680();
        let jpeg = jpeg_of(64, 64, Subsampling::S422);
        let prep = Prepared::new(&jpeg).unwrap();
        let (coef, _) = prep.entropy_decode_all().unwrap();
        for (a, b) in [(0usize, 2usize), (2, 5), (5, 8)] {
            let mut want = vec![0u8; prep.geom.rgb_bytes_in_mcu_rows(a, b)];
            stages::decode_region_rgb(&prep, &coef, a, b, &mut want).unwrap();
            let (rgb, _) =
                decode_region_gpu(&prep, &coef, a, b, &platform, 4, KernelPlan::Merged).unwrap();
            assert_eq!(rgb, want, "band {a}..{b}");
        }
    }

    #[test]
    fn merged_plan_moves_less_memory_than_unmerged() {
        // §4.4's entire point: merging avoids round-tripping intermediates
        // through global memory.
        let platform = Platform::gtx560();
        let jpeg = jpeg_of(128, 128, Subsampling::S444);
        let prep = Prepared::new(&jpeg).unwrap();
        let (coef, _) = prep.entropy_decode_all().unwrap();
        let decode = |plan| {
            decode_region_gpu(&prep, &coef, 0, prep.geom.mcus_y, &platform, 4, plan)
                .unwrap()
                .1
        };
        let merged = decode(KernelPlan::Merged);
        let unmerged = decode(KernelPlan::Unmerged);
        assert!(
            merged.stats.bus_bytes() < unmerged.stats.bus_bytes(),
            "merged {} vs unmerged {}",
            merged.stats.bus_bytes(),
            unmerged.stats.bus_bytes()
        );
        assert!(merged.kernels_total() < unmerged.kernels_total());
    }

    #[test]
    fn bigger_devices_are_faster_on_same_region() {
        let jpeg = jpeg_of(256, 256, Subsampling::S422);
        let prep = Prepared::new(&jpeg).unwrap();
        let (coef, _) = prep.entropy_decode_all().unwrap();
        let t = |p: &Platform| {
            decode_region_gpu(&prep, &coef, 0, prep.geom.mcus_y, p, 4, KernelPlan::Merged)
                .unwrap()
                .1
                .kernels_total()
        };
        let t430 = t(&Platform::gt430());
        let t560 = t(&Platform::gtx560());
        let t680 = t(&Platform::gtx680());
        assert!(t430 > t560, "GT430 {t430} vs GTX560 {t560}");
        assert!(t560 > t680, "GTX560 {t560} vs GTX680 {t680}");
    }
}
