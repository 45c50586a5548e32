//! Per-layer probes of the traced pass. Layer names are the crates and
//! modules: `jpeg.*`, `core.*`, `gpusim.*`, `serve.*`. Each probe times
//! calls through `surface.rs` as spans, takes counts at the same boundary
//! and writes named values; which end-to-end metric each should move, and
//! on which workload, is tabled in the README.

use crate::corpus::{self, Image};
use crate::measure::{median, percentile_of, Quantity};
use crate::metrics::{Values, MODE_TAGS, PAPER_TABLE2_GTX560, SIMD};
use crate::surface::{
    self, Framing, Mode, Pattern, PoolTotals, Prepared, Resource, SimdLevel, Subsampling,
};
use crate::trace::Tracer;
use crate::workload::{Caller, Kind, Rig, Service};
use std::time::Instant;

/// Ops a probe attempted and how many failed pixel verification, plus any
/// carried-forward gate that evaluated false.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub false_gates: Vec<&'static str>,
}

impl Tally {
    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn gate(&mut self, values: &mut Values, name: &'static str, holds: bool) {
        values.set(name, f64::from(u8::from(holds)));
        if !holds {
            self.false_gates.push(name);
        }
    }
}

/// Concrete modes in [`MODE_TAGS`] order.
const MODES: [Mode; 7] = [
    Mode::Sequential,
    Mode::Simd,
    Mode::Gpu,
    Mode::PipelinedGpu,
    Mode::Sps,
    Mode::Pps,
    Mode::ParallelEntropy,
];

fn mode_index(mode: Mode) -> usize {
    MODES
        .iter()
        .position(|&m| m == mode)
        .expect("a concrete mode")
}

/// Fastest wall seconds of `reps` runs of `f`, each recorded as a span:
/// the undisturbed time, as `measure::UNDISTURBED` reads it from few
/// samples (interference on this host only ever adds time).
fn timed_best<T>(
    tracer: &mut Tracer,
    op_id: u64,
    name: &'static str,
    parent: Option<usize>,
    reps: usize,
    mut f: impl FnMut() -> T,
) -> (T, f64, usize) {
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let id = tracer.begin(op_id, name, parent);
        let out = f();
        secs.push(tracer.end(id));
        last = Some((out, id));
    }
    let (out, id) = last.expect("at least one rep");
    (out, secs.into_iter().fold(f64::INFINITY, f64::min), id)
}

// ------------------------------------------------------------------ jpeg

/// Wall seconds of one pass of the corpus through each baseline stage.
#[derive(Default)]
pub struct StagePass {
    pub parse_s: f64,
    pub entropy_s: f64,
    pub idct_s: f64,
    pub upsample_s: f64,
    pub color_s: f64,
}

impl StagePass {
    pub fn sum(&self) -> f64 {
        self.parse_s + self.entropy_s + self.idct_s + self.upsample_s + self.color_s
    }
}

/// Full-image planes for the unfused stage replay of one image.
struct Replay {
    level: SimdLevel,
    /// Padded Y/Cb/Cr sample planes as the IDCT leaves them.
    planes: [Vec<u8>; 3],
    /// Full-resolution chroma, `luma plane width × height` each.
    up: [Vec<u8>; 2],
    vtmp: Vec<u8>,
    rgb: Vec<u8>,
}

impl Replay {
    fn new(prep: &Prepared<'_>) -> Replay {
        let g = &prep.geom;
        let plane =
            |c: usize| vec![0u8; g.comps[c].width_blocks * 8 * g.comps[c].height_blocks * 8];
        let lw = g.comps[0].width_blocks * 8;
        Replay {
            level: surface::host_level(),
            planes: [plane(0), plane(1), plane(2)],
            up: [vec![0; lw * g.height], vec![0; lw * g.height]],
            vtmp: vec![0; g.comps[1].width_blocks * 8],
            rgb: vec![0; g.width * g.height * 3],
        }
    }

    /// Dequantise + IDCT every block of the image at the host level.
    fn idct(&mut self, prep: &Prepared<'_>, coef: &surface::CoefBuffer) -> u64 {
        let mut blocks = 0u64;
        for (ci, comp) in prep.geom.comps.iter().enumerate() {
            let stride = comp.width_blocks * 8;
            let quant = &prep.quant[ci].values;
            for by in 0..comp.height_blocks {
                for bx in 0..comp.width_blocks {
                    let index = comp.plane_block_offset + by * comp.width_blocks + bx;
                    let base = by * 8 * stride + bx * 8;
                    surface::idct_block(
                        self.level,
                        coef,
                        index,
                        quant,
                        &mut self.planes[ci],
                        base,
                        stride,
                    );
                    blocks += 1;
                }
            }
        }
        blocks
    }

    /// Upsample both chroma planes to full resolution, row by row, with the
    /// decoder's own row kernels and its blockwise vertical neighbour rule.
    fn upsample(&mut self, prep: &Prepared<'_>) {
        let g = &prep.geom;
        let cw = g.comps[1].width_blocks * 8;
        let lw = g.comps[0].width_blocks * 8;
        for y in 0..g.height {
            for c in 0..2 {
                let plane = &self.planes[c + 1];
                let dst = &mut self.up[c][y * lw..(y + 1) * lw];
                match g.subsampling {
                    Subsampling::S444 => {}
                    Subsampling::S422 => {
                        surface::upsample_h2v1(self.level, &plane[y * cw..(y + 1) * cw], dst);
                    }
                    Subsampling::S420 => {
                        let (mcu_row, local) = (y / 16, y % 16);
                        let cy = local / 2;
                        let neighbour = if local % 2 == 0 {
                            cy.saturating_sub(1)
                        } else {
                            (cy + 1).min(7)
                        };
                        let row = |r: usize| &plane[(mcu_row * 8 + r) * cw..][..cw];
                        surface::blend_v2(self.level, row(cy), row(neighbour), &mut self.vtmp);
                        surface::upsample_h2v1(self.level, &self.vtmp, dst);
                    }
                }
            }
        }
    }

    /// Colour-convert every pixel row into interleaved RGB.
    fn color(&mut self, prep: &Prepared<'_>) {
        let g = &prep.geom;
        let lw = g.comps[0].width_blocks * 8;
        let full = g.subsampling == Subsampling::S444;
        for y in 0..g.height {
            let (cb, cr) = if full {
                (
                    &self.planes[1][y * lw..][..lw],
                    &self.planes[2][y * lw..][..lw],
                )
            } else {
                (&self.up[0][y * lw..][..lw], &self.up[1][y * lw..][..lw])
            };
            surface::convert_row(
                self.level,
                prep,
                &self.planes[0][y * lw..][..lw],
                cb,
                cr,
                &mut self.rgb[y * g.width * 3..(y + 1) * g.width * 3],
            );
        }
    }
}

/// Bytes the unfused stages read and write per pixel, *computed* from the
/// geometry (not measured): `(idct, upsample, colour)`.
fn computed_bytes_per_px(sub: Subsampling, blocks_per_px: f64) -> (f64, f64, f64) {
    // IDCT: 128 B of coefficients in, 64 B of samples out, per block.
    // Upsample, per chroma plane and output row of width w: 4:2:2 reads
    // w/2 and writes w; 4:2:0 blends two w/2 rows into one, then widens it.
    let upsample = match sub {
        Subsampling::S444 => 0.0,
        Subsampling::S422 => 3.0,
        Subsampling::S420 => 6.0,
    };
    (blocks_per_px * 192.0, upsample, 6.0)
}

/// Streaming copy bandwidth over a buffer of at least four LLCs.
fn memcpy_gb_s(tracer: &mut Tracer) -> f64 {
    let llc = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .ok()
        .and_then(|s| s.trim().trim_end_matches('K').parse::<usize>().ok())
        .map_or(32 << 20, |kib| kib << 10);
    let len = (4 * llc).clamp(64 << 20, 256 << 20);
    let src = vec![1u8; len];
    let mut dst = vec![0u8; len];
    let ((), secs, id) = timed_best(tracer, 0, "host.memcpy", None, 3, || {
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
    });
    tracer.count(id, "bytes", len as u64);
    len as f64 / 1e9 / secs
}

/// Parse, entropy-decode and replay the render stages of every image
/// (baseline framing; a progressive image's twin), and time a bare SIMD
/// session decode of the same bytes beside them.
pub fn jpeg_stages(
    rig: &Rig,
    seed: u64,
    tracer: &mut Tracer,
    values: &mut Values,
    tally: &mut Tally,
) -> StagePass {
    const REPS: usize = 5;
    let bare = surface::session(None, 2);
    let mut pass = StagePass::default();
    let (mut decode_s, mut px, mut blocks) = (0.0, 0.0, 0u64);
    let (mut bits, mut symbols) = (0u64, 0u64);
    let mut classes = [0u64; 4];
    let (mut b_idct, mut b_up, mut b_color) = (0.0, 0.0, 0.0);
    for (i, img) in rig.corpus.iter().enumerate() {
        let op = i as u64;
        let bytes = img.baseline();
        let root = tracer.begin(op, "jpeg.stages", None);
        let (prep, parse_s, _) = timed_best(tracer, op, "jpeg.parse", Some(root), REPS, || {
            surface::parse(bytes).expect("corpus image parses")
        });
        let ((coef, total), entropy_s, id) =
            timed_best(tracer, op, "jpeg.entropy", Some(root), REPS, || {
                surface::entropy_decode(&prep).expect("corpus image entropy-decodes")
            });
        tracer.count(id, "bits", total.bits);
        tracer.count(id, "symbols", total.symbols);
        let mut replay = Replay::new(&prep);
        let (n, idct_s, id) = timed_best(tracer, op, "jpeg.idct", Some(root), REPS, || {
            replay.idct(&prep, &coef)
        });
        tracer.count(id, "blocks", n);
        let ((), upsample_s, _) = timed_best(tracer, op, "jpeg.upsample", Some(root), REPS, || {
            replay.upsample(&prep)
        });
        let ((), color_s, _) = timed_best(tracer, op, "jpeg.color", Some(root), REPS, || {
            replay.color(&prep)
        });
        // The replay is only a fair account of the stages if it renders
        // the reference pixels.
        tally.check(replay.rgb == img.rgb);
        let (out, d_s, _) = timed_best(tracer, op, "core.decode", Some(root), REPS, || {
            surface::decode(&bare, bytes, Mode::Simd)
        });
        tally.check(out.is_ok_and(|o| o.image.data == img.rgb));
        tracer.end(root);

        let image_px = (img.width * img.height) as f64;
        let (bi, bu, bc) = computed_bytes_per_px(prep.geom.subsampling, n as f64 / image_px);
        b_idct += bi * image_px;
        b_up += bu * image_px;
        b_color += bc * image_px;
        pass.parse_s += parse_s;
        pass.entropy_s += entropy_s;
        pass.idct_s += idct_s;
        pass.upsample_s += upsample_s;
        pass.color_s += color_s;
        decode_s += d_s;
        px += image_px;
        blocks += n;
        bits += total.bits;
        symbols += total.symbols;
        for (a, b) in classes.iter_mut().zip(total.eob_classes) {
            *a += b;
        }
    }
    let ns_px = |s: f64| s * 1e9 / px;
    values.set(
        "jpeg.parse.us_per_image",
        pass.parse_s * 1e6 / rig.corpus.len() as f64,
    );
    values.set("jpeg.entropy.ns_per_px", ns_px(pass.entropy_s));
    values.set("jpeg.entropy.bits_per_px", bits as f64 / px);
    values.set("jpeg.entropy.symbols_per_px", symbols as f64 / px);
    values.set("jpeg.idct.ns_per_px", ns_px(pass.idct_s));
    values.set("jpeg.idct.ns_per_block", pass.idct_s * 1e9 / blocks as f64);
    let coded: u64 = classes.iter().sum();
    for (name, n) in ["dc_only", "2x2", "4x4", "dense"].iter().zip(classes) {
        values.set(&format!("jpeg.idct.share_{name}"), n as f64 / coded as f64);
    }
    values.set("jpeg.upsample.ns_per_px", ns_px(pass.upsample_s));
    values.set("jpeg.color.ns_per_px", ns_px(pass.color_s));
    let render_s = decode_s - pass.parse_s - pass.entropy_s;
    values.set("jpeg.render.ns_per_px", ns_px(render_s));
    values.set(
        "jpeg.render.fusion_residual_ns_per_px",
        ns_px(render_s - pass.idct_s - pass.upsample_s - pass.color_s),
    );
    let copy = memcpy_gb_s(tracer);
    values.set("host.memcpy_gb_s", copy);
    // A copy moves two bytes (one in, one out) per byte copied.
    let share = |bytes: f64, secs: f64| {
        if secs > 0.0 {
            bytes / 1e9 / secs / (2.0 * copy)
        } else {
            0.0
        }
    };
    values.set("jpeg.idct.bw_share", share(b_idct, pass.idct_s));
    values.set("jpeg.upsample.bw_share", share(b_up, pass.upsample_s));
    values.set("jpeg.color.bw_share", share(b_color, pass.color_s));

    // What a session call costs before any pixel work: a 16×16 image.
    let tiny = corpus::probe_image(seed, 1, 16, 16, Pattern::Gradient, 85, Subsampling::S444);
    let pool = surface::stats(&bare).pool;
    values.set(
        "core.session.allocs_per_image",
        (pool.coef_allocs + pool.scratch_allocs) as f64 / (rig.corpus.len() * REPS) as f64,
    );
    let fixed: Vec<f64> = (0..200)
        .map(|_| {
            let (out, id) = tracer.time(0, "core.session.fixed", None, || {
                surface::decode(&bare, &tiny, Mode::Simd)
            });
            assert!(out.is_ok(), "16x16 probe decode");
            tracer.spans[id].seconds()
        })
        .collect();
    values.set("core.session.fixed_us", median(&fixed) * 1e6);
    pass
}

// ----------------------------------------------------------- progressive

/// DC-prefix against full-script decodes on `lib_progressive`.
pub fn progressive(rig: &Rig, tracer: &mut Tracer, values: &mut Values, tally: &mut Tally) {
    const REPS: usize = 3;
    let prefix_dec = surface::session(None, 2);
    let full_dec = surface::session(None, 2);
    let (mut prefix, mut full) = (Vec::new(), Vec::new());
    let (mut prefix_virt, mut full_virt, mut px) = (0.0, 0.0, 0.0);
    for (i, img) in rig.corpus.iter().enumerate() {
        let op = i as u64;
        let (p, p_s, _) = timed_best(tracer, op, "core.progressive.prefix1", None, REPS, || {
            surface::decode_prefix(&prefix_dec, &img.jpeg, Mode::Simd, 1).expect("prefix decode")
        });
        let (f, f_s, _) = timed_best(tracer, op, "core.progressive.full", None, REPS, || {
            surface::decode(&full_dec, &img.jpeg, Mode::Simd).expect("full decode")
        });
        tally.check(f.image.data == img.rgb && p.truncated && p.image.data != img.rgb);
        prefix.push(p_s);
        full.push(f_s);
        prefix_virt += p.times.total;
        full_virt += f.times.total;
        px += (img.width * img.height) as f64;
    }
    let decodes = (rig.corpus.len() * REPS) as f64;
    let scans = surface::stats(&full_dec).progressive.scans_decoded as f64 / decodes;
    values.set("jpeg.progressive.scans_per_image", scans);
    values.set("core.progressive.prefix1_ms_p50", median(&prefix) * 1e3);
    values.set("core.progressive.full_ms_p50", median(&full) * 1e3);
    let extra_s: f64 = full.iter().zip(&prefix).map(|(f, p)| f - p).sum();
    values.set(
        "jpeg.progressive.ns_per_px_per_scan",
        extra_s * 1e9 / px / (scans - 1.0).max(1.0),
    );
    // PR 7's gate, on the virtual clock so it repeats exactly.
    tally.gate(
        values,
        "gate.progressive_dc_prefix_cheaper_than_full",
        prefix_virt < full_virt,
    );
}

// ---------------------------------------------------------------- hetero

/// The all-modes sweep and everything the paper's tables are made of.
/// Returns the wall seconds one pass spends in `predict`.
pub fn hetero(
    rig: &Rig,
    seed: u64,
    tracer: &mut Tracer,
    values: &mut Values,
    tally: &mut Tally,
) -> f64 {
    let model = rig.model.as_ref();
    let corpus = &rig.corpus;
    let n = corpus.len();
    let mpx: f64 = corpus.iter().map(Image::mpx).sum();
    let px = mpx * 1e6;
    values.set("core.train.s", rig.train_s);

    // Predictions and the Auto pass, on a session whose decision cache
    // starts empty.
    let auto_dec = surface::session(model, 2);
    let mut predicted = vec![[0.0f64; 7]; n];
    let mut predict_s = Vec::with_capacity(n);
    for (i, img) in corpus.iter().enumerate() {
        let (decision, id) = tracer.time(i as u64, "core.auto.predict", None, || {
            surface::predict(&auto_dec, &img.jpeg).expect("predict")
        });
        predict_s.push(tracer.spans[id].seconds());
        for p in &decision.predictions {
            predicted[i][mode_index(p.mode)] = p.seconds;
        }
    }
    values.set("core.auto.predict_us_p50", median(&predict_s) * 1e6);
    let mut picked = vec![0usize; n];
    for (i, img) in corpus.iter().enumerate() {
        let (out, _) = tracer.time(i as u64, "core.decode.auto", None, || {
            surface::decode(&auto_dec, &img.jpeg, Mode::Auto)
        });
        let out = out.expect("auto decode");
        tally.check(out.image.data == img.rgb);
        picked[i] = mode_index(out.mode);
    }
    let pool = surface::stats(&auto_dec).pool;
    values.set(
        "core.auto.cache_hit_share",
        pool.auto_cache_hits as f64 / (pool.auto_cache_hits + pool.auto_evals).max(1) as f64,
    );
    for (m, tag) in MODE_TAGS.iter().enumerate() {
        let share = picked.iter().filter(|&&p| p == m).count() as f64 / n as f64;
        values.set(&format!("core.auto.pick_share.{tag}"), share);
    }

    // The sweep: every image under every concrete mode.
    let sweep_dec = surface::session(model, 2);
    let mut virt = vec![[0.0f64; 7]; n];
    let mut wall = [0.0f64; 7];
    let mut stage = [0.0f64; 6];
    let (mut serial, mut overlapped) = (0.0, 0.0);
    let (mut gpu_rows, mut all_rows) = (0usize, 0usize);
    let (mut imbalance, mut busier) = (0.0, 0.0);
    for (m, &mode) in MODES.iter().enumerate() {
        let before = surface::stats(&sweep_dec);
        for (i, img) in corpus.iter().enumerate() {
            let (out, id) = tracer.time(i as u64, "core.decode.sweep", None, || {
                surface::decode(&sweep_dec, &img.jpeg, mode)
            });
            tracer.count(id, "mode", m as u64);
            wall[m] += tracer.spans[id].seconds();
            let out = out.expect("sweep decode");
            tally.check(out.image.data == img.rgb);
            virt[i][m] = out.times.total;
            if mode == Mode::Pps {
                let t = &out.times;
                for (acc, v) in stage.iter_mut().zip([
                    t.huffman,
                    t.h2d,
                    t.kernels,
                    t.d2h,
                    t.cpu_parallel,
                    t.dispatch,
                ]) {
                    *acc += v;
                    serial += v;
                }
                overlapped += t.total;
                if let Some(p) = &out.partition {
                    gpu_rows += p.gpu_mcu_rows;
                    all_rows += p.gpu_mcu_rows + p.cpu_mcu_rows;
                }
                // Fig. 12: device busy time against the CPU work that runs
                // from the first GPU command on.
                let gpu_spans = || {
                    out.trace
                        .spans
                        .iter()
                        .filter(|s| s.resource == Resource::Gpu)
                };
                let first_gpu = gpu_spans().map(|s| s.start).fold(f64::INFINITY, f64::min);
                let gpu: f64 = gpu_spans().map(|s| s.end - s.start).sum();
                let cpu: f64 = out
                    .trace
                    .spans
                    .iter()
                    .filter(|s| s.resource == Resource::Cpu)
                    .map(|s| (s.end - s.start.max(first_gpu)).max(0.0))
                    .sum();
                imbalance += (cpu - gpu).abs();
                busier += cpu.max(gpu);
            }
        }
        let after = surface::stats(&sweep_dec);
        if mode == Mode::Gpu {
            let bytes = after.pool.h2d_bytes - before.pool.h2d_bytes;
            let transfers = after.pool.h2d_transfers - before.pool.h2d_transfers;
            values.set("core.gpu.h2d_bytes_per_px", bytes as f64 / px);
            values.set(
                "core.gpu.h2d_transfers_per_image",
                transfers as f64 / n as f64,
            );
        }
        if mode == Mode::ParallelEntropy {
            let s = after.spec;
            values.set("jpeg.speculate.chunks", s.chunks as f64);
            values.set(
                "jpeg.speculate.wasted_mcu_share",
                s.wasted_mcus as f64 / (s.adopted_mcus + s.wasted_mcus).max(1) as f64,
            );
            values.set(
                "jpeg.speculate.stitch_redecoded_mcus",
                s.redecoded_mcus as f64,
            );
        }
    }
    let total = |m: usize| Quantity::virt(virt.iter().map(|v| v[m]).sum());
    let speedup = |m: usize| total(SIMD).ratio(total(m)).expect("both virtual");
    for (m, tag) in MODE_TAGS.iter().enumerate() {
        let err: f64 = (0..n)
            .map(|i| (predicted[i][m] - virt[i][m]).abs() / virt[i][m])
            .sum();
        values.set(&format!("core.model.err_pct.{tag}"), 100.0 * err / n as f64);
        if m != SIMD {
            values.set(&format!("core.virt.speedup_vs_simd.{tag}"), speedup(m));
        }
    }
    for (m, paper) in PAPER_TABLE2_GTX560 {
        let tag = MODE_TAGS[m];
        values.set(&format!("core.virt.paper_ratio.{tag}"), speedup(m) / paper);
        values.set(
            &format!("gpusim.host_ms_per_mpx.{tag}"),
            wall[m] * 1e3 / mpx,
        );
    }
    let best: f64 = virt
        .iter()
        .map(|v| v.iter().copied().fold(f64::INFINITY, f64::min))
        .sum();
    let chosen: f64 = virt.iter().zip(&picked).map(|(v, &p)| v[p]).sum();
    values.set("core.auto.regret_pct", 100.0 * (chosen - best) / best);
    for (name, v) in [
        "huffman",
        "h2d",
        "kernels",
        "d2h",
        "cpu_parallel",
        "dispatch",
    ]
    .iter()
    .zip(stage)
    {
        values.set(&format!("core.virt.share.{name}"), v / serial);
    }
    values.set("core.virt.overlap_gain", serial / overlapped);
    values.set(
        "core.pps.gpu_row_share",
        gpu_rows as f64 / all_rows.max(1) as f64,
    );
    values.set("core.pps.balance_pct", 100.0 * imbalance / busier);

    carried_gates(seed, values, tally);
    predict_s.iter().sum()
}

/// The PR 6 and PR 9 gating assertions, on their own small seeded inputs
/// (the corpora the old bins used: photo-like q80 4:2:0).
fn carried_gates(seed: u64, values: &mut Values, tally: &mut Tally) {
    let photo = |salt: u64, w: usize, h: usize, detail: f64| {
        let pattern = Pattern::PhotoLike { detail };
        corpus::probe_image(seed, salt, w, h, pattern, 80, Subsampling::S420)
    };
    let trio = |salt: u64, detail: f64| -> Vec<Vec<u8>> {
        [(512, 512), (768, 512), (512, 768)]
            .iter()
            .enumerate()
            .map(|(i, &(w, h))| photo(salt + i as u64, w, h, detail))
            .collect()
    };

    // PR 9: compacted H2D ships >= 3x fewer bytes than the dense layout.
    let gpu = surface::session(None, 2);
    let mut dense = 0u64;
    for jpeg in trio(10, 0.5) {
        dense += surface::parse(&jpeg)
            .expect("gate image parses")
            .geom
            .total_blocks as u64
            * 128;
        tally.check(surface::decode(&gpu, &jpeg, Mode::Gpu).is_ok());
    }
    let shipped = surface::stats(&gpu).pool.h2d_bytes;
    tally.gate(
        values,
        "gate.compaction_q80_420_ge_3x",
        dense >= 3 * shipped,
    );

    // PR 9: one coalesced transfer for eight images beats eight transfers.
    let eight: Vec<Vec<u8>> = (0..8).map(|i| photo(20 + i, 384, 256, 0.5)).collect();
    let singles: f64 = eight
        .iter()
        .map(|j| {
            surface::decode(&gpu, j, Mode::Gpu)
                .expect("single GPU decode")
                .times
                .h2d
        })
        .sum();
    let batched: f64 = surface::decode_batch(&surface::session(None, 2), &eight, Mode::Gpu)
        .into_iter()
        .map(|o| o.expect("batched GPU decode").times.h2d)
        .sum();
    let amortisation = Quantity::virt(singles)
        .ratio(Quantity::virt(batched))
        .expect("both virtual");
    values.set("core.batch.h2d_amortisation", amortisation);
    tally.gate(values, "gate.batch8_beats_batch1", amortisation > 1.0);

    // PR 6: speculative entropy phase >= 1.8x at 4 threads, virtual time.
    let four = surface::session(None, 4);
    let (mut seq, mut par) = (0.0, 0.0);
    for jpeg in trio(30, 0.6) {
        seq += surface::decode(&four, &jpeg, Mode::Sequential)
            .expect("sequential")
            .times
            .huffman;
        par += surface::decode(&four, &jpeg, Mode::ParallelEntropy)
            .expect("par-entropy")
            .times
            .huffman;
    }
    tally.gate(
        values,
        "gate.spec_entropy_virtual_ge_1_8x_at_4_threads",
        seq >= 1.8 * par,
    );
}

// ----------------------------------------------------------------- serve

/// Seconds of one pass the serving layers add on top of the bare decode:
/// the pool (in-process round trip − bare session) and the wire (TCP −
/// in-process), at their medians.
#[derive(Default)]
pub struct ServeOverheads {
    pub pool_s: f64,
    pub wire_s: f64,
}

/// Protocol functions over in-memory buffers, in-process and TCP round
/// trips against the bare session, and (on `serve_stream`) tile timing —
/// all against a service of the probe's own, so its counters are exact.
pub fn serve(
    rig: &Rig,
    tracer: &mut Tracer,
    values: &mut Values,
    tally: &mut Tally,
) -> (ServeOverheads, PoolTotals) {
    let streaming = rig.kind == Kind::ServeStream;
    let reps = if streaming { 5 } else { 25 };
    let svc = Service::start(Mode::Simd);
    let handle = svc.server.handle();
    let bare = surface::session(None, 2);
    let mut conn = Caller::connect(svc.addr);

    let (mut v1_s, mut v2_s, mut kb) = (0.0, 0.0, 0.0);
    let (mut write_s, mut read_s, mut mb) = (0.0, 0.0, 0.0);
    // Per-image medians, summed over the corpus: one pass's worth each.
    let (mut in_process_s, mut direct_s, mut tcp_s, mut streamed_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut first_tile, mut gaps, mut rows_first) = (vec![], vec![], vec![]);
    let mut tiles = 0usize;
    for (i, img) in rig.corpus.iter().enumerate() {
        let op = i as u64;
        for (framing, acc) in [(Framing::V1, &mut v1_s), (Framing::V2, &mut v2_s)] {
            let mut frame = Vec::with_capacity(img.jpeg.len() + 32);
            surface::write_request(&mut frame, &img.jpeg, framing).expect("frame a request");
            let (used, s, _) = timed_best(
                tracer,
                op,
                "serve.protocol.parse_request",
                None,
                reps,
                || surface::parse_request(&frame).expect("request parses"),
            );
            assert_eq!(used, Some(frame.len()), "one whole frame");
            *acc += s;
        }
        kb += img.jpeg.len() as f64 / 1024.0;

        let served = surface::decode_in_process(&handle, &img.jpeg);
        let mut wire = Vec::with_capacity(img.rgb.len() + 16);
        let (_, w_s, _) = timed_best(
            tracer,
            op,
            "serve.protocol.write_response",
            None,
            reps,
            || {
                wire.clear();
                surface::write_response(&mut wire, &served).expect("write a response");
            },
        );
        let (reply, r_s, _) = timed_best(
            tracer,
            op,
            "serve.protocol.read_response",
            None,
            reps,
            || surface::read_response(&mut &wire[..], &mut |_| {}).expect("read a response"),
        );
        tally.check(matches!(reply, surface::ServerReply::Ok(f) if f.rgb == img.rgb));
        write_s += w_s;
        read_s += r_s;
        mb += img.rgb.len() as f64 / 1e6;

        let (mut in_process, mut direct, mut tcp, mut streamed) = (vec![], vec![], vec![], vec![]);
        for _ in 0..reps {
            let (out, id) = tracer.time(op, "serve.pool.roundtrip", None, || {
                surface::decode_in_process(&handle, &img.jpeg)
            });
            tally.check(out.is_ok_and(|s| s.outcome.image.data == img.rgb));
            in_process.push(tracer.spans[id].seconds());
            let (out, id) = tracer.time(op, "core.decode", None, || {
                surface::decode(&bare, &img.jpeg, Mode::Simd)
            });
            tally.check(out.is_ok_and(|o| o.image.data == img.rgb));
            direct.push(tracer.spans[id].seconds());
            let r = conn.op(img, Some(Framing::V2), Some((&mut *tracer, op)));
            tally.check(r.ok);
            tcp.push(r.latency_s);
            if streaming {
                let r = conn.op(img, Some(Framing::V2Streaming), Some((&mut *tracer, op)));
                tally.check(r.ok);
                streamed.push(r.latency_s);
                if let Caller::Tcp { tile_at_s, .. } = &conn {
                    first_tile.push(tile_at_s[0]);
                    gaps.extend(tile_at_s.windows(2).map(|w| w[1] - w[0]));
                    tiles += tile_at_s.len();
                }
                let t0 = Instant::now();
                let mut first = None;
                let (res, _) = tracer.time(op, "core.decode_rows", None, || {
                    surface::decode_rows(&bare, &img.jpeg, Mode::Simd, &mut |_| {
                        first.get_or_insert_with(|| t0.elapsed().as_secs_f64());
                        true
                    })
                });
                res.expect("row-streamed decode");
                rows_first.push(first.expect("at least one tile"));
            }
        }
        in_process_s += median(&in_process);
        direct_s += median(&direct);
        tcp_s += median(&tcp);
        streamed_s += median(&streamed);
    }
    conn.close();
    // Let the loop see the goodbye before it is stopped.
    std::thread::sleep(std::time::Duration::from_millis(20));
    let (stats, fe) = svc.stop();

    values.set("serve.protocol.parse_request_ns_per_kb.v1", v1_s * 1e9 / kb);
    values.set("serve.protocol.parse_request_ns_per_kb.v2", v2_s * 1e9 / kb);
    values.set(
        "serve.protocol.write_response_ns_per_mb",
        write_s * 1e9 / mb,
    );
    values.set("serve.protocol.read_response_ns_per_mb", read_s * 1e9 / mb);
    let p50 = |v: &[f64]| percentile_of(v, 0.5);
    // Per request: the mean over images of each image's median.
    let images = rig.corpus.len() as f64;
    let overheads = ServeOverheads {
        pool_s: (in_process_s - direct_s) / images,
        wire_s: (tcp_s - in_process_s) / images,
    };
    values.set("serve.pool.roundtrip_us_p50", in_process_s * 1e6 / images);
    values.set("serve.pool.overhead_us_p50", overheads.pool_s * 1e6);
    values.set("serve.wire.overhead_us_p50", overheads.wire_s * 1e6);
    values.set("serve.frontend.accepted", fe.accepted as f64);
    values.set("serve.frontend.rejected", fe.rejected as f64);
    values.set("serve.frontend.requests", fe.requests as f64);
    tally.gate(values, "gate.frontend_rejected_zero", fe.rejected == 0);
    if streaming {
        values.set("serve.stream.first_tile_ms_p50", p50(&first_tile) * 1e3);
        values.set("serve.stream.tile_gap_us_p50", p50(&gaps) * 1e6);
        values.set(
            "serve.stream.tiles_per_image",
            tiles as f64 / (rig.corpus.len() * reps) as f64,
        );
        let ratio = Quantity::wall(streamed_s)
            .ratio(Quantity::wall(tcp_s))
            .expect("both wall");
        values.set("serve.stream.vs_whole_ratio", ratio);
        values.set("serve.rows.first_tile_ms_p50", p50(&rows_first) * 1e3);
    }
    (overheads, surface::pool_totals(&stats))
}
