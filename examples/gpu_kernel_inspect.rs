//! Inspect the simulated GPU's view of the §4 kernels: coalescing
//! efficiency, divergence, bank conflicts, roofline classification, and the
//! effect of the paper's optimizations (merging, vectorization,
//! parity-major ordering).
//!
//! ```sh
//! cargo run --release --example gpu_kernel_inspect
//! ```

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

fn main() {
    let spec = ImageSpec {
        width: 512,
        height: 512,
        pattern: Pattern::PhotoLike { detail: 0.6 },
        seed: 31,
    };
    let jpeg = generate_jpeg(&spec, 88, Subsampling::S422).expect("encode");
    let prep = Prepared::new(&jpeg).expect("parse");
    let (coefbuf, _) = prep.entropy_decode_all().expect("decode");
    let platform = Platform::gtx560();
    let layout = RegionLayout::new(&prep.geom, 0, prep.geom.mcus_y);

    println!(
        "== per-kernel statistics on {} (512x512 4:2:2) ==\n",
        platform.gpu.name
    );
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

    println!(
        "{:<22} {:>9} {:>11} {:>11} {:>8} {:>9} {:>9} {:>8}",
        "kernel", "groups", "read tx", "write tx", "coal%", "diverge", "lmem cfl", "bound"
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
        let s = sim.launch(&k, k.num_groups());
        println!(
            "{:<22} {:>9} {:>11} {:>11} {:>7.1}% {:>9} {:>9} {:>8}",
            format!("idct comp{comp}"),
            s.groups,
            s.gmem_read_transactions,
            s.gmem_write_transactions,
            100.0 * s.coalescing_efficiency(),
            s.divergent_branches,
            s.lmem_conflict_cycles,
            if TimingModel::is_memory_bound(&platform.gpu, &s, k.items_per_group()) {
                "memory"
            } else {
                "compute"
            }
        );
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
        let s = sim.launch(&k, k.num_groups());
        println!(
            "{:<22} {:>9} {:>11} {:>11} {:>7.1}% {:>9} {:>9} {:>8}",
            format!("ups+color pm={parity_major}"),
            s.groups,
            s.gmem_read_transactions,
            s.gmem_write_transactions,
            100.0 * s.coalescing_efficiency(),
            s.divergent_branches,
            s.lmem_conflict_cycles,
            if TimingModel::is_memory_bound(&platform.gpu, &s, k.items_per_group()) {
                "memory"
            } else {
                "compute"
            }
        );
    }

    println!("\n== merged vs unmerged plan (§4.4) ==\n");
    for (name, plan) in [
        ("merged", KernelPlan::Merged),
        ("unmerged", KernelPlan::Unmerged),
    ] {
        let (_, res) = decode_region_gpu(&prep, &coefbuf, 0, prep.geom.mcus_y, &platform, 8, plan)
            .expect("plan supports the image's subsampling");
        println!(
            "{name:<9}: kernels {:.3} ms, bus {:.2} MB, h2d {:.3} ms, d2h {:.3} ms",
            res.kernels_total() * 1e3,
            res.stats.bus_bytes() as f64 / 1e6,
            res.h2d_time * 1e3,
            res.d2h_time * 1e3,
        );
        for (kname, t) in &res.kernel_times {
            println!("           {kname:<22} {:.3} ms", t * 1e3);
        }
    }

    println!("\n== work-group size sweep (§5.1: 4 to 32 MCUs) ==\n");
    for wg in [4usize, 8, 16, 32] {
        let (_, res) = decode_region_gpu(
            &prep,
            &coefbuf,
            0,
            prep.geom.mcus_y,
            &platform,
            wg,
            KernelPlan::Merged,
        )
        .expect("merged plan");
        println!(
            "wg {wg:>2} blocks: kernels {:.3} ms",
            res.kernels_total() * 1e3
        );
    }
}
