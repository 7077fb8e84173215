//! E4 — §III-C ablation: the GPU DataWarehouse level database.
//!
//! Runs the real GPU pipeline (simulated device) on a 2-level benchmark
//! with the level DB enabled vs disabled, sweeping patches per GPU, and
//! reports PCIe traffic and peak device memory. With the level DB each
//! coarse replica crosses PCIe once and is shared; without it, every
//! resident patch task carries its own copy — the behaviour that blew the
//! K20X's 6 GB at scale.
//!
//! ```text
//! cargo run -p rmcrt-bench --release --bin leveldb_ablation
//! ```

use std::sync::Arc;
use uintah::prelude::*;

fn main() {
    println!("Level-database ablation — 2-level grid (RR 2 so the coarse replica is large),");
    println!("GPU pipeline on the simulated device, 4 concurrent worker threads\n");
    println!(
        "{:>11} | {:>14} {:>14} {:>8} | {:>14} {:>14}",
        "patch size", "H2D w/ LDB", "H2D w/o LDB", "ratio", "peak w/ LDB", "peak w/o LDB"
    );

    for patch in [4i32, 8, 16] {
        let grid = Arc::new(
            Grid::builder()
                .fine_cells(IntVector::splat(32))
                .num_levels(2)
                .refinement_ratio(2)
                .fine_patch_size(IntVector::splat(patch))
                .build(),
        );
        let pipeline = RmcrtPipeline {
            params: RmcrtParams {
                nrays: 2,
                threshold: 1e-3,
                ..Default::default()
            },
            halo: 1,
            problem: BurnsChriston::default(),
        };
        let run = |level_db: bool| {
            let result = run_world(
                Arc::clone(&grid),
                Arc::new(multilevel_decls(&grid, pipeline, true)),
                WorldConfig {
                    nranks: 1,
                    nthreads: 4,
                    gpu_capacity: Some(4 << 30),
                    gpu_level_db: level_db,
                    // Synchronous drains: async D2H releases device memory
                    // when the engine thread finishes, so the peak column
                    // would vary run to run. The ablation isolates the
                    // level DB; the drain policy is covered by
                    // tests/multi_timestep.rs::async_d2h_divq_bit_identical_to_sync_across_thread_counts
                    // and the benchmark's `gpu.d2h_*` metrics.
                    gpu_async_d2h: false,
                    ..Default::default()
                },
            );
            // One coherent counter snapshot (kernels, PCIe traffic, peak).
            result.ranks[0].gpu.as_ref().unwrap().device().counters()
        };
        let with_ldb = run(true);
        let without = run(false);
        println!(
            "{:>9}³ | {:>12} B {:>12} B {:>7.2}x | {:>12} B {:>12} B",
            patch,
            with_ldb.h2d_bytes,
            without.h2d_bytes,
            without.h2d_bytes as f64 / with_ldb.h2d_bytes as f64,
            with_ldb.peak,
            without.peak
        );
        assert_eq!(
            with_ldb.kernels, without.kernels,
            "the ablation changes staging, never the kernel count"
        );
    }
    println!("\nSmaller patches mean more patch tasks sharing the same coarse replicas, so");
    println!("the level database's savings grow exactly where over-decomposition lives.");

    // ---- persistence across timesteps -------------------------------------
    // With the persistent executor the level replicas also survive *time*:
    // step 1 pays the full cold upload, steps 2+ revalidate the resident
    // copies (diff against host bytes, re-upload only changes — zero for
    // the static Burns & Christon properties) and pay only the transient
    // per-patch staging.
    println!("\n[per-timestep H2D, persistent executor, 8^3 patches, 4 timesteps]");
    let grid = Arc::new(
        Grid::builder()
            .fine_cells(IntVector::splat(32))
            .num_levels(2)
            .refinement_ratio(2)
            .fine_patch_size(IntVector::splat(8))
            .build(),
    );
    let pipeline = RmcrtPipeline {
        params: RmcrtParams {
            nrays: 2,
            threshold: 1e-3,
            ..Default::default()
        },
        halo: 1,
        problem: BurnsChriston::default(),
    };
    let result = run_world(
        Arc::clone(&grid),
        Arc::new(multilevel_decls(&grid, pipeline, true)),
        WorldConfig {
            nranks: 1,
            nthreads: 4,
            timesteps: 4,
            gpu_capacity: Some(4 << 30),
            gpu_async_d2h: false,
            ..Default::default()
        },
    );
    println!("{:>9} | {:>14} | {:>8} | {:>12}", "timestep", "H2D bytes", "kernels", "kernel ms");
    for (ts, s) in result.ranks[0].stats.iter().enumerate() {
        println!(
            "{:>9} | {:>12} B | {:>8} | {:>12.3}",
            ts,
            s.gpu_h2d_bytes,
            s.kernel_stats.launches,
            s.kernel_stats.wall().as_secs_f64() * 1e3
        );
    }
    let totals = result.ranks[0].gpu.as_ref().unwrap().device().counters();
    println!(
        "\ndevice totals: {} kernels | H2D {} B / {} transfers | D2H {} B / {} transfers | peak {} B",
        totals.kernels,
        totals.h2d_bytes,
        totals.h2d_transfers,
        totals.d2h_bytes,
        totals.d2h_transfers,
        totals.peak
    );
    println!("\nSteps 2+ must move strictly fewer bytes than the cold step: the coarse");
    println!("replicas crossed PCIe once and stayed resident.");

    // ---- fleet sweep -------------------------------------------------------
    // §V at fleet scale: with N devices per rank the level DB keeps one
    // replica per level per *device* (N uploads total), while without it
    // every patch task still stages a private copy — the saving per GPU is
    // unchanged, and the per-device peak shrinks as patches spread.
    println!("\n[device-count sweep, 8^3 patches: per-GPU level-DB saving per fleet size]");
    println!(
        "{:>8} | {:>14} {:>14} {:>8} | {:>14} {:>14}",
        "devices", "H2D w/ LDB", "H2D w/o LDB", "ratio", "max peak w/", "max peak w/o"
    );
    for devices in [1usize, 2, 4, 6] {
        let run = |level_db: bool| {
            let result = run_world(
                Arc::clone(&grid),
                Arc::new(multilevel_decls(&grid, pipeline, true)),
                WorldConfig {
                    nranks: 1,
                    nthreads: 4,
                    gpu_capacity: Some(4 << 30),
                    gpus_per_rank: devices,
                    gpu_level_db: level_db,
                    gpu_async_d2h: false,
                    ..Default::default()
                },
            );
            result.ranks[0].gpu.as_ref().unwrap().counters_per_device()
        };
        let with_ldb = run(true);
        let without = run(false);
        let h2d = |cs: &[DeviceCounters]| cs.iter().map(|c| c.h2d_bytes).sum::<u64>();
        let peak = |cs: &[DeviceCounters]| cs.iter().map(|c| c.peak).max().unwrap_or(0);
        println!(
            "{:>8} | {:>12} B {:>12} B {:>7.2}x | {:>12} B {:>12} B",
            devices,
            h2d(&with_ldb),
            h2d(&without),
            h2d(&without) as f64 / h2d(&with_ldb) as f64,
            peak(&with_ldb),
            peak(&without)
        );
    }
    println!("\nWith-LDB H2D grows only by one replica set per extra device; without the");
    println!("DB it stays per-patch — the per-GPU saving survives any fleet size.");
}
