//! Criterion benchmark for the asynchronous D2H pipeline.
//!
//! The measured quantity is the **D2H wall time left on the critical
//! path** — how long consumers actually stall waiting for device→host
//! drains. The synchronous baseline pays every drain inline (stall ==
//! full drain time); the async pipeline posts drains to the copy engine
//! and the scheduler keeps executing, so by the time the first consumer
//! materializes the data the drain has already happened and the stall
//! collapses toward zero. That stall reduction is the overlap win, and it
//! is host-topology independent: on a multi-GPU node it converts directly
//! into wall-clock reduction, while even on a single-core host (where
//! total wall time cannot shrink — every byte is still moved by the same
//! CPU) the drains migrate off the critical path into windows where the
//! workers were blocked anyway.
//!
//! Two views of the same question:
//!
//! * `micro/*`: one patch-sized drain plus a stand-in kernel several
//!   times its cost; measures the `blocked` component of
//!   [`PendingD2H::wait_timed`] directly.
//! * `pipeline/*`: the full multi-rank RMCRT timestep loop with
//!   `gpu_async_d2h` on vs off; measures the summed `gpu_d2h_wait` of
//!   every rank's [`ExecStats`]. Overlapped D2H wall time must come out
//!   at or below the synchronous baseline (the PR's acceptance
//!   criterion).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use std::time::Duration;
use uintah::prelude::*;
use uintah_gpu::GpuDataWarehouse;
use uintah_grid::{CcVariable, PatchId, Region};

const BENCH_DIVQ: VarLabel = VarLabel::new("bench_divq", 99);
const TIMESTEPS: usize = 4;
/// Stand-in kernel cost as a multiple of the drain memcpy — enough work
/// that the engine thread's drain completes before first use.
const KERNEL_REPS: usize = 16;

/// One drain + one stand-in kernel, async or inline; returns how long the
/// consumer stalled on the drain. The field clone into the patch DB is
/// paid identically by both variants; only the placement of the drain
/// differs.
fn drain_stall(field: &CcVariable<f64>, async_d2h: bool) -> Duration {
    let dw = GpuDataWarehouse::with_fleet_full(DeviceFleet::k20x(1), true, async_d2h, true, true);
    let p = PatchId(0);
    dw.put_patch(BENCH_DIVQ, p, FieldData::F64(field.clone()))
        .expect("6 GB device fits one patch");
    let pending = dw
        .take_patch_to_host_async(BENCH_DIVQ, p)
        .expect("staged above");
    // Stand-in kernel: host work well above the drain memcpy cost,
    // running while (async) or after (sync) the engine moves the bytes.
    let mut acc = 0.0f64;
    for _ in 0..KERNEL_REPS {
        for &v in field.as_slice() {
            acc += v * 1.000_000_1;
        }
    }
    std::hint::black_box(acc);
    let (data, _drain, blocked) = pending.wait_timed();
    std::hint::black_box(data.as_f64().as_slice()[0]);
    dw.sync_d2h_all();
    blocked
}

/// Full executor run; returns the summed consumer-visible D2H stall
/// across every rank and timestep.
fn pipeline_stall(
    grid: &Arc<Grid>,
    decls: &Arc<Vec<uintah::runtime::TaskDecl>>,
    async_d2h: bool,
) -> Duration {
    let result = run_world(
        Arc::clone(grid),
        Arc::clone(decls),
        WorldConfig {
            nranks: 2,
            nthreads: 2,
            timesteps: TIMESTEPS,
            gpu_capacity: Some(2 << 30),
            gpu_async_d2h: async_d2h,
            ..Default::default()
        },
    );
    let bytes: u64 = result
        .ranks
        .iter()
        .flat_map(|r| r.stats.iter())
        .map(|s| s.gpu_d2h_bytes)
        .sum();
    assert!(bytes > 0, "pipeline run must report D2H traffic");
    result
        .ranks
        .iter()
        .flat_map(|r| r.stats.iter())
        .map(|s| s.gpu_d2h_wait)
        .sum()
}

fn bench_d2h_overlap(c: &mut Criterion) {
    let mut group = c.benchmark_group("d2h_overlap");
    group.sample_size(20);

    // Micro: a 64³ f64 patch (2 MiB) — big enough that the drain memcpy is
    // well above timer noise.
    let mut field = CcVariable::<f64>::new(Region::cube(64));
    field.fill_with(|c| (c.x + c.y + c.z) as f64 * 0.25);
    for async_d2h in [false, true] {
        let mode = if async_d2h { "async" } else { "sync" };
        group.bench_with_input(BenchmarkId::new("micro", mode), &async_d2h, |b, &a| {
            b.iter_custom(|iters| (0..iters).map(|_| drain_stall(&field, a)).sum());
        });
    }

    // Full executor pipeline, async vs sync drains. 16³ patches keep each
    // divQ drain (32 KiB) well above the per-transfer engine overhead, as
    // on the real machine (the paper's patches are 16³–64³).
    let grid = Arc::new(BurnsChriston::small_grid(32, 16));
    let pipeline = RmcrtPipeline {
        params: RmcrtParams {
            nrays: 4,
            threshold: 1e-3,
            ..Default::default()
        },
        halo: 2,
        problem: BurnsChriston::default(),
    };
    let decls = Arc::new(multilevel_decls(&grid, pipeline, true));
    for async_d2h in [false, true] {
        let mode = if async_d2h { "async" } else { "sync" };
        group.bench_with_input(BenchmarkId::new("pipeline", mode), &async_d2h, |b, &a| {
            b.iter_custom(|iters| (0..iters).map(|_| pipeline_stall(&grid, &decls, a)).sum());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_d2h_overlap);
criterion_main!(benches);
