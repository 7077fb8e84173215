//! Async H2D upload-pipeline gate (run by verify.sh).
//!
//! The upload twin of the D2H overlap measurement: PR 3 took the
//! critical-path *drain* stall off the hot path; this gate proves the
//! H2D engine + staging pool + cross-step prefetch do the same for
//! uploads, and that the whole pipeline stays bit-identical with the
//! machinery on or off. Two views:
//!
//! 1. **Stall view** — the pipeline's upload pattern (step close posts
//!    next-step level-replica revalidations, superseding patch uploads,
//!    and spill re-uploads; inter-step CPU work drains; step open
//!    consumes) driven deterministically against the warehouse in both
//!    `gpu_async_h2d` modes, B&C-sized fields. Floors:
//!    * critical-path upload stall (`h2d_wait_ns`) drops **≥ 10×**
//!      vs the synchronous baseline;
//!    * the async run hides real work: `h2d_overlap_ns` ≥ sync stall / 8,
//!      while the sync fallback records exactly zero overlap;
//!    * every byte served is **bit-identical** across modes;
//!    * zero meter drift after drain (devices at 0 B, no release
//!      underflows, allocator free lists coherent).
//! 2. **Pipeline view** — full `run_world` B&C runs over 1/2/3/7 worker
//!    threads × 1/2/4/6 devices/rank in both modes: all 32 divQ
//!    checksums must be identical, plus one oversubscribed pair
//!    (capacity = measured peak / 2, regrid raced mid-run) that must
//!    evict, stay bit-identical, and drain with zero drift.
//!
//! Every floor is checked live (async against this run's own sync
//! fallback); the gate has no checked-in baseline. `perf_report`'s
//! `gpu.h2d_wait_ms_per_step` / `gpu.h2d_overlap_pct` record the measured
//! values on the benchmark workloads.
//!
//! ```text
//! cargo run -p rmcrt-bench --release --bin h2d_overlap_gate
//! ```

use rmcrt_bench::gate::{self, check_meter_drift, divq_checksum};
use std::process::ExitCode;
use std::sync::Arc;
use uintah::gpu::GpuDataWarehouse;
use uintah::prelude::*;
use uintah::runtime::{TaskDecl, WorldResult};
use uintah_gpu::DeviceFleet;
use uintah_grid::{CcVariable, PatchId, Region};

/// Required reduction in critical-path upload stall, async vs sync.
const MIN_STALL_REDUCTION: f64 = 10.0;
/// The async run must hide at least this fraction of the sync stall as
/// measured overlap (most of it in practice; /8 leaves room for noise).
const MIN_OVERLAP_FRACTION: f64 = 8.0;
const STALL_STEPS: usize = 4;
const STALL_PATCHES: usize = 16;
/// 32³ f64 per patch (256 KiB) — the paper's patch scale, well above
/// per-transfer engine overhead.
const PATCH_CELLS: i32 = 32;
const LEVEL_LABELS: [VarLabel; 3] = [
    VarLabel::new("gate_abskg", 90),
    VarLabel::new("gate_sigt4", 91),
    VarLabel::new("gate_cellt", 92),
];
const GATE_PATCH: VarLabel = VarLabel::new("gate_patch", 93);
const PIPE_TIMESTEPS: usize = 3;
const PIPE_REGRID_INTERVAL: usize = 2;
const OVERSUB: u64 = 2;

/// Deterministic inter-step CPU work, well above the posted bursts'
/// memcpy cost — the stand-in for the task drain the engine overlaps.
fn cpu_drain(buf: &mut [f64]) {
    for pass in 0..4 {
        let mut acc = 0.0f64;
        for v in buf.iter_mut() {
            *v = *v * 1.000_000_1 + pass as f64 * 1e-12;
            acc += *v;
        }
        std::hint::black_box(acc);
    }
}

fn field(cells: i32, value: f64) -> FieldData {
    FieldData::F64(CcVariable::filled(Region::cube(cells), value))
}

fn checksum_into(acc: &mut u64, data: &FieldData) {
    for &x in data.as_f64().as_slice() {
        *acc = acc.wrapping_add(x.to_bits());
    }
}

/// One full stall-view run; returns `(wait_ns, overlap_ns, checksum)`.
/// Every consumed byte feeds the checksum, so the two modes can be
/// compared bit for bit.
fn stall_run(async_h2d: bool, violations: &mut Vec<String>) -> (u64, u64, u64) {
    let tag = if async_h2d { "async" } else { "sync" };
    let patch_bytes = (PATCH_CELLS as usize).pow(3) * 8;
    let mut drain_buf = vec![1.0f64; 4 << 20];
    let mut checksum = 0u64;

    // Ample-capacity warehouse: the prefetch + superseding-upload pattern.
    let dw = GpuDataWarehouse::with_fleet_full(DeviceFleet::k20x(1), true, true, async_h2d, true);
    // Oversubscribed warehouse: room for half the patches, so puts spill
    // and the step-close spill prefetch has real work to hide.
    let spill_dw = GpuDataWarehouse::with_fleet_full(
        DeviceFleet::with_capacity(1, "h2d-gate-oversub", STALL_PATCHES / 2 * patch_bytes + 256),
        true,
        true,
        async_h2d,
        true,
    );

    let step_value = |step: usize, p: usize| (step * STALL_PATCHES + p) as f64 + 0.25;
    // Step 0 close: the initial posts.
    for p in 0..STALL_PATCHES {
        let data = field(PATCH_CELLS, step_value(0, p));
        dw.put_patch_async(GATE_PATCH, PatchId(p as u32), &data).expect("k20x fits the gate");
        spill_dw
            .put_patch(GATE_PATCH, PatchId(p as u32), data)
            .expect("a victim always exists");
    }
    for (i, label) in LEVEL_LABELS.iter().enumerate() {
        dw.prefetch_level_on(0, *label, 0, &field(PATCH_CELLS, i as f64));
    }
    spill_dw.prefetch_spill_reuploads();

    for step in 1..=STALL_STEPS {
        // Inter-step CPU drain: the engines work while this runs.
        cpu_drain(&mut drain_buf);

        // Step open: consume everything posted at the previous close.
        dw.begin_timestep();
        spill_dw.begin_timestep();
        for p in 0..STALL_PATCHES {
            let want = step_value(step - 1, p);
            let v = dw.get_patch(GATE_PATCH, PatchId(p as u32)).expect("posted last close");
            if v.data().as_f64().as_slice()[0] != want {
                violations.push(format!("{tag}: patch {p} step {step} served stale bytes"));
            }
            checksum_into(&mut checksum, v.data());
            // The spill warehouse cycles under pressure: a hit must carry
            // the one true value, a miss means the re-upload lost the race
            // with this loop's own evictions.
            if let Some(v) = spill_dw.get_patch(GATE_PATCH, PatchId(p as u32)) {
                checksum_into(&mut checksum, v.data());
            }
        }
        for (i, label) in LEVEL_LABELS.iter().enumerate() {
            let want = (step - 1) as f64 * 100.0 + i as f64;
            let host = field(PATCH_CELLS, want);
            let v = dw
                .ensure_level_fresh_on(0, *label, 0, || host)
                .expect("level replica fits");
            checksum_into(&mut checksum, v.data());
        }

        // Step close: post the next step's truth (changed bytes, so the
        // level predictions have a real burst to hide), plus the spill
        // re-uploads.
        if step < STALL_STEPS {
            for p in 0..STALL_PATCHES {
                let data = field(PATCH_CELLS, step_value(step, p));
                dw.put_patch_async(GATE_PATCH, PatchId(p as u32), &data).expect("fits");
            }
            for (i, label) in LEVEL_LABELS.iter().enumerate() {
                let host = field(PATCH_CELLS, step as f64 * 100.0 + i as f64);
                dw.prefetch_level_on(0, *label, 0, &host);
            }
            spill_dw.prefetch_spill_reuploads();
        }
    }

    // Drain and drift-check both warehouses.
    let mut wait = 0u64;
    let mut overlap = 0u64;
    for (name, w) in [("ample", &dw), ("oversub", &spill_dw)] {
        w.sync_h2d_all();
        w.sync_d2h_all();
        w.clear_patch_db();
        w.clear_level_db();
        for d in 0..w.num_devices() {
            let dev = w.device_at(d);
            let c = dev.counters();
            wait += c.h2d_wait_ns;
            overlap += c.h2d_overlap_ns;
            if c.release_underflows != 0 {
                violations.push(format!(
                    "{tag}/{name}: device {d} counted {} release underflows",
                    c.release_underflows
                ));
            }
            if dev.used() != 0 {
                violations.push(format!(
                    "{tag}/{name}: device {d} holds {} B after clearing the DBs",
                    dev.used()
                ));
            }
            if let Err(e) = dev.validate_allocator() {
                violations.push(format!("{tag}/{name}: device {d}: {e}"));
            }
        }
        if w.pending_uploads() != 0 {
            violations.push(format!("{tag}/{name}: posts left parked after drain"));
        }
    }
    if !async_h2d && overlap != 0 {
        violations.push(format!("sync fallback recorded {overlap} ns of phantom overlap"));
    }
    (wait, overlap, checksum)
}

fn pipeline_run(
    grid: &Arc<Grid>,
    decls: &Arc<Vec<TaskDecl>>,
    threads: usize,
    devices: usize,
    capacity: usize,
    async_h2d: bool,
) -> WorldResult {
    run_world(
        Arc::clone(grid),
        Arc::clone(decls),
        WorldConfig {
            nranks: 2,
            nthreads: threads,
            timesteps: PIPE_TIMESTEPS,
            gpu_capacity: Some(capacity),
            gpus_per_rank: devices,
            gpu_async_h2d: async_h2d,
            regrid_interval: Some(PIPE_REGRID_INTERVAL),
            ..Default::default()
        },
    )
}

/// Summed H2D stall (`h2d_wait_ns`) and per-device peak across a run's
/// fleet, plus eviction count and underflows.
fn fleet_h2d(result: &WorldResult) -> (u64, u64, u64, u64) {
    let (mut wait, mut peak, mut ev, mut uf) = (0u64, 0u64, 0u64, 0u64);
    for rr in &result.ranks {
        for c in rr.gpu.as_ref().expect("gpu attached").counters_per_device() {
            wait += c.h2d_wait_ns;
            peak = peak.max(c.peak);
            ev += c.evictions;
            uf += c.release_underflows;
        }
    }
    (wait, peak, ev, uf)
}

fn main() -> ExitCode {
    let mut violations = Vec::new();

    // --- 1. Stall view ---------------------------------------------------
    let (sync_wait, _sync_overlap, sync_sum) = stall_run(false, &mut violations);
    let (async_wait, async_overlap, async_sum) = stall_run(true, &mut violations);
    let reduction = sync_wait as f64 / async_wait.max(1) as f64;
    println!(
        "stall: sync {:.3} ms | async {:.3} ms (overlap {:.3} ms) | reduction {reduction:.1}x",
        sync_wait as f64 / 1e6,
        async_wait as f64 / 1e6,
        async_overlap as f64 / 1e6,
    );
    if sync_sum != async_sum {
        violations.push(format!(
            "stall view served different bytes: sync {sync_sum:#x} != async {async_sum:#x}"
        ));
    }
    if reduction < MIN_STALL_REDUCTION {
        violations.push(format!(
            "upload stall reduction {reduction:.1}x is below the {MIN_STALL_REDUCTION}x floor \
             (sync {sync_wait} ns, async {async_wait} ns)"
        ));
    }
    if (async_overlap as f64) < sync_wait as f64 / MIN_OVERLAP_FRACTION {
        violations.push(format!(
            "async overlap {async_overlap} ns hides less than 1/{MIN_OVERLAP_FRACTION} of the \
             sync stall ({sync_wait} ns)"
        ));
    }

    // --- 2. Pipeline view ------------------------------------------------
    let grid = Arc::new(BurnsChriston::small_grid(16, 4));
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

    // Reference: unlimited capacity, also yields the true per-device peak.
    let ref_result = pipeline_run(&grid, &decls, 2, 1, 6 << 30, true);
    let ref_sum = divq_checksum(&grid, &ref_result);
    let (_, peak, ref_ev, ref_uf) = fleet_h2d(&ref_result);
    if ref_ev != 0 || ref_uf != 0 {
        violations.push(format!(
            "reference run evicted ({ref_ev}) or underflowed ({ref_uf}) — not a reference"
        ));
    }
    check_meter_drift(&ref_result, "reference", &mut violations);

    let mut sweep = 0usize;
    for threads in [1usize, 2, 3, 7] {
        for devices in [1usize, 2, 4, 6] {
            for async_h2d in [false, true] {
                let r = pipeline_run(&grid, &decls, threads, devices, 6 << 30, async_h2d);
                let sum = divq_checksum(&grid, &r);
                let (_, _, _, uf) = fleet_h2d(&r);
                let mode = if async_h2d { "async" } else { "sync" };
                if sum != ref_sum {
                    violations.push(format!(
                        "{threads} threads x {devices} devices ({mode}): divQ {sum:#x} != reference {ref_sum:#x}"
                    ));
                }
                if uf != 0 {
                    violations.push(format!(
                        "{threads} threads x {devices} devices ({mode}): {uf} release underflows"
                    ));
                }
                check_meter_drift(
                    &r,
                    &format!("{threads}t x {devices}d {mode}"),
                    &mut violations,
                );
                sweep += 1;
            }
        }
    }
    println!("pipeline sweep: {sweep} runs, all divQ checksums {ref_sum:#x}");

    // Oversubscribed pair: capacity = peak / 2, regrid raced mid-run.
    let capacity = (peak / OVERSUB) as usize;
    let mut pipe_wait = [0u64; 2];
    for (i, async_h2d) in [false, true].into_iter().enumerate() {
        let r = pipeline_run(&grid, &decls, 2, 1, capacity, async_h2d);
        let sum = divq_checksum(&grid, &r);
        let (wait, _, ev, uf) = fleet_h2d(&r);
        let mode = if async_h2d { "async" } else { "sync" };
        pipe_wait[i] = wait;
        if sum != ref_sum {
            violations.push(format!(
                "oversubscribed {mode}: divQ {sum:#x} != reference {ref_sum:#x}"
            ));
        }
        if ev == 0 {
            violations.push(format!(
                "oversubscribed {mode}: {OVERSUB}x oversubscription produced zero evictions"
            ));
        }
        if uf != 0 {
            violations.push(format!("oversubscribed {mode}: {uf} release underflows"));
        }
        check_meter_drift(&r, &format!("oversub {mode}"), &mut violations);
    }
    println!(
        "pipeline oversub@{capacity} B: sync wait {:.3} ms | async wait {:.3} ms",
        pipe_wait[0] as f64 / 1e6,
        pipe_wait[1] as f64 / 1e6,
    );

    let detail = format!(
        ">= {MIN_STALL_REDUCTION}x stall reduction, overlap floor met, bit-identical divQ \
         across 32 shape runs + oversubscription, zero meter drift"
    );
    gate::finish(env!("CARGO_BIN_NAME"), &detail, &violations, None)
}
