//! Device-memory oversubscription gate (run by verify.sh).
//!
//! The paper's K20X has 6 GB, and the device sub-allocator + LRU
//! eviction/host-spill path exists so a problem that does not fit per
//! device still runs — slower, but bit-identically. This gate proves that
//! end to end on the full runtime (2 ranks, 2 worker threads, the
//! multi-level Burns & Christon pipeline, a regrid raced mid-run):
//!
//! 1. **Reference run** per fleet width (1 and 6 devices/rank) with an
//!    effectively unlimited capacity: records the divQ checksum, the wall
//!    time, and the true per-device memory peak `P` (and must see zero
//!    evictions).
//! 2. **Oversubscribed run** with per-device capacity `P/2` — the problem
//!    is 2× larger than device memory. Floors:
//!    * the run **completes** (no OOM-driven panic);
//!    * divQ is **bit-identical** to the reference (eviction must be
//!      invisible to physics);
//!    * evictions actually happened (the run exercised the path);
//!    * wall-time slowdown ≤ `MAX_SLOWDOWN`;
//!    * **zero meter drift**: per-device `used` equals the bytes resident
//!      in the warehouse databases, the free-list invariants hold, no
//!      release underflows, no stranded host spill, and clearing the DBs
//!      returns every device to exactly 0 bytes.
//!
//! Every floor is checked live against this run's own reference; the
//! gate has no checked-in baseline. `perf_report`'s `step_gpu_oversub`
//! workload (`gpu.evictions_per_step`, `gpu.spill_kb_per_step`,
//! `gpu.reupload_kb_per_step`) records the measured values.
//!
//! ```text
//! cargo run -p rmcrt-bench --release --bin oversub_gate
//! ```

use rmcrt_bench::gate::{self, check_meter_drift, divq_checksum};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use uintah::prelude::*;
use uintah::runtime::{TaskDecl, WorldResult};

/// Oversubscribed wall / reference wall ceiling. The spill round-trips are
/// KiB-scale clones on this problem; measured slowdown is well under 2×,
/// the floor leaves room for shared-CI noise.
const MAX_SLOWDOWN: f64 = 8.0;
/// Oversubscription factor: capacity = peak / OVERSUB (2 = "a problem 2×
/// larger than device memory").
const OVERSUB: u64 = 2;
const TIMESTEPS: usize = 4;
/// Regrid every 2 steps → an ownership flip races the eviction machinery
/// mid-run.
const REGRID_INTERVAL: usize = 2;

fn run(
    grid: &Arc<Grid>,
    decls: &Arc<Vec<TaskDecl>>,
    devices: usize,
    capacity: usize,
) -> (WorldResult, f64) {
    let t0 = Instant::now();
    let result = run_world(
        Arc::clone(grid),
        Arc::clone(decls),
        WorldConfig {
            nranks: 2,
            nthreads: 2,
            timesteps: TIMESTEPS,
            gpu_capacity: Some(capacity),
            gpus_per_rank: devices,
            regrid_interval: Some(REGRID_INTERVAL),
            ..Default::default()
        },
    );
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    (result, wall_ms)
}

/// Fleet-wide totals: (max per-device peak, evictions, spilled bytes,
/// re-uploaded bytes, release underflows).
fn fleet_totals(result: &WorldResult) -> (u64, u64, u64, u64, u64) {
    let (mut peak, mut ev, mut sp, mut ru, mut uf) = (0u64, 0u64, 0u64, 0u64, 0u64);
    for rr in &result.ranks {
        for c in rr.gpu.as_ref().expect("gpu attached").counters_per_device() {
            peak = peak.max(c.peak);
            ev += c.evictions;
            sp += c.spilled_bytes;
            ru += c.reuploads_bytes;
            uf += c.release_underflows;
        }
    }
    (peak, ev, sp, ru, uf)
}

fn main() -> ExitCode {
    let mut violations = Vec::new();

    // LARGE-style problem: 2 levels at RR 4, 32³ fine mesh in 8³ patches
    // (64 fine patches over 2 ranks), full RMCRT pipeline on the devices.
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

    // Warmup: first-run memcpys pay allocator/page-fault costs that would
    // otherwise inflate the reference wall.
    run(&grid, &decls, 1, 6 << 30);

    let mut ref_checksums = Vec::new();
    for devices in [1usize, 6] {
        // --- Reference: capacity far above the problem. -----------------
        let (ref_result, ref_ms) = run(&grid, &decls, devices, 6 << 30);
        let ref_sum = divq_checksum(&grid, &ref_result);
        let (peak, ref_ev, _, _, ref_uf) = fleet_totals(&ref_result);
        if ref_ev != 0 {
            violations.push(format!("{devices}-dev reference evicted ({ref_ev}) — not a reference"));
        }
        if ref_uf != 0 {
            violations.push(format!("{devices}-dev reference counted {ref_uf} release underflows"));
        }
        check_meter_drift(&ref_result, &format!("{devices}-dev reference"), &mut violations);
        ref_checksums.push(ref_sum);

        // --- Oversubscribed: half the measured peak per device. ---------
        let capacity = (peak / OVERSUB) as usize;
        let (ov_result, ov_ms) = run(&grid, &decls, devices, capacity);
        let ov_sum = divq_checksum(&grid, &ov_result);
        let (ov_peak, ov_ev, ov_spilled, ov_reup, ov_uf) = fleet_totals(&ov_result);
        let slowdown = ov_ms / ref_ms;
        println!(
            "{devices}-dev: ref {ref_ms:.1} ms (peak {peak} B) | oversub@{capacity} B {ov_ms:.1} ms \
             ({ov_ev} evictions, {ov_spilled} B spilled, {ov_reup} B re-uploaded) | slowdown {slowdown:.2}x"
        );
        if ov_sum != ref_sum {
            violations.push(format!(
                "{devices}-dev: oversubscribed divQ checksum {ov_sum:#x} != reference {ref_sum:#x} — eviction leaked into physics"
            ));
        }
        if ov_ev == 0 {
            violations.push(format!(
                "{devices}-dev: {OVERSUB}x oversubscription produced zero evictions — the gate exercised nothing"
            ));
        }
        if ov_peak > capacity as u64 {
            violations.push(format!(
                "{devices}-dev: peak {ov_peak} B exceeded the {capacity} B capacity meter"
            ));
        }
        if ov_uf != 0 {
            violations.push(format!("{devices}-dev: {ov_uf} release underflows under oversubscription"));
        }
        if slowdown > MAX_SLOWDOWN {
            violations.push(format!(
                "{devices}-dev: slowdown {slowdown:.2}x exceeds the {MAX_SLOWDOWN}x bound"
            ));
        }
        check_meter_drift(&ov_result, &format!("{devices}-dev oversub"), &mut violations);
    }
    if ref_checksums[0] != ref_checksums[1] {
        violations.push("reference divQ differs between 1- and 6-device fleets".to_string());
    }

    let detail = format!(
        "{OVERSUB}x oversubscribed, bit-identical divQ, slowdown <= {MAX_SLOWDOWN}x, \
         zero meter drift"
    );
    gate::finish(env!("CARGO_BIN_NAME"), &detail, &violations, None)
}
