//! Packet-vs-scalar ray-march regression gate (run by verify.sh).
//!
//! Two workloads, both solved by the frozen pre-packet scalar marcher
//! (`rmcrt_bench::scalar_march`) and by the live SoA packet engine
//! (`rmcrt_core::packet` behind `solve_region`):
//!
//! * **16³ Burns & Christon at a fixed 100 rays/cell** — the bit-identity
//!   workload. Fixed mode is a refactor, not a re-model, so the packet
//!   divQ must match the scalar divQ bit for bit, and the engine must
//!   clear a modest overhead-elimination floor (`MIN_FIXED_SPEEDUP`).
//!   The shared costs the contract pins (identical RNG draws, DDA setup
//!   divisions, one `exp` per cell step) bound what fixed mode can gain.
//! * **16³ optically-thick enclosure (κ = 8, hot walls)** — the adaptive
//!   workload. Smooth, thick cells have low per-ray variance, so the
//!   variance-driven ray budget converges near its floor and the packet
//!   path must beat the scalar fixed-budget solve by `MIN_ADAPTIVE_SPEEDUP`
//!   while reproducing the region-mean divQ within `MAX_ADAPTIVE_MEAN_REL`
//!   on measurably fewer rays.
//!
//! On top of those floors sits the regression check against the checked-in
//! `BENCH_ray_march.json`, in two halves as `scaling_gate` has them:
//!
//! * **host-limited** — packet throughput in cells/s. It moves with the
//!   host (this one has a slow state that reads 27–39 k cells/s where the
//!   file says 52.9 k, on untouched code), so it is printed beside the
//!   checked-in figure, not compared.
//! * **model-limited** — the packet-vs-scalar *speedup* of each workload.
//!   The frozen scalar marcher runs in the same `time_pair` on the same
//!   host, so the ratio cancels the host's speed and moves only when the
//!   engine does: it must stay within `REGRESSION_TOLERANCE` of the
//!   checked-in pair's ratio.
//!
//! Two more checks are relative to this host alone: marching the B&C rays
//! as packets (`PacketTracer::trace`, interleaved lanes) must not be slower
//! than looping `PacketTracer::trace_one` (the same engine, one lane) over
//! them; the same rays traced with a threshold above 1 end on their first
//! cell step, which prices a ray's launch in cell-step equivalents; and
//! filling them (`solver::fill_cell_packet` alone, no march) prices the
//! draw beside both (printed, host-limited, not gated). Each workload's
//! line also reports cell steps per ray and the time per cell step from the
//! engine's own `MarchStats`. One more host-limited, ungated line prices a
//! ray at the few-rays-per-cell budget of `perf_report`'s
//! `step_cpu_smallpatch` (2 rays/cell on 4³ patches of a 32³ two-level
//! grid) beside the same patches at 100 rays/cell, so the per-cell
//! overhead that region solves amortise over runs of cells stays visible.
//!
//! **Measured false-failure rate** (EXPERIMENTS E25): 3 of 50 runs on
//! untouched code on a 2-vCPU host failed, all three on the lane floor
//! (`trace` read 0.82–0.97× `trace_one`), which is the one gated
//! quantity timed without a frozen twin beside it. The two model-limited
//! speedups never failed; their smallest margins over 50 runs were +0.19
//! (fixed) and +1.11 (adaptive). The fixed floor catches a packet march
//! about 15 % slower or more: one extra `exp` per cell step fails 5 of 5
//! runs, a 5 % slowdown passes.
//!
//! ```text
//! cargo run -p rmcrt-bench --release --bin ray_march_gate            # check
//! cargo run -p rmcrt-bench --release --bin ray_march_gate -- --update # regen
//! ```

use rmcrt_bench::campaign::json::{self, Json};
use rmcrt_bench::{gate, scalar_march, secs};
use rmcrt_core::props::{LevelProps, WALL_CELL};
use rmcrt_core::sampling::DirectionSampler;
use rmcrt_core::solver::{fill_cell_packet, two_level_stack, RayCountMode, RmcrtParams};
use rmcrt_core::trace::{TraceLevel, TraceOptions};
use rmcrt_core::{
    solve_region, solve_region_with_stats, BurnsChriston, CellRng, MarchStats, PacketTracer,
    RayPacket,
};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use uintah::prelude::ExecSpace;
use uintah_grid::{IntVector, Region, Vector};

/// Fixed-mode floor: overhead elimination, interleaved lanes and the
/// branch-free launch, under the bit-identity contract (measured
/// 1.66–1.72x on this workload; the floor is 0.86 x the lowest).
const MIN_FIXED_SPEEDUP: f64 = 1.4;
/// `trace` (interleaved lanes) over `trace_one` (one lane) on the same
/// rays: never slower (measured ~1.2x).
const MIN_LANE_SPEEDUP: f64 = 1.0;
/// Packet-path requirement: the adaptive budget on the optically-thick
/// workload must at least double scalar fixed-budget throughput.
const MIN_ADAPTIVE_SPEEDUP: f64 = 2.0;
/// Adaptive region-mean divQ must stay within 1% of the fixed reference.
const MAX_ADAPTIVE_MEAN_REL: f64 = 0.01;
/// "Measurably fewer rays": adaptive must spend at most this fraction of
/// the fixed budget (measured ~0.42 on the thick workload).
const MAX_ADAPTIVE_RAY_FRACTION: f64 = 0.75;
/// Allowed shortfall of a packet-vs-scalar speedup against the checked-in
/// pair's (both sides of the ratio are timed back to back on this host).
const REGRESSION_TOLERANCE: f64 = 0.10;

const N: i32 = 16;
const NRAYS: u32 = 100;
/// Runs per timing, the fastest kept. 9 repeated to ±3 % until the
/// adaptive packet solve shrank to 12 ms; at 9 its ratio then read
/// 4.70–5.90x over twelve runs on this host, at 25 5.28–5.81x over eight.
const REPS: usize = 25;

/// Field `key` of benchmark `id` in the checked-in report.
fn baseline(report: &Json, id: &str, key: &str) -> Result<f64, String> {
    let root = report.as_object().ok_or("report is not an object")?;
    let entries = json::get(root, "benchmarks")?
        .as_array()
        .ok_or("\"benchmarks\" is not an array")?;
    let entry = entries
        .iter()
        .filter_map(Json::as_object)
        .find(|e| e.get("id").and_then(Json::as_str) == Some(id))
        .ok_or_else(|| format!("no {id} entry"))?;
    json::get_f64(entry, key)
}

fn checksum(v: &[f64]) -> u64 {
    v.iter().fold(0u64, |acc, x| acc.wrapping_add(x.to_bits()))
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// Hot-walled, optically thick enclosure: uniform κ = 8 medium (τ ≈ 0.5
/// per cell) inside a one-cell emissive wall shell. The smooth interior is
/// where ARC-style adaptive ray budgets pay off.
fn thick_enclosure(n: i32) -> LevelProps {
    let mut props = LevelProps::uniform(Region::cube(n), Vector::splat(1.0 / n as f64), 8.0, 0.9);
    let e = props.region.extent();
    for c in props.region.cells() {
        if c.x == 0 || c.y == 0 || c.z == 0 || c.x == e.x - 1 || c.y == e.y - 1 || c.z == e.z - 1 {
            props.cell_type[c] = WALL_CELL;
            props.abskg[c] = 0.8;
            props.sigma_t4_over_pi[c] = 1.7;
        }
    }
    props
}

struct Measured {
    scalar_ms: f64,
    packet_ms: f64,
    scalar_cps: f64,
    packet_cps: f64,
}

/// The march counters of one packet solve against its wall time (which
/// includes RNG, packet fill and reduction).
fn per_step(march: &MarchStats, packet_ms: f64) -> String {
    format!(
        "{:.1} steps/ray, {:.2} segments/ray, {:.1} ns/step",
        march.cell_steps as f64 / march.rays as f64,
        march.segments as f64 / march.rays as f64,
        packet_ms * 1e6 / march.cell_steps as f64
    )
}

fn tracer_at<'a>(stack: &'a [TraceLevel<'a>], threshold: f64) -> PacketTracer<'a> {
    PacketTracer::new(
        stack,
        TraceOptions {
            threshold,
            max_reflections: 0,
        },
    )
}

/// Fill `packet` with the probe rays of `cell`: `NRAYS` rays through the
/// solver's own fill.
fn fill_probe_packet(packet: &mut RayPacket, fine: &LevelProps, cell: IntVector) {
    let params = RmcrtParams {
        seed: 0x1A9E5,
        ..Default::default()
    };
    let mut perm_rng = CellRng::new(params.seed, cell, u32::MAX, params.timestep);
    let sampler = DirectionSampler::new(params.sampling, NRAYS, &mut perm_rng);
    fill_cell_packet(packet, fine, cell, &params, &sampler, 0, NRAYS);
}

/// The probe cells: every 8th cell of the region.
fn probe_cells(region: Region) -> impl Iterator<Item = IntVector> {
    (0..region.volume()).step_by(8).map(move |i| region.from_linear(i))
}

/// One packet per probe cell.
fn fresh_packets(fine: &LevelProps, region: Region) -> Vec<RayPacket> {
    probe_cells(region)
        .map(|cell| {
            let mut packet = RayPacket::default();
            fill_probe_packet(&mut packet, fine, cell);
            packet
        })
        .collect()
}

/// Seconds of the fastest of `REPS` runs of `f`: interference on a shared
/// host only ever adds time, so the fastest run is the least disturbed.
fn best_of_reps(mut f: impl FnMut() -> Duration) -> f64 {
    (0..REPS).map(|_| secs(f())).fold(f64::INFINITY, f64::min)
}

/// March copies of `fresh` as packets (best of `REPS`): seconds, the
/// checksum of every `sum_i`, and the march counters.
fn time_packets(tracer: &PacketTracer<'_>, fresh: &[RayPacket]) -> (f64, u64, MarchStats) {
    let mut bits = 0u64;
    let mut march = MarchStats::default();
    let s = best_of_reps(|| {
        let mut packets = fresh.to_vec();
        march = MarchStats::default();
        let t = Instant::now();
        for packet in &mut packets {
            march += tracer.trace(packet);
        }
        let elapsed = t.elapsed();
        bits = packets.iter().map(|p| checksum(&p.sum_i)).fold(0, u64::wrapping_add);
        elapsed
    });
    (s, bits, march)
}

/// What the B&C rays say about the engine on this host alone.
struct RayProbe {
    /// Drawing a ray (RNG, direction, origin) into its packet slot.
    fill_ns: f64,
    /// One-lane time / interleaved-lane time on the same rays.
    lane_ratio: f64,
    lane_bits_match: bool,
    /// A ray that ends on its first cell step: launch + one step + retire.
    launch_ns: f64,
    /// A cell step beyond the first.
    step_ns: f64,
}

/// Fill against launch against step, and interleaved lanes against one
/// lane: the probe rays filled into one reused packet, marched as packets,
/// ray by ray through `trace_one`, and once more with a threshold above 1,
/// which ends every ray on its first step.
fn probe_rays(stack: &[TraceLevel<'_>], region: Region, threshold: f64) -> RayProbe {
    let tracer = tracer_at(stack, threshold);
    let fine = tracer.fine_props();
    let fresh = fresh_packets(fine, region);
    let mut scratch = RayPacket::default();
    let fill_s = best_of_reps(|| {
        let t = Instant::now();
        for cell in probe_cells(region) {
            fill_probe_packet(&mut scratch, fine, cell);
            std::hint::black_box(&scratch);
        }
        t.elapsed()
    });
    let (packet_s, packet_bits, march) = time_packets(&tracer, &fresh);
    let mut one_bits = 0u64;
    let one_s = best_of_reps(|| {
        let t = Instant::now();
        one_bits = 0;
        for packet in &fresh {
            for i in 0..packet.len() {
                let v = tracer.trace_one(packet.origin(i), packet.dir(i));
                one_bits = one_bits.wrapping_add(v.to_bits());
            }
        }
        t.elapsed()
    });
    let (first_s, _, first) = time_packets(&tracer_at(stack, 2.0), &fresh);
    assert_eq!(first.cell_steps, first.rays, "threshold 2 must end every ray on its first step");
    RayProbe {
        fill_ns: fill_s * 1e9 / first.rays as f64,
        lane_ratio: one_s / packet_s,
        lane_bits_match: packet_bits == one_bits,
        launch_ns: first_s * 1e9 / first.rays as f64,
        step_ns: (packet_s - first_s) * 1e9 / (march.cell_steps - march.rays) as f64,
    }
}

/// ns per ray of a patch solve on `step_cpu_smallpatch`'s shape — 4³
/// patches of a 32³ fine level over an 8³ coarse one, halo 4, threshold
/// 0.05 — at `nrays` rays/cell, best of `REPS` passes over every 8th
/// patch. Each patch prepares its own two-level stack and tracer inside
/// the solve, as a runtime task does.
fn small_patch_ns_per_ray(problem: &BurnsChriston, nrays: u32) -> f64 {
    let grid = BurnsChriston::small_grid(32, 4);
    let coarse = problem.props_for_level(grid.coarsest_level());
    let fine = grid.fine_level();
    let patches: Vec<(LevelProps, Region)> = fine
        .patches()
        .iter()
        .step_by(8)
        .map(|p| {
            let roi = p.interior().grown(4).intersect(&fine.cell_region());
            (problem.props_for_region(fine, roi), p.interior())
        })
        .collect();
    let params = RmcrtParams {
        nrays,
        threshold: 0.05,
        ..Default::default()
    };
    let rays: usize = patches.iter().map(|(_, interior)| interior.volume() * nrays as usize).sum();
    let s = best_of_reps(|| {
        let t = Instant::now();
        for (props, interior) in &patches {
            let stack = two_level_stack(&coarse, props, props.region);
            std::hint::black_box(solve_region(&stack, *interior, &params));
        }
        t.elapsed()
    });
    s * 1e9 / rays as f64
}

/// Time one workload with both engines: the best of `REPS` runs each, the
/// two engines taking turns. A slow spell of the host lasts longer than one
/// solve, so the fastest runs of the two sides are equally undisturbed and
/// their ratio repeats to a few percent where the ratio of medians swings
/// by 30 %. `packet` closures let the caller pick fixed or adaptive mode
/// for the live side.
fn time_pair(
    scalar: impl Fn() -> uintah_grid::CcVariable<f64>,
    packet: impl Fn() -> uintah_grid::CcVariable<f64>,
    cells: f64,
) -> Measured {
    let time = |solve: &dyn Fn() -> uintah_grid::CcVariable<f64>| {
        let t = Instant::now();
        std::hint::black_box(solve());
        secs(t.elapsed())
    };
    let (mut scalar_s, mut packet_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..REPS {
        scalar_s = scalar_s.min(time(&scalar));
        packet_s = packet_s.min(time(&packet));
    }
    Measured {
        scalar_ms: scalar_s * 1e3,
        packet_ms: packet_s * 1e3,
        scalar_cps: cells / scalar_s,
        packet_cps: cells / packet_s,
    }
}

fn main() -> ExitCode {
    let report_path = gate::repo_root().join("BENCH_ray_march.json");
    let mut violations = Vec::new();

    // --- Workload 1: Burns & Christon, fixed mode (bit-identity). -------
    let problem = BurnsChriston::default();
    let grid = BurnsChriston::small_grid(N, 16);
    let bc_props = problem.props_for_level(grid.fine_level());
    let bc_stack = [TraceLevel {
        props: &bc_props,
        roi: bc_props.region,
    }];
    let bc_region = bc_props.region;
    let bc_params = RmcrtParams {
        nrays: NRAYS,
        threshold: 1e-5,
        ..Default::default()
    };
    let cells = bc_region.volume() as f64;

    let scalar_div_q = scalar_march::solve_region_scalar(&bc_stack, bc_region, &bc_params);
    let packet_div_q = solve_region(&bc_stack, bc_region, &bc_params);
    if checksum(scalar_div_q.as_slice()) != checksum(packet_div_q.as_slice()) {
        violations.push("B&C: packet divQ is not bit-identical to the scalar baseline".to_string());
    }

    let fixed = time_pair(
        || scalar_march::solve_region_scalar(&bc_stack, bc_region, &bc_params),
        || solve_region(&bc_stack, bc_region, &bc_params),
        cells,
    );
    let fixed_speedup = fixed.scalar_ms / fixed.packet_ms;
    let bc_march = solve_region_with_stats(&bc_stack, bc_region, &bc_params, &ExecSpace::Serial).1.march;
    println!(
        "16^3 B&C fixed {NRAYS} rays/cell:   scalar {:.1} ms | packet {:.1} ms | speedup {fixed_speedup:.2}x (bit-identical) | {}",
        fixed.scalar_ms,
        fixed.packet_ms,
        per_step(&bc_march, fixed.packet_ms)
    );
    let RayProbe {
        fill_ns,
        lane_ratio,
        lane_bits_match,
        launch_ns,
        step_ns,
    } = probe_rays(&bc_stack, bc_region, bc_params.threshold);
    println!("16^3 B&C rays, trace vs trace_one:  interleaved lanes {lane_ratio:.2}x one lane");
    println!(
        "16^3 B&C rays, fill : launch : step [host-limited]: {fill_ns:.1} ns/ray to draw direction and origin | {launch_ns:.1} ns/ray to launch, take one step and retire = {:.1} cell steps of {step_ns:.1} ns",
        launch_ns / step_ns
    );
    if !lane_bits_match {
        violations.push("B&C: trace and trace_one disagree bitwise on the same rays".to_string());
    }
    println!(
        "32^3/4^3 small-patch solve [host-limited]: {:.1} ns/ray at 2 rays/cell | {:.1} ns/ray at 100 rays/cell",
        small_patch_ns_per_ray(&problem, 2),
        small_patch_ns_per_ray(&problem, 100)
    );

    // --- Workload 2: thick enclosure, adaptive packet path. -------------
    let th_props = thick_enclosure(N);
    let th_stack = [TraceLevel {
        props: &th_props,
        roi: th_props.region,
    }];
    let th_region = th_props.region;
    let th_fixed = RmcrtParams {
        nrays: NRAYS,
        threshold: 0.05,
        ..Default::default()
    };
    let th_adaptive = RmcrtParams {
        ray_count: Some(RayCountMode::Adaptive {
            min: 16,
            max: NRAYS,
            rel_var_target: 0.05,
        }),
        ..th_fixed
    };

    let th_scalar = scalar_march::solve_region_scalar(&th_stack, th_region, &th_fixed);
    let th_packet_fixed = solve_region(&th_stack, th_region, &th_fixed);
    if checksum(th_scalar.as_slice()) != checksum(th_packet_fixed.as_slice()) {
        violations.push("thick: packet divQ is not bit-identical to the scalar baseline".to_string());
    }
    let (th_out, th_stats) =
        solve_region_with_stats(&th_stack, th_region, &th_adaptive, &ExecSpace::Serial);
    let rays_per_cell = th_stats.total_rays as f64 / th_stats.cells as f64;
    let mean_rel = ((mean(th_out.as_slice()) - mean(th_scalar.as_slice())) / mean(th_scalar.as_slice())).abs();
    if mean_rel > MAX_ADAPTIVE_MEAN_REL {
        violations.push(format!(
            "thick: adaptive region-mean divQ differs from the fixed reference by {:.2}% (limit {:.0}%)",
            mean_rel * 100.0,
            MAX_ADAPTIVE_MEAN_REL * 100.0
        ));
    }
    if rays_per_cell > NRAYS as f64 * MAX_ADAPTIVE_RAY_FRACTION {
        violations.push(format!(
            "thick: adaptive spent {rays_per_cell:.1} rays/cell, not measurably fewer than the fixed {NRAYS}"
        ));
    }

    let adaptive = time_pair(
        || scalar_march::solve_region_scalar(&th_stack, th_region, &th_fixed),
        || solve_region_with_stats(&th_stack, th_region, &th_adaptive, &ExecSpace::Serial).0,
        cells,
    );
    let adaptive_speedup = adaptive.scalar_ms / adaptive.packet_ms;
    println!(
        "16^3 thick adaptive 16..{NRAYS}@0.05: scalar {:.1} ms | packet {:.1} ms | speedup {adaptive_speedup:.2}x ({rays_per_cell:.1} rays/cell, mean divQ rel {:.3}%) | {}",
        adaptive.scalar_ms,
        adaptive.packet_ms,
        mean_rel * 100.0,
        per_step(&th_stats.march, adaptive.packet_ms)
    );

    if gate::update_requested() {
        let json = format!(
            "{{\n  \"group\": \"ray_march\",\n  \"note\": \"Serial full-region solves, 16^3, best of {REPS} (scalar and packet taking turns); throughput is cells/s. scalar_* = frozen pre-packet per-ray DDA (crates/bench/src/scalar_march.rs). packet_16cube_100rays is bit-identical to its scalar twin (fixed mode, B&C, 100 rays/cell, threshold 1e-5): the speedup is engine-overhead elimination plus interleaved march lanes under the pinned-FP contract. packet_16cube_thick_adaptive is the packet path on the optically-thick enclosure (kappa=8, hot walls, threshold 0.05) with adaptive ray counts 16..100 at rel_var_target 0.05 vs the 100-rays/cell scalar baseline; it must stay >= {MIN_ADAPTIVE_SPEEDUP}x scalar with region-mean divQ within {:.0}%. Gate: bit-identity on both workloads, fixed >= {MIN_FIXED_SPEEDUP}x, adaptive >= {MIN_ADAPTIVE_SPEEDUP}x, trace >= {MIN_LANE_SPEEDUP}x trace_one, and each packet-vs-scalar speedup (scalar best_ns / packet best_ns, model-limited) no more than {REGRESSION_TOLERANCE} below this file's; throughput is host-limited and only printed.\",\n  \"benchmarks\": [\n    {{ \"id\": \"scalar_16cube_100rays\", \"best_ns\": {:.1}, \"throughput_per_sec\": {:.1} }},\n    {{ \"id\": \"packet_16cube_100rays\", \"best_ns\": {:.1}, \"throughput_per_sec\": {:.1} }},\n    {{ \"id\": \"scalar_16cube_thick_100rays\", \"best_ns\": {:.1}, \"throughput_per_sec\": {:.1} }},\n    {{ \"id\": \"packet_16cube_thick_adaptive\", \"best_ns\": {:.1}, \"throughput_per_sec\": {:.1}, \"rays_per_cell\": {rays_per_cell:.1} }}\n  ]\n}}\n",
            MAX_ADAPTIVE_MEAN_REL * 100.0,
            fixed.scalar_ms * 1e6,
            fixed.scalar_cps,
            fixed.packet_ms * 1e6,
            fixed.packet_cps,
            adaptive.scalar_ms * 1e6,
            adaptive.scalar_cps,
            adaptive.packet_ms * 1e6,
            adaptive.packet_cps,
        );
        return gate::write_report(&report_path, &json);
    }

    if fixed_speedup < MIN_FIXED_SPEEDUP {
        violations.push(format!(
            "B&C: packet fixed-mode speedup {fixed_speedup:.2}x is below the {MIN_FIXED_SPEEDUP}x floor"
        ));
    }
    if lane_ratio < MIN_LANE_SPEEDUP {
        violations.push(format!(
            "B&C: trace is {lane_ratio:.2}x trace_one on the same rays, below the {MIN_LANE_SPEEDUP}x floor"
        ));
    }
    if adaptive_speedup < MIN_ADAPTIVE_SPEEDUP {
        violations.push(format!(
            "thick: adaptive packet-path speedup {adaptive_speedup:.2}x is below the required {MIN_ADAPTIVE_SPEEDUP}x"
        ));
    }
    let report = std::fs::read_to_string(&report_path)
        .map_err(|e| format!("cannot read {}: {e}", report_path.display()))
        .and_then(|text| json::parse(&text));
    match report {
        Err(e) => violations.push(format!("BENCH_ray_march.json: {e}")),
        Ok(report) => {
            for (scalar_id, packet_id, speedup, cps) in [
                ("scalar_16cube_100rays", "packet_16cube_100rays", fixed_speedup, fixed.packet_cps),
                (
                    "scalar_16cube_thick_100rays",
                    "packet_16cube_thick_adaptive",
                    adaptive_speedup,
                    adaptive.packet_cps,
                ),
            ] {
                let checked_in = baseline(&report, scalar_id, "best_ns").and_then(|scalar_ns| {
                    let packet_ns = baseline(&report, packet_id, "best_ns")?;
                    Ok((scalar_ns / packet_ns, baseline(&report, packet_id, "throughput_per_sec")?))
                });
                match checked_in {
                    Err(e) => violations.push(format!("BENCH_ray_march.json: {e}")),
                    Ok((base_speedup, base_cps)) => {
                        println!("{packet_id} [host-limited]:  {cps:.0} cells/s (checked-in {base_cps:.0}; printed, not compared)");
                        println!("{packet_id} [model-limited]: {speedup:.2}x the frozen scalar (checked-in {base_speedup:.2}x)");
                        if speedup < base_speedup * (1.0 - REGRESSION_TOLERANCE) {
                            violations.push(format!(
                                "{packet_id} speedup over the frozen scalar {speedup:.2}x regressed more than {:.0}% below the checked-in {base_speedup:.2}x",
                                REGRESSION_TOLERANCE * 100.0
                            ));
                        }
                    }
                }
            }
        }
    }

    let detail = format!(
        "fixed >= {MIN_FIXED_SPEEDUP}x, adaptive >= {MIN_ADAPTIVE_SPEEDUP}x, \
         lanes >= {MIN_LANE_SPEEDUP}x, tolerance {REGRESSION_TOLERANCE}"
    );
    gate::finish(env!("CARGO_BIN_NAME"), &detail, &violations, &report_path)
}
