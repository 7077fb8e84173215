//! The two ray-engine workloads: only `rmcrt-core` does work.
//!
//! * `trace_thin_fixed` — the paper's configuration: 2-level B&C, long rays
//!   that leave the fine ROI and finish on the coarse replica, a fixed
//!   budget under the Fixed-mode bit-identity contract.
//! * `trace_thick_adaptive` — the same marcher used the other way: short
//!   rays that extinguish within a few cells of an optically thick
//!   enclosure, no level crossing, variance-driven per-cell budgets.
//!
//! A DDA change that wins on the first can lose (or lose accuracy) on the
//! second; `runtime`, `gpu` and `comm` do nothing on either.

use super::{
    fill_e2e, ms, timed_setup, trace_overhead_pct, Busy, Clock, Op, Outcome, RunArgs, Window,
};
use crate::hostspeed::HostSpeed;
use crate::probes::{self, SolveSample};
use crate::problem::{
    centre_slab, checksum, reference_params, rel_l2_pct, scalar_bit_identity_holds,
    single_level_stack, slab_reference_two_level, thick_enclosure, TwoLevel,
};
use crate::span::Tracer;
use crate::stats::{percentile_sorted, summarize, SplitMix64};
use rmcrt_bench::scalar_march;
use rmcrt_core::tasks::{reference_multilevel, RmcrtPipeline};
use rmcrt_core::{
    solve_region, solve_region_with_stats, BurnsChriston, LevelProps, RayCountMode, RmcrtParams,
    SolveStats,
};
use std::time::Instant;
use uintah::prelude::ExecSpace;
use uintah_grid::CcVariable;

const SOLVE_SPAN: &str = "core::solve_region_with_stats";

struct ThinSizes {
    fine: i32,
    patch: i32,
    halo: i32,
    nrays: u32,
    threshold: f64,
    /// Rays per cell of the accuracy reference, and its slab thickness.
    ref_rays: u32,
    slab: i32,
    /// Edge of the single-level cube checked bitwise against the scalar marcher.
    scalar_check: i32,
    setup_reps: usize,
}

impl ThinSizes {
    fn pick(smoke: bool) -> Self {
        if smoke {
            Self {
                fine: 16,
                patch: 8,
                halo: 2,
                nrays: 8,
                threshold: 1e-3,
                ref_rays: 64,
                slab: 2,
                scalar_check: 8,
                setup_reps: 2,
            }
        } else {
            // Fine 32^3 in 16^3 patches over a coarse 8^3 replica, halo 4,
            // 100 rays/cell at threshold 1e-5: the paper's benchmark shape
            // at a size where one step (8 patch solves) is ~1 s here.
            Self {
                fine: 32,
                patch: 16,
                halo: 4,
                nrays: 100,
                threshold: 1e-5,
                ref_rays: 512,
                slab: 8,
                scalar_check: 16,
                setup_reps: 5,
            }
        }
    }
}

/// Layer counters a traced trace-workload run accumulates.
#[derive(Default)]
struct CoreCounters {
    rays: u64,
    cells: u64,
}

/// The traced run's tail, shared by both workloads: the `core.*` split
/// probes on one of the workload's stacks, then the layer metrics from the
/// solve spans (raw durations, put on the nominal clock by the window's
/// mean host-speed factor).
fn report_core_layer(
    out: &mut Outcome,
    mut tracer: Tracer,
    counters: &CoreCounters,
    w: &Window,
    sample: &SolveSample<'_>,
) {
    let nominal = w.mean_factor();
    let mut solve_ms: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == SOLVE_SPAN)
        .map(|s| s.duration_ns() as f64 / 1e6 * nominal)
        .collect();
    solve_ms.sort_by(f64::total_cmp);
    let solve_ms_total: f64 = solve_ms.iter().sum();

    tracer.set_enabled(true);
    probes::tracer_prepare(&mut out.layer, &mut tracer, sample.stack, sample.params);
    probes::trace_split(
        &mut out.layer,
        &mut tracer,
        sample,
        solve_ms_total * 1e6 / counters.rays as f64,
    );

    let l = &mut out.layer;
    l.set(
        "core.mrays_per_s",
        counters.rays as f64 / (solve_ms_total / 1e3) / 1e6,
    );
    l.set(
        "core.rays_per_cell",
        counters.rays as f64 / counters.cells as f64,
    );
    let s = summarize(&solve_ms);
    l.set("core.patch_solve_ms_p50", s.p50);
    l.set(
        "core.patch_solve_ms_p90",
        percentile_sorted(&solve_ms, 0.90),
    );
    l.set("harness.trace_overhead_pct", trace_overhead_pct(w));
    out.summaries.push(("core.patch_solve_ms_p50", s));
    out.spans = tracer.into_spans();
    out.track_names.insert(0, "harness".into());
}

// ---------------------------------------------------------------------------
// trace_thin_fixed
// ---------------------------------------------------------------------------

struct ThinInputs {
    grid: uintah_grid::Grid,
    two_level: TwoLevel,
}

/// One radiation step: every fine patch solved serially, in `order`, into
/// the level-sized `out`.
fn thin_step(
    inputs: &TwoLevel,
    order: &[usize],
    params: &RmcrtParams,
    out: &mut CcVariable<f64>,
    tracer: &mut Tracer,
    op: u64,
) -> SolveStats {
    let mut total = SolveStats::default();
    for &i in order {
        let stack = inputs.stack(i);
        let interior = inputs.patches[i].interior;
        let (part, stats) = tracer.scope(SOLVE_SPAN, op, || {
            solve_region_with_stats(&stack, interior, params, &ExecSpace::Serial)
        });
        out.copy_window(&part, &interior);
        total.total_rays += stats.total_rays;
        total.cells += stats.cells;
    }
    total
}

pub fn run_thin(args: &RunArgs) -> Outcome {
    let sz = ThinSizes::pick(args.smoke);
    let mut out = Outcome::default();
    let origin = Instant::now();
    let mut tracer = Tracer::new(false, origin, 0);
    let params = RmcrtParams {
        nrays: sz.nrays,
        threshold: sz.threshold,
        seed: args.seed,
        ..Default::default()
    };

    // --- set-up: grid + props + restriction + stacks + the cold first step.
    let mut first = None;
    let (inputs, setup_s) = timed_setup(
        sz.setup_reps,
        Clock::Nominal,
        || {
            let grid = BurnsChriston::small_grid(sz.fine, sz.patch);
            let two_level = TwoLevel::build(&grid, sz.halo, |_| true);
            let order: Vec<usize> = (0..two_level.patches.len()).collect();
            let mut field = CcVariable::<f64>::new(grid.fine_level().cell_region());
            thin_step(&two_level, &order, &params, &mut field, &mut tracer, 0);
            first = Some(field);
            ThinInputs { grid, two_level }
        },
        drop,
    );
    out.e2e.set("setup_s", setup_s);
    let mut field = first.expect("set-up ran");
    let cells = field.len() as u64;

    // --- references (excluded from setup_s).
    let t_verify = Instant::now();
    let pipeline = RmcrtPipeline {
        params,
        halo: sz.halo,
        problem: BurnsChriston::default(),
    };
    let want = checksum(reference_multilevel(&inputs.grid, &pipeline).as_slice());
    if checksum(field.as_slice()) != want {
        out.problems
            .push("set-up step is not bit-identical to reference_multilevel".into());
    }
    let check_grid = BurnsChriston::small_grid(sz.scalar_check, sz.scalar_check);
    let check_props = BurnsChriston::default().props_for_level(check_grid.fine_level());
    if !scalar_bit_identity_holds(&check_props, sz.nrays, sz.threshold, args.seed) {
        out.problems.push(format!(
            "single-level {0}^3 Fixed solve is not bit-identical to the frozen scalar marcher",
            sz.scalar_check
        ));
    }
    let slab = centre_slab(field.region(), sz.slab);
    let reference = slab_reference_two_level(
        &inputs.grid,
        sz.halo,
        slab,
        &reference_params(sz.ref_rays, sz.threshold),
    );
    out.e2e.set("divq_err_pct", rel_l2_pct(&field, &reference));
    out.verify = t_verify.elapsed();

    // --- timed window.
    let mut rng = SplitMix64(args.seed);
    let mut order: Vec<usize> = (0..inputs.two_level.patches.len()).collect();
    let mut counters = CoreCounters::default();
    let mut w = Window::default();
    let mut host = HostSpeed::start();
    let started = Instant::now();
    while w.open(started, args.seconds) {
        let traced = w.next_is_traced(args.trace);
        tracer.set_enabled(traced);
        rng.shuffle(&mut order);
        let op = w.ops.len() as u64 + 1;
        let t0 = Instant::now();
        let stats = thin_step(
            &inputs.two_level,
            &order,
            &params,
            &mut field,
            &mut tracer,
            op,
        );
        let raw_ms = ms(t0.elapsed());
        // Fixed mode is a frozen contract: every step reproduces the reference bits.
        let ok = checksum(field.as_slice()) == want && stats.total_rays == cells * sz.nrays as u64;
        w.ops.push(Op {
            raw_ms,
            factor: host.factor(),
            traced,
            verified: ok,
            kind: 0,
        });
        if traced {
            counters.rays += stats.total_rays;
            counters.cells += stats.cells;
        }
    }
    w.wall = started.elapsed();
    fill_e2e(&mut out, &w, 1, cells, Busy::Operations);

    if args.trace {
        let sample = SolveSample {
            stack: &inputs.two_level.stack(0),
            region: inputs.two_level.patches[0].interior,
            params: &params,
            rays_per_packet: sz.nrays,
        };
        report_core_layer(&mut out, tracer, &counters, &w, &sample);
    }
    out
}

// ---------------------------------------------------------------------------
// trace_thick_adaptive
// ---------------------------------------------------------------------------

struct ThickSizes {
    n: i32,
    min: u32,
    max: u32,
    rel_var_target: f64,
    threshold: f64,
    ref_rays: u32,
    slab: i32,
    scalar_check: i32,
    setup_reps: usize,
}

impl ThickSizes {
    fn pick(smoke: bool) -> Self {
        if smoke {
            Self {
                n: 8,
                min: 4,
                max: 16,
                rel_var_target: 0.05,
                threshold: 0.05,
                ref_rays: 128,
                slab: 2,
                scalar_check: 8,
                setup_reps: 2,
            }
        } else {
            Self {
                n: 32,
                min: 16,
                max: 100,
                rel_var_target: 0.05,
                threshold: 0.05,
                ref_rays: 512,
                slab: 8,
                scalar_check: 16,
                setup_reps: 5,
            }
        }
    }
}

pub fn run_thick(args: &RunArgs) -> Outcome {
    let sz = ThickSizes::pick(args.smoke);
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(false, Instant::now(), 0);
    let params = RmcrtParams {
        nrays: sz.max,
        threshold: sz.threshold,
        seed: args.seed,
        ray_count: Some(RayCountMode::Adaptive {
            min: sz.min,
            max: sz.max,
            rel_var_target: sz.rel_var_target,
        }),
        ..Default::default()
    };
    let solve = |props: &LevelProps, tracer: &mut Tracer, op: u64| {
        let stack = single_level_stack(props);
        tracer.scope(SOLVE_SPAN, op, || {
            solve_region_with_stats(&stack, props.region, &params, &ExecSpace::Serial)
        })
    };

    // --- set-up: props + the cold first step.
    let mut first = None;
    let (props, setup_s) = timed_setup(
        sz.setup_reps,
        Clock::Nominal,
        || {
            let props = thick_enclosure(sz.n);
            first = Some(solve(&props, &mut tracer, 0));
            props
        },
        drop,
    );
    out.e2e.set("setup_s", setup_s);
    let (field, first_stats) = first.expect("set-up ran");
    let cells = field.len() as u64;
    let want = checksum(field.as_slice());

    // --- references. Adaptive bits may legitimately change with the
    // stopping rule; what holds the answer is divq_err_pct. Bitwise, the
    // map-dispatched solve must equal the fill-dispatched one, and Fixed
    // mode on this geometry must equal the frozen scalar marcher.
    let t_verify = Instant::now();
    let stack = single_level_stack(&props);
    if checksum(solve_region(&stack, props.region, &params).as_slice()) != want {
        out.problems
            .push("solve_region_with_stats and solve_region disagree bitwise".into());
    }
    if !scalar_bit_identity_holds(
        &thick_enclosure(sz.scalar_check),
        sz.max,
        sz.threshold,
        args.seed,
    ) {
        out.problems.push(format!(
            "single-level {0}^3 Fixed solve is not bit-identical to the frozen scalar marcher",
            sz.scalar_check
        ));
    }
    let slab = centre_slab(props.region, sz.slab);
    let reference = scalar_march::solve_region_scalar(
        &stack,
        slab,
        &reference_params(sz.ref_rays, sz.threshold),
    );
    out.e2e.set("divq_err_pct", rel_l2_pct(&field, &reference));
    out.verify = t_verify.elapsed();

    // The workload exists to exercise budgets that stop early but not at the floor.
    let rays_per_cell = first_stats.total_rays as f64 / cells as f64;
    if !(rays_per_cell > sz.min as f64 && rays_per_cell < sz.max as f64) {
        out.problems.push(format!(
            "adaptive budget did no work: {rays_per_cell:.1} rays/cell is not inside ({}, {})",
            sz.min, sz.max
        ));
    }

    // --- timed window.
    let mut counters = CoreCounters::default();
    let mut w = Window::default();
    let mut host = HostSpeed::start();
    let started = Instant::now();
    while w.open(started, args.seconds) {
        let traced = w.next_is_traced(args.trace);
        tracer.set_enabled(traced);
        let op = w.ops.len() as u64 + 1;
        let t0 = Instant::now();
        let (field, stats) = solve(&props, &mut tracer, op);
        let raw_ms = ms(t0.elapsed());
        let ok = checksum(field.as_slice()) == want && stats == first_stats;
        w.ops.push(Op {
            raw_ms,
            factor: host.factor(),
            traced,
            verified: ok,
            kind: 0,
        });
        if traced {
            counters.rays += stats.total_rays;
            counters.cells += stats.cells;
        }
    }
    w.wall = started.elapsed();
    fill_e2e(&mut out, &w, 1, cells, Busy::Operations);

    if args.trace {
        let sample = SolveSample {
            stack: &stack,
            region: props.region,
            params: &params,
            rays_per_packet: sz.min,
        };
        report_core_layer(&mut out, tracer, &counters, &w, &sample);
    }
    out
}
