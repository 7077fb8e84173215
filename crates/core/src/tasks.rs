//! Uintah-runtime task declarations for the RMCRT pipelines.
//!
//! These are the library's equivalents of `Ray::sched_rayTrace` /
//! `Ray::sched_rayTrace_dataOnion` in Uintah: they wire the physics into
//! the distributed runtime so the benchmark runs across ranks, threads and
//! (simulated) GPUs.
//!
//! * [`multilevel_decls`] — the paper's data-onion algorithm: properties are
//!   computed on the fine mesh, restricted onto every coarse level, the
//!   coarse replicas are assembled by the all-to-all, and each fine patch
//!   traces rays on (fine ROI + coarse replicas).
//! * [`single_level_decls`] — the original single fine mesh algorithm whose
//!   `O(N²)` replication motivates the multi-level scheme.
//!
//! Both pipelines build their trace task from one `trace_decl`: the same
//! rays over a different level stack, with one GPU branch.

use crate::benchmark::BurnsChriston;
use crate::labels::{ABSKG, CELLTYPE, DIVQ, SIGMA_T4_OVER_PI};
use crate::props::LevelProps;
use crate::solver::{solve_region, solve_region_exec, RmcrtParams};
use crate::trace::TraceLevel;
use std::sync::Arc;
use uintah_exec::ops;
use uintah_grid::{CcVariable, FieldData, Grid, LevelIndex, Patch, Region, VarLabel};
use uintah_runtime::graph::ratio_between;
use uintah_runtime::{Computes, Requirement, TaskContext, TaskDecl};

/// Configuration of an RMCRT pipeline.
#[derive(Clone, Copy, Debug)]
pub struct RmcrtPipeline {
    pub params: RmcrtParams,
    /// Fine-level ROI halo in cells (ghost requirement of the trace task).
    pub halo: i32,
    pub problem: BurnsChriston,
}

impl Default for RmcrtPipeline {
    fn default() -> Self {
        Self {
            params: RmcrtParams::default(),
            halo: 4,
            problem: BurnsChriston::default(),
        }
    }
}

const PROP_LABELS: [VarLabel; 3] = [ABSKG, SIGMA_T4_OVER_PI, CELLTYPE];

/// Build the "initProperties" task: evaluate the benchmark's radiative
/// properties on each fine patch and deposit a restriction window onto
/// every level in `window_levels`. In single-level mode that is the fine
/// level itself, whose window at ratio 1 is the patch.
fn init_props_decl(problem: BurnsChriston, fine_li: LevelIndex, window_levels: Vec<LevelIndex>) -> TaskDecl {
    let levels_for_windows = window_levels.clone();
    let mut decl = TaskDecl::new(
        "RMCRT::initProperties",
        fine_li,
        Arc::new(move |ctx: &mut TaskContext| {
            let level = ctx.grid().level(ctx.patch().level_index());
            let region = ctx.patch().interior();
            let props = problem.props_for_region(level, region);
            for &li in &levels_for_windows {
                let rr = ratio_between(ctx.grid(), ctx.patch().level_index(), li);
                let window = region.coarsened(rr);
                let space = ctx.exec_space();
                ctx.put_level_window(
                    ABSKG,
                    li,
                    window,
                    FieldData::F64(ops::restrict_average(space, &props.abskg, rr, window)),
                );
                ctx.put_level_window(
                    SIGMA_T4_OVER_PI,
                    li,
                    window,
                    FieldData::F64(ops::restrict_average(
                        space,
                        &props.sigma_t4_over_pi,
                        rr,
                        window,
                    )),
                );
                ctx.put_level_window(
                    CELLTYPE,
                    li,
                    window,
                    FieldData::U8(ops::restrict_cell_type(space, &props.cell_type, rr, window)),
                );
            }
            ctx.put(ABSKG, FieldData::F64(props.abskg));
            ctx.put(SIGMA_T4_OVER_PI, FieldData::F64(props.sigma_t4_over_pi));
            ctx.put(CELLTYPE, FieldData::U8(props.cell_type));
        }),
    )
    .computes(Computes::PatchVar(ABSKG))
    .computes(Computes::PatchVar(SIGMA_T4_OVER_PI))
    .computes(Computes::PatchVar(CELLTYPE));
    for &li in &window_levels {
        for l in PROP_LABELS {
            decl = decl.computes(Computes::LevelWindow(l, li));
        }
    }
    decl
}

/// Assemble fine-ROI props from the (ghosted) data warehouse.
fn fine_roi_props(ctx: &TaskContext, halo: i32) -> LevelProps {
    let level = ctx.grid().level(ctx.patch().level_index());
    let abskg = ctx.get_ghosted_f64(ABSKG, halo);
    let region = abskg.region();
    LevelProps {
        region,
        anchor: level.anchor(),
        dx: level.dx(),
        abskg,
        sigma_t4_over_pi: ctx.get_ghosted_f64(SIGMA_T4_OVER_PI, halo),
        cell_type: ctx.get_ghosted_u8(CELLTYPE, halo),
    }
}

/// Assemble a level's props from its sealed whole-level replicas.
fn whole_level_props(ctx: &TaskContext, li: LevelIndex) -> LevelProps {
    let level = ctx.grid().level(li);
    LevelProps {
        region: level.cell_region(),
        anchor: level.anchor(),
        dx: level.dx(),
        abskg: ctx.get_level(ABSKG, li).as_f64().clone(),
        sigma_t4_over_pi: ctx.get_level(SIGMA_T4_OVER_PI, li).as_f64().clone(),
        cell_type: ctx.get_level(CELLTYPE, li).as_u8().clone(),
    }
}

/// The trace stack of one fine patch, coarsest level first: the coarsest
/// level whole, each intermediate level as the patch's coarsened ROI plus
/// `halo` cells, and the fine ROI, if any, last. `whole[k]` holds level
/// `levels[k]`. The trace task and [`reference_multilevel`] both build
/// their stacks here.
fn onion_stack<'a>(
    grid: &Grid,
    patch: &Patch,
    halo: i32,
    levels: &[LevelIndex],
    whole: &'a [LevelProps],
    fine: Option<&'a LevelProps>,
) -> Vec<TraceLevel<'a>> {
    let mut stack = Vec::with_capacity(whole.len() + 1);
    for (k, (&li, props)) in levels.iter().zip(whole).enumerate() {
        let roi = if k == 0 {
            props.region
        } else {
            let rr = ratio_between(grid, patch.level_index(), li);
            patch
                .interior()
                .coarsened(rr)
                .grown(halo)
                .intersect(&props.region)
        };
        stack.push(TraceLevel { props, roi });
    }
    if let Some(props) = fine {
        stack.push(TraceLevel {
            props,
            roi: props.region,
        });
    }
    stack
}

/// The ray-trace body shared by the CPU and GPU task variants, dispatched
/// on the scheduler-picked space: the metered Device space for GPU tasks
/// (one kernel launch per patch), a host space otherwise.
fn trace_patch(
    ctx: &TaskContext,
    pipeline: &RmcrtPipeline,
    levels: &[LevelIndex],
    fine: Option<&LevelProps>,
) -> CcVariable<f64> {
    let whole: Vec<LevelProps> = levels.iter().map(|&li| whole_level_props(ctx, li)).collect();
    let stack = onion_stack(ctx.grid(), ctx.patch(), pipeline.halo, levels, &whole, fine);
    solve_region_exec(&stack, ctx.patch().interior(), &pipeline.params, ctx.exec_space())
}

/// The trace task of both pipelines. It traces over the whole-level
/// replicas of `levels` (coarsest first) and, with `fine_roi`, over the
/// patch's ghosted fine ROI on top: `0..fine_li` plus the fine ROI is the
/// data onion, `[fine_li]` alone the single-level algorithm.
///
/// The CPU variant computes directly. The GPU variant stages the replicas
/// through the *level database* (one shared copy per level per device —
/// contribution ii) and holds those handles until the task ends. It also
/// stages the fine ROI into the patch database, which hands back no
/// handle: the database is each ROI input's only holder, so LRU eviction
/// may spill it from the moment it is staged (ROADMAP 6). The "kernel"
/// itself reads the host copies, not the device ones (ROADMAP 5). `divQ`
/// comes back over the metered D2H path. The task removes everything it
/// stages: `drop_patch` for its inputs, the take for its output.
fn trace_decl(pipeline: RmcrtPipeline, fine_li: LevelIndex, levels: Vec<LevelIndex>, fine_roi: bool, gpu: bool) -> TaskDecl {
    let traced = levels.clone();
    let body: uintah_runtime::TaskFn = Arc::new(move |ctx: &mut TaskContext| {
        let fine = fine_roi.then(|| fine_roi_props(ctx, pipeline.halo));
        if let (true, Some(gdw)) = (gpu, ctx.gpu()) {
            // Stage replicas via the level DB (uploaded at most once per
            // level per timestep, shared by all patch tasks). The handles
            // in `staged` stay alive until the task ends — without the
            // level DB this is what multiplies device memory by the number
            // of resident patch tasks. The epoch-aware variant keeps the
            // replica device-resident across timesteps, re-uploading only
            // bytes that actually changed since the last radiation solve.
            // Replicas land on the device this task's kernels dispatch to
            // (its patch's home device in the fleet): one shared copy per
            // level per *device*, never one per patch task.
            let dev = ctx.device_id();
            let mut staged = Vec::new();
            for &li in &traced {
                for l in PROP_LABELS {
                    let host = ctx.get_level(l, li);
                    staged.push(
                        gdw.ensure_level_fresh_on(dev, l, li, || (*host).clone())
                            .expect("device OOM staging level replica"),
                    );
                }
            }
            // Stage fine ROI inputs per patch. No handle comes back, so
            // these entries are eviction candidates at once.
            let pid = ctx.patch().id();
            if let Some(fine) = &fine {
                gdw.put_patch(ABSKG, pid, FieldData::F64(fine.abskg.clone()))
                    .expect("device OOM staging abskg");
                gdw.put_patch(SIGMA_T4_OVER_PI, pid, FieldData::F64(fine.sigma_t4_over_pi.clone()))
                    .expect("device OOM staging sigmaT4");
                gdw.put_patch(CELLTYPE, pid, FieldData::U8(fine.cell_type.clone()))
                    .expect("device OOM staging cellType");
            }
            // Kernel: the same math as on the host, dispatched on the Device
            // space — one metered launch per patch task. It reads the host
            // data in `ctx` and `fine`, not the entries staged above.
            let div_q = trace_patch(ctx, &pipeline, &traced, fine.as_ref());
            // The output's handle is held until it is taken back, so LRU
            // eviction can never spill it in between.
            let output = gdw
                .alloc_patch_output(DIVQ, pid, FieldData::F64(div_q))
                .expect("device OOM for divQ");
            // Output crosses PCIe back on this thread, metered on the home
            // device's D2H meter; inputs are dropped in place.
            let div_q = gdw
                .take_patch_to_host_async(DIVQ, pid)
                .expect("divQ resident: its handle is held")
                .wait();
            drop(output);
            if fine.is_some() {
                for l in PROP_LABELS {
                    gdw.drop_patch(l, pid);
                }
            }
            drop(staged); // release this task's claim on the replicas
            ctx.put(DIVQ, div_q);
        } else {
            let div_q = trace_patch(ctx, &pipeline, &traced, fine.as_ref());
            ctx.put(DIVQ, FieldData::F64(div_q));
        }
    });
    let name = match (fine_roi, gpu) {
        (true, false) => "RMCRT::rayTrace",
        (true, true) => "RMCRT::rayTraceGPU",
        (false, false) => "RMCRT::rayTrace1L",
        (false, true) => "RMCRT::rayTrace1LGPU",
    };
    let mut decl = TaskDecl::new(name, fine_li, body);
    if fine_roi {
        for l in PROP_LABELS {
            decl = decl.requires(Requirement::Ghost(l, pipeline.halo));
        }
    }
    decl = decl.computes(Computes::PatchVar(DIVQ));
    if gpu {
        decl = decl.on_gpu();
    }
    for &li in &levels {
        for l in PROP_LABELS {
            decl = decl.requires(Requirement::WholeLevel(l, li));
        }
    }
    decl
}

/// The multi-level (data-onion) pipeline for `grid`: properties on the fine
/// mesh, restriction windows to every coarser level, trace on fine ROI +
/// coarse replicas.
pub fn multilevel_decls(grid: &Grid, pipeline: RmcrtPipeline, gpu: bool) -> Vec<TaskDecl> {
    let fine_li = grid.fine_level_index();
    assert!(grid.num_levels() >= 2, "multi-level RMCRT needs >= 2 levels");
    // Restriction windows must tile each coarse level exactly: the fine
    // patch size must be divisible by the cumulative refinement ratio to
    // every coarse level.
    let psize = grid.fine_level().patch_size();
    for li in 0..fine_li {
        let rr = ratio_between(grid, fine_li, li);
        for a in 0..3 {
            assert!(
                psize[a] % rr[a] == 0,
                "fine patch size {psize:?} not divisible by the cumulative \
                 refinement ratio {rr:?} to level {li}: restriction windows \
                 would overlap"
            );
        }
    }
    let coarse: Vec<LevelIndex> = (0..fine_li).collect();
    vec![
        init_props_decl(pipeline.problem, fine_li, coarse.clone()),
        trace_decl(pipeline, fine_li, coarse, true, gpu),
    ]
}

/// The single-level pipeline: the whole fine mesh is replicated on every
/// rank (the `O(N²)` scheme the paper replaced).
pub fn single_level_decls(grid: &Grid, pipeline: RmcrtPipeline, gpu: bool) -> Vec<TaskDecl> {
    let fine_li = grid.fine_level_index();
    vec![
        init_props_decl(pipeline.problem, fine_li, vec![fine_li]),
        trace_decl(pipeline, fine_li, vec![fine_li], false, gpu),
    ]
}

/// Reference solve: single-level RMCRT over the whole fine mesh, serial,
/// no runtime involved. Ground truth for the distributed tests.
pub fn reference_single_level(grid: &Grid, pipeline: &RmcrtPipeline) -> CcVariable<f64> {
    let level = grid.fine_level();
    let props = pipeline.problem.props_for_level(level);
    let stack = [TraceLevel {
        props: &props,
        roi: props.region,
    }];
    solve_region(&stack, level.cell_region(), &pipeline.params)
}

/// Reference multi-level solve without the runtime: exact restriction of
/// the fine properties to each coarse level, per-patch ROI tracing.
pub fn reference_multilevel(grid: &Grid, pipeline: &RmcrtPipeline) -> CcVariable<f64> {
    let fine_level = grid.fine_level();
    let fine_li = grid.fine_level_index();
    let fine_props_all = pipeline.problem.props_for_level(fine_level);
    let serial = uintah_exec::ExecSpace::Serial;
    let coarse: Vec<LevelIndex> = (0..fine_li).collect();
    let coarse_props: Vec<LevelProps> = coarse
        .iter()
        .map(|&li| {
            let level = grid.level(li);
            let rr = ratio_between(grid, fine_li, li);
            let region = level.cell_region();
            LevelProps {
                region,
                anchor: level.anchor(),
                dx: level.dx(),
                abskg: ops::restrict_average(&serial, &fine_props_all.abskg, rr, region),
                sigma_t4_over_pi: ops::restrict_average(&serial, &fine_props_all.sigma_t4_over_pi, rr, region),
                cell_type: ops::restrict_cell_type(&serial, &fine_props_all.cell_type, rr, region),
            }
        })
        .collect();
    let mut out = CcVariable::new(fine_level.cell_region());
    for patch in fine_level.patches() {
        let roi: Region = patch
            .with_ghosts(pipeline.halo)
            .intersect(&fine_level.cell_region());
        let fine_roi = pipeline.problem.props_for_region(fine_level, roi);
        let stack = onion_stack(grid, patch, pipeline.halo, &coarse, &coarse_props, Some(&fine_roi));
        let part = solve_region(&stack, patch.interior(), &pipeline.params);
        out.copy_window(&part, &part.region());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decl_shapes() {
        let grid = BurnsChriston::small_grid(16, 8);
        let p = RmcrtPipeline {
            params: RmcrtParams {
                nrays: 4,
                ..Default::default()
            },
            halo: 2,
            problem: BurnsChriston::default(),
        };
        let ml = multilevel_decls(&grid, p, false);
        assert_eq!(ml.len(), 2);
        assert_eq!(ml[0].computes.len(), 3 + 3); // patch vars + L0 windows
        assert_eq!(ml[1].requires.len(), 3 + 3); // ghosts + whole-level
        let sl = single_level_decls(&grid, p, true);
        assert_eq!(sl[1].kind, uintah_runtime::TaskKind::Gpu);
    }

    #[test]
    fn reference_solvers_agree_within_mc_error() {
        // Multi-level with a generous halo vs single-level on a smooth
        // problem: the coarse far field changes each ray slightly, but the
        // per-cell divQ must agree within a few percent.
        let grid = BurnsChriston::small_grid(16, 8);
        let p = RmcrtPipeline {
            params: RmcrtParams {
                nrays: 64,
                threshold: 1e-4,
                ..Default::default()
            },
            halo: 4,
            problem: BurnsChriston::default(),
        };
        let sl = reference_single_level(&grid, &p);
        let ml = reference_multilevel(&grid, &p);
        let mut max_rel: f64 = 0.0;
        let mut mean_sl = 0.0;
        for c in sl.region().cells() {
            mean_sl += sl[c].abs();
        }
        mean_sl /= sl.len() as f64;
        for c in sl.region().cells() {
            let rel = (sl[c] - ml[c]).abs() / mean_sl;
            max_rel = max_rel.max(rel);
        }
        assert!(
            max_rel < 0.35,
            "multi-level deviates {max_rel} (relative to mean |divQ| {mean_sl})"
        );
    }
}
