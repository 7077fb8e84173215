//! The two full-runtime workloads: `run_world` end to end.
//!
//! * `step_cpu_smallpatch` — 4^3 patches make tasks tiny, so graph,
//!   scheduler, warehouse put/get, level-window packing and message
//!   matching carry the step: the paper's Table I regime. A DDA speed-up
//!   should move it by at most the task share.
//! * `step_gpu_oversub` — GPU tasks on a 2-device fleet per rank whose
//!   capacity is 0.6 x the measured peak, with a regrid every 4th step: the
//!   data path (level-replica residency, staged H2D, async D2H, LRU
//!   eviction + spill, sub-allocator churn, regrid invalidation) does real
//!   work. The `trace_*` workloads must not move when it changes.

use super::{
    fill_e2e, ms, timed_setup, trace_overhead_pct, Busy, Clock, Op, Outcome, RunArgs, Window,
};
use crate::metrics::Measured;
use crate::probes;
use crate::problem::{
    centre_slab, checksum, gather_divq, reference_params, rel_l2_pct, slab_reference_two_level,
    TwoLevel,
};
use crate::span::Tracer;
use crate::stats::{percentile_sorted, summarize};
use rmcrt_core::tasks::{multilevel_decls, reference_multilevel, RmcrtPipeline};
use rmcrt_core::{BurnsChriston, RmcrtParams};
use std::sync::Arc;
use std::time::{Duration, Instant};
use uintah_grid::{Grid, PatchCosts, RebalancePolicy};
use uintah_runtime::{run_world, ExecStats, StoreKind, TaskDecl, WorldConfig, WorldResult};

const CALL_SPAN: &str = "runtime::run_world";
const STEP_SPAN: &str = "runtime::step";
/// Rank timelines are drawn on tracks 10, 11, ...
const RANK_TRACK0: u32 = 10;

struct GpuSizes {
    gpus_per_rank: usize,
    regrid_interval: usize,
    /// Per-device capacity as a share of the unlimited-capacity peak.
    /// 0.5 OOMs (one task's ROI working set is about a third of the peak);
    /// 0.6 evicts on every step and still completes.
    capacity_share: f64,
    probe_steps: usize,
}

struct StepSizes {
    fine: i32,
    patch: i32,
    halo: i32,
    nrays: u32,
    threshold: f64,
    nranks: usize,
    steps_per_call: usize,
    gpu: Option<GpuSizes>,
    ref_rays: u32,
    slab: i32,
    setup_reps: usize,
}

impl StepSizes {
    fn cpu_smallpatch(smoke: bool) -> Self {
        Self {
            fine: if smoke { 16 } else { 32 },
            // 4^3 patches: 512 fine patches of 64 cells at 2 rays/cell, so
            // a task body is microseconds and the runtime is what is timed.
            patch: 4,
            halo: if smoke { 2 } else { 4 },
            nrays: 2,
            threshold: 0.05,
            nranks: 2,
            steps_per_call: if smoke { 2 } else { 25 },
            gpu: None,
            ref_rays: if smoke { 32 } else { 128 },
            slab: 4,
            setup_reps: if smoke { 2 } else { 5 },
        }
    }

    fn gpu_oversub(smoke: bool) -> Self {
        Self {
            fine: if smoke { 16 } else { 64 },
            patch: if smoke { 8 } else { 16 },
            halo: if smoke { 2 } else { 4 },
            nrays: 2,
            threshold: 0.05,
            nranks: 2,
            steps_per_call: if smoke { 2 } else { 10 },
            gpu: Some(GpuSizes {
                gpus_per_rank: 2,
                regrid_interval: if smoke { 1 } else { 4 },
                capacity_share: 0.6,
                probe_steps: 2,
            }),
            ref_rays: if smoke { 32 } else { 128 },
            slab: 4,
            setup_reps: if smoke { 2 } else { 5 },
        }
    }

    fn pipeline(&self, seed: u64) -> RmcrtPipeline {
        RmcrtPipeline {
            params: RmcrtParams {
                nrays: self.nrays,
                threshold: self.threshold,
                seed,
                ..Default::default()
            },
            halo: self.halo,
            problem: BurnsChriston::default(),
        }
    }

    fn world(&self, timesteps: usize, gpu_capacity: Option<usize>) -> WorldConfig {
        WorldConfig {
            nranks: self.nranks,
            nthreads: 1,
            store: StoreKind::WaitFree,
            timesteps,
            gpu_capacity,
            gpus_per_rank: self.gpu.as_ref().map_or(1, |g| g.gpus_per_rank),
            regrid_interval: self.gpu.as_ref().map(|g| g.regrid_interval),
            // A cost-driven rebalance moves whatever the measured task times
            // say — some calls nothing at all. Rotating ownership makes
            // every regrid the same full flip: the same migration,
            // invalidation and recompile on every run.
            regrid_policy: RebalancePolicy::Rotate(1),
            ..Default::default()
        }
    }
}

/// What every `run_world` call of a workload shares.
struct World {
    grid: Arc<Grid>,
    decls: Arc<Vec<TaskDecl>>,
}

impl World {
    fn call(&self, cfg: WorldConfig) -> WorldResult {
        run_world(Arc::clone(&self.grid), Arc::clone(&self.decls), cfg)
    }
}

fn max_device_peak(result: &WorldResult) -> u64 {
    result
        .ranks
        .iter()
        .filter_map(|r| r.gpu.as_ref())
        .flat_map(|g| g.counters_per_device())
        .map(|c| c.peak)
        .max()
        .unwrap_or(0)
}

/// A GPU operation also fails on a fleet that does not drain to 0 B or on
/// any release underflow.
fn fleets_drain_clean(result: &WorldResult) -> bool {
    result.ranks.iter().filter_map(|r| r.gpu.as_ref()).all(|g| {
        g.clear_patch_db();
        g.clear_level_db();
        (0..g.num_devices()).all(|d| g.device_at(d).used() == 0)
            && g.counters_per_device()
                .iter()
                .all(|c| c.release_underflows == 0)
    })
}

/// The rank whose steps took longest: its timeline is the call's critical path.
fn slowest_rank(result: &WorldResult) -> &[ExecStats] {
    &result
        .ranks
        .iter()
        .max_by_key(|r| r.stats.iter().map(|s| s.wall).sum::<Duration>())
        .expect("a world has ranks")
        .stats
}

/// Time a step's stats account for: the scheduler's wall plus what the
/// executor spends around it (graph compile, regrid migration).
fn step_span(s: &ExecStats) -> Duration {
    s.wall + s.graph_compile + s.migrate_wall
}

/// Layer counters accumulated over the traced calls of a window.
#[derive(Default)]
struct LayerSums {
    calls: u64,
    steps: u64,
    call_wall: Duration,
    // slowest rank
    step_wall_ms: Vec<f64>,
    accounted: Duration,
    wall: Duration,
    task: Duration,
    comm: Duration,
    idle: Duration,
    compile: Duration,
    xfer_wait: Duration,
    parks: u64,
    tasks: u64,
    raytrace: Duration,
    initprops: Duration,
    regrids: u64,
    regrid_time: Duration,
    recv_per_step: u64,
    // all ranks
    msgs: u64,
    bytes: u64,
    migrated_bytes: u64,
    recycle_hits: u64,
    recycle_misses: u64,
    kernel_launches: u64,
    kernel_invocations: u64,
    kernel_wall: Duration,
    h2d_bytes: u64,
    d2h_bytes: u64,
    h2d_busy_ns: u64,
    d2h_busy_ns: u64,
    h2d_wait: Duration,
    d2h_wait: Duration,
    h2d_overlap: Duration,
    d2h_overlap: Duration,
    evictions: u64,
    spill_bytes: u64,
    reupload_bytes: u64,
    peak_bytes_max: u64,
    alloc_failures: u64,
    frag_failures: u64,
    h2d_transfers: u64,
    staging_hits: u64,
}

impl LayerSums {
    fn add_call(&mut self, result: &WorldResult, call_wall: Duration) {
        self.calls += 1;
        self.call_wall += call_wall;
        let slow = slowest_rank(result);
        self.steps += slow.len() as u64;
        for s in slow {
            self.step_wall_ms.push(ms(s.wall));
            self.accounted += step_span(s);
            self.wall += s.wall;
            self.task += s.task_time;
            self.comm += s.local_comm;
            self.idle += s.idle;
            self.compile += s.graph_compile;
            self.xfer_wait += s.gpu_d2h_wait + s.gpu_h2d_wait;
            self.parks += s.parks as u64;
            self.tasks += s.tasks_executed as u64;
            for &(name, _, d) in &s.per_task {
                if name.starts_with("RMCRT::rayTrace") {
                    self.raytrace += d;
                } else if name == "RMCRT::initProperties" {
                    self.initprops += d;
                }
            }
            self.regrids += s.regrids as u64;
            self.regrid_time += s.regrid_compile + s.migrate_wall;
        }
        self.recv_per_step = slow.last().map_or(0, |s| s.messages_received as u64);
        self.msgs += result.total_messages() as u64;
        self.bytes += result.total_bytes();
        for r in &result.ranks {
            self.recycle_hits += r.dw.recycle_hits();
            self.recycle_misses += r.dw.recycle_misses();
            for s in &r.stats {
                self.migrated_bytes += s.migrated_bytes;
                self.kernel_launches += s.kernel_stats.launches;
                self.kernel_invocations += s.kernel_stats.invocations;
                self.kernel_wall += s.kernel_stats.wall();
                self.h2d_bytes += s.gpu_h2d_bytes;
                self.d2h_bytes += s.gpu_d2h_bytes;
                self.h2d_wait += s.gpu_h2d_wait;
                self.d2h_wait += s.gpu_d2h_wait;
                self.h2d_overlap += s.gpu_h2d_overlap;
                self.d2h_overlap += s.gpu_d2h_overlap;
                self.evictions += s.gpu_evictions;
                self.spill_bytes += s.gpu_spill_bytes;
                self.reupload_bytes += s.gpu_reupload_bytes;
                for d in &s.per_device {
                    self.h2d_busy_ns += d.h2d_busy_ns;
                    self.d2h_busy_ns += d.d2h_busy_ns;
                    self.peak_bytes_max = self.peak_bytes_max.max(d.peak_bytes);
                }
            }
            if let Some(g) = &r.gpu {
                self.staging_hits += g.staging_reuse_hits();
                for c in g.counters_per_device() {
                    self.alloc_failures += c.alloc_failures;
                    self.frag_failures += c.frag_failures;
                    self.h2d_transfers += c.h2d_transfers;
                }
            }
        }
    }

    fn report(&self, out: &mut Outcome, gpu: bool) {
        let steps = self.steps as f64;
        let per_step_ms = |d: Duration| ms(d) / steps;
        let pct = |part: f64, whole: f64| {
            if whole > 0.0 {
                100.0 * part / whole
            } else {
                0.0
            }
        };
        let l = &mut out.layer;

        let mut walls: Vec<f64> = self.step_wall_ms.clone();
        walls.sort_by(f64::total_cmp);
        let s = summarize(&walls);
        l.set("runtime.step_wall_ms_p50", s.p50);
        l.set("runtime.step_wall_ms_p90", percentile_sorted(&walls, 0.90));
        out.summaries.push(("runtime.step_wall_ms_p50", s));
        l.set("runtime.task_ms_per_step", per_step_ms(self.task));
        l.set(
            "runtime.task_share_pct",
            pct(self.task.as_secs_f64(), self.wall.as_secs_f64()),
        );
        l.set("runtime.local_comm_ms_per_step", per_step_ms(self.comm));
        l.set("runtime.idle_ms_per_step", per_step_ms(self.idle));
        l.set("runtime.parks_per_step", self.parks as f64 / steps);
        l.set("runtime.tasks_per_step", self.tasks as f64 / steps);
        l.set(
            "runtime.raytrace_task_ms_per_step",
            per_step_ms(self.raytrace),
        );
        l.set(
            "runtime.initprops_task_ms_per_step",
            per_step_ms(self.initprops),
        );
        let whole = (self.wall + self.compile).as_secs_f64();
        let named =
            (self.task + self.comm + self.idle + self.compile + self.xfer_wait).as_secs_f64();
        l.set("runtime.unaccounted_pct", pct(whole - named, whole));
        let gap = pct(
            self.call_wall.as_secs_f64() - self.accounted.as_secs_f64(),
            self.call_wall.as_secs_f64(),
        );
        l.set("runtime.wall_gap_pct", gap);
        if gap.abs() > 5.0 {
            out.flags.push(format!(
                "sum of step walls differs from the harness-clock call wall by {gap:.1} % (> 5 %)"
            ));
        }
        if self.regrids > 0 {
            l.set(
                "runtime.regrid_ms",
                ms(self.regrid_time) / self.regrids as f64,
            );
            l.set(
                "runtime.migrated_kb_per_regrid",
                self.migrated_bytes as f64 / 1024.0 / self.regrids as f64,
            );
        }
        l.set(
            "runtime.recycle_hit_pct",
            pct(
                self.recycle_hits as f64,
                (self.recycle_hits + self.recycle_misses) as f64,
            ),
        );
        l.set("comm.msgs_per_step", self.msgs as f64 / steps);
        l.set("comm.kb_per_step", self.bytes as f64 / 1024.0 / steps);

        // The device layers: measured as 0 on the CPU workload (isolation).
        l.set(
            "exec.kernel_launches_per_step",
            self.kernel_launches as f64 / steps,
        );
        l.set(
            "exec.kernel_invocations_per_step",
            self.kernel_invocations as f64 / steps,
        );
        l.set(
            "exec.kernel_wall_ms_per_step",
            per_step_ms(self.kernel_wall),
        );
        l.set("gpu.h2d_mb_per_step", self.h2d_bytes as f64 / 1e6 / steps);
        l.set("gpu.d2h_mb_per_step", self.d2h_bytes as f64 / 1e6 / steps);
        l.set(
            "gpu.h2d_busy_ms_per_step",
            self.h2d_busy_ns as f64 / 1e6 / steps,
        );
        l.set(
            "gpu.d2h_busy_ms_per_step",
            self.d2h_busy_ns as f64 / 1e6 / steps,
        );
        l.set("gpu.h2d_wait_ms_per_step", per_step_ms(self.h2d_wait));
        l.set("gpu.d2h_wait_ms_per_step", per_step_ms(self.d2h_wait));
        let overlap = |hidden: Duration, waited: Duration| {
            pct(hidden.as_secs_f64(), (hidden + waited).as_secs_f64())
        };
        l.set(
            "gpu.h2d_overlap_pct",
            overlap(self.h2d_overlap, self.h2d_wait),
        );
        l.set(
            "gpu.d2h_overlap_pct",
            overlap(self.d2h_overlap, self.d2h_wait),
        );
        l.set("gpu.evictions_per_step", self.evictions as f64 / steps);
        l.set(
            "gpu.spill_kb_per_step",
            self.spill_bytes as f64 / 1024.0 / steps,
        );
        l.set(
            "gpu.reupload_kb_per_step",
            self.reupload_bytes as f64 / 1024.0 / steps,
        );
        l.set("gpu.peak_bytes_max", self.peak_bytes_max as f64);
        l.set(
            "gpu.alloc_failures",
            self.alloc_failures as f64 / self.calls as f64,
        );
        l.set(
            "gpu.frag_failures",
            self.frag_failures as f64 / self.calls as f64,
        );
        l.set(
            "gpu.staging_reuse_pct",
            pct(self.staging_hits as f64, self.h2d_transfers as f64),
        );

        // A workload whose target layer did no work fails loudly.
        let mut need = |ok: bool, what: &str| {
            if !ok {
                out.problems.push(format!("did no work: {what}"));
            }
        };
        need(self.msgs > 0, "no messages were sent");
        if gpu {
            need(
                self.evictions > 0,
                "no LRU evictions under 0.6 x peak capacity",
            );
            need(self.spill_bytes > 0, "no bytes spilled to host");
            need(
                self.h2d_bytes > 0 && self.d2h_bytes > 0,
                "no H2D or no D2H bytes moved",
            );
            need(
                self.h2d_busy_ns > 0 && self.d2h_busy_ns > 0,
                "a copy engine was never busy",
            );
            need(self.regrids > 0, "no regrid changed ownership");
        } else {
            let share = pct(self.task.as_secs_f64(), self.wall.as_secs_f64());
            need(
                share < 80.0,
                "task share >= 80 %: the runtime is not visible on 4^3 patches",
            );
            need(
                self.h2d_bytes + self.d2h_bytes + self.evictions + self.kernel_launches == 0,
                "the device layers moved on a CPU-only workload",
            );
        }
    }
}

fn run(args: &RunArgs, sz: StepSizes) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(false, Instant::now(), 0);
    let pipeline = sz.pipeline(args.seed);
    let is_gpu = sz.gpu.is_some();

    // --- set-up: grid + decls (+ the capacity probe) + one cold step.
    // `capacity`: per-device capacity of the timed runs (GPU workload only);
    // `first`: the cold one-step run, whose divQ is the accuracy sample.
    let ((world, capacity, first), setup_s) = timed_setup(
        sz.setup_reps,
        Clock::Raw,
        || {
            let grid = Arc::new(BurnsChriston::small_grid(sz.fine, sz.patch));
            let decls = Arc::new(multilevel_decls(&grid, pipeline, is_gpu));
            let world = World { grid, decls };
            let capacity = sz.gpu.as_ref().map(|g| {
                let unlimited = world.call(sz.world(g.probe_steps, Some(6 << 30)));
                (max_device_peak(&unlimited) as f64 * g.capacity_share) as usize
            });
            let first = world.call(sz.world(1, capacity));
            (world, capacity, first)
        },
        drop,
    );
    out.e2e.set("setup_s", setup_s);
    let grid = &world.grid;
    let cells = grid.fine_level().num_cells() as u64;

    // --- references (excluded from setup_s).
    let t_verify = Instant::now();
    let want = checksum(reference_multilevel(grid, &pipeline).as_slice());
    let first_field = gather_divq(grid, &first);
    let first_costs = measured_costs(grid, &first);
    drop(first);
    if checksum(first_field.as_slice()) != want {
        out.problems
            .push("set-up step is not bit-identical to reference_multilevel".into());
    }
    let slab = centre_slab(first_field.region(), sz.slab);
    let reference = slab_reference_two_level(
        grid,
        sz.halo,
        slab,
        &reference_params(sz.ref_rays, sz.threshold),
    );
    out.e2e
        .set("divq_err_pct", rel_l2_pct(&first_field, &reference));
    out.verify = t_verify.elapsed();

    // --- timed window: one operation = one run_world call, on the raw
    // clock (2-rank steps are memory- and synchronisation-bound and do not
    // follow the calibration kernel, see `hostspeed`).
    let cfg = sz.world(sz.steps_per_call, capacity);
    let mut sums = LayerSums::default();
    let mut w = Window::default();
    let started = Instant::now();
    while w.open(started, args.seconds) {
        let traced = w.next_is_traced(args.trace);
        tracer.set_enabled(traced);
        let op = w.ops.len() as u64 + 1;
        let span = tracer.begin(CALL_SPAN, op);
        let call_start_ns = tracer.clock_ns();
        let t0 = Instant::now();
        let result = world.call(cfg.clone());
        let wall = t0.elapsed();
        if traced {
            // Rank timelines laid out from the per-step stats each rank published.
            for r in &result.ranks {
                let mut at = call_start_ns;
                for s in &r.stats {
                    let end = at + step_span(s).as_nanos() as u64;
                    tracer.add_derived(STEP_SPAN, RANK_TRACK0 + r.rank as u32, op, at, end);
                    at = end;
                }
            }
            sums.add_call(&result, wall);
        }
        tracer.end(span);
        let ok = checksum(gather_divq(grid, &result).as_slice()) == want
            && slowest_rank(&result).len() == sz.steps_per_call;
        // Draining the fleets clears the warehouses, so it comes after the counters are read.
        w.ops.push(Op {
            raw_ms: ms(wall),
            factor: 1.0,
            traced,
            verified: ok && fleets_drain_clean(&result),
            kind: 0,
        });
    }
    w.wall = started.elapsed();
    fill_e2e(
        &mut out,
        &w,
        sz.steps_per_call as u64,
        cells,
        Busy::Operations,
    );

    if args.trace {
        tracer.set_enabled(true);
        sums.report(&mut out, is_gpu);
        out.layer
            .set("harness.trace_overhead_pct", trace_overhead_pct(&w));
        run_probes(
            &mut out.layer,
            &mut tracer,
            &sz,
            &pipeline.params,
            &world,
            first_costs,
            &sums,
        );
        if let Some(capacity) = capacity {
            run_gpu_probes(&mut out.layer, &mut tracer, &sz, capacity, args.seed);
        }
        out.spans = tracer.into_spans();
        out.track_names.insert(0, "harness".into());
        for r in 0..sz.nranks as u32 {
            out.track_names
                .insert(RANK_TRACK0 + r, format!("rank {r} (from ExecStats)"));
        }
    }
    out
}

/// The layer probes both step workloads run, at this workload's sizes.
fn run_probes(
    layer: &mut Measured,
    tracer: &mut Tracer,
    sz: &StepSizes,
    params: &RmcrtParams,
    world: &World,
    costs: PatchCosts,
    sums: &LayerSums,
) {
    let inputs = TwoLevel::build(&world.grid, sz.halo, |p| {
        p.lattice_pos() == uintah_grid::IntVector::splat(0)
    });
    let stack = inputs.stack(0);
    probes::exec(layer, tracer, &stack, inputs.patches[0].interior, params);
    probes::tracer_prepare(layer, tracer, &stack, params);
    probes::comm(
        layer,
        tracer,
        sums.recv_per_step.max(1) as usize,
        (sums.bytes / sums.msgs.max(1)) as usize,
    );
    let (fine, patch) = (sz.fine, sz.patch);
    probes::grid_and_graph(
        layer,
        tracer,
        || BurnsChriston::small_grid(fine, patch),
        &world.decls,
        sz.nranks,
        costs,
    );
}

/// The device-side probes, at the GPU workload's block sizes and capacity.
fn run_gpu_probes(
    layer: &mut Measured,
    tracer: &mut Tracer,
    sz: &StepSizes,
    capacity: usize,
    seed: u64,
) {
    let roi = (sz.patch + 2 * sz.halo) as u64;
    let (patch, coarse) = (sz.patch as u64, (sz.fine / 4) as u64);
    // f64 + f64 + u8 ROI inputs, the f64 output, and the three coarse replicas.
    let sizes = [
        roi.pow(3) * 8,
        roi.pow(3) * 8,
        roi.pow(3),
        patch.pow(3) * 8,
        coarse.pow(3) * 8,
        coarse.pow(3) * 8,
        coarse.pow(3),
    ];
    probes::mem(layer, tracer, capacity as u64, &sizes, seed);
    probes::gpu_front_door(layer, tracer, roi as i32, sz.patch, sz.fine / 4);
    probes::titan(layer, tracer);
}

/// Per-patch task seconds of a finished call, as the regridder's cost input.
fn measured_costs(grid: &Grid, result: &WorldResult) -> PatchCosts {
    let mut cost = vec![0.0f64; grid.num_patches()];
    for r in &result.ranks {
        for s in &r.stats {
            for &(pid, d) in &s.per_patch {
                cost[pid.index()] += d.as_secs_f64();
            }
        }
    }
    PatchCosts::from_values(cost)
}

pub fn run_cpu_smallpatch(args: &RunArgs) -> Outcome {
    run(args, StepSizes::cpu_smallpatch(args.smoke))
}

pub fn run_gpu_oversub(args: &RunArgs) -> Outcome {
    run(args, StepSizes::gpu_oversub(args.smoke))
}
