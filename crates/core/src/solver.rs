//! ∇·q solvers: per cell, per region, per patch; serial and threaded.
//!
//! Every entry point marches *runs*, not cells (DESIGN §9 "Runs"). A run
//! is a block of consecutive cells, in canonical x-fastest order, whose
//! first ray batches fill one [`RayPacket`] of [`RUN_RAYS`] rays. The run
//! is traced in rounds: a round packs the next batch of every cell of the
//! run that has not met its budget (Fixed mode: the one batch of `n` rays;
//! Adaptive mode: the geometric batches of the variance-driven budget), in
//! packets of at most `RUN_RAYS` rays — a batch that does not fit carries
//! on in the next packet — then folds each cell's rays, in ray order, into
//! that cell's sums and applies its stop test. A cell draws the same rays
//! from the same streams, and its rays march the same FP sequence in any
//! packet, so every cell gets the bits a one-cell packet gives it; what a
//! run saves is the per-packet set-up and the lanes' drain tail that a
//! packet of a few rays pays per cell. Scratch is bounded by `RUN_RAYS`
//! rays whatever the budget, but for the Latin-hypercube permutation,
//! which covers a whole batch.

use crate::packet::{MarchStats, PacketTracer, RayPacket};
use crate::props::LevelProps;
use crate::rng::{polar, CellRng};
use crate::sampling::{DirectionSampler, RaySampling, MAX_LHC_BATCH};
use crate::trace::{TraceLevel, TraceOptions};
use std::f64::consts::PI;
use uintah_exec::RunCells;
use uintah_grid::{CcVariable, IntVector, Region};

/// Per-cell ray-budget policy.
///
/// A budget of zero rays (`Fixed(0)`, `Adaptive { max: 0, .. }`) has no
/// mean intensity to report: every solve entry point panics on it, naming
/// the parameter, as `RunConfig::validate` rejects it in a config text.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RayCountMode {
    /// Exactly `n` rays per cell — the bit-identity reference mode (the
    /// historical behavior; `tests/exec_spaces.rs` pins it across spaces).
    Fixed(u32),
    /// Variance-driven budgets in the style of adaptive ray counting:
    /// trace geometrically growing batches starting at `min` rays and stop
    /// once the relative standard error of the mean intensity falls to
    /// `rel_var_target`, or at `max` rays. Optically thick cells converge
    /// at `min` (their rays extinguish locally via the optical-depth
    /// threshold); high-variance cells escalate toward `max`.
    Adaptive {
        min: u32,
        max: u32,
        rel_var_target: f64,
    },
}

impl RayCountMode {
    /// The most rays one batch of this budget draws for a cell: `n` for
    /// `Fixed(n)`; for `Adaptive` the largest of the doubling batches, the
    /// last one cut to what is left of `max`. A Latin-hypercube batch
    /// keeps a stratum per ray, so this is what
    /// [`crate::sampling::MAX_LHC_BATCH`] bounds.
    pub fn largest_batch(self) -> u32 {
        Budget::of(self).largest_batch()
    }
}

/// Monte Carlo parameters of an RMCRT solve.
#[derive(Clone, Copy, Debug)]
pub struct RmcrtParams {
    /// Rays per cell (the paper's benchmarks use 100). Used when
    /// `ray_count` is `None` (i.e. `Fixed(nrays)`).
    pub nrays: u32,
    /// Intensity threshold below which a ray is extinguished.
    pub threshold: f64,
    /// Global seed (combined with cell/ray/timestep for determinism).
    pub seed: u64,
    /// Timestep index, so successive radiation solves decorrelate.
    pub timestep: u32,
    /// Direction sampling strategy (independent or Latin-hypercube).
    pub sampling: RaySampling,
    /// Ray-budget policy; `None` means `Fixed(nrays)`.
    pub ray_count: Option<RayCountMode>,
}

impl Default for RmcrtParams {
    fn default() -> Self {
        Self {
            nrays: 100,
            threshold: 0.05,
            seed: 0x5EED,
            timestep: 0,
            sampling: RaySampling::Independent,
            ray_count: None,
        }
    }
}

impl RmcrtParams {
    /// The effective ray-count policy.
    pub fn ray_count_mode(&self) -> RayCountMode {
        self.ray_count.unwrap_or(RayCountMode::Fixed(self.nrays))
    }

    /// The tracer of a solve of `region` with these parameters, prepared
    /// once per solve; [`RmcrtParams::check_solve`] refuses what no solve
    /// can answer there, not per cell.
    pub(crate) fn tracer<'a>(&self, levels: &'a [TraceLevel<'a>], region: Region) -> PacketTracer<'a> {
        let opts = TraceOptions {
            threshold: self.threshold,
            ..Default::default()
        };
        let tracer = PacketTracer::new(levels, opts);
        self.check_solve(&tracer, region);
        tracer
    }

    /// The inputs a solve refuses, each with a panic naming it: a zero ray
    /// budget (see [`RayCountMode`]), a Latin-hypercube budget whose
    /// largest batch is above [`MAX_LHC_BATCH`], and a solve region that is
    /// not inside the fine level's data region — its cells have no
    /// properties to read, and a release build would read another cell's
    /// instead.
    fn check_solve(&self, tracer: &PacketTracer<'_>, region: Region) {
        let mode = self.ray_count_mode();
        match mode {
            RayCountMode::Fixed(n) => assert!(n >= 1, "nrays must be >= 1, got Fixed({n})"),
            RayCountMode::Adaptive { max, .. } => {
                assert!(max >= 1, "rays_max must be >= 1, got Adaptive {{ max: {max}, .. }}")
            }
        }
        if self.sampling == RaySampling::LatinHypercube {
            let batch = mode.largest_batch();
            assert!(
                batch <= MAX_LHC_BATCH,
                "Latin-hypercube sampling draws a {batch}-ray batch, above MAX_LHC_BATCH = {MAX_LHC_BATCH} rays"
            );
        }
        let data = tracer.fine_props().region;
        assert!(
            region.is_empty() || data.contains_region(&region),
            "solve region {region:?} is not inside the fine level's data region {data:?}"
        );
    }

    /// The budget every cell of a solve draws its batches from.
    fn budget(&self) -> Budget {
        Budget::of(self.ray_count_mode())
    }
}

/// A cell's ray budget as batches: `first` rays, then twice the previous
/// batch, until `max` rays or the stop test. `Fixed(n)` is the one batch
/// of `n` rays.
#[derive(Clone, Copy)]
struct Budget {
    first: u32,
    max: u32,
    rel_var_target: f64,
    fixed: bool,
}

impl Budget {
    fn of(mode: RayCountMode) -> Budget {
        match mode {
            RayCountMode::Fixed(n) => Budget {
                first: n,
                max: n,
                rel_var_target: 0.0,
                fixed: true,
            },
            RayCountMode::Adaptive {
                min,
                max,
                rel_var_target,
            } => {
                let max = max.max(min);
                Budget {
                    // `clamp(1, max)`, but 0 rather than a panic at `max == 0`.
                    first: min.max(1).min(max),
                    max,
                    rel_var_target,
                    fixed: false,
                }
            }
        }
    }

    /// The largest batch `solve_run` can draw: it draws `first`, then
    /// doubles, each batch cut to what is left of `max`.
    fn largest_batch(&self) -> u32 {
        let (mut drawn, mut batch, mut largest) = (0u32, self.first, 0u32);
        while drawn < self.max {
            let b = batch.min(self.max - drawn);
            largest = largest.max(b);
            drawn += b;
            batch = batch.saturating_mul(2);
        }
        largest
    }

    /// Cells per run: as many as the first batches fill one packet.
    fn run_cells(&self) -> usize {
        (RUN_RAYS / self.first.max(1)).max(1) as usize
    }

    /// The RNG stream a batch's Latin-hypercube permutation is drawn from:
    /// reserved streams at the top of the ray-index range, `u32::MAX` for
    /// the Fixed batch and `u32::MAX - 1 - batch` for Adaptive batches, so
    /// per-ray streams stay untouched.
    fn perm_stream(&self, batch: u32) -> u32 {
        if self.fixed {
            u32::MAX
        } else {
            u32::MAX - 1 - batch
        }
    }

    /// Whether a cell that has traced `drawn` rays summing to `sum` (and
    /// `sum_sq` in squares) is done: at `max` rays, or once the relative
    /// standard error of its mean intensity reaches the target.
    fn done(&self, drawn: u32, sum: f64, sum_sq: f64) -> bool {
        if drawn >= self.max {
            return true;
        }
        let n = drawn as f64;
        let mean = sum / n;
        // Unbiased sample variance of the per-ray estimates.
        let var = ((sum_sq / n - mean * mean) * n / (n - 1.0).max(1.0)).max(0.0);
        let sem = (var / n).sqrt();
        sem <= self.rel_var_target * mean.abs()
    }
}

/// Rays per packet of a region solve: how many rays a run's packet holds,
/// and so what bounds a solve's scratch for any budget. Not a knob: kernel
/// timings were flat within noise from 32 to 1024 (EXPERIMENTS E23).
pub const RUN_RAYS: u32 = 256;

/// Ray-budget accounting of a solve (for the fixed-vs-adaptive comparison
/// in EXPERIMENTS E13).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Rays actually traced across all cells.
    pub total_rays: u64,
    /// Cells solved (including transparent zero-ray cells).
    pub cells: u64,
    /// What those rays cost: segments, cell steps, level crossings and how
    /// the rays ended, summed over every packet of the solve.
    pub march: MarchStats,
}

/// Compute `∇·q` for one fine-level cell by tracing a packet of rays.
///
/// Sign convention: positive = net emission (hot medium between cold
/// walls loses energy). Uintah's `divQ` variable stores the negated value;
/// see EXPERIMENTS.md.
pub fn div_q_for_cell(levels: &[TraceLevel<'_>], cell: IntVector, params: &RmcrtParams) -> f64 {
    let one = Region::new(cell, cell + IntVector::splat(1));
    div_q_for_cell_with(&params.tracer(levels, one), cell, params).0
}

/// [`div_q_for_cell`] against a prepared [`PacketTracer`]; also returns the
/// march counters of the cell's rays (`rays` is the budget spent). Refuses
/// what [`div_q_for_cell`] refuses: a zero ray budget and a cell outside
/// the fine level.
pub fn div_q_for_cell_with(
    tracer: &PacketTracer<'_>,
    cell: IntVector,
    params: &RmcrtParams,
) -> (f64, MarchStats) {
    let one = Region::new(cell, cell + IntVector::splat(1));
    params.check_solve(tracer, one);
    let mut out = [0.0];
    let march = solve_run(tracer, params, RunCells::new(one, 0, 1), &mut out);
    (out[0], march)
}

/// Fill `packet` with this cell's rays `first..first + count`: origins in
/// the cell, directions from `sampler`. Equal to the bit to drawing each
/// ray with [`DirectionSampler::direction`] then
/// [`CellRng::point_in_cell`] (the draw order of the historical scalar
/// loop), done in two passes over the packet's own columns: pass 1 is the
/// integer work per ray (RNG, angles, origin), pass 2 turns the angles
/// into directions with branch-free `f64` arithmetic. A run solve makes
/// the same two passes, the first once per cell and the second once per
/// packet.
pub fn fill_cell_packet(
    packet: &mut RayPacket,
    fine: &LevelProps,
    cell: IntVector,
    params: &RmcrtParams,
    sampler: &DirectionSampler,
    first: u32,
    count: u32,
) {
    packet.reset(count as usize);
    draw_rays(packet, 0, fine, cell, params, sampler, first, 0, count);
    finish_directions(packet);
}

/// Pass 1 of a packet fill, the integer work: into packet slots
/// `at..at + count`, the cell's rays `first..first + count`, drawn as
/// rays `k0..k0 + count` of `sampler`'s batch. A ray's RNG, its two angles
/// parked in `dz` (cos θ) and `dx` (the azimuth's turn fraction), its
/// origin.
#[allow(clippy::too_many_arguments)]
fn draw_rays(
    packet: &mut RayPacket,
    at: usize,
    fine: &LevelProps,
    cell: IntVector,
    params: &RmcrtParams,
    sampler: &DirectionSampler,
    first: u32,
    k0: u32,
    count: u32,
) {
    let slots = at..at + count as usize;
    let (ox, oy, oz) = (&mut packet.ox[slots.clone()], &mut packet.oy[slots.clone()], &mut packet.oz[slots.clone()]);
    let (dx, dz) = (&mut packet.dx[slots.clone()], &mut packet.dz[slots]);
    let (lo, cell_dx) = (fine.cell_lo(cell), fine.dx);
    for k in 0..count as usize {
        let mut rng = CellRng::new(params.seed, cell, first + k as u32, params.timestep);
        (dz[k], dx[k]) = sampler.angles(k0 + k as u32, &mut rng);
        let origin = rng.point_in_cell(lo, cell_dx);
        ox[k] = origin.x;
        oy[k] = origin.y;
        oz[k] = origin.z;
    }
}

/// Pass 2 of a packet fill, over the whole packet: turn the parked angles
/// into directions with nothing but `f64` arithmetic on contiguous columns
/// — no call, no branch on a ray's data — so it vectorises.
fn finish_directions(packet: &mut RayPacket) {
    let n = packet.len();
    let (dx, dy, dz) = (&mut packet.dx[..n], &mut packet.dy[..n], &packet.dz[..n]);
    for k in 0..n {
        let dir = polar(dz[k], dx[k]);
        dx[k] = dir.x;
        dy[k] = dir.y;
    }
}

/// What a thread keeps from run to run so a region solve allocates nothing
/// after its first run: the packet, the sampler's stratum permutation, the
/// run's per-cell sums and the packet's pieces. Every buffer holds at most
/// [`RUN_RAYS`] entries (a run has at most that many cells, a packet at
/// most that many rays), and the packet is allocated at that size up
/// front, so no buffer grows past one ray column of the packet. The one
/// exception is Latin-hypercube sampling, whose stratum permutation covers
/// a whole batch, 4 bytes a ray.
struct RunScratch {
    packet: RayPacket,
    sampler: DirectionSampler,
    /// Per cell of the run: Σ sumI and Σ sumI², in ray order.
    sum: Vec<f64>,
    sum_sq: Vec<f64>,
    /// Per cell of the run: still drawing batches.
    live: Vec<bool>,
    /// The packet's pieces in slot order: (cell of the run, rays).
    pieces: Vec<(u32, u32)>,
}

impl Default for RunScratch {
    fn default() -> Self {
        let run = RUN_RAYS as usize;
        Self {
            packet: RayPacket::with_capacity(run),
            sampler: DirectionSampler::default(),
            sum: Vec::with_capacity(run),
            sum_sq: Vec::with_capacity(run),
            live: Vec::with_capacity(run),
            pieces: Vec::with_capacity(run),
        }
    }
}

std::thread_local! {
    static SCRATCH: std::cell::RefCell<RunScratch> = std::cell::RefCell::default();
}

impl RunScratch {
    /// Trace the packet holding `pieces` and fold each piece's rays, in
    /// ray order, into its cell's sums.
    fn trace(&mut self, tracer: &PacketTracer<'_>) -> MarchStats {
        finish_directions(&mut self.packet);
        let march = tracer.trace(&mut self.packet);
        let mut slot = 0;
        for &(i, rays) in &self.pieces {
            let (sum, sum_sq) = (&mut self.sum[i as usize], &mut self.sum_sq[i as usize]);
            for &v in &self.packet.sum_i[slot..slot + rays as usize] {
                *sum += v;
                *sum_sq += v * v;
            }
            slot += rays as usize;
        }
        self.pieces.clear();
        march
    }
}

/// Solve one run: `∇·q` of each cell of `cells` into the matching slot of
/// `out` (module doc). Returns the march counters of every ray traced.
fn solve_run(tracer: &PacketTracer<'_>, params: &RmcrtParams, cells: RunCells, out: &mut [f64]) -> MarchStats {
    let fine = tracer.fine_props();
    let budget = params.budget();
    let packet_rays = RUN_RAYS as usize;
    SCRATCH.with(|s| {
        let s = &mut *s.borrow_mut();
        s.sum.clear();
        s.sum.resize(out.len(), 0.0);
        s.sum_sq.clear();
        s.sum_sq.resize(out.len(), 0.0);
        s.live.clear();
        s.pieces.clear();
        let mut live = 0;
        for (cell, slot) in cells.clone().zip(out.iter_mut()) {
            // Transparent cells exchange no energy and trace no ray.
            let opaque = fine.abskg[cell] != 0.0;
            s.live.push(opaque);
            live += opaque as usize;
            *slot = 0.0;
        }
        let mut march = MarchStats::default();
        let (mut drawn, mut batch, mut round) = (0u32, budget.first, 0u32);
        while live > 0 {
            let b = batch.min(budget.max - drawn);
            let mut left = live * b as usize;
            let mut filled = 0;
            s.packet.reset(left.min(packet_rays));
            for (i, cell) in cells.clone().enumerate() {
                if !s.live[i] {
                    continue;
                }
                let mut perm_rng = CellRng::new(params.seed, cell, budget.perm_stream(round), params.timestep);
                s.sampler.redraw(params.sampling, b, &mut perm_rng);
                let mut k = 0;
                while k < b {
                    if filled == s.packet.len() {
                        march += s.trace(tracer);
                        s.packet.reset(left.min(packet_rays));
                        filled = 0;
                    }
                    let rays = (b - k).min((s.packet.len() - filled) as u32);
                    draw_rays(&mut s.packet, filled, fine, cell, params, &s.sampler, drawn + k, k, rays);
                    s.pieces.push((i as u32, rays));
                    filled += rays as usize;
                    left -= rays as usize;
                    k += rays;
                }
            }
            march += s.trace(tracer);
            drawn += b;
            for (i, (cell, slot)) in cells.clone().zip(out.iter_mut()).enumerate() {
                if s.live[i] && budget.done(drawn, s.sum[i], s.sum_sq[i]) {
                    s.live[i] = false;
                    live -= 1;
                    let mean_i = s.sum[i] / drawn as f64;
                    *slot = 4.0 * PI * fine.abskg[cell] * (fine.sigma_t4_over_pi[cell] - mean_i);
                }
            }
            batch = batch.saturating_mul(2);
            round += 1;
        }
        march
    })
}

/// Solve `∇·q` over `region` of the finest level in the stack on the
/// calling thread. Equivalent to [`solve_region_exec`] with
/// [`ExecSpace::Serial`](uintah_exec::ExecSpace::Serial).
pub fn solve_region(levels: &[TraceLevel<'_>], region: Region, params: &RmcrtParams) -> CcVariable<f64> {
    solve_region_exec(levels, region, params, &uintah_exec::ExecSpace::Serial)
}

/// Solve `∇·q` over `region` on a Kokkos-style execution space.
/// Deterministic: bit-identical to [`solve_region`] on any space,
/// including `Device`.
///
/// The trace stack is prepared once ([`PacketTracer`]) and the region is
/// dispatched as runs of cells ([`uintah_exec::parallel_fill_runs`]), each
/// marched as packets of up to [`RUN_RAYS`] rays (module doc). A `Device`
/// dispatch is one launch metered as one invocation per cell.
pub fn solve_region_exec(
    levels: &[TraceLevel<'_>],
    region: Region,
    params: &RmcrtParams,
    space: &uintah_exec::ExecSpace,
) -> CcVariable<f64> {
    let tracer = params.tracer(levels, region);
    uintah_exec::parallel_fill_runs(space, region, params.budget().run_cells(), |cells, out| {
        solve_run(&tracer, params, cells, out);
    })
    .0
}

/// [`solve_region_exec`] that also returns the ray budget actually spent —
/// the measurement behind the fixed-vs-adaptive table in EXPERIMENTS E13.
/// The same dispatch; the runs' counters are integer sums, added in run
/// order.
pub fn solve_region_with_stats(
    levels: &[TraceLevel<'_>],
    region: Region,
    params: &RmcrtParams,
    space: &uintah_exec::ExecSpace,
) -> (CcVariable<f64>, SolveStats) {
    let tracer = params.tracer(levels, region);
    let (out, per_run) = uintah_exec::parallel_fill_runs(space, region, params.budget().run_cells(), |cells, out| {
        solve_run(&tracer, params, cells, out)
    });
    let mut march = MarchStats::default();
    for run in per_run {
        march += run;
    }
    let stats = SolveStats {
        total_rays: march.rays,
        cells: region.volume() as u64,
        march,
    };
    (out, stats)
}

/// Build the standard 2-level trace stack for a fine patch: coarse
/// whole-domain replica below, fine ROI (patch + halo) on top.
pub fn two_level_stack<'a>(
    coarse: &'a LevelProps,
    fine: &'a LevelProps,
    fine_roi: Region,
) -> [TraceLevel<'a>; 2] {
    [
        TraceLevel {
            props: coarse,
            roi: coarse.region,
        },
        TraceLevel {
            props: fine,
            roi: fine_roi,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use uintah_grid::Vector;

    fn single(props: &LevelProps) -> [TraceLevel<'_>; 1] {
        [TraceLevel {
            props,
            roi: props.region,
        }]
    }

    /// Isothermal medium in an isothermal *hot-wall* enclosure is in
    /// radiative equilibrium: ∇·q ≈ 0 (every ray eventually sees either
    /// medium or wall at the same σT⁴/π).
    #[test]
    fn equilibrium_enclosure_has_zero_div_q() {
        let n = 16;
        let s = 0.8;
        let mut props = LevelProps::uniform(Region::cube(n), Vector::splat(1.0 / n as f64), 1.0, s);
        // Black hot walls on all faces.
        for c in props.region.cells() {
            let e = props.region.extent();
            if c.x == 0 || c.y == 0 || c.z == 0 || c.x == e.x - 1 || c.y == e.y - 1 || c.z == e.z - 1 {
                props.cell_type[c] = crate::props::WALL_CELL;
                props.abskg[c] = 1.0;
            }
        }
        let params = RmcrtParams {
            nrays: 64,
            threshold: 1e-6,
            ..Default::default()
        };
        let c = IntVector::splat(n / 2);
        let dq = div_q_for_cell(&single(&props), c, &params);
        // Emission 4πκs exactly cancels absorption in equilibrium.
        let scale = 4.0 * PI * s;
        assert!(dq.abs() / scale < 1e-9, "divQ {dq}");
    }

    /// Hot medium, cold walls: net emission, ∇·q > 0, bounded by 4πκσT⁴/π.
    #[test]
    fn cold_wall_enclosure_emits() {
        let n = 16;
        let props = LevelProps::uniform(Region::cube(n), Vector::splat(1.0 / n as f64), 1.0, 1.0);
        let params = RmcrtParams {
            nrays: 128,
            threshold: 1e-6,
            ..Default::default()
        };
        let dq = div_q_for_cell(&single(&props), IntVector::splat(n / 2), &params);
        assert!(dq > 0.0);
        assert!(dq < 4.0 * PI * 1.0);
    }

    /// A zero ray budget used to solve to a silent NaN field (`Fixed(0)`:
    /// 0/0 in the mean) or to a one-ray answer (`Adaptive` with `max: 0`,
    /// clamped): every solve entry now refuses both, naming the parameter.
    #[test]
    fn zero_ray_budget_is_refused_by_every_solve_entry() {
        let props = LevelProps::uniform(Region::cube(4), Vector::splat(0.25), 1.0, 1.0);
        let stack = single(&props);
        let region = props.region;
        let zero_budgets = [
            (RmcrtParams { nrays: 0, ..Default::default() }, "nrays must be >= 1"),
            (
                RmcrtParams {
                    ray_count: Some(RayCountMode::Adaptive { min: 0, max: 0, rel_var_target: 0.05 }),
                    ..Default::default()
                },
                "rays_max must be >= 1",
            ),
        ];
        for (params, want) in &zero_budgets {
            let serial = uintah_exec::ExecSpace::Serial;
            let tracer = PacketTracer::new(&stack, TraceOptions { threshold: 0.05, ..Default::default() });
            let entries: [(&str, &dyn Fn()); 4] = [
                ("div_q_for_cell", &|| {
                    div_q_for_cell(&stack, IntVector::splat(2), params);
                }),
                ("div_q_for_cell_with", &|| {
                    div_q_for_cell_with(&tracer, IntVector::splat(2), params);
                }),
                ("solve_region", &|| drop(solve_region(&stack, region, params))),
                ("solve_region_with_stats", &|| {
                    drop(solve_region_with_stats(&stack, region, params, &serial))
                }),
            ];
            for (entry, solve) in entries {
                let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(solve)).expect_err(entry);
                let msg = panic.downcast_ref::<String>().expect("a formatted panic message");
                assert!(msg.contains(want), "{entry}: {msg}");
            }
        }
        // One ray is a budget: finite everywhere, in both modes.
        let one = RmcrtParams { nrays: 1, ..Default::default() };
        assert!(solve_region(&stack, region, &one).as_slice().iter().all(|v| v.is_finite()));
        let one = RmcrtParams {
            ray_count: Some(RayCountMode::Adaptive { min: 0, max: 1, rel_var_target: 0.05 }),
            ..Default::default()
        };
        let (out, stats) = solve_region_with_stats(&stack, region, &one, &uintah_exec::ExecSpace::Serial);
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
        assert_eq!(stats.total_rays, stats.cells);
    }

    /// A Latin-hypercube batch keeps a 4-byte stratum per ray, so
    /// `nrays = 600000000` used to ask for 2.4 GB: every solve entry now
    /// refuses a budget whose largest batch is above `MAX_LHC_BATCH`,
    /// naming the bound, before it allocates anything. Independent
    /// sampling keeps no per-ray state and is not bounded.
    #[test]
    fn lhc_batch_above_the_bound_is_refused_by_every_solve_entry() {
        let props = LevelProps::uniform(Region::cube(4), Vector::splat(0.25), 1.0, 1.0);
        let stack = single(&props);
        let region = props.region;
        let over = [
            RayCountMode::Fixed(600_000_000),
            RayCountMode::Fixed(MAX_LHC_BATCH + 1),
            RayCountMode::Adaptive { min: 16, max: 4 * MAX_LHC_BATCH, rel_var_target: 0.05 },
        ];
        for mode in over {
            let params = RmcrtParams {
                sampling: RaySampling::LatinHypercube,
                ray_count: Some(mode),
                ..Default::default()
            };
            let serial = uintah_exec::ExecSpace::Serial;
            let tracer = PacketTracer::new(&stack, TraceOptions { threshold: 0.05, ..Default::default() });
            let entries: [(&str, &dyn Fn()); 4] = [
                ("div_q_for_cell", &|| {
                    div_q_for_cell(&stack, IntVector::splat(2), &params);
                }),
                ("div_q_for_cell_with", &|| {
                    div_q_for_cell_with(&tracer, IntVector::splat(2), &params);
                }),
                ("solve_region", &|| drop(solve_region(&stack, region, &params))),
                ("solve_region_with_stats", &|| {
                    drop(solve_region_with_stats(&stack, region, &params, &serial))
                }),
            ];
            for (entry, solve) in entries {
                let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(solve)).expect_err(entry);
                let msg = panic.downcast_ref::<String>().expect("a formatted panic message");
                assert!(msg.contains(&format!("MAX_LHC_BATCH = {MAX_LHC_BATCH}")), "{entry} {mode:?}: {msg}");
            }
        }
    }

    /// The largest batch is what `solve_run` draws at most: `n` for
    /// `Fixed(n)`, the largest doubling (or the cut last) batch for
    /// `Adaptive`.
    #[test]
    fn largest_batch_follows_the_doubling_schedule() {
        assert_eq!(RayCountMode::Fixed(100).largest_batch(), 100);
        let adaptive = |min, max| RayCountMode::Adaptive { min, max, rel_var_target: 0.05 };
        // 16, 32, 52 (the 64 cut to what is left of 100).
        assert_eq!(adaptive(16, 100).largest_batch(), 52);
        // 16, 32, 64, 128, 16.
        assert_eq!(adaptive(16, 256).largest_batch(), 128);
        // rays_min above rays_max: one batch of rays_min.
        assert_eq!(adaptive(40, 10).largest_batch(), 40);
        // 1, 2, …, 2¹⁹, then the 951425 rays left of two million.
        assert_eq!(adaptive(1, 2_000_000).largest_batch(), 951_425);
        assert_eq!(adaptive(0, 0).largest_batch(), 0);
    }

    /// A solve region reaching past the fine level used to read some other
    /// cell's properties in release (cell (8,0,0) of an 8³ level solved to
    /// 4π): every entry refuses it, naming both regions.
    #[test]
    fn region_outside_the_fine_level_is_refused_by_every_solve_entry() {
        let props = LevelProps::uniform(Region::cube(8), Vector::splat(0.125), 1.0, 1.0);
        let stack = single(&props);
        let params = RmcrtParams { nrays: 2, ..Default::default() };
        let outside = Region::new(IntVector::ZERO, IntVector::new(9, 7, 8));
        let cell = IntVector::new(8, 0, 0);
        let tracer = params.tracer(&stack, props.region);
        let device = uintah_exec::ExecSpace::device(uintah_gpu::GpuDevice::with_capacity("test", 1 << 20));
        let entries: [(&str, &dyn Fn()); 6] = [
            ("solve_region", &|| drop(solve_region(&stack, outside, &params))),
            ("solve_region_exec", &|| {
                drop(solve_region_exec(&stack, outside, &params, &uintah_exec::ExecSpace::Threads(2)))
            }),
            ("solve_region_exec on a device", &|| drop(solve_region_exec(&stack, outside, &params, &device))),
            ("solve_region_with_stats", &|| {
                drop(solve_region_with_stats(&stack, outside, &params, &uintah_exec::ExecSpace::Serial))
            }),
            ("div_q_for_cell", &|| {
                div_q_for_cell(&stack, cell, &params);
            }),
            ("div_q_for_cell_with", &|| {
                div_q_for_cell_with(&tracer, cell, &params);
            }),
        ];
        for (entry, solve) in entries {
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(solve)).expect_err(entry);
            let msg = panic.downcast_ref::<String>().expect("a formatted panic message");
            assert!(msg.contains("is not inside the fine level's data region"), "{entry}: {msg}");
            assert!(msg.contains(&format!("{:?}", props.region)), "{entry}: {msg}");
        }
        assert_eq!(device.kernel_stats().unwrap().launches, 0, "refused before any launch");
        // The level itself, and an empty region anywhere, are solvable.
        assert!(solve_region(&stack, props.region, &params).as_slice().iter().all(|v| v.is_finite()));
        let empty = Region::new(IntVector::splat(20), IntVector::splat(20));
        assert_eq!(solve_region(&stack, empty, &params).len(), 0);
    }

    /// Transparent cells have exactly zero divergence.
    #[test]
    fn transparent_cell_zero() {
        let mut props = LevelProps::uniform(Region::cube(8), Vector::splat(0.125), 1.0, 1.0);
        props.abskg[IntVector::splat(4)] = 0.0;
        let dq = div_q_for_cell(&single(&props), IntVector::splat(4), &RmcrtParams::default());
        assert_eq!(dq, 0.0);
    }

    /// Results are a pure function of the cell identity, not the region
    /// decomposition: solving two half-regions equals solving the whole.
    #[test]
    fn decomposition_invariance() {
        let n = 8;
        let props = LevelProps::uniform(Region::cube(n), Vector::splat(1.0 / n as f64), 1.5, 0.9);
        let params = RmcrtParams {
            nrays: 16,
            ..Default::default()
        };
        let stack = single(&props);
        let whole = solve_region(&stack, Region::cube(n), &params);
        let left = solve_region(
            &stack,
            Region::new(IntVector::ZERO, IntVector::new(4, n, n)),
            &params,
        );
        let right = solve_region(
            &stack,
            Region::new(IntVector::new(4, 0, 0), IntVector::new(n, n, n)),
            &params,
        );
        for c in left.region().cells() {
            assert_eq!(whole[c], left[c]);
        }
        for c in right.region().cells() {
            assert_eq!(whole[c], right[c]);
        }
    }

    #[test]
    fn threaded_solve_is_bitwise_identical() {
        let n = 8;
        let props = LevelProps::uniform(Region::cube(n), Vector::splat(1.0 / n as f64), 1.5, 0.9);
        let params = RmcrtParams {
            nrays: 8,
            ..Default::default()
        };
        let stack = single(&props);
        let serial = solve_region(&stack, Region::cube(n), &params);
        for space in [
            uintah_exec::ExecSpace::Serial,
            uintah_exec::ExecSpace::Threads(3),
            uintah_exec::ExecSpace::host(4),
        ] {
            assert_eq!(serial, solve_region_exec(&stack, Region::cube(n), &params, &space));
        }
    }

    /// Different timesteps decorrelate the Monte Carlo noise.
    #[test]
    fn timesteps_change_noise_not_mean() {
        let n = 8;
        let props = LevelProps::uniform(Region::cube(n), Vector::splat(1.0 / n as f64), 1.0, 1.0);
        let stack = single(&props);
        let c = IntVector::splat(4);
        let a = div_q_for_cell(
            &stack,
            c,
            &RmcrtParams {
                nrays: 32,
                timestep: 0,
                sampling: crate::sampling::RaySampling::Independent,
                ..Default::default()
            },
        );
        let b = div_q_for_cell(
            &stack,
            c,
            &RmcrtParams {
                nrays: 32,
                timestep: 1,
                ..Default::default()
            },
        );
        assert_ne!(a, b, "different timesteps must resample");
        assert!((a - b).abs() < 0.5 * a.abs().max(b.abs()), "means wildly apart");
    }
}
