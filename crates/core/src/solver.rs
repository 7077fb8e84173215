//! ∇·q solvers: per cell, per region, per patch; serial and threaded.

use crate::packet::{MarchStats, PacketTracer, RayPacket};
use crate::props::LevelProps;
use crate::rng::{polar, CellRng};
use crate::sampling::{DirectionSampler, RaySampling};
use crate::trace::{TraceLevel, TraceOptions};
use std::f64::consts::PI;
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

    /// The tracer of a solve with these parameters, and the one place a
    /// zero ray budget is rejected (see [`RayCountMode`]): once per solve,
    /// where the tracer is prepared, not per cell.
    pub(crate) fn tracer<'a>(&self, levels: &'a [TraceLevel<'a>]) -> PacketTracer<'a> {
        match self.ray_count_mode() {
            RayCountMode::Fixed(n) => assert!(n >= 1, "nrays must be >= 1, got Fixed({n})"),
            RayCountMode::Adaptive { max, .. } => {
                assert!(max >= 1, "rays_max must be >= 1, got Adaptive {{ max: {max}, .. }}")
            }
        }
        let opts = TraceOptions {
            threshold: self.threshold,
            max_reflections: 0,
        };
        PacketTracer::new(levels, opts)
    }
}

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
    div_q_for_cell_with(&params.tracer(levels), cell, params).0
}

/// [`div_q_for_cell`] against a prepared [`PacketTracer`] (the per-solve
/// hoisted form used by the `uintah-exec` dispatch paths); also returns the
/// march counters of the cell's rays (`rays` is the budget spent). The ray
/// budget must be at least one ray (see [`RayCountMode`]): the region
/// solves check that once, where they prepare the tracer.
pub fn div_q_for_cell_with(
    tracer: &PacketTracer<'_>,
    cell: IntVector,
    params: &RmcrtParams,
) -> (f64, MarchStats) {
    let fine = tracer.fine_props();
    let kappa = fine.abskg[cell];
    if kappa == 0.0 {
        return (0.0, MarchStats::default()); // transparent cells exchange no energy
    }
    let (sum_i, march) = match params.ray_count_mode() {
        RayCountMode::Fixed(n) => mean_intensity_fixed(tracer, cell, params, n),
        RayCountMode::Adaptive {
            min,
            max,
            rel_var_target,
        } => mean_intensity_adaptive(tracer, cell, params, min, max, rel_var_target),
    };
    let mean_i = sum_i / march.rays as f64;
    (
        4.0 * PI * kappa * (fine.sigma_t4_over_pi[cell] - mean_i),
        march,
    )
}

/// Fill `packet` with this cell's rays `first..first + count`: origins in
/// the cell, directions from `sampler`. Equal to the bit to drawing each
/// ray with [`DirectionSampler::direction`] then
/// [`CellRng::point_in_cell`] (the draw order of the historical scalar
/// loop), done in two passes over the packet's own columns. Pass 1 is the
/// integer work: a ray's RNG, its two angles parked in `dz` (cos θ) and
/// `dx` (the azimuth's turn fraction), its origin. Pass 2 turns the parked
/// angles into directions with nothing but `f64` arithmetic on contiguous
/// columns — no call, no branch on a ray's data — so it vectorises.
pub fn fill_cell_packet(
    packet: &mut RayPacket,
    fine: &LevelProps,
    cell: IntVector,
    params: &RmcrtParams,
    sampler: &DirectionSampler,
    first: u32,
    count: u32,
) {
    let n = count as usize;
    packet.reset(n);
    let (ox, oy, oz) = (&mut packet.ox[..n], &mut packet.oy[..n], &mut packet.oz[..n]);
    let (dx, dy, dz) = (&mut packet.dx[..n], &mut packet.dy[..n], &mut packet.dz[..n]);
    let (lo, cell_dx) = (fine.cell_lo(cell), fine.dx);
    for k in 0..n {
        let mut rng = CellRng::new(params.seed, cell, first + k as u32, params.timestep);
        (dz[k], dx[k]) = sampler.angles(k as u32, &mut rng);
        let origin = rng.point_in_cell(lo, cell_dx);
        ox[k] = origin.x;
        oy[k] = origin.y;
        oz[k] = origin.z;
    }
    for k in 0..n {
        let dir = polar(dz[k], dx[k]);
        dx[k] = dir.x;
        dy[k] = dir.y;
    }
}

/// What a thread keeps from cell to cell so a region solve does no
/// per-cell allocation: the packet's columns and the sampler's stratum
/// permutation.
#[derive(Default)]
struct CellScratch {
    packet: RayPacket,
    sampler: DirectionSampler,
}

std::thread_local! {
    static SCRATCH: std::cell::RefCell<CellScratch> = std::cell::RefCell::default();
}

impl CellScratch {
    /// Draw, fill and trace this cell's rays `first..first + count` as one
    /// packet (left in `self.packet`). The stratification permutation
    /// draws from the dedicated stream `perm_stream`, so per-ray streams
    /// stay untouched.
    fn trace(
        &mut self,
        tracer: &PacketTracer<'_>,
        cell: IntVector,
        params: &RmcrtParams,
        perm_stream: u32,
        first: u32,
        count: u32,
    ) -> MarchStats {
        let mut perm_rng = CellRng::new(params.seed, cell, perm_stream, params.timestep);
        self.sampler.redraw(params.sampling, count, &mut perm_rng);
        fill_cell_packet(
            &mut self.packet,
            tracer.fine_props(),
            cell,
            params,
            &self.sampler,
            first,
            count,
        );
        tracer.trace(&mut self.packet)
    }
}

/// Fixed-budget mean: one packet of `n` rays, summed in ray order (the
/// bit-identity reference path).
fn mean_intensity_fixed(
    tracer: &PacketTracer<'_>,
    cell: IntVector,
    params: &RmcrtParams,
    n: u32,
) -> (f64, MarchStats) {
    SCRATCH.with(|s| {
        let scratch = &mut *s.borrow_mut();
        let march = scratch.trace(tracer, cell, params, u32::MAX, 0, n);
        let mut sum_i = 0.0;
        for &v in &scratch.packet.sum_i {
            sum_i += v;
        }
        (sum_i, march)
    })
}

/// Adaptive budget: geometrically growing batches until the relative
/// standard error of the mean intensity reaches the target (or `max`).
/// Returns `Σ sumI` and the march counters (`rays` = rays traced).
fn mean_intensity_adaptive(
    tracer: &PacketTracer<'_>,
    cell: IntVector,
    params: &RmcrtParams,
    min: u32,
    max: u32,
    rel_var_target: f64,
) -> (f64, MarchStats) {
    let max = max.max(min);
    let mut batch = min.clamp(1, max);
    let mut drawn = 0u32;
    let mut batch_id = 0u32;
    let mut sum = 0.0f64;
    let mut sum_sq = 0.0f64;
    let mut march = MarchStats::default();
    SCRATCH.with(|s| {
    let scratch = &mut *s.borrow_mut();
    loop {
        let b = batch.min(max - drawn);
        // Per-batch stratification permutation from a reserved stream
        // below u32::MAX (Latin-hypercube stratifies within the batch).
        march += scratch.trace(tracer, cell, params, u32::MAX - 1 - batch_id, drawn, b);
        for &v in &scratch.packet.sum_i {
            sum += v;
            sum_sq += v * v;
        }
        drawn += b;
        batch_id += 1;
        if drawn >= max {
            break;
        }
        let n = drawn as f64;
        let mean = sum / n;
        // Unbiased sample variance of the per-ray estimates.
        let var = ((sum_sq / n - mean * mean) * n / (n - 1.0).max(1.0)).max(0.0);
        let sem = (var / n).sqrt();
        if sem <= rel_var_target * mean.abs() {
            break;
        }
        batch = batch.saturating_mul(2);
    }
    (sum, march)
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
/// The trace stack is prepared once ([`PacketTracer`]) and each kernel
/// invocation marches one cell's whole [`RayPacket`], so `KernelStats`
/// meters batched packet dispatches rather than single rays.
pub fn solve_region_exec(
    levels: &[TraceLevel<'_>],
    region: Region,
    params: &RmcrtParams,
    space: &uintah_exec::ExecSpace,
) -> CcVariable<f64> {
    let tracer = params.tracer(levels);
    uintah_exec::parallel_fill(space, region, |c| {
        div_q_for_cell_with(&tracer, c, params).0
    })
}

/// [`solve_region_exec`] that also returns the ray budget actually spent —
/// the measurement behind the fixed-vs-adaptive table in EXPERIMENTS E13.
/// Dispatched as a `parallel_map` over per-cell packets; deterministic and
/// bit-identical to [`solve_region_exec`] on every space.
pub fn solve_region_with_stats(
    levels: &[TraceLevel<'_>],
    region: Region,
    params: &RmcrtParams,
    space: &uintah_exec::ExecSpace,
) -> (CcVariable<f64>, SolveStats) {
    let tracer = params.tracer(levels);
    // The counters are integer sums, so the order the cells add them in
    // does not matter; summing here keeps the mapped value one `f64` a cell.
    let march = std::sync::Mutex::new(MarchStats::default());
    let per_cell = uintah_exec::parallel_map(space, region.volume(), |i| {
        let (dq, cell_march) = div_q_for_cell_with(&tracer, region.from_linear(i), params);
        *march.lock().expect("no panic while adding counters") += cell_march;
        dq
    });
    let out = CcVariable::from_vec(region, per_cell);
    let march = march.into_inner().expect("no panic while adding counters");
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
            let entries: [(&str, &dyn Fn()); 3] = [
                ("div_q_for_cell", &|| {
                    div_q_for_cell(&stack, IntVector::splat(2), params);
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
