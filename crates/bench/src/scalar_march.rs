//! Frozen copy of the pre-packet scalar ray marcher — the performance
//! baseline for the `ray_march` benchmark and the `ray_march_gate` bin.
//!
//! This is the per-ray Amanatides–Woo DDA exactly as `rmcrt_core::trace`
//! implemented it before the SoA packet engine (`rmcrt_core::packet`)
//! replaced it: `roi.contains` per cell step, `CcVariable` index operators
//! per property access, DDA setup re-derived per level segment. Do NOT
//! "fix" or modernise this module — its whole value is staying identical
//! to the historical implementation so packet-vs-scalar speedups stay
//! honest across future sessions.

use rmcrt_core::solver::RmcrtParams;
use rmcrt_core::sampling::DirectionSampler;
use rmcrt_core::trace::{TraceLevel, TraceOptions};
use rmcrt_core::CellRng;
use std::f64::consts::PI;
use uintah_grid::{CcVariable, IntVector, Point, Region, Vector};

enum Outcome {
    Extinguished,
    HitWall {
        hit: Point,
        axis: usize,
        emissivity: f64,
    },
    ExitedRoi(Point),
}

struct RayState {
    tau: f64,
    exp_prev: f64,
    sum_i: f64,
    weight: f64,
}

impl RayState {
    #[inline]
    fn transmissivity(&self) -> f64 {
        self.weight * self.exp_prev
    }
}

fn march_level(
    level: &TraceLevel<'_>,
    pos: Point,
    dir: Vector,
    state: &mut RayState,
    threshold: f64,
) -> Outcome {
    let props = level.props;
    let dx = props.dx;
    let mut cur = props.cell_containing(pos);

    let mut step = IntVector::ZERO;
    let mut t_max = Vector::ZERO;
    let mut t_delta = Vector::ZERO;
    let lo = props.cell_lo(cur);
    for a in 0..3 {
        let d = dir[a];
        let (s, tm, td) = if d > 0.0 {
            (1, (lo[a] + dx[a] - pos[a]) / d, dx[a] / d)
        } else if d < 0.0 {
            (-1, (lo[a] - pos[a]) / d, -dx[a] / d)
        } else {
            (0, f64::INFINITY, f64::INFINITY)
        };
        step[a] = s;
        match a {
            0 => {
                t_max.x = tm;
                t_delta.x = td;
            }
            1 => {
                t_max.y = tm;
                t_delta.y = td;
            }
            2 => {
                t_max.z = tm;
                t_delta.z = td;
            }
            _ => unreachable!(),
        }
    }

    let mut traveled = 0.0;
    loop {
        let axis = if t_max.x < t_max.y {
            if t_max.x < t_max.z {
                0
            } else {
                2
            }
        } else if t_max.y < t_max.z {
            1
        } else {
            2
        };
        let t_hit = t_max[axis];
        let dis = t_hit - traveled;
        traveled = t_hit;
        match axis {
            0 => t_max.x += t_delta.x,
            1 => t_max.y += t_delta.y,
            _ => t_max.z += t_delta.z,
        }

        state.tau += props.abskg[cur] * dis;
        let exp_cur = (-state.tau).exp();
        state.sum_i += state.weight * props.sigma_t4_over_pi[cur] * (state.exp_prev - exp_cur);
        state.exp_prev = exp_cur;
        if state.weight * exp_cur < threshold {
            return Outcome::Extinguished;
        }

        cur[axis] += step[axis];

        if !level.roi.contains(cur) {
            let eps = 1e-10 * dx.min_component().clamp(1e-12, 1.0);
            let exit = pos + dir * (traveled + eps);
            return Outcome::ExitedRoi(exit);
        }
        if props.is_wall(cur) {
            state.sum_i +=
                state.weight * props.abskg[cur] * props.sigma_t4_over_pi[cur] * state.exp_prev;
            return Outcome::HitWall {
                hit: pos + dir * traveled,
                axis,
                emissivity: props.abskg[cur],
            };
        }
    }
}

/// The historical `trace_ray`.
pub fn trace_ray_scalar(levels: &[TraceLevel<'_>], origin: Point, dir: Vector, threshold: f64) -> f64 {
    trace_ray_with_options_scalar(
        levels,
        origin,
        dir,
        TraceOptions {
            threshold,
            max_reflections: 0,
        },
    )
}

/// The historical `trace_ray_with_options`.
pub(crate) fn trace_ray_with_options_scalar(
    levels: &[TraceLevel<'_>],
    origin: Point,
    dir: Vector,
    opts: TraceOptions,
) -> f64 {
    let mut state = RayState {
        tau: 0.0,
        exp_prev: 1.0,
        sum_i: 0.0,
        weight: 1.0,
    };
    let mut li = levels.len() - 1;
    let mut pos = origin;
    let mut dir = dir;
    let mut reflections = 0u32;
    loop {
        match march_level(&levels[li], pos, dir, &mut state, opts.threshold) {
            Outcome::Extinguished => return state.sum_i,
            Outcome::HitWall {
                hit,
                axis,
                emissivity,
            } => {
                let reflectivity = 1.0 - emissivity;
                if reflections >= opts.max_reflections
                    || reflectivity <= 0.0
                    || state.transmissivity() * reflectivity < opts.threshold
                {
                    return state.sum_i;
                }
                reflections += 1;
                state.weight *= reflectivity;
                match axis {
                    0 => dir.x = -dir.x,
                    1 => dir.y = -dir.y,
                    _ => dir.z = -dir.z,
                }
                let eps = 1e-10 * levels[li].props.dx.min_component().clamp(1e-12, 1.0);
                pos = hit + dir * eps;
            }
            Outcome::ExitedRoi(exit) => {
                loop {
                    if li == 0 {
                        return state.sum_i;
                    }
                    li -= 1;
                    let cell = levels[li].props.cell_containing(exit);
                    if levels[li].roi.contains(cell) {
                        if levels[li].props.is_wall(cell) {
                            let p = levels[li].props;
                            state.sum_i += state.weight
                                * p.abskg[cell]
                                * p.sigma_t4_over_pi[cell]
                                * state.exp_prev;
                            return state.sum_i;
                        }
                        break;
                    }
                }
                pos = exit;
            }
        }
    }
}

/// The historical per-cell ∇·q: same RNG stream and draw order as the
/// packet solver's fixed mode, but each ray marched by the scalar DDA.
pub(crate) fn div_q_for_cell_scalar(
    levels: &[TraceLevel<'_>],
    cell: IntVector,
    params: &RmcrtParams,
) -> f64 {
    let fine = levels.last().expect("empty stack").props;
    let kappa = fine.abskg[cell];
    if kappa == 0.0 {
        return 0.0;
    }
    let mut perm_rng = CellRng::new(params.seed, cell, u32::MAX, params.timestep);
    let sampler = DirectionSampler::new(params.sampling, params.nrays, &mut perm_rng);
    let mut sum_i = 0.0;
    for r in 0..params.nrays {
        let mut rng = CellRng::new(params.seed, cell, r, params.timestep);
        let dir = sampler.direction(r, &mut rng);
        let origin = rng.point_in_cell(fine.cell_lo(cell), fine.dx);
        sum_i += trace_ray_scalar(levels, origin, dir, params.threshold);
    }
    let mean_i = sum_i / params.nrays as f64;
    4.0 * PI * kappa * (fine.sigma_t4_over_pi[cell] - mean_i)
}

/// The historical region solve (serial).
pub fn solve_region_scalar(
    levels: &[TraceLevel<'_>],
    region: Region,
    params: &RmcrtParams,
) -> CcVariable<f64> {
    let mut out = CcVariable::<f64>::new(region);
    for c in region.cells() {
        out[c] = div_q_for_cell_scalar(levels, c, params);
    }
    out
}
