//! The ray marcher: Uintah's `updateSumI` / `updateSumI_ML`.
//!
//! A ray is marched cell-by-cell with an Amanatides–Woo DDA. Crossing a cell
//! of length `ds` adds `κ·ds` to the accumulated optical depth `τ`, and the
//! cell contributes its emission attenuated by everything in front of it:
//!
//! ```text
//! sumI += (σT⁴/π)[cell] · (e^{-τ_prev} − e^{-τ})
//! ```
//!
//! (the telescoping form of the formal solution of the RTE along the ray
//! with no scattering, fs = 1). Marching stops when the remaining
//! transmissivity drops below the intensity threshold, when the ray hits a
//! wall cell (which contributes `ε·σT⁴/π·e^{-τ}` and ends the ray: walls
//! absorb, they do not reflect), or when it leaves the enclosure (cold
//! black wall: no contribution).
//!
//! In multi-level mode the ray marches the finest level while inside its
//! region of interest and transitions to the next-coarser whole-domain
//! replica when it leaves — the mechanism that removes the fine-mesh
//! all-to-all (paper §III-B/C).
//!
//! The marching itself lives in [`crate::packet`]: one SoA packet stepper
//! serves the ∇·q solver, scattering, wall flux and the radiometer. This
//! module keeps the level-stack types and the single-ray convenience
//! wrapper.

use crate::props::LevelProps;
use uintah_grid::{Point, Region, Vector};

/// One level of the trace stack.
#[derive(Clone, Copy)]
pub struct TraceLevel<'a> {
    pub props: &'a LevelProps,
    /// Cells of this level the ray may march. For the finest level this is
    /// the ROI (patch + halo); for the coarsest it is the whole level.
    pub roi: Region,
}

/// Options of a [`crate::packet::PacketTracer`].
#[derive(Clone, Copy, Debug)]
pub struct TraceOptions {
    /// Intensity threshold below which a ray is extinguished.
    pub threshold: f64,
    /// A stub kept for source compatibility: it must be `0` (every wall
    /// hit ends the ray), and [`crate::packet::PacketTracer::new`] panics
    /// on any other value. Leave it to `..Default::default()`.
    pub max_reflections: u32,
}

impl Default for TraceOptions {
    fn default() -> Self {
        Self {
            threshold: 0.05,
            max_reflections: 0,
        }
    }
}

/// Trace one ray through a stack of levels (coarsest first, finest last),
/// starting on the finest, and return its incoming-intensity integral
/// `sumI` (per steradian, fs = 1).
///
/// Leaving the coarsest level's ROI terminates the ray against a cold black
/// enclosure (zero contribution), which is the Burns & Christon boundary
/// condition; warm enclosures are modeled with explicit wall cells
/// instead.
///
/// One-off convenience over the packet engine: batched consumers should
/// prepare a [`crate::packet::PacketTracer`] once and march whole
/// [`crate::packet::RayPacket`]s instead.
///
/// ```
/// use rmcrt_core::{trace_ray, LevelProps, TraceLevel};
/// use uintah_grid::{Point, Region, Vector};
///
/// // Uniform medium (κ = 2, σT⁴/π = 0.7) in a unit cube, cold black walls:
/// // a +x ray from the centre sees sumI = S · (1 − e^{-κ·0.5}).
/// let props = LevelProps::uniform(Region::cube(32), Vector::splat(1.0 / 32.0), 2.0, 0.7);
/// let stack = [TraceLevel { props: &props, roi: props.region }];
/// let sum_i = trace_ray(&stack, Point::new(0.5, 0.5, 0.5), Vector::new(1.0, 0.0, 0.0), 1e-12);
/// let expect = 0.7 * (1.0 - (-2.0f64 * 0.5).exp());
/// assert!((sum_i - expect).abs() < 1e-10);
/// ```
pub fn trace_ray(levels: &[TraceLevel<'_>], origin: Point, dir: Vector, threshold: f64) -> f64 {
    let opts = TraceOptions {
        threshold,
        ..Default::default()
    };
    crate::packet::PacketTracer::new(levels, opts).trace_one(origin, dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props::WALL_CELL;
    use uintah_grid::{CcVariable, IntVector};

    fn single(props: &LevelProps) -> [TraceLevel<'_>; 1] {
        [TraceLevel {
            props,
            roi: props.region,
        }]
    }

    /// Uniform medium, cold black walls: sumI = S·(1 − e^{-κL}) where L is
    /// the chord length from the origin to the boundary.
    #[test]
    fn uniform_medium_matches_analytic_transmission() {
        let n = 32;
        let kappa = 2.0;
        let s = 0.7;
        let props = LevelProps::uniform(Region::cube(n), Vector::splat(1.0 / n as f64), kappa, s);
        let origin = Point::new(0.5, 0.5, 0.5);
        for dir in [
            Vector::new(1.0, 0.0, 0.0),
            Vector::new(0.0, -1.0, 0.0),
            Vector::new(0.0, 0.0, 1.0),
            Vector::new(1.0, 1.0, 1.0).normalized(),
        ] {
            let sum_i = trace_ray(&single(&props), origin, dir, 1e-12);
            // Chord length from the centre to the unit-cube boundary.
            let l = [dir.x, dir.y, dir.z]
                .iter()
                .filter(|d| d.abs() > 0.0)
                .map(|d| 0.5 / d.abs())
                .fold(f64::INFINITY, f64::min);
            let expect = s * (1.0 - (-kappa * l).exp());
            assert!(
                (sum_i - expect).abs() < 1e-10,
                "dir {dir:?}: {sum_i} vs {expect}"
            );
        }
    }

    /// Optically thick medium: sumI → S (the ray sees only the local
    /// emission, black-body limit).
    #[test]
    fn optically_thick_limit() {
        let props = LevelProps::uniform(Region::cube(16), Vector::splat(1.0 / 16.0), 1e4, 0.3);
        let sum_i = trace_ray(
            &single(&props),
            Point::new(0.5, 0.5, 0.5),
            Vector::new(1.0, 0.0, 0.0),
            1e-12,
        );
        assert!((sum_i - 0.3).abs() < 1e-6, "sumI {sum_i}");
    }

    /// Transparent medium: sumI = 0 against cold walls.
    #[test]
    fn transparent_medium_contributes_nothing() {
        let props = LevelProps::uniform(Region::cube(8), Vector::splat(0.125), 0.0, 0.9);
        let sum_i = trace_ray(
            &single(&props),
            Point::new(0.51, 0.52, 0.53),
            Vector::new(0.0, 1.0, 0.0),
            1e-12,
        );
        assert_eq!(sum_i, 0.0);
    }

    /// A hot wall cell contributes ε·S_wall·e^{-τ}.
    #[test]
    fn hot_wall_contribution() {
        let n = 8;
        let kappa = 1.0;
        let mut props = LevelProps::uniform(Region::cube(n), Vector::splat(1.0 / n as f64), kappa, 0.0);
        // Wall slab at x = 7 (emissivity 0.8, S_wall = 2.0).
        for c in Region::new(IntVector::new(7, 0, 0), IntVector::new(8, 8, 8)).cells() {
            props.cell_type[c] = WALL_CELL;
            props.abskg[c] = 0.8;
            props.sigma_t4_over_pi[c] = 2.0;
        }
        let origin = Point::new(0.5 / n as f64, 0.5, 0.5); // centre of cell x=0
        let sum_i = trace_ray(&single(&props), origin, Vector::new(1.0, 0.0, 0.0), 1e-12);
        // Distance to the wall face (x = 7/8) through κ=1 medium.
        let l = 7.0 / n as f64 - 0.5 / n as f64;
        let expect = 0.8 * 2.0 * (-kappa * l).exp();
        assert!((sum_i - expect).abs() < 1e-12, "{sum_i} vs {expect}");
    }

    /// The threshold terminates deep rays early.
    #[test]
    fn threshold_extinguishes() {
        let props = LevelProps::uniform(Region::cube(64), Vector::splat(1.0 / 64.0), 50.0, 1.0);
        // With threshold 1e-2, the ray should stop once e^{-τ} < 0.01, so
        // sumI ≈ S·(1-0.01) rather than S·(1 - e^{-25}).
        let sum_i = trace_ray(
            &single(&props),
            Point::new(0.5, 0.5, 0.5),
            Vector::new(1.0, 0.0, 0.0),
            1e-2,
        );
        assert!(sum_i < 1.0 - 0.009, "threshold not applied: {sum_i}");
        assert!(sum_i > 0.95, "terminated too early: {sum_i}");
    }

    /// Two-level trace of a *uniform* field must agree with single-level
    /// exactly up to the discretization of the coarse replica (uniform ⇒
    /// identical contributions regardless of cell size).
    #[test]
    fn two_level_uniform_equals_single_level() {
        let kappa = 3.0;
        let s = 0.4;
        let nf = 32;
        let fine = LevelProps::uniform(Region::cube(nf), Vector::splat(1.0 / nf as f64), kappa, s);
        let coarse = LevelProps::uniform(Region::cube(nf / 4), Vector::splat(4.0 / nf as f64), kappa, s);
        // ROI: a small box around the origin cell.
        let origin_cell = IntVector::splat(nf / 2);
        let roi = Region::new(origin_cell - IntVector::splat(4), origin_cell + IntVector::splat(4));
        let stack = [
            TraceLevel {
                props: &coarse,
                roi: coarse.region,
            },
            TraceLevel {
                props: &fine,
                roi,
            },
        ];
        let origin = fine.cell_center(origin_cell);
        for dir in [
            Vector::new(1.0, 0.0, 0.0),
            Vector::new(-0.3, 0.9, 0.3).normalized(),
            Vector::new(0.5, -0.5, std::f64::consts::FRAC_1_SQRT_2).normalized(),
        ] {
            let ml = trace_ray(&stack, origin, dir, 1e-12);
            let sl = trace_ray(
                &[TraceLevel {
                    props: &fine,
                    roi: fine.region,
                }],
                origin,
                dir,
                1e-12,
            );
            assert!((ml - sl).abs() < 1e-8, "dir {dir:?}: ml {ml} vs sl {sl}");
        }
    }

    /// Rays leaving the fine ROI must continue (not terminate) — a ray
    /// pointing at a hot far wall sees it through the coarse level.
    #[test]
    fn ml_ray_sees_far_wall_through_coarse_level() {
        let nf = 32;
        let mut fine = LevelProps::uniform(Region::cube(nf), Vector::splat(1.0 / nf as f64), 0.0, 0.0);
        let mut coarse = LevelProps::uniform(Region::cube(nf / 4), Vector::splat(4.0 / nf as f64), 0.0, 0.0);
        // Hot wall at the +x face of both levels.
        for c in Region::new(IntVector::new(nf - 1, 0, 0), IntVector::new(nf, nf, nf)).cells() {
            fine.cell_type[c] = WALL_CELL;
            fine.abskg[c] = 1.0;
            fine.sigma_t4_over_pi[c] = 5.0;
        }
        let m = nf / 4;
        for c in Region::new(IntVector::new(m - 1, 0, 0), IntVector::new(m, m, m)).cells() {
            coarse.cell_type[c] = WALL_CELL;
            coarse.abskg[c] = 1.0;
            coarse.sigma_t4_over_pi[c] = 5.0;
        }
        let origin_cell = IntVector::new(2, nf / 2, nf / 2);
        let roi = Region::new(IntVector::ZERO, IntVector::new(6, nf, nf));
        let stack = [
            TraceLevel {
                props: &coarse,
                roi: coarse.region,
            },
            TraceLevel {
                props: &fine,
                roi,
            },
        ];
        let sum_i = trace_ray(&stack, fine.cell_center(origin_cell), Vector::new(1.0, 0.0, 0.0), 1e-12);
        assert!((sum_i - 5.0).abs() < 1e-9, "far wall seen through coarse: {sum_i}");
    }

    /// Path-length property: the per-cell segment lengths of a DDA traverse
    /// must sum to the chord length (checked via τ with κ = 1).
    #[test]
    fn dda_path_lengths_sum_to_chord() {
        let n = 16;
        let props = LevelProps::uniform(Region::cube(n), Vector::splat(1.0 / n as f64), 1.0, 1.0);
        let origin = Point::new(0.1234, 0.567, 0.891);
        let dir = Vector::new(0.3, -0.8, 0.52).normalized();
        let sum_i = trace_ray(&single(&props), origin, dir, 1e-300);
        // sumI = 1 − e^{-L}; recover L and compare with geometric chord.
        let l_measured = -(1.0 - sum_i).ln();
        let mut l_geom = f64::INFINITY;
        for a in 0..3 {
            let d = dir[a];
            if d > 0.0 {
                l_geom = l_geom.min((1.0 - origin[a]) / d);
            } else if d < 0.0 {
                l_geom = l_geom.min((0.0 - origin[a]) / d);
            }
        }
        assert!(
            (l_measured - l_geom).abs() < 1e-9,
            "path {l_measured} vs chord {l_geom}"
        );
    }

    /// A ray exiting the ROI exactly at the domain boundary must not panic
    /// and contributes only what it saw inside.
    #[test]
    fn roi_touching_domain_edge() {
        let n = 8;
        let props = LevelProps::uniform(Region::cube(n), Vector::splat(1.0 / n as f64), 1.0, 1.0);
        let coarse = LevelProps::uniform(Region::cube(n / 4), Vector::splat(4.0 / n as f64), 1.0, 1.0);
        let roi = Region::new(IntVector::new(6, 0, 0), IntVector::new(8, 8, 8));
        let stack = [
            TraceLevel {
                props: &coarse,
                roi: coarse.region,
            },
            TraceLevel {
                props: &props,
                roi,
            },
        ];
        let origin = props.cell_center(IntVector::new(7, 4, 4));
        let sum_i = trace_ray(&stack, origin, Vector::new(1.0, 0.0, 0.0), 1e-12);
        let expect = 1.0 - (-(0.5 / n as f64)).exp();
        assert!((sum_i - expect).abs() < 1e-9, "{sum_i} vs {expect}");
    }

    #[test]
    fn nonuniform_field_telescoping_is_exact() {
        // κ varies per cell; compare against a direct segment integration.
        let n = 8;
        let dx = 1.0 / n as f64;
        let mut props = LevelProps::uniform(Region::cube(n), Vector::splat(dx), 0.0, 0.0);
        let mut kappa_of_x = vec![0.0; n as usize];
        let mut s_of_x = vec![0.0; n as usize];
        for i in 0..n as usize {
            kappa_of_x[i] = 0.2 + 0.3 * i as f64;
            s_of_x[i] = 1.0 + (i as f64) * 0.5;
        }
        props.abskg = {
            let mut v = CcVariable::new(Region::cube(n));
            v.fill_with(|c| kappa_of_x[c.x as usize]);
            v
        };
        props.sigma_t4_over_pi = {
            let mut v = CcVariable::new(Region::cube(n));
            v.fill_with(|c| s_of_x[c.x as usize]);
            v
        };
        let origin = Point::new(0.5 * dx, 0.5, 0.5);
        let got = trace_ray(&single(&props), origin, Vector::new(1.0, 0.0, 0.0), 1e-300);
        // Direct integration: first segment is half a cell (origin at centre).
        let mut tau = 0.0;
        let mut expect = 0.0;
        let mut exp_prev = 1.0;
        for i in 0..n as usize {
            let seg = if i == 0 { 0.5 * dx } else { dx };
            tau += kappa_of_x[i] * seg;
            let e = (-tau).exp();
            expect += s_of_x[i] * (exp_prev - e);
            exp_prev = e;
        }
        assert!((got - expect).abs() < 1e-12, "{got} vs {expect}");
    }
}
