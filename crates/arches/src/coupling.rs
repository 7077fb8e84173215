//! Loose (time-scale-separated) coupling of the energy equation to RMCRT.
//!
//! "Thermal radiation in the target boiler simulations is loosely coupled
//! to the computational fluid dynamics (CFD) due to time-scale separation"
//! (paper §III-A): ARCHES advances many CFD steps per radiation solve, and
//! the radiative source is held frozen in between. This module implements
//! exactly that pattern against `rmcrt-core`.

use crate::energy::EnergySolver;
use rmcrt_core::labels::sigma_t4_over_pi;
use rmcrt_core::props::{LevelProps, FLOW_CELL};
use rmcrt_core::solver::{solve_region, RmcrtParams};
use rmcrt_core::trace::TraceLevel;
use uintah_grid::{CcVariable, Point, Vector};

/// Recomputes `∇·q_r` from the current temperature field every
/// `interval` CFD steps.
pub struct RadiationCoupler {
    /// CFD steps between radiation solves.
    pub interval: usize,
    /// Absorption coefficient field (fixed composition here; a combustion
    /// code would update it from species).
    pub abskg: CcVariable<f64>,
    pub params: RmcrtParams,
    steps_since_solve: usize,
    solves: usize,
}

impl RadiationCoupler {
    pub(crate) fn new(abskg: CcVariable<f64>, interval: usize, params: RmcrtParams) -> Self {
        Self {
            interval: interval.max(1),
            abskg,
            params,
            steps_since_solve: usize::MAX / 2, // force a solve on first step
            solves: 0,
        }
    }

    /// Number of radiation solves performed.
    pub fn solves(&self) -> usize {
        self.solves
    }

    /// Advance the coupled system by one CFD step of at most `dt` (the
    /// step is clamped to the solver's current stability limit, which
    /// tightens once a radiation solve installs a stiff `∇·q`). Returns
    /// the step actually taken.
    pub fn step(&mut self, solver: &mut EnergySolver, dx: Vector, dt: f64) -> f64 {
        if self.steps_since_solve >= self.interval {
            self.solve_radiation(solver, dx);
            self.steps_since_solve = 0;
        }
        let dt = dt.min(solver.stable_dt());
        solver.step(dt);
        self.steps_since_solve += 1;
        dt
    }

    /// Run RMCRT on the current temperature field and refresh `∇·q`.
    pub(crate) fn solve_radiation(&mut self, solver: &mut EnergySolver, dx: Vector) {
        let region = solver.region();
        assert_eq!(self.abskg.region(), region, "abskg region mismatch");
        let mut sig = CcVariable::<f64>::new(region);
        let t = solver.temperature();
        for c in region.cells() {
            sig[c] = sigma_t4_over_pi(t[c]);
        }
        let props = LevelProps {
            region,
            anchor: Point::ORIGIN,
            dx,
            abskg: self.abskg.clone(),
            sigma_t4_over_pi: sig,
            cell_type: CcVariable::filled(region, FLOW_CELL),
        };
        let stack = [TraceLevel {
            props: &props,
            roi: region,
        }];
        let mut params = self.params;
        params.timestep = self.solves as u32;
        solver.div_q = solve_region(&stack, region, &params);
        self.solves += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uintah_grid::Region;

    fn setup(n: i32) -> (EnergySolver, RadiationCoupler, Vector) {
        let region = Region::cube(n);
        let dx = Vector::splat(1.0 / n as f64);
        let mut solver = EnergySolver::new(region, dx, 1500.0);
        solver.alpha = 1e-6; // radiation-dominated
        let abskg = CcVariable::filled(region, 1.0);
        let coupler = RadiationCoupler::new(
            abskg,
            5,
            RmcrtParams {
                nrays: 16,
                threshold: 1e-3,
                ..Default::default()
            },
        );
        (solver, coupler, dx)
    }

    #[test]
    fn radiation_solved_on_schedule() {
        let (mut solver, mut coupler, dx) = setup(8);
        let dt = solver.stable_dt();
        for _ in 0..11 {
            coupler.step(&mut solver, dx, dt);
        }
        // Solve at step 0, 5, 10 → 3 solves.
        assert_eq!(coupler.solves(), 3);
    }

    #[test]
    fn hot_medium_cold_walls_radiatively_cools() {
        let (mut solver, mut coupler, dx) = setup(8);
        let dt = solver.stable_dt();
        let before = solver.mean_temperature();
        for _ in 0..20 {
            coupler.step(&mut solver, dx, dt);
        }
        let after = solver.mean_temperature();
        assert!(
            after < before - 1.0,
            "radiation must cool the hot medium: {before} -> {after}"
        );
        // divQ is positive (net emission) in the interior.
        let c = uintah_grid::IntVector::splat(4);
        assert!(solver.div_q[c] > 0.0);
    }

    #[test]
    fn frozen_source_between_solves() {
        let (mut solver, mut coupler, dx) = setup(8);
        let dt = solver.stable_dt();
        coupler.step(&mut solver, dx, dt); // solve happens here
        let snapshot = solver.div_q.clone();
        coupler.step(&mut solver, dx, dt); // no solve
        assert_eq!(solver.div_q, snapshot, "divQ must stay frozen between solves");
    }

    #[test]
    fn equilibrium_with_matching_walls_does_not_cool() {
        // Walls as hot as the medium: radiation exchange nets ~zero through
        // the enclosure (cold-black-boundary approximation makes this only
        // approximate, so allow slow drift but much slower than the cold
        // case).
        let region = Region::cube(8);
        let dx = Vector::splat(1.0 / 8.0);
        let mut cold = EnergySolver::new(region, dx, 1500.0);
        cold.alpha = 1e-6;
        let mut cold_coupler = RadiationCoupler::new(
            CcVariable::filled(region, 1.0),
            1,
            RmcrtParams {
                nrays: 16,
                ..Default::default()
            },
        );
        let mut weak = EnergySolver::new(region, dx, 1500.0);
        weak.alpha = 1e-6;
        let mut weak_coupler = RadiationCoupler::new(
            CcVariable::filled(region, 0.01), // nearly transparent
            1,
            RmcrtParams {
                nrays: 16,
                ..Default::default()
            },
        );
        // Same *physical* time for both media (the coupler clamps each
        // solver's step to its own stability limit, so march small steps).
        let dt_req: f64 = 0.02;
        let t_end: f64 = 0.5;
        let mut t_cold = 0.0;
        while t_cold < t_end {
            t_cold += cold_coupler.step(&mut cold, dx, dt_req.min(t_end - t_cold));
        }
        let mut t_weak = 0.0;
        while t_weak < t_end {
            t_weak += weak_coupler.step(&mut weak, dx, dt_req.min(t_end - t_weak));
        }
        let cold_drop = 1500.0 - cold.mean_temperature();
        let weak_drop = 1500.0 - weak.mean_temperature();
        assert!(
            weak_drop < cold_drop / 5.0,
            "optically thin medium must cool far slower: {weak_drop} vs {cold_drop}"
        );
    }
}
