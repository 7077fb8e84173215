//! A boiler-flavoured demo problem.
//!
//! The CCMSC target is a 1000 MWe oxy-fired clean coal boiler: a tall
//! rectangular furnace with a burner region injecting heat, soot-laden gas
//! (strongly absorbing) in the flame zone, and water-wall heat extraction.
//! This module builds a small version of that setup for the `boiler`
//! example and the coupled integration tests.

use crate::coupling::RadiationCoupler;
use crate::energy::{EnergySolver, TimeIntegrator};
use rmcrt_core::solver::RmcrtParams;
use uintah_grid::{CcVariable, IntVector, Region, Vector};

/// Geometry and physics of the demo boiler.
#[derive(Clone, Copy, Debug)]
pub struct BoilerSetup {
    /// Cells per axis (cube domain, 1 m side for the demo).
    pub n: i32,
    /// Burner volumetric heat release (W/m³).
    pub burner_power: f64,
    /// Soot/gas absorption coefficient in the flame zone (1/m).
    pub flame_abskg: f64,
    /// Background gas absorption (1/m).
    pub gas_abskg: f64,
    /// Water-wall temperature (K).
    pub wall_temperature: f64,
    /// Initial gas temperature (K).
    pub initial_temperature: f64,
    /// Core updraft speed (m/s); 0 disables the prescribed-velocity
    /// transport (conduction/radiation only).
    pub updraft: f64,
}

impl Default for BoilerSetup {
    fn default() -> Self {
        Self {
            n: 16,
            burner_power: 5e6,
            flame_abskg: 2.0,
            gas_abskg: 0.3,
            wall_temperature: 600.0,
            initial_temperature: 1200.0,
            updraft: 0.0,
        }
    }
}

impl BoilerSetup {
    pub(crate) fn region(&self) -> Region {
        Region::cube(self.n)
    }

    pub fn dx(&self) -> Vector {
        Vector::splat(1.0 / self.n as f64)
    }

    /// The burner occupies the lower-central core of the furnace.
    pub(crate) fn in_burner(&self, c: IntVector) -> bool {
        let n = self.n;
        let core = |v: i32| v >= n / 3 && v < 2 * n / 3;
        core(c.x) && core(c.y) && c.z >= n / 6 && c.z < n / 2
    }

    /// Absorption coefficient field: sooty in and above the flame.
    pub fn abskg(&self) -> CcVariable<f64> {
        let mut k = CcVariable::new(self.region());
        let n = self.n;
        k.fill_with(|c| {
            let core = |v: i32| v >= n / 4 && v < 3 * n / 4;
            if core(c.x) && core(c.y) && c.z >= n / 6 {
                self.flame_abskg
            } else {
                self.gas_abskg
            }
        });
        k
    }

    /// Build the coupled solver pair.
    pub fn build(&self, rad_interval: usize, params: RmcrtParams) -> (EnergySolver, RadiationCoupler) {
        let mut solver = EnergySolver::new(self.region(), self.dx(), self.initial_temperature);
        solver.wall_temperature = self.wall_temperature;
        solver.alpha = 2e-5;
        solver.integrator = TimeIntegrator::SspRk2;
        let setup = *self;
        solver.heat_source.fill_with(|c| {
            if setup.in_burner(c) {
                setup.burner_power
            } else {
                0.0
            }
        });
        if self.updraft > 0.0 {
            solver.advection = Some(crate::advection::Advection::plume(
                self.region(),
                self.dx(),
                self.updraft,
            ));
        }
        let coupler = RadiationCoupler::new(self.abskg(), rad_interval, params);
        (solver, coupler)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burner_region_is_interior() {
        let b = BoilerSetup::default();
        let mut any = false;
        for c in b.region().cells() {
            if b.in_burner(c) {
                any = true;
                assert!(c.x > 0 && c.x < b.n - 1, "burner touches wall at {c:?}");
            }
        }
        assert!(any, "burner must exist");
    }

    #[test]
    fn flame_zone_is_sootier_than_background() {
        let b = BoilerSetup::default();
        let k = b.abskg();
        assert_eq!(k[IntVector::new(0, 0, 0)], b.gas_abskg);
        assert_eq!(k[IntVector::new(8, 8, 8)], b.flame_abskg);
    }

    #[test]
    fn updraft_carries_flame_heat_to_upper_furnace() {
        // With the plume on, the cells above the burner end up hotter than
        // the same run without transport — the convective pattern the LES
        // would provide.
        let run = |updraft: f64| -> f64 {
            let b = BoilerSetup {
                n: 8,
                updraft,
                ..Default::default()
            };
            let (mut solver, mut coupler) = b.build(
                4,
                RmcrtParams {
                    nrays: 4,
                    threshold: 1e-3,
                    ..Default::default()
                },
            );
            let mut t = 0.0;
            while t < 1.5 {
                t += coupler.step(&mut solver, b.dx(), 0.05);
            }
            // Mean temperature of the *core column* above the burner (the
            // updraft path; the wall ring carries the cold return flow).
            let mut sum = 0.0;
            let mut count = 0;
            for (c, &v) in solver.temperature().iter() {
                let core = |v: i32| (3..5).contains(&v);
                if core(c.x) && core(c.y) && c.z >= 5 {
                    sum += v;
                    count += 1;
                }
            }
            sum / count as f64
        };
        let still = run(0.0);
        let convecting = run(1.0);
        assert!(
            convecting > still + 1.0,
            "updraft must heat the core column above the flame: {convecting} vs {still}"
        );
    }

    #[test]
    fn coupled_boiler_reaches_quasi_steady_flame() {
        // Burner heats, radiation + conduction remove heat: the flame-zone
        // temperature must rise then settle rather than run away.
        let b = BoilerSetup {
            n: 8,
            ..Default::default()
        };
        let (mut solver, mut coupler) = b.build(
            4,
            RmcrtParams {
                nrays: 8,
                threshold: 1e-3,
                ..Default::default()
            },
        );
        let dt = solver.stable_dt();
        let mut means = Vec::new();
        for step in 0..60 {
            coupler.step(&mut solver, b.dx(), dt);
            if step % 20 == 19 {
                means.push(solver.mean_temperature());
            }
        }
        assert!(coupler.solves() >= 15);
        // Finite and physical.
        for &m in &means {
            assert!(m.is_finite() && m > 300.0 && m < 4000.0, "mean T {m}");
        }
        // Growth rate decelerates as radiation losses grow with T⁴.
        let g1 = means[1] - means[0];
        let g2 = means[2] - means[1];
        assert!(g2 < g1 * 1.05, "heating must decelerate: {means:?}");
    }
}
