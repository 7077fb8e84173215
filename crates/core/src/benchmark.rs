//! The Burns & Christon benchmark problem.
//!
//! Burns & Christon (1997) define the standard verification problem used by
//! every Uintah RMCRT paper, including this one: a unit cube of hot,
//! non-scattering participating medium with a spatially varying absorption
//! coefficient, enclosed by cold black walls:
//!
//! ```text
//! κ(x,y,z) = 0.9·(1 − 2|x−½|)·(1 − 2|y−½|)·(1 − 2|z−½|) + 0.1
//! σT⁴ = 1 W/m²  (T ≈ 64.804 K), walls at 0 K, ε = 1
//! ```
//!
//! The quantity of interest is ∇·q on the fine mesh. The paper's MEDIUM
//! (256³/64³) and LARGE (512³/128³) scaling problems are exactly this
//! benchmark on 2-level grids with refinement ratio 4 and 100 rays/cell
//! (the bench crate's `campaign::Problem::{medium, large}` build them).

use crate::labels::SIGMA;
use crate::props::LevelProps;
use std::f64::consts::PI;
use uintah_grid::{CcVariable, Grid, IntVector, Level, Point, Region};

/// The benchmark problem definition.
#[derive(Clone, Copy, Debug)]
pub struct BurnsChriston {
    /// Medium temperature (K). Default gives σT⁴ = 1 W/m².
    pub temperature: f64,
}

impl Default for BurnsChriston {
    fn default() -> Self {
        Self {
            temperature: 64.804,
        }
    }
}

impl BurnsChriston {
    /// The absorption coefficient at physical point `p` in the unit cube.
    pub(crate) fn kappa(&self, p: Point) -> f64 {
        0.9 * (1.0 - 2.0 * (p.x - 0.5).abs())
            * (1.0 - 2.0 * (p.y - 0.5).abs())
            * (1.0 - 2.0 * (p.z - 0.5).abs())
            + 0.1
    }

    /// σT⁴/π of the medium.
    pub(crate) fn sigma_t4_over_pi(&self) -> f64 {
        let t = self.temperature;
        SIGMA * t * t * t * t / PI
    }

    /// Fill the radiative properties of `level` over `region` (cell-centred
    /// evaluation of κ, uniform emissive power, all flow cells — the cold
    /// black enclosure is the domain boundary itself).
    pub fn props_for_region(&self, level: &Level, region: Region) -> LevelProps {
        let mut abskg = CcVariable::<f64>::new(region);
        abskg.fill_with(|c| self.kappa(level.cell_center(c)));
        LevelProps {
            region,
            anchor: level.anchor(),
            dx: level.dx(),
            abskg,
            sigma_t4_over_pi: CcVariable::filled(region, self.sigma_t4_over_pi()),
            cell_type: CcVariable::filled(region, crate::props::FLOW_CELL),
        }
    }

    /// Properties for a whole level.
    pub fn props_for_level(&self, level: &Level) -> LevelProps {
        self.props_for_region(level, level.cell_region())
    }

    /// A scaled-down grid with the same 2-level, RR-4 structure for tests
    /// and laptop-scale examples.
    pub fn small_grid(fine_cells: i32, fine_patch: i32) -> Grid {
        Grid::builder()
            .fine_cells(IntVector::splat(fine_cells))
            .num_levels(2)
            .refinement_ratio(4)
            .fine_patch_size(IntVector::splat(fine_patch))
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{div_q_for_cell, RmcrtParams};
    use crate::trace::TraceLevel;

    #[test]
    fn kappa_field_shape() {
        let b = BurnsChriston::default();
        // Maximum at the centre: 0.9 + 0.1 = 1.0.
        assert!((b.kappa(Point::new(0.5, 0.5, 0.5)) - 1.0).abs() < 1e-12);
        // Minimum at corners: 0.1.
        assert!((b.kappa(Point::new(0.0, 0.0, 0.0)) - 0.1).abs() < 1e-12);
        assert!((b.kappa(Point::new(1.0, 1.0, 1.0)) - 0.1).abs() < 1e-12);
        // Symmetric.
        let p = b.kappa(Point::new(0.3, 0.7, 0.2));
        assert!((p - b.kappa(Point::new(0.7, 0.3, 0.8))).abs() < 1e-12);
    }

    #[test]
    fn emissive_power_is_unit() {
        let b = BurnsChriston::default();
        assert!((b.sigma_t4_over_pi() * PI - 1.0).abs() < 1e-4);
    }

    #[test]
    fn props_match_formula_at_cell_centres() {
        let grid = BurnsChriston::small_grid(16, 8);
        let b = BurnsChriston::default();
        let props = b.props_for_level(grid.fine_level());
        props.validate();
        let c = IntVector::new(8, 8, 8);
        let expect = b.kappa(grid.fine_level().cell_center(c));
        assert_eq!(props.abskg[c], expect);
    }

    #[test]
    fn centre_cell_div_q_positive_and_stable() {
        // Hot medium, cold enclosure: the centre cell emits more than it
        // absorbs (∇·q > 0 in our sign convention), magnitude of order
        // 4π·κ·σT⁴/π·(escape fraction) ≈ O(1) W/m³ for the unit problem.
        let grid = BurnsChriston::small_grid(32, 16);
        let b = BurnsChriston::default();
        let props = b.props_for_level(grid.fine_level());
        let stack = [TraceLevel {
            props: &props,
            roi: props.region,
        }];
        let params = RmcrtParams {
            nrays: 256,
            threshold: 1e-4,
            ..Default::default()
        };
        let dq = div_q_for_cell(&stack, IntVector::splat(16), &params);
        assert!(dq > 0.0, "centre must be a net emitter, got {dq}");
        assert!(dq < 4.0, "unreasonably large divQ {dq}");
    }
}
