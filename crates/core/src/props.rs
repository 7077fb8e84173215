//! Radiative properties of one mesh level as seen by the ray marcher.

use uintah_grid::{CcVariable, IntVector, Point, Region, Vector};

/// Cell type value for a participating-medium (flow) cell.
pub const FLOW_CELL: u8 = 0;
/// Cell type value for an opaque wall cell.
pub const WALL_CELL: u8 = 1;

/// The radiative state of (part of) one level: everything a ray needs.
///
/// For the finest level the variables cover the ray's region of interest
/// (its patch plus halo); for coarse levels they cover the whole domain
/// (the replicas the all-to-all produces). `anchor`/`dx` map the level's
/// cell indices to physical space.
#[derive(Clone, Debug)]
pub struct LevelProps {
    /// Cells with valid data (the ROI or the whole level).
    pub region: Region,
    /// Physical position of the low corner of cell (0,0,0) *of the level*.
    pub anchor: Point,
    /// Cell spacing.
    pub dx: Vector,
    /// Absorption coefficient (1/m); wall emissivity on wall cells.
    pub abskg: CcVariable<f64>,
    /// σT⁴/π (W/m²/sr).
    pub sigma_t4_over_pi: CcVariable<f64>,
    /// [`FLOW_CELL`] / [`WALL_CELL`] per cell.
    pub cell_type: CcVariable<u8>,
}

impl LevelProps {
    /// Uniform-property helper (tests, analytic checks).
    pub fn uniform(region: Region, dx: Vector, abskg: f64, sig_t4_over_pi: f64) -> Self {
        Self {
            region,
            anchor: Point::ORIGIN,
            dx,
            abskg: CcVariable::filled(region, abskg),
            sigma_t4_over_pi: CcVariable::filled(region, sig_t4_over_pi),
            cell_type: CcVariable::filled(region, FLOW_CELL),
        }
    }

    /// Cell index containing physical point `p`.
    #[inline]
    pub fn cell_containing(&self, p: Point) -> IntVector {
        let r = p - self.anchor;
        IntVector::new(
            (r.x / self.dx.x).floor() as i32,
            (r.y / self.dx.y).floor() as i32,
            (r.z / self.dx.z).floor() as i32,
        )
    }

    /// Physical low corner of cell `c`.
    #[inline]
    pub fn cell_lo(&self, c: IntVector) -> Point {
        self.anchor
            + Vector::new(
                c.x as f64 * self.dx.x,
                c.y as f64 * self.dx.y,
                c.z as f64 * self.dx.z,
            )
    }

    /// Physical centre of cell `c`.
    #[inline]
    pub(crate) fn cell_center(&self, c: IntVector) -> Point {
        self.cell_lo(c) + self.dx * 0.5
    }

    #[inline]
    pub fn is_wall(&self, c: IntVector) -> bool {
        self.cell_type[c] != FLOW_CELL
    }

    /// Consistency check: all variables cover `region`.
    pub(crate) fn validate(&self) {
        assert_eq!(self.abskg.region(), self.region, "abskg region mismatch");
        assert_eq!(
            self.sigma_t4_over_pi.region(),
            self.region,
            "sigmaT4OverPi region mismatch"
        );
        assert_eq!(self.cell_type.region(), self.region, "cellType region mismatch");
        assert!(self.dx.x > 0.0 && self.dx.y > 0.0 && self.dx.z > 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_mapping() {
        let p = LevelProps::uniform(Region::cube(8), Vector::splat(0.125), 1.0, 0.5);
        p.validate();
        assert_eq!(p.cell_containing(Point::new(0.0, 0.0, 0.0)), IntVector::ZERO);
        assert_eq!(p.cell_containing(Point::new(0.99, 0.5, 0.13)), IntVector::new(7, 4, 1));
        let c = IntVector::new(3, 2, 1);
        assert_eq!(p.cell_containing(p.cell_center(c)), c);
    }

    #[test]
    fn wall_flagging() {
        let mut p = LevelProps::uniform(Region::cube(4), Vector::splat(0.25), 1.0, 0.5);
        p.cell_type[IntVector::ZERO] = WALL_CELL;
        assert!(p.is_wall(IntVector::ZERO));
        assert!(!p.is_wall(IntVector::ONE));
    }

    #[test]
    #[should_panic(expected = "abskg region mismatch")]
    fn validate_catches_mismatch() {
        let mut p = LevelProps::uniform(Region::cube(4), Vector::splat(0.25), 1.0, 0.5);
        p.abskg = CcVariable::filled(Region::cube(3), 1.0);
        p.validate();
    }
}
