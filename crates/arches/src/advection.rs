//! Scalar advection with a prescribed velocity field.
//!
//! ARCHES transports heat with the resolved LES velocity (the `−p∇·v` and
//! convective terms of paper Eq. 1). A full momentum solve is out of scope
//! (DESIGN.md §2); this module adds the convective term with a *prescribed*
//! incompressible velocity field and first-order upwinding — enough to
//! exercise the coupling of transport, conduction and radiation in the
//! boiler demo (hot gas rising through the furnace).

use uintah_grid::{CcVariable, IntVector, Region, Vector};

/// A prescribed velocity field (m/s), evaluated at cell centres.
pub(crate) type VelocityFn = Box<dyn Fn(IntVector) -> Vector + Send + Sync>;

/// First-order upwind advection operator for a cell-centred scalar.
pub struct Advection {
    dx: Vector,
    velocity: CcVariable<[f64; 3]>,
    max_speed: f64,
}

impl Advection {
    pub(crate) fn new(region: Region, dx: Vector, velocity: VelocityFn) -> Self {
        let mut v = CcVariable::<[f64; 3]>::new(region);
        let mut max_speed = 0.0f64;
        v.fill_with(|c| {
            let u = velocity(c);
            max_speed = max_speed.max(u.x.abs()).max(u.y.abs()).max(u.z.abs());
            [u.x, u.y, u.z]
        });
        Self {
            dx,
            velocity: v,
            max_speed,
        }
    }

    /// A rising-plume velocity: upward (+z) in the core, returning down the
    /// walls; divergence-free by construction in the continuum sense.
    pub(crate) fn plume(region: Region, dx: Vector, w_max: f64) -> Self {
        let e = region.extent();
        Self::new(
            region,
            dx,
            Box::new(move |c| {
                let x = (c.x as f64 + 0.5) / e.x as f64;
                let y = (c.y as f64 + 0.5) / e.y as f64;
                // w = w_max·cos(πr)-ish: up in the centre, down near walls.
                let r2 = ((x - 0.5) * (x - 0.5) + (y - 0.5) * (y - 0.5)) * 4.0;
                Vector::new(0.0, 0.0, w_max * (1.0 - 2.0 * r2.min(1.0)))
            }),
        )
    }

    /// CFL-stable timestep bound for this velocity field.
    pub(crate) fn stable_dt(&self) -> f64 {
        let h = self.dx.x.min(self.dx.y).min(self.dx.z);
        if self.max_speed == 0.0 {
            f64::INFINITY
        } else {
            0.5 * h / self.max_speed
        }
    }

    /// `−(v·∇)T` at cell `c` with first-order upwind differences; values
    /// outside the region are taken as `boundary_value` (inflow at walls).
    pub(crate) fn rate(&self, t: &CcVariable<f64>, c: IntVector, boundary_value: f64) -> f64 {
        let u = self.velocity[c];
        let tc = t[c];
        let mut rate = 0.0;
        for a in 0..3 {
            let vel = u[a];
            if vel == 0.0 {
                continue;
            }
            let mut d = IntVector::ZERO;
            d[a] = if vel > 0.0 { -1 } else { 1 };
            let upstream = t.get(c + d).copied().unwrap_or(boundary_value);
            // vel>0: (T_c − T_{c−1})/h; vel<0: (T_{c+1} − T_c)/h.
            let grad = if vel > 0.0 {
                (tc - upstream) / self.dx[a]
            } else {
                (upstream - tc) / self.dx[a]
            };
            rate -= vel * grad;
        }
        rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_flow(region: Region, dx: Vector, u: Vector) -> Advection {
        Advection::new(region, dx, Box::new(move |_| u))
    }

    #[test]
    fn uniform_field_is_steady_under_any_flow() {
        let region = Region::cube(8);
        let adv = uniform_flow(region, Vector::splat(0.125), Vector::new(1.0, -2.0, 0.5));
        let t = CcVariable::filled(region, 300.0);
        for c in region.cells() {
            assert_eq!(adv.rate(&t, c, 300.0), 0.0);
        }
    }

    #[test]
    fn advection_moves_hot_spot_downstream() {
        let region = Region::cube(16);
        let dx = Vector::splat(1.0 / 16.0);
        let adv = uniform_flow(region, dx, Vector::new(1.0, 0.0, 0.0));
        let mut t = CcVariable::filled(region, 300.0);
        t[IntVector::new(4, 8, 8)] = 400.0;
        let dt = adv.stable_dt();
        // Explicit Euler steps: the peak should drift in +x.
        for _ in 0..16 {
            let mut next = t.clone();
            for c in region.cells() {
                next[c] = t[c] + dt * adv.rate(&t, c, 300.0);
            }
            t = next;
        }
        // Locate the maximum.
        let (mut best_c, mut best_v) = (IntVector::ZERO, f64::MIN);
        for (c, &v) in t.iter() {
            if v > best_v {
                best_v = v;
                best_c = c;
            }
        }
        assert!(best_c.x > 4, "hot spot must move downstream: at {best_c:?}");
        assert_eq!(best_c.y, 8);
        assert_eq!(best_c.z, 8);
    }

    #[test]
    fn upwind_is_monotone_no_new_extrema() {
        let region = Region::cube(8);
        let dx = Vector::splat(0.125);
        let adv = uniform_flow(region, dx, Vector::new(0.7, 0.3, -0.2));
        let mut t = CcVariable::<f64>::new(region);
        t.fill_with(|c| 300.0 + (c.x * 7 % 5) as f64 * 20.0 + (c.z % 3) as f64 * 10.0);
        let (lo, hi) = t
            .as_slice()
            .iter()
            .fold((f64::MAX, f64::MIN), |(l, h), &v| (l.min(v), h.max(v)));
        let dt = adv.stable_dt();
        let mut next = t.clone();
        for c in region.cells() {
            next[c] = t[c] + dt * adv.rate(&t, c, 300.0);
        }
        for (_, &v) in next.iter() {
            assert!(v >= lo.min(300.0) - 1e-9 && v <= hi + 1e-9, "new extremum {v}");
        }
    }

    #[test]
    fn plume_rises_in_core_sinks_at_walls() {
        let region = Region::cube(16);
        let adv = Advection::plume(region, Vector::splat(1.0 / 16.0), 2.0);
        let core = adv.velocity[IntVector::new(8, 8, 8)];
        let wall = adv.velocity[IntVector::new(0, 8, 8)];
        assert!(core[2] > 0.5, "core updraft {core:?}");
        assert!(wall[2] < 0.0, "wall downdraft {wall:?}");
        assert!(adv.stable_dt().is_finite());
    }

    #[test]
    fn cfl_bound_positive() {
        let adv = uniform_flow(Region::cube(4), Vector::splat(0.25), Vector::new(5.0, 0.0, 0.0));
        assert!((adv.stable_dt() - 0.5 * 0.25 / 5.0).abs() < 1e-12);
    }
}
