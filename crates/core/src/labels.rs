//! Variable labels and physical constants used by the RMCRT model.

use uintah_grid::VarLabel;

/// Absorption coefficient of the participating medium, κ (1/m). For wall
/// (boundary) cells this stores the wall emissivity, as in Uintah.
pub const ABSKG: VarLabel = VarLabel::new("abskg", 1);

/// Emissive source σT⁴/π (W/m²/sr).
pub const SIGMA_T4_OVER_PI: VarLabel = VarLabel::new("sigmaT4overPi", 2);

/// Cell type: [`crate::FLOW_CELL`] or [`crate::WALL_CELL`].
pub const CELLTYPE: VarLabel = VarLabel::new("cellType", 3);

/// Divergence of the radiative heat flux (W/m³), positive = net emission.
pub const DIVQ: VarLabel = VarLabel::new("divQ", 4);

/// Stefan–Boltzmann constant (W·m⁻²·K⁻⁴).
pub(crate) const SIGMA: f64 = 5.670373e-8;

/// σT⁴/π for a temperature `t` in kelvin.
#[inline]
pub fn sigma_t4_over_pi(t: f64) -> f64 {
    SIGMA * t * t * t * t / std::f64::consts::PI
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_have_unique_ids() {
        let ids = [ABSKG.id(), SIGMA_T4_OVER_PI.id(), CELLTYPE.id(), DIVQ.id()];
        let set: std::collections::HashSet<u8> = ids.into_iter().collect();
        assert_eq!(set.len(), ids.len());
    }

    #[test]
    fn benchmark_temperature_gives_unit_emissive_power() {
        // Burns & Christon use σT⁴ = 1 W/m²; T ≈ 64.804 K.
        let st4 = sigma_t4_over_pi(64.804) * std::f64::consts::PI;
        assert!((st4 - 1.0).abs() < 1e-4, "σT⁴ = {st4}");
    }
}
