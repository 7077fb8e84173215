//! Ray-direction sampling strategies.
//!
//! Uintah's `Ray` component offers stratified ("ray direction hyper-cube" /
//! Latin-hypercube) sampling in addition to independent sampling: the
//! (cosθ, φ) unit square is divided into `N` strata per axis with one
//! sample in each row and column, which removes directional clumping and
//! lowers Monte Carlo variance at equal ray count.

use crate::rng::{polar, CellRng};
use uintah_grid::Vector;

/// How the `nrays` directions of one cell are drawn.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RaySampling {
    /// Independent uniform directions.
    #[default]
    Independent,
    /// Latin-hypercube stratification over (cosθ, φ).
    LatinHypercube,
}

/// The largest ray batch a Latin-hypercube solve draws: its stratum
/// permutation holds 4 bytes per ray of a batch, so this bounds that
/// buffer at 4 MiB per thread. `RunConfig::validate` and every solve entry
/// refuse an LHC ray budget whose largest batch
/// ([`crate::RayCountMode::largest_batch`]) is above it; independent
/// sampling keeps no per-ray state and has no bound.
pub const MAX_LHC_BATCH: u32 = 1 << 20;

/// A per-cell direction sampler: hands out `nrays` directions.
#[derive(Default)]
pub struct DirectionSampler {
    mode: RaySampling,
    nrays: u32,
    /// Shuffled stratum assignment for φ (cosθ uses the ray index itself).
    phi_perm: Vec<u32>,
}

impl DirectionSampler {
    pub fn new(mode: RaySampling, nrays: u32, rng: &mut CellRng) -> Self {
        let mut sampler = Self::default();
        sampler.redraw(mode, nrays, rng);
        sampler
    }

    /// Make this the sampler [`DirectionSampler::new`] would return, in
    /// place: the stratum permutation is redrawn into the buffer this
    /// sampler already owns, so a sampler kept across cells allocates only
    /// when `nrays` outgrows every earlier cell's.
    pub fn redraw(&mut self, mode: RaySampling, nrays: u32, rng: &mut CellRng) {
        self.mode = mode;
        self.nrays = nrays;
        self.phi_perm.clear();
        if mode == RaySampling::LatinHypercube {
            self.phi_perm.extend(0..nrays);
            // Fisher–Yates with the cell RNG: deterministic per cell.
            for i in (1..self.phi_perm.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                self.phi_perm.swap(i, j);
            }
        }
    }

    /// The two draws of ray `r` (`0 <= r < nrays`): `cos θ` and the
    /// azimuth as a fraction of a turn. The only place the sampling modes
    /// differ; [`polar`] makes the direction of either.
    #[inline]
    pub fn angles(&self, r: u32, rng: &mut CellRng) -> (f64, f64) {
        match self.mode {
            RaySampling::Independent => {
                let cos_theta = 2.0 * rng.next_f64() - 1.0;
                (cos_theta, rng.next_f64())
            }
            RaySampling::LatinHypercube => {
                debug_assert!(r < self.nrays);
                let n = self.nrays as f64;
                // Stratum r on the cosθ axis, shuffled stratum on φ.
                let cos_theta = 2.0 * ((r as f64 + rng.next_f64()) / n) - 1.0;
                let phi_stratum = self.phi_perm[r as usize] as f64;
                (cos_theta, (phi_stratum + rng.next_f64()) / n)
            }
        }
    }

    /// Direction for ray `r` (`0 <= r < nrays`).
    pub fn direction(&self, r: u32, rng: &mut CellRng) -> Vector {
        let (cos_theta, turn) = self.angles(r, rng);
        polar(cos_theta, turn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uintah_grid::IntVector;

    #[test]
    fn lhc_covers_every_stratum_once() {
        let n = 16u32;
        let mut rng = CellRng::new(1, IntVector::ZERO, 0, 0);
        let s = DirectionSampler::new(RaySampling::LatinHypercube, n, &mut rng);
        let mut cos_strata = vec![false; n as usize];
        let mut phi_strata = vec![false; n as usize];
        for r in 0..n {
            let d = s.direction(r, &mut rng);
            assert!((d.length() - 1.0).abs() < 1e-12);
            let ct = ((d.z + 1.0) / 2.0 * n as f64).floor() as usize;
            let phi = d.y.atan2(d.x).rem_euclid(2.0 * std::f64::consts::PI);
            let ps = (phi / (2.0 * std::f64::consts::PI) * n as f64).floor() as usize;
            cos_strata[ct.min(n as usize - 1)] = true;
            phi_strata[ps.min(n as usize - 1)] = true;
        }
        assert!(cos_strata.iter().all(|&x| x), "every cosθ stratum hit once");
        assert!(phi_strata.iter().all(|&x| x), "every φ stratum hit once");
    }

    #[test]
    fn lhc_reduces_variance_of_directional_integral() {
        // Estimate ∫ f dΩ with f = max(0, d·ẑ)² (smooth): the stratified
        // estimator's variance across seeds should be well below the
        // independent one's.
        let n = 32u32;
        let runs = 60;
        let estimate = |mode: RaySampling, seed: u64| -> f64 {
            let mut rng = CellRng::new(seed, IntVector::ZERO, 0, 0);
            let s = DirectionSampler::new(mode, n, &mut rng);
            let mut sum = 0.0;
            for r in 0..n {
                let d = s.direction(r, &mut rng);
                sum += d.z.max(0.0).powi(2);
            }
            sum / n as f64
        };
        let variance = |mode: RaySampling| -> f64 {
            let vals: Vec<f64> = (0..runs).map(|k| estimate(mode, 1000 + k)).collect();
            let mean = vals.iter().sum::<f64>() / runs as f64;
            vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / runs as f64
        };
        let v_ind = variance(RaySampling::Independent);
        let v_lhc = variance(RaySampling::LatinHypercube);
        assert!(
            v_lhc < v_ind * 0.5,
            "LHC variance {v_lhc} should be well under independent {v_ind}"
        );
    }

    /// Isotropy beyond the first moment, for both modes at 200 k draws:
    /// `E[dᵢdⱼ] = δᵢⱼ/3` (a squashed or tilted distribution can still have
    /// zero mean), and a χ² of the counts on an 8 × 8 grid over
    /// (cos θ, φ), which is equal-area on the sphere — a swapped or
    /// mis-signed quadrant in `sincos_turn` empties φ bins.
    #[test]
    fn directions_are_isotropic_to_second_moments_and_chi_squared() {
        const PER_CELL: u32 = 64;
        const CELLS: u32 = 3125;
        for mode in [RaySampling::Independent, RaySampling::LatinHypercube] {
            let mut second = [[0.0f64; 3]; 3];
            let mut counts = [[0u32; 8]; 8];
            for cell in 0..CELLS {
                let id = IntVector::new(cell as i32, 1, 2);
                let mut perm_rng = CellRng::new(77, id, u32::MAX, 0);
                let sampler = DirectionSampler::new(mode, PER_CELL, &mut perm_rng);
                for r in 0..PER_CELL {
                    let mut rng = CellRng::new(77, id, r, 0);
                    let d = sampler.direction(r, &mut rng);
                    for (i, row) in second.iter_mut().enumerate() {
                        for (j, m) in row.iter_mut().enumerate() {
                            *m += d[i] * d[j];
                        }
                    }
                    let turn = d.y.atan2(d.x).rem_euclid(2.0 * std::f64::consts::PI) / (2.0 * std::f64::consts::PI);
                    let bin = |x: f64| ((x * 8.0) as usize).min(7);
                    counts[bin((d.z + 1.0) / 2.0)][bin(turn)] += 1;
                }
            }
            let n = (PER_CELL * CELLS) as f64;
            for (i, row) in second.iter().enumerate() {
                for (j, m) in row.iter().enumerate() {
                    let want = if i == j { 1.0 / 3.0 } else { 0.0 };
                    // 4σ: σ(dᵢ²) = √(4/45 / n) = 6.7e-4, σ(dᵢdⱼ) = √(1/15 / n) = 5.8e-4.
                    assert!((m / n - want).abs() < 3e-3, "{mode:?} E[d{i}d{j}] = {}", m / n);
                }
            }
            let expect = n / 64.0;
            let chi2: f64 = counts.iter().flatten().map(|&c| (c as f64 - expect).powi(2) / expect).sum();
            // 63 degrees of freedom: the 99.9th percentile is 103.4
            // (stratification only lowers the statistic).
            assert!(chi2 < 103.4, "{mode:?} chi-squared {chi2}");
        }
    }

    #[test]
    fn independent_mode_unchanged_from_rng() {
        let mut r1 = CellRng::new(4, IntVector::ZERO, 0, 0);
        let mut r2 = CellRng::new(4, IntVector::ZERO, 0, 0);
        let s = DirectionSampler::new(RaySampling::Independent, 8, &mut r1);
        let a = s.direction(0, &mut r1);
        // Sampler construction consumes nothing in Independent mode.
        let b = r2.direction();
        assert_eq!(a, b);
    }

    #[test]
    fn deterministic_per_seed() {
        let dirs = |seed: u64| -> Vec<Vector> {
            let mut rng = CellRng::new(seed, IntVector::new(1, 2, 3), 0, 0);
            let s = DirectionSampler::new(RaySampling::LatinHypercube, 8, &mut rng);
            (0..8).map(|r| s.direction(r, &mut rng)).collect()
        };
        assert_eq!(dirs(9), dirs(9));
        assert_ne!(dirs(9), dirs(10));
    }
}
