//! Multi-group ("banded") spectral RMCRT — the paper's stated future work.
//!
//! §III-A: "Though a method for modeling spectral effects has been
//! considered, currently we are using a mean absorption coefficient
//! approximation … Adding spectral frequencies to RMCRT would entail
//! adding a loop over wave-lengths, η, and is part of future work."
//!
//! This module implements that loop as a band model (the practical form of
//! full-spectrum k-distributions like Sun & Smith's FSK, ref. \[2\]): the
//! spectrum is split into `N` bands, each with its own absorption
//! coefficient field and a weight `a_k` (the fraction of the Planck
//! function in the band, Σ a_k = 1). Each band is traced independently —
//! the loop over η — and
//!
//! ```text
//! ∇·q = Σ_k a_k · 4π · κ_k · (σT⁴/π − mean I_k / a_k-normalized)
//!     = Σ_k 4π · κ_k · (a_k σT⁴/π − mean Î_k)
//! ```
//!
//! where band emission uses `a_k·σT⁴/π` as its source.

use crate::packet::PacketTracer;
use crate::props::LevelProps;
use crate::solver::RmcrtParams;
use crate::trace::TraceLevel;
use uintah_grid::{CcVariable, IntVector, Region};

/// One spectral band: a weight and its absorption-coefficient field.
#[derive(Clone, Debug)]
pub struct Band {
    /// Planck fraction of the band, `a_k`; the set must sum to 1.
    pub weight: f64,
    /// Band absorption coefficient κ_k over the same region as the grey
    /// properties.
    pub abskg: CcVariable<f64>,
}

/// A banded spectral model over a single level.
#[derive(Clone, Debug)]
pub struct SpectralProps {
    /// Grey base (geometry, σT⁴/π, cellType come from here).
    pub base: LevelProps,
    pub bands: Vec<Band>,
}

impl SpectralProps {
    /// Grey limit: one band of weight 1 with the base κ.
    pub fn grey(base: LevelProps) -> Self {
        let abskg = base.abskg.clone();
        Self {
            base,
            bands: vec![Band {
                weight: 1.0,
                abskg,
            }],
        }
    }

    /// Consistency checks: weights sum to 1, every band covers the region.
    pub fn validate(&self) {
        self.base.validate();
        let total: f64 = self.bands.iter().map(|b| b.weight).sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "band weights must sum to 1, got {total}"
        );
        for (k, b) in self.bands.iter().enumerate() {
            assert_eq!(
                b.abskg.region(),
                self.base.region,
                "band {k} κ region mismatch"
            );
            assert!(b.weight >= 0.0, "band {k} has negative weight");
        }
    }

    /// The Planck-weighted grey (mean) absorption coefficient field the
    /// paper's current model would use: `κ̄ = Σ a_k κ_k`.
    pub fn planck_mean_abskg(&self) -> CcVariable<f64> {
        let mut out = CcVariable::<f64>::new(self.base.region);
        for b in &self.bands {
            for (o, k) in out.as_mut_slice().iter_mut().zip(b.abskg.as_slice()) {
                *o += b.weight * k;
            }
        }
        out
    }
}

/// Band-local properties: κ_k and the band's share of emission, plus the
/// band-decorrelated parameter block. Shared by the one-cell and the
/// region-wide solves so both produce identical bits.
fn band_props(
    spectral: &SpectralProps,
    params: &RmcrtParams,
) -> Vec<(RmcrtParams, LevelProps)> {
    spectral
        .bands
        .iter()
        .enumerate()
        .filter(|(_, band)| band.weight != 0.0)
        .map(|(k, band)| {
            let mut props = spectral.base.clone();
            props.abskg = band.abskg.clone();
            for s in props.sigma_t4_over_pi.as_mut_slice() {
                *s *= band.weight;
            }
            // Decorrelate bands via the timestep stream.
            let band_params = RmcrtParams {
                timestep: params.timestep.wrapping_mul(131).wrapping_add(k as u32),
                ..*params
            };
            (band_params, props)
        })
        .collect()
}

/// ∇·q for one cell with the banded model: trace each band independently
/// (the "loop over η") and sum the band divergences.
pub fn div_q_spectral(spectral: &SpectralProps, cell: IntVector, params: &RmcrtParams) -> f64 {
    let mut total = 0.0;
    for (band_params, props) in &band_props(spectral, params) {
        if props.abskg[cell] == 0.0 {
            continue;
        }
        let stack = [TraceLevel {
            props,
            roi: props.region,
        }];
        total += crate::solver::div_q_for_cell(&stack, cell, band_params);
    }
    total
}

/// Banded solve over a region. Equivalent to [`solve_region_spectral_exec`]
/// on the serial space.
pub fn solve_region_spectral(
    spectral: &SpectralProps,
    region: Region,
    params: &RmcrtParams,
) -> CcVariable<f64> {
    solve_region_spectral_exec(spectral, region, params, &uintah_exec::ExecSpace::Serial)
}

/// Banded solve over a region, dispatched on an execution space.
/// Bit-identical across spaces (the band loop is inside the cell kernel).
///
/// The per-band property fields and packet tracers are prepared once here,
/// outside the cell loop — the historical implementation cloned the whole
/// property set per band *per cell*.
pub fn solve_region_spectral_exec(
    spectral: &SpectralProps,
    region: Region,
    params: &RmcrtParams,
    space: &uintah_exec::ExecSpace,
) -> CcVariable<f64> {
    spectral.validate();
    let bands = band_props(spectral, params);
    let stacks: Vec<[TraceLevel<'_>; 1]> = bands
        .iter()
        .map(|(_, props)| {
            [TraceLevel {
                props,
                roi: props.region,
            }]
        })
        .collect();
    let tracers: Vec<(&RmcrtParams, PacketTracer<'_>)> = bands
        .iter()
        .zip(&stacks)
        .map(|((band_params, _), stack)| {
            (band_params, band_params.tracer(stack))
        })
        .collect();
    uintah_exec::parallel_fill(space, region, |c| {
        let mut total = 0.0;
        for (band_params, tracer) in &tracers {
            if tracer.fine_props().abskg[c] == 0.0 {
                continue;
            }
            total += crate::solver::div_q_for_cell_with(tracer, c, band_params).0;
        }
        total
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use uintah_grid::Vector;

    fn base(n: i32, kappa: f64, s: f64) -> LevelProps {
        LevelProps::uniform(Region::cube(n), Vector::splat(1.0 / n as f64), kappa, s)
    }

    #[test]
    fn grey_limit_matches_grey_solver() {
        let n = 8;
        let props = base(n, 1.5, 0.8);
        let spectral = SpectralProps::grey(props.clone());
        spectral.validate();
        let params = RmcrtParams {
            nrays: 32,
            ..Default::default()
        };
        let c = IntVector::splat(n / 2);
        let banded = div_q_spectral(&spectral, c, &params);
        let grey_params = RmcrtParams {
            timestep: params.timestep.wrapping_mul(131),
            ..params
        };
        let grey = crate::solver::div_q_for_cell(
            &[TraceLevel {
                props: &props,
                roi: props.region,
            }],
            c,
            &grey_params,
        );
        assert_eq!(banded, grey, "one band of weight 1 must be the grey solve");
    }

    #[test]
    fn identical_bands_reproduce_grey_answer() {
        // Two bands with the same κ and weights 0.5/0.5: emission splits,
        // absorption identical per band, so the sum equals the grey
        // answer in expectation (different noise per band).
        let n = 8;
        let props = base(n, 2.0, 1.0);
        let spectral = SpectralProps {
            base: props.clone(),
            bands: vec![
                Band {
                    weight: 0.5,
                    abskg: props.abskg.clone(),
                },
                Band {
                    weight: 0.5,
                    abskg: props.abskg.clone(),
                },
            ],
        };
        let params = RmcrtParams {
            nrays: 2048,
            threshold: 1e-6,
            ..Default::default()
        };
        let c = IntVector::splat(n / 2);
        let banded = div_q_spectral(&spectral, c, &params);
        let grey = crate::solver::div_q_for_cell(
            &[TraceLevel {
                props: &props,
                roi: props.region,
            }],
            c,
            &params,
        );
        let rel = (banded - grey).abs() / grey.abs();
        assert!(rel < 0.05, "banded {banded} vs grey {grey} (rel {rel})");
    }

    #[test]
    fn spectral_differs_from_planck_mean_in_nongrey_medium() {
        // A strongly non-grey medium: one transparent band, one opaque.
        // The grey (Planck-mean) approximation *overestimates* net
        // emission loss at the centre because it lets all energy travel at
        // the mean opacity instead of trapping the opaque band — the
        // error the spectral loop exists to remove.
        let n = 12;
        let props = base(n, 0.0, 1.0);
        let spectral = SpectralProps {
            base: props.clone(),
            bands: vec![
                Band {
                    weight: 0.5,
                    abskg: CcVariable::filled(props.region, 0.05),
                },
                Band {
                    weight: 0.5,
                    abskg: CcVariable::filled(props.region, 20.0),
                },
            ],
        };
        spectral.validate();
        let params = RmcrtParams {
            nrays: 1024,
            threshold: 1e-6,
            ..Default::default()
        };
        let c = IntVector::splat(n / 2);
        let banded = div_q_spectral(&spectral, c, &params);
        // Grey comparison with the Planck-mean κ.
        let mut grey_props = props.clone();
        grey_props.abskg = spectral.planck_mean_abskg();
        assert!((grey_props.abskg[c] - 10.025).abs() < 1e-9);
        let grey = crate::solver::div_q_for_cell(
            &[TraceLevel {
                props: &grey_props,
                roi: grey_props.region,
            }],
            c,
            &params,
        );
        assert!(
            grey > 1.2 * banded,
            "Planck-mean must overestimate the loss: grey {grey} vs banded {banded}"
        );
        assert!(banded > 0.0);
    }

    #[test]
    #[should_panic(expected = "band weights must sum to 1")]
    fn weight_sum_checked() {
        let props = base(4, 1.0, 1.0);
        let spectral = SpectralProps {
            base: props.clone(),
            bands: vec![Band {
                weight: 0.7,
                abskg: props.abskg.clone(),
            }],
        };
        spectral.validate();
    }

    #[test]
    fn solve_region_spectral_is_finite_everywhere() {
        let n = 6;
        let props = base(n, 1.0, 1.0);
        let spectral = SpectralProps {
            base: props.clone(),
            bands: vec![
                Band {
                    weight: 0.3,
                    abskg: CcVariable::filled(props.region, 0.2),
                },
                Band {
                    weight: 0.7,
                    abskg: CcVariable::filled(props.region, 3.0),
                },
            ],
        };
        let out = solve_region_spectral(
            &spectral,
            Region::cube(n),
            &RmcrtParams {
                nrays: 8,
                ..Default::default()
            },
        );
        for (_, &v) in out.iter() {
            assert!(v.is_finite());
        }
    }
}
