//! Discrete ordinates (S_N) baseline solver.
//!
//! ARCHES historically computed the radiative source with a discrete
//! ordinates method (Krishnamoorthy et al.); the paper motivates RMCRT
//! against DOM's costs (global sweeps / linear solves) and its *false
//! scattering* (ray widening from spatial discretization error, §III-A).
//!
//! For a non-scattering grey medium the RTE along each ordinate is a pure
//! advection-absorption equation, so a single first-order upwind sweep per
//! ordinate is exact at the discrete level — no source iteration needed.
//! The incident radiation is `G = Σ_m w_m I_m` and
//! `∇·q = κ (4 σT⁴ − G) = 4π κ (σT⁴/π) − κ G`.

use crate::props::LevelProps;
use std::f64::consts::PI;
use uintah_exec::{parallel_fill, parallel_map, ExecSpace};
use uintah_grid::{CcVariable, IntVector, Region};

/// A discrete ordinate: unit direction and quadrature weight.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Ordinate {
    pub mu: f64,
    pub eta: f64,
    pub xi: f64,
    pub weight: f64,
}

/// Level-symmetric quadrature order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SnOrder {
    S2,
    S4,
    S6,
    S8,
}

impl SnOrder {
    /// Number of ordinates (N(N+2) for level-symmetric S_N).
    pub(crate) fn num_ordinates(self) -> usize {
        match self {
            SnOrder::S2 => 8,
            SnOrder::S4 => 24,
            SnOrder::S6 => 48,
            SnOrder::S8 => 80,
        }
    }
}

/// Build the level-symmetric (LQ_N) ordinate set, normalized so the weights
/// sum to 4π. Direction-cosine values are the standard LQ_N constants
/// (Lewis & Miller).
pub(crate) fn ordinates(order: SnOrder) -> Vec<Ordinate> {
    // Per-octant ordinate patterns: (mu index triplets, relative weight).
    let (mus, patterns): (&[f64], &[([usize; 3], f64)]) = match order {
        SnOrder::S2 => (&[0.577_350_3], &[([0, 0, 0], 1.0)]),
        SnOrder::S4 => (
            &[0.350_021_2, 0.868_890_3],
            // Permutations of (μ1, μ1, μ2): all equal weight.
            &[
                ([0, 0, 1], 1.0),
                ([0, 1, 0], 1.0),
                ([1, 0, 0], 1.0),
            ],
        ),
        SnOrder::S6 => (
            &[0.266_635_5, 0.681_507_6, 0.926_180_8],
            &[
                ([0, 0, 2], 0.176_126_3),
                ([0, 2, 0], 0.176_126_3),
                ([2, 0, 0], 0.176_126_3),
                ([0, 1, 1], 0.157_207_1),
                ([1, 0, 1], 0.157_207_1),
                ([1, 1, 0], 0.157_207_1),
            ],
        ),
        SnOrder::S8 => (
            &[0.218_217_9, 0.577_350_3, 0.786_795_6, 0.951_189_7],
            &[
                ([0, 0, 3], 0.120_987_7),
                ([0, 3, 0], 0.120_987_7),
                ([3, 0, 0], 0.120_987_7),
                ([0, 1, 2], 0.090_740_7),
                ([0, 2, 1], 0.090_740_7),
                ([1, 0, 2], 0.090_740_7),
                ([2, 0, 1], 0.090_740_7),
                ([1, 2, 0], 0.090_740_7),
                ([2, 1, 0], 0.090_740_7),
                ([1, 1, 1], 0.092_592_6),
            ],
        ),
    };
    let mut out = Vec::with_capacity(order.num_ordinates());
    for &(idx, w) in patterns {
        for sx in [1.0, -1.0] {
            for sy in [1.0, -1.0] {
                for sz in [1.0, -1.0] {
                    out.push(Ordinate {
                        mu: sx * mus[idx[0]],
                        eta: sy * mus[idx[1]],
                        xi: sz * mus[idx[2]],
                        weight: w,
                    });
                }
            }
        }
    }
    // Normalize weights to 4π.
    let total: f64 = out.iter().map(|o| o.weight).sum();
    let scale = 4.0 * PI / total;
    for o in &mut out {
        o.weight *= scale;
    }
    out
}

/// Result of a DOM solve.
pub struct DomSolution {
    /// Incident radiation G (W/m²).
    pub g: CcVariable<f64>,
    /// ∇·q (positive = net emission, same convention as the RMCRT solver).
    pub div_q: CcVariable<f64>,
    /// Work performed: cells × ordinates (the cost unit the comparison
    /// bench reports).
    pub cell_ordinate_updates: usize,
}

/// Solve the non-scattering grey RTE on a single level with first-order
/// upwind sweeps. Boundary condition: cold black walls (incoming I = 0),
/// plus any interior wall cells in `props` (treated as cold here).
///
/// Each ordinate's upwind sweep is an independent recurrence, so the
/// dispatch on `space` is per ordinate ([`parallel_map`]); the incident
/// radiation `G` is then accumulated in canonical ordinate order, making
/// the result bit-identical on every space.
pub fn solve(props: &LevelProps, order: SnOrder, space: &ExecSpace) -> DomSolution {
    props.validate();
    let ords = ordinates(order);
    let g = incident_radiation(props, &ords, 0.0, &CcVariable::new(props.region), space);
    solution(props, g, ords.len(), space)
}

/// Solve the grey RTE *with isotropic scattering* by source iteration:
/// the scattering source `σ_s/(4π)·G` couples all ordinates, so DOM must
/// iterate sweeps until `G` converges — the cost structure the paper
/// contrasts with RMCRT (where scattering is just a direction change, see
/// [`crate::scatter`]).
///
/// Returns the solution and the number of source iterations performed.
/// Runs on the calling thread.
pub fn solve_with_scattering(
    props: &LevelProps,
    order: SnOrder,
    sigma_s: f64,
    tol: f64,
    max_iters: usize,
) -> (DomSolution, usize) {
    let space = &ExecSpace::Serial;
    props.validate();
    assert!(sigma_s >= 0.0);
    let ords = ordinates(order);
    let mut g = CcVariable::<f64>::new(props.region);
    let mut iters = 0;
    loop {
        iters += 1;
        let g_new = incident_radiation(props, &ords, sigma_s, &g, space);
        // Convergence on the incident radiation.
        let mut max_diff = 0.0f64;
        let mut max_g = 1e-300f64;
        for (a, b) in g_new.as_slice().iter().zip(g.as_slice()) {
            max_diff = max_diff.max((a - b).abs());
            max_g = max_g.max(a.abs());
        }
        g = g_new;
        if max_diff / max_g < tol || iters >= max_iters {
            break;
        }
    }
    (solution(props, g, ords.len() * iters, space), iters)
}

/// One sweep of every ordinate (fanned out on `space`), then
/// `G = Σ_m w_m I_m` accumulated in canonical ordinate order.
fn incident_radiation(
    props: &LevelProps,
    ords: &[Ordinate],
    sigma_s: f64,
    g_prev: &CcVariable<f64>,
    space: &ExecSpace,
) -> CcVariable<f64> {
    let region = props.region;
    let intensities = parallel_map(space, ords.len(), |m| {
        let mut intensity = CcVariable::<f64>::new(region);
        sweep(props, &ords[m], sigma_s, g_prev, &mut intensity);
        intensity
    });
    let mut g = CcVariable::<f64>::new(region);
    for (o, intensity) in ords.iter().zip(&intensities) {
        for (gi, ii) in g.as_mut_slice().iter_mut().zip(intensity.as_slice()) {
            *gi += o.weight * ii;
        }
    }
    g
}

/// `∇·q = 4π κ (σT⁴/π) − κ G` from the converged `G`; `sweeps` is the
/// number of ordinate sweeps performed.
fn solution(
    props: &LevelProps,
    g: CcVariable<f64>,
    sweeps: usize,
    space: &ExecSpace,
) -> DomSolution {
    let div_q = parallel_fill(space, props.region, |c| {
        let kappa = props.abskg[c];
        if props.is_wall(c) || kappa == 0.0 {
            0.0
        } else {
            // Only absorption deposits energy.
            4.0 * PI * kappa * props.sigma_t4_over_pi[c] - kappa * g[c]
        }
    });
    DomSolution {
        g,
        div_q,
        cell_ordinate_updates: props.region.volume() * sweeps,
    }
}

/// One upwind sweep for a single ordinate with extinction `β = κ + σ_s`
/// and source `κS + σ_s/(4π)·G_prev`; writes I into `intensity`. At
/// `σ_s = 0` this is the non-scattering sweep to the bit.
fn sweep(
    props: &LevelProps,
    o: &Ordinate,
    sigma_s: f64,
    g_prev: &CcVariable<f64>,
    intensity: &mut CcVariable<f64>,
) {
    let region = props.region;
    let dx = props.dx;
    let ax = o.mu.abs() / dx.x;
    let ay = o.eta.abs() / dx.y;
    let az = o.xi.abs() / dx.z;

    // Iterate in downwind order per axis.
    let xs: Vec<i32> = if o.mu >= 0.0 {
        (region.lo().x..region.hi().x).collect()
    } else {
        (region.lo().x..region.hi().x).rev().collect()
    };
    let ys: Vec<i32> = if o.eta >= 0.0 {
        (region.lo().y..region.hi().y).collect()
    } else {
        (region.lo().y..region.hi().y).rev().collect()
    };
    let zs: Vec<i32> = if o.xi >= 0.0 {
        (region.lo().z..region.hi().z).collect()
    } else {
        (region.lo().z..region.hi().z).rev().collect()
    };
    let upx = if o.mu >= 0.0 { -1 } else { 1 };
    let upy = if o.eta >= 0.0 { -1 } else { 1 };
    let upz = if o.xi >= 0.0 { -1 } else { 1 };
    for &z in &zs {
        for &y in &ys {
            for &x in &xs {
                let c = IntVector::new(x, y, z);
                if props.is_wall(c) {
                    // Wall cell: emits ε·σT⁴/π into all downstream cells.
                    intensity[c] = props.abskg[c] * props.sigma_t4_over_pi[c];
                    continue;
                }
                let up = |d: IntVector| -> f64 {
                    let u = c + d;
                    if region.contains(u) {
                        intensity[u]
                    } else {
                        0.0 // cold black enclosure
                    }
                };
                let kappa = props.abskg[c];
                let beta = kappa + sigma_s;
                let source = kappa * props.sigma_t4_over_pi[c] + sigma_s / (4.0 * PI) * g_prev[c];
                let num = source
                    + ax * up(IntVector::new(upx, 0, 0))
                    + ay * up(IntVector::new(0, upy, 0))
                    + az * up(IntVector::new(0, 0, upz));
                intensity[c] = num / (beta + ax + ay + az);
            }
        }
    }
}

/// Quantify false scattering: trace a collimated beam (hot wall strip on
/// the x=lo face) through a transparent medium and report the fraction of
/// the exit-face energy that lies outside the geometric beam footprint.
/// DOM smears the beam (false scattering); RMCRT keeps it sharp.
pub fn beam_spread_dom(n: i32, order: SnOrder) -> f64 {
    let region = Region::cube(n);
    let dx = 1.0 / n as f64;
    let mut props = LevelProps::uniform(region, uintah_grid::Vector::splat(dx), 0.0, 0.0);
    // Hot wall strip: x = 0 face, central third in y/z.
    let third = n / 3;
    for c in region.cells() {
        if c.x == 0 {
            props.cell_type[c] = crate::props::WALL_CELL;
            props.abskg[c] = 1.0;
            let in_strip = c.y >= third && c.y < 2 * third && c.z >= third && c.z < 2 * third;
            props.sigma_t4_over_pi[c] = if in_strip { 1.0 } else { 0.0 };
        }
    }
    let sol = solve(&props, order, &ExecSpace::Serial);
    // Energy on the exit face (x = n-1) inside vs outside the strip shadow.
    let mut inside = 0.0;
    let mut outside = 0.0;
    for y in 0..n {
        for z in 0..n {
            let c = IntVector::new(n - 1, y, z);
            let e = sol.g[c];
            let in_strip = y >= third && y < 2 * third && z >= third && z < 2 * third;
            if in_strip {
                inside += e;
            } else {
                outside += e;
            }
        }
    }
    outside / (inside + outside).max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uintah_grid::Vector;

    #[test]
    fn ordinate_counts_and_normalization() {
        for order in [SnOrder::S2, SnOrder::S4, SnOrder::S6, SnOrder::S8] {
            let ords = ordinates(order);
            assert_eq!(ords.len(), order.num_ordinates());
            let total: f64 = ords.iter().map(|o| o.weight).sum();
            assert!((total - 4.0 * PI).abs() < 1e-10, "{order:?} weights {total}");
            for o in &ords {
                let len = (o.mu * o.mu + o.eta * o.eta + o.xi * o.xi).sqrt();
                assert!((len - 1.0).abs() < 1e-4, "{order:?} |Ω| = {len}");
            }
        }
    }

    #[test]
    fn first_moment_vanishes() {
        // Σ w Ω = 0 by symmetry (needed for flux consistency).
        for order in [SnOrder::S2, SnOrder::S4, SnOrder::S8] {
            let (mut sx, mut sy, mut sz) = (0.0, 0.0, 0.0);
            for o in ordinates(order) {
                sx += o.weight * o.mu;
                sy += o.weight * o.eta;
                sz += o.weight * o.xi;
            }
            assert!(sx.abs() < 1e-10 && sy.abs() < 1e-10 && sz.abs() < 1e-10);
        }
    }

    #[test]
    fn equilibrium_gives_zero_div_q() {
        // Isothermal medium with isothermal hot black walls: G = 4σT⁴,
        // ∇·q = 0 — exactly, because the upwind sweep is exact for
        // constant source.
        let n = 12;
        let s = 0.5;
        let mut props = LevelProps::uniform(Region::cube(n), Vector::splat(1.0 / n as f64), 1.0, s);
        for c in props.region.cells() {
            let e = props.region.extent();
            if c.x == 0 || c.y == 0 || c.z == 0 || c.x == e.x - 1 || c.y == e.y - 1 || c.z == e.z - 1 {
                props.cell_type[c] = crate::props::WALL_CELL;
                props.abskg[c] = 1.0;
            }
        }
        let sol = solve(&props, SnOrder::S4, &ExecSpace::Serial);
        let c = IntVector::splat(n / 2);
        assert!(
            sol.div_q[c].abs() < 1e-9,
            "equilibrium divQ {}",
            sol.div_q[c]
        );
        assert!((sol.g[c] - 4.0 * PI * s).abs() < 1e-9);
    }

    #[test]
    fn cold_walls_net_emission_positive() {
        let n = 16;
        let props = LevelProps::uniform(Region::cube(n), Vector::splat(1.0 / n as f64), 1.0, 1.0);
        let sol = solve(&props, SnOrder::S4, &ExecSpace::Serial);
        let dq = sol.div_q[IntVector::splat(n / 2)];
        assert!(dq > 0.0, "hot medium between cold walls must emit: {dq}");
    }

    #[test]
    fn dom_and_rmcrt_agree_on_uniform_problem() {
        // Same physical setup; DOM S8 vs RMCRT with many rays should agree
        // within a few percent at the domain centre.
        let n = 16;
        let props = LevelProps::uniform(Region::cube(n), Vector::splat(1.0 / n as f64), 1.0, 1.0);
        let dom_dq = solve(&props, SnOrder::S8, &ExecSpace::Serial).div_q[IntVector::splat(n / 2)];
        let stack = [crate::trace::TraceLevel {
            props: &props,
            roi: props.region,
        }];
        let mc_dq = crate::solver::div_q_for_cell(
            &stack,
            IntVector::splat(n / 2),
            &crate::solver::RmcrtParams {
                nrays: 4096,
                threshold: 1e-6,
                ..Default::default()
            },
        );
        let rel = (dom_dq - mc_dq).abs() / mc_dq.abs();
        assert!(rel < 0.08, "DOM {dom_dq} vs RMCRT {mc_dq} (rel {rel})");
    }

    #[test]
    fn false_scattering_decreases_with_order() {
        let s4 = beam_spread_dom(18, SnOrder::S4);
        let s8 = beam_spread_dom(18, SnOrder::S8);
        assert!(s4 > 0.05, "S4 should visibly smear the beam: {s4}");
        assert!(s8 <= s4 + 1e-12, "higher order smears no more: {s8} vs {s4}");
    }

    #[test]
    fn zero_scattering_reduces_to_plain_solve() {
        let props = LevelProps::uniform(Region::cube(8), Vector::splat(0.125), 1.0, 0.7);
        let plain = solve(&props, SnOrder::S4, &ExecSpace::Serial);
        let (scat, iters) = solve_with_scattering(&props, SnOrder::S4, 0.0, 1e-10, 50);
        // σ_s = 0 decouples the ordinates: converged after the 2nd sweep
        // confirms nothing changed.
        assert!(iters <= 2, "needless iterations: {iters}");
        for c in props.region.cells() {
            assert_eq!(plain.div_q[c].to_bits(), scat.div_q[c].to_bits(), "{c:?}");
        }
    }

    #[test]
    fn scattering_requires_more_iterations_at_higher_albedo() {
        let props = LevelProps::uniform(Region::cube(8), Vector::splat(0.125), 1.0, 0.7);
        let (_, thin) = solve_with_scattering(&props, SnOrder::S2, 0.5, 1e-8, 200);
        let (_, thick) = solve_with_scattering(&props, SnOrder::S2, 8.0, 1e-8, 200);
        assert!(
            thick > thin,
            "higher albedo must slow source iteration: {thick} vs {thin}"
        );
    }

    #[test]
    fn dom_scattering_traps_radiation_like_rmcrt() {
        // Mirrors scatter::tests::scattering_traps_radiation: divQ at the
        // centre decreases as σ_s grows (radiation trapped).
        let n = 12;
        let props = LevelProps::uniform(Region::cube(n), Vector::splat(1.0 / n as f64), 1.0, 1.0);
        let (clear, _) = solve_with_scattering(&props, SnOrder::S4, 0.0, 1e-8, 100);
        let (hazy, _) = solve_with_scattering(&props, SnOrder::S4, 5.0, 1e-8, 100);
        let c = IntVector::splat(n / 2);
        assert!(hazy.div_q[c] < clear.div_q[c] * 0.95);
        assert!(hazy.div_q[c] > 0.0);
    }

    #[test]
    fn dom_and_collision_mc_agree_with_scattering() {
        // Cross-validate the two scattering implementations.
        let n = 10;
        let props = LevelProps::uniform(Region::cube(n), Vector::splat(1.0 / n as f64), 1.0, 1.0);
        let sigma_s = 2.0;
        let (dom, _) = solve_with_scattering(&props, SnOrder::S8, sigma_s, 1e-8, 200);
        let mc = crate::scatter::div_q_with_scattering(
            &props,
            &crate::scatter::ScatteringMedium {
                sigma_s,
                phase: crate::scatter::PhaseFunction::Isotropic,
            },
            IntVector::splat(n / 2),
            6000,
            1e-4,
            17,
        );
        let c = IntVector::splat(n / 2);
        let rel = (dom.div_q[c] - mc).abs() / mc.abs();
        assert!(rel < 0.1, "DOM {} vs MC {} (rel {rel})", dom.div_q[c], mc);
    }

    /// Wrapping sums of the bits of `G` and of `∇·q`.
    fn bit_sums(sol: &DomSolution) -> (u64, u64) {
        let sum = |v: &CcVariable<f64>| {
            v.as_slice().iter().fold(0u64, |s, x| s.wrapping_add(x.to_bits()))
        };
        (sum(&sol.g), sum(&sol.div_q))
    }

    #[test]
    fn solves_match_their_pinned_bits() {
        // Varying κ and emission, a grey wall slab at x = 0 and a cold
        // black enclosure on the other faces.
        let n = 10;
        let mut props = LevelProps::uniform(Region::cube(n), Vector::splat(1.0 / n as f64), 0.0, 0.0);
        for c in props.region.cells() {
            props.abskg[c] = 0.5 + 0.25 * ((c.x + 2 * c.y + 3 * c.z) % 7) as f64;
            props.sigma_t4_over_pi[c] = 1.0 + 0.1 * (c.z - c.y) as f64;
            if c.x == 0 {
                props.cell_type[c] = crate::props::WALL_CELL;
                props.abskg[c] = 0.7;
            }
        }
        let s4 = solve(&props, SnOrder::S4, &ExecSpace::Serial);
        assert_eq!(bit_sums(&s4), (0x57cad93ecd740b6c, 0xdb04ff4d2cb9904e), "S4");
        let s8 = solve(&props, SnOrder::S8, &ExecSpace::Serial);
        assert_eq!(bit_sums(&s8), (0x58aaff5abb06343f, 0xda81007d56433713), "S8");
        let (scat, iters) = solve_with_scattering(&props, SnOrder::S4, 0.5, 1e-10, 200);
        assert_eq!(
            (bit_sums(&scat), iters),
            ((0x58dafb2797e37333, 0x599ebb299ed9ecfe), 13),
            "S4, σ_s = 0.5"
        );
    }

    #[test]
    fn sweep_cost_scales_with_ordinates() {
        let props = LevelProps::uniform(Region::cube(8), Vector::splat(0.125), 1.0, 1.0);
        let a = solve(&props, SnOrder::S2, &ExecSpace::Serial).cell_ordinate_updates;
        let b = solve(&props, SnOrder::S4, &ExecSpace::Serial).cell_ordinate_updates;
        assert_eq!(b / a, 3, "S4 has 3x the ordinates of S2");
    }
}
