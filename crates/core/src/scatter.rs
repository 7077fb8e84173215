//! Scattering physics: the σ_s / phase-function terms of the RTE (Eq. 2).
//!
//! "RMCRT naturally incorporates scattering physics" (paper §I): a reverse
//! ray that encounters a scattering event simply changes direction, with no
//! structural change to the algorithm — in contrast to DOM, whose scattering
//! source couples all ordinates and forces source iteration (see
//! [`crate::dom::solve_with_scattering`]).
//!
//! The estimator is the standard backward *collision* estimator: sample the
//! free path from the extinction coefficient `β = κ + σ_s`; at each
//! collision add `weight · (1−ω) · σT⁴/π` (the absorption/emission branch,
//! `ω = σ_s/β` the single-scatter albedo), multiply the weight by `ω` and
//! continue in a direction drawn from the phase function. With `σ_s = 0`
//! this reduces (in expectation) to the deterministic path integral of
//! [`crate::trace`].

use crate::packet::{CollisionTracer, FlightEnd, RayPacket};
use crate::props::LevelProps;
use crate::rng::{CellRng, Frame};
use std::f64::consts::PI;
use uintah_grid::{IntVector, Point, Vector};

/// The phase function Φ(ŝᵢ, ŝ) of Eq. 2.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PhaseFunction {
    /// Φ = 1: equal probability in all directions.
    Isotropic,
    /// Henyey–Greenstein with asymmetry `g ∈ (−1, 1)`; `g > 0` is
    /// forward-peaked (soot), `g < 0` back-scattering.
    HenyeyGreenstein(f64),
}

impl PhaseFunction {
    /// Sample a scattered direction given the incoming direction.
    pub fn sample(&self, incoming: Vector, rng: &mut CellRng) -> Vector {
        let cos_t = match *self {
            PhaseFunction::Isotropic => 2.0 * rng.next_f64() - 1.0,
            PhaseFunction::HenyeyGreenstein(g) => {
                if g.abs() < 1e-6 {
                    2.0 * rng.next_f64() - 1.0
                } else {
                    let sq = (1.0 - g * g) / (1.0 - g + 2.0 * g * rng.next_f64());
                    ((1.0 + g * g - sq * sq) / (2.0 * g)).clamp(-1.0, 1.0)
                }
            }
        };
        let turn = rng.next_f64();
        Frame::about(incoming).unit(cos_t, turn)
    }
}

/// Scattering description of the medium (uniform σ_s; a per-cell field
/// would slot in the same way the absorption coefficient does).
#[derive(Clone, Copy, Debug)]
pub struct ScatteringMedium {
    /// Scattering coefficient σ_s (1/m).
    pub sigma_s: f64,
    pub phase: PhaseFunction,
}

/// Trace one backward ray with scattering through a single level;
/// returns its incoming-intensity estimate.
///
/// `threshold` terminates by Russian roulette (unbiased): when the weight
/// drops below it, the ray survives with probability ½ at doubled weight.
pub fn trace_ray_collision(
    props: &LevelProps,
    medium: &ScatteringMedium,
    origin: Point,
    dir: Vector,
    rng: &mut CellRng,
    threshold: f64,
) -> f64 {
    let tracer = CollisionTracer::new(props);
    trace_one_collision(&tracer, medium, origin, dir, rng, threshold)
}

/// One ray against a prepared [`CollisionTracer`]: the flight loop (free
/// paths sampled from β, albedo weighting, roulette, phase sampling). The
/// cell marching itself is the packet engine's [`CollisionTracer::fly`].
fn trace_one_collision(
    tracer: &CollisionTracer<'_>,
    medium: &ScatteringMedium,
    origin: Point,
    dir: Vector,
    rng: &mut CellRng,
    threshold: f64,
) -> f64 {
    let mut pos = origin;
    let mut dir = dir;
    let mut weight = 1.0f64;
    let mut sum_i = 0.0;
    loop {
        // Sample the optical distance to the next collision.
        let tau_target = -(1.0 - rng.next_f64()).max(f64::MIN_POSITIVE).ln();
        match tracer.fly(pos, dir, tau_target, medium.sigma_s) {
            FlightEnd::Escaped => return sum_i, // cold black enclosure
            FlightEnd::Wall { emissivity, s } => {
                sum_i += weight * emissivity * s;
                return sum_i; // black/gray wall terminal (no reflections here)
            }
            FlightEnd::Collision { pos: p, beta, s } => {
                pos = p;
                let omega = medium.sigma_s / beta;
                // Absorption/emission branch.
                sum_i += weight * (1.0 - omega) * s;
                // Scattering branch.
                weight *= omega;
                if weight <= 0.0 {
                    return sum_i;
                }
                if weight < threshold {
                    // Russian roulette.
                    if rng.next_f64() < 0.5 {
                        return sum_i;
                    }
                    weight *= 2.0;
                }
                dir = medium.phase.sample(dir, rng);
            }
        }
    }
}

/// March a whole packet of scattering rays, each with its own RNG stream.
/// Per-ray results land in `packet.sum_i` in ray order; the active mask is
/// compacted as rays terminate. One flight leg advances per round, so the
/// packet stays cache-resident across the batch.
pub fn trace_packet_collision(
    props: &LevelProps,
    medium: &ScatteringMedium,
    packet: &mut RayPacket,
    rngs: &mut [CellRng],
    threshold: f64,
) {
    assert_eq!(packet.len(), rngs.len(), "one RNG stream per packet ray");
    let tracer = CollisionTracer::new(props);
    let mut live: Vec<u32> = (0..packet.len() as u32)
        .filter(|&i| packet.active[i as usize])
        .collect();
    while !live.is_empty() {
        live.retain(|&i| {
            let i = i as usize;
            let rng = &mut rngs[i];
            let tau_target = -(1.0 - rng.next_f64()).max(f64::MIN_POSITIVE).ln();
            let end = tracer.fly(packet.origin(i), packet.dir(i), tau_target, medium.sigma_s);
            match end {
                FlightEnd::Escaped => {
                    packet.active[i] = false;
                    false
                }
                FlightEnd::Wall { emissivity, s } => {
                    packet.sum_i[i] += packet.weight[i] * emissivity * s;
                    packet.active[i] = false;
                    false
                }
                FlightEnd::Collision { pos, beta, s } => {
                    packet.set_origin(i, pos);
                    let omega = medium.sigma_s / beta;
                    packet.sum_i[i] += packet.weight[i] * (1.0 - omega) * s;
                    packet.weight[i] *= omega;
                    if packet.weight[i] <= 0.0 {
                        packet.active[i] = false;
                        return false;
                    }
                    if packet.weight[i] < threshold {
                        if rng.next_f64() < 0.5 {
                            packet.active[i] = false;
                            return false;
                        }
                        packet.weight[i] *= 2.0;
                    }
                    let d = medium.phase.sample(packet.dir(i), rng);
                    packet.set_dir(i, d);
                    true
                }
            }
        });
    }
}

/// ∇·q for one cell with scattering: `4π·κ·(σT⁴/π − mean I)`. Only the
/// absorption coefficient κ (not β) enters the divergence — scattering
/// redistributes but does not deposit energy.
pub fn div_q_with_scattering(
    props: &LevelProps,
    medium: &ScatteringMedium,
    cell: IntVector,
    nrays: u32,
    threshold: f64,
    seed: u64,
) -> f64 {
    let kappa = props.abskg[cell];
    if kappa == 0.0 {
        return 0.0;
    }
    let mut packet = RayPacket::with_capacity(nrays as usize);
    let mut rngs = Vec::with_capacity(nrays as usize);
    for r in 0..nrays {
        let mut rng = CellRng::new(seed, cell, r, 0);
        let dir = rng.direction();
        let origin = rng.point_in_cell(props.cell_lo(cell), props.dx);
        packet.push(origin, dir);
        rngs.push(rng);
    }
    trace_packet_collision(props, medium, &mut packet, &mut rngs, threshold);
    let mut sum = 0.0;
    for r in 0..nrays as usize {
        sum += packet.sum_i[r];
    }
    4.0 * PI * kappa * (props.sigma_t4_over_pi[cell] - sum / nrays as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props::WALL_CELL;
    use crate::trace::{trace_ray, TraceLevel};
    use uintah_grid::Region;

    fn mean_collision_estimate(
        props: &LevelProps,
        medium: &ScatteringMedium,
        origin: Point,
        n: u32,
    ) -> f64 {
        let mut sum = 0.0;
        for r in 0..n {
            let mut rng = CellRng::new(31, IntVector::ZERO, r, 0);
            let dir = rng.direction();
            sum += trace_ray_collision(props, medium, origin, dir, &mut rng, 1e-4);
        }
        sum / n as f64
    }

    /// With σ_s = 0 the collision estimator agrees (in expectation) with
    /// the deterministic path integral.
    #[test]
    fn no_scattering_matches_path_integral() {
        let n = 16;
        let props = LevelProps::uniform(Region::cube(n), Vector::splat(1.0 / n as f64), 2.0, 0.8);
        let medium = ScatteringMedium {
            sigma_s: 0.0,
            phase: PhaseFunction::Isotropic,
        };
        let origin = Point::new(0.5, 0.5, 0.5);
        let collision = mean_collision_estimate(&props, &medium, origin, 20_000);
        // Deterministic reference: angular average of the path integral.
        let stack = [TraceLevel {
            props: &props,
            roi: props.region,
        }];
        let mut reference = 0.0;
        let nref = 5000;
        for r in 0..nref {
            let mut rng = CellRng::new(77, IntVector::ZERO, r, 1);
            reference += trace_ray(&stack, origin, rng.direction(), 1e-9);
        }
        reference /= nref as f64;
        let rel = (collision - reference).abs() / reference;
        assert!(rel < 0.03, "collision {collision} vs path {reference} (rel {rel})");
    }

    /// Isothermal enclosure (hot black walls at the same σT⁴/π as the
    /// medium): I = S exactly, for *any* scattering coefficient — the
    /// equilibrium invariance that validates the scattering machinery.
    #[test]
    fn equilibrium_invariant_under_scattering() {
        let n = 8;
        let s = 0.6;
        let mut props = LevelProps::uniform(Region::cube(n), Vector::splat(1.0 / n as f64), 1.0, s);
        for c in props.region.cells() {
            let e = props.region.extent();
            if c.x == 0 || c.y == 0 || c.z == 0 || c.x == e.x - 1 || c.y == e.y - 1 || c.z == e.z - 1 {
                props.cell_type[c] = WALL_CELL;
                props.abskg[c] = 1.0;
            }
        }
        for sigma_s in [0.0, 1.0, 10.0] {
            let medium = ScatteringMedium {
                sigma_s,
                phase: PhaseFunction::Isotropic,
            };
            let got = mean_collision_estimate(&props, &medium, Point::new(0.5, 0.5, 0.5), 4000);
            assert!(
                (got - s).abs() / s < 0.05,
                "σs={sigma_s}: I {got} vs S {s}"
            );
        }
    }

    /// Scattering increases the escape path length, so a hot medium
    /// between cold walls cools *less* per unit volume as σ_s grows
    /// (radiation is trapped): divQ decreases with albedo.
    #[test]
    fn scattering_traps_radiation() {
        let n = 12;
        let props = LevelProps::uniform(Region::cube(n), Vector::splat(1.0 / n as f64), 1.0, 1.0);
        let dq = |sigma_s: f64| {
            div_q_with_scattering(
                &props,
                &ScatteringMedium {
                    sigma_s,
                    phase: PhaseFunction::Isotropic,
                },
                IntVector::splat(n / 2),
                3000,
                1e-4,
                5,
            )
        };
        let clear = dq(0.0);
        let hazy = dq(5.0);
        assert!(clear > 0.0 && hazy > 0.0);
        assert!(
            hazy < clear * 0.95,
            "scattering should trap radiation: {hazy} vs {clear}"
        );
    }

    /// Henyey–Greenstein sampling reproduces its mean cosine g.
    #[test]
    fn hg_mean_cosine() {
        for g in [-0.5, 0.0, 0.3, 0.8] {
            let phase = PhaseFunction::HenyeyGreenstein(g);
            let incoming = Vector::new(0.0, 0.0, 1.0);
            let mut rng = CellRng::new(3, IntVector::ZERO, 0, 0);
            let n = 40_000;
            let mut mean = 0.0;
            for _ in 0..n {
                mean += phase.sample(incoming, &mut rng).dot(incoming);
            }
            mean /= n as f64;
            assert!((mean - g).abs() < 0.01, "g={g}: mean cosine {mean}");
        }
    }

    /// Sampled directions are always unit.
    #[test]
    fn sampled_directions_unit() {
        let mut rng = CellRng::new(9, IntVector::ZERO, 0, 0);
        for phase in [
            PhaseFunction::Isotropic,
            PhaseFunction::HenyeyGreenstein(0.7),
            PhaseFunction::HenyeyGreenstein(-0.9),
        ] {
            for _ in 0..200 {
                let incoming = rng.direction();
                let out = phase.sample(incoming, &mut rng);
                assert!((out.length() - 1.0).abs() < 1e-9);
            }
        }
    }

    /// Pure scatterer with a hot wall: energy still arrives by diffusion.
    #[test]
    fn pure_scattering_transports_wall_energy() {
        let n = 8;
        let mut props = LevelProps::uniform(Region::cube(n), Vector::splat(1.0 / n as f64), 0.0, 0.0);
        for c in Region::new(IntVector::new(n - 1, 0, 0), IntVector::new(n, n, n)).cells() {
            props.cell_type[c] = WALL_CELL;
            props.abskg[c] = 1.0;
            props.sigma_t4_over_pi[c] = 3.0;
        }
        let medium = ScatteringMedium {
            sigma_s: 2.0,
            phase: PhaseFunction::Isotropic,
        };
        let got = mean_collision_estimate(&props, &medium, Point::new(0.2, 0.5, 0.5), 8000);
        assert!(got > 0.1, "scattered wall radiation must reach the detector: {got}");
        assert!(got < 3.0 + 1e-9);
    }
}
