//! Boundary heat flux: the boiler designers' quantity of interest.
//!
//! "A critical quantity of interest for all boiler simulations is the heat
//! flux to the surrounding walls" (paper §III-A). Uintah's `Ray` component
//! computes per-face boundary-flux arrays alongside ∇·q; this module does
//! the same with cosine-weighted hemisphere sampling:
//!
//! ```text
//! q_in(face) = ∫_{2π} I(Ω) cosθ dΩ  ≈  π · mean(I over cosine-weighted Ω)
//! ```

use crate::packet::{PacketTracer, RayPacket};
use crate::rng::{CellRng, Frame};
use crate::trace::{TraceLevel, TraceOptions};
use std::f64::consts::PI;
use uintah_grid::{IntVector, Vector};

/// An axis-aligned face direction (+x, −x, …): the *inward* normal of a
/// wall face, pointing into the participating medium.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Face {
    XMinus,
    XPlus,
    YMinus,
    YPlus,
    ZMinus,
    ZPlus,
}

impl Face {
    pub const ALL: [Face; 6] = [
        Face::XMinus,
        Face::XPlus,
        Face::YMinus,
        Face::YPlus,
        Face::ZMinus,
        Face::ZPlus,
    ];

    /// The inward unit normal (into the domain) of a wall on this face of
    /// the enclosure: `XMinus` is the x = lo wall, so its inward normal is
    /// +x.
    pub(crate) fn inward_normal(self) -> Vector {
        match self {
            Face::XMinus => Vector::new(1.0, 0.0, 0.0),
            Face::XPlus => Vector::new(-1.0, 0.0, 0.0),
            Face::YMinus => Vector::new(0.0, 1.0, 0.0),
            Face::YPlus => Vector::new(0.0, -1.0, 0.0),
            Face::ZMinus => Vector::new(0.0, 0.0, 1.0),
            Face::ZPlus => Vector::new(0.0, 0.0, -1.0),
        }
    }
}

/// Parameters of a boundary-flux evaluation.
#[derive(Clone, Copy, Debug)]
pub struct FluxParams {
    pub nrays: u32,
    pub threshold: f64,
    pub seed: u64,
}

impl Default for FluxParams {
    fn default() -> Self {
        Self {
            nrays: 500,
            threshold: 1e-4,
            seed: 0xF1,
        }
    }
}

/// Incident radiative flux (W/m²) onto the wall face whose *flow-side*
/// neighbouring cell is `flow_cell`, with inward normal `n` (pointing away
/// from the wall into the medium).
///
/// Cosine-weighted hemisphere sampling: directions `d` with density
/// `cosθ/π`, so `q = π · mean(I(d))`.
pub fn face_incident_flux(
    levels: &[TraceLevel<'_>],
    flow_cell: IntVector,
    face: Face,
    params: &FluxParams,
) -> f64 {
    let tracer = PacketTracer::new(
        levels,
        TraceOptions {
            threshold: params.threshold,
            ..Default::default()
        },
    );
    face_incident_flux_with(&tracer, flow_cell, face, params)
}

/// [`face_incident_flux`] against a prepared [`PacketTracer`]. The face's
/// rays march as one packet.
fn face_incident_flux_with(
    tracer: &PacketTracer<'_>,
    flow_cell: IntVector,
    face: Face,
    params: &FluxParams,
) -> f64 {
    let props = tracer.fine_props();
    debug_assert!(!props.is_wall(flow_cell), "flux origin must be a flow cell");
    let n = face.inward_normal();
    // Point on the wall face: centre of the flow cell's face towards the
    // wall, nudged into the flow cell.
    let lo = props.cell_lo(flow_cell);
    let center = props.cell_center(flow_cell);
    let mut origin = center;
    let eps = 1e-6;
    match face {
        Face::XMinus => origin.x = lo.x + eps * props.dx.x,
        Face::XPlus => origin.x = lo.x + (1.0 - eps) * props.dx.x,
        Face::YMinus => origin.y = lo.y + eps * props.dx.y,
        Face::YPlus => origin.y = lo.y + (1.0 - eps) * props.dx.y,
        Face::ZMinus => origin.z = lo.z + eps * props.dx.z,
        Face::ZPlus => origin.z = lo.z + (1.0 - eps) * props.dx.z,
    }
    let frame = Frame::about(n);
    let mut packet = RayPacket::with_capacity(params.nrays as usize);
    for r in 0..params.nrays {
        let mut rng = CellRng::new(params.seed, flow_cell, r, 0);
        // Cosine-weighted: cosθ = sqrt(ξ).
        let cos_t = rng.next_f64().sqrt();
        let turn = rng.next_f64();
        packet.push(origin, frame.unit(cos_t, turn));
    }
    tracer.trace(&mut packet);
    let mut sum = 0.0;
    for r in 0..params.nrays as usize {
        sum += packet.sum_i[r];
    }
    PI * sum / params.nrays as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props::LevelProps;
    use uintah_grid::Region;

    fn single(props: &LevelProps) -> [TraceLevel<'_>; 1] {
        [TraceLevel {
            props,
            roi: props.region,
        }]
    }

    /// Optically thick isothermal medium: the wall sees a black body, so
    /// q = π·S = σT⁴.
    #[test]
    fn thick_medium_gives_sigma_t4() {
        let n = 8;
        let s = 0.9;
        let props = LevelProps::uniform(Region::cube(n), Vector::splat(1.0 / n as f64), 1e4, s);
        let st = single(&props);
        for face in Face::ALL {
            let cell = match face {
                Face::XMinus => IntVector::new(0, n / 2, n / 2),
                Face::XPlus => IntVector::new(n - 1, n / 2, n / 2),
                Face::YMinus => IntVector::new(n / 2, 0, n / 2),
                Face::YPlus => IntVector::new(n / 2, n - 1, n / 2),
                Face::ZMinus => IntVector::new(n / 2, n / 2, 0),
                Face::ZPlus => IntVector::new(n / 2, n / 2, n - 1),
            };
            let q = face_incident_flux(
                &st,
                cell,
                face,
                &FluxParams {
                    nrays: 800,
                    threshold: 1e-8,
                    ..Default::default()
                },
            );
            let expect = PI * s;
            assert!(
                (q - expect).abs() / expect < 0.02,
                "{face:?}: q {q} vs {expect}"
            );
        }
    }

    /// Transparent medium, cold enclosure: zero flux.
    #[test]
    fn vacuum_gives_zero() {
        let props = LevelProps::uniform(Region::cube(8), Vector::splat(0.125), 0.0, 0.7);
        let q = face_incident_flux(
            &single(&props),
            IntVector::new(0, 4, 4),
            Face::XMinus,
            &FluxParams::default(),
        );
        assert_eq!(q, 0.0);
    }

    /// On the Burns & Christon benchmark the flux onto a wall must peak at
    /// the wall centre (facing the κ maximum).
    #[test]
    fn benchmark_wall_map_peaks_at_center() {
        let n = 12;
        let grid = crate::BurnsChriston::small_grid(n, 4.min(n / 2));
        let props = crate::BurnsChriston::default().props_for_level(grid.fine_level());
        let st = single(&props);
        let params = FluxParams {
            nrays: 300,
            threshold: 1e-4,
            ..Default::default()
        };
        let q = |y, z| face_incident_flux(&st, IntVector::new(0, y, z), Face::XMinus, &params);
        let mid = n / 2;
        let (center, corner) = (q(mid, mid), q(1, 1));
        assert!(center > corner, "center {center} vs corner {corner}");
        // All values physical.
        for q in [center, corner] {
            assert!(q >= 0.0 && q.is_finite());
        }
    }
}
