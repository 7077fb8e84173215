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
use uintah_grid::{CcVariable, IntVector, Region, Vector};

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
    pub fn inward_normal(self) -> Vector {
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
            max_reflections: 0,
        },
    );
    face_incident_flux_with(&tracer, flow_cell, face, params)
}

/// [`face_incident_flux`] against a prepared [`PacketTracer`] — the form
/// the region-wide flux map uses so the trace stack is prepared once, not
/// once per face cell. The face's rays march as one packet.
pub fn face_incident_flux_with(
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

/// Incident flux over every cell of one wall of the enclosure (the 2-D
/// flux map of that wall). `face` names the wall; the returned variable is
/// defined on the layer of flow cells adjacent to it. Equivalent to
/// [`wall_flux_map_exec`] on the serial space.
pub fn wall_flux_map(
    levels: &[TraceLevel<'_>],
    face: Face,
    params: &FluxParams,
) -> CcVariable<f64> {
    wall_flux_map_exec(levels, face, params, &uintah_exec::ExecSpace::Serial)
}

/// [`wall_flux_map`] dispatched on an execution space; bit-identical across
/// spaces (wall cells evaluate to 0 in the kernel itself).
pub fn wall_flux_map_exec(
    levels: &[TraceLevel<'_>],
    face: Face,
    params: &FluxParams,
    space: &uintah_exec::ExecSpace,
) -> CcVariable<f64> {
    let props = levels.last().expect("empty stack").props;
    let r = props.region;
    let layer = match face {
        Face::XMinus => Region::new(r.lo(), IntVector::new(r.lo().x + 1, r.hi().y, r.hi().z)),
        Face::XPlus => Region::new(IntVector::new(r.hi().x - 1, r.lo().y, r.lo().z), r.hi()),
        Face::YMinus => Region::new(r.lo(), IntVector::new(r.hi().x, r.lo().y + 1, r.hi().z)),
        Face::YPlus => Region::new(IntVector::new(r.lo().x, r.hi().y - 1, r.lo().z), r.hi()),
        Face::ZMinus => Region::new(r.lo(), IntVector::new(r.hi().x, r.hi().y, r.lo().z + 1)),
        Face::ZPlus => Region::new(IntVector::new(r.lo().x, r.lo().y, r.hi().z - 1), r.hi()),
    };
    let tracer = PacketTracer::new(
        levels,
        TraceOptions {
            threshold: params.threshold,
            max_reflections: 0,
        },
    );
    uintah_exec::parallel_fill(space, layer, |c| {
        if props.is_wall(c) {
            0.0
        } else {
            face_incident_flux_with(&tracer, c, face, params)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props::LevelProps;

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

    /// On the Burns & Christon benchmark the wall flux map must peak at
    /// the wall centre (facing the κ maximum) and be symmetric.
    #[test]
    fn benchmark_wall_map_peaks_at_center() {
        let n = 12;
        let grid = crate::BurnsChriston::small_grid(n, 4.min(n / 2));
        let props = crate::BurnsChriston::default().props_for_level(grid.fine_level());
        let st = single(&props);
        let map = wall_flux_map(
            &st,
            Face::XMinus,
            &FluxParams {
                nrays: 300,
                threshold: 1e-4,
                ..Default::default()
            },
        );
        let mid = n / 2;
        let center = map[IntVector::new(0, mid, mid)];
        let corner = map[IntVector::new(0, 1, 1)];
        assert!(center > corner, "center {center} vs corner {corner}");
        // All values physical.
        for (_, &q) in map.iter() {
            assert!(q >= 0.0 && q.is_finite());
        }
    }
}
