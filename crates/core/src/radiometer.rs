//! Virtual radiometer: incident radiative flux on a small detector.
//!
//! Uintah's `Radiometer` class reuses the RMCRT machinery to predict what a
//! physical radiometer mounted in the boiler wall would read: rays are
//! traced backwards from the detector into its viewing cone and the
//! incident flux is the cosine-weighted integral of the incoming intensity
//! over the cone solid angle.

use crate::packet::{PacketTracer, RayPacket};
use crate::rng::{CellRng, Frame};
use crate::trace::{TraceLevel, TraceOptions};
use std::f64::consts::PI;
use uintah_grid::{IntVector, Point, Vector};

/// A virtual radiometer.
#[derive(Clone, Copy, Debug)]
pub struct Radiometer {
    /// Detector location (must lie in a flow cell of the finest level).
    pub position: Point,
    /// Unit normal of the detector (centre of the viewing cone).
    pub normal: Vector,
    /// Viewing half-angle θ_max in radians (π/2 = hemispherical).
    pub half_angle: f64,
    /// Rays to sample.
    pub nrays: u32,
    /// Monte Carlo seed.
    pub seed: u64,
}

impl Radiometer {
    /// Measure the incident flux (W/m²) through the detector:
    /// `q = ∫_cone I(Ω) cosθ dΩ`, estimated by uniform sampling of the cone
    /// solid angle `Ω_c = 2π(1 − cos θ_max)`.
    pub fn measure(&self, levels: &[TraceLevel<'_>], threshold: f64) -> f64 {
        let tracer = PacketTracer::new(
            levels,
            TraceOptions {
                threshold,
                max_reflections: 0,
            },
        );
        self.measure_with(&tracer)
    }

    /// Solid angle of the viewing cone, `Ω_c = 2π(1 − cos θ_max)`; checks
    /// the instrument's geometry.
    fn cone_solid_angle(&self) -> f64 {
        assert!((self.normal.length() - 1.0).abs() < 1e-9, "normal must be unit");
        assert!(self.half_angle > 0.0 && self.half_angle <= PI / 2.0 + 1e-12);
        2.0 * PI * (1.0 - self.half_angle.cos())
    }

    /// Trace the cone's rays `first..first + count` as one packet; returns
    /// each ray's cosine-weighted intensity `I·cos θ`, in ray order.
    fn cone_packet(&self, tracer: &PacketTracer<'_>, first: u32, count: u32) -> Vec<f64> {
        let cos_max = self.half_angle.cos();
        let frame = Frame::about(self.normal);
        let mut packet = RayPacket::with_capacity(count as usize);
        let mut weighted = Vec::with_capacity(count as usize);
        for r in first..first + count {
            let mut rng = CellRng::new(self.seed, IntVector::ZERO, r, 0);
            // Uniform over the cone solid angle.
            let cos_t = 1.0 - rng.next_f64() * (1.0 - cos_max);
            let turn = rng.next_f64();
            packet.push(self.position, frame.unit(cos_t, turn));
            weighted.push(cos_t);
        }
        tracer.trace(&mut packet);
        for (w, sum_i) in weighted.iter_mut().zip(&packet.sum_i) {
            *w *= sum_i;
        }
        weighted
    }

    /// [`measure`](Self::measure) against a prepared [`PacketTracer`]: the
    /// cone's rays are packed once and marched as a single packet.
    pub fn measure_with(&self, tracer: &PacketTracer<'_>) -> f64 {
        let omega_c = self.cone_solid_angle();
        let mut sum = 0.0;
        for w in self.cone_packet(tracer, 0, self.nrays) {
            sum += w;
        }
        sum / self.nrays as f64 * omega_c
    }

    /// [`measure`](Self::measure) dispatched on an execution space: the
    /// packet is split into fixed chunks and each chunk marches as one
    /// `parallel_map` work item. Bit-identical to the serial measure (the
    /// per-ray estimates are reassembled in ray order before folding).
    pub fn measure_exec(
        &self,
        levels: &[TraceLevel<'_>],
        threshold: f64,
        space: &uintah_exec::ExecSpace,
    ) -> f64 {
        let omega_c = self.cone_solid_angle();
        let tracer = PacketTracer::new(
            levels,
            TraceOptions {
                threshold,
                max_reflections: 0,
            },
        );
        const CHUNK: u32 = 256;
        let chunks = self.nrays.div_ceil(CHUNK) as usize;
        let partial = uintah_exec::parallel_map(space, chunks, |ci| {
            let first = ci as u32 * CHUNK;
            self.cone_packet(&tracer, first, CHUNK.min(self.nrays - first))
        });
        let mut sum = 0.0;
        for chunk in &partial {
            for &w in chunk {
                sum += w;
            }
        }
        sum / self.nrays as f64 * omega_c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props::{LevelProps, WALL_CELL};
    use uintah_grid::Region;

    /// Detector facing an isothermal black enclosure filled with hot thick
    /// medium: I = σT⁴/π in every direction, so
    /// q = (σT⁴/π)·∫cosθ dΩ = σT⁴·sin²θ_max.
    #[test]
    fn isotropic_field_gives_sin2_law() {
        let s = 2.0; // σT⁴/π
        let props = LevelProps::uniform(Region::cube(16), Vector::splat(1.0 / 16.0), 1e4, s);
        let stack = [TraceLevel {
            props: &props,
            roi: props.region,
        }];
        for half in [0.3f64, 0.8, PI / 2.0] {
            let r = Radiometer {
                position: Point::new(0.5, 0.5, 0.5),
                normal: Vector::new(0.0, 0.0, 1.0),
                half_angle: half,
                nrays: 4000,
                seed: 11,
            };
            let q = r.measure(&stack, 1e-9);
            let expect = s * PI * half.sin().powi(2);
            let rel = (q - expect).abs() / expect;
            assert!(rel < 0.05, "half {half}: q {q} vs {expect} (rel {rel})");
        }
    }

    /// Detector in vacuum looking at a hot wall that fills its cone: reads
    /// ε·σT⁴·sin²θ_max; looking away: reads 0.
    #[test]
    fn directional_sensitivity() {
        let n = 16;
        let mut props = LevelProps::uniform(Region::cube(n), Vector::splat(1.0 / n as f64), 0.0, 0.0);
        let s_wall = 3.0;
        for c in Region::new(IntVector::new(n - 1, 0, 0), IntVector::new(n, n, n)).cells() {
            props.cell_type[c] = WALL_CELL;
            props.abskg[c] = 1.0;
            props.sigma_t4_over_pi[c] = s_wall;
        }
        let stack = [TraceLevel {
            props: &props,
            roi: props.region,
        }];
        let toward = Radiometer {
            position: Point::new(0.5, 0.5, 0.5),
            normal: Vector::new(1.0, 0.0, 0.0),
            half_angle: 0.35,
            nrays: 2000,
            seed: 5,
        };
        let q = toward.measure(&stack, 1e-9);
        let expect = s_wall * PI * 0.35f64.sin().powi(2);
        assert!((q - expect).abs() / expect < 0.05, "toward: {q} vs {expect}");
        let away = Radiometer {
            normal: Vector::new(-1.0, 0.0, 0.0),
            ..toward
        };
        assert_eq!(away.measure(&stack, 1e-9), 0.0, "cold side must read zero");
    }

    /// The chunked exec dispatch reassembles per-ray estimates in ray
    /// order, so it is bit-identical to the serial measure on any space —
    /// including ray counts that do not divide the chunk size.
    #[test]
    fn measure_exec_bit_identical_across_spaces() {
        let props = LevelProps::uniform(Region::cube(12), Vector::splat(1.0 / 12.0), 2.0, 1.3);
        let stack = [TraceLevel {
            props: &props,
            roi: props.region,
        }];
        let r = Radiometer {
            position: Point::new(0.4, 0.5, 0.6),
            normal: Vector::new(0.0, 1.0, 0.0),
            half_angle: 0.7,
            nrays: 300, // not a multiple of the chunk size
            seed: 21,
        };
        let serial = r.measure(&stack, 1e-6);
        for space in [uintah_exec::ExecSpace::Serial, uintah_exec::ExecSpace::Threads(3)] {
            let got = r.measure_exec(&stack, 1e-6, &space);
            assert_eq!(got.to_bits(), serial.to_bits(), "{space:?}");
        }
    }

    #[test]
    #[should_panic(expected = "normal must be unit")]
    fn non_unit_normal_rejected() {
        let props = LevelProps::uniform(Region::cube(4), Vector::splat(0.25), 1.0, 1.0);
        let stack = [TraceLevel {
            props: &props,
            roi: props.region,
        }];
        Radiometer {
            position: Point::new(0.5, 0.5, 0.5),
            normal: Vector::new(2.0, 0.0, 0.0),
            half_angle: 0.5,
            nrays: 10,
            seed: 0,
        }
        .measure(&stack, 1e-6);
    }
}
