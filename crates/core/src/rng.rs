//! Counter-based deterministic random numbers.
//!
//! RMCRT results must not depend on how cells are distributed over ranks,
//! threads or GPUs (the paper's strong-scaling sweeps change the
//! decomposition at every point). We therefore seed a small, fast generator
//! from `(global seed, cell, ray index, timestep)`: every ray's randomness
//! is a pure function of *what* is being computed, never of *where*.
//!
//! The generator is SplitMix64 (Steele et al.), which passes BigCrush for
//! the stream lengths used per ray (a handful of draws) and costs a few
//! arithmetic ops per draw.

//!
//! Directions are built from the draws without the platform's `sin`/`cos`:
//! [`sincos_turn`] is the one place an azimuth becomes a sine and a cosine,
//! and [`polar`] / [`Frame::unit`] the one way two numbers become a unit
//! vector. Every operation in them is an IEEE-754 `+ − × √` or a bit
//! operation, so a seed produces the same direction bits on every host.

use std::f64::consts::FRAC_PI_2;
use uintah_grid::{IntVector, Point, Vector};

/// Per-ray deterministic RNG.
#[derive(Clone, Debug)]
pub struct CellRng {
    state: u64,
}

impl CellRng {
    /// Seed from the identity of the ray being traced.
    pub fn new(seed: u64, cell: IntVector, ray: u32, timestep: u32) -> Self {
        // Mix the coordinates with distinct odd constants, then scramble.
        let mut s = seed ^ 0x9E37_79B9_7F4A_7C15;
        for v in [
            cell.x as u64,
            cell.y as u64,
            cell.z as u64,
            ray as u64,
            timestep as u64,
        ] {
            s = (s ^ v.wrapping_mul(0xBF58_476D_1CE4_E5B9)).rotate_left(23);
            s = s.wrapping_mul(0x94D0_49BB_1331_11EB);
        }
        let mut rng = Self { state: s };
        // One warm-up draw decorrelates neighbouring cells.
        rng.next_u64();
        rng
    }

    /// Raw 64 random bits (SplitMix64 step).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniformly random unit vector (direction over the full sphere,
    /// the emission distribution of an isotropic medium): two draws,
    /// `cos θ` then the azimuth as a turn fraction, through [`polar`].
    #[inline]
    pub fn direction(&mut self) -> Vector {
        let cos_theta = 2.0 * self.next_f64() - 1.0;
        let turn = self.next_f64();
        polar(cos_theta, turn)
    }

    /// Uniformly random point inside the cell whose low corner is `lo` and
    /// spacing is `dx`.
    #[inline]
    pub fn point_in_cell(&mut self, lo: Point, dx: Vector) -> Point {
        lo + Vector::new(
            self.next_f64() * dx.x,
            self.next_f64() * dx.y,
            self.next_f64() * dx.z,
        )
    }
}

/// Horner evaluation, highest power first.
#[inline(always)]
fn horner(coef: &[f64; 6], z: f64) -> f64 {
    let mut acc = coef[0];
    for &c in &coef[1..] {
        acc = acc * z + c;
    }
    acc
}

/// Cephes double-precision `sin` kernel on `|a| ≤ π/4` (public domain):
/// `sin a = a + a·z·P(z)`, `z = a²`. Cephes' decimals, digit for digit.
#[allow(clippy::excessive_precision)]
const SIN_P: [f64; 6] = [
    1.58962301576546568060e-10,
    -2.50507477628578072866e-8,
    2.75573136213857245213e-6,
    -1.98412698295895385996e-4,
    8.33333333332211858878e-3,
    -1.66666666666666307295e-1,
];
/// Cephes `cos` kernel on the same interval: `cos a = 1 − z/2 + z²·Q(z)`.
#[allow(clippy::excessive_precision)]
const COS_Q: [f64; 6] = [
    -1.13585365213876817300e-11,
    2.08757008419747316778e-9,
    -2.75573141792967388112e-7,
    2.48015872888517045348e-5,
    -1.38888888888730564116e-3,
    4.16666666666665929218e-2,
];

/// `(sin 2πu, cos 2πu)` for a turn fraction `u ∈ [0, 1]` (closed: a
/// stratified `(stratum + ξ)/n` can round to 1.0), without libm, a branch
/// or a float→int conversion.
///
/// The reduction works on the turn, not the angle: `t = 4u` counts quarter
/// turns, adding `1.5·2⁵²` rounds `t` to the nearest integer `k ∈ 0..=4`
/// (ties to even) and leaves `k` in the low mantissa bits, and
/// `r = t − k`, `|r| ≤ ½`, is exact for every `u` the RNG draws (multiples
/// of 2⁻⁵³) — libm has to round `2π·u` before it can start. The two Cephes
/// kernels run on `a = r·π/2`; quadrant `k` then swaps them (`k & 1`) and
/// flips sign bits (`k & 2` the sine's, `(k + 1) & 2` the cosine's).
///
/// Within 7e-16 of libm's `sin`/`cos` of the rounded `2π·u` (of which up
/// to 4.4e-16 is that rounding); exact at the quarter turns; and
/// `sincos_turn(u + ¼) == (cos, −sin)` of `u` to the bit wherever `u + ¼`
/// is exact, except at the two ties `u = ⅛, ⅝` (`r = +½` on one side,
/// `−½` on the other: one ulp apart).
#[inline(always)]
pub fn sincos_turn(u: f64) -> (f64, f64) {
    const ROUND: f64 = 6_755_399_441_055_744.0; // 1.5·2⁵²
    let t = 4.0 * u;
    let shifted = t + ROUND;
    let k = shifted.to_bits();
    let a = (t - (shifted - ROUND)) * FRAC_PI_2;
    let z = a * a;
    let s = (a + a * z * horner(&SIN_P, z)).to_bits();
    let c = (1.0 - 0.5 * z + z * z * horner(&COS_Q, z)).to_bits();
    let swap = (s ^ c) & (k & 1).wrapping_neg();
    (
        f64::from_bits(s ^ swap ^ ((k & 2) << 62)),
        f64::from_bits(c ^ swap ^ (((k + 1) & 2) << 62)),
    )
}

/// The unit vector at polar angle `θ` from `+z` and azimuth `turn` (a
/// fraction of a full turn from `+x`): the one expression every sampled
/// direction in the crate is finished by, so the packet fill, the per-ray
/// samplers and the frozen scalar reference agree to the bit.
#[inline(always)]
pub fn polar(cos_theta: f64, turn: f64) -> Vector {
    let sin_theta = (1.0 - cos_theta * cos_theta).max(0.0).sqrt();
    let (sin_phi, cos_phi) = sincos_turn(turn);
    Vector::new(sin_theta * cos_phi, sin_theta * sin_phi, cos_theta)
}

/// Right-handed orthonormal frame whose third axis is a given unit vector:
/// what a cone, a hemisphere or a phase function is sampled about.
#[derive(Clone, Copy, Debug)]
pub struct Frame {
    u: Vector,
    v: Vector,
    axis: Vector,
}

impl Frame {
    /// The frame about the unit vector `axis`.
    pub fn about(axis: Vector) -> Self {
        let helper = if axis.x.abs() < 0.9 {
            Vector::new(1.0, 0.0, 0.0)
        } else {
            Vector::new(0.0, 1.0, 0.0)
        };
        let u = axis.cross(helper).normalized();
        Self {
            u,
            v: axis.cross(u),
            axis,
        }
    }

    /// [`polar`] about this frame's axis instead of `+z`, renormalised.
    #[inline]
    pub fn unit(&self, cos_theta: f64, turn: f64) -> Vector {
        let d = polar(cos_theta, turn);
        (self.axis * d.z + self.u * d.x + self.v * d.y).normalized()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_identity() {
        let mut a = CellRng::new(7, IntVector::new(1, 2, 3), 4, 5);
        let mut b = CellRng::new(7, IntVector::new(1, 2, 3), 4, 5);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_identities_decorrelate() {
        let a = CellRng::new(7, IntVector::new(1, 2, 3), 4, 5).next_u64();
        assert_ne!(a, CellRng::new(7, IntVector::new(1, 2, 4), 4, 5).next_u64());
        assert_ne!(a, CellRng::new(7, IntVector::new(1, 2, 3), 5, 5).next_u64());
        assert_ne!(a, CellRng::new(7, IntVector::new(1, 2, 3), 4, 6).next_u64());
        assert_ne!(a, CellRng::new(8, IntVector::new(1, 2, 3), 4, 5).next_u64());
    }

    #[test]
    fn uniform_mean_and_range() {
        let mut rng = CellRng::new(1, IntVector::ZERO, 0, 0);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn directions_are_unit_and_isotropic() {
        let mut rng = CellRng::new(2, IntVector::ZERO, 0, 0);
        let n = 20_000;
        let mut mean = Vector::ZERO;
        for _ in 0..n {
            let d = rng.direction();
            assert!((d.length() - 1.0).abs() < 1e-12);
            mean += d;
        }
        mean = mean / n as f64;
        assert!(mean.length() < 0.02, "directional bias {mean:?}");
    }

    /// The direction bits of four ray identities. No libm call is left
    /// between the seed and these bits, so the pin holds on every host
    /// (the values were computed twice: by this code and by a transcription
    /// of it into another language's IEEE-754 doubles).
    #[test]
    fn direction_bits_are_pinned() {
        let pins = [
            (CellRng::new(0x5EED, IntVector::ZERO, 0, 0), [0x3fc1e322f65f7204u64, 0x3fe943fef3098fb1, 0xbfe31f3d1e4b5e4e]),
            (CellRng::new(0x5EED, IntVector::new(3, 4, 5), 7, 2), [0xbfc46140b3d24495, 0xbfef1bd7f8f366cd, 0xbfc6035a7d912360]),
            (CellRng::new(0xABCD, IntVector::new(-2, 11, 1), 99, 0), [0xbfe207b6b76f19fa, 0xbfea6d563b168aa3, 0x3f9723bb337146c0]),
            (CellRng::new(u64::MAX, IntVector::splat(31), u32::MAX, 1000), [0x3fef1ac51d576768, 0xbfb089bc976c3d5b, 0x3fcce8a29924f388]),
        ];
        for (i, (mut rng, want)) in pins.into_iter().enumerate() {
            let d = rng.direction();
            assert_eq!([d.x.to_bits(), d.y.to_bits(), d.z.to_bits()], want, "identity {i}: {d:?}");
        }
    }

    #[test]
    fn sincos_turn_is_exact_at_the_quarter_turns() {
        let bits = |(s, c): (f64, f64)| (s.to_bits(), c.to_bits());
        let (p0, n0) = (0.0f64.to_bits(), (-0.0f64).to_bits());
        let (p1, n1) = (1.0f64.to_bits(), (-1.0f64).to_bits());
        // The zero takes the sign its quadrant's flip gives it.
        assert_eq!(bits(sincos_turn(0.0)), (p0, p1));
        assert_eq!(bits(sincos_turn(0.25)), (p1, n0));
        assert_eq!(bits(sincos_turn(0.5)), (n0, n1));
        assert_eq!(bits(sincos_turn(0.75)), (n1, p0));
        assert_eq!(bits(sincos_turn(1.0)), (p0, p1));
    }

    /// Against libm on ≥ 1 M random turn fractions and around every
    /// eighth of a turn, where the reduction changes quadrant (`k/8`,
    /// `k` odd) or `r` changes sign (`k` even): max |Δ| ≤ 1e-15 (measured
    /// 6.9e-16, of which libm's rounding of `2π·u` is up to 4.4e-16), and
    /// `s² + c²` within 4 ulp of 1.
    #[test]
    fn sincos_turn_matches_libm_and_is_unit() {
        let mut us = Vec::new();
        for k in 0..=8 {
            let mut below = k as f64 / 8.0;
            let mut above = below;
            us.push(below);
            for _ in 0..2 {
                below = f64::from_bits(below.to_bits().saturating_sub(1));
                above = f64::from_bits(above.to_bits() + 1);
                us.extend([below, above.min(1.0)]);
            }
        }
        let mut rng = CellRng::new(17, IntVector::ZERO, 0, 0);
        us.extend((0..1_000_000).map(|_| rng.next_f64()));
        let mut worst = 0.0f64;
        for u in us {
            let (s, c) = sincos_turn(u);
            let angle = 2.0 * std::f64::consts::PI * u;
            worst = worst.max((s - angle.sin()).abs()).max((c - angle.cos()).abs());
            assert!((s * s + c * c - 1.0).abs() <= 4.0 * f64::EPSILON, "u {u}: {s} {c}");
        }
        assert!(worst <= 1e-15, "max deviation from libm {worst:e}");
    }

    /// A quarter turn later the pair is `(cos, −sin)` to the bit wherever
    /// `u + ¼` is exact: same `r`, next quadrant. At the ties `u = ⅛, ⅝`
    /// round-to-even puts `r = +½` on one side and `−½` on the other, and
    /// the two kernels' values of √½ are one ulp apart.
    #[test]
    fn sincos_turn_quarter_turn_symmetry() {
        let mut rng = CellRng::new(23, IntVector::ZERO, 0, 0);
        for _ in 0..200_000 {
            // A multiple of 2⁻⁵³ in [0, ¾): adding ¼ is exact.
            let u = (rng.next_u64() % (3 << 51)) as f64 / (1u64 << 53) as f64;
            let (s, c) = sincos_turn(u);
            let (s_next, c_next) = sincos_turn(u + 0.25);
            assert_eq!((s_next.to_bits(), c_next.to_bits()), (c.to_bits(), (-s).to_bits()), "u {u}");
        }
        for tie in [0.125, 0.625] {
            let (s, c) = sincos_turn(tie);
            let (s_next, c_next) = sincos_turn(tie + 0.25);
            assert!((s_next - c).abs() <= f64::EPSILON && (c_next + s).abs() <= f64::EPSILON, "tie {tie}");
        }
    }

    #[test]
    fn frame_about_an_axis_is_orthonormal_and_right_handed() {
        let mut rng = CellRng::new(5, IntVector::ZERO, 0, 0);
        for _ in 0..1000 {
            let axis = rng.direction();
            let f = Frame::about(axis);
            for (a, b) in [(f.u, f.v), (f.u, f.axis), (f.v, f.axis)] {
                assert!(a.dot(b).abs() < 1e-12);
                assert!((a.length() - 1.0).abs() < 1e-12 && (b.length() - 1.0).abs() < 1e-12);
            }
            assert!((f.u.cross(f.v) - axis).length() < 1e-12);
            // cos θ is measured from the axis.
            let cos_t = 2.0 * rng.next_f64() - 1.0;
            let d = f.unit(cos_t, rng.next_f64());
            assert!((d.dot(axis) - cos_t).abs() < 1e-12 && (d.length() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn points_stay_inside_cell() {
        let mut rng = CellRng::new(3, IntVector::ZERO, 0, 0);
        let lo = Point::new(1.0, 2.0, 3.0);
        let dx = Vector::new(0.5, 0.25, 0.125);
        for _ in 0..1000 {
            let p = rng.point_in_cell(lo, dx);
            assert!(p.x >= lo.x && p.x < lo.x + dx.x);
            assert!(p.y >= lo.y && p.y < lo.y + dx.y);
            assert!(p.z >= lo.z && p.z < lo.z + dx.z);
        }
    }
}
