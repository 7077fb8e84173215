//! Bit-identity pins for the SoA packet ray engine.
//!
//! Every tracer in the stack (region solve, scattering, wall flux,
//! radiometer) now marches through `rmcrt_core::packet`. These tests pin
//! their outputs to the exact bits the pre-packet scalar marcher produced,
//! so the refactor is provably a pure restructuring: same FP operations in
//! the same order, packaged differently. If a future change to the engine
//! alters any pinned value, it changed the physics stream — intentionally
//! or not — and must re-justify the new bits.
//!
//! Also here: the ROI-exit nudge regression (cell spacings spanning
//! 1e-6..1e2 m), the fixed-vs-adaptive ray-count equivalence, and the
//! run solver's bit-identity to the per-cell loop it replaced.

#[path = "support/per_cell.rs"]
mod per_cell;

use rmcrt_bench::scalar_march;
use uintah::prelude::*;
use uintah::rmcrt::flux::{face_incident_flux, Face, FluxParams};
use uintah::rmcrt::radiometer::Radiometer;
use uintah::rmcrt::scatter::{
    div_q_with_scattering, trace_ray_collision, PhaseFunction, ScatteringMedium,
};
use uintah::rmcrt::solver::{div_q_for_cell_with, two_level_stack, RUN_RAYS};
use uintah::rmcrt::{PacketTracer, RayPacket, RaySampling, TraceOptions, WALL_CELL};

/// The reference scenario of the pre-refactor capture: uniform κ=0.7,
/// S=0.9 medium inside a grey wall shell (ε=0.8, S_w=1.7).
fn scatter_props(n: i32) -> LevelProps {
    let mut props = LevelProps::uniform(Region::cube(n), Vector::splat(1.0 / n as f64), 0.7, 0.9);
    for c in props.region.cells() {
        let e = props.region.extent();
        if c.x == 0 || c.y == 0 || c.z == 0 || c.x == e.x - 1 || c.y == e.y - 1 || c.z == e.z - 1 {
            props.cell_type[c] = WALL_CELL;
            props.abskg[c] = 0.8;
            props.sigma_t4_over_pi[c] = 1.7;
        }
    }
    props
}

fn single_stack(props: &LevelProps) -> [TraceLevel<'_>; 1] {
    [TraceLevel {
        props,
        roi: props.region,
    }]
}

/// Region solve in Fixed mode reproduces the pre-refactor scalar marcher
/// bit for bit, under both ray-sampling strategies.
#[test]
fn solve_region_matches_prerefactor_bits() {
    let props = scatter_props(10);
    let stack = single_stack(&props);
    let expected = [
        (
            RaySampling::Independent,
            // Sums captured at PR 24 with the in-repo `sincos_turn` (the
            // cell's bits did not move): the rays no longer depend on the
            // host's libm, only the march's `exp` still does.
            0x412bdd2805372ad0u64, // wrapping sum of divQ bits over the region
            0xc007e6b8cfd97e68u64, // divQ bits at cell (3,4,5)
        ),
        (
            RaySampling::LatinHypercube,
            0x40eeb1f4dea77fd6,
            0xc007b179b22f951b,
        ),
    ];
    for (sampling, want_sum, want_cell) in expected {
        let params = RmcrtParams {
            nrays: 9,
            threshold: 1e-4,
            seed: 0x5EED5,
            timestep: 2,
            sampling,
            ..Default::default()
        };
        let out = solve_region(&stack, props.region, &params);
        let mut sum = 0u64;
        for &v in out.as_slice() {
            sum = sum.wrapping_add(v.to_bits());
        }
        assert_eq!(sum, want_sum, "{sampling:?} checksum");
        assert_eq!(out[IntVector::new(3, 4, 5)].to_bits(), want_cell, "{sampling:?} cell");
    }
}

/// Scattering collision estimator (per-ray and per-cell divQ) reproduces
/// the pre-refactor scalar marcher bit for bit across media: pure
/// absorber, isotropic scatterer, forward-peaked Henyey–Greenstein.
#[test]
fn scattering_matches_prerefactor_bits() {
    let props = scatter_props(12);
    let media = [
        (
            ScatteringMedium {
                sigma_s: 0.0,
                phase: PhaseFunction::Isotropic,
            },
            [
                0x3feccccccccccccdu64,
                0x3feccccccccccccd,
                0x3feccccccccccccd,
                0x3ff5c28f5c28f5c3,
            ],
            0xc0084739f3b48bcau64,
        ),
        (
            ScatteringMedium {
                sigma_s: 2.5,
                phase: PhaseFunction::Isotropic,
            },
            [
                0x3ff1244de6666666,
                0x3ff1244de6666666,
                0x3ff2e46666666666,
                0x3ff08ac342666666,
            ],
            0xc003bb627b5b8e2f,
        ),
        (
            ScatteringMedium {
                sigma_s: 4.0,
                phase: PhaseFunction::HenyeyGreenstein(0.4),
            },
            [
                0x3ff242e05cfc5134,
                0x3ff1afa81221e76d,
                0x3ff242e05cfc5134,
                0x3ff242e05cfc5134,
            ],
            0xc0046bb214ee7141,
        ),
    ];
    for (medium, ray_bits, divq_bits) in media {
        for (r, want) in ray_bits.into_iter().enumerate() {
            let mut rng = CellRng::new(0xABCD, IntVector::new(5, 6, 7), r as u32, 3);
            let dir = rng.direction();
            let origin = rng.point_in_cell(props.cell_lo(IntVector::new(5, 6, 7)), props.dx);
            let v = trace_ray_collision(&props, &medium, origin, dir, &mut rng, 1e-3);
            assert_eq!(v.to_bits(), want, "σs={} ray {r}", medium.sigma_s);
        }
        let dq =
            div_q_with_scattering(&props, &medium, IntVector::new(4, 5, 6), 64, 1e-3, 0xC0FFEE);
        assert_eq!(dq.to_bits(), divq_bits, "σs={} divQ", medium.sigma_s);
    }
}

/// Wall flux through the packet engine reproduces the scalar bits.
#[test]
fn wall_flux_matches_prerefactor_bits() {
    let props = scatter_props(10);
    let stack = single_stack(&props);
    let q = face_incident_flux(
        &stack,
        IntVector::new(1, 5, 5),
        Face::XMinus,
        &FluxParams {
            nrays: 50,
            threshold: 1e-4,
            seed: 0xF1F1,
        },
    );
    assert_eq!(q.to_bits(), 0x400df48cce23ac68);
}

/// Radiometer through the packet engine reproduces the scalar bits.
#[test]
fn radiometer_matches_prerefactor_bits() {
    let props = scatter_props(10);
    let stack = single_stack(&props);
    let r = Radiometer {
        position: Point::new(0.5, 0.5, 0.5),
        normal: Vector::new(1.0, 0.0, 0.0),
        half_angle: 0.6,
        nrays: 40,
        seed: 0x11AD,
    };
    assert_eq!(r.measure(&stack, 1e-4).to_bits(), 0x3ff3d57d53b2886b);
}

/// ROI-exit placement regression: a ray leaving a fine ROI must land in
/// the *correct* coarse cell for cell spacings spanning eight orders of
/// magnitude. The coarse wall cells carry per-cell emission, so a
/// one-cell misplacement at the ROI exit changes the answer by several
/// percent — far outside the 1e-6 tolerance.
///
/// The historical exit nudge was an absolute 1e-10 m, which is either a
/// macroscopic fraction of a fine cell (tiny domains) or below the
/// representable resolution of the coordinates (large ones). The engine
/// now snaps the stepped coordinate onto the face and offsets it by a
/// *cell-relative* `FACE_NUDGE`.
#[test]
fn roi_exit_lands_in_correct_coarse_cell_across_scales() {
    // Direction with an oblique exit: leaves the ROI through +x, then
    // crosses coarse cells in y/z before the +x wall.
    let v = Vector::new(1.0, 0.35, 0.2);
    let dir = v.normalized();
    for scale in [1e-6f64, 1e-2, 1.0, 1e2] {
        // Domain [0, 8s]³: coarse 4³ at dx=2s (wall shell on the
        // boundary), fine 8³ at dx=s, fine ROI = cells [2,5)³.
        let kappa = 0.25 / scale;
        let fine = LevelProps::uniform(Region::cube(8), Vector::splat(scale), kappa, 0.0);
        let mut coarse =
            LevelProps::uniform(Region::cube(4), Vector::splat(2.0 * scale), kappa, 0.0);
        for c in coarse.region.cells() {
            if c.x == 0 || c.y == 0 || c.z == 0 || c.x == 3 || c.y == 3 || c.z == 3 {
                coarse.cell_type[c] = WALL_CELL;
                coarse.abskg[c] = 1.0; // black wall
                coarse.sigma_t4_over_pi[c] =
                    1.0 + 0.1 * (c.x as f64 + 2.0 * c.y as f64 + 3.0 * c.z as f64);
            }
        }
        let roi = Region::new(IntVector::splat(2), IntVector::splat(5));
        let stack = two_level_stack(&coarse, &fine, roi);
        // From the domain centre: exits the ROI at x=5s (coarse flow cell
        // (2,2,2)), reaches the wall face x=6s inside wall cell (3,2,2).
        let origin = Point::new(4.0 * scale, 4.0 * scale, 4.0 * scale);
        let got = trace_ray(&stack, origin, dir, 1e-12);
        let s_wall = 1.0 + 0.1 * (3.0 + 2.0 * 2.0 + 3.0 * 2.0);
        let path = 2.0 * scale / dir.x; // origin → wall face along the ray
        let want = s_wall * (-kappa * path).exp();
        let rel = (got - want).abs() / want;
        assert!(
            rel < 1e-6,
            "scale {scale}: sumI {got} vs analytic {want} (rel {rel})"
        );
    }
}

/// Adaptive ray counts reach the fixed-mode answer within 1% while
/// spending fewer rays, and Fixed mode is bit-identical to the plain
/// `nrays` path.
#[test]
fn adaptive_matches_fixed_with_fewer_rays() {
    let props = scatter_props(10);
    let stack = single_stack(&props);
    let region = Region::new(IntVector::splat(3), IntVector::splat(7));
    let fixed_params = RmcrtParams {
        nrays: 256,
        threshold: 1e-4,
        seed: 0xADA,
        ..Default::default()
    };
    let (fixed, fixed_stats) =
        solve_region_with_stats(&stack, region, &fixed_params, &ExecSpace::Serial);

    // Fixed mode expressed explicitly must be bit-identical.
    let explicit = RmcrtParams {
        ray_count: Some(RayCountMode::Fixed(256)),
        ..fixed_params
    };
    let (fixed2, _) = solve_region_with_stats(&stack, region, &explicit, &ExecSpace::Serial);
    for (a, b) in fixed.as_slice().iter().zip(fixed2.as_slice()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }

    let adaptive_params = RmcrtParams {
        ray_count: Some(RayCountMode::Adaptive {
            min: 32,
            max: 256,
            rel_var_target: 0.02,
        }),
        ..fixed_params
    };
    let (adaptive, stats) =
        solve_region_with_stats(&stack, region, &adaptive_params, &ExecSpace::Serial);
    assert!(
        stats.total_rays < fixed_stats.total_rays,
        "adaptive {} rays vs fixed {}",
        stats.total_rays,
        fixed_stats.total_rays
    );
    // Per cell both estimates carry Monte Carlo noise, so the per-cell
    // bound is loose; the region mean (64 cells) must agree within 1%.
    let mut mean_a = 0.0;
    let mut mean_f = 0.0;
    for (c, &v) in adaptive.iter() {
        let f = fixed[c];
        let rel = (v - f).abs() / f.abs().max(1e-12);
        assert!(rel < 0.05, "cell {c:?}: adaptive {v} vs fixed {f} (rel {rel})");
        mean_a += v;
        mean_f += f;
    }
    let rel = (mean_a - mean_f).abs() / mean_f.abs();
    assert!(rel < 0.01, "region mean: adaptive {mean_a} vs fixed {mean_f} (rel {rel})");
}

/// Soundness regression: a ray whose origin is not in a cell of the
/// finest level's ROI. The segment entry check used to be a
/// `debug_assert!` in front of unchecked loads, so a release build read
/// out of bounds (a wrong value for an origin elsewhere in the level, a
/// segfault for one far outside it). Such an origin is a ray that has
/// already left the ROI: re-homed on the first coarser level containing
/// the point, otherwise lost to the cold black enclosure.
#[test]
fn origin_outside_the_roi_is_rehomed_or_contributes_nothing() {
    let fine = LevelProps::uniform(Region::cube(8), Vector::splat(0.125), 1.5, 0.9);
    let coarse = LevelProps::uniform(Region::cube(4), Vector::splat(0.25), 0.5, 0.6);
    let low_half = Region::new(IntVector::ZERO, IntVector::new(4, 8, 8));
    let one_level = [TraceLevel {
        props: &fine,
        roi: low_half,
    }];
    let two_level = two_level_stack(&coarse, &fine, low_half);
    let coarse_only = single_stack(&coarse);
    let dir = Vector::new(0.6, 0.0, 0.8);
    let opts = TraceOptions {
        threshold: 1e-9,
        ..Default::default()
    };

    let in_high_half = Point::new(0.8, 0.5, 0.5);
    let origins = [
        in_high_half,
        Point::new(-3.0e6, 0.5, 0.5),
        Point::new(0.3, 0.5, 1.0 + 1e-9),
    ];
    for origin in origins {
        assert_eq!(trace_ray(&one_level, origin, dir, 1e-9), 0.0, "1 level, {origin:?}");
        let want = if origin == in_high_half {
            let v = trace_ray(&coarse_only, origin, dir, 1e-9);
            assert!(v.is_finite() && v > 0.0, "coarse-level trace {v}");
            v
        } else {
            0.0
        };
        let got = trace_ray(&two_level, origin, dir, 1e-9);
        assert_eq!(got.to_bits(), want.to_bits(), "2 levels, {origin:?}: {got} vs {want}");

        // The packet entry point shares the engine; a fresh packet ray
        // beside it is not disturbed.
        let tracer = PacketTracer::new(&two_level, opts);
        let mut packet = RayPacket::with_capacity(2);
        packet.push(origin, dir);
        packet.push(Point::new(0.2, 0.5, 0.5), dir);
        let stats = tracer.trace(&mut packet);
        assert_eq!(packet.sum_i[0].to_bits(), want.to_bits(), "packet, {origin:?}");
        assert_eq!(
            packet.sum_i[1].to_bits(),
            trace_ray(&two_level, Point::new(0.2, 0.5, 0.5), dir, 1e-9).to_bits()
        );
        assert_eq!(stats.rays, 2);
    }
}

/// Unit-cube level of `n`³ cells whose fields vary from cell to cell.
fn varied_level(n: i32, kappa: impl Fn(IntVector) -> f64) -> LevelProps {
    let mut props = LevelProps::uniform(Region::cube(n), Vector::splat(1.0 / n as f64), 0.0, 0.0);
    for c in props.region.cells() {
        props.abskg[c] = kappa(c);
        props.sigma_t4_over_pi[c] = 0.5 + 0.01 * (c.x + 2 * c.y + 3 * c.z) as f64;
    }
    props
}

/// Fixed mode on a 3-level stack (coarse 4³ whole domain, mid 8³ ROI
/// [1,7)³ ⊃ fine 16³ ROI [5,11)³; the fine level thick towards -x, the mid
/// level towards -y, the coarse level walled at z = 3, so rays end on all
/// three): rays are re-homed fine → mid → coarse one level at a time.
///
/// Two pins. Against the frozen scalar marcher: bit-identical on each level
/// alone (the Fixed-mode contract), and equal to 1e-8 on the stack — not to
/// the bit, on any stack of two or more levels, since the packet engine
/// re-homes a ray on the face-snapped exit point ([`FACE_NUDGE`]·dx past
/// the plane) where the scalar marcher advanced it 1e-10·dx along the ray.
/// And to the bit against the engine's own 3-level answer, so a change to
/// launch, `place` or `resolve` that moves the stream shows here.
#[test]
fn three_level_stack_matches_the_scalar_marcher() {
    let mut coarse = varied_level(4, |_| 1.0);
    for c in coarse.region.cells().filter(|c| c.z == 3) {
        coarse.cell_type[c] = WALL_CELL;
        coarse.abskg[c] = 0.9;
    }
    let mid = varied_level(8, |c| if c.y < 4 { 20.0 } else { 1.0 });
    let fine = varied_level(16, |c| if c.x < 8 { 30.0 } else { 1.0 });
    let stack = [
        TraceLevel {
            props: &coarse,
            roi: coarse.region,
        },
        TraceLevel {
            props: &mid,
            roi: Region::new(IntVector::splat(1), IntVector::splat(7)),
        },
        TraceLevel {
            props: &fine,
            roi: Region::new(IntVector::splat(5), IntVector::splat(11)),
        },
    ];
    let params = RmcrtParams {
        nrays: 32,
        threshold: 0.05,
        seed: 0x3_1E7E1,
        ..Default::default()
    };
    for props in [&coarse, &mid, &fine] {
        let alone = single_stack(props);
        let region = Region::new(IntVector::splat(1), IntVector::splat(3));
        let packet = solve_region(&alone, region, &params);
        let scalar = scalar_march::solve_region_scalar(&alone, region, &params);
        for (c, &v) in packet.iter() {
            assert_eq!(v.to_bits(), scalar[c].to_bits(), "{}³ level alone, cell {c:?}", props.region.extent().x);
        }
    }

    let region = Region::new(IntVector::splat(7), IntVector::splat(9));
    let (packet, stats) = solve_region_with_stats(&stack, region, &params, &ExecSpace::Serial);
    let scalar = scalar_march::solve_region_scalar(&stack, region, &params);
    let m = stats.march;
    // Walls and the domain boundary are the coarse level's alone.
    assert!(m.ended.extinguished > 0 && m.ended.wall > 0 && m.ended.left_domain > 0, "{m:?}");
    let mut sum = 0u64;
    for (c, &v) in packet.iter() {
        let rel = (v - scalar[c]).abs() / scalar[c].abs();
        assert!(rel < 1e-8, "cell {c:?}: packet {v} vs scalar {} (rel {rel:e})", scalar[c]);
        sum = sum.wrapping_add(v.to_bits());
    }
    // Captured at PR 24 with the in-repo `sincos_turn`: the rays no longer
    // depend on the host's libm, only the march's `exp` still does.
    assert_eq!(sum, 0xef8f76d531e8be, "wrapping sum of the 3-level divQ bits");
}

/// Region solves march runs of cells, a packet of up to `RUN_RAYS` rays
/// each, where they used to march one packet per cell (per batch in
/// Adaptive mode). Every entry point, on every space, must give each cell
/// the bits and the march counters the per-cell loop gives it, across
/// budgets that fill a run with one cell or with many, budgets that spill
/// a batch into a second packet (`RUN_RAYS + 1`, the Adaptive batches past
/// 256), both samplings, a 2-level B&C stack, transparent cells inside a
/// run, ragged regions, and two timesteps.
#[test]
fn run_solver_is_bit_identical_to_the_per_cell_loop() {
    let grid = BurnsChriston::small_grid(16, 8);
    let bc = BurnsChriston::default();
    let coarse = bc.props_for_level(grid.level(0));
    let fine = bc.props_for_level(grid.fine_level());
    let bc_stack = two_level_stack(&coarse, &fine, Region::new(IntVector::splat(2), IntVector::splat(14)));
    // Every third cell transparent, so runs hold cells that trace no ray.
    let holes = varied_level(10, |c| if (c.x + c.y + c.z) % 3 == 0 { 0.0 } else { 2.0 });
    let holes_stack = single_stack(&holes);
    let stacks: [(&str, &[TraceLevel<'_>], [Region; 2]); 2] = [
        (
            "2-level B&C",
            &bc_stack,
            [
                Region::new(IntVector::new(4, 6, 3), IntVector::new(9, 9, 10)),
                Region::new(IntVector::splat(7), IntVector::splat(8)),
            ],
        ),
        (
            "transparent cells",
            &holes_stack,
            [
                Region::new(IntVector::new(2, 3, 1), IntVector::new(7, 6, 8)),
                Region::new(IntVector::splat(5), IntVector::splat(6)),
            ],
        ),
    ];
    let budgets = [
        RayCountMode::Fixed(1),
        RayCountMode::Fixed(2),
        RayCountMode::Fixed(3),
        RayCountMode::Fixed(7),
        RayCountMode::Fixed(100),
        RayCountMode::Fixed(RUN_RAYS + 1),
        RayCountMode::Adaptive { min: 4, max: 64, rel_var_target: 0.02 },
        RayCountMode::Adaptive { min: 16, max: 100, rel_var_target: 0.01 },
    ];
    let device = GpuDevice::with_capacity("test", 1 << 20);
    let spaces = [ExecSpace::Serial, ExecSpace::device(device)];
    for (name, stack, regions) in stacks {
        for region in regions {
            for ray_count in budgets {
                for sampling in [RaySampling::Independent, RaySampling::LatinHypercube] {
                    for timestep in [0, 3] {
                        let params = RmcrtParams {
                            ray_count: Some(ray_count),
                            sampling,
                            timestep,
                            threshold: 0.05,
                            seed: 0x2_5EED,
                            ..Default::default()
                        };
                        let case = format!("{name} {region:?} {ray_count:?} {sampling:?} t{timestep}");
                        let (want, want_march) = per_cell::solve_region(stack, region, &params);
                        let same = |got: &CcVariable<f64>, entry: &str| {
                            for (c, &v) in got.iter() {
                                assert_eq!(v.to_bits(), want[c].to_bits(), "{case}, {entry}, cell {c:?}");
                            }
                        };
                        same(&solve_region(stack, region, &params), "solve_region");
                        for space in &spaces {
                            let entry = format!("{space:?}");
                            same(&solve_region_exec(stack, region, &params, space), &entry);
                            let (got, stats) = solve_region_with_stats(stack, region, &params, space);
                            same(&got, &entry);
                            let want_stats = SolveStats {
                                total_rays: want_march.rays,
                                cells: region.volume() as u64,
                                march: want_march,
                            };
                            assert_eq!(stats, want_stats, "{case}, {entry}");
                        }
                        let tracer = PacketTracer::new(
                            stack,
                            TraceOptions { threshold: params.threshold, ..Default::default() },
                        );
                        let mut scratch = per_cell::CellScratch::default();
                        for c in region.cells() {
                            let (v, march) = div_q_for_cell_with(&tracer, c, &params);
                            let (w, want_cell) = per_cell::div_q_for_cell(&mut scratch, &tracer, c, &params);
                            assert_eq!(v.to_bits(), w.to_bits(), "{case}, div_q_for_cell_with {c:?}");
                            assert_eq!(march, want_cell, "{case}, div_q_for_cell_with {c:?}");
                            let v = div_q_for_cell(stack, c, &params);
                            assert_eq!(v.to_bits(), w.to_bits(), "{case}, div_q_for_cell {c:?}");
                        }
                    }
                }
            }
        }
    }
}
