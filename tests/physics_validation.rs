//! Physics validation: Monte Carlo convergence, DOM cross-validation,
//! symmetry and limit behaviour on the Burns & Christon benchmark.

use uintah::prelude::*;

fn bc_props(n: i32) -> LevelProps {
    let grid = BurnsChriston::small_grid(n, (n / 2).min(16));
    BurnsChriston::default().props_for_level(grid.fine_level())
}

fn stack(props: &LevelProps) -> [TraceLevel<'_>; 1] {
    [TraceLevel {
        props,
        roi: props.region,
    }]
}

/// Expected Monte Carlo convergence: RMS error vs a high-N reference falls
/// like 1/√N (the paper's accuracy claim for the benchmark, citing [3]).
#[test]
fn monte_carlo_convergence_is_sqrt_n() {
    let n = 8;
    let props = bc_props(n);
    let st = stack(&props);
    let sample: Vec<IntVector> = Region::cube(n)
        .cells()
        .filter(|c| (c.x + c.y + c.z) % 3 == 0)
        .collect();
    let solve = |nrays: u32, seed: u64| -> Vec<f64> {
        sample
            .iter()
            .map(|&c| {
                div_q_for_cell(
                    &st,
                    c,
                    &RmcrtParams {
                        nrays,
                        threshold: 1e-5,
                        seed,
                        timestep: 0,
                        sampling: Default::default(),
                        ray_count: None,
                    },
                )
            })
            .collect()
    };
    let reference = solve(8192, 7);
    let rms = |nrays: u32| -> f64 {
        let got = solve(nrays, 1234);
        let se: f64 = got
            .iter()
            .zip(&reference)
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        (se / got.len() as f64).sqrt()
    };
    let e16 = rms(16);
    let e64 = rms(64);
    let e256 = rms(256);
    // Each 4x in rays should halve the error (ratio 2, allow 1.5–3.2).
    let r1 = e16 / e64;
    let r2 = e64 / e256;
    assert!(e16 > e64 && e64 > e256, "errors must decrease: {e16} {e64} {e256}");
    assert!((1.4..3.4).contains(&r1), "ratio 16→64 rays: {r1}");
    assert!((1.4..3.4).contains(&r2), "ratio 64→256 rays: {r2}");
}

/// DOM (S8) and RMCRT centreline profiles agree on the benchmark within
/// Monte Carlo + angular-discretization error.
#[test]
fn dom_and_rmcrt_centerline_profiles_agree() {
    use uintah::rmcrt::dom::{solve as dom_solve, SnOrder};
    let n = 16;
    let props = bc_props(n);
    let dom = dom_solve(&props, SnOrder::S8);
    let st = stack(&props);
    let params = RmcrtParams {
        nrays: 1024,
        threshold: 1e-5,
        ..Default::default()
    };
    let mid = n / 2;
    let mut max_rel: f64 = 0.0;
    for x in 1..(n - 1) {
        let c = IntVector::new(x, mid, mid);
        let mc = div_q_for_cell(&st, c, &params);
        let d = dom.div_q[c];
        let rel = (mc - d).abs() / d.abs().max(1e-3);
        max_rel = max_rel.max(rel);
    }
    assert!(max_rel < 0.12, "max centreline deviation {max_rel}");
}

/// The benchmark's κ is symmetric under coordinate permutation; with a
/// symmetric (high-N) solve the divQ profile along x and y must match.
#[test]
fn div_q_inherits_problem_symmetry() {
    let n = 12;
    let props = bc_props(n);
    let st = stack(&props);
    let params = RmcrtParams {
        nrays: 2048,
        threshold: 1e-5,
        ..Default::default()
    };
    let mid = n / 2;
    for k in 1..(n / 2) {
        let cx = div_q_for_cell(&st, IntVector::new(k, mid, mid), &params);
        let cy = div_q_for_cell(&st, IntVector::new(mid, k, mid), &params);
        let rel = (cx - cy).abs() / cx.abs().max(1e-6);
        assert!(rel < 0.1, "x/y asymmetry at k={k}: {cx} vs {cy}");
    }
}

/// divQ magnitude peaks at the centre (where κ peaks) and decays toward
/// the corners — the Burns & Christon published shape.
#[test]
fn div_q_peaks_at_center() {
    let n = 12;
    let props = bc_props(n);
    let st = stack(&props);
    let params = RmcrtParams {
        nrays: 1024,
        threshold: 1e-5,
        ..Default::default()
    };
    let mid = n / 2;
    let center = div_q_for_cell(&st, IntVector::splat(mid), &params);
    let edge = div_q_for_cell(&st, IntVector::new(1, mid, mid), &params);
    let corner = div_q_for_cell(&st, IntVector::new(1, 1, 1), &params);
    assert!(center > edge, "centre {center} vs edge {edge}");
    assert!(edge > corner, "edge {edge} vs corner {corner}");
    assert!(center > 0.0 && corner > 0.0, "hot medium emits everywhere");
}

/// Multi-level vs single-level divQ through the *distributed runtime* on a
/// larger grid: agreement within Monte Carlo + coarsening error.
#[test]
fn runtime_multilevel_close_to_single_level() {
    use std::sync::Arc;
    let grid = Arc::new(BurnsChriston::small_grid(16, 8));
    let p = RmcrtPipeline {
        params: RmcrtParams {
            nrays: 128,
            threshold: 1e-4,
            ..Default::default()
        },
        halo: 4,
        problem: BurnsChriston::default(),
    };
    let cfg = WorldConfig {
        nranks: 2,
        nthreads: 2,
        ..Default::default()
    };
    let ml = run_world(
        Arc::clone(&grid),
        Arc::new(multilevel_decls(&grid, p, false)),
        cfg.clone(),
    )
    .fine_field(&grid, DIVQ);
    let sl = run_world(
        Arc::clone(&grid),
        Arc::new(single_level_decls(&grid, p, false)),
        cfg,
    )
    .fine_field(&grid, DIVQ);
    let mean: f64 = sl.as_slice().iter().map(|v| v.abs()).sum::<f64>() / sl.len() as f64;
    let mut max_rel: f64 = 0.0;
    for c in sl.region().cells() {
        max_rel = max_rel.max((ml[c] - sl[c]).abs() / mean);
    }
    assert!(max_rel < 0.4, "multi-level vs single-level deviation {max_rel}");
}

/// The boundary-flux map and the virtual radiometer are two routes to the
/// same physical quantity: a hemispherical radiometer in the wall must
/// read (within MC error) what the flux machinery computes for that face.
#[test]
fn wall_flux_map_agrees_with_radiometer() {
    use uintah::rmcrt::flux::{face_incident_flux, Face, FluxParams};
    use uintah::rmcrt::radiometer::Radiometer;
    let n = 12;
    let grid = BurnsChriston::small_grid(n, 4.min(n / 2));
    let props = BurnsChriston::default().props_for_level(grid.fine_level());
    let stack = [TraceLevel {
        props: &props,
        roi: props.region,
    }];
    let mid = n / 2;
    let q_flux = face_incident_flux(
        &stack,
        IntVector::new(0, mid, mid),
        Face::XMinus,
        &FluxParams {
            nrays: 4000,
            threshold: 1e-5,
            ..Default::default()
        },
    );
    let q_radiometer = Radiometer {
        position: Point::new(1e-5, (mid as f64 + 0.5) / n as f64, (mid as f64 + 0.5) / n as f64),
        normal: Vector::new(1.0, 0.0, 0.0),
        half_angle: std::f64::consts::FRAC_PI_2,
        nrays: 4000,
        seed: 77,
    }
    .measure(&stack, 1e-5);
    let rel = (q_flux - q_radiometer).abs() / q_flux.max(1e-12);
    assert!(
        rel < 0.06,
        "flux map {q_flux} vs radiometer {q_radiometer} (rel {rel})"
    );
}

/// Optically thin limit: divQ → 4πκ·σT⁴/π (all emission escapes).
#[test]
fn optically_thin_limit() {
    let n = 8;
    let kappa = 1e-4;
    let s = 0.5;
    let props = LevelProps::uniform(Region::cube(n), Vector::splat(1.0 / n as f64), kappa, s);
    let st = stack(&props);
    let dq = div_q_for_cell(
        &st,
        IntVector::splat(n / 2),
        &RmcrtParams {
            nrays: 64,
            threshold: 1e-7,
            ..Default::default()
        },
    );
    let expect = 4.0 * std::f64::consts::PI * kappa * s;
    assert!(
        (dq - expect).abs() / expect < 0.02,
        "thin limit: {dq} vs {expect}"
    );
}

/// Optically thick interior: divQ → 0 (local equilibrium with neighbours).
#[test]
fn optically_thick_interior_is_in_equilibrium() {
    let n = 8;
    let props = LevelProps::uniform(Region::cube(n), Vector::splat(1.0 / n as f64), 1e4, 0.5);
    let st = stack(&props);
    let dq = div_q_for_cell(
        &st,
        IntVector::splat(n / 2),
        &RmcrtParams {
            nrays: 64,
            threshold: 1e-9,
            ..Default::default()
        },
    );
    let emission = 4.0 * std::f64::consts::PI * 1e4 * 0.5;
    assert!(dq.abs() / emission < 1e-4, "thick interior divQ {dq}");
}
