//! Cross-space equivalence: every hot kernel dispatched through
//! `uintah-exec` is bit-identical on Serial, Threads(n) and the metered
//! Device space. Determinism is the contract that makes GPU offload a
//! pure performance decision (paper §III-B: the same slab-ordered math
//! runs everywhere).

use std::sync::Arc;
use uintah::prelude::*;
use uintah::rmcrt::dom::{self, SnOrder};
use uintah::rmcrt::solver::two_level_stack;

fn spaces() -> Vec<(&'static str, ExecSpace)> {
    vec![
        ("serial", ExecSpace::Serial),
        ("threads2", ExecSpace::Threads(2)),
        ("threads3", ExecSpace::Threads(3)),
        ("threads7", ExecSpace::Threads(7)),
        ("device", ExecSpace::device(GpuDevice::k20x())),
    ]
}

#[test]
fn multilevel_trace_is_bit_identical_on_every_space() {
    // Seeded 2-level Burns & Christon problem (RR 4, 16³ fine + 4³ coarse).
    let grid = BurnsChriston::small_grid(16, 8);
    let bc = BurnsChriston::default();
    let coarse = bc.props_for_level(grid.level(0));
    let fine = bc.props_for_level(grid.level(1));
    let region = Region::cube(16);
    let stack = two_level_stack(&coarse, &fine, region);
    let params = RmcrtParams {
        nrays: 5,
        threshold: 1e-4,
        seed: 42,
        ..Default::default()
    };

    let reference = solve_region(&stack, region, &params);
    for (name, space) in spaces() {
        let got = solve_region_exec(&stack, region, &params, &space);
        assert_eq!(got, reference, "trace differs on {name}");
    }
}

#[test]
fn dom_sweeps_are_bit_identical_on_every_space() {
    let grid = BurnsChriston::small_grid(16, 8);
    let props = BurnsChriston::default().props_for_level(grid.fine_level());
    let reference = dom::solve(&props, SnOrder::S4);
    for (name, space) in spaces() {
        let got = dom::solve_exec(&props, SnOrder::S4, &space);
        assert_eq!(got.g, reference.g, "DOM G differs on {name}");
        assert_eq!(got.div_q, reference.div_q, "DOM divQ differs on {name}");
    }
}

#[test]
fn restriction_is_bit_identical_on_every_space() {
    let rr = IntVector::splat(4);
    let fine_r = Region::cube(16);
    let mut fine = CcVariable::<f64>::new(fine_r);
    fine.fill_with(|c| ((c.x * 13 + c.y * 5 + c.z * 2) as f64 * 0.37).cos());
    let coarse_r = Region::cube(4);
    let reference = uintah::grid::restriction::restrict_average(&fine, rr, coarse_r);
    for (name, space) in spaces() {
        let got = ops::restrict_average(&space, &fine, rr, coarse_r);
        assert_eq!(got, reference, "restriction differs on {name}");
    }
}

#[test]
fn energy_rhs_is_bit_identical_on_every_space() {
    let step_once = |space: ExecSpace| -> Vec<f64> {
        let n = 12;
        let region = Region::cube(n);
        let mut s = EnergySolver::new(region, Vector::splat(1.0 / n as f64), 300.0);
        s.space = space;
        s.temperature_mut()
            .fill_with(|c| 300.0 + (c.x * c.x + 3 * c.y + 7 * c.z) as f64);
        s.heat_source.fill_with(|c| if c.z < 3 { 2e5 } else { 0.0 });
        s.div_q.fill_with(|c| (c.x + c.y) as f64 * 1e3);
        let dt = s.stable_dt();
        s.step(dt);
        s.temperature().as_slice().to_vec()
    };
    let reference = step_once(ExecSpace::Serial);
    for (name, space) in spaces() {
        let got = step_once(space);
        assert!(
            got.iter().zip(&reference).all(|(a, b)| a == b),
            "energy RHS differs on {name}"
        );
    }
}

#[test]
fn device_space_meters_while_matching_serial() {
    // The Device space is not just equivalent — it meters. One dispatch
    // per solve_region_exec, one invocation per cell.
    let grid = BurnsChriston::small_grid(16, 8);
    let props = BurnsChriston::default().props_for_level(grid.fine_level());
    let stack = [TraceLevel {
        props: &props,
        roi: props.region,
    }];
    let params = RmcrtParams {
        nrays: 2,
        threshold: 1e-3,
        ..Default::default()
    };
    let device = GpuDevice::k20x();
    let space = ExecSpace::device(device.clone());
    let got = solve_region_exec(&stack, props.region, &params, &space);
    assert_eq!(got, solve_region(&stack, props.region, &params));
    let ks = space.kernel_stats().expect("device space records stats");
    assert_eq!(ks.launches, 1);
    assert_eq!(ks.invocations, props.region.volume() as u64);
    assert_eq!(device.counters().kernels, 1);
}

#[test]
fn divq_is_bit_identical_across_fleet_sizes_and_thread_counts() {
    // Device count is a placement decision, never a numerical one: the
    // kernels are slab/plane-canonical, so spreading a rank's patches over
    // 1, 2, 4 or 6 simulated K20Xs (under any worker-thread count) must
    // reproduce the single-device divQ field bit-for-bit.
    let grid = Arc::new(BurnsChriston::small_grid(16, 8));
    let p = RmcrtPipeline {
        params: RmcrtParams {
            nrays: 4,
            threshold: 1e-3,
            seed: 0xF1EE7,
            ..Default::default()
        },
        halo: 4,
        problem: BurnsChriston::default(),
    };
    let decls = Arc::new(multilevel_decls(&grid, p, true));
    let run = |gpus_per_rank: usize, nthreads: usize, timesteps: usize| {
        run_world(
            Arc::clone(&grid),
            Arc::clone(&decls),
            WorldConfig {
                nranks: 2,
                nthreads,
                gpu_capacity: Some(512 << 20),
                gpus_per_rank,
                timesteps,
                ..Default::default()
            },
        )
    };
    let reference = run(1, 2, 1).fine_field(&grid, DIVQ);
    for devices in [1usize, 2, 4, 6] {
        for threads in [1usize, 2, 3, 7] {
            let result = run(devices, threads, 1);
            let got = result.fine_field(&grid, DIVQ);
            for c in reference.region().cells() {
                assert_eq!(
                    got[c], reference[c],
                    "divQ differs at {c:?} with {devices} devices x {threads} threads"
                );
            }
            // Every fine patch ran exactly one trace kernel, on *some*
            // device of its rank's fleet — fleet size redistributes
            // launches but never changes their total.
            for rr in &result.ranks {
                let gdw = rr.gpu.as_ref().expect("gpu attached");
                assert_eq!(gdw.num_devices(), devices);
                let local_fine = result
                    .dist
                    .owned_by(rr.rank)
                    .iter()
                    .filter(|&&pid| grid.patch(pid).level_index() == grid.fine_level_index())
                    .count() as u64;
                let per_dev = gdw.counters_per_device();
                assert_eq!(
                    per_dev.iter().map(|c| c.kernels).sum::<u64>(),
                    local_fine,
                    "{devices} devices x {threads} threads"
                );
                // Spreading patches divides the resident footprint: no
                // device's peak may exceed its own capacity meter.
                for (d, c) in per_dev.iter().enumerate() {
                    assert!(
                        c.peak <= gdw.device_at(d).capacity() as u64,
                        "rank {} device {d} peak {} exceeds its capacity meter",
                        rr.rank,
                        c.peak
                    );
                }
            }
        }
    }
    // A multi-step run on a fleet is equally invisible to the numerics:
    // level replicas persisting across the step boundary on 4 devices
    // reproduce the single-device answer.
    let two_step_ref = run(1, 2, 2).fine_field(&grid, DIVQ);
    let fleet = run(4, 3, 2).fine_field(&grid, DIVQ);
    for c in two_step_ref.region().cells() {
        assert_eq!(
            fleet[c], two_step_ref[c],
            "2-step fleet divQ differs at {c:?}"
        );
    }
}
