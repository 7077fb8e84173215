//! Cross-crate integration tests: the full RMCRT pipeline through the
//! distributed runtime, on CPU and on the simulated GPU, against the
//! serial reference solvers.

#[path = "support/meters.rs"]
mod meters;

use std::sync::Arc;
use std::time::Duration;
use uintah::prelude::*;

fn pipeline() -> RmcrtPipeline {
    RmcrtPipeline {
        params: RmcrtParams {
            nrays: 16,
            threshold: 1e-4,
            seed: 0xABCD,
            timestep: 0,
            sampling: uintah::rmcrt::sampling::RaySampling::Independent,
            ray_count: None,
        },
        halo: 4,
        problem: BurnsChriston::default(),
    }
}

#[test]
fn multilevel_pipeline_matches_reference_exactly() {
    // The runtime (ghost exchange, restriction windows, all-to-all,
    // gather/seal) must reproduce the serial reference bit-for-bit: the
    // RNG is a pure function of (cell, ray, timestep) and the assembled
    // properties must be identical.
    let grid = Arc::new(BurnsChriston::small_grid(16, 8));
    let p = pipeline();
    let reference = uintah::rmcrt::tasks::reference_multilevel(&grid, &p);
    let decls = Arc::new(multilevel_decls(&grid, p, false));
    let result = run_world(
        Arc::clone(&grid),
        decls,
        WorldConfig {
            nranks: 1,
            nthreads: 2,
            ..Default::default()
        },
    );
    let got = result.fine_field(&grid, DIVQ);
    for c in reference.region().cells() {
        assert_eq!(got[c], reference[c], "cell {c:?}");
    }
}

#[test]
fn rank_count_does_not_change_results() {
    let grid = Arc::new(BurnsChriston::small_grid(16, 4));
    let p = pipeline();
    let decls = Arc::new(multilevel_decls(&grid, p, false));
    let base = run_world(
        Arc::clone(&grid),
        Arc::clone(&decls),
        WorldConfig::default(),
    )
    .fine_field(&grid, DIVQ);
    for nranks in [2usize, 4, 6] {
        let result = run_world(
            Arc::clone(&grid),
            Arc::clone(&decls),
            WorldConfig {
                nranks,
                nthreads: 2,
                ..Default::default()
            },
        );
        let got = result.fine_field(&grid, DIVQ);
        for c in base.region().cells() {
            assert_eq!(got[c], base[c], "nranks {nranks}, cell {c:?}");
        }
        assert!(result.total_messages() > 0);
    }
}

#[test]
fn gpu_pipeline_matches_cpu_pipeline() {
    let grid = Arc::new(BurnsChriston::small_grid(16, 8));
    let p = pipeline();
    let cpu = run_world(
        Arc::clone(&grid),
        Arc::new(multilevel_decls(&grid, p, false)),
        WorldConfig {
            nranks: 2,
            nthreads: 2,
            ..Default::default()
        },
    )
    .fine_field(&grid, DIVQ);
    let result = run_world(
        Arc::clone(&grid),
        Arc::new(multilevel_decls(&grid, p, true)),
        WorldConfig {
            nranks: 2,
            nthreads: 2,
            gpu_capacity: Some(512 << 20),
            ..Default::default()
        },
    );
    let gpu = result.fine_field(&grid, DIVQ);
    for c in cpu.region().cells() {
        assert_eq!(gpu[c], cpu[c], "cell {c:?}");
    }
    // The GPU actually participated.
    for rr in &result.ranks {
        let gdw = rr.gpu.as_ref().expect("gpu attached");
        let local_fine = result
            .dist
            .owned_by(rr.rank)
            .iter()
            .filter(|&&pid| grid.patch(pid).level_index() == grid.fine_level_index())
            .count() as u64;
        let counters = gdw.device().counters();
        assert_eq!(counters.kernels, local_fine);
        // Level DB: the 3 coarse replicas were uploaded exactly once each.
        assert_eq!(gdw.level_entries(), 3);
        // Per-patch H2D: 3 inputs; replicas once; divQ is device-produced
        // (no H2D) and crosses back once per patch (D2H).
        assert_eq!(counters.d2h_transfers, local_fine);
        assert_eq!(counters.h2d_transfers, 3 + 3 * local_fine);
    }
}

#[test]
fn level_db_reduces_pcie_traffic_end_to_end() {
    // E4 through the full pipeline: with the level DB off, every patch
    // task re-uploads the coarse replicas. Geometry chosen so the coarse
    // replica dominates per-patch inputs: RR 2 (coarse 16³ for fine 32³),
    // small halo.
    let grid = Arc::new(
        Grid::builder()
            .fine_cells(IntVector::splat(32))
            .num_levels(2)
            .refinement_ratio(2)
            .fine_patch_size(IntVector::splat(8))
            .build(),
    );
    let p = RmcrtPipeline {
        params: RmcrtParams {
            nrays: 2,
            threshold: 1e-3,
            ..Default::default()
        },
        halo: 1,
        problem: BurnsChriston::default(),
    };
    let run = |level_db: bool| -> (u64, u64) {
        let result = run_world(
            Arc::clone(&grid),
            Arc::new(multilevel_decls(&grid, p, true)),
            WorldConfig {
                nranks: 1,
                nthreads: 4,
                gpu_capacity: Some(2 << 30),
                gpu_level_db: level_db,
                ..Default::default()
            },
        );
        let c = result.ranks[0].gpu.as_ref().unwrap().device().counters();
        (c.h2d_bytes, c.peak)
    };
    let (with_bytes, with_peak) = run(true);
    let (without_bytes, without_peak) = run(false);
    assert!(
        without_bytes > 2 * with_bytes,
        "PCIe bytes: with level DB {with_bytes}, without {without_bytes}"
    );
    assert!(
        without_peak > with_peak,
        "peak device memory: with {with_peak}, without {without_peak}"
    );
}

/// The single-level pipeline reproduces its serial reference on CPU and on
/// a 2-device GPU fleet per rank. On the GPU, each patch's divQ crosses D2H
/// once — the fine level's divQ bytes a step over all ranks — and every
/// fleet drains to 0 B afterwards.
#[test]
fn single_level_pipeline_matches_its_reference() {
    let grid = Arc::new(BurnsChriston::small_grid(16, 8));
    let p = pipeline();
    let reference = uintah::rmcrt::tasks::reference_single_level(&grid, &p);
    let divq_bytes = (reference.len() * std::mem::size_of::<f64>()) as u64;
    for gpu in [false, true] {
        let decls = Arc::new(single_level_decls(&grid, p, gpu));
        for nranks in [1usize, 3] {
            let result = run_world(
                Arc::clone(&grid),
                Arc::clone(&decls),
                WorldConfig {
                    nranks,
                    nthreads: 2,
                    gpu_capacity: gpu.then_some(64 << 20),
                    gpus_per_rank: if gpu { 2 } else { 1 },
                    ..Default::default()
                },
            );
            let got = result.fine_field(&grid, DIVQ);
            for c in reference.region().cells() {
                assert_eq!(got[c].to_bits(), reference[c].to_bits(), "nranks {nranks} gpu {gpu} cell {c:?}");
            }
            if gpu {
                let run = format!("single-level gpu, {nranks} ranks");
                let d2h: u64 = result.ranks.iter().map(|rr| rr.stats[0].gpu_d2h_bytes).sum();
                assert_eq!(d2h, divq_bytes, "{run}: divQ must cross D2H once per cell");
                for rr in &result.ranks {
                    for c in rr.gpu.as_ref().expect("gpu attached").counters_per_device() {
                        assert_eq!(c.release_underflows, 0, "{run}: rank {}", rr.rank);
                    }
                }
                meters::assert_meters_drain(&result, &run);
            }
        }
    }
}

#[test]
fn multilevel_sends_fewer_bytes_than_single_level() {
    // The paper's core claim: the AMR data-onion replaces fine-mesh
    // replication with coarse replicas, slashing communication volume.
    let grid = Arc::new(BurnsChriston::small_grid(32, 8));
    let mut p = pipeline();
    p.params.nrays = 4;
    p.halo = 2;
    let cfg = WorldConfig {
        nranks: 8,
        nthreads: 2,
        ..Default::default()
    };
    let ml = run_world(
        Arc::clone(&grid),
        Arc::new(multilevel_decls(&grid, p, false)),
        cfg.clone(),
    );
    let sl = run_world(
        Arc::clone(&grid),
        Arc::new(single_level_decls(&grid, p, false)),
        cfg,
    );
    assert!(
        sl.total_bytes() > 5 * ml.total_bytes(),
        "single-level {} B vs multi-level {} B",
        sl.total_bytes(),
        ml.total_bytes()
    );
    // And the gap widens with rank count: replication volume grows
    // linearly with ranks, the data-onion's does not (its receives are a
    // fixed coarse replica plus halos).
}

#[test]
fn three_level_pipeline_matches_reference() {
    // 3 levels exercise the intermediate-level ROI transition path:
    // fine 32³ → mid 16³ → coarse 8³ (RR 2), 8³ patches.
    let grid = Arc::new(
        Grid::builder()
            .fine_cells(IntVector::splat(32))
            .num_levels(3)
            .refinement_ratio(2)
            .fine_patch_size(IntVector::splat(8))
            .build(),
    );
    assert_eq!(grid.num_levels(), 3);
    let p = RmcrtPipeline {
        params: RmcrtParams {
            nrays: 8,
            threshold: 1e-4,
            ..Default::default()
        },
        halo: 2,
        problem: BurnsChriston::default(),
    };
    let reference = uintah::rmcrt::tasks::reference_multilevel(&grid, &p);
    // The GPU case stages the intermediate level's replicas through the
    // device path too, on a 2-device fleet per rank.
    for (nranks, gpu) in [(1usize, false), (3, false), (2, true)] {
        let result = run_world(
            Arc::clone(&grid),
            Arc::new(multilevel_decls(&grid, p, gpu)),
            WorldConfig {
                nranks,
                nthreads: 2,
                gpu_capacity: gpu.then_some(64 << 20),
                gpus_per_rank: if gpu { 2 } else { 1 },
                ..Default::default()
            },
        );
        let got = result.fine_field(&grid, DIVQ);
        for c in reference.region().cells() {
            assert_eq!(got[c], reference[c], "nranks {nranks} gpu {gpu} cell {c:?}");
        }
        if gpu {
            // One replica per device of each of the 3 labels on each of
            // the 2 coarse levels.
            for rr in &result.ranks {
                let gdw = rr.gpu.as_ref().expect("gpu attached");
                assert_eq!(gdw.level_entries(), 2 * 2 * 3, "rank {}", rr.rank);
            }
        }
    }
}

#[test]
fn more_ranks_than_patches_is_harmless() {
    // Ranks owning no patches must compile empty graphs, terminate
    // immediately and receive nothing.
    let grid = Arc::new(BurnsChriston::small_grid(16, 8)); // 8 fine patches
    let p = pipeline();
    let reference = uintah::rmcrt::tasks::reference_multilevel(&grid, &p);
    let result = run_world(
        Arc::clone(&grid),
        Arc::new(multilevel_decls(&grid, p, false)),
        WorldConfig {
            nranks: 12,
            nthreads: 2,
            ..Default::default()
        },
    );
    let got = result.fine_field(&grid, DIVQ);
    for c in reference.region().cells() {
        assert_eq!(got[c], reference[c]);
    }
    let idle_ranks = result
        .ranks
        .iter()
        .filter(|r| r.stats[0].tasks_executed == 0)
        .count();
    assert!(idle_ranks >= 3, "expected idle ranks, got {idle_ranks}");
}

#[test]
fn repeated_timesteps_are_reproducible() {
    let grid = Arc::new(BurnsChriston::small_grid(16, 8));
    let p = pipeline();
    let decls = Arc::new(multilevel_decls(&grid, p, false));
    let cfg = WorldConfig {
        nranks: 2,
        nthreads: 2,
        timesteps: 2,
        ..Default::default()
    };
    let a = run_world(Arc::clone(&grid), Arc::clone(&decls), cfg.clone()).fine_field(&grid, DIVQ);
    let b = run_world(Arc::clone(&grid), decls, cfg).fine_field(&grid, DIVQ);
    for c in a.region().cells() {
        assert_eq!(a[c], b[c]);
    }
}

#[test]
fn all_request_stores_agree_through_full_pipeline() {
    let grid = Arc::new(BurnsChriston::small_grid(16, 4));
    let p = pipeline();
    let decls = Arc::new(multilevel_decls(&grid, p, false));
    let mut results = Vec::new();
    for store in [StoreKind::WaitFree, StoreKind::Mutex] {
        let r = run_world(
            Arc::clone(&grid),
            Arc::clone(&decls),
            WorldConfig {
                nranks: 3,
                nthreads: 2,
                store,
                ..Default::default()
            },
        );
        results.push(r.fine_field(&grid, DIVQ));
    }
    for c in results[0].region().cells() {
        assert_eq!(results[0][c], results[1][c]);
    }
}

/// The step meters add up: every step's messages are received in that
/// step, per-task counts and times sum to the step totals, and the
/// per-patch costs the load balancer reads cover every owned fine patch
/// and sum to the same task time, to the nanosecond.
#[test]
fn step_meters_are_conserved() {
    let grid = Arc::new(BurnsChriston::small_grid(16, 4));
    let p = pipeline();
    for gpu in [false, true] {
        let decls = Arc::new(multilevel_decls(&grid, p, gpu));
        for (nranks, nthreads) in [(2usize, 2usize), (3, 1)] {
            for store in [StoreKind::WaitFree, StoreKind::Mutex] {
                let run = format!("gpu {gpu}, {nranks}x{nthreads}, {store:?}");
                let result = run_world(
                    Arc::clone(&grid),
                    Arc::clone(&decls),
                    WorldConfig {
                        nranks,
                        nthreads,
                        store,
                        timesteps: 2,
                        gpu_capacity: gpu.then_some(512 << 20),
                        ..Default::default()
                    },
                );
                for step in 0..2 {
                    let steps: Vec<_> = result.ranks.iter().map(|rr| &rr.stats[step]).collect();
                    let sent: usize = steps.iter().map(|s| s.messages_sent).sum();
                    let received: usize = steps.iter().map(|s| s.messages_received).sum();
                    assert!(sent > 0, "{run}, step {step}: no messages");
                    assert_eq!(sent, received, "{run}, step {step}: sent vs received");
                    for (rr, s) in result.ranks.iter().zip(&steps) {
                        let at = format!("{run}, step {step}, rank {}", rr.rank);
                        let count: usize = s.per_task.iter().map(|t| t.1).sum();
                        assert_eq!(count, s.tasks_executed, "{at}: per-task counts");
                        let task_time: Duration = s.per_task.iter().map(|t| t.2).sum();
                        assert_eq!(task_time, s.task_time, "{at}: per-task time");
                        let patch_time: Duration = s.per_patch.iter().map(|p| p.1).sum();
                        assert_eq!(patch_time, s.task_time, "{at}: per-patch time");
                        for &pid in rr.dist.owned_by(rr.rank) {
                            if grid.patch(pid).level_index() == grid.fine_level_index() {
                                assert!(
                                    s.per_patch.iter().any(|&(q, _)| q == pid),
                                    "{at}: fine patch {pid:?} has no cost"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

/// `rmcrt_app` reports a failed archive write and exits 1 — it must not
/// panic on an error `save_field` can return. The timestep directory's
/// path is occupied by a regular file, so the first piece cannot be saved.
#[test]
fn rmcrt_app_reports_archive_write_failure() {
    let dir = std::env::temp_dir().join(format!("rmcrt_app_archive_failure_{}", std::process::id()));
    let uda = dir.join("out.uda");
    std::fs::create_dir_all(&uda).unwrap();
    std::fs::write(uda.join("t00000"), b"").unwrap();
    let cfg = dir.join("run.cfg");
    std::fs::write(
        &cfg,
        format!(
            "fine_cells = 8\npatch_size = 4\nrefinement_ratio = 2\nnrays = 1\nranks = 1\nthreads = 1\noutput = {}\n",
            uda.display()
        ),
    )
    .unwrap();
    let run = std::process::Command::new(env!("CARGO_BIN_EXE_rmcrt_app"))
        .arg(&cfg)
        .output()
        .expect("spawn rmcrt_app");
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("cannot archive divQ piece"), "stderr: {stderr}");
}

/// A device OOM inside a GPU task's `put_patch` ends the run with the
/// task's own payload and leaves the fleet clean for the next job. The
/// fleet's one device holds the 8 KiB of coarse replicas a 32³/8³ trace
/// task stages, but not one more 8 KiB ghosted ROI field beside them, so
/// the first trace task fails staging its `abskg` input. After the world
/// drops, the fleet reads 0 B with a valid allocator and no release
/// underflow, and a 16³/4³ job that fits on the same fleet is
/// bit-identical to its solo `run_world`. Under a 30-s watchdog.
#[test]
fn put_patch_oom_fails_the_run_and_leaves_the_fleet_clean() {
    use uintah::runtime::World;
    let capacity = 12 << 10;
    let fleet = DeviceFleet::with_capacity(1, "K20X-sim", capacity);
    let pipeline = RmcrtPipeline { halo: 2, ..pipeline() };
    let cfg = WorldConfig {
        nthreads: 2,
        gpu_capacity: Some(capacity),
        ..WorldConfig::default()
    };
    let (tx, rx) = std::sync::mpsc::channel();
    let (fleet2, cfg2) = (fleet.clone(), cfg.clone());
    std::thread::spawn(move || {
        let (fleet, cfg) = (fleet2, cfg2);
        let grid = Arc::new(BurnsChriston::small_grid(32, 8));
        let decls = Arc::new(multilevel_decls(&grid, pipeline, true));
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            World::new(grid, &decls, &cfg, |_| Some(fleet.clone())).run(&decls, &cfg, None)
        }));
        let message = failed
            .expect_err("the run must fail on device OOM")
            .downcast_ref::<String>()
            .cloned();
        let grid = Arc::new(BurnsChriston::small_grid(16, 4));
        let decls = Arc::new(multilevel_decls(&grid, pipeline, true));
        let mut world = World::new(Arc::clone(&grid), &decls, &cfg, |_| Some(fleet.clone()));
        let used_before_next = fleet.total_used();
        for dev in fleet.devices() {
            dev.validate_allocator().expect("allocator valid after the failed world");
        }
        world.run(&decls, &cfg, None).expect("not halted");
        let next = world.fine_field(DIVQ);
        let solo = run_world(Arc::clone(&grid), decls, cfg).fine_field(&grid, DIVQ);
        let _ = tx.send((message, used_before_next, next, solo));
    });
    let (message, used_before_next, next, solo) = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the failed run or the next job hung, or the test thread panicked");
    let message = message.expect("the task's own String payload");
    assert!(message.starts_with("device OOM staging abskg"), "payload: {message}");
    assert_eq!(used_before_next, 0, "the failed world left device bytes behind");
    for (d, dev) in fleet.devices().iter().enumerate() {
        dev.validate_allocator().unwrap_or_else(|e| panic!("device {d}: {e}"));
        assert_eq!(dev.counters().release_underflows, 0, "device {d}");
    }
    for c in solo.region().cells() {
        assert_eq!(next[c].to_bits(), solo[c].to_bits(), "cell {c:?}");
    }
}
