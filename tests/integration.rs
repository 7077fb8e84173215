//! Cross-crate integration tests: the full RMCRT pipeline through the
//! distributed runtime, on CPU and on the simulated GPU, against the
//! serial reference solvers.

use std::sync::Arc;
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

#[test]
fn single_level_pipeline_matches_its_reference() {
    let grid = Arc::new(BurnsChriston::small_grid(16, 8));
    let p = pipeline();
    let reference = uintah::rmcrt::tasks::reference_single_level(&grid, &p);
    let decls = Arc::new(single_level_decls(&grid, p, false));
    for nranks in [1usize, 3] {
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
        for c in reference.region().cells() {
            assert_eq!(got[c], reference[c], "nranks {nranks} cell {c:?}");
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
    for nranks in [1usize, 3] {
        let result = run_world(
            Arc::clone(&grid),
            Arc::new(multilevel_decls(&grid, p, false)),
            WorldConfig {
                nranks,
                nthreads: 2,
                ..Default::default()
            },
        );
        let got = result.fine_field(&grid, DIVQ);
        for c in reference.region().cells() {
            assert_eq!(got[c], reference[c], "nranks {nranks} cell {c:?}");
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
    for store in [StoreKind::WaitFree, StoreKind::Mutex, StoreKind::Racy] {
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
        assert_eq!(results[0][c], results[2][c]);
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
