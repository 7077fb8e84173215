//! Mid-run regrid/rebalance tests (the ownership-migration PR):
//!
//! * flipping patch ownership between ranks mid-run must leave `divQ`
//!   bit-identical to an uninterrupted run, on 1, 2, 3 and 7 worker
//!   threads;
//! * the cached task graph must recompile exactly once per regrid — the
//!   steps in between reuse it;
//! * migration moves live warehouse data to the new owners bit-identically
//!   (checked directly at the executor level);
//! * a regrid evicts device-resident level replicas, so the first
//!   post-regrid step pays a full re-upload where a steady step paid a
//!   diff;
//! * a problem twice the per-device capacity, on 1- and 6-device fleets
//!   with a regrid mid-run, evicts and spills yet stays bit-identical to
//!   the unconstrained run, and leaves no meter drift behind;
//! * no stale-epoch or stale-generation warehouse hit occurs anywhere.

#[path = "support/meters.rs"]
mod meters;

use std::sync::Arc;
use uintah::prelude::*;
use uintah::runtime::task::{Computes, TaskContext};
use uintah::runtime::{DataWarehouse, PersistentExecutor, Scheduler, TaskDecl, WorldResult};
use uintah_grid::PatchId;

fn pipeline() -> RmcrtPipeline {
    RmcrtPipeline {
        params: RmcrtParams {
            nrays: 8,
            threshold: 1e-4,
            seed: 0x5EED,
            timestep: 0,
            sampling: uintah::rmcrt::sampling::RaySampling::Independent,
            ray_count: None,
        },
        halo: 2,
        problem: BurnsChriston::default(),
    }
}

/// (a) A forced ownership flip at step 2 of 3 leaves divQ bit-identical to
/// the uninterrupted run on 1, 2, 3 and 7 worker threads; the graph
/// recompiles exactly once (at the regrid) beyond the initial compile; the
/// regrid step's stats carry the migration cost; and no warehouse get ever
/// touched a stale-stamped entry.
#[test]
fn mid_run_ownership_flip_divq_bit_identical() {
    let grid = Arc::new(BurnsChriston::small_grid(16, 4));
    let decls = Arc::new(multilevel_decls(&grid, pipeline(), false));
    let timesteps = 3;
    let run = |nthreads: usize, regrid: bool| {
        run_world(
            Arc::clone(&grid),
            Arc::clone(&decls),
            WorldConfig {
                nranks: 2,
                nthreads,
                timesteps,
                regrid_interval: regrid.then_some(2),
                regrid_policy: RebalancePolicy::Rotate(1),
                ..Default::default()
            },
        )
    };
    let reference = run(1, false);
    let ref_divq = reference.fine_field(&grid, DIVQ);

    for nthreads in [1, 2, 3, 7] {
        let flipped = run(nthreads, true);
        assert_ne!(
            flipped.dist.rank_map(),
            reference.dist.rank_map(),
            "the rotate policy must actually change ownership"
        );
        let divq = flipped.fine_field(&grid, DIVQ);
        for c in ref_divq.region().cells() {
            assert_eq!(
                divq[c].to_bits(),
                ref_divq[c].to_bits(),
                "divQ differs at {c:?} after a regrid with {nthreads} threads"
            );
        }
        for rr in &flipped.ranks {
            assert_eq!(rr.stats.len(), timesteps);
            // Exactly one extra compile: the initial one at step 0 and the
            // post-regrid one at step 2; step 1 reuses the cache.
            assert!(
                rr.stats[0].graph_compile.as_nanos() > 0,
                "rank {}: step 0 must pay the initial compile",
                rr.rank
            );
            assert_eq!(
                rr.stats[1].graph_compile.as_nanos(),
                0,
                "rank {}: step 1 must reuse the cached graph",
                rr.rank
            );
            assert!(
                rr.stats[2].graph_compile.as_nanos() > 0,
                "rank {}: the post-regrid step must recompile",
                rr.rank
            );
            // The regrid's cost is folded into the step that runs under
            // the new distribution — and only that step.
            assert_eq!(rr.stats[0].regrids, 0);
            assert_eq!(rr.stats[1].regrids, 0);
            assert_eq!(rr.stats[2].regrids, 1, "rank {}", rr.rank);
            assert!(
                rr.stats[2].migrated_bytes > 0,
                "rank {}: the flip must move warehouse data",
                rr.rank
            );
            assert!(rr.stats[2].migrate_wall.as_nanos() > 0);
            assert_eq!(rr.stats[2].regrid_compile, rr.stats[2].graph_compile);
            let line = rr.stats[2].summary();
            assert!(
                line.contains("regrids 1"),
                "summary missing the regrid line:\n{line}"
            );
            assert_eq!(
                rr.dw.stale_hits(),
                0,
                "rank {}: a stale-stamped entry was touched",
                rr.rank
            );
        }
    }
}

/// (b) Executor-level migration correctness: after `regrid`, the new owner
/// holds the producer's exact bits for every gained patch, before any task
/// of the next step runs.
#[test]
fn regrid_migrates_live_patch_data_to_new_owners() {
    const SRC: VarLabel = VarLabel::new("rg_src", 50);
    let grid = Arc::new(
        Grid::builder()
            .fine_cells(IntVector::splat(16))
            .num_levels(1)
            .fine_patch_size(IntVector::splat(8))
            .build(),
    );
    let produce = TaskDecl::new(
        "produce",
        0,
        Arc::new(|ctx: &mut TaskContext| {
            let pid = ctx.patch().id().0;
            let mut v = CcVariable::<f64>::new(ctx.patch().interior());
            v.fill_with(|c| (pid * 1000) as f64 + (c.x + 10 * c.y + 100 * c.z) as f64);
            ctx.put(SRC, FieldData::F64(v));
        }),
    )
    .computes(Computes::PatchVar(SRC));
    let decls = Arc::new(vec![produce]);

    let dist = Arc::new(PatchDistribution::new(&grid, 2, DistributionPolicy::MortonSfc));
    let rotated = Arc::new(PatchDistribution::from_rank_of(
        2,
        dist.rank_map().iter().map(|&r| (r + 1) % 2).collect(),
    ));
    let world = CommWorld::new(2);
    let mut handles = Vec::new();
    for rank in 0..2usize {
        let world = world.clone();
        let grid = Arc::clone(&grid);
        let decls = Arc::clone(&decls);
        let (dist, rotated) = (Arc::clone(&dist), Arc::clone(&rotated));
        handles.push(std::thread::spawn(move || {
            let comm = world.communicator(rank);
            let dw = Arc::new(DataWarehouse::new(Arc::clone(&grid)));
            let sched = Scheduler::new(comm, 1, StoreKind::WaitFree);
            let mut exec = PersistentExecutor::new(
                Arc::clone(&grid),
                decls,
                Arc::clone(&dist),
                sched,
                Arc::clone(&dw),
                None,
            );
            exec.step();
            assert_eq!(exec.compiles(), 1);

            // Regridding to the identical distribution is a no-op.
            assert!(exec.regrid(Arc::clone(&dist)).is_none());
            assert_eq!(exec.compiles(), 1);

            let ev = exec.regrid(Arc::clone(&rotated)).expect("ownership changed");
            assert_eq!(ev.generation, 1);
            assert_eq!(ev.patches_out, dist.owned_by(rank).len());
            assert_eq!(ev.patches_in, rotated.owned_by(rank).len());
            assert!(ev.migrated_bytes > 0);

            // Every gained patch carries the producer's exact bits, visible
            // before the next step runs any task.
            for &pid in rotated.owned_by(rank) {
                let v = exec.dw().get_patch(SRC, pid).expect("migrated SRC");
                for c in grid.patch(pid).interior().cells() {
                    let expect = (pid.0 * 1000) as f64 + (c.x + 10 * c.y + 100 * c.z) as f64;
                    assert_eq!(v.as_f64()[c].to_bits(), expect.to_bits(), "patch {pid:?} cell {c:?}");
                }
            }
            // And lost patches are gone.
            for &pid in dist.owned_by(rank) {
                assert!(exec.dw().get_patch(SRC, pid).is_none(), "patch {pid:?} not handed off");
            }

            // The next step runs under the new ownership, recompiling once
            // and folding the regrid cost into its stats.
            let s = exec.step();
            assert_eq!(exec.compiles(), 2, "exactly one extra compile");
            assert_eq!(s.regrids, 1);
            assert_eq!(s.migrated_bytes, ev.migrated_bytes);
            assert_eq!(exec.dist().rank_map(), rotated.rank_map());
            assert_eq!(dw.stale_hits(), 0);
            assert_eq!(dw.generation(), 1);
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

/// (c) A regrid evicts device-resident level replicas: the first
/// post-regrid step pays a full re-upload where the steady step before it
/// paid only a diff — and the GPU answer still matches the CPU answer
/// bit for bit through the flip.
#[test]
fn gpu_regrid_evicts_level_replicas_and_stays_bit_identical() {
    let grid = Arc::new(BurnsChriston::small_grid(16, 4));
    let timesteps = 3;
    let run = |gpu: bool| {
        run_world(
            Arc::clone(&grid),
            Arc::new(multilevel_decls(&grid, pipeline(), gpu)),
            WorldConfig {
                nranks: 2,
                nthreads: 2,
                timesteps,
                gpu_capacity: gpu.then_some(2 << 30),
                regrid_interval: Some(2),
                regrid_policy: RebalancePolicy::Rotate(1),
                ..Default::default()
            },
        )
    };
    let gpu_run = run(true);
    let cpu_run = run(false);

    for rr in &gpu_run.ranks {
        assert!(
            rr.stats[1].gpu_h2d_bytes < rr.stats[0].gpu_h2d_bytes,
            "rank {}: steady step must re-upload less than the cold step",
            rr.rank
        );
        assert!(
            rr.stats[2].gpu_h2d_bytes > rr.stats[1].gpu_h2d_bytes,
            "rank {}: post-regrid step uploaded {} B, not more than the steady \
             step's {} B — level replicas were not evicted",
            rr.rank,
            rr.stats[2].gpu_h2d_bytes,
            rr.stats[1].gpu_h2d_bytes
        );
        assert_eq!(rr.stats[2].regrids, 1);
        assert_eq!(rr.dw.stale_hits(), 0, "rank {}", rr.rank);
    }

    let a = gpu_run.fine_field(&grid, DIVQ);
    let b = cpu_run.fine_field(&grid, DIVQ);
    for c in a.region().cells() {
        assert_eq!(a[c].to_bits(), b[c].to_bits(), "cell {c:?}");
    }
}

/// (c') Device-memory oversubscription, the paper's §IV-B memory limit
/// carried past it: at a per-device capacity of half the unconstrained
/// run's measured peak, on 1- and 6-device fleets with a regrid every 2
/// steps, the run evicts yet divQ is bit-identical to the unconstrained
/// run, the capacity meter is never exceeded, no release underflows, and
/// every device drains to 0 B. The grid is 32³ in 8³ patches: at 16³ in
/// 4³, half the peak is too little for two tasks' pinned inputs and a
/// task can fail on device OOM.
#[test]
fn gpu_oversubscribed_fleets_evict_and_stay_bit_identical() {
    let grid = Arc::new(BurnsChriston::small_grid(32, 8));
    let pipeline = RmcrtPipeline {
        params: RmcrtParams {
            nrays: 4,
            threshold: 1e-3,
            ..Default::default()
        },
        halo: 4,
        problem: BurnsChriston::default(),
    };
    let decls = Arc::new(multilevel_decls(&grid, pipeline, true));
    let run = |devices: usize, capacity: usize| {
        run_world(
            Arc::clone(&grid),
            Arc::clone(&decls),
            WorldConfig {
                nranks: 2,
                nthreads: 2,
                timesteps: 4,
                gpu_capacity: Some(capacity),
                gpus_per_rank: devices,
                regrid_interval: Some(2),
                ..Default::default()
            },
        )
    };
    // (max per-device peak, evictions, release underflows) over the fleet.
    let totals = |result: &WorldResult| {
        let counters = result
            .ranks
            .iter()
            .flat_map(|rr| rr.gpu.as_ref().expect("gpu attached").counters_per_device());
        counters.fold((0, 0, 0), |(peak, ev, uf), c| {
            (c.peak.max(peak), ev + c.evictions, uf + c.release_underflows)
        })
    };

    let mut unconstrained = Vec::new();
    for devices in [1usize, 6] {
        let reference = run(devices, 6 << 30);
        let (peak, evictions, underflows) = totals(&reference);
        assert_eq!(evictions, 0, "{devices}-dev unconstrained run evicted");
        assert_eq!(underflows, 0, "{devices}-dev unconstrained run");
        meters::assert_meters_drain(&reference, &format!("{devices}-dev unconstrained"));
        let want = reference.fine_field(&grid, DIVQ);

        let capacity = peak as usize / 2;
        let oversub = run(devices, capacity);
        let (peak, evictions, underflows) = totals(&oversub);
        assert!(evictions > 0, "{devices}-dev at {capacity} B evicted nothing");
        assert!(peak <= capacity as u64, "{devices}-dev peak {peak} B > capacity {capacity} B");
        assert_eq!(underflows, 0, "{devices}-dev oversubscribed run");
        meters::assert_meters_drain(&oversub, &format!("{devices}-dev oversubscribed"));
        let got = oversub.fine_field(&grid, DIVQ);
        for c in want.region().cells() {
            assert_eq!(got[c].to_bits(), want[c].to_bits(), "{devices}-dev cell {c:?}");
        }
        unconstrained.push(want);
    }
    let (one, six) = (&unconstrained[0], &unconstrained[1]);
    for c in one.region().cells() {
        assert_eq!(one[c].to_bits(), six[c].to_bits(), "1- vs 6-dev cell {c:?}");
    }
}

/// (d) Measured-cost rebalancing end to end: the costed-SFC policy driven
/// by real per-step timings still produces a valid, agreed distribution
/// and bit-identical physics (the decision may differ run to run — the
/// timings are noisy — but whatever it decides must be correct).
#[test]
fn costed_rebalance_midrun_keeps_divq_bit_identical() {
    let grid = Arc::new(BurnsChriston::small_grid(16, 4));
    let decls = Arc::new(multilevel_decls(&grid, pipeline(), false));
    let run = |regrid: bool| {
        run_world(
            Arc::clone(&grid),
            Arc::clone(&decls),
            WorldConfig {
                nranks: 3,
                nthreads: 2,
                timesteps: 4,
                regrid_interval: regrid.then_some(2),
                regrid_policy: RebalancePolicy::CostedSfc,
                ..Default::default()
            },
        )
    };
    let balanced = run(true);
    let reference = run(false);

    // Whatever the measured costs decided, the final distribution is valid
    // (every patch owned exactly once by a rank < nranks) and identical
    // across ranks.
    let map = balanced.dist.rank_map();
    assert_eq!(map.len(), grid.num_patches());
    assert!(map.iter().all(|&r| (r as usize) < 3));
    for rr in &balanced.ranks {
        assert_eq!(rr.dist.rank_map(), map, "rank {} disagrees on ownership", rr.rank);
        assert_eq!(rr.dw.stale_hits(), 0);
    }
    for pid in 0..grid.num_patches() {
        let owner = balanced.dist.rank_of(PatchId(pid as u32));
        assert!(balanced.dist.owned_by(owner).contains(&PatchId(pid as u32)));
    }

    let a = balanced.fine_field(&grid, DIVQ);
    let b = reference.fine_field(&grid, DIVQ);
    for c in a.region().cells() {
        assert_eq!(a[c].to_bits(), b[c].to_bits(), "cell {c:?}");
    }
}
