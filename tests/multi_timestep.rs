//! Multi-timestep persistence tests (the persistent-executor PR):
//!
//! * a cached task graph re-stamped with per-step phase bytes must produce
//!   bit-identical results to the serial multilevel reference;
//! * values from timestep N−1 must never satisfy a timestep-N get;
//! * GPU level replicas persist across steps, so steps 2+ move strictly
//!   fewer bytes over PCIe than the cold first step.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use uintah::prelude::*;
use uintah::runtime::task::{Computes, Requirement, TaskContext};
use uintah::runtime::TaskDecl;

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

/// (a) Cached-graph execution matches an independent serial reference.
///
/// Runs the full multilevel RMCRT pipeline for several timesteps through
/// the persistent executor (graph compiled once, phase byte re-stamped at
/// message-post time) on 2 ranks × 2 threads. divQ does not depend on the
/// step index, so the final field must equal
/// [`reference_multilevel`](uintah::rmcrt::tasks::reference_multilevel) —
/// which shares no scheduler, compiler or warehouse code with the path
/// under test — bit for bit, and the stats must show the graph was
/// compiled on step 0 and never again.
#[test]
fn cached_graph_matches_per_step_recompilation() {
    let grid = Arc::new(BurnsChriston::small_grid(16, 4));
    let p = pipeline();
    let reference = uintah::rmcrt::tasks::reference_multilevel(&grid, &p);
    let cached = run_world(
        Arc::clone(&grid),
        Arc::new(multilevel_decls(&grid, p, false)),
        WorldConfig {
            nranks: 2,
            nthreads: 2,
            timesteps: 3,
            ..Default::default()
        },
    );

    let got = cached.fine_field(&grid, DIVQ);
    for c in reference.region().cells() {
        assert_eq!(got[c].to_bits(), reference[c].to_bits(), "cell {c:?}");
    }

    for rr in &cached.ranks {
        assert_eq!(rr.stats.len(), 3);
        assert!(
            rr.stats[0].graph_compile.as_nanos() > 0,
            "rank {}: first step must pay graph compilation",
            rr.rank
        );
        for (ts, s) in rr.stats.iter().enumerate().skip(1) {
            assert_eq!(
                s.graph_compile.as_nanos(),
                0,
                "rank {}: step {ts} recompiled a graph that should be cached",
                rr.rank
            );
        }
    }
}

/// (b) Storage recycling never lets a stale value satisfy a current get.
///
/// The producer stamps every cell with the current step index (derived
/// from a shared execution counter); the consumer sums the 7-point
/// stencil. If an epoch check ever let step N−1's SRC satisfy a step-N
/// get, the consumer would read a stale stamp and the final field would
/// be wrong.
#[test]
fn stale_epochs_never_leak_across_timesteps() {
    const SRC: VarLabel = VarLabel::new("mt_src", 40);
    const OUT: VarLabel = VarLabel::new("mt_out", 41);
    let grid = Arc::new(
        Grid::builder()
            .fine_cells(IntVector::splat(8))
            .num_levels(1)
            .fine_patch_size(IntVector::splat(4))
            .build(),
    );
    let npatches = grid.num_patches();
    let execs = Arc::new(AtomicUsize::new(0));
    let execs_in_task = Arc::clone(&execs);
    let produce = TaskDecl::new(
        "stamp",
        0,
        Arc::new(move |ctx: &mut TaskContext| {
            // All patches of step N run before any patch of step N+1
            // (execute is a barrier), so id / npatches is the step index.
            let step = execs_in_task.fetch_add(1, Ordering::SeqCst) / npatches;
            let mut v = CcVariable::<f64>::new(ctx.patch().interior());
            v.fill_with(|_| step as f64);
            ctx.put(SRC, FieldData::F64(v));
        }),
    )
    .computes(Computes::PatchVar(SRC));
    let consume = TaskDecl::new(
        "stencil",
        0,
        Arc::new(|ctx: &mut TaskContext| {
            let src = ctx.get_ghosted_f64(SRC, 1);
            let region = ctx.patch().interior();
            let mut out = CcVariable::<f64>::new(region);
            for c in region.cells() {
                let mut sum = src[c];
                for d in [
                    IntVector::new(1, 0, 0),
                    IntVector::new(-1, 0, 0),
                    IntVector::new(0, 1, 0),
                    IntVector::new(0, -1, 0),
                    IntVector::new(0, 0, 1),
                    IntVector::new(0, 0, -1),
                ] {
                    if let Some(&v) = src.get(c + d) {
                        sum += v;
                    }
                }
                out[c] = sum;
            }
            ctx.put(OUT, FieldData::F64(out));
        }),
    )
    .requires(Requirement::Ghost(SRC, 1))
    .computes(Computes::PatchVar(OUT));

    let timesteps = 4;
    let result = run_world(
        Arc::clone(&grid),
        Arc::new(vec![produce, consume]),
        WorldConfig {
            nranks: 1,
            nthreads: 2,
            timesteps,
            ..Default::default()
        },
    );
    let rr = &result.ranks[0];
    assert_eq!(rr.dw.epoch(), (timesteps - 1) as u64, "one epoch per step");
    assert_eq!(execs.load(Ordering::SeqCst), npatches * timesteps);

    // Every surviving value must carry the final step's stamp; a stale
    // epoch leak would surface an earlier stamp (or a wrong stencil sum).
    let last = (timesteps - 1) as f64;
    let domain = Region::cube(8);
    for &pid in result.dist.owned_by(0) {
        let patch = grid.patch(pid);
        let src = rr.dw.get_patch(SRC, pid).expect("src present");
        let out = rr.dw.get_patch(OUT, pid).expect("out present");
        for c in patch.interior().cells() {
            assert_eq!(src.as_f64()[c], last, "stale SRC at {c:?}");
            let mut neighbours = 1;
            for d in [
                IntVector::new(1, 0, 0),
                IntVector::new(-1, 0, 0),
                IntVector::new(0, 1, 0),
                IntVector::new(0, -1, 0),
                IntVector::new(0, 0, 1),
                IntVector::new(0, 0, -1),
            ] {
                if domain.contains(c + d) {
                    neighbours += 1;
                }
            }
            assert_eq!(out.as_f64()[c], last * neighbours as f64, "stale OUT at {c:?}");
        }
    }
}

/// (c) Persistent GPU level replicas: steps 2+ re-upload strictly less
/// than the cold first step, and the results stay identical to CPU.
#[test]
fn gpu_level_db_reuploads_less_after_first_step() {
    let grid = Arc::new(BurnsChriston::small_grid(16, 4));
    let p = pipeline();
    let timesteps = 3;
    let run = |gpu: bool| {
        run_world(
            Arc::clone(&grid),
            Arc::new(multilevel_decls(&grid, p, gpu)),
            WorldConfig {
                nranks: 1,
                nthreads: 2,
                timesteps,
                gpu_capacity: gpu.then_some(2 << 30),
                ..Default::default()
            },
        )
    };
    let gpu_run = run(true);
    let cpu_run = run(false);

    let rr = &gpu_run.ranks[0];
    let first = rr.stats[0].gpu_h2d_bytes;
    assert!(first > 0, "cold step must upload");
    for (ts, s) in rr.stats.iter().enumerate().skip(1) {
        assert!(
            s.gpu_h2d_bytes < first,
            "step {ts} uploaded {} B, not less than cold step's {first} B — \
             level replicas were not kept device-resident",
            s.gpu_h2d_bytes
        );
    }

    // Residency must not change the answer: GPU multi-step == CPU multi-step.
    let a = gpu_run.fine_field(&grid, DIVQ);
    let b = cpu_run.fine_field(&grid, DIVQ);
    for c in a.region().cells() {
        assert_eq!(a[c].to_bits(), b[c].to_bits(), "cell {c:?}");
    }
}

/// (d) D2H takes change timing only, never results: `divQ` on 2, 3 and 7
/// workers driving the Device path stays bit-identical to the one-worker
/// run across 3 timesteps, and the same bytes cross PCIe at every thread
/// count.
#[test]
fn d2h_drains_keep_divq_bit_identical_across_thread_counts() {
    let grid = Arc::new(BurnsChriston::small_grid(16, 4));
    let p = pipeline();
    let timesteps = 3;
    let decls = Arc::new(multilevel_decls(&grid, p, true));
    let run = |nthreads: usize| {
        run_world(
            Arc::clone(&grid),
            Arc::clone(&decls),
            WorldConfig {
                nranks: 1,
                nthreads,
                timesteps,
                gpu_capacity: Some(2 << 30),
                ..Default::default()
            },
        )
    };
    let d2h_bytes = |r: &WorldResult| r.ranks[0].stats.iter().map(|st| st.gpu_d2h_bytes).sum::<u64>();
    let serial = run(1);
    let reference = serial.fine_field(&grid, DIVQ);
    let reference_bytes = d2h_bytes(&serial);
    assert!(reference_bytes > 0, "the run must report D2H traffic");
    for nthreads in [1, 2, 3, 7] {
        let result = run(nthreads);
        let got = result.fine_field(&grid, DIVQ);
        for c in reference.region().cells() {
            assert_eq!(
                got[c].to_bits(),
                reference[c].to_bits(),
                "divQ differs at {c:?} with {nthreads} threads"
            );
        }
        assert_eq!(
            d2h_bytes(&result),
            reference_bytes,
            "every thread count moves identical bytes"
        );
    }
}
