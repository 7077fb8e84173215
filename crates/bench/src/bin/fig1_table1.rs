//! E1 — Figure 1 / Table I: local communication time before vs after the
//! infrastructure improvements (mutex-vector + Testsome vs wait-free pool).
//!
//! The paper measures the time 16 worker threads per node spend posting and
//! processing MPI messages for the 2-level 512³+128³ problem with 8³
//! patches (262k patches) on 512 – 16,384 Titan nodes, before/after the
//! request-store redesign: speedups of 2.3–4.4×, with the absolute time
//! falling as node counts rise (each rank owns fewer patches, so it posts
//! fewer per-patch dependencies).
//!
//! Two reproductions are printed:
//!
//! 1. **Modeled** (16-thread Titan node): per-patch posting work from the
//!    real census, with the mutex design serializing the lock-held share of
//!    every operation (`MUTEX_LOCK_FRACTION` in `titan-sim`) and the
//!    wait-free pool scaling across all threads. This reproduces both the
//!    decreasing trend and the paper's speedup band.
//! 2. **Measured on this host**: the *actual* `MutexRequestVec` vs
//!    `WaitFreeRequestStore` implementations driven with the same relative
//!    loads (1/64 of the modeled ones, 60–700 messages) by 16 threads.
//!    The ratio depends on how many of those threads the host runs at
//!    once: with far fewer cores than threads the lock is seldom
//!    contended and the gap collapses toward 1×, as it does on a 2-core
//!    host (EXPERIMENTS.md E1; `perf_report`'s `comm.waitfree_ns_per_req`
//!    / `comm.mutex_ns_per_req` measure the same pair at one step's load).
//!
//! ```text
//! cargo run -p rmcrt-bench --release --bin fig1_table1
//! ```

use rmcrt_bench::{drive_store, median_time, secs};
use std::sync::Arc;
use titan_sim::rank_census;
use titan_sim::sim::MUTEX_LOCK_FRACTION;
use uintah::comm::{MutexRequestVec, WaitFreeRequestStore};
use uintah::prelude::*;

const THREADS: usize = 16;
/// Modeled per-message CPU cost (posting or processing), seconds.
const MSG_COST: f64 = 2.0e-6;

fn main() {
    // The §IV-B problem: 512³ fine + 128³ coarse, 8³ patches.
    let grid = Grid::builder()
        .fine_cells(IntVector::splat(512))
        .num_levels(2)
        .refinement_ratio(4)
        .fine_patch_size(IntVector::splat(8))
        .build();
    println!(
        "Table I / Fig. 1 reproduction — 2-level problem, {:.2}M cells, {} patches\n",
        grid.num_cells() as f64 / 1e6,
        grid.num_patches()
    );

    let nodes = [512usize, 1024, 2048, 4096, 8192, 16384];
    let paper_before = [6.25, 2.68, 1.26, 0.89, 0.79, 0.73];
    let paper_after = [1.42, 1.18, 0.54, 0.36, 0.30, 0.23];
    let paper_speedup = [4.40, 2.27, 2.33, 2.47, 2.63, 3.17];

    // ---- modeled table ---------------------------------------------------
    println!("[modeled 16-thread Titan node]");
    println!(
        "{:>7} | {:>11} {:>11} {:>8} | {:>8} {:>8} {:>8}",
        "#Nodes", "before(s)", "after(s)", "speedup", "paper-B", "paper-A", "paper-X"
    );
    // Per-rank local-comm operations at each node count: per-patch
    // dependencies (posting + packing, dominant at low node counts: each
    // patch has a fixed set of ghost + restriction dependencies) plus the
    // rank-consolidated all-to-all floor (messages aggregated per peer
    // rank, receives unpacked from packed buffers).
    let mut loads = Vec::new();
    for &n in &nodes {
        let dist = PatchDistribution::new(&grid, n, DistributionPolicy::MortonSfc);
        let census = rank_census(&grid, &dist, 0, 4);
        const DEPS_PER_PATCH: usize = 84; // 26 neighbours + own windows, x3 vars
        let per_patch_ops = DEPS_PER_PATCH * census.local_fine_patches;
        let floor_ops = (n - 1) / 16 + census.level_msgs_recv / 512;
        loads.push(per_patch_ops + floor_ops);
    }
    let mutex_factor = MUTEX_LOCK_FRACTION + (1.0 - MUTEX_LOCK_FRACTION) / THREADS as f64;
    // Normalize the model to the paper's 512-node "before" point; the
    // *shape* (trend + speedup band) is the reproduction target, not
    // absolute Gemini-era seconds.
    let scale = paper_before[0] / (loads[0] as f64 * MSG_COST * mutex_factor);
    for (i, &n) in nodes.iter().enumerate() {
        let work = loads[i] as f64 * MSG_COST;
        let after = work * scale / THREADS as f64;
        let before = work * scale * mutex_factor;
        println!(
            "{:>7} | {:>11.2} {:>11.2} {:>7.2}x | {:>8.2} {:>8.2} {:>7.2}x",
            n,
            before,
            after,
            before / after,
            paper_before[i],
            paper_after[i],
            paper_speedup[i]
        );
    }

    // ---- measured table ----------------------------------------------------
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("\n[measured on this host: {cores} core(s), real request stores, loads / 64]");
    println!(
        "{:>7} | {:>9} {:>11} {:>11} {:>8}",
        "#Nodes", "msgs", "mutex(s)", "waitfree(s)", "ratio"
    );
    for (i, &n) in nodes.iter().enumerate() {
        let load = (loads[i] / 64).max(THREADS);
        let before = median_time(3, || {
            drive_store(Arc::new(MutexRequestVec::new()), THREADS, load)
        });
        let after = median_time(3, || {
            drive_store(Arc::new(WaitFreeRequestStore::new()), THREADS, load)
        });
        println!(
            "{:>7} | {:>9} {:>11.4} {:>11.4} {:>7.2}x",
            n,
            load,
            secs(before),
            secs(after),
            secs(before) / secs(after).max(1e-12)
        );
    }
    println!("\nShape targets: monotone-decreasing time with node count; mutex > wait-free");
    println!("with a 2.3–4.4x gap on contended (multi-core) hardware. The measured table");
    println!("reflects whatever parallelism this host actually has.");

    // ---- scheduler timestep breakdown -------------------------------------
    // Per-step ExecStats from a real multi-rank run under the persistent
    // executor: graph compile is paid once (step 0), later steps reuse the
    // cached graph, and idle workers park on the work signal instead of
    // spinning (idle time + park counts below).
    println!("\n[per-timestep scheduler stats: 2 ranks x 4 threads, persistent executor, GPU trace]");
    let small = Arc::new(
        Grid::builder()
            .fine_cells(IntVector::splat(16))
            .num_levels(1)
            .fine_patch_size(IntVector::splat(8))
            .build(),
    );
    let pipeline = RmcrtPipeline {
        params: RmcrtParams {
            nrays: 2,
            threshold: 1e-3,
            ..Default::default()
        },
        halo: 1,
        problem: BurnsChriston::default(),
    };
    let result = run_world(
        Arc::clone(&small),
        Arc::new(single_level_decls(&small, pipeline, true)),
        WorldConfig {
            nranks: 2,
            nthreads: 4,
            timesteps: 4,
            gpu_capacity: Some(1 << 30),
            ..Default::default()
        },
    );
    for (ts, s) in result.ranks[0].stats.iter().enumerate() {
        println!("-- rank 0, timestep {ts} --");
        print!("{}", s.summary());
    }
    let totals = result.ranks[0].gpu.as_ref().unwrap().device().counters();
    println!(
        "rank 0 device totals: {} kernels | H2D {} B | D2H {} B | peak {} B",
        totals.kernels, totals.h2d_bytes, totals.d2h_bytes, totals.peak
    );
    println!("graph compile should be non-zero only at timestep 0 (cached thereafter).");
}
