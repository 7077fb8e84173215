//! Quickstart: solve the Burns & Christon benchmark with multi-level RMCRT
//! on a laptop-scale 2-level grid, distributed over 4 simulated ranks with
//! 2 worker threads each, and print a centreline profile of ∇·q.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;
use uintah::prelude::*;

fn main() {
    // The paper's benchmark, scaled down: 2 levels, refinement ratio 4,
    // fine 32³ / coarse 8³, 8³ patches.
    let grid = Arc::new(BurnsChriston::small_grid(32, 8));
    println!(
        "grid: {} levels, fine {}³, coarse {}³, {} patches",
        grid.num_levels(),
        grid.fine_level().cell_region().extent().x,
        grid.coarsest_level().cell_region().extent().x,
        grid.num_patches()
    );

    let pipeline = RmcrtPipeline {
        params: RmcrtParams {
            nrays: 64,
            threshold: 1e-4,
            ..Default::default()
        },
        halo: 4,
        problem: BurnsChriston::default(),
    };
    let decls = Arc::new(multilevel_decls(&grid, pipeline, false));

    let cfg = WorldConfig {
        nranks: 4,
        nthreads: 2,
        store: StoreKind::WaitFree,
        ..Default::default()
    };
    let t0 = std::time::Instant::now();
    let result = run_world(Arc::clone(&grid), decls, cfg);
    println!(
        "solved ∇·q on {} fine cells across 4 ranks in {:.2?} ({} messages, {} bytes)",
        grid.fine_level().num_cells(),
        t0.elapsed(),
        result.total_messages(),
        result.total_bytes()
    );

    // Gather every rank's patches into one fine-level field and print
    // divQ along the x centreline (y = z = mid).
    let divq = result.fine_field(&grid, DIVQ);
    let nx = grid.fine_level().cell_region().extent().x;
    let mid = nx / 2;
    println!("\n  x      divQ (W/m³)");
    for x in (0..nx).step_by(2) {
        let xc = (x as f64 + 0.5) / nx as f64;
        println!("  {:5.3}  {:+.4}", xc, divq[IntVector::new(x, mid, mid)]);
    }
    println!("\n(positive = net emission: the hot medium loses heat to the cold walls,");
    println!(" strongest at the domain centre where κ peaks — Burns & Christon's shape)");

    // Dump a mid-plane image of the same field.
    let out = std::env::temp_dir().join("rmcrt_quickstart_divq.ppm");
    let (lo, hi) = uintah::viz::write_slice_ppm(&out, &divq, 2, mid).expect("write slice");
    println!(
        "\nwrote mid-plane ∇·q image to {} (scale {:.3}..{:.3} W/m³)",
        out.display(),
        lo,
        hi
    );
}
