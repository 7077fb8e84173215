//! E8 — §V observation: RMCRT patch-solve throughput vs patch size (bigger
//! patches give the GPU more work per kernel; on the host the analogous
//! effect is cache/locality).
//!
//! ```text
//! cargo run -p rmcrt-bench --release --bin patch_throughput
//! ```

use rmcrt_bench::{median_time, secs};
use std::time::Instant;
use uintah::prelude::*;

fn main() {
    let grid = BurnsChriston::small_grid(32, 8);
    let props = BurnsChriston::default().props_for_level(grid.fine_level());
    let stack = [TraceLevel {
        props: &props,
        roi: props.region,
    }];
    let params = RmcrtParams {
        nrays: 8,
        threshold: 1e-3,
        ..Default::default()
    };
    println!("Patch-solve throughput vs patch size — 32³ B&C, {} rays/cell, serial, median of 10", params.nrays);
    println!("{:>6} | {:>10} | {:>10}", "patch", "solve (ms)", "Mrays/s");
    for p in [4i32, 8, 16] {
        let region = Region::cube(p);
        let t = median_time(10, || {
            let t0 = Instant::now();
            std::hint::black_box(solve_region(&stack, region, &params));
            t0.elapsed()
        });
        let rays = (region.volume() * params.nrays as usize) as f64;
        println!("{:>5}³ | {:>10.3} | {:>10.2}", p, secs(t) * 1e3, rays / secs(t) / 1e6);
    }
}
