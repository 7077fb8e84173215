//! E5 — §IV-B ablation: heap fragmentation under the RMCRT allocation
//! pattern, across allocator policies.
//!
//! Replays a deterministic trace of the paper's pattern — persistent small
//! allocations mixed with transient large MPI buffers / grid variables,
//! some surviving a few timesteps — against four placement policies and
//! reports footprint and fragmentation, then prices one allocate + free
//! round trip through the real §IV-B allocators against the system heap.
//!
//! ```text
//! cargo run -p rmcrt-bench --release --bin frag_ablation
//! ```

use std::hint::black_box;
use std::time::Instant;
use uintah::mem::fragsim::{replay, rmcrt_trace, Policy};
use uintah::mem::{BlockPool, PageArena, SizeClassAllocator};

/// ns per call of `alloc_free` (one allocation, dropped at once).
fn round_trip_ns(mut alloc_free: impl FnMut(usize)) -> f64 {
    const OPS: usize = 1_000_000;
    let t0 = Instant::now();
    (0..OPS).for_each(&mut alloc_free);
    t0.elapsed().as_secs_f64() * 1e9 / OPS as f64
}

fn main() {
    println!("Heap-fragmentation ablation — RMCRT-like allocation trace");
    println!("(per timestep: 8 persistent smalls, 1 persistent mid, 16 transient larges,");
    println!(" every 5th large survives 3 steps — the old-DW retention pattern)\n");

    for steps in [10usize, 30, 60, 120] {
        let ops = rmcrt_trace(steps, 8, 16, 42);
        println!("after {steps} timesteps:");
        println!(
            "  {:<16} {:>14} {:>14} {:>12} {:>7}",
            "policy", "footprint", "live bytes", "waste", "frag"
        );
        for policy in [
            Policy::FirstFit,
            Policy::BestFit,
            Policy::SizeClass,
            Policy::ArenaSegregated,
        ] {
            let r = replay(policy, &ops);
            println!(
                "  {:<16} {:>12} B {:>12} B {:>10.1}x {:>6.1}%",
                format!("{policy:?}"),
                r.final_footprint,
                r.live_bytes,
                r.final_footprint as f64 / r.live_bytes.max(1) as f64,
                r.fragmentation * 100.0
            );
        }
        println!();
    }
    println!("Shape targets (paper §IV-B): the plain heap and size-class policies retain");
    println!("a footprint that grows with run length and dwarfs live bytes (the 'leak');");
    println!("segregating large transients into the page arena holds footprint ≈ live.");

    let pool = BlockPool::new(256, PageArena::new());
    let sized = SizeClassAllocator::new(PageArena::new());
    println!("\nallocate + free round trip, single thread (ns/op):");
    println!("  block pool, 256 B       {:>8.1}", round_trip_ns(|_| drop(black_box(pool.allocate()))));
    println!(
        "  size class, 16..4016 B  {:>8.1}",
        round_trip_ns(|i| drop(black_box(sized.allocate(16 + (i * 97) % 4000))))
    );
    println!("  system heap, 256 B      {:>8.1}", round_trip_ns(|_| drop(black_box(vec![0u8; 256]))));
}
