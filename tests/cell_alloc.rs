//! A region solve allocates per solve, not per cell: the packet columns and
//! the Latin-hypercube stratum permutation live in per-thread scratch that
//! is sized by the first cells and reused by the rest (DESIGN §9 "Scratch
//! reuse"). This binary counts the calling thread's heap allocations, so it
//! holds the one test that needs the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use uintah::prelude::*;
use uintah::rmcrt::solver::div_q_for_cell_with;
use uintah::rmcrt::{PacketTracer, RaySampling, TraceOptions};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` with no destructor, so touching it neither allocates
// nor runs after thread-local teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Latin-hypercube sampling used to collect a fresh permutation `Vec` for
/// every cell, and for every batch of an Adaptive cell. After one pass
/// over the region has sized the scratch, a second pass allocates nothing,
/// in either ray-count mode, and returns the same bits.
#[test]
fn latin_hypercube_solve_allocates_nothing_per_cell() {
    let props = LevelProps::uniform(Region::cube(6), Vector::splat(1.0 / 6.0), 2.0, 0.9);
    let stack = [TraceLevel {
        props: &props,
        roi: props.region,
    }];
    let budgets = [
        RayCountMode::Fixed(24),
        RayCountMode::Adaptive {
            min: 4,
            max: 64,
            rel_var_target: 0.01,
        },
    ];
    for ray_count in budgets {
        let params = RmcrtParams {
            sampling: RaySampling::LatinHypercube,
            ray_count: Some(ray_count),
            threshold: 1e-3,
            ..Default::default()
        };
        let tracer = PacketTracer::new(
            &stack,
            TraceOptions {
                threshold: params.threshold,
                max_reflections: 0,
            },
        );
        let pass = || {
            let (mut bits, mut rays) = (0u64, 0u64);
            for c in props.region.cells() {
                let (dq, march) = div_q_for_cell_with(&tracer, c, &params);
                bits = bits.wrapping_add(dq.to_bits());
                rays += march.rays;
            }
            (bits, rays)
        };
        let first = pass();
        let before = ALLOCATIONS.with(Cell::get);
        let second = pass();
        let allocated = ALLOCATIONS.with(Cell::get) - before;
        assert_eq!(allocated, 0, "{ray_count:?}: {allocated} allocations over 216 warm cells");
        assert_eq!(first, second, "{ray_count:?}");
        if let RayCountMode::Adaptive { min, .. } = ray_count {
            let one_batch_each = props.region.volume() as u64 * min as u64;
            assert!(first.1 > one_batch_each, "cells must run several batches: {} rays", first.1);
        }
    }
}
