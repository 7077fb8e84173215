//! A region solve allocates per solve, not per cell, and its scratch is
//! bounded by one packet of `RUN_RAYS` rays whatever the ray budget: the
//! packet columns, the run's per-cell sums and the Latin-hypercube stratum
//! permutation live in per-thread scratch that is sized once and reused by
//! every later run (DESIGN §9 "Runs", "Scratch reuse"). This binary counts
//! the calling thread's heap allocations and their largest size, so it
//! holds the tests that need the counter.

#[path = "support/per_cell.rs"]
mod per_cell;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use uintah::prelude::*;
use uintah::rmcrt::solver::{div_q_for_cell_with, RUN_RAYS};
use uintah::rmcrt::{PacketTracer, RaySampling, TraceOptions};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn count(size: usize) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    LARGEST.with(|l| l.set(l.get().max(size)));
}

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are const-initialised
// thread-local `Cell`s with no destructor, so touching it neither allocates
// nor runs after thread-local teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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
                ..Default::default()
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

/// A packet used to be sized by a cell's whole budget, so a config with
/// `nrays = 600000000` passed validation and then aborted the process on a
/// 4.8 GB allocation — the server too, with every tenant's job. A batch
/// now carries on packet after packet: a one-cell solve at `3R + 1` Fixed
/// rays and up to `4R` Adaptive rays (its 512-ray batch spans two packets)
/// allocates nothing larger than one `R`-ray column, on a fresh thread
/// whose scratch is created inside the solve, and returns the per-cell
/// loop's bits.
#[test]
fn large_ray_budgets_allocate_no_more_than_one_packet_column() {
    let props = LevelProps::uniform(Region::cube(2), Vector::splat(0.5), 2.0, 0.9);
    let stack = [TraceLevel {
        props: &props,
        roi: props.region,
    }];
    let cell = Region::new(IntVector::splat(1), IntVector::splat(2));
    let column = RUN_RAYS as usize * std::mem::size_of::<f64>();
    let budgets = [
        RayCountMode::Fixed(3 * RUN_RAYS + 1),
        RayCountMode::Adaptive {
            min: 4,
            max: 4 * RUN_RAYS,
            rel_var_target: 0.0,
        },
    ];
    for ray_count in budgets {
        let params = RmcrtParams {
            ray_count: Some(ray_count),
            ..Default::default()
        };
        let (want, want_march) = per_cell::solve_region(&stack, cell, &params);
        let (got, stats, largest) = std::thread::scope(|s| {
            s.spawn(|| {
                LARGEST.with(|l| l.set(0));
                let (got, stats) = solve_region_with_stats(&stack, cell, &params, &ExecSpace::Serial);
                (got, stats, LARGEST.with(Cell::get))
            })
            .join()
            .expect("solve thread")
        });
        assert!(largest <= column, "{ray_count:?}: a {largest}-byte allocation, one column is {column}");
        assert_eq!(got.as_slice()[0].to_bits(), want.as_slice()[0].to_bits(), "{ray_count:?}");
        assert_eq!(stats.march, want_march, "{ray_count:?}");
        let rays = match ray_count {
            RayCountMode::Fixed(n) => n,
            RayCountMode::Adaptive { max, .. } => max,
        };
        assert_eq!(stats.total_rays, rays as u64, "{ray_count:?}: the whole budget is traced");
    }
}

/// Once a thread's scratch exists, a region solve allocates what it
/// returns and what its tracer prepares, and nothing per run or per cell,
/// in either ray-count mode.
#[test]
fn warm_region_solve_allocates_only_its_tracer_and_output() {
    let props = LevelProps::uniform(Region::cube(6), Vector::splat(1.0 / 6.0), 2.0, 0.9);
    let stack = [TraceLevel {
        props: &props,
        roi: props.region,
    }];
    let region = Region::new(IntVector::splat(1), IntVector::splat(5));
    let opts = TraceOptions {
        threshold: 0.05,
        ..Default::default()
    };
    let before = ALLOCATIONS.with(Cell::get);
    drop(PacketTracer::new(&stack, opts));
    let tracer_allocations = ALLOCATIONS.with(Cell::get) - before;
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
            ray_count: Some(ray_count),
            ..Default::default()
        };
        let first = solve_region(&stack, region, &params);
        let before = ALLOCATIONS.with(Cell::get);
        let second = solve_region(&stack, region, &params);
        let allocated = ALLOCATIONS.with(Cell::get) - before;
        assert_eq!(
            allocated,
            tracer_allocations + 1,
            "{ray_count:?}: {allocated} allocations, the tracer makes {tracer_allocations} and the output 1"
        );
        assert_eq!(first, second, "{ray_count:?}");
    }
}
