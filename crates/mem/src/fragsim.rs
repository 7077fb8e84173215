//! Deterministic heap-fragmentation simulator (experiment E5).
//!
//! §IV-B: "Persistent small allocations mixed with transient large
//! allocations fragmented the heap such that it grew continually, acting as
//! though a significant memory leak still existed." tcmalloc reduced but did
//! not eliminate the growth; segregating large transients into the mmap
//! arena did. This module reproduces that behaviour quantitatively: a heap
//! model with a movable break (`sbrk`-style), a coalescing free list, and
//! four placement policies, replayed against an RMCRT-like allocation trace.

use std::collections::BTreeMap;

/// Placement policy the simulated process uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Policy {
    /// Naive heap: first fit at the lowest address (glibc-like worst case).
    FirstFit,
    /// Best fit: smallest free block that fits.
    BestFit,
    /// tcmalloc-like: sizes rounded to power-of-two classes, then first fit.
    /// Rounding lets freed blocks be reused by different call sites, but
    /// large transients still interleave with persistent smalls.
    SizeClass,
    /// The paper's fix: allocations of at least `HeapSim::ARENA_THRESHOLD`
    /// bytes bypass the heap into a page arena that returns memory eagerly;
    /// smaller requests use size classes.
    ArenaSegregated,
}

/// Handle to a live simulated allocation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct AllocId(u64);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum RegionKind {
    /// The main fragmenting heap (movable break).
    Heap,
    /// A segregated small-object region (tcmalloc-style spans; the pool
    /// allocator in the real implementation).
    Small,
    /// Mapped pages, returned eagerly on free.
    Mapped,
}

#[derive(Clone, Copy, Debug)]
struct Placement {
    addr: u64,
    size: u64,
    region: RegionKind,
}

/// One sbrk-style region with a coalescing free list.
#[derive(Debug, Default)]
struct BrkRegion {
    free: BTreeMap<u64, u64>,
    brk: u64,
    peak_brk: u64,
}

impl BrkRegion {
    fn place(&mut self, size: u64, best_fit: bool) -> u64 {
        let found = if best_fit {
            self.free
                .iter()
                .filter(|&(_, &s)| s >= size)
                .min_by_key(|&(_, &s)| s)
                .map(|(&a, &s)| (a, s))
        } else {
            self.free
                .iter()
                .find(|&(_, &s)| s >= size)
                .map(|(&a, &s)| (a, s))
        };
        if let Some((addr, blk)) = found {
            self.free.remove(&addr);
            if blk > size {
                self.free.insert(addr + size, blk - size);
            }
            addr
        } else {
            let addr = self.brk;
            self.brk += size;
            self.peak_brk = self.peak_brk.max(self.brk);
            addr
        }
    }

    fn release(&mut self, mut addr: u64, mut size: u64) {
        if let Some((&prev_a, &prev_s)) = self.free.range(..addr).next_back() {
            if prev_a + prev_s == addr {
                self.free.remove(&prev_a);
                addr = prev_a;
                size += prev_s;
            }
        }
        if let Some(&next_s) = self.free.get(&(addr + size)) {
            self.free.remove(&(addr + size));
            size += next_s;
        }
        self.free.insert(addr, size);
    }
}

/// A simulated process heap.
#[derive(Debug)]
pub struct HeapSim {
    policy: Policy,
    heap: BrkRegion,
    small: BrkRegion,
    live: BTreeMap<u64, Placement>, // keyed by AllocId.0
    next_id: u64,
    live_bytes: u64,
    /// Bytes currently in the mapped (arena) region.
    mapped_bytes: u64,
    peak_mapped: u64,
}

impl HeapSim {
    /// Allocations >= 64 KiB are "large" (the paper's MPI buffers and grid
    /// variables are MiB-scale; its pools cover the small end).
    pub(crate) const ARENA_THRESHOLD: u64 = 64 * 1024;

    pub fn new(policy: Policy) -> Self {
        Self {
            policy,
            heap: BrkRegion::default(),
            small: BrkRegion::default(),
            live: BTreeMap::new(),
            next_id: 0,
            live_bytes: 0,
            mapped_bytes: 0,
            peak_mapped: 0,
        }
    }

    fn class_round(size: u64) -> u64 {
        if size <= 16 {
            16
        } else if size <= 4096 {
            size.next_power_of_two()
        } else {
            // Page-granular above the small classes.
            size.next_multiple_of(4096)
        }
    }

    /// Simulate an allocation; returns its handle.
    pub fn alloc(&mut self, size: u64) -> AllocId {
        assert!(size > 0, "zero-size simulated allocation");
        let small_cutoff = 4096;
        let (eff_size, region) = match self.policy {
            // Naive heap: everything shares one address space.
            Policy::FirstFit | Policy::BestFit => (size, RegionKind::Heap),
            // tcmalloc-like: smalls live in segregated spans; larges are
            // page-rounded spans that still churn the main page heap, so
            // persistent mid-size allocations keep pinning it.
            Policy::SizeClass => {
                if size <= small_cutoff {
                    (Self::class_round(size), RegionKind::Small)
                } else {
                    (size.next_multiple_of(4096), RegionKind::Heap)
                }
            }
            // The paper's fix: larges bypass the heap entirely.
            Policy::ArenaSegregated => {
                if size >= Self::ARENA_THRESHOLD {
                    (size.next_multiple_of(4096), RegionKind::Mapped)
                } else if size <= small_cutoff {
                    (Self::class_round(size), RegionKind::Small)
                } else {
                    (size.next_multiple_of(4096), RegionKind::Heap)
                }
            }
        };
        let best_fit = self.policy == Policy::BestFit;
        let placement = match region {
            RegionKind::Mapped => {
                self.mapped_bytes += eff_size;
                self.peak_mapped = self.peak_mapped.max(self.mapped_bytes);
                Placement {
                    addr: u64::MAX,
                    size: eff_size,
                    region,
                }
            }
            RegionKind::Heap => Placement {
                addr: self.heap.place(eff_size, best_fit),
                size: eff_size,
                region,
            },
            RegionKind::Small => Placement {
                addr: self.small.place(eff_size, false),
                size: eff_size,
                region,
            },
        };
        self.live_bytes += eff_size;
        let id = AllocId(self.next_id);
        self.next_id += 1;
        self.live.insert(id.0, placement);
        id
    }

    /// Simulate freeing `id`.
    pub fn free(&mut self, id: AllocId) {
        let p = self.live.remove(&id.0).expect("double free in simulation");
        self.live_bytes -= p.size;
        match p.region {
            RegionKind::Mapped => self.mapped_bytes -= p.size, // pages returned eagerly
            RegionKind::Heap => self.heap.release(p.addr, p.size),
            RegionKind::Small => self.small.release(p.addr, p.size),
        }
    }

    /// Current process footprint: heap break + small region + mapped bytes.
    pub fn footprint(&self) -> u64 {
        self.heap.brk + self.small.brk + self.mapped_bytes
    }

    /// Peak footprint over the run.
    pub(crate) fn peak_footprint(&self) -> u64 {
        self.heap.peak_brk + self.small.peak_brk + self.peak_mapped
    }

    /// Main-heap size (the part that fragments).
    pub(crate) fn heap_bytes(&self) -> u64 {
        self.heap.brk
    }

    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// External fragmentation of the main heap: wasted fraction of the
    /// break. Mapped memory is excluded (it is returned eagerly).
    pub(crate) fn fragmentation(&self) -> f64 {
        let heap_live: u64 = self
            .live
            .values()
            .filter(|p| p.region == RegionKind::Heap)
            .map(|p| p.size)
            .sum();
        if self.heap.brk == 0 {
            0.0
        } else {
            1.0 - heap_live as f64 / self.heap.brk as f64
        }
    }
}

/// One operation of an allocation trace.
#[derive(Clone, Copy, Debug)]
pub enum TraceOp {
    /// Allocate `size` bytes and remember it under `slot`.
    Alloc { slot: u32, size: u64 },
    /// Free the allocation remembered under `slot`.
    Free { slot: u32 },
}

/// Build an RMCRT-like trace: each timestep allocates a few *persistent*
/// small objects (framework state that accumulates) and a burst of *large
/// transient* buffers (MPI messages / grid variables) that are freed by the
/// end of the step. `seed` makes the trace deterministic.
pub fn rmcrt_trace(timesteps: usize, small_per_step: usize, large_per_step: usize, seed: u64) -> Vec<TraceOp> {
    let mut ops = Vec::new();
    let mut slot = 0u32;
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
    let mut next = |lo: u64, hi: u64| {
        // xorshift64* — deterministic, no rand dependency in the library.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let r = state.wrapping_mul(0x2545F4914F6CDD1D);
        lo + r % (hi - lo)
    };
    // Larges that survive past their step (data-warehouse variables kept for
    // the next timestep's "old DW"): (slot, step at which they are freed).
    let mut deferred: Vec<(u32, usize)> = Vec::new();
    for step in 0..timesteps {
        // Free deferred larges whose time has come.
        let mut i = 0;
        while i < deferred.len() {
            if deferred[i].1 <= step {
                ops.push(TraceOp::Free {
                    slot: deferred.swap_remove(i).0,
                });
            } else {
                i += 1;
            }
        }
        // Persistent smalls: never freed (e.g. per-patch metadata growth).
        for _ in 0..small_per_step {
            ops.push(TraceOp::Alloc {
                slot,
                size: next(24, 512),
            });
            slot += 1;
        }
        // One persistent mid-size allocation per step (pins the large heap
        // even when smalls are segregated).
        ops.push(TraceOp::Alloc {
            slot,
            size: next(8 * 1024, 48 * 1024),
        });
        slot += 1;
        // Transient larges with varying sizes so freed holes rarely match
        // later requests exactly. Most die within the step; every 5th
        // survives a few steps (old-DW retention).
        let first_large = slot;
        for k in 0..large_per_step {
            ops.push(TraceOp::Alloc {
                slot,
                size: next(128 * 1024, 4 * 1024 * 1024),
            });
            if k % 5 == 4 {
                deferred.push((slot, step + 3));
            }
            slot += 1;
        }
        for s in first_large..slot {
            if !deferred.iter().any(|&(d, _)| d == s) {
                ops.push(TraceOp::Free { slot: s });
            }
        }
    }
    // Drain what is still deferred at the end of the run.
    for (s, _) in deferred {
        ops.push(TraceOp::Free { slot: s });
    }
    ops
}

/// Result of replaying a trace against a policy.
#[derive(Clone, Copy, Debug)]
pub struct FragReport {
    pub policy: Policy,
    pub final_footprint: u64,
    pub peak_footprint: u64,
    pub final_heap: u64,
    pub live_bytes: u64,
    pub fragmentation: f64,
}

/// Replay `ops` on a fresh heap with `policy`.
pub fn replay(policy: Policy, ops: &[TraceOp]) -> FragReport {
    let mut sim = HeapSim::new(policy);
    let mut slots: std::collections::HashMap<u32, AllocId> = std::collections::HashMap::new();
    for op in ops {
        match *op {
            TraceOp::Alloc { slot, size } => {
                slots.insert(slot, sim.alloc(size));
            }
            TraceOp::Free { slot } => {
                let id = slots.remove(&slot).expect("trace frees unknown slot");
                sim.free(id);
            }
        }
    }
    FragReport {
        policy,
        final_footprint: sim.footprint(),
        peak_footprint: sim.peak_footprint(),
        final_heap: sim.heap_bytes(),
        live_bytes: sim.live_bytes(),
        fragmentation: sim.fragmentation(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_reuse_no_growth() {
        let mut sim = HeapSim::new(Policy::FirstFit);
        let a = sim.alloc(100);
        sim.free(a);
        let _b = sim.alloc(100);
        assert_eq!(sim.heap_bytes(), 100, "freed block must be reused");
    }

    #[test]
    fn coalescing_merges_neighbours() {
        let mut sim = HeapSim::new(Policy::FirstFit);
        let a = sim.alloc(100);
        let b = sim.alloc(100);
        let c = sim.alloc(100);
        sim.free(a);
        sim.free(c);
        sim.free(b); // middle free must merge all three
        let _d = sim.alloc(300);
        assert_eq!(sim.heap_bytes(), 300);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_detected() {
        let mut sim = HeapSim::new(Policy::BestFit);
        let a = sim.alloc(10);
        sim.free(a);
        sim.free(a);
    }

    #[test]
    fn pinning_pattern_fragments_first_fit() {
        // Alternate persistent small / transient large: the small pins the
        // address space so the next, larger transient cannot reuse the hole.
        let mut sim = HeapSim::new(Policy::FirstFit);
        let mut size = 100_000u64;
        for _ in 0..50 {
            let big = sim.alloc(size);
            let _small = sim.alloc(32); // persistent, never freed
            sim.free(big);
            size += 4096; // grows, so old holes never fit
        }
        assert!(
            sim.fragmentation() > 0.9,
            "expected heavy fragmentation, got {}",
            sim.fragmentation()
        );
    }

    #[test]
    fn arena_policy_keeps_heap_compact() {
        let ops = rmcrt_trace(30, 8, 16, 42);
        let first = replay(Policy::FirstFit, &ops);
        let arena = replay(Policy::ArenaSegregated, &ops);
        // Same trace, same live bytes at the end.
        assert_eq!(first.live_bytes > 0, arena.live_bytes > 0);
        // The paper's fix: final footprint far below the fragmenting heap.
        assert!(
            arena.final_footprint * 2 < first.final_footprint,
            "arena {} vs first-fit {}",
            arena.final_footprint,
            first.final_footprint
        );
        assert!(arena.fragmentation < 0.5);
    }

    #[test]
    fn size_class_still_fragments_arena_does_not() {
        let ops = rmcrt_trace(30, 8, 16, 7);
        let class = replay(Policy::SizeClass, &ops);
        let arena = replay(Policy::ArenaSegregated, &ops);
        // Mirrors the paper: tcmalloc-style size classes still leave the
        // page heap holding far more than is live ("still resulted in
        // unacceptable fragmentation"); segregating large transients into
        // the arena fixes it.
        assert!(
            class.final_footprint > 10 * class.live_bytes,
            "size-class should retain a leak-like footprint: {} vs live {}",
            class.final_footprint,
            class.live_bytes
        );
        assert!(arena.final_footprint < 2 * arena.live_bytes);
        assert!(class.fragmentation > 0.5);
        assert!(arena.fragmentation < 0.5);
    }

    #[test]
    fn heap_retention_grows_with_run_length_arena_does_not() {
        // The paper observed the heap "grew continually, acting as though a
        // significant memory leak still existed". Footprint after a long run
        // should exceed the short run's under first-fit, while the arena
        // policy stays proportional to live bytes.
        let short = rmcrt_trace(10, 8, 16, 3);
        let long = rmcrt_trace(60, 8, 16, 3);
        let ff_s = replay(Policy::FirstFit, &short);
        let ff_l = replay(Policy::FirstFit, &long);
        let ar_s = replay(Policy::ArenaSegregated, &short);
        let ar_l = replay(Policy::ArenaSegregated, &long);
        assert!(ff_l.final_footprint > ff_s.final_footprint);
        // Arena footprint tracks live bytes (which grow only by the small
        // persistents), staying within a small factor.
        assert!(ar_l.final_footprint < 2 * ar_l.live_bytes);
        assert!(ar_s.final_footprint < 2 * ar_s.live_bytes);
    }

    #[test]
    fn trace_is_deterministic() {
        let a = rmcrt_trace(5, 3, 4, 99);
        let b = rmcrt_trace(5, 3, 4, 99);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            match (x, y) {
                (TraceOp::Alloc { slot: s1, size: z1 }, TraceOp::Alloc { slot: s2, size: z2 }) => {
                    assert_eq!((s1, z1), (s2, z2));
                }
                (TraceOp::Free { slot: s1 }, TraceOp::Free { slot: s2 }) => assert_eq!(s1, s2),
                _ => panic!("trace mismatch"),
            }
        }
    }

    #[test]
    fn footprint_includes_mapped() {
        let mut sim = HeapSim::new(Policy::ArenaSegregated);
        let big = sim.alloc(1 << 20);
        assert_eq!(sim.heap_bytes(), 0, "large bypasses heap");
        assert!(sim.footprint() >= 1 << 20);
        sim.free(big);
        assert_eq!(sim.footprint(), 0, "mapped pages returned eagerly");
    }
}
