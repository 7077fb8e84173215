//! Device-memory sub-allocator: a first-fit/best-fit free list.
//!
//! The paper's K20X has 6 GB and the GPU level database exists to fit the
//! AMR hierarchy into that budget; what it does *not* give you is a real
//! allocator under the budget — a bytes-only meter cannot refuse a request
//! that fits in total free bytes but not in any contiguous hole, cannot
//! detect a double-free, and cannot tell eviction policy which block to
//! give back. [`SubAllocator`] is that allocator: a coalescing free list
//! over a fixed capacity, in the style of GPU buffer sub-allocation
//! (`buffer_alloc`/`atlas_alloc` strategies), managing *offsets only* — the
//! backing bytes live wherever the caller keeps them (for the simulated
//! [`GpuDevice`](../../uintah_gpu/struct.GpuDevice.html), in host `Vec`s).
//!
//! It keeps cheap counters ([`SubAllocStats`], mirroring
//! [`AllocTracker`](crate::AllocTracker)'s live/peak/total discipline)
//! apart from structural state, and rounds every request up to an
//! alignment the caller picks (`align = 1` keeps the meter bit-exact for
//! tests; 256 matches `cudaMalloc`). An optional two-ended size-class split
//! ([`SubAllocator::with_small_class`]) stacks small blocks top-down so
//! pinned level replicas cannot shred the contiguous bottom region that
//! large patch windows need — without it, a capacity only a few times the
//! largest request OOMs on fragmentation long before it runs out of bytes.
//!
//! Invariants (pinned by proptests in `tests/properties.rs`):
//! * live blocks are pairwise disjoint and inside `[0, capacity)`;
//! * the free list is offset-sorted, pairwise disjoint, and *coalesced*
//!   (no two adjacent free blocks);
//! * `used == Σ live block sizes` and `used + Σ free == capacity`;
//! * freeing an unknown offset never corrupts state (counted, rejected).

use std::collections::BTreeMap;

/// Which free block a request is carved from.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum FitPolicy {
    /// Lowest-offset block that fits (cheap, good enough when eviction
    /// keeps holes coarse).
    #[default]
    FirstFit,
    /// Smallest block that fits, ties to the lowest offset (slower scans,
    /// less fragmentation under mixed sizes).
    BestFit,
}

/// Why an allocation was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubAllocError {
    /// Not enough free bytes in total — the request exceeds what eviction
    /// of everything could ever recover.
    Capacity {
        requested: u64,
        used: u64,
        capacity: u64,
    },
    /// Enough free bytes in total, but no contiguous hole fits: the
    /// fragmentation case a bytes-only meter cannot even express.
    Fragmentation {
        requested: u64,
        free_bytes: u64,
        largest_free: u64,
    },
}

impl std::fmt::Display for SubAllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubAllocError::Capacity {
                requested,
                used,
                capacity,
            } => write!(f, "capacity: requested {requested} B with {used}/{capacity} B in use"),
            SubAllocError::Fragmentation {
                requested,
                free_bytes,
                largest_free,
            } => write!(
                f,
                "fragmentation: requested {requested} B, {free_bytes} B free but largest hole {largest_free} B"
            ),
        }
    }
}

impl std::error::Error for SubAllocError {}

/// Cheap allocator counters (monotonic; snapshot-friendly).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SubAllocStats {
    /// Successful allocations.
    pub allocs: u64,
    /// Successful frees.
    pub frees: u64,
    /// Frees that merged the returned block with at least one neighbour.
    pub coalesces: u64,
    /// Requests refused for lack of total free bytes.
    pub capacity_failures: u64,
    /// Requests refused by fragmentation (free bytes sufficed, no hole).
    pub frag_failures: u64,
    /// Frees of an offset with no live block — double-frees and stray
    /// releases, rejected instead of corrupting the meter.
    pub unknown_frees: u64,
}

/// A coalescing free-list sub-allocator over `[0, capacity)`.
pub struct SubAllocator {
    capacity: u64,
    align: u64,
    policy: FitPolicy,
    /// Two-ended size-class split: requests of rounded size `<= small_class`
    /// take the *highest*-offset fitting hole and carve from its *tail*,
    /// so small long-lived blocks (level replicas, scalar outputs) cluster
    /// at the top of the arena instead of shredding the bottom region that
    /// large patch windows need contiguous. `0` disables the split.
    small_class: u64,
    /// `(offset, len)` free extents: offset-sorted, disjoint, coalesced.
    free: Vec<(u64, u64)>,
    /// Live blocks by offset → rounded size.
    live: BTreeMap<u64, u64>,
    used: u64,
    peak: u64,
    stats: SubAllocStats,
}

impl std::fmt::Debug for SubAllocator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubAllocator")
            .field("capacity", &self.capacity)
            .field("used", &self.used)
            .field("live_blocks", &self.live.len())
            .field("free_blocks", &self.free.len())
            .finish()
    }
}

impl SubAllocator {
    /// An empty allocator over `capacity` bytes, carving blocks rounded up
    /// to `align` under `policy`.
    pub fn new(capacity: u64, align: u64, policy: FitPolicy) -> Self {
        Self::with_small_class(capacity, align, policy, 0)
    }

    /// Like [`SubAllocator::new`], with two-ended size-class segregation:
    /// requests whose rounded size is `<= small_class` bytes allocate
    /// top-down (tail of the highest fitting hole), everything else
    /// bottom-up. Keeps small pinned blocks from fragmenting the
    /// contiguous runs that large patch windows need; `small_class = 0`
    /// disables the split.
    pub fn with_small_class(capacity: u64, align: u64, policy: FitPolicy, small_class: u64) -> Self {
        assert!(align >= 1, "alignment must be at least 1");
        let free = if capacity > 0 { vec![(0, capacity)] } else { Vec::new() };
        Self {
            capacity,
            align,
            policy,
            small_class,
            free,
            live: BTreeMap::new(),
            used: 0,
            peak: 0,
            stats: SubAllocStats::default(),
        }
    }

    #[inline]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes in live blocks (rounded sizes).
    #[inline]
    pub fn used(&self) -> u64 {
        self.used
    }

    #[inline]
    pub(crate) fn free_bytes(&self) -> u64 {
        self.capacity - self.used
    }

    /// Number of extents on the free list (1 when fully coalesced+empty).
    #[inline]
    pub fn free_blocks(&self) -> usize {
        self.free.len()
    }

    /// Largest single free extent — the biggest request that can succeed.
    pub fn largest_free(&self) -> u64 {
        self.free.iter().map(|&(_, len)| len).max().unwrap_or(0)
    }

    #[inline]
    pub fn stats(&self) -> SubAllocStats {
        self.stats
    }

    /// Request size after alignment rounding; `None` on arithmetic
    /// overflow (a request so large the rounding itself wraps).
    fn rounded(&self, bytes: u64) -> Option<u64> {
        let b = bytes.max(1);
        let rem = b % self.align;
        if rem == 0 {
            Some(b)
        } else {
            b.checked_add(self.align - rem)
        }
    }

    /// Allocate `bytes` (rounded up to the alignment); returns the block
    /// offset. Never wraps: oversized requests — including ones whose
    /// rounding would overflow `u64` — fail with [`SubAllocError::Capacity`].
    pub fn alloc(&mut self, bytes: u64) -> Result<u64, SubAllocError> {
        let size = match self.rounded(bytes) {
            Some(s) if s <= self.capacity - self.used => s,
            _ => {
                self.stats.capacity_failures += 1;
                return Err(SubAllocError::Capacity {
                    requested: bytes,
                    used: self.used,
                    capacity: self.capacity,
                });
            }
        };
        let small = self.small_class > 0 && size <= self.small_class;
        let found = match (self.policy, small) {
            // Small class: highest-offset hole, so the carve (from the
            // tail below) stacks small blocks against the top of the arena.
            (FitPolicy::FirstFit, true) => self.free.iter().rposition(|&(_, len)| len >= size),
            (FitPolicy::FirstFit, false) => self.free.iter().position(|&(_, len)| len >= size),
            (FitPolicy::BestFit, small) => self
                .free
                .iter()
                .enumerate()
                .filter(|&(_, &(_, len))| len >= size)
                .min_by_key(|&(i, &(_, len))| (len, if small { usize::MAX - i } else { i }))
                .map(|(i, _)| i),
        };
        let Some(i) = found else {
            // Free bytes suffice (checked above) but no contiguous hole.
            self.stats.frag_failures += 1;
            return Err(SubAllocError::Fragmentation {
                requested: bytes,
                free_bytes: self.free_bytes(),
                largest_free: self.largest_free(),
            });
        };
        let (hole, len) = self.free[i];
        let offset = if small { hole + len - size } else { hole };
        if len == size {
            self.free.remove(i);
        } else if small {
            self.free[i] = (hole, len - size);
        } else {
            self.free[i] = (hole + size, len - size);
        }
        self.live.insert(offset, size);
        self.used += size;
        self.peak = self.peak.max(self.used);
        self.stats.allocs += 1;
        Ok(offset)
    }

    /// Free the block at `offset`, coalescing with adjacent free extents.
    /// Returns the rounded size given back, or `Err(())` — counted in
    /// [`SubAllocStats::unknown_frees`] — when no live block starts there
    /// (a double-free or stray release; state is untouched).
    #[allow(clippy::result_unit_err)]
    pub fn free(&mut self, offset: u64) -> Result<u64, ()> {
        let Some(size) = self.live.remove(&offset) else {
            self.stats.unknown_frees += 1;
            return Err(());
        };
        self.used -= size;
        self.stats.frees += 1;
        // Insertion point in the offset-sorted free list.
        let i = self.free.partition_point(|&(o, _)| o < offset);
        let merges_prev = i > 0 && self.free[i - 1].0 + self.free[i - 1].1 == offset;
        let merges_next = i < self.free.len() && offset + size == self.free[i].0;
        match (merges_prev, merges_next) {
            (true, true) => {
                self.free[i - 1].1 += size + self.free[i].1;
                self.free.remove(i);
                self.stats.coalesces += 1;
            }
            (true, false) => {
                self.free[i - 1].1 += size;
                self.stats.coalesces += 1;
            }
            (false, true) => {
                self.free[i] = (offset, size + self.free[i].1);
                self.stats.coalesces += 1;
            }
            (false, false) => self.free.insert(i, (offset, size)),
        }
        Ok(size)
    }

    /// Structural self-check of every free-list invariant; `Err` carries a
    /// human-readable description of the first violation. Cheap enough for
    /// tests and gate binaries, not meant for hot paths.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut cursor = 0u64;
        let mut free_total = 0u64;
        for (i, &(o, len)) in self.free.iter().enumerate() {
            if len == 0 {
                return Err(format!("free[{i}] at {o} has zero length"));
            }
            if o < cursor {
                return Err(format!("free[{i}] at {o} overlaps or disorders previous end {cursor}"));
            }
            if i > 0 && self.free[i - 1].0 + self.free[i - 1].1 == o {
                return Err(format!("free[{i}] at {o} adjacent to previous — not coalesced"));
            }
            let end = o.checked_add(len).ok_or_else(|| format!("free[{i}] overflows"))?;
            if end > self.capacity {
                return Err(format!("free[{i}] [{o}, {end}) exceeds capacity {}", self.capacity));
            }
            cursor = end;
            free_total += len;
        }
        let mut live_total = 0u64;
        let mut prev_end = 0u64;
        for (&o, &len) in &self.live {
            if o < prev_end {
                return Err(format!("live block at {o} overlaps previous end {prev_end}"));
            }
            let end = o.checked_add(len).ok_or_else(|| format!("live block at {o} overflows"))?;
            if end > self.capacity {
                return Err(format!("live block [{o}, {end}) exceeds capacity {}", self.capacity));
            }
            // Disjoint from every free extent.
            if self.free.iter().any(|&(fo, flen)| o < fo + flen && fo < end) {
                return Err(format!("live block [{o}, {end}) intersects the free list"));
            }
            prev_end = end;
            live_total += len;
        }
        if live_total != self.used {
            return Err(format!("used {} != sum of live blocks {}", self.used, live_total));
        }
        if free_total + live_total != self.capacity {
            return Err(format!(
                "free {free_total} + live {live_total} != capacity {}",
                self.capacity
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SubAllocator {
        /// High-water mark of `used`.
        fn peak(&self) -> u64 {
            self.peak
        }
    }

    #[test]
    fn alloc_free_roundtrip_coalesces_back_to_one_extent() {
        let mut a = SubAllocator::new(1024, 1, FitPolicy::FirstFit);
        let x = a.alloc(100).unwrap();
        let y = a.alloc(200).unwrap();
        let z = a.alloc(300).unwrap();
        assert_eq!(a.used(), 600);
        assert_eq!(a.peak(), 600);
        a.check_invariants().unwrap();
        // Free out of order: middle, last, first — must coalesce fully.
        assert_eq!(a.free(y).unwrap(), 200);
        assert_eq!(a.free(z).unwrap(), 300);
        assert_eq!(a.free(x).unwrap(), 100);
        assert_eq!(a.used(), 0);
        assert_eq!(a.free_blocks(), 1);
        assert_eq!(a.largest_free(), 1024);
        a.check_invariants().unwrap();
    }

    #[test]
    fn alignment_rounds_requests_up() {
        let mut a = SubAllocator::new(4096, 256, FitPolicy::FirstFit);
        a.alloc(1).unwrap();
        assert_eq!(a.used(), 256);
        a.alloc(257).unwrap();
        assert_eq!(a.used(), 256 + 512);
        a.check_invariants().unwrap();
    }

    #[test]
    fn oversized_and_overflowing_requests_fail_cleanly() {
        let mut a = SubAllocator::new(1000, 1, FitPolicy::FirstFit);
        a.alloc(600).unwrap();
        let err = a.alloc(500).unwrap_err();
        assert_eq!(
            err,
            SubAllocError::Capacity {
                requested: 500,
                used: 600,
                capacity: 1000
            }
        );
        // A request whose alignment rounding would overflow u64 must be a
        // clean capacity failure, not a wrap.
        let mut b = SubAllocator::new(1000, 256, FitPolicy::FirstFit);
        assert!(matches!(b.alloc(u64::MAX), Err(SubAllocError::Capacity { .. })));
        assert_eq!(b.stats().capacity_failures, 1);
        b.check_invariants().unwrap();
    }

    #[test]
    fn fragmentation_is_distinguished_from_capacity() {
        // Carve [A][B][C][D] then free A and C: 2×250 B free, but no
        // 400 B hole.
        let mut a = SubAllocator::new(1000, 1, FitPolicy::FirstFit);
        let blocks: Vec<u64> = (0..4).map(|_| a.alloc(250).unwrap()).collect();
        a.free(blocks[0]).unwrap();
        a.free(blocks[2]).unwrap();
        assert_eq!(a.free_bytes(), 500);
        let err = a.alloc(400).unwrap_err();
        assert_eq!(
            err,
            SubAllocError::Fragmentation {
                requested: 400,
                free_bytes: 500,
                largest_free: 250
            }
        );
        assert_eq!(a.stats().frag_failures, 1);
        // A fitting request still succeeds.
        a.alloc(250).unwrap();
        a.check_invariants().unwrap();
    }

    #[test]
    fn best_fit_picks_the_smallest_hole() {
        let mut a = SubAllocator::new(1000, 1, FitPolicy::BestFit);
        let x = a.alloc(100).unwrap(); // [0,100)
        let _y = a.alloc(300).unwrap(); // [100,400)
        let z = a.alloc(150).unwrap(); // [400,550)
        let _w = a.alloc(450).unwrap(); // [550,1000)
        a.free(x).unwrap(); // hole: 100 B at 0
        a.free(z).unwrap(); // hole: 150 B at 400
        // First fit would take the 100 B hole... which doesn't fit; a
        // 120 B request must land in the *smallest fitting* hole (150 B).
        let got = a.alloc(120).unwrap();
        assert_eq!(got, 400, "best fit lands in the 150 B hole");
        a.check_invariants().unwrap();
    }

    #[test]
    fn double_free_is_rejected_and_counted() {
        let mut a = SubAllocator::new(1000, 1, FitPolicy::FirstFit);
        let x = a.alloc(100).unwrap();
        a.free(x).unwrap();
        assert!(a.free(x).is_err(), "second free of the same offset");
        assert!(a.free(777).is_err(), "free of a never-allocated offset");
        assert_eq!(a.stats().unknown_frees, 2);
        assert_eq!(a.used(), 0, "meter untouched by rejected frees");
        a.check_invariants().unwrap();
    }

    #[test]
    fn zero_byte_requests_occupy_one_aligned_unit() {
        let mut a = SubAllocator::new(1000, 8, FitPolicy::FirstFit);
        let x = a.alloc(0).unwrap();
        assert_eq!(a.used(), 8);
        a.free(x).unwrap();
        assert_eq!(a.used(), 0);
    }

    #[test]
    fn small_class_blocks_stack_top_down_and_spare_the_bottom() {
        // 64 KiB arena, 4 KiB small class. Interleave small (pinned-style)
        // and large allocations the way staging does; without segregation
        // the small blocks land between the large ones and freeing the
        // large ones leaves no contiguous run.
        let mut a = SubAllocator::with_small_class(1 << 16, 1, FitPolicy::FirstFit, 4096);
        let s1 = a.alloc(512).unwrap();
        let l1 = a.alloc(32768).unwrap();
        let s2 = a.alloc(4096).unwrap();
        let l2 = a.alloc(16384).unwrap();
        assert_eq!(s1, (1 << 16) - 512, "first small block hugs the top");
        assert_eq!(s2, s1 - 4096, "small blocks stack downward");
        assert_eq!(l1, 0, "large blocks fill bottom-up");
        assert_eq!(l2, 32768);
        a.check_invariants().unwrap();
        // Freeing the large blocks restores one contiguous bottom run big
        // enough for a fresh 48 KiB request even with both smalls pinned.
        a.free(l1).unwrap();
        a.free(l2).unwrap();
        assert!(a.largest_free() >= 32768 + 16384);
        let l3 = a.alloc(32768 + 16384).unwrap();
        assert_eq!(l3, 0);
        a.check_invariants().unwrap();
        // Tail-carve when the small block exactly drains a hole.
        let mut b = SubAllocator::with_small_class(4096, 1, FitPolicy::BestFit, 4096);
        let x = b.alloc(4096).unwrap();
        assert_eq!(x, 0);
        b.free(x).unwrap();
        b.check_invariants().unwrap();
    }

    #[test]
    fn deterministic_churn_keeps_invariants() {
        let mut a = SubAllocator::new(1 << 16, 16, FitPolicy::FirstFit);
        let mut held: Vec<u64> = Vec::new();
        let mut seed = 0x2545_F491u64;
        for i in 0..2000 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let r = (seed >> 33) as usize;
            if held.len() > 24 || (!held.is_empty() && r.is_multiple_of(3)) {
                let off = held.swap_remove(r % held.len());
                a.free(off).unwrap();
            } else if let Ok(off) = a.alloc((r % 4000 + 1) as u64) {
                held.push(off);
            }
            if i % 128 == 0 {
                a.check_invariants().unwrap();
            }
        }
        for off in held {
            a.free(off).unwrap();
        }
        assert_eq!(a.used(), 0);
        assert_eq!(a.free_blocks(), 1);
        a.check_invariants().unwrap();
    }
}
