//! Size-binned buffer recycling for transient grid-variable storage.
//!
//! The paper's §IV-B fragmentation fix keeps large transient allocations off
//! the general heap. The runtime's `DataWarehouse` is the biggest producer
//! of such transients: every timestep it materialises ghost-expanded patch
//! windows and whole-level accumulators, then drops them all at the step
//! boundary. Allocating those fresh each step is exactly the
//! persistent/transient interleaving the paper identifies as the heap-growth
//! driver. [`BufferRecycler`] closes the loop: retired buffers are parked in
//! per-size bins and handed back (re-zeroed) on the next step's requests, so
//! steady-state timesteps perform no field-data heap allocation at all.
//!
//! Accounting flows through [`AllocTracker`] under
//! [`AllocCategory::GridVariable`] at the *pool boundary*: bytes are charged
//! when a buffer is parked in a bin and credited when it leaves (reuse,
//! overflow, or [`BufferRecycler::clear`]). Live bytes therefore report what
//! the pool is holding back from the heap between timesteps — well-defined
//! even for buffers that were first allocated elsewhere (task-produced
//! fields retired by the warehouse at a step boundary).

use crate::tracker::{AllocCategory, AllocTracker};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-size free-list pool of `Vec<T>` buffers with tracker accounting.
///
/// Buffers are stamped with the pool's *distribution generation* when
/// parked. [`BufferRecycler::bump_generation`] (called by the warehouse at
/// a regrid) invalidates everything parked earlier: stale buffers are
/// dropped lazily at their next acquire instead of being handed out. The
/// bins are keyed by size alone, so without the stamp a patch id recycled
/// by a regrid could be served storage retired under the previous
/// ownership — the pool must provably never cross that boundary.
/// Free-list bin: buffers of one size, each stamped with the distribution
/// generation it was parked under.
type StampedBin<T> = Vec<(u64, Vec<T>)>;

pub struct BufferRecycler<T> {
    bins: Mutex<HashMap<usize, StampedBin<T>>>,
    tracker: AllocTracker,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Distribution generation; buffers parked under an older one are dead.
    generation: AtomicU64,
    /// Stale-generation buffers dropped at acquire time.
    stale_drops: AtomicU64,
    /// Cap per bin so a pathological step can't pin unbounded memory.
    max_per_bin: usize,
}

impl<T: Copy + Default> BufferRecycler<T> {
    pub fn new(tracker: AllocTracker) -> Self {
        Self::with_bin_capacity(tracker, 64)
    }

    pub fn with_bin_capacity(tracker: AllocTracker, max_per_bin: usize) -> Self {
        Self {
            bins: Mutex::new(HashMap::new()),
            tracker,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            stale_drops: AtomicU64::new(0),
            max_per_bin,
        }
    }

    /// A zeroed buffer of exactly `len` elements, recycled when possible.
    /// Buffers parked before the last [`Self::bump_generation`] are dropped
    /// (with tracker credit) rather than reused.
    pub fn acquire(&self, len: usize) -> Vec<T> {
        let gen = self.generation.load(Ordering::Acquire);
        let mut bins = self.bins.lock();
        let found = loop {
            match bins.get_mut(&len).and_then(Vec::pop) {
                None => break None,
                Some((g, v)) => {
                    self.tracker
                        .on_free(AllocCategory::GridVariable, Self::bytes(len));
                    if g == gen {
                        break Some(v);
                    }
                    self.stale_drops.fetch_add(1, Ordering::Relaxed);
                }
            }
        };
        drop(bins);
        if let Some(mut v) = found {
            self.hits.fetch_add(1, Ordering::Relaxed);
            v.fill(T::default());
            return v;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        vec![T::default(); len]
    }

    /// Park a buffer in its size bin (or drop it if the bin is full). Any
    /// origin is fine — the tracker charges at pool entry, not allocation.
    pub fn retire(&self, v: Vec<T>) {
        let len = v.len();
        if len == 0 {
            return;
        }
        let gen = self.generation.load(Ordering::Acquire);
        let mut bins = self.bins.lock();
        let bin = bins.entry(len).or_default();
        if bin.len() < self.max_per_bin {
            bin.push((gen, v));
            drop(bins);
            self.tracker
                .on_alloc(AllocCategory::GridVariable, Self::bytes(len));
        }
    }

    /// Open a new distribution generation (a regrid boundary): everything
    /// parked so far becomes stale and is dropped at its next acquire.
    /// Returns the new generation.
    pub fn bump_generation(&self) -> u64 {
        self.generation.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Current distribution generation.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Stale-generation buffers dropped instead of reused.
    pub fn stale_drops(&self) -> u64 {
        self.stale_drops.load(Ordering::Relaxed)
    }

    /// Drop every pooled buffer, crediting the tracker.
    pub fn clear(&self) {
        let drained: Vec<(u64, Vec<T>)> = self.bins.lock().drain().flat_map(|(_, b)| b).collect();
        for (_, v) in &drained {
            self.tracker
                .on_free(AllocCategory::GridVariable, Self::bytes(v.len()));
        }
    }

    /// Acquisitions served from the pool.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Acquisitions that fell through to a fresh heap allocation.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Bytes currently parked in bins (excludes buffers out on loan;
    /// includes stale-generation buffers not yet swept by an acquire).
    pub fn pooled_bytes(&self) -> u64 {
        self.bins
            .lock()
            .values()
            .flatten()
            .map(|(_, v)| Self::bytes(v.len()))
            .sum()
    }

    #[inline]
    fn bytes(len: usize) -> u64 {
        (len * std::mem::size_of::<T>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_reuses_storage() {
        let r = BufferRecycler::<f64>::new(AllocTracker::new());
        let mut v = r.acquire(100);
        v[3] = 42.0;
        let ptr = v.as_ptr();
        r.retire(v);
        let v2 = r.acquire(100);
        assert_eq!(v2.as_ptr(), ptr, "same-size acquire must reuse the buffer");
        assert!(v2.iter().all(|&x| x == 0.0), "recycled buffer must be zeroed");
        assert_eq!(r.hits(), 1);
        assert_eq!(r.misses(), 1);
    }

    #[test]
    fn sizes_are_segregated() {
        let r = BufferRecycler::<u8>::new(AllocTracker::new());
        r.retire(r.acquire(10));
        let v = r.acquire(20);
        assert_eq!(v.len(), 20);
        assert_eq!(r.hits(), 0, "different size must not hit the 10-byte bin");
    }

    #[test]
    fn tracker_reflects_pooled_bytes() {
        let t = AllocTracker::new();
        let r = BufferRecycler::<f64>::new(t.clone());
        for _ in 0..10 {
            let v = r.acquire(64);
            r.retire(v);
        }
        let snap = t.snapshot(AllocCategory::GridVariable);
        assert_eq!(snap.live_bytes, 64 * 8, "one buffer parked");
        // Buffers of foreign origin are also accountable.
        r.retire(vec![0.0f64; 32]);
        assert_eq!(
            t.snapshot(AllocCategory::GridVariable).live_bytes,
            64 * 8 + 32 * 8
        );
        r.clear();
        assert_eq!(t.snapshot(AllocCategory::GridVariable).live_bytes, 0);
        assert_eq!(r.pooled_bytes(), 0);
    }

    #[test]
    fn generation_bump_invalidates_parked_buffers() {
        let t = AllocTracker::new();
        let r = BufferRecycler::<f64>::new(t.clone());
        let v = r.acquire(64);
        r.retire(v);
        assert_eq!(r.bump_generation(), 1);
        // The parked buffer predates the bump: it must be dropped, not
        // reused, and the tracker credited. (The fresh allocation's address
        // proves nothing — the system allocator may hand the freed block
        // straight back.)
        let v2 = r.acquire(64);
        assert_eq!(r.hits(), 0);
        assert_eq!(r.stale_drops(), 1);
        assert_eq!(t.snapshot(AllocCategory::GridVariable).live_bytes, 0);
        // Buffers retired after the bump recycle normally.
        let ptr2 = v2.as_ptr();
        r.retire(v2);
        let v3 = r.acquire(64);
        assert_eq!(v3.as_ptr(), ptr2, "current-generation buffer reusable");
        assert_eq!(r.hits(), 1);
    }

    #[test]
    fn acquire_skips_stale_to_reach_fresh() {
        let r = BufferRecycler::<u8>::new(AllocTracker::new());
        r.retire(vec![0u8; 16]); // generation 0
        r.bump_generation();
        r.retire(vec![0u8; 16]); // generation 1 — on top of the stale one
        r.retire(vec![0u8; 16]);
        // Both fresh buffers pop before the stale one underneath.
        let _ = r.acquire(16);
        let _ = r.acquire(16);
        assert_eq!(r.hits(), 2);
        assert_eq!(r.stale_drops(), 0);
        // The third acquire reaches the stale buffer and drops it.
        let _ = r.acquire(16);
        assert_eq!(r.stale_drops(), 1);
        assert_eq!(r.misses(), 1);
    }

    #[test]
    fn bin_capacity_bounds_pooled_memory() {
        let t = AllocTracker::new();
        let r = BufferRecycler::<u8>::with_bin_capacity(t.clone(), 2);
        let bufs: Vec<_> = (0..5).map(|_| r.acquire(8)).collect();
        for v in bufs {
            r.retire(v);
        }
        assert_eq!(r.pooled_bytes(), 16, "bin capped at 2 buffers");
        let snap = t.snapshot(AllocCategory::GridVariable);
        assert_eq!(snap.live_bytes, 16, "only parked buffers are charged");
    }
}
