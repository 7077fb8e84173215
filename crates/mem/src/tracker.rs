//! Allocation tracking by category.
//!
//! The paper's future-work section describes "custom memory allocators and
//! trackers … to identify allocation patterns that do not scale." The
//! tracker records per-category live/peak/total byte counts. The comm layer
//! keeps one per world and meters every message payload under
//! [`AllocCategory::MpiBuffer`], from send until the receiver consumes it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What an allocation is for — the categories the paper's analysis
/// distinguishes (§IV-B): MPI communication buffers, grid variables, and
/// everything else in the infrastructure.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum AllocCategory {
    /// MPI send/receive buffers (large, transient).
    MpiBuffer,
    /// Simulation variables on mesh patches (large, per-timestep).
    GridVariable,
    /// Task/scheduler bookkeeping (small, transient).
    Infrastructure,
    /// Long-lived framework state (small, persistent).
    Persistent,
}

impl AllocCategory {
    pub const ALL: [AllocCategory; 4] = [
        AllocCategory::MpiBuffer,
        AllocCategory::GridVariable,
        AllocCategory::Infrastructure,
        AllocCategory::Persistent,
    ];

    fn idx(self) -> usize {
        match self {
            AllocCategory::MpiBuffer => 0,
            AllocCategory::GridVariable => 1,
            AllocCategory::Infrastructure => 2,
            AllocCategory::Persistent => 3,
        }
    }
}

#[derive(Default)]
struct Counters {
    live: AtomicU64,
    peak: AtomicU64,
    total_bytes: AtomicU64,
    total_count: AtomicU64,
}

/// Thread-safe per-category allocation statistics.
#[derive(Clone, Default)]
pub struct AllocTracker {
    counters: Arc<[Counters; 4]>,
}

impl std::fmt::Debug for AllocTracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AllocTracker")
            .field("live_total", &self.live_total())
            .finish()
    }
}

/// A point-in-time view of one category's counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrackerSnapshot {
    pub category: AllocCategory,
    pub live_bytes: u64,
    pub peak_bytes: u64,
    pub total_bytes: u64,
    pub total_count: u64,
}

impl AllocTracker {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an allocation of `bytes` in `cat`.
    pub fn on_alloc(&self, cat: AllocCategory, bytes: u64) {
        let c = &self.counters[cat.idx()];
        let live = c.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        c.peak.fetch_max(live, Ordering::Relaxed);
        c.total_bytes.fetch_add(bytes, Ordering::Relaxed);
        c.total_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a free of `bytes` in `cat`.
    pub fn on_free(&self, cat: AllocCategory, bytes: u64) {
        self.counters[cat.idx()].live.fetch_sub(bytes, Ordering::Relaxed);
    }

    pub fn snapshot(&self, cat: AllocCategory) -> TrackerSnapshot {
        let c = &self.counters[cat.idx()];
        TrackerSnapshot {
            category: cat,
            live_bytes: c.live.load(Ordering::Relaxed),
            peak_bytes: c.peak.load(Ordering::Relaxed),
            total_bytes: c.total_bytes.load(Ordering::Relaxed),
            total_count: c.total_count.load(Ordering::Relaxed),
        }
    }

    /// Live bytes summed over all categories.
    pub fn live_total(&self) -> u64 {
        self.counters.iter().map(|c| c.live.load(Ordering::Relaxed)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_peak_total() {
        let t = AllocTracker::new();
        t.on_alloc(AllocCategory::MpiBuffer, 100);
        t.on_alloc(AllocCategory::MpiBuffer, 200);
        t.on_free(AllocCategory::MpiBuffer, 100);
        let s = t.snapshot(AllocCategory::MpiBuffer);
        assert_eq!(s.live_bytes, 200);
        assert_eq!(s.peak_bytes, 300);
        assert_eq!(s.total_bytes, 300);
        assert_eq!(s.total_count, 2);
    }

    #[test]
    fn categories_are_independent() {
        let t = AllocTracker::new();
        t.on_alloc(AllocCategory::GridVariable, 50);
        t.on_alloc(AllocCategory::Persistent, 7);
        assert_eq!(t.snapshot(AllocCategory::GridVariable).live_bytes, 50);
        assert_eq!(t.snapshot(AllocCategory::Persistent).live_bytes, 7);
        assert_eq!(t.snapshot(AllocCategory::MpiBuffer).live_bytes, 0);
        assert_eq!(t.live_total(), 57);
    }

    #[test]
    fn concurrent_updates_balance() {
        let t = AllocTracker::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let t = t.clone();
                s.spawn(move || {
                    for i in 1..1000u64 {
                        t.on_alloc(AllocCategory::Infrastructure, i);
                        t.on_free(AllocCategory::Infrastructure, i);
                    }
                });
            }
        });
        let s = t.snapshot(AllocCategory::Infrastructure);
        assert_eq!(s.live_bytes, 0);
        assert_eq!(s.total_count, 8 * 999);
    }
}
