//! Per-rank work-arrival signal used to park idle scheduler workers.
//!
//! The hybrid scheduler's workers are self-servicing (`MPI_THREAD_MULTIPLE`
//! style): each thread polls its rank's request store for completed receives
//! and pops the ready queue. When a rank briefly runs out of local work the
//! original loop busy-spun on `yield_now`, burning a core per idle thread —
//! exactly the oversubscription pathology the paper's hybrid runtime is
//! meant to avoid. [`WorkSignal`] lets a worker block until *something*
//! changed (a message arrived for this rank, or a peer thread pushed ready
//! work) instead of spinning.
//!
//! The protocol is a generation counter plus a condvar:
//!
//! * [`WorkSignal::notify`] bumps the generation (always), and only takes
//!   the mutex + broadcasts when at least one waiter is registered — the
//!   common no-waiter case is a single atomic RMW.
//! * A waiter snapshots the generation *before* re-checking its work
//!   sources, then calls [`WorkSignal::wait_until_changed`] with that
//!   snapshot. Inside the lock it registers itself as a waiter and
//!   re-checks the generation, so a notify that raced between the snapshot
//!   and the wait returns immediately rather than being lost.
//!
//! Missed-wakeup argument: the waiter increments `waiters` and then reads
//! `gen` while holding the mutex; the notifier bumps `gen` and then reads
//! `waiters`. Both operations are `SeqCst`, so in any interleaving either
//! the waiter observes the new generation (returns without sleeping) or the
//! notifier observes `waiters > 0` (acquires the mutex and broadcasts).
//! Waits are additionally bounded by a caller-supplied timeout, so even a
//! logic bug upstream degrades to a slow poll, never a hang.

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Generation-counting wakeup channel (see module docs for the protocol).
#[derive(Default)]
pub struct WorkSignal {
    generation: AtomicU64,
    waiters: AtomicUsize,
    lock: Mutex<()>,
    cvar: Condvar,
}

impl WorkSignal {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Current generation; snapshot this *before* checking work sources.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Record that new work may exist and wake any parked waiters.
    ///
    /// Cheap when nobody is parked: one atomic increment and one load.
    #[inline]
    pub fn notify(&self) {
        self.generation.fetch_add(1, Ordering::SeqCst);
        if self.waiters.load(Ordering::SeqCst) > 0 {
            let _g = self.lock.lock();
            self.cvar.notify_all();
        }
    }

    /// Park until the generation differs from `seen` or `timeout` elapses.
    /// Returns `true` if the generation changed (work may exist).
    pub fn wait_until_changed(&self, seen: u64, timeout: Duration) -> bool {
        let mut guard = self.lock.lock();
        self.waiters.fetch_add(1, Ordering::SeqCst);
        if self.generation.load(Ordering::SeqCst) != seen {
            self.waiters.fetch_sub(1, Ordering::SeqCst);
            return true;
        }
        self.cvar.wait_for(&mut guard, timeout);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        self.generation.load(Ordering::SeqCst) != seen
    }
}

impl std::fmt::Debug for WorkSignal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkSignal")
            .field("generation", &self.generation())
            .field("waiters", &self.waiters.load(Ordering::SeqCst))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn notify_before_wait_returns_immediately() {
        let s = WorkSignal::new();
        let seen = s.generation();
        s.notify();
        let t0 = Instant::now();
        assert!(s.wait_until_changed(seen, Duration::from_secs(5)));
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn wait_times_out_without_notify() {
        let s = WorkSignal::new();
        let seen = s.generation();
        assert!(!s.wait_until_changed(seen, Duration::from_millis(10)));
    }

    #[test]
    fn concurrent_notify_wakes_parked_waiter() {
        let s = Arc::new(WorkSignal::new());
        let s2 = Arc::clone(&s);
        let seen = s.generation();
        let t = std::thread::spawn(move || s2.wait_until_changed(seen, Duration::from_secs(10)));
        std::thread::sleep(Duration::from_millis(20));
        s.notify();
        assert!(t.join().unwrap());
    }

    #[test]
    fn stale_snapshot_never_blocks() {
        // A notify racing between the snapshot and the wait must not be
        // lost: hammer the pair from two threads.
        let s = Arc::new(WorkSignal::new());
        let s2 = Arc::clone(&s);
        let t = std::thread::spawn(move || {
            for _ in 0..1000 {
                s2.notify();
            }
        });
        for _ in 0..1000 {
            let seen = s.generation();
            // Bounded wait: either we see the change or time out quickly.
            s.wait_until_changed(seen, Duration::from_micros(50));
        }
        t.join().unwrap();
    }
}
