//! The wait-free communication-request pool (the paper's Algorithm 1).
//!
//! Replaces a mutex-protected `vector<MPI_Request>` + `MPI_Testsome()` with
//! a non-blocking, thread-scalable, contention-free pool:
//!
//! * storage is a lock-free linked list of fixed-size chunks of 64 slots;
//! * each slot carries an atomic state (`EMPTY → WRITING → READY ⇄ CLAIMED`);
//! * [`WaitFreePool::find_any`] claims a slot by toggling `READY → CLAIMED`
//!   with a single CAS and hands back a **move-only** [`PoolIterator`]
//!   (copy/clone disabled), guaranteeing "no two threads can have iterators
//!   which dereference to the same object";
//! * the predicate (in Uintah, `MPI_Test` on the individual request) runs on
//!   the *claimed* slot, so no other thread can observe or process it;
//! * `erase` removes the value and recycles the slot; dropping an iterator
//!   without erasing releases the claim.
//!
//! Per-slot transitions are single CASes (wait-free); scans and inserts are
//! lock-free (a failed CAS always means another thread succeeded).
//!
//! # Occupancy words
//!
//! Each chunk also carries one `AtomicU64` whose bit `i` says "slot `i`
//! holds a value". The slot state stays authoritative; the word only tells
//! the walks where to look:
//!
//! * `insert` tries the clear bits of each chunk, lowest first: one slot
//!   probe per insert on a quiet pool, after one word load per full chunk
//!   (testing every slot from the head made posting `N` values `O(N²)`);
//! * `find_any` and `drain_matching` visit only set bits, and
//!   `drain_matching` is one pass that carries on after each hit, so
//!   draining `K` of `N` stored values runs `pred` `N` times, not `O(N·K)`;
//! * [`WaitFreePool::len`] is the words' population count, so no counter is
//!   shared by every insert and erase.
//!
//! Two ordering rules make "bit set ⇒ the slot holds a value" an invariant:
//!
//! 1. **An insert sets its bit only after the value is written**, while it
//!    still holds the slot `WRITING`, and publishes `READY` after the bit.
//!    (Setting it after `READY` would let a walker with an older copy of the
//!    word, one that still showed the slot's previous value, claim and
//!    erase the new value before its bit went up — the late set would then
//!    mark an `EMPTY` slot occupied for good.)
//! 2. **`erase` clears the bit while it still holds the slot `CLAIMED`**,
//!    then stores `EMPTY`. The next insert acquires that `EMPTY`, so its set
//!    always follows the clear.
//!
//! A walk that starts after an `insert` returns therefore reads the value's
//! bit and its `READY` state, and cannot miss the value. A bit may lag its
//! slot (a slot being written or erased can show either value), which only
//! costs a failed CAS; a set bit over a `WRITING` slot is skipped.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::ops::Deref;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicU8, Ordering};

const EMPTY: u8 = 0;
const WRITING: u8 = 1;
const READY: u8 = 2;
const CLAIMED: u8 = 3;

/// Slots per chunk: one occupancy word's worth. 64 keeps a chunk within a
/// few cache lines of states while amortizing allocation.
const CHUNK_SLOTS: usize = 64;

struct Slot<T> {
    state: AtomicU8,
    value: UnsafeCell<MaybeUninit<T>>,
}

impl<T> Slot<T> {
    fn new() -> Self {
        Self {
            state: AtomicU8::new(EMPTY),
            value: UnsafeCell::new(MaybeUninit::uninit()),
        }
    }
}

struct Chunk<T> {
    /// Bit `i` set ⇒ `slots[i]` holds a value (module doc). Updates are
    /// `Release` and loads `Acquire`, but what orders a bit change against
    /// its slot is the state's own pairing: `READY` stored `Release` and
    /// claimed `Acquire` (rule 1), `EMPTY` stored `Release` and taken by
    /// the next insert's `Acquire` CAS (rule 2).
    occupied: AtomicU64,
    slots: Box<[Slot<T>]>,
    next: AtomicPtr<Chunk<T>>,
}

impl<T> Chunk<T> {
    fn boxed() -> Box<Self> {
        Box::new(Self {
            occupied: AtomicU64::new(0),
            slots: (0..CHUNK_SLOTS).map(|_| Slot::new()).collect(),
            next: AtomicPtr::new(ptr::null_mut()),
        })
    }
}

/// A non-blocking, thread-scalable, contention-free pool (Algorithm 1).
///
/// ```
/// use uintah_comm::WaitFreePool;
///
/// let pool = WaitFreePool::new();
/// pool.insert(41);
/// pool.insert(42);
/// // Claim any element matching a predicate (MPI_Test in Uintah) ...
/// let it = pool.find_any(|&v| v % 2 == 0).expect("42 is there");
/// assert_eq!(*it, 42);
/// // ... and erase it through the move-only iterator.
/// assert_eq!(pool.erase(it), 42);
/// assert_eq!(pool.len(), 1);
/// ```
pub struct WaitFreePool<T> {
    head: AtomicPtr<Chunk<T>>,
}

// SAFETY: values are moved in by one thread and observed/claimed by others
// through the state protocol; &T is handed out, hence T: Sync as well.
unsafe impl<T: Send + Sync> Send for WaitFreePool<T> {}
unsafe impl<T: Send + Sync> Sync for WaitFreePool<T> {}

impl<T: Send + Sync> Default for WaitFreePool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send + Sync> WaitFreePool<T> {
    pub fn new() -> Self {
        Self {
            head: AtomicPtr::new(Box::into_raw(Chunk::boxed())),
        }
    }

    /// The chunks, head first.
    fn chunks(&self) -> impl Iterator<Item = &Chunk<T>> {
        // SAFETY: chunk pointers are never freed while the pool lives.
        std::iter::successors(
            unsafe { self.head.load(Ordering::Acquire).as_ref() },
            |chunk| unsafe { chunk.next.load(Ordering::Acquire).as_ref() },
        )
    }

    /// Number of stored values (READY or CLAIMED): the population count of
    /// the occupancy words. Exact when no insert or erase is in flight.
    pub fn len(&self) -> usize {
        self.chunks()
            .map(|chunk| chunk.occupied.load(Ordering::Acquire).count_ones() as usize)
            .sum()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert a value. Lock-free; grows by one chunk when all slots are
    /// occupied.
    pub fn insert(&self, value: T) {
        let mut chunk_ptr = self.head.load(Ordering::Acquire);
        loop {
            // SAFETY: chunk pointers are never freed while the pool lives.
            let chunk = unsafe { &*chunk_ptr };
            let mut free = !chunk.occupied.load(Ordering::Acquire);
            while free != 0 {
                let i = free.trailing_zeros() as usize;
                free &= free - 1;
                let slot = &chunk.slots[i];
                if slot
                    .state
                    .compare_exchange(EMPTY, WRITING, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
                {
                    // SAFETY: WRITING grants exclusive access to the cell.
                    unsafe { (*slot.value.get()).write(value) };
                    // Rule 1: the bit goes up after the write, before READY.
                    chunk.occupied.fetch_or(1 << i, Ordering::Release);
                    slot.state.store(READY, Ordering::Release);
                    return;
                }
            }
            // Advance to (or install) the next chunk.
            let next = chunk.next.load(Ordering::Acquire);
            if next.is_null() {
                let fresh = Box::into_raw(Chunk::boxed());
                match chunk.next.compare_exchange(
                    ptr::null_mut(),
                    fresh,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => chunk_ptr = fresh,
                    Err(winner) => {
                        // SAFETY: we just created `fresh` and nobody saw it.
                        drop(unsafe { Box::from_raw(fresh) });
                        chunk_ptr = winner;
                    }
                }
            } else {
                chunk_ptr = next;
            }
            // Loop re-scans from the new chunk; `value` still pending.
        }
    }

    /// Claim every READY slot whose bit is set, in chunk and bit order,
    /// one at a time: each claim is handed out as an iterator, whose drop
    /// releases it.
    fn claims(&self) -> Claims<'_, T> {
        // SAFETY: the head chunk is never null and lives as long as the pool.
        let chunk = unsafe { &*self.head.load(Ordering::Acquire) };
        Claims {
            pool: self,
            chunk,
            bits: chunk.occupied.load(Ordering::Acquire),
        }
    }

    /// Find any stored value satisfying `pred`, claiming it exclusively.
    ///
    /// `pred` runs with the slot claimed: no other thread can test, claim or
    /// erase it concurrently. Returns a move-only iterator on a hit; slots
    /// failing the predicate are released back to READY.
    pub fn find_any<F: FnMut(&T) -> bool>(&self, mut pred: F) -> Option<PoolIterator<'_, T>> {
        self.claims().find(|it| pred(it))
    }

    /// Erase a previously claimed slot, returning its value.
    pub fn erase(&self, iter: PoolIterator<'_, T>) -> T {
        debug_assert!(ptr::eq(iter.pool, self), "iterator from another pool");
        let (chunk, i) = (iter.chunk, iter.index);
        std::mem::forget(iter); // suppress the release-on-drop
        let slot = &chunk.slots[i];
        // SAFETY: the iterator held the claim; value is initialized.
        let value = unsafe { (*slot.value.get()).assume_init_read() };
        // Rule 2: the bit goes down while the slot is still CLAIMED.
        chunk.occupied.fetch_and(!(1 << i), Ordering::Release);
        slot.state.store(EMPTY, Ordering::Release);
        value
    }

    /// One pass over the stored values: each one satisfying `pred` is
    /// erased and handed to `f`. `pred` runs once per value the pass
    /// claims, on the claimed slot. Returns the number processed.
    pub fn drain_matching<P: FnMut(&T) -> bool, F: FnMut(T)>(&self, mut pred: P, mut f: F) -> usize {
        let mut n = 0;
        for it in self.claims() {
            if pred(&it) {
                f(self.erase(it));
                n += 1;
            }
        }
        n
    }
}

/// The walk behind [`WaitFreePool::find_any`] and
/// [`WaitFreePool::drain_matching`]: the set bits of each chunk's
/// occupancy word, read once per chunk, each claimed with one CAS.
struct Claims<'a, T> {
    pool: &'a WaitFreePool<T>,
    chunk: &'a Chunk<T>,
    /// Set bits of `chunk` not yet visited.
    bits: u64,
}

impl<'a, T: Send + Sync> Iterator for Claims<'a, T> {
    type Item = PoolIterator<'a, T>;

    fn next(&mut self) -> Option<PoolIterator<'a, T>> {
        loop {
            while self.bits != 0 {
                let index = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                let state = &self.chunk.slots[index].state;
                if state.load(Ordering::Relaxed) == READY
                    && state
                        .compare_exchange(READY, CLAIMED, Ordering::Acquire, Ordering::Relaxed)
                        .is_ok()
                {
                    return Some(PoolIterator {
                        pool: self.pool,
                        chunk: self.chunk,
                        index,
                    });
                }
            }
            // SAFETY: chunk pointers live as long as the pool.
            self.chunk = unsafe { self.chunk.next.load(Ordering::Acquire).as_ref() }?;
            self.bits = self.chunk.occupied.load(Ordering::Acquire);
        }
    }
}

impl<T> Drop for WaitFreePool<T> {
    fn drop(&mut self) {
        let mut chunk_ptr = *self.head.get_mut();
        while !chunk_ptr.is_null() {
            // SAFETY: exclusive access in Drop; chunks were Box-allocated.
            let mut chunk = unsafe { Box::from_raw(chunk_ptr) };
            for slot in chunk.slots.iter_mut() {
                let state = *slot.state.get_mut();
                debug_assert_ne!(state, CLAIMED, "pool dropped with live iterator");
                if state == READY || state == CLAIMED {
                    // SAFETY: READY means initialized; we own everything now.
                    unsafe { (*slot.value.get()).assume_init_drop() };
                }
            }
            chunk_ptr = *chunk.next.get_mut();
        }
    }
}

/// A unique, move-only handle to a claimed pool slot.
///
/// Mirrors the paper's "unique protected iterator": copy construction and
/// copy assignment are disabled (no `Clone`), so no two threads can hold
/// iterators dereferencing to the same object. Dropping the iterator
/// releases the claim; [`WaitFreePool::erase`] consumes it and the value.
pub struct PoolIterator<'a, T> {
    pool: &'a WaitFreePool<T>,
    chunk: &'a Chunk<T>,
    index: usize,
}

impl<T> Deref for PoolIterator<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: we hold the CLAIMED state; the value is initialized.
        unsafe { (*self.chunk.slots[self.index].value.get()).assume_init_ref() }
    }
}

impl<T> Drop for PoolIterator<'_, T> {
    fn drop(&mut self) {
        self.chunk.slots[self.index].state.store(READY, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn insert_find_erase() {
        let pool = WaitFreePool::new();
        pool.insert(41);
        pool.insert(42);
        assert_eq!(pool.len(), 2);
        let it = pool.find_any(|&v| v == 42).expect("42 present");
        assert_eq!(*it, 42);
        assert_eq!(pool.erase(it), 42);
        assert_eq!(pool.len(), 1);
        assert!(pool.find_any(|&v| v == 42).is_none());
    }

    #[test]
    fn released_iterator_returns_slot() {
        let pool = WaitFreePool::new();
        pool.insert(7);
        {
            let it = pool.find_any(|_| true).unwrap();
            assert_eq!(*it, 7);
            // Dropped without erase: claim released.
        }
        assert_eq!(pool.len(), 1);
        assert!(pool.find_any(|&v| v == 7).is_some());
    }

    #[test]
    fn claimed_slot_invisible_to_others() {
        let pool = WaitFreePool::new();
        pool.insert(1);
        let it = pool.find_any(|_| true).unwrap();
        // While claimed, a second find_any must not see the value.
        assert!(pool.find_any(|_| true).is_none());
        drop(it);
        assert!(pool.find_any(|_| true).is_some());
    }

    #[test]
    fn grows_past_one_chunk() {
        let pool = WaitFreePool::new();
        let n = CHUNK_SLOTS * 3 + 5;
        for i in 0..n {
            pool.insert(i);
        }
        assert_eq!(pool.len(), n);
        let mut seen = vec![false; n];
        let drained = pool.drain_matching(|_| true, |v| seen[v] = true);
        assert_eq!(drained, n);
        assert!(seen.iter().all(|&s| s));
        assert!(pool.is_empty());
    }

    #[test]
    fn slot_reuse_after_erase() {
        let pool = WaitFreePool::new();
        for round in 0..10 {
            for i in 0..CHUNK_SLOTS {
                pool.insert(round * 1000 + i);
            }
            assert_eq!(pool.drain_matching(|_| true, |_| ()), CHUNK_SLOTS);
        }
        assert!(pool.is_empty());
    }

    #[test]
    fn drop_releases_unclaimed_values() {
        // Values with Drop side effects are dropped with the pool.
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        {
            let pool = WaitFreePool::new();
            for _ in 0..5 {
                pool.insert(D);
            }
        }
        assert_eq!(DROPS.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn concurrent_producers_consumers_exactly_once() {
        // N producers insert distinct values; M consumers claim-and-erase.
        // Every value must be processed exactly once — the invariant the
        // paper's racy Testsome loop violated.
        let pool = std::sync::Arc::new(WaitFreePool::new());
        const PER: usize = 2000;
        const PRODUCERS: usize = 4;
        let processed: Vec<AtomicUsize> = (0..PER * PRODUCERS).map(|_| AtomicUsize::new(0)).collect();
        let processed = std::sync::Arc::new(processed);
        let total = std::sync::Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let pool = pool.clone();
                s.spawn(move || {
                    for i in 0..PER {
                        pool.insert(p * PER + i);
                    }
                });
            }
            for _ in 0..4 {
                let pool = pool.clone();
                let processed = processed.clone();
                let total = total.clone();
                s.spawn(move || {
                    while total.load(Ordering::Relaxed) < PER * PRODUCERS {
                        let n = pool.drain_matching(
                            |_| true,
                            |v| {
                                processed[v].fetch_add(1, Ordering::Relaxed);
                            },
                        );
                        if n == 0 {
                            std::thread::yield_now();
                        } else {
                            total.fetch_add(n, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        for (i, c) in processed.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "value {i} processed {} times", c.load(Ordering::Relaxed));
        }
        assert!(pool.is_empty());
    }

    /// One drain is one pass: over `N` stored values, `K` of them
    /// matching, `pred` runs exactly `N` times (restarting the walk after
    /// each hit ran it `O(N·K)` times).
    #[test]
    fn drain_matching_tests_each_value_once() {
        let pool = WaitFreePool::new();
        let n = CHUNK_SLOTS * 4 + 17;
        for i in 0..n {
            pool.insert(i);
        }
        let mut calls = 0;
        let mut drained = Vec::new();
        let k = pool.drain_matching(
            |&v| {
                calls += 1;
                v % 3 == 0
            },
            |v| drained.push(v),
        );
        assert_eq!(calls, n, "pred calls for {n} values, {k} matching");
        assert_eq!(k, n.div_ceil(3));
        drained.sort_unstable();
        assert_eq!(drained, (0..n).step_by(3).collect::<Vec<_>>());
        assert_eq!(pool.len(), n - k);
    }

    /// Insert/erase churn around 63 live values stays in the first chunk:
    /// an insert finds the one free slot through the occupancy word, and
    /// an erase frees its bit for the next insert.
    #[test]
    fn churn_at_63_live_values_never_grows_a_second_chunk() {
        let pool = WaitFreePool::new();
        for i in 0..CHUNK_SLOTS - 1 {
            pool.insert(i);
        }
        for i in CHUNK_SLOTS - 1..20 * CHUNK_SLOTS {
            pool.insert(i);
            // Erase the oldest value: the freed slot moves every round.
            let oldest = i + 1 - CHUNK_SLOTS;
            let it = pool.find_any(|&v| v == oldest).expect("the oldest value is stored");
            assert_eq!(pool.erase(it), oldest);
            assert_eq!(pool.len(), CHUNK_SLOTS - 1);
        }
        assert_eq!(pool.chunks().count(), 1, "churn grew the pool");
    }

    /// `len()` is the occupancy words' population count: exact whenever
    /// no insert or erase is in flight, across chunks, claims and erases.
    #[test]
    fn len_is_exact_when_quiescent() {
        let pool = WaitFreePool::new();
        let mut live = 0;
        for round in 0..6 {
            for i in 0..CHUNK_SLOTS + 11 {
                pool.insert(round * 1000 + i);
                live += 1;
                assert_eq!(pool.len(), live);
            }
            // A claim held or released does not change the count.
            let held = pool.find_any(|&v| v % 2 == 1).expect("odd values stored");
            assert_eq!(pool.len(), live);
            drop(held);
            assert_eq!(pool.len(), live);
            live -= pool.drain_matching(|&v| v % 2 == 0, |_| ());
            assert_eq!(pool.len(), live);
        }
        live -= pool.drain_matching(|_| true, |_| ());
        assert_eq!(live, 0);
        assert!(pool.is_empty());
    }

    /// Ordering rule 1 under the interleaving it exists for: a drain reads
    /// the word while slot 1 holds `y`, pauses in `pred` on slot 0, and
    /// meanwhile `y` is erased and `z` is inserted into slot 1. The drain
    /// then claims and erases `z` with its older word. Had the insert set
    /// its bit after publishing READY, that late set would leave slot 1
    /// marked occupied with nothing in it (`len() == 2`, one value stored).
    #[test]
    fn drain_with_an_older_word_leaves_no_stray_bit() {
        use std::sync::atomic::AtomicBool;
        let pool = WaitFreePool::new();
        pool.insert(0usize); // x, slot 0
        pool.insert(1usize); // y, slot 1
        let paused = AtomicBool::new(false);
        let go = AtomicBool::new(false);
        std::thread::scope(|s| {
            let drain = s.spawn(|| {
                let mut erased = Vec::new();
                pool.drain_matching(
                    |&v| {
                        if v == 0 {
                            paused.store(true, Ordering::Release);
                            while !go.load(Ordering::Acquire) {
                                std::thread::yield_now();
                            }
                            return false;
                        }
                        true
                    },
                    |v| erased.push(v),
                );
                erased
            });
            while !paused.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            let y = pool.find_any(|&v| v == 1).expect("y is stored");
            pool.erase(y);
            s.spawn(|| pool.insert(2usize)); // z, into the freed slot 1
            // SAFETY: the head chunk lives as long as the pool.
            let slot1 = unsafe { &(*pool.head.load(Ordering::Acquire)).slots[1] };
            while slot1.state.load(Ordering::Acquire) != READY {
                std::thread::yield_now();
            }
            go.store(true, Ordering::Release);
            assert_eq!(drain.join().unwrap(), vec![2], "the drain took z");
        });
        assert_eq!(pool.len(), 1, "only x is stored");
        assert_eq!(pool.drain_matching(|_| true, |v| assert_eq!(v, 0)), 1);
        assert!(pool.is_empty());
    }

    #[test]
    fn predicate_false_leaves_value_in_place() {
        let pool = WaitFreePool::new();
        pool.insert(1);
        pool.insert(2);
        assert!(pool.find_any(|&v| v > 5).is_none());
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.drain_matching(|&v| v == 1, |_| ()), 1);
        assert_eq!(pool.len(), 1);
    }
}
