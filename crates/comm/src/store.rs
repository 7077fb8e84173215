//! Request stores: the "after" (wait-free pool), the "before"
//! (mutex-protected vector + Testsome) and a deliberately racy variant that
//! reproduces the paper's memory-leak bug for demonstration and testing.

use crate::message::{Message, RecvRequest};
use crate::pool::WaitFreePool;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicU64, Ordering};

/// Storage for outstanding receive requests shared by all worker threads of
/// a rank. `process_completed` is called concurrently from many threads
/// (Uintah's `MPI_THREAD_MULTIPLE` pattern: every thread does its own MPI).
pub trait RequestStore: Send + Sync {
    /// Add an outstanding receive.
    fn add(&self, req: RecvRequest);

    /// Test stored requests; invoke `handler` once per completed message and
    /// remove the request. Returns how many were processed by *this* call.
    fn process_completed(&self, handler: &mut dyn FnMut(Message)) -> usize;

    /// Outstanding (not yet processed) requests.
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The paper's Algorithm 1: requests live in a [`WaitFreePool`]; each thread
/// claims any completed request with a single CAS and `MPI_Test`s it
/// individually. No locks, no critical sections.
#[derive(Default)]
pub struct WaitFreeRequestStore {
    pool: WaitFreePool<RecvRequest>,
}

impl WaitFreeRequestStore {
    pub fn new() -> Self {
        Self::default()
    }
}

impl RequestStore for WaitFreeRequestStore {
    fn add(&self, req: RecvRequest) {
        self.pool.insert(req);
    }

    fn process_completed(&self, handler: &mut dyn FnMut(Message)) -> usize {
        // Algorithm 1: find_any(ready_request) -> finishCommunication -> erase.
        self.pool.drain_matching(
            |r| r.test(),
            |r| {
                let msg = r
                    .take()
                    .expect("claimed completed request had no payload: double-processing?");
                handler(msg);
            },
        )
    }

    fn len(&self) -> usize {
        self.pool.len()
    }
}

/// The "before": a lock around a vector of requests, processed in batches
/// (`MPI_Testsome` style). Correct, but every thread serializes on the lock
/// for the whole test-and-process sweep.
#[derive(Default)]
pub struct MutexRequestVec {
    requests: Mutex<Vec<RecvRequest>>,
}

impl MutexRequestVec {
    pub fn new() -> Self {
        Self::default()
    }
}

impl RequestStore for MutexRequestVec {
    fn add(&self, req: RecvRequest) {
        self.requests.lock().push(req);
    }

    fn process_completed(&self, handler: &mut dyn FnMut(Message)) -> usize {
        // Hold the lock across the whole Testsome sweep — the critical
        // section the paper describes as serializing the algorithm.
        let mut guard = self.requests.lock();
        let mut processed = 0;
        let mut i = 0;
        while i < guard.len() {
            if guard[i].test() {
                let req = guard.swap_remove(i);
                let msg = req.take().expect("completed request had no payload");
                handler(msg);
                processed += 1;
            } else {
                i += 1;
            }
        }
        processed
    }

    fn len(&self) -> usize {
        self.requests.lock().len()
    }
}

/// A faithful reproduction of the paper's *bug*: the vector is protected by
/// a read-write lock, and the Testsome sweep runs under the **read** lock so
/// multiple threads can observe the same completed request simultaneously.
/// Each observer "allocates a buffer" for the message; only the thread that
/// wins the `take()` actually processes and releases it — the others leak.
///
/// The leak is simulated (counted, not actually leaked) so tests can assert
/// the failure mode deterministically instead of exhausting memory.
#[derive(Default)]
pub struct RacyRequestVec {
    requests: RwLock<Vec<RecvRequest>>,
    buffers_allocated: AtomicU64,
    buffers_released: AtomicU64,
}

impl RacyRequestVec {
    pub fn new() -> Self {
        Self::default()
    }

    /// Buffers allocated for received messages.
    pub fn buffers_allocated(&self) -> u64 {
        self.buffers_allocated.load(Ordering::Relaxed)
    }

    /// Buffers actually released (one per processed message).
    pub fn buffers_released(&self) -> u64 {
        self.buffers_released.load(Ordering::Relaxed)
    }

    /// Buffers leaked so far — the paper's "severe memory leak in the Uintah
    /// infrastructure".
    pub fn leaked(&self) -> u64 {
        self.buffers_allocated() - self.buffers_released()
    }

    /// Remove already-consumed requests. The original code did this under
    /// the write lock after processing; the leak happens before removal.
    pub(crate) fn compact(&self) {
        self.requests.write().retain(|r| {
            // Consumed requests have no payload left.
            !(r.test() && r.state_consumed())
        });
    }
}

impl RecvRequest {
    /// True if the payload was already taken (internal helper for the racy
    /// baseline's compaction).
    pub(crate) fn state_consumed(&self) -> bool {
        self.state.payload.lock().is_none()
    }
}

impl RequestStore for RacyRequestVec {
    fn add(&self, req: RecvRequest) {
        self.requests.write().push(req);
    }

    fn process_completed(&self, handler: &mut dyn FnMut(Message)) -> usize {
        let mut processed = 0;
        {
            let guard = self.requests.read();
            for req in guard.iter() {
                if req.test() && !req.state_consumed() {
                    // BUG (reproduced deliberately): every thread that sees
                    // the completed request allocates a buffer for it...
                    self.buffers_allocated.fetch_add(1, Ordering::Relaxed);
                    // ...and spends time preparing it (the window in which
                    // the original code let other threads observe the same
                    // message)...
                    for _ in 0..200 {
                        std::hint::spin_loop();
                    }
                    // ...but only the take() winner processes and releases.
                    if let Some(msg) = req.take() {
                        handler(msg);
                        self.buffers_released.fetch_add(1, Ordering::Relaxed);
                        processed += 1;
                    }
                    // Losers fall through, leaking their buffer.
                }
            }
        }
        self.compact();
        processed
    }

    fn len(&self) -> usize {
        self.requests.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::CommWorld;
    use crate::Tag;
    use bytes::Bytes;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    fn run_store<S: RequestStore + 'static>(store: Arc<S>, nthreads: usize, nmsgs: usize) -> usize {
        // One world: rank 0 sends nmsgs to rank 1; nthreads workers on rank 1
        // post receives and process completions concurrently.
        let world = CommWorld::new(2);
        let sender = world.communicator(0);
        let receiver = world.communicator(1);
        for i in 0..nmsgs {
            store.add(receiver.irecv(0, Tag(i as u64)));
        }
        let processed = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..nthreads {
                let store = store.clone();
                let processed = processed.clone();
                s.spawn(move || {
                    while processed.load(Ordering::Relaxed) < nmsgs {
                        let n = store.process_completed(&mut |_msg| {});
                        processed.fetch_add(n, Ordering::Relaxed);
                        if n == 0 {
                            std::thread::yield_now();
                        }
                    }
                });
            }
            s.spawn(move || {
                for i in 0..nmsgs {
                    sender.isend(1, Tag(i as u64), Bytes::from_static(&[0u8; 128]));
                }
            });
        });
        processed.load(Ordering::Relaxed)
    }

    #[test]
    fn waitfree_store_processes_each_message_once() {
        let store = Arc::new(WaitFreeRequestStore::new());
        let n = run_store(store.clone(), 8, 500);
        assert_eq!(n, 500);
        assert_eq!(store.len(), 0);
    }

    #[test]
    fn mutex_store_processes_each_message_once() {
        let store = Arc::new(MutexRequestVec::new());
        let n = run_store(store.clone(), 8, 500);
        assert_eq!(n, 500);
        assert_eq!(store.len(), 0);
    }

    #[test]
    fn racy_store_leaks_under_contention() {
        // With many threads sweeping under the read lock, several threads
        // should observe the same completed request and over-allocate —
        // the leak the paper debugged at scale. (The *processing* is still
        // exactly-once thanks to the atomic take; the leak is in buffers.)
        // The race is probabilistic: with 8 threads and 2000 messages a
        // duplicate observation is overwhelmingly likely per round on a
        // multi-core host, but a quiet scheduler (e.g. a single-core CI
        // container) can serialize an entire round. Retry a few rounds so
        // scheduler luck cannot flake the test.
        let mut last = (0, 0);
        for _ in 0..10 {
            let store = Arc::new(RacyRequestVec::new());
            let n = run_store(store.clone(), 8, 2000);
            assert_eq!(n, 2000, "every message still processed exactly once");
            assert_eq!(store.buffers_released(), 2000);
            assert!(
                store.buffers_allocated() >= store.buffers_released(),
                "allocations can never trail releases"
            );
            if store.leaked() > 0 {
                return;
            }
            last = (store.buffers_allocated(), store.buffers_released());
        }
        panic!(
            "expected the racy baseline to leak buffers in at least one of 10 \
             rounds (last round: allocated {}, released {})",
            last.0, last.1
        );
    }

    #[test]
    fn waitfree_store_never_overallocates() {
        // The pool claims before testing, so exactly one buffer per message.
        let store = Arc::new(WaitFreeRequestStore::new());
        let world = CommWorld::new(2);
        let tx = world.communicator(0);
        let rx = world.communicator(1);
        let allocations = AtomicUsize::new(0);
        for i in 0..100 {
            store.add(rx.irecv(0, Tag(i)));
            tx.isend(1, Tag(i), Bytes::from_static(b"m"));
        }
        let mut handler = |_msg: Message| {
            allocations.fetch_add(1, Ordering::Relaxed);
        };
        let n = store.process_completed(&mut handler);
        assert_eq!(n, 100);
        assert_eq!(allocations.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn incomplete_requests_stay_stored() {
        let store = WaitFreeRequestStore::new();
        let world = CommWorld::new(2);
        let rx = world.communicator(1);
        store.add(rx.irecv(0, Tag(1)));
        store.add(rx.irecv(0, Tag(2)));
        let n = store.process_completed(&mut |_| {});
        assert_eq!(n, 0);
        assert_eq!(store.len(), 2);
    }
}
