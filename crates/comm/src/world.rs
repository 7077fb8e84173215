//! The in-process communication fabric.
//!
//! A [`CommWorld`] holds one mailbox per rank. [`Communicator`] is a rank's
//! endpoint: `isend` delivers eagerly into the destination mailbox (matching
//! a posted receive if one exists, else queueing as an *unexpected message*,
//! exactly MPI's envelope-matching model); `irecv` matches an unexpected
//! message or registers a pending receive. All operations are callable from
//! any number of threads concurrently (`MPI_THREAD_MULTIPLE`).

use crate::message::{Message, RecvRequest, RecvState, Tag};
use crate::signal::WorkSignal;
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use uintah_mem::{AllocCategory, AllocTracker};

/// A rank id within a [`CommWorld`].
pub type Rank = usize;

#[derive(Default)]
struct Mailbox {
    /// Messages that arrived before a matching receive was posted.
    unexpected: HashMap<(Rank, Tag), VecDeque<Message>>,
    /// Receives posted before the matching message arrived.
    pending: HashMap<(Rank, Tag), VecDeque<Arc<RecvState>>>,
}

/// Per-world communication statistics (the "local communication" the paper's
/// Figure 1 measures is the time spent posting/processing these).
#[derive(Debug, Default)]
pub struct CommStats {
    pub sends: AtomicU64,
    pub recvs_posted: AtomicU64,
    pub bytes_sent: AtomicU64,
    pub unexpected_hits: AtomicU64,
}

struct WorldInner {
    mailboxes: Vec<Mutex<Mailbox>>,
    /// One work-arrival signal per rank; `isend` notifies the destination's
    /// signal so parked scheduler workers wake when a message lands.
    signals: Vec<Arc<WorkSignal>>,
    stats: CommStats,
    /// Tracks MPI-buffer bytes: allocated when a payload enters the fabric,
    /// freed when the receiver consumes it (the accounting the paper's
    /// trackers provide between scaling runs).
    tracker: AllocTracker,
}

/// A set of communicating ranks sharing one address space.
#[derive(Clone)]
pub struct CommWorld {
    inner: Arc<WorldInner>,
}

impl CommWorld {
    pub fn new(nranks: usize) -> Self {
        assert!(nranks > 0, "world needs at least one rank");
        Self {
            inner: Arc::new(WorldInner {
                mailboxes: (0..nranks).map(|_| Mutex::new(Mailbox::default())).collect(),
                signals: (0..nranks).map(|_| Arc::new(WorkSignal::new())).collect(),
                stats: CommStats::default(),
                tracker: AllocTracker::new(),
            }),
        }
    }

    #[inline]
    pub fn nranks(&self) -> usize {
        self.inner.mailboxes.len()
    }

    /// The endpoint for `rank`.
    pub fn communicator(&self, rank: Rank) -> Communicator {
        assert!(rank < self.nranks(), "rank {rank} out of range");
        Communicator {
            world: self.clone(),
            rank,
        }
    }

    pub fn stats(&self) -> &CommStats {
        &self.inner.stats
    }

    /// Live/peak MPI-buffer accounting (category
    /// [`AllocCategory::MpiBuffer`]): bytes in flight between send and
    /// receive consumption.
    pub fn buffer_tracker(&self) -> &AllocTracker {
        &self.inner.tracker
    }
}

/// A rank's communication endpoint. Cheap to clone; thread-safe.
#[derive(Clone)]
pub struct Communicator {
    world: CommWorld,
    rank: Rank,
}

impl Communicator {
    #[inline]
    pub fn rank(&self) -> Rank {
        self.rank
    }

    #[inline]
    pub fn nranks(&self) -> usize {
        self.world.nranks()
    }

    #[inline]
    pub fn world(&self) -> &CommWorld {
        &self.world
    }

    /// This rank's work-arrival signal (notified on every inbound `isend`).
    /// Schedulers also notify it themselves when pushing ready work, so one
    /// snapshot/wait covers both wakeup sources.
    #[inline]
    pub fn signal(&self) -> &Arc<WorkSignal> {
        &self.world.inner.signals[self.rank]
    }

    /// Non-blocking send. Eager: the fabric takes the payload at post
    /// time, so the send is complete when `isend` returns and there is no
    /// request to test.
    pub fn isend(&self, dst: Rank, tag: Tag, payload: Bytes) {
        let stats = &self.world.inner.stats;
        stats.sends.fetch_add(1, Ordering::Relaxed);
        stats.bytes_sent.fetch_add(payload.len() as u64, Ordering::Relaxed);
        // The fabric now holds a buffer for this message until the
        // receiver consumes it.
        self.world
            .inner
            .tracker
            .on_alloc(AllocCategory::MpiBuffer, payload.len() as u64);
        let msg = Message {
            src: self.rank,
            tag,
            payload,
        };
        let mut mbox = self.world.inner.mailboxes[dst].lock();
        // Match a pending receive if one exists, else queue as unexpected.
        let key = (self.rank, tag);
        let pending = match mbox.pending.get_mut(&key) {
            Some(q) => {
                let state = q.pop_front();
                if q.is_empty() {
                    mbox.pending.remove(&key);
                }
                state
            }
            None => None,
        };
        match pending {
            Some(state) => {
                *state.payload.lock() = Some(msg);
                *state.tracker.lock() = Some(self.world.inner.tracker.clone());
                state.done.store(true, Ordering::Release);
            }
            None => mbox.unexpected.entry(key).or_default().push_back(msg),
        }
        drop(mbox);
        // Wake any worker parked on the destination rank's signal. Done
        // after the mailbox lock is released so waiters never contend on it.
        self.world.inner.signals[dst].notify();
    }

    /// Non-blocking receive matching `(src, tag)`.
    pub fn irecv(&self, src: Rank, tag: Tag) -> RecvRequest {
        self.world
            .inner
            .stats
            .recvs_posted
            .fetch_add(1, Ordering::Relaxed);
        let state = Arc::new(RecvState::default());
        let key = (src, tag);
        let mut mbox = self.world.inner.mailboxes[self.rank].lock();
        let mut matched = false;
        if let Some(q) = mbox.unexpected.get_mut(&key) {
            if let Some(msg) = q.pop_front() {
                if q.is_empty() {
                    mbox.unexpected.remove(&key);
                }
                *state.payload.lock() = Some(msg);
                *state.tracker.lock() = Some(self.world.inner.tracker.clone());
                state.done.store(true, Ordering::Release);
                self.world
                    .inner
                    .stats
                    .unexpected_hits
                    .fetch_add(1, Ordering::Relaxed);
                matched = true;
            }
        }
        if !matched {
            mbox.pending.entry(key).or_default().push_back(Arc::clone(&state));
        }
        drop(mbox);
        RecvRequest { state }
    }

    /// Blocking receive (spin on `test`); convenience for tests/examples.
    pub fn recv_blocking(&self, src: Rank, tag: Tag) -> Message {
        let req = self.irecv(src, tag);
        let mut spins = 0u64;
        while !req.test() {
            spins += 1;
            if spins.is_multiple_of(1024) {
                std::thread::yield_now();
            }
            std::hint::spin_loop();
        }
        req.take().expect("completed recv had no payload")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_then_recv_unexpected_path() {
        let w = CommWorld::new(2);
        let c0 = w.communicator(0);
        let c1 = w.communicator(1);
        c0.isend(1, Tag(7), Bytes::from_static(b"hello"));
        let r = c1.irecv(0, Tag(7));
        assert!(r.test());
        let m = r.take().unwrap();
        assert_eq!(&m.payload[..], b"hello");
        assert_eq!(m.src, 0);
        assert_eq!(w.stats().unexpected_hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn recv_then_send_pending_path() {
        let w = CommWorld::new(2);
        let c0 = w.communicator(0);
        let c1 = w.communicator(1);
        let r = c1.irecv(0, Tag(9));
        assert!(!r.test());
        c0.isend(1, Tag(9), Bytes::from_static(b"late"));
        assert!(r.test());
        assert_eq!(&r.take().unwrap().payload[..], b"late");
        assert_eq!(w.stats().unexpected_hits.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn matching_is_by_source_and_tag() {
        let w = CommWorld::new(3);
        let c0 = w.communicator(0);
        let c1 = w.communicator(1);
        let c2 = w.communicator(2);
        let from0 = c2.irecv(0, Tag(1));
        let from1 = c2.irecv(1, Tag(1));
        c1.isend(2, Tag(1), Bytes::from_static(b"one"));
        assert!(!from0.test(), "message from rank 1 must not match src-0 recv");
        assert!(from1.test());
        c0.isend(2, Tag(1), Bytes::from_static(b"zero"));
        assert!(from0.test());
        assert_eq!(&from0.take().unwrap().payload[..], b"zero");
        assert_eq!(&from1.take().unwrap().payload[..], b"one");
    }

    #[test]
    fn same_tag_messages_preserve_fifo_order() {
        let w = CommWorld::new(2);
        let c0 = w.communicator(0);
        let c1 = w.communicator(1);
        for i in 0..4u8 {
            c0.isend(1, Tag(5), Bytes::copy_from_slice(&[i]));
        }
        for i in 0..4u8 {
            let m = c1.recv_blocking(0, Tag(5));
            assert_eq!(m.payload[0], i, "MPI non-overtaking order violated");
        }
    }

    #[test]
    fn self_send() {
        let w = CommWorld::new(1);
        let c = w.communicator(0);
        c.isend(0, Tag(3), Bytes::from_static(b"me"));
        assert_eq!(&c.recv_blocking(0, Tag(3)).payload[..], b"me");
    }

    #[test]
    fn cross_thread_delivery() {
        let w = CommWorld::new(2);
        let c0 = w.communicator(0);
        let c1 = w.communicator(1);
        let t = std::thread::spawn(move || {
            let mut sum = 0u64;
            for i in 0..100 {
                let m = c1.recv_blocking(0, Tag(i));
                sum += m.payload[0] as u64;
            }
            sum
        });
        for i in 0..100 {
            c0.isend(1, Tag(i), Bytes::copy_from_slice(&[i as u8]));
        }
        assert_eq!(t.join().unwrap(), (0..100u64).map(|i| i & 0xff).sum());
    }

    #[test]
    fn stats_accumulate() {
        let w = CommWorld::new(2);
        let c0 = w.communicator(0);
        c0.isend(1, Tag(0), Bytes::from_static(&[0; 64]));
        c0.isend(1, Tag(1), Bytes::from_static(&[0; 36]));
        assert_eq!(w.stats().sends.load(Ordering::Relaxed), 2);
        assert_eq!(w.stats().bytes_sent.load(Ordering::Relaxed), 100);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_rank_rejected() {
        CommWorld::new(2).communicator(2);
    }

    #[test]
    fn buffer_tracker_balances_send_and_consume() {
        use uintah_mem::AllocCategory;
        let w = CommWorld::new(2);
        let c0 = w.communicator(0);
        let c1 = w.communicator(1);
        c0.isend(1, Tag(1), Bytes::from_static(&[0u8; 100]));
        c0.isend(1, Tag(2), Bytes::from_static(&[0u8; 50]));
        let snap = w.buffer_tracker().snapshot(AllocCategory::MpiBuffer);
        assert_eq!(snap.live_bytes, 150, "in-flight buffers are live");
        let _ = c1.recv_blocking(0, Tag(1));
        assert_eq!(
            w.buffer_tracker().snapshot(AllocCategory::MpiBuffer).live_bytes,
            50
        );
        let _ = c1.recv_blocking(0, Tag(2));
        let snap = w.buffer_tracker().snapshot(AllocCategory::MpiBuffer);
        assert_eq!(snap.live_bytes, 0);
        assert_eq!(snap.peak_bytes, 150);
        assert_eq!(snap.total_count, 2);
    }
}
