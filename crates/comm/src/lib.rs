//! In-process message-passing substrate (the MPI substitution) and the
//! paper's §IV-A communication-infrastructure contribution.
//!
//! Uintah runs `MPI_THREAD_MULTIPLE`: every worker thread posts and tests
//! its own sends and receives. The original implementation tracked
//! outstanding `MPI_Request`s in a Pthread-lock-protected vector processed
//! with `MPI_Testsome()`; a race let several threads process the same
//! received message, each allocating a buffer only one of which was freed —
//! an at-scale memory leak. The fix (this crate's [`WaitFreePool`], the
//! paper's Algorithm 1) is a contention-free pool of requests with move-only,
//! atomically-claimed iterators and per-request `MPI_Test`.
//!
//! Module map:
//!
//! * [`message`] — tags, envelopes and request completion state,
//! * [`world`] — the in-process fabric: [`CommWorld`] and per-rank
//!   [`Communicator`]s with non-blocking send/recv (eager delivery,
//!   MPI-style (source, tag) matching with an unexpected-message queue),
//! * [`pool`] — the wait-free request pool (Algorithm 1),
//! * [`signal`] — per-rank work-arrival signal: lets idle scheduler workers
//!   park instead of busy-spinning, woken by inbound sends,
//! * [`store`] — the [`RequestStore`] abstraction over the pool, the
//!   mutex-vector baseline ("before"), and a deliberately racy variant that
//!   reproduces the paper's leak for demonstration,
//! * [`collective`] — the element-wise all-reduce the driver uses for the
//!   cost exchange before a rebalance and the stop agreement between steps.

pub mod collective;
pub mod message;
pub mod pool;
pub mod signal;
pub mod store;
pub mod world;

pub use collective::AllReduceVec;
pub use message::{Message, RecvRequest, Tag};
pub use pool::{PoolIterator, WaitFreePool};
pub use signal::WorkSignal;
pub use store::{MutexRequestVec, RacyRequestVec, RequestStore, WaitFreeRequestStore};
pub use world::{CommStats, CommWorld, Communicator, Rank};
