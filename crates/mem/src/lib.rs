//! Memory accounting for the RMCRT-AMR stack, and the paper's §IV-B
//! fragmentation result as a replay model.
//!
//! The paper found that persistent small allocations interleaved with
//! transient large ones (MPI buffers, grid variables) made Uintah's heap
//! grow without bound, and fixed it with an `mmap`-backed arena for the
//! large transients and a lock-free pool for the small ones. This crate
//! holds:
//!
//! * [`fragsim`] — a deterministic heap simulator replaying an RMCRT-like
//!   trace against first-fit / best-fit / size-class / arena-segregated
//!   policies (E5 `frag_ablation`, S3 `leak_model`);
//! * [`SubAllocator`] — the free list under each simulated GPU's budget;
//! * [`AllocTracker`] — per-category live/peak byte counters, with which
//!   the comm layer meters message payloads.
//!
//! There is no arena or pool: `frag_ablation` measures this process's
//! resident set against its live heap, on the long-lived server and on a
//! 1000-step oversubscribed run, and finds no growth for one to remove
//! (EXPERIMENTS E26).

#![forbid(unsafe_code)]

pub mod fragsim;
pub mod suballoc;
pub mod tracker;

pub use suballoc::{FitPolicy, SubAllocError, SubAllocStats, SubAllocator};
pub use tracker::{AllocCategory, AllocTracker, TrackerSnapshot};
