//! Memory-management substrate: the paper's §IV-B infrastructure.
//!
//! Humphrey et al. found that Uintah's RMCRT benchmark, after the MPI-request
//! race was fixed, still died at scale from *heap fragmentation*: persistent
//! small allocations interleaved with transient large allocations (MPI
//! buffers, grid variables) made the heap grow without bound. Their fix:
//!
//! * a specialized allocator that takes **large transient** allocations off
//!   the heap entirely (`mmap`-backed in the paper; page-granular aligned
//!   allocations with full accounting here — see DESIGN.md §2 for the
//!   substitution rationale) — [`PageArena`];
//! * a **lock-free pool** on top of it for small transient objects that are
//!   frequently created and destroyed — [`BlockPool`] (tagged-pointer Treiber
//!   free list) and the size-class front end [`SizeClassAllocator`];
//! * allocation **tracking** between runs to identify patterns that do not
//!   scale — [`AllocTracker`].
//!
//! [`fragsim`] is a deterministic heap simulator used by the E5 ablation
//! bench to reproduce the fragmentation behaviour quantitatively: it replays
//! RMCRT-like allocation traces against first-fit/best-fit/size-class/
//! arena-segregated policies and reports heap growth and fragmentation.

pub mod arena;
pub mod fragsim;
pub mod pool;
pub mod sizeclass;
pub mod suballoc;
pub mod tracker;

pub use arena::{PageAllocation, PageArena, PAGE_SIZE};
pub use pool::BlockPool;
pub use sizeclass::SizeClassAllocator;
pub use suballoc::{FitPolicy, SubAllocError, SubAllocStats, SubAllocator};
pub use tracker::{AllocCategory, AllocTracker, TrackerSnapshot};
