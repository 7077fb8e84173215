//! The simulated GPU device: memory capacity, transfer meters, kernel-launch counts.
//!
//! The K20X has one copy engine per PCIe direction, which is what lets a
//! device→host drain of one patch overlap the kernels of others. On this
//! host a copy is a memcpy on the same cores as the tasks, so nothing is
//! posted: both directions run synchronously on the thread of the task
//! that moves the bytes, and [`GpuDevice`] keeps one plain meter per
//! direction (transfers, bytes, busy time) fed through
//! `GpuDevice::record_transfer` / `GpuDevice::record_busy`. The K20X's
//! overlap is modelled in `titan-sim`, not here (EXPERIMENTS E32).
//!
//! Device memory is no longer a bytes-only meter: every reservation is
//! carved from a [`SubAllocator`] free list over `[0, capacity)`, so the
//! device can distinguish *capacity* exhaustion from *fragmentation*
//! (`frag_failures`), reject double-releases instead of wrapping `used`
//! to ~2^64 (`release_underflows`), and give the data warehouse real
//! block handles (`DeviceBlock`) whose drop is the one legal free.
//! Eviction/spill/re-upload traffic driven by the warehouse's LRU policy
//! is metered here too so [`DeviceCounters`] stays the one-stop snapshot.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use uintah_mem::{FitPolicy, SubAllocError, SubAllocator};

/// Errors from device operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GpuError {
    /// Allocation would exceed device global memory (the K20X 6 GB wall the
    /// level database exists to avoid).
    OutOfMemory {
        requested: usize,
        used: usize,
        capacity: usize,
    },
}

impl fmt::Display for GpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpuError::OutOfMemory {
                requested,
                used,
                capacity,
            } => write!(
                f,
                "device out of memory: requested {requested} B with {used}/{capacity} B in use"
            ),
        }
    }
}

impl std::error::Error for GpuError {}

/// PCIe direction — which of the device's two transfer meters a transfer
/// is charged to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Dir {
    /// Host→device: metered synchronously inside the uploading task.
    H2D,
    /// Device→host: metered synchronously inside the task that takes
    /// its output back (or the eviction that spills a victim).
    D2H,
}

/// Transfer count, bytes and occupancy of one PCIe direction. `busy_ns`
/// is wall time spent actually moving bytes (the take or spill memcpy for D2H,
/// the staging window for H2D).
#[derive(Debug, Default)]
struct Meter {
    transfers: AtomicU64,
    bytes: AtomicU64,
    busy_ns: AtomicU64,
}

/// One coherent snapshot of a device's counters, taken with
/// [`GpuDevice::counters`] — the one-stop replacement for the former
/// per-counter getters. Harness binaries print these tables directly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeviceCounters {
    /// Kernel launches.
    pub kernels: u64,
    /// Host→device bytes (synchronous uploads).
    pub h2d_bytes: u64,
    /// Host→device transfer count.
    pub h2d_transfers: u64,
    /// Device→host bytes (output takes and spills).
    pub d2h_bytes: u64,
    /// Device→host transfer count.
    pub d2h_transfers: u64,
    /// Host→device occupancy: nanoseconds spent moving bytes up (the
    /// staging window metered by the data warehouse).
    pub h2d_busy_ns: u64,
    /// Device→host occupancy: nanoseconds spent in the take and spill
    /// memcpys, measured around each on the thread that performed it.
    pub d2h_busy_ns: u64,
    /// Allocations rejected (capacity *or* fragmentation; the latter is
    /// also counted in `frag_failures`).
    pub alloc_failures: u64,
    /// Allocations that failed with free bytes to spare but no contiguous
    /// hole — visible only because the meter is a real free list now.
    pub frag_failures: u64,
    /// Releases of bytes the allocator has no live block for: the
    /// double-release that used to wrap `used` to ~2^64. Rejected and
    /// counted, meter untouched.
    pub release_underflows: u64,
    /// Warehouse entries evicted under memory pressure (LRU).
    pub evictions: u64,
    /// Device bytes recovered by those evictions.
    pub evicted_bytes: u64,
    /// Evicted patch variables spilled to host (level replicas are
    /// regenerable from the host warehouse and are dropped, not spilled).
    pub spills: u64,
    /// Bytes moved device→host by spills (also metered in `d2h_bytes`).
    pub spilled_bytes: u64,
    /// Spilled variables transparently re-uploaded on next access.
    pub reuploads: u64,
    /// Bytes moved host→device by re-uploads (also metered in `h2d_bytes`).
    pub reuploads_bytes: u64,
    /// Extents on the allocator free list at snapshot time (1 = fully
    /// coalesced).
    pub free_blocks: u64,
    /// Largest single free extent — the biggest reservation that can
    /// currently succeed.
    pub largest_free: u64,
    /// Bytes currently allocated.
    pub used: u64,
    /// High-water mark of device memory.
    pub peak: u64,
}

#[derive(Debug)]
struct DeviceInner {
    name: &'static str,
    capacity: usize,
    /// Mirrors of the allocator's used/peak so the hot read paths
    /// (`used()`, scheduler snapshots) stay lock-free.
    used: AtomicUsize,
    peak: AtomicUsize,
    /// The real meter: a coalescing free list over `[0, capacity)`.
    /// `align = 1` keeps `used` bit-exact with the sum of requested bytes,
    /// which the accounting tests and the divQ bit-identity gate rely on.
    suballoc: Mutex<SubAllocator>,
    h2d: Meter,
    d2h: Meter,
    kernels: AtomicU64,
    alloc_failures: AtomicU64,
    frag_failures: AtomicU64,
    release_underflows: AtomicU64,
    evictions: AtomicU64,
    evicted_bytes: AtomicU64,
    spills: AtomicU64,
    spilled_bytes: AtomicU64,
    reuploads: AtomicU64,
    reuploads_bytes: AtomicU64,
}

/// Bump an event counter and its byte total together.
fn count_bytes(events: &AtomicU64, total: &AtomicU64, bytes: usize) {
    events.fetch_add(1, Ordering::Relaxed);
    total.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// A simulated GPU. Cheap to clone (shared accounting).
#[derive(Clone, Debug)]
pub struct GpuDevice {
    inner: Arc<DeviceInner>,
}

/// Sentinel offset for zero-byte reservations, which never touch the
/// allocator (a zero-size `cudaMalloc` returns a unique pointer the
/// allocator need not track; here it is simply a no-op).
const ZERO_SENTINEL: u64 = u64::MAX;

/// An owned extent of device memory: offset + rounded size, freed back to
/// the device's [`SubAllocator`] exactly once, on drop. The data warehouse
/// holds one of these per [`DeviceVar`](crate::DeviceVar), which is what
/// makes the `used` meter immune to double-release by construction.
#[derive(Debug)]
pub(crate) struct DeviceBlock {
    device: GpuDevice,
    offset: u64,
    bytes: usize,
}

impl DeviceBlock {
    /// Reserved size in bytes.
    #[inline]
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }
}

impl Drop for DeviceBlock {
    fn drop(&mut self) {
        self.device.free_raw(self.offset, self.bytes);
    }
}

impl GpuDevice {
    /// A Titan-node K20X: 6 GB GDDR5.
    pub fn k20x() -> Self {
        Self::with_capacity("Tesla K20X", 6 * 1024 * 1024 * 1024)
    }

    pub fn with_capacity(name: &'static str, capacity: usize) -> Self {
        // Two-ended size-class split: blocks up to 16 KiB (level replicas,
        // scalar outputs — the long-lived pinned allocations) stack
        // top-down so the bottom of the arena stays contiguous for large
        // patch windows. Without the split, an oversubscribed capacity a
        // few times the largest request OOMs on fragmentation with most of
        // its bytes free, because pinned replicas land mid-arena between
        // evictable patch data.
        const SMALL_CLASS: u64 = 16 << 10;
        Self {
            inner: Arc::new(DeviceInner {
                name,
                capacity,
                used: AtomicUsize::new(0),
                peak: AtomicUsize::new(0),
                suballoc: Mutex::new(SubAllocator::with_small_class(
                    capacity as u64,
                    1,
                    FitPolicy::FirstFit,
                    SMALL_CLASS,
                )),
                h2d: Meter::default(),
                d2h: Meter::default(),
                kernels: AtomicU64::new(0),
                alloc_failures: AtomicU64::new(0),
                frag_failures: AtomicU64::new(0),
                release_underflows: AtomicU64::new(0),
                evictions: AtomicU64::new(0),
                evicted_bytes: AtomicU64::new(0),
                spills: AtomicU64::new(0),
                spilled_bytes: AtomicU64::new(0),
                reuploads: AtomicU64::new(0),
                reuploads_bytes: AtomicU64::new(0),
            }),
        }
    }

    #[inline]
    pub fn name(&self) -> &'static str {
        self.inner.name
    }

    #[inline]
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Bytes currently allocated on the device.
    pub fn used(&self) -> usize {
        self.inner.used.load(Ordering::Relaxed)
    }

    /// High-water mark of device memory.
    pub fn peak(&self) -> usize {
        self.inner.peak.load(Ordering::Relaxed)
    }

    /// Reserve `bytes` as an owned [`DeviceBlock`] carved from the device
    /// free list; its drop is the one legal free, so the meter is immune to
    /// double-release. Any failure — capacity, fragmentation, or a request
    /// so large the internal arithmetic would overflow — is a clean
    /// `OutOfMemory`, never a wrap.
    pub(crate) fn alloc_block(&self, bytes: usize) -> Result<DeviceBlock, GpuError> {
        let block = |offset| DeviceBlock {
            device: self.clone(),
            offset,
            bytes,
        };
        if bytes == 0 {
            return Ok(block(ZERO_SENTINEL));
        }
        let mut sa = self.inner.suballoc.lock().unwrap();
        match sa.alloc(bytes as u64) {
            Ok(offset) => {
                let used = sa.used() as usize;
                self.inner.used.store(used, Ordering::Relaxed);
                self.inner.peak.fetch_max(used, Ordering::Relaxed);
                Ok(block(offset))
            }
            Err(e) => {
                self.inner.alloc_failures.fetch_add(1, Ordering::Relaxed);
                if matches!(e, SubAllocError::Fragmentation { .. }) {
                    self.inner.frag_failures.fetch_add(1, Ordering::Relaxed);
                }
                Err(GpuError::OutOfMemory {
                    requested: bytes,
                    used: sa.used() as usize,
                    capacity: self.inner.capacity,
                })
            }
        }
    }

    /// Return the block at `offset` to the free list. An offset with no
    /// live block (double-free, stray release) is rejected and counted in
    /// `release_underflows`; the meter is untouched.
    pub(crate) fn free_raw(&self, offset: u64, bytes: usize) {
        if bytes == 0 && offset == ZERO_SENTINEL {
            return;
        }
        let mut sa = self.inner.suballoc.lock().unwrap();
        match sa.free(offset) {
            Ok(_) => self.inner.used.store(sa.used() as usize, Ordering::Relaxed),
            Err(()) => {
                self.inner
                    .release_underflows
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    #[inline]
    fn meter(&self, dir: Dir) -> &Meter {
        match dir {
            Dir::H2D => &self.inner.h2d,
            Dir::D2H => &self.inner.d2h,
        }
    }

    /// Meter one transfer of `bytes` in direction `dir`.
    pub(crate) fn record_transfer(&self, dir: Dir, bytes: usize) {
        let m = self.meter(dir);
        count_bytes(&m.transfers, &m.bytes, bytes);
    }

    /// Meter occupancy: wall time spent moving bytes in `dir` (the
    /// host-side staging window, a take's or a spill's memcpy).
    pub(crate) fn record_busy(&self, dir: Dir, busy: Duration) {
        self.meter(dir).busy_ns.fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Meter an LRU eviction that recovered `bytes` of device memory.
    pub(crate) fn record_eviction(&self, bytes: usize) {
        count_bytes(&self.inner.evictions, &self.inner.evicted_bytes, bytes);
    }

    /// Meter a spill-to-host of an evicted patch variable. The transfer
    /// itself is additionally metered via
    /// [`record_transfer`](Self::record_transfer) by the caller — this
    /// counts the *policy* event.
    pub(crate) fn record_spill(&self, bytes: usize) {
        count_bytes(&self.inner.spills, &self.inner.spilled_bytes, bytes);
    }

    /// Meter a transparent re-upload of a previously spilled variable.
    pub(crate) fn record_reupload(&self, bytes: usize) {
        count_bytes(&self.inner.reuploads, &self.inner.reuploads_bytes, bytes);
    }

    /// Count a kernel launch. The actual work runs on the calling host
    /// thread (concurrent kernels = concurrent patch tasks).
    pub fn launch_kernel(&self) {
        self.inner.kernels.fetch_add(1, Ordering::Relaxed);
    }

    /// Structural self-check: the free list's invariants hold and the
    /// lock-free `used` mirror agrees with the allocator. Used by the
    /// oversubscription gate to prove zero meter drift at exit.
    pub fn validate_allocator(&self) -> Result<(), String> {
        let sa = self.inner.suballoc.lock().unwrap();
        sa.check_invariants()?;
        let mirror = self.inner.used.load(Ordering::Relaxed) as u64;
        if mirror != sa.used() {
            return Err(format!(
                "used mirror {} disagrees with allocator {}",
                mirror,
                sa.used()
            ));
        }
        Ok(())
    }

    /// Snapshot every counter at once.
    pub fn counters(&self) -> DeviceCounters {
        let (free_blocks, largest_free) = {
            let sa = self.inner.suballoc.lock().unwrap();
            (sa.free_blocks() as u64, sa.largest_free())
        };
        let (h2d, d2h) = (&self.inner.h2d, &self.inner.d2h);
        DeviceCounters {
            kernels: self.inner.kernels.load(Ordering::Relaxed),
            h2d_bytes: h2d.bytes.load(Ordering::Relaxed),
            h2d_transfers: h2d.transfers.load(Ordering::Relaxed),
            d2h_bytes: d2h.bytes.load(Ordering::Relaxed),
            d2h_transfers: d2h.transfers.load(Ordering::Relaxed),
            h2d_busy_ns: h2d.busy_ns.load(Ordering::Relaxed),
            d2h_busy_ns: d2h.busy_ns.load(Ordering::Relaxed),
            alloc_failures: self.inner.alloc_failures.load(Ordering::Relaxed),
            frag_failures: self.inner.frag_failures.load(Ordering::Relaxed),
            release_underflows: self.inner.release_underflows.load(Ordering::Relaxed),
            evictions: self.inner.evictions.load(Ordering::Relaxed),
            evicted_bytes: self.inner.evicted_bytes.load(Ordering::Relaxed),
            spills: self.inner.spills.load(Ordering::Relaxed),
            spilled_bytes: self.inner.spilled_bytes.load(Ordering::Relaxed),
            reuploads: self.inner.reuploads.load(Ordering::Relaxed),
            reuploads_bytes: self.inner.reuploads_bytes.load(Ordering::Relaxed),
            free_blocks,
            largest_free,
            used: self.inner.used.load(Ordering::Relaxed) as u64,
            peak: self.inner.peak.load(Ordering::Relaxed) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k20x_has_6gb() {
        let d = GpuDevice::k20x();
        assert_eq!(d.capacity(), 6 * 1024 * 1024 * 1024);
        assert_eq!(d.used(), 0);
    }

    #[test]
    fn alloc_free_accounting() {
        let d = GpuDevice::with_capacity("test", 1000);
        let b = d.alloc_block(600).unwrap();
        assert_eq!(d.used(), 600);
        let err = d.alloc_block(500).unwrap_err();
        assert_eq!(
            err,
            GpuError::OutOfMemory {
                requested: 500,
                used: 600,
                capacity: 1000
            }
        );
        drop(b);
        assert_eq!(d.used(), 0);
        assert_eq!(d.peak(), 600);
        assert_eq!(d.counters().alloc_failures, 1);
        d.validate_allocator().unwrap();
    }

    #[test]
    fn unknown_offset_free_is_rejected_not_wrapped() {
        // Regression: release used to be an unchecked fetch_sub — a
        // double-release wrapped `used` to ~2^64 and every subsequent
        // allocation reported spurious OOM.
        let d = GpuDevice::with_capacity("test", 1000);
        let b = d.alloc_block(400).unwrap();
        let offset = b.offset;
        drop(b);
        assert_eq!(d.used(), 0);
        d.free_raw(offset, 400); // double-free: rejected, counted, meter intact
        assert_eq!(d.used(), 0, "used must not wrap");
        assert_eq!(d.counters().release_underflows, 1);
        d.free_raw(123, 77); // never-allocated offset: same treatment
        assert_eq!(d.counters().release_underflows, 2);
        // The meter still works after the bad frees.
        let b = d.alloc_block(1000).unwrap();
        assert_eq!(d.used(), 1000);
        drop(b);
        assert_eq!(d.used(), 0);
        d.validate_allocator().unwrap();
    }

    #[test]
    fn huge_request_fails_cleanly_instead_of_overflowing() {
        // Regression: the reserve path computed `used + bytes` unchecked — a
        // huge request wrapped past the capacity test.
        let d = GpuDevice::with_capacity("test", 1000);
        let _b = d.alloc_block(600).unwrap();
        let err = d.alloc_block(usize::MAX).unwrap_err();
        assert!(matches!(err, GpuError::OutOfMemory { requested, .. } if requested == usize::MAX));
        assert_eq!(d.used(), 600, "failed reserve must not touch the meter");
        assert_eq!(d.counters().alloc_failures, 1);
        d.validate_allocator().unwrap();
    }

    #[test]
    fn fragmentation_failures_are_distinguished() {
        let d = GpuDevice::with_capacity("test", 1000);
        // Carve four 250 B blocks, free the 1st and 3rd: 500 B free in two
        // 250 B holes.
        let blocks: Vec<DeviceBlock> = (0..4).map(|_| d.alloc_block(250).unwrap()).collect();
        let mut blocks = blocks;
        let b2 = blocks.remove(2);
        let b0 = blocks.remove(0);
        drop(b0);
        drop(b2);
        assert_eq!(d.used(), 500);
        let err = d.alloc_block(400).unwrap_err();
        assert!(matches!(err, GpuError::OutOfMemory { .. }));
        let c = d.counters();
        assert_eq!(c.alloc_failures, 1);
        assert_eq!(c.frag_failures, 1, "free bytes sufficed; the hole did not");
        assert_eq!(c.free_blocks, 2);
        assert_eq!(c.largest_free, 250);
        drop(blocks);
        assert_eq!(d.used(), 0);
        assert_eq!(d.counters().free_blocks, 1, "frees coalesce");
        d.validate_allocator().unwrap();
    }

    #[test]
    fn device_block_frees_exactly_once_on_drop() {
        let d = GpuDevice::with_capacity("test", 1000);
        let b = d.alloc_block(300).unwrap();
        assert_eq!(d.used(), 300);
        assert_eq!(b.bytes(), 300);
        drop(b);
        assert_eq!(d.used(), 0);
        assert_eq!(d.counters().release_underflows, 0);
        // Zero-byte blocks are sentinel-backed no-ops.
        let z = d.alloc_block(0).unwrap();
        assert_eq!(d.used(), 0);
        drop(z);
        assert_eq!(d.counters().release_underflows, 0);
        d.validate_allocator().unwrap();
    }

    #[test]
    fn copy_engines_are_per_direction() {
        let d = GpuDevice::k20x();
        d.record_transfer(Dir::H2D, 100);
        d.record_transfer(Dir::H2D, 50);
        d.record_transfer(Dir::D2H, 7);
        let c = d.counters();
        assert_eq!(c.h2d_transfers, 2);
        assert_eq!(c.h2d_bytes, 150);
        assert_eq!(c.d2h_transfers, 1);
        assert_eq!(c.d2h_bytes, 7);
    }

    #[test]
    fn counter_snapshot_is_complete() {
        let d = GpuDevice::with_capacity("test", 1000);
        let _b = d.alloc_block(300).unwrap();
        d.record_transfer(Dir::H2D, 300);
        d.launch_kernel();
        let c = d.counters();
        assert_eq!(
            c,
            DeviceCounters {
                kernels: 1,
                h2d_bytes: 300,
                h2d_transfers: 1,
                d2h_bytes: 0,
                d2h_transfers: 0,
                h2d_busy_ns: 0,
                d2h_busy_ns: 0,
                alloc_failures: 0,
                frag_failures: 0,
                release_underflows: 0,
                evictions: 0,
                evicted_bytes: 0,
                spills: 0,
                spilled_bytes: 0,
                reuploads: 0,
                reuploads_bytes: 0,
                free_blocks: 1,
                largest_free: 700,
                used: 300,
                peak: 300,
            }
        );
    }

    #[test]
    fn eviction_spill_reupload_counters_accumulate() {
        let d = GpuDevice::with_capacity("test", 1000);
        d.record_eviction(128);
        d.record_eviction(64);
        d.record_spill(128);
        d.record_reupload(128);
        let c = d.counters();
        assert_eq!(c.evictions, 2);
        assert_eq!(c.evicted_bytes, 192);
        assert_eq!(c.spills, 1);
        assert_eq!(c.spilled_bytes, 128);
        assert_eq!(c.reuploads, 1);
        assert_eq!(c.reuploads_bytes, 128);
    }

    #[test]
    fn busy_and_wait_helpers_accumulate() {
        let d = GpuDevice::k20x();
        d.record_busy(Dir::H2D, Duration::from_micros(5));
        d.record_busy(Dir::H2D, Duration::from_micros(7));
        d.record_busy(Dir::D2H, Duration::from_micros(3));
        let c = d.counters();
        assert_eq!(c.h2d_busy_ns, 12_000);
        assert_eq!(c.d2h_busy_ns, 3_000);
    }

    #[test]
    fn concurrent_reserve_never_exceeds_capacity() {
        let d = GpuDevice::with_capacity("test", 10_000);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let d = d.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        if let Ok(b) = d.alloc_block(100) {
                            assert!(d.used() <= d.capacity());
                            drop(b);
                        }
                    }
                });
            }
        });
        assert_eq!(d.used(), 0);
        assert!(d.peak() <= d.capacity());
        assert_eq!(d.counters().release_underflows, 0);
        d.validate_allocator().unwrap();
    }
}
