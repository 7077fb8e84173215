//! The simulated GPU device: memory capacity, copy engines, streams.
//!
//! The K20X has one copy engine per PCIe direction, which is what lets a
//! device→host drain of one patch overlap the kernels (and host→device
//! staging) of others. [`GpuDevice`] models each direction as a *timeline*:
//! a FIFO of transfers with measured per-engine occupancy (`busy_ns`), an
//! in-flight count, and a real worker thread that drains posted transfers
//! asynchronously. Both directions are the *same* mechanism — one
//! `CopyEngine` instantiated per [`Dir`] — driven through
//! [`GpuDevice::submit`], which either posts a transfer to the engine
//! thread or runs it inline with identical bookkeeping ([`Mode`]). Every
//! in-flight transfer is tagged with the [`Stream`] it was issued on,
//! mirroring how Uintah pins one CUDA stream per resident patch task.
//!
//! Device memory is no longer a bytes-only meter: every reservation is
//! carved from a [`SubAllocator`] free list over `[0, capacity)`, so the
//! device can distinguish *capacity* exhaustion from *fragmentation*
//! (`frag_failures`), reject double-releases instead of wrapping `used`
//! to ~2^64 (`release_underflows`), and give the data warehouse real
//! block handles ([`DeviceBlock`]) whose drop is the one legal free.
//! Eviction/spill/re-upload traffic driven by the warehouse's LRU policy
//! is metered here too so [`DeviceCounters`] stays the one-stop snapshot.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

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

/// PCIe direction — which of the device's two copy engines a transfer uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Dir {
    /// Host→device: copy engine 0.
    H2D,
    /// Device→host: copy engine 1.
    D2H,
}

/// How [`GpuDevice::submit`] executes a transfer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Queue the transfer on the engine's worker thread and return at once.
    Posted,
    /// Run the transfer on the caller's thread before returning — the
    /// synchronous fallback, with the posted path's exact bookkeeping.
    Inline,
}

/// A transfer job executed on a copy-engine timeline: the memcpy plus
/// completion signalling, boxed by [`GpuDevice::submit`].
type TransferJob = (Stream, Box<dyn FnOnce() + Send + 'static>);

/// The meters and stream tags of one copy engine — the part its worker
/// thread shares with the device.
///
/// `busy_ns` is the engine's measured *occupancy*: wall time it spent
/// actually moving bytes (the drain memcpy for D2H, the staging window for
/// H2D). `inflight` counts transfers submitted to the timeline but not yet
/// retired. `wait_ns` / `overlap_ns` are the consumer-side view: stall
/// materializing posted transfers, and engine time hidden behind other work.
#[derive(Debug, Default)]
struct Timeline {
    transfers: AtomicU64,
    bytes: AtomicU64,
    busy_ns: AtomicU64,
    inflight: AtomicU64,
    wait_ns: AtomicU64,
    overlap_ns: AtomicU64,
    /// Streams of transfers currently in flight — one entry per transfer
    /// (stream ids recycle round-robin, so an id may appear more than once).
    streams: Mutex<Vec<Stream>>,
}

impl Timeline {
    /// Execute one transfer and retire it: occupancy metered around `job`,
    /// then exactly this transfer's stream tag (ids recycle, so one
    /// occurrence, not all) and its in-flight count.
    fn run(&self, stream: Stream, job: impl FnOnce()) {
        let t0 = Instant::now();
        job();
        self.busy_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let mut streams = self.streams.lock().unwrap();
        if let Some(i) = streams.iter().position(|s| *s == stream) {
            streams.remove(i);
        }
        drop(streams);
        self.inflight.fetch_sub(1, Ordering::Release);
    }
}

/// One copy engine: a [`Timeline`] plus its FIFO worker thread, spawned
/// lazily on the first posted transfer. Jobs execute in post order (one
/// engine serializes its transfers, exactly like the hardware). The worker
/// holds only the timeline Arc — holding the device would keep the sender
/// alive forever — so it exits when the last device handle drops and the
/// channel closes. A device holds one engine per [`Dir`].
#[derive(Debug, Default)]
struct CopyEngine {
    line: Arc<Timeline>,
    queue: Mutex<Option<mpsc::Sender<TransferJob>>>,
}

impl CopyEngine {
    fn post(&self, dir: Dir, job: TransferJob) {
        let mut q = self.queue.lock().unwrap();
        let tx = q.get_or_insert_with(|| {
            let (tx, rx) = mpsc::channel::<TransferJob>();
            let line = Arc::clone(&self.line);
            let name = match dir {
                Dir::H2D => "h2d-copy-engine",
                Dir::D2H => "d2h-copy-engine",
            };
            std::thread::Builder::new()
                .name(name.into())
                .spawn(move || {
                    while let Ok((stream, job)) = rx.recv() {
                        line.run(stream, job);
                    }
                })
                .expect("spawn copy-engine worker");
            tx
        });
        tx.send(job).expect("copy-engine worker alive while device handles exist");
    }
}

/// A CUDA-stream-like handle. Operations issued on different streams may
/// interleave; the Uintah infrastructure assigns each GPU patch task its own
/// stream (round-robin here via [`GpuDevice::next_stream`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct Stream(pub u32);

/// One coherent snapshot of a device's counters, taken with
/// [`GpuDevice::counters`] — the one-stop replacement for the former
/// per-counter getters. Harness binaries print these tables directly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeviceCounters {
    /// Kernel launches.
    pub kernels: u64,
    /// Host→device bytes through copy engine 0.
    pub h2d_bytes: u64,
    /// Host→device transfer count.
    pub h2d_transfers: u64,
    /// Device→host bytes through copy engine 1.
    pub d2h_bytes: u64,
    /// Device→host transfer count.
    pub d2h_transfers: u64,
    /// Host→device engine occupancy: nanoseconds copy engine 0 spent
    /// moving bytes (the staging window metered by the data warehouse).
    pub h2d_busy_ns: u64,
    /// Device→host engine occupancy: nanoseconds copy engine 1 spent
    /// draining transfers (measured around the drain memcpy, on whichever
    /// thread performed it).
    pub d2h_busy_ns: u64,
    /// H2D transfers posted but not yet staged at snapshot time.
    pub h2d_inflight: u64,
    /// D2H transfers posted but not yet drained at snapshot time.
    pub d2h_inflight: u64,
    /// Nanoseconds consumers stalled materializing posted uploads: in
    /// async mode the residual wait at first use, in the synchronous
    /// fallback the full inline upload wall (paid at post time).
    pub h2d_wait_ns: u64,
    /// Nanoseconds of posted-upload engine time hidden behind other work
    /// (`burst - wait`, summed over materialized uploads; zero by
    /// construction in the synchronous fallback).
    pub h2d_overlap_ns: u64,
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
    /// The two copy engines, indexed by [`Dir`].
    engines: [CopyEngine; 2],
    kernels: AtomicU64,
    num_streams: u32,
    next_stream: AtomicU64,
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
pub struct DeviceBlock {
    device: GpuDevice,
    offset: u64,
    bytes: usize,
}

impl DeviceBlock {
    /// The extent's offset in device memory (sentinel for zero-byte blocks).
    #[inline]
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Reserved size in bytes.
    #[inline]
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The device this block lives on.
    #[inline]
    pub fn device(&self) -> &GpuDevice {
        &self.device
    }
}

impl Drop for DeviceBlock {
    fn drop(&mut self) {
        self.device.free_raw(self.offset, self.bytes);
    }
}

impl GpuDevice {
    /// A Titan-node K20X: 6 GB GDDR5, two copy engines, 16 streams.
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
                engines: Default::default(),
                kernels: AtomicU64::new(0),
                num_streams: 16,
                next_stream: AtomicU64::new(0),
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

    /// Bytes not currently allocated (`capacity - used`). An upper bound
    /// on what a new tenant could reserve — fragmentation may make any
    /// single allocation smaller; see [`Self::largest_free_block`].
    pub fn available(&self) -> usize {
        self.inner.capacity.saturating_sub(self.used())
    }

    /// The largest single allocation the device heap can satisfy right
    /// now (the suballocator's biggest contiguous hole). Admission control
    /// reads this alongside [`Self::available`]: a job whose biggest
    /// window exceeds it would fail with `Fragmentation` even though the
    /// byte total fits.
    pub fn largest_free_block(&self) -> usize {
        self.inner.suballoc.lock().unwrap().largest_free() as usize
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
    fn line(&self, dir: Dir) -> &Timeline {
        &self.inner.engines[dir as usize].line
    }

    /// Meter one transfer of `bytes` on `dir`'s copy engine.
    pub fn record_transfer(&self, dir: Dir, bytes: usize) {
        let line = self.line(dir);
        count_bytes(&line.transfers, &line.bytes, bytes);
    }

    /// Meter engine occupancy directly: wall time `dir`'s engine spent
    /// moving bytes outside [`submit`](Self::submit) (the host-side staging
    /// window, a spill memcpy under the store lock).
    pub fn record_busy(&self, dir: Dir, busy: Duration) {
        self.line(dir).busy_ns.fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Meter the consumer side of a submitted transfer: `wait` is how long
    /// a first use blocked (posted mode) or the full transfer wall paid at
    /// submit (inline mode); `overlap` is the engine time that had already
    /// landed behind other work when the consumer asked.
    pub fn record_wait(&self, dir: Dir, wait: Duration, overlap: Duration) {
        let line = self.line(dir);
        line.wait_ns.fetch_add(wait.as_nanos() as u64, Ordering::Relaxed);
        line.overlap_ns.fetch_add(overlap.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Meter an LRU eviction that recovered `bytes` of device memory.
    pub fn record_eviction(&self, bytes: usize) {
        count_bytes(&self.inner.evictions, &self.inner.evicted_bytes, bytes);
    }

    /// Meter a spill-to-host of an evicted patch variable. The transfer
    /// itself is additionally metered via
    /// [`record_transfer`](Self::record_transfer) by the caller — this
    /// counts the *policy* event.
    pub fn record_spill(&self, bytes: usize) {
        count_bytes(&self.inner.spills, &self.inner.spilled_bytes, bytes);
    }

    /// Meter a transparent re-upload of a previously spilled variable.
    pub fn record_reupload(&self, bytes: usize) {
        count_bytes(&self.inner.reuploads, &self.inner.reuploads_bytes, bytes);
    }

    /// Submit a transfer of `bytes` to `dir`'s copy-engine timeline and
    /// return the stream it was tagged with. `job` is the memcpy plus
    /// completion signalling. In [`Mode::Posted`] the engine worker (a real
    /// thread) executes it in FIFO order and the caller returns
    /// immediately — exactly the overlap the two-copy-engine K20X provides:
    /// the scheduler keeps launching kernels while a drain proceeds, and
    /// next-step prefetch uploads land while current-step CPU tasks run.
    /// In [`Mode::Inline`] the same timeline step runs on the calling
    /// thread before returning. Either way the transfer is metered, counted
    /// in flight, stream-tagged for its duration and timed into `busy_ns`,
    /// so [`sync`](Self::sync) / [`inflight_streams`](Self::inflight_streams)
    /// accounting is mode-independent.
    pub fn submit(&self, dir: Dir, bytes: usize, mode: Mode, job: impl FnOnce() + Send + 'static) -> Stream {
        self.record_transfer(dir, bytes);
        let engine = &self.inner.engines[dir as usize];
        engine.line.inflight.fetch_add(1, Ordering::Relaxed);
        let stream = self.next_stream();
        engine.line.streams.lock().unwrap().push(stream);
        match mode {
            Mode::Posted => engine.post(dir, (stream, Box::new(job))),
            Mode::Inline => engine.line.run(stream, job),
        }
        stream
    }

    /// Streams with transfers currently in flight on `dir`'s engine
    /// (snapshot; the engine drains them in FIFO order).
    pub fn inflight_streams(&self, dir: Dir) -> Vec<Stream> {
        self.line(dir).streams.lock().unwrap().clone()
    }

    /// Block until `dir`'s engine timeline is empty — the
    /// `cudaDeviceSynchronize` analogue. The scheduler syncs D2H at the end
    /// of a timestep so counters are coherent at step boundaries; past an
    /// H2D sync every posted upload has landed (installed or cancellable),
    /// so regrid/eviction can re-key residency safely.
    pub fn sync(&self, dir: Dir) {
        while self.line(dir).inflight.load(Ordering::Acquire) != 0 {
            std::thread::yield_now();
        }
    }

    /// Record a kernel launch and return its stream. The actual work runs on
    /// the calling host thread (concurrent kernels = concurrent patch tasks).
    pub fn launch_kernel(&self) -> Stream {
        self.inner.kernels.fetch_add(1, Ordering::Relaxed);
        self.next_stream()
    }

    /// Round-robin stream assignment (one stream per in-flight patch task).
    pub fn next_stream(&self) -> Stream {
        let s = self.inner.next_stream.fetch_add(1, Ordering::Relaxed);
        Stream((s % self.inner.num_streams as u64) as u32)
    }

    /// Number of hardware stream queues.
    #[inline]
    pub fn num_streams(&self) -> u32 {
        self.inner.num_streams
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
        let (h2d, d2h) = (self.line(Dir::H2D), self.line(Dir::D2H));
        DeviceCounters {
            kernels: self.inner.kernels.load(Ordering::Relaxed),
            h2d_bytes: h2d.bytes.load(Ordering::Relaxed),
            h2d_transfers: h2d.transfers.load(Ordering::Relaxed),
            d2h_bytes: d2h.bytes.load(Ordering::Relaxed),
            d2h_transfers: d2h.transfers.load(Ordering::Relaxed),
            h2d_busy_ns: h2d.busy_ns.load(Ordering::Relaxed),
            d2h_busy_ns: d2h.busy_ns.load(Ordering::Relaxed),
            h2d_inflight: h2d.inflight.load(Ordering::Relaxed),
            d2h_inflight: d2h.inflight.load(Ordering::Relaxed),
            alloc_failures: self.inner.alloc_failures.load(Ordering::Relaxed),
            frag_failures: self.inner.frag_failures.load(Ordering::Relaxed),
            release_underflows: self.inner.release_underflows.load(Ordering::Relaxed),
            evictions: self.inner.evictions.load(Ordering::Relaxed),
            evicted_bytes: self.inner.evicted_bytes.load(Ordering::Relaxed),
            spills: self.inner.spills.load(Ordering::Relaxed),
            spilled_bytes: self.inner.spilled_bytes.load(Ordering::Relaxed),
            reuploads: self.inner.reuploads.load(Ordering::Relaxed),
            reuploads_bytes: self.inner.reuploads_bytes.load(Ordering::Relaxed),
            h2d_wait_ns: h2d.wait_ns.load(Ordering::Relaxed),
            h2d_overlap_ns: h2d.overlap_ns.load(Ordering::Relaxed),
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
        let offset = b.offset();
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
                h2d_inflight: 0,
                d2h_inflight: 0,
                alloc_failures: 0,
                frag_failures: 0,
                release_underflows: 0,
                evictions: 0,
                evicted_bytes: 0,
                spills: 0,
                spilled_bytes: 0,
                reuploads: 0,
                reuploads_bytes: 0,
                h2d_wait_ns: 0,
                h2d_overlap_ns: 0,
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

    const DIRS: [Dir; 2] = [Dir::D2H, Dir::H2D];

    /// `dir`'s `(transfers, bytes, busy_ns, inflight)` out of the flat snapshot.
    fn engine_counters(d: &GpuDevice, dir: Dir) -> (u64, u64, u64, u64) {
        let c = d.counters();
        match dir {
            Dir::H2D => (c.h2d_transfers, c.h2d_bytes, c.h2d_busy_ns, c.h2d_inflight),
            Dir::D2H => (c.d2h_transfers, c.d2h_bytes, c.d2h_busy_ns, c.d2h_inflight),
        }
    }

    #[test]
    fn inline_submit_matches_posted_bookkeeping() {
        // Regression: the sync-fallback path used to burn a stream without
        // tagging it in flight, so inflight accounting depended on the
        // async mode. Inline must mirror the posted path exactly.
        for dir in DIRS {
            for mode in [Mode::Inline, Mode::Posted] {
                let d = GpuDevice::k20x();
                let (tx, rx) = mpsc::channel();
                let seen = d.clone();
                let s = d.submit(dir, 4096, mode, move || {
                    std::thread::sleep(Duration::from_millis(1));
                    let inflight = engine_counters(&seen, dir).3;
                    tx.send((inflight, seen.inflight_streams(dir))).unwrap();
                });
                // While the job runs the transfer is counted and tagged.
                assert_eq!(rx.recv().unwrap(), (1, vec![s]), "{dir:?} {mode:?}");
                d.sync(dir); // must not hang: inline transfers fully retire
                let (transfers, bytes, busy_ns, inflight) = engine_counters(&d, dir);
                assert_eq!((transfers, bytes, inflight), (1, 4096, 0), "{dir:?} {mode:?}");
                assert!(busy_ns >= 1_000_000, "busy_ns {busy_ns} too small");
                assert!(d.inflight_streams(dir).is_empty());
            }
        }
    }

    #[test]
    fn inline_submit_retires_one_tag_when_stream_ids_recycle() {
        for dir in DIRS {
            let d = GpuDevice::k20x();
            let outer = d.clone();
            // Nest a second inline transfer inside the first, 16 streams
            // later, so both are in flight under the same stream id.
            let s0 = d.submit(dir, 10, Mode::Inline, move || {
                for _ in 0..15 {
                    outer.next_stream();
                }
                let inner = outer.clone();
                let s1 = outer.submit(dir, 10, Mode::Inline, move || {
                    assert_eq!(inner.inflight_streams(dir).len(), 2);
                });
                assert_eq!(s1, Stream(0), "16-stream round robin recycled the id");
                assert_eq!(outer.inflight_streams(dir), vec![s1], "only one tag retired");
            });
            assert_eq!(s0, Stream(0));
            assert!(d.inflight_streams(dir).is_empty());
        }
    }

    #[test]
    fn posted_transfer_drains_on_the_engine_thread() {
        for (dir, name) in [(Dir::D2H, "d2h-copy-engine"), (Dir::H2D, "h2d-copy-engine")] {
            let d = GpuDevice::k20x();
            let (tx, rx) = mpsc::channel();
            d.submit(dir, 4096, Mode::Posted, move || {
                tx.send(std::thread::current().name().map(String::from)).unwrap();
            });
            assert_eq!(rx.recv().unwrap().as_deref(), Some(name));
            d.sync(dir);
        }
    }

    #[test]
    fn inflight_transfers_are_stream_tagged_and_fifo() {
        for dir in DIRS {
            let d = GpuDevice::k20x();
            let gate = Arc::new(Mutex::new(()));
            let hold = gate.lock().unwrap();
            // First job blocks the engine; the rest queue behind it.
            let order = Arc::new(Mutex::new(Vec::new()));
            let mut streams = Vec::new();
            for i in 0..3 {
                let gate = Arc::clone(&gate);
                let order = Arc::clone(&order);
                streams.push(d.submit(dir, 100, Mode::Posted, move || {
                    if i == 0 {
                        drop(gate.lock().unwrap());
                    }
                    order.lock().unwrap().push(i);
                }));
            }
            // All three posted transfers are tagged in flight while the
            // engine is stalled on the first.
            assert_eq!(d.inflight_streams(dir), streams);
            assert_eq!(engine_counters(&d, dir).3, 3);
            drop(hold);
            d.sync(dir);
            assert_eq!(*order.lock().unwrap(), vec![0, 1, 2], "engine is FIFO");
            assert!(d.inflight_streams(dir).is_empty());
            let (transfers, bytes, _, inflight) = engine_counters(&d, dir);
            assert_eq!((transfers, bytes, inflight), (3, 300, 0));
        }
    }

    #[test]
    fn engine_worker_exits_when_last_device_handle_drops() {
        for dir in DIRS {
            let d = GpuDevice::with_capacity("test", 1000);
            let (tx, rx) = mpsc::channel();
            d.submit(dir, 10, Mode::Posted, move || {
                tx.send(std::thread::current().id()).unwrap();
            });
            let tid = rx.recv().unwrap();
            d.sync(dir);
            drop(d);
            // The worker held only the timeline Arc; with the sender gone
            // its recv errors and it exits. We can't join a detached thread,
            // so assert indirectly: a fresh device spawns a fresh worker
            // with a different thread id.
            let d2 = GpuDevice::with_capacity("test2", 1000);
            let (tx2, rx2) = mpsc::channel();
            d2.submit(dir, 10, Mode::Posted, move || {
                tx2.send(std::thread::current().id()).unwrap();
            });
            assert_ne!(rx2.recv().unwrap(), tid);
            d2.sync(dir);
        }
    }

    #[test]
    fn the_two_engines_are_independent_timelines() {
        // Two copy engines: a stalled upload must not delay drains (and
        // vice versa) — the K20X duplex-overlap property the prefetch
        // pipeline depends on.
        for (stalled, free) in [(Dir::H2D, Dir::D2H), (Dir::D2H, Dir::H2D)] {
            let d = GpuDevice::k20x();
            let gate = Arc::new(Mutex::new(()));
            let hold = gate.lock().unwrap();
            {
                let gate = Arc::clone(&gate);
                d.submit(stalled, 64, Mode::Posted, move || {
                    drop(gate.lock().unwrap());
                });
            }
            let (tx, rx) = mpsc::channel();
            d.submit(free, 64, Mode::Posted, move || {
                tx.send(()).unwrap();
            });
            // The free engine completes while the other is still stalled.
            rx.recv_timeout(Duration::from_secs(5))
                .expect("one engine blocked behind the other's stalled transfer");
            assert_eq!(engine_counters(&d, stalled).3, 1);
            drop(hold);
            d.sync(stalled);
            d.sync(free);
            assert_eq!(engine_counters(&d, stalled).3, 0);
            assert_eq!(engine_counters(&d, free).3, 0);
        }
    }

    #[test]
    fn busy_and_wait_helpers_accumulate() {
        let d = GpuDevice::k20x();
        d.record_busy(Dir::H2D, Duration::from_micros(5));
        d.record_busy(Dir::H2D, Duration::from_micros(7));
        d.record_busy(Dir::D2H, Duration::from_micros(3));
        d.record_wait(Dir::H2D, Duration::from_micros(4), Duration::from_micros(2));
        let c = d.counters();
        assert_eq!(c.h2d_busy_ns, 12_000);
        assert_eq!(c.d2h_busy_ns, 3_000);
        assert_eq!((c.h2d_wait_ns, c.h2d_overlap_ns), (4_000, 2_000));
    }

    #[test]
    fn streams_round_robin() {
        let d = GpuDevice::k20x();
        let s0 = d.next_stream();
        let s1 = d.next_stream();
        assert_ne!(s0, s1);
        // 16 streams wrap around.
        for _ in 0..14 {
            d.next_stream();
        }
        assert_eq!(d.next_stream(), s0);
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
