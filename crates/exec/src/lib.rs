//! Kokkos-style execution spaces — the paper's last future-work item.
//!
//! §VII: "Work is currently underway to address coprocessor architectures
//! … This work will leverage the Kokkos library to achieve performance
//! portability, requiring the extension of the Uintah runtime system to
//! support multi-threaded task execution."
//!
//! Kokkos' core idea is that a kernel is written once against an abstract
//! *execution space* and dispatched to a host or a device back-end. This
//! crate is the **mandatory kernel-dispatch layer** of the stack: every
//! cell-region hot loop (ray trace, DOM sweeps, restriction, boundary-flux
//! maps, the arches-lite energy RHS) runs through these entry points:
//!
//! * [`ExecSpace`] — `Serial` or `Device` (the simulated GPU: the same
//!   kernels, one metered kernel launch per dispatch);
//! * [`parallel_reduce`] — map-reduce over a region with a deterministic
//!   combination order (per-z-plane partials folded left to right);
//! * [`parallel_fill`] — produce a [`CcVariable`] by evaluating a kernel
//!   per cell (the common "compute a field" pattern);
//! * [`parallel_fill_runs`] — the same a run of consecutive cells at a
//!   time, for kernels that batch work across cells (the ray-trace solve
//!   marches one ray packet per run);
//! * [`parallel_map`] — a 1-D index range (Kokkos `RangePolicy`), used for
//!   work that is not cell-shaped, such as the DOM ordinate sweeps;
//! * [`ops`] — exec-dispatched AMR restriction operators over the
//!   per-cell kernels exported by `uintah-grid`.
//!
//! There is one level of host parallelism, as in the paper's Uintah: the
//! scheduler runs one task per worker thread, and a task's kernels run on
//! that worker. A dispatch therefore never fans out. It runs its body on
//! the calling thread, bare (`Serial`) or inside one metered launch
//! (`Device`), so a kernel's panic reaches the caller as it was raised.
//!
//! Determinism is a hard requirement inherited from the RMCRT solvers:
//! every entry point yields results that are bit-identical across
//! execution spaces. The `Device` back-end preserves this by executing the
//! identical code while metering kernel launches, invocation counts,
//! logical bytes and wall time into [`KernelStats`] — the numbers that
//! feed `ExecStats` and the `titan-sim` cost-model calibration. Device
//! *input staging* (H2D) is the GPU DataWarehouse's job and is metered
//! there; a dispatch itself never touches the PCIe counters, so
//! byte-accounting experiments (E4) see exactly the traffic the staging
//! layer creates.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use uintah_gpu::GpuDevice;
use uintah_grid::{CcVariable, IntVector, Region};

pub mod ops;

/// Aggregate kernel metering for one device execution space: launch
/// counts, kernel invocations (cells or indices dispatched), logical bytes
/// produced by fill kernels, and wall time inside dispatches.
///
/// Snapshots of this struct feed `uintah-runtime::ExecStats`, fold into
/// the per-device totals of `uintah-runtime`'s `CalibrationSnapshot`, and
/// through it drive the single `titan-sim` calibration path
/// (`MachineParams::from_snapshot`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Kernel launches (one per dispatch).
    pub launches: u64,
    /// Kernel invocations dispatched (cells for region entry points,
    /// indices for [`parallel_map`]).
    pub invocations: u64,
    /// Logical bytes written by fill kernels (output-field bytes; transfer
    /// bytes live on the device's per-direction transfer meters, not here).
    pub bytes_moved: u64,
    /// Wall time spent inside device dispatches, in nanoseconds.
    pub wall_ns: u64,
}

impl KernelStats {
    /// Wall time as a [`Duration`].
    pub fn wall(&self) -> Duration {
        Duration::from_nanos(self.wall_ns)
    }

    /// Fold another snapshot into this one (per-device stats rolling up
    /// into a fleet aggregate).
    pub fn accumulate(&mut self, other: &KernelStats) {
        self.launches += other.launches;
        self.invocations += other.invocations;
        self.bytes_moved += other.bytes_moved;
        self.wall_ns += other.wall_ns;
    }

    /// Sum a set of per-device snapshots into one aggregate.
    pub fn sum<'a>(stats: impl IntoIterator<Item = &'a KernelStats>) -> KernelStats {
        let mut total = KernelStats::default();
        for s in stats {
            total.accumulate(s);
        }
        total
    }
}

#[derive(Debug, Default)]
struct KernelStatsAccum {
    launches: AtomicU64,
    invocations: AtomicU64,
    bytes_moved: AtomicU64,
    wall_ns: AtomicU64,
}

impl KernelStatsAccum {
    fn record(&self, invocations: u64, bytes: u64, wall_ns: u64) {
        self.launches.fetch_add(1, Ordering::Relaxed);
        self.invocations.fetch_add(invocations, Ordering::Relaxed);
        self.bytes_moved.fetch_add(bytes, Ordering::Relaxed);
        self.wall_ns.fetch_add(wall_ns, Ordering::Relaxed);
    }

    fn snapshot(&self) -> KernelStats {
        KernelStats {
            launches: self.launches.load(Ordering::Relaxed),
            invocations: self.invocations.load(Ordering::Relaxed),
            bytes_moved: self.bytes_moved.load(Ordering::Relaxed),
            wall_ns: self.wall_ns.load(Ordering::Relaxed),
        }
    }
}

/// The device execution space: a handle on a simulated [`GpuDevice`], its
/// index within the rank's device fleet, plus a shared [`KernelStats`]
/// accumulator. Cheap to clone — clones share the device and the stats, so
/// a scheduler can hand one space per device to the GPU tasks of a
/// timestep and read one per-device snapshot afterwards.
#[derive(Clone, Debug)]
pub struct DeviceSpace {
    device: GpuDevice,
    index: usize,
    stats: Arc<KernelStatsAccum>,
}

impl DeviceSpace {
    /// A space over fleet device 0 (the single-GPU configuration).
    pub(crate) fn new(device: GpuDevice) -> Self {
        Self::with_index(device, 0)
    }

    /// A space over the fleet device at `index`, with a fresh stats
    /// accumulator (one per device per timestep in the scheduler).
    pub fn with_index(device: GpuDevice, index: usize) -> Self {
        Self {
            device,
            index,
            stats: Arc::new(KernelStatsAccum::default()),
        }
    }

    /// This space's device index within the rank's fleet.
    #[inline]
    pub fn index(&self) -> usize {
        self.index
    }

    /// Snapshot of everything dispatched through this space (and its
    /// clones) so far.
    pub fn kernel_stats(&self) -> KernelStats {
        self.stats.snapshot()
    }

    /// Execute one kernel launch: count it on the device, run the body on
    /// the calling thread — the simulated device executes kernels
    /// host-side; concurrency comes from concurrent patch tasks — and
    /// meter the dispatch.
    fn launch<R>(&self, invocations: u64, bytes: u64, body: impl FnOnce() -> R) -> R {
        self.device.launch_kernel();
        let t0 = Instant::now();
        let out = body();
        self.stats
            .record(invocations, bytes, t0.elapsed().as_nanos() as u64);
        out
    }
}

/// Where a kernel runs.
#[derive(Clone, Debug, Default)]
pub enum ExecSpace {
    /// The calling thread.
    #[default]
    Serial,
    /// The (simulated) GPU: the same kernels, one metered launch per
    /// dispatch, stats recorded into the space's [`KernelStats`].
    Device(DeviceSpace),
}

impl ExecSpace {
    /// The host space: `Serial` for every `n`. A task's host kernels run
    /// on the scheduler worker that runs the task, so a worker count here
    /// has nothing to choose; the constructor stays for callers that still
    /// name one.
    pub fn host(_n: usize) -> Self {
        ExecSpace::Serial
    }

    /// A fresh device space over `device`.
    pub fn device(device: GpuDevice) -> Self {
        ExecSpace::Device(DeviceSpace::new(device))
    }

    /// The fleet device index this space dispatches to; `None` for the
    /// host.
    pub fn device_index(&self) -> Option<usize> {
        match self {
            ExecSpace::Serial => None,
            ExecSpace::Device(d) => Some(d.index()),
        }
    }

    /// Kernel metering snapshot; `None` for the host (a host dispatch is
    /// not a kernel launch).
    pub fn kernel_stats(&self) -> Option<KernelStats> {
        match self {
            ExecSpace::Serial => None,
            ExecSpace::Device(d) => Some(d.kernel_stats()),
        }
    }
}

/// The one dispatch under every entry point, and the only place a space is
/// told apart: `body` runs on the calling thread, bare on `Serial` and
/// inside one metered launch of `invocations` kernel invocations writing
/// `bytes` on `Device`.
fn dispatch<R>(space: &ExecSpace, (invocations, bytes): (u64, u64), body: impl FnOnce() -> R) -> R {
    match space {
        ExecSpace::Serial => body(),
        ExecSpace::Device(d) => d.launch(invocations, bytes, body),
    }
}

/// Map-reduce over `region` with a *canonical fold structure*: a partial
/// accumulator is computed per z-plane (cell order within a plane is fixed)
/// and the plane partials are folded left-to-right. The structure does not
/// depend on the execution space, so results are **bit-identical** on the
/// host and on the device, even for non-associative combines
/// (floating-point sums), the property the RMCRT solvers require.
///
/// ```
/// use uintah_exec::{parallel_reduce, ExecSpace};
/// use uintah_gpu::GpuDevice;
/// use uintah_grid::Region;
///
/// let region = Region::cube(8);
/// let host = parallel_reduce(&ExecSpace::Serial, region, 0.0f64,
///     |c| (c.x + c.y + c.z) as f64 * 0.1, |a, b| a + b);
/// let device = ExecSpace::device(GpuDevice::with_capacity("doc", 1 << 20));
/// let dev = parallel_reduce(&device, region, 0.0f64,
///     |c| (c.x + c.y + c.z) as f64 * 0.1, |a, b| a + b);
/// assert_eq!(host.to_bits(), dev.to_bits()); // bit-identical
/// ```
pub fn parallel_reduce<T, M, C>(
    space: &ExecSpace,
    region: Region,
    identity: T,
    map: M,
    combine: C,
) -> T
where
    T: Clone,
    M: Fn(IntVector) -> T,
    C: Fn(T, T) -> T,
{
    if region.is_empty() {
        return identity;
    }
    let (lo, hi) = (region.lo(), region.hi());
    dispatch(space, (region.volume() as u64, 0), || {
        let mut acc = identity.clone();
        for z in lo.z..hi.z {
            let plane = Region::new(IntVector::new(lo.x, lo.y, z), IntVector::new(hi.x, hi.y, z + 1));
            let mut partial = identity.clone();
            for c in plane.cells() {
                partial = combine(partial, map(c));
            }
            acc = combine(acc, partial);
        }
        acc
    })
}

/// Evaluate `kernel` at every cell of `region` into a new variable: the
/// case of [`parallel_fill_runs`] whose kernel maps each cell on its own,
/// so the one run is the whole region.
pub fn parallel_fill<T, F>(space: &ExecSpace, region: Region, kernel: F) -> CcVariable<T>
where
    T: Copy + Default,
    F: Fn(IntVector) -> T,
{
    parallel_fill_runs(space, region, region.volume(), |cells, out| {
        for (cell, slot) in cells.zip(out) {
            *slot = kernel(cell);
        }
    })
    .0
}

/// The cells of one run of [`parallel_fill_runs`]: consecutive cells of the
/// dispatched region in canonical x-fastest order, one per output slot.
#[derive(Clone, Debug)]
pub struct RunCells {
    next: IntVector,
    /// The x and y bounds of the block the run lies in: a row ends at
    /// `hi[0]`, a plane at `hi[1]`.
    lo: [i32; 2],
    hi: [i32; 2],
    left: usize,
}

impl RunCells {
    /// Cells `first..first + len` of `block`, in its x-fastest order (also
    /// how a caller hands a run kernel cells outside a dispatch).
    pub fn new(block: Region, first: usize, len: usize) -> Self {
        assert!(
            len <= block.volume().saturating_sub(first),
            "cells {first}.. ({len} of them) run past {block:?}"
        );
        let (lo, hi) = (block.lo(), block.hi());
        Self {
            next: if len == 0 { lo } else { block.from_linear(first) },
            lo: [lo.x, lo.y],
            hi: [hi.x, hi.y],
            left: len,
        }
    }
}

impl Iterator for RunCells {
    type Item = IntVector;

    #[inline]
    fn next(&mut self) -> Option<IntVector> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let cell = self.next;
        self.next.x += 1;
        if self.next.x == self.hi[0] {
            self.next.x = self.lo[0];
            self.next.y += 1;
            if self.next.y == self.hi[1] {
                self.next.y = self.lo[1];
                self.next.z += 1;
            }
        }
        Some(cell)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for RunCells {}

/// Fill a new variable over `region` a *run* at a time: `kernel` gets up to
/// `run` consecutive cells of the whole region (x-fastest) and their output
/// slots, and returns a per-run value; the values come back in run order.
/// A kernel that amortises set-up over several cells (one ray packet for a
/// run of cells, say) sees the same runs on every space, so its results are
/// bit-identical across spaces.
///
/// A `Device` dispatch is one launch metered as one invocation per *cell*
/// and the output field's bytes, as [`parallel_fill`] is: the run length
/// is how the kernel batches its work, not what the device executes.
pub fn parallel_fill_runs<T, S, F>(
    space: &ExecSpace,
    region: Region,
    run: usize,
    kernel: F,
) -> (CcVariable<T>, Vec<S>)
where
    T: Copy + Default,
    F: Fn(RunCells, &mut [T]) -> S,
{
    let mut out = CcVariable::new(region);
    if region.is_empty() {
        return (out, Vec::new());
    }
    let run = run.max(1);
    let cells = region.volume() as u64;
    let slots = out.as_mut_slice();
    let per_run = dispatch(space, (cells, cells * std::mem::size_of::<T>() as u64), || {
        let runs = slots.chunks_mut(run).enumerate();
        runs.map(|(i, part)| kernel(RunCells::new(region, i * run, part.len()), part)).collect()
    });
    (out, per_run)
}

/// Map a 1-D index range through `f` (Kokkos `RangePolicy<0, n>`): the
/// entry point for work that is not cell-shaped, e.g. DOM ordinate sweeps.
/// Results come back in index order, so any subsequent fold the caller
/// does is canonical by construction.
pub fn parallel_map<T, F>(space: &ExecSpace, n: usize, f: F) -> Vec<T>
where
    F: Fn(usize) -> T,
{
    if n == 0 {
        return Vec::new();
    }
    dispatch(space, (n as u64, 0), || (0..n).map(f).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn all_spaces() -> Vec<ExecSpace> {
        vec![
            ExecSpace::Serial,
            ExecSpace::device(GpuDevice::with_capacity("test", 1 << 30)),
        ]
    }

    #[test]
    fn fill_visits_every_cell_once() {
        for space in all_spaces() {
            let region = Region::cube(8);
            let counts: Vec<AtomicUsize> =
                (0..region.volume()).map(|_| AtomicUsize::new(0)).collect();
            let _ = parallel_fill(&space, region, |c| {
                counts[region.linear_index(c)].fetch_add(1, Ordering::Relaxed);
                0u8
            });
            assert!(
                counts.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                "{space:?} missed or duplicated cells"
            );
        }
    }

    #[test]
    fn reduce_is_bit_identical_across_spaces() {
        let region = Region::new(IntVector::new(-3, 0, 2), IntVector::new(5, 7, 11));
        // A float map whose sum depends on association order if planes were
        // combined in any other order.
        let map = |c: IntVector| ((c.x * 37 + c.y * 11 + c.z) as f64).sin() * 1e3;
        let serial = parallel_reduce(&ExecSpace::Serial, region, 0.0f64, map, |a, b| a + b);
        let dev = parallel_reduce(
            &ExecSpace::device(GpuDevice::with_capacity("test", 1 << 20)),
            region,
            0.0f64,
            map,
            |a, b| a + b,
        );
        assert_eq!(serial.to_bits(), dev.to_bits(), "Device diverged");
    }

    #[test]
    fn fill_matches_serial_fill() {
        let region = Region::cube(9);
        let f = |c: IntVector| (c.x + 100 * c.y + 10_000 * c.z) as f64 * 0.1;
        let serial = parallel_fill(&ExecSpace::Serial, region, f);
        let dev = parallel_fill(
            &ExecSpace::device(GpuDevice::with_capacity("test", 1 << 20)),
            region,
            f,
        );
        assert_eq!(serial, dev);
    }

    /// Runs cut the region into blocks of consecutive cells: every cell
    /// once, in its own output slot, runs no longer than asked, per-run
    /// values in run order, and the device metered per cell, not per run.
    #[test]
    fn fill_runs_cover_every_cell_in_run_order() {
        let region = Region::new(IntVector::new(-2, 1, 0), IntVector::new(3, 4, 7));
        for space in all_spaces() {
            for run in [1usize, 2, 7, 15, 16, 1000] {
                let (out, runs) = parallel_fill_runs(&space, region, run, |cells, out| {
                    let cells: Vec<IntVector> = cells.collect();
                    assert_eq!(cells.len(), out.len(), "{space:?} run {run}");
                    assert!(!out.is_empty() && out.len() <= run);
                    for (c, slot) in cells.iter().zip(out.iter_mut()) {
                        *slot = region.linear_index(*c);
                    }
                    (region.linear_index(cells[0]), cells.len())
                });
                let want: Vec<usize> = (0..region.volume()).collect();
                assert_eq!(out.as_slice(), &want[..], "{space:?} run {run}");
                let mut next = 0;
                for &(first, len) in &runs {
                    assert_eq!(first, next, "{space:?} run {run}: runs out of order");
                    next += len;
                }
                assert_eq!(next, region.volume());
            }
        }
        let device = GpuDevice::with_capacity("test", 1 << 20);
        let space = ExecSpace::device(device.clone());
        let _ = parallel_fill_runs(&space, region, 16, |_, out: &mut [f64]| out.fill(1.0));
        let ks = space.kernel_stats().expect("device space has stats");
        assert_eq!((ks.launches, ks.invocations), (1, region.volume() as u64));
        assert_eq!(ks.bytes_moved, 8 * region.volume() as u64);
        assert_eq!(device.counters().kernels, 1);
    }

    #[test]
    fn max_reduce() {
        let region = Region::cube(6);
        let m = parallel_reduce(
            &ExecSpace::Serial,
            region,
            i64::MIN,
            |c| (c.x * c.y * c.z) as i64,
            i64::max,
        );
        assert_eq!(m, 5 * 5 * 5);
    }

    #[test]
    fn map_is_order_preserving_on_every_space() {
        for space in all_spaces() {
            for n in [0usize, 1, 5, 17] {
                let out = parallel_map(&space, n, |i| i * i);
                assert_eq!(out, (0..n).map(|i| i * i).collect::<Vec<_>>(), "{space:?}");
            }
        }
    }

    #[test]
    fn degenerate_and_thin_regions() {
        let thin = Region::new(IntVector::ZERO, IntVector::new(4, 4, 1));
        for space in all_spaces() {
            let sum = parallel_reduce(&space, thin, 0usize, |_| 1usize, |a, b| a + b);
            assert_eq!(sum, 16, "{space:?}");
            let count = AtomicUsize::new(0);
            let _ = parallel_fill(&space, thin, |_| {
                count.fetch_add(1, Ordering::Relaxed);
                0u8
            });
            assert_eq!(count.load(Ordering::Relaxed), 16, "{space:?}");
        }
    }

    #[test]
    fn zero_and_negative_extent_regions_dispatch_nothing() {
        // Regression (satellite): a zero- or negative-extent region must
        // dispatch zero kernel invocations on every space — explicitly,
        // not via downstream clamping — and must not record a device
        // kernel launch.
        let degenerate = [
            Region::new(IntVector::ZERO, IntVector::ZERO),
            Region::new(IntVector::ZERO, IntVector::new(4, 4, 0)),
            Region::new(IntVector::ZERO, IntVector::new(0, 4, 4)),
            Region::new(IntVector::splat(3), IntVector::splat(-3)),
            Region::new(IntVector::new(0, 0, 5), IntVector::new(8, 8, 2)),
        ];
        for region in degenerate {
            let device = GpuDevice::with_capacity("test", 1 << 20);
            let spaces = [ExecSpace::Serial, ExecSpace::device(device.clone())];
            for space in &spaces {
                let count = AtomicUsize::new(0);
                let _ = parallel_map(space, 0, |_| count.fetch_add(1, Ordering::Relaxed));
                assert_eq!(count.load(Ordering::Relaxed), 0, "{space:?} {region:?}");
                let sum = parallel_reduce(space, region, 0usize, |_| 1usize, |a, b| a + b);
                assert_eq!(sum, 0);
                let filled = parallel_fill(space, region, |_| 1.0f64);
                assert_eq!(filled.len(), 0);
                let (filled, runs) = parallel_fill_runs(space, region, 4, |_, _: &mut [f64]| 1u8);
                assert_eq!((filled.len(), runs.len()), (0, 0));
            }
            assert_eq!(
                device.counters().kernels,
                0,
                "degenerate dispatch must not launch kernels"
            );
        }
    }

    #[test]
    fn device_dispatch_meters_kernel_stats() {
        let device = GpuDevice::with_capacity("test", 1 << 20);
        let space = ExecSpace::device(device.clone());
        let region = Region::cube(4);
        let _ = parallel_fill(&space, region, |c| (c.x + c.y + c.z) as f64);
        let _ = parallel_reduce(&space, region, 0u8, |_| 0, |a, _| a);
        let _ = parallel_reduce(&space, region, 0.0f64, |_| 1.0, |a, b| a + b);
        let _ = parallel_map(&space, 10, |i| i);
        let ks = space.kernel_stats().expect("device space has stats");
        assert_eq!(ks.launches, 4);
        assert_eq!(ks.invocations, 3 * 64 + 10);
        assert_eq!(ks.bytes_moved, 64 * 8, "fill output bytes only");
        // One launch per dispatch is also what the device counted.
        assert_eq!(device.counters().kernels, 4);
        // The host space has no kernel stats.
        assert!(ExecSpace::Serial.kernel_stats().is_none());
    }

    #[test]
    fn cloned_device_spaces_share_stats() {
        let space = DeviceSpace::new(GpuDevice::with_capacity("test", 1 << 20));
        let clone = ExecSpace::Device(space.clone());
        let _ = parallel_fill(&clone, Region::cube(2), |_| 0u8);
        assert_eq!(space.kernel_stats().launches, 1);
        assert_eq!(space.kernel_stats().invocations, 8);
    }

    #[test]
    fn kernel_launches_are_per_device_not_per_space() {
        // Launches are counted on the device, kernel stats on the space:
        // clones of one space — and distinct spaces over the same device —
        // add to one device count, while spaces over different devices
        // count independently.
        let dev_a = GpuDevice::with_capacity("a", 1 << 20);
        let dev_b = GpuDevice::with_capacity("b", 1 << 20);
        let space_a = DeviceSpace::with_index(dev_a.clone(), 0);
        let space_a2 = space_a.clone();
        let space_b = DeviceSpace::with_index(dev_b.clone(), 1);
        assert_eq!(space_a.index(), 0);
        assert_eq!(space_a2.index(), 0, "clone keeps its device index");
        assert_eq!(space_b.index(), 1);
        // Three launches on device A, two of them via the clone.
        let exec_a = ExecSpace::Device(space_a);
        let exec_a2 = ExecSpace::Device(space_a2);
        let fill = |space: &ExecSpace| parallel_fill(space, Region::cube(2), |_| 0u8);
        fill(&exec_a);
        fill(&exec_a2);
        fill(&exec_a2);
        assert_eq!(dev_a.counters().kernels, 3, "device A counted every launch");
        // Device B's count is untouched by A's launches.
        let exec_b = ExecSpace::Device(space_b.clone());
        fill(&exec_b);
        assert_eq!(dev_b.counters().kernels, 1, "device B counted independently");
        assert_eq!(exec_b.device_index(), Some(1));
        assert_eq!(ExecSpace::Serial.device_index(), None);
        // Stats stayed per-space: A's accumulator saw 3 launches, B's 1.
        assert_eq!(exec_a.kernel_stats().unwrap().launches, 3);
        assert_eq!(space_b.kernel_stats().launches, 1);
    }

    #[test]
    fn kernel_stats_accumulate_and_sum() {
        let a = KernelStats {
            launches: 2,
            invocations: 100,
            bytes_moved: 800,
            wall_ns: 50,
        };
        let b = KernelStats {
            launches: 3,
            invocations: 50,
            bytes_moved: 0,
            wall_ns: 25,
        };
        let mut acc = a;
        acc.accumulate(&b);
        assert_eq!(acc.launches, 5);
        assert_eq!(acc.invocations, 150);
        assert_eq!(acc.bytes_moved, 800);
        assert_eq!(acc.wall_ns, 75);
        assert_eq!(KernelStats::sum([&a, &b]), acc);
        assert_eq!(KernelStats::sum([]), KernelStats::default());
    }

    /// A kernel's panic reaches the caller with its own message, from every
    /// entry point on every space.
    #[test]
    fn kernel_panic_keeps_its_message() {
        let message = |call: &dyn Fn()| {
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(call)).expect_err("the kernel panics");
            let text = payload.downcast_ref::<&str>().copied();
            text.or_else(|| payload.downcast_ref::<String>().map(String::as_str)).map(str::to_owned)
        };
        let boom = Some("kernel boom".to_owned());
        let region = Region::cube(4);
        for space in all_spaces() {
            let fill = message(&|| {
                let _ = parallel_fill(&space, region, |_| -> u8 { panic!("kernel boom") });
            });
            assert_eq!(fill, boom, "parallel_fill on {space:?}");
            let runs = message(&|| {
                let _ = parallel_fill_runs(&space, region, 8, |_, _: &mut [u8]| -> u8 { panic!("kernel boom") });
            });
            assert_eq!(runs, boom, "parallel_fill_runs on {space:?}");
            let reduce = message(&|| {
                let _ = parallel_reduce(&space, region, 0u8, |_| -> u8 { panic!("kernel boom") }, |a, _| a);
            });
            assert_eq!(reduce, boom, "parallel_reduce on {space:?}");
            let map = message(&|| {
                let _ = parallel_map(&space, 9, |_| -> u8 { panic!("kernel boom") });
            });
            assert_eq!(map, boom, "parallel_map on {space:?}");
        }
    }
}
