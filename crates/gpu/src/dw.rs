//! The GPU DataWarehouse with its mesh-level database (contribution ii).
//!
//! "Our solution … has been achieved by a significant extension of the
//! Uintah GPU DataWarehouse system to support a level database that stores a
//! single copy of shared global radiative properties (per-mesh level …).
//! Our solution has effectively minimized PCIe transfers and ultimately
//! allowed multiple mesh patches, each with GPU tasks, to run concurrently
//! on the GPU while sharing data from the coarse radiation mesh."
//!
//! With the level DB **enabled**, the first task to need a per-level
//! variable pays one H2D transfer and one device allocation; all concurrent
//! patch tasks share that copy. **Disabled** (the E4 ablation = the old
//! behaviour), every requesting task gets a private copy, multiplying both
//! PCIe traffic and device memory by the number of resident patch tasks —
//! which is exactly what blew the 6 GB K20X budget in the paper.
//!
//! The warehouse is **fleet-aware**: it wraps a [`DeviceFleet`] and keeps
//! one patch database and one level database *per device* — the paper's
//! level DB is "one shared replica per GPU", so a 4-device rank holds at
//! most 4 replicas of each coarse field, never one per patch task. Patch
//! variables route to their home device through [`GpuDataWarehouse::
//! device_for_patch`] (the fleet's sticky patch-id hash), and level
//! staging targets an explicit device via the `_on` variants. A fleet of
//! one behaves exactly like a single device.
//!
//! **Oversubscription.** Every reservation is a real `DeviceBlock` carved
//! from the device's free-list sub-allocator, and when an allocation fails
//! the warehouse *evicts* under an LRU policy instead of surfacing OOM:
//! the least-recently-used database entry with no outstanding task handle
//! is dropped. Level replicas are regenerable from host data and are simply
//! released (the next `ensure_level_fresh*` re-uploads); patch variables are
//! *spilled* to a host-side map over the D2H engine and transparently
//! re-uploaded on the next [`GpuDataWarehouse::get_patch`]. Entries whose
//! `Arc<DeviceVar>` is held by a running kernel are never victims, so a
//! task's staged replicas stay resident for exactly the kernel's lifetime —
//! which is why eviction is invisible to divQ (bit-identical to a
//! non-evicting run) and only visible in the eviction/spill/re-upload
//! counters and in wall time.
//!
//! **Transfers.** A variable reaches a device in exactly one way:
//! synchronously inside [`GpuDataWarehouse::put_patch`] /
//! [`GpuDataWarehouse::alloc_patch_output`] /
//! [`GpuDataWarehouse::ensure_level_fresh_on`] / the spill re-upload in
//! [`GpuDataWarehouse::get_patch`], metered
//! on the home device's H2D meter. The way back is *posted*:
//! [`GpuDataWarehouse::take_patch_to_host_async`] submits the drain to the
//! device's D2H copy engine (`GpuDevice::submit`) and returns a
//! [`PendingD2H`] completion handle; the drain keeps its device block
//! reserved until the copy lands, and the engine retires the transfer
//! before it signals the handle.

use crate::device::{Completion, DeviceBlock, DeviceCounters, Dir, GpuDevice, GpuError};
use crate::fleet::{DeviceFleet, DeviceId};
use parking_lot::Mutex as StateMutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use uintah_grid::{LevelIndex, PatchId, VarLabel};

/// Device-resident variable payload (same representation as host fields;
/// "device memory" is the accounting in [`GpuDevice`]).
pub(crate) type DeviceData = uintah_grid::FieldData;

/// A device-resident variable: owns a `DeviceBlock` extent, so its device
/// memory is freed exactly once — when the last shared handle drops.
#[derive(Debug)]
pub struct DeviceVar {
    data: DeviceData,
    block: DeviceBlock,
}

impl DeviceVar {
    #[inline]
    pub fn data(&self) -> &DeviceData {
        &self.data
    }

    #[inline]
    pub(crate) fn size_bytes(&self) -> usize {
        self.block.bytes()
    }
}

type PatchKey = (VarLabel, PatchId);
type LevelKey = (VarLabel, LevelIndex);

/// Completion handle for an asynchronous device→host drain posted by
/// [`GpuDataWarehouse::take_patch_to_host_async`].
///
/// The transfer (the PCIe memcpy — here a real `clone` of the bytes)
/// proceeds on the engine thread while the poster keeps running; the host
/// data materializes on first use via [`Self::wait`] /
/// [`Self::wait_timed`]. Device memory for the variable is released when
/// the drain completes, not when the handle is created — exactly the
/// lifetime a `cudaMemcpyAsync` imposes. A wait returns only once the
/// engine has metered the transfer and dropped it from `d2h_inflight`.
pub struct PendingD2H {
    shared: Arc<Completion>,
}

impl std::fmt::Debug for PendingD2H {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingD2H").finish_non_exhaustive()
    }
}

impl PendingD2H {
    /// Block until the transfer lands and return the host data.
    pub fn wait(self) -> DeviceData {
        self.wait_timed().0
    }

    /// Block until the transfer lands; returns `(data, busy, blocked)`
    /// where `busy` is the wall time the copy engine spent moving the
    /// bytes (the time it metered into `d2h_busy_ns`) and `blocked` is how
    /// long *this call* stalled the consumer. A transfer that finished
    /// before first use reports `blocked ≈ 0`, so `busy - blocked` is the
    /// wall time hidden behind other work — the overlap the copy engine
    /// exists to win.
    pub fn wait_timed(self) -> (DeviceData, Duration, Duration) {
        let t0 = Instant::now();
        let (data, busy) = self.shared.wait();
        (data, busy, t0.elapsed())
    }
}

/// A patch-database slot: the device-resident variable plus its LRU stamp.
struct PatchEntry {
    var: Arc<DeviceVar>,
    last_use: u64,
}

/// A level-database slot: the device-resident replica, the timestep epoch
/// at which it was last validated against host data, and its LRU stamp.
struct LevelEntry {
    var: Arc<DeviceVar>,
    epoch: u64,
    last_use: u64,
}

/// An eviction victim chosen by [`GpuDataWarehouse::evict_one`].
enum Victim {
    Patch(PatchKey),
    Level(LevelKey),
}

/// One device's mutable store: patch database, level database, and the
/// host-side spill map for evicted patch variables. A single mutex guards
/// all three so eviction — which scans both databases and moves bytes into
/// the spill map — is atomic with respect to every lookup and insert.
#[derive(Default)]
struct StoreState {
    patch_db: HashMap<PatchKey, PatchEntry>,
    level_db: HashMap<LevelKey, LevelEntry>,
    /// Evicted patch variables, host-resident until re-upload or drop.
    spill: HashMap<PatchKey, DeviceData>,
    /// LRU clock: bumped on every access; entries stamp their `last_use`
    /// from it.
    clock: u64,
}

impl StoreState {
    #[inline]
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Register `var` in the patch database, stamped most-recently-used.
    fn install_patch(&mut self, key: PatchKey, var: &Arc<DeviceVar>) {
        let last_use = self.tick();
        let var = Arc::clone(var);
        self.patch_db.insert(key, PatchEntry { var, last_use });
    }

    /// Register `var` in the level database as validated at `epoch`.
    fn install_level(&mut self, key: LevelKey, var: &Arc<DeviceVar>, epoch: u64, last_use: u64) {
        let var = Arc::clone(var);
        self.level_db.insert(key, LevelEntry { var, epoch, last_use });
    }
}

/// Fleet-aware variable store: per-device patch databases + per-device
/// level databases, with sticky patch→device routing and LRU
/// eviction/host-spill under memory pressure.
///
/// ```
/// use uintah_gpu::{GpuDataWarehouse, GpuDevice};
/// use uintah_grid::{CcVariable, FieldData, Region, VarLabel};
///
/// const ABSKG: VarLabel = VarLabel::new("abskg", 1);
/// let dw = GpuDataWarehouse::new(GpuDevice::k20x());
/// // Two concurrent patch tasks requesting the same coarse replica share
/// // one upload and one device copy (the level database).
/// let a = dw.ensure_level_fresh_on(0, ABSKG, 0, || {
///     FieldData::F64(CcVariable::filled(Region::cube(8), 0.9))
/// }).unwrap();
/// let b = dw.ensure_level_fresh_on(0, ABSKG, 0, || unreachable!("already resident")).unwrap();
/// assert!(std::sync::Arc::ptr_eq(&a, &b));
/// assert_eq!(dw.device().counters().h2d_transfers, 1);
/// ```
pub struct GpuDataWarehouse {
    fleet: DeviceFleet,
    /// One store per device; the owning [`GpuDevice`] lives in the fleet
    /// at the same index.
    stores: Vec<StateMutex<StoreState>>,
    level_db_enabled: bool,
    /// Timestep epoch: bumped by [`Self::begin_timestep`]. Level-DB entries
    /// stamped with an older epoch are *stale* — still device-resident, but
    /// requiring revalidation (diff + incremental re-upload) before reuse
    /// via [`Self::ensure_level_fresh`]. One epoch governs every device.
    epoch: AtomicU64,
}

impl GpuDataWarehouse {
    /// A single-device warehouse with every feature on: level database,
    /// the async D2H copy engine, LRU eviction (the paper's Titan
    /// configuration).
    pub fn new(device: GpuDevice) -> Self {
        Self::with_fleet_full(DeviceFleet::single(device), true, true, true, true)
    }

    /// Fleet construction: one patch DB + one level DB per device.
    /// `level_db_enabled: false` is the E4 ablation. `_async_d2h`,
    /// `_async_h2d` and `_eviction` are accepted and select nothing: drains
    /// are always posted to the D2H copy engine, uploads have one
    /// synchronous path, memory pressure always evicts LRU entries, and
    /// the arguments stay only because the benchmark (`perf_report/`,
    /// frozen by the benchmark contract) passes five arguments.
    pub fn with_fleet_full(
        fleet: DeviceFleet,
        level_db_enabled: bool,
        _async_d2h: bool,
        _async_h2d: bool,
        _eviction: bool,
    ) -> Self {
        let stores = (0..fleet.num_devices()).map(|_| Default::default()).collect();
        Self {
            fleet,
            stores,
            level_db_enabled,
            epoch: AtomicU64::new(0),
        }
    }

    /// Advance the timestep epoch. Level-DB entries persist on their
    /// devices but become stale: the next [`Self::ensure_level_fresh`]
    /// revalidates them against host data instead of trusting last step's
    /// bytes.
    pub fn begin_timestep(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// Current timestep epoch.
    #[inline]
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Device 0 — the whole fleet for single-device warehouses.
    #[inline]
    pub fn device(&self) -> &GpuDevice {
        self.fleet.device(0)
    }

    /// The device at a fleet index.
    #[inline]
    pub fn device_at(&self, id: DeviceId) -> &GpuDevice {
        self.fleet.device(id)
    }

    /// The underlying fleet.
    #[inline]
    pub fn fleet(&self) -> &DeviceFleet {
        &self.fleet
    }

    /// Number of devices in the fleet.
    #[inline]
    pub fn num_devices(&self) -> usize {
        self.fleet.num_devices()
    }

    /// The home device for a patch: the fleet's deterministic sticky
    /// hash. Every patch op on this warehouse routes through here, so
    /// kernel-side puts and the D2H drain of the same patch always land on
    /// the same device.
    pub fn device_for_patch(&self, patch: PatchId) -> DeviceId {
        self.fleet.sticky_device(patch)
    }

    /// Evict the best victim from `st`'s databases: the least-recently-used
    /// entry with no handle outside the database (a task still holding the
    /// `Arc` pins the bytes — evicting under a running kernel would be a
    /// stale serve). Candidates rank worst-victim-first by oldest
    /// `last_use`, then patch entries before level replicas (a spilled
    /// patch round-trips its exact bytes; a dropped replica costs a full
    /// re-upload), then a deterministic key tiebreak so concurrent runs pick
    /// identical victims. Patch victims spill their bytes to the host map
    /// over the D2H engine; level victims are dropped outright (regenerable
    /// from host data at the next `ensure_level_fresh*`). Returns false when
    /// nothing is evictable.
    fn evict_one(device: &GpuDevice, st: &mut StoreState) -> bool {
        let patches = st
            .patch_db
            .iter()
            .map(|(k, e)| (&e.var, (e.last_use, 0u8, k.0.id(), k.1 .0 as u64), Victim::Patch(*k)));
        let levels = st
            .level_db
            .iter()
            .map(|(k, e)| (&e.var, (e.last_use, 1u8, k.0.id(), k.1 as u64), Victim::Level(*k)));
        let victim = patches
            .chain(levels)
            .filter(|(var, _, _)| Arc::strong_count(var) == 1 && var.size_bytes() > 0)
            .min_by_key(|&(_, rank, _)| rank)
            .map(|(_, _, victim)| victim);
        match victim {
            Some(Victim::Patch(key)) => {
                let e = st.patch_db.remove(&key).expect("victim chosen under lock");
                Self::spill_to_host(device, st, key, &e.var);
            }
            Some(Victim::Level(key)) => {
                let e = st.level_db.remove(&key).expect("victim chosen under lock");
                device.record_eviction(e.var.size_bytes());
            }
            None => return false,
        }
        true
    }

    /// Spill an evicted patch variable to the host map: the bytes cross
    /// PCIe device→host on the D2H engine (the clone is the drain memcpy);
    /// the device copy drops with `var`'s last handle.
    fn spill_to_host(device: &GpuDevice, st: &mut StoreState, key: PatchKey, var: &DeviceVar) {
        let bytes = var.size_bytes();
        device.record_transfer(Dir::D2H, bytes);
        let t0 = Instant::now();
        let data = var.data().clone();
        device.record_busy(Dir::D2H, t0.elapsed());
        device.record_spill(bytes);
        device.record_eviction(bytes);
        st.spill.insert(key, data);
    }

    /// Carve `bytes` from `dev`'s sub-allocator, evicting LRU entries and
    /// retrying on failure. Each eviction frees
    /// a nonzero extent, so the loop terminates: either the allocation
    /// succeeds or nothing evictable remains. Before surfacing that error,
    /// one escalation: drain the D2H engine and retry — posted drains, this
    /// warehouse's or another tenant's on a shared fleet, pin their source
    /// blocks until the copy lands, and under oversubscription
    /// those transients are routinely the mid-arena blocks whose release
    /// re-coalesces a hole big enough for the request (the simulated
    /// equivalent of the sync-then-retry dance real CUDA apps do on OOM).
    fn alloc_with_evict(
        &self,
        dev: DeviceId,
        st: &mut StoreState,
        bytes: usize,
    ) -> Result<DeviceBlock, GpuError> {
        let device = self.fleet.device(dev);
        let mut drained = false;
        loop {
            match device.alloc_block(bytes) {
                Ok(b) => return Ok(b),
                Err(e) => {
                    if Self::evict_one(device, st) {
                        continue;
                    }
                    if !drained && device.counters().d2h_inflight != 0 {
                        // Safe under the store lock: drain jobs touch only
                        // the allocator mutex and their own completion slots,
                        // never this store's state.
                        device.sync();
                        drained = true;
                        continue;
                    }
                    return Err(e);
                }
            }
        }
    }

    /// Upload `data` to `dev` under an already-held store lock: reserve (with
    /// eviction), meter the H2D transfer, wrap in a shared handle.
    fn upload_locked(
        &self,
        dev: DeviceId,
        st: &mut StoreState,
        data: DeviceData,
    ) -> Result<Arc<DeviceVar>, GpuError> {
        let bytes = data.size_bytes();
        let block = self.alloc_with_evict(dev, st, bytes)?;
        self.fleet.device(dev).record_transfer(Dir::H2D, bytes);
        Ok(Arc::new(DeviceVar { data, block }))
    }

    fn upload_on(&self, dev: DeviceId, data: DeviceData) -> Result<Arc<DeviceVar>, GpuError> {
        let mut st = self.stores[dev].lock();
        self.upload_locked(dev, &mut st, data)
    }

    /// Materialize host data through `producer`, charging the wall time to
    /// the target device's H2D occupancy: the host-side staging/
    /// revalidation window is what occupies the upload path in this model.
    fn produce_timed_on(&self, dev: DeviceId, producer: impl FnOnce() -> DeviceData) -> DeviceData {
        let t0 = Instant::now();
        let data = producer();
        self.fleet.device(dev).record_busy(Dir::H2D, t0.elapsed());
        data
    }

    /// Allocate a kernel *output* variable on the patch's home device (no
    /// host→device transfer: the data is produced on the GPU).
    pub fn alloc_patch_output(
        &self,
        label: VarLabel,
        patch: PatchId,
        data: DeviceData,
    ) -> Result<Arc<DeviceVar>, GpuError> {
        let dev = self.device_for_patch(patch);
        let mut st = self.stores[dev].lock();
        st.spill.remove(&(label, patch));
        let block = self.alloc_with_evict(dev, &mut st, data.size_bytes())?;
        let var = Arc::new(DeviceVar { data, block });
        st.install_patch((label, patch), &var);
        Ok(var)
    }

    /// Copy a per-patch variable host→device and register it on the
    /// patch's home device.
    pub fn put_patch(
        &self,
        label: VarLabel,
        patch: PatchId,
        data: DeviceData,
    ) -> Result<Arc<DeviceVar>, GpuError> {
        let dev = self.device_for_patch(patch);
        let mut st = self.stores[dev].lock();
        // Fresh data supersedes any spilled copy of this variable.
        st.spill.remove(&(label, patch));
        let var = self.upload_locked(dev, &mut st, data)?;
        st.install_patch((label, patch), &var);
        Ok(var)
    }

    /// Device-side handle for a per-patch variable. A variable evicted to
    /// the host spill map is transparently re-uploaded (metered as an H2D
    /// transfer and counted as a re-upload); `None` means the variable is
    /// neither resident nor spilled — or re-upload failed because even
    /// after eviction nothing fits, in which case the spilled copy is kept.
    pub fn get_patch(&self, label: VarLabel, patch: PatchId) -> Option<Arc<DeviceVar>> {
        let dev = self.device_for_patch(patch);
        let device = self.fleet.device(dev);
        let key = (label, patch);
        let mut st = self.stores[dev].lock();
        let clock = st.tick();
        if let Some(e) = st.patch_db.get_mut(&key) {
            e.last_use = clock;
            return Some(Arc::clone(&e.var));
        }
        // Transparent re-upload from the host spill map.
        let data = st.spill.remove(&key)?;
        let bytes = data.size_bytes();
        let block = match self.alloc_with_evict(dev, &mut st, bytes) {
            Ok(b) => b,
            Err(_) => {
                st.spill.insert(key, data);
                return None;
            }
        };
        device.record_transfer(Dir::H2D, bytes);
        device.record_reupload(bytes);
        let var = Arc::new(DeviceVar { data, block });
        st.install_patch(key, &var);
        Some(var)
    }

    /// Post the device→host copy of a per-patch variable to its home
    /// device's D2H copy engine and return a [`PendingD2H`] completion
    /// handle (the task-output path: e.g. `divQ` after the RMCRT kernel);
    /// the entry is removed from the patch DB immediately (the task is done
    /// with it) but its device memory stays reserved until the drain
    /// completes. The drain — the actual memcpy of the bytes — runs on that
    /// device's engine thread, overlapping whatever the scheduler executes
    /// next (including kernels and drains on *other* devices); the first
    /// consumer to `wait()` blocks only for the part of the drain not
    /// already hidden.
    ///
    /// `None` when the variable is not resident. A task that holds its
    /// output's handle until the drain is posted never hits that: a held
    /// entry is never an LRU victim.
    pub fn take_patch_to_host_async(&self, label: VarLabel, patch: PatchId) -> Option<PendingD2H> {
        let dev = self.device_for_patch(patch);
        let var = self.stores[dev].lock().patch_db.remove(&(label, patch))?.var;
        let shared = self.fleet.device(dev).submit(var.size_bytes(), move || {
            let data = var.data().clone();
            // Device memory is released here, when the copy finishes — not
            // at post time.
            drop(var);
            data
        });
        Some(PendingD2H { shared })
    }

    /// Drop a per-patch input without a device→host transfer (inputs are
    /// discarded after the kernel; only outputs cross PCIe back). Clears
    /// any spilled copy too.
    pub fn drop_patch(&self, label: VarLabel, patch: PatchId) {
        let dev = self.device_for_patch(patch);
        let mut st = self.stores[dev].lock();
        st.patch_db.remove(&(label, patch));
        st.spill.remove(&(label, patch));
    }

    /// [`Self::ensure_level_fresh_on`] on device 0.
    pub fn ensure_level_fresh(
        &self,
        label: VarLabel,
        level: LevelIndex,
        producer: impl FnOnce() -> DeviceData,
    ) -> Result<Arc<DeviceVar>, GpuError> {
        self.ensure_level_fresh_on(0, label, level, producer)
    }

    /// Obtain the shared per-level variable *on a specific device*: the
    /// level database's one residency path. `producer` materializes the
    /// host-side data (e.g. the coarsened radiative properties) and runs
    /// only when an upload or a revalidation is needed. A replica persisted
    /// from an earlier timestep is *revalidated* instead of blindly shared.
    ///
    /// * Entry validated this epoch → share it, zero PCIe traffic, and the
    ///   producer is never invoked. The store mutex is held across the
    ///   check and the upload, so concurrent tasks pay one upload.
    /// * Stale entry → invoke the producer and diff against the resident
    ///   bytes ([`DeviceData::diff_bytes`](uintah_grid::FieldData::diff_bytes)).
    ///   Unchanged data re-stamps the epoch with **no transfer**; changed
    ///   data is re-uploaded metering only the changed bytes (the
    ///   incremental-update model of §III-C: the coarse radiative properties
    ///   barely move between radiation solves).
    /// * No entry (including one evicted under memory pressure) → full
    ///   upload.
    ///
    /// Each device revalidates independently: a replica fresh on device 0
    /// says nothing about device 1's copy. With the level DB disabled (E4
    /// ablation) every call uploads a private copy — the redundant-copy
    /// behaviour the paper eliminated.
    pub fn ensure_level_fresh_on(
        &self,
        dev: DeviceId,
        label: VarLabel,
        level: LevelIndex,
        producer: impl FnOnce() -> DeviceData,
    ) -> Result<Arc<DeviceVar>, GpuError> {
        if !self.level_db_enabled {
            return self.upload_on(dev, self.produce_timed_on(dev, producer));
        }
        let now = self.epoch();
        let key = (label, level);
        let device = self.fleet.device(dev);
        let mut st = self.stores[dev].lock();
        let clock = st.tick();
        if let Some(e) = st.level_db.get_mut(&key).filter(|e| e.epoch == now) {
            e.last_use = clock;
            return Ok(Arc::clone(&e.var));
        }
        let host = self.produce_timed_on(dev, producer);
        if let Some(var) = st.level_db.get(&key).map(|e| Arc::clone(&e.var)) {
            // Stale resident replica: revalidate against host data.
            let changed = var.data().diff_bytes(&host);
            let same_size = host.size_bytes() == var.size_bytes();
            // Drop the probe handle so the DB entry can observe a unique
            // Arc (the in-place condition) under the held lock.
            drop(var);
            let e = st.level_db.get_mut(&key).expect("entry present: lock held");
            if changed == 0 {
                e.epoch = now;
                e.last_use = clock;
                return Ok(Arc::clone(&e.var));
            }
            if let Some(v) = Arc::get_mut(&mut e.var).filter(|_| same_size) {
                // Overwrite in place: this DB holds the only handle, so the
                // update happens device-side and only the changed bytes
                // cross PCIe.
                device.record_transfer(Dir::H2D, changed);
                v.data = host;
                e.epoch = now;
                e.last_use = clock;
                return Ok(Arc::clone(&e.var));
            }
            // Replace: concurrent holders keep the old bytes alive until
            // they drop, so the *whole* new buffer crosses PCIe into a fresh
            // allocation. The upload reserves first — an OOM here must leave
            // the counters and the stale epoch untouched — then meters the
            // full replacement buffer, not just the diff. (Eviction may
            // reclaim the unreferenced old entry itself, which is fine: it
            // is superseded by the install below.)
        }
        let var = self.upload_locked(dev, &mut st, host)?;
        st.install_level(key, &var, now, clock);
        Ok(var)
    }

    /// Look up a level variable on a device without uploading (ignores
    /// staleness).
    pub fn get_level_on(
        &self,
        dev: DeviceId,
        label: VarLabel,
        level: LevelIndex,
    ) -> Option<Arc<DeviceVar>> {
        let st = self.stores[dev].lock();
        st.level_db.get(&(label, level)).map(|e| Arc::clone(&e.var))
    }

    /// Drop every per-level entry on every device (end of radiation
    /// timestep).
    pub fn clear_level_db(&self) {
        for s in &self.stores {
            s.lock().level_db.clear();
        }
    }

    /// Drop every per-patch entry on every device, including host-spilled
    /// copies.
    pub fn clear_patch_db(&self) {
        for s in &self.stores {
            let mut st = s.lock();
            st.patch_db.clear();
            st.spill.clear();
        }
    }

    /// Block until every device's D2H copy engine is empty, including
    /// drains other warehouses on the same fleet posted. A step does not
    /// call it: each drain it waits has already retired.
    pub fn sync_d2h_all(&self) {
        self.fleet.sync_all();
    }

    /// A no-op: every upload is synchronous, so nothing host→device is
    /// ever in flight. Kept only because the benchmark (`perf_report/`,
    /// frozen by the benchmark contract) calls it.
    pub fn sync_h2d_all(&self) {}

    /// One counter snapshot per device, in device order.
    pub fn counters_per_device(&self) -> Vec<DeviceCounters> {
        self.fleet.counters_per_device()
    }

    /// Number of live per-level entries across all devices.
    pub fn level_entries(&self) -> usize {
        (0..self.num_devices()).map(|d| self.level_entries_on(d)).sum()
    }

    /// Number of live per-level entries on one device.
    pub fn level_entries_on(&self, dev: DeviceId) -> usize {
        self.stores[dev].lock().level_db.len()
    }

    /// Number of live per-patch entries on one device.
    pub fn patch_entries_on(&self, dev: DeviceId) -> usize {
        self.stores[dev].lock().patch_db.len()
    }

    /// Bytes registered in one device's databases (patch + level). Excludes
    /// variables alive only through external handles (in-flight drains,
    /// disabled-level-DB uploads), which the device meter still counts —
    /// the two reconcile exactly at quiescent points.
    pub fn resident_bytes_on(&self, dev: DeviceId) -> usize {
        let st = self.stores[dev].lock();
        st.patch_db.values().map(|e| e.var.size_bytes()).sum::<usize>()
            + st.level_db.values().map(|e| e.var.size_bytes()).sum::<usize>()
    }

    /// Bytes registered in every device's databases.
    pub fn resident_bytes(&self) -> usize {
        (0..self.num_devices()).map(|d| self.resident_bytes_on(d)).sum()
    }

    /// Number of host-spilled patch variables on one device.
    pub(crate) fn spill_entries_on(&self, dev: DeviceId) -> usize {
        self.stores[dev].lock().spill.len()
    }

    /// Number of host-spilled patch variables across all devices.
    pub fn spill_entries(&self) -> usize {
        (0..self.num_devices()).map(|d| self.spill_entries_on(d)).sum()
    }

    /// Always 0: the staging pool went with the posted-upload path. Kept
    /// only because the benchmark (`perf_report/`, frozen by the benchmark
    /// contract) reads it for `gpu.staging_reuse_pct`.
    pub fn staging_reuse_hits(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uintah_grid::{CcVariable, Region};

    impl GpuDataWarehouse {
        /// The epoch a level entry was last validated at on a device.
        fn level_entry_epoch_on(&self, dev: DeviceId, label: VarLabel, level: LevelIndex) -> Option<u64> {
            self.stores[dev].lock().level_db.get(&(label, level)).map(|e| e.epoch)
        }
    }

    const ABSKG: VarLabel = VarLabel::new("abskg", 0);
    const DIVQ: VarLabel = VarLabel::new("divQ", 3);

    fn field(n: i32, value: f64) -> DeviceData {
        DeviceData::F64(CcVariable::filled(Region::cube(n), value))
    }

    /// A one-device warehouse without the level database (the E4 ablation).
    fn dw_without_level_db(device: GpuDevice) -> GpuDataWarehouse {
        GpuDataWarehouse::with_fleet_full(DeviceFleet::single(device), false, true, true, true)
    }

    #[test]
    fn patch_put_get_take_roundtrip() {
        let dw = GpuDataWarehouse::new(GpuDevice::k20x());
        let p = PatchId(4);
        dw.put_patch(DIVQ, p, field(8, 1.5)).unwrap();
        assert_eq!(dw.patch_entries_on(0), 1);
        let v = dw.get_patch(DIVQ, p).unwrap();
        assert_eq!(v.data().as_f64()[uintah_grid::IntVector::ZERO], 1.5);
        let host = dw.take_patch_to_host_async(DIVQ, p).map(PendingD2H::wait).unwrap();
        assert_eq!(host.as_f64().len(), 512);
        assert_eq!(dw.patch_entries_on(0), 0);
        assert!(dw.take_patch_to_host_async(DIVQ, p).map(PendingD2H::wait).is_none());
        // D2H was metered once.
        assert_eq!(dw.device().counters().d2h_transfers, 1);
    }

    #[test]
    fn level_db_uploads_once_and_shares() {
        let dw = GpuDataWarehouse::new(GpuDevice::k20x());
        let mut calls = 0;
        let a = dw
            .ensure_level_fresh_on(0, ABSKG, 0, || {
                calls += 1;
                field(16, 0.9)
            })
            .unwrap();
        let b = dw
            .ensure_level_fresh_on(0, ABSKG, 0, || panic!("second upload"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b), "tasks must share one device copy");
        assert_eq!(calls, 1);
        assert_eq!(dw.device().counters().h2d_transfers, 1);
        let bytes = 16usize.pow(3) * 8;
        assert_eq!(dw.device().counters().h2d_bytes, bytes as u64);
        assert_eq!(dw.device().used(), bytes);
    }

    #[test]
    fn disabled_level_db_duplicates_copies() {
        let dw = dw_without_level_db(GpuDevice::k20x());
        let a = dw
            .ensure_level_fresh_on(0, ABSKG, 0, || field(16, 0.9))
            .unwrap();
        let b = dw
            .ensure_level_fresh_on(0, ABSKG, 0, || field(16, 0.9))
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(dw.device().counters().h2d_transfers, 2);
        assert_eq!(dw.device().used(), 2 * 16usize.pow(3) * 8);
    }

    #[test]
    fn memory_released_when_last_handle_drops() {
        let device = GpuDevice::k20x();
        let dw = GpuDataWarehouse::new(device.clone());
        let v = dw
            .ensure_level_fresh_on(0, ABSKG, 1, || field(8, 0.1))
            .unwrap();
        assert!(device.used() > 0);
        dw.clear_level_db();
        assert!(device.used() > 0, "task still holds a handle");
        drop(v);
        assert_eq!(device.used(), 0);
    }

    #[test]
    fn capacity_exhaustion_is_a_clean_error() {
        // A device too small for the coarse field: the failure mode the
        // level DB avoids at scale. With an empty warehouse there is
        // nothing to evict, so eviction changes nothing here.
        let device = GpuDevice::with_capacity("tiny", 1024);
        let dw = GpuDataWarehouse::new(device);
        let err = dw.ensure_level_fresh_on(0, ABSKG, 0, || field(8, 0.0)).unwrap_err();
        assert!(matches!(err, GpuError::OutOfMemory { .. }));
    }

    #[test]
    fn level_db_memory_bound_vs_unbounded() {
        // With N concurrent patch tasks needing the same coarse field, the
        // level DB holds device memory constant; without it, memory scales
        // with N — the paper's core argument.
        let field_bytes = 16usize.pow(3) * 8;
        let with = GpuDataWarehouse::new(GpuDevice::k20x());
        let without = dw_without_level_db(GpuDevice::k20x());
        let mut with_handles = Vec::new();
        let mut without_handles = Vec::new();
        for _task in 0..32 {
            with_handles.push(with.ensure_level_fresh_on(0, ABSKG, 0, || field(16, 0.9)).unwrap());
            without_handles.push(without.ensure_level_fresh_on(0, ABSKG, 0, || field(16, 0.9)).unwrap());
        }
        assert_eq!(with.device().used(), field_bytes);
        assert_eq!(without.device().used(), 32 * field_bytes);
        assert_eq!(with.device().counters().h2d_bytes, field_bytes as u64);
        assert_eq!(without.device().counters().h2d_bytes, (32 * field_bytes) as u64);
    }

    #[test]
    fn concurrent_ensure_level_single_upload() {
        let dw = Arc::new(GpuDataWarehouse::new(GpuDevice::k20x()));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let dw = dw.clone();
                s.spawn(move || {
                    let v = dw
                        .ensure_level_fresh_on(0, ABSKG, 0, || field(16, 0.5))
                        .unwrap();
                    assert_eq!(v.data().as_f64().len(), 4096);
                });
            }
        });
        assert_eq!(dw.device().counters().h2d_transfers, 1, "exactly one upload");
    }

    #[test]
    #[should_panic(expected = "requested f64")]
    fn type_mismatch_panics() {
        let d = DeviceData::U8(CcVariable::filled(Region::cube(2), 1u8));
        d.as_f64();
    }

    #[test]
    fn fresh_replica_persists_across_timesteps_when_unchanged() {
        let dw = GpuDataWarehouse::new(GpuDevice::k20x());
        let a = dw.ensure_level_fresh(ABSKG, 0, || field(16, 0.9)).unwrap();
        assert_eq!(dw.device().counters().h2d_transfers, 1);
        // Same step: producer must not run again.
        let b = dw.ensure_level_fresh(ABSKG, 0, || panic!("fresh entry")).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        // Next step, identical host data: revalidation, no transfer.
        dw.begin_timestep();
        assert_eq!(dw.level_entry_epoch_on(0, ABSKG, 0), Some(0), "stale until revalidated");
        let c = dw.ensure_level_fresh(ABSKG, 0, || field(16, 0.9)).unwrap();
        assert!(Arc::ptr_eq(&a, &c), "unchanged replica is kept");
        assert_eq!(dw.device().counters().h2d_transfers, 1, "no second upload");
        assert_eq!(dw.level_entry_epoch_on(0, ABSKG, 0), Some(1));
        // And within the new step it is trusted without the producer.
        let d = dw.ensure_level_fresh(ABSKG, 0, || panic!("revalidated")).unwrap();
        assert!(Arc::ptr_eq(&a, &d));
    }

    #[test]
    fn changed_replica_reuploads_only_changed_bytes() {
        let dw = GpuDataWarehouse::new(GpuDevice::k20x());
        let full = 16usize.pow(3) * 8;
        let v = dw.ensure_level_fresh(ABSKG, 0, || field(16, 0.9)).unwrap();
        drop(v);
        dw.begin_timestep();
        // One cell changed between steps.
        let _ = dw
            .ensure_level_fresh(ABSKG, 0, || {
                let mut f = CcVariable::filled(Region::cube(16), 0.9);
                f[uintah_grid::IntVector::ZERO] = 1.1;
                DeviceData::F64(f)
            })
            .unwrap();
        assert_eq!(dw.device().counters().h2d_transfers, 2);
        assert_eq!(dw.device().counters().h2d_bytes, (full + 8) as u64, "8-byte diff upload");
        assert_eq!(dw.device().used(), full, "in-place overwrite, no extra memory");
    }

    #[test]
    fn changed_replica_with_live_handles_is_replaced_not_clobbered() {
        let dw = GpuDataWarehouse::new(GpuDevice::k20x());
        let old = dw.ensure_level_fresh(ABSKG, 0, || field(8, 0.5)).unwrap();
        dw.begin_timestep();
        let new = dw.ensure_level_fresh(ABSKG, 0, || field(8, 0.7)).unwrap();
        assert!(!Arc::ptr_eq(&old, &new), "live handle keeps old bytes");
        assert_eq!(old.data().as_f64()[uintah_grid::IntVector::ZERO], 0.5);
        assert_eq!(new.data().as_f64()[uintah_grid::IntVector::ZERO], 0.7);
        let field_bytes = 8usize.pow(3) * 8;
        assert_eq!(dw.device().used(), 2 * field_bytes, "both copies resident");
        drop(old);
        assert_eq!(dw.device().used(), field_bytes, "old copy released on drop");
    }

    #[test]
    fn oom_mid_revalidate_leaves_counters_and_epoch_untouched() {
        // Regression: the replace path used to meter record_h2d(changed)
        // *before* try_reserve, so an OOM inflated the H2D counters for a
        // transfer that never happened and left the entry stamped stale
        // after metering. Counters must be bit-identical before/after a
        // failed revalidate (alloc_failures aside). The live handle also
        // pins the entry against eviction, so the LRU policy cannot save
        // the allocation.
        let field_bytes = 8usize.pow(3) * 8;
        let device = GpuDevice::with_capacity("tiny", field_bytes + 512);
        let dw = GpuDataWarehouse::new(device.clone());
        let old = dw.ensure_level_fresh(ABSKG, 0, || field(8, 0.5)).unwrap();
        let before = device.counters();
        dw.begin_timestep();
        // The live handle forces the replace path; no room left → OOM.
        let err = dw.ensure_level_fresh(ABSKG, 0, || field(8, 0.7)).unwrap_err();
        assert!(matches!(err, GpuError::OutOfMemory { .. }));
        let after = device.counters();
        assert_eq!(after.h2d_bytes, before.h2d_bytes, "no phantom H2D bytes on OOM");
        assert_eq!(after.h2d_transfers, before.h2d_transfers);
        assert_eq!(after.used, before.used);
        assert_eq!(after.alloc_failures, before.alloc_failures + 1);
        assert_eq!(after.evictions, 0, "nothing evictable: the handle is live");
        assert_eq!(
            dw.level_entry_epoch_on(0, ABSKG, 0),
            Some(0),
            "entry stays stale after a failed revalidate"
        );
        // The resident replica is untouched and still usable.
        assert_eq!(old.data().as_f64()[uintah_grid::IntVector::ZERO], 0.5);
    }

    #[test]
    fn live_handle_replacement_meters_full_buffer() {
        // A replacement upload moves the whole new buffer across PCIe (the
        // old allocation is pinned by live handles), not just the diff.
        let dw = GpuDataWarehouse::new(GpuDevice::k20x());
        let full = 8u64.pow(3) * 8;
        let old = dw.ensure_level_fresh(ABSKG, 0, || field(8, 0.5)).unwrap();
        dw.begin_timestep();
        let _new = dw.ensure_level_fresh(ABSKG, 0, || field(8, 0.7)).unwrap();
        assert_eq!(
            dw.device().counters().h2d_bytes,
            2 * full,
            "replacement meters the full buffer"
        );
        assert_eq!(dw.device().counters().h2d_transfers, 2);
        drop(old);
    }

    #[test]
    fn async_take_matches_sync_take_and_releases_on_drain() {
        let device = GpuDevice::k20x();
        let dw = GpuDataWarehouse::new(device.clone());
        let p = PatchId(7);
        dw.put_patch(DIVQ, p, field(8, 2.5)).unwrap();
        let pending = dw.take_patch_to_host_async(DIVQ, p).unwrap();
        assert_eq!(dw.patch_entries_on(0), 0, "entry removed at post time");
        let (data, drain, _blocked) = pending.wait_timed();
        assert_eq!(data.as_f64()[uintah_grid::IntVector::ZERO], 2.5);
        assert!(drain > Duration::ZERO);
        assert_eq!(device.used(), 0, "device memory released when drain completes");
        let c = device.counters();
        assert_eq!(c.d2h_transfers, 1);
        assert_eq!(c.d2h_bytes, 8u64.pow(3) * 8);
        assert!(c.d2h_busy_ns > 0, "engine occupancy metered");
        assert!(dw.take_patch_to_host_async(DIVQ, p).is_none());
    }

    #[test]
    fn disabled_level_db_pays_full_upload_every_step() {
        let dw = dw_without_level_db(GpuDevice::k20x());
        let a = dw.ensure_level_fresh(ABSKG, 0, || field(16, 0.9)).unwrap();
        dw.begin_timestep();
        let b = dw.ensure_level_fresh(ABSKG, 0, || field(16, 0.9)).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(dw.device().counters().h2d_transfers, 2, "no persistence without the DB");
        assert_eq!(dw.device().counters().h2d_bytes, 2 * 16u64.pow(3) * 8);
    }

    // ---- eviction / spill / re-upload ----------------------------------

    #[test]
    fn lru_eviction_spills_cold_patch_and_reuploads_on_access() {
        let patch_bytes = 8usize.pow(3) * 8; // 4096
        // Room for two patches, not three.
        let device = GpuDevice::with_capacity("small", 2 * patch_bytes + 100);
        let dw = GpuDataWarehouse::new(device.clone());
        dw.put_patch(DIVQ, PatchId(0), field(8, 10.0)).map(drop).unwrap();
        dw.put_patch(DIVQ, PatchId(1), field(8, 11.0)).map(drop).unwrap();
        // Touch patch 0 so patch 1 is the LRU victim.
        dw.get_patch(DIVQ, PatchId(0)).map(drop).unwrap();
        // Third put forces one eviction.
        dw.put_patch(DIVQ, PatchId(2), field(8, 12.0)).map(drop).unwrap();
        let c = device.counters();
        assert_eq!(c.evictions, 1);
        assert_eq!(c.evicted_bytes, patch_bytes as u64);
        assert_eq!(c.spills, 1);
        assert_eq!(c.spilled_bytes, patch_bytes as u64);
        assert_eq!(dw.spill_entries(), 1);
        assert!(dw.get_patch(DIVQ, PatchId(0)).is_some(), "recently-used survives");
        assert_eq!(dw.patch_entries_on(0), 2);
        // Accessing the victim re-uploads it transparently — same bytes.
        let v = dw.get_patch(DIVQ, PatchId(1)).expect("spilled patch comes back");
        assert_eq!(v.data().as_f64()[uintah_grid::IntVector::ZERO], 11.0);
        let c = device.counters();
        assert_eq!(c.reuploads, 1);
        assert_eq!(c.reuploads_bytes, patch_bytes as u64);
        assert_eq!(c.evictions, 2, "the re-upload itself evicted another entry");
        assert_eq!(dw.spill_entries(), 1, "patch 0 or 2 spilled to make room");
        assert_eq!(device.counters().release_underflows, 0);
        device.validate_allocator().unwrap();
    }

    #[test]
    fn level_replicas_evict_without_spill() {
        let field_bytes = 8usize.pow(3) * 8;
        let device = GpuDevice::with_capacity("small", field_bytes + 100);
        let dw = GpuDataWarehouse::new(device.clone());
        dw.ensure_level_fresh(ABSKG, 0, || field(8, 0.5)).map(drop).unwrap();
        // A patch put that doesn't fit evicts the replica — dropped, not
        // spilled: level data is regenerable from the host warehouse.
        dw.put_patch(DIVQ, PatchId(0), field(8, 1.0)).map(drop).unwrap();
        let c = device.counters();
        assert_eq!(c.evictions, 1);
        assert_eq!(c.spills, 0, "level replicas never spill");
        assert_eq!(dw.level_entries(), 0);
        assert_eq!(dw.spill_entries(), 0);
        // The next ensure pays a fresh full upload (which evicts the patch
        // in turn — spilling it, since patches round-trip).
        let before = device.counters().h2d_transfers;
        dw.ensure_level_fresh(ABSKG, 0, || field(8, 0.5)).map(drop).unwrap();
        assert_eq!(device.counters().h2d_transfers, before + 1);
        assert_eq!(device.counters().spills, 1);
        assert_eq!(dw.spill_entries(), 1);
        device.validate_allocator().unwrap();
    }

    #[test]
    fn live_handles_are_never_evicted() {
        let patch_bytes = 8usize.pow(3) * 8;
        let device = GpuDevice::with_capacity("small", patch_bytes + 100);
        let dw = GpuDataWarehouse::new(device.clone());
        let held = dw.put_patch(DIVQ, PatchId(0), field(8, 1.0)).unwrap();
        // The held Arc pins the only resident entry: OOM, not a stale serve.
        let err = dw.put_patch(DIVQ, PatchId(1), field(8, 2.0)).unwrap_err();
        assert!(matches!(err, GpuError::OutOfMemory { .. }));
        assert_eq!(device.counters().evictions, 0);
        assert_eq!(held.data().as_f64()[uintah_grid::IntVector::ZERO], 1.0);
        drop(held);
        // Unpinned, the entry is a legal victim.
        dw.put_patch(DIVQ, PatchId(1), field(8, 2.0)).map(drop).unwrap();
        assert_eq!(device.counters().evictions, 1);
        device.validate_allocator().unwrap();
    }

    #[test]
    fn non_resident_output_takes_as_none() {
        let patch_bytes = 8usize.pow(3) * 8;
        let device = GpuDevice::with_capacity("small", patch_bytes + 100);
        let dw = GpuDataWarehouse::new(device.clone());
        dw.put_patch(DIVQ, PatchId(0), field(8, 5.0)).map(drop).unwrap();
        dw.put_patch(DIVQ, PatchId(1), field(8, 6.0)).map(drop).unwrap(); // evicts 0
        assert_eq!(device.counters().spills, 1);
        let d2h = device.counters().d2h_transfers;
        assert!(dw.take_patch_to_host_async(DIVQ, PatchId(0)).is_none(), "spilled, not resident");
        assert_eq!(device.counters().d2h_transfers, d2h, "no transfer posted");
        // A held handle pins the output: the next put cannot evict it, and
        // the take drains it.
        let held = dw.alloc_patch_output(DIVQ, PatchId(2), field(4, 7.0)).unwrap();
        let err = dw.put_patch(DIVQ, PatchId(3), field(8, 8.0)).unwrap_err();
        assert!(matches!(err, GpuError::OutOfMemory { .. }));
        let out = dw.take_patch_to_host_async(DIVQ, PatchId(2)).expect("held output stays resident");
        drop(held);
        assert_eq!(out.wait().as_f64()[uintah_grid::IntVector::ZERO], 7.0);
        device.validate_allocator().unwrap();
    }

    #[test]
    fn waited_take_has_retired_and_metered_its_transfer() {
        // A waited handle implies a retired transfer: no sync between the
        // wait and the counters. The engine meters the same time it reports.
        let device = GpuDevice::k20x();
        let dw = GpuDataWarehouse::new(device.clone());
        let mut busy_sum = Duration::ZERO;
        for i in 0..200u32 {
            dw.alloc_patch_output(DIVQ, PatchId(i), field(16, i as f64)).map(drop).unwrap();
            let (data, busy, _) = dw.take_patch_to_host_async(DIVQ, PatchId(i)).unwrap().wait_timed();
            busy_sum += busy;
            assert_eq!(data.as_f64()[uintah_grid::IntVector::ZERO], i as f64);
            let c = device.counters();
            assert_eq!(c.d2h_inflight, 0, "take {i}: signalled before it retired");
            assert_eq!(c.used, 0, "take {i}: signalled before it released its block");
            assert_eq!(c.d2h_busy_ns, busy_sum.as_nanos() as u64, "take {i}: two timers");
        }
    }

    #[test]
    fn drop_patch_clears_spilled_copies() {
        let patch_bytes = 8usize.pow(3) * 8;
        let device = GpuDevice::with_capacity("small", patch_bytes + 100);
        let dw = GpuDataWarehouse::new(device.clone());
        dw.put_patch(DIVQ, PatchId(0), field(8, 1.0)).map(drop).unwrap();
        dw.put_patch(DIVQ, PatchId(1), field(8, 2.0)).map(drop).unwrap(); // spills 0
        assert_eq!(dw.spill_entries(), 1);
        dw.drop_patch(DIVQ, PatchId(0));
        assert_eq!(dw.spill_entries(), 0);
        assert!(dw.get_patch(DIVQ, PatchId(0)).is_none(), "dropped, not resurrected");
    }

    #[test]
    fn clear_patch_db_clears_spill_map() {
        let patch_bytes = 8usize.pow(3) * 8;
        let device = GpuDevice::with_capacity("small", patch_bytes + 100);
        let dw = GpuDataWarehouse::new(device.clone());
        dw.put_patch(DIVQ, PatchId(0), field(8, 1.0)).map(drop).unwrap();
        dw.put_patch(DIVQ, PatchId(1), field(8, 2.0)).map(drop).unwrap(); // spills 0
        assert_eq!(dw.spill_entries(), 1);
        dw.clear_patch_db();
        assert_eq!(dw.patch_entries_on(0), 0);
        assert_eq!(dw.spill_entries(), 0, "last step's spill data is dropped");
        assert!(dw.get_patch(DIVQ, PatchId(0)).is_none(), "cleared, not resurrected");
        assert_eq!(device.used(), 0);
        device.validate_allocator().unwrap();
    }

    // ---- fleet routing -------------------------------------------------

    #[test]
    fn fleet_routes_patches_to_home_devices() {
        let fleet = DeviceFleet::with_capacity(4, "test", 1 << 30);
        let dw = GpuDataWarehouse::with_fleet_full(fleet, true, true, true, true);
        assert_eq!(dw.num_devices(), 4);
        // Put 32 patches; each must land on its sticky home device and be
        // visible only there.
        for p in 0..32u32 {
            dw.put_patch(DIVQ, PatchId(p), field(4, p as f64)).unwrap();
        }
        for p in 0..32u32 {
            let home = dw.device_for_patch(PatchId(p));
            assert_eq!(home, dw.fleet().sticky_device(PatchId(p)));
            let v = dw.get_patch(DIVQ, PatchId(p)).unwrap();
            assert_eq!(v.data().as_f64()[uintah_grid::IntVector::ZERO], p as f64);
        }
        let per_dev: Vec<usize> = (0..4).map(|d| dw.patch_entries_on(d)).collect();
        assert_eq!(per_dev.iter().sum::<usize>(), 32);
        assert!(per_dev.iter().all(|&n| n > 0), "all devices used: {per_dev:?}");
        // Memory is metered on the owning device only.
        let used: Vec<usize> = dw.fleet().devices().iter().map(|d| d.used()).collect();
        let patch_bytes = 4usize.pow(3) * 8;
        for (d, &n) in per_dev.iter().enumerate() {
            assert_eq!(used[d], n * patch_bytes, "device {d} meters its own patches");
        }
    }

    #[test]
    fn fleet_level_replicas_are_per_device() {
        let fleet = DeviceFleet::with_capacity(2, "test", 1 << 30);
        let dw = GpuDataWarehouse::with_fleet_full(fleet, true, true, true, true);
        let a0 = dw.ensure_level_fresh_on(0, ABSKG, 0, || field(16, 0.9)).unwrap();
        let a1 = dw.ensure_level_fresh_on(1, ABSKG, 0, || field(16, 0.9)).unwrap();
        assert!(!Arc::ptr_eq(&a0, &a1), "each device holds its own replica");
        // Each device paid exactly one upload; sharing within a device holds.
        let c = dw.counters_per_device();
        assert_eq!(c[0].h2d_transfers, 1);
        assert_eq!(c[1].h2d_transfers, 1);
        let b0 = dw.ensure_level_fresh_on(0, ABSKG, 0, || panic!("resident on 0")).unwrap();
        assert!(Arc::ptr_eq(&a0, &b0));
        assert_eq!(dw.level_entries_on(0), 1);
        assert_eq!(dw.level_entries_on(1), 1);
        assert_eq!(dw.level_entries(), 2);
        // Revalidation is independent per device.
        dw.begin_timestep();
        let c0 = dw.ensure_level_fresh_on(0, ABSKG, 0, || field(16, 0.9)).unwrap();
        assert!(Arc::ptr_eq(&a0, &c0));
        assert_eq!(dw.level_entry_epoch_on(0, ABSKG, 0), Some(1));
        assert_eq!(dw.level_entry_epoch_on(1, ABSKG, 0), Some(0), "device 1 not yet revalidated");
    }

    #[test]
    fn fleet_async_drains_use_home_device_engines() {
        let fleet = DeviceFleet::with_capacity(2, "test", 1 << 30);
        let dw = GpuDataWarehouse::with_fleet_full(fleet, true, true, true, true);
        let p0 = (0..64u32).map(PatchId).find(|&p| dw.device_for_patch(p) == 0).unwrap();
        let p1 = (0..64u32).map(PatchId).find(|&p| dw.device_for_patch(p) == 1).unwrap();
        dw.put_patch(DIVQ, p0, field(8, 1.0)).unwrap();
        dw.put_patch(DIVQ, p1, field(8, 2.0)).unwrap();
        let h0 = dw.take_patch_to_host_async(DIVQ, p0).unwrap();
        let h1 = dw.take_patch_to_host_async(DIVQ, p1).unwrap();
        assert_eq!(h0.wait().as_f64()[uintah_grid::IntVector::ZERO], 1.0);
        assert_eq!(h1.wait().as_f64()[uintah_grid::IntVector::ZERO], 2.0);
        // No sync: each waited drain has retired on its own engine.
        let c = dw.counters_per_device();
        assert_eq!(c[0].d2h_transfers, 1, "patch 0 drained on device 0's engine");
        assert_eq!(c[1].d2h_transfers, 1, "patch 1 drained on device 1's engine");
        assert_eq!(c[0].d2h_inflight, 0);
        assert_eq!(c[1].d2h_inflight, 0);
        assert_eq!(dw.fleet().total_used(), 0, "no leaked bytes on any device");
    }
}
