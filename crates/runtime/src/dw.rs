//! The OnDemand DataWarehouse.
//!
//! Uintah's data warehouse gives tasks "the illusion [they have] access to
//! memory [they do] not actually own": a task declares a ghost requirement
//! and the warehouse hands it an assembled array spanning its patch plus the
//! halo, transparently merging locally-owned neighbour data with *foreign*
//! windows that arrived by message. For the multi-level RMCRT model the
//! warehouse also maintains whole-level replica accumulators (the "infinite
//! ghost cells" on coarse levels) that every rank fills from local
//! restriction windows plus the all-to-all exchange, then seals for
//! read-only sharing by every patch task on the rank.

use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use uintah_gpu::PendingD2H;
use uintah_grid::{CcVariable, FieldData, Grid, LevelIndex, Patch, PatchId, Region, VarLabel};

type PatchKey = (VarLabel, PatchId);
type LevelKey = (VarLabel, LevelIndex);

/// A deferred per-patch slot: the D2H completion handle for a variable
/// whose bytes are still draining on the GPU copy engine. The handle is
/// consumed (and the data promoted into the ordinary patch store) by the
/// first consumer under the slot mutex; losing racers fall through to the
/// promoted entry.
struct PendingSlot {
    epoch: u64,
    /// Distribution generation at park time. A regrid bumps the warehouse
    /// generation, so a slot parked under the old ownership can never
    /// satisfy a request for a recycled patch id afterwards — the slots are
    /// keyed by patch id alone, which is not unique across regrids.
    generation: u64,
    handle: Mutex<Option<PendingD2H>>,
}

struct LevelAccum {
    data: FieldData,
    filled_cells: usize,
}

/// An entry stamped with the timestep epoch it was published in. Gets
/// compare the stamp against the warehouse epoch, so a value left over from
/// step N−1 can never satisfy a step-N request even if a future regrid/
/// checkpoint path forgets to drain a map.
struct Stamped {
    epoch: u64,
    data: Arc<FieldData>,
}

/// Per-rank variable store, persistent across timesteps.
///
/// The warehouse itself lives for the whole simulation; per-timestep
/// *contents* are dropped at each [`DataWarehouse::begin_timestep`]. Field
/// storage has one allocator, the heap ([`CcVariable::new`]); EXPERIMENTS
/// E17 has the census that says pooling it here does not pay.
pub struct DataWarehouse {
    grid: Arc<Grid>,
    /// Timestep epoch; bumped by [`Self::begin_timestep`].
    epoch: AtomicU64,
    /// Patch-distribution generation; bumped by [`Self::begin_regrid`].
    generation: AtomicU64,
    /// Gets that found an entry present under the right key but stamped
    /// with a stale epoch or generation. Tests assert this stays zero in
    /// correct runs ("no stale-epoch DW hits").
    stale_hits: AtomicU64,
    patch_vars: RwLock<HashMap<PatchKey, Stamped>>,
    /// Per-patch variables whose host data is still in flight on the GPU's
    /// D2H copy engine; materialized into `patch_vars` on first use.
    pending_d2h: RwLock<HashMap<PatchKey, Arc<PendingSlot>>>,
    /// Wall time consumers spent blocked on in-flight D2H transfers.
    d2h_wait_ns: AtomicU64,
    /// D2H drain wall time hidden behind compute (drain − blocked, summed
    /// per transfer).
    d2h_overlap_ns: AtomicU64,
    /// Ghost windows received from remote patches, keyed by the *destination*
    /// patch (the local patch whose halo they fill).
    foreign: RwLock<HashMap<PatchKey, Vec<(Region, FieldData)>>>,
    /// Whole-level replicas being accumulated.
    accums: Mutex<HashMap<LevelKey, LevelAccum>>,
    /// Completed (sealed) whole-level replicas.
    sealed: RwLock<HashMap<LevelKey, Stamped>>,
}

impl DataWarehouse {
    pub fn new(grid: Arc<Grid>) -> Self {
        Self {
            grid,
            epoch: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            stale_hits: AtomicU64::new(0),
            patch_vars: RwLock::new(HashMap::new()),
            pending_d2h: RwLock::new(HashMap::new()),
            d2h_wait_ns: AtomicU64::new(0),
            d2h_overlap_ns: AtomicU64::new(0),
            foreign: RwLock::new(HashMap::new()),
            accums: Mutex::new(HashMap::new()),
            sealed: RwLock::new(HashMap::new()),
        }
    }

    #[inline]
    pub fn grid(&self) -> &Arc<Grid> {
        &self.grid
    }

    /// Current timestep epoch.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Current patch-distribution generation.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Gets that found a stale-stamped entry (wrong epoch or generation).
    /// Zero in a correct run: a stale hit means some path almost served
    /// old data and only the stamp check stopped it.
    #[inline]
    pub fn stale_hits(&self) -> u64 {
        self.stale_hits.load(Ordering::Relaxed)
    }

    /// Open a new distribution generation (a regrid): pending-D2H slots
    /// parked under the old ownership can no longer satisfy requests —
    /// patch ids are recycled by the regrid and no longer mean what they
    /// did. Returns the new generation.
    pub fn begin_regrid(&self) -> u64 {
        self.generation.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Always 0: the step-boundary recyclers are gone (EXPERIMENTS E17).
    /// Kept only because the frozen benchmark reads it
    /// (`perf_report/src/workloads/step.rs:264`).
    pub fn recycle_hits(&self) -> u64 {
        0
    }

    /// Always 0, for the same reason
    /// (`perf_report/src/workloads/step.rs:265`).
    pub fn recycle_misses(&self) -> u64 {
        0
    }

    /// Open the next timestep: advance the epoch and drop last step's
    /// contents. Storage still shared with an in-flight reader outlives its
    /// map entry (its heap allocation dies when the last reader does).
    pub fn begin_timestep(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        // Any still-pending D2H handle is from a past epoch now; dropping it
        // discards the drain result without blocking (the engine finishes
        // into the void).
        self.clear();
    }

    fn stamped(&self, data: FieldData) -> Stamped {
        Stamped {
            epoch: self.epoch(),
            data: Arc::new(data),
        }
    }

    /// Publish a per-patch variable.
    pub fn put_patch(&self, label: VarLabel, patch: PatchId, data: FieldData) {
        self.patch_vars.write().insert((label, patch), self.stamped(data));
    }

    /// Publish a per-patch variable whose bytes are still draining on the
    /// GPU's D2H copy engine. The scheduler keeps executing ready tasks;
    /// the first consumer (a downstream task's `get_patch` or the
    /// send-posting path) blocks only for whatever part of the drain wasn't
    /// already hidden behind compute, then promotes the data into the
    /// ordinary patch store.
    pub fn put_patch_pending(&self, label: VarLabel, patch: PatchId, pending: PendingD2H) {
        self.pending_d2h.write().insert(
            (label, patch),
            Arc::new(PendingSlot {
                epoch: self.epoch(),
                generation: self.generation(),
                handle: Mutex::new(Some(pending)),
            }),
        );
    }

    /// Fetch a per-patch variable published this timestep, materializing it
    /// first if its D2H drain is still in flight. Entries from an earlier
    /// epoch never match (and are counted as [`Self::stale_hits`]).
    pub fn get_patch(&self, label: VarLabel, patch: PatchId) -> Option<Arc<FieldData>> {
        let now = self.epoch();
        {
            let vars = self.patch_vars.read();
            if let Some(e) = vars.get(&(label, patch)) {
                if e.epoch == now {
                    return Some(Arc::clone(&e.data));
                }
                self.stale_hits.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.materialize_pending(label, patch, now)
    }

    /// Consume the pending D2H handle for `(label, patch)` if one exists,
    /// metering blocked/overlap time and promoting the host data into
    /// `patch_vars`; then re-read the patch store (covers racers that lost
    /// the handle and drains that published concurrently).
    fn materialize_pending(
        &self,
        label: VarLabel,
        patch: PatchId,
        now: u64,
    ) -> Option<Arc<FieldData>> {
        let gen = self.generation();
        let slot = self.pending_d2h.read().get(&(label, patch)).map(Arc::clone);
        if let Some(slot) = slot {
            if slot.epoch == now && slot.generation == gen {
                if let Some(p) = slot.handle.lock().take() {
                    self.settle_pending(label, patch, p);
                }
            } else {
                // A slot parked before a regrid (or a missed drain) under a
                // patch id that now means something else: never serve it.
                self.stale_hits.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.patch_vars
            .read()
            .get(&(label, patch))
            .filter(|e| e.epoch == now)
            .map(|e| Arc::clone(&e.data))
    }

    fn settle_pending(&self, label: VarLabel, patch: PatchId, p: PendingD2H) {
        let (data, drain, blocked) = p.wait_timed();
        self.d2h_wait_ns
            .fetch_add(blocked.as_nanos() as u64, Ordering::Relaxed);
        self.d2h_overlap_ns.fetch_add(
            drain.saturating_sub(blocked).as_nanos() as u64,
            Ordering::Relaxed,
        );
        self.patch_vars.write().insert((label, patch), self.stamped(data));
    }

    /// Materialize every still-pending D2H transfer of the current epoch —
    /// the scheduler's end-of-step synchronization point (the
    /// `cudaDeviceSynchronize` analogue), so step stats are coherent and no
    /// completion handle leaks across a step boundary. Returns how many
    /// transfers had not yet been consumed.
    pub fn drain_pending_d2h(&self) -> usize {
        let now = self.epoch();
        let gen = self.generation();
        let slots: Vec<(PatchKey, Arc<PendingSlot>)> =
            self.pending_d2h.write().drain().collect();
        let mut drained = 0;
        for ((label, patch), slot) in slots {
            if slot.epoch != now || slot.generation != gen {
                continue;
            }
            if let Some(p) = slot.handle.lock().take() {
                self.settle_pending(label, patch, p);
                drained += 1;
            }
        }
        drained
    }

    /// Cumulative wall time consumers spent blocked on in-flight D2H
    /// transfers (the un-hidden part of the drains).
    pub fn d2h_wait(&self) -> Duration {
        Duration::from_nanos(self.d2h_wait_ns.load(Ordering::Relaxed))
    }

    /// Cumulative D2H drain wall time hidden behind compute.
    pub fn d2h_overlap(&self) -> Duration {
        Duration::from_nanos(self.d2h_overlap_ns.load(Ordering::Relaxed))
    }

    /// Deposit a ghost window received from a remote patch for `dst_patch`.
    pub fn deposit_foreign(&self, label: VarLabel, dst_patch: PatchId, region: Region, data: FieldData) {
        self.foreign
            .write()
            .entry((label, dst_patch))
            .or_default()
            .push((region, data));
    }

    fn assemble<T: Copy + Default + 'static>(
        &self,
        label: VarLabel,
        patch: &Patch,
        g: i32,
        view: impl Fn(&FieldData) -> &CcVariable<T>,
    ) -> CcVariable<T> {
        let level = self.grid.level(patch.level_index());
        let window = patch.with_ghosts(g).intersect(&level.cell_region());
        let mut out = CcVariable::new(window);
        // Locally-owned patches overlapping the halo.
        {
            let vars = self.patch_vars.read();
            for q in level.patches_overlapping(&window) {
                if let Some(src) = vars.get(&(label, q.id())) {
                    out.copy_window(view(&src.data), &window);
                }
            }
        }
        // Foreign windows received for this destination patch.
        if let Some(wins) = self.foreign.read().get(&(label, patch.id())) {
            for (region, data) in wins {
                out.copy_window(view(data), region);
            }
        }
        out
    }

    /// Assemble `label` over `patch + g` ghosts (clipped to the level).
    pub fn assemble_ghosted_f64(&self, label: VarLabel, patch: &Patch, g: i32) -> CcVariable<f64> {
        self.assemble(label, patch, g, |d| d.as_f64())
    }

    pub fn assemble_ghosted_u8(&self, label: VarLabel, patch: &Patch, g: i32) -> CcVariable<u8> {
        self.assemble(label, patch, g, |d| d.as_u8())
    }

    /// Remove and return every current-epoch per-patch entry for `patch`,
    /// sorted by label id (a deterministic wire order) — the sender side of
    /// an ownership migration. Stale-epoch entries under the patch are
    /// dropped instead of returned.
    pub fn take_patch_entries(&self, patch: PatchId) -> Vec<(VarLabel, Arc<FieldData>)> {
        let now = self.epoch();
        let mut vars = self.patch_vars.write();
        let keys: Vec<PatchKey> = vars
            .keys()
            .filter(|&&(_, p)| p == patch)
            .copied()
            .collect();
        let mut out = Vec::with_capacity(keys.len());
        for k in keys {
            let e = vars.remove(&k).expect("key listed above");
            if e.epoch == now {
                out.push((k.0, e.data));
            }
        }
        drop(vars);
        out.sort_by_key(|(l, _)| l.id());
        out
    }

    /// Deposit a restriction window into the whole-level accumulator for
    /// `(label, level)`. The accumulator is created on first deposit with
    /// the payload's element type.
    pub fn deposit_level_window(&self, label: VarLabel, level: LevelIndex, window: Region, data: &FieldData) {
        let level_region = self.grid.level(level).cell_region();
        debug_assert!(
            level_region.contains_region(&window),
            "window {window:?} outside level {level}"
        );
        let mut accums = self.accums.lock();
        let accum = accums.entry((label, level)).or_insert_with(|| LevelAccum {
            data: match data {
                FieldData::F64(_) => FieldData::F64(CcVariable::new(level_region)),
                FieldData::U8(_) => FieldData::U8(CcVariable::new(level_region)),
            },
            filled_cells: 0,
        });
        let copied = match (&mut accum.data, data) {
            (FieldData::F64(dst), FieldData::F64(src)) => dst.copy_window(src, &window),
            (FieldData::U8(dst), FieldData::U8(src)) => dst.copy_window(src, &window),
            _ => panic!("level window type mismatch for {label}"),
        };
        accum.filled_cells += copied;
    }

    /// Pack a window of the (possibly still accumulating) level replica for
    /// sending to another rank. The scheduler only packs windows this rank's
    /// own tasks deposited, so the data is complete.
    pub fn pack_level_window(&self, label: VarLabel, level: LevelIndex, window: &Region) -> bytes::Bytes {
        let accums = self.accums.lock();
        let accum = accums
            .get(&(label, level))
            .unwrap_or_else(|| panic!("no accumulator for {label} L{level}"));
        crate::codec::encode_window(&accum.data, window)
    }

    /// Seal the accumulator: verify full coverage and publish it read-only.
    pub fn seal_level(&self, label: VarLabel, level: LevelIndex) {
        let accum = self
            .accums
            .lock()
            .remove(&(label, level))
            .unwrap_or_else(|| panic!("sealing {label} L{level} with no deposits"));
        let expected = self.grid.level(level).num_cells();
        assert_eq!(
            accum.filled_cells, expected,
            "level replica {label} L{level} incomplete: {}/{expected} cells",
            accum.filled_cells
        );
        self.sealed.write().insert((label, level), self.stamped(accum.data));
    }

    /// A sealed whole-level replica published this timestep.
    pub fn get_sealed_level(&self, label: VarLabel, level: LevelIndex) -> Option<Arc<FieldData>> {
        let now = self.epoch();
        self.sealed
            .read()
            .get(&(label, level))
            .filter(|e| e.epoch == now)
            .map(|e| Arc::clone(&e.data))
    }

    /// Directly publish a sealed level replica (single-rank convenience and
    /// test hook).
    pub fn put_sealed_level(&self, label: VarLabel, level: LevelIndex, data: FieldData) {
        self.sealed.write().insert((label, level), self.stamped(data));
    }

    /// Bytes held in per-patch variables (nodal-footprint accounting).
    pub fn patch_bytes(&self) -> usize {
        self.patch_vars.read().values().map(|e| e.data.size_bytes()).sum()
    }

    /// Drop everything without opening a new epoch (full reset).
    pub fn clear(&self) {
        self.patch_vars.write().clear();
        self.pending_d2h.write().clear();
        self.foreign.write().clear();
        self.accums.lock().clear();
        self.sealed.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uintah_grid::{IntVector, Point};

    const KAPPA: VarLabel = VarLabel::new("abskg", 0);
    const CELLTYPE: VarLabel = VarLabel::new("cellType", 2);

    fn grid2() -> Arc<Grid> {
        Arc::new(
            Grid::builder()
                .fine_cells(IntVector::splat(16))
                .num_levels(2)
                .refinement_ratio(4)
                .fine_patch_size(IntVector::splat(8))
                .build(),
        )
    }

    #[test]
    fn patch_put_get() {
        let g = grid2();
        let dw = DataWarehouse::new(g.clone());
        let p = g.fine_level().patches()[0].id();
        dw.put_patch(KAPPA, p, FieldData::F64(CcVariable::filled(Region::cube(8), 0.5)));
        assert_eq!(dw.get_patch(KAPPA, p).unwrap().as_f64().len(), 512);
        assert!(dw.get_patch(KAPPA, PatchId(9999)).is_none());
    }

    #[test]
    fn ghost_assembly_from_local_neighbours() {
        let g = grid2();
        let dw = DataWarehouse::new(g.clone());
        let fine = g.fine_level();
        // Fill every fine patch with its patch-id as value.
        for p in fine.patches() {
            let mut v = CcVariable::<f64>::new(p.interior());
            let val = p.id().0 as f64;
            v.fill_with(|_| val);
            dw.put_patch(KAPPA, p.id(), FieldData::F64(v));
        }
        let p0 = &fine.patches()[0];
        let asm = dw.assemble_ghosted_f64(KAPPA, p0, 2);
        // Clipped at the domain edge: lo corner is (0,0,0).
        assert_eq!(asm.region().lo(), IntVector::ZERO);
        assert_eq!(asm.region().hi(), IntVector::splat(10));
        // Interior value is patch 0's.
        assert_eq!(asm[IntVector::splat(3)], p0.id().0 as f64);
        // Halo cell at x=8..10 belongs to the +x neighbour.
        let neighbour = fine.patch_containing(IntVector::new(9, 0, 0)).unwrap();
        assert_eq!(asm[IntVector::new(9, 1, 1)], neighbour.id().0 as f64);
    }

    #[test]
    fn ghost_assembly_uses_foreign_windows() {
        let g = grid2();
        let dw = DataWarehouse::new(g.clone());
        let fine = g.fine_level();
        let p0 = &fine.patches()[0];
        // Only p0 is local; its +x neighbour's face arrives as a message.
        let mut v = CcVariable::<f64>::new(p0.interior());
        v.fill_with(|_| 1.0);
        dw.put_patch(KAPPA, p0.id(), FieldData::F64(v));
        let window = Region::new(IntVector::new(8, 0, 0), IntVector::new(9, 8, 8));
        let foreign = CcVariable::filled(window, 7.0);
        dw.deposit_foreign(KAPPA, p0.id(), window, FieldData::F64(foreign));
        let asm = dw.assemble_ghosted_f64(KAPPA, p0, 1);
        assert_eq!(asm[IntVector::new(8, 4, 4)], 7.0);
        assert_eq!(asm[IntVector::new(7, 4, 4)], 1.0);
        // Unfilled halo corners default to zero.
        assert_eq!(asm[IntVector::new(8, 8, 8)], 0.0);
    }

    #[test]
    fn level_accumulate_and_seal() {
        let g = grid2();
        let dw = DataWarehouse::new(g.clone());
        let coarse = g.coarsest_level(); // 4^3 cells
        let region = coarse.cell_region();
        // Deposit in two halves.
        let half1 = Region::new(region.lo(), IntVector::new(4, 4, 2));
        let half2 = Region::new(IntVector::new(0, 0, 2), region.hi());
        dw.deposit_level_window(KAPPA, 0, half1, &FieldData::F64(CcVariable::filled(half1, 1.0)));
        assert!(dw.get_sealed_level(KAPPA, 0).is_none());
        dw.deposit_level_window(KAPPA, 0, half2, &FieldData::F64(CcVariable::filled(half2, 2.0)));
        dw.seal_level(KAPPA, 0);
        let sealed = dw.get_sealed_level(KAPPA, 0).unwrap();
        assert_eq!(sealed.as_f64()[IntVector::new(0, 0, 0)], 1.0);
        assert_eq!(sealed.as_f64()[IntVector::new(0, 0, 3)], 2.0);
    }

    #[test]
    #[should_panic(expected = "incomplete")]
    fn seal_detects_missing_cells() {
        let g = grid2();
        let dw = DataWarehouse::new(g.clone());
        let half = Region::new(IntVector::ZERO, IntVector::new(4, 4, 2));
        dw.deposit_level_window(KAPPA, 0, half, &FieldData::F64(CcVariable::filled(half, 1.0)));
        dw.seal_level(KAPPA, 0);
    }

    #[test]
    fn u8_level_replica() {
        let g = grid2();
        let dw = DataWarehouse::new(g.clone());
        let region = g.coarsest_level().cell_region();
        dw.deposit_level_window(
            CELLTYPE,
            0,
            region,
            &FieldData::U8(CcVariable::filled(region, 3u8)),
        );
        dw.seal_level(CELLTYPE, 0);
        assert_eq!(dw.get_sealed_level(CELLTYPE, 0).unwrap().as_u8()[IntVector::ZERO], 3);
    }

    #[test]
    fn pack_level_window_roundtrip() {
        let g = grid2();
        let dw = DataWarehouse::new(g.clone());
        let region = g.coarsest_level().cell_region();
        let mut v = CcVariable::<f64>::new(region);
        v.fill_with(|c| c.x as f64);
        dw.deposit_level_window(KAPPA, 0, region, &FieldData::F64(v));
        let w = Region::new(IntVector::ZERO, IntVector::splat(2));
        let bytes = dw.pack_level_window(KAPPA, 0, &w);
        let (r, data) = crate::codec::decode_window(&bytes);
        assert_eq!(r, w);
        assert_eq!(data.as_f64()[IntVector::new(1, 0, 0)], 1.0);
    }

    #[test]
    fn clear_resets_everything() {
        let g = grid2();
        let dw = DataWarehouse::new(g.clone());
        let p = g.fine_level().patches()[0].id();
        dw.put_patch(KAPPA, p, FieldData::F64(CcVariable::filled(Region::cube(8), 0.5)));
        assert!(dw.patch_bytes() > 0);
        dw.clear();
        assert_eq!(dw.patch_bytes(), 0);
        assert!(dw.get_patch(KAPPA, p).is_none());
    }

    #[test]
    fn begin_timestep_hides_stale_values() {
        let g = grid2();
        let dw = DataWarehouse::new(g.clone());
        let p = g.fine_level().patches()[0].id();
        dw.put_patch(KAPPA, p, FieldData::F64(CcVariable::filled(Region::cube(8), 0.5)));
        dw.put_sealed_level(KAPPA, 0, FieldData::F64(CcVariable::new(g.coarsest_level().cell_region())));
        assert!(dw.get_patch(KAPPA, p).is_some());
        assert!(dw.get_sealed_level(KAPPA, 0).is_some());

        dw.begin_timestep();
        assert_eq!(dw.epoch(), 1);
        assert!(dw.get_patch(KAPPA, p).is_none(), "step N-1 value must not leak");
        assert!(dw.get_sealed_level(KAPPA, 0).is_none());
    }

    #[test]
    fn reader_holding_an_arc_across_begin_timestep_keeps_its_values() {
        let g = grid2();
        let dw = DataWarehouse::new(g.clone());
        let p = g.fine_level().patches()[0].id();
        let level_region = g.coarsest_level().cell_region();
        dw.put_patch(KAPPA, p, FieldData::F64(CcVariable::filled(Region::cube(8), 0.5)));
        dw.put_sealed_level(KAPPA, 0, FieldData::F64(CcVariable::filled(level_region, 2.5)));
        let patch_n = dw.get_patch(KAPPA, p).unwrap();
        let level_n = dw.get_sealed_level(KAPPA, 0).unwrap();

        dw.begin_timestep();
        assert!(dw.get_patch(KAPPA, p).is_none(), "step N+1 misses the same key");
        assert!(dw.get_sealed_level(KAPPA, 0).is_none());
        // Step N+1 publishes different values under the same keys; the
        // reader's step-N data is its own allocation, not shared storage.
        dw.put_patch(KAPPA, p, FieldData::F64(CcVariable::filled(Region::cube(8), 7.0)));
        dw.put_sealed_level(KAPPA, 0, FieldData::F64(CcVariable::filled(level_region, 9.0)));
        assert!(patch_n.as_f64().as_slice().iter().all(|&x| x == 0.5));
        assert!(level_n.as_f64().as_slice().iter().all(|&x| x == 2.5));
        assert_eq!(dw.get_patch(KAPPA, p).unwrap().as_f64()[IntVector::ZERO], 7.0);
        assert_eq!(dw.stale_hits(), 0);
    }

    #[test]
    fn stale_entry_never_satisfies_get_even_if_present() {
        // Simulate a path that forgot to drain: insert, bump the epoch via
        // begin_timestep, then re-insert under a different label so the map
        // is non-empty; the stale key must still miss.
        let g = grid2();
        let dw = DataWarehouse::new(g.clone());
        let p = g.fine_level().patches()[0].id();
        dw.put_patch(KAPPA, p, FieldData::F64(CcVariable::filled(Region::cube(8), 0.5)));
        dw.begin_timestep();
        dw.put_patch(CELLTYPE, p, FieldData::U8(CcVariable::filled(Region::cube(8), 1)));
        assert!(dw.get_patch(KAPPA, p).is_none());
        assert!(dw.get_patch(CELLTYPE, p).is_some(), "current-epoch value visible");
    }

    #[test]
    fn take_patch_entries_moves_current_epoch_data() {
        let g = grid2();
        let dw = DataWarehouse::new(g.clone());
        let fine = g.fine_level();
        let p = fine.patches()[0].id();
        let q = fine.patches()[1].id();
        dw.put_patch(KAPPA, p, FieldData::F64(CcVariable::filled(Region::cube(8), 0.5)));
        dw.put_patch(CELLTYPE, p, FieldData::U8(CcVariable::filled(Region::cube(8), 2)));
        dw.put_patch(KAPPA, q, FieldData::F64(CcVariable::filled(Region::cube(8), 1.5)));
        let entries = dw.take_patch_entries(p);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].0, KAPPA, "sorted by label id");
        assert_eq!(entries[1].0, CELLTYPE);
        assert!(dw.get_patch(KAPPA, p).is_none(), "entries moved out");
        assert!(dw.get_patch(KAPPA, q).is_some(), "other patches untouched");
    }

    #[test]
    fn regrid_generation_blocks_stale_pending_slots() {
        let g = grid2();
        let dw = DataWarehouse::new(g.clone());
        let p = g.fine_level().patches()[0].id();
        // Park an async D2H handle for the patch.
        let gpu = uintah_gpu::GpuDataWarehouse::new(uintah_gpu::GpuDevice::k20x());
        gpu.put_patch(KAPPA, p, FieldData::F64(CcVariable::filled(Region::cube(8), 0.5)))
            .unwrap();
        dw.put_patch_pending(KAPPA, p, gpu.take_patch_to_host_async(KAPPA, p).unwrap());
        assert_eq!(dw.stale_hits(), 0);

        assert_eq!(dw.begin_regrid(), 1);
        assert_eq!(dw.generation(), 1);
        // The slot predates the regrid: the same patch id may now name a
        // different patch, so the get must miss — and be counted.
        assert!(dw.get_patch(KAPPA, p).is_none());
        assert!(dw.stale_hits() > 0, "blocked stale slot must be counted");
        assert_eq!(dw.drain_pending_d2h(), 0, "stale slot not drained as current");
        gpu.sync_d2h_all();
    }

    #[test]
    fn physical_domain_with_point_builder() {
        // Sanity: grid helper used above spans [0,1]^3 by default.
        let g = grid2();
        assert_eq!(g.fine_level().physical_hi(), Point::new(1.0, 1.0, 1.0));
    }
}
