//! Persistent timestep executor: compile the task graph once, run it every
//! step.
//!
//! RMCRT's task graph is identical from one radiation solve to the next:
//! the same declarations over the same grid and distribution produce the
//! same instances, edges and message schedule — only the 8-bit *phase* byte
//! in the message tags distinguishes step N's messages from step N+1's.
//! The original driver nevertheless recompiled the graph every timestep
//! (and Uintah itself historically did, until task-graph reuse became a
//! scalability requirement at full-machine scale). [`PersistentExecutor`]
//! owns the per-rank execution state across timesteps:
//!
//! * the compiled graph, cached under a [`graph_signature`] of everything
//!   compilation reads (grid shape, declarations, distribution, rank). A
//!   matching signature reuses the cached graph and
//!   [`Scheduler::execute_phase`] re-stamps tags with the step's phase
//!   byte; a mismatch — regrid, rebalance, changed task list — recompiles.
//!   [`PersistentExecutor::invalidate`] forces the same from outside (the
//!   hook an AMR regrid would call);
//! * the host [`DataWarehouse`], whose step boundary bumps the epoch and
//!   drops last step's contents ([`DataWarehouse::begin_timestep`]);
//! * the GPU warehouse, whose level database persists device-resident
//!   coarse replicas across steps and re-uploads only changed bytes
//!   (`GpuDataWarehouse::begin_timestep` + `ensure_level_fresh`).
//!
//! [`graph_signature`]: crate::graph::graph_signature

use crate::dw::DataWarehouse;
use crate::graph::{self, CompiledGraph, GraphCache};
use crate::regrid::{self, RegridEvent};
use crate::scheduler::{ExecStats, Scheduler};
use crate::task::TaskDecl;
use std::sync::Arc;
use std::time::{Duration, Instant};
use uintah_gpu::GpuDataWarehouse;
use uintah_grid::{Grid, PatchDistribution, PatchId};

/// Per-rank executor that persists graphs, the warehouse and GPU
/// residency across timesteps. One instance per rank, stepped in lockstep
/// with the other ranks of the world.
pub struct PersistentExecutor {
    grid: Arc<Grid>,
    decls: Arc<Vec<TaskDecl>>,
    dist: Arc<PatchDistribution>,
    sched: Scheduler,
    dw: Arc<DataWarehouse>,
    gpu: Option<Arc<GpuDataWarehouse>>,
    /// Cached compiled graph keyed by its input signature.
    cached: Option<(u64, Arc<CompiledGraph>)>,
    /// Optional cross-executor graph cache (the multi-tenant server's
    /// shared tier): consulted on a local miss before compiling, fed after
    /// every compile.
    shared_cache: Option<Arc<GraphCache>>,
    /// Graphs adopted from the shared cache instead of compiled locally.
    shared_graph_hits: u64,
    /// Job/run identifier stamped into every [`ExecStats`] this executor
    /// produces, so interleaved multi-job logs stay attributable.
    run_id: Option<Arc<str>>,
    step: u64,
    compiles: usize,
    /// Regrid cost accumulated since the last step, folded into the next
    /// step's stats (a regrid between steps N and N+1 is charged to N+1,
    /// the first step that runs under the new distribution).
    pending_regrid: Option<RegridEvent>,
}

impl PersistentExecutor {
    pub fn new(
        grid: Arc<Grid>,
        decls: Arc<Vec<TaskDecl>>,
        dist: Arc<PatchDistribution>,
        sched: Scheduler,
        dw: Arc<DataWarehouse>,
        gpu: Option<Arc<GpuDataWarehouse>>,
    ) -> Self {
        Self {
            grid,
            decls,
            dist,
            sched,
            dw,
            gpu,
            cached: None,
            shared_cache: None,
            shared_graph_hits: 0,
            run_id: None,
            step: 0,
            compiles: 0,
            pending_regrid: None,
        }
    }

    /// Attach a cross-executor [`GraphCache`]: on a local signature miss
    /// the executor adopts a matching shared graph instead of compiling,
    /// and feeds the cache after every compile it does perform.
    pub fn set_graph_cache(&mut self, cache: Arc<GraphCache>) {
        self.shared_cache = Some(cache);
    }

    /// Swap the task declarations (a new job on a reused executor). The
    /// cached graph is *not* dropped: [`graph::graph_signature`] hashes the
    /// declarations' shape (names, levels, requirements, computes), so a
    /// job whose declarations differ only in captured parameters — ray
    /// counts, thresholds, seeds — keeps the compiled graph, while any
    /// structural change perturbs the signature and recompiles on the
    /// next [`Self::step`].
    pub fn set_decls(&mut self, decls: Arc<Vec<TaskDecl>>) {
        self.decls = decls;
    }

    /// Stamp subsequent steps' [`ExecStats`] with a job/run identifier
    /// (`None` clears it). Interleaved multi-job logs key lines by it.
    pub fn set_run_id(&mut self, run_id: Option<Arc<str>>) {
        self.run_id = run_id;
    }

    /// Graphs adopted from the shared cache instead of compiled locally.
    #[inline]
    pub fn shared_graph_hits(&self) -> u64 {
        self.shared_graph_hits
    }

    /// Execute the next timestep. Opens the step (epoch bump + storage
    /// retirement on host and device), reuses or recompiles the graph, and
    /// runs it under this step's phase byte. `graph_compile` in the
    /// returned stats is zero whenever the cache hit.
    pub fn step(&mut self) -> ExecStats {
        if self.step > 0 {
            self.dw.begin_timestep();
            if let Some(g) = &self.gpu {
                // Level replicas stay device-resident (stale, revalidated on
                // first use); per-patch staging is transient by design.
                g.begin_timestep();
                g.clear_patch_db();
            }
        }
        let sig = graph::graph_signature(&self.grid, &self.dist, &self.decls, self.sched.rank());
        let mut compile_time = Duration::ZERO;
        if !matches!(&self.cached, Some((s, _)) if *s == sig) {
            if let Some(shared) = self.shared_cache.as_ref().and_then(|c| c.lookup(sig)) {
                self.shared_graph_hits += 1;
                self.cached = Some((sig, shared));
            } else {
                let t0 = Instant::now();
                let g = Arc::new(graph::compile(
                    &self.grid,
                    &self.dist,
                    &self.decls,
                    self.sched.rank(),
                    0,
                ));
                compile_time = t0.elapsed();
                self.compiles += 1;
                if let Some(cache) = &self.shared_cache {
                    cache.insert(sig, Arc::clone(&g));
                }
                self.cached = Some((sig, g));
            }
        }
        let (_, cg) = self.cached.as_ref().expect("graph just ensured");
        let cg: &CompiledGraph = cg.as_ref();
        let phase = (self.step % 256) as u8;
        let mut stats =
            self.sched
                .execute_phase(&self.grid, &self.decls, cg, &self.dw, self.gpu.as_deref(), phase);
        stats.graph_compile = compile_time;
        stats.run_id = self.run_id.clone();
        if let Some(ev) = self.pending_regrid.take() {
            stats.regrids = 1;
            stats.regrid_compile = compile_time;
            stats.migrated_bytes = ev.migrated_bytes;
            stats.migrate_wall = ev.migrate_wall;
        }
        self.step += 1;
        stats
    }

    /// Adopt a new patch distribution between timesteps: settle in-flight
    /// D2H traffic, migrate the warehouse contents of every patch whose
    /// owner changed (symmetric — every rank of the world must call this
    /// with the same distribution), evict GPU state whose residency keying
    /// assumed the old ownership, and invalidate the cached graph. Returns
    /// `None` (and does nothing) when ownership is unchanged.
    ///
    /// Must be called between [`Self::step`]s, in lockstep across ranks.
    /// The regrid's cost is folded into the next step's stats.
    pub fn regrid(&mut self, new: Arc<PatchDistribution>) -> Option<RegridEvent> {
        assert_eq!(new.nranks(), self.dist.nranks(), "regrid cannot change the world size");
        assert_eq!(
            new.rank_map().len(),
            self.grid.num_patches(),
            "distribution does not cover the grid"
        );
        if new.rank_map() == self.dist.rank_map() {
            return None;
        }
        let t0 = Instant::now();
        // 1. Settle the copy engines (every fleet device): every parked D2H
        //    handle materializes (or is retired) before ownership moves, so
        //    migration reads complete host data and no drain lands under a
        //    recycled id.
        let drained_d2h = self.dw.drain_pending_d2h();
        if let Some(g) = &self.gpu {
            g.sync_d2h_all();
        }
        // 2. Open the new distribution generation: pending slots from the
        //    old ownership can no longer satisfy requests.
        let generation = self.dw.begin_regrid();
        // 3. Move lost patches' data to their new owners (collective).
        let labels = regrid::label_map(&self.decls);
        let (patches_out, patches_in, migrated_bytes) = regrid::migrate_patch_vars(
            self.sched.comm(),
            &self.dw,
            &self.dist,
            &new,
            &labels,
            generation,
        );
        // 4. Evict device state — but only on the fleet devices that are
        //    home to a patch whose owner changed: per-patch staging and
        //    level replicas on those devices keyed freshness by content
        //    under the old ownership, while untouched devices keep their
        //    resident replicas (revalidated by epoch + diff on first
        //    post-regrid use anyway).
        let affected_devices: Vec<usize> = self
            .gpu
            .as_ref()
            .map(|g| {
                let mut devs = std::collections::BTreeSet::new();
                for (i, (old_r, new_r)) in
                    self.dist.rank_map().iter().zip(new.rank_map()).enumerate()
                {
                    if old_r != new_r {
                        devs.insert(g.device_for_patch(PatchId(i as u32)));
                    }
                }
                devs.into_iter().collect()
            })
            .unwrap_or_default();
        let (gpu_patch_evicted, gpu_level_evicted) = self
            .gpu
            .as_ref()
            .map(|g| g.invalidate_for_regrid_on(&affected_devices))
            .unwrap_or((0, 0));
        // 5. Adopt the distribution and force a recompile.
        self.dist = new;
        self.invalidate();
        let ev = RegridEvent {
            generation,
            patches_out,
            patches_in,
            migrated_bytes,
            migrate_wall: t0.elapsed(),
            drained_d2h,
            gpu_patch_evicted,
            gpu_level_evicted,
            gpu_devices_evicted: affected_devices.len(),
        };
        self.pending_regrid = Some(ev.clone());
        Some(ev)
    }

    /// Drop the cached graph; the next [`Self::step`] recompiles. The hook
    /// a regrid/rebalance calls when invalidation must not wait for the
    /// signature check (or when task closures changed behind the same
    /// declaration shape).
    pub fn invalidate(&mut self) {
        self.cached = None;
    }

    /// Timesteps executed so far.
    #[inline]
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// Graph compilations performed so far (1 in steady state).
    #[inline]
    pub fn compiles(&self) -> usize {
        self.compiles
    }

    #[inline]
    pub fn dw(&self) -> &Arc<DataWarehouse> {
        &self.dw
    }

    /// The distribution currently executing (post-regrid once
    /// [`Self::regrid`] adopts a new one).
    #[inline]
    pub fn dist(&self) -> &Arc<PatchDistribution> {
        &self.dist
    }

    #[inline]
    pub fn gpu(&self) -> Option<&Arc<GpuDataWarehouse>> {
        self.gpu.as_ref()
    }
}
