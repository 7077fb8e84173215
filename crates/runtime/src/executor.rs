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
//! * the compiled graph, cached under a `graph_signature` of everything
//!   compilation reads (grid shape, declarations, distribution, rank). A
//!   matching signature reuses the cached graph and
//!   `Scheduler::execute_phase` re-stamps tags with the step's phase
//!   byte; a mismatch — regrid, rebalance, changed task list — recompiles;
//! * the host [`DataWarehouse`], whose step boundary bumps the epoch and
//!   drops last step's contents (`DataWarehouse::begin_timestep`);
//! * the GPU warehouse, whose level database persists device-resident
//!   coarse replicas across steps and regrids and re-uploads a replica
//!   only when its host data changed (`GpuDataWarehouse::begin_timestep` +
//!   `ensure_level_fresh`).
//!

use crate::dw::DataWarehouse;
use crate::graph::{self, CompiledGraph, GraphCache};
use crate::scheduler::{ExecStats, Scheduler};
use crate::task::TaskDecl;
use std::sync::Arc;
use std::time::{Duration, Instant};
use uintah_gpu::GpuDataWarehouse;
use uintah_grid::{Grid, PatchDistribution};

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
    /// Wall of the regrid since the last step, folded into the next step's
    /// stats (a regrid between steps N and N+1 is charged to N+1, the first
    /// step that runs under the new distribution).
    pending_regrid: Option<Duration>,
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
    pub(crate) fn set_graph_cache(&mut self, cache: Arc<GraphCache>) {
        self.shared_cache = Some(cache);
    }

    /// Swap the task declarations (a new job on a reused executor). The
    /// cached graph is *not* dropped: [`graph::graph_signature`] hashes the
    /// declarations' shape (names, levels, requirements, computes), so a
    /// job whose declarations differ only in captured parameters — ray
    /// counts, thresholds, seeds — keeps the compiled graph, while any
    /// structural change perturbs the signature and recompiles on the
    /// next [`Self::step`].
    pub(crate) fn set_decls(&mut self, decls: Arc<Vec<TaskDecl>>) {
        self.decls = decls;
    }

    /// Stamp subsequent steps' [`ExecStats`] with a job/run identifier
    /// (`None` clears it). Interleaved multi-job logs key lines by it.
    pub(crate) fn set_run_id(&mut self, run_id: Option<Arc<str>>) {
        self.run_id = run_id;
    }

    /// Graphs adopted from the shared cache instead of compiled locally.
    #[inline]
    pub(crate) fn shared_graph_hits(&self) -> u64 {
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
                // first use). Per-patch staging needs no sweep: every task
                // removes what it stages before it ends.
                g.begin_timestep();
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
        if let Some(wall) = self.pending_regrid.take() {
            stats.regrids = 1;
            stats.regrid_compile = compile_time;
            stats.migrate_wall = wall;
        }
        self.step += 1;
        stats
    }

    /// Adopt a new patch distribution between timesteps. No data moves and
    /// nothing is evicted: every step recomputes every variable, the next
    /// [`Self::step`] opens a new epoch on host and device, and the changed
    /// rank map changes the graph signature, so that step compiles once (or
    /// adopts the graph from the shared cache). Level replicas stay
    /// device-resident: their bytes do not depend on ownership, and their
    /// first use revalidates them by epoch and diff. Returns whether
    /// ownership changed; `false` means it did nothing.
    ///
    /// Must be called between [`Self::step`]s. It posts no message, so it
    /// is rank-local, but every rank must adopt the same distribution
    /// before its next step. Its wall is folded into the next step's stats.
    pub fn regrid(&mut self, new: Arc<PatchDistribution>) -> bool {
        assert_eq!(new.nranks(), self.dist.nranks(), "regrid cannot change the world size");
        assert_eq!(
            new.rank_map().len(),
            self.grid.num_patches(),
            "distribution does not cover the grid"
        );
        if new.rank_map() == self.dist.rank_map() {
            return false;
        }
        let t0 = Instant::now();
        self.dist = new;
        self.pending_regrid = Some(t0.elapsed());
        true
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
    pub(crate) fn gpu(&self) -> Option<&Arc<GpuDataWarehouse>> {
        self.gpu.as_ref()
    }
}
