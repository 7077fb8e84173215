//! Multi-rank world driver: runs every rank of a simulated job in one
//! process, each with its own data warehouse, scheduler and (optionally)
//! GPU data warehouse.

use crate::dw::DataWarehouse;
use crate::executor::PersistentExecutor;
use crate::scheduler::{ExecStats, Scheduler, StoreKind};
use crate::task::TaskDecl;
use std::sync::Arc;
use uintah_comm::{AllReduceVec, CommWorld, Communicator};
use uintah_gpu::{DeviceFleet, GpuDataWarehouse};
use uintah_grid::{
    CcVariable, DistributionPolicy, Grid, PatchCosts, PatchDistribution, RebalancePolicy,
    Regridder, VarLabel,
};

/// Configuration of a simulated job.
#[derive(Clone, Debug)]
pub struct WorldConfig {
    pub nranks: usize,
    /// Worker threads per rank (the paper runs 16 per Titan node).
    pub nthreads: usize,
    pub store: StoreKind,
    pub timesteps: usize,
    /// Attach a simulated GPU fleet with this capacity *per device*;
    /// `None` runs CPU-only.
    pub gpu_capacity: Option<usize>,
    /// Devices per rank (1 = the paper's Titan node, 6 = Summit-style).
    /// Each device gets its own capacity meter, copy-engine timelines, and
    /// per-level replica DB.
    pub gpus_per_rank: usize,
    /// Keep one shared per-level copy on the GPU (the paper's level DB).
    pub gpu_level_db: bool,
    /// Post device→host drains to the copy engine asynchronously so the
    /// scheduler overlaps them with remaining compute (the paper's
    /// transfer/kernel pipelining). `false` drains inline inside task
    /// bodies — the synchronous baseline; results are bit-identical.
    pub gpu_async_d2h: bool,
    /// Rebalance ownership every `k` timesteps from measured per-patch
    /// costs: all ranks exchange their cost vectors (an all-reduce), run
    /// the deterministic [`Regridder`] and adopt the agreed distribution —
    /// migrating warehouse contents and recompiling the graph.
    /// `None` keeps the initial distribution for the whole run.
    pub regrid_interval: Option<usize>,
    /// Which rebalance policy the regridder applies at each interval.
    pub regrid_policy: RebalancePolicy,
    /// Job/run identifier stamped into every rank's [`ExecStats`] as
    /// `<run_id>/r<rank>`, so logs from concurrently running jobs stay
    /// attributable line by line. `None` keeps bare summaries.
    pub run_id: Option<String>,
}

impl Default for WorldConfig {
    fn default() -> Self {
        Self {
            nranks: 1,
            nthreads: 1,
            store: StoreKind::WaitFree,
            timesteps: 1,
            gpu_capacity: None,
            gpus_per_rank: 1,
            gpu_level_db: true,
            gpu_async_d2h: true,
            regrid_interval: None,
            regrid_policy: RebalancePolicy::CostedSfc,
            run_id: None,
        }
    }
}

/// Result of one rank.
pub struct RankResult {
    pub rank: usize,
    /// Stats per timestep.
    pub stats: Vec<ExecStats>,
    /// The rank's data warehouse after the final timestep.
    pub dw: Arc<DataWarehouse>,
    /// The rank's GPU data warehouse, if any.
    pub gpu: Option<Arc<GpuDataWarehouse>>,
    /// The distribution this rank finished under (differs from the initial
    /// one when regrids ran; identical across ranks by construction).
    pub dist: Arc<PatchDistribution>,
}

/// Result of the whole job.
pub struct WorldResult {
    /// The distribution the final timestep ran under.
    pub dist: Arc<PatchDistribution>,
    pub ranks: Vec<RankResult>,
}

impl WorldResult {
    /// Total messages sent across all ranks and timesteps.
    pub fn total_messages(&self) -> usize {
        self.ranks
            .iter()
            .flat_map(|r| r.stats.iter())
            .map(|s| s.messages_sent)
            .sum()
    }

    /// Total payload bytes across all ranks and timesteps.
    pub fn total_bytes(&self) -> u64 {
        self.ranks
            .iter()
            .flat_map(|r| r.stats.iter())
            .map(|s| s.bytes_sent)
            .sum()
    }

    /// The per-patch variable `label` of the final timestep, gathered from
    /// every rank's warehouse into one fine-level field. Panics if an owned
    /// fine patch never computed `label` (a task-declaration error).
    pub fn fine_field(&self, grid: &Grid, label: VarLabel) -> CcVariable<f64> {
        let mut out = CcVariable::<f64>::new(grid.fine_level().cell_region());
        for rr in &self.ranks {
            for &pid in self.dist.owned_by(rr.rank) {
                let patch = grid.patch(pid);
                if patch.level_index() != grid.fine_level_index() {
                    continue;
                }
                let v = rr
                    .dw
                    .get_patch(label, pid)
                    .unwrap_or_else(|| panic!("{label:?} missing on patch {pid:?}"));
                out.copy_window(v.as_f64(), &patch.interior());
            }
        }
        out
    }
}

/// Build one rank's execution state — host warehouse, scheduler, the GPU
/// warehouse over `fleet` (if any) and the [`PersistentExecutor`] that owns
/// them — from `cfg`. The single construction site shared by [`run_world`]
/// (a fresh fleet per rank) and the radiation server's slots (the server's
/// shared fleet): a runtime option reaches both by being a [`WorldConfig`]
/// field and nowhere else.
pub fn build_rank(
    grid: Arc<Grid>,
    decls: Arc<Vec<TaskDecl>>,
    dist: Arc<PatchDistribution>,
    comm: Communicator,
    cfg: &WorldConfig,
    fleet: Option<DeviceFleet>,
) -> PersistentExecutor {
    // Per-rank run id: `<job>/r<rank>` keys every summary line.
    let run_id = cfg.run_id.as_ref().map(|id| Arc::from(format!("{id}/r{}", comm.rank())));
    let gpu = fleet.map(|fleet| {
        Arc::new(GpuDataWarehouse::with_fleet_full(
            fleet,
            cfg.gpu_level_db,
            cfg.gpu_async_d2h,
            true, // unused `_async_h2d`: signature pinned by perf_report
            true, // unused `_eviction`: likewise
        ))
    });
    let mut exec = PersistentExecutor::new(
        Arc::clone(&grid),
        decls,
        dist,
        Scheduler::new(comm, cfg.nthreads, cfg.store),
        Arc::new(DataWarehouse::new(grid)),
        gpu,
    );
    exec.set_run_id(run_id);
    exec
}

/// One rank's timestep loop body: rebalance if due → step → fold the
/// measured per-patch costs.
/// The caller drives it (`for ts in 0..timesteps { steps.advance(ts) }`),
/// so [`run_world`] and a served job run the same steps and differ only in
/// what they wrap around them.
pub struct RankSteps<'a> {
    exec: &'a mut PersistentExecutor,
    cfg: &'a WorldConfig,
    /// The pre-rebalance cost exchange: each rank contributes measured
    /// per-patch task time (zeros for patches it does not own) and reads
    /// back the identical global vector, so every rank runs the
    /// deterministic regridder on the same input and all agree on the new
    /// ownership.
    cost_reduce: &'a AllReduceVec,
    regridder: Regridder,
    /// Measured per-patch cost since the last rebalance (seconds in task
    /// bodies; zeros for patches this rank does not own).
    step_cost: Vec<f64>,
}

impl<'a> RankSteps<'a> {
    /// `cost_reduce` must be shared by every rank of the world.
    pub fn new(
        exec: &'a mut PersistentExecutor,
        cfg: &'a WorldConfig,
        cost_reduce: &'a AllReduceVec,
    ) -> Self {
        Self {
            regridder: Regridder::new(cfg.regrid_policy),
            step_cost: vec![0.0; exec.grid.num_patches()],
            exec,
            cfg,
            cost_reduce,
        }
    }

    /// Run timestep `ts`. Collective: every rank of the world calls it
    /// for the same `ts`, so the rebalance all-reduce cannot skew.
    pub fn advance(&mut self, ts: usize) -> ExecStats {
        let current = Arc::clone(self.exec.dist());
        if let Some(next) = self.agree_on_rebalance(ts, &current) {
            self.exec.regrid(next);
        }
        let s = self.exec.step();
        self.record(&s);
        s
    }

    /// The agreed post-exchange distribution for step `ts`, or `None` when
    /// no rebalance is due.
    fn agree_on_rebalance(
        &mut self,
        ts: usize,
        current: &PatchDistribution,
    ) -> Option<Arc<PatchDistribution>> {
        let k = self.cfg.regrid_interval?;
        if ts == 0 || !ts.is_multiple_of(k) {
            return None;
        }
        let grid = &self.exec.grid;
        let global = self.cost_reduce.sum(&self.step_cost);
        let costs = if global.iter().sum::<f64>() > 0.0 {
            PatchCosts::from_values((*global).clone())
        } else {
            // Degenerate timing (all-zero measurements): fall back to cell
            // counts so the decision stays sound.
            PatchCosts::from_cells(grid)
        };
        self.step_cost.fill(0.0);
        Some(Arc::new(self.regridder.rebalance(grid, &costs, current)))
    }

    /// Fold a finished step's per-patch costs into the next rebalance's
    /// input.
    fn record(&mut self, s: &ExecStats) {
        for &(pid, d) in &s.per_patch {
            self.step_cost[pid.index()] += d.as_secs_f64();
        }
    }
}

/// Run `decls` for `cfg.timesteps` timesteps across `cfg.nranks` ranks.
///
/// Ranks start from the Morton SFC distribution (Uintah's space-filling
/// curve load balancer). Every rank runs on its own OS thread with
/// `cfg.nthreads` workers; the result carries each rank's final data
/// warehouse so callers can inspect computed variables (e.g. `divQ`).
pub fn run_world(grid: Arc<Grid>, decls: Arc<Vec<TaskDecl>>, cfg: WorldConfig) -> WorldResult {
    let world = CommWorld::new(cfg.nranks);
    let initial = Arc::new(PatchDistribution::new(
        &grid,
        cfg.nranks,
        DistributionPolicy::MortonSfc,
    ));
    let cost_reduce = AllReduceVec::new(cfg.nranks);
    let run_rank = |rank: usize| {
        let fleet = cfg
            .gpu_capacity
            .map(|cap| DeviceFleet::with_capacity(cfg.gpus_per_rank.max(1), "K20X-sim", cap));
        let mut exec = build_rank(
            Arc::clone(&grid),
            Arc::clone(&decls),
            Arc::clone(&initial),
            world.communicator(rank),
            &cfg,
            fleet,
        );
        let mut steps = RankSteps::new(&mut exec, &cfg, &cost_reduce);
        let stats = (0..cfg.timesteps).map(|ts| steps.advance(ts)).collect();
        RankResult {
            rank,
            stats,
            dw: Arc::clone(exec.dw()),
            gpu: exec.gpu().cloned(),
            dist: Arc::clone(exec.dist()),
        }
    };
    let ranks: Vec<RankResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.nranks).map(|rank| scope.spawn(move || run_rank(rank))).collect();
        handles.into_iter().map(|h| h.join().expect("rank thread panicked")).collect()
    });
    // Every rank finishes under the same distribution (the regridder is
    // deterministic on the all-reduced costs); report it as the world's.
    let dist = ranks.first().map_or(initial, |r| Arc::clone(&r.dist));
    WorldResult { dist, ranks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{Computes, Requirement, TaskContext};
    use uintah_grid::{CcVariable, FieldData, IntVector, VarLabel};

    const SRC: VarLabel = VarLabel::new("src", 0);
    const OUT: VarLabel = VarLabel::new("out", 1);

    /// A 7-point-stencil pipeline: producer fills each patch with a cell
    /// function; consumer sums the 6 face neighbours + itself. Ground truth
    /// is computable analytically, so any rank count must agree.
    fn stencil_decls() -> Arc<Vec<TaskDecl>> {
        let produce = TaskDecl::new(
            "produce",
            0,
            Arc::new(|ctx: &mut TaskContext| {
                let mut v = CcVariable::<f64>::new(ctx.patch().interior());
                v.fill_with(|c| (c.x + 10 * c.y + 100 * c.z) as f64);
                ctx.put(SRC, FieldData::F64(v));
            }),
        )
        .computes(Computes::PatchVar(SRC));
        let consume = TaskDecl::new(
            "stencil",
            0,
            Arc::new(|ctx: &mut TaskContext| {
                let src = ctx.get_ghosted_f64(SRC, 1);
                let region = ctx.patch().interior();
                let mut out = CcVariable::<f64>::new(region);
                let dirs = [
                    IntVector::new(1, 0, 0),
                    IntVector::new(-1, 0, 0),
                    IntVector::new(0, 1, 0),
                    IntVector::new(0, -1, 0),
                    IntVector::new(0, 0, 1),
                    IntVector::new(0, 0, -1),
                ];
                for c in region.cells() {
                    let mut sum = src[c];
                    for d in dirs {
                        if let Some(&v) = src.get(c + d) {
                            sum += v;
                        }
                    }
                    out[c] = sum;
                }
                ctx.put(OUT, FieldData::F64(out));
            }),
        )
        .requires(Requirement::Ghost(SRC, 1))
        .computes(Computes::PatchVar(OUT));
        Arc::new(vec![produce, consume])
    }

    fn stencil_truth(c: IntVector, n: i32) -> f64 {
        let f = |c: IntVector| (c.x + 10 * c.y + 100 * c.z) as f64;
        let mut sum = f(c);
        let dirs = [
            IntVector::new(1, 0, 0),
            IntVector::new(-1, 0, 0),
            IntVector::new(0, 1, 0),
            IntVector::new(0, -1, 0),
            IntVector::new(0, 0, 1),
            IntVector::new(0, 0, -1),
        ];
        let domain = uintah_grid::Region::cube(n);
        for d in dirs {
            if domain.contains(c + d) {
                sum += f(c + d);
            }
        }
        sum
    }

    fn grid1(n: i32, p: i32) -> Arc<Grid> {
        Arc::new(
            Grid::builder()
                .fine_cells(IntVector::splat(n))
                .num_levels(1)
                .fine_patch_size(IntVector::splat(p))
                .build(),
        )
    }

    fn check_stencil_result(result: &WorldResult, grid: &Grid, n: i32) {
        for rr in &result.ranks {
            for &pid in result.dist.owned_by(rr.rank) {
                let patch = grid.patch(pid);
                let out = rr.dw.get_patch(OUT, pid).expect("output computed");
                for c in patch.interior().cells() {
                    assert_eq!(out.as_f64()[c], stencil_truth(c, n), "cell {c:?}");
                }
            }
        }
    }

    #[test]
    fn single_rank_single_thread() {
        let grid = grid1(16, 8);
        let result = run_world(grid.clone(), stencil_decls(), WorldConfig::default());
        check_stencil_result(&result, &grid, 16);
        assert_eq!(result.total_messages(), 0);
    }

    #[test]
    fn multi_rank_matches_single_rank() {
        let grid = grid1(16, 8);
        for nranks in [2, 4] {
            let cfg = WorldConfig {
                nranks,
                nthreads: 2,
                ..WorldConfig::default()
            };
            let result = run_world(grid.clone(), stencil_decls(), cfg);
            check_stencil_result(&result, &grid, 16);
            assert!(result.total_messages() > 0, "ranks must exchange halos");
        }
    }

    #[test]
    fn all_store_kinds_give_identical_results() {
        let grid = grid1(16, 4);
        for store in [StoreKind::WaitFree, StoreKind::Mutex, StoreKind::Racy] {
            let cfg = WorldConfig {
                nranks: 3,
                nthreads: 2,
                store,
                ..WorldConfig::default()
            };
            let result = run_world(grid.clone(), stencil_decls(), cfg);
            check_stencil_result(&result, &grid, 16);
        }
    }

    #[test]
    fn multiple_timesteps_rerun_cleanly() {
        let grid = grid1(8, 4);
        let cfg = WorldConfig {
            nranks: 2,
            nthreads: 2,
            timesteps: 3,
            ..WorldConfig::default()
        };
        let result = run_world(grid.clone(), stencil_decls(), cfg);
        check_stencil_result(&result, &grid, 8);
        for r in &result.ranks {
            assert_eq!(r.stats.len(), 3);
        }
    }

    #[test]
    fn per_task_breakdown_reported() {
        let grid = grid1(8, 4);
        let result = run_world(grid, stencil_decls(), WorldConfig::default());
        let stats = &result.ranks[0].stats[0];
        assert_eq!(stats.per_task.len(), 2);
        let (name0, count0, _) = stats.per_task[0];
        let (name1, count1, _) = stats.per_task[1];
        assert_eq!(name0, "produce");
        assert_eq!(name1, "stencil");
        assert_eq!(count0, 8, "one produce per patch");
        assert_eq!(count1, 8, "one stencil per patch");
        assert_eq!(stats.tasks_executed, 16);
    }
}
