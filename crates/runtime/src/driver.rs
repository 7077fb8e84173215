//! Multi-rank world driver: runs every rank of a simulated job in one
//! process, each with its own data warehouse, scheduler and (optionally)
//! GPU data warehouse.

use crate::dw::DataWarehouse;
use crate::executor::PersistentExecutor;
use crate::graph::GraphCache;
use crate::scheduler::{ExecStats, Scheduler, StoreKind};
use crate::task::TaskDecl;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use uintah_comm::{AllReduceVec, CommWorld};
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
        gather_fine(grid, &self.dist, self.ranks.iter().map(|r| &r.dw), label)
    }
}

/// The ranks of one job, built once and stepped together: one
/// [`PersistentExecutor`] per rank on a shared [`CommWorld`], the canonical
/// initial distribution every run starts from, and the world's two
/// collectives. [`run_world`] builds one per call; the radiation server
/// keeps one warm per slot and runs job after job on it. It is the only
/// code that builds, steps, joins and gathers ranks, so a runtime option
/// reaches every caller by being a [`WorldConfig`] field and nowhere else.
pub struct World {
    grid: Arc<Grid>,
    /// Morton SFC ownership (Uintah's space-filling-curve load balancer).
    /// A run that rebalanced leaves its last distribution in place; the
    /// next run resets to this one first, so graph signatures stay stable
    /// across runs.
    initial: Arc<PatchDistribution>,
    execs: Vec<PersistentExecutor>,
    /// The pre-rebalance cost exchange: each rank contributes measured
    /// per-patch task time (zeros for patches it does not own) and reads
    /// back the identical global vector, so every rank runs the
    /// deterministic regridder on the same input and all agree on the new
    /// ownership.
    cost_reduce: AllReduceVec,
    /// The per-step stop agreement: all ranks stop at the same step
    /// boundary or none do (a lone stop would strand its peers' receives).
    stop_reduce: AllReduceVec,
}

impl World {
    /// Build `cfg.nranks` ranks running `decls` over `grid`. `fleet(rank)`
    /// is the device fleet that rank's GPU warehouse attaches to (`None`
    /// runs it CPU-only): a fresh fleet per rank for [`run_world`], the
    /// server's shared fleet for a slot.
    pub fn new(
        grid: Arc<Grid>,
        decls: &Arc<Vec<TaskDecl>>,
        cfg: &WorldConfig,
        mut fleet: impl FnMut(usize) -> Option<DeviceFleet>,
    ) -> Self {
        let comm = CommWorld::new(cfg.nranks);
        let initial = Arc::new(PatchDistribution::new(
            &grid,
            cfg.nranks,
            DistributionPolicy::MortonSfc,
        ));
        let execs = (0..cfg.nranks)
            .map(|rank| {
                let gpu = fleet(rank).map(|fleet| {
                    Arc::new(GpuDataWarehouse::with_fleet_full(
                        fleet,
                        cfg.gpu_level_db,
                        cfg.gpu_async_d2h,
                        true, // unused `_async_h2d`: signature pinned by perf_report
                        true, // unused `_eviction`: likewise
                    ))
                });
                PersistentExecutor::new(
                    Arc::clone(&grid),
                    Arc::clone(decls),
                    Arc::clone(&initial),
                    Scheduler::new(comm.communicator(rank), cfg.nthreads, cfg.store),
                    Arc::new(DataWarehouse::new(Arc::clone(&grid))),
                    gpu,
                )
            })
            .collect();
        Self {
            grid,
            initial,
            execs,
            cost_reduce: AllReduceVec::new(cfg.nranks),
            stop_reduce: AllReduceVec::new(cfg.nranks),
        }
    }

    /// Let every rank adopt compiled graphs from `cache` on a local miss,
    /// and feed it every graph the rank compiles.
    pub fn set_graph_cache(&mut self, cache: &Arc<GraphCache>) {
        for exec in &mut self.execs {
            exec.set_graph_cache(Arc::clone(cache));
        }
    }

    /// Run `decls` for `cfg.timesteps` timesteps, every rank on its own OS
    /// thread with `cfg.nthreads` workers, and return each rank's per-step
    /// stats in rank order. Each step: rebalance if due → step → fold the
    /// measured per-patch costs into the next rebalance's input. Steps are
    /// stamped `<cfg.run_id>/r<rank>`.
    ///
    /// With `stop`, the ranks agree before every step whether any of them
    /// saw the flag set and, if so, all stop there: a stopped run returns
    /// fewer than `cfg.timesteps` steps. A rank's panic is re-raised here
    /// with its own payload.
    pub fn run(
        &mut self,
        decls: &Arc<Vec<TaskDecl>>,
        cfg: &WorldConfig,
        stop: Option<&AtomicBool>,
    ) -> Vec<Vec<ExecStats>> {
        let nranks = self.execs.len();
        let (grid, initial) = (&self.grid, &self.initial);
        let (cost_reduce, stop_reduce) = (&self.cost_reduce, &self.stop_reduce);
        let run_rank = |rank: usize, exec: &mut PersistentExecutor| {
            exec.set_decls(Arc::clone(decls));
            exec.set_run_id(
                cfg.run_id
                    .as_ref()
                    .map(|id| Arc::from(format!("{id}/r{rank}"))),
            );
            // Collective: every rank compares the same maps, so all reset
            // or none do. A no-op on a fresh world.
            if exec.dist().rank_map() != initial.rank_map() {
                exec.regrid(Arc::clone(initial));
            }
            // Measured per-patch cost since the last rebalance (seconds in
            // task bodies; zeros for patches this rank does not own).
            let mut step_cost = vec![0.0; grid.num_patches()];
            let mut stats = Vec::with_capacity(cfg.timesteps);
            for ts in 0..cfg.timesteps {
                if let Some(stop) = stop {
                    let want = stop.load(Ordering::Relaxed);
                    let agreed = if nranks > 1 {
                        stop_reduce.sum(&[if want { 1.0 } else { 0.0 }])[0] > 0.0
                    } else {
                        want
                    };
                    if agreed {
                        break;
                    }
                }
                if cfg
                    .regrid_interval
                    .is_some_and(|k| ts > 0 && ts.is_multiple_of(k))
                {
                    let global = cost_reduce.sum(&step_cost);
                    let costs = if global.iter().sum::<f64>() > 0.0 {
                        PatchCosts::from_values((*global).clone())
                    } else {
                        // Degenerate timing (all-zero measurements): fall
                        // back to cell counts so the decision stays sound.
                        PatchCosts::from_cells(grid)
                    };
                    step_cost.fill(0.0);
                    let next =
                        Regridder::new(cfg.regrid_policy).rebalance(grid, &costs, exec.dist());
                    exec.regrid(Arc::new(next));
                }
                let s = exec.step();
                for &(pid, d) in &s.per_patch {
                    step_cost[pid.index()] += d.as_secs_f64();
                }
                stats.push(s);
            }
            stats
        };
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .execs
                .iter_mut()
                .enumerate()
                .map(|(rank, exec)| scope.spawn(move || run_rank(rank, exec)))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
                })
                .collect()
        })
    }

    /// The distribution the last step ran under (identical across ranks:
    /// the regridder is deterministic on the all-reduced costs).
    fn dist(&self) -> &Arc<PatchDistribution> {
        self.execs[0].dist()
    }

    /// The per-patch variable `label` of the last step, gathered from every
    /// rank's warehouse into one fine-level field.
    pub fn fine_field(&self, label: VarLabel) -> CcVariable<f64> {
        gather_fine(
            &self.grid,
            self.dist(),
            self.execs.iter().map(|e| e.dw()),
            label,
        )
    }

    /// The ranks' GPU warehouses (none on a CPU-only world).
    pub fn gpus(&self) -> impl Iterator<Item = &Arc<GpuDataWarehouse>> {
        self.execs.iter().filter_map(|e| e.gpu())
    }

    /// Graphs compiled so far, summed over ranks.
    pub fn compiles(&self) -> u64 {
        self.execs.iter().map(|e| e.compiles() as u64).sum()
    }

    /// Graphs adopted from the shared cache so far, summed over ranks.
    pub fn shared_graph_hits(&self) -> u64 {
        self.execs.iter().map(|e| e.shared_graph_hits()).sum()
    }
}

/// Gather `label` on every owned fine patch into one fine-level field;
/// `dws` are the ranks' warehouses in rank order. Panics if an owned fine
/// patch never computed `label` (a task-declaration error).
fn gather_fine<'a>(
    grid: &Grid,
    dist: &PatchDistribution,
    dws: impl IntoIterator<Item = &'a Arc<DataWarehouse>>,
    label: VarLabel,
) -> CcVariable<f64> {
    let mut out = CcVariable::<f64>::new(grid.fine_level().cell_region());
    for (rank, dw) in dws.into_iter().enumerate() {
        for &pid in dist.owned_by(rank) {
            let patch = grid.patch(pid);
            if patch.level_index() != grid.fine_level_index() {
                continue;
            }
            let v = dw
                .get_patch(label, pid)
                .unwrap_or_else(|| panic!("{label:?} missing on patch {pid:?}"));
            out.copy_window(v.as_f64(), &patch.interior());
        }
    }
    out
}

/// Run `decls` for `cfg.timesteps` timesteps across `cfg.nranks` ranks of
/// a fresh [`World`], each rank with its own device fleet when
/// `cfg.gpu_capacity` is set. The result carries each rank's final data
/// warehouse so callers can inspect computed variables (e.g. `divQ`).
pub fn run_world(grid: Arc<Grid>, decls: Arc<Vec<TaskDecl>>, cfg: WorldConfig) -> WorldResult {
    let mut world = World::new(grid, &decls, &cfg, |_| {
        cfg.gpu_capacity
            .map(|cap| DeviceFleet::with_capacity(cfg.gpus_per_rank.max(1), "K20X-sim", cap))
    });
    let stats = world.run(&decls, &cfg, None);
    WorldResult {
        dist: Arc::clone(world.dist()),
        ranks: world
            .execs
            .into_iter()
            .zip(stats)
            .enumerate()
            .map(|(rank, (exec, stats))| RankResult {
                rank,
                stats,
                dw: Arc::clone(exec.dw()),
                gpu: exec.gpu().cloned(),
                dist: Arc::clone(exec.dist()),
            })
            .collect(),
    }
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

    /// The stencil pipeline whose producer panics on one patch.
    fn panicking_decls() -> Arc<Vec<TaskDecl>> {
        let mut decls = (*stencil_decls()).clone();
        let produce = Arc::clone(&decls[0].func);
        decls[0].func = Arc::new(move |ctx: &mut TaskContext| {
            if ctx.patch().id().index() == 3 {
                panic!("produce failed on patch 3");
            }
            produce(ctx)
        });
        Arc::new(decls)
    }

    /// One rank whose task panics ends `run_world` with that task's own
    /// message, on one worker thread or several (the siblings must not
    /// wait for the failed instance). Fails instead of hanging when a call
    /// has not ended within 30 s.
    #[test]
    fn failed_task_unwinds_with_its_own_message() {
        for nthreads in [1, 2, 3] {
            let cfg = WorldConfig {
                nthreads,
                ..WorldConfig::default()
            };
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_world(grid1(16, 8), panicking_decls(), cfg)
                }));
                let payload = run.err().expect("run_world returned despite a failed task");
                let _ = tx.send(payload.downcast_ref::<&str>().map(|s| s.to_string()));
            });
            let msg = rx
                .recv_timeout(std::time::Duration::from_secs(30))
                .expect("run_world hung on a failed task");
            assert_eq!(
                msg.as_deref(),
                Some("produce failed on patch 3"),
                "{nthreads} threads"
            );
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
