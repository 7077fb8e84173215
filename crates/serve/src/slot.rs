//! Executor slots: the per-shape pool of warm multi-rank execution state
//! the server recycles across jobs.
//!
//! A slot is everything `run_world` would build from scratch for one job
//! — a [`CommWorld`] and one [`build_rank`] executor per rank — except
//! that GPU warehouses sit on the *server's shared* [`DeviceFleet`]. Two
//! jobs with the same *shape* ([`RunConfig::shape_signature`]: grid
//! structure, world size, store kind, GPU options) can run back to back on
//! the same slot: the second job swaps in its own task declarations
//! ([`PersistentExecutor::set_decls`]) and inherits
//!
//! * the compiled task graph (signature hashes declaration *shape*, not
//!   captured parameters — a different ray count reuses the graph);
//! * the device-resident level replicas (the diff-based
//!   `ensure_level_fresh` re-uploads only changed bytes).
//!
//! Shape keying is strict on anything baked into the slot's structures
//! and deliberately loose on per-job parameters (ray counts, thresholds,
//! halos, timestep counts, regrid schedules), which flow through
//! declarations and per-step calls.

use crate::job::{JobId, JobStats};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;
use uintah::config::RunConfig;
use uintah_comm::{AllReduceVec, CommWorld};
use uintah_gpu::DeviceFleet;
use uintah_grid::{DistributionPolicy, Grid, PatchDistribution, Region};
use uintah_runtime::{build_rank, GraphCache, PersistentExecutor, RankSteps, TaskDecl};

/// Everything the server needs to run one job: identity plus the
/// materialized problem (grid and declarations are built once, at
/// submission, and shared with admission).
pub(crate) struct JobSpec {
    pub id: JobId,
    pub run_id: String,
    pub cfg: RunConfig,
    pub grid: Arc<Grid>,
    pub decls: Arc<Vec<TaskDecl>>,
}

/// What one job's execution on a slot produced.
pub(crate) struct JobRun {
    pub stats: JobStats,
    pub summaries: Vec<String>,
    /// Fine-level divQ as per-patch packed windows (assembled by the
    /// server into one dense field). Empty when no step completed.
    pub divq_pieces: Vec<(Region, Vec<f64>)>,
    pub canceled: bool,
}

/// A warm multi-rank execution world, reusable across same-shape jobs.
pub(crate) struct Slot {
    /// [`RunConfig::shape_signature`] of the job the slot was built for.
    pub key: u64,
    grid: Arc<Grid>,
    /// The canonical initial distribution every job starts from; a job
    /// that regridded mid-run is reset here before the next job, so
    /// graph-cache signatures stay stable across tenants.
    initial_dist: Arc<PatchDistribution>,
    execs: Vec<PersistentExecutor>,
    /// Per-step cancel agreement for multi-rank jobs: all ranks abort at
    /// the same step boundary or none do (a one-sided abort would strand
    /// the others' receives).
    cancel_reduce: AllReduceVec,
    /// Cost exchange for mid-run rebalances ([`RankSteps`]).
    cost_reduce: AllReduceVec,
    pub jobs_served: u64,
}

impl Slot {
    /// Build a cold slot for `cfg`'s shape: the ranks `run_world` would
    /// build for `cfg.world_config()`, except that GPU warehouses attach
    /// to the *server's* fleet — every tenant meters against the same
    /// devices.
    pub fn new(
        cfg: &RunConfig,
        grid: Arc<Grid>,
        decls: Arc<Vec<TaskDecl>>,
        fleet: &DeviceFleet,
        graph_cache: &Arc<GraphCache>,
    ) -> Self {
        let wc = cfg.world_config();
        let world = CommWorld::new(wc.nranks);
        let initial_dist = Arc::new(PatchDistribution::new(
            &grid,
            wc.nranks,
            DistributionPolicy::MortonSfc,
        ));
        let execs = (0..wc.nranks)
            .map(|rank| {
                let mut exec = build_rank(
                    Arc::clone(&grid),
                    Arc::clone(&decls),
                    Arc::clone(&initial_dist),
                    world.communicator(rank),
                    &wc,
                    wc.gpu_capacity.map(|_| fleet.clone()),
                );
                exec.set_graph_cache(Arc::clone(graph_cache));
                exec
            })
            .collect();
        Self {
            key: cfg.shape_signature(),
            grid,
            initial_dist,
            execs,
            cancel_reduce: AllReduceVec::new(wc.nranks),
            cost_reduce: AllReduceVec::new(wc.nranks),
            jobs_served: 0,
        }
    }

    /// Device bytes this slot still holds while idle (level replicas kept
    /// warm for the next same-shape tenant). Dropping the slot frees them.
    pub fn resident_bytes(&self) -> u64 {
        self.execs
            .iter()
            .filter_map(|e| e.gpu())
            .map(|g| g.resident_bytes() as u64)
            .sum()
    }

    /// Device-resident level-replica entries across the slot's ranks.
    pub fn level_entries(&self) -> u64 {
        self.execs
            .iter()
            .filter_map(|e| e.gpu())
            .map(|g| g.level_entries() as u64)
            .sum()
    }

    /// Run one job to completion (or cancellation) on this slot. All
    /// ranks execute concurrently on scoped threads, stepping through the
    /// same [`RankSteps`] as `run_world`, but against the slot's
    /// persistent state. On return the slot is clean for the next tenant:
    /// D2H engines drained, per-patch device staging cleared (level
    /// replicas intentionally kept), ownership reset to the canonical
    /// initial distribution.
    pub fn run_job(&mut self, job: &JobSpec, cancel: &AtomicBool) -> JobRun {
        let t0 = Instant::now();
        let nranks = self.execs.len();
        let wc = &job.cfg.world_config();
        let grid = &self.grid;
        let initial = &self.initial_dist;
        let cancel_reduce = &self.cancel_reduce;
        let cost_reduce = &self.cost_reduce;
        let mut run = JobRun {
            stats: JobStats {
                level_replicas_inherited: self.level_entries(),
                ..JobStats::default()
            },
            summaries: Vec::new(),
            divq_pieces: Vec::new(),
            canceled: false,
        };
        let per_rank: Vec<RankRun> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(nranks);
            for (rank, exec) in self.execs.iter_mut().enumerate() {
                handles.push(scope.spawn(move || {
                    exec.set_decls(Arc::clone(&job.decls));
                    exec.set_run_id(Some(Arc::from(format!("{}/r{rank}", job.run_id))));
                    // A previous tenant may have regridded: restore the
                    // canonical ownership so every job sees the same
                    // initial distribution a standalone run would
                    // (collective — every rank takes this branch or none,
                    // since they all compare the same maps).
                    if exec.dist().rank_map() != initial.rank_map() {
                        exec.regrid(Arc::clone(initial));
                    }
                    let compiles0 = exec.compiles() as u64;
                    let shared0 = exec.shared_graph_hits();
                    let mut rr = RankRun::default();
                    let mut steps = RankSteps::new(exec, wc, cost_reduce);
                    for ts in 0..wc.timesteps {
                        // Cancel agreement at the step boundary: the flag
                        // is all-reduced so every rank aborts at the same
                        // step (a lone abort would strand peers' receives).
                        let want = cancel.load(Ordering::Relaxed);
                        let abort = if nranks > 1 {
                            cancel_reduce.sum(&[if want { 1.0 } else { 0.0 }])[0] > 0.0
                        } else {
                            want
                        };
                        if abort {
                            rr.canceled = true;
                            break;
                        }
                        let s = steps.advance(ts);
                        rr.stats.absorb(&s);
                        rr.summaries.push(s.summary());
                    }
                    rr.stats.graph_compiles = exec.compiles() as u64 - compiles0;
                    rr.stats.shared_graph_hits = exec.shared_graph_hits() - shared0;
                    // End-of-job hygiene: settle in-flight drains and drop
                    // per-patch device staging. Level replicas stay
                    // resident — they are the cross-job sharing the next
                    // same-shape tenant inherits (its first
                    // `ensure_level_fresh` revalidates them against its own
                    // sealed data before serving).
                    exec.dw().drain_pending_d2h();
                    if let Some(g) = exec.gpu() {
                        g.sync_d2h_all();
                        g.clear_patch_db();
                    }
                    if rr.stats.steps > 0 && !rr.canceled {
                        let fine = grid.fine_level_index();
                        for &pid in exec.dist().owned_by(rank) {
                            if grid.patch(pid).level_index() != fine {
                                continue;
                            }
                            let interior = grid.patch(pid).interior();
                            let v = exec
                                .dw()
                                .get_patch(rmcrt_core::labels::DIVQ, pid)
                                .expect("divQ computed for owned fine patch");
                            rr.divq_pieces.push(v.as_f64().pack_window(&interior));
                        }
                    }
                    rr
                }));
            }
            handles.into_iter().map(|h| h.join().expect("rank thread panicked")).collect()
        });
        self.jobs_served += 1;
        for rr in per_rank {
            run.stats.merge(&rr.stats);
            run.canceled |= rr.canceled;
            run.summaries.extend(rr.summaries);
            run.divq_pieces.extend(rr.divq_pieces);
        }
        run.stats.exec_ns = t0.elapsed().as_nanos() as u64;
        run
    }
}

/// What one rank contributes to a [`JobRun`].
#[derive(Default)]
struct RankRun {
    stats: JobStats,
    summaries: Vec<String>,
    divq_pieces: Vec<(Region, Vec<f64>)>,
    canceled: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use uintah::config::KEYS;

    /// One row per key of the table: setting a `shape` key to a second
    /// valid value must change the slot signature (those options are baked
    /// into the slot's warehouses, schedulers and graphs — e.g. a GPU
    /// tenant must not land on a CPU slot);
    /// setting any other key must not (per-job parameters share warm slots).
    #[test]
    fn shape_signature_ignores_per_job_parameters() {
        let second_value = |key: &str| match key {
            "problem" => "benchmark",
            "fine_cells" => "64",
            "patch_size" => "16",
            "levels" => "1",
            "refinement_ratio" => "2",
            "nrays" => "999",
            "threshold" => "0.5",
            "halo" => "2",
            "ranks" => "4",
            "threads" => "3",
            "store" => "mutex",
            "gpu" => "true",
            "gpus_per_rank" => "6",
            "gpu_capacity_mb" => "512",
            "regrid_interval" => "3",
            "regrid_policy" => "rotate",
            "timesteps" => "7",
            "sampling" => "lhc",
            "ray_count" => "adaptive",
            "rays_min" => "8",
            "rays_max" => "512",
            "rel_var_target" => "0.02",
            "priority" => "high",
            "output" => "/tmp/x.uda",
            new => panic!("key '{new}' needs a second value in this test"),
        };
        let a = RunConfig::default();
        for key in KEYS {
            let mut b = a.clone();
            (key.set)(&mut b, second_value(key.name)).expect("second value is valid");
            assert_eq!(
                a.shape_signature() != b.shape_signature(),
                key.shape,
                "key '{}' = {}",
                key.name,
                second_value(key.name)
            );
        }
        let shape: Vec<&str> = KEYS.iter().filter(|k| k.shape).map(|k| k.name).collect();
        assert_eq!(
            shape,
            [
                "fine_cells", "patch_size", "levels", "refinement_ratio", "ranks", "threads",
                "store", "gpu",
            ],
            "the set of slot-shape keys is part of the serving contract"
        );
    }
}
