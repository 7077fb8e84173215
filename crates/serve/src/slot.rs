//! Executor slots: the per-shape pool of warm multi-rank worlds the
//! server recycles across jobs.
//!
//! A slot is the [`World`] `run_world` would build from scratch for one
//! job, except that its GPU warehouses sit on the *server's shared*
//! [`DeviceFleet`] and its ranks share the server's [`GraphCache`]. Two
//! jobs with the same *shape* ([`RunConfig::shape_signature`]: grid
//! structure, world size, store kind, GPU options) can run back to back on
//! the same slot: [`World::run`] swaps in the second job's task
//! declarations and resets ownership to the canonical distribution, and
//! the job inherits
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

use crate::job::{DivqField, JobId, JobReport, JobStats};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;
use uintah::config::RunConfig;
use uintah_gpu::DeviceFleet;
use uintah_grid::Grid;
use uintah_runtime::{ExecStats, GraphCache, TaskDecl, World, WorldConfig};

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

/// A warm multi-rank world, reusable across same-shape jobs.
pub(crate) struct Slot {
    /// [`RunConfig::shape_signature`] of the job the slot was built for.
    pub key: u64,
    world: World,
    pub jobs_served: u64,
}

impl Slot {
    /// Build a cold slot for `cfg`'s shape: the world `run_world` would
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
        let mut world = World::new(grid, &decls, &wc, |_| {
            wc.gpu_capacity.map(|_| fleet.clone())
        });
        world.set_graph_cache(graph_cache);
        Self {
            key: cfg.shape_signature(),
            world,
            jobs_served: 0,
        }
    }

    /// Device bytes this slot still holds while idle (level replicas kept
    /// warm for the next same-shape tenant). Dropping the slot frees them.
    pub fn resident_bytes(&self) -> u64 {
        self.world.gpus().map(|g| g.resident_bytes() as u64).sum()
    }

    /// Device-resident level-replica entries across the slot's ranks.
    pub fn level_entries(&self) -> u64 {
        self.world.gpus().map(|g| g.level_entries() as u64).sum()
    }

    /// Run one job on this slot's world and report it; `None` when
    /// `cancel` stopped it before its last step. On return the slot is
    /// clean for the next tenant: per-patch device staging is cleared, and
    /// level replicas stay resident — they are the cross-job sharing the
    /// next same-shape tenant inherits (its first `ensure_level_fresh`
    /// revalidates them against its own sealed data before serving).
    pub fn run_job(
        &mut self,
        job: &JobSpec,
        cancel: &AtomicBool,
        queued_ns: u64,
    ) -> Option<JobReport> {
        let t0 = Instant::now();
        let slot_reused = self.jobs_served > 0;
        let level_replicas_inherited = self.level_entries();
        let (compiles0, shared0) = (self.world.compiles(), self.world.shared_graph_hits());
        let wc = WorldConfig {
            run_id: Some(job.run_id.clone()),
            ..job.cfg.world_config()
        };
        let per_rank = self.world.run(&job.decls, &wc, Some(cancel));
        self.jobs_served += 1;
        for g in self.world.gpus() {
            g.clear_patch_db();
        }
        if per_rank.iter().any(|steps| steps.len() < wc.timesteps) {
            return None;
        }
        let divq = self.world.fine_field(rmcrt_core::labels::DIVQ).into_vec();
        let stats = JobStats {
            graph_compiles: self.world.compiles() - compiles0,
            shared_graph_hits: self.world.shared_graph_hits() - shared0,
            level_replicas_inherited,
            slot_reused,
            queued_ns,
            exec_ns: t0.elapsed().as_nanos() as u64,
            ..JobStats::from_steps(&per_rank)
        };
        let fine = job.grid.fine_level();
        // Ray accounting is exact for fixed-count jobs; adaptive per-cell
        // counts are not metered through the task graph.
        let solve = (!job.cfg.adaptive_rays).then(|| {
            let cells = fine.num_cells() as u64 * stats.steps;
            rmcrt_core::SolveStats {
                total_rays: cells * job.cfg.nrays as u64,
                cells,
                march: Default::default(),
            }
        });
        Some(JobReport {
            job_id: job.id,
            run_id: job.run_id.clone(),
            stats,
            solve,
            summaries: per_rank.iter().flatten().map(ExecStats::summary).collect(),
            divq: DivqField {
                region: fine.cell_region(),
                data: divq,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uintah::config::KEYS;
    use uintah_runtime::TaskContext;

    /// A 1-rank x 2-thread job whose only task panics on one patch ends
    /// `run_job` with that task's message. Fails instead of hanging when
    /// `run_job` has not ended within 30 s.
    #[test]
    fn panicking_task_fails_a_multi_threaded_job() {
        let cfg = RunConfig {
            ranks: 1,
            threads: 2,
            ..RunConfig::default()
        };
        let (grid, _) = cfg.build_problem();
        let boom = TaskDecl::new(
            "boom",
            grid.fine_level_index(),
            Arc::new(|ctx: &mut TaskContext| {
                if ctx.patch().id().index() == 3 {
                    panic!("boom on patch 3");
                }
            }),
        );
        let job = JobSpec {
            id: 1,
            run_id: "job-1".into(),
            cfg,
            grid,
            decls: Arc::new(vec![boom]),
        };
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let fleet = DeviceFleet::with_capacity(1, "K20X-sim", 1 << 30);
            let cache = Arc::new(GraphCache::new(4));
            let mut slot = Slot::new(
                &job.cfg,
                Arc::clone(&job.grid),
                Arc::clone(&job.decls),
                &fleet,
                &cache,
            );
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                slot.run_job(&job, &AtomicBool::new(false), 0)
            }));
            let payload = run.expect_err("run_job returned despite a failed task");
            let _ = tx.send(payload.downcast_ref::<&str>().map(|s| s.to_string()));
        });
        let msg = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("run_job hung on a failed task");
        assert_eq!(msg.as_deref(), Some("boom on patch 3"));
    }

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
