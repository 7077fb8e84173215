//! The Uintah-style DAG task runtime.
//!
//! Uintah keeps a strict separation between *applications* (which declare
//! tasks with their data dependencies) and the *runtime system* (which
//! compiles the declarations into a distributed task graph, generates the
//! MPI messages, and executes tasks out of order from per-rank worker
//! threads). That separation is what let the paper fix scalability purely
//! inside the runtime. This crate reproduces the runtime:
//!
//! * [`task`] — task declarations: `requires` (own-patch, ghost-halo, or
//!   **whole-level** — the "infinite ghost cells" of the coarse radiation
//!   meshes), `computes` (patch variables or coarse-level windows), CPU/GPU
//!   placement;
//! * [`dw`] — the OnDemand DataWarehouse: per-patch variables, foreign ghost
//!   windows received from other ranks, and per-level replica accumulators;
//! * [`graph`] — compilation of declarations + grid + patch distribution
//!   into a per-rank [`graph::CompiledGraph`]: task instances, dependency
//!   edges, send specifications and expected receives;
//! * [`scheduler`] — the hybrid threaded scheduler: workers self-select
//!   ready tasks, perform their own sends/receives through `uintah-comm`
//!   (`MPI_THREAD_MULTIPLE` style) against a pluggable [`RequestStore`],
//!   and execute out of order as dependencies resolve;
//! * [`executor`] — the persistent timestep executor: caches the compiled
//!   graph across timesteps (phase re-stamped at post time), keeps GPU
//!   level replicas device-resident between steps, and adopts a
//!   load-balancer regrid ([`PersistentExecutor::regrid`]) rank-locally:
//!   ownership moves, data does not, since every step recomputes every
//!   variable, and the level replicas stay where they are;
//! * [`driver`] — the one multi-rank [`World`] that builds, steps, joins
//!   and gathers a job's ranks, for [`run_world`] (one fresh world per
//!   call) and the radiation server's slots (one warm world per shape);
//! * [`calibrate`] — the measured-calibration snapshot: per-step
//!   [`ExecStats`] fold into one serializable [`CalibrationSnapshot`] that
//!   `titan-sim` consumes as the single source of machine rates.
//!
//! [`RequestStore`]: uintah_comm::RequestStore

#![forbid(unsafe_code)]

pub mod archive;
pub mod calibrate;
pub mod codec;
pub mod driver;
pub mod dw;
pub mod executor;
pub mod graph;
pub mod scheduler;
pub mod task;

pub use archive::{ArchiveError, DataArchive};
pub use calibrate::{CalibrationSnapshot, DeviceCalibration};
pub use driver::{run_world, World, WorldConfig, WorldResult};
pub use dw::DataWarehouse;
pub use executor::PersistentExecutor;
pub use graph::{CompiledGraph, GraphCache, GraphCacheStats, GraphStats};
pub use scheduler::{DeviceStepStats, ExecStats, Scheduler, StoreKind};
pub use task::{Computes, Requirement, TaskContext, TaskDecl, TaskFn, TaskKind};
