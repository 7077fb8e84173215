//! Facade crate for the RMCRT-AMR stack: one `use uintah::prelude::*`
//! brings in the grid, runtime, communication, memory, GPU-model, RMCRT
//! and Titan-model APIs.
//!
//! The stack reproduces Humphrey, Harman, Sunderland & Berzins,
//! *"Radiative Heat Transfer Calculation on 16384 GPUs Using a Reverse
//! Monte Carlo Ray Tracing Approach with Adaptive Mesh Refinement"*
//! (IPDPS Workshops 2016). See README.md for the architecture tour and
//! EXPERIMENTS.md for the per-figure reproduction record.

#![forbid(unsafe_code)]

pub mod config;
pub mod viz;

pub use arches_lite as arches;
pub use rmcrt_core as rmcrt;
pub use titan_sim as titan;
pub use uintah_comm as comm;
pub use uintah_exec as exec;
pub use uintah_gpu as gpu;
pub use uintah_grid as grid;
pub use uintah_mem as mem;
pub use uintah_runtime as runtime;

/// The most commonly used types across the stack.
pub mod prelude {
    pub use arches_lite::{BoilerSetup, EnergySolver, RadiationCoupler};
    pub use rmcrt_core::labels::{ABSKG, CELLTYPE, DIVQ, SIGMA_T4_OVER_PI};
    pub use rmcrt_core::tasks::{
        multilevel_decls, reference_multilevel, reference_single_level, single_level_decls,
        RmcrtPipeline,
    };
    pub use rmcrt_core::{
        div_q_for_cell, solve_region, solve_region_exec, solve_region_with_stats, trace_ray,
        BurnsChriston, CellRng, LevelProps, PacketTracer, RayCountMode, RayPacket, RmcrtParams,
        SolveStats, TraceLevel,
    };
    pub use titan_sim::{
        simulate_timestep, CalibrationScale, CostProfile, MachineParams, StoreModel,
    };
    pub use uintah_comm::{CommWorld, Communicator, Tag, WaitFreePool};
    pub use uintah_exec::{
        ops, parallel_fill, parallel_for, parallel_map, parallel_reduce, DeviceSpace, ExecSpace,
        KernelStats,
    };
    pub use uintah_gpu::{DeviceCounters, DeviceFleet, GpuDataWarehouse, GpuDevice};
    pub use uintah_grid::{
        CcVariable, DistributionPolicy, FieldData, Grid, IntVector, PatchCosts,
        PatchDistribution, Point, RebalancePolicy, Region, Regridder, VarLabel, Vector,
    };
    pub use uintah_runtime::{
        run_world, CalibrationSnapshot, DeviceStepStats, RegridEvent, StoreKind, WorldConfig,
        WorldResult,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_links_every_crate() {
        use crate::prelude::*;
        let grid = BurnsChriston::small_grid(8, 4);
        assert_eq!(grid.num_levels(), 2);
        let dev = GpuDevice::k20x();
        assert!(dev.capacity() > 0);
        let pool: WaitFreePool<u32> = WaitFreePool::new();
        pool.insert(1);
        assert_eq!(pool.len(), 1);
    }
}
