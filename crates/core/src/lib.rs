//! Reverse Monte Carlo Ray Tracing (RMCRT) with adaptive mesh refinement —
//! the primary contribution of Humphrey et al. (IPDPS 2016).
//!
//! RMCRT computes the divergence of the radiative heat flux, `∇·q`, for
//! every cell of the finest mesh by tracing rays *backwards* from each cell
//! (the detector) and integrating the incoming intensity absorbed at the
//! origin (Helmholtz reciprocity). Rays are mutually exclusive, which is
//! what makes the method embarrassingly parallel per cell — and what made it
//! the paper's GPU target.
//!
//! The multi-level algorithm marches each ray on the fine mesh while inside
//! the ray's *region of interest* (its patch plus halo) and on successively
//! coarser whole-domain replicas farther away, cutting the all-to-all
//! communication volume from `O(N²)` of the single fine mesh to the coarse
//! replicas' footprint.
//!
//! Modules:
//!
//! * [`labels`] — variable labels and physical constants,
//! * [`rng`] — counter-based deterministic RNG (per cell/ray/timestep), so
//!   results are bit-identical for any rank/thread decomposition,
//! * [`props`] — per-level radiative properties (`abskg`, `σT⁴/π`,
//!   `cellType`) and the [`props::LevelProps`] trace input,
//! * [`trace`] — the Amanatides–Woo DDA ray marcher: single-level and
//!   multi-level (`updateSumI` in Uintah's `Ray.cc`),
//! * [`solver`] — `∇·q` solvers over regions and whole levels,
//! * [`benchmark`] — the Burns & Christon benchmark problem (the paper's
//!   scaling workload),
//! * [`dom`] — the discrete-ordinates (S_N) baseline solver RMCRT is
//!   compared against,
//! * [`tasks`] — Uintah-runtime task declarations wiring RMCRT into the
//!   distributed scheduler (CPU and simulated-GPU variants),
//! * [`radiometer`] — a virtual radiometer measuring incident flux on a
//!   surface patch.

pub mod benchmark;
pub mod dom;
pub mod flux;
pub mod labels;
pub mod packet;
pub mod props;
pub mod radiometer;
pub mod rng;
pub mod sampling;
pub mod scatter;
pub mod solver;
pub mod tasks;
pub mod trace;

pub use benchmark::BurnsChriston;
pub use packet::{MarchStats, PacketTracer, RayEnds, RayPacket};
pub use props::{LevelProps, FLOW_CELL, WALL_CELL};
pub use rng::CellRng;
pub use sampling::RaySampling;
pub use scatter::{PhaseFunction, ScatteringMedium};
pub use solver::{
    div_q_for_cell, solve_region, solve_region_exec, solve_region_with_stats, RayCountMode,
    RmcrtParams, SolveStats,
};
pub use trace::{trace_ray, TraceLevel, TraceOptions};
