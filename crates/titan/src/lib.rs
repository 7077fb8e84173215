//! Titan-scale performance model (experiments E2/E3: Figures 2 and 3).
//!
//! The paper's strong-scaling results run on 16–16,384 Titan nodes (one
//! K20X GPU each). We cannot run on Titan, so — per DESIGN.md §2 — this
//! crate *models* the machine and *executes* the real workload structure on
//! a virtual clock:
//!
//! * [`census`] computes, from the actual grid, patch distribution and task
//!   pipeline, exactly what one rank does in a radiation timestep: patches
//!   initialized, ghost messages, whole-level (all-to-all) messages and
//!   their byte volumes, kernels launched. It is cross-checked against the
//!   real `uintah-runtime` graph compiler in the test suite.
//! * [`machine`] holds the hardware constants (Titan numbers from the
//!   paper's footnote: Gemini 1.4 µs latency / 20 GB/s injection, PCIe gen2,
//!   16 Opteron cores, K20X throughput calibrated against our measured
//!   host ray-march rate — see EXPERIMENTS.md).
//! * [`sim`] is a discrete-event simulation of one representative rank's
//!   timestep: CPU lanes compute properties and post/process messages
//!   (with the request-store efficiency factor — mutex vs wait-free —
//!   taken from the measured microbenchmark), the NIC serializes arrivals,
//!   the two copy engines and the kernel engine pipeline GPU patch tasks.
//!
//! Absolute seconds are model outputs, not measurements; the *shape* —
//! patch-size ordering, scaling break, efficiency at 16k GPUs — is the
//! reproduction target.

#![forbid(unsafe_code)]

pub mod census;
pub mod machine;
pub mod sim;

pub use census::{rank_census, RankCensus};
pub use machine::{CalibrationScale, MachineParams, StoreModel};
pub use sim::{simulate_timestep, Breakdown, CostProfile, ScalingPoint};
