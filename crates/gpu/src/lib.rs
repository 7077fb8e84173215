//! Simulated accelerator + GPU DataWarehouse (paper contribution ii).
//!
//! The paper's GPUs are NVIDIA K20X: 6 GB of device global memory, two copy
//! engines (one per PCIe direction) and support for concurrent kernels via
//! CUDA streams. The binding constraint for multi-level RMCRT is *memory*:
//! the coarse, whole-domain radiative properties (`abskg`, `sigmaT4`,
//! `cellType`) must be resident for every patch task, and the original
//! per-patch DataWarehouse copies blew the 6 GB budget and the PCIe bus.
//!
//! This crate implements the design for real, substituting a host-side
//! device model for CUDA (see DESIGN.md §2):
//!
//! * [`GpuDevice`] — device-memory accounting against a byte capacity,
//!   transfer/byte/occupancy meters per PCIe direction (`Dir`; both
//!   directions copy synchronously on the task's own thread), and
//!   kernel-launch counters;
//! * [`GpuDataWarehouse`] — the per-device variable store with a *patch
//!   database* and the paper's new *level database*, which keeps exactly one
//!   shared copy of each per-level variable that all concurrent patch tasks
//!   reference. Disabling the level DB (the E4 ablation) makes every patch
//!   task materialize its own copy, reproducing the "before" memory and PCIe
//!   behaviour;
//! * [`DeviceFleet`] — a rank's set of N devices (Summit-style fat nodes),
//!   each with its own capacity meter, transfer meters, and — inside
//!   the warehouse — its own patch and level databases; each patch is
//!   homed by a sticky patch-id hash (`sticky_device`).

#![forbid(unsafe_code)]

pub mod device;
pub mod dw;
pub mod fleet;

pub use device::{DeviceCounters, GpuDevice, GpuError};
pub use dw::{DeviceVar, GpuDataWarehouse, PendingD2H};
pub use fleet::DeviceFleet;
