//! Structured AMR grid substrate for the RMCRT-AMR stack.
//!
//! This crate provides the pieces of Uintah's grid layer that the
//! multi-level reverse Monte Carlo ray tracing (RMCRT) algorithm depends on:
//!
//! * [`IntVector`] / [`Point`] / [`Vector`] — integer cell indices and
//!   double-precision geometry,
//! * [`Region`] — half-open axis-aligned boxes of cells,
//! * [`Patch`] — a Cartesian mesh patch (the unit of work distribution),
//! * [`Level`] — one mesh level: spacing, extents, refinement ratio and the
//!   set of patches tiling it,
//! * [`Grid`] — a hierarchy of levels (level 0 is the *coarsest*, matching
//!   Uintah's convention),
//! * [`CcVariable`] — a cell-centered field over a region (with ghost cells),
//! * restriction operators projecting fine data onto coarse levels, and
//! * patch→rank distribution (round-robin and Morton space-filling curve).
//!
//! The benchmark problems of Humphrey et al. (IPDPS 2016) are 2-level grids
//! with a refinement ratio of 4: fine CFD mesh 256³/512³ and coarse radiation
//! mesh 64³/128³, decomposed into 16³/32³/64³ patches.

#![forbid(unsafe_code)]

pub mod distribute;
pub mod geom;
pub mod grid;
pub mod index;
pub mod label;
pub mod level;
pub mod patch;
pub mod regrid;
pub mod region;
pub mod restriction;
pub mod variable;

pub use distribute::{DistributionPolicy, PatchDistribution};
pub use geom::{Point, Vector};
pub use grid::{Grid, GridBuilder};
pub use index::IntVector;
pub use label::VarLabel;
pub use level::{Level, LevelIndex, RefinementRatio};
pub use patch::{Patch, PatchId};
pub use regrid::{PatchCosts, RebalancePolicy, Regridder};
pub use region::Region;
pub use variable::{CcVariable, FieldData};
