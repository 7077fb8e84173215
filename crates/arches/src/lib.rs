//! ARCHES-lite: the CFD-side consumer of the radiation solve.
//!
//! The paper's production code couples RMCRT to the ARCHES large-eddy
//! simulation: ARCHES evolves the temperature field, hands `T` (as
//! `σT⁴/π`) and the absorption coefficient to RMCRT every few timesteps
//! (time-scale separation), and receives `∇·q_r` back as a source in the
//! energy equation (paper Eq. 1). A full LES code is out of scope (see
//! DESIGN.md §2); this mini-app reproduces the *coupling pattern* exactly
//! with an explicit finite-volume energy equation:
//!
//! ```text
//! ρ c_v ∂T/∂t = ∇·(k ∇T) + Q''' − ∇·q_r
//! ```
//!
//! integrated with strong-stability-preserving RK2/RK3 (Gottlieb–Shu–Tadmor,
//! the scheme ARCHES uses), plus a boiler-flavoured demo problem.

#![forbid(unsafe_code)]

pub mod advection;
pub mod boiler;
pub mod coupling;
pub mod energy;

pub use advection::Advection;
pub use boiler::BoilerSetup;
pub use coupling::RadiationCoupler;
pub use energy::{EnergySolver, TimeIntegrator};
