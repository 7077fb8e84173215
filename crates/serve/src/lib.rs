//! RMCRT-as-a-service: a long-running, multi-tenant radiation server.
//!
//! The paper's RMCRT solver runs as a batch job — one problem, one
//! allocation, one exit. This crate wraps the same stack as a *service*:
//! concurrent tenants submit scene + [`RunConfig`] jobs (in process, or
//! over a length-prefixed Unix-socket protocol via `rmcrt_serve` /
//! `rmcrt_submit`) and get back the solved `divQ` field, ray accounting
//! and per-step execution summaries. Inside:
//!
//! * [`server`] — tiered job queue (high before normal, FIFO within
//!   each), a fixed worker pool, and per-job outcomes;
//! * [`admission`] — capacity-meter-driven admission: jobs that fit the
//!   fleet but not the current headroom queue; jobs larger than the fleet
//!   reject with a typed error;
//! * `slot` (internal) — warm executor slots recycled across
//!   same-shape jobs: compiled graphs (shared via
//!   [`uintah_runtime::GraphCache`]) and device-resident level replicas
//!   survive tenant turnover;
//! * [`protocol`] / [`net`] — the wire format and the Unix-socket
//!   transport (f64 fields travel as raw bits, so served results are
//!   bit-identical to standalone runs).
//!
//! [`RunConfig`]: uintah::config::RunConfig

#![forbid(unsafe_code)]

pub mod admission;
pub mod job;
pub mod net;
pub mod protocol;
pub mod server;
mod slot;

pub use job::{DivqField, JobId, JobOutcome, JobReport, JobStats};
pub use net::{serve_on, ClientError, ServeClient, ServerSocket};
pub use protocol::{Request, Response, RejectCode};
pub use server::{JobHandle, RadiationServer, ServeConfig, ServerStats, SubmitError};
