//! Job identities, per-job statistics and the completed-job report.

use std::sync::Arc;
use uintah_grid::Region;

/// Server-assigned job identifier (monotonic per server instance).
pub type JobId = u64;

/// Counters accumulated over one job's execution on the server, summed
/// across its ranks and timesteps. The serve-side analogue of folding a
/// run's `ExecStats` — plus the multi-tenant sharing counters (shared
/// graph adoptions, slot reuse) that only exist on the server.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JobStats {
    /// Timesteps actually executed (less than requested when canceled).
    pub steps: u64,
    /// Task bodies executed across ranks and steps.
    pub tasks: u64,
    /// Point-to-point messages sent across ranks and steps.
    pub messages: u64,
    /// Payload bytes across those messages.
    pub bytes_sent: u64,
    pub gpu_h2d_bytes: u64,
    pub gpu_d2h_bytes: u64,
    pub gpu_evictions: u64,
    /// Mid-run ownership rebalances folded into this job's steps.
    pub regrids: u64,
    /// Task graphs compiled by this job's executors (0 when every rank's
    /// graph came from the slot's local cache or the shared tier).
    pub graph_compiles: u64,
    /// Graphs adopted from the server's shared [`GraphCache`] instead of
    /// compiled — cross-job sharing paying off.
    ///
    /// [`GraphCache`]: uintah_runtime::GraphCache
    pub shared_graph_hits: u64,
    /// Device-resident level-replica entries already present when the job
    /// started (inherited from a previous tenant of the same slot).
    pub level_replicas_inherited: u64,
    /// The job ran on a recycled executor slot (warm graphs and level
    /// replicas) rather than a freshly built one.
    pub slot_reused: bool,
    /// Nanoseconds between submission and the job starting to execute.
    pub queued_ns: u64,
    /// Nanoseconds spent executing (the world run through the divQ gather).
    pub exec_ns: u64,
}

impl JobStats {
    /// Fold a run's per-rank step stats (rank-major): ranks step in
    /// lockstep, so `steps` is their common count; everything else a rank
    /// counts adds up.
    pub(crate) fn from_steps(per_rank: &[Vec<uintah_runtime::ExecStats>]) -> Self {
        let mut j = JobStats {
            steps: per_rank.iter().map(Vec::len).max().unwrap_or(0) as u64,
            ..JobStats::default()
        };
        for s in per_rank.iter().flatten() {
            j.tasks += s.tasks_executed as u64;
            j.messages += s.messages_sent as u64;
            j.bytes_sent += s.bytes_sent;
            j.gpu_h2d_bytes += s.gpu_h2d_bytes;
            j.gpu_d2h_bytes += s.gpu_d2h_bytes;
            j.gpu_evictions += s.gpu_evictions;
            j.regrids += s.regrids as u64;
        }
        j
    }
}

/// The assembled fine-level `divQ` field of a completed job: one dense
/// window over the whole fine level, gathered from every rank's warehouse.
#[derive(Clone, Debug, PartialEq)]
pub struct DivqField {
    pub region: Region,
    /// Row-major cell data in the region's linear order; `f64` bits are
    /// preserved exactly through the wire protocol so a served job can be
    /// compared bit-for-bit against a standalone run.
    pub data: Vec<f64>,
}

impl DivqField {
    /// `(min, mean, max)` over the field (NaN-free by construction).
    pub fn min_mean_max(&self) -> (f64, f64, f64) {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for &x in &self.data {
            min = min.min(x);
            max = max.max(x);
            sum += x;
        }
        (min, sum / self.data.len().max(1) as f64, max)
    }
}

/// Everything a completed job hands back to its submitter.
#[derive(Clone, Debug, PartialEq)]
pub struct JobReport {
    pub job_id: JobId,
    /// The identifier stamped on every summary line: `job-<id>`.
    pub run_id: String,
    pub stats: JobStats,
    /// Ray-budget accounting. Exact for fixed ray-count jobs (rays/cell ×
    /// cells × steps); `None` for adaptive jobs, whose per-cell counts are
    /// not metered through the task graph.
    pub solve: Option<rmcrt_core::SolveStats>,
    /// One [`ExecStats::summary`] per (timestep, rank), every line
    /// prefixed with `[job-<id>/r<rank>]`.
    ///
    /// [`ExecStats::summary`]: uintah_runtime::ExecStats::summary
    pub summaries: Vec<String>,
    pub divq: DivqField,
}

/// Terminal state of a job as seen by a waiter.
#[derive(Clone, Debug)]
pub enum JobOutcome {
    Done(Arc<JobReport>),
    Canceled,
    Failed(String),
}

impl JobOutcome {
    /// The report, if the job completed.
    pub fn report(&self) -> Option<&Arc<JobReport>> {
        match self {
            JobOutcome::Done(r) => Some(r),
            _ => None,
        }
    }

    /// Unwrap a completed job's report; panics with the failure otherwise.
    pub fn expect_done(&self) -> &Arc<JobReport> {
        match self {
            JobOutcome::Done(r) => r,
            JobOutcome::Canceled => panic!("job was canceled"),
            JobOutcome::Failed(m) => panic!("job failed: {m}"),
        }
    }
}
