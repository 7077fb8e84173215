//! The multi-tenant radiation server.
//!
//! [`RadiationServer`] owns one shared [`DeviceFleet`] (every tenant
//! meters against the same devices), one shared [`GraphCache`] (compiled
//! task graphs adopted across jobs), and a pool of warm executor
//! `Slot`s. Submitted jobs land in one queue kept in tier order — every
//! `high` job ahead of every `normal` one, FIFO within each — and a fixed
//! pool of worker threads pulls the first *admissible* job: one whose
//! estimated device footprint fits what the capacity meters say is free
//! (see [`crate::admission`]). Jobs that fit the fleet but not the
//! current headroom stay queued; jobs larger than the whole fleet are
//! rejected with a typed error at submission.
//!
//! Drain/shutdown ordering: stop admitting → run the queue dry (every task
//! has already dropped the inputs it staged and taken its output back) →
//! workers exit → idle slots drop (freeing the retained level replicas) →
//! the fleet meters read zero.

use crate::admission::{self, Admission};
use crate::job::{JobId, JobOutcome};
use crate::slot::{JobSpec, Slot};
use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;
use uintah::config::{mib_to_bytes, JobPriority, RunConfig};
use uintah_gpu::DeviceFleet;
use uintah_runtime::{GraphCache, GraphCacheStats};

/// Server construction parameters.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads = maximum concurrently executing jobs.
    pub workers: usize,
    /// Devices in the shared fleet (tenants' `gpus_per_rank` is ignored;
    /// the fleet belongs to the server).
    pub gpus: usize,
    /// Capacity per device, MiB.
    pub gpu_capacity_mb: usize,
    /// Shared compiled-graph cache capacity (entries).
    pub graph_cache_cap: usize,
    /// Idle slots kept warm per server; excess slots drop at job finish.
    pub max_idle_slots: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            gpus: 1,
            gpu_capacity_mb: 6144,
            graph_cache_cap: 32,
            max_idle_slots: 4,
        }
    }
}

impl ServeConfig {
    /// Refuse a configuration the server cannot start with: no worker, an
    /// empty fleet, a graph cache of 0 entries, or a device capacity of
    /// 0 MiB or of more bytes than a `usize` holds. [`RadiationServer::start`] asserts through this, and
    /// `rmcrt_serve` reports the same text as a usage error.
    pub fn validate(&self) -> Result<(), String> {
        if self.workers == 0 {
            return Err("workers must be >= 1".into());
        }
        if self.gpus == 0 {
            return Err("gpus must be >= 1".into());
        }
        if self.graph_cache_cap == 0 {
            return Err("graph_cache_cap must be >= 1".into());
        }
        if self.gpu_capacity_mb == 0 {
            return Err("gpu_capacity_mb must be >= 1".into());
        }
        if mib_to_bytes(self.gpu_capacity_mb).is_none() {
            return Err(format!(
                "gpu_capacity_mb {} overflows a byte count",
                self.gpu_capacity_mb
            ));
        }
        Ok(())
    }
}

/// Why a submission was refused, as an in-process typed error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// Config text failed to parse or validate.
    BadConfig(String),
    /// Estimated footprint exceeds the fleet's total capacity — the job
    /// could never run, so it is refused instead of queued forever.
    TooLarge { footprint: u64, capacity: u64 },
    /// The server is draining.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::BadConfig(m) => write!(f, "bad config: {m}"),
            SubmitError::TooLarge {
                footprint,
                capacity,
            } => write!(
                f,
                "job needs ~{footprint} device bytes, fleet capacity is {capacity}"
            ),
            SubmitError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Server-wide counters (also served over the wire).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    pub submitted: u64,
    pub accepted: u64,
    pub rejected: u64,
    pub completed: u64,
    pub canceled: u64,
    pub failed: u64,
    /// Times the admission controller deferred a queued job for capacity
    /// (counted once per job per deferral episode, not per poll).
    pub queued_for_capacity: u64,
    /// Jobs that started on a recycled slot.
    pub slot_hits: u64,
    /// Slots built cold.
    pub slot_builds: u64,
    /// Slots dropped (idle-pool overflow, admission reclaim, a canceled or
    /// failed job).
    pub slot_retired: u64,
    /// Sum of per-job shared-graph adoptions.
    pub shared_graph_hits: u64,
    pub graph_cache: GraphCacheStats,
    /// Footprint bytes reserved by currently running jobs.
    pub reserved_bytes: u64,
    pub fleet_used: u64,
    pub fleet_capacity: u64,
    pub active_jobs: usize,
    pub queued_jobs: usize,
    pub idle_slots: usize,
}

enum JobState {
    Queued,
    Running,
    Finished(JobOutcome),
}

struct JobEntry {
    id: JobId,
    cancel: AtomicBool,
    state: Mutex<JobState>,
    cv: Condvar,
    submitted_at: Instant,
    priority: JobPriority,
    /// Set while queued; taken by the worker that admits the job.
    spec: Mutex<Option<JobSpec>>,
    footprint: u64,
}

impl JobEntry {
    fn finish(&self, outcome: JobOutcome) {
        *self.state.lock().unwrap() = JobState::Finished(outcome);
        self.cv.notify_all();
    }
}

/// Terminal jobs the server still answers [`RadiationServer::job`] (and a
/// wire `Wait`) for. An entry holds its report's whole divQ field, so
/// remembering every job grows the server by that much per job, for ever.
const FINISHED_JOBS_KEPT: usize = 64;

struct ServerState {
    /// Queued jobs in tier order: high-priority jobs first, then normal
    /// ones, each tier FIFO.
    queue: VecDeque<Arc<JobEntry>>,
    /// Queued and running jobs plus the last [`FINISHED_JOBS_KEPT`]
    /// terminal ones (wire `Wait` looks ids up here).
    jobs: HashMap<JobId, Arc<JobEntry>>,
    /// Terminal job ids still in `jobs`, oldest first.
    finished: VecDeque<JobId>,
    active: usize,
    idle_slots: Vec<Slot>,
    reserved_bytes: u64,
    shutting_down: bool,
    stats: ServerStats,
    /// Ids of jobs whose most recent admission attempt deferred, so the
    /// `queued_for_capacity` counter ticks once per episode.
    deferred: std::collections::HashSet<JobId>,
    next_job: JobId,
}

impl ServerState {
    /// `id` reached a terminal state: forget the oldest terminal job past
    /// the window. A live [`JobHandle`] owns its entry and is unaffected.
    fn note_finished(&mut self, id: JobId) {
        self.finished.push_back(id);
        if self.finished.len() > FINISHED_JOBS_KEPT {
            let oldest = self.finished.pop_front().expect("non-empty: just pushed");
            self.jobs.remove(&oldest);
        }
    }
}

struct ServerInner {
    cfg: ServeConfig,
    fleet: DeviceFleet,
    graph_cache: Arc<GraphCache>,
    state: Mutex<ServerState>,
    /// Workers park here for new work / freed capacity.
    work_cv: Condvar,
    /// `drain()` parks here for the system to empty.
    done_cv: Condvar,
}

/// Handle to one submitted job.
#[derive(Clone)]
pub struct JobHandle {
    entry: Arc<JobEntry>,
    inner: Arc<ServerInner>,
}

impl JobHandle {
    pub fn id(&self) -> JobId {
        self.entry.id
    }

    /// Block until the job reaches a terminal state.
    pub fn wait(&self) -> JobOutcome {
        let mut st = self.entry.state.lock().unwrap();
        loop {
            if let JobState::Finished(outcome) = &*st {
                return outcome.clone();
            }
            st = self.entry.cv.wait(st).unwrap();
        }
    }

    /// Request cancellation: a queued job is withdrawn immediately; a
    /// running job halts its world at the next step boundary any of its
    /// ranks reaches, which ends every rank's waits, and its slot is
    /// retired. Idempotent; a finished job is unaffected.
    pub fn cancel(&self) {
        self.inner.cancel_job(self.entry.id);
    }
}

/// The long-running multi-tenant radiation server.
pub struct RadiationServer {
    inner: Arc<ServerInner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl RadiationServer {
    /// Start the server: build the shared fleet and graph cache, spawn
    /// the worker pool. Panics on a `cfg` that [`ServeConfig::validate`]
    /// refuses.
    pub fn start(cfg: ServeConfig) -> Self {
        if let Err(why) = cfg.validate() {
            panic!("invalid ServeConfig: {why}");
        }
        let capacity =
            mib_to_bytes(cfg.gpu_capacity_mb).expect("validate() refuses an overflowing capacity");
        let fleet = DeviceFleet::with_capacity(cfg.gpus, "K20X-sim", capacity);
        let inner = Arc::new(ServerInner {
            graph_cache: Arc::new(GraphCache::new(cfg.graph_cache_cap)),
            fleet,
            state: Mutex::new(ServerState {
                queue: VecDeque::new(),
                jobs: HashMap::new(),
                finished: VecDeque::new(),
                active: 0,
                idle_slots: Vec::new(),
                reserved_bytes: 0,
                shutting_down: false,
                stats: ServerStats::default(),
                deferred: std::collections::HashSet::new(),
                next_job: 1,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            cfg,
        });
        let workers = (0..inner.cfg.workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        Self {
            inner,
            workers: Mutex::new(workers),
        }
    }

    /// Submit a parsed configuration. Admission may still queue the job;
    /// only structurally impossible jobs are rejected here.
    pub fn submit(&self, cfg: RunConfig) -> Result<JobHandle, SubmitError> {
        cfg.validate().map_err(SubmitError::BadConfig)?;
        let (grid, decls) = cfg.build_problem();
        let footprint =
            admission::estimate_device_footprint(&cfg, &grid, self.inner.cfg.gpus);
        let capacity = self.inner.fleet.total_capacity() as u64;
        let mut st = self.inner.state.lock().unwrap();
        st.stats.submitted += 1;
        if st.shutting_down {
            st.stats.rejected += 1;
            return Err(SubmitError::ShuttingDown);
        }
        if footprint > capacity {
            st.stats.rejected += 1;
            return Err(SubmitError::TooLarge {
                footprint,
                capacity,
            });
        }
        let id = st.next_job;
        st.next_job += 1;
        let run_id = format!("job-{id}");
        let entry = Arc::new(JobEntry {
            id,
            cancel: AtomicBool::new(false),
            state: Mutex::new(JobState::Queued),
            cv: Condvar::new(),
            submitted_at: Instant::now(),
            priority: cfg.priority,
            spec: Mutex::new(Some(JobSpec {
                id,
                run_id,
                cfg: cfg.clone(),
                grid,
                decls,
            })),
            footprint,
        });
        st.jobs.insert(id, Arc::clone(&entry));
        // A high job goes behind the last queued high one, ahead of every
        // normal one; a normal job goes last.
        let at = match cfg.priority {
            JobPriority::High => st.queue.iter().position(|e| e.priority == JobPriority::Normal),
            JobPriority::Normal => None,
        };
        let at = at.unwrap_or(st.queue.len());
        st.queue.insert(at, Arc::clone(&entry));
        st.stats.accepted += 1;
        drop(st);
        self.inner.work_cv.notify_all();
        Ok(JobHandle {
            entry,
            inner: Arc::clone(&self.inner),
        })
    }

    /// Submit raw `key = value` config text (the wire path).
    pub fn submit_text(&self, text: &str) -> Result<JobHandle, SubmitError> {
        let cfg = RunConfig::parse(text)
            .map_err(|e| SubmitError::BadConfig(e.to_string()))?;
        self.submit(cfg)
    }

    /// Look up a job by id (for wire `Wait`/`Cancel` from a different
    /// connection than the submitter's). `None` for an id never issued and
    /// for a job that finished more than 64 finished jobs ago.
    pub fn job(&self, id: JobId) -> Option<JobHandle> {
        let st = self.inner.state.lock().unwrap();
        st.jobs.get(&id).map(|entry| JobHandle {
            entry: Arc::clone(entry),
            inner: Arc::clone(&self.inner),
        })
    }

    /// Cancel by id; returns whether the job exists.
    pub(crate) fn cancel(&self, id: JobId) -> bool {
        self.inner.cancel_job(id)
    }

    /// Current server-wide counters.
    pub fn stats(&self) -> ServerStats {
        let st = self.inner.state.lock().unwrap();
        let mut s = st.stats;
        s.graph_cache = self.inner.graph_cache.stats();
        s.reserved_bytes = st.reserved_bytes;
        s.active_jobs = st.active;
        s.queued_jobs = st.queue.len();
        s.idle_slots = st.idle_slots.len();
        s.fleet_used = self.inner.fleet.total_used() as u64;
        s.fleet_capacity = self.inner.fleet.total_capacity() as u64;
        s
    }

    /// The shared fleet (tests assert zero-drift on its meters).
    pub fn fleet(&self) -> &DeviceFleet {
        &self.inner.fleet
    }

    /// Block until no job is queued or running.
    pub fn drain(&self) {
        let mut st = self.inner.state.lock().unwrap();
        while st.active > 0 || !st.queue.is_empty() {
            st = self.inner.done_cv.wait(st).unwrap();
        }
    }

    /// Drain, stop the workers, and drop all warm state (idle slots,
    /// hence every retained device byte). After this returns the fleet
    /// meters must read zero.
    pub fn shutdown(&self) {
        {
            let mut st = self.inner.state.lock().unwrap();
            st.shutting_down = true;
        }
        self.inner.work_cv.notify_all();
        let handles: Vec<_> = self.workers.lock().unwrap().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
        let mut st = self.inner.state.lock().unwrap();
        let retired = st.idle_slots.len() as u64;
        st.idle_slots.clear();
        st.stats.slot_retired += retired;
    }
}

impl Drop for RadiationServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl ServerInner {
    fn cancel_job(&self, id: JobId) -> bool {
        let mut st = self.state.lock().unwrap();
        let Some(entry) = st.jobs.get(&id).map(Arc::clone) else {
            return false;
        };
        entry.cancel.store(true, Ordering::Relaxed);
        // Withdraw from the queue immediately if still queued.
        if let Some(i) = st.queue.iter().position(|e| e.id == id) {
            st.queue.remove(i);
            st.deferred.remove(&id);
            st.stats.canceled += 1;
            st.note_finished(id);
            entry.finish(JobOutcome::Canceled);
            self.done_cv.notify_all();
        }
        true
    }

    /// Under the state lock: find the first admissible queued job in queue
    /// order (high tier first, FIFO within each) and the slot it will run
    /// on. Idle slots of other shapes are reclaimed (dropped) when that is
    /// what it takes to fit the job.
    fn take_runnable(&self, st: &mut ServerState) -> Option<(Arc<JobEntry>, Slot)> {
        let capacity = self.fleet.total_capacity() as u64;
        for idx in 0..st.queue.len() {
            let entry = Arc::clone(&st.queue[idx]);
            let key = {
                let spec = entry.spec.lock().unwrap();
                let Some(spec) = spec.as_ref() else { continue };
                spec.cfg.shape_signature()
            };
            let reusable: u64 = st
                .idle_slots
                .iter()
                .find(|s| s.key == key)
                .map(|s| s.resident_bytes())
                .unwrap_or(0);
            let idle_resident: u64 =
                st.idle_slots.iter().map(|s| s.resident_bytes()).sum();
            let mut decision = admission::decide(
                entry.footprint,
                capacity,
                st.reserved_bytes,
                idle_resident,
                reusable,
            );
            // Deferred for capacity, but idle slots of other shapes
            // hold reclaimable bytes: drop them (oldest first) until
            // the job fits or none remain.
            if decision == Admission::Defer {
                let mut idle_resident = idle_resident;
                while let Some(pos) = st
                    .idle_slots
                    .iter()
                    .position(|s| s.key != key && s.resident_bytes() > 0)
                {
                    let freed = st.idle_slots[pos].resident_bytes();
                    st.idle_slots.remove(pos);
                    st.stats.slot_retired += 1;
                    idle_resident -= freed.min(idle_resident);
                    decision = admission::decide(
                        entry.footprint,
                        capacity,
                        st.reserved_bytes,
                        idle_resident,
                        reusable,
                    );
                    if decision != Admission::Defer {
                        break;
                    }
                }
            }
            match decision {
                Admission::Admit => {
                    st.queue.remove(idx);
                    st.deferred.remove(&entry.id);
                    let slot = match st.idle_slots.iter().position(|s| s.key == key) {
                        Some(pos) => {
                            st.stats.slot_hits += 1;
                            st.idle_slots.remove(pos)
                        }
                        None => {
                            st.stats.slot_builds += 1;
                            let spec = entry.spec.lock().unwrap();
                            let spec = spec.as_ref().expect("spec present while queued");
                            Slot::new(
                                &spec.cfg,
                                Arc::clone(&spec.grid),
                                Arc::clone(&spec.decls),
                                &self.fleet,
                                &self.graph_cache,
                            )
                        }
                    };
                    st.reserved_bytes += entry.footprint;
                    st.active += 1;
                    *entry.state.lock().unwrap() = JobState::Running;
                    return Some((entry, slot));
                }
                Admission::Defer => {
                    if st.deferred.insert(entry.id) {
                        st.stats.queued_for_capacity += 1;
                    }
                    // Try the next job in FIFO order (first-fit): a
                    // smaller job behind may run meanwhile.
                }
            }
        }
        None
    }

    fn finish_job(&self, entry: &Arc<JobEntry>, slot: Option<Slot>, outcome: JobOutcome) {
        let mut st = self.state.lock().unwrap();
        st.reserved_bytes -= entry.footprint;
        st.active -= 1;
        match &outcome {
            JobOutcome::Done(_) => st.stats.completed += 1,
            JobOutcome::Canceled => st.stats.canceled += 1,
            JobOutcome::Failed(_) => st.stats.failed += 1,
        }
        st.note_finished(entry.id);
        if let JobOutcome::Done(r) = &outcome {
            st.stats.shared_graph_hits += r.stats.shared_graph_hits;
        }
        match slot {
            Some(slot)
                if !st.shutting_down && st.idle_slots.len() < self.cfg.max_idle_slots =>
            {
                st.idle_slots.push(slot)
            }
            _ => st.stats.slot_retired += 1,
        }
        entry.finish(outcome);
        drop(st);
        // A completion frees capacity and possibly a slot: wake admission
        // and any drain() waiter.
        self.work_cv.notify_all();
        self.done_cv.notify_all();
    }
}

fn worker_loop(inner: &Arc<ServerInner>) {
    loop {
        let (entry, mut slot) = {
            let mut st = inner.state.lock().unwrap();
            loop {
                if let Some(found) = inner.take_runnable(&mut st) {
                    break found;
                }
                if st.shutting_down && st.queue.is_empty() {
                    inner.done_cv.notify_all();
                    return;
                }
                st = inner.work_cv.wait(st).unwrap();
            }
        };
        let spec = entry
            .spec
            .lock()
            .unwrap()
            .take()
            .expect("spec taken exactly once");
        let queued_ns = entry.submitted_at.elapsed().as_nanos() as u64;
        let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
            slot.run_job(&spec, &entry.cancel, queued_ns)
        }));
        // A canceled or panicked job halted its slot's world, leaving its
        // schedulers and warehouses mid-step: drop the slot (and its device
        // memory) before the job's reservation is released, rather than
        // recycle it.
        match run {
            Ok(Some(report)) => {
                inner.finish_job(&entry, Some(slot), JobOutcome::Done(Arc::new(report)));
            }
            Ok(None) => {
                drop(slot);
                inner.finish_job(&entry, None, JobOutcome::Canceled);
            }
            Err(panic) => {
                drop(slot);
                inner.finish_job(&entry, None, JobOutcome::from_panic(&*panic));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_config_validate_refuses_each_unstartable_value() {
        assert_eq!(ServeConfig::default().validate(), Ok(()));
        let with = |set: fn(&mut ServeConfig)| {
            let mut cfg = ServeConfig::default();
            set(&mut cfg);
            cfg
        };
        for (field, cfg) in [
            ("workers", with(|c| c.workers = 0)),
            ("gpus", with(|c| c.gpus = 0)),
            ("graph_cache_cap", with(|c| c.graph_cache_cap = 0)),
            ("gpu_capacity_mb", with(|c| c.gpu_capacity_mb = 0)),
            // 2^44 MiB is 2^64 bytes: unchecked, it wraps to a 0-byte device.
            ("gpu_capacity_mb", with(|c| c.gpu_capacity_mb = 1 << 44)),
        ] {
            let why = cfg.validate().expect_err(field);
            assert!(why.starts_with(field), "{cfg:?}: {why}");
        }
    }
}
