//! The hybrid threaded scheduler.
//!
//! Uintah's runtime executes the task graph with decentralized worker
//! threads: "each CPU core requesting work itself and performing its own
//! MPI" (MPI_THREAD_MULTIPLE). Workers pull ready tasks from a shared
//! queue, execute them out of order as dependencies resolve, post the
//! resulting sends themselves, and — when no task is ready — process
//! incoming messages through the pluggable [`RequestStore`] (the wait-free
//! pool or the mutex-vector baseline; the choice is the paper's Fig. 1 /
//! Table I experiment).
//!
//! An idle worker does not busy-spin: after a bounded number of empty
//! polls it parks on the rank's [`WorkSignal`](uintah_comm::WorkSignal)
//! with exponentially backed-off timed waits, woken by inbound messages
//! (the fabric notifies on `isend`) or by peers pushing ready work. Parked
//! time and park counts are reported in [`ExecStats`].
//!
//! `Scheduler::execute_phase` executes a *cached* graph under any
//! timestep phase: tags are re-stamped with the phase byte at post time
//! ([`Tag::with_phase`]), which is what makes compiled graphs reusable
//! across timesteps.

use crate::dw::DataWarehouse;
use crate::graph::{CompiledGraph, RecvAction, SendPayload};
use crate::task::{TaskContext, TaskDecl, TaskKind};
use crossbeam::queue::SegQueue;
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use uintah_comm::{
    Communicator, Message, MutexRequestVec, RequestStore, Tag, WaitFreeRequestStore,
};
use uintah_exec::{DeviceSpace, ExecSpace, KernelStats};
use uintah_gpu::GpuDataWarehouse;
use uintah_grid::Grid;

/// Which request-store implementation the workers share.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StoreKind {
    /// The paper's Algorithm 1 (wait-free pool). The "after".
    WaitFree,
    /// Lock-protected vector with Testsome-style sweeps. The "before".
    Mutex,
}

impl StoreKind {
    fn build(self) -> Arc<dyn RequestStore> {
        match self {
            StoreKind::WaitFree => Arc::new(WaitFreeRequestStore::new()),
            StoreKind::Mutex => Arc::new(MutexRequestVec::new()),
        }
    }
}

/// One fleet device's share of a step: its kernel metering plus the
/// per-step deltas of its transfer counters and its (absolute)
/// memory high-water mark.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeviceStepStats {
    /// Fleet device index.
    pub device: usize,
    /// Kernels dispatched on this device this step.
    pub kernel_stats: KernelStats,
    /// Host→device bytes this step.
    pub h2d_bytes: u64,
    /// Device→host bytes this step.
    pub d2h_bytes: u64,
    /// H2D occupancy (staging time) this step, in nanoseconds.
    pub h2d_busy_ns: u64,
    /// D2H occupancy (take and spill memcpy time) this step, in nanoseconds.
    pub d2h_busy_ns: u64,
    /// The device's memory high-water mark (absolute, not a delta — the
    /// capacity-meter number that must stay under the 6 GB budget).
    pub peak_bytes: u64,
    /// LRU evictions this step (oversubscription pressure; 0 when the
    /// problem fits).
    pub evictions: u64,
    /// Bytes spilled device→host by evictions this step.
    pub spilled_bytes: u64,
    /// Bytes transparently re-uploaded from the host spill map this step.
    pub reuploaded_bytes: u64,
}

/// Execution statistics for one `execute` call on one rank.
#[derive(Clone, Debug, Default)]
pub struct ExecStats {
    /// Job/run identifier of the step these stats describe (e.g.
    /// `job-17/r0`). When set, every [`Self::summary`] line is prefixed
    /// with `[<run_id>]` so interleaved multi-job logs stay attributable
    /// to their tenant; `None` (single-job runs) keeps the bare format.
    pub run_id: Option<Arc<str>>,
    pub tasks_executed: usize,
    pub gathers_executed: usize,
    pub messages_sent: usize,
    pub bytes_sent: u64,
    pub messages_received: usize,
    /// Time spent in local communication: posting sends and sweeping /
    /// processing receives (the quantity of Fig. 1 / Table I).
    pub local_comm: Duration,
    /// Time inside task bodies.
    pub task_time: Duration,
    pub wall: Duration,
    /// Time workers spent parked on the rank's work signal (idle, not
    /// burning a core — the complement of the old `yield_now` spin).
    pub idle: Duration,
    /// Number of timed parks taken by idle workers.
    pub parks: usize,
    /// Time spent compiling the task graph for this step; zero when a
    /// cached graph was reused (set by the persistent executor/driver, not
    /// by `execute` itself).
    pub graph_compile: Duration,
    /// Host→device bytes transferred during this step (delta of the GPU
    /// device counter across the call; 0 without a GPU warehouse).
    pub gpu_h2d_bytes: u64,
    /// Device→host bytes transferred during this step (delta of the GPU
    /// device counter; 0 without a GPU warehouse).
    pub gpu_d2h_bytes: u64,
    /// Always zero: every take is synchronous inside the task that owns
    /// the output, so no consumer ever waits on one. Kept only because the
    /// benchmark (`perf_report/`, frozen by the benchmark contract) reads
    /// it.
    pub gpu_d2h_wait: Duration,
    /// Always zero, for the same reason and kept for the same reader.
    pub gpu_d2h_overlap: Duration,
    /// Always zero: every upload is synchronous inside the task that needs
    /// it. Kept for the same reader.
    pub gpu_h2d_wait: Duration,
    /// Always zero, for the same reason and kept for the same reader.
    pub gpu_h2d_overlap: Duration,
    /// LRU evictions across the fleet this step (delta of the device
    /// counters; nonzero only when the problem oversubscribes a device).
    pub gpu_evictions: u64,
    /// Bytes spilled device→host by evictions across the fleet this step.
    pub gpu_spill_bytes: u64,
    /// Bytes re-uploaded from host spill maps across the fleet this step.
    pub gpu_reupload_bytes: u64,
    /// Kernel metering summed over this step's `Device` execution spaces:
    /// launches, cell invocations, logical bytes and wall time inside
    /// device dispatches (all zero without a GPU warehouse). Feeds the
    /// titan-sim cost-model calibration.
    pub kernel_stats: KernelStats,
    /// Per-device breakdown of the fleet's step: one entry per device in
    /// fleet order (kernel stats, PCIe byte/busy deltas, peak
    /// memory). Empty without a GPU warehouse; `kernel_stats` and the
    /// `gpu_*_bytes` fields are the sums of these entries.
    pub per_device: Vec<DeviceStepStats>,
    /// Regrids folded into this step (the persistent executor charges a
    /// regrid to the step that runs under the new distribution).
    pub regrids: usize,
    /// Graph recompile time attributable to a regrid this step (equals
    /// `graph_compile` when `regrids > 0`; zero otherwise).
    pub regrid_compile: Duration,
    /// Always 0: a regrid moves ownership, not data. Kept only because the
    /// benchmark (`perf_report/`, frozen by the benchmark contract) reads it.
    pub migrated_bytes: u64,
    /// Wall of the regrid folded into this step.
    pub migrate_wall: Duration,
    /// Per-declaration breakdown: (task name, executions, time in body).
    pub per_task: Vec<(&'static str, usize, Duration)>,
    /// Per-patch time in task bodies this step — the measured cost vector
    /// the load balancer's cost exchange feeds on. Only patches that ran
    /// tasks on this rank appear.
    pub per_patch: Vec<(uintah_grid::PatchId, Duration)>,
}

impl ExecStats {
    /// Multi-line human-readable report: the wall-time breakdown (task,
    /// local comm, idle/parked, graph compile), message and H2D traffic,
    /// and the per-task lines. Used by the bench binaries (`fig1_table1`)
    /// and handy from tests/examples.
    ///
    /// When [`Self::run_id`] is set, **every** line carries a `[<run_id>]`
    /// prefix — a multi-tenant server interleaves summaries from many jobs
    /// into one log, and a bare per-step line would be unattributable.
    pub fn summary(&self) -> String {
        let body = self.summary_body();
        match &self.run_id {
            Some(id) => {
                let mut out = String::with_capacity(body.len() + (id.len() + 3) * 16);
                for line in body.lines() {
                    out.push('[');
                    out.push_str(id);
                    out.push_str("] ");
                    out.push_str(line);
                    out.push('\n');
                }
                out
            }
            None => body,
        }
    }

    fn summary_body(&self) -> String {
        use std::fmt::Write as _;
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "wall {:.3} ms | task {:.3} ms  comm {:.3} ms  idle {:.3} ms ({} parks)  compile {:.3} ms",
            ms(self.wall),
            ms(self.task_time),
            ms(self.local_comm),
            ms(self.idle),
            self.parks,
            ms(self.graph_compile),
        );
        let _ = writeln!(
            out,
            "tasks {} (+{} gathers) | msgs {} sent / {} recv, {} B | h2d {} B | d2h {} B",
            self.tasks_executed,
            self.gathers_executed,
            self.messages_sent,
            self.messages_received,
            self.bytes_sent,
            self.gpu_h2d_bytes,
            self.gpu_d2h_bytes,
        );
        if self.regrids > 0 {
            let _ = writeln!(
                out,
                "regrids {} | recompile {:.3} ms | regrid {:.3} ms",
                self.regrids,
                ms(self.regrid_compile),
                ms(self.migrate_wall),
            );
        }
        if self.gpu_evictions > 0 || self.gpu_reupload_bytes > 0 {
            let _ = writeln!(
                out,
                "gpu oversub: {} evictions | spilled {} B | reuploaded {} B",
                self.gpu_evictions,
                self.gpu_spill_bytes,
                self.gpu_reupload_bytes,
            );
        }
        if !self.per_device.is_empty() {
            // One line per fleet device: its launches, PCIe traffic, and
            // engine occupancy — the aggregate is recoverable by summing.
            for d in &self.per_device {
                let _ = writeln!(
                    out,
                    "gpu[{}] {} launches | {} cells | {:.3} ms in kernels | h2d {} B ({} ns busy)  d2h {} B ({} ns busy) | peak {} B",
                    d.device,
                    d.kernel_stats.launches,
                    d.kernel_stats.invocations,
                    ms(d.kernel_stats.wall()),
                    d.h2d_bytes,
                    d.h2d_busy_ns,
                    d.d2h_bytes,
                    d.d2h_busy_ns,
                    d.peak_bytes,
                );
                if d.evictions > 0 || d.reuploaded_bytes > 0 {
                    let _ = writeln!(
                        out,
                        "gpu[{}]   evictions {} | spilled {} B | reuploaded {} B",
                        d.device, d.evictions, d.spilled_bytes, d.reuploaded_bytes,
                    );
                }
            }
        } else if self.kernel_stats.launches > 0 {
            // Hand-built stats without a per-device breakdown.
            let ks = &self.kernel_stats;
            let _ = writeln!(
                out,
                "device kernels {} launches | {} cells | {:.3} ms in kernels",
                ks.launches,
                ks.invocations,
                ms(ks.wall()),
            );
        }
        for (name, count, time) in &self.per_task {
            let _ = writeln!(out, "  {name:<24} {count:>6}x {:>10.3} ms", ms(*time));
        }
        out
    }
}

/// One worker's meters for one step. Only its worker writes it; the step
/// sums the workers' tallies at join, so metering puts no shared cache
/// line on the task or message path.
#[derive(Default)]
struct Tally {
    tasks_executed: usize,
    gathers_executed: usize,
    messages_sent: usize,
    bytes_sent: u64,
    /// Handler calls of the request store's sweeps.
    messages_received: usize,
    local_comm: Duration,
    task_time: Duration,
    idle: Duration,
    parks: usize,
    /// Per declaration: (executions, time in body).
    per_decl: Vec<(usize, Duration)>,
    /// Time in task bodies, indexed by patch id: the measured cost vector
    /// the load balancer exchanges before a rebalance.
    per_patch: Vec<Duration>,
}

impl Tally {
    fn new(ndecls: usize, npatches: usize) -> Self {
        Self {
            per_decl: vec![(0, Duration::ZERO); ndecls],
            per_patch: vec![Duration::ZERO; npatches],
            ..Self::default()
        }
    }
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, o: Self) {
        self.tasks_executed += o.tasks_executed;
        self.gathers_executed += o.gathers_executed;
        self.messages_sent += o.messages_sent;
        self.bytes_sent += o.bytes_sent;
        self.messages_received += o.messages_received;
        self.local_comm += o.local_comm;
        self.task_time += o.task_time;
        self.idle += o.idle;
        self.parks += o.parks;
        for (a, b) in self.per_decl.iter_mut().zip(o.per_decl) {
            a.0 += b.0;
            a.1 += b.1;
        }
        for (a, b) in self.per_patch.iter_mut().zip(o.per_patch) {
            *a += b;
        }
    }
}

/// A per-rank scheduler bound to a communicator.
pub struct Scheduler {
    comm: Communicator,
    nthreads: usize,
    store_kind: StoreKind,
}

impl Scheduler {
    pub fn new(comm: Communicator, nthreads: usize, store_kind: StoreKind) -> Self {
        assert!(nthreads >= 1);
        Self {
            comm,
            nthreads,
            store_kind,
        }
    }

    #[inline]
    pub(crate) fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// Execute a compiled graph to completion under timestep `phase`.
    ///
    /// The phase byte is the only per-timestep component of a message tag,
    /// so a graph compiled once can run every step: each posted receive and
    /// send re-stamps its tag with [`Tag::with_phase`] here. Distinct phase
    /// bytes keep concurrent/adjacent timesteps' messages from matching
    /// each other, exactly as with per-step recompilation.
    ///
    /// A panic on a worker — in a task body, a gather's seal or message
    /// handling — halts the world: every worker of every rank stops taking
    /// work, and the panic is re-raised here with its own
    /// payload. A rank whose world a peer halted returns the step's
    /// partial stats instead.
    pub(crate) fn execute_phase(
        &self,
        grid: &Arc<Grid>,
        decls: &[TaskDecl],
        graph: &CompiledGraph,
        dw: &DataWarehouse,
        gpu: Option<&GpuDataWarehouse>,
        phase: u8,
    ) -> ExecStats {
        let t_start = Instant::now();
        let counters_before = gpu.map(|g| g.counters_per_device()).unwrap_or_default();
        // The step's execution spaces: one shared, metered Device space
        // *per fleet device* (kernel stats aggregate across workers but
        // stay per-device), and a host space for CPU tasks. Each GPU task
        // is dispatched on its patch's home device — the same device the
        // warehouse stages that patch's variables on — so kernel launches
        // on different devices overlap freely.
        let device_spaces: Vec<DeviceSpace> = gpu
            .map(|g| {
                (0..g.num_devices())
                    .map(|i| DeviceSpace::with_index(g.device_at(i).clone(), i))
                    .collect()
            })
            .unwrap_or_default();
        let n = graph.instances.len();
        let deps: Vec<AtomicUsize> = graph
            .instances
            .iter()
            .map(|t| AtomicUsize::new(t.num_deps_in))
            .collect();
        // One ready queue. [6] gives GPU tasks a queue of their own with
        // priority, but in both RMCRT pipelines a trace task requires every
        // whole-level gather and a gather waits on every rank's
        // `initProperties`, so a GPU task is never ready while CPU work or
        // a gather is queued: the priority would reorder nothing
        // (EXPERIMENTS E31).
        let ready = SegQueue::<usize>::new();
        // The rank's work signal: notified by the fabric on inbound sends,
        // and by us whenever ready work appears, so parked peers wake.
        let signal = Arc::clone(self.comm.signal());
        let push_ready = |i: usize| {
            ready.push(i);
            signal.notify();
        };
        for &i in &graph.initial_ready {
            push_ready(i);
        }
        let remaining = AtomicUsize::new(n);
        // A worker that panics halts the world: its instance never
        // decrements `remaining`, and peers may wait for its sends.
        let world = self.comm.world();

        // Post every expected receive up front and index them by (src, tag),
        // re-stamped with the executing phase.
        let store = self.store_kind.build();
        let mut recv_map: HashMap<(usize, Tag), usize> = HashMap::new();
        for (ri, r) in graph.recvs.iter().enumerate() {
            let tag = r.tag.with_phase(phase);
            recv_map.insert((r.src_rank, tag), ri);
            store.add(self.comm.irecv(r.src_rank, tag));
        }

        // Each worker meters into its own `Tally` and returns it at join,
        // where the step sums them. Only `deps`, `remaining` and the world's
        // halt are shared: they synchronise the workers.
        let npatches = grid.num_patches();
        let (tally, panic) = std::thread::scope(|scope| {
            let mut workers = Vec::with_capacity(self.nthreads);
            for _ in 0..self.nthreads {
                workers.push(scope.spawn(|| {
                    let mut tally = Tally::new(decls.len(), npatches);
                    let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        let notify = |ids: &[usize]| {
                            for &j in ids {
                                if deps[j].fetch_sub(1, Ordering::AcqRel) == 1 {
                                    push_ready(j);
                                }
                            }
                        };
                        let handle_msg = |msg: Message| {
                            let ri = *recv_map.get(&(msg.src, msg.tag)).unwrap_or_else(|| {
                                panic!(
                                    "misrouted message: no posted receive matches src rank {} \
                                     tag {:?} in phase {} ({} receives posted)",
                                    msg.src,
                                    msg.tag,
                                    phase,
                                    recv_map.len(),
                                )
                            });
                            let entry = &graph.recvs[ri];
                            match entry.action {
                                RecvAction::Foreign { label, dst_patch } => {
                                    let (region, data) = crate::codec::decode_window(&msg.payload);
                                    dw.deposit_foreign(label, dst_patch, region, data);
                                }
                                RecvAction::Level { label, level } => {
                                    let (region, data) = crate::codec::decode_window(&msg.payload);
                                    dw.deposit_level_window(label, level, region, &data);
                                }
                            }
                            notify(&entry.dependents);
                        };

                        // Idle policy: poll-and-yield for a bounded number of
                        // empty rounds (covers the common a-message-is-about-
                        // to-land case cheaply), then park on the work signal
                        // with exponentially growing timed waits. The
                        // generation snapshot is taken *before* checking the
                        // queues/store, so any notify racing with those checks
                        // makes the park return immediately — no lost wakeups.
                        const SPIN_POLLS: u32 = 64;
                        const PARK_MIN: Duration = Duration::from_micros(50);
                        const PARK_MAX: Duration = Duration::from_millis(2);
                        let mut empty_polls: u32 = 0;
                        let mut park_for = PARK_MIN;
                        while remaining.load(Ordering::Acquire) > 0 && !world.halted() {
                            let seen = signal.generation();
                            if let Some(i) = ready.pop() {
                                empty_polls = 0;
                                park_for = PARK_MIN;
                                let inst = &graph.instances[i];
                                if let Some((label, level)) = inst.gather {
                                    dw.seal_level(label, level);
                                    tally.gathers_executed += 1;
                                } else {
                                    let di = inst.decl.expect("non-gather instance has a decl");
                                    let decl = &decls[di];
                                    let patch = grid.patch(inst.patch.expect("patch instance"));
                                    // One code path picks the space per task:
                                    // a GPU task dispatches its kernels on the
                                    // metered Device space of its patch's home
                                    // device (the same device the warehouse
                                    // routes that patch's variables to),
                                    // everything else on the host (each worker
                                    // already owns a whole patch task, so
                                    // intra-task host dispatch is serial).
                                    let space = match (decl.kind, gpu) {
                                        (TaskKind::Gpu, Some(g)) => {
                                            let dev = g.device_for_patch(patch.id());
                                            ExecSpace::Device(device_spaces[dev].clone())
                                        }
                                        _ => ExecSpace::host(1),
                                    };
                                    let mut ctx = TaskContext {
                                        grid,
                                        patch,
                                        dw,
                                        gpu,
                                        space,
                                    };
                                    let t0 = Instant::now();
                                    (decl.func)(&mut ctx);
                                    let dt = t0.elapsed();
                                    tally.task_time += dt;
                                    tally.per_decl[di].0 += 1;
                                    tally.per_decl[di].1 += dt;
                                    tally.per_patch[patch.id().index()] += dt;
                                    tally.tasks_executed += 1;
                                }
                                // Post this instance's sends ourselves (the
                                // MPI_THREAD_MULTIPLE pattern).
                                if !inst.sends.is_empty() {
                                    let t0 = Instant::now();
                                    for s in &inst.sends {
                                        let payload = match &s.payload {
                                            SendPayload::PatchWindow => {
                                                let var = dw
                                                    .get_patch(s.label, s.src_patch)
                                                    .expect("send before compute");
                                                crate::codec::encode_window(&var, &s.window)
                                            }
                                            SendPayload::LevelWindow(li) => {
                                                dw.pack_level_window(s.label, *li, &s.window)
                                            }
                                        };
                                        tally.bytes_sent += payload.len() as u64;
                                        tally.messages_sent += 1;
                                        self.comm.isend(
                                            s.dst_rank,
                                            s.tag.with_phase(phase),
                                            payload,
                                        );
                                    }
                                    tally.local_comm += t0.elapsed();
                                }
                                notify(&inst.deps_out);
                                if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                                    // Graph drained: wake every parked peer so
                                    // they observe completion promptly.
                                    signal.notify();
                                }
                            } else {
                                let t0 = Instant::now();
                                let n = store.process_completed(&mut |msg| {
                                    handle_msg(msg);
                                    tally.messages_received += 1;
                                });
                                tally.local_comm += t0.elapsed();
                                if n > 0 {
                                    empty_polls = 0;
                                    park_for = PARK_MIN;
                                    continue;
                                }
                                empty_polls += 1;
                                if empty_polls <= SPIN_POLLS {
                                    std::thread::yield_now();
                                } else {
                                    tally.parks += 1;
                                    let t0 = Instant::now();
                                    signal.wait_until_changed(seen, park_for);
                                    tally.idle += t0.elapsed();
                                    park_for = (park_for * 2).min(PARK_MAX);
                                }
                            }
                        }
                    }));
                    run.inspect_err(|_| world.halt()).map(|()| tally)
                }));
            }
            let mut sum = Tally::new(decls.len(), npatches);
            let mut panic = None;
            for w in workers {
                match w.join().expect("a worker catches its own panic") {
                    Ok(tally) => sum += tally,
                    Err(payload) => {
                        panic.get_or_insert(payload);
                    }
                }
            }
            (sum, panic)
        });

        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }

        // Per-device step breakdown: each device's kernel stats come from
        // its own space, the PCIe numbers from its counter deltas.
        let counters_after = gpu.map(|g| g.counters_per_device()).unwrap_or_default();
        let per_device: Vec<DeviceStepStats> = device_spaces
            .iter()
            .zip(counters_before.iter().zip(&counters_after))
            .map(|(ds, (before, after))| DeviceStepStats {
                device: ds.index(),
                kernel_stats: ds.kernel_stats(),
                h2d_bytes: after.h2d_bytes - before.h2d_bytes,
                d2h_bytes: after.d2h_bytes - before.d2h_bytes,
                h2d_busy_ns: after.h2d_busy_ns.saturating_sub(before.h2d_busy_ns),
                d2h_busy_ns: after.d2h_busy_ns.saturating_sub(before.d2h_busy_ns),
                peak_bytes: after.peak,
                evictions: after.evictions - before.evictions,
                spilled_bytes: after.spilled_bytes - before.spilled_bytes,
                reuploaded_bytes: after.reuploads_bytes - before.reuploads_bytes,
            })
            .collect();

        ExecStats {
            run_id: None,
            tasks_executed: tally.tasks_executed,
            gathers_executed: tally.gathers_executed,
            messages_sent: tally.messages_sent,
            bytes_sent: tally.bytes_sent,
            messages_received: tally.messages_received,
            local_comm: tally.local_comm,
            task_time: tally.task_time,
            wall: t_start.elapsed(),
            idle: tally.idle,
            parks: tally.parks,
            graph_compile: Duration::ZERO,
            gpu_h2d_bytes: per_device.iter().map(|d| d.h2d_bytes).sum(),
            gpu_d2h_bytes: per_device.iter().map(|d| d.d2h_bytes).sum(),
            gpu_d2h_wait: Duration::ZERO,
            gpu_d2h_overlap: Duration::ZERO,
            gpu_h2d_wait: Duration::ZERO,
            gpu_h2d_overlap: Duration::ZERO,
            gpu_evictions: per_device.iter().map(|d| d.evictions).sum(),
            gpu_spill_bytes: per_device.iter().map(|d| d.spilled_bytes).sum(),
            gpu_reupload_bytes: per_device.iter().map(|d| d.reuploaded_bytes).sum(),
            kernel_stats: KernelStats::sum(per_device.iter().map(|d| &d.kernel_stats)),
            per_device,
            regrids: 0,
            regrid_compile: Duration::ZERO,
            migrated_bytes: 0,
            migrate_wall: Duration::ZERO,
            per_patch: tally
                .per_patch
                .iter()
                .enumerate()
                .filter(|(_, t)| !t.is_zero())
                .map(|(i, &t)| (uintah_grid::PatchId(i as u32), t))
                .collect(),
            per_task: decls
                .iter()
                .zip(&tally.per_decl)
                .map(|(d, &(count, time))| (d.name, count, time))
                .collect(),
        }
    }
}
