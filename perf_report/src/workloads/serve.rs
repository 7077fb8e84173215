//! `serve_closed2`: the served job, the last layer of the north star.
//!
//! An in-process `RadiationServer` (2 workers, 2 GPUs) behind `serve_on`
//! on a Unix socket; **closed loop, 2 `ServeClient` connections**, each
//! submitting its own seeded sequence of one-step 24^3 2-level B&C jobs
//! drawn from three repeating shapes. Closed loop because each tenant
//! waits for its divQ before its next solve. Repeating shapes make warm
//! slots, the shared `GraphCache` and inherited level replicas hit, and put
//! the config / slot-signature path on every request.

use super::{
    fill_e2e, ms, timed_setup, trace_overhead_pct, Busy, Clock, Op, Outcome, RunArgs, Window,
};
use crate::hostspeed::HostSpeed;
use crate::probes;
use crate::problem::{
    centre_slab, gather_divq, reference_params, rel_l2_pct, slab_reference_two_level,
};
use crate::span::{merge, Span, Tracer};
use crate::stats::{median, percentile_sorted, summarize, SplitMix64};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use uintah::config::RunConfig;
use uintah_grid::{CcVariable, Grid};
use uintah_runtime::run_world;
use uintah_serve::{
    serve_on, JobOutcome, JobReport, RadiationServer, ServeClient, ServeConfig, ServerSocket,
    ServerStats,
};

const JOB_SPAN: &str = "serve::job";
const SUBMIT_SPAN: &str = "serve::submit";
const WAIT_SPAN: &str = "serve::wait";
const CLIENTS: usize = 2;
/// Jobs each client runs between two host-speed samples (a sample per
/// 30 ms job would add 10 % think time to the closed loop; per 10 it is 1 %).
const JOBS_PER_BLOCK: usize = 10;

#[derive(Clone, Copy)]
struct Shape {
    gpu: bool,
    patch: i32,
    nrays: u32,
}

struct ServeSizes {
    fine: i32,
    halo: i32,
    threshold: f64,
    shapes: [Shape; 3],
    /// Frozen per-client job quota. The window closes at `--seconds` or at
    /// the quota, whichever comes first: the server keeps every finished
    /// job's report, so without a quota a faster server would serve more
    /// jobs in the window and show up as a `peak_rss_mb` regression.
    jobs_per_client: usize,
    ref_rays: u32,
    slab: i32,
    setup_reps: usize,
}

impl ServeSizes {
    fn pick(smoke: bool) -> Self {
        // CPU 8^3 patches; the same on the GPU; CPU 12^3 patches at another
        // ray count — three slot signatures, two of which share a grid.
        let shapes = |patch_a: i32, patch_c: i32| {
            [
                Shape {
                    gpu: false,
                    patch: patch_a,
                    nrays: 8,
                },
                Shape {
                    gpu: true,
                    patch: patch_a,
                    nrays: 8,
                },
                Shape {
                    gpu: false,
                    patch: patch_c,
                    nrays: 4,
                },
            ]
        };
        if smoke {
            Self {
                fine: 16,
                halo: 2,
                threshold: 0.05,
                shapes: shapes(4, 8),
                jobs_per_client: 3,
                ref_rays: 64,
                slab: 2,
                setup_reps: 2,
            }
        } else {
            Self {
                fine: 24,
                halo: 4,
                threshold: 0.05,
                shapes: shapes(8, 12),
                jobs_per_client: 300,
                ref_rays: 512,
                slab: 4,
                setup_reps: 5,
            }
        }
    }

    fn config_text(&self, shape: usize, high_priority: bool) -> String {
        let s = self.shapes[shape];
        format!(
            "fine_cells = {}\npatch_size = {}\nlevels = 2\nrefinement_ratio = 4\nnrays = {}\nthreshold = {}\nhalo = {}\n\
             ranks = 1\nthreads = 1\ngpu = {}\ntimesteps = 1\npriority = {}\n",
            self.fine,
            s.patch,
            s.nrays,
            self.threshold,
            self.halo,
            s.gpu,
            if high_priority { "high" } else { "normal" },
        )
    }
}

/// One client's job stream: `(shape, high priority)` per job, fixed by the
/// seed and the client index. Shapes come in rounds — each round a seeded
/// shuffle of all three — so every client sees every shape and the mix is
/// the same for every seed; only the order changes. 1 job in 5 is high
/// priority.
pub struct JobSequence {
    rng: SplitMix64,
    round: Vec<usize>,
}

impl JobSequence {
    pub fn new(seed: u64, client: usize) -> Self {
        Self {
            rng: SplitMix64(seed ^ (client as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F)),
            round: Vec::new(),
        }
    }
}

impl Iterator for JobSequence {
    type Item = (usize, bool);
    fn next(&mut self) -> Option<(usize, bool)> {
        if self.round.is_empty() {
            self.round = vec![0, 1, 2];
            self.rng.shuffle(&mut self.round);
        }
        let shape = self.round.pop().expect("round refilled above");
        Some((shape, self.rng.below(5) == 0))
    }
}

struct Served {
    server: Arc<RadiationServer>,
    socket: ServerSocket,
    path: PathBuf,
}

impl Served {
    /// Server start + socket + the first (cold) job of each shape.
    fn start(sz: &ServeSizes) -> Self {
        let server = Arc::new(RadiationServer::start(ServeConfig {
            workers: 2,
            gpus: 2,
            ..ServeConfig::default()
        }));
        // A relative path in the working directory: Unix socket paths are
        // capped near 100 bytes and the checkout may sit deep.
        let path = PathBuf::from(format!(".perf_report_{}.sock", std::process::id()));
        let socket = serve_on(Arc::clone(&server), &path).expect("bind the benchmark socket");
        let mut client = ServeClient::connect(&path).expect("connect to the benchmark socket");
        for shape in 0..sz.shapes.len() {
            let id = client
                .submit(&sz.config_text(shape, false))
                .expect("cold job accepted");
            assert!(
                matches!(client.wait(id), Ok(JobOutcome::Done(_))),
                "cold job of shape {shape} finished"
            );
        }
        Self {
            server,
            socket,
            path,
        }
    }

    /// Close the transport, drain, stop; true when the fleet is left clean.
    fn stop(self) -> bool {
        self.socket.close();
        self.server.drain();
        self.server.shutdown();
        let fleet = self.server.fleet();
        fleet.total_used() == 0
            && fleet
                .counters_per_device()
                .iter()
                .all(|c| c.release_underflows == 0)
            && fleet
                .devices()
                .iter()
                .all(|d| d.validate_allocator().is_ok())
    }
}

/// The reference answer of a shape: a solo `run_world` of the same config
/// (and the grid it ran on).
fn solo_divq(text: &str) -> (Arc<Grid>, CcVariable<f64>) {
    let cfg = RunConfig::parse(text).expect("benchmark config parses");
    let (grid, decls) = cfg.build_problem();
    let result = run_world(Arc::clone(&grid), decls, cfg.world_config());
    let field = gather_divq(&grid, &result);
    (grid, field)
}

struct JobRecord {
    /// Client-side latency; `kind` is the shape, `factor` the host-speed
    /// factor of the block of jobs this one ran in.
    op: Op,
    report: Option<Arc<JobReport>>,
}

/// What one client connection brings back from the timed window.
struct ClientRun {
    records: Vec<JobRecord>,
    spans: Vec<Span>,
    /// Wall of each block of jobs (barrier waits and speed samples excluded).
    block_walls: Vec<Duration>,
}

/// What the client threads of a window share.
struct WindowPlan<'a> {
    sz: &'a ServeSizes,
    /// Reference divQ per shape.
    solo: &'a [CcVariable<f64>],
    seed: u64,
    trace: bool,
    seconds: f64,
    origin: Instant,
    started: Instant,
    barrier: Barrier,
    stop: AtomicBool,
}

/// One closed-loop client, in lock-step blocks with the other. After every
/// block both clients meet at a barrier — no job is in flight — and sample
/// the host speed side by side (like the 2 workers they keep busy); the
/// barrier's leader then decides whether the window is over, so both leave
/// together.
fn client_loop(ci: usize, mut client: ServeClient, plan: &WindowPlan<'_>) -> ClientRun {
    let sz = plan.sz;
    let block_jobs = JOBS_PER_BLOCK.min(sz.jobs_per_client);
    let mut tracer = Tracer::new(false, plan.origin, 1 + ci as u32);
    let mut records: Vec<JobRecord> = Vec::new();
    let mut block_walls = Vec::new();
    let mut jobs = JobSequence::new(plan.seed, ci);
    plan.barrier.wait();
    let mut host = HostSpeed::start();
    plan.barrier.wait();
    loop {
        let block_start = records.len();
        let t_block = Instant::now();
        for _ in 0..block_jobs {
            let (shape, high) = jobs.next().expect("endless sequence");
            let text = sz.config_text(shape, high);
            let traced = plan.trace && records.len().is_multiple_of(2);
            tracer.set_enabled(traced);
            let op = ((ci as u64) << 32) | (records.len() as u64 + 1);
            let span = tracer.begin(JOB_SPAN, op);
            let t0 = Instant::now();
            let id = tracer.scope(SUBMIT_SPAN, op, || client.submit(&text));
            let outcome = id.and_then(|id| tracer.scope(WAIT_SPAN, op, || client.wait(id)));
            let latency_ms = ms(t0.elapsed());
            tracer.end(span);
            let report = match outcome {
                Ok(JobOutcome::Done(r)) => Some(r),
                _ => None,
            };
            let want = plan.solo[shape].as_slice();
            let verified = report.as_ref().is_some_and(|r| {
                r.divq.data.len() == want.len()
                    && r.divq
                        .data
                        .iter()
                        .zip(want)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            });
            records.push(JobRecord {
                op: Op {
                    raw_ms: latency_ms,
                    factor: 1.0,
                    traced,
                    verified,
                    kind: shape,
                },
                report,
            });
        }
        block_walls.push(t_block.elapsed());
        let leader = plan.barrier.wait().is_leader();
        let factor = host.factor();
        records[block_start..]
            .iter_mut()
            .for_each(|r| r.op.factor = factor);
        if leader {
            let done = records.len() >= sz.jobs_per_client
                || (plan.started.elapsed().as_secs_f64() >= plan.seconds && records.len() >= 2);
            plan.stop.store(done, Ordering::SeqCst);
        }
        plan.barrier.wait();
        if plan.stop.load(Ordering::SeqCst) {
            break;
        }
    }
    ClientRun {
        records,
        spans: tracer.into_spans(),
        block_walls,
    }
}

pub fn run(args: &RunArgs) -> Outcome {
    let sz = ServeSizes::pick(args.smoke);
    let mut out = Outcome::default();
    let origin = Instant::now();

    // --- set-up.
    let mut clean_stops = true;
    let (served, setup_s) = timed_setup(
        sz.setup_reps,
        Clock::Nominal,
        || Served::start(&sz),
        |s| clean_stops &= s.stop(),
    );
    out.e2e.set("setup_s", setup_s);
    if !clean_stops {
        out.problems
            .push("a set-up server left device bytes or a release underflow behind".into());
    }

    // --- references (excluded from setup_s): a solo run per shape.
    let t_verify = Instant::now();
    let (grids, solo): (Vec<Arc<Grid>>, Vec<CcVariable<f64>>) = (0..sz.shapes.len())
        .map(|shape| solo_divq(&sz.config_text(shape, false)))
        .unzip();
    let slab = centre_slab(solo[0].region(), sz.slab);
    let reference = slab_reference_two_level(
        &grids[0],
        sz.halo,
        slab,
        &reference_params(sz.ref_rays, sz.threshold),
    );
    out.e2e
        .set("divq_err_pct", rel_l2_pct(&solo[0], &reference));
    out.verify = t_verify.elapsed();
    let cells = solo[0].len() as u64;

    // Warm-up: every client connection sees every shape once before timing,
    // both at the same moment — the second job finds the shape's slot taken,
    // builds a fresh one and adopts its graphs from the shared cache, so
    // both sharing paths have run before the window opens.
    let mut clients: Vec<ServeClient> = (0..CLIENTS)
        .map(|_| ServeClient::connect(&served.path).expect("connect to the benchmark socket"))
        .collect();
    for shape in 0..sz.shapes.len() {
        let text = sz.config_text(shape, false);
        let ids: Vec<_> = clients
            .iter_mut()
            .map(|c| c.submit(&text).expect("warm-up accepted"))
            .collect();
        for (client, id) in clients.iter_mut().zip(ids) {
            client.wait(id).expect("warm-up finished");
        }
    }

    // --- timed window: 2 closed-loop clients.
    let plan = WindowPlan {
        sz: &sz,
        solo: &solo,
        seed: args.seed,
        trace: args.trace,
        seconds: args.seconds,
        origin,
        started: Instant::now(),
        barrier: Barrier::new(CLIENTS),
        stop: AtomicBool::new(false),
    };
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(ci, client)| {
                let plan = &plan;
                scope.spawn(move || client_loop(ci, client, plan))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let stats = served.server.stats();

    // The window's wall is the time jobs were in flight: per block, until
    // the slower client finished it.
    let blocks = runs[0].block_walls.len();
    let w = Window {
        ops: runs.iter().flat_map(|c| &c.records).map(|r| r.op).collect(),
        wall: (0..blocks)
            .map(|b| {
                runs.iter()
                    .map(|c| c.block_walls[b])
                    .max()
                    .expect("two clients")
            })
            .sum(),
    };
    fill_e2e(&mut out, &w, 1, cells, Busy::Wall);

    // --- did the sharing layers work?
    let mut need = |ok: bool, what: &str| {
        if !ok {
            out.problems.push(format!("did no work: {what}"));
        }
    };
    need(stats.slot_hits > 0, "no job ran on a warm slot");
    need(
        stats.shared_graph_hits > 0,
        "no compiled graph was adopted from the shared cache",
    );
    need(stats.failed == 0, "the server counted failed jobs");
    for (ci, c) in runs.iter().enumerate() {
        for shape in 0..sz.shapes.len() {
            need(
                c.records.iter().any(|r| r.op.kind == shape),
                &format!("client {ci} never submitted shape {shape}"),
            );
        }
    }

    if args.trace {
        report_layer(&mut out, &sz, &w, &stats, &runs, origin);
    }

    // --- the fleet must drain to 0 B with no release underflow.
    drop(runs);
    if !served.stop() {
        out.problems
            .push("the fleet did not drain to 0 B, or counted a release underflow".into());
    }
    out
}

/// The `serve.*` layer metrics of a traced run, the wire and warehouse
/// probes, and the merged span list.
fn report_layer(
    out: &mut Outcome,
    sz: &ServeSizes,
    w: &Window,
    stats: &ServerStats,
    runs: &[ClientRun],
    origin: Instant,
) {
    let reports: Vec<(&JobRecord, &Arc<JobReport>)> = runs
        .iter()
        .flat_map(|c| &c.records)
        .filter_map(|r| r.report.as_ref().map(|rep| (r, rep)))
        .collect();
    // Server-side durations are raw; each job's factor puts them on the nominal clock.
    let on_nominal_ms = |pick: &dyn Fn(&JobRecord, &JobReport) -> f64| -> Vec<f64> {
        reports
            .iter()
            .map(|(j, r)| pick(j, r) * j.op.factor)
            .collect()
    };
    let queue = on_nominal_ms(&|_, r| r.stats.queued_ns as f64 / 1e6);
    let exec = on_nominal_ms(&|_, r| r.stats.exec_ns as f64 / 1e6);
    let wire =
        on_nominal_ms(&|j, r| j.op.raw_ms - (r.stats.queued_ns + r.stats.exec_ns) as f64 / 1e6);
    let l = &mut out.layer;
    l.set("serve.queue_ms_p50", median(&queue));
    let exec_summary = summarize(&exec);
    l.set("serve.exec_ms_p50", exec_summary.p50);
    l.set("serve.wire_ms_p50", median(&wire));
    let mut latency = w.normalised_ms();
    latency.sort_by(f64::total_cmp);
    l.set("serve.job_ms_p99", percentile_sorted(&latency, 0.99));
    l.set(
        "serve.slot_hit_pct",
        100.0 * stats.slot_hits as f64 / stats.accepted.max(1) as f64,
    );
    l.set("serve.shared_graph_hits", stats.shared_graph_hits as f64);
    l.set(
        "serve.graph_compiles",
        reports
            .iter()
            .map(|(_, r)| r.stats.graph_compiles)
            .sum::<u64>() as f64,
    );
    let inherited: Vec<u64> = reports
        .iter()
        .filter(|(j, _)| sz.shapes[j.op.kind].gpu)
        .map(|(_, r)| r.stats.level_replicas_inherited)
        .collect();
    l.set(
        "serve.replicas_inherited_per_job",
        inherited.iter().sum::<u64>() as f64 / inherited.len().max(1) as f64,
    );
    l.set(
        "serve.queued_for_capacity",
        stats.queued_for_capacity as f64,
    );
    l.set("harness.trace_overhead_pct", trace_overhead_pct(w));
    out.summaries.push(("serve.exec_ms_p50", exec_summary));

    let mut tracer = Tracer::new(true, origin, 0);
    if let Some((_, report)) = reports.first() {
        probes::serve_wire(l, &mut tracer, report, &sz.config_text(0, false));
    }
    let gpu_shape = sz.shapes.iter().find(|s| s.gpu).expect("one GPU shape");
    probes::gpu_front_door(
        l,
        &mut tracer,
        gpu_shape.patch + 2 * sz.halo,
        gpu_shape.patch,
        sz.fine / 4,
    );
    let mut lists = vec![tracer.into_spans()];
    out.track_names.insert(0, "harness".into());
    for (ci, c) in runs.iter().enumerate() {
        lists.push(c.spans.clone());
        out.track_names
            .insert(1 + ci as u32, format!("client connection {ci}"));
    }
    out.spans = merge(lists);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_sequence_is_fixed_by_seed_and_client() {
        let take = |seed, client| JobSequence::new(seed, client).take(63).collect::<Vec<_>>();
        assert_eq!(take(1, 0), take(1, 0));
        assert_ne!(take(1, 0), take(1, 1), "clients draw their own streams");
        assert_ne!(take(1, 0), take(2, 0), "the seed changes the stream");
        let jobs = take(1, 0);
        for round in jobs.chunks(3) {
            let mut shapes: Vec<usize> = round.iter().map(|j| j.0).collect();
            shapes.sort_unstable();
            assert_eq!(shapes, [0, 1, 2], "every round of three covers every shape");
        }
        let high = jobs.iter().filter(|j| j.1).count();
        assert!(
            high > 0 && high < 32,
            "about 1 in 5 jobs is high priority, got {high}/63"
        );
    }

    #[test]
    fn every_shape_config_parses_and_differs_in_slot_signature_inputs() {
        let sz = ServeSizes::pick(false);
        let cfgs: Vec<RunConfig> = (0..3)
            .map(|s| RunConfig::parse(&sz.config_text(s, s == 1)).expect("parses"))
            .collect();
        assert!(!cfgs[0].gpu && cfgs[1].gpu && !cfgs[2].gpu);
        assert_eq!(cfgs[0].patch_size, cfgs[1].patch_size);
        assert_ne!(cfgs[0].patch_size, cfgs[2].patch_size);
        assert_eq!(cfgs[1].priority, uintah::config::JobPriority::High);
    }
}
