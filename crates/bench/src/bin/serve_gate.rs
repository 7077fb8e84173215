//! Multi-tenant radiation-server gate (run by verify.sh).
//!
//! The serving PR's claim is that a long-running `uintah-serve` process
//! amortizes the cold per-job costs — executor-slot construction, task
//! graph compilation, cold H2D staging — across tenants, so a stream of
//! jobs completes much faster than the pre-server workflow of building a
//! fresh single-tenant world per job. This gate proves the claim end to
//! end and pins the safety properties that make the sharing admissible:
//!
//! 1. **Throughput floor**: a mixed 4-tenant stream (CPU and GPU configs
//!    interleaved) on a warm server completes at ≥ [`min_speedup`]× the
//!    completion rate of the same four jobs submitted serially, each to a
//!    cold single-tenant server (the one-world-per-job baseline). The
//!    floor is [`MIN_SPEEDUP_AT_4_CORES`] (3×) on the intended ≥ 4-core
//!    hosts, where concurrency and amortization stack; on a narrower host
//!    the concurrency share is physically bounded by the core count, so
//!    the floor scales as `0.75 × min(tenants, cores)` — never below 1×,
//!    because the amortization share alone (slot reuse + shared compiled
//!    graphs) must still put the warm stream ahead of cold-serial even on
//!    one core.
//! 2. **Bit-identity**: every tenant's divQ matches a standalone
//!    `run_world` of its own config bit for bit.
//! 3. **Shared-graph hit**: a tenant forced onto a fresh slot (its
//!    shape's only warm slot is occupied by a concurrent tenant) adopts
//!    its compiled graphs from the server's shared cache — ≥ 1 shared
//!    hit, zero compiles.
//! 4. **Admission under oversubscription**: on a deliberately tiny fleet
//!    a second GPU tenant queues (`queued_for_capacity`, `failed == 0`)
//!    instead of OOM-ing, and a job larger than the whole fleet is
//!    refused with the typed `TooLarge` error.
//! 5. **Zero meter drift**: after drain + shutdown every server's fleet
//!    reads exactly 0 bytes, no device counted a release underflow, and
//!    the sub-allocator invariants hold.
//!
//! Every floor is checked live against this run's own cold-serial
//! baseline; the gate has no checked-in baseline. `perf_report`'s
//! `serve_closed2` workload (`jobs_per_s`, `serve.slot_hit_pct`,
//! `serve.shared_graph_hits`, `serve.queued_for_capacity`) records the
//! measured values.
//!
//! ```text
//! cargo run -p rmcrt-bench --release --bin serve_gate
//! ```

use rmcrt_bench::gate;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use uintah::config::RunConfig;
use uintah::prelude::*;
use uintah_serve::{JobOutcome, RadiationServer, ServeConfig, SubmitError};

/// Warm-stream over cold-serial completion-rate floor on hosts with at
/// least one core per tenant, where 4 tenants run truly concurrently.
const MIN_SPEEDUP_AT_4_CORES: f64 = 3.0;
const TENANTS: usize = 4;

/// The floor this host must clear: 0.75 × the ideal concurrency
/// `min(TENANTS, cores)`, clamped to ≥ 1. At ≥ 4 cores this is exactly
/// the 3× service-level floor; on a 1-core CI box it degenerates to
/// "warm amortization must beat the cold-serial workflow outright".
fn min_speedup() -> f64 {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let ideal = TENANTS.min(cores) as f64;
    (MIN_SPEEDUP_AT_4_CORES / TENANTS as f64 * ideal).max(1.0)
}

/// The tenant workload: a 24³ two-level Burns & Christon solve in 2³
/// patches — ~2k fine patches, so graph compilation and slot/world
/// construction are a large share of a single short job, which is
/// exactly the cost a warm server amortizes. One ray per cell with an
/// early-termination threshold of 0.9 keeps the marches short relative
/// to the cold setup they ride on, and a single rank keeps the job free
/// of exchange costs that would be paid warm and cold alike.
fn cpu_cfg() -> RunConfig {
    RunConfig {
        fine_cells: 24,
        patch_size: 2,
        levels: 2,
        refinement_ratio: 2,
        nrays: 1,
        threshold: 0.9,
        halo: 2,
        ranks: 1,
        threads: 1,
        timesteps: 1,
        ..RunConfig::default()
    }
}

fn gpu_cfg() -> RunConfig {
    RunConfig {
        gpu: true,
        ..cpu_cfg()
    }
}

/// The reference answer: a standalone single-tenant run of this config.
fn solo_divq(cfg: &RunConfig) -> Vec<f64> {
    let (grid, decls) = cfg.build_problem();
    let result = run_world(Arc::clone(&grid), decls, cfg.world_config());
    result.fine_field(&grid, DIVQ).into_vec()
}

fn bits_differ(got: &[f64], want: &[f64]) -> Option<usize> {
    if got.len() != want.len() {
        return Some(usize::MAX);
    }
    got.iter()
        .zip(want)
        .position(|(a, b)| a.to_bits() != b.to_bits())
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(120);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Fleet hygiene after drain + shutdown: zero resident bytes, zero meter
/// drift, allocator invariants intact.
fn check_fleet_dry(server: &RadiationServer, label: &str, violations: &mut Vec<String>) {
    let used = server.fleet().total_used();
    if used != 0 {
        violations.push(format!("{label}: fleet holds {used} B after shutdown"));
    }
    for (d, c) in server.fleet().counters_per_device().iter().enumerate() {
        if c.release_underflows != 0 {
            violations.push(format!(
                "{label}: device {d} counted {} release underflows",
                c.release_underflows
            ));
        }
    }
    for (d, dev) in server.fleet().devices().iter().enumerate() {
        if let Err(e) = dev.validate_allocator() {
            violations.push(format!("{label}: device {d} allocator: {e}"));
        }
    }
}

fn main() -> ExitCode {
    let mut violations = Vec::new();

    let cpu = cpu_cfg();
    let gpu = gpu_cfg();
    let solo_cpu = solo_divq(&cpu);
    let solo_gpu = solo_divq(&gpu);
    // The mixed 4-tenant stream: CPU and GPU configs interleaved.
    let stream: Vec<(&str, &RunConfig, &Vec<f64>)> = vec![
        ("cpu", &cpu, &solo_cpu),
        ("gpu", &gpu, &solo_gpu),
        ("cpu", &cpu, &solo_cpu),
        ("gpu", &gpu, &solo_gpu),
    ];
    assert_eq!(stream.len(), TENANTS);

    // --- Serial baseline: one cold single-tenant world per job. ---------
    // Each submission pays slot construction, graph compilation and (for
    // the GPU tenants) cold H2D from scratch — the pre-server workflow.
    let t0 = Instant::now();
    for (name, cfg, want) in &stream {
        let server = RadiationServer::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let outcome = server.submit((*cfg).clone()).expect("baseline admits").wait();
        let report = outcome.expect_done();
        if let Some(i) = bits_differ(&report.divq.data, want) {
            violations.push(format!("serial {name} tenant: divQ differs at cell {i}"));
        }
        server.drain();
        server.shutdown();
        check_fleet_dry(&server, &format!("serial {name} baseline"), &mut violations);
    }
    let serial_ms = t0.elapsed().as_secs_f64() * 1e3;

    // --- Warm server: the same four jobs as concurrent tenants. ---------
    // One worker per tenant so that on wide hosts the stream's
    // concurrency is limited by cores, not by the slot pool.
    let server = RadiationServer::start(ServeConfig {
        workers: TENANTS,
        ..ServeConfig::default()
    });
    // Untimed warm-up, one job per slot shape: afterwards the slots are
    // idle-warm and the compiled graphs are published in the shared cache.
    for cfg in [&cpu, &gpu] {
        server
            .submit((*cfg).clone())
            .expect("warm-up admits")
            .wait()
            .expect_done();
    }
    let t1 = Instant::now();
    let handles: Vec<_> = stream
        .iter()
        .map(|(_, cfg, _)| server.submit((*cfg).clone()).expect("tenant admits"))
        .collect();
    let outcomes: Vec<_> = handles.iter().map(|h| h.wait()).collect();
    let served_ms = t1.elapsed().as_secs_f64() * 1e3;
    let mut warm_jobs = 0u64;
    for ((name, _, want), outcome) in stream.iter().zip(&outcomes) {
        let report = outcome.expect_done();
        if let Some(i) = bits_differ(&report.divq.data, want) {
            violations.push(format!(
                "served {name} tenant (job {}): divQ differs from solo at cell {i}",
                report.job_id
            ));
        }
        if report.stats.slot_reused || report.stats.shared_graph_hits > 0 {
            warm_jobs += 1;
        }
    }
    let speedup = serial_ms / served_ms;
    let floor = min_speedup();
    let stats = server.stats();
    println!(
        "serve: {TENANTS} tenants serial-cold {serial_ms:.1} ms, warm-concurrent {served_ms:.1} ms \
         -> {speedup:.2}x (floor {floor:.2}x on this host; slot hits {}, shared graph hits {}, \
         graph cache {:?})",
        stats.slot_hits, stats.shared_graph_hits, stats.graph_cache
    );
    if speedup < floor {
        violations.push(format!(
            "warm {TENANTS}-tenant stream only {speedup:.2}x the cold-serial rate \
             (floor {floor:.2}x on this host, {MIN_SPEEDUP_AT_4_CORES}x at >= {TENANTS} cores)"
        ));
    }
    if warm_jobs == 0 {
        violations.push("no tenant ran warm (neither slot reuse nor shared graphs)".into());
    }
    if stats.failed != 0 {
        violations.push(format!("{} tenants failed", stats.failed));
    }

    server.drain();
    server.shutdown();
    check_fleet_dry(&server, "warm server", &mut violations);

    // --- Deterministic shared-graph hit. --------------------------------
    // A dedicated two-worker server so the CPU shape has exactly one warm
    // slot: the warm-up job creates it and publishes its compiled graphs;
    // a long-running blocker then occupies it, so the next same-shape
    // tenant must build a fresh slot and adopt its graphs from the shared
    // cache instead of recompiling.
    let sharer = RadiationServer::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    sharer
        .submit(cpu.clone())
        .expect("warm-up admits")
        .wait()
        .expect_done();
    let blocker = sharer
        .submit(RunConfig {
            timesteps: 1_000_000,
            ..cpu.clone()
        })
        .expect("blocker admits");
    wait_until("blocker occupies the warm slot", || {
        sharer.stats().active_jobs == 1
    });
    let fresh_outcome = sharer.submit(cpu.clone()).expect("tenant admits").wait();
    let fresh = fresh_outcome.expect_done();
    let shared_hits = fresh.stats.shared_graph_hits;
    if fresh.stats.slot_reused {
        violations.push("shared-graph tenant was expected to build a fresh slot".into());
    }
    if shared_hits < 1 {
        violations.push(format!(
            "fresh-slot tenant adopted no shared graphs (compiles {})",
            fresh.stats.graph_compiles
        ));
    }
    if fresh.stats.graph_compiles != 0 {
        violations.push(format!(
            "fresh-slot tenant recompiled {} graphs despite the shared cache",
            fresh.stats.graph_compiles
        ));
    }
    blocker.cancel();
    if !matches!(blocker.wait(), JobOutcome::Canceled) {
        violations.push("blocker did not cancel".into());
    }
    sharer.drain();
    sharer.shutdown();
    check_fleet_dry(&sharer, "shared-graph server", &mut violations);

    // --- Admission under oversubscription. ------------------------------
    // A 3 MiB single-device fleet fits one ~2 MiB GPU tenant: the second
    // queues rather than fails, and a job larger than the whole fleet is
    // refused with the typed error.
    let tiny = RadiationServer::start(ServeConfig {
        workers: 2,
        gpus: 1,
        gpu_capacity_mb: 3,
        ..ServeConfig::default()
    });
    // Deliberately its own shape (decoupled from the throughput tenants):
    // 16³ in 4³ patches with a deep halo puts one replica at ~2 MiB — it
    // fits the 3 MiB fleet alone but not twice over.
    let small_gpu = RunConfig {
        fine_cells: 16,
        patch_size: 4,
        levels: 2,
        ranks: 1,
        threads: 1,
        nrays: 4,
        halo: 4,
        gpu: true,
        timesteps: 1_000_000,
        ..RunConfig::default()
    };
    let pinned = tiny.submit(small_gpu.clone()).expect("first tenant fits");
    wait_until("first GPU tenant running", || tiny.stats().active_jobs == 1);
    let queued = tiny
        .submit(RunConfig {
            timesteps: 1,
            ..small_gpu.clone()
        })
        .expect("second tenant accepted (queued)");
    wait_until("second tenant deferred for capacity", || {
        tiny.stats().queued_for_capacity >= 1
    });
    let t = tiny.stats();
    if t.active_jobs != 1 || t.queued_jobs != 1 {
        violations.push(format!(
            "oversubscription: expected 1 active + 1 queued, got {} + {}",
            t.active_jobs, t.queued_jobs
        ));
    }
    if t.failed != 0 {
        violations.push("oversubscription failed a tenant instead of queueing it".into());
    }
    match tiny.submit(RunConfig {
        fine_cells: 32,
        patch_size: 8,
        timesteps: 1,
        ..small_gpu.clone()
    }) {
        Err(SubmitError::TooLarge { .. }) => {}
        Err(e) => violations.push(format!("oversized job: expected TooLarge, got {e}")),
        Ok(_) => violations.push("a job larger than the fleet was admitted".into()),
    }
    pinned.cancel();
    if !matches!(pinned.wait(), JobOutcome::Canceled) {
        violations.push("pinned GPU tenant did not cancel".into());
    }
    if queued.wait().report().is_none() {
        violations.push("queued tenant did not complete after capacity freed".into());
    }
    tiny.drain();
    tiny.shutdown();
    check_fleet_dry(&tiny, "tiny fleet", &mut violations);

    let detail = format!(
        "{speedup:.2}x >= {floor:.2}x, bit-identical mixed stream, shared graphs adopted, \
         queued-not-failed admission, fleets dry"
    );
    gate::finish(env!("CARGO_BIN_NAME"), &detail, &violations, None)
}
