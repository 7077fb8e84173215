//! Multi-tenant radiation-server battery (`uintah-serve`):
//!
//! * concurrent identical tenants produce bit-identical divQ to a
//!   standalone `run_world`, and the sharing counters prove warm slots /
//!   shared compiled graphs actually carried some of the load;
//! * a mixed-configuration stream never cross-contaminates — every job
//!   gets exactly the answer its own config produces solo, even when two
//!   configs share an executor slot;
//! * every summary line is keyed by `[job-<id>/r<rank>]` so interleaved
//!   multi-tenant logs stay attributable;
//! * a tenant forced onto a fresh slot adopts its compiled graphs from the
//!   shared cache instead of recompiling;
//! * admission control queues jobs that exceed the current headroom and
//!   rejects jobs larger than the whole fleet with a typed error;
//! * the high-priority tier overtakes the normal queue;
//! * the wire protocol preserves `f64` bits end to end, and a client
//!   disconnect cancels the jobs it submitted and abandoned;
//! * malformed config text over the wire is a typed rejection on a
//!   connection that stays usable, never a dead connection thread;
//! * the server forgets a finished job once 64 later ones have finished,
//!   while a handle taken earlier keeps its outcome;
//! * a served GPU job that regrids mid-run is bit-identical to the same
//!   config run solo, and leaves its slot in the canonical state for the
//!   next tenant.

use std::sync::Arc;
use std::time::{Duration, Instant};
use uintah::config::{JobPriority, RunConfig};
use uintah::prelude::*;
use uintah_serve::{
    serve_on, ClientError, JobOutcome, RadiationServer, RejectCode, ServeClient, ServeConfig,
    SubmitError,
};

/// The reference answer: what a standalone single-tenant run of exactly
/// this config computes for the fine-level divQ.
fn solo_divq(cfg: &RunConfig) -> Vec<f64> {
    solo_run(cfg).0
}

/// [`solo_divq`] plus the regrids the solo run performed, summed over
/// ranks and timesteps the way `JobStats::regrids` sums them.
fn solo_run(cfg: &RunConfig) -> (Vec<f64>, u64) {
    let (grid, decls) = cfg.build_problem();
    let result = run_world(Arc::clone(&grid), decls, cfg.world_config());
    let regrids = result.ranks.iter().flat_map(|r| &r.stats).map(|s| s.regrids as u64).sum();
    (result.fine_field(&grid, DIVQ).into_vec(), regrids)
}

fn assert_bits_equal(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: field size");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: cell {i} differs");
    }
}

/// A small two-level problem every test here can afford to run repeatedly.
fn small_cfg() -> RunConfig {
    RunConfig {
        fine_cells: 16,
        patch_size: 4,
        levels: 2,
        nrays: 8,
        halo: 2,
        ranks: 2,
        threads: 2,
        timesteps: 2,
        ..RunConfig::default()
    }
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(120);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// N concurrent identical tenants == N solo runs, bit for bit — and the
/// server shared state across them (a recycled slot and/or compiled
/// graphs adopted from the shared cache) rather than rebuilding
/// everything per tenant.
#[test]
fn concurrent_identical_jobs_bit_identical_to_solo_run() {
    let cfg = small_cfg();
    let baseline = solo_divq(&cfg);
    let server = RadiationServer::start(ServeConfig {
        workers: 3,
        ..ServeConfig::default()
    });

    // Warm-up tenant: builds the first slot and seeds the graph cache.
    let warm = server.submit(cfg.clone()).unwrap();
    let outcome = warm.wait();
    let warm_report = outcome.expect_done();
    assert_bits_equal(&warm_report.divq.data, &baseline, "warm-up job");
    assert!(!warm_report.stats.slot_reused, "first tenant is cold");
    assert!(warm_report.stats.graph_compiles > 0, "first tenant compiles");

    // Three identical tenants in flight at once.
    let handles: Vec<_> = (0..3).map(|_| server.submit(cfg.clone()).unwrap()).collect();
    for h in &handles {
        let outcome = h.wait();
        let report = outcome.expect_done();
        assert_eq!(report.stats.steps, cfg.timesteps as u64);
        assert_bits_equal(
            &report.divq.data,
            &baseline,
            &format!("job {}", h.id()),
        );
    }

    let stats = server.stats();
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.canceled, 0);
    // Sharing must have carried load: the warm-up's idle slot is always
    // recycled by the first admitted tenant, and any tenant that built a
    // fresh slot instead must have adopted both ranks' compiled graphs
    // from the shared cache.
    assert!(stats.slot_hits >= 1, "warm slot never recycled: {stats:?}");
    assert!(
        stats.slot_hits + stats.shared_graph_hits >= 3,
        "three tenants shared almost nothing: {stats:?}"
    );
    assert!(
        stats.graph_cache.insertions >= 2,
        "both ranks' graphs should be published: {:?}",
        stats.graph_cache
    );

    server.drain();
    server.shutdown();
    assert_eq!(server.fleet().total_used(), 0);
}

/// A mixed stream of configurations — including two that share an
/// executor slot shape but differ in ray count and threshold — never
/// cross-contaminates: every report matches its own config's solo answer.
#[test]
fn mixed_config_stream_never_cross_contaminates() {
    let a = small_cfg();
    let b = RunConfig {
        nrays: 21,
        threshold: 0.01,
        timesteps: 1,
        ..small_cfg()
    };
    let c = RunConfig {
        fine_cells: 8,
        patch_size: 4,
        levels: 1,
        ranks: 1,
        threads: 1,
        nrays: 5,
        halo: 2,
        timesteps: 3,
        ..RunConfig::default()
    };
    // a and b hash to the same slot shape (only per-job parameters
    // differ); c is a different world entirely.
    let solo_a = solo_divq(&a);
    let solo_b = solo_divq(&b);
    let solo_c = solo_divq(&c);

    let server = RadiationServer::start(ServeConfig {
        workers: 3,
        ..ServeConfig::default()
    });
    let stream = [
        ("a", &a, &solo_a),
        ("b", &b, &solo_b),
        ("c", &c, &solo_c),
        ("b again", &b, &solo_b),
        ("a again", &a, &solo_a),
    ];
    let handles: Vec<_> = stream
        .iter()
        .map(|(name, cfg, want)| (name, server.submit((*cfg).clone()).unwrap(), want))
        .collect();
    for (name, handle, want) in &handles {
        let outcome = handle.wait();
        let report = outcome.expect_done();
        assert_bits_equal(&report.divq.data, want, name);
    }
    let stats = server.stats();
    assert_eq!(stats.completed, 5);
    assert_eq!(stats.failed, 0);
    server.drain();
    server.shutdown();
}

/// Interleaved multi-tenant logs stay attributable: every line of every
/// summary is prefixed with its own job's `[job-<id>/r<rank>]` key, both
/// ranks report, and no line carries another job's key.
#[test]
fn summary_lines_are_keyed_by_job_and_rank() {
    let server = RadiationServer::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let first = server.submit(small_cfg()).unwrap();
    let second = server
        .submit(RunConfig {
            nrays: 13,
            ..small_cfg()
        })
        .unwrap();
    let outcomes = [first.wait(), second.wait()];
    let reports: Vec<_> = outcomes.iter().map(|o| o.expect_done()).collect();
    for report in &reports {
        // One summary per (rank, step): 2 ranks x 2 timesteps.
        assert_eq!(report.summaries.len(), 4, "job {}", report.job_id);
        let own = format!("[{}/r", report.run_id);
        let mut per_rank = [0usize; 2];
        for summary in &report.summaries {
            for line in summary.lines() {
                assert!(
                    line.starts_with(&own),
                    "job {} summary line lacks its key: {line:?}",
                    report.job_id
                );
                for (rank, count) in per_rank.iter_mut().enumerate() {
                    if line.starts_with(&format!("[{}/r{rank}] ", report.run_id)) {
                        *count += 1;
                    }
                }
            }
        }
        assert!(
            per_rank.iter().all(|&n| n > 0),
            "job {}: some rank never reported: {per_rank:?}",
            report.job_id
        );
    }
    // The prefix check above is per-job exhaustive, so keys can never have
    // crossed; make the corruption check explicit anyway.
    let other = format!("[{}/", reports[1].run_id);
    assert!(
        reports[0].summaries.iter().all(|s| !s.contains(&other)),
        "job {} summaries leaked into job {}",
        reports[1].job_id,
        reports[0].job_id
    );

    server.drain();
    server.shutdown();
}

/// Admission control: a GPU tenant that fits the fleet but not the
/// current headroom queues (counted in `queued_for_capacity`) instead of
/// OOM-ing, and runs once capacity frees; a job larger than the whole
/// fleet is rejected with [`SubmitError::TooLarge`], not a panic. After
/// drain + shutdown the shared device meters read exactly zero.
#[test]
fn admission_queues_oversubscribed_jobs_and_rejects_impossible_ones() {
    // One simulated 3 MiB device: the 16^3 two-level GPU problem below
    // needs ~2 MiB, so one tenant fits and two concurrent tenants do not.
    let server = RadiationServer::start(ServeConfig {
        workers: 2,
        gpus: 1,
        gpu_capacity_mb: 3,
        ..ServeConfig::default()
    });
    let gcfg = RunConfig {
        fine_cells: 16,
        patch_size: 4,
        levels: 2,
        ranks: 1,
        threads: 1,
        nrays: 4,
        gpu: true,
        // Effectively forever; canceled below once the test has observed
        // what it needs. Keeps the capacity pinned deterministically.
        timesteps: 100_000,
        ..RunConfig::default()
    };
    let blocker = server.submit(gcfg.clone()).unwrap();
    wait_until("blocker running", || server.stats().active_jobs == 1);

    let queued = server
        .submit(RunConfig {
            timesteps: 1,
            ..gcfg.clone()
        })
        .unwrap();
    wait_until("second tenant deferred for capacity", || {
        server.stats().queued_for_capacity >= 1
    });
    let stats = server.stats();
    assert_eq!(stats.active_jobs, 1, "second tenant must queue, not run");
    assert_eq!(stats.queued_jobs, 1);
    assert_eq!(stats.failed, 0, "oversubscription must never OOM a job");

    // Larger than the entire fleet: refused up front, typed, no panic.
    let huge = RunConfig {
        fine_cells: 32,
        patch_size: 8,
        timesteps: 1,
        ..gcfg.clone()
    };
    match server.submit(huge) {
        Err(SubmitError::TooLarge {
            footprint,
            capacity,
        }) => assert!(footprint > capacity),
        Err(e) => panic!("expected TooLarge, got {e}"),
        Ok(_) => panic!("a job larger than the fleet was admitted"),
    }

    // Freeing the blocker's reservation lets the queued tenant run.
    blocker.cancel();
    assert!(matches!(blocker.wait(), JobOutcome::Canceled));
    let outcome = queued.wait();
    let report = outcome.expect_done();
    assert_eq!(report.stats.steps, 1);

    let stats = server.stats();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.canceled, 1);
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.failed, 0);
    assert!(stats.queued_for_capacity >= 1);

    server.drain();
    server.shutdown();
    assert_eq!(server.fleet().total_used(), 0, "device meters must drain to zero");
    for (d, c) in server.fleet().counters_per_device().iter().enumerate() {
        assert_eq!(c.release_underflows, 0, "device {d} meter drift");
    }
    for d in server.fleet().devices() {
        d.validate_allocator().expect("allocator invariants clean");
    }
}

/// Warm-slot reuse: a second same-shape GPU tenant recycles the first
/// tenant's slot, compiles no graph where the cold tenant compiled some,
/// inherits its device-resident level replicas, and its divQ stays
/// bit-identical to a solo run. After drain + shutdown the shared fleet
/// reads exactly zero.
#[test]
fn warm_slot_inherits_replicas_bit_identical() {
    let gcfg = RunConfig {
        fine_cells: 16,
        patch_size: 4,
        levels: 2,
        ranks: 1,
        threads: 2,
        nrays: 4,
        halo: 2,
        gpu: true,
        timesteps: 2,
        ..RunConfig::default()
    };
    let baseline = solo_divq(&gcfg);

    let server = RadiationServer::start(ServeConfig {
        workers: 1,
        gpus: 1,
        ..ServeConfig::default()
    });
    let cold_outcome = server.submit(gcfg.clone()).unwrap().wait();
    let cold = cold_outcome.expect_done();
    assert!(!cold.stats.slot_reused, "first tenant is cold");
    assert!(cold.stats.graph_compiles > 0, "cold tenant compiles its graphs");
    assert_bits_equal(&cold.divq.data, &baseline, "cold tenant");

    // The warm tenant lands on the same slot and inherits the level
    // replicas the cold tenant left device-resident — end-of-job hygiene
    // drops per-patch staging but keeps the replicas.
    let warm_outcome = server.submit(gcfg).unwrap().wait();
    let warm = warm_outcome.expect_done();
    assert!(warm.stats.slot_reused, "same shape must recycle the slot");
    assert_eq!(warm.stats.graph_compiles, 0, "the warm slot's graphs are reused, not recompiled");
    assert!(
        warm.stats.level_replicas_inherited > 0,
        "warm tenant must inherit resident replicas: {:?}",
        warm.stats.level_replicas_inherited
    );
    assert_bits_equal(&warm.divq.data, &baseline, "warm tenant");
    server.drain();
    server.shutdown();
    assert_eq!(server.fleet().total_used(), 0, "fleet must drain to zero");
}

/// A tenant that cannot have the warm slot still skips compilation: with
/// the shape's only warm slot held by a long blocker, the next same-shape
/// tenant builds a fresh slot and adopts its compiled graphs from the
/// server's shared cache.
#[test]
fn fresh_slot_tenant_adopts_shared_graphs() {
    let cfg = small_cfg();
    let server = RadiationServer::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    // Builds the one warm slot and publishes its graphs.
    server.submit(cfg.clone()).unwrap().wait().expect_done();
    let blocker = server
        .submit(RunConfig {
            timesteps: 1_000_000,
            ..cfg.clone()
        })
        .unwrap();
    wait_until("blocker occupies the warm slot", || server.stats().active_jobs == 1);

    let outcome = server.submit(cfg).unwrap().wait();
    let fresh = outcome.expect_done();
    assert!(!fresh.stats.slot_reused, "the only warm slot is taken");
    assert!(fresh.stats.shared_graph_hits >= 1, "{:?}", fresh.stats);
    assert_eq!(fresh.stats.graph_compiles, 0, "{:?}", fresh.stats);

    blocker.cancel();
    assert!(matches!(blocker.wait(), JobOutcome::Canceled));
    server.drain();
    server.shutdown();
    assert_eq!(server.fleet().total_used(), 0);
}

/// The high tier drains before the normal tier: with one worker pinned by
/// a long job, a high-priority job submitted *after* a normal one starts
/// (and therefore stops queueing) first.
#[test]
fn high_priority_jobs_overtake_the_normal_queue() {
    let server = RadiationServer::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let long = RunConfig {
        ranks: 1,
        threads: 1,
        nrays: 1,
        timesteps: 100_000,
        ..small_cfg()
    };
    let blocker = server.submit(long).unwrap();
    wait_until("blocker running", || server.stats().active_jobs == 1);

    let quick = RunConfig {
        ranks: 1,
        threads: 1,
        nrays: 4,
        timesteps: 1,
        ..small_cfg()
    };
    let normal = server.submit(quick.clone()).unwrap();
    let high = server
        .submit(RunConfig {
            priority: JobPriority::High,
            ..quick
        })
        .unwrap();
    wait_until("both tenants queued", || server.stats().queued_jobs == 2);
    blocker.cancel();

    let high_outcome = high.wait();
    let normal_outcome = normal.wait();
    let (h, n) = (high_outcome.expect_done(), normal_outcome.expect_done());
    // The normal job was submitted first, so if it also *ran* first its
    // queue time would be the shorter one. High running first means the
    // later-submitted job spent strictly less time queued.
    assert!(
        n.stats.queued_ns > h.stats.queued_ns,
        "high tier did not overtake: normal queued {} ns, high queued {} ns",
        n.stats.queued_ns,
        h.stats.queued_ns
    );
    server.drain();
    server.shutdown();
}

/// The full wire path: a job submitted over the socket returns divQ
/// bit-identical to a solo run (f64 bits survive the protocol), a bad
/// config is rejected with a typed code, and a client that disconnects
/// with a job still unfinished cancels it rather than pinning capacity.
#[test]
fn wire_roundtrip_preserves_bits_and_disconnect_cancels_owned_jobs() {
    let cfg_text = "fine_cells = 16\npatch_size = 4\nlevels = 2\nranks = 2\n\
                    threads = 2\nnrays = 8\nhalo = 2\ntimesteps = 2\n";
    let cfg = RunConfig::parse(cfg_text).unwrap();
    let baseline = solo_divq(&cfg);

    let server = Arc::new(RadiationServer::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    }));
    let path = std::env::temp_dir().join(format!(
        "rmcrt-serve-test-{}.sock",
        std::process::id()
    ));
    let socket = serve_on(Arc::clone(&server), &path).unwrap();

    let mut client = ServeClient::connect(&path).unwrap();
    let id = client.submit(cfg_text).unwrap();
    let outcome = client.wait(id).unwrap();
    let report = outcome.expect_done();
    assert_bits_equal(&report.divq.data, &baseline, "served over the wire");
    assert_eq!(report.run_id, format!("job-{id}"));
    let stats = client.stats().unwrap();
    assert_eq!(stats.completed, 1);

    // Typos come back as a typed rejection, not a dropped connection.
    assert!(
        client.submit("nrayz = 8").is_err(),
        "unknown key must be rejected over the wire"
    );
    drop(client);

    // A disconnecting client abandons its unfinished jobs: the server
    // cancels them so they cannot pin capacity forever.
    let mut walker = ServeClient::connect(&path).unwrap();
    let long_id = walker
        .submit(
            "fine_cells = 16\npatch_size = 4\nlevels = 2\nranks = 1\n\
             threads = 1\nnrays = 1\nhalo = 2\ntimesteps = 100000\n",
        )
        .unwrap();
    drop(walker);
    wait_until("disconnect cancels the abandoned job", || {
        server.stats().canceled >= 1
    });
    assert!(matches!(
        server.job(long_id).expect("job still known").wait(),
        JobOutcome::Canceled
    ));

    socket.close();
    server.drain();
    server.shutdown();
    assert_eq!(server.fleet().total_used(), 0);
    assert!(!path.exists(), "socket file must be removed on close");
}

/// The server keeps a bounded window of finished jobs, not every job it
/// ever ran: after 3 × 64 jobs the first id is unknown and the last is
/// still answerable, and the handle taken at the first submit — which owns
/// its entry — still returns the same `Done` bits.
#[test]
fn finished_jobs_are_forgotten_past_a_bounded_window() {
    let server = RadiationServer::start(ServeConfig::default());
    let cfg = RunConfig {
        fine_cells: 8,
        nrays: 1,
        ranks: 1,
        threads: 1,
        timesteps: 1,
        ..small_cfg()
    };
    let first = server.submit(cfg.clone()).unwrap();
    let first_divq = first.wait().expect_done().divq.data.clone();
    assert!(server.job(first.id()).is_some(), "inside the window");
    let mut last_id = first.id();
    for _ in 1..3 * 64 {
        let handle = server.submit(cfg.clone()).unwrap();
        handle.wait().expect_done();
        last_id = handle.id();
    }
    assert!(server.job(first.id()).is_none(), "first job retired");
    let last = server.job(last_id).expect("last job still known");
    assert_bits_equal(&last.wait().expect_done().divq.data, &first_divq, "same config");
    assert_bits_equal(
        &first.wait().expect_done().divq.data,
        &first_divq,
        "a kept handle outlives the window",
    );
    assert_eq!(server.stats().completed, 3 * 64);
    server.shutdown();
    assert_eq!(server.fleet().total_used(), 0);
}

/// Config text that used to panic inside `parse`/`build_problem` on the
/// connection thread (killing it before it could cancel the client's jobs)
/// now comes back as a typed `BadConfig` rejection, and the *same*
/// connection goes on to submit and complete a good job.
#[test]
fn wire_malformed_config_is_rejected_and_connection_survives() {
    let server = Arc::new(RadiationServer::start(ServeConfig::default()));
    let path = std::env::temp_dir().join(format!(
        "rmcrt-serve-test-malformed-{}.sock",
        std::process::id()
    ));
    let socket = serve_on(Arc::clone(&server), &path).unwrap();
    let mut client = ServeClient::connect(&path).unwrap();
    for text in [
        "refinement_ratio = 0",
        "refinement_ratio = -4",
        "refinement_ratio = 100000\nlevels = 4",
        "halo = -1",
        "timesteps = 0",
        "fine_cells = 16\npatch_size = 2\nlevels = 2\nrefinement_ratio = 4",
        // Keys until their code paths were retired; now unknown.
        "gpu_h2d = async",
        "aggregate = true",
        "gpu_eviction = off",
        "gpu_affinity = cost",
        // A retired value of a live key.
        "regrid_policy = lpt",
    ] {
        match client.submit(text) {
            Err(ClientError::Rejected {
                code: RejectCode::BadConfig,
                ..
            }) => {}
            other => panic!("'{text}': expected a BadConfig rejection, got {other:?}"),
        }
    }
    let good = "fine_cells = 16\npatch_size = 4\nlevels = 2\nranks = 2\n\
                threads = 2\nnrays = 8\nhalo = 2\n";
    let id = client.submit(good).expect("connection still serves");
    let outcome = client.wait(id).unwrap();
    let report = outcome.expect_done();
    assert_bits_equal(
        &report.divq.data,
        &solo_divq(&RunConfig::parse(good).unwrap()),
        "good job after rejections",
    );
    assert_eq!(server.stats().rejected, 0, "bad text never reaches admission");
    drop(client);
    socket.close();
    server.drain();
    server.shutdown();
}

/// A served GPU job on a 2-device fleet that rebalances ownership mid-run
/// (`rotate` moves every patch) steps through the same routine as
/// `run_world`, so it must be bit-identical to the solo run and count the
/// same regrids — on any worker-thread count. The next plain tenant of the
/// warm slot starts from the canonical distribution again (the rotated
/// ownership is reset), so it too matches its own solo run.
#[test]
fn served_regrid_bit_identical_to_solo() {
    let server = RadiationServer::start(ServeConfig {
        workers: 1,
        gpus: 2,
        ..ServeConfig::default()
    });
    for threads in [1, 2, 3, 7] {
        let plain = RunConfig {
            fine_cells: 16,
            patch_size: 4,
            levels: 2,
            ranks: 2,
            threads,
            nrays: 4,
            halo: 2,
            gpu: true,
            gpus_per_rank: 2,
            timesteps: 2,
            ..RunConfig::default()
        };
        // One regrid (before step 2) leaves ownership rotated at job end.
        let regridding = RunConfig {
            timesteps: 4,
            regrid_interval: 2,
            regrid_policy: RebalancePolicy::Rotate(1),
            ..plain.clone()
        };
        let (want, solo_regrids) = solo_run(&regridding);
        assert_eq!(solo_regrids, 2, "one ownership flip on each of 2 ranks");

        let outcome = server.submit(regridding).unwrap().wait();
        let report = outcome.expect_done();
        assert!(!report.stats.slot_reused, "{threads} threads is a new shape");
        assert_eq!(report.stats.steps, 4);
        assert_eq!(report.stats.regrids, solo_regrids, "{threads} threads");
        assert_bits_equal(&report.divq.data, &want, &format!("regridding, {threads} threads"));

        let outcome = server.submit(plain.clone()).unwrap().wait();
        let report = outcome.expect_done();
        assert!(report.stats.slot_reused, "same shape must recycle the slot");
        assert_eq!(
            report.stats.regrids, 2,
            "the reset to canonical ownership (one per rank) is charged to the tenant that needed it"
        );
        assert_bits_equal(
            &report.divq.data,
            &solo_divq(&plain),
            &format!("plain tenant after a regridding one, {threads} threads"),
        );
    }
    server.drain();
    server.shutdown();
    assert_eq!(server.fleet().total_used(), 0, "fleet must drain to zero");
}
