//! Concurrency stress tests across the stack: the wait-free pool, the
//! racy baseline's leak, and schedule fuzzing of the distributed runtime.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use uintah::comm::{MutexRequestVec, RacyRequestVec, RequestStore, WaitFreeRequestStore};
use uintah::prelude::*;

/// Heavier version of the pool's exactly-once test: producers and
/// consumers race on a shared pool; every inserted value must be drained
/// exactly once.
#[test]
fn wait_free_pool_exactly_once_under_stress() {
    let pool = Arc::new(WaitFreePool::<usize>::new());
    const PER: usize = 5000;
    const PRODUCERS: usize = 3;
    const CONSUMERS: usize = 3;
    let counts: Arc<Vec<AtomicUsize>> =
        Arc::new((0..PER * PRODUCERS).map(|_| AtomicUsize::new(0)).collect());
    let drained = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|s| {
        for p in 0..PRODUCERS {
            let pool = pool.clone();
            s.spawn(move || {
                for i in 0..PER {
                    pool.insert(p * PER + i);
                }
            });
        }
        for _ in 0..CONSUMERS {
            let pool = pool.clone();
            let counts = counts.clone();
            let drained = drained.clone();
            s.spawn(move || {
                while drained.load(Ordering::Relaxed) < PER * PRODUCERS {
                    let n = pool.drain_matching(
                        |_| true,
                        |v| {
                            counts[v].fetch_add(1, Ordering::Relaxed);
                        },
                    );
                    if n == 0 {
                        std::thread::yield_now();
                    } else {
                        drained.fetch_add(n, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    for (i, c) in counts.iter().enumerate() {
        assert_eq!(c.load(Ordering::Relaxed), 1, "value {i}");
    }
}

/// Claims released as well as erased: 4 producers insert while 4
/// consumers claim with `find_any` and either erase the value or drop the
/// iterator (releasing the claim to be found again), in turn. Every value
/// is processed exactly once, and the occupancy words end with no bit set
/// (`len() == 0`): a bit set late over a recycled slot would show there.
#[test]
fn wait_free_pool_find_erase_and_release_under_stress() {
    let pool = WaitFreePool::<usize>::new();
    const PER: usize = 5000;
    const PRODUCERS: usize = 4;
    const CONSUMERS: usize = 4;
    let counts: Vec<AtomicUsize> = (0..PER * PRODUCERS).map(|_| AtomicUsize::new(0)).collect();
    let processed = AtomicUsize::new(0);
    let released = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for p in 0..PRODUCERS {
            let pool = &pool;
            s.spawn(move || {
                for i in 0..PER {
                    pool.insert(p * PER + i);
                }
            });
        }
        for c in 0..CONSUMERS {
            let (pool, counts, processed, released) = (&pool, &counts, &processed, &released);
            s.spawn(move || {
                let mut turn = c;
                while processed.load(Ordering::Relaxed) < PER * PRODUCERS {
                    let Some(it) = pool.find_any(|_| true) else {
                        std::thread::yield_now();
                        continue;
                    };
                    turn += 1;
                    if turn % 2 == 0 {
                        drop(it);
                        released.fetch_add(1, Ordering::Relaxed);
                    } else {
                        counts[pool.erase(it)].fetch_add(1, Ordering::Relaxed);
                        processed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    for (i, c) in counts.iter().enumerate() {
        assert_eq!(c.load(Ordering::Relaxed), 1, "value {i}");
    }
    assert!(released.load(Ordering::Relaxed) > 0, "no claim was released");
    assert_eq!(pool.len(), 0);
    assert!(pool.find_any(|_| true).is_none());
}

/// The three request stores under identical concurrent load: all process
/// every message exactly once; only the racy baseline over-allocates.
#[test]
fn request_stores_under_concurrent_load() {
    fn drive<S: RequestStore + 'static>(store: Arc<S>, nmsgs: usize) -> usize {
        let world = CommWorld::new(2);
        let tx = world.communicator(0);
        let rx = world.communicator(1);
        for i in 0..nmsgs {
            store.add(rx.irecv(0, Tag(i as u64)));
        }
        let processed = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..6 {
                let store = store.clone();
                let processed = processed.clone();
                s.spawn(move || {
                    while processed.load(Ordering::Relaxed) < nmsgs {
                        let n = store.process_completed(&mut |_m| {});
                        if n == 0 {
                            std::thread::yield_now();
                        } else {
                            processed.fetch_add(n, Ordering::Relaxed);
                        }
                    }
                });
            }
            s.spawn(move || {
                for i in 0..nmsgs {
                    tx.isend(1, Tag(i as u64), bytes::Bytes::from_static(&[1u8; 64]));
                }
            });
        });
        processed.load(Ordering::Relaxed)
    }

    assert_eq!(drive(Arc::new(WaitFreeRequestStore::new()), 1500), 1500);
    assert_eq!(drive(Arc::new(MutexRequestVec::new()), 1500), 1500);
    let racy = Arc::new(RacyRequestVec::new());
    assert_eq!(drive(racy.clone(), 3000), 3000);
    assert_eq!(racy.buffers_released(), 3000);
    assert!(
        racy.leaked() > 0,
        "the racy baseline should leak under 6-thread contention (allocated {})",
        racy.buffers_allocated()
    );
}

/// Schedule fuzzing: the same world run repeatedly with different
/// rank/thread shapes must always complete (no deadlock) and always give
/// the same divQ.
#[test]
fn runtime_schedule_fuzzing() {
    let grid = Arc::new(BurnsChriston::small_grid(16, 4));
    let p = RmcrtPipeline {
        params: RmcrtParams {
            nrays: 4,
            threshold: 1e-3,
            ..Default::default()
        },
        halo: 2,
        problem: BurnsChriston::default(),
    };
    let decls = Arc::new(multilevel_decls(&grid, p, false));
    let mut baseline: Option<Vec<f64>> = None;
    for (nranks, nthreads, store) in [
        (1usize, 1usize, StoreKind::WaitFree),
        (2, 3, StoreKind::WaitFree),
        (5, 2, StoreKind::WaitFree),
        (3, 2, StoreKind::Mutex),
        (4, 1, StoreKind::Mutex),
        (2, 4, StoreKind::Mutex),
        (7, 2, StoreKind::WaitFree),
    ] {
        let result = run_world(
            Arc::clone(&grid),
            Arc::clone(&decls),
            WorldConfig {
                nranks,
                nthreads,
                store,
                ..Default::default()
            },
        );
        let got = result.fine_field(&grid, DIVQ).into_vec();
        match &baseline {
            None => baseline = Some(got),
            Some(b) => assert_eq!(&got, b, "({nranks} ranks, {nthreads} threads, {store:?})"),
        }
    }
}

/// GPU data warehouse hammered by many threads: one upload per level
/// variable no matter the interleaving, and memory returns to zero.
#[test]
fn gpu_level_db_concurrent_hammer() {
    use uintah::gpu::GpuDataWarehouse;
    use uintah::rmcrt::labels::ABSKG;
    let dw = Arc::new(GpuDataWarehouse::new(GpuDevice::k20x()));
    let handles: Arc<parking_lot_handles::Holder> = Arc::new(parking_lot_handles::Holder::default());
    std::thread::scope(|s| {
        for _ in 0..8 {
            let dw = dw.clone();
            let handles = handles.clone();
            s.spawn(move || {
                for _ in 0..200 {
                    let v = dw
                        .ensure_level_fresh_on(0, ABSKG, 0, || {
                            FieldData::F64(CcVariable::filled(Region::cube(8), 1.0))
                        })
                        .unwrap();
                    handles.push(v);
                }
            });
        }
    });
    assert_eq!(dw.device().counters().h2d_transfers, 1, "exactly one upload");
    handles.clear();
    dw.clear_level_db();
    assert_eq!(dw.device().used(), 0);
}

/// Tiny helper module so the test above can hold Arc handles across
/// threads without fighting the borrow checker.
mod parking_lot_handles {
    use std::sync::Mutex;

    #[derive(Default)]
    pub struct Holder {
        inner: Mutex<Vec<std::sync::Arc<uintah::gpu::DeviceVar>>>,
    }

    impl Holder {
        pub fn push(&self, v: std::sync::Arc<uintah::gpu::DeviceVar>) {
            self.inner.lock().unwrap().push(v);
        }

        pub fn clear(&self) {
            self.inner.lock().unwrap().clear();
        }
    }
}

/// Readers racing D2H takes on one device: see [`take_race`].
#[test]
fn step_settle_racing_async_d2h_reads_without_deadlock_or_leaks() {
    take_race(1);
}

/// Readers racing D2H takes on a 4-device fleet: see [`take_race`]; the
/// takes must also spread across the devices.
#[test]
fn fleet_step_settle_race_keeps_replicas_without_leaks() {
    take_race(4);
}

/// A warehouse over `ndev` devices stages a level replica on every device
/// and one output per patch on its home device. Two publisher threads
/// take the outputs back and publish them to the host warehouse, the way
/// a GPU trace task ends, while reader threads hammer `get_patch`. A read
/// may miss a patch not yet published, but a hit must carry that patch's
/// value, and every patch is readable once the publishers finish. The
/// replicas stay resident and revalidate the next epoch with no PCIe
/// traffic, and clearing the databases returns every device to 0 B.
fn take_race(ndev: usize) {
    use uintah::gpu::GpuDataWarehouse;
    use uintah::runtime::DataWarehouse;
    let grid = Arc::new(
        Grid::builder()
            .fine_cells(IntVector::splat(16))
            .num_levels(1)
            .fine_patch_size(IntVector::splat(8))
            .build(),
    );
    let patches: Vec<_> = grid.fine_level().patches().iter().map(|p| p.id()).collect();
    let replica = || FieldData::F64(CcVariable::filled(Region::cube(8), 1.0));
    for _round in 0..10 {
        let dw = DataWarehouse::new(Arc::clone(&grid));
        let gpu = GpuDataWarehouse::with_fleet_full(DeviceFleet::k20x(ndev), true, true, true, true);
        for dev in 0..ndev {
            gpu.ensure_level_fresh_on(dev, ABSKG, 0, replica).unwrap();
        }
        for &p in &patches {
            gpu.put_patch(DIVQ, p, FieldData::F64(CcVariable::filled(Region::cube(8), p.0 as f64)))
                .unwrap();
        }
        std::thread::scope(|s| {
            let (dw, gpu, patches) = (&dw, &gpu, &patches);
            for t in 0..3usize {
                s.spawn(move || {
                    for i in 0..400usize {
                        let p = patches[(i + t) % patches.len()];
                        if let Some(v) = dw.get_patch(DIVQ, p) {
                            assert_eq!(v.as_f64().as_slice()[0], p.0 as f64);
                        }
                    }
                });
            }
            for half in 0..2usize {
                s.spawn(move || {
                    for &p in patches.iter().skip(half).step_by(2) {
                        let taken = gpu.take_patch_to_host_async(DIVQ, p).expect("resident");
                        dw.put_patch(DIVQ, p, taken.wait());
                    }
                });
            }
        });
        for &p in &patches {
            let v = dw.get_patch(DIVQ, p).expect("published");
            assert_eq!(v.as_f64().as_slice()[0], p.0 as f64);
        }
        assert_eq!(dw.stale_hits(), 0);
        let counters = gpu.counters_per_device();
        for (d, c) in counters.iter().enumerate() {
            assert_eq!(c.used, 8 * 8 * 8 * 8, "{ndev} dev: device {d} holds more than its replica");
        }
        assert_eq!(
            counters.iter().map(|c| c.d2h_transfers).sum::<u64>(),
            patches.len() as u64
        );
        if ndev > 1 {
            // The takes really were spread across the fleet, not
            // serialized through one device.
            assert!(
                counters.iter().filter(|c| c.d2h_transfers > 0).count() >= 2,
                "sticky affinity should use more than one device"
            );
        }
        // Every device keeps its replica and revalidates it the next
        // epoch with zero PCIe traffic.
        gpu.begin_timestep();
        for d in 0..ndev {
            assert_eq!(gpu.patch_entries_on(d), 0, "{ndev} dev: device {d} kept a taken patch");
            assert_eq!(gpu.level_entries_on(d), 1, "{ndev} dev: device {d} lost its replica");
            let before = gpu.device_at(d).counters().h2d_bytes;
            gpu.ensure_level_fresh_on(d, ABSKG, 0, replica).unwrap();
            assert_eq!(
                gpu.device_at(d).counters().h2d_bytes,
                before,
                "{ndev} dev: unchanged replica re-uploaded on device {d}"
            );
        }
        gpu.clear_patch_db();
        gpu.clear_level_db();
        for (d, c) in gpu.counters_per_device().iter().enumerate() {
            assert_eq!(c.used, 0, "{ndev} dev: device {d} leaked bytes");
        }
    }
}

/// A step on a shared fleet waits only for its own takes. A foreign
/// warehouse on the same one-device fleet takes 34 MB outputs back in a
/// loop on its own thread while a `World` on that fleet runs 3 GPU steps.
/// The world must finish within 30 s, and its divQ must be bit-identical
/// to a solo `run_world`. The poster stops when the world finishes, when
/// the watchdog fires, or after 60 s.
#[test]
fn shared_fleet_step_does_not_wait_for_another_tenants_drains() {
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc::{channel, RecvTimeoutError};
    use std::time::{Duration, Instant};
    use uintah::runtime::World;
    use uintah_grid::PatchId;

    let grid = Arc::new(BurnsChriston::small_grid(16, 4));
    let pipeline = RmcrtPipeline {
        params: RmcrtParams {
            nrays: 4,
            threshold: 1e-4,
            seed: 0x5EED,
            timestep: 0,
            sampling: uintah::rmcrt::sampling::RaySampling::Independent,
            ray_count: None,
        },
        halo: 2,
        problem: BurnsChriston::default(),
    };
    let decls = Arc::new(multilevel_decls(&grid, pipeline, true));
    let capacity = 1 << 30;
    let cfg = WorldConfig {
        nthreads: 2,
        timesteps: 3,
        gpu_capacity: Some(capacity),
        ..WorldConfig::default()
    };
    let solo = run_world(Arc::clone(&grid), Arc::clone(&decls), cfg.clone()).fine_field(&grid, DIVQ);

    let fleet = DeviceFleet::with_capacity(1, "K20X-sim", capacity);
    let foreign = GpuDataWarehouse::with_fleet_full(fleet.clone(), true, true, true, true);
    let stop = AtomicBool::new(false);
    let (tx, rx) = channel();
    std::thread::scope(|s| {
        s.spawn(|| {
            let t0 = Instant::now();
            let mut i = 0u32;
            while !stop.load(Ordering::Relaxed) && t0.elapsed() < Duration::from_secs(60) {
                let big = FieldData::F64(CcVariable::new(Region::cube(162)));
                let held = foreign.alloc_patch_output(DIVQ, PatchId(i), big).unwrap();
                let taken = foreign.take_patch_to_host_async(DIVQ, PatchId(i)).unwrap();
                drop(held);
                drop(taken.wait());
                i += 1;
            }
        });
        s.spawn(|| {
            let mut world = World::new(Arc::clone(&grid), &decls, &cfg, |_| Some(fleet.clone()));
            world.run(&decls, &cfg, None).expect("not halted");
            let _ = tx.send(world.fine_field(DIVQ));
        });
        let got = rx.recv_timeout(Duration::from_secs(30));
        stop.store(true, Ordering::Relaxed);
        match got {
            Ok(divq) => {
                for c in solo.region().cells() {
                    assert_eq!(divq[c].to_bits(), solo[c].to_bits(), "cell {c:?}");
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                panic!("the world's steps waited for another tenant's takes for 30 s")
            }
            Err(RecvTimeoutError::Disconnected) => panic!("the world failed"),
        }
    });
    assert_eq!(fleet.total_used(), 0, "every take released its device block");
}

/// Submit/cancel storm against the multi-tenant radiation server: a mixed
/// stream of GPU, CPU, regrid-enabled and high-priority jobs where a third
/// are canceled immediately (usually still queued) and a third are raced
/// by a cancel thread mid-run. Whatever the interleaving: no job may fail,
/// the ledger must reconcile (done + canceled = submitted), and after
/// drain + shutdown the shared device fleet must be bone dry — zero
/// resident bytes, zero `release_underflows`, and the sub-allocator's
/// invariants intact on every device.
#[test]
fn radiation_server_submit_cancel_storm_drains_clean() {
    use std::time::Duration;
    use uintah::config::{JobPriority, RunConfig};
    use uintah_grid::RebalancePolicy;
    use uintah_serve::{JobOutcome, RadiationServer, ServeConfig};

    let server = RadiationServer::start(ServeConfig {
        workers: 3,
        gpus: 2,
        gpu_capacity_mb: 16,
        graph_cache_cap: 8,
        max_idle_slots: 2,
    });
    let base = RunConfig {
        fine_cells: 16,
        patch_size: 4,
        levels: 2,
        ranks: 2,
        threads: 1,
        nrays: 4,
        halo: 2,
        gpu: true,
        timesteps: 4,
        ..RunConfig::default()
    };
    const JOBS: usize = 12;
    let mut handles = Vec::with_capacity(JOBS);
    for i in 0..JOBS {
        let mut cfg = base.clone();
        match i % 4 {
            0 => {} // plain GPU tenant
            1 => {
                // Regridding tenant: rotates ownership every step, so cancels
                // race regrids, and its steps share the fleet's devices and
                // level replicas with the other tenants'.
                cfg.regrid_interval = 1;
                cfg.regrid_policy = RebalancePolicy::Rotate(1);
                cfg.timesteps = 5;
            }
            2 => {
                // CPU tenant in a different slot shape.
                cfg.gpu = false;
                cfg.ranks = 1;
                cfg.levels = 1;
                cfg.fine_cells = 8;
            }
            _ => {
                cfg.priority = JobPriority::High;
                cfg.nrays = 6;
            }
        }
        let h = server.submit(cfg).expect("storm job admitted or queued");
        match i % 3 {
            0 => h.cancel(), // cancel immediately, usually while queued
            1 => {
                // Cancel from another thread mid-run.
                let racer = h.clone();
                std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_millis(3));
                    racer.cancel();
                });
            }
            _ => {} // run to completion
        }
        handles.push(h);
    }

    let (mut done, mut canceled) = (0u64, 0u64);
    for h in &handles {
        match h.wait() {
            JobOutcome::Done(report) => {
                assert!(report.stats.steps > 0, "completed job ran no steps");
                done += 1;
            }
            JobOutcome::Canceled => canceled += 1,
            JobOutcome::Failed(m) => panic!("job {} failed: {m}", h.id()),
        }
    }
    assert_eq!(done + canceled, JOBS as u64);

    server.drain();
    let stats = server.stats();
    assert_eq!(stats.completed + stats.canceled, JOBS as u64);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.active_jobs, 0);
    assert_eq!(stats.queued_jobs, 0);

    server.shutdown();
    assert_eq!(
        server.fleet().total_used(),
        0,
        "device meters must read zero after drain"
    );
    for (d, c) in server.fleet().counters_per_device().iter().enumerate() {
        assert_eq!(c.release_underflows, 0, "device {d}: meter drift");
    }
    for d in server.fleet().devices() {
        d.validate_allocator().expect("sub-allocator invariants after the storm");
    }
}

/// LRU eviction racing the step boundary's patch-database clear: writer
/// threads hammer an oversubscribed device (12 patches cycling through
/// room for ~6, forcing constant eviction, host spill, and transparent
/// re-upload) while a clearing thread repeatedly empties the patch
/// database and its spill map mid-storm. Invariants under the
/// race: no stale serves (every successful get returns the patch's one
/// true value), no leaked device bytes, no meter drift (the allocator's
/// free list stays coherent and `release_underflows == 0`), and the
/// eviction/spill counters reconcile exactly — every evicted byte of patch
/// data was spilled, and every re-upload round-tripped the same bytes.
#[test]
fn lru_eviction_racing_patch_db_clear_no_stale_serves_no_leaks() {
    use uintah::gpu::GpuDataWarehouse;
    let patch_bytes = 8usize.pow(3) * 8;
    // Room for six patches (plus slack); twelve in play → constant
    // pressure. Four worker threads pin at most four entries at any
    // moment, so an eviction victim always exists and puts never OOM.
    let device = GpuDevice::with_capacity("oversub", 6 * patch_bytes + 256);
    let dw = Arc::new(GpuDataWarehouse::new(device.clone()));
    std::thread::scope(|s| {
        for t in 0..4usize {
            let dw = Arc::clone(&dw);
            s.spawn(move || {
                for i in 0..300usize {
                    let p = uintah_grid::PatchId(((i * 7 + t * 3) % 12) as u32);
                    let want = p.0 as f64;
                    dw.put_patch(DIVQ, p, FieldData::F64(CcVariable::filled(Region::cube(8), want)))
                        .expect("a victim always exists");
                    // A get may miss (another thread's clear or drop), but
                    // a hit — the put's own entry, still resident or
                    // re-uploaded from spill — must carry the patch's one
                    // true value.
                    if let Some(v) = dw.get_patch(DIVQ, p) {
                        assert_eq!(v.data().as_f64().as_slice()[0], want, "stale serve");
                    }
                    if i % 31 == 0 {
                        dw.drop_patch(DIVQ, p);
                    }
                    // Probe a patch this iteration did NOT put: under
                    // pressure it is often evicted, so this get exercises
                    // the transparent re-upload path — and must still see
                    // the one true value.
                    let q = uintah_grid::PatchId(((i * 5 + t) % 12) as u32);
                    if let Some(v) = dw.get_patch(DIVQ, q) {
                        assert_eq!(v.data().as_f64().as_slice()[0], q.0 as f64, "stale serve");
                    }
                }
            });
        }
        let dw = Arc::clone(&dw);
        s.spawn(move || {
            for _ in 0..20 {
                dw.clear_patch_db();
                std::thread::yield_now();
            }
        });
    });
    let c = device.counters();
    assert!(c.evictions > 0, "the storm must actually oversubscribe");
    assert!(c.reuploads > 0, "spilled patches must come back");
    // Patch-only workload: eviction and spill reconcile one-to-one.
    assert_eq!(c.evictions, c.spills);
    assert_eq!(c.evicted_bytes, c.spilled_bytes);
    assert_eq!(c.spilled_bytes % patch_bytes as u64, 0);
    assert_eq!(c.reuploads_bytes % patch_bytes as u64, 0);
    // No meter drift: zero underflows, allocator invariants intact, and
    // clearing the databases returns the device to exactly zero.
    assert_eq!(c.release_underflows, 0);
    device.validate_allocator().expect("free list coherent after the storm");
    dw.clear_patch_db();
    dw.clear_level_db();
    assert_eq!(device.used(), 0, "no leaked device bytes");
    assert_eq!(dw.spill_entries(), 0);
    device.validate_allocator().unwrap();
}
