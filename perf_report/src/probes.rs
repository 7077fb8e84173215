//! Layer probes of the traced run: one layer's public functions timed
//! alone, at the sizes the workload actually uses, so a layer metric can be
//! read without the rest of the step around it.

use crate::hostspeed::HostSpeed;
use crate::metrics::Measured;
use crate::span::Tracer;
use crate::stats::{median, SplitMix64};
use rmcrt_bench::campaign::{self, GateNumbers, SweepSpec};
use rmcrt_bench::drive_store;
use rmcrt_core::labels::{ABSKG, DIVQ};
use rmcrt_core::sampling::DirectionSampler;
use rmcrt_core::trace::TraceOptions;
use rmcrt_core::{
    solve_region_exec, BurnsChriston, CellRng, PacketTracer, RayPacket, RmcrtParams, TraceLevel,
};
use std::sync::Arc;
use std::time::Instant;
use uintah::config::RunConfig;
use uintah_comm::{CommWorld, MutexRequestVec, Tag, WaitFreeRequestStore};
use uintah_exec::{parallel_fill, ExecSpace};
use uintah_gpu::{DeviceFleet, GpuDataWarehouse, GpuDevice};
use uintah_grid::restriction::restrict_level;
use uintah_grid::{
    CcVariable, DistributionPolicy, FieldData, Grid, PatchCosts, PatchDistribution, PatchId,
    RebalancePolicy, Region, Regridder,
};
use uintah_mem::{FitPolicy, SubAllocator};
use uintah_runtime::{graph, TaskDecl};
use uintah_serve::protocol::{encode_response, Response};
use uintah_serve::{JobOutcome, JobReport};

/// Median wall of `reps` calls of `f`, in nanoseconds at nominal host
/// speed (the whole series is bracketed by two calibration samples).
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut host = HostSpeed::start();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples) * host.factor()
}

fn trace_options(params: &RmcrtParams) -> TraceOptions {
    TraceOptions {
        threshold: params.threshold,
        max_reflections: 0,
    }
}

/// `core.tracer_prepare_us`: `PacketTracer::new` on one of the workload's
/// stacks — paid once per patch solve.
pub fn tracer_prepare(
    layer: &mut Measured,
    tracer: &mut Tracer,
    stack: &[TraceLevel<'_>],
    params: &RmcrtParams,
) {
    let probe = tracer.begin("probe::tracer_prepare", 0);
    let opts = trace_options(params);
    layer.set(
        "core.tracer_prepare_us",
        median_ns(50, || {
            std::hint::black_box(PacketTracer::new(stack, opts));
        }) / 1e3,
    );
    tracer.end(probe);
}

/// One of a trace workload's solves, as the split probe replays it.
pub struct SolveSample<'a> {
    pub stack: &'a [TraceLevel<'a>],
    pub region: Region,
    pub params: &'a RmcrtParams,
    /// Rays the solver puts in one packet here (the fixed budget, or the
    /// adaptive mode's first batch).
    pub rays_per_packet: u32,
}

/// The split of `core.mrays_per_s`: `PacketTracer::trace` alone on packets
/// filled exactly as the solver fills them (same RNG streams, same
/// sampler), so solve ns/ray minus trace ns/ray is what RNG, sampling,
/// packet fill and reduction cost.
pub fn trace_split(
    layer: &mut Measured,
    tracer: &mut Tracer,
    sample: &SolveSample<'_>,
    solve_ns_per_ray: f64,
) {
    let SolveSample {
        stack,
        region,
        params,
        rays_per_packet,
    } = *sample;
    let probe = tracer.begin("probe::trace_split", 0);
    let opts = trace_options(params);

    const BATCH: usize = 32;
    let packet_tracer = PacketTracer::new(stack, opts);
    let fine = packet_tracer.fine_props();
    let ncells = region.volume().min(1024);
    let stride = (region.volume() / ncells).max(1);
    let mut packets: Vec<RayPacket> = (0..BATCH).map(|_| RayPacket::default()).collect();
    let (mut trace_ns, mut rays) = (0u128, 0u64);
    for batch in 0..ncells.div_ceil(BATCH) {
        let filled = BATCH.min(ncells - batch * BATCH);
        for (k, packet) in packets.iter_mut().take(filled).enumerate() {
            let cell = region.from_linear((batch * BATCH + k) * stride);
            let mut perm_rng = CellRng::new(params.seed, cell, u32::MAX, params.timestep);
            let sampler = DirectionSampler::new(params.sampling, rays_per_packet, &mut perm_rng);
            packet.reset(rays_per_packet as usize);
            for r in 0..rays_per_packet {
                let mut rng = CellRng::new(params.seed, cell, r, params.timestep);
                let dir = sampler.direction(r, &mut rng);
                let origin = rng.point_in_cell(fine.cell_lo(cell), fine.dx);
                packet.set_ray(r as usize, origin, dir);
            }
        }
        let t0 = Instant::now();
        for packet in packets.iter_mut().take(filled) {
            packet_tracer.trace(packet);
        }
        trace_ns += t0.elapsed().as_nanos();
        rays += filled as u64 * rays_per_packet as u64;
        std::hint::black_box(&packets);
    }
    let trace_ns_per_ray = trace_ns as f64 / rays as f64;
    layer.set("core.trace_ns_per_ray", trace_ns_per_ray);
    layer.set("core.setup_ns_per_ray", solve_ns_per_ray - trace_ns_per_ray);
    tracer.end(probe);
}

/// `exec.*_dispatch_ns_per_cell`: `parallel_fill` with a trivial kernel
/// over a 16^3 region on each space; and `exec.threads2_speedup`:
/// `solve_region_exec` on one of the workload's patches, host(2) over Serial.
pub fn exec(
    layer: &mut Measured,
    tracer: &mut Tracer,
    stack: &[TraceLevel<'_>],
    patch: Region,
    params: &RmcrtParams,
) {
    let probe = tracer.begin("probe::exec", 0);
    let region = Region::cube(16);
    let cells = region.volume() as f64;
    let device = ExecSpace::device(GpuDevice::with_capacity("probe", 1 << 20));
    for (name, space) in [
        ("exec.serial_dispatch_ns_per_cell", ExecSpace::Serial),
        ("exec.threads2_dispatch_ns_per_cell", ExecSpace::host(2)),
        ("exec.device_dispatch_ns_per_cell", device),
    ] {
        let ns = median_ns(100, || {
            std::hint::black_box(parallel_fill(&space, region, |c| (c.x + c.y + c.z) as f64));
        });
        layer.set(name, ns / cells);
    }
    let solve = |space: &ExecSpace| {
        median_ns(5, || {
            std::hint::black_box(solve_region_exec(stack, patch, params, space));
        })
    };
    layer.set(
        "exec.threads2_speedup",
        solve(&ExecSpace::Serial) / solve(&ExecSpace::host(2)),
    );
    tracer.end(probe);
}

/// `comm.*` costs at the workload's sizes: one step's receive count
/// replayed from 2 threads through both request stores (the paper's
/// wait-free pool vs. its mutex-protected control), and an
/// isend/irecv/take round through a `Communicator` at the mean payload.
pub fn comm(layer: &mut Measured, tracer: &mut Tracer, reqs_per_step: usize, payload_bytes: usize) {
    let probe = tracer.begin("probe::comm", 0);
    let per_req = |ns: f64| ns / reqs_per_step as f64;
    layer.set(
        "comm.waitfree_ns_per_req",
        per_req(median_ns(5, || {
            drive_store(Arc::new(WaitFreeRequestStore::new()), 2, reqs_per_step);
        })),
    );
    layer.set(
        "comm.mutex_ns_per_req",
        per_req(median_ns(5, || {
            drive_store(Arc::new(MutexRequestVec::new()), 2, reqs_per_step);
        })),
    );
    let world = CommWorld::new(2);
    let (tx, rx) = (world.communicator(0), world.communicator(1));
    let payload = bytes::Bytes::from(vec![0u8; payload_bytes.max(1)]);
    const PINGS: u64 = 2000;
    let t0 = Instant::now();
    for i in 0..PINGS {
        let recv = rx.irecv(0, Tag(i));
        tx.isend(1, Tag(i), payload.clone());
        std::hint::black_box(
            recv.take()
                .expect("eager delivery completes the posted receive"),
        );
    }
    layer.set(
        "comm.isend_irecv_ns_per_msg",
        t0.elapsed().as_nanos() as f64 / PINGS as f64,
    );
    tracer.end(probe);
}

/// `gpu.*_us_p50`: the data warehouse's front door on a harness-owned
/// warehouse, with fields as large as the workload's patch ROI / output /
/// level replica.
pub fn gpu_front_door(
    layer: &mut Measured,
    tracer: &mut Tracer,
    roi_edge: i32,
    patch_edge: i32,
    level_edge: i32,
) {
    let probe = tracer.begin("probe::gpu", 0);
    let gdw = GpuDataWarehouse::with_fleet_full(
        DeviceFleet::with_capacity(1, "probe", 1 << 30),
        true,
        true,
        true,
        true,
    );
    let field = |edge: i32| FieldData::F64(CcVariable::filled(Region::cube(edge), 1.0));
    let (roi, output, level) = (field(roi_edge), field(patch_edge), field(level_edge));
    const REPS: u32 = 64;
    let mut put = Vec::new();
    let mut take = Vec::new();
    for i in 0..REPS {
        let pid = PatchId(i);
        let data = roi.clone();
        let t0 = Instant::now();
        gdw.put_patch(ABSKG, pid, data)
            .expect("probe warehouse has room");
        put.push(t0.elapsed().as_nanos() as f64 / 1e3);
        gdw.drop_patch(ABSKG, pid);

        gdw.alloc_patch_output(DIVQ, pid, output.clone())
            .expect("probe warehouse has room");
        let t0 = Instant::now();
        let pending = gdw
            .take_patch_to_host_async(DIVQ, pid)
            .expect("output staged above");
        std::hint::black_box(pending.wait());
        take.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    layer.set("gpu.put_patch_us_p50", median(&put));
    layer.set("gpu.take_patch_us_p50", median(&take));

    gdw.ensure_level_fresh(ABSKG, 0, || level.clone())
        .expect("probe warehouse has room");
    let mut revalidate = Vec::new();
    for _ in 0..REPS {
        gdw.begin_timestep();
        let t0 = Instant::now();
        std::hint::black_box(
            gdw.ensure_level_fresh(ABSKG, 0, || level.clone())
                .expect("resident replica revalidates"),
        );
        revalidate.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    layer.set("gpu.level_revalidate_us_p50", median(&revalidate));
    gdw.sync_d2h_all();
    gdw.sync_h2d_all();
    tracer.end(probe);
}

/// `mem.*`: the GPU workload's block-size mix (ROI fields, outputs, level
/// replicas) replayed as seeded alloc/free churn on a `SubAllocator`
/// configured like a device's, at the workload's per-device capacity.
pub fn mem(layer: &mut Measured, tracer: &mut Tracer, capacity: u64, sizes: &[u64], seed: u64) {
    let probe = tracer.begin("probe::mem", 0);
    let mut alloc = SubAllocator::with_small_class(capacity, 1, FitPolicy::FirstFit, 16 << 10);
    let mut rng = SplitMix64(seed);
    let mut live: Vec<u64> = Vec::new();
    let mut free_blocks_max = 0usize;
    const OPS: u64 = 200_000;
    let t0 = Instant::now();
    for _ in 0..OPS {
        let want_alloc = live.is_empty() || rng.below(2) == 0;
        let placed = want_alloc
            .then(|| {
                alloc
                    .alloc(sizes[rng.below(sizes.len() as u64) as usize])
                    .ok()
            })
            .flatten();
        match placed {
            Some(offset) => live.push(offset),
            // Full (or a free was drawn): release a random live block, as eviction would.
            None => {
                if !live.is_empty() {
                    let victim = live.swap_remove(rng.below(live.len() as u64) as usize);
                    alloc.free(victim).expect("live offsets free exactly once");
                }
            }
        }
        free_blocks_max = free_blocks_max.max(alloc.free_blocks());
    }
    layer.set(
        "mem.suballoc_ns_per_op",
        t0.elapsed().as_nanos() as f64 / OPS as f64,
    );
    layer.set("mem.suballoc_free_blocks_max", free_blocks_max as f64);
    tracer.end(probe);
}

/// `grid.*` and `runtime.graph_compile_cold_ms` on the workload's grid.
pub fn grid_and_graph(
    layer: &mut Measured,
    tracer: &mut Tracer,
    build_grid: impl Fn() -> Grid,
    decls: &[TaskDecl],
    nranks: usize,
    costs: PatchCosts,
) {
    let probe = tracer.begin("probe::grid", 0);
    layer.set(
        "grid.build_ms",
        median_ns(5, || {
            let grid = build_grid();
            std::hint::black_box(PatchDistribution::new(
                &grid,
                nranks,
                DistributionPolicy::MortonSfc,
            ));
        }) / 1e6,
    );
    let grid = build_grid();
    let dist = PatchDistribution::new(&grid, nranks, DistributionPolicy::MortonSfc);

    // One 32^3 field onto its 8^3 coarse level: the restriction the
    // initProperties task performs per patch, at whole-level size.
    let two_level = BurnsChriston::small_grid(32, 16);
    let fine = CcVariable::filled(two_level.fine_level().cell_region(), 1.0f64);
    layer.set(
        "grid.restrict_level_us",
        median_ns(20, || {
            std::hint::black_box(restrict_level(
                two_level.fine_level(),
                two_level.level(0),
                &fine,
            ));
        }) / 1e3,
    );

    let regridder = Regridder::new(RebalancePolicy::CostedSfc);
    layer.set(
        "grid.rebalance_us",
        median_ns(10, || {
            std::hint::black_box(regridder.rebalance(&grid, &costs, &dist));
        }) / 1e3,
    );
    tracer.end(probe);

    let probe = tracer.begin("probe::graph_compile", 0);
    layer.set(
        "runtime.graph_compile_cold_ms",
        median_ns(3, || {
            std::hint::black_box(graph::compile(&grid, &dist, decls, 0, 0));
        }) / 1e6,
    );
    tracer.end(probe);
}

/// `titan.*`: SIMULATED Titan strong scaling (the paper's Figs. 2-3) from a
/// live calibration run on this host — model output, labelled as such.
pub fn titan(layer: &mut Measured, tracer: &mut Tracer) {
    let probe = tracer.begin("probe::titan", 0);
    let t0 = Instant::now();
    let cal = campaign::calibrate_live();
    let sweep =
        campaign::strong_scaling(&SweepSpec::gate_large(), &cal.titan, "titan", &cal.profile);
    let gate = GateNumbers::from_sweep(&sweep);
    layer.set("titan.campaign_host_ms", t0.elapsed().as_secs_f64() * 1e3);
    layer.set("titan.eff_4096_8192", gate.eff_4096_to_8192);
    layer.set("titan.eff_4096_16384", gate.eff_4096_to_16384);
    tracer.end(probe);
}

/// `serve.encode_result_us` / `serve.parse_config_us`: the wire cost of one
/// finished job's report and of one submitted config.
pub fn serve_wire(
    layer: &mut Measured,
    tracer: &mut Tracer,
    report: &Arc<JobReport>,
    config_text: &str,
) {
    let probe = tracer.begin("probe::serve_wire", 0);
    let response = Response::Finished {
        job_id: report.job_id,
        outcome: JobOutcome::Done(Arc::clone(report)),
    };
    layer.set(
        "serve.encode_result_us",
        median_ns(50, || {
            std::hint::black_box(encode_response(&response));
        }) / 1e3,
    );
    layer.set(
        "serve.parse_config_us",
        median_ns(200, || {
            std::hint::black_box(RunConfig::parse(config_text).expect("probe config parses"));
        }) / 1e3,
    );
    tracer.end(probe);
}
