//! E5 and E26 — §IV-B: heap fragmentation, replayed and then measured.
//!
//! E5 replays a deterministic trace of the paper's pattern (persistent
//! small allocations mixed with transient large MPI buffers and grid
//! variables, some surviving a few timesteps) through `fragsim` against
//! four placement policies. E26 puts the same question to this process:
//! two census lanes sample `VmRSS` against the live heap bytes counted by
//! this binary's global allocator, and each reads GROWS or flat by
//! [`Verdict`]'s fixed rule. The served lane is a long-lived
//! `RadiationServer` whose job shapes keep changing, where the paper's
//! fragmentation could show; the step lane is `step_gpu_oversub`'s shape
//! run for 1000 steps of eviction, spill and regrid churn.
//!
//! ```text
//! cargo run -p rmcrt-bench --release --bin frag_ablation
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use uintah::config::RunConfig;
use uintah::mem::fragsim::{replay, rmcrt_trace, Policy};
use uintah::prelude::*;
use uintah_serve::{JobOutcome, RadiationServer, ServeConfig};

/// Heap bytes this process holds, at their requested sizes. A statistic
/// only — it publishes no other data — so every update is `Relaxed`.
static LIVE: AtomicUsize = AtomicUsize::new(0);

/// `p`, after moving [`LIVE`] from `old` to `new` bytes if the call
/// succeeded. A shrink adds the two's complement, which `fetch_add` wraps.
fn counted(p: *mut u8, old: usize, new: usize) -> *mut u8 {
    if !p.is_null() {
        LIVE.fetch_add(new.wrapping_sub(old), Ordering::Relaxed);
    }
    p
}

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a static atomic, so counting
// neither allocates nor touches thread-local state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counted(System.alloc(layout), 0, layout.size())
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        counted(System.alloc_zeroed(layout), 0, layout.size())
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        counted(System.realloc(ptr, layout, new_size), layout.size(), new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const MIB: f64 = (1u64 << 20) as f64;
/// Jobs the served lane runs, over all of its closed-loop clients.
const SERVED_JOBS: u64 = 10_000;
const CLIENTS: u32 = 2;
/// Fine cells / patch size of the served shapes: 2 to 6 patches a side.
const SHAPES: [(i32, i32); 7] = [(16, 4), (16, 8), (24, 4), (24, 8), (24, 12), (32, 8), (32, 16)];
const STEPS: usize = 1000;
const SAMPLE_EVERY: Duration = Duration::from_millis(200);

/// One census reading, `secs` into the lane after `done` jobs (the step
/// lane's one `run_world` reports nothing until it returns: always 0).
#[derive(Clone, Copy, Debug)]
struct Sample {
    secs: f64,
    done: u64,
    rss: u64,
    live: u64,
}

impl Sample {
    /// Resident bytes the live heap does not account for: code, stacks,
    /// allocator metadata and whatever the allocator holds free.
    fn gap(&self) -> f64 {
        self.rss as f64 - self.live as f64
    }
}

/// `VmRSS` of this process, bytes.
fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status.lines().find_map(|l| l.strip_prefix("VmRSS:"));
    let kb = kb.and_then(|v| v.split_whitespace().next()?.parse::<u64>().ok());
    1024 * kb.expect("the census reads VmRSS from /proc/self/status (Linux)")
}

/// Run `work` on this thread while a sampler thread takes a [`Sample`]
/// every [`SAMPLE_EVERY`], the first before `work` starts and the last
/// after it returns.
fn census<R>(done: &AtomicU64, work: impl FnOnce() -> R) -> (R, Vec<Sample>) {
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut samples = Vec::new();
            loop {
                let last = stop.load(Ordering::Acquire);
                samples.push(Sample {
                    secs: t0.elapsed().as_secs_f64(),
                    done: done.load(Ordering::Relaxed),
                    rss: rss_bytes(),
                    live: LIVE.load(Ordering::Relaxed) as u64,
                });
                if last {
                    return samples;
                }
                std::thread::sleep(SAMPLE_EVERY);
            }
        });
        let result = work();
        stop.store(true, Ordering::Release);
        (result, sampler.join().expect("census sampler panicked"))
    })
}

/// Upper median of `f` over `samples`.
fn median(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> f64 {
    let mut xs: Vec<f64> = samples.iter().map(f).collect();
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// The census rule, fixed before any lane ran. A lane **grows** when the
/// median of RSS − live over its last third of samples exceeds the median
/// over its middle third by more than 10 % of the lane's median RSS. The
/// first third is warm-up: caches, warm slots and compiled graphs fill.
#[derive(Debug)]
struct Verdict {
    /// Median RSS − live over the middle and the last third, bytes.
    middle: f64,
    last: f64,
    /// 10 % of the median RSS over every sample, bytes.
    bound: f64,
}

impl Verdict {
    fn of(samples: &[Sample]) -> Self {
        assert!(samples.len() >= 3, "a verdict needs a sample in each third");
        let third = samples.len() / 3;
        Self {
            middle: median(&samples[third..2 * third], Sample::gap),
            last: median(&samples[2 * third..], Sample::gap),
            bound: 0.1 * median(samples, |s| s.rss as f64),
        }
    }

    fn grows(&self) -> bool {
        self.last - self.middle > self.bound
    }
}

/// One row of medians per tenth of the run, then the verdict.
fn print_lane(samples: &[Sample]) {
    println!("  tenth    t (s)   jobs  RSS MiB live MiB RSS-live MiB");
    let (n, rows) = (samples.len(), samples.len().min(10));
    for i in 0..rows {
        let part = &samples[i * n / rows..(i + 1) * n / rows];
        let end = part[part.len() - 1];
        let mib = |f: fn(&Sample) -> f64| median(part, f) / MIB;
        println!(
            "  {:>5} {:>8.1} {:>6} {:>8.1} {:>8.1} {:>12.1}",
            i + 1,
            end.secs,
            end.done,
            mib(|s| s.rss as f64),
            mib(|s| s.live as f64),
            mib(Sample::gap)
        );
    }
    let v = Verdict::of(samples);
    println!(
        "  RSS-live median: middle third {:.1} MiB, last third {:.1} MiB \
         (delta {:+.1} MiB, bound 10 % of median RSS = {:.1} MiB) -> {}",
        v.middle / MIB,
        v.last / MIB,
        (v.last - v.middle) / MIB,
        v.bound / MIB,
        if v.grows() { "GROWS" } else { "flat" }
    );
}

/// One served job: a shape, 4/8/16 rays fixed or adaptive (up to 4×),
/// CPU or GPU, 1–2 ranks × 1–2 threads, 1–2 steps, and on half the
/// 2-rank 2-step jobs an ownership rotation before the second step.
fn served_job(rng: &mut CellRng) -> RunConfig {
    let mut below = |n: u64| rng.next_u64() % n;
    let (fine_cells, patch_size) = SHAPES[below(SHAPES.len() as u64) as usize];
    let nrays = 4u32 << below(3);
    let ranks = 1 + below(2) as usize;
    let timesteps = 1 + below(2) as usize;
    RunConfig {
        fine_cells,
        patch_size,
        nrays,
        halo: 2,
        ranks,
        threads: 1 + below(2) as usize,
        gpu: below(2) == 1,
        timesteps,
        adaptive_rays: below(2) == 1,
        rays_min: nrays,
        rays_max: 4 * nrays,
        regrid_interval: usize::from(ranks == 2 && timesteps == 2 && below(2) == 1),
        regrid_policy: RebalancePolicy::Rotate(1),
        ..RunConfig::default()
    }
}

fn served_lane() {
    let server = RadiationServer::start(ServeConfig {
        workers: 2,
        gpus: 2,
        ..ServeConfig::default()
    });
    let (next, done, failed) = (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
    let ((), samples) = census(&done, || {
        std::thread::scope(|s| {
            for client in 0..CLIENTS {
                let (server, next, done, failed) = (&server, &next, &done, &failed);
                s.spawn(move || {
                    let mut rng = CellRng::new(42, IntVector::splat(0), client, 0);
                    while next.fetch_add(1, Ordering::Relaxed) < SERVED_JOBS {
                        let job = server.submit(served_job(&mut rng));
                        if !job.is_ok_and(|job| matches!(job.wait(), JobOutcome::Done(_))) {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
    });
    server.shutdown();
    println!(
        "\nserved lane: {} jobs, {} failed, in {:.0} s; {CLIENTS} closed-loop clients, \
         2 workers, 2 devices; {} warm-slot hits, {} slots built; fleet after shutdown {} B",
        done.into_inner(),
        failed.into_inner(),
        samples[samples.len() - 1].secs,
        server.stats().slot_hits,
        server.stats().slot_builds,
        server.fleet().total_used()
    );
    print_lane(&samples);
}

fn step_lane() {
    let grid = Arc::new(BurnsChriston::small_grid(64, 16));
    let params = RmcrtParams { nrays: 2, ..Default::default() };
    let pipeline = RmcrtPipeline { params, ..Default::default() };
    let decls = Arc::new(multilevel_decls(&grid, pipeline, true));
    let world = |timesteps, capacity| WorldConfig {
        nranks: 2,
        timesteps,
        gpu_capacity: Some(capacity),
        gpus_per_rank: 2,
        regrid_interval: Some(4),
        regrid_policy: RebalancePolicy::Rotate(1),
        ..Default::default()
    };
    let call = |cfg| run_world(Arc::clone(&grid), Arc::clone(&decls), cfg);
    let probe = call(world(2, 6 << 30));
    let devices = probe.ranks.iter().filter_map(|r| r.gpu.as_ref());
    let peak = devices.flat_map(|g| g.counters_per_device()).map(|c| c.peak).max();
    let capacity = (peak.expect("a GPU world has devices") as f64 * 0.6) as usize;
    drop(probe); // its warehouses would sit in the lane's live heap all run
    let (result, samples) = census(&AtomicU64::new(0), || call(world(STEPS, capacity)));
    let rank0 = &result.ranks[0].stats;
    let all = result.ranks.iter().flat_map(|r| &r.stats);
    println!(
        "\nstep lane: {} steps in {:.0} s; 64^3/16^3, 2 ranks x 2 devices of {capacity} B \
         (0.6 x peak), a rotation every 4th step; {} evictions, {} regrids",
        rank0.len(),
        samples[samples.len() - 1].secs,
        all.map(|s| s.gpu_evictions).sum::<u64>(),
        rank0.iter().map(|s| s.regrids).sum::<usize>(),
    );
    print_lane(&samples);
}

fn main() {
    println!("Heap-fragmentation ablation — RMCRT-like allocation trace");
    println!("(per timestep: 8 persistent smalls, 1 persistent mid, 16 transient larges,");
    println!(" every 5th large survives 3 steps — the old-DW retention pattern)\n");

    for steps in [10usize, 30, 60, 120] {
        let ops = rmcrt_trace(steps, 8, 16, 42);
        println!("after {steps} timesteps:");
        println!(
            "  {:<16} {:>14} {:>14} {:>12} {:>7}",
            "policy", "footprint", "live bytes", "waste", "frag"
        );
        for policy in [
            Policy::FirstFit,
            Policy::BestFit,
            Policy::SizeClass,
            Policy::ArenaSegregated,
        ] {
            let r = replay(policy, &ops);
            println!(
                "  {:<16} {:>12} B {:>12} B {:>10.1}x {:>6.1}%",
                format!("{policy:?}"),
                r.final_footprint,
                r.live_bytes,
                r.final_footprint as f64 / r.live_bytes.max(1) as f64,
                r.fragmentation * 100.0
            );
        }
        println!();
    }
    println!("Shape targets (paper §IV-B): the plain heap and size-class policies retain");
    println!("a footprint that grows with run length and dwarfs live bytes (the 'leak');");
    println!("segregating large transients into the page arena holds footprint ≈ live.");

    println!("\nCensus of this process: VmRSS against live heap bytes, every 200 ms.");
    served_lane();
    step_lane();
}

#[cfg(test)]
mod tests {
    use super::*;

    const RSS: f64 = 100.0 * MIB;

    /// 300 samples at a steady RSS whose RSS − live is `gap(i / 300)`.
    fn verdict(mut gap: impl FnMut(f64) -> f64) -> Verdict {
        let sample = |i| Sample {
            secs: 0.0,
            done: 0,
            rss: RSS as u64,
            live: (RSS - gap(i as f64 / 300.0)) as u64,
        };
        Verdict::of(&(0..300).map(sample).collect::<Vec<_>>())
    }

    #[test]
    fn noisy_flat_series_reads_flat() {
        // RSS − live jumps by up to ±8 % of RSS around 25 % of it.
        let mut rng = CellRng::new(7, IntVector::splat(0), 0, 0);
        let v = verdict(|_| RSS * (0.25 + 0.08 * (2.0 * rng.next_f64() - 1.0)));
        assert!(!v.grows(), "{v:?}");
    }

    #[test]
    fn steady_climb_of_a_fifth_of_rss_per_third_reads_grows() {
        let v = verdict(|x| 0.6 * RSS * x);
        assert!(v.grows(), "{v:?}");
    }

    #[test]
    fn climb_that_levels_off_before_the_middle_third_reads_flat() {
        // Up by half of RSS over the first quarter, then level.
        let v = verdict(|x| 0.5 * RSS * (4.0 * x).min(1.0));
        assert!(!v.grows(), "{v:?}");
    }
}
