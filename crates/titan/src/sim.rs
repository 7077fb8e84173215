//! Discrete-event simulation of one radiation timestep on the modeled
//! machine, driven by the real per-rank census.

use crate::census::{max_census, RankCensus};
use crate::machine::{MachineParams, StoreModel};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use uintah_grid::{DistributionPolicy, Grid, PatchDistribution};
use uintah_runtime::CalibrationSnapshot;

/// Ordered f64 for the resource heaps.
#[derive(PartialEq, PartialOrd)]
struct F(f64);
impl Eq for F {}
#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for F {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.partial_cmp(other).expect("NaN time")
    }
}

/// Phase breakdown of the modeled timestep (seconds).
#[derive(Clone, Copy, Debug, Default)]
pub struct Breakdown {
    /// Property initialization + send posting on the CPU lanes.
    pub props: f64,
    /// All-to-all window exchange: NIC + message processing until the
    /// level replicas are sealed.
    pub comm: f64,
    /// Ray-march phase: GPU staging + kernels + readback in the GPU model,
    /// the threaded host march in [`simulate_timestep_cpu`]. (Formerly
    /// named `gpu`, which mislabeled the CPU mode's march time.)
    pub compute: f64,
}

/// Measured per-patch cost distribution driving the modeled kernel
/// pipeline: relative weights (mean 1.0) sampled from a
/// [`CalibrationSnapshot`]'s per-patch wall costs, so patch-to-patch cost
/// variance measured on the real executor shapes the modeled critical
/// path instead of every kernel costing the analytic uniform amount.
///
/// An empty profile ([`CostProfile::uniform`]) reproduces the uniform
/// analytic model exactly. Weights are stored sorted descending so the
/// profile is a deterministic function of the measured cost *multiset*
/// (scheduler interleaving cannot reorder it). The simulation samples a
/// rank's kernels from the distribution's *quantiles*
/// ([`CostProfile::quantile_weight`]): the SFC load balancer spreads hot
/// spots across ranks, so a GPU holding `n` patches holds a representative
/// sample of the global cost spread, not its head — a rank with many
/// patches reproduces the full multiset, a rank with few gets its
/// mid-quantiles.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CostProfile {
    weights: Vec<f64>,
}

impl CostProfile {
    /// The uniform analytic profile: every kernel costs the same.
    pub fn uniform() -> Self {
        Self::default()
    }

    /// Build from raw per-patch costs (any unit; only ratios matter).
    /// Degenerate inputs — empty, or a zero/non-finite total — fall back
    /// to the uniform profile.
    pub fn from_costs(costs: impl IntoIterator<Item = f64>) -> Self {
        let mut w: Vec<f64> = costs.into_iter().filter(|c| c.is_finite() && *c > 0.0).collect();
        let total: f64 = w.iter().sum();
        if w.is_empty() || total <= 0.0 {
            return Self::uniform();
        }
        let mean = total / w.len() as f64;
        for c in &mut w {
            *c /= mean;
        }
        w.sort_by(|a, b| b.partial_cmp(a).expect("finite weights"));
        Self { weights: w }
    }

    /// Build from the measured per-patch wall costs of a calibration run.
    pub fn from_snapshot(snap: &CalibrationSnapshot) -> Self {
        Self::from_costs(snap.per_patch.iter().map(|&(_, ns)| ns as f64))
    }

    /// True when this profile reproduces the uniform analytic model.
    pub fn is_uniform(&self) -> bool {
        self.weights.is_empty()
    }

    /// Relative cost weight of kernel `k` (mean 1.0), cycling through the
    /// sorted multiset. Use [`CostProfile::quantile_weight`] when the
    /// total kernel count of the rank is known.
    #[inline]
    pub fn weight(&self, k: usize) -> f64 {
        if self.weights.is_empty() {
            1.0
        } else {
            self.weights[k % self.weights.len()]
        }
    }

    /// Weight of kernel `k` out of `n` on one rank: the mean of the
    /// measured distribution's `k`-th of `n` equal quantile bands. The
    /// band means always average to exactly 1, so a rank's total march
    /// work matches the uniform model for *any* patch count — the
    /// measured spread changes pipeline ordering and serialization, not
    /// total work (the SFC load balancer spreads hot spots across ranks;
    /// what one rank keeps is a representative slice, not the heaviest
    /// patches).
    pub fn quantile_weight(&self, k: usize, n: usize) -> f64 {
        if self.weights.is_empty() || n == 0 {
            return 1.0;
        }
        let len = self.weights.len() as f64;
        let a = k as f64 / n as f64 * len;
        let b = (k as f64 + 1.0) / n as f64 * len;
        (self.cum(b) - self.cum(a)) / (b - a)
    }

    /// Integral of the sorted weights over positions `[0, x)`, each weight
    /// occupying unit length (linear interpolation inside a weight).
    fn cum(&self, x: f64) -> f64 {
        let i = (x as usize).min(self.weights.len());
        let whole: f64 = self.weights[..i].iter().sum();
        let frac = x - i as f64;
        if frac > 0.0 && i < self.weights.len() {
            whole + frac * self.weights[i]
        } else {
            whole
        }
    }

    /// Heaviest/lightest measured patch cost ratio (1.0 when uniform).
    pub fn spread(&self) -> f64 {
        match (self.weights.first(), self.weights.last()) {
            (Some(&max), Some(&min)) if min > 0.0 => max / min,
            _ => 1.0,
        }
    }

    /// Number of distinct measured patch costs backing the profile.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True when no measured costs back the profile (uniform fallback).
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }
}

/// One point of a strong-scaling curve.
#[derive(Clone, Copy, Debug)]
pub struct ScalingPoint {
    pub gpus: usize,
    pub patch_size: i32,
    /// Modeled time per radiation timestep (s).
    pub time: f64,
    pub breakdown: Breakdown,
    pub census: RankCensus,
}

/// 17 bytes per cell across the 3 property variables (f64+f64+u8).
const PROP_BYTES_PER_CELL: f64 = 17.0 / 3.0;

/// Fraction of per-message CPU work done while *holding* the request-store
/// lock in the mutex-vector design (test-and-dequeue under the lock;
/// packing/unpacking outside). This is the serialized share; the wait-free
/// pool has none. Calibrated so the modeled before/after speedups land in
/// the paper's 2.3–4.4× band (Table I) with 16 worker threads.
const MUTEX_LOCK_FRACTION: f64 = 0.15;

/// Simulate one radiation timestep of the 2-level benchmark on `nranks`
/// nodes (1 GPU each) with the uniform analytic cost model. Campaign
/// callers with a measured [`CostProfile`] use [`simulate_timestep_with`].
pub fn simulate_timestep(
    grid: &Grid,
    nranks: usize,
    halo: i32,
    params: &MachineParams,
    store: StoreModel,
) -> ScalingPoint {
    simulate_timestep_with(grid, nranks, halo, params, store, &CostProfile::uniform())
}

/// Simulate one radiation timestep with a measured per-patch cost
/// distribution: each modeled kernel's march work is scaled by its
/// patch's weight from `profile` (mean 1.0, so total work matches the
/// uniform model and only the *distribution* across the pipeline
/// changes). [`CostProfile::uniform`] reproduces [`simulate_timestep`]
/// exactly.
pub fn simulate_timestep_with(
    grid: &Grid,
    nranks: usize,
    halo: i32,
    params: &MachineParams,
    store: StoreModel,
    profile: &CostProfile,
) -> ScalingPoint {
    let dist = PatchDistribution::new(grid, nranks, DistributionPolicy::MortonSfc);
    let census = max_census(grid, &dist, halo, 16.min(nranks));
    let patch_size = grid.fine_level().patch_size().x;

    // ---- Phase 1: property initialization + send posting ---------------
    let mut lanes: BinaryHeap<Reverse<F>> = (0..params.cpu_threads).map(|_| Reverse(F(0.0))).collect();
    let d_init = census.cells_per_patch as f64 / params.cpu_init_cells_per_s;
    let sends_per_patch = if census.local_fine_patches > 0 {
        census.msgs_sent() as f64 / census.local_fine_patches as f64
    } else {
        0.0
    };
    let w_send = sends_per_patch * params.msg_cpu_cost;
    let mut lock_free = 0.0f64; // the mutex store's single lock
    let mut props_end = 0.0f64;
    let mut patch_done_times = Vec::with_capacity(census.local_fine_patches);
    for _ in 0..census.local_fine_patches {
        let Reverse(F(free)) = lanes.pop().expect("lane");
        let compute_done = free + d_init;
        let lane_done = match store {
            StoreModel::WaitFreePool => compute_done + w_send,
            StoreModel::MutexVector => {
                // The lock-held share of posting serializes; the rest runs
                // on the posting lane.
                lock_free = lock_free.max(compute_done) + w_send * MUTEX_LOCK_FRACTION;
                lock_free + w_send * (1.0 - MUTEX_LOCK_FRACTION)
            }
        };
        patch_done_times.push(lane_done);
        props_end = props_end.max(lane_done);
        lanes.push(Reverse(F(lane_done)));
    }

    // ---- Phase 2: all-to-all arrival + processing -----------------------
    // Remote senders mirror our schedule: their windows depart uniformly
    // over [0, props_end] and serialize through our NIC.
    let m = census.level_msgs_recv;
    let msg_bytes = if m > 0 {
        census.level_cells_recv as f64 / m as f64 * PROP_BYTES_PER_CELL
    } else {
        0.0
    };
    let mut nic_free = 0.0f64;
    let mut gather_done = props_end;
    for i in 0..m {
        let send_time = props_end * (i as f64 + 0.5) / m as f64;
        let arrived = nic_free.max(send_time + params.net_latency) + msg_bytes / params.injection_bw;
        nic_free = arrived;
        // Processing on the CPU lanes; the mutex design additionally
        // serializes the lock-held share of each message.
        let done = match store {
            StoreModel::WaitFreePool => {
                let Reverse(F(free)) = lanes.pop().expect("lane");
                let d = free.max(arrived) + params.msg_cpu_cost;
                lanes.push(Reverse(F(d)));
                d
            }
            StoreModel::MutexVector => {
                lock_free = lock_free.max(arrived) + params.msg_cpu_cost * MUTEX_LOCK_FRACTION;
                let Reverse(F(free)) = lanes.pop().expect("lane");
                let d = free.max(lock_free) + params.msg_cpu_cost * (1.0 - MUTEX_LOCK_FRACTION);
                lanes.push(Reverse(F(d)));
                d
            }
        };
        gather_done = gather_done.max(done);
    }

    // ---- Phase 3: GPU pipeline ------------------------------------------
    // Level replicas cross PCIe once (the level database!), then patch
    // tasks pipeline H2D → kernel → D2H across the two copy engines.
    // All 3 property variables of the whole coarse level: 8+8+1 B/cell.
    let coarse_bytes = census.coarse_level_cells as f64 * 17.0;
    let mut h2d_free = gather_done + coarse_bytes / params.pcie_bw;
    let mut gpu_free = gather_done;
    let mut d2h_free = gather_done;
    let roi_1d = patch_size as f64 + 2.0 * halo as f64;
    let roi_cells = roi_1d.powi(3);
    let coarse_1d = grid.coarsest_level().cell_region().extent().x as f64;
    let steps = params.steps_per_ray(roi_1d, coarse_1d);
    let cells = census.cells_per_patch as f64;
    let kernel_work = cells * params.nrays * steps;
    let mut done = gather_done;
    for k in 0..census.kernels {
        let h2d_dur = roi_cells * PROP_BYTES_PER_CELL * 3.0 / params.pcie_bw;
        let staged = h2d_free + h2d_dur;
        h2d_free = staged;
        // Measured cost distribution: this kernel's march work is its
        // patch's quantile of the measured spread (weight 1.0 when
        // uniform).
        let kernel_dur = params.kernel_launch
            + kernel_work * profile.quantile_weight(k, census.kernels) / params.gpu_throughput(cells);
        let k_end = gpu_free.max(staged) + kernel_dur;
        gpu_free = k_end;
        let out = d2h_free.max(k_end) + cells * 8.0 / params.pcie_bw;
        d2h_free = out;
        done = done.max(out);
    }

    ScalingPoint {
        gpus: nranks,
        patch_size,
        time: done,
        breakdown: Breakdown {
            props: props_end,
            comm: (gather_done - props_end).max(0.0),
            compute: (done - gather_done).max(0.0),
        },
        census,
    }
}

/// Simulate one radiation timestep with the ray march on the node's 16
/// CPU cores instead of the GPU (the paper's predecessor configuration,
/// ref. \[5\]; no PCIe staging, no kernel-launch overhead, but an
/// order-of-magnitude lower march throughput per node).
pub fn simulate_timestep_cpu(
    grid: &Grid,
    nranks: usize,
    halo: i32,
    params: &MachineParams,
    store: StoreModel,
) -> ScalingPoint {
    // Phases 1 and 2 are identical to the GPU run; recompute them by
    // running the GPU model and replacing the compute phase.
    let gpu_pt = simulate_timestep(grid, nranks, halo, params, store);
    let census = gpu_pt.census;
    let patch_size = grid.fine_level().patch_size().x;
    let gather_done = gpu_pt.breakdown.props + gpu_pt.breakdown.comm;
    let roi_1d = patch_size as f64 + 2.0 * halo as f64;
    let coarse_1d = grid.coarsest_level().cell_region().extent().x as f64;
    let steps = params.steps_per_ray(roi_1d, coarse_1d);
    let work_per_patch = census.cells_per_patch as f64 * params.nrays * steps;
    // CPU RMCRT parallelizes over *cells*, so the node's threads share the
    // total march work regardless of patch count (unlike the GPU pipeline,
    // which is kernel-granular).
    let total_work = census.kernels as f64 * work_per_patch;
    let done = gather_done + total_work / (params.cpu_threads as f64 * params.cpu_cellsteps_per_s);
    ScalingPoint {
        gpus: nranks,
        patch_size,
        time: done,
        breakdown: Breakdown {
            props: gpu_pt.breakdown.props,
            comm: gpu_pt.breakdown.comm,
            compute: (done - gather_done).max(0.0),
        },
        census,
    }
}

/// Sweep a strong-scaling curve over `gpu_counts` with a measured
/// per-patch cost distribution (see [`simulate_timestep_with`]).
pub fn scaling_curve_with(
    grid: &Grid,
    gpu_counts: &[usize],
    halo: i32,
    params: &MachineParams,
    store: StoreModel,
    profile: &CostProfile,
) -> Vec<ScalingPoint> {
    gpu_counts
        .iter()
        .map(|&n| simulate_timestep_with(grid, n, halo, params, store, profile))
        .collect()
}

/// Strong-scaling efficiency between two points (equation 3 of the paper,
/// relative form): `E = (t_a · n_a) / (t_b · n_b)` for `n_b > n_a`.
pub fn efficiency(a: &ScalingPoint, b: &ScalingPoint) -> f64 {
    (a.time * a.gpus as f64) / (b.time * b.gpus as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uintah_grid::IntVector;

    fn grid(fine: i32, patch: i32) -> Grid {
        Grid::builder()
            .fine_cells(IntVector::splat(fine))
            .num_levels(2)
            .refinement_ratio(4)
            .fine_patch_size(IntVector::splat(patch))
            .build()
    }

    #[test]
    fn time_decreases_with_more_gpus() {
        let g = grid(256, 16);
        let p = MachineParams::titan();
        let pts = scaling_curve_with(
            &g,
            &[64, 256, 1024],
            4,
            &p,
            StoreModel::WaitFreePool,
            &CostProfile::uniform(),
        );
        assert!(pts[0].time > pts[1].time);
        assert!(pts[1].time > pts[2].time);
    }

    #[test]
    fn larger_patches_run_faster_at_fixed_gpus() {
        // Paper §V observation 1: larger patches → more work per kernel →
        // better GPU throughput → lower time. Compare at a GPU count where
        // every patch size still has >= 1 patch per GPU (64 GPUs on the
        // MEDIUM grid), so cells per GPU are identical across the sweep.
        let p = MachineParams::titan();
        let t16 = simulate_timestep(&grid(256, 16), 64, 4, &p, StoreModel::WaitFreePool).time;
        let t32 = simulate_timestep(&grid(256, 32), 64, 4, &p, StoreModel::WaitFreePool).time;
        let t64 = simulate_timestep(&grid(256, 64), 64, 4, &p, StoreModel::WaitFreePool).time;
        assert!(t64 < t32 && t32 < t16, "{t64} {t32} {t16}");
    }

    #[test]
    fn large_problem_efficiency_matches_paper_band() {
        // Paper: LARGE problem, 96% efficiency 4096→8192 GPUs and 89%
        // 4096→16384. Model should land in the same region (>= 80%).
        let g = grid(512, 16);
        let p = MachineParams::titan();
        let pts = scaling_curve_with(
            &g,
            &[4096, 8192, 16384],
            4,
            &p,
            StoreModel::WaitFreePool,
            &CostProfile::uniform(),
        );
        let e8 = efficiency(&pts[0], &pts[1]);
        let e16 = efficiency(&pts[0], &pts[2]);
        assert!(e8 > 0.80 && e8 <= 1.02, "4k->8k efficiency {e8}");
        assert!(e16 > 0.70 && e16 <= 1.02, "4k->16k efficiency {e16}");
        assert!(e16 <= e8 + 1e-9, "efficiency cannot improve with scale");
    }

    #[test]
    fn mutex_store_slower_than_waitfree() {
        // Fig. 1: the wait-free pool beats the locked vector on local comm.
        let g = grid(256, 16);
        let p = MachineParams::titan();
        let before = simulate_timestep(&g, 512, 4, &p, StoreModel::MutexVector);
        let after = simulate_timestep(&g, 512, 4, &p, StoreModel::WaitFreePool);
        assert!(
            before.breakdown.comm + before.breakdown.props
                > after.breakdown.comm + after.breakdown.props,
            "before {:?} after {:?}",
            before.breakdown,
            after.breakdown
        );
    }

    #[test]
    fn deterministic() {
        let g = grid(128, 16);
        let p = MachineParams::titan();
        let a = simulate_timestep(&g, 128, 4, &p, StoreModel::WaitFreePool);
        let b = simulate_timestep(&g, 128, 4, &p, StoreModel::WaitFreePool);
        assert_eq!(a.time, b.time);
    }

    #[test]
    fn gpu_node_beats_cpu_node() {
        // Per node: 16 Opteron cores vs one K20X on large patches — the
        // GPU wins by roughly the FLOPS ratio once patches fill it.
        let g = grid(256, 64);
        let p = MachineParams::titan();
        let gpu = simulate_timestep(&g, 64, 4, &p, StoreModel::WaitFreePool);
        let cpu = simulate_timestep_cpu(&g, 64, 4, &p, StoreModel::WaitFreePool);
        let speedup = cpu.time / gpu.time;
        assert!(
            speedup > 1.3 && speedup < 10.0,
            "GPU speedup {speedup} out of plausible range"
        );
    }

    #[test]
    fn cpu_mode_has_no_pcie_or_launch_overhead_at_tiny_work() {
        // With very small patches the GPU's fixed overheads bite; the CPU
        // node closes the gap (the motivation for patch-size tuning §V).
        let p = MachineParams::titan();
        let small = grid(128, 16);
        let gpu16 = simulate_timestep(&small, 512, 4, &p, StoreModel::WaitFreePool);
        let cpu16 = simulate_timestep_cpu(&small, 512, 4, &p, StoreModel::WaitFreePool);
        let big = grid(128, 32);
        let gpu32 = simulate_timestep(&big, 64, 4, &p, StoreModel::WaitFreePool);
        let cpu32 = simulate_timestep_cpu(&big, 64, 4, &p, StoreModel::WaitFreePool);
        let speedup_small = cpu16.time / gpu16.time;
        let speedup_big = cpu32.time / gpu32.time;
        assert!(
            speedup_big > speedup_small,
            "bigger patches must increase GPU speedup: {speedup_big} vs {speedup_small}"
        );
    }

    #[test]
    fn uniform_profile_reproduces_analytic_model_exactly() {
        let g = grid(128, 16);
        let p = MachineParams::titan();
        let a = simulate_timestep(&g, 64, 4, &p, StoreModel::WaitFreePool);
        let b = simulate_timestep_with(&g, 64, 4, &p, StoreModel::WaitFreePool, &CostProfile::uniform());
        assert_eq!(a.time.to_bits(), b.time.to_bits());
    }

    #[test]
    fn cost_profile_normalizes_to_mean_one_and_sorts() {
        let p = CostProfile::from_costs([3.0, 1.0, 2.0]);
        assert_eq!(p.len(), 3);
        assert!((p.weight(0) - 1.5).abs() < 1e-12, "{}", p.weight(0));
        assert!((p.weight(1) - 1.0).abs() < 1e-12);
        assert!((p.weight(2) - 0.5).abs() < 1e-12);
        assert!((p.weight(3) - 1.5).abs() < 1e-12, "weights cycle");
        assert!((p.spread() - 3.0).abs() < 1e-12);
        // Degenerate inputs fall back to uniform.
        assert!(CostProfile::from_costs([]).is_uniform());
        assert!(CostProfile::from_costs([0.0, -1.0, f64::NAN]).is_uniform());
    }

    #[test]
    fn quantile_sampling_conserves_work_and_stays_representative() {
        let p = CostProfile::from_costs((0..16).map(|i| 1.0 + i as f64));
        // Band means conserve total work exactly for any rank size.
        for n in [1usize, 2, 3, 5, 16, 32, 64, 100] {
            let total: f64 = (0..n).map(|k| p.quantile_weight(k, n)).sum();
            assert!((total - n as f64).abs() < 1e-9, "n={n}: total {total}");
        }
        // Small n: band means, not the raw heaviest patches.
        let w2: Vec<f64> = (0..2).map(|k| p.quantile_weight(k, 2)).collect();
        assert!(w2[0] > w2[1], "descending quantiles");
        assert!(w2[0] < p.weight(0), "n=2 gets the top band's mean, not its max");
    }

    #[test]
    fn measured_spread_slows_the_pipeline_but_not_below_uniform_work() {
        // Same total work, skewed across patches: the critical path can
        // only get longer (the heaviest kernels serialize on the engine),
        // and the effect shrinks as patches per GPU shrink.
        let g = grid(256, 16);
        let p = MachineParams::titan();
        let skew = CostProfile::from_costs((0..64).map(|i| 1.0 + (i % 8) as f64));
        let uni = simulate_timestep(&g, 64, 4, &p, StoreModel::WaitFreePool);
        let mea = simulate_timestep_with(&g, 64, 4, &p, StoreModel::WaitFreePool, &skew);
        assert!(
            mea.time >= uni.time * 0.999,
            "measured spread cannot beat uniform: {} vs {}",
            mea.time,
            uni.time
        );
        // Within 2x: mean-1 normalization keeps total work equal.
        assert!(mea.time < uni.time * 2.0, "{} vs {}", mea.time, uni.time);
    }

    #[test]
    fn breakdown_sums_to_total() {
        let g = grid(128, 16);
        let p = MachineParams::titan();
        let pt = simulate_timestep(&g, 64, 4, &p, StoreModel::WaitFreePool);
        let sum = pt.breakdown.props + pt.breakdown.comm + pt.breakdown.compute;
        assert!((sum - pt.time).abs() < 1e-9 * pt.time.max(1.0));
    }
}
