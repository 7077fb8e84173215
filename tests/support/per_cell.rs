//! The per-cell ray loop region solves ran before they marched runs of
//! cells, kept as the reference the run solver must match to the bit: one
//! packet per cell in Fixed mode, one per batch in Adaptive mode, each
//! folded in ray order. Copied from the solver as it was, with the
//! thread-local scratch made an argument.

use uintah::prelude::*;
use uintah::rmcrt::sampling::DirectionSampler;
use uintah::rmcrt::solver::fill_cell_packet;
use uintah::rmcrt::{MarchStats, TraceOptions};

/// What the loop kept from cell to cell: the packet's columns and the
/// sampler's stratum permutation.
#[derive(Default)]
pub struct CellScratch {
    packet: RayPacket,
    sampler: DirectionSampler,
}

impl CellScratch {
    /// Draw, fill and trace this cell's rays `first..first + count` as one
    /// packet (left in `self.packet`). The stratification permutation
    /// draws from the dedicated stream `perm_stream`, so per-ray streams
    /// stay untouched.
    fn trace(
        &mut self,
        tracer: &PacketTracer<'_>,
        cell: IntVector,
        params: &RmcrtParams,
        perm_stream: u32,
        first: u32,
        count: u32,
    ) -> MarchStats {
        let mut perm_rng = CellRng::new(params.seed, cell, perm_stream, params.timestep);
        self.sampler.redraw(params.sampling, count, &mut perm_rng);
        fill_cell_packet(
            &mut self.packet,
            tracer.fine_props(),
            cell,
            params,
            &self.sampler,
            first,
            count,
        );
        tracer.trace(&mut self.packet)
    }
}

/// Fixed-budget mean: one packet of `n` rays, summed in ray order.
fn mean_intensity_fixed(
    scratch: &mut CellScratch,
    tracer: &PacketTracer<'_>,
    cell: IntVector,
    params: &RmcrtParams,
    n: u32,
) -> (f64, MarchStats) {
    let march = scratch.trace(tracer, cell, params, u32::MAX, 0, n);
    let mut sum_i = 0.0;
    for &v in &scratch.packet.sum_i {
        sum_i += v;
    }
    (sum_i, march)
}

/// Adaptive budget: geometrically growing batches until the relative
/// standard error of the mean intensity reaches the target (or `max`).
fn mean_intensity_adaptive(
    scratch: &mut CellScratch,
    tracer: &PacketTracer<'_>,
    cell: IntVector,
    params: &RmcrtParams,
    min: u32,
    max: u32,
    rel_var_target: f64,
) -> (f64, MarchStats) {
    let max = max.max(min);
    let mut batch = min.clamp(1, max);
    let mut drawn = 0u32;
    let mut batch_id = 0u32;
    let mut sum = 0.0f64;
    let mut sum_sq = 0.0f64;
    let mut march = MarchStats::default();
    loop {
        let b = batch.min(max - drawn);
        march += scratch.trace(tracer, cell, params, u32::MAX - 1 - batch_id, drawn, b);
        for &v in &scratch.packet.sum_i {
            sum += v;
            sum_sq += v * v;
        }
        drawn += b;
        batch_id += 1;
        if drawn >= max {
            break;
        }
        let n = drawn as f64;
        let mean = sum / n;
        let var = ((sum_sq / n - mean * mean) * n / (n - 1.0).max(1.0)).max(0.0);
        let sem = (var / n).sqrt();
        if sem <= rel_var_target * mean.abs() {
            break;
        }
        batch = batch.saturating_mul(2);
    }
    (sum, march)
}

/// One cell's `∇·q` and the march counters of its rays.
pub fn div_q_for_cell(
    scratch: &mut CellScratch,
    tracer: &PacketTracer<'_>,
    cell: IntVector,
    params: &RmcrtParams,
) -> (f64, MarchStats) {
    let fine = tracer.fine_props();
    let kappa = fine.abskg[cell];
    if kappa == 0.0 {
        return (0.0, MarchStats::default());
    }
    let (sum_i, march) = match params.ray_count_mode() {
        RayCountMode::Fixed(n) => mean_intensity_fixed(scratch, tracer, cell, params, n),
        RayCountMode::Adaptive {
            min,
            max,
            rel_var_target,
        } => mean_intensity_adaptive(scratch, tracer, cell, params, min, max, rel_var_target),
    };
    let mean_i = sum_i / march.rays as f64;
    (
        4.0 * std::f64::consts::PI * kappa * (fine.sigma_t4_over_pi[cell] - mean_i),
        march,
    )
}

/// The region solve of the per-cell loop: each cell in canonical order,
/// and the summed march counters.
pub fn solve_region(
    levels: &[TraceLevel<'_>],
    region: Region,
    params: &RmcrtParams,
) -> (CcVariable<f64>, MarchStats) {
    let tracer = PacketTracer::new(
        levels,
        TraceOptions {
            threshold: params.threshold,
            ..Default::default()
        },
    );
    let mut scratch = CellScratch::default();
    let mut march = MarchStats::default();
    let mut out = CcVariable::new(region);
    for c in region.cells() {
        let (dq, cell_march) = div_q_for_cell(&mut scratch, &tracer, c, params);
        out[c] = dq;
        march += cell_march;
    }
    (out, march)
}
