//! The five workloads and what they have in common: how a run is asked
//! for, what it hands back, and how operation timings become the seven
//! end-to-end metrics.

pub mod serve;
pub mod step;
pub mod trace;

use crate::hostspeed::HostSpeed;
use crate::metrics::Measured;
use crate::span::Span;
use crate::stats::{median, summarize, Summary};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TraceThinFixed,
    TraceThickAdaptive,
    StepCpuSmallpatch,
    StepGpuOversub,
    ServeClosed2,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::TraceThinFixed,
        Workload::TraceThickAdaptive,
        Workload::StepCpuSmallpatch,
        Workload::StepGpuOversub,
        Workload::ServeClosed2,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TraceThinFixed => "trace_thin_fixed",
            Workload::TraceThickAdaptive => "trace_thick_adaptive",
            Workload::StepCpuSmallpatch => "step_cpu_smallpatch",
            Workload::StepGpuOversub => "step_gpu_oversub",
            Workload::ServeClosed2 => "serve_closed2",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn run(self, args: &RunArgs) -> Outcome {
        match self {
            Workload::TraceThinFixed => trace::run_thin(args),
            Workload::TraceThickAdaptive => trace::run_thick(args),
            Workload::StepCpuSmallpatch => step::run_cpu_smallpatch(args),
            Workload::StepGpuOversub => step::run_gpu_oversub(args),
            Workload::ServeClosed2 => serve::run(args),
        }
    }
}

/// What one run is asked to do.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Feeds `RmcrtParams::seed`, the serve job order and every replay order.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Record spans, gather layer counters and run the layer probes.
    pub trace: bool,
    /// Tiny grids and counts: the same code paths in a few seconds.
    pub smoke: bool,
}

/// What one run hands back.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// "Did no work" assertion trips and flagged inconsistencies: any entry
    /// makes the run incorrect.
    pub problems: Vec<String>,
    /// Inconsistencies worth a reader's attention that do not make the run
    /// incorrect (e.g. step walls that do not add up to the call wall).
    pub flags: Vec<String>,
    pub e2e: Measured,
    pub layer: Measured,
    /// Medians with their sample counts and supported tails, for printing.
    pub summaries: Vec<(&'static str, Summary)>,
    /// Wall spent computing references and checking outputs (excluded from
    /// `setup_s`, printed separately).
    pub verify: Duration,
    pub spans: Vec<Span>,
    pub track_names: BTreeMap<u32, String>,
}

/// Which clock a workload's timings are reported on (see `hostspeed`).
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Scaled to nominal host speed: workloads whose time is ray tracing.
    Nominal,
    /// As measured: workloads whose time does not follow the calibration kernel.
    Raw,
}

/// Run `setup` cold `reps` times; returns the last repetition's product and
/// the median wall in seconds on `clock`. `teardown` disposes of each
/// earlier product (untimed) before the next repetition, so each one starts
/// cold and peak memory is one set of inputs, not `reps`.
pub fn timed_setup<T>(
    reps: usize,
    clock: Clock,
    mut setup: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> (T, f64) {
    let mut walls = Vec::with_capacity(reps);
    let mut last: Option<T> = None;
    let mut host = (clock == Clock::Nominal).then(HostSpeed::start);
    for _ in 0..reps.max(1) {
        if let Some(previous) = last.take() {
            teardown(previous);
            if let Some(h) = &mut host {
                h.resync();
            }
        }
        let t0 = Instant::now();
        last = Some(setup());
        let wall = t0.elapsed().as_secs_f64();
        walls.push(wall * host.as_mut().map_or(1.0, HostSpeed::factor));
    }
    (last.expect("at least one repetition"), median(&walls))
}

/// One timed operation.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    /// Raw wall, ms.
    pub raw_ms: f64,
    /// Host-speed factor of the interval it ran in (1 on the raw clock).
    pub factor: f64,
    /// Ran with spans on (traced runs alternate).
    pub traced: bool,
    pub verified: bool,
    /// The serve job shape; 0 elsewhere. Medians are taken per kind and
    /// averaged, so a seed that draws more of the cheap kind does not move
    /// the median of a multi-modal mix.
    pub kind: usize,
}

impl Op {
    /// Wall on the workload's clock, ms.
    pub fn ms(&self) -> f64 {
        self.raw_ms * self.factor
    }
}

/// Operation timings of one timed window.
#[derive(Default)]
pub struct Window {
    pub ops: Vec<Op>,
    pub wall: Duration,
}

impl Window {
    /// Keep going until the window is `seconds` long (and has a few samples).
    pub fn open(&self, started: Instant, seconds: f64) -> bool {
        started.elapsed().as_secs_f64() < seconds || self.ops.len() < 3
    }

    /// In a traced run every other operation runs with spans off, so the
    /// same run yields the tracing overhead.
    pub fn next_is_traced(&self, run_traced: bool) -> bool {
        run_traced && self.ops.len().is_multiple_of(2)
    }

    /// Operation walls on the workload's clock.
    pub fn normalised_ms(&self) -> Vec<f64> {
        self.ops.iter().map(Op::ms).collect()
    }

    pub fn verified_ops(&self) -> u64 {
        self.ops.iter().filter(|op| op.verified).count() as u64
    }

    /// Operation-time-weighted mean host-speed factor of the window: what
    /// turns a raw duration summed over the window into a nominal one.
    pub fn mean_factor(&self) -> f64 {
        let raw: f64 = self.ops.iter().map(|op| op.raw_ms).sum();
        self.ops.iter().map(Op::ms).sum::<f64>() / raw
    }

    /// Mean over operation kinds of the per-kind median operation time.
    fn median_by_kind(&self) -> f64 {
        let kinds = self.ops.iter().map(|op| op.kind).max().map_or(0, |k| k + 1);
        let medians: Vec<f64> = (0..kinds)
            .filter_map(|k| {
                let of_kind: Vec<f64> = self
                    .ops
                    .iter()
                    .filter(|op| op.kind == k)
                    .map(Op::ms)
                    .collect();
                (!of_kind.is_empty()).then(|| median(&of_kind))
            })
            .collect();
        medians.iter().sum::<f64>() / medians.len() as f64
    }
}

/// What the throughput metrics divide by.
pub enum Busy {
    /// One operation at a time: the time spent inside operations.
    Operations,
    /// Concurrent clients: the wall of the whole window.
    Wall,
}

/// Fill the timing/throughput end-to-end metrics from a window, on the
/// workload's clock; raw medians go to the printed summaries.
pub fn fill_e2e(out: &mut Outcome, w: &Window, steps_per_op: u64, cells_per_step: u64, busy: Busy) {
    let norm = w.normalised_ms();
    let job_ms = w.median_by_kind();
    let busy_s = match busy {
        Busy::Operations => norm.iter().sum::<f64>() / 1e3,
        Busy::Wall => w.wall.as_secs_f64() * w.mean_factor(),
    };
    let verified = w.verified_ops();
    out.e2e.set("step_ms_p50", job_ms / steps_per_op as f64);
    out.e2e.set(
        "cells_per_s",
        (cells_per_step * steps_per_op * verified) as f64 / busy_s,
    );
    out.e2e.set("job_ms_p50", job_ms);
    out.e2e.set("jobs_per_s", verified as f64 / busy_s);
    let raw: Vec<f64> = w.ops.iter().map(|op| op.raw_ms).collect();
    let factors: Vec<f64> = w.ops.iter().map(|op| op.factor).collect();
    out.summaries.push(("job_ms as reported", summarize(&norm)));
    out.summaries.push(("job_ms raw", summarize(&raw)));
    out.summaries
        .push(("host speed factor (1 = raw clock)", summarize(&factors)));
    out.attempted = w.ops.len() as u64;
    out.failed = out.attempted - verified;
}

/// `harness.trace_overhead_pct`: median traced over median untraced
/// operation time within one traced run.
pub fn trace_overhead_pct(w: &Window) -> f64 {
    let pick = |traced: bool| -> Vec<f64> {
        w.ops
            .iter()
            .filter(|op| op.traced == traced)
            .map(Op::ms)
            .collect()
    };
    let (on, off) = (pick(true), pick(false));
    if on.is_empty() || off.is_empty() {
        return 0.0;
    }
    100.0 * (median(&on) / median(&off) - 1.0)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    fn op(raw_ms: f64, factor: f64, traced: bool, verified: bool, kind: usize) -> Op {
        Op {
            raw_ms,
            factor,
            traced,
            verified,
            kind,
        }
    }

    #[test]
    fn e2e_from_a_window() {
        let mut out = Outcome::default();
        // The second half of the window ran on a host at half speed.
        let w = Window {
            ops: vec![
                op(100.0, 1.0, true, true, 0),
                op(120.0, 1.0, false, true, 0),
                op(220.0, 0.5, true, true, 0),
                op(800.0, 0.5, false, false, 0),
            ],
            wall: Duration::from_secs(2),
        };
        assert_eq!(w.normalised_ms(), vec![100.0, 120.0, 110.0, 400.0]);
        fill_e2e(&mut out, &w, 10, 1000, Busy::Operations);
        assert_eq!(out.e2e.get("step_ms_p50"), Some(11.5));
        assert_eq!(out.e2e.get("job_ms_p50"), Some(115.0));
        assert_eq!(out.e2e.get("cells_per_s"), Some(30_000.0 / 0.73));
        assert_eq!(out.e2e.get("jobs_per_s"), Some(3.0 / 0.73));
        assert_eq!((out.attempted, out.failed), (4, 1));
        // traced median 105, untraced median 260
        assert!((trace_overhead_pct(&w) - 100.0 * (105.0 / 260.0 - 1.0)).abs() < 1e-9);

        let mut out = Outcome::default();
        fill_e2e(&mut out, &w, 1, 1000, Busy::Wall);
        let wall_at_nominal = 2.0 * (730.0 / 1240.0);
        assert!((out.e2e.get("jobs_per_s").unwrap() - 3.0 / wall_at_nominal).abs() < 1e-9);
    }

    #[test]
    fn medians_are_taken_per_kind_then_averaged() {
        // Kind 0 costs 10, kind 1 costs 30; the draw is 3:1. A plain median
        // would report 10; per kind it is (10 + 30) / 2 whatever the draw.
        let w = Window {
            ops: vec![
                op(10.0, 1.0, false, true, 0),
                op(10.0, 1.0, false, true, 0),
                op(10.0, 1.0, false, true, 0),
                op(30.0, 1.0, false, true, 1),
            ],
            wall: Duration::from_secs(1),
        };
        let mut out = Outcome::default();
        fill_e2e(&mut out, &w, 1, 1, Busy::Wall);
        assert_eq!(out.e2e.get("job_ms_p50"), Some(20.0));
    }

    #[test]
    fn timed_setup_reports_the_median_and_keeps_the_last_product() {
        let mut n = 0;
        let mut torn_down = Vec::new();
        let (last, secs) = timed_setup(
            5,
            Clock::Raw,
            || {
                n += 1;
                n
            },
            |previous| torn_down.push(previous),
        );
        assert_eq!(last, 5);
        assert_eq!(torn_down, vec![1, 2, 3, 4]);
        assert!(secs >= 0.0);
    }
}
