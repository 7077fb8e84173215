//! The measured-calibration scaling campaign (E2/E3/E12).
//!
//! One pipeline from a *real* executor run to the paper's scaling figures:
//!
//! 1. [`calibrate_live`] runs a small Burns–Christon problem through the
//!    actual `uintah-runtime` scheduler (2 ranks × 2 threads, simulated
//!    GPU fleet, persistent executor) and folds the per-step [`ExecStats`]
//!    into one [`CalibrationSnapshot`] — the single source of machine
//!    rates. `MachineParams::from_snapshot` rescales the measured host
//!    rates onto the Titan / Summit device models, and the measured
//!    per-patch wall costs become a [`CostProfile`] so the discrete-event
//!    simulation marches a *measured* cost distribution, not a uniform
//!    analytic one.
//! 2. [`strong_scaling`] sweeps a [`SweepSpec`] (problem × patch sizes ×
//!    GPU counts) through `scaling_curve_with`, yielding [`Curve`]s with
//!    real per-doubling parallel efficiencies (Eq. 3) and knee detection —
//!    no magic time-ratio thresholds.
//! 3. [`CampaignReport`] serializes the sweeps plus the gate efficiencies
//!    to `BENCH_scaling.json`; `report_from_json` parses it back so the
//!    `scaling_gate` bin can diff a fresh campaign against the checked-in
//!    file within tolerance (verify.sh runs this).
//!
//! [`ExecStats`]: uintah_runtime::ExecStats

use std::sync::Arc;
use titan_sim::sim::{scaling_curve_with, CostProfile, ScalingPoint};
use titan_sim::CalibrationScale;
use uintah::prelude::*;
use uintah_runtime::CalibrationSnapshot;

pub mod json;

// ---------------------------------------------------------------------------
// Sweep descriptors
// ---------------------------------------------------------------------------

/// One of the paper's 2-level benchmark problems (RR 4, 100 rays/cell).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Problem {
    pub name: &'static str,
    /// Fine-mesh cells per edge (coarse is `fine / 4`).
    pub fine: i32,
    /// Fine-level ROI halo in cells.
    pub halo: i32,
}

impl Problem {
    /// MEDIUM: 256³ fine / 64³ coarse (Figure 2).
    pub(crate) fn medium() -> Self {
        Self { name: "MEDIUM", fine: 256, halo: 4 }
    }

    /// LARGE: 512³ fine / 128³ coarse (Figure 3).
    pub(crate) fn large() -> Self {
        Self { name: "LARGE", fine: 512, halo: 4 }
    }

    /// Build the 2-level grid for a given fine patch size.
    pub(crate) fn grid(&self, patch: i32) -> Grid {
        Grid::builder()
            .fine_cells(IntVector::splat(self.fine))
            .num_levels(2)
            .refinement_ratio(4)
            .fine_patch_size(IntVector::splat(patch))
            .build()
    }

    /// Total fine patches at a given patch size.
    pub fn total_patches(&self, patch: i32) -> usize {
        let n = (self.fine / patch) as usize;
        n * n * n
    }
}

/// A strong-scaling sweep: one problem, several patch-size curves, one
/// shared GPU-count axis.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    pub name: &'static str,
    pub problem: Problem,
    pub patch_sizes: Vec<i32>,
    pub gpu_counts: Vec<usize>,
}

impl SweepSpec {
    /// Figure 2: MEDIUM, 16³/32³/64³ patches, 16 → 16384 GPUs.
    pub fn fig2_medium() -> Self {
        Self {
            name: "fig2_medium",
            problem: Problem::medium(),
            patch_sizes: vec![16, 32, 64],
            gpu_counts: vec![16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384],
        }
    }

    /// Figure 3: LARGE, 16³/32³/64³ patches, 512 → 16384 GPUs.
    pub fn fig3_large() -> Self {
        Self {
            name: "fig3_large",
            problem: Problem::large(),
            patch_sizes: vec![16, 32, 64],
            gpu_counts: vec![512, 1024, 2048, 4096, 8192, 16384],
        }
    }

    /// The regression gate's sweep: the LARGE 16³-patch curve (the one the
    /// paper quotes its headline efficiencies on) over the full GPU range.
    pub fn gate_large() -> Self {
        Self {
            name: "gate_large16",
            problem: Problem::large(),
            patch_sizes: vec![16],
            gpu_counts: vec![16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384],
        }
    }

    /// Summit projection: LARGE on the 16³/32³ curves (E11 forward look).
    pub fn summit_large() -> Self {
        Self {
            name: "summit_large",
            problem: Problem::large(),
            patch_sizes: vec![16, 32],
            gpu_counts: vec![512, 1024, 2048, 4096, 8192, 16384],
        }
    }
}

// ---------------------------------------------------------------------------
// Live calibration
// ---------------------------------------------------------------------------

/// Measured machine rates plus the measured per-patch cost distribution,
/// derived from one [`CalibrationSnapshot`].
#[derive(Clone, Debug)]
pub struct Calibration {
    pub snapshot: CalibrationSnapshot,
    /// Titan model with CPU/GPU/PCIe/message rates replaced by measured
    /// values rescaled through [`CalibrationScale::host_to_titan`].
    pub titan: MachineParams,
    /// Summit model rescaled through [`CalibrationScale::host_to_summit`].
    pub summit: MachineParams,
    /// Measured per-patch cost spread, normalized to mean 1.
    pub profile: CostProfile,
    /// Cell-steps represented by one kernel invocation of the
    /// calibration run (rays/cell × mean steps/ray for its geometry).
    pub cellsteps_per_invocation: f64,
}

/// Geometry of the calibration run (kept small so every bench bin can
/// afford a real executor run at startup).
const CAL_FINE: i32 = 16;
const CAL_PATCH: i32 = 8;
const CAL_HALO: i32 = 2;
const CAL_NRAYS: u32 = 8;
const CAL_STEPS: usize = 3;

/// Run the small calibration problem through the real runtime and derive
/// both machine models and the measured cost profile from its snapshot.
pub fn calibrate_live() -> Calibration {
    let grid = Arc::new(BurnsChriston::small_grid(CAL_FINE, CAL_PATCH));
    let pipeline = RmcrtPipeline {
        params: RmcrtParams {
            nrays: CAL_NRAYS,
            ..Default::default()
        },
        halo: CAL_HALO,
        problem: BurnsChriston::default(),
    };
    let decls = Arc::new(multilevel_decls(&grid, pipeline, true));
    let result = run_world(
        Arc::clone(&grid),
        decls,
        WorldConfig {
            nranks: 2,
            nthreads: 2,
            timesteps: CAL_STEPS,
            gpu_capacity: Some(1 << 30),
            ..Default::default()
        },
    );
    from_snapshot(result.calibration_snapshot())
}

/// Derive a [`Calibration`] from an existing snapshot (e.g. the checked-in
/// `CALIBRATION.snapshot`), assuming the standard calibration geometry.
pub fn from_snapshot(snapshot: CalibrationSnapshot) -> Calibration {
    // Mean chord model of the calibration run: ROI = patch + 2·halo cells
    // across, coarse level fine/4 across.
    let roi_1d = (CAL_PATCH + 2 * CAL_HALO) as f64;
    let coarse_1d = (CAL_FINE / 4) as f64;
    let steps_per_ray = MachineParams::titan().steps_per_ray(roi_1d, coarse_1d);
    let cspi = CAL_NRAYS as f64 * steps_per_ray;
    let titan = MachineParams::from_snapshot(
        MachineParams::titan(),
        &snapshot,
        &CalibrationScale::host_to_titan(cspi),
    );
    let summit = MachineParams::from_snapshot(
        MachineParams::summit(),
        &snapshot,
        &CalibrationScale::host_to_summit(cspi),
    );
    let profile = CostProfile::from_snapshot(&snapshot);
    Calibration {
        snapshot,
        titan,
        summit,
        profile,
        cellsteps_per_invocation: cspi,
    }
}

impl Calibration {
    /// One-line summary for bench-bin headers.
    pub fn summary(&self) -> String {
        let k = self.snapshot.kernel_totals();
        format!(
            "calibrated from {} kernel invocations over {} steps: \
             host {:.2e} cellsteps/s -> titan GPU {:.2e}, PCIe {:.2} GB/s, \
             msg {:.2} us, patch-cost spread {:.2}x over {} patches",
            k.invocations,
            self.snapshot.steps,
            self.titan.gpu_cellsteps_per_s / 30.0,
            self.titan.gpu_cellsteps_per_s,
            self.titan.pcie_bw / 1e9,
            self.titan.msg_cpu_cost * 1e6,
            self.profile.spread(),
            self.profile.len(),
        )
    }
}

// ---------------------------------------------------------------------------
// Curves and efficiency tables
// ---------------------------------------------------------------------------

/// One patch-size curve of a strong-scaling sweep.
#[derive(Clone, Debug)]
pub struct Curve {
    pub patch: i32,
    pub points: Vec<ScalingPoint>,
}

impl Curve {
    pub fn point_at(&self, gpus: usize) -> Option<&ScalingPoint> {
        self.points.iter().find(|p| p.gpus == gpus)
    }

    /// Strong-scaling efficiency (Eq. 3) between two GPU counts on this
    /// curve: `E = (t_a·n_a)/(t_b·n_b)`.
    pub fn efficiency_between(&self, a: usize, b: usize) -> Option<f64> {
        let pa = self.point_at(a)?;
        let pb = self.point_at(b)?;
        Some(titan_sim::sim::efficiency(pa, pb))
    }

    /// Parallel efficiency of each successive doubling: `(gpus_after, E)`.
    pub(crate) fn per_doubling(&self) -> Vec<(usize, f64)> {
        self.points
            .windows(2)
            .filter(|w| w[1].gpus == 2 * w[0].gpus)
            .map(|w| (w[1].gpus, titan_sim::sim::efficiency(&w[0], &w[1])))
            .collect()
    }

    /// First GPU count whose doubling drops below `threshold` parallel
    /// efficiency — the scaling knee. `None` = scales across the sweep.
    pub(crate) fn knee(&self, threshold: f64) -> Option<usize> {
        self.per_doubling()
            .into_iter()
            .find(|&(_, e)| e < threshold)
            .map(|(g, _)| g)
    }

    /// Efficiency of every point relative to the first (Eq. 3 vs the
    /// smallest GPU count of the sweep).
    pub(crate) fn efficiency_vs_first(&self) -> Vec<f64> {
        match self.points.first() {
            None => Vec::new(),
            Some(first) => self
                .points
                .iter()
                .map(|p| titan_sim::sim::efficiency(first, p))
                .collect(),
        }
    }
}

/// A completed sweep on one machine model.
#[derive(Clone, Debug)]
pub struct Sweep {
    pub spec: SweepSpec,
    /// Which machine model produced it ("titan" / "summit").
    pub machine: String,
    pub curves: Vec<Curve>,
}

/// Run a strong-scaling sweep: one `scaling_curve_with` per patch size,
/// marching the measured cost profile.
pub fn strong_scaling(
    spec: &SweepSpec,
    params: &MachineParams,
    machine: &str,
    profile: &CostProfile,
) -> Sweep {
    let curves = spec
        .patch_sizes
        .iter()
        .map(|&patch| Curve {
            patch,
            points: scaling_curve_with(
                &spec.problem.grid(patch),
                &spec.gpu_counts,
                spec.problem.halo,
                params,
                StoreModel::WaitFreePool,
                profile,
            ),
        })
        .collect();
    Sweep {
        spec: spec.clone(),
        machine: machine.to_string(),
        curves,
    }
}

/// Print a sweep as the familiar per-patch-size table, with per-doubling
/// knees derived from real Eq.-3 efficiencies.
pub fn print_sweep(sweep: &Sweep, knee_threshold: f64) {
    print!("{:>7} |", "GPUs");
    for c in &sweep.curves {
        print!(" {:>10}", format!("{}³ (s)", c.patch));
    }
    println!();
    for (i, &n) in sweep.spec.gpu_counts.iter().enumerate() {
        print!("{n:>7} |");
        for c in &sweep.curves {
            print!(" {:>10.4}", c.points[i].time);
        }
        println!();
    }
    println!();
    for c in &sweep.curves {
        let knee = c.knee(knee_threshold);
        println!(
            "  {:>2}³ patches: scaling knee (first doubling below {:.0}% efficiency) {}",
            c.patch,
            knee_threshold * 100.0,
            knee.map(|k| format!("at {k} GPUs"))
                .unwrap_or_else(|| format!(
                    "beyond {}",
                    sweep.spec.gpu_counts.last().copied().unwrap_or(0)
                )),
        );
    }
}

// ---------------------------------------------------------------------------
// Communication-growth study (the weak-scaling bin)
// ---------------------------------------------------------------------------

/// Total all-to-all messages and bytes across all ranks, from the real
/// census (sampled over ranks; the distribution is balanced).
pub(crate) fn census_totals(fine: i32, patch: i32, nranks: usize, halo: i32) -> (usize, u64) {
    let grid = Grid::builder()
        .fine_cells(IntVector::splat(fine))
        .num_levels(2)
        .refinement_ratio(4)
        .fine_patch_size(IntVector::splat(patch))
        .build();
    let dist = PatchDistribution::new(&grid, nranks, DistributionPolicy::MortonSfc);
    let sample: Vec<usize> = (0..nranks).step_by((nranks / 8).max(1)).collect();
    let mut msgs = 0usize;
    let mut bytes = 0u64;
    for &r in &sample {
        let c = titan_sim::rank_census(&grid, &dist, r, halo);
        msgs += c.msgs_sent();
        bytes += c.bytes_sent();
    }
    let scale = nranks as f64 / sample.len() as f64;
    ((msgs as f64 * scale) as usize, (bytes as f64 * scale) as u64)
}

/// One row of the communication-growth study.
#[derive(Clone, Copy, Debug)]
pub struct CommGrowthRow {
    pub nranks: usize,
    pub fine: i32,
    pub msgs: usize,
    pub bytes: u64,
}

/// Weak scaling: constant 16 patches (64³ cells) per rank; `N = 4^k` keeps
/// the grid integral. Message totals grow ~N².
pub fn comm_growth_weak(levels: u32) -> Vec<CommGrowthRow> {
    (0..levels)
        .map(|k| {
            let nranks = 4usize.pow(k);
            let fine = 64 * 2i32.pow(k);
            let (msgs, bytes) = census_totals(fine, 16, nranks, 4);
            CommGrowthRow { nranks, fine, msgs, bytes }
        })
        .collect()
}

/// Strong scaling: fixed problem on growing rank counts. Message totals
/// grow ~N.
pub fn comm_growth_strong(fine: i32, rank_counts: &[usize]) -> Vec<CommGrowthRow> {
    rank_counts
        .iter()
        .map(|&nranks| {
            let (msgs, bytes) = census_totals(fine, 16, nranks, 4);
            CommGrowthRow { nranks, fine, msgs, bytes }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Campaign report: JSON emission + parsing + the regression gate
// ---------------------------------------------------------------------------

/// The gate's headline numbers, all on the LARGE 16³-patch curve (the one
/// the paper quotes Eq.-3 efficiencies on).
#[derive(Clone, Debug, PartialEq)]
pub struct GateNumbers {
    pub gpu_counts: Vec<usize>,
    /// Eq.-3 efficiency of each point vs the 16-GPU baseline.
    pub efficiency_vs_first: Vec<f64>,
    pub eff_16_to_2048: f64,
    pub eff_4096_to_8192: f64,
    pub eff_4096_to_16384: f64,
    /// First doubling below 90% efficiency; 0 = beyond the sweep.
    pub knee: usize,
}

impl GateNumbers {
    /// Extract the gate numbers from a completed gate sweep.
    pub fn from_sweep(sweep: &Sweep) -> GateNumbers {
        let c = &sweep.curves[0];
        GateNumbers {
            gpu_counts: sweep.spec.gpu_counts.clone(),
            efficiency_vs_first: c.efficiency_vs_first(),
            eff_16_to_2048: c.efficiency_between(16, 2048).unwrap_or(0.0),
            eff_4096_to_8192: c.efficiency_between(4096, 8192).unwrap_or(0.0),
            eff_4096_to_16384: c.efficiency_between(4096, 16384).unwrap_or(0.0),
            knee: c.knee(KNEE_THRESHOLD).unwrap_or(0),
        }
    }
}

/// Per-doubling efficiency below this marks the scaling knee.
pub const KNEE_THRESHOLD: f64 = 0.90;
/// Absolute tolerance on gate efficiencies between a fresh campaign and
/// the checked-in report (re-measured rates shift the comm/compute
/// balance slightly; the shape must not move more than this).
pub const GATE_TOLERANCE: f64 = 0.08;

/// Everything `BENCH_scaling.json` records.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    pub sweeps: Vec<Sweep>,
    pub gate: GateNumbers,
}

impl CampaignReport {
    /// Serialize to the checked-in JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"format\": \"rmcrt-scaling-campaign\",\n");
        s.push_str("  \"version\": 1,\n");
        s.push_str("  \"sweeps\": [\n");
        for (i, sw) in self.sweeps.iter().enumerate() {
            s.push_str("    {\n");
            s.push_str(&format!("      \"name\": \"{}\",\n", sw.spec.name));
            s.push_str(&format!("      \"machine\": \"{}\",\n", sw.machine));
            s.push_str(&format!("      \"problem\": \"{}\",\n", sw.spec.problem.name));
            s.push_str(&format!("      \"fine\": {},\n", sw.spec.problem.fine));
            s.push_str(&format!("      \"halo\": {},\n", sw.spec.problem.halo));
            s.push_str(&format!(
                "      \"gpu_counts\": {},\n",
                json::fmt_usize_array(&sw.spec.gpu_counts)
            ));
            s.push_str("      \"curves\": [\n");
            for (j, c) in sw.curves.iter().enumerate() {
                let times: Vec<f64> = c.points.iter().map(|p| p.time).collect();
                s.push_str("        {");
                s.push_str(&format!("\"patch\": {}, ", c.patch));
                s.push_str(&format!("\"knee\": {}, ", c.knee(KNEE_THRESHOLD).unwrap_or(0)));
                s.push_str(&format!("\"time_s\": {}", json::fmt_f64_array(&times)));
                s.push_str(if j + 1 < sw.curves.len() { "},\n" } else { "}\n" });
            }
            s.push_str("      ]\n");
            s.push_str(if i + 1 < self.sweeps.len() { "    },\n" } else { "    }\n" });
        }
        s.push_str("  ],\n");
        s.push_str("  \"gate\": {\n");
        s.push_str("    \"problem\": \"LARGE\",\n");
        s.push_str("    \"patch\": 16,\n");
        s.push_str(&format!(
            "    \"gpu_counts\": {},\n",
            json::fmt_usize_array(&self.gate.gpu_counts)
        ));
        s.push_str(&format!(
            "    \"efficiency_vs_first\": {},\n",
            json::fmt_f64_array(&self.gate.efficiency_vs_first)
        ));
        s.push_str(&format!("    \"eff_16_to_2048\": {},\n", json::fmt_f64(self.gate.eff_16_to_2048)));
        s.push_str(&format!("    \"eff_4096_to_8192\": {},\n", json::fmt_f64(self.gate.eff_4096_to_8192)));
        s.push_str(&format!(
            "    \"eff_4096_to_16384\": {},\n",
            json::fmt_f64(self.gate.eff_4096_to_16384)
        ));
        s.push_str(&format!("    \"knee\": {}\n", self.gate.knee));
        s.push_str("  }\n");
        s.push_str("}\n");
        s
    }
}

/// Parse the gate numbers back out of a `BENCH_scaling.json` document.
pub fn gate_from_json(text: &str) -> Result<GateNumbers, String> {
    let doc = json::parse(text)?;
    let root = doc.as_object().ok_or("root is not an object")?;
    let format = json::get_str(root, "format")?;
    if format != "rmcrt-scaling-campaign" {
        return Err(format!("unexpected format {format:?}"));
    }
    let gate = json::get(root, "gate")?.as_object().ok_or("gate is not an object")?;
    Ok(GateNumbers {
        gpu_counts: json::get_usize_array(gate, "gpu_counts")?,
        efficiency_vs_first: json::get_f64_array(gate, "efficiency_vs_first")?,
        eff_16_to_2048: json::get_f64(gate, "eff_16_to_2048")?,
        eff_4096_to_8192: json::get_f64(gate, "eff_4096_to_8192")?,
        eff_4096_to_16384: json::get_f64(gate, "eff_4096_to_16384")?,
        knee: json::get_f64(gate, "knee")? as usize,
    })
}

/// The paper-shape floors, independent of any checked-in file: efficiency
/// 16→2048 ≥ 0.90 and no scaling knee at or before 8192 GPUs. Returns the
/// list of violations (empty = pass).
pub fn floor_violations(g: &GateNumbers) -> Vec<String> {
    let mut v = Vec::new();
    if g.eff_16_to_2048 < 0.90 {
        v.push(format!(
            "LARGE 16³: efficiency 16→2048 GPUs is {:.3}, below the 0.90 floor",
            g.eff_16_to_2048
        ));
    }
    if g.knee != 0 && g.knee <= 8192 {
        v.push(format!(
            "LARGE 16³: scaling knee at {} GPUs (must stay beyond 8192)",
            g.knee
        ));
    }
    v
}

/// Compare a freshly computed gate against the checked-in one: the
/// [`floor_violations`] plus drift beyond [`GATE_TOLERANCE`]. Returns the
/// list of violations (empty = pass).
pub fn gate_violations(fresh: &GateNumbers, checked_in: &GateNumbers) -> Vec<String> {
    let mut v = floor_violations(fresh);
    // Regression vs the checked-in campaign, within tolerance.
    if fresh.gpu_counts != checked_in.gpu_counts {
        v.push("gate GPU-count axis changed; rerun with --update".into());
        return v;
    }
    for (pair, a, b) in [
        ("16→2048", fresh.eff_16_to_2048, checked_in.eff_16_to_2048),
        ("4096→8192", fresh.eff_4096_to_8192, checked_in.eff_4096_to_8192),
        ("4096→16384", fresh.eff_4096_to_16384, checked_in.eff_4096_to_16384),
    ] {
        if (a - b).abs() > GATE_TOLERANCE {
            v.push(format!(
                "efficiency {pair} moved: fresh {a:.3} vs checked-in {b:.3} (tolerance {GATE_TOLERANCE})"
            ));
        }
    }
    for (i, (a, b)) in fresh
        .efficiency_vs_first
        .iter()
        .zip(&checked_in.efficiency_vs_first)
        .enumerate()
    {
        if (a - b).abs() > GATE_TOLERANCE {
            v.push(format!(
                "efficiency vs 16 GPUs at {} GPUs moved: fresh {a:.3} vs checked-in {b:.3}",
                fresh.gpu_counts[i]
            ));
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_gate_sweep() -> Sweep {
        let spec = SweepSpec::gate_large();
        // Synthetic, perfectly scaling curve with a knee at 16384.
        let points: Vec<ScalingPoint> = spec
            .gpu_counts
            .iter()
            .map(|&g| {
                let perfect = 1024.0 / g as f64;
                let time = if g >= 16384 { perfect * 1.3 } else { perfect };
                synthetic_point(g, time)
            })
            .collect();
        Sweep {
            spec,
            machine: "titan".into(),
            curves: vec![Curve { patch: 16, points }],
        }
    }

    fn synthetic_point(gpus: usize, time: f64) -> ScalingPoint {
        let grid = BurnsChriston::small_grid(16, 8);
        let dist = PatchDistribution::new(&grid, 1, DistributionPolicy::MortonSfc);
        let census = titan_sim::rank_census(&grid, &dist, 0, 2);
        ScalingPoint {
            gpus,
            patch_size: 16,
            time,
            breakdown: Default::default(),
            census,
        }
    }

    #[test]
    fn per_doubling_and_knee() {
        let sweep = fake_gate_sweep();
        let c = &sweep.curves[0];
        let pd = c.per_doubling();
        assert_eq!(pd.len(), c.points.len() - 1);
        for &(g, e) in &pd {
            if g < 16384 {
                assert!((e - 1.0).abs() < 1e-12, "perfect doubling at {g}: {e}");
            }
        }
        assert_eq!(c.knee(0.90), Some(16384));
        assert_eq!(c.efficiency_between(16, 2048), Some(1.0));
    }

    #[test]
    fn report_json_round_trips_gate_numbers() {
        let sweep = fake_gate_sweep();
        let gate = GateNumbers::from_sweep(&sweep);
        let report = CampaignReport { sweeps: vec![sweep], gate: gate.clone() };
        let text = report.to_json();
        let parsed = gate_from_json(&text).expect("parse emitted json");
        assert_eq!(parsed.gpu_counts, gate.gpu_counts);
        assert_eq!(parsed.knee, gate.knee);
        assert!((parsed.eff_16_to_2048 - gate.eff_16_to_2048).abs() < 1e-12);
        for (a, b) in parsed.efficiency_vs_first.iter().zip(&gate.efficiency_vs_first) {
            assert!((a - b).abs() < 1e-12);
        }
        assert!(gate_violations(&gate, &parsed).is_empty());
    }

    #[test]
    fn gate_flags_regressions() {
        let sweep = fake_gate_sweep();
        let good = GateNumbers::from_sweep(&sweep);
        let mut bad = good.clone();
        bad.eff_16_to_2048 = 0.70; // below floor AND outside tolerance
        let v = gate_violations(&bad, &good);
        assert!(v.iter().any(|m| m.contains("0.90 floor")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("16→2048")), "{v:?}");
        let mut knee_bad = good.clone();
        knee_bad.knee = 4096;
        assert!(!gate_violations(&knee_bad, &good).is_empty());
    }

    #[test]
    fn problem_patch_counts() {
        assert_eq!(Problem::large().total_patches(16), 32768);
        assert_eq!(Problem::large().total_patches(64), 512);
        assert_eq!(Problem::medium().total_patches(16), 4096);
    }
}
