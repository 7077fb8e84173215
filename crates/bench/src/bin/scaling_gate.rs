//! E12 — the scaling-campaign regression gate (run by verify.sh).
//!
//! Sweeps the LARGE 16³-patch curve (the curve the paper quotes its Eq.-3
//! headline efficiencies on) over 16 → 16384 GPUs twice and checks:
//!
//! * **model-limited** — calibrated from the checked-in
//!   `CALIBRATION.snapshot` (which must still parse and re-serialize
//!   bit-identically): no drift beyond `GATE_TOLERANCE` against the
//!   checked-in `BENCH_scaling.json`, plus the paper-shape floors. This
//!   half is deterministic: it fails only when `titan-sim` / `campaign`
//!   code changes.
//! * **host-limited** — calibrated from a real executor run on this host:
//!   the paper-shape floors only (efficiency(16→2048) ≥ 0.90, no scaling
//!   knee at or before 8192 GPUs). A busy host moves the measured message
//!   cost severalfold, so its efficiencies are printed, not compared.
//!
//! **Measured false-failure rate** (EXPERIMENTS E25): 0 of 50 runs on
//! untouched code on a 2-vCPU host. The model-limited line was identical
//! in all 50. The closest host-limited margin was +0.014 (the per-doubling
//! efficiency ending at 8192 GPUs against the 0.90 knee threshold).
//! Doubling `msg_ns_min` in a copy of the snapshot passes; quadrupling it
//! fails on drift.
//!
//! ```text
//! cargo run -p rmcrt-bench --release --bin scaling_gate            # check
//! cargo run -p rmcrt-bench --release --bin scaling_gate -- --update # regen
//! ```
//!
//! `--update` regenerates both files (full campaign: Fig. 2, Fig. 3,
//! Summit projection, gate curve) from a fresh live calibration; commit
//! the result when the model or runtime intentionally changes.

use rmcrt_bench::gate;
use rmcrt_bench::campaign::{
    self, Calibration, CampaignReport, GateNumbers, Sweep, SweepSpec, GATE_TOLERANCE,
    KNEE_THRESHOLD,
};
use std::path::Path;
use std::process::ExitCode;
use uintah_runtime::CalibrationSnapshot;

/// Sweep the gate curve under `cal` and print its headline numbers.
fn gate_curve(label: &str, cal: &Calibration) -> (Sweep, GateNumbers) {
    let sweep = campaign::strong_scaling(&SweepSpec::gate_large(), &cal.titan, "titan", &cal.profile);
    let g = GateNumbers::from_sweep(&sweep);
    println!(
        "LARGE 16³ [{label}]: eff(16→2048) {:.3} | eff(4096→8192) {:.3} | eff(4096→16384) {:.3} | knee {}",
        g.eff_16_to_2048,
        g.eff_4096_to_8192,
        g.eff_4096_to_16384,
        if g.knee == 0 {
            "beyond 16384".to_string()
        } else {
            format!("{} GPUs", g.knee)
        }
    );
    (sweep, g)
}

/// Model-limited half: the checked-in snapshot must still parse and
/// round-trip bit-exactly, and the curve it calibrates must match the
/// checked-in report. `Err` is a file that could not be read or parsed.
fn model_violations(
    snapshot_path: &Path,
    report_path: &Path,
    violations: &mut Vec<String>,
) -> Result<(), String> {
    let text = std::fs::read_to_string(snapshot_path)
        .map_err(|e| format!("cannot read {}: {e}", snapshot_path.display()))?;
    let snap = CalibrationSnapshot::from_text(&text)
        .map_err(|e| format!("CALIBRATION.snapshot no longer parses: {e}"))?;
    if snap.to_text() != text {
        violations.push("CALIBRATION.snapshot round trip is not bit-exact".into());
    }
    let report = std::fs::read_to_string(report_path)
        .map_err(|e| format!("cannot read {}: {e}", report_path.display()))?;
    let checked_in = campaign::gate_from_json(&report)
        .map_err(|e| format!("BENCH_scaling.json no longer parses: {e}"))?;
    let (_, model) = gate_curve("model-limited", &campaign::from_snapshot(snap));
    violations.extend(campaign::gate_violations(&model, &checked_in));
    Ok(())
}

fn main() -> ExitCode {
    let report_path = gate::repo_root().join("BENCH_scaling.json");
    let snapshot_path = gate::repo_root().join("CALIBRATION.snapshot");

    let cal = campaign::calibrate_live();
    println!("{}", cal.summary());
    let (gate_sweep, live) = gate_curve("host-limited", &cal);

    if gate::update_requested() {
        let sweeps = vec![
            campaign::strong_scaling(&SweepSpec::fig2_medium(), &cal.titan, "titan", &cal.profile),
            campaign::strong_scaling(&SweepSpec::fig3_large(), &cal.titan, "titan", &cal.profile),
            campaign::strong_scaling(&SweepSpec::summit_large(), &cal.summit, "summit", &cal.profile),
            gate_sweep,
        ];
        let report = CampaignReport { sweeps, gate: live };
        gate::write_report(&snapshot_path, &cal.snapshot.to_text());
        return gate::write_report(&report_path, &report.to_json());
    }

    // Host-limited half: the live calibration answers to the floors only.
    let mut violations: Vec<String> = campaign::floor_violations(&live)
        .into_iter()
        .map(|v| format!("live calibration (host-limited): {v}"))
        .collect();

    if let Err(e) = model_violations(&snapshot_path, &report_path, &mut violations) {
        violations.push(e);
    }

    let detail = format!("tolerance {GATE_TOLERANCE}, knee threshold {KNEE_THRESHOLD}");
    gate::finish(env!("CARGO_BIN_NAME"), &detail, &violations, &report_path)
}
