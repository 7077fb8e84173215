//! E12 — the scaling-campaign regression gate (run by verify.sh).
//!
//! Calibrates from a real executor run, sweeps the LARGE 16³-patch curve
//! (the curve the paper quotes its Eq.-3 headline efficiencies on) over
//! 16 → 16384 GPUs, and checks:
//!
//! * hard floors from the paper's shape: efficiency(16→2048) ≥ 0.90 and
//!   no scaling knee at or before 8192 GPUs;
//! * no drift beyond `GATE_TOLERANCE` against the checked-in
//!   `BENCH_scaling.json`;
//! * the checked-in `CALIBRATION.snapshot` still parses and re-serializes
//!   bit-identically.
//!
//! ```text
//! cargo run -p rmcrt-bench --release --bin scaling_gate            # check
//! cargo run -p rmcrt-bench --release --bin scaling_gate -- --update # regen
//! ```
//!
//! `--update` regenerates both files (full campaign: Fig. 2, Fig. 3,
//! Summit projection, gate curve) from a fresh calibration; commit the
//! result when the model or runtime intentionally changes.

use rmcrt_bench::gate;
use rmcrt_bench::campaign::{
    self, CampaignReport, GateNumbers, SweepSpec, GATE_TOLERANCE, KNEE_THRESHOLD,
};
use std::process::ExitCode;
use uintah_runtime::CalibrationSnapshot;

fn main() -> ExitCode {
    let report_path = gate::repo_root().join("BENCH_scaling.json");
    let snapshot_path = gate::repo_root().join("CALIBRATION.snapshot");

    let cal = campaign::calibrate_live();
    println!("{}", cal.summary());

    let gate_sweep = campaign::strong_scaling(
        &SweepSpec::gate_large(),
        &cal.titan,
        "titan",
        &cal.profile,
    );
    let fresh = GateNumbers::from_sweep(&gate_sweep);
    println!(
        "LARGE 16³: eff(16→2048) {:.3} | eff(4096→8192) {:.3} | eff(4096→16384) {:.3} | knee {}",
        fresh.eff_16_to_2048,
        fresh.eff_4096_to_8192,
        fresh.eff_4096_to_16384,
        if fresh.knee == 0 {
            "beyond 16384".to_string()
        } else {
            format!("{} GPUs", fresh.knee)
        }
    );

    if gate::update_requested() {
        let sweeps = vec![
            campaign::strong_scaling(&SweepSpec::fig2_medium(), &cal.titan, "titan", &cal.profile),
            campaign::strong_scaling(&SweepSpec::fig3_large(), &cal.titan, "titan", &cal.profile),
            campaign::strong_scaling(&SweepSpec::summit_large(), &cal.summit, "summit", &cal.profile),
            gate_sweep,
        ];
        let report = CampaignReport { sweeps, gate: fresh };
        gate::write_report(&snapshot_path, &cal.snapshot.to_text());
        return gate::write_report(&report_path, &report.to_json());
    }

    // Checked-in snapshot must still parse and round-trip bit-exactly.
    let mut violations = Vec::new();
    match std::fs::read_to_string(&snapshot_path) {
        Err(e) => violations.push(format!("cannot read {}: {e}", snapshot_path.display())),
        Ok(text) => match CalibrationSnapshot::from_text(&text) {
            Err(e) => violations.push(format!("CALIBRATION.snapshot no longer parses: {e}")),
            Ok(snap) => {
                if snap.to_text() != text {
                    violations.push("CALIBRATION.snapshot round trip is not bit-exact".into());
                }
            }
        },
    }
    match std::fs::read_to_string(&report_path) {
        Err(e) => violations.push(format!("cannot read {}: {e}", report_path.display())),
        Ok(text) => match campaign::gate_from_json(&text) {
            Err(e) => violations.push(format!("BENCH_scaling.json no longer parses: {e}")),
            Ok(checked_in) => violations.extend(campaign::gate_violations(&fresh, &checked_in)),
        },
    }

    let detail = format!("tolerance {GATE_TOLERANCE}, knee threshold {KNEE_THRESHOLD}");
    gate::finish(env!("CARGO_BIN_NAME"), &detail, &violations, Some(&report_path))
}
