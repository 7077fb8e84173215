//! What the regression-gate bins (`src/bin/*_gate.rs`) do the same way:
//! print the PASS/FAIL footer, fingerprint divQ and audit the device meters
//! of a finished [`WorldResult`]; and, for the two gates that compare
//! against a checked-in baseline, locate it and honour `--update`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use uintah::prelude::*;
use uintah::runtime::WorldResult;

/// The repository root (where the checked-in baselines live).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Whether the gate was invoked with `--update` (regenerate the checked-in
/// baseline instead of checking against it).
pub fn update_requested() -> bool {
    std::env::args().any(|a| a == "--update")
}

/// `--update` path: write the regenerated report and succeed.
pub fn write_report(path: &Path, contents: &str) -> ExitCode {
    std::fs::write(path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
    ExitCode::SUCCESS
}

/// The common footer: PASS with `detail`, or FAIL listing every violation
/// and, for a gate that compares against a checked-in `baseline`, how to
/// regenerate it. `bin` is the gate's `env!("CARGO_BIN_NAME")`.
pub fn finish(bin: &str, detail: &str, violations: &[String], baseline: Option<&Path>) -> ExitCode {
    if violations.is_empty() {
        println!("{bin} PASS ({detail})");
        return ExitCode::SUCCESS;
    }
    println!("{bin} FAIL:");
    for v in violations {
        println!("  - {v}");
    }
    if let Some(path) = baseline {
        println!(
            "(if the change is intentional, regenerate {} with: \
             cargo run -p rmcrt-bench --release --bin {bin} -- --update)",
            path.file_name().unwrap_or_default().to_string_lossy()
        );
    }
    ExitCode::FAILURE
}

/// Order-independent bit-exact fingerprint of the fine-level divQ field
/// across all ranks.
pub fn divq_checksum(grid: &Grid, result: &WorldResult) -> u64 {
    result
        .fine_field(grid, DIVQ)
        .as_slice()
        .iter()
        .fold(0u64, |acc, x| acc.wrapping_add(x.to_bits()))
}

/// The zero-drift contract at exit of a GPU run: every device's meter
/// agrees with the warehouse databases, the allocator free list is
/// coherent, nothing is stranded in the spill maps, and clearing the DBs
/// drains every byte.
pub fn check_meter_drift(result: &WorldResult, label: &str, violations: &mut Vec<String>) {
    for rr in &result.ranks {
        let g = rr.gpu.as_ref().expect("gpu attached");
        for d in 0..g.num_devices() {
            let dev = g.device_at(d);
            if let Err(e) = dev.validate_allocator() {
                violations.push(format!("{label}: rank {} device {d}: {e}", rr.rank));
            }
            let used = dev.counters().used;
            let resident = g.resident_bytes_on(d) as u64;
            if used != resident {
                violations.push(format!(
                    "{label}: rank {} device {d}: meter used {used} B != DB-resident {resident} B",
                    rr.rank
                ));
            }
        }
        if g.spill_entries() != 0 {
            violations.push(format!(
                "{label}: rank {}: {} variables stranded in host spill at exit",
                rr.rank,
                g.spill_entries()
            ));
        }
        g.clear_patch_db();
        g.clear_level_db();
        for d in 0..g.num_devices() {
            let left = g.device_at(d).used();
            if left != 0 {
                violations.push(format!(
                    "{label}: rank {} device {d}: {left} B leaked after clearing the DBs",
                    rr.rank
                ));
            }
        }
    }
}
