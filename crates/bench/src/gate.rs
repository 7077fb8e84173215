//! What the regression-gate bins (`src/bin/*_gate.rs`) do the same way:
//! print the PASS/FAIL footer, locate the checked-in baseline each compares
//! against, and honour `--update`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

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
/// and how to regenerate the checked-in `baseline`. `bin` is the gate's
/// `env!("CARGO_BIN_NAME")`.
pub fn finish(bin: &str, detail: &str, violations: &[String], baseline: &Path) -> ExitCode {
    if violations.is_empty() {
        println!("{bin} PASS ({detail})");
        return ExitCode::SUCCESS;
    }
    println!("{bin} FAIL:");
    for v in violations {
        println!("  - {v}");
    }
    println!(
        "(if the change is intentional, regenerate {} with: \
         cargo run -p rmcrt-bench --release --bin {bin} -- --update)",
        baseline.file_name().unwrap_or_default().to_string_lossy()
    );
    ExitCode::FAILURE
}
