//! DESIGN.md §4 is the index of every measurement artefact, and this test
//! keeps it true: every bin has a row, every checked-in baseline is read by
//! exactly one gate, every gate bin is run by `verify.sh` and every gate
//! `verify.sh` runs exists, and no second benchmark harness grows back
//! beside `perf_report`.

use rmcrt_bench::gate::repo_root;
use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

fn file_names(dir: &Path) -> BTreeSet<String> {
    fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|entry| entry.expect("dir entry").file_name().to_string_lossy().into_owned())
        .collect()
}

#[test]
fn every_measurement_artefact_has_one_reader() {
    let root = repo_root();
    let bin_dir = root.join("crates/bench/src/bin");
    let mut problems = Vec::new();

    let design = fs::read_to_string(root.join("DESIGN.md")).expect("read DESIGN.md");
    let section4 = design.split("\n## ").find(|s| s.starts_with("4. ")).expect("DESIGN.md has a §4");
    let indexed: BTreeSet<&str> = section4
        .split("--bin ")
        .skip(1)
        .map(|rest| rest.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).next().unwrap_or(""))
        .collect();
    let bins = file_names(&bin_dir);
    for bin in bins.iter().filter_map(|f| f.strip_suffix(".rs")) {
        if !indexed.contains(bin) {
            problems.push(format!("src/bin/{bin}.rs has no `--bin {bin}` row in DESIGN.md §4"));
        }
    }

    let gates: Vec<(&String, String)> = bins
        .iter()
        .filter(|f| f.ends_with("_gate.rs"))
        .map(|f| (f, fs::read_to_string(bin_dir.join(f)).expect("read gate source")))
        .collect();
    for baseline in file_names(&root)
        .iter()
        .filter(|f| (f.starts_with("BENCH_") && f.ends_with(".json")) || *f == "CALIBRATION.snapshot")
    {
        let readers: Vec<&str> = gates
            .iter()
            .filter(|(_, src)| src.contains(baseline.as_str()))
            .map(|(f, _)| f.as_str())
            .collect();
        if readers.len() != 1 {
            problems.push(format!("{baseline} must be named in exactly one *_gate.rs, found {readers:?}"));
        }
    }

    let verify = fs::read_to_string(root.join("verify.sh")).expect("read verify.sh");
    let run: BTreeSet<&str> = verify
        .lines()
        .filter(|line| !line.trim_start().starts_with('#'))
        .flat_map(|line| line.split("--bin ").skip(1))
        .filter_map(|rest| rest.split_whitespace().next())
        .filter(|bin| bin.ends_with("_gate"))
        .collect();
    for (gate, _) in &gates {
        let bin = gate.trim_end_matches(".rs");
        if !run.contains(bin) {
            problems.push(format!("src/bin/{gate} is not run by a `--bin {bin}` line in verify.sh"));
        }
    }
    for bin in run {
        if !bins.contains(&format!("{bin}.rs")) {
            problems.push(format!("verify.sh runs `--bin {bin}`, which is not a src/bin/ gate"));
        }
    }

    if root.join("crates/bench/benches").exists() {
        problems.push("crates/bench/benches/ exists: perf_report is the one performance harness".into());
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}
