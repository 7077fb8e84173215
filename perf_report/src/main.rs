//! `perf_report` — the repo's one layered benchmark (see `README.md` in this
//! directory and `BENCHMARK.json` at the repo root).
//!
//! With `--workload <name>` it runs that workload in this process and ends
//! its output with one JSON line (`correct`, `attempted`, `failed`,
//! `metrics`): the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Without `--workload` it runs every workload,
//! each run in a fresh child process, untraced then traced, and prints (and
//! with `--out` writes) the full report; `--repeat 2` runs two sets and
//! checks them against each other within every metric's bound.

mod hostspeed;
mod metrics;
mod probes;
mod problem;
mod report;
mod span;
mod stats;
mod workloads;

use metrics::{Metric, END_TO_END, PER_LAYER};
use report::{compare_sets, Host, Report, RunResult, WorkloadEntry};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Outcome, RunArgs, Workload};

/// Default `--seed`; the alternate seed claims are re-checked on is 7.
const DEFAULT_SEED: u64 = 20_160_523;
const DEFAULT_SECONDS: f64 = 20.0;

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: usize,
    out: Option<PathBuf>,
    out_trace: Option<PathBuf>,
    baseline: Option<PathBuf>,
    list_metrics: bool,
}

const USAGE: &str = "usage: perf_report [--workload <name>] [--seed <u64>] [--seconds <s>] [--trace <0|1>] \
[--smoke] [--repeat <n>] [--out <file>] [--baseline <file>] [--out-trace <file>] [--metrics]
  workloads: trace_thin_fixed trace_thick_adaptive step_cpu_smallpatch step_gpu_oversub serve_closed2";

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        repeat: 1,
        out: None,
        out_trace: None,
        baseline: None,
        list_metrics: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                cli.workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => cli.seed = value("a u64")?.parse().map_err(|_| "--seed needs a u64")?,
            "--seconds" => {
                cli.seconds = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds needs a number")?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                cli.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--smoke" => cli.smoke = true,
            "--repeat" => {
                cli.repeat = value("a count")?
                    .parse()
                    .map_err(|_| "--repeat needs a count")?;
                if !(1..=10).contains(&cli.repeat) {
                    return Err("--repeat must be 1..=10".into());
                }
            }
            "--out" => cli.out = Some(PathBuf::from(value("a file")?)),
            "--out-trace" => cli.out_trace = Some(PathBuf::from(value("a file")?)),
            "--baseline" => cli.baseline = Some(PathBuf::from(value("a file")?)),
            "--metrics" => cli.list_metrics = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(cli)
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn print_metrics<'a>(metrics: impl IntoIterator<Item = &'a Metric>) {
    for m in metrics {
        let def = metrics::find(&m.name).expect("reported metrics come from the catalogue");
        println!(
            "  {:<36} {:>16.4} {:<8} [{}, {} is better]",
            m.name,
            m.value,
            m.unit,
            def.limit.as_str(),
            def.better.as_str()
        );
    }
}

/// Run one workload here; returns whether the run was correct.
fn run_one(workload: Workload, cli: &Cli) -> bool {
    let args = RunArgs {
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        smoke: cli.smoke,
    };
    println!(
        "perf_report: workload={} seed={} seconds={} trace={} smoke={} nproc={}",
        workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        args.smoke,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let mut outcome: Outcome = workload.run(&args);

    let metrics =
        if cli.trace {
            let (metrics, unexercised, off_path) = outcome.layer.finish(PER_LAYER);
            print_metrics(
                metrics
                    .iter()
                    .filter(|m| !off_path.contains(&m.name.as_str())),
            );
            println!(
            "  unexercised (on this workload's path, read exactly 0; reported, never asserted): {}",
            if unexercised.is_empty() { "none".into() } else { unexercised.join(" ") }
        );
            println!(
                "  off-path ({} layer metrics this workload does not touch; they read 0)",
                off_path.len()
            );
            println!("  spans (count, total ms, self ms):");
            for (name, (count, total, own)) in span::totals_by_name(&outcome.spans) {
                println!(
                    "    {name:<34} {count:>6} {:>12.3} {:>12.3}",
                    total as f64 / 1e6,
                    own as f64 / 1e6
                );
            }
            metrics
        } else {
            outcome.e2e.set("peak_rss_mb", peak_rss_mib());
            let (metrics, zero, missing) = outcome.e2e.finish(END_TO_END);
            print_metrics(&metrics);
            for name in zero.iter().chain(&missing) {
                outcome
                    .problems
                    .push(format!("end-to-end metric {name} was not measured"));
            }
            metrics
        };
    for (name, s) in &outcome.summaries {
        println!("  samples: {name} = {}", s.describe());
    }
    println!(
        "  verification and references: {:.3} s (excluded from setup_s)",
        outcome.verify.as_secs_f64()
    );
    for f in &outcome.flags {
        println!("  FLAG: {f}");
    }
    for p in &outcome.problems {
        println!("  PROBLEM: {p}");
    }
    if let (true, Some(path)) = (cli.trace, &cli.out_trace) {
        let text = span::chrome_trace_json(&outcome.spans, &outcome.track_names);
        match std::fs::write(path, text) {
            Ok(()) => println!(
                "  wrote {} spans to {}",
                outcome.spans.len(),
                path.display()
            ),
            Err(e) => outcome
                .problems
                .push(format!("cannot write {}: {e}", path.display())),
        }
    }
    let result = RunResult {
        correct: outcome.failed == 0 && outcome.problems.is_empty(),
        attempted: outcome.attempted.max(1),
        failed: outcome.failed,
        metrics,
    };
    println!("{}", result.to_json_line());
    result.correct
}

/// `<stem>.<workload>.<ext>` so every traced child writes its own file.
fn per_workload_path(path: &Path, workload: &str) -> PathBuf {
    let ext = path
        .extension()
        .map_or("json".into(), |e| e.to_string_lossy().to_string());
    path.with_extension(format!("{workload}.{ext}"))
}

/// Run `workload` in a fresh child process, echoing what it prints.
fn run_child(workload: Workload, cli: &Cli, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if cli.smoke {
        cmd.arg("--smoke");
    }
    if let (true, Some(path)) = (trace, &cli.out_trace) {
        cmd.arg("--out-trace")
            .arg(per_workload_path(path, workload.name()));
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let (body, last) = text
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", text.trim_end()));
    println!("{body}");
    RunResult::from_json_line(last).map_err(|e| {
        format!(
            "{} (trace={}) printed no result: {e}",
            workload.name(),
            trace as u8
        )
    })
}

fn print_table(set: &[WorkloadEntry]) {
    print!("{:<22}", "end to end");
    for d in END_TO_END {
        print!(" {:>14}", d.name);
    }
    println!();
    for w in set {
        print!("{:<22}", w.name);
        for d in END_TO_END {
            print!(" {:>14.4}", w.end_to_end.value(d.name).unwrap_or(0.0));
        }
        println!(
            "   {}",
            if w.end_to_end.correct && w.per_layer.correct {
                "ok"
            } else {
                "INCORRECT"
            }
        );
    }
}

/// Print `second` against `first` per end-to-end metric and workload;
/// false when any difference exceeds its bound.
fn print_comparison(first: &[WorkloadEntry], second: &[WorkloadEntry]) -> bool {
    let mut within = true;
    for row in compare_sets(first, second) {
        let verdict = if row.exceeds() { "EXCEEDS" } else { "ok" };
        println!(
            "  {:<22} {:<14} {:>14.4} -> {:>14.4}  worse by {:>+7.2} %  bound {:>4.0} %  {verdict}",
            row.workload,
            row.metric,
            row.first,
            row.second,
            row.worse_by * 100.0,
            row.bound * 100.0
        );
        within &= !row.exceeds();
    }
    within
}

/// The metric catalogue as a markdown table (the README's glossary).
fn print_catalogue() {
    println!("| metric | unit | better | limited by | bound | definition / what it should move |");
    println!("|---|---|---|---|---|---|");
    for d in END_TO_END.iter().chain(PER_LAYER) {
        let bound = if d.bound > 0.0 {
            format!("{:.0} %", d.bound * 100.0)
        } else {
            "-".into()
        };
        println!(
            "| `{}` | {} | {} | {} | {bound} | {} |",
            d.name,
            d.unit,
            d.better.as_str(),
            d.limit.as_str(),
            d.note
        );
    }
}

fn run_all(cli: &Cli) -> bool {
    let host = Host::probe();
    println!(
        "perf_report: all workloads | nproc {} | {} | {} | commit {} | seed {} | {} s windows",
        host.nproc, host.cpu, host.rustc, host.commit, cli.seed, cli.seconds
    );
    println!("metric limits on this host:");
    for d in END_TO_END {
        println!(
            "  {:<14} {:<8} {} (bound {:.0} %)",
            d.name,
            d.unit,
            d.limit.as_str(),
            d.bound * 100.0
        );
    }
    let mut all_ok = true;
    let mut sets = Vec::new();
    for set_no in 0..cli.repeat {
        let mut set = Vec::new();
        for w in Workload::ALL {
            println!("--- set {} | {}", set_no + 1, w.name());
            let runs = run_child(w, cli, false).and_then(|e2e| Ok((e2e, run_child(w, cli, true)?)));
            match runs {
                Ok((end_to_end, per_layer)) => {
                    all_ok &= end_to_end.correct && per_layer.correct;
                    set.push(WorkloadEntry {
                        name: w.name().into(),
                        end_to_end,
                        per_layer,
                    });
                }
                Err(e) => {
                    println!("PROBLEM: {e}");
                    all_ok = false;
                }
            }
        }
        println!("=== set {}", set_no + 1);
        print_table(&set);
        sets.push(set);
    }
    for pair in sets.windows(2) {
        println!("=== repeatability: relative difference of the later set beside its bound");
        all_ok &= print_comparison(&pair[0], &pair[1]);
    }
    if let Some(path) = &cli.baseline {
        println!("=== against the last set of {}", path.display());
        let baseline = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| Report::from_json(&text));
        match (baseline, sets.first()) {
            (Ok(b), Some(ours)) if !b.sets.is_empty() => {
                all_ok &= print_comparison(&b.sets[b.sets.len() - 1], ours);
            }
            (Ok(_), _) => println!("  nothing to compare"),
            (Err(e), _) => {
                println!("PROBLEM: cannot read {}: {e}", path.display());
                all_ok = false;
            }
        }
    }
    let report = Report {
        host,
        seed: cli.seed,
        seconds: cli.seconds,
        sets,
    };
    if let Some(path) = &cli.out {
        match std::fs::write(path, report.to_json()) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                println!("PROBLEM: cannot write {}: {e}", path.display());
                all_ok = false;
            }
        }
    }
    all_ok
}

/// Cap glibc's malloc arenas at 4: one each for the harness thread and the
/// two rank threads, one shared by the copy-engine threads. The runtime
/// spawns short-lived rank and engine threads on every call; by default
/// each may get its own arena (up to 8 x cores) whose retained free lists
/// nearly double `VmHWM` on `step_gpu_oversub` (45 -> 66-91 MiB) and make it
/// vary +-15 % run to run, hiding the memory the program asked for. No
/// effect on the timings could be resolved (A/B within host noise).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn cap_malloc_arenas() {
    extern "C" {
        fn mallopt(param: std::ffi::c_int, value: std::ffi::c_int) -> std::ffi::c_int;
    }
    const M_ARENA_MAX: std::ffi::c_int = -8;
    // SAFETY: `mallopt` is glibc's documented tuning call; it takes two
    // plain ints, is called once before any other thread exists, and a
    // failure (return 0) only leaves the default in place.
    unsafe {
        mallopt(M_ARENA_MAX, 4);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn cap_malloc_arenas() {}

fn main() -> ExitCode {
    cap_malloc_arenas();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.list_metrics {
        print_catalogue();
        return ExitCode::SUCCESS;
    }
    let ok = match cli.workload {
        Some(w) => run_one(w, &cli),
        None => run_all(&cli),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let c = cli(&[
            "--workload",
            "serve_closed2",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(c.workload, Some(Workload::ServeClosed2));
        assert_eq!((c.seed, c.seconds, c.trace), (42, 10.0, true));
        assert!(cli(&["--workload", "nope"]).is_err());
        assert!(cli(&["--trace", "yes"]).is_err());
        assert!(cli(&["--seconds", "0"]).is_err());
        assert!(cli(&["--bogus"]).is_err());
    }

    #[test]
    fn per_workload_trace_paths() {
        assert_eq!(
            per_workload_path(Path::new("out/t.json"), "serve_closed2"),
            PathBuf::from("out/t.serve_closed2.json")
        );
    }

    /// All five workloads end to end at the smoke sizes, verification on,
    /// untraced and traced: every catalogue name is reported and nothing
    /// is incorrect.
    #[test]
    fn smoke_runs_every_workload_end_to_end() {
        for w in Workload::ALL {
            for trace in [false, true] {
                let mut outcome = w.run(&RunArgs {
                    seed: 5,
                    seconds: 0.05,
                    trace,
                    smoke: true,
                });
                assert!(
                    outcome.problems.is_empty(),
                    "{} trace={trace}: {:?}",
                    w.name(),
                    outcome.problems
                );
                assert_eq!(outcome.failed, 0, "{} trace={trace}", w.name());
                assert!(outcome.attempted >= 3);
                if trace {
                    let (metrics, _, _) = outcome.layer.finish(PER_LAYER);
                    assert_eq!(metrics.len(), PER_LAYER.len());
                    assert!(!outcome.spans.is_empty());
                    assert!(outcome.layer.get("harness.trace_overhead_pct").is_some());
                } else {
                    outcome.e2e.set("peak_rss_mb", peak_rss_mib());
                    let (metrics, zero, missing) = outcome.e2e.finish(END_TO_END);
                    assert!(
                        zero.is_empty() && missing.is_empty(),
                        "{}: {zero:?} {missing:?}",
                        w.name()
                    );
                    assert!(metrics.iter().all(|m| m.value > 0.0));
                }
            }
        }
    }
}
