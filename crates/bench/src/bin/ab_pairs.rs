//! Paired A/B of two `perf_report` builds (or one build under two
//! environments) on one workload — the one way a change is compared with
//! its parent (ROADMAP 3(a)).
//!
//! Each pair runs the parent side and the change side once, in child
//! processes, one after the other; which side goes first alternates from
//! pair to pair, so a host that drifts during the session loads both sides
//! alike. Every child is `perf_report --workload <w> --trace 0`, and its
//! last JSON line (`correct`, `attempted`, `failed`, `metrics`) is the
//! run's result. The end-to-end metrics, their better direction and their
//! bounds come from `BENCHMARK.json`.
//!
//! Per metric the tool prints the pairs the change won, both medians, the
//! parent's interquartile range and a verdict under the rule the
//! EXPERIMENTS entries use: a side is better only if it wins at least 9 in
//! 10 pairs *and* its median is better by more than the parent's IQR
//! (with fewer than 10 pairs the verdict is "too few pairs"). Beside it
//! stands whether the change's median is worse than the metric's bound.
//! `perf_report`'s JSON line carries no host-speed calibration, so there is
//! no host-speed column.
//!
//! ```text
//! cargo run --release -p rmcrt-bench --bin ab_pairs -- \
//!     --parent ../parent/perf_report/target/release/perf_report \
//!     --change perf_report/target/release/perf_report \
//!     --workload step_gpu_oversub --pairs 10 --seconds 20
//! # one binary, an environment switch per side:
//! cargo run --release -p rmcrt-bench --bin ab_pairs -- --parent <bin> \
//!     --parent-env MODE=a --change-env MODE=b --workload serve_closed2
//! ```
//!
//! Exits 1 when a child cannot be run or parsed, or reads `correct: false`.

use rmcrt_bench::campaign::json::{self, Json};
use rmcrt_bench::gate::repo_root;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: ab_pairs --workload <name> --parent <perf_report> [--change <perf_report>] \
[--parent-env KEY=VAL]... [--change-env KEY=VAL]... [--pairs <n>] [--seconds <s>] [--seed <u64>] [--smoke]";

/// One side of the comparison: a binary and the environment it runs in.
struct Side {
    bin: String,
    env: Vec<(String, String)>,
}

struct Cli {
    workload: String,
    parent: Side,
    change: Side,
    pairs: usize,
    seconds: String,
    seed: Option<String>,
    smoke: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let (mut parent_bin, mut change_bin) = (None, None);
    let (mut parent_env, mut change_env) = (Vec::new(), Vec::new());
    let mut cli_pairs = 10;
    let mut seconds = "20".to_string();
    let mut seed = None;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        let env_pair = |kv: String| {
            kv.split_once('=')
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .ok_or(format!("{flag} needs KEY=VAL, got '{kv}'"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--parent" => parent_bin = Some(value()?),
            "--change" => change_bin = Some(value()?),
            "--parent-env" => parent_env.push(env_pair(value()?)?),
            "--change-env" => change_env.push(env_pair(value()?)?),
            "--pairs" => {
                cli_pairs = value()?.parse().map_err(|_| "--pairs needs a count")?;
                if cli_pairs == 0 {
                    return Err("--pairs must be at least 1".into());
                }
            }
            "--seconds" => seconds = value()?,
            "--seed" => seed = Some(value()?),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let parent_bin = parent_bin.ok_or("--parent is required")?;
    Ok(Cli {
        workload: workload.ok_or("--workload is required")?,
        change: Side {
            bin: change_bin.unwrap_or_else(|| parent_bin.clone()),
            env: change_env,
        },
        parent: Side {
            bin: parent_bin,
            env: parent_env,
        },
        pairs: cli_pairs,
        seconds,
        seed,
        smoke,
    })
}

/// An end-to-end metric of `BENCHMARK.json`.
struct MetricDef {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn end_to_end_metrics() -> Result<Vec<MetricDef>, String> {
    let path = repo_root().join("BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = json::parse(&text)?;
    let root = doc.as_object().ok_or("BENCHMARK.json is not an object")?;
    json::get(root, "end_to_end")?
        .as_array()
        .ok_or("end_to_end is not an array")?
        .iter()
        .map(|m| {
            let m = m
                .as_object()
                .ok_or("an end_to_end entry is not an object")?;
            Ok(MetricDef {
                name: json::get_str(m, "name")?,
                lower_is_better: json::get_str(m, "better")? == "lower",
                bound: json::get_f64(m, "bound")?,
            })
        })
        .collect()
}

/// One child's result line.
struct Run {
    correct: bool,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn run_side(side: &Side, cli: &Cli) -> Result<Run, String> {
    let mut cmd = Command::new(&side.bin);
    cmd.args([
        "--workload",
        &cli.workload,
        "--seconds",
        &cli.seconds,
        "--trace",
        "0",
    ]);
    if let Some(seed) = &cli.seed {
        cmd.args(["--seed", seed]);
    }
    if cli.smoke {
        cmd.arg("--smoke");
    }
    cmd.envs(side.env.iter().map(|(k, v)| (k, v)));
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("run {}: {e}", side.bin))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| l.trim_start().starts_with('{'))
        .ok_or_else(|| format!("{} printed no JSON line (exit {})", side.bin, out.status))?;
    let doc = json::parse(line)?;
    let obj = doc.as_object().ok_or("result line is not an object")?;
    let correct = matches!(json::get(obj, "correct")?, Json::Bool(true));
    let failed = json::get_f64(obj, "failed")? as u64;
    let metrics = json::get(obj, "metrics")?
        .as_object()
        .ok_or("metrics is not an object")?
        .iter()
        .filter_map(|(name, m)| {
            let value = m
                .as_object()
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)?;
            Some((name.clone(), value))
        })
        .collect();
    Ok(Run {
        correct,
        failed,
        metrics,
    })
}

/// Linear-interpolated quantile of an unsorted sample.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let at = q * (s.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (at - lo as f64)
}

/// Which side the 9-in-10 + IQR rule calls better, if either. Fewer than
/// 10 pairs cannot meet the rule.
fn verdict(
    won_by_change: usize,
    won_by_parent: usize,
    pairs: usize,
    shift: f64,
    iqr: f64,
) -> &'static str {
    let needed = (pairs * 9).div_ceil(10);
    if pairs < 10 {
        "too few pairs"
    } else if won_by_change >= needed && shift > iqr {
        "change better"
    } else if won_by_parent >= needed && -shift > iqr {
        "change worse"
    } else {
        "no difference shown"
    }
}

fn describe(side: &Side) -> String {
    let env: Vec<String> = side.env.iter().map(|(k, v)| format!("{k}={v}")).collect();
    if env.is_empty() {
        side.bin.clone()
    } else {
        format!("{} [{}]", side.bin, env.join(" "))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("ab_pairs: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match compare(&cli) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ab_pairs: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run the pairs and print them, the per-metric table and the verdict
/// line; returns whether every run read `correct: true`.
fn compare(cli: &Cli) -> Result<bool, String> {
    let defs = end_to_end_metrics()?;
    println!(
        "ab_pairs: workload={} pairs={} seconds={}{} parent={} change={}",
        cli.workload,
        cli.pairs,
        cli.seconds,
        if cli.smoke { " smoke" } else { "" },
        describe(&cli.parent),
        describe(&cli.change)
    );

    let mut runs: Vec<(Run, Run)> = Vec::with_capacity(cli.pairs);
    for pair in 1..=cli.pairs {
        let parent_first = pair % 2 == 1;
        let run = |side| run_side(side, cli).map_err(|e| format!("pair {pair}: {e}"));
        let (parent, change) = if parent_first {
            let parent = run(&cli.parent)?;
            (parent, run(&cli.change)?)
        } else {
            let change = run(&cli.change)?;
            (run(&cli.parent)?, change)
        };
        let values: Vec<String> = defs
            .iter()
            .filter_map(|d| {
                let (p, c) = (parent.metrics.get(&d.name)?, change.metrics.get(&d.name)?);
                Some(format!("{} {p:.4}/{c:.4}", d.name))
            })
            .collect();
        println!(
            "pair {pair:>2} ({} first) parent/change: {} | parent correct={} failed={} | change correct={} failed={}",
            if parent_first { "parent" } else { "change" },
            values.join("  "),
            parent.correct,
            parent.failed,
            change.correct,
            change.failed
        );
        runs.push((parent, change));
    }

    println!();
    println!("| metric | better | change won | parent median | change median | shift % | parent IQR | bound % | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|");
    let (mut better, mut worse, mut over_bound) = (Vec::new(), Vec::new(), Vec::new());
    for d in &defs {
        let pairs: Vec<(f64, f64)> = runs
            .iter()
            .filter_map(|(p, c)| Some((*p.metrics.get(&d.name)?, *c.metrics.get(&d.name)?)))
            .collect();
        if pairs.is_empty() {
            continue;
        }
        // Signed so that a positive gain is an improvement of the change.
        let gain = |parent: f64, change: f64| {
            if d.lower_is_better {
                parent - change
            } else {
                change - parent
            }
        };
        let won_by_change = pairs.iter().filter(|&&(p, c)| gain(p, c) > 0.0).count();
        let won_by_parent = pairs.iter().filter(|&&(p, c)| gain(p, c) < 0.0).count();
        let parent: Vec<f64> = pairs.iter().map(|&(p, _)| p).collect();
        let change: Vec<f64> = pairs.iter().map(|&(_, c)| c).collect();
        let (pm, cm) = (quantile(&parent, 0.5), quantile(&change, 0.5));
        let iqr = quantile(&parent, 0.75) - quantile(&parent, 0.25);
        let shift = gain(pm, cm);
        let shift_pct = if pm != 0.0 {
            100.0 * (cm - pm) / pm
        } else {
            0.0
        };
        let v = verdict(won_by_change, won_by_parent, pairs.len(), shift, iqr);
        match v {
            "change better" => better.push(d.name.as_str()),
            "change worse" => worse.push(d.name.as_str()),
            _ => {}
        }
        if pm != 0.0 && -shift / pm.abs() > d.bound {
            over_bound.push(d.name.as_str());
        }
        println!(
            "| {} | {} | {won_by_change} of {} | {pm:.4} | {cm:.4} | {shift_pct:+.1} | {iqr:.4} | {:.0} | {v} |",
            d.name,
            if d.lower_is_better { "lower" } else { "higher" },
            pairs.len(),
            100.0 * d.bound
        );
    }
    let failed = |pick: fn(&(Run, Run)) -> u64| runs.iter().map(pick).sum::<u64>();
    let list = |v: &[&str]| {
        if v.is_empty() {
            "none".to_string()
        } else {
            v.join(" ")
        }
    };
    let all_correct = runs.iter().all(|(p, c)| p.correct && c.correct);
    println!();
    println!(
        "ab_pairs verdict: {} over {} pairs: change better on {}; change worse on {}; median worse than its bound on {}; failed operations parent {} change {}; all runs correct: {all_correct}",
        cli.workload,
        runs.len(),
        list(&better),
        list(&worse),
        list(&over_bound),
        failed(|(p, _)| p.failed),
        failed(|(_, c)| c.failed),
    );
    Ok(all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&xs, 0.5), 3.0);
        assert_eq!(quantile(&xs, 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[7.0], 0.75), 7.0);
    }

    #[test]
    fn verdict_needs_nine_in_ten_and_a_shift_past_the_iqr() {
        assert_eq!(verdict(9, 1, 10, 2.0, 1.0), "change better");
        assert_eq!(verdict(8, 2, 10, 2.0, 1.0), "no difference shown");
        assert_eq!(verdict(10, 0, 10, 0.5, 1.0), "no difference shown");
        assert_eq!(verdict(0, 10, 10, -2.0, 1.0), "change worse");
        assert_eq!(verdict(18, 2, 20, 2.0, 1.0), "change better");
        assert_eq!(verdict(3, 0, 3, 1.0, 0.5), "too few pairs");
    }
}
