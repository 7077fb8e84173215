//! What a run prints and what the all-workloads report records: the
//! contract's one-line JSON result, the full report (header + one entry per
//! workload and set) with a writer and a reader, and the repeatability
//! comparison of two sets against each metric's bound.

use crate::metrics::{self, Better, Metric, END_TO_END};
use rmcrt_bench::campaign::json::{self, Json};
use std::collections::BTreeMap;

/// The result of one `--workload` run, as its last stdout line carries it.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Shortest decimal that round-trips: every digit as measured, never an
/// exponent, and never a non-finite token JSON cannot carry.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn parse_metrics(v: &Json) -> Result<Vec<Metric>, String> {
    let obj = v.as_object().ok_or("metrics is not an object")?;
    // The reader hands back a sorted map; restore catalogue order so a
    // round trip is the identity.
    let mut out: Vec<Metric> = Vec::with_capacity(obj.len());
    for (name, entry) in obj {
        let e = entry.as_object().ok_or("metric is not an object")?;
        out.push(Metric {
            name: name.clone(),
            value: json::get_f64(e, "value")?,
            unit: json::get_str(e, "unit")?,
        });
    }
    let rank = |name: &str| {
        metrics::END_TO_END
            .iter()
            .chain(metrics::PER_LAYER)
            .position(|d| d.name == name)
            .unwrap_or(usize::MAX)
    };
    out.sort_by_key(|m| rank(&m.name));
    Ok(out)
}

fn get_bool(obj: &BTreeMap<String, Json>, key: &str) -> Result<bool, String> {
    match json::get(obj, key)? {
        Json::Bool(b) => Ok(*b),
        _ => Err(format!("{key} is not a bool")),
    }
}

impl RunResult {
    /// Exactly the keys `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(&self.metrics)
        )
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let obj = v.as_object().ok_or("result is not an object")?;
        Ok(Self {
            correct: get_bool(obj, "correct")?,
            attempted: json::get_f64(obj, "attempted")? as u64,
            failed: json::get_f64(obj, "failed")? as u64,
            metrics: parse_metrics(json::get(obj, "metrics")?)?,
        })
    }

    pub fn from_json_line(line: &str) -> Result<Self, String> {
        Self::from_json(&json::parse(line)?)
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Where the numbers were taken.
#[derive(Clone, Debug, PartialEq)]
pub struct Host {
    pub nproc: usize,
    pub cpu: String,
    pub rustc: String,
    pub commit: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

impl Host {
    pub fn probe() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|s| s.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            // Quotes would need escaping the reader does not do.
            cpu: cpu.replace('"', "'"),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            commit: command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// One workload's two runs: tracing off (end to end) and on (per layer).
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadEntry {
    pub name: String,
    pub end_to_end: RunResult,
    pub per_layer: RunResult,
}

/// The all-workloads report: `sets` has one element per `--repeat`.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    pub host: Host,
    pub seed: u64,
    pub seconds: f64,
    pub sets: Vec<Vec<WorkloadEntry>>,
}

impl Report {
    pub fn to_json(&self) -> String {
        let sets: Vec<String> = self
            .sets
            .iter()
            .map(|set| {
                let entries: Vec<String> = set
                    .iter()
                    .map(|w| {
                        format!(
                            "    {{\"name\": \"{}\",\n     \"end_to_end\": {},\n     \"per_layer\": {}}}",
                            w.name,
                            w.end_to_end.to_json_line(),
                            w.per_layer.to_json_line()
                        )
                    })
                    .collect();
                format!("  [\n{}\n  ]", entries.join(",\n"))
            })
            .collect();
        format!(
            "{{\"schema\": \"perf_report/1\",\n \"host\": {{\"nproc\": {}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\"}},\n \"seed\": {}, \"seconds\": {},\n \"sets\": [\n{}\n ]}}\n",
            self.host.nproc,
            self.host.cpu,
            self.host.rustc,
            self.host.commit,
            self.seed,
            num(self.seconds),
            sets.join(",\n")
        )
    }

    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = json::parse(text)?;
        let obj = doc.as_object().ok_or("report is not an object")?;
        if json::get_str(obj, "schema")? != "perf_report/1" {
            return Err("unknown report schema".into());
        }
        let host = json::get(obj, "host")?
            .as_object()
            .ok_or("host is not an object")?;
        let mut sets = Vec::new();
        for set in json::get(obj, "sets")?
            .as_array()
            .ok_or("sets is not an array")?
        {
            let mut entries = Vec::new();
            for w in set.as_array().ok_or("set is not an array")? {
                let w = w.as_object().ok_or("workload entry is not an object")?;
                entries.push(WorkloadEntry {
                    name: json::get_str(w, "name")?,
                    end_to_end: RunResult::from_json(json::get(w, "end_to_end")?)?,
                    per_layer: RunResult::from_json(json::get(w, "per_layer")?)?,
                });
            }
            sets.push(entries);
        }
        Ok(Self {
            host: Host {
                nproc: json::get_f64(host, "nproc")? as usize,
                cpu: json::get_str(host, "cpu")?,
                rustc: json::get_str(host, "rustc")?,
                commit: json::get_str(host, "commit")?,
            },
            // Seeds are u64; the reader's numbers are f64, exact to 2^53.
            seed: json::get_f64(obj, "seed")? as u64,
            seconds: json::get_f64(obj, "seconds")?,
            sets,
        })
    }
}

/// One row of the repeatability table.
#[derive(Clone, Debug, PartialEq)]
pub struct RepeatRow {
    pub workload: String,
    pub metric: &'static str,
    pub first: f64,
    pub second: f64,
    /// How much worse the second set is than the first, as a share of the
    /// first (negative = better).
    pub worse_by: f64,
    pub bound: f64,
}

impl RepeatRow {
    pub fn exceeds(&self) -> bool {
        self.worse_by > self.bound
    }
}

/// Compare two sets of the same code: per end-to-end metric and workload,
/// the relative difference beside its bound.
pub fn compare_sets(first: &[WorkloadEntry], second: &[WorkloadEntry]) -> Vec<RepeatRow> {
    let mut rows = Vec::new();
    for (a, b) in first.iter().zip(second) {
        for def in END_TO_END {
            let (Some(x), Some(y)) = (a.end_to_end.value(def.name), b.end_to_end.value(def.name))
            else {
                continue;
            };
            let worse_by = match def.better {
                Better::Lower => (y - x) / x,
                Better::Higher => (x - y) / x,
            };
            rows.push(RepeatRow {
                workload: a.name.clone(),
                metric: def.name,
                first: x,
                second: y,
                worse_by,
                bound: def.bound,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Measured, PER_LAYER};

    fn sample_result(scale: f64) -> (RunResult, RunResult) {
        let mut e2e = Measured::default();
        for (i, d) in END_TO_END.iter().enumerate() {
            e2e.set(d.name, scale * (1.0 + i as f64) / 3.0);
        }
        let mut layer = Measured::default();
        layer.set("core.mrays_per_s", 2.8517 * scale);
        layer.set("gpu.h2d_wait_ms_per_step", 0.0);
        let a = RunResult {
            correct: true,
            attempted: 17,
            failed: 0,
            metrics: e2e.finish(END_TO_END).0,
        };
        let b = RunResult {
            correct: true,
            attempted: 9,
            failed: 1,
            metrics: layer.finish(PER_LAYER).0,
        };
        (a, b)
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_round_trips() {
        let (a, _) = sample_result(1.0);
        let line = a.to_json_line();
        assert!(!line.contains('\n'));
        let parsed = json::parse(&line).unwrap();
        let keys: Vec<&str> = parsed
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(RunResult::from_json_line(&line).unwrap(), a);
    }

    #[test]
    fn full_report_round_trips_through_writer_and_reader() {
        let entry = |name: &str, scale: f64| {
            let (end_to_end, per_layer) = sample_result(scale);
            WorkloadEntry {
                name: name.into(),
                end_to_end,
                per_layer,
            }
        };
        let report = Report {
            host: Host {
                nproc: 2,
                cpu: "Some CPU @ 2.0GHz".into(),
                rustc: "rustc 1.0.0 (abc 2020-01-01)".into(),
                commit: "0123abcd".into(),
            },
            seed: 20160523,
            seconds: 12.0,
            sets: vec![
                vec![entry("trace_thin_fixed", 1.0), entry("serve_closed2", 2.0)],
                vec![entry("trace_thin_fixed", 1.01), entry("serve_closed2", 2.5)],
            ],
        };
        assert_eq!(Report::from_json(&report.to_json()).unwrap(), report);
    }

    #[test]
    fn non_finite_values_are_written_as_zero() {
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(num(f64::INFINITY), "0");
        assert_eq!(num(1.2034), "1.2034");
        assert_eq!(num(1e-7), "0.0000001");
    }

    #[test]
    fn repeat_comparison_respects_direction_and_bound() {
        let entry = |scale: f64| {
            let (end_to_end, per_layer) = sample_result(scale);
            WorkloadEntry {
                name: "w".into(),
                end_to_end,
                per_layer,
            }
        };
        let rows = compare_sets(&[entry(1.0)], &[entry(1.2)]);
        assert_eq!(rows.len(), END_TO_END.len());
        let by = |name: &str| rows.iter().find(|r| r.metric == name).unwrap();
        // Everything grew 20 %: worse for lower-is-better, better for higher-is-better.
        assert!((by("divq_err_pct").worse_by - 0.2).abs() < 1e-12 && by("divq_err_pct").exceeds());
        assert!((by("cells_per_s").worse_by + 0.2).abs() < 1e-12 && !by("cells_per_s").exceeds());
        assert!(
            !by("setup_s").exceeds(),
            "20 % is inside setup_s's 25 % bound"
        );
    }
}
