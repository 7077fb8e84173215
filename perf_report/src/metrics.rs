//! The metric catalogue: every name the report prints, with its unit,
//! direction, what limits it on this host, and — for layer metrics — the
//! end-to-end metric and workload it is predicted to move. `BENCHMARK.json`
//! lists the same names; a unit test keeps the two in step.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Would the number change with more cores (`Host`), or is it fixed by the
/// algorithm and the simulated-device model (`Model`)?
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Limit {
    Host,
    Model,
}

impl Limit {
    pub fn as_str(self) -> &'static str {
        match self {
            Limit::Host => "host-limited",
            Limit::Model => "model-limited",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub limit: Limit,
    /// End-to-end: the regression bound (share of the parent's median).
    /// Per-layer: 0 (layer metrics are never gated).
    pub bound: f64,
    /// Definition (end-to-end) or "→ what it should move" (per-layer).
    pub note: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    limit: Limit,
    bound: f64,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        limit,
        bound,
        note,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    limit: Limit,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        limit,
        bound: 0.0,
        note,
    }
}

use Better::{Higher, Lower};
use Limit::{Host, Model};

/// What a user of the system sees. Measured by the harness clock around
/// public calls with tracing off; every workload reports all seven.
pub const END_TO_END: &[MetricDef] = &[
    e2e("step_ms_p50", "ms", Lower, Host, 0.25,
        "median wall per radiation step: one full-level solve (trace_*), run_world call wall / steps in the call (step_*, cold start amortised and included), job latency / steps in the job (serve_closed2; mean of the per-shape medians); nominal host clock on trace_* and serve_closed2, raw clock on step_*"),
    e2e("cells_per_s", "cells/s", Higher, Host, 0.25,
        "fine cells x verified steps / time spent in operations (trace_*, step_*: one at a time) or wall of the window while jobs were in flight (serve_closed2: 2 concurrent clients); same clock as step_ms_p50"),
    e2e("divq_err_pct", "%", Lower, Model, 0.10,
        "relative L2 error of the solved divQ on a centre slab against a many-ray solve by the frozen scalar marcher (fixed seed)"),
    e2e("job_ms_p50", "ms", Lower, Host, 0.25,
        "median latency of one operation as its caller sees it: a step (trace_*), a run_world call (step_*), submit -> outcome over the socket (serve_closed2; mean of the per-shape medians); same clock as step_ms_p50"),
    e2e("jobs_per_s", "jobs/s", Higher, Host, 0.25,
        "operations finished and verified / the same time base as cells_per_s"),
    e2e("setup_s", "s", Lower, Host, 0.25,
        "what a user pays before steady state (grid, props, decls, cold first step / cold world / server start + first job per shape); median of 5 cold repetitions, verification excluded"),
    e2e("peak_rss_mb", "MiB", Lower, Model, 0.20,
        "VmHWM of the workload's process at exit, malloc arenas capped at 4"),
];

/// Single-layer numbers from the traced run. Prefix = crate.
pub const PER_LAYER: &[MetricDef] = &[
    // --- core ---------------------------------------------------------
    layer("core.mrays_per_s", "Mrays/s", Higher, Host, "cells_per_s/step_ms_p50 on trace_thin_fixed 1:1; on step_* by at most runtime.task_share_pct"),
    layer("core.rays_per_cell", "count", Lower, Model, "cells_per_s on trace_thick_adaptive at constant core.mrays_per_s; must leave divq_err_pct flat"),
    layer("core.patch_solve_ms_p50", "ms", Lower, Host, "step_ms_p50 on trace_*"),
    layer("core.patch_solve_ms_p90", "ms", Lower, Host, "tail of the above; not gated"),
    layer("core.trace_ns_per_ray", "ns", Lower, Host, "PacketTracer::trace alone: a DDA change moves only this part of core.mrays_per_s"),
    layer("core.setup_ns_per_ray", "ns", Lower, Host, "solve ns/ray minus trace ns/ray (RNG, sampling, packet fill, reduction): a sampler change moves only this"),
    layer("core.tracer_prepare_us", "us", Lower, Host, "PacketTracer::new per stack: step_ms_p50 on step_cpu_smallpatch (one per 64-cell task)"),
    // --- exec ---------------------------------------------------------
    layer("exec.serial_dispatch_ns_per_cell", "ns", Lower, Host, "step_ms_p50 on step_cpu_smallpatch; nothing on trace_*"),
    layer("exec.threads2_dispatch_ns_per_cell", "ns", Lower, Host, "as above, host(2) space"),
    layer("exec.device_dispatch_ns_per_cell", "ns", Lower, Host, "step_ms_p50 on step_gpu_oversub"),
    layer("exec.threads2_speedup", "x", Higher, Host, "solve_region_exec host(2) over Serial on one patch; nothing end to end (workloads are 1 thread/rank)"),
    layer("exec.kernel_launches_per_step", "count", Lower, Model, "step_ms_p50 on step_gpu_oversub; repeats exactly"),
    layer("exec.kernel_invocations_per_step", "count", Lower, Model, "as above"),
    layer("exec.kernel_wall_ms_per_step", "ms", Lower, Host, "step_ms_p50 on step_gpu_oversub"),
    // --- runtime ------------------------------------------------------
    layer("runtime.step_wall_ms_p50", "ms", Lower, Host, "step_ms_p50/cells_per_s on step_*"),
    layer("runtime.step_wall_ms_p90", "ms", Lower, Host, "tail of the above; not gated"),
    layer("runtime.task_ms_per_step", "ms", Lower, Host, "step_ms_p50 on step_*"),
    layer("runtime.task_share_pct", "%", Higher, Host, "ceiling on what a core speed-up can give step_*"),
    layer("runtime.local_comm_ms_per_step", "ms", Lower, Host, "step_ms_p50 on step_cpu_smallpatch (the paper's Table I quantity)"),
    layer("runtime.idle_ms_per_step", "ms", Lower, Host, "step_ms_p50 on step_*"),
    layer("runtime.parks_per_step", "count", Lower, Host, "runtime.idle_ms_per_step"),
    layer("runtime.tasks_per_step", "count", Lower, Model, "nothing; repeats exactly"),
    layer("runtime.raytrace_task_ms_per_step", "ms", Lower, Host, "runtime.task_ms_per_step"),
    layer("runtime.initprops_task_ms_per_step", "ms", Lower, Host, "runtime.task_ms_per_step"),
    layer("runtime.unaccounted_pct", "%", Lower, Host, "(wall - task - local comm - idle - compile - D2H/H2D wait) / wall: the stated remainder"),
    layer("runtime.wall_gap_pct", "%", Lower, Host, "(harness call wall - sum of step walls) / call wall: must stay within 5 or the run is flagged"),
    layer("runtime.graph_compile_cold_ms", "ms", Lower, Host, "setup_s on step_*"),
    layer("runtime.regrid_ms", "ms", Lower, Host, "step_ms_p50 on step_gpu_oversub (every 4th step regrids)"),
    layer("runtime.migrated_kb_per_regrid", "KB", Lower, Model, "runtime.regrid_ms"),
    layer("runtime.recycle_hit_pct", "%", Higher, Model, "step_ms_p50 on step_* (warehouse buffers reused instead of allocated)"),
    // --- comm ---------------------------------------------------------
    layer("comm.msgs_per_step", "count", Lower, Model, "runtime.local_comm_ms_per_step; repeats exactly"),
    layer("comm.kb_per_step", "KB", Lower, Model, "as above"),
    layer("comm.waitfree_ns_per_req", "ns", Lower, Host, "runtime.local_comm_ms_per_step -> step_ms_p50 on step_cpu_smallpatch"),
    layer("comm.mutex_ns_per_req", "ns", Lower, Host, "the Table I control: should move nothing"),
    layer("comm.isend_irecv_ns_per_msg", "ns", Lower, Host, "runtime.local_comm_ms_per_step"),
    // --- gpu ----------------------------------------------------------
    layer("gpu.h2d_mb_per_step", "MB", Lower, Model, "step_ms_p50 on step_gpu_oversub only (the paper's level-DB PCIe bytes)"),
    layer("gpu.d2h_mb_per_step", "MB", Lower, Model, "as above"),
    layer("gpu.h2d_busy_ms_per_step", "ms", Lower, Host, "as above"),
    layer("gpu.d2h_busy_ms_per_step", "ms", Lower, Host, "as above"),
    layer("gpu.h2d_wait_ms_per_step", "ms", Lower, Host, "as above; reported as measured, never asserted"),
    layer("gpu.d2h_wait_ms_per_step", "ms", Lower, Host, "as above"),
    layer("gpu.h2d_overlap_pct", "%", Higher, Host, "overlap / (overlap + wait)"),
    layer("gpu.d2h_overlap_pct", "%", Higher, Host, "overlap / (overlap + wait)"),
    layer("gpu.evictions_per_step", "count", Lower, Model, "step_ms_p50 on step_gpu_oversub"),
    layer("gpu.spill_kb_per_step", "KB", Lower, Model, "as above"),
    layer("gpu.reupload_kb_per_step", "KB", Lower, Model, "as above; reported as measured, never asserted"),
    layer("gpu.peak_bytes_max", "B", Lower, Model, "the paper's level-DB device peak; nothing end to end"),
    layer("gpu.alloc_failures", "count", Lower, Model, "gpu.evictions_per_step"),
    layer("gpu.frag_failures", "count", Lower, Model, "gpu.evictions_per_step"),
    layer("gpu.staging_reuse_pct", "%", Higher, Model, "gpu.h2d_busy_ms_per_step"),
    layer("gpu.put_patch_us_p50", "us", Lower, Host, "step_ms_p50 on step_gpu_oversub; job_ms_p50 on serve_closed2 (GPU shape)"),
    layer("gpu.take_patch_us_p50", "us", Lower, Host, "as above"),
    layer("gpu.level_revalidate_us_p50", "us", Lower, Host, "as above"),
    // --- mem ----------------------------------------------------------
    layer("mem.suballoc_ns_per_op", "ns", Lower, Host, "step_ms_p50 on step_gpu_oversub"),
    layer("mem.suballoc_free_blocks_max", "count", Lower, Model, "gpu.frag_failures"),
    // --- grid ---------------------------------------------------------
    layer("grid.build_ms", "ms", Lower, Host, "setup_s"),
    layer("grid.restrict_level_us", "us", Lower, Host, "runtime.initprops_task_ms_per_step"),
    layer("grid.rebalance_us", "us", Lower, Host, "runtime.regrid_ms"),
    // --- serve --------------------------------------------------------
    layer("serve.queue_ms_p50", "ms", Lower, Host, "job_ms_p50 on serve_closed2; near 0 with 2 workers and 2 closed-loop clients, else the server is the bottleneck"),
    layer("serve.exec_ms_p50", "ms", Lower, Host, "job_ms_p50/jobs_per_s on serve_closed2"),
    layer("serve.wire_ms_p50", "ms", Lower, Host, "client latency - queue - exec"),
    layer("serve.job_ms_p99", "ms", Lower, Host, "tail of job_ms_p50; not gated"),
    layer("serve.slot_hit_pct", "%", Higher, Model, "serve.exec_ms_p50"),
    layer("serve.shared_graph_hits", "count", Higher, Model, "serve.graph_compiles"),
    layer("serve.graph_compiles", "count", Lower, Model, "serve.exec_ms_p50"),
    layer("serve.replicas_inherited_per_job", "count", Higher, Model, "gpu.h2d_mb_per_step of the GPU shape"),
    layer("serve.queued_for_capacity", "count", Lower, Model, "serve.queue_ms_p50"),
    layer("serve.encode_result_us", "us", Lower, Host, "serve.wire_ms_p50"),
    layer("serve.parse_config_us", "us", Lower, Host, "serve.wire_ms_p50"),
    // --- titan --------------------------------------------------------
    layer("titan.eff_4096_8192", "x", Higher, Model, "SIMULATED Titan efficiency from this run's measured rates; nothing end to end"),
    layer("titan.eff_4096_16384", "x", Higher, Model, "as above (Figs. 2-3)"),
    layer("titan.campaign_host_ms", "ms", Lower, Host, "host cost of calibrate_live + the gate_large sweep"),
    // --- harness ------------------------------------------------------
    layer("harness.trace_overhead_pct", "%", Lower, Host, "traced vs untraced step_ms_p50 in the same run: bounds what the spans cost"),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// Values a workload measured, by catalogue name.
#[derive(Clone, Debug, Default)]
pub struct Measured(Vec<(&'static str, f64)>);

impl Measured {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            find(name).is_some(),
            "{name} is not in the metric catalogue"
        );
        debug_assert!(self.get(name).is_none(), "{name} set twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Expand to one [`Metric`] per entry of `defs`, in catalogue order.
    /// Names the workload did not measure (its layer is off this workload's
    /// path) read 0 and are returned separately, as are measured names that
    /// read exactly 0 ("unexercised").
    pub fn finish(
        &self,
        defs: &[MetricDef],
    ) -> (Vec<Metric>, Vec<&'static str>, Vec<&'static str>) {
        let mut metrics = Vec::with_capacity(defs.len());
        let mut unexercised = Vec::new();
        let mut off_path = Vec::new();
        for d in defs {
            let value = match self.get(d.name) {
                Some(v) if v.is_finite() => {
                    if v == 0.0 {
                        unexercised.push(d.name);
                    }
                    v
                }
                Some(_) => {
                    unexercised.push(d.name);
                    0.0
                }
                None => {
                    off_path.push(d.name);
                    0.0
                }
            };
            metrics.push(Metric {
                name: d.name.to_string(),
                value,
                unit: d.unit.to_string(),
            });
        }
        (metrics, unexercised, off_path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmcrt_bench::campaign::json;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert_eq!(END_TO_END.len(), 7);
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    /// `BENCHMARK.json` (repo root) and this catalogue must list the same
    /// metrics with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = json::parse(text).expect("BENCHMARK.json parses");
        let obj = doc.as_object().expect("object");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = obj[key].as_array().expect("array");
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (entry, def) in listed.iter().zip(defs) {
                let e = entry.as_object().expect("metric object");
                assert_eq!(e["name"].as_str(), Some(def.name));
                assert_eq!(e["unit"].as_str(), Some(def.unit), "{}", def.name);
                assert_eq!(
                    e["better"].as_str(),
                    Some(def.better.as_str()),
                    "{}",
                    def.name
                );
                if key == "end_to_end" {
                    assert_eq!(e["bound"].as_f64(), Some(def.bound), "{}", def.name);
                }
            }
        }
        let workloads: Vec<&str> = obj["workloads"]
            .as_array()
            .expect("workloads")
            .iter()
            .map(|w| {
                w.as_object().expect("workload")["name"]
                    .as_str()
                    .expect("name")
            })
            .collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn finish_splits_off_path_from_unexercised() {
        let mut m = Measured::default();
        m.set("gpu.h2d_wait_ms_per_step", 0.0);
        m.set("gpu.h2d_mb_per_step", 11.6);
        let (metrics, unexercised, off_path) = m.finish(PER_LAYER);
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(unexercised, vec!["gpu.h2d_wait_ms_per_step"]);
        assert!(
            off_path.contains(&"core.mrays_per_s") && !off_path.contains(&"gpu.h2d_mb_per_step")
        );
        assert_eq!(
            metrics
                .iter()
                .find(|x| x.name == "gpu.h2d_mb_per_step")
                .map(|x| x.value),
            Some(11.6)
        );
    }
}
