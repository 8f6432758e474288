//! Every metric the benchmark reports: name, unit, direction, and how
//! `compare` judges a change in it. `BENCHMARK.json` lists the same names;
//! a test below keeps the two in step.

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How `compare` judges a difference between two result files.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Judge {
    /// Host measurement gated by the bound `BENCHMARK.json` gives the named
    /// end-to-end metric (its own, or the one it is derived from).
    Bound(&'static str),
    /// Virtual result: repeats bit for bit at one seed, so any difference is
    /// real, and better or worse by the metric's direction.
    Exact,
    /// Count, or measured value with no better direction: any difference
    /// between two runs at one seed is drift, reported as worse.
    Pinned,
    /// Host measurement of one layer, reported with no bound.
    Info,
}

/// One metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub judge: Judge,
}

const fn m(name: &'static str, unit: &'static str, better: Better, judge: Judge) -> Metric {
    Metric {
        name,
        unit,
        better,
        judge,
    }
}

use Better::{Higher, Lower};
use Judge::{Bound, Exact, Info, Pinned};

/// The end-to-end metrics defined on every workload. These are the
/// `end_to_end` list of `BENCHMARK.json` and what a run prints with
/// `--trace 0`.
pub const GATED: [Metric; 4] = [
    m("wall_s", "s", Lower, Bound("wall_s")),
    m("peak_rss_mb", "MiB", Lower, Bound("peak_rss_mb")),
    m("setup_s", "s", Lower, Bound("setup_s")),
    m("makespan_s", "s", Lower, Exact),
];

/// The end-to-end metrics defined on some workloads only. `BENCHMARK.json`
/// cannot hold them as `end_to_end` (every workload must report each of
/// those, never as zero), so it lists them first among `per_layer`; `all`
/// and `compare` treat them as the end-to-end metrics they are.
pub const END_TO_END_PARTIAL: [Metric; 8] = [
    m("events_per_s", "1/s", Higher, Bound("wall_s")),
    m("fail_share", "ratio", Lower, Exact),
    m("fidelity_mean_rel_err", "ratio", Lower, Exact),
    m("fidelity_max_rel_err", "ratio", Lower, Exact),
    m("serverless_vs_container_x", "x", Higher, Exact),
    m("salvage_ratio", "ratio", Higher, Exact),
    m("perf_per_dollar", "task_s/USD", Higher, Exact),
    m("json_mb_per_s", "MB/s", Higher, Bound("wall_s")),
];

/// Metrics of single layers.
pub const LAYERS: [Metric; 85] = [
    // simcore: exact executor counts of one pass; host time per event.
    m("simcore.events", "count", Lower, Pinned),
    m("simcore.polls", "count", Lower, Pinned),
    m("simcore.wakes", "count", Lower, Pinned),
    m("simcore.timers_fired", "count", Lower, Pinned),
    m("simcore.spawned", "count", Lower, Pinned),
    m("simcore.peak_ready_queue", "count", Lower, Pinned),
    m("simcore.ns_per_event", "ns", Lower, Info),
    m("simcore.bare_ns_per_event", "ns", Lower, Info),
    // cluster
    m("cluster.net_transfers", "count", Lower, Pinned),
    m("cluster.net_bytes_moved", "B", Lower, Pinned),
    m("cluster.transfer_us", "us", Lower, Info),
    m("cluster.fs_rw_us", "us", Lower, Info),
    m("cluster.zero_pool_first_touch_ms", "ms", Lower, Info),
    // container, k8s, knative, condor, pegasus: host time per operation,
    // program counts, two virtual latencies.
    m("container.lifecycle_us", "us", Lower, Info),
    m("container.pull_us", "us", Lower, Info),
    m("k8s.pod_start_us", "us", Lower, Info),
    m("knative.invoke_us", "us", Lower, Info),
    m("condor.job_us", "us", Lower, Info),
    m("dagman.node_us", "us", Lower, Info),
    m("pegasus.plan_us_per_job", "us", Lower, Info),
    m("k8s.pods_started", "count", Lower, Pinned),
    m("knative.invocations", "count", Lower, Pinned),
    m("knative.cold_starts", "count", Lower, Pinned),
    m("condor.matches", "count", Lower, Pinned),
    m("knative.cold_start_s", "s", Lower, Exact),
    m("condor.activation_p50_s", "s", Lower, Exact),
    // workloads: the real kernels and the matrix codec.
    m("workloads.matmul_ms", "ms", Lower, Info),
    m("workloads.matmul_gops", "Gop/s", Higher, Info),
    m("workloads.encode_ms", "ms", Lower, Info),
    m("workloads.decode_ms", "ms", Lower, Info),
    m("workloads.multiply_encoded_ms", "ms", Lower, Info),
    m("workloads.matmul_calls", "count", Lower, Pinned),
    m("workloads.kernel_share", "ratio", Lower, Info),
    // apps
    m("apps.finra_ms", "ms", Lower, Info),
    m("apps.mltrain_ms", "ms", Lower, Info),
    m("apps.mlinfer_ms", "ms", Lower, Info),
    m("apps.wordcount_ms", "ms", Lower, Info),
    m("apps.jobs_expanded", "count", Lower, Pinned),
    m("apps.rounds", "count", Lower, Pinned),
    // core
    m("core.boot_us", "us", Lower, Info),
    m("core.stage_workflow_us", "us", Lower, Info),
    // obs
    m("obs.spans", "count", Lower, Pinned),
    m("obs.span_ns", "ns", Lower, Info),
    m("obs.spans_snapshot_ms", "ms", Lower, Info),
    m("obs.spans_to_json_ms", "ms", Lower, Info),
    m("obs.chrome_ms", "ms", Lower, Info),
    m("obs.critpath_ms", "ms", Lower, Info),
    m("obs.folded_ms", "ms", Lower, Info),
    m("obs.group_by_ms", "ms", Lower, Info),
    m("obs.top_slowest_ms", "ms", Lower, Info),
    m("obs.slo_ms", "ms", Lower, Info),
    m("obs.series_json_ms", "ms", Lower, Info),
    m("obs.spans_from_json_ms", "ms", Lower, Info),
    m("obs.tracing_overhead_x", "x", Lower, Info),
    // json (vendor/serde_json)
    m("json.to_string_mb_per_s", "MB/s", Higher, Info),
    m("json.from_str_mb_per_s", "MB/s", Higher, Info),
    m("json.export_bytes", "B", Lower, Pinned),
    // metrics
    m("metrics.compare_ms", "ms", Lower, Info),
    // chaos, elastic
    m("chaos.plan_sample_us", "us", Lower, Info),
    m("chaos.plan_json_roundtrip_us", "us", Lower, Info),
    m("chaos.run_ms_per_seed", "ms", Lower, Info),
    m("elastic.run_ms_per_seed", "ms", Lower, Info),
    m("chaos.injected", "count", Lower, Pinned),
    m("chaos.rescue_rounds", "count", Lower, Pinned),
    m("elastic.scale_ups", "count", Lower, Pinned),
    // Virtual critical path of the slowest workflow, by category.
    m("critpath.queue_s", "s", Lower, Exact),
    m("critpath.negotiate_s", "s", Lower, Exact),
    m("critpath.claim-activation_s", "s", Lower, Exact),
    m("critpath.transfer_s", "s", Lower, Exact),
    m("critpath.pull_s", "s", Lower, Exact),
    m("critpath.cold-start_s", "s", Lower, Exact),
    m("critpath.create_s", "s", Lower, Exact),
    m("critpath.destroy_s", "s", Lower, Exact),
    m("critpath.serialize_s", "s", Lower, Exact),
    m("critpath.compute_s", "s", Lower, Exact),
    m("critpath.expand_s", "s", Lower, Exact),
    m("critpath.other_s", "s", Lower, Exact),
    // Fidelity: the measured value of each quantity the paper states. Closer
    // to the paper is better, which `fidelity_*_rel_err` carry; the values
    // themselves have no better direction.
    m("fidelity.cold_start_s", "s", Lower, Pinned),
    m("fidelity.fig1_slope_reduction", "ratio", Lower, Pinned),
    m("fidelity.fig2_native_slope", "s/task", Lower, Pinned),
    m("fidelity.fig2_knative_slope", "s/task", Lower, Pinned),
    m("fidelity.fig2_container_slope", "s/task", Lower, Pinned),
    m("fidelity.fig6_native_s", "s", Lower, Pinned),
    m("fidelity.fig6_serverless_x", "x", Lower, Pinned),
    // The benchmark's own recorder.
    m("bench.trace_overhead_share", "ratio", Lower, Info),
];

/// The `per_layer` list of `BENCHMARK.json`, and what a run prints with
/// `--trace 1`.
pub fn per_layer() -> impl Iterator<Item = &'static Metric> {
    END_TO_END_PARTIAL.iter().chain(LAYERS.iter())
}

/// Every metric.
pub fn all() -> impl Iterator<Item = &'static Metric> {
    GATED.iter().chain(per_layer())
}

/// The metric called `name`.
pub fn find(name: &str) -> Option<&'static Metric> {
    all().find(|metric| metric.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn listed(doc: &Value, key: &str) -> Vec<(String, String, String)> {
        doc[key]
            .as_array()
            .expect("a list of metrics")
            .iter()
            .map(|e| {
                let field = |k: &str| e[k].as_str().expect("a string").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn table<'a>(metrics: impl Iterator<Item = &'a Metric>) -> Vec<(String, String, String)> {
        metrics
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.label().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = crate::host::package_dir().join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = serde_json::from_str(&text).expect("valid JSON");
        assert_eq!(listed(&doc, "end_to_end"), table(GATED.iter()));
        assert_eq!(listed(&doc, "per_layer"), table(per_layer()));
        let workloads: Vec<&str> = doc["workloads"]
            .as_array()
            .expect("a list of workloads")
            .iter()
            .map(|w| w["name"].as_str().expect("a name"))
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }

    #[test]
    fn names_are_unique_and_bounds_resolve() {
        let mut names: Vec<&str> = all().map(|m| m.name).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for metric in all() {
            if let Judge::Bound(source) = metric.judge {
                assert!(GATED.iter().any(|g| g.name == source), "{source}");
            }
        }
    }
}
