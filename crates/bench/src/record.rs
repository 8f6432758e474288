//! Machine-readable benchmark records (`BENCH_*.json`).
//!
//! A full suite run and a `suite --only` selection, of any label, emit
//! the same document shape, so any two records can be fed to
//! `suite compare`:
//!
//! ```json
//! {
//!   "schema": "swf-bench/v1",
//!   "label": "quick",
//!   "quick": true,
//!   "scenarios": {
//!     "fig1": {
//!       "virtual": { ...figure rows/fits, virtual seconds... },
//!       "obs":     { "metrics": {...}, "critical_paths": {...} },
//!       "host":    { "polls": n, "wakes": n, ...executor counts... }
//!     }
//!   },
//!   "host": { ...summed counters... }
//! }
//! ```
//!
//! Every leaf is a pure function of the simulated program and its seeds:
//! `virtual` and `obs` are what the model did, `host` what the executor
//! did to simulate it (counts, never a clock reading). `suite compare`
//! treats any bitwise difference anywhere as **drift**, so a document is
//! reproducible byte for byte.

use swf_core::experiments::{ColdStartResult, Fig1Result, Fig2Result, Fig5Result, Fig6Result};
use swf_metrics::Line;
use swf_simcore::perf::{self, ExecProfile};

/// Schema identifier stamped into every document.
pub const SCHEMA: &str = "swf-bench/v1";

/// Measures the executor work one scenario costs, as counter deltas.
/// Start right before the scenario runs; `finish()` yields the `host`
/// JSON section.
pub struct ScenarioMeter {
    before: ExecProfile,
}

impl ScenarioMeter {
    /// Start metering: reset the ready-queue high-water mark, snapshot
    /// the counters.
    pub fn start() -> ScenarioMeter {
        perf::reset_ready_peak();
        ScenarioMeter {
            before: perf::snapshot(),
        }
    }

    /// Stop metering and render the `host` section.
    pub fn finish(self) -> serde_json::Value {
        let p = perf::snapshot().delta(&self.before);
        let mut host = serde_json::Map::new();
        host.insert("polls", serde_json::Value::from(p.polls));
        host.insert("spawned", serde_json::Value::from(p.spawned));
        host.insert("wakes", serde_json::Value::from(p.wakes));
        host.insert(
            "timers_registered",
            serde_json::Value::from(p.timers_registered),
        );
        host.insert("timers_fired", serde_json::Value::from(p.timers_fired));
        host.insert("clock_advances", serde_json::Value::from(p.clock_advances));
        host.insert("peak_ready_queue", serde_json::Value::from(p.ready_peak));
        host.insert("events_processed", serde_json::Value::from(p.events()));
        serde_json::Value::Object(host)
    }
}

fn line_json(l: &Line) -> serde_json::Value {
    let mut obj = serde_json::Map::new();
    obj.insert("slope", serde_json::Value::from(l.slope));
    obj.insert("intercept", serde_json::Value::from(l.intercept));
    obj.insert("r_squared", serde_json::Value::from(l.r_squared));
    serde_json::Value::Object(obj)
}

/// Fig. 1 virtual-time record.
pub fn fig1_json(r: &Fig1Result) -> serde_json::Value {
    let rows: Vec<serde_json::Value> = r
        .rows
        .iter()
        .map(|row| {
            let mut obj = serde_json::Map::new();
            obj.insert("tasks", serde_json::Value::from(row.tasks));
            obj.insert("docker_total", serde_json::Value::from(row.docker_total));
            obj.insert("knative_total", serde_json::Value::from(row.knative_total));
            obj.insert("docker_exec", serde_json::Value::from(row.docker_exec));
            obj.insert("knative_exec", serde_json::Value::from(row.knative_exec));
            serde_json::Value::Object(obj)
        })
        .collect();
    let mut obj = serde_json::Map::new();
    obj.insert("rows", serde_json::Value::Array(rows));
    obj.insert("docker_fit", line_json(&r.docker_fit));
    obj.insert("knative_fit", line_json(&r.knative_fit));
    obj.insert(
        "slope_reduction",
        serde_json::Value::from(r.slope_reduction),
    );
    obj.insert("cold_start_s", serde_json::Value::from(r.cold_start));
    serde_json::Value::Object(obj)
}

/// Fig. 2 virtual-time record.
pub fn fig2_json(r: &Fig2Result) -> serde_json::Value {
    let rows: Vec<serde_json::Value> = r
        .rows
        .iter()
        .map(|row| {
            let mut obj = serde_json::Map::new();
            obj.insert("tasks", serde_json::Value::from(row.tasks));
            obj.insert("native", serde_json::Value::from(row.native));
            obj.insert("knative", serde_json::Value::from(row.knative));
            obj.insert("container", serde_json::Value::from(row.container));
            serde_json::Value::Object(obj)
        })
        .collect();
    let mut obj = serde_json::Map::new();
    obj.insert("rows", serde_json::Value::Array(rows));
    obj.insert("native_fit", line_json(&r.native_fit));
    obj.insert("knative_fit", line_json(&r.knative_fit));
    obj.insert("container_fit", line_json(&r.container_fit));
    serde_json::Value::Object(obj)
}

/// Fig. 5 virtual-time record (mix simplex sweep).
pub fn fig5_json(r: &Fig5Result) -> serde_json::Value {
    let rows: Vec<serde_json::Value> = r
        .rows
        .iter()
        .map(|row| {
            let mut obj = serde_json::Map::new();
            obj.insert("native", serde_json::Value::from(row.mix.native));
            obj.insert("serverless", serde_json::Value::from(row.mix.serverless));
            obj.insert("container", serde_json::Value::from(row.mix.container));
            obj.insert("makespan_s", serde_json::Value::from(row.makespan));
            serde_json::Value::Object(obj)
        })
        .collect();
    let mut obj = serde_json::Map::new();
    obj.insert("rows", serde_json::Value::Array(rows));
    serde_json::Value::Object(obj)
}

/// Fig. 6 virtual-time record (five highlighted mixes).
pub fn fig6_json(r: &Fig6Result) -> serde_json::Value {
    let rows: Vec<serde_json::Value> = r
        .rows
        .iter()
        .map(|row| {
            let mut obj = serde_json::Map::new();
            obj.insert("label", serde_json::Value::from(row.label));
            obj.insert("makespan_s", serde_json::Value::from(row.makespan));
            obj.insert("vs_native", serde_json::Value::from(row.vs_native));
            serde_json::Value::Object(obj)
        })
        .collect();
    let mut obj = serde_json::Map::new();
    obj.insert("rows", serde_json::Value::Array(rows));
    serde_json::Value::Object(obj)
}

/// §III-B cold-start virtual-time record.
pub fn coldstart_json(r: &ColdStartResult) -> serde_json::Value {
    let mut obj = serde_json::Map::new();
    obj.insert("first_request_s", serde_json::Value::from(r.first_request));
    obj.insert("cold_start_s", serde_json::Value::from(r.cold_start));
    obj.insert("warm_request_s", serde_json::Value::from(r.warm_request));
    serde_json::Value::Object(obj)
}

/// Render labelled collectors as the `obs` section: each label's metrics
/// registry plus the critical path of its slowest workflow (when the
/// collector recorded workflow spans).
pub fn obs_json(collectors: &[(&str, &swf_obs::Obs)]) -> serde_json::Value {
    let mut metrics = serde_json::Map::new();
    let mut critical_paths = serde_json::Map::new();
    for (label, obs) in collectors {
        if !obs.is_enabled() {
            continue;
        }
        metrics.insert(label.to_string(), obs.metrics_json());
        let cp = swf_core::slowest_workflow_breakdown(obs)
            .map_or(serde_json::Value::Null, |cp| cp.to_json());
        critical_paths.insert(label.to_string(), cp);
    }
    let mut obj = serde_json::Map::new();
    obj.insert("metrics", serde_json::Value::Object(metrics));
    obj.insert("critical_paths", serde_json::Value::Object(critical_paths));
    serde_json::Value::Object(obj)
}

/// Render labelled collectors as the `slo` section: the suite's default
/// SLO spec evaluated against each collector's finished run. Like
/// `virtual` and `obs`, this is a pure function of the simulated program
/// — `suite compare` treats any bitwise difference as drift.
pub fn slo_json(collectors: &[(&str, &swf_obs::Obs)]) -> serde_json::Value {
    let spec = swf_obs::SloSpec::suite_default();
    let mut reports = serde_json::Map::new();
    for (label, obs) in collectors {
        if !obs.is_enabled() {
            continue;
        }
        let report = obs.with_spans(|spans| swf_obs::evaluate_slo(&spec, &obs.metrics(), spans));
        reports.insert(label.to_string(), report.to_json());
    }
    let mut obj = serde_json::Map::new();
    obj.insert("spec", spec.to_json());
    obj.insert("reports", serde_json::Value::Object(reports));
    serde_json::Value::Object(obj)
}

/// Render labelled collectors' sampled time series, keyed by label.
/// Collectors that never sampled are omitted, so runs without a series
/// interval produce an empty object.
pub fn series_json(collectors: &[(&str, &swf_obs::Obs)]) -> serde_json::Value {
    let mut obj = serde_json::Map::new();
    for (label, obs) in collectors {
        if obs.has_series() {
            obj.insert(label.to_string(), obs.series_json());
        }
    }
    serde_json::Value::Object(obj)
}

/// Assemble one scenario entry from its sections. Like
/// `virtual`/`obs`/`slo`, `cost` is a pure function of the simulated
/// program — `suite compare` diffs it bitwise — so only cost-aware
/// scenarios (`elastic`) emit it; everything else omits the key and
/// compares Null against Null.
pub fn scenario_json(
    virtual_section: serde_json::Value,
    obs_section: serde_json::Value,
    slo_section: serde_json::Value,
    cost_section: Option<serde_json::Value>,
    host_section: serde_json::Value,
) -> serde_json::Value {
    let mut obj = serde_json::Map::new();
    obj.insert("virtual", virtual_section);
    obj.insert("obs", obs_section);
    obj.insert("slo", slo_section);
    if let Some(cost) = cost_section {
        obj.insert("cost", cost);
    }
    obj.insert("host", host_section);
    serde_json::Value::Object(obj)
}

/// Assemble a full benchmark document from named scenario entries,
/// summing the per-scenario host counters into a top-level aggregate.
pub fn bench_document(
    label: &str,
    quick: bool,
    scenarios: Vec<(String, serde_json::Value)>,
) -> serde_json::Value {
    let mut total = serde_json::Map::new();
    let counter_keys = [
        "polls",
        "spawned",
        "wakes",
        "timers_registered",
        "timers_fired",
        "clock_advances",
        "events_processed",
    ];
    for (_, scenario) in &scenarios {
        let host = scenario.get("host");
        for key in counter_keys {
            let v = host
                .and_then(|h| h.get(key))
                .and_then(serde_json::Value::as_u64)
                .unwrap_or(0);
            let slot = total
                .get(key)
                .and_then(serde_json::Value::as_u64)
                .unwrap_or(0);
            total.insert(key, serde_json::Value::from(slot + v));
        }
    }

    let mut scen_map = serde_json::Map::new();
    for (name, scenario) in scenarios {
        scen_map.insert(name, scenario);
    }
    let mut doc = serde_json::Map::new();
    doc.insert("schema", serde_json::Value::from(SCHEMA));
    doc.insert("label", serde_json::Value::from(label));
    doc.insert("quick", serde_json::Value::from(quick));
    doc.insert("scenarios", serde_json::Value::Object(scen_map));
    doc.insert("host", serde_json::Value::Object(total));
    serde_json::Value::Object(doc)
}

/// The workspace root: nearest ancestor of the current directory whose
/// `Cargo.toml` declares `[workspace]`. Falls back to the current
/// directory so a stray invocation still writes *somewhere* sensible.
pub fn workspace_root() -> std::path::PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| std::path::PathBuf::from("."));
    let mut dir = cwd.clone();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return cwd;
        }
    }
}
