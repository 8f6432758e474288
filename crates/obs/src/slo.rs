//! Service-level objectives over the telemetry registry.
//!
//! An [`SloSpec`] declares latency objectives (a histogram metric, a
//! percentile, a ceiling), a cold-start-rate ceiling, and a per-workflow
//! makespan ceiling; [`evaluate`] checks a finished run's
//! [`MetricsSnapshot`](crate::MetricsSnapshot) and span tree against it
//! and produces an [`SloReport`] — per-objective outcomes, per-workflow
//! outcomes, and an error-budget burn figure. Everything is a pure
//! function of the run's deterministic telemetry, so reports are
//! bitwise-reproducible and `suite compare` treats the benchmark
//! document's `slo` section exactly like `virtual`: any difference is
//! drift.

use crate::metrics::MetricsSnapshot;
use crate::span::Span;

/// A named percentile of a latency histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pctl {
    /// Median.
    P50,
    /// 90th percentile.
    P90,
    /// 95th percentile.
    P95,
    /// 99th percentile.
    P99,
    /// 99.9th percentile.
    P999,
}

impl Pctl {
    /// Stable label (`p50`, …) for tables and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Pctl::P50 => "p50",
            Pctl::P90 => "p90",
            Pctl::P95 => "p95",
            Pctl::P99 => "p99",
            Pctl::P999 => "p999",
        }
    }
}

/// One latency objective: `metric`'s `pctl` must stay at or below `max_s`.
#[derive(Clone, Debug, PartialEq)]
pub struct LatencyObjective {
    /// Histogram metric name.
    pub metric: String,
    /// Which percentile the ceiling applies to.
    pub pctl: Pctl,
    /// Ceiling in virtual seconds.
    pub max_s: f64,
}

/// A declarative SLO specification.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SloSpec {
    /// Latency objectives, in declaration order.
    pub objectives: Vec<LatencyObjective>,
    /// Ceiling on `knative.cold_starts / knative.invocations`.
    pub cold_start_rate_max: Option<f64>,
    /// Per-workflow makespan ceiling in virtual seconds.
    pub makespan_max_s: Option<f64>,
    /// Fraction of objectives allowed to be in violation before the
    /// error budget is burned (burn = violation rate / budget).
    pub error_budget: f64,
}

impl SloSpec {
    /// An empty spec with the default 10% error budget.
    pub fn new() -> SloSpec {
        SloSpec {
            error_budget: 0.10,
            ..SloSpec::default()
        }
    }

    /// Add a latency objective. Nothing checks the metric name: one that
    /// no component emits reports `observed_s: None` and is not evaluated.
    pub fn objective(mut self, metric: &str, pctl: Pctl, max_s: f64) -> SloSpec {
        self.objectives.push(LatencyObjective {
            metric: metric.to_string(),
            pctl,
            max_s,
        });
        self
    }

    /// Cap the cold-start rate (cold starts per invocation).
    pub fn cold_start_rate(mut self, max: f64) -> SloSpec {
        self.cold_start_rate_max = Some(max);
        self
    }

    /// Cap every workflow's makespan.
    pub fn makespan_max(mut self, max_s: f64) -> SloSpec {
        self.makespan_max_s = Some(max_s);
        self
    }

    /// Set the error budget (allowed objective-violation fraction).
    pub fn error_budget(mut self, budget: f64) -> SloSpec {
        self.error_budget = budget;
        self
    }

    /// The benchmark suite's default objectives: scheduler-path and
    /// serverless-path latency distributions (Li et al.'s concurrency /
    /// latency methodology; Wukong's scheduler-path motivation), sized
    /// for the paper-shaped quick scenarios.
    pub fn suite_default() -> SloSpec {
        SloSpec::new()
            .objective("condor.queue_wait_s", Pctl::P50, 15.0)
            .objective("condor.queue_wait_s", Pctl::P99, 90.0)
            .objective("condor.activation_s", Pctl::P99, 45.0)
            .objective("knative.cold_wait_s", Pctl::P99, 20.0)
            .objective("knative.request_s", Pctl::P50, 30.0)
            .objective("knative.request_s", Pctl::P99, 120.0)
            .cold_start_rate(0.50)
            .makespan_max(600.0)
            .error_budget(0.10)
    }

    /// Render as JSON (for the benchmark document's `slo.spec` field).
    pub fn to_json(&self) -> serde_json::Value {
        let objectives: Vec<serde_json::Value> = self
            .objectives
            .iter()
            .map(|o| {
                let mut obj = serde_json::Map::new();
                obj.insert(
                    "metric".to_string(),
                    serde_json::Value::from(o.metric.clone()),
                );
                obj.insert("pctl".to_string(), serde_json::Value::from(o.pctl.label()));
                obj.insert("max_s".to_string(), serde_json::Value::from(o.max_s));
                serde_json::Value::Object(obj)
            })
            .collect();
        let mut root = serde_json::Map::new();
        root.insert(
            "objectives".to_string(),
            serde_json::Value::Array(objectives),
        );
        root.insert(
            "cold_start_rate_max".to_string(),
            serde_json::Value::from(self.cold_start_rate_max),
        );
        root.insert(
            "makespan_max_s".to_string(),
            serde_json::Value::from(self.makespan_max_s),
        );
        root.insert(
            "error_budget".to_string(),
            serde_json::Value::from(self.error_budget),
        );
        serde_json::Value::Object(root)
    }
}

/// Outcome of one latency objective.
#[derive(Clone, Debug, PartialEq)]
pub struct ObjectiveOutcome {
    /// The objective evaluated.
    pub objective: LatencyObjective,
    /// Observed percentile value; `None` when the metric recorded
    /// nothing in this run (the objective is then vacuously met).
    pub observed_s: Option<f64>,
    /// Whether the objective held.
    pub ok: bool,
}

/// Outcome of the per-workflow makespan objective.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkflowOutcome {
    /// Workflow root-span name (e.g. `workflow:wf-3`).
    pub name: String,
    /// Makespan in virtual seconds.
    pub makespan_s: f64,
    /// Whether it met the makespan ceiling (true when no ceiling is set).
    pub ok: bool,
}

/// A finished run evaluated against an [`SloSpec`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SloReport {
    /// Per-objective outcomes, in spec order.
    pub objectives: Vec<ObjectiveOutcome>,
    /// Observed cold-start rate (cold starts / invocations), when the
    /// run made any invocations.
    pub cold_start_rate: Option<f64>,
    /// Whether the cold-start-rate ceiling held (true when unset/vacuous).
    pub cold_start_ok: bool,
    /// Per-workflow makespan outcomes (workflow root spans, id order).
    pub workflows: Vec<WorkflowOutcome>,
    /// Objectives evaluated against actual data (non-vacuous).
    pub evaluated: u64,
    /// Objectives violated.
    pub violated: u64,
    /// Error-budget burn: violation rate divided by the budget.
    /// `> 1.0` means the budget is blown.
    pub error_budget_burn: f64,
}

impl SloReport {
    /// True when every evaluated objective (and every workflow) held.
    pub fn ok(&self) -> bool {
        self.violated == 0 && self.cold_start_ok && self.workflows.iter().all(|w| w.ok)
    }

    /// Render as JSON (for the benchmark document's `slo` section).
    pub fn to_json(&self) -> serde_json::Value {
        let objectives: Vec<serde_json::Value> = self
            .objectives
            .iter()
            .map(|o| {
                let mut obj = serde_json::Map::new();
                obj.insert(
                    "metric".to_string(),
                    serde_json::Value::from(o.objective.metric.clone()),
                );
                obj.insert(
                    "pctl".to_string(),
                    serde_json::Value::from(o.objective.pctl.label()),
                );
                obj.insert(
                    "max_s".to_string(),
                    serde_json::Value::from(o.objective.max_s),
                );
                obj.insert(
                    "observed_s".to_string(),
                    serde_json::Value::from(o.observed_s),
                );
                obj.insert("ok".to_string(), serde_json::Value::from(o.ok));
                serde_json::Value::Object(obj)
            })
            .collect();
        let workflows: Vec<serde_json::Value> = self
            .workflows
            .iter()
            .map(|w| {
                let mut obj = serde_json::Map::new();
                obj.insert("name".to_string(), serde_json::Value::from(w.name.clone()));
                obj.insert(
                    "makespan_s".to_string(),
                    serde_json::Value::from(w.makespan_s),
                );
                obj.insert("ok".to_string(), serde_json::Value::from(w.ok));
                serde_json::Value::Object(obj)
            })
            .collect();
        let mut root = serde_json::Map::new();
        root.insert(
            "objectives".to_string(),
            serde_json::Value::Array(objectives),
        );
        root.insert(
            "cold_start_rate".to_string(),
            serde_json::Value::from(self.cold_start_rate),
        );
        root.insert(
            "cold_start_ok".to_string(),
            serde_json::Value::from(self.cold_start_ok),
        );
        root.insert("workflows".to_string(), serde_json::Value::Array(workflows));
        root.insert(
            "evaluated".to_string(),
            serde_json::Value::from(self.evaluated),
        );
        root.insert(
            "violated".to_string(),
            serde_json::Value::from(self.violated),
        );
        root.insert(
            "error_budget_burn".to_string(),
            serde_json::Value::from(self.error_budget_burn),
        );
        root.insert("ok".to_string(), serde_json::Value::from(self.ok()));
        serde_json::Value::Object(root)
    }
}

/// Evaluate a run's telemetry against a spec. Pure and deterministic:
/// the same snapshot and span tree always produce a bitwise-identical
/// report.
pub fn evaluate(spec: &SloSpec, snapshot: &MetricsSnapshot, spans: &[Span]) -> SloReport {
    let mut report = SloReport::default();
    for objective in &spec.objectives {
        let observed = snapshot
            .histogram(&objective.metric)
            .map(|h| h.at(objective.pctl));
        let ok = observed.is_none_or(|v| v <= objective.max_s);
        if observed.is_some() {
            report.evaluated += 1;
            if !ok {
                report.violated += 1;
            }
        }
        report.objectives.push(ObjectiveOutcome {
            objective: objective.clone(),
            observed_s: observed,
            ok,
        });
    }

    let invocations = snapshot.counter("knative.invocations").unwrap_or(0);
    report.cold_start_rate = (invocations > 0)
        .then(|| snapshot.counter("knative.cold_starts").unwrap_or(0) as f64 / invocations as f64);
    report.cold_start_ok = match (spec.cold_start_rate_max, report.cold_start_rate) {
        (Some(max), Some(rate)) => {
            report.evaluated += 1;
            if rate > max {
                report.violated += 1;
                false
            } else {
                true
            }
        }
        _ => true,
    };

    for root in crate::critpath::roots(spans) {
        if !root.name.starts_with("workflow:") {
            continue;
        }
        let makespan_s = root.duration_secs();
        let ok = spec.makespan_max_s.is_none_or(|max| makespan_s <= max);
        if spec.makespan_max_s.is_some() {
            report.evaluated += 1;
            if !ok {
                report.violated += 1;
            }
        }
        report.workflows.push(WorkflowOutcome {
            name: root.name.clone(),
            makespan_s,
            ok,
        });
    }

    report.error_budget_burn = if report.evaluated == 0 || spec.error_budget <= 0.0 {
        0.0
    } else {
        (report.violated as f64 / report.evaluated as f64) / spec.error_budget
    };
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Category, SpanContext};
    use crate::Obs;
    use swf_simcore::{secs, sleep, Sim};

    fn sample_run() -> (MetricsSnapshot, Vec<Span>) {
        let obs = Obs::enabled();
        let sim = Sim::new();
        let h = obs.clone();
        sim.block_on(async move {
            let wf = h.span(
                SpanContext::NONE,
                "condor/dagman",
                "workflow:t",
                Category::Queue,
            );
            h.observe("test.lat_s", 1.0);
            h.observe("test.lat_s", 9.0);
            h.counter_add("knative.invocations", 10);
            h.counter_add("knative.cold_starts", 2);
            sleep(secs(50.0)).await;
            drop(wf);
        });
        (obs.metrics(), obs.spans())
    }

    #[test]
    fn objectives_evaluate_against_percentiles() {
        let (snap, spans) = sample_run();
        let spec = SloSpec::new()
            .objective("test.lat_s", Pctl::P50, 2.0)
            .objective("test.lat_s", Pctl::P99, 5.0) // violated: p99 ≈ 9
            .objective("test.absent_s", Pctl::P99, 1.0); // vacuous
        let r = evaluate(&spec, &snap, &spans);
        assert!(r.objectives[0].ok);
        assert!(!r.objectives[1].ok);
        assert!(r.objectives[2].ok && r.objectives[2].observed_s.is_none());
        assert_eq!(r.evaluated, 2);
        assert_eq!(r.violated, 1);
        assert!(!r.ok());
        // burn = (1/2) / 0.10 = 5.0
        assert!((r.error_budget_burn - 5.0).abs() < 1e-12);
    }

    #[test]
    fn cold_start_rate_and_workflow_makespans() {
        let (snap, spans) = sample_run();
        let spec = SloSpec::new().cold_start_rate(0.5).makespan_max(60.0);
        let r = evaluate(&spec, &snap, &spans);
        assert_eq!(r.cold_start_rate, Some(0.2));
        assert!(r.cold_start_ok);
        assert_eq!(r.workflows.len(), 1);
        assert_eq!(r.workflows[0].name, "workflow:t");
        assert!((r.workflows[0].makespan_s - 50.0).abs() < 1e-9);
        assert!(r.ok());

        let tight = SloSpec::new().makespan_max(10.0);
        let r = evaluate(&tight, &snap, &spans);
        assert!(!r.ok());
        assert!(!r.workflows[0].ok);
    }

    #[test]
    fn report_json_shape_is_stable() {
        let (snap, spans) = sample_run();
        let spec = SloSpec::suite_default();
        let r = evaluate(&spec, &snap, &spans);
        let json = r.to_json();
        assert!(json["objectives"].as_array().is_some());
        assert_eq!(json["cold_start_rate"].as_f64(), Some(0.2));
        assert!(json["ok"].is_boolean());
        // Two evaluations of the same run are bitwise identical.
        let again = evaluate(&spec, &snap, &spans).to_json();
        assert_eq!(json.to_string(), again.to_string());
    }
}
