//! `obs-export`: the telemetry and JSON write path.
//!
//! The same run as `ctrl-scale` (same shape, same seeds) with the program's
//! tracing and the series sampler on, followed by everything a user exports
//! from a traced run: span snapshot, `swf-spans/v1` document and its text,
//! Chrome trace, critical path, metrics, SLO report, series and folded
//! stacks — 110 thousand spans and 18 MB of JSON per pass. The run phase
//! minus a `ctrl-scale` pass is what tracing itself costs.

use std::time::Instant;

use serde_json::{json, Value};
use swf_core::experiments::{run_once, ConcurrentParams};
use swf_core::{slowest_workflow_breakdown, ExperimentConfig};
use swf_obs::{
    chrome_trace_to_string, evaluate_slo, folded_stacks, spans_from_json, spans_to_json, SloSpec,
};

use super::ctrl_scale::{control_plane_config, side, square};
use crate::tracer::Tracer;
use crate::workload::{touch_zero_pool, Checks, LayerCtx, PassOut, Values, Workload};
use crate::{drive, isolate};

/// Virtual seconds between two samples of the metrics registry.
const SERIES_INTERVAL_S: f64 = 5.0;

pub struct ObsExport {
    config: ExperimentConfig,
    params: ConcurrentParams,
}

impl ObsExport {
    pub fn new(seed: u64, smoke: bool, tr: &Tracer, checks: &mut Checks) -> ObsExport {
        let mut config = control_plane_config(seed);
        touch_zero_pool(tr);
        drive::warm_up(&config, checks);
        config.trace = true;
        config.series_interval_s = SERIES_INTERVAL_S;
        ObsExport {
            config,
            params: square(side(smoke)),
        }
    }
}

impl Workload for ObsExport {
    fn pass(&mut self, tr: &Tracer, checks: &mut Checks) -> PassOut {
        let run = tr.span("core.run_once.traced", || {
            run_once(&self.config, self.params, 0)
        });
        checks.passed(self.params.workflows as u64);
        let obs = &run.obs;
        let mut json_s = 0.0;
        let mut json_bytes = 0usize;
        let mut print = |doc: &Value| {
            let started = Instant::now();
            let text = tr.span("json.to_string", || serde_json::to_string(doc));
            json_s += started.elapsed().as_secs_f64();
            let text = text.expect("a Value tree always prints");
            json_bytes += text.len();
            text
        };

        let spans = tr.span("obs.spans_snapshot", || obs.spans());
        let export = tr.span("obs.spans_to_json", || spans_to_json(&[("rep0", obs)]));
        print(&export);
        let chrome = tr.span("obs.chrome", || chrome_trace_to_string(&spans, "rep0"));
        let critical = tr.span("obs.critpath", || slowest_workflow_breakdown(obs));
        let metrics = tr.span("obs.metrics_json", || obs.metrics_json());
        print(&metrics);
        let slo = tr.span("obs.slo", || {
            evaluate_slo(&SloSpec::suite_default(), &obs.metrics(), &spans)
        });
        print(&slo.to_json());
        let series = tr.span("obs.series_json", || obs.series_json());
        print(&series);
        let folded = tr.span("obs.folded", || folded_stacks(&spans));
        checks.passed(9);

        // Output checks, outside the spans: the export loses nothing, and the
        // trace agrees with the run about the slowest workflow.
        let reimported = spans_from_json(&export);
        checks.check(
            reimported.is_some_and(|groups| groups.len() == 1 && groups[0].1 == spans),
            || "spans_from_json(spans_to_json(x)) differs from x".to_string(),
        );
        checks.check(
            critical
                .as_ref()
                .is_some_and(|cp| (cp.makespan_s - run.slowest).abs() < 1e-6),
            || "critical path and run disagree about the slowest workflow".to_string(),
        );
        checks.check(!chrome.is_empty() && !folded.is_empty(), || {
            "empty Chrome trace or folded stacks".to_string()
        });

        let mut out = PassOut::default();
        out.exact.insert("makespan_s", run.slowest);
        out.exact.insert("obs.spans", spans.len() as f64);
        out.exact.insert("json.export_bytes", json_bytes as f64);
        out.host.insert("json_s", json_s);
        out
    }

    fn layers(&mut self, ctx: &LayerCtx, checks: &mut Checks, out: &mut Values) {
        let tr = ctx.tr;
        for (metric, span) in [
            ("obs.spans_snapshot_ms", "obs.spans_snapshot"),
            ("obs.spans_to_json_ms", "obs.spans_to_json"),
            ("obs.chrome_ms", "obs.chrome"),
            ("obs.critpath_ms", "obs.critpath"),
            ("obs.slo_ms", "obs.slo"),
            ("obs.series_json_ms", "obs.series_json"),
            ("obs.folded_ms", "obs.folded"),
        ] {
            out.insert(metric, tr.totals(span).self_ms_per_span());
        }
        let printed = tr.totals("json.to_string");
        if printed.self_ns > 0 {
            out.insert(
                "json.to_string_mb_per_s",
                ctx.exact["json.export_bytes"] / 1e6 / (printed.self_ns as f64 / 1e9),
            );
        }
        // The same run with program tracing off is one `ctrl-scale` pass.
        let mut untraced = self.config.clone();
        untraced.trace = false;
        untraced.series_interval_s = 0.0;
        let reference = tr.span("iso.ctrl-scale.pass", || {
            run_once(&untraced, self.params, 0)
        });
        checks.check(
            reference.slowest.to_bits() == ctx.exact["makespan_s"].to_bits(),
            || "program tracing moved the makespan".to_string(),
        );
        let traced_run = tr.totals("core.run_once.traced");
        let plain_run = tr.totals("iso.ctrl-scale.pass");
        if plain_run.total_ns > 0 {
            out.insert(
                "obs.tracing_overhead_x",
                traced_run.total_ns as f64
                    / traced_run.count.max(1) as f64
                    / plain_run.total_ns as f64,
            );
        }
        isolate::obs_spans(tr, ctx.scale, out);
    }

    fn sizes(&self) -> Value {
        json!({
            "matrix_dim": (self.config.matrix_dim),
            "workflows": (self.params.workflows),
            "tasks_per_workflow": (self.params.tasks_per_workflow),
            "mix": "one third native, serverless, container",
            "series_interval_s": SERIES_INTERVAL_S,
        })
    }
}
