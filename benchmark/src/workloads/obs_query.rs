//! `obs-query`: the telemetry and JSON read path.
//!
//! Set-up traces one concurrent run and writes what a user would have on
//! disk afterwards: a `swf-spans/v1` export and two benchmark result
//! documents. The measured pass is what `obsq` and `suite compare` then do
//! with them: parse the text, import the spans, rank, group, fold, find the
//! critical path of every workflow, and diff the two documents. The same
//! layers as `obs-export`, used the other way, so a gain for writing that
//! costs reading shows here.

use std::time::Instant;

use serde_json::{json, Value};
use swf_core::experiments::run_once;
use swf_core::slowest_workflow_breakdown;
use swf_obs::{
    critical_path, evaluate_slo, folded_stacks, group_by, roots, spans_from_json, spans_to_json,
    top_offender, top_slowest, GroupKey, SloSpec, Span, SpanFilter,
};

use super::ctrl_scale::{control_plane_config, square};
use crate::drive;
use crate::tracer::Tracer;
use crate::workload::{touch_zero_pool, Checks, LayerCtx, PassOut, Values, Workload};

pub struct ObsQuery {
    side: usize,
    /// The spans as recorded, to check the import against.
    recorded: Vec<Span>,
    /// Mean workflow makespan of the traced run, to check the critical paths
    /// against.
    mean_makespan: f64,
    export_text: String,
    result_texts: [String; 2],
}

impl ObsQuery {
    pub fn new(seed: u64, smoke: bool, tr: &Tracer, checks: &mut Checks) -> ObsQuery {
        // `from_str` is quadratic in the document at this commit: the full
        // size is chosen so that one pass takes a few seconds today.
        let side = if smoke { 6 } else { 18 };
        let mut config = control_plane_config(seed);
        touch_zero_pool(tr);
        drive::warm_up(&config, checks);
        config.trace = true;
        config.series_interval_s = 5.0;
        let run = run_once(&config, square(side), 0);
        let recorded = run.obs.spans();
        let export_text = spans_to_json(&[("rep0", &run.obs)]).to_string();

        let critical = slowest_workflow_breakdown(&run.obs).map(|cp| cp.to_json());
        let slo = evaluate_slo(&SloSpec::suite_default(), &run.obs.metrics(), &recorded);
        let document = |wall_ms: f64| {
            json!({
                "schema": "swf-bench/v1",
                "quick": true,
                "scenarios": {
                    "concurrent": {
                        "virtual": {
                            "workflow_makespans": (run.workflow_makespans.clone()),
                            "slowest": (run.slowest)
                        },
                        "obs": {
                            "metrics": (run.obs.metrics_json()),
                            "critical_path": (critical.clone())
                        },
                        "slo": (slo.to_json()),
                        "host": { "wall_ms": wall_ms, "events_per_sec": (1e6 / wall_ms) }
                    }
                }
            })
            .to_string()
        };
        ObsQuery {
            side,
            mean_makespan: run.mean,
            recorded,
            export_text,
            result_texts: [document(100.0), document(103.0)],
        }
    }
}

impl Workload for ObsQuery {
    fn pass(&mut self, tr: &Tracer, checks: &mut Checks) -> PassOut {
        let mut json_s = 0.0;
        let mut parse = |text: &str| {
            let started = Instant::now();
            let doc = tr.span("json.from_str", || serde_json::from_str(text));
            json_s += started.elapsed().as_secs_f64();
            doc.map_err(|e| e.to_string())
        };
        let export = checks.check_result(parse(&self.export_text), "span export");
        let results = [0, 1].map(|i| parse(&self.result_texts[i]));
        let json_bytes =
            self.export_text.len() + self.result_texts.iter().map(String::len).sum::<usize>();

        let groups = export
            .as_ref()
            .and_then(|doc| tr.span("obs.spans_from_json", || spans_from_json(doc)));
        let spans = match &groups {
            Some(groups) if groups.len() == 1 => &groups[0].1[..],
            _ => &[],
        };
        checks.check(spans == &self.recorded[..], || {
            "imported spans differ from the recorded ones".to_string()
        });

        let all = SpanFilter::all();
        let slowest_spans = tr.span("obs.top_slowest", || top_slowest(spans, &all, 20));
        let grouped = tr.span("obs.group_by", || {
            [GroupKey::Component, GroupKey::Category, GroupKey::Name]
                .map(|key| group_by(spans, &all, key).len())
        });
        let folded = tr.span("obs.folded", || folded_stacks(spans));
        let offender = tr.span("obs.top_offender", || top_offender(spans));
        let makespans: Vec<f64> = tr.span("obs.critpath", || {
            roots(spans)
                .into_iter()
                .filter(|root| root.name.starts_with("workflow:"))
                .map(|root| critical_path(spans, root.id).makespan_s)
                .collect()
        });
        let mean_makespan = makespans.iter().sum::<f64>() / makespans.len().max(1) as f64;
        checks.passed(5);
        checks.check(
            slowest_spans.len() == 20.min(spans.len())
                && grouped.iter().all(|&rows| rows > 0)
                && !folded.is_empty()
                && offender.is_some(),
            || "a query came back empty".to_string(),
        );
        checks.check((mean_makespan - self.mean_makespan).abs() < 1e-6, || {
            format!(
                "critical paths give a mean workflow makespan of {mean_makespan}s, the run gave {}s",
                self.mean_makespan
            )
        });

        let [old, new] = results.map(|doc| checks.check_result(doc, "result document"));
        if let (Some(old), Some(new)) = (old, new) {
            let report = tr.span("metrics.compare", || swf_metrics::compare(&old, &new, 0.10));
            checks.check(!report.has_drift() && report.virtual_leaves > 0, || {
                "compare saw drift between two documents of one run".to_string()
            });
        }

        let mut out = PassOut::default();
        out.exact.insert("makespan_s", mean_makespan);
        out.exact.insert("obs.spans", spans.len() as f64);
        out.exact.insert("json.export_bytes", json_bytes as f64);
        out.host.insert("json_s", json_s);
        out
    }

    fn layers(&mut self, ctx: &LayerCtx, _checks: &mut Checks, out: &mut Values) {
        let tr = ctx.tr;
        for (metric, span) in [
            ("obs.spans_from_json_ms", "obs.spans_from_json"),
            ("obs.top_slowest_ms", "obs.top_slowest"),
            ("obs.group_by_ms", "obs.group_by"),
            ("obs.folded_ms", "obs.folded"),
            ("obs.critpath_ms", "obs.critpath"),
            ("metrics.compare_ms", "metrics.compare"),
        ] {
            out.insert(metric, tr.totals(span).self_ms_per_span());
        }
        let parsed = tr.totals("json.from_str");
        if parsed.self_ns > 0 {
            // Every traced pass parses the same three documents.
            let passes = (parsed.count / 3).max(1) as f64;
            out.insert(
                "json.from_str_mb_per_s",
                ctx.exact["json.export_bytes"] * passes / 1e6 / (parsed.self_ns as f64 / 1e9),
            );
        }
    }

    fn sizes(&self) -> Value {
        json!({
            "traced_run": (format!("{0}x{0}, one third per venue, quick configuration", self.side)),
            "export_bytes": (self.export_text.len()),
            "result_document_bytes": (self.result_texts[0].len()),
        })
    }
}
