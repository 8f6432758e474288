//! Span export/import: the `swf-spans/v1` JSON interchange format.
//!
//! Chrome-trace export ([`crate::chrome_trace_to_string`]) is lossy — it
//! flattens the span tree into events for a viewer. This format is the
//! lossless one: every field of every [`Span`] round-trips, so
//! the `obsq` binary can query a file produced by a previous suite run
//! exactly as it would query a live collector, and golden tests can
//! check in a fixture trace.
//!
//! Shape:
//! ```json
//! {"format": "swf-spans/v1",
//!  "groups": [{"label": "fig1", "spans": [
//!     {"id": 1, "parent": 0, "component": "condor/dagman",
//!      "name": "workflow:wf-0", "category": "queue",
//!      "start_ns": 0, "end_ns": 1000000000, "links": []}, ..]}]}
//! ```

use swf_simcore::SimTime;

use crate::span::{Category, Span, SpanId};
use crate::Obs;

/// Format tag written into every export.
pub const SPANS_FORMAT: &str = "swf-spans/v1";

fn time_ns(t: SimTime) -> u64 {
    t.as_nanos()
}

fn span_to_json(span: &Span) -> serde_json::Value {
    let mut obj = serde_json::Map::new();
    obj.insert("id".to_string(), serde_json::Value::from(span.id.0));
    obj.insert("parent".to_string(), serde_json::Value::from(span.parent.0));
    obj.insert(
        "component".to_string(),
        serde_json::Value::from(span.component.clone()),
    );
    obj.insert(
        "name".to_string(),
        serde_json::Value::from(span.name.clone()),
    );
    obj.insert(
        "category".to_string(),
        serde_json::Value::from(span.category.label()),
    );
    obj.insert(
        "start_ns".to_string(),
        serde_json::Value::from(time_ns(span.start)),
    );
    obj.insert(
        "end_ns".to_string(),
        serde_json::Value::from(span.end.map(time_ns)),
    );
    obj.insert(
        "links".to_string(),
        serde_json::Value::Array(
            span.links
                .iter()
                .map(|l| serde_json::Value::from(l.0))
                .collect(),
        ),
    );
    serde_json::Value::Object(obj)
}

fn span_from_json(v: &serde_json::Value) -> Option<Span> {
    Some(Span {
        id: SpanId(v["id"].as_u64()?),
        parent: SpanId(v["parent"].as_u64().unwrap_or(0)),
        component: v["component"].as_str()?.to_string(),
        name: v["name"].as_str()?.to_string(),
        category: Category::from_label(v["category"].as_str()?)?,
        start: SimTime::from_nanos(v["start_ns"].as_u64()?),
        end: v["end_ns"].as_u64().map(SimTime::from_nanos),
        links: v["links"]
            .as_array()
            .map(|a| a.iter().filter_map(|l| l.as_u64().map(SpanId)).collect())
            .unwrap_or_default(),
    })
}

/// Export labelled collectors as one `swf-spans/v1` document (the
/// suite passes one group per scenario).
pub fn spans_to_json(groups: &[(&str, &Obs)]) -> serde_json::Value {
    let groups: Vec<serde_json::Value> = groups
        .iter()
        .map(|(label, obs)| {
            let spans = obs.with_spans(|spans| spans.iter().map(span_to_json).collect());
            let mut obj = serde_json::Map::new();
            obj.insert("label".to_string(), serde_json::Value::from(*label));
            obj.insert("spans".to_string(), serde_json::Value::Array(spans));
            serde_json::Value::Object(obj)
        })
        .collect();
    let mut root = serde_json::Map::new();
    root.insert("format".to_string(), serde_json::Value::from(SPANS_FORMAT));
    root.insert("groups".to_string(), serde_json::Value::Array(groups));
    serde_json::Value::Object(root)
}

/// Parse a `swf-spans/v1` document back into labelled span lists.
/// Returns `None` when the format tag is missing/wrong or any span is
/// malformed (a truncated file should fail loudly, not half-parse).
pub fn spans_from_json(doc: &serde_json::Value) -> Option<Vec<(String, Vec<Span>)>> {
    if doc["format"].as_str() != Some(SPANS_FORMAT) {
        return None;
    }
    let mut out = Vec::new();
    for group in doc["groups"].as_array()? {
        let label = group["label"].as_str()?.to_string();
        let spans: Option<Vec<Span>> = group["spans"]
            .as_array()?
            .iter()
            .map(span_from_json)
            .collect();
        out.push((label, spans?));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanContext;
    use swf_simcore::{secs, sleep, Sim};

    #[test]
    fn export_roundtrips_losslessly() {
        let obs = Obs::enabled();
        let sim = Sim::new();
        let h = obs.clone();
        sim.block_on(async move {
            let root = h.span(
                SpanContext::NONE,
                "condor/dagman",
                "workflow:x",
                Category::Queue,
            );
            let open = h.start_span(root.ctx(), "knative/activator", "wait", Category::ColdStart);
            h.link_from(open, root.ctx());
            sleep(secs(1.5)).await;
            // `open` is left open on purpose: end=None must round-trip.
        });
        let original = obs.spans();
        let doc = spans_to_json(&[("t", &obs)]);
        let back = spans_from_json(&doc).expect("parse");
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].0, "t");
        assert_eq!(back[0].1, original);
        assert!(back[0].1[1].end.is_none());
        assert_eq!(back[0].1[1].links, vec![original[0].id]);
    }

    #[test]
    fn bad_documents_are_rejected() {
        assert!(spans_from_json(&serde_json::json!({})).is_none());
        assert!(
            spans_from_json(&serde_json::json!({"format": "other/v1", "groups": []})).is_none()
        );
        let truncated = serde_json::json!({
            "format": SPANS_FORMAT,
            "groups": [{"label": "t", "spans": [{"id": 1}]}],
        });
        assert!(spans_from_json(&truncated).is_none());
    }
}
