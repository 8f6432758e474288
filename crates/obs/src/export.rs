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

use std::collections::BTreeSet;
use std::rc::Rc;

use swf_simcore::SimTime;

use crate::span::{intern, Category, Span, SpanId};
use crate::Obs;

/// Format tag written into every export.
pub const SPANS_FORMAT: &str = "swf-spans/v1";

fn time_ns(t: SimTime) -> u64 {
    t.as_nanos()
}

/// One span as an object of its eight fields, inserted in key order so
/// that each insert appends.
fn span_to_json(span: &Span) -> serde_json::Value {
    let links = span.links.iter().map(|l| serde_json::Value::from(l.0));
    let mut obj = serde_json::Map::with_capacity(8);
    obj.insert("category", serde_json::Value::from(span.category.label()));
    obj.insert("component", serde_json::Value::from(&*span.component));
    obj.insert("end_ns", serde_json::Value::from(span.end.map(time_ns)));
    obj.insert("id", serde_json::Value::from(span.id.0));
    obj.insert("links", serde_json::Value::Array(links.collect()));
    obj.insert("name", serde_json::Value::String(span.name.clone()));
    obj.insert("parent", serde_json::Value::from(span.parent.0));
    obj.insert("start_ns", serde_json::Value::from(time_ns(span.start)));
    serde_json::Value::Object(obj)
}

/// A span from its object: all eight fields present and of their type
/// (`end_ns` `null` for an open span), or `None`.
fn span_from_json(v: &serde_json::Value, components: &mut BTreeSet<Rc<str>>) -> Option<Span> {
    let end = match v.get("end_ns")? {
        serde_json::Value::Null => None,
        end => Some(SimTime::from_nanos(end.as_u64()?)),
    };
    Some(Span {
        id: SpanId(v["id"].as_u64()?),
        parent: SpanId(v["parent"].as_u64()?),
        component: intern(components, v["component"].as_str()?),
        name: match &v["name"] {
            serde_json::Value::String(name) => name.clone(),
            _ => return None,
        },
        category: Category::from_label(v["category"].as_str()?)?,
        start: SimTime::from_nanos(v["start_ns"].as_u64()?),
        end,
        links: v["links"]
            .as_array()?
            .iter()
            .map(|l| l.as_u64().map(SpanId))
            .collect::<Option<_>>()?,
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
            obj.insert("label", serde_json::Value::from(*label));
            obj.insert("spans", serde_json::Value::Array(spans));
            serde_json::Value::Object(obj)
        })
        .collect();
    let mut root = serde_json::Map::new();
    root.insert("format", serde_json::Value::from(SPANS_FORMAT));
    root.insert("groups", serde_json::Value::Array(groups));
    serde_json::Value::Object(root)
}

/// Parse a `swf-spans/v1` document back into labelled span lists.
/// Returns `None` when the format tag is missing/wrong or any span is
/// malformed (a truncated file should fail loudly, not half-parse).
/// The spans of one document share one copy of each component.
pub fn spans_from_json(doc: &serde_json::Value) -> Option<Vec<(String, Vec<Span>)>> {
    if doc["format"].as_str() != Some(SPANS_FORMAT) {
        return None;
    }
    let mut components = BTreeSet::new();
    let mut out = Vec::new();
    for group in doc["groups"].as_array()? {
        let label = group["label"].as_str()?.to_string();
        let spans: Option<Vec<Span>> = group["spans"]
            .as_array()?
            .iter()
            .map(|span| span_from_json(span, &mut components))
            .collect();
        out.push((label, spans?));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanContext;
    use proptest::prelude::*;
    use serde_json::{json, Value};
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

    /// A one-group `swf-spans/v1` document of these span objects.
    fn document(spans: Vec<Value>) -> Value {
        json!({"format": SPANS_FORMAT, "groups": [{"label": "t", "spans": (spans)}]})
    }

    #[test]
    fn bad_documents_are_rejected() {
        assert!(spans_from_json(&json!({})).is_none());
        assert!(spans_from_json(&json!({"format": "other/v1", "groups": []})).is_none());
        assert!(spans_from_json(&document(vec![json!({"id": 1})])).is_none());
        let valid = json!({
            "category": "queue", "component": "a/b", "end_ns": 5, "id": 1,
            "links": [2], "name": "s", "parent": 0, "start_ns": 1
        });
        assert!(spans_from_json(&document(vec![valid.clone()])).is_some());
        for (field, wrong) in [
            ("parent", json!("0")),
            ("end_ns", json!("5")),
            ("end_ns", json!(5.5)),
            ("links", json!(2)),
            ("links", json!([2, "3"])),
        ] {
            let mut span = valid.clone();
            *span.get_mut(field).unwrap() = wrong.clone();
            assert!(
                spans_from_json(&document(vec![span])).is_none(),
                "{field}: {wrong}"
            );
        }
        let mut no_end = valid;
        no_end.as_object_mut().unwrap().remove("end_ns");
        assert!(spans_from_json(&document(vec![no_end])).is_none());
    }

    const FIELDS: [&str; 8] = [
        "category",
        "component",
        "end_ns",
        "id",
        "links",
        "name",
        "parent",
        "start_ns",
    ];

    /// Values `field` must not hold.
    fn wrong_values(field: &str) -> Vec<Value> {
        let not_integers = vec![
            json!(true),
            json!(-1),
            json!(1.5),
            json!("7"),
            json!([7]),
            json!({}),
        ];
        let not_strings = vec![json!(null), json!(7), json!(["a"]), json!({})];
        match field {
            // `null` is how an open span writes its end.
            "end_ns" => not_integers,
            "id" | "parent" | "start_ns" => [vec![json!(null)], not_integers].concat(),
            "component" | "name" => not_strings,
            "category" => [vec![json!("queues")], not_strings].concat(),
            "links" => vec![
                json!(null),
                json!(7),
                json!("[]"),
                json!({}),
                json!([1, null]),
                json!([1.5]),
                json!([(-1)]),
            ],
            other => panic!("{other} is not a span field"),
        }
    }

    /// Besides escapes and the empty string, one entry of each list is 22
    /// bytes and one 23, the longest a `serde_json::Str` holds in place
    /// and the shortest it boxes.
    const COMPONENTS: [&str; 6] = [
        "condor/dagman",
        "node-1/kubelet",
        "nœud \"2\"/\u{0}",
        "",
        "node-12/queue-proxy-ab",
        "node-12/queue-proxy-abc",
    ];
    const NAMES: [&str; 5] = [
        "workflow:w0",
        "pull \"img\" é→ü",
        "",
        "activator-wait:fn-0001",
        "activator-wait:fn-00012",
    ];

    /// Span lists of a length drawn from the range: ids that repeat or
    /// skip, any parent, open spans, links to any id.
    struct SpanLists(std::ops::Range<u64>);

    impl Strategy for SpanLists {
        type Value = Vec<Span>;
        fn generate(&self, rng: &mut TestRng) -> Vec<Span> {
            (0..self.0.generate(rng))
                .map(|_| {
                    let start = rng.next_u64() >> 1;
                    Span {
                        id: SpanId(rng.next_u64() % 16),
                        parent: SpanId(rng.next_u64() % 16),
                        component: COMPONENTS[(rng.next_u64() % COMPONENTS.len() as u64) as usize]
                            .into(),
                        name: NAMES[(rng.next_u64() % NAMES.len() as u64) as usize].into(),
                        category: Category::ALL[(rng.next_u64() % 12) as usize],
                        start: SimTime::from_nanos(start),
                        end: (rng.next_u64() % 3 < 2)
                            .then(|| SimTime::from_nanos(start + rng.next_u64() % 1_000)),
                        links: (0..rng.next_u64() % 3)
                            .map(|_| SpanId(rng.next_u64()))
                            .collect(),
                    }
                })
                .collect()
        }
    }

    proptest! {
        #[test]
        fn span_lists_round_trip_through_text(spans in SpanLists(0..13)) {
            let text = document(spans.iter().map(span_to_json).collect()).to_string();
            let back = serde_json::from_str(&text).ok().and_then(|doc| spans_from_json(&doc));
            prop_assert_eq!(back, Some(vec![("t".to_string(), spans)]));
        }

        #[test]
        fn a_field_of_the_wrong_type_is_rejected(
            spans in SpanLists(1..13),
            at in any::<usize>(),
            field in 0..FIELDS.len(),
        ) {
            let objects: Vec<Value> = spans.iter().map(span_to_json).collect();
            let (at, field) = (at % objects.len(), FIELDS[field]);
            for wrong in wrong_values(field) {
                let mut objects = objects.clone();
                *objects[at].get_mut(field).unwrap() = wrong.clone();
                prop_assert!(spans_from_json(&document(objects)).is_none(), "{field}: {wrong}");
            }
        }
    }
}
