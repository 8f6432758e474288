//! Golden tests for the Chrome-trace exporter.
//!
//! The `golden_chrome*.json` files were printed by the exporter that built
//! a `serde_json::Value` tree and let the shim's writer print it (object
//! keys sorted). The streaming writer that replaced it must produce the
//! same bytes: the two groups of `fixtures/spans.json`, each with and
//! without a prefix, and one group built here whose names and components
//! need every kind of escape and which has causal links (one of them to a
//! span that is not in the list).

use std::path::Path;

use swf_obs::{chrome_trace_to_string, spans_from_json, Category, Span, SpanId};
use swf_simcore::SimTime;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn fixture_group(label: &str) -> Vec<Span> {
    let doc = serde_json::from_str(&fixture("spans.json")).expect("fixture parses");
    let groups = spans_from_json(&doc).expect("swf-spans/v1");
    let group = groups.into_iter().find(|(l, _)| l == label);
    group.expect("group in fixture").1
}

/// (component, name, parent, start ms, end ms, links)
type Row = (
    &'static str,
    &'static str,
    u64,
    u64,
    Option<u64>,
    &'static [u64],
);

/// Names, components and a prefix with `"`, `\`, control bytes and
/// non-ASCII text; a flat component beside a `process/thread` one with the
/// same process; an open span, zero-length spans and links.
fn escapes_group() -> Vec<Span> {
    let ms = |ms: u64| SimTime::from_nanos(ms * 1_000_000);
    // Ids count from 1.
    let rows: [Row; 6] = [
        (
            "nœud-1/kube\"let",
            "pull \"img:1\" — 980 KB",
            0,
            0,
            Some(1_400),
            &[],
        ),
        (
            "nœud-1/back\\slash",
            "tab\there\nnewline",
            1,
            100,
            Some(900),
            &[],
        ),
        ("flat", "bell\u{7}and\u{1f}unit", 0, 250, Some(250), &[1]),
        ("flat/worker", "日本語 😀", 3, 300, None, &[2, 99, 1]),
        ("nœud-1/kube\"let", "", 0, 1_400, Some(1_400), &[4]),
        ("a\u{0}b/c\rd", "\\\"", 5, 1_500, Some(2_750), &[]),
    ];
    let spans = rows.iter().zip(1..);
    spans
        .map(|(&(component, name, parent, start, end, links), id)| Span {
            id: SpanId(id),
            parent: SpanId(parent),
            component: component.into(),
            name: name.into(),
            category: Category::ALL[id as usize % Category::ALL.len()],
            start: ms(start),
            end: end.map(ms),
            links: links.iter().map(|&l| SpanId(l)).collect(),
        })
        .collect()
}

#[test]
fn streamed_text_equals_the_tree_built_goldens() {
    for label in ["ablation", "serverless"] {
        let spans = fixture_group(label);
        assert_eq!(
            chrome_trace_to_string(&spans, ""),
            fixture(&format!("golden_chrome_{label}.json")),
            "{label}, no prefix"
        );
        assert_eq!(
            chrome_trace_to_string(&spans, label),
            fixture(&format!("golden_chrome_{label}_prefixed.json")),
            "{label}, prefixed"
        );
    }
    assert_eq!(
        chrome_trace_to_string(&escapes_group(), "mix \"α\"\\\u{1}"),
        fixture("golden_chrome_escapes.json")
    );
}
