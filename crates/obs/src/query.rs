//! Trace query engine: filter, rank, group, and fold a finished span
//! tree. This is the library behind the `obsq` binary, but it is a
//! plain-function API usable from tests and examples too
//! (`examples/trace_explorer.rs` drives it against a live run).
//!
//! Everything here is deterministic: filters preserve recording order,
//! rankings break duration ties by span id, group rows come out in
//! `BTreeMap` key order, and group percentiles come from the same
//! [`LogHistogram`](crate::LogHistogram) buckets the metrics registry
//! uses — so query output over the same trace is byte-identical across
//! runs and platforms.

use std::collections::BTreeMap;

use crate::hist::LogHistogram;
use crate::span::{Category, Span, SpanIndex};

/// A span predicate: all set fields must match.
#[derive(Clone, Debug, Default)]
pub struct SpanFilter {
    /// Substring match against `component` (e.g. `"negotiator"`).
    pub component: Option<String>,
    /// Exact category match.
    pub category: Option<Category>,
    /// Keep only spans at least this long (virtual seconds).
    pub min_duration_s: Option<f64>,
}

impl SpanFilter {
    /// The match-everything filter.
    pub fn all() -> SpanFilter {
        SpanFilter::default()
    }

    /// Restrict to components containing `needle`.
    pub fn component(mut self, needle: &str) -> SpanFilter {
        self.component = Some(needle.to_string());
        self
    }

    /// Restrict to one category.
    pub fn category(mut self, category: Category) -> SpanFilter {
        self.category = Some(category);
        self
    }

    /// Restrict to spans of at least `min_s` virtual seconds.
    pub fn min_duration(mut self, min_s: f64) -> SpanFilter {
        self.min_duration_s = Some(min_s);
        self
    }

    /// Does `span` pass?
    pub fn matches(&self, span: &Span) -> bool {
        if let Some(needle) = &self.component {
            if !span.component.contains(needle.as_str()) {
                return false;
            }
        }
        if let Some(category) = self.category {
            if span.category != category {
                return false;
            }
        }
        if let Some(min) = self.min_duration_s {
            if span.duration_secs() < min {
                return false;
            }
        }
        true
    }

    /// All matching spans, in recording order.
    pub fn apply<'a>(&self, spans: &'a [Span]) -> Vec<&'a Span> {
        spans.iter().filter(|s| self.matches(s)).collect()
    }
}

/// The `n` slowest matching spans, longest first (ties broken by span
/// id, so the ranking is stable).
pub fn top_slowest<'a>(spans: &'a [Span], filter: &SpanFilter, n: usize) -> Vec<&'a Span> {
    let mut matched = filter.apply(spans);
    matched.sort_by(|a, b| {
        b.duration_secs()
            .total_cmp(&a.duration_secs())
            .then(a.id.cmp(&b.id))
    });
    matched.truncate(n);
    matched
}

/// What to group spans by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GroupKey {
    /// Group by the full `process/thread` component path.
    Component,
    /// Group by time category.
    Category,
    /// Group by operation name.
    Name,
}

impl GroupKey {
    /// Parse a CLI argument (`component` / `category` / `name`).
    pub fn parse(s: &str) -> Option<GroupKey> {
        match s {
            "component" => Some(GroupKey::Component),
            "category" => Some(GroupKey::Category),
            "name" => Some(GroupKey::Name),
            _ => None,
        }
    }

    fn of(self, span: &Span) -> &str {
        match self {
            GroupKey::Component => &span.component,
            GroupKey::Category => span.category.label(),
            GroupKey::Name => &span.name,
        }
    }
}

/// One aggregation row: duration statistics over a span group.
#[derive(Clone, Debug, PartialEq)]
pub struct GroupRow {
    /// The group's key value.
    pub key: String,
    /// Spans in the group.
    pub count: u64,
    /// Total virtual seconds across the group.
    pub total_s: f64,
    /// Median span duration (log-bucket bound).
    pub p50: f64,
    /// 90th-percentile span duration.
    pub p90: f64,
    /// 99th-percentile span duration.
    pub p99: f64,
    /// Longest span duration (exact).
    pub max_s: f64,
}

/// Group matching spans by `key` and aggregate duration distributions.
/// Rows come back sorted by descending `total_s` (key order on ties) —
/// the "where did the time go" view.
pub fn group_by(spans: &[Span], filter: &SpanFilter, key: GroupKey) -> Vec<GroupRow> {
    let mut groups: BTreeMap<&str, LogHistogram> = BTreeMap::new();
    for span in filter.apply(spans) {
        groups
            .entry(key.of(span))
            .or_default()
            .record(span.duration_secs());
    }
    let mut rows: Vec<GroupRow> = groups
        .into_iter()
        .map(|(key, h)| GroupRow {
            key: key.to_string(),
            count: h.count,
            total_s: h.sum,
            p50: h.percentile(0.50),
            p90: h.percentile(0.90),
            p99: h.percentile(0.99),
            max_s: h.max,
        })
        .collect();
    rows.sort_by(|a, b| {
        b.total_s
            .total_cmp(&a.total_s)
            .then_with(|| a.key.cmp(&b.key))
    });
    rows
}

/// Render group rows as JSON (the `obsq group-by` output).
pub fn group_rows_json(rows: &[GroupRow]) -> serde_json::Value {
    serde_json::Value::Array(
        rows.iter()
            .map(|r| {
                let mut obj = serde_json::Map::new();
                obj.insert("key", serde_json::Value::from(r.key.clone()));
                obj.insert("count", serde_json::Value::from(r.count));
                obj.insert("total_s", serde_json::Value::from(r.total_s));
                obj.insert("p50", serde_json::Value::from(r.p50));
                obj.insert("p90", serde_json::Value::from(r.p90));
                obj.insert("p99", serde_json::Value::from(r.p99));
                obj.insert("max_s", serde_json::Value::from(r.max_s));
                serde_json::Value::Object(obj)
            })
            .collect(),
    )
}

/// Self time of every span, by slice position: its duration minus that
/// of its children in the slice, clamped at zero.
fn self_times(spans: &[Span], index: &SpanIndex) -> Vec<f64> {
    let mut child_time = vec![0.0; spans.len()];
    for span in spans {
        if let Some(parent) = index.position(span.parent) {
            child_time[parent] += span.duration_secs();
        }
    }
    // Spans that share an id (an imported document can hold such) share
    // the children charged to it.
    let of_children = |s: &Span| index.position(s.id).map_or(0.0, |i| child_time[i]);
    spans
        .iter()
        .map(|s| (s.duration_secs() - of_children(s)).max(0.0))
        .collect()
}

/// Fold a span tree into flamegraph-compatible stack lines:
/// `root;child;grandchild <self-time-µs>`, one line per span with
/// positive self time (duration minus children, clamped at zero),
/// lexicographically sorted. Feed the output straight to
/// `flamegraph.pl` or any folded-stack viewer.
///
/// Any slice folds: a stack ends where a span's parent is not in it, so a
/// filtered slice folds into the stacks of the spans that matched.
pub fn folded_stacks(spans: &[Span]) -> Vec<String> {
    let index = SpanIndex::new(spans);
    let mut lines = Vec::new();
    for (span, self_s) in spans.iter().zip(self_times(spans, &index)) {
        let self_us = (self_s * 1e6).round() as u64;
        if self_us == 0 {
            continue;
        }
        // Walk up to the root to build the stack (frames are `name`). A
        // collector records parents before children; a stack deeper than
        // the slice is a cycle in an imported document, and is cut there.
        let mut frames = vec![span.name.as_str()];
        let mut at = span.parent;
        while let Some(parent) = index.get(at).filter(|_| frames.len() <= spans.len()) {
            frames.push(parent.name.as_str());
            at = parent.parent;
        }
        frames.reverse();
        lines.push(format!("{} {}", frames.join(";"), self_us));
    }
    lines.sort_unstable();
    lines
}

/// One-line "top offender" summary: the category with the largest
/// *self time* (duration minus children, so enclosing workflow roots
/// don't drown out the overheads nested inside them), excluding
/// structural `other` spans. This is what surfaces claim-activation as
/// the dominant cost (≈74 s of the 79.8 s ablation makespan). Returns
/// `None` on an empty trace.
pub fn top_offender(spans: &[Span]) -> Option<String> {
    let mut by_category: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
    for (span, self_s) in spans.iter().zip(self_times(spans, &SpanIndex::new(spans))) {
        let entry = by_category.entry(span.category.label()).or_insert((0, 0.0));
        entry.0 += 1;
        entry.1 += self_s;
    }
    let (label, (count, total_s)) = by_category
        .into_iter()
        .filter(|(label, _)| *label != "other")
        .max_by(|a, b| a.1 .1.total_cmp(&b.1 .1).then_with(|| b.0.cmp(a.0)))?;
    Some(format!(
        "top offender: {label} — {total_s:.1}s self time across {count} spans"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanContext, SpanId};
    use crate::Obs;
    use swf_simcore::{secs, sleep, Sim};

    fn fixture() -> Vec<Span> {
        let obs = Obs::enabled();
        let sim = Sim::new();
        let h = obs.clone();
        sim.block_on(async move {
            let wf = h.span(
                SpanContext::NONE,
                "condor/dagman",
                "workflow:a",
                Category::Queue,
            );
            let act = h.start_span(wf.ctx(), "condor/startd", "activate", Category::Activation);
            sleep(secs(10.0)).await;
            h.end(act);
            let run = h.start_span(wf.ctx(), "node-0/startd", "run", Category::Compute);
            sleep(secs(4.0)).await;
            h.end(run);
            let cold = h.start_span(wf.ctx(), "knative/activator", "cold", Category::ColdStart);
            sleep(secs(2.0)).await;
            h.end(cold);
        });
        obs.spans()
    }

    #[test]
    fn filters_compose() {
        let spans = fixture();
        assert_eq!(SpanFilter::all().apply(&spans).len(), 4);
        assert_eq!(SpanFilter::all().component("condor").apply(&spans).len(), 2);
        assert_eq!(
            SpanFilter::all()
                .category(Category::Activation)
                .apply(&spans)
                .len(),
            1
        );
        assert_eq!(SpanFilter::all().min_duration(3.5).apply(&spans).len(), 3);
        assert_eq!(
            SpanFilter::all()
                .component("condor")
                .min_duration(5.0)
                .apply(&spans)
                .len(),
            2 // workflow root (16s) + activate (10s)
        );
    }

    #[test]
    fn top_slowest_ranks_with_stable_ties() {
        let spans = fixture();
        let top = top_slowest(&spans, &SpanFilter::all(), 2);
        assert_eq!(top[0].name, "workflow:a");
        assert_eq!(top[1].name, "activate");
        // Tie stability: two zero-length spans rank by id.
        let a = Span {
            id: SpanId(1),
            parent: SpanId::NONE,
            component: "x/y".into(),
            name: "a".into(),
            category: Category::Other,
            start: swf_simcore::SimTime::ZERO,
            end: Some(swf_simcore::SimTime::ZERO),
            links: vec![],
        };
        let mut b = a.clone();
        b.id = SpanId(2);
        b.name = "b".into();
        let pair = [b.clone(), a.clone()];
        let ranked = top_slowest(&pair, &SpanFilter::all(), 2);
        assert_eq!(ranked[0].name, "a");
    }

    #[test]
    fn group_by_category_accounts_all_time() {
        let spans = fixture();
        let rows = group_by(&spans, &SpanFilter::all(), GroupKey::Category);
        assert_eq!(rows[0].key, "queue"); // the 16s workflow root
        let activation = rows.iter().find(|r| r.key == "claim-activation").unwrap();
        assert_eq!(activation.count, 1);
        assert!((activation.total_s - 10.0).abs() < 1e-9);
        assert_eq!(activation.max_s, activation.total_s);
        // p50 of a single span is its exact duration (clamped to max).
        assert!((activation.p50 - 10.0).abs() < 1e-9);
    }

    #[test]
    fn folded_stacks_fold_self_time() {
        let spans = fixture();
        let lines = folded_stacks(&spans);
        // activate: 10s self under the workflow root.
        assert!(lines.iter().any(|l| l == "workflow:a;activate 10000000"));
        // root self time = 16 − (10 + 4 + 2) = 0 → no line for the root.
        assert!(!lines.iter().any(|l| l == "workflow:a 0"));
        assert_eq!(lines.len(), 3);
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
    }

    #[test]
    fn folded_stacks_fold_any_slice() {
        let spans = fixture();
        let keep = |filter: SpanFilter| -> Vec<Span> {
            filter.apply(&spans).into_iter().cloned().collect()
        };
        // `run` (id 3, parent 1) alone: id 1 names slot 0, which is `run`
        // itself and not its parent.
        let compute = keep(SpanFilter::all().category(Category::Compute));
        assert_eq!(folded_stacks(&compute), ["run 4000000"]);
        assert_eq!(
            top_offender(&compute).unwrap(),
            "top offender: compute — 4.0s self time across 1 spans"
        );
        // The root and one child of three, not at the slot of its id.
        let mut some = keep(SpanFilter::all().min_duration(10.0));
        some.swap(0, 1);
        assert_eq!(
            folded_stacks(&some),
            ["workflow:a 6000000", "workflow:a;activate 10000000"]
        );
        // A parent cycle (no collector records one) is cut, not followed.
        some[1].parent = some[0].id;
        assert_eq!(
            folded_stacks(&some),
            ["workflow:a;activate;workflow:a 6000000"]
        );
    }

    #[test]
    fn top_offender_names_the_dominant_category_by_self_time() {
        let spans = fixture();
        // The 16s workflow root has zero self time (fully covered by
        // children), so the 10s activation wins, not "queue".
        let line = top_offender(&spans).unwrap();
        assert!(line.starts_with("top offender: claim-activation"), "{line}");
        assert!(top_offender(&[]).is_none());
    }
}
