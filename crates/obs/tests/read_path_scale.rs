//! The telemetry read path at the size a traced run really exports.
//!
//! 100 k spans are about 17 MB of `swf-spans/v1` text. Neither test
//! reads a clock: a parser or child index that is quadratic in the
//! document takes hours here where a linear one takes a second or two,
//! so a regression shows as a hung `cargo test`.

use std::collections::BTreeMap;

mod common;

use common::{synthetic_run, WORKFLOWS};
use swf_obs::{
    critical_path, spans_from_json, spans_to_json, Category, CritStep, CriticalPath, Span, SpanId,
};
use swf_simcore::SimTime;

#[test]
fn a_hundred_thousand_spans_round_trip_through_text() {
    let obs = synthetic_run();
    let spans = obs.spans();
    assert!(spans.len() >= 100_000, "{} spans", spans.len());
    let text = serde_json::to_string(&spans_to_json(&[("synthetic", &obs)])).expect("render");
    assert!(text.len() > 15_000_000, "{} bytes", text.len());
    let doc = serde_json::from_str(&text).expect("parse");
    let groups = spans_from_json(&doc).expect("swf-spans/v1");
    assert_eq!(groups.len(), 1);
    assert_eq!(groups[0].0, "synthetic");
    assert!(groups[0].1 == spans, "spans differ after the round trip");
    assert!(doc.to_string() == text, "text differs after the round trip");
}

fn secs_of(t: SimTime) -> f64 {
    (t - SimTime::ZERO).as_secs_f64()
}

/// The old child index: an ordered map of `parent → [child ids]`.
fn map_based_children(spans: &[Span]) -> BTreeMap<SpanId, Vec<SpanId>> {
    let mut children: BTreeMap<SpanId, Vec<SpanId>> = BTreeMap::new();
    for s in spans {
        if !s.parent.is_none() {
            children.entry(s.parent).or_default().push(s.id);
        }
    }
    children
}

/// The analyzer as it was before the dense child index, kept verbatim
/// (but for building the map once, not per root) as the reference the
/// indexed analyzer must match bit for bit.
struct Reference<'a> {
    spans: &'a [Span],
    children: &'a BTreeMap<SpanId, Vec<SpanId>>,
    steps: Vec<CritStep>,
    breakdown: BTreeMap<Category, f64>,
}

impl<'a> Reference<'a> {
    fn get(&self, id: SpanId) -> Option<&'a Span> {
        let idx = id.0 as usize;
        if idx == 0 || idx > self.spans.len() {
            return None;
        }
        let s = &self.spans[idx - 1];
        (s.id == id).then_some(s)
    }

    fn contributors(&self, s: &Span) -> Vec<&'a Span> {
        let mut out: Vec<&Span> = Vec::new();
        if let Some(kids) = self.children.get(&s.id) {
            out.extend(kids.iter().filter_map(|&id| self.get(id)));
        }
        out.extend(s.links.iter().filter_map(|&id| self.get(id)));
        out
    }

    fn attribute(&mut self, s: &'a Span, lo: f64, hi: f64) {
        let mut cur = hi;
        let contributors = self.contributors(s);
        while cur > lo + 1e-12 {
            let best = contributors
                .iter()
                .filter(|c| {
                    let start = secs_of(c.start);
                    let end = secs_of(c.end_or_start());
                    start < cur && end.min(cur) > start && end > lo
                })
                .max_by(|a, b| {
                    let key = |c: &Span| {
                        (
                            secs_of(c.end_or_start()).min(cur),
                            secs_of(c.end_or_start()),
                            secs_of(c.start),
                        )
                    };
                    let (ka, kb) = (key(a), key(b));
                    ka.0.total_cmp(&kb.0)
                        .then(ka.1.total_cmp(&kb.1))
                        .then(ka.2.total_cmp(&kb.2))
                        .then(a.id.cmp(&b.id))
                })
                .copied();
            let Some(c) = best else {
                self.push_step(s, lo, cur);
                break;
            };
            let c_start = secs_of(c.start).max(lo);
            let c_end = secs_of(c.end_or_start()).min(cur);
            if c_end < cur {
                self.push_step(s, c_end, cur);
            }
            self.attribute(c, c_start, c_end);
            cur = c_start;
        }
    }

    fn push_step(&mut self, s: &Span, enter: f64, exit: f64) {
        if exit <= enter {
            return;
        }
        *self.breakdown.entry(s.category).or_insert(0.0) += exit - enter;
        self.steps.push(CritStep {
            span: s.id,
            name: s.name.clone(),
            component: s.component.clone(),
            category: s.category,
            enter_s: enter,
            exit_s: exit,
        });
    }

    fn critical_path(
        spans: &'a [Span],
        children: &'a BTreeMap<SpanId, Vec<SpanId>>,
        root: &'a Span,
    ) -> CriticalPath {
        let mut analyzer = Reference {
            spans,
            children,
            steps: Vec::new(),
            breakdown: BTreeMap::new(),
        };
        let lo = secs_of(root.start);
        let hi = secs_of(root.end_or_start());
        analyzer.attribute(root, lo, hi);
        analyzer.steps.reverse();
        CriticalPath {
            root: root.id,
            root_name: root.name.clone(),
            makespan_s: hi - lo,
            steps: analyzer.steps,
            breakdown: analyzer.breakdown,
        }
    }
}

#[test]
fn dense_child_index_gives_the_map_based_critical_paths() {
    let spans = synthetic_run().spans();
    let children = map_based_children(&spans);
    // Every float by bit pattern (`==` alone would let `-0.0` pass for `0.0`).
    let bits = |cp: &CriticalPath| {
        let breakdown = cp.breakdown.iter().map(|(c, s)| (*c, s.to_bits()));
        let steps = cp.steps.iter();
        (
            cp.makespan_s.to_bits(),
            breakdown.collect::<Vec<_>>(),
            steps
                .map(|s| (s.span, s.enter_s.to_bits(), s.exit_s.to_bits()))
                .collect::<Vec<_>>(),
        )
    };
    let mut workflows = 0;
    for root in spans.iter().filter(|s| s.name.starts_with("workflow:")) {
        let got = critical_path(&spans, root.id);
        let want = Reference::critical_path(&spans, &children, root);
        // Far past the task count: the walk descends into jobs and phases.
        assert!(got.steps.len() > 100, "{}: {}", root.name, got.steps.len());
        assert!(bits(&got) == bits(&want), "{}: floats differ", root.name);
        assert!(got == want, "{}", root.name);
        let total: f64 = got.breakdown.values().sum();
        assert!((total - got.makespan_s).abs() < 1e-6, "{}", root.name);
        workflows += 1;
    }
    assert_eq!(workflows, WORKFLOWS);
}
