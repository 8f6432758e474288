//! Critical-path analysis over a finished span tree.
//!
//! Given a root span, the analyzer walks *backwards* through its
//! contributors (children plus causal links), always following the span
//! that finished last before the current cursor — the chain that
//! actually determined the finish time. Every moment of the root's
//! window is attributed to exactly one category: leaf time to the leaf
//! span's category, un-covered gaps to the enclosing span's category
//! (e.g. the gap between two DAGMan polls attributes to the workflow's
//! `queue` time). The result is both the longest causal chain and a
//! per-category breakdown that sums exactly to the makespan.

use std::collections::BTreeMap;

use swf_simcore::SimTime;

use crate::span::{Category, Span, SpanId, SpanIndex};

/// One leaf segment of the critical path.
#[derive(Clone, Debug, PartialEq)]
pub struct CritStep {
    /// The span active during this segment.
    pub span: SpanId,
    /// Its operation name.
    pub name: String,
    /// Its `process/thread` component.
    pub component: String,
    /// Its category.
    pub category: Category,
    /// Segment start, seconds of virtual time.
    pub enter_s: f64,
    /// Segment end, seconds of virtual time.
    pub exit_s: f64,
}

/// The analyzed critical path of one root span.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CriticalPath {
    /// The analyzed root.
    pub root: SpanId,
    /// The root's name.
    pub root_name: String,
    /// Root window length in seconds (equals the breakdown's total).
    pub makespan_s: f64,
    /// Leaf segments in chronological order.
    pub steps: Vec<CritStep>,
    /// Seconds attributed per category.
    pub breakdown: BTreeMap<Category, f64>,
}

impl CriticalPath {
    /// Seconds attributed to `category`.
    pub fn seconds(&self, category: Category) -> f64 {
        self.breakdown.get(&category).copied().unwrap_or(0.0)
    }

    /// Render the per-category table, largest share first.
    pub fn render_breakdown(&self) -> String {
        use std::fmt::Write;
        let mut rows: Vec<(Category, f64)> = Category::ALL
            .iter()
            .map(|&c| (c, self.seconds(c)))
            .filter(|(_, s)| *s > 0.0)
            .collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut out = String::new();
        let _ = writeln!(out, "  {:<18} {:>12} {:>8}", "category", "seconds", "share");
        for (cat, secs) in &rows {
            let _ = writeln!(
                out,
                "  {:<18} {:>12.3} {:>7.1}%",
                cat.label(),
                secs,
                100.0 * secs / self.makespan_s.max(f64::MIN_POSITIVE)
            );
        }
        let _ = writeln!(
            out,
            "  {:<18} {:>12.3} {:>7.1}%",
            "makespan", self.makespan_s, 100.0
        );
        out
    }

    /// Render as a JSON tree:
    /// `{"root": id, "root_name", "makespan_s", "breakdown": {category: seconds},
    ///   "steps": [{"name", "component", "category", "enter_s", "exit_s"}]}`.
    ///
    /// All fields are virtual-time quantities, so the rendering is
    /// deterministic and byte-comparable across runs (the bench suite's
    /// drift check relies on this).
    pub fn to_json(&self) -> serde_json::Value {
        let mut breakdown = serde_json::Map::new();
        for (cat, secs) in &self.breakdown {
            breakdown.insert(cat.label().to_string(), serde_json::Value::from(*secs));
        }
        let steps: Vec<serde_json::Value> = self
            .steps
            .iter()
            .map(|s| {
                let mut obj = serde_json::Map::new();
                obj.insert("name".to_string(), serde_json::Value::from(s.name.clone()));
                obj.insert(
                    "component".to_string(),
                    serde_json::Value::from(s.component.clone()),
                );
                obj.insert(
                    "category".to_string(),
                    serde_json::Value::from(s.category.label()),
                );
                obj.insert("enter_s".to_string(), serde_json::Value::from(s.enter_s));
                obj.insert("exit_s".to_string(), serde_json::Value::from(s.exit_s));
                serde_json::Value::Object(obj)
            })
            .collect();
        let mut root = serde_json::Map::new();
        root.insert("root".to_string(), serde_json::Value::from(self.root.0));
        root.insert(
            "root_name".to_string(),
            serde_json::Value::from(self.root_name.clone()),
        );
        root.insert(
            "makespan_s".to_string(),
            serde_json::Value::from(self.makespan_s),
        );
        root.insert(
            "breakdown".to_string(),
            serde_json::Value::Object(breakdown),
        );
        root.insert("steps".to_string(), serde_json::Value::Array(steps));
        serde_json::Value::Object(root)
    }

    /// Render the chronological chain of leaf segments.
    pub fn render_chain(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for step in &self.steps {
            let _ = writeln!(
                out,
                "  [{:>10.3}s – {:>10.3}s] {:<16} {:<24} {}",
                step.enter_s,
                step.exit_s,
                step.category.label(),
                step.component,
                step.name
            );
        }
        out
    }
}

/// Root spans (no parent), in id order.
pub fn roots(spans: &[Span]) -> Vec<&Span> {
    spans.iter().filter(|s| s.parent.is_none()).collect()
}

fn secs_of(t: SimTime) -> f64 {
    (t - SimTime::ZERO).as_secs_f64()
}

struct Analyzer<'a> {
    index: SpanIndex<'a>,
    /// Child ids of the span at slice index `i` are
    /// `children[child_offsets[i]..child_offsets[i + 1]]`, in slice order.
    child_offsets: Vec<usize>,
    children: Vec<SpanId>,
    steps: Vec<CritStep>,
    breakdown: BTreeMap<Category, f64>,
}

impl<'a> Analyzer<'a> {
    /// Index every span's children with two counting passes. A parent
    /// id outside the slice gets no bucket: [`Analyzer::get`] never
    /// yields such a span, so its children are never asked for.
    fn new(spans: &'a [Span]) -> Self {
        let index = SpanIndex::new(spans);
        let parent_index = |s: &Span| index.position(s.parent);
        let mut child_offsets = vec![0usize; spans.len() + 1];
        for p in spans.iter().filter_map(parent_index) {
            child_offsets[p + 1] += 1;
        }
        for i in 0..spans.len() {
            child_offsets[i + 1] += child_offsets[i];
        }
        let mut next = child_offsets.clone();
        let mut children = vec![SpanId::NONE; child_offsets[spans.len()]];
        for s in spans {
            if let Some(p) = parent_index(s) {
                children[next[p]] = s.id;
                next[p] += 1;
            }
        }
        Analyzer {
            index,
            child_offsets,
            children,
            steps: Vec::new(),
            breakdown: BTreeMap::new(),
        }
    }

    fn get(&self, id: SpanId) -> Option<&'a Span> {
        self.index.get(id)
    }

    /// Children first (slice order), then causal links.
    fn contributors(&self, s: &Span) -> Vec<&'a Span> {
        let kids = self.index.position(s.id).map_or(&[][..], |i| {
            &self.children[self.child_offsets[i]..self.child_offsets[i + 1]]
        });
        kids.iter()
            .chain(&s.links)
            .filter_map(|&id| self.get(id))
            .collect()
    }

    /// Attribute the window `[lo, hi)` of span `s`, walking backwards.
    fn attribute(&mut self, s: &'a Span, lo: f64, hi: f64) {
        let mut cur = hi;
        let contributors = self.contributors(s);
        while cur > lo + 1e-12 {
            // The contributor active latest before the cursor: maximal
            // clipped end, with deterministic tie-breaks.
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
                // No contributor covers any of [lo, cur): s itself owns it.
                self.push_step(s, lo, cur);
                cur = lo;
                break;
            };
            let c_start = secs_of(c.start).max(lo);
            let c_end = secs_of(c.end_or_start()).min(cur);
            if c_end < cur {
                // Gap after the contributor finished: the enclosing span
                // was "doing" whatever its own category says.
                self.push_step(s, c_end, cur);
            }
            self.attribute(c, c_start, c_end);
            cur = c_start;
        }
        let _ = cur;
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
}

/// Analyze the critical path of `root` within `spans`.
///
/// Returns an empty default if `root` is unknown or zero-length.
pub fn critical_path(spans: &[Span], root: SpanId) -> CriticalPath {
    let mut analyzer = Analyzer::new(spans);
    let Some(root_span) = analyzer.get(root) else {
        return CriticalPath::default();
    };
    let lo = secs_of(root_span.start);
    let hi = secs_of(root_span.end_or_start());
    if hi <= lo {
        return CriticalPath {
            root,
            root_name: root_span.name.clone(),
            ..CriticalPath::default()
        };
    }
    analyzer.attribute(root_span, lo, hi);
    analyzer.steps.reverse();
    CriticalPath {
        root,
        root_name: root_span.name.clone(),
        makespan_s: hi - lo,
        steps: analyzer.steps,
        breakdown: analyzer.breakdown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanContext;
    use crate::Obs;
    use swf_simcore::{secs, sleep, Sim};

    fn span(id: u64, parent: u64, cat: Category, start: f64, end: f64, links: Vec<u64>) -> Span {
        Span {
            id: SpanId(id),
            parent: SpanId(parent),
            component: "p/t".into(),
            name: format!("s{id}"),
            category: cat,
            start: SimTime::ZERO + secs(start),
            end: Some(SimTime::ZERO + secs(end)),
            links: links.into_iter().map(SpanId).collect(),
        }
    }

    #[test]
    fn sequential_children_cover_everything() {
        // root [0,10) queue; children: compute [0,4), transfer [5,9).
        let spans = vec![
            span(1, 0, Category::Queue, 0.0, 10.0, vec![]),
            span(2, 1, Category::Compute, 0.0, 4.0, vec![]),
            span(3, 1, Category::Transfer, 5.0, 9.0, vec![]),
        ];
        let cp = critical_path(&spans, SpanId(1));
        assert!((cp.makespan_s - 10.0).abs() < 1e-9);
        assert!((cp.seconds(Category::Compute) - 4.0).abs() < 1e-9);
        assert!((cp.seconds(Category::Transfer) - 4.0).abs() < 1e-9);
        // Gaps [4,5) and [9,10) go to the root's own category.
        assert!((cp.seconds(Category::Queue) - 2.0).abs() < 1e-9);
        let total: f64 = cp.breakdown.values().sum();
        assert!(
            (total - cp.makespan_s).abs() < 1e-9,
            "breakdown sums to makespan"
        );
        // compute [0,4), gap [4,5), transfer [5,9), gap [9,10).
        assert_eq!(cp.steps.len(), 4);
        assert!(cp
            .steps
            .windows(2)
            .all(|w| w[0].exit_s <= w[1].enter_s + 1e-12));
    }

    #[test]
    fn parallel_children_follow_latest_finisher() {
        // Two overlapping children; the one finishing last wins its window.
        let spans = vec![
            span(1, 0, Category::Other, 0.0, 8.0, vec![]),
            span(2, 1, Category::Compute, 0.0, 8.0, vec![]),
            span(3, 1, Category::Transfer, 0.0, 5.0, vec![]),
        ];
        let cp = critical_path(&spans, SpanId(1));
        assert!((cp.seconds(Category::Compute) - 8.0).abs() < 1e-9);
        assert_eq!(cp.seconds(Category::Transfer), 0.0);
    }

    #[test]
    fn links_pull_in_other_subtrees() {
        // Activator wait [2,6) ColdStart links pod-start [1,5) whose child
        // pull [1,4) dominates; only the overlap is re-attributed.
        let mut wait = span(3, 0, Category::ColdStart, 2.0, 6.0, vec![1]);
        wait.links = vec![SpanId(1)];
        let spans = vec![
            span(1, 0, Category::ColdStart, 1.0, 5.0, vec![]),
            span(2, 1, Category::Pull, 1.0, 4.0, vec![]),
            wait,
        ];
        let cp = critical_path(&spans, SpanId(3));
        assert!((cp.makespan_s - 4.0).abs() < 1e-9);
        // [5,6) gap -> wait's ColdStart; [4,5) pod tail -> ColdStart; [2,4) -> Pull.
        assert!((cp.seconds(Category::Pull) - 2.0).abs() < 1e-9);
        assert!((cp.seconds(Category::ColdStart) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_length_spans_are_ignored() {
        let spans = vec![
            span(1, 0, Category::Other, 0.0, 2.0, vec![]),
            span(2, 1, Category::Compute, 1.0, 1.0, vec![]),
        ];
        let cp = critical_path(&spans, SpanId(1));
        assert!((cp.seconds(Category::Other) - 2.0).abs() < 1e-9);
        assert_eq!(cp.seconds(Category::Compute), 0.0);
    }

    #[test]
    fn unknown_root_is_empty() {
        let cp = critical_path(&[], SpanId(7));
        assert_eq!(cp.makespan_s, 0.0);
        assert!(cp.steps.is_empty());
    }

    #[test]
    fn collector_integration_breakdown_sums() {
        let obs = Obs::enabled();
        let sim = Sim::new();
        let h = obs.clone();
        sim.block_on(async move {
            let wf = h.span(
                SpanContext::NONE,
                "condor/dagman",
                "workflow:w0",
                Category::Queue,
            );
            sleep(secs(1.0)).await;
            let job = h.start_span(
                wf.ctx(),
                "condor/negotiator",
                "negotiate",
                Category::Negotiate,
            );
            sleep(secs(0.5)).await;
            h.end(job);
            let run = h.start_span(wf.ctx(), "node-0/startd", "compute", Category::Compute);
            sleep(secs(3.0)).await;
            h.end(run);
        });
        let spans = obs.spans();
        let roots = roots(&spans);
        assert_eq!(roots.len(), 1);
        let cp = critical_path(&spans, roots[0].id);
        assert!((cp.makespan_s - 4.5).abs() < 1e-9);
        assert!((cp.seconds(Category::Compute) - 3.0).abs() < 1e-9);
        assert!((cp.seconds(Category::Negotiate) - 0.5).abs() < 1e-9);
        assert!((cp.seconds(Category::Queue) - 1.0).abs() < 1e-9);
        let table = cp.render_breakdown();
        assert!(table.contains("compute"));
        assert!(table.contains("makespan"));
        assert!(!cp.render_chain().is_empty());
        let json = cp.to_json();
        assert_eq!(json["root_name"].as_str(), Some("workflow:w0"));
        assert_eq!(json["makespan_s"].as_f64(), Some(cp.makespan_s));
        assert_eq!(
            json["breakdown"]["compute"].as_f64(),
            Some(cp.seconds(Category::Compute))
        );
        assert_eq!(json["steps"].as_array().map(Vec::len), Some(cp.steps.len()));
        // The text form parses back identically — the drift check compares
        // these renderings byte-for-byte across runs.
        let back: serde_json::Value = serde_json::from_str(&json.to_string()).unwrap();
        assert_eq!(back.to_string(), json.to_string());
    }
}
