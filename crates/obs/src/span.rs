//! Span types: identities, contexts, categories and the span record.

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use swf_simcore::SimTime;

/// Identity of one span inside a run's collector (1-based; 0 = none).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null id.
    pub const NONE: SpanId = SpanId(0);

    /// True for the null id.
    pub fn is_none(&self) -> bool {
        self.0 == 0
    }
}

/// A propagatable reference to a span — small enough to copy through
/// job ads, HTTP headers and async task boundaries.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SpanContext {
    /// The referenced span (NONE when tracing is disabled).
    pub id: SpanId,
}

impl SpanContext {
    /// The empty context (what disabled tracing propagates).
    pub const NONE: SpanContext = SpanContext { id: SpanId::NONE };

    /// True when there is no referenced span.
    pub fn is_none(&self) -> bool {
        self.id.is_none()
    }

    /// Encode for an HTTP header (W3C-traceparent-like, but local).
    pub fn to_header(self) -> String {
        format!("swf-{:016x}", self.id.0)
    }

    /// Decode a header produced by [`SpanContext::to_header`].
    pub fn from_header(value: &str) -> SpanContext {
        value
            .strip_prefix("swf-")
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            .map(|id| SpanContext { id: SpanId(id) })
            .unwrap_or(SpanContext::NONE)
    }
}

/// The header key used to carry a [`SpanContext`] over the simulated
/// HTTP fabric.
pub const TRACE_HEADER: &str = "swf-traceparent";

/// What kind of time a span accounts for — the paper's overhead taxonomy.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Category {
    /// Waiting in a scheduler queue (schedd idle, DAGMan polling).
    Queue,
    /// Matchmaking work in the negotiator.
    Negotiate,
    /// Claim activation: matched but waiting for the startd to begin.
    Activation,
    /// File/data movement (sandbox stage-in/out, payload transfer).
    Transfer,
    /// Container image pulls / docker load.
    Pull,
    /// Cold start: waiting for a pod/endpoint to become ready.
    ColdStart,
    /// Container create/start overhead.
    Create,
    /// Container stop/remove overhead.
    Destroy,
    /// Payload (de)serialization for pass-by-value invocation.
    Serialize,
    /// Real kernel compute.
    Compute,
    /// Runtime DAG expansion: a dynamic-workflow trigger reading completed
    /// outputs and deciding successor jobs (swf-apps).
    Expand,
    /// Anything else (structural/bookkeeping spans).
    Other,
}

impl Category {
    /// Every category, in display order.
    pub const ALL: [Category; 12] = [
        Category::Queue,
        Category::Negotiate,
        Category::Activation,
        Category::Transfer,
        Category::Pull,
        Category::ColdStart,
        Category::Create,
        Category::Destroy,
        Category::Serialize,
        Category::Compute,
        Category::Expand,
        Category::Other,
    ];

    /// Parse a label produced by [`Category::label`] (trace import).
    pub fn from_label(label: &str) -> Option<Category> {
        Category::ALL.into_iter().find(|c| c.label() == label)
    }

    /// Stable lowercase label (used in tables and trace exports).
    pub fn label(&self) -> &'static str {
        match self {
            Category::Queue => "queue",
            Category::Negotiate => "negotiate",
            Category::Activation => "claim-activation",
            Category::Transfer => "transfer",
            Category::Pull => "pull",
            Category::ColdStart => "cold-start",
            Category::Create => "create",
            Category::Destroy => "destroy",
            Category::Serialize => "serialize",
            Category::Compute => "compute",
            Category::Expand => "expand",
            Category::Other => "other",
        }
    }
}

impl std::fmt::Display for Category {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One recorded span: a named interval of virtual time attributed to a
/// component, with a parent and optional causal links.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// This span's id (its 1-based index in the collector).
    pub id: SpanId,
    /// Enclosing span (NONE for roots).
    pub parent: SpanId,
    /// `process/thread` location, e.g. `node-2/kubelet` or
    /// `condor/negotiator`. A run has a few dozen distinct components
    /// over hundreds of thousands of spans, so a collector (and an import)
    /// keeps one copy of each, which its spans share.
    pub component: Rc<str>,
    /// Human-readable operation name. Most are at most 22 bytes, which a
    /// [`Str`](serde_json::Str) holds in place: recording, copying,
    /// exporting or importing such a span allocates nothing for its name.
    pub name: serde_json::Str,
    /// Time category for breakdown attribution.
    pub category: Category,
    /// Begin (virtual time).
    pub start: SimTime,
    /// End (virtual time); `None` while open.
    pub end: Option<SimTime>,
    /// Upstream spans that causally feed this one from *other* subtrees
    /// (e.g. the pod-start span an activator wait depended on).
    pub links: Vec<SpanId>,
}

impl Span {
    /// End time, treating still-open spans as zero-length.
    pub fn end_or_start(&self) -> SimTime {
        self.end.unwrap_or(self.start)
    }

    /// Duration in seconds (zero while open).
    pub fn duration_secs(&self) -> f64 {
        (self.end_or_start() - self.start).as_secs_f64()
    }

    /// The `process` half of the component path.
    pub fn process(&self) -> &str {
        split_component(&self.component).0
    }

    /// The `thread` half of the component path (process itself if flat).
    pub fn thread(&self) -> &str {
        split_component(&self.component).1
    }
}

/// `(process, thread)` of a component path: the parts before and after
/// the first `/`, or the whole path twice when it has none.
pub(crate) fn split_component(component: &str) -> (&str, &str) {
    component.split_once('/').unwrap_or((component, component))
}

/// The one shared copy of `component` in `components`, added on first use.
pub(crate) fn intern(components: &mut BTreeSet<Rc<str>>, component: &str) -> Rc<str> {
    if let Some(shared) = components.get(component) {
        return Rc::clone(shared);
    }
    let shared = Rc::<str>::from(component);
    components.insert(Rc::clone(&shared));
    shared
}

/// Finds the spans of one slice by id.
///
/// A collector numbers its spans densely (`spans[id - 1].id == id`), and
/// then an id is its own slot and nothing is built. Any other slice — a
/// filtered one, an imported document — gets a map (the last span of an
/// id wins), so a lookup never yields a span of another id.
pub(crate) struct SpanIndex<'a> {
    spans: &'a [Span],
    sparse: Option<BTreeMap<SpanId, usize>>,
}

impl<'a> SpanIndex<'a> {
    pub(crate) fn new(spans: &'a [Span]) -> Self {
        let dense = spans.iter().zip(1u64..).all(|(s, slot)| s.id.0 == slot);
        let by_id = || spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        SpanIndex {
            spans,
            sparse: (!dense).then(by_id),
        }
    }

    /// Where in the slice the span of this id sits, if it is there.
    pub(crate) fn position(&self, id: SpanId) -> Option<usize> {
        match &self.sparse {
            Some(by_id) => by_id.get(&id).copied(),
            None => {
                let slot = usize::try_from(id.0).ok()?.checked_sub(1)?;
                (slot < self.spans.len()).then_some(slot)
            }
        }
    }

    pub(crate) fn get(&self, id: SpanId) -> Option<&'a Span> {
        self.position(id).map(|i| &self.spans[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let ctx = SpanContext { id: SpanId(0xBEEF) };
        assert_eq!(SpanContext::from_header(&ctx.to_header()), ctx);
        assert_eq!(SpanContext::from_header("garbage"), SpanContext::NONE);
        assert_eq!(SpanContext::from_header("swf-zz"), SpanContext::NONE);
        assert!(SpanContext::NONE.is_none());
    }

    #[test]
    fn component_split() {
        let s = Span {
            id: SpanId(1),
            parent: SpanId::NONE,
            component: "node-2/kubelet".into(),
            name: "pod-start".into(),
            category: Category::ColdStart,
            start: SimTime::ZERO,
            end: None,
            links: vec![],
        };
        assert_eq!(s.process(), "node-2");
        assert_eq!(s.thread(), "kubelet");
        assert_eq!(s.duration_secs(), 0.0);
    }

    #[test]
    fn span_index_finds_ids_and_nothing_else() {
        let span = |id| Span {
            id: SpanId(id),
            parent: SpanId::NONE,
            component: "a/b".into(),
            name: format!("s{id}").into(),
            category: Category::Other,
            start: SimTime::ZERO,
            end: None,
            links: vec![],
        };
        let dense = [span(1), span(2), span(3)];
        let sparse = [span(2), span(7), span(3)];
        for (spans, ids) in [(&dense, [1, 2, 3]), (&sparse, [2, 7, 3])] {
            let index = SpanIndex::new(spans);
            for (slot, id) in ids.into_iter().enumerate() {
                assert_eq!(index.position(SpanId(id)), Some(slot));
                assert_eq!(index.get(SpanId(id)).unwrap().id, SpanId(id));
            }
            for absent in [0, 4, 99, u64::MAX] {
                assert_eq!(index.position(SpanId(absent)), None);
            }
        }
        assert!(SpanIndex::new(&dense).sparse.is_none());
        assert_eq!(SpanIndex::new(&sparse).position(SpanId(1)), None);
    }

    #[test]
    fn category_labels_are_unique() {
        let mut labels: Vec<_> = Category::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Category::ALL.len());
    }
}
