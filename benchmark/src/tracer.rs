//! The benchmark's own span recorder.
//!
//! Per-layer host times are measured from outside the simulator crates: a
//! span is opened here just before a call into a layer and closed when it
//! returns. Spans live in memory (name, start, end, parent, iteration) and
//! are written out once, when the run ends. A layer's self time is its span's
//! duration minus the part its child spans cover. The recorder is off in the
//! untraced run that produces the end-to-end metrics, where `enter` costs one
//! branch.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use serde_json::{json, Value};

struct SpanRec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    iteration: u32,
}

struct Rec {
    origin: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
    iteration: u32,
}

/// Span recorder; a disabled one records nothing. Clones share one record,
/// so a clone can move into a simulation's `'static` future.
#[derive(Clone)]
pub struct Tracer {
    rec: Option<Rc<RefCell<Rec>>>,
}

/// Closes its span when dropped. Guards must drop in reverse order of
/// creation (they do when held as locals).
pub struct SpanGuard {
    open: Option<(Rc<RefCell<Rec>>, usize)>,
}

/// Totals of every span with one name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed durations, nanoseconds.
    pub total_ns: u64,
    /// Summed durations minus time covered by child spans, nanoseconds.
    pub self_ns: u64,
}

impl SpanTotals {
    /// Self time in milliseconds per span (0 when none was recorded).
    pub fn self_ms_per_span(&self) -> f64 {
        self.self_per_op(self.count) / 1e6
    }

    /// Self time in nanoseconds per `ops` operations (0 when `ops` is 0).
    pub fn self_per_op(&self, ops: u64) -> f64 {
        if ops == 0 {
            0.0
        } else {
            self.self_ns as f64 / ops as f64
        }
    }
}

impl Tracer {
    /// A recorder that records nothing.
    pub fn off() -> Tracer {
        Tracer { rec: None }
    }

    /// A recording tracer; span times count from now.
    pub fn on() -> Tracer {
        Tracer {
            rec: Some(Rc::new(RefCell::new(Rec {
                origin: Instant::now(),
                spans: Vec::new(),
                open: Vec::new(),
                iteration: 0,
            }))),
        }
    }

    /// Open a span; it closes when the returned guard drops.
    pub fn enter(&self, name: &'static str) -> SpanGuard {
        let open = self.rec.as_ref().map(|shared| {
            let mut rec = shared.borrow_mut();
            let index = rec.spans.len();
            let span = SpanRec {
                name,
                start_ns: rec.origin.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent: rec.open.last().copied(),
                iteration: rec.iteration,
            };
            rec.spans.push(span);
            rec.open.push(index);
            (Rc::clone(shared), index)
        });
        SpanGuard { open }
    }

    /// Time `f` under a span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _guard = self.enter(name);
        f()
    }

    /// Start the next iteration: spans opened from now on carry its id.
    pub fn next_iteration(&self) {
        if let Some(rec) = &self.rec {
            rec.borrow_mut().iteration += 1;
        }
    }

    /// Totals of the spans called `name`.
    pub fn totals(&self, name: &str) -> SpanTotals {
        let Some(rec) = &self.rec else {
            return SpanTotals::default();
        };
        let rec = rec.borrow();
        let mut children_ns = vec![0u64; rec.spans.len()];
        for span in &rec.spans {
            if let Some(parent) = span.parent {
                children_ns[parent] += span.end_ns.saturating_sub(span.start_ns);
            }
        }
        let mut totals = SpanTotals::default();
        for (span, children) in rec.spans.iter().zip(&children_ns) {
            if span.name == name {
                let duration = span.end_ns.saturating_sub(span.start_ns);
                totals.count += 1;
                totals.total_ns += duration;
                totals.self_ns += duration.saturating_sub(*children);
            }
        }
        totals
    }

    /// Every span as `{name, start_ns, end_ns, parent, iteration}`; `parent`
    /// is an index into the same list, or null for a root.
    pub fn to_json(&self) -> Value {
        let Some(rec) = &self.rec else {
            return Value::Array(Vec::new());
        };
        let spans = rec
            .borrow()
            .spans
            .iter()
            .map(|s| {
                json!({
                    "name": (s.name),
                    "start_ns": (s.start_ns),
                    "end_ns": (s.end_ns),
                    "parent": (s.parent.map(|p| p as u64)),
                    "iteration": (s.iteration),
                })
            })
            .collect();
        Value::Array(spans)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((rec, index)) = self.open.take() else {
            return;
        };
        let mut rec = rec.borrow_mut();
        rec.spans[index].end_ns = rec.origin.elapsed().as_nanos() as u64;
        // Guards are locals, so the innermost open span is this one.
        let closed = rec.open.pop();
        debug_assert_eq!(closed, Some(index), "span guards dropped out of order");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let tr = Tracer::on();
        {
            let _outer = tr.enter("outer");
            tr.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            tr.span("inner", || ());
        }
        let outer = tr.totals("outer");
        let inner = tr.totals("inner");
        assert_eq!((outer.count, inner.count), (1, 2));
        assert!(inner.total_ns >= 5_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        let doc = tr.to_json();
        assert!(doc[0]["parent"].is_null());
        assert_eq!(doc[1]["parent"].as_u64(), Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::off();
        assert_eq!(tr.span("x", || 7), 7);
        assert_eq!(tr.to_json(), Value::Array(Vec::new()));
        assert_eq!(tr.totals("x"), SpanTotals::default());
    }
}
