//! The span/metrics collector and the ambient (thread-local) handle.
//!
//! The simulation is strictly single-threaded, so an ambient collector
//! per thread is sound and keeps instrumentation call sites free of
//! plumbing: components call [`current`] and record. By default the
//! ambient collector is disabled — every recording method is then one
//! branch and an immediate return, which is what keeps tracing
//! zero-cost (and runs bit-identical) when off.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use swf_simcore::{now, SimTime};

use crate::metrics::{Metrics, MetricsSnapshot};
use crate::series::{SeriesConfig, SeriesStore};
use crate::span::{Category, Span, SpanContext, SpanId};

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    anchors: BTreeMap<String, SpanId>,
    metrics: Metrics,
    series: SeriesStore,
}

/// Handle to a run's span tree and metrics registry.
///
/// Clones share the same storage; a disabled handle records nothing.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Rc<RefCell<Inner>>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.is_enabled())
            .field("spans", &self.span_count())
            .finish()
    }
}

impl Obs {
    /// A collector that records nothing (the zero-cost default).
    pub fn disabled() -> Self {
        Obs { inner: None }
    }

    /// A fresh recording collector.
    pub fn enabled() -> Self {
        Obs {
            inner: Some(Rc::new(RefCell::new(Inner::default()))),
        }
    }

    /// True when this handle records.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a span starting now; the caller must [`end`](Obs::end) it
    /// (or use [`span`](Obs::span) for scope-bound spans).
    pub fn start_span(
        &self,
        parent: SpanContext,
        component: &str,
        name: impl Into<String>,
        category: Category,
    ) -> SpanContext {
        let Some(inner) = &self.inner else {
            return SpanContext::NONE;
        };
        let mut inner = inner.borrow_mut();
        let id = SpanId(inner.spans.len() as u64 + 1);
        inner.spans.push(Span {
            id,
            parent: parent.id,
            component: component.to_string(),
            name: name.into(),
            category,
            start: now(),
            end: None,
            links: Vec::new(),
        });
        SpanContext { id }
    }

    /// Open a scope-bound span: ends when the guard drops.
    pub fn span(
        &self,
        parent: SpanContext,
        component: &str,
        name: impl Into<String>,
        category: Category,
    ) -> SpanGuard {
        SpanGuard {
            obs: self.clone(),
            ctx: self.start_span(parent, component, name, category),
        }
    }

    /// Close an open span at the current virtual time (idempotent).
    ///
    /// Outside a running simulation — guards dropped during `Sim`
    /// teardown, when leftover task futures unwind — there is no "current
    /// virtual time", so the span is left open instead of panicking.
    pub fn end(&self, ctx: SpanContext) {
        let Some(inner) = &self.inner else { return };
        if ctx.is_none() {
            return;
        }
        let Some(sim) = swf_simcore::try_current() else {
            return;
        };
        let mut inner = inner.borrow_mut();
        let at = sim.now();
        if let Some(span) = inner.spans.get_mut(ctx.id.0 as usize - 1) {
            if span.end.is_none() {
                span.end = Some(at);
            }
        }
    }

    /// Record a span retroactively with explicit bounds — used where the
    /// duration is only known after the fact (e.g. time a job sat idle
    /// in the schedd queue, measured when the negotiator matches it).
    pub fn record_span(
        &self,
        parent: SpanContext,
        component: &str,
        name: impl Into<String>,
        category: Category,
        start: SimTime,
        end: SimTime,
    ) -> SpanContext {
        let Some(inner) = &self.inner else {
            return SpanContext::NONE;
        };
        let mut inner = inner.borrow_mut();
        let id = SpanId(inner.spans.len() as u64 + 1);
        inner.spans.push(Span {
            id,
            parent: parent.id,
            component: component.to_string(),
            name: name.into(),
            category,
            start,
            end: Some(end.max(start)),
            links: Vec::new(),
        });
        SpanContext { id }
    }

    /// Record that `span` causally depends on `upstream` (a span from
    /// another subtree, e.g. a pod cold start the activator waited on).
    pub fn link_from(&self, span: SpanContext, upstream: SpanContext) {
        let Some(inner) = &self.inner else { return };
        if span.is_none() || upstream.is_none() {
            return;
        }
        let mut inner = inner.borrow_mut();
        if let Some(s) = inner.spans.get_mut(span.id.0 as usize - 1) {
            if !s.links.contains(&upstream.id) {
                s.links.push(upstream.id);
            }
        }
    }

    /// Publish a span under a well-known key (e.g. `pod/matmul-0`) so
    /// other components can [`link_from`](Obs::link_from) it later.
    pub fn set_anchor(&self, key: &str, ctx: SpanContext) {
        let Some(inner) = &self.inner else { return };
        inner.borrow_mut().anchors.insert(key.to_string(), ctx.id);
    }

    /// Look up a published anchor.
    pub fn anchor(&self, key: &str) -> SpanContext {
        let Some(inner) = &self.inner else {
            return SpanContext::NONE;
        };
        inner
            .borrow()
            .anchors
            .get(key)
            .map(|&id| SpanContext { id })
            .unwrap_or(SpanContext::NONE)
    }

    /// Snapshot of all recorded spans (creation order).
    pub fn spans(&self) -> Vec<Span> {
        self.with_spans(<[Span]>::to_vec)
    }

    /// Read the recorded spans in place (creation order), without the
    /// copy [`spans`](Obs::spans) makes. `read` must not record into
    /// this collector: the span list stays borrowed until it returns.
    pub fn with_spans<R>(&self, read: impl FnOnce(&[Span]) -> R) -> R {
        match &self.inner {
            Some(inner) => read(&inner.borrow().spans),
            None => read(&[]),
        }
    }

    /// Number of recorded spans.
    pub fn span_count(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.borrow().spans.len(),
            None => 0,
        }
    }

    /// Add to a named monotonic counter.
    pub fn counter_add(&self, name: &str, delta: u64) {
        let Some(inner) = &self.inner else { return };
        inner.borrow_mut().metrics.counter_add(name, delta);
    }

    /// Set a named gauge.
    pub fn gauge_set(&self, name: &str, value: f64) {
        let Some(inner) = &self.inner else { return };
        inner.borrow_mut().metrics.gauge_set(name, value);
    }

    /// Record one observation into a named histogram (virtual-time
    /// durations in seconds, sizes in bytes — whatever the metric is).
    pub fn observe(&self, name: &str, value: f64) {
        let Some(inner) = &self.inner else { return };
        inner.borrow_mut().metrics.observe(name, value);
    }

    /// Snapshot of the metrics registry.
    pub fn metrics(&self) -> MetricsSnapshot {
        match &self.inner {
            Some(inner) => inner.borrow().metrics.snapshot(),
            None => MetricsSnapshot::default(),
        }
    }

    /// Metrics registry rendered as a JSON tree.
    pub fn metrics_json(&self) -> serde_json::Value {
        self.metrics().to_json()
    }

    /// Install a time-series configuration; the snapshot scheduler
    /// ([`crate::spawn_sampler`]) reads it. A no-op on disabled handles.
    pub fn configure_series(&self, config: SeriesConfig) {
        let Some(inner) = &self.inner else { return };
        inner.borrow_mut().series.config = Some(config);
    }

    /// The configured sampling interval, if any.
    pub fn series_interval(&self) -> Option<swf_simcore::SimDuration> {
        let inner = self.inner.as_ref()?;
        let inner = inner.borrow();
        inner.series.config.as_ref().map(|c| c.interval)
    }

    /// Take one time-series sample at the current virtual time. Returns
    /// `false` when sampling is off, the tick cap is reached, or there is
    /// no running simulation — the sampler task exits on `false`.
    pub fn sample_now(&self) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        let Some(sim) = swf_simcore::try_current() else {
            return false;
        };
        let t_ns = sim.now().as_nanos();
        let mut inner = inner.borrow_mut();
        let inner = &mut *inner;
        inner.series.sample(&inner.metrics, t_ns)
    }

    /// True once at least one time-series sample was taken.
    pub fn has_series(&self) -> bool {
        match &self.inner {
            Some(inner) => inner.borrow().series.has_samples(),
            None => false,
        }
    }

    /// Time-series store rendered as a JSON tree (empty shape when
    /// sampling never ran).
    pub fn series_json(&self) -> serde_json::Value {
        match &self.inner {
            Some(inner) => inner.borrow().series.to_json(),
            None => SeriesStore::default().to_json(),
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Obs> = RefCell::new(Obs::disabled());
}

/// The ambient collector for this thread (disabled unless installed).
pub fn current() -> Obs {
    CURRENT.with(|c| c.borrow().clone())
}

/// Install `obs` as the ambient collector; restores the previous one
/// when the guard drops. Install a fresh collector per simulated run.
pub fn install(obs: Obs) -> InstallGuard {
    let previous = CURRENT.with(|c| std::mem::replace(&mut *c.borrow_mut(), obs));
    InstallGuard { previous }
}

/// Restores the previously installed ambient collector on drop.
pub struct InstallGuard {
    previous: Obs,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        let previous = std::mem::take(&mut self.previous);
        CURRENT.with(|c| *c.borrow_mut() = previous);
    }
}

/// Ends its span when dropped.
pub struct SpanGuard {
    obs: Obs,
    ctx: SpanContext,
}

impl SpanGuard {
    /// The guarded span's context (propagate this to children).
    pub fn ctx(&self) -> SpanContext {
        self.ctx
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.obs.end(self.ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swf_simcore::{secs, sleep, Sim};

    #[test]
    fn disabled_records_nothing() {
        let obs = Obs::disabled();
        let sim = Sim::new();
        let obs2 = obs.clone();
        sim.block_on(async move {
            let obs = obs2;
            let ctx = obs.start_span(SpanContext::NONE, "x/y", "op", Category::Compute);
            assert!(ctx.is_none());
            obs.end(ctx);
            obs.counter_add("c", 1);
            obs.observe("h", 1.0);
        });
        assert_eq!(obs.span_count(), 0);
        assert!(obs.metrics().is_empty());
    }

    #[test]
    fn spans_nest_and_measure_virtual_time() {
        let obs = Obs::enabled();
        let sim = Sim::new();
        let handle = obs.clone();
        sim.block_on(async move {
            let root = handle.span(SpanContext::NONE, "condor/dagman", "wf", Category::Queue);
            sleep(secs(1.0)).await;
            let child = handle.start_span(root.ctx(), "node-0/startd", "run", Category::Compute);
            sleep(secs(2.0)).await;
            handle.end(child);
        });
        let spans = obs.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "wf");
        assert_eq!(spans[1].parent, spans[0].id);
        assert!((spans[1].duration_secs() - 2.0).abs() < 1e-9);
        assert!((spans[0].duration_secs() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn ambient_install_restores_previous() {
        assert!(!current().is_enabled());
        let obs = Obs::enabled();
        {
            let _guard = install(obs.clone());
            assert!(current().is_enabled());
            current().counter_add("hits", 2);
        }
        assert!(!current().is_enabled());
        assert_eq!(obs.metrics().counter("hits"), Some(2));
    }

    #[test]
    fn anchors_and_links() {
        let obs = Obs::enabled();
        let sim = Sim::new();
        let h = obs.clone();
        sim.block_on(async move {
            let pod = h.start_span(
                SpanContext::NONE,
                "node-1/kubelet",
                "pod",
                Category::ColdStart,
            );
            h.set_anchor("pod/matmul-0", pod);
            h.end(pod);
            let wait = h.start_span(
                SpanContext::NONE,
                "knative/activator",
                "wait",
                Category::ColdStart,
            );
            h.link_from(wait, h.anchor("pod/matmul-0"));
            h.link_from(wait, h.anchor("pod/matmul-0")); // dedup
            h.end(wait);
        });
        let spans = obs.spans();
        assert_eq!(spans[1].links, vec![spans[0].id]);
        assert!(obs.anchor("pod/unknown").is_none());
    }
}
