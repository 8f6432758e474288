//! `swf-obs` — observability for the simulated serverless HPC stack.
//!
//! The paper's results (Figs. 1/2/5/6) are *overhead decompositions*:
//! how much of a workflow's makespan is queueing vs. claim activation
//! vs. image pulls vs. cold starts vs. payload serialization vs. real
//! compute. This crate turns the simulation from "the number matches"
//! into "the number matches for the right reason":
//!
//! - **Hierarchical spans** over virtual time ([`Span`], [`SpanContext`]),
//!   with parent links and cross-component causal links, carried through
//!   HTTP headers, condor job ads, and k8s pod anchors.
//! - A **critical-path analyzer** ([`critical_path`]) returning the
//!   longest causal chain through a finished span tree and a
//!   per-category time breakdown of the makespan.
//! - A **metrics registry** (counters, gauges, virtual-time histograms
//!   backed by bounded-memory log buckets, [`LogHistogram`]) dumped as
//!   JSON with deterministic p50/p90/p95/p99/p999.
//! - A **snapshot scheduler** ([`spawn_sampler`], [`Obs::configure_series`])
//!   sampling the registry at a virtual interval into ring-buffered
//!   time series, so runs produce trajectories, not just totals.
//! - A **deterministic SLO engine** ([`SloSpec`], [`SloReport`],
//!   [`evaluate_slo`]): latency objectives, cold-start rate,
//!   per-workflow makespans, error-budget burn.
//! - A **trace query engine** ([`SpanFilter`], [`group_by`],
//!   [`top_slowest`], [`folded_stacks`]) plus the lossless
//!   `swf-spans/v1` interchange format ([`spans_to_json`]) — the
//!   library behind the `obsq` binary.
//! - **Chrome-trace / Perfetto export** ([`chrome_trace_to_string`],
//!   [`ChromeTraceWriter`]): one trace "process" per simulated node, one
//!   "thread" per component, printed straight from the spans.
//!
//! Instrumentation is *zero-cost when disabled*: the default ambient
//! collector is [`Obs::disabled`], and every recording method is a
//! single `Option` branch away from a no-op, so a run with tracing off
//! is bit-identical to an uninstrumented build. Tracing itself never
//! advances virtual time, so even an *enabled* run keeps identical
//! timings — the spans are a pure annotation layer.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![warn(clippy::allow_attributes_without_reason)]

mod chrome;
mod collector;
mod critpath;
mod export;
mod hist;
mod metrics;
mod query;
mod series;
mod slo;
mod span;

pub use chrome::{chrome_trace_to_string, ChromeTraceWriter};
pub use collector::{current, install, InstallGuard, Obs, SpanGuard};
pub use critpath::{critical_path, roots, CritStep, CriticalPath};
pub use export::{spans_from_json, spans_to_json, SPANS_FORMAT};
pub use hist::LogHistogram;
pub use metrics::{HistogramSummary, MetricsSnapshot};
pub use query::{
    folded_stacks, group_by, group_rows_json, top_offender, top_slowest, GroupKey, GroupRow,
    SpanFilter,
};
pub use series::spawn_sampler;
pub use slo::{
    evaluate as evaluate_slo, LatencyObjective, ObjectiveOutcome, Pctl, SloReport, SloSpec,
    WorkflowOutcome,
};
pub use span::{Category, Span, SpanContext, SpanId, TRACE_HEADER};
