//! The metrics registry: counters, gauges, and virtual-time histograms
//! backed by bounded-memory log buckets ([`LogHistogram`]), dumped as
//! JSON with deterministic p50/p90/p95/p99/p999.

use std::collections::BTreeMap;

use crate::hist::LogHistogram;

/// Raw registry storage (inside the collector).
#[derive(Default)]
pub(crate) struct Metrics {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, LogHistogram>,
}

impl Metrics {
    pub(crate) fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    pub(crate) fn gauge_set(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    pub(crate) fn observe(&mut self, name: &str, value: f64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Iterate counters in name order (the snapshot scheduler's source).
    pub(crate) fn counters(&self) -> impl Iterator<Item = (&String, u64)> {
        self.counters.iter().map(|(k, &v)| (k, v))
    }

    /// Iterate gauges in name order.
    pub(crate) fn gauges(&self) -> impl Iterator<Item = (&String, f64)> {
        self.gauges.iter().map(|(k, &v)| (k, v))
    }

    /// Iterate histograms in name order.
    pub(crate) fn histograms(&self) -> impl Iterator<Item = (&String, &LogHistogram)> {
        self.histograms.iter()
    }

    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), HistogramSummary::of(h)))
                .collect(),
        }
    }
}

/// Point-in-time view of the registry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Last-write gauges by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

/// Summary statistics of one histogram. `count`/`mean`/`min`/`max` are
/// exact; the percentiles are log-bucket upper bounds (nearest-rank,
/// ≤ ~4.5% relative quantization, clamped to `[min, max]`).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Arithmetic mean (exact).
    pub mean: f64,
    /// Smallest observation (exact).
    pub min: f64,
    /// Largest observation (exact).
    pub max: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
}

impl HistogramSummary {
    /// Summarize a bucketed histogram.
    pub fn of(h: &LogHistogram) -> HistogramSummary {
        HistogramSummary {
            count: h.count,
            mean: h.mean(),
            min: h.min,
            max: h.max,
            p50: h.percentile(0.50),
            p90: h.percentile(0.90),
            p95: h.percentile(0.95),
            p99: h.percentile(0.99),
            p999: h.percentile(0.999),
        }
    }

    /// The value at a named percentile (used by the SLO engine).
    pub fn at(&self, pctl: crate::slo::Pctl) -> f64 {
        match pctl {
            crate::slo::Pctl::P50 => self.p50,
            crate::slo::Pctl::P90 => self.p90,
            crate::slo::Pctl::P95 => self.p95,
            crate::slo::Pctl::P99 => self.p99,
            crate::slo::Pctl::P999 => self.p999,
        }
    }
}

impl MetricsSnapshot {
    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// A counter's value, if recorded.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// A gauge's value, if recorded.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// A histogram's summary, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms.get(name)
    }

    /// Render as a JSON tree:
    /// `{"counters": {..}, "gauges": {..}, "histograms": {name: {count,
    /// mean, min, max, p50, p90, p95, p99, p999}}}`.
    pub fn to_json(&self) -> serde_json::Value {
        let mut counters = serde_json::Map::new();
        for (k, v) in &self.counters {
            counters.insert(k.clone(), serde_json::Value::from(*v));
        }
        let mut gauges = serde_json::Map::new();
        for (k, v) in &self.gauges {
            gauges.insert(k.clone(), serde_json::Value::from(*v));
        }
        let mut histograms = serde_json::Map::new();
        for (k, h) in &self.histograms {
            let mut obj = serde_json::Map::new();
            obj.insert("count", serde_json::Value::from(h.count));
            obj.insert("mean", serde_json::Value::from(h.mean));
            obj.insert("min", serde_json::Value::from(h.min));
            obj.insert("max", serde_json::Value::from(h.max));
            obj.insert("p50", serde_json::Value::from(h.p50));
            obj.insert("p90", serde_json::Value::from(h.p90));
            obj.insert("p95", serde_json::Value::from(h.p95));
            obj.insert("p99", serde_json::Value::from(h.p99));
            obj.insert("p999", serde_json::Value::from(h.p999));
            histograms.insert(k.clone(), serde_json::Value::Object(obj));
        }
        let mut root = serde_json::Map::new();
        root.insert("counters", serde_json::Value::Object(counters));
        root.insert("gauges", serde_json::Value::Object(gauges));
        root.insert("histograms", serde_json::Value::Object(histograms));
        serde_json::Value::Object(root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_bucket_bounds_near_nearest_rank() {
        let mut m = Metrics::default();
        for v in 1..=100 {
            m.observe("lat", f64::from(v));
        }
        let snap = m.snapshot();
        let h = snap.histogram("lat").unwrap();
        assert_eq!(h.count, 100);
        // Percentiles are log-bucket upper bounds: within +1/16 of the
        // nearest-rank value, never below it.
        for (got, exact) in [(h.p50, 50.0), (h.p95, 95.0), (h.p99, 99.0)] {
            assert!(
                got >= exact && got <= exact * (1.0 + 1.0 / 16.0),
                "got {got}, nearest-rank {exact}"
            );
        }
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 100.0);
        assert!((h.mean - 50.5).abs() < 1e-12);
    }

    #[test]
    fn counters_and_gauges() {
        let mut m = Metrics::default();
        m.counter_add("jobs", 2);
        m.counter_add("jobs", 3);
        m.gauge_set("depth", 4.0);
        m.gauge_set("depth", 2.0);
        let snap = m.snapshot();
        assert_eq!(snap.counter("jobs"), Some(5));
        assert_eq!(snap.gauge("depth"), Some(2.0));
        assert!(!snap.is_empty());
    }

    #[test]
    fn json_shape() {
        let mut m = Metrics::default();
        m.counter_add("invocations", 7);
        m.observe("cold_start_s", 1.5);
        let json = m.snapshot().to_json();
        assert_eq!(json["counters"]["invocations"].as_u64(), Some(7));
        assert_eq!(
            json["histograms"]["cold_start_s"]["count"].as_u64(),
            Some(1)
        );
        assert!(json["histograms"]["cold_start_s"]["p999"].is_number());
        let text = json.to_string();
        let back = serde_json::from_str(&text).unwrap();
        assert_eq!(back["counters"]["invocations"].as_u64(), Some(7));
    }

    #[test]
    fn single_observation_quantiles() {
        let mut m = Metrics::default();
        m.observe("x", 42.0);
        let snap = m.snapshot();
        let h = *snap.histogram("x").unwrap();
        assert_eq!((h.p50, h.p95, h.p99, h.p999), (42.0, 42.0, 42.0, 42.0));
    }
}
