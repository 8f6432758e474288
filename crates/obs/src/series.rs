//! Virtual-time telemetry series: a snapshot scheduler samples the
//! metrics registry at a fixed virtual interval into per-metric
//! ring-buffered series, so a run produces *trajectories* (queue depth,
//! in-flight invocations, outage windows over time) instead of only
//! end-of-run totals.
//!
//! The sampler is a plain simulation task ([`spawn_sampler`]) driven by
//! `swf_simcore`'s virtual timers: it sleeps the configured interval,
//! samples, and repeats. Because it only *reads* the registry and never
//! mutates simulated state, it cannot perturb virtual-time results; when
//! the driving future of `Sim::block_on` completes, the sampler's pending
//! timer is simply abandoned without advancing the clock. A hard
//! [`MAX_SAMPLES`] cap guarantees termination even under `run_until_idle`.

use std::collections::{BTreeMap, VecDeque};

use swf_simcore::SimDuration;

/// Ring capacity per series: when full, the oldest point is dropped (and
/// counted), bounding memory for arbitrarily long runs.
const CAPACITY: usize = 128;

/// Hard cap on total sampler ticks per collector — the sampler task exits
/// once reached, guaranteeing termination under `run_until_idle`-style
/// drivers.
const MAX_SAMPLES: u64 = 4096;

/// One ring-buffered series of `(virtual nanoseconds, value)` points.
#[derive(Clone, Debug, Default)]
pub(crate) struct RingSeries {
    points: VecDeque<(u64, f64)>,
    dropped: u64,
}

impl RingSeries {
    fn push(&mut self, t_ns: u64, v: f64) {
        if self.points.len() == CAPACITY {
            self.points.pop_front();
            self.dropped += 1;
        }
        self.points.push_back((t_ns, v));
    }
}

/// The collector-side series store: the sampling interval plus every
/// sampled series, keyed by metric name (histograms contribute
/// `<name>.count` and `<name>.p99` sub-series).
#[derive(Default)]
pub(crate) struct SeriesStore {
    pub(crate) interval: Option<SimDuration>,
    series: BTreeMap<String, RingSeries>,
    samples: u64,
}

impl SeriesStore {
    /// Take one sample of the registry at `t_ns`. Returns `false` once
    /// the tick cap is reached (the sampler task uses this to exit).
    pub(crate) fn sample(&mut self, metrics: &crate::metrics::Metrics, t_ns: u64) -> bool {
        if self.interval.is_none() || self.samples >= MAX_SAMPLES {
            return false;
        }
        self.samples += 1;
        for (name, v) in metrics.counters() {
            self.series
                .entry(name.clone())
                .or_default()
                .push(t_ns, v as f64);
        }
        for (name, v) in metrics.gauges() {
            self.series.entry(name.clone()).or_default().push(t_ns, v);
        }
        for (name, h) in metrics.histograms() {
            self.series
                .entry(format!("{name}.count"))
                .or_default()
                .push(t_ns, h.count as f64);
            self.series
                .entry(format!("{name}.p99"))
                .or_default()
                .push(t_ns, h.percentile(0.99));
        }
        true
    }

    /// True once at least one sample was taken.
    pub(crate) fn has_samples(&self) -> bool {
        self.samples > 0
    }

    /// Render as JSON:
    /// `{"interval_s", "samples", "series": {name: {"dropped", "points": [[t_ns, v], ..]}}}`.
    pub(crate) fn to_json(&self) -> serde_json::Value {
        let mut series = serde_json::Map::new();
        for (name, ring) in &self.series {
            let points: Vec<serde_json::Value> = ring
                .points
                .iter()
                .map(|&(t, v)| {
                    serde_json::Value::Array(vec![
                        serde_json::Value::from(t),
                        serde_json::Value::from(v),
                    ])
                })
                .collect();
            let mut obj = serde_json::Map::new();
            obj.insert("dropped".to_string(), serde_json::Value::from(ring.dropped));
            obj.insert("points".to_string(), serde_json::Value::Array(points));
            series.insert(name.clone(), serde_json::Value::Object(obj));
        }
        let mut root = serde_json::Map::new();
        root.insert(
            "interval_s".to_string(),
            serde_json::Value::from(self.interval.map_or(0.0, |i| i.as_secs_f64())),
        );
        root.insert("samples".to_string(), serde_json::Value::from(self.samples));
        root.insert("series".to_string(), serde_json::Value::Object(series));
        serde_json::Value::Object(root)
    }
}

/// Spawn the snapshot scheduler on the current simulation: a task that
/// samples the collector at its configured interval until the collector
/// is dropped, the tick cap is reached, or the simulation ends. A no-op
/// for disabled collectors or collectors without a series configuration,
/// so calm paths stay bit-identical.
///
/// Must be called inside a running simulation (like any `spawn`).
pub fn spawn_sampler(obs: &crate::Obs) {
    let Some(interval) = obs.series_interval() else {
        return;
    };
    if interval.is_zero() {
        return;
    }
    let obs = obs.clone();
    swf_simcore::spawn(async move {
        let mut ticker = swf_simcore::interval(interval);
        loop {
            ticker.tick().await;
            if !obs.sample_now() {
                break;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;
    use swf_simcore::{secs, sleep, Sim};

    #[test]
    fn sampler_records_trajectories_on_the_virtual_clock() {
        let obs = Obs::enabled();
        obs.configure_series(secs(1.0));
        let sim = Sim::new();
        let h = obs.clone();
        sim.block_on(async move {
            spawn_sampler(&h);
            for i in 0..5u64 {
                h.counter_add("test.ticks", 1);
                h.gauge_set("test.depth", i as f64);
                sleep(secs(1.0)).await;
            }
        });
        let json = obs.series_json();
        let points = json["series"]["test.ticks"]["points"]
            .as_array()
            .expect("counter series");
        assert!(points.len() >= 4, "got {} points", points.len());
        // Monotone virtual timestamps, one interval apart.
        let t0 = points[0][0].as_u64().unwrap();
        let t1 = points[1][0].as_u64().unwrap();
        assert_eq!(t1 - t0, 1_000_000_000);
    }

    #[test]
    fn ring_drops_oldest_beyond_capacity() {
        let mut ring = RingSeries::default();
        let n = CAPACITY as u64 + 6;
        for i in 0..n {
            ring.push(i, i as f64);
        }
        assert_eq!(ring.dropped, 6);
        assert_eq!(ring.points.len(), CAPACITY);
        assert_eq!(ring.points.front().copied(), Some((6, 6.0)));
        assert_eq!(ring.points.back().copied(), Some((n - 1, (n - 1) as f64)));
    }

    #[test]
    fn tick_cap_terminates_the_sampler() {
        let obs = Obs::enabled();
        obs.configure_series(secs(1.0));
        let sim = Sim::new();
        let h = obs.clone();
        sim.block_on(async move {
            h.counter_add("test.x", 1);
            spawn_sampler(&h);
        });
        // The driving future finished immediately, but the sampler's
        // pending timers remain; run_until_idle must terminate because of
        // the cap (MAX_SAMPLES ticks + the final refused one).
        sim.run_until_idle();
        let json = obs.series_json();
        assert_eq!(json["samples"].as_u64(), Some(MAX_SAMPLES));
    }

    #[test]
    fn disabled_or_unconfigured_sampler_is_inert() {
        let obs = Obs::enabled(); // no series config
        let sim = Sim::new();
        let h = obs.clone();
        sim.block_on(async move {
            spawn_sampler(&h);
            sleep(secs(5.0)).await;
        });
        assert!(!obs.has_series());
        assert!(obs.series_json()["series"]
            .as_object()
            .is_some_and(|s| s.is_empty()));
    }
}
