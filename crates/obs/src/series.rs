//! Virtual-time telemetry series: a snapshot scheduler samples the
//! metrics registry at a fixed virtual interval into per-metric
//! series, so a run produces *trajectories* (queue depth,
//! in-flight invocations, outage windows over time) instead of only
//! end-of-run totals.
//!
//! The sampler is a plain simulation task ([`spawn_sampler`]) driven by
//! `swf_simcore`'s virtual timers: it sleeps the configured interval,
//! samples, and repeats. Because it only *reads* the registry and never
//! mutates simulated state, it cannot perturb virtual-time results; when
//! the driving future of `Sim::block_on` completes, the sampler's pending
//! timer is simply abandoned without advancing the clock. A hard
//! [`MAX_SAMPLES`] cap guarantees termination even under `run_until_idle`,
//! and is the one bound on memory: every sample taken is kept.

use std::collections::BTreeMap;

use swf_simcore::SimDuration;

/// Hard cap on total sampler ticks per collector — the sampler task exits
/// once reached, guaranteeing termination under `run_until_idle`-style
/// drivers, and bounding each series at this many points.
const MAX_SAMPLES: u64 = 4096;

/// The collector-side series store: the sampling interval plus every
/// sampled series, keyed by metric name (histograms contribute
/// `<name>.count` and `<name>.p99` sub-series).
#[derive(Default)]
pub(crate) struct SeriesStore {
    pub(crate) interval: Option<SimDuration>,
    /// `(virtual nanoseconds, value)` points per series, in sample order.
    series: BTreeMap<String, Vec<(u64, f64)>>,
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
                .push((t_ns, v as f64));
        }
        for (name, v) in metrics.gauges() {
            self.series.entry(name.clone()).or_default().push((t_ns, v));
        }
        for (name, h) in metrics.histograms() {
            self.series
                .entry(format!("{name}.count"))
                .or_default()
                .push((t_ns, h.count as f64));
            self.series
                .entry(format!("{name}.p99"))
                .or_default()
                .push((t_ns, h.percentile(0.99)));
        }
        true
    }

    /// True once at least one sample was taken.
    pub(crate) fn has_samples(&self) -> bool {
        self.samples > 0
    }

    /// Render as JSON:
    /// `{"interval_s", "samples", "series": {name: {"points": [[t_ns, v], ..]}}}`.
    pub(crate) fn to_json(&self) -> serde_json::Value {
        let mut series = serde_json::Map::new();
        for (name, points) in &self.series {
            let points: Vec<serde_json::Value> = points
                .iter()
                .map(|&(t, v)| {
                    serde_json::Value::Array(vec![
                        serde_json::Value::from(t),
                        serde_json::Value::from(v),
                    ])
                })
                .collect();
            let mut obj = serde_json::Map::new();
            obj.insert("points", serde_json::Value::Array(points));
            series.insert(name.clone(), serde_json::Value::Object(obj));
        }
        let mut root = serde_json::Map::new();
        root.insert(
            "interval_s",
            serde_json::Value::from(self.interval.map_or(0.0, |i| i.as_secs_f64())),
        );
        root.insert("samples", serde_json::Value::from(self.samples));
        root.insert("series", serde_json::Value::Object(series));
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
    fn a_long_run_keeps_every_sample() {
        // 300 intervals: past the 128 points a series once kept.
        let obs = Obs::enabled();
        obs.configure_series(secs(1.0));
        let sim = Sim::new();
        let h = obs.clone();
        sim.block_on(async move {
            spawn_sampler(&h);
            for i in 0..300u64 {
                h.gauge_set("test.depth", i as f64);
                sleep(secs(1.0)).await;
            }
        });
        let json = obs.series_json();
        let samples = json["samples"].as_u64().expect("sample count");
        assert!(samples >= 300, "took {samples} samples");
        let points = json["series"]["test.depth"]["points"]
            .as_array()
            .expect("gauge series");
        assert_eq!(points.len() as u64, samples);
        // The first interval's point is still there, and none is missing.
        assert_eq!(points[0][0].as_u64(), Some(1_000_000_000));
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p[0].as_u64(), Some((i as u64 + 1) * 1_000_000_000));
        }
        assert!(json["series"]["test.depth"].get("dropped").is_none());
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
