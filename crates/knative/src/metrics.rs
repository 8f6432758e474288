//! Per-revision concurrency metrics feeding the autoscaler.
//!
//! The queue-proxy and the activator report in-flight request counts here;
//! the autoscaler scrapes a time-weighted average over its stable and panic
//! windows, exactly like Knative's metric pipeline (collapsed into one
//! in-process collector).

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use swf_simcore::{now, SimDuration, SimTime};

/// One revision's demand.
#[derive(Default)]
struct Demand {
    /// Requests currently being served by queue-proxies.
    in_flight: u64,
    /// Requests buffered at the activator (count toward demand).
    buffered: u64,
    /// (time, concurrency) samples pushed on every change + scrape, at the
    /// virtual clock's `now()` and so in non-decreasing time order — which
    /// lets a window find its start by binary search.
    samples: VecDeque<(SimTime, f64)>,
    /// Lifetime counters.
    total_served: u64,
}

/// Shared metric collector.
#[derive(Clone, Default)]
pub struct MetricHub {
    revisions: Rc<RefCell<BTreeMap<String, Demand>>>,
}

/// RAII guard for one in-flight request.
pub struct InFlightGuard {
    hub: MetricHub,
    revision: String,
}

/// RAII guard for one activator-buffered request.
pub struct BufferedGuard {
    hub: MetricHub,
    revision: String,
}

impl MetricHub {
    /// New, empty hub.
    pub fn new() -> Self {
        Self::default()
    }

    fn with<R>(&self, revision: &str, f: impl FnOnce(&mut Demand) -> R) -> R {
        let mut map = self.revisions.borrow_mut();
        if let Some(m) = map.get_mut(revision) {
            return f(m);
        }
        f(map.entry(revision.to_string()).or_default())
    }

    fn record_sample(m: &mut Demand) {
        let c = (m.in_flight + m.buffered) as f64;
        debug_assert!(
            m.samples.back().is_none_or(|&(t, _)| t <= now()),
            "metric samples must be pushed in time order"
        );
        m.samples.push_back((now(), c));
        // Bound memory: keep ~10 minutes of samples.
        let horizon = now()
            .since(SimTime::ZERO)
            .saturating_sub(SimDuration::from_secs(600));
        while m
            .samples
            .front()
            .map(|(t, _)| t.since(SimTime::ZERO) < horizon)
            .unwrap_or(false)
        {
            m.samples.pop_front();
        }
    }

    /// Mark a request as being served; the guard decrements on drop.
    pub fn start_request(&self, revision: &str) -> InFlightGuard {
        self.with(revision, |m| {
            m.in_flight += 1;
            Self::record_sample(m);
        });
        InFlightGuard {
            hub: self.clone(),
            revision: revision.to_string(),
        }
    }

    /// Mark a request as buffered at the activator.
    pub fn buffer_request(&self, revision: &str) -> BufferedGuard {
        self.with(revision, |m| {
            m.buffered += 1;
            Self::record_sample(m);
        });
        BufferedGuard {
            hub: self.clone(),
            revision: revision.to_string(),
        }
    }

    /// Instantaneous concurrency (served + buffered).
    pub fn concurrency(&self, revision: &str) -> f64 {
        self.with(revision, |m| (m.in_flight + m.buffered) as f64)
    }

    /// Completed requests for a revision.
    pub fn total_served(&self, revision: &str) -> u64 {
        self.with(revision, |m| m.total_served)
    }

    /// Time-weighted average concurrency over the trailing `window`.
    /// Samples carry the concurrency *after* each change, so the value
    /// between two samples is the earlier sample's level.
    pub fn average_concurrency(&self, revision: &str, window: SimDuration) -> f64 {
        let end = now();
        self.with(revision, |m| {
            // Push a synthetic "now" sample so the integral covers the tail.
            Self::record_sample(m);
            window_average(&m.samples, end, window)
        })
    }
}

/// Time-weighted average of `samples` over the `window` ending at `end`.
/// The samples at or before the window start form a prefix (they are in
/// time order), so the start is a binary search and the sum visits only
/// the samples inside the window.
fn window_average(samples: &VecDeque<(SimTime, f64)>, end: SimTime, window: SimDuration) -> f64 {
    let start_t = SimTime::from_nanos(end.as_nanos().saturating_sub(window.as_nanos()));
    let first = samples.partition_point(|&(t, _)| t <= start_t);
    // Level before the first in-window sample: the last one at or before
    // the window start.
    let level_before = first
        .checked_sub(1)
        .and_then(|k| samples.get(k))
        .map_or(0.0, |&(_, c)| c);
    let mut area = 0.0;
    let mut covered = 0.0;
    let mut prev_t = start_t;
    let mut prev_c = level_before;
    for &(t, c) in samples.range(first..) {
        let dt = t.since(prev_t).as_secs_f64();
        area += prev_c * dt;
        covered += dt;
        prev_t = t;
        prev_c = c;
    }
    let dt = end.since(prev_t).as_secs_f64();
    area += prev_c * dt;
    covered += dt;
    if covered <= 0.0 {
        prev_c
    } else {
        area / window.as_secs_f64().max(covered)
    }
}

impl Drop for InFlightGuard {
    fn drop(&mut self) {
        // During Sim teardown leftover request futures are dropped outside
        // the run loop; skip the sample then (no virtual clock to read).
        let in_sim = swf_simcore::try_current().is_some();
        self.hub.with(&self.revision, |m| {
            m.in_flight = m.in_flight.saturating_sub(1);
            m.total_served += 1;
            if in_sim {
                MetricHub::record_sample(m);
            }
        });
    }
}

impl Drop for BufferedGuard {
    fn drop(&mut self) {
        let in_sim = swf_simcore::try_current().is_some();
        self.hub.with(&self.revision, |m| {
            m.buffered = m.buffered.saturating_sub(1);
            if in_sim {
                MetricHub::record_sample(m);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swf_simcore::{secs, sleep, Sim};

    #[test]
    fn in_flight_counts_and_guards() {
        let sim = Sim::new();
        sim.block_on(async {
            let hub = MetricHub::new();
            assert_eq!(hub.concurrency("r"), 0.0);
            let g1 = hub.start_request("r");
            let g2 = hub.start_request("r");
            assert_eq!(hub.concurrency("r"), 2.0);
            drop(g1);
            assert_eq!(hub.concurrency("r"), 1.0);
            drop(g2);
            assert_eq!(hub.concurrency("r"), 0.0);
            assert_eq!(hub.total_served("r"), 2);
        });
    }

    #[test]
    fn buffered_requests_count_toward_demand() {
        let sim = Sim::new();
        sim.block_on(async {
            let hub = MetricHub::new();
            let b = hub.buffer_request("r");
            assert_eq!(hub.concurrency("r"), 1.0);
            drop(b);
            assert_eq!(hub.concurrency("r"), 0.0);
            assert_eq!(hub.total_served("r"), 0); // buffering is not serving
        });
    }

    #[test]
    fn average_is_time_weighted() {
        let sim = Sim::new();
        sim.block_on(async {
            let hub = MetricHub::new();
            // 2 concurrent for 1s, then 0 for 1s → avg over 2s = 1.0.
            let g1 = hub.start_request("r");
            let g2 = hub.start_request("r");
            sleep(secs(1.0)).await;
            drop(g1);
            drop(g2);
            sleep(secs(1.0)).await;
            let avg = hub.average_concurrency("r", secs(2.0));
            assert!((avg - 1.0).abs() < 1e-9, "avg {avg}");
        });
    }

    #[test]
    fn average_over_partial_history_uses_covered_span() {
        let sim = Sim::new();
        sim.block_on(async {
            let hub = MetricHub::new();
            sleep(secs(1.0)).await;
            let _g = hub.start_request("r");
            sleep(secs(1.0)).await;
            // Window 60s but only ~2s of history; level was 1.0 for the
            // trailing second; with window normalization it stays small but
            // positive — what matters for scale-from-zero is > 0.
            let avg = hub.average_concurrency("r", secs(60.0));
            assert!(avg > 0.0);
            // Over exactly the active window the value is the true mean.
            let tight = hub.average_concurrency("r", secs(1.0));
            assert!((tight - 1.0).abs() < 1e-9, "tight {tight}");
        });
    }

    /// The linear scan `average_concurrency` ran before the window start
    /// became a binary search, kept as the oracle.
    fn linear_scan_average(
        samples: &VecDeque<(SimTime, f64)>,
        end: SimTime,
        window: SimDuration,
    ) -> f64 {
        let start_t = SimTime::from_nanos(end.as_nanos().saturating_sub(window.as_nanos()));
        let mut area = 0.0;
        let mut covered = 0.0;
        let mut level_before = 0.0;
        for (t, c) in samples.iter() {
            if *t <= start_t {
                level_before = *c;
            } else {
                break;
            }
        }
        let mut prev_t = start_t;
        let mut prev_c = level_before;
        for (t, c) in samples.iter() {
            if *t <= start_t {
                continue;
            }
            let dt = t.since(prev_t).as_secs_f64();
            area += prev_c * dt;
            covered += dt;
            prev_t = *t;
            prev_c = *c;
        }
        let dt = end.since(prev_t).as_secs_f64();
        area += prev_c * dt;
        covered += dt;
        if covered <= 0.0 {
            prev_c
        } else {
            area / window.as_secs_f64().max(covered)
        }
    }

    #[test]
    fn window_average_equals_the_linear_scan_bitwise() {
        let mut rng = swf_simcore::DetRng::new(25, "kpa-window-oracle");
        for stream in 0..256 {
            // 0..40 samples: empty and one-sample histories included.
            let n = rng.index(40);
            let mut t = rng.uniform_u64(0, 5_000_000_000);
            let mut samples = VecDeque::new();
            for _ in 0..n {
                // A third of the samples repeat the previous instant.
                if !rng.chance(1.0 / 3.0) {
                    t += rng.uniform_u64(1, 2_000_000_000);
                }
                samples.push_back((SimTime::from_nanos(t), rng.index(9) as f64 * 0.5));
            }
            let end = SimTime::from_nanos(t + rng.uniform_u64(0, 1_000_000_000));
            // Random windows, an empty one, one past the whole history, and
            // one starting exactly on each sample.
            let mut windows = vec![
                SimDuration::ZERO,
                SimDuration::from_nanos(rng.uniform_u64(1, 20_000_000_000)),
                SimDuration::from_secs(600),
            ];
            windows.extend(samples.iter().map(|&(ts, _)| end.since(ts)));
            for window in windows {
                assert_eq!(
                    window_average(&samples, end, window).to_bits(),
                    linear_scan_average(&samples, end, window).to_bits(),
                    "stream {stream}, window {window:?}, samples {samples:?}"
                );
            }
        }
        let one = VecDeque::from([(SimTime::from_nanos(3), 2.0)]);
        for (samples, end) in [(VecDeque::new(), 0), (VecDeque::new(), 9), (one, 3)] {
            for window in [SimDuration::ZERO, SimDuration::from_nanos(3)] {
                let end = SimTime::from_nanos(end);
                assert_eq!(
                    window_average(&samples, end, window).to_bits(),
                    linear_scan_average(&samples, end, window).to_bits()
                );
            }
        }
    }
}
