//! Knative platform configuration, calibrated to the paper's measurements.

use swf_simcore::{millis, RetryPolicy, SimDuration};

/// Autoscaler (KPA) parameters.
#[derive(Clone, Copy, Debug)]
pub struct AutoscalerConfig {
    /// Scrape/decide interval.
    pub tick: SimDuration,
    /// Stable window: concurrency is averaged over this span.
    pub stable_window: SimDuration,
    /// Panic window: if short-term concurrency is at least
    /// `panic_threshold ×` current capacity, scale on the short window.
    pub panic_window: SimDuration,
    /// Panic trigger as a multiple of current capacity.
    pub panic_threshold: f64,
    /// Keep the last pod for this long after concurrency reaches zero.
    pub scale_to_zero_grace: SimDuration,
}

impl Default for AutoscalerConfig {
    fn default() -> Self {
        AutoscalerConfig {
            tick: millis(2000),
            stable_window: SimDuration::from_secs(60),
            panic_window: SimDuration::from_secs(6),
            panic_threshold: 2.0,
            scale_to_zero_grace: SimDuration::from_secs(30),
        }
    }
}

/// Data-plane and activator parameters.
#[derive(Clone, Copy, Debug)]
pub struct DataPlaneConfig {
    /// Queue-proxy handling overhead per request.
    pub queue_proxy_overhead: SimDuration,
    /// Activator decision latency on the cold-start path (poking the
    /// autoscaler and re-resolving endpoints).
    pub activator_latency: SimDuration,
    /// Application boot time from container start to readiness (Flask
    /// importing NumPy in the paper's functions).
    pub app_boot: SimDuration,
    /// Queue-proxy admission bound: requests held beyond
    /// `containerConcurrency` before new arrivals are shed with a typed
    /// 503 (`0` = unbounded queue, the historical behaviour).
    pub queue_depth: u32,
}

impl Default for DataPlaneConfig {
    fn default() -> Self {
        DataPlaneConfig {
            // Calibrated so a warm invocation adds ≈ 20 ms beyond compute
            // (Fig. 1: Knative per-task ≈ compute + 0.02 s).
            queue_proxy_overhead: millis(8),
            activator_latency: millis(50),
            // Calibrated so the end-to-end cold start with a cached image
            // lands at the paper's 1.48 s (§III-B).
            app_boot: millis(1250),
            queue_depth: 0,
        }
    }
}

/// Whole-platform configuration.
#[derive(Clone, Copy, Debug)]
pub struct KnativeConfig {
    /// Autoscaler parameters.
    pub autoscaler: AutoscalerConfig,
    /// Data-plane parameters.
    pub data_plane: DataPlaneConfig,
    /// Ingress routing policy (round-robin, or the §IX-D least-loaded
    /// redirection).
    pub routing: crate::router::RoutingPolicy,
    /// Retry schedule for the router's invoke path. The default preserves
    /// the historical behaviour — eight immediate attempts — so calm runs
    /// do not drift; chaos experiments opt into spaced backoff.
    pub invoke_retry: RetryPolicy,
    /// Per-attempt forwarding deadline (`None` = wait indefinitely). A
    /// timed-out attempt counts as retryable, like a reset connection.
    pub attempt_timeout: Option<SimDuration>,
    /// Unread: retries no longer draw jitter, so nothing takes a seed from
    /// here. Kept because the host-time benchmark package writes it.
    pub seed: u64,
    /// Per-revision circuit breaker on the router's invoke path. Disabled
    /// by default (`failure_threshold == 0`), so calm runs keep the
    /// historical path bit-for-bit.
    pub breaker: crate::breaker::BreakerConfig,
    /// Health probe attached to every revision pod (`None` = no probing,
    /// the historical behaviour). Chaos experiments enable it so crashed
    /// containers go unready and get restarted in place.
    pub pod_probe: Option<swf_k8s::ProbeSpec>,
}

impl Default for KnativeConfig {
    fn default() -> Self {
        KnativeConfig {
            autoscaler: AutoscalerConfig::default(),
            data_plane: DataPlaneConfig::default(),
            routing: crate::router::RoutingPolicy::default(),
            invoke_retry: RetryPolicy::immediate(8),
            attempt_timeout: None,
            seed: 0,
            breaker: crate::breaker::BreakerConfig::default(),
            pod_probe: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_knative_conventions() {
        let a = AutoscalerConfig::default();
        assert_eq!(a.stable_window, SimDuration::from_secs(60));
        assert_eq!(a.scale_to_zero_grace, SimDuration::from_secs(30));
        assert!(a.panic_threshold > 1.0);
        let k = KnativeConfig::default();
        assert_eq!(k.invoke_retry.attempts(), 8);
        assert!(
            k.invoke_retry.base.is_zero(),
            "default retries are immediate"
        );
        assert!(k.attempt_timeout.is_none());
    }

    #[test]
    fn cold_start_calibration_sums_toward_paper_value() {
        let d = DataPlaneConfig::default();
        // activator + app boot dominate; container create/start and
        // scheduling add the rest (see swf-container OverheadModel).
        let partial = d.activator_latency + d.app_boot;
        assert!(partial < SimDuration::from_secs_f64(1.48));
        assert!(partial > SimDuration::from_secs_f64(1.2));
    }
}
