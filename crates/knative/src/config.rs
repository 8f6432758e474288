//! Knative platform configuration, calibrated to the paper's measurements.
//! The data-plane constants no experiment varies live at their one use:
//! [`QUEUE_PROXY_OVERHEAD`](crate::pod_server::QUEUE_PROXY_OVERHEAD),
//! [`ACTIVATOR_LATENCY`](crate::router::ACTIVATOR_LATENCY),
//! [`APP_BOOT`](crate::serving::APP_BOOT) and
//! [`PANIC_THRESHOLD`](crate::autoscaler::PANIC_THRESHOLD).

use swf_simcore::{millis, RetryPolicy, SimDuration};

/// Autoscaler (KPA) parameters.
#[derive(Clone, Copy, Debug)]
pub struct AutoscalerConfig {
    /// Scrape/decide interval.
    pub tick: SimDuration,
    /// Stable window: concurrency is averaged over this span.
    pub stable_window: SimDuration,
    /// Panic window: if short-term concurrency is at least
    /// [`PANIC_THRESHOLD`](crate::autoscaler::PANIC_THRESHOLD) × current
    /// capacity, scale on the short window.
    pub panic_window: SimDuration,
    /// Keep the last pod for this long after concurrency reaches zero.
    pub scale_to_zero_grace: SimDuration,
}

impl Default for AutoscalerConfig {
    /// Knative's KPA defaults.
    fn default() -> Self {
        AutoscalerConfig {
            tick: millis(2000),
            stable_window: SimDuration::from_secs(60),
            panic_window: SimDuration::from_secs(6),
            scale_to_zero_grace: SimDuration::from_secs(30),
        }
    }
}

/// Whole-platform configuration.
#[derive(Clone, Copy, Debug)]
pub struct KnativeConfig {
    /// Autoscaler parameters.
    pub autoscaler: AutoscalerConfig,
    /// Ingress routing policy (round-robin, or the §IX-D least-loaded
    /// redirection).
    pub routing: crate::router::RoutingPolicy,
    /// Retry schedule for the router's invoke path. The default is eight
    /// immediate attempts: a refused or reset connection is re-routed to
    /// the next ready endpoint at once. Chaos experiments opt into spaced
    /// backoff.
    pub invoke_retry: RetryPolicy,
    /// Per-attempt forwarding deadline (`None` = wait indefinitely). A
    /// timed-out attempt counts as retryable, like a reset connection.
    pub attempt_timeout: Option<SimDuration>,
    /// Unread: retries no longer draw jitter, so nothing takes a seed from
    /// here. Kept because the host-time benchmark package writes it.
    pub seed: u64,
    /// Arm the self-healing data plane: a health probe on every function
    /// pod ([`POD_PROBE`](crate::serving::POD_PROBE)), so a crashed
    /// container goes unready and is restarted in place; a bounded
    /// queue-proxy ([`QUEUE_DEPTH`](crate::pod_server::QUEUE_DEPTH)) that
    /// sheds overflow with a typed 503; and the per-revision circuit
    /// breaker on the router's invoke path
    /// ([`FAILURE_THRESHOLD`](crate::breaker::FAILURE_THRESHOLD),
    /// [`COOLDOWN`](crate::breaker::COOLDOWN)). Off by default, as in the
    /// paper's runs: a calm pod never crashes, fails a request or overruns
    /// its queue, so there is nothing to heal. The chaos stack's rescue
    /// mode turns it on.
    pub self_healing: bool,
}

impl Default for KnativeConfig {
    fn default() -> Self {
        KnativeConfig {
            autoscaler: AutoscalerConfig::default(),
            routing: crate::router::RoutingPolicy::default(),
            invoke_retry: RetryPolicy::immediate(8),
            attempt_timeout: None,
            seed: 0,
            self_healing: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autoscaler::PANIC_THRESHOLD;
    use crate::router::ACTIVATOR_LATENCY;
    use crate::serving::APP_BOOT;

    #[test]
    fn defaults_match_knative_conventions() {
        let a = AutoscalerConfig::default();
        assert_eq!(a.stable_window, SimDuration::from_secs(60));
        assert_eq!(a.scale_to_zero_grace, SimDuration::from_secs(30));
        const { assert!(PANIC_THRESHOLD > 1.0) };
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
        // activator + app boot dominate; container create/start and
        // scheduling add the rest (see `swf_container::overhead`).
        let partial = ACTIVATOR_LATENCY + APP_BOOT;
        assert!(partial < SimDuration::from_secs_f64(1.48));
        assert!(partial > SimDuration::from_secs_f64(1.2));
    }
}
