//! Health probes: periodic kubelet checks that drive self-healing.
//!
//! Real kubelets run readiness and liveness probes against each container.
//! Readiness failures take the pod out of its revision's ready endpoints
//! (the knative router only targets ready pods); liveness failures restart
//! the container in place, bumping `restart_count` — the pod object, its
//! node binding and its port all survive the restart.
//!
//! This model folds both into one periodic check of the backing
//! container's phase (a crashed container fails both probes, exactly the
//! chaos fault we inject): after [`ProbeSpec::unready_threshold`]
//! consecutive failures the pod is marked unready, and after
//! [`ProbeSpec::failure_threshold`] the kubelet restarts the container.
//! All timing runs on the virtual clock, so probe cadence is deterministic.

use swf_simcore::SimDuration;

/// Probe configuration attached to a [`crate::PodSpec`].
#[derive(Clone, Copy, Debug)]
pub struct ProbeSpec {
    /// Interval between probe checks (`periodSeconds`).
    pub period: SimDuration,
    /// Consecutive failures before the pod is marked unready and pulled
    /// out of routing (`failureThreshold` on the readiness probe).
    pub unready_threshold: u32,
    /// Consecutive failures before the kubelet restarts the container
    /// (`failureThreshold` on the liveness probe). Must be ≥
    /// `unready_threshold` for the usual unready-then-restart sequence.
    pub failure_threshold: u32,
}

impl Default for ProbeSpec {
    fn default() -> Self {
        ProbeSpec {
            period: SimDuration::from_secs(2),
            unready_threshold: 1,
            failure_threshold: 3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_probe_is_unready_before_restart() {
        let p = ProbeSpec::default();
        assert!(p.unready_threshold <= p.failure_threshold);
        assert!(p.period > SimDuration::ZERO);
    }
}
