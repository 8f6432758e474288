//! Chaos profiles: per-class rates that [`crate::FaultPlan::sample`] turns
//! into a concrete, seed-reproducible schedule.

/// Mean inter-arrival times (seconds of virtual time) and disruption
/// parameters per fault class. An interval of `0.0` disables the class.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChaosProfile {
    /// Mean gap between node crashes.
    pub node_crash_interval: f64,
    /// Mean time a crashed node stays down.
    pub node_outage: f64,
    /// Mean gap between `condor_drain`s.
    pub drain_interval: f64,
    /// Mean length of a drain.
    pub drain_window: f64,
    /// Mean gap between pod kills.
    pub pod_kill_interval: f64,
    /// Mean gap between container crashes (pod survives, container dies —
    /// the fault liveness probes heal in place).
    pub container_crash_interval: f64,
    /// Mean gap between network partitions (submit ↔ worker).
    pub partition_interval: f64,
    /// Mean length of a partition.
    pub partition_window: f64,
    /// Mean gap between link degradations.
    pub degrade_interval: f64,
    /// Mean length of a degradation.
    pub degrade_window: f64,
    /// Latency multiplier while a link is degraded.
    pub degrade_latency_factor: f64,
    /// Bandwidth divisor while a link is degraded.
    pub degrade_bandwidth_factor: f64,
    /// Mean gap between registry outages.
    pub registry_outage_interval: f64,
    /// Mean length of a registry outage.
    pub registry_outage_window: f64,
    /// Mean gap between flaky-task windows.
    pub flaky_interval: f64,
    /// Mean length of a flaky-task window.
    pub flaky_window: f64,
    /// Per-execution failure probability inside a flaky window.
    pub flaky_fail_chance: f64,
    /// Mean gap between slow-task windows.
    pub slow_interval: f64,
    /// Mean length of a slow-task window.
    pub slow_window: f64,
    /// Compute multiplier inside a slow window.
    pub slow_factor: f64,
    /// Mean gap between spot revocations (preemptible-node reclaims).
    pub spot_revoke_interval: f64,
    /// Grace window a revocation notice grants before the hard kill.
    pub spot_grace: f64,
    /// Mean time a revoked spot node stays gone after its grace expires.
    pub spot_outage: f64,
}

impl ChaosProfile {
    /// No faults at all: sampling yields an empty plan.
    pub fn calm() -> ChaosProfile {
        ChaosProfile {
            node_crash_interval: 0.0,
            node_outage: 0.0,
            drain_interval: 0.0,
            drain_window: 0.0,
            pod_kill_interval: 0.0,
            container_crash_interval: 0.0,
            partition_interval: 0.0,
            partition_window: 0.0,
            degrade_interval: 0.0,
            degrade_window: 0.0,
            degrade_latency_factor: 1.0,
            degrade_bandwidth_factor: 1.0,
            registry_outage_interval: 0.0,
            registry_outage_window: 0.0,
            flaky_interval: 0.0,
            flaky_window: 0.0,
            flaky_fail_chance: 0.0,
            slow_interval: 0.0,
            slow_window: 0.0,
            slow_factor: 1.0,
            spot_revoke_interval: 0.0,
            spot_grace: 0.0,
            spot_outage: 0.0,
        }
    }

    /// Occasional single-class disruptions — the seed-sweep default. Rates
    /// are tuned so a ~2-minute quick experiment sees a handful of faults
    /// and still completes every workflow through retries and re-matching.
    pub fn light() -> ChaosProfile {
        ChaosProfile {
            node_crash_interval: 90.0,
            node_outage: 8.0,
            drain_interval: 120.0,
            drain_window: 10.0,
            pod_kill_interval: 60.0,
            container_crash_interval: 0.0,
            partition_interval: 100.0,
            partition_window: 3.0,
            degrade_interval: 70.0,
            degrade_window: 12.0,
            degrade_latency_factor: 4.0,
            degrade_bandwidth_factor: 3.0,
            registry_outage_interval: 150.0,
            registry_outage_window: 5.0,
            flaky_interval: 80.0,
            flaky_window: 10.0,
            flaky_fail_chance: 0.5,
            slow_interval: 60.0,
            slow_window: 15.0,
            slow_factor: 2.0,
            spot_revoke_interval: 0.0,
            spot_grace: 0.0,
            spot_outage: 0.0,
        }
    }

    /// Frequent, overlapping disruptions across every class — the storm
    /// profile of the suite's `rescue` and `heavy` sweeps.
    pub fn heavy() -> ChaosProfile {
        ChaosProfile {
            node_crash_interval: 30.0,
            node_outage: 10.0,
            drain_interval: 40.0,
            drain_window: 12.0,
            pod_kill_interval: 20.0,
            container_crash_interval: 45.0,
            partition_interval: 35.0,
            partition_window: 4.0,
            degrade_interval: 25.0,
            degrade_window: 15.0,
            degrade_latency_factor: 8.0,
            degrade_bandwidth_factor: 6.0,
            registry_outage_interval: 50.0,
            registry_outage_window: 8.0,
            flaky_interval: 30.0,
            flaky_window: 12.0,
            flaky_fail_chance: 0.7,
            slow_interval: 25.0,
            slow_window: 18.0,
            slow_factor: 3.0,
            spot_revoke_interval: 0.0,
            spot_grace: 0.0,
            spot_outage: 0.0,
        }
    }

    /// Spot revocations only: preemptible nodes are reclaimed with a
    /// grace window, every other class is quiet. Isolates the cost of
    /// elasticity — any makespan or goodput delta against `calm` is
    /// attributable to revocation alone.
    pub fn spot() -> ChaosProfile {
        ChaosProfile {
            spot_revoke_interval: 45.0,
            spot_grace: 10.0,
            spot_outage: 20.0,
            ..ChaosProfile::calm()
        }
    }

    /// The storm profile with spot revocations armed on top: the
    /// elasticity acceptance sweep — graceful drain plus rescue-resume
    /// must still complete every workflow.
    pub fn heavy_spot() -> ChaosProfile {
        ChaosProfile {
            spot_revoke_interval: 40.0,
            spot_grace: 8.0,
            spot_outage: 15.0,
            ..ChaosProfile::heavy()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_intensity() {
        let calm = ChaosProfile::calm();
        let light = ChaosProfile::light();
        let heavy = ChaosProfile::heavy();
        assert_eq!(calm.node_crash_interval, 0.0);
        assert!(light.node_crash_interval > heavy.node_crash_interval);
        assert!(heavy.flaky_fail_chance >= light.flaky_fail_chance);
    }

    #[test]
    fn spot_revocations_are_inert_in_the_pre_elastic_presets() {
        for p in [
            ChaosProfile::calm(),
            ChaosProfile::light(),
            ChaosProfile::heavy(),
        ] {
            assert_eq!(p.spot_revoke_interval, 0.0);
        }
        assert!(ChaosProfile::spot().spot_revoke_interval > 0.0);
        assert!(ChaosProfile::spot().spot_grace > 0.0);
        // heavy-spot is heavy plus revocations, nothing removed.
        let hs = ChaosProfile::heavy_spot();
        assert_eq!(
            hs.node_crash_interval,
            ChaosProfile::heavy().node_crash_interval
        );
        assert!(hs.spot_revoke_interval > 0.0);
    }
}
