//! Calibrated container lifecycle overheads: fixed and deterministic.
//!
//! They are derived from the paper's Figure 1: at 160 sequential
//! tasks Docker totals ≈ 100 s against Knative's ≈ 78 s with per-task
//! compute ≈ 0.46 s, which puts the full Docker per-task lifecycle
//! (create + start + app boot + stop + remove) at ≈ 0.17 s beyond compute,
//! and the one-off Knative cold start at 1.48 s (stated directly in §III-B).

use swf_simcore::SimDuration;

/// `create`: namespace/cgroup/rootfs snapshot setup.
pub const CREATE: SimDuration = SimDuration::from_millis(45);

/// `start`: runtime exec and application boot (interpreter, imports).
pub const START: SimDuration = SimDuration::from_millis(80);

/// `stop`: SIGTERM, grace, teardown of the process tree.
pub const STOP: SimDuration = SimDuration::from_millis(25);

/// `remove`: rootfs + metadata cleanup.
pub const REMOVE: SimDuration = SimDuration::from_millis(17);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_lifecycle_matches_fig1_calibration() {
        assert_eq!(
            CREATE + START + STOP + REMOVE,
            SimDuration::from_millis(167)
        );
    }
}
