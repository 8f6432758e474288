//! Calibrated container lifecycle overheads.
//!
//! The defaults are derived from the paper's Figure 1: at 160 sequential
//! tasks Docker totals ≈ 100 s against Knative's ≈ 78 s with per-task
//! compute ≈ 0.46 s, which puts the full Docker per-task lifecycle
//! (create + start + app boot + stop + remove) at ≈ 0.17 s beyond compute,
//! and the one-off Knative cold start at 1.48 s (stated directly in §III-B).

use swf_simcore::SimDuration;

/// Fixed, deterministic lifecycle costs.
#[derive(Clone, Copy, Debug)]
pub struct OverheadModel {
    /// `create`: namespace/cgroup/rootfs snapshot setup.
    pub create: SimDuration,
    /// `start`: runtime exec and application boot (interpreter, imports).
    pub start: SimDuration,
    /// `stop`: SIGTERM, grace, teardown of the process tree.
    pub stop: SimDuration,
    /// `remove`: rootfs + metadata cleanup.
    pub remove: SimDuration,
}

impl Default for OverheadModel {
    fn default() -> Self {
        OverheadModel {
            create: SimDuration::from_millis(45),
            start: SimDuration::from_millis(80),
            stop: SimDuration::from_millis(25),
            remove: SimDuration::from_millis(17),
        }
    }
}

impl OverheadModel {
    /// Zero overhead (for isolating other effects in tests/ablations).
    pub fn zero() -> Self {
        let d = SimDuration::ZERO;
        OverheadModel {
            create: d,
            start: d,
            stop: d,
            remove: d,
        }
    }

    /// Total fixed cost of one full lifecycle.
    pub fn lifecycle_total(&self) -> SimDuration {
        self.create + self.start + self.stop + self.remove
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_lifecycle_matches_fig1_calibration() {
        let m = OverheadModel::default();
        let total = m.lifecycle_total().as_secs_f64();
        assert!((total - 0.167).abs() < 1e-9, "total {total}");
    }

    #[test]
    fn zero_model() {
        assert_eq!(OverheadModel::zero().lifecycle_total(), SimDuration::ZERO);
    }
}
