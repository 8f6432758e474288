//! Cgroup-style resource limits.
//!
//! The paper motivates containers with cgroup-based *performance isolation*:
//! a container's CPU quota bounds how much core time its task receives, so
//! co-located workloads cannot starve it (and it cannot starve others).
//! The model charges a task `compute × 1000 / min(quota, 1000)` of core
//! time — a sub-core quota stretches single-threaded work proportionally.

use swf_simcore::SimDuration;

/// Resource limits attached to a container.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResourceLimits {
    /// CPU quota in millicores (1000 = one full core).
    pub cpu_millis: u32,
    /// Memory limit in bytes.
    pub memory: u64,
}

impl Default for ResourceLimits {
    fn default() -> Self {
        ResourceLimits {
            cpu_millis: 1000,
            memory: swf_cluster::mib(512),
        }
    }
}

impl ResourceLimits {
    /// One full core with `memory_mib` MiB.
    pub fn one_core(memory_mib: u64) -> Self {
        ResourceLimits {
            cpu_millis: 1000,
            memory: swf_cluster::mib(memory_mib),
        }
    }

    /// Stretch single-threaded compute time for this quota. Quotas above
    /// 1000m do not shrink single-threaded work.
    pub fn scale_compute(&self, compute: SimDuration) -> SimDuration {
        if self.cpu_millis >= 1000 || self.cpu_millis == 0 {
            return compute;
        }
        compute.mul_f64(1000.0 / f64::from(self.cpu_millis))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swf_simcore::secs;

    #[test]
    fn full_core_is_identity() {
        let l = ResourceLimits::one_core(256);
        assert_eq!(l.scale_compute(secs(2.0)), secs(2.0));
    }

    #[test]
    fn half_core_doubles_time() {
        let l = ResourceLimits {
            cpu_millis: 500,
            memory: 0,
        };
        assert_eq!(l.scale_compute(secs(2.0)), secs(4.0));
    }

    #[test]
    fn multi_core_quota_does_not_shrink() {
        let l = ResourceLimits {
            cpu_millis: 2500,
            memory: 0,
        };
        assert_eq!(l.scale_compute(secs(2.0)), secs(2.0));
    }

    #[test]
    fn zero_quota_treated_as_unlimited() {
        let l = ResourceLimits {
            cpu_millis: 0,
            memory: 0,
        };
        assert_eq!(l.scale_compute(secs(1.0)), secs(1.0));
    }
}
