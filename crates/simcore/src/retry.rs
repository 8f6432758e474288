//! Typed retry-with-backoff policy shared by every component that retries.
//!
//! HTCondor's DAGMan, Knative's router/activator and the chaos harness all
//! need the same thing: a bounded number of attempts separated by
//! exponentially growing delays. Centralizing the policy keeps retry timing
//! one rule, and keeps the calm path bit-identical: the default policy
//! produces zero-length delays.

use crate::time::SimDuration;

/// A deterministic exponential-backoff schedule.
///
/// `delay_for(retry)` returns `min(base · 2^(retry-1), max_delay)`. A zero
/// `base` means "retry immediately", so components configured with
/// [`RetryPolicy::immediate`] behave byte-identically to their pre-policy
/// selves.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Attempts allowed in total (first try included). 0 is treated as 1.
    pub max_attempts: u32,
    /// Delay before the first retry (attempt 1), doubling per retry. Zero =
    /// immediate retries.
    pub base: SimDuration,
    /// Upper bound on any single delay.
    pub max_delay: SimDuration,
}

impl RetryPolicy {
    /// `max_attempts` immediate retries — the historical behaviour of the
    /// router and DAGMan, kept as the default so calm runs do not drift.
    pub fn immediate(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts,
            base: SimDuration::ZERO,
            max_delay: SimDuration::ZERO,
        }
    }

    /// Exponential backoff: `base`, doubling per retry, capped at
    /// `max_delay`.
    pub fn exponential(max_attempts: u32, base: SimDuration, max_delay: SimDuration) -> Self {
        RetryPolicy {
            max_attempts,
            base,
            max_delay,
        }
    }

    /// Attempts allowed (never less than one).
    pub fn attempts(&self) -> u32 {
        self.max_attempts.max(1)
    }

    /// The delay to sleep before retry number `retry` (1-based: the delay
    /// between attempt N and attempt N+1 is `delay_for(N)`).
    pub fn delay_for(&self, retry: u32) -> SimDuration {
        if self.base.is_zero() {
            return SimDuration::ZERO;
        }
        let factor = 2.0_f64.powi(retry.saturating_sub(1) as i32);
        let nominal = self.base.mul_f64(factor);
        if !self.max_delay.is_zero() && nominal > self.max_delay {
            return self.max_delay;
        }
        nominal
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::immediate(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{millis, secs};

    #[test]
    fn immediate_policy_never_sleeps() {
        let p = RetryPolicy::immediate(8);
        for retry in 1..10 {
            assert_eq!(p.delay_for(retry), SimDuration::ZERO);
        }
    }

    #[test]
    fn exponential_growth_caps_at_max_delay() {
        let p = RetryPolicy::exponential(5, millis(100), secs(1.0));
        assert_eq!(p.delay_for(1), millis(100));
        assert_eq!(p.delay_for(2), millis(200));
        assert_eq!(p.delay_for(3), millis(400));
        assert_eq!(p.delay_for(5), secs(1.0));
        assert_eq!(p.delay_for(30), secs(1.0));
    }

    #[test]
    fn attempts_floor_is_one() {
        assert_eq!(RetryPolicy::immediate(0).attempts(), 1);
        assert_eq!(RetryPolicy::immediate(3).attempts(), 3);
    }

    /// Golden values: the exact delay sequences the shipped policies
    /// produce, pinned to the nanosecond. Any change to the backoff
    /// arithmetic shows up here as a bit-level diff — the same drift
    /// contract the bench baselines enforce for whole runs, at policy
    /// granularity.
    #[test]
    fn golden_immediate_sequence() {
        let p = RetryPolicy::immediate(4);
        let seq: Vec<u64> = (1..=4).map(|r| p.delay_for(r).as_nanos()).collect();
        assert_eq!(seq, [0, 0, 0, 0]);
    }

    #[test]
    fn golden_exponential_sequence_unjittered() {
        let p = RetryPolicy::exponential(6, millis(250), secs(4.0));
        let seq: Vec<u64> = (1..=6).map(|r| p.delay_for(r).as_nanos()).collect();
        // 0.25 s doubling, capped at 4 s from retry 5 on.
        assert_eq!(
            seq,
            [
                250_000_000,
                500_000_000,
                1_000_000_000,
                2_000_000_000,
                4_000_000_000,
                4_000_000_000
            ]
        );
    }
}
