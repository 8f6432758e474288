//! Per-revision circuit breaker for the ingress router.
//!
//! Knative's activator and queue-proxy both carry *breakers* that stop
//! hammering a revision that keeps failing: after a run of consecutive
//! transport-level failures the circuit **opens** and requests fast-fail
//! without touching the network; once a virtual-time cooldown elapses the
//! circuit goes **half-open** and admits one probe request at a time —
//! one success re-closes it, one failure re-opens it.
//!
//! The breaker sees *transport and overload* outcomes (connection resets,
//! 503s, attempt timeouts). Application-level 500s count as successes:
//! the revision answered, it is the function that is broken.
//!
//! The default config is disabled (`failure_threshold == 0`), so calm
//! runs execute the historical router path bit-for-bit.

use std::cell::Cell;

use swf_simcore::{millis, now, SimDuration, SimTime};

/// Circuit-breaker parameters.
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Consecutive transport failures that open the circuit. `0` disables
    /// the breaker entirely (the default — no calm-path drift).
    pub failure_threshold: u32,
    /// How long an open circuit fast-fails before going half-open.
    pub cooldown: SimDuration,
}

/// Probe requests admitted concurrently while half-open.
const HALF_OPEN_PROBES: u32 = 1;

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 0,
            cooldown: SimDuration::from_secs(10),
        }
    }
}

impl BreakerConfig {
    /// An enabled breaker tripping after `failure_threshold` consecutive
    /// failures and cooling down for `cooldown`.
    pub fn enabled(failure_threshold: u32, cooldown: SimDuration) -> Self {
        BreakerConfig {
            failure_threshold,
            cooldown,
        }
    }

    /// True when the breaker never trips.
    pub fn is_disabled(&self) -> bool {
        self.failure_threshold == 0
    }
}

/// Breaker state, in the classic closed → open → half-open cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BreakerState {
    /// Normal operation; counting consecutive failures.
    Closed,
    /// Fast-failing until the cooldown elapses.
    Open,
    /// Admitting limited probes to test recovery.
    HalfOpen,
}

/// An admitted request. Must be resolved with [`CircuitBreaker::record`]
/// (or [`CircuitBreaker::cancel`] if no attempt was actually made), so a
/// half-open probe slot is never leaked.
#[must_use = "resolve the permit via record() or cancel()"]
#[derive(Debug)]
pub struct Permit {
    probe: bool,
}

/// A per-revision circuit breaker on the virtual clock.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: Cell<BreakerState>,
    consecutive_failures: Cell<u32>,
    open_until: Cell<SimTime>,
    probes_inflight: Cell<u32>,
}

impl CircuitBreaker {
    /// New breaker, closed.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            state: Cell::new(BreakerState::Closed),
            consecutive_failures: Cell::new(0),
            open_until: Cell::new(SimTime::from_nanos(0)),
            probes_inflight: Cell::new(0),
        }
    }

    /// Ask to send a request. `Ok` carries a permit that must be resolved;
    /// `Err` carries the suggested wait before asking again.
    pub fn admit(&self) -> Result<Permit, SimDuration> {
        if self.config.is_disabled() {
            return Ok(Permit { probe: false });
        }
        self.refresh();
        match self.state.get() {
            BreakerState::Closed => Ok(Permit { probe: false }),
            BreakerState::Open => Err(self.open_until.get() - now()),
            BreakerState::HalfOpen => {
                if self.probes_inflight.get() < HALF_OPEN_PROBES {
                    self.probes_inflight.set(self.probes_inflight.get() + 1);
                    Ok(Permit { probe: true })
                } else {
                    // Probe slots are taken; retry shortly.
                    Err(millis(100))
                }
            }
        }
    }

    /// Resolve a permit with the attempt's transport outcome.
    pub fn record(&self, permit: Permit, success: bool) {
        if self.config.is_disabled() {
            return;
        }
        if permit.probe {
            self.probes_inflight
                .set(self.probes_inflight.get().saturating_sub(1));
            if success {
                // Recovery confirmed.
                self.state.set(BreakerState::Closed);
                self.consecutive_failures.set(0);
            } else {
                self.trip();
            }
            return;
        }
        if success {
            self.consecutive_failures.set(0);
        } else {
            let n = self.consecutive_failures.get() + 1;
            self.consecutive_failures.set(n);
            if self.state.get() == BreakerState::Closed && n >= self.config.failure_threshold {
                self.trip();
            }
        }
    }

    /// Resolve a permit without an attempt having been made (e.g. the cold
    /// path was taken instead). Neutral: no state transition.
    pub fn cancel(&self, permit: Permit) {
        if permit.probe {
            self.probes_inflight
                .set(self.probes_inflight.get().saturating_sub(1));
        }
    }

    fn trip(&self) {
        self.state.set(BreakerState::Open);
        self.open_until.set(now() + self.config.cooldown);
        self.consecutive_failures.set(0);
        swf_obs::current().counter_add("knative.breaker_trips", 1);
    }

    /// Open → half-open once the cooldown elapsed.
    fn refresh(&self) {
        if self.state.get() == BreakerState::Open && now() >= self.open_until.get() {
            self.state.set(BreakerState::HalfOpen);
            self.probes_inflight.set(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swf_simcore::{secs, sleep, Sim};

    /// A simulation recording into an enabled collector, which counts the
    /// breaker's trips.
    fn sim() -> (Sim, swf_obs::InstallGuard) {
        (Sim::new(), swf_obs::install(swf_obs::Obs::enabled()))
    }

    /// Times a circuit has opened, as the collector counted them.
    fn trips() -> u64 {
        swf_obs::current()
            .metrics()
            .counter("knative.breaker_trips")
            .unwrap_or(0)
    }

    /// Current state (open circuits report `HalfOpen` once cooled down).
    fn state(b: &CircuitBreaker) -> BreakerState {
        b.refresh();
        b.state.get()
    }

    #[test]
    fn disabled_breaker_never_trips() {
        let (sim, _installed) = sim();
        sim.block_on(async {
            let b = CircuitBreaker::new(BreakerConfig::default());
            for _ in 0..100 {
                let p = b.admit().unwrap();
                b.record(p, false);
            }
            assert_eq!(state(&b), BreakerState::Closed);
            assert_eq!(trips(), 0);
        });
    }

    #[test]
    fn consecutive_failures_open_then_cooldown_half_opens() {
        let (sim, _installed) = sim();
        sim.block_on(async {
            let b = CircuitBreaker::new(BreakerConfig::enabled(3, secs(10.0)));
            // Two failures then a success: counter resets, still closed.
            for _ in 0..2 {
                let p = b.admit().unwrap();
                b.record(p, false);
            }
            let p = b.admit().unwrap();
            b.record(p, true);
            assert_eq!(state(&b), BreakerState::Closed);
            // Three straight failures trip it.
            for _ in 0..3 {
                let p = b.admit().unwrap();
                b.record(p, false);
            }
            assert_eq!(state(&b), BreakerState::Open);
            assert_eq!(trips(), 1);
            let wait = b.admit().unwrap_err();
            assert_eq!(wait, secs(10.0));
            // Cooldown elapses on the virtual clock.
            sleep(secs(10.0)).await;
            assert_eq!(state(&b), BreakerState::HalfOpen);
        });
    }

    #[test]
    fn half_open_probe_success_closes_failure_reopens() {
        let (sim, _installed) = sim();
        sim.block_on(async {
            let b = CircuitBreaker::new(BreakerConfig::enabled(1, secs(5.0)));
            let p = b.admit().unwrap();
            b.record(p, false); // trips
            sleep(secs(5.0)).await;
            // Only one probe admitted while half-open.
            let probe = b.admit().unwrap();
            assert!(b.admit().is_err(), "second probe must be rejected");
            b.record(probe, false);
            assert_eq!(state(&b), BreakerState::Open);
            assert_eq!(trips(), 2);
            sleep(secs(5.0)).await;
            let probe = b.admit().unwrap();
            b.record(probe, true);
            assert_eq!(state(&b), BreakerState::Closed);
            // Closed again: normal admits flow.
            let p = b.admit().unwrap();
            b.record(p, true);
        });
    }

    #[test]
    fn cancel_releases_a_probe_slot() {
        let (sim, _installed) = sim();
        sim.block_on(async {
            let b = CircuitBreaker::new(BreakerConfig::enabled(1, secs(1.0)));
            let p = b.admit().unwrap();
            b.record(p, false);
            sleep(secs(1.0)).await;
            let probe = b.admit().unwrap();
            assert!(b.admit().is_err());
            b.cancel(probe);
            // Slot released; a new probe is admitted and still half-open.
            let probe = b.admit().unwrap();
            assert_eq!(state(&b), BreakerState::HalfOpen);
            b.record(probe, true);
            assert_eq!(state(&b), BreakerState::Closed);
        });
    }
}
