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
//! A breaker that is not armed ([`KnativeConfig::self_healing`] off, the
//! default) admits every request and records nothing, so calm runs execute
//! the historical router path bit-for-bit.
//!
//! [`KnativeConfig::self_healing`]: crate::KnativeConfig::self_healing

use std::cell::Cell;

use swf_simcore::{millis, now, SimDuration, SimTime};

/// Consecutive transport failures that open an armed circuit.
pub const FAILURE_THRESHOLD: u32 = 5;

/// How long an open circuit fast-fails before going half-open.
pub const COOLDOWN: SimDuration = SimDuration::from_secs(8);

/// Probe requests admitted concurrently while half-open.
const HALF_OPEN_PROBES: u32 = 1;

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
    /// Whether the breaker ever trips.
    armed: bool,
    state: Cell<BreakerState>,
    consecutive_failures: Cell<u32>,
    open_until: Cell<SimTime>,
    probes_inflight: Cell<u32>,
}

impl CircuitBreaker {
    /// New breaker, closed; one that is not `armed` never trips.
    pub fn new(armed: bool) -> Self {
        CircuitBreaker {
            armed,
            state: Cell::new(BreakerState::Closed),
            consecutive_failures: Cell::new(0),
            open_until: Cell::new(SimTime::from_nanos(0)),
            probes_inflight: Cell::new(0),
        }
    }

    /// Ask to send a request. `Ok` carries a permit that must be resolved;
    /// `Err` carries the suggested wait before asking again.
    pub fn admit(&self) -> Result<Permit, SimDuration> {
        if !self.armed {
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
        if !self.armed {
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
            if self.state.get() == BreakerState::Closed && n >= FAILURE_THRESHOLD {
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
        self.open_until.set(now() + COOLDOWN);
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
    use swf_simcore::{sleep, Sim};

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

    /// Record `n` failed attempts in a row.
    fn fail(b: &CircuitBreaker, n: u32) {
        for _ in 0..n {
            let p = b.admit().unwrap();
            b.record(p, false);
        }
    }

    #[test]
    fn disabled_breaker_never_trips() {
        let (sim, _installed) = sim();
        sim.block_on(async {
            let b = CircuitBreaker::new(false);
            fail(&b, 100);
            assert_eq!(state(&b), BreakerState::Closed);
            assert_eq!(trips(), 0);
        });
    }

    #[test]
    fn consecutive_failures_open_then_cooldown_half_opens() {
        let (sim, _installed) = sim();
        sim.block_on(async {
            let b = CircuitBreaker::new(true);
            // One failure short, then a success: counter resets, still closed.
            fail(&b, FAILURE_THRESHOLD - 1);
            let p = b.admit().unwrap();
            b.record(p, true);
            assert_eq!(state(&b), BreakerState::Closed);
            // A full run of failures trips it.
            fail(&b, FAILURE_THRESHOLD);
            assert_eq!(state(&b), BreakerState::Open);
            assert_eq!(trips(), 1);
            let wait = b.admit().unwrap_err();
            assert_eq!(wait, COOLDOWN);
            // Cooldown elapses on the virtual clock.
            sleep(COOLDOWN).await;
            assert_eq!(state(&b), BreakerState::HalfOpen);
        });
    }

    #[test]
    fn half_open_probe_success_closes_failure_reopens() {
        let (sim, _installed) = sim();
        sim.block_on(async {
            let b = CircuitBreaker::new(true);
            fail(&b, FAILURE_THRESHOLD); // trips
            sleep(COOLDOWN).await;
            // Only one probe admitted while half-open.
            let probe = b.admit().unwrap();
            assert!(b.admit().is_err(), "second probe must be rejected");
            b.record(probe, false);
            assert_eq!(state(&b), BreakerState::Open);
            assert_eq!(trips(), 2);
            sleep(COOLDOWN).await;
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
            let b = CircuitBreaker::new(true);
            fail(&b, FAILURE_THRESHOLD);
            sleep(COOLDOWN).await;
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
