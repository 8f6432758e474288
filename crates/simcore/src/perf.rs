//! Self-profiling of the simulation engine itself.
//!
//! Everything else in this crate observes *virtual* time; this module
//! counts the **work the executor did to simulate it**: how many task
//! polls, spawns, wakes and timers a run processed and how deep the ready
//! queue got. The counters feed the `host` sections of the `swf-bench`
//! suite's `BENCH_*.json` documents, where `suite compare` holds them to
//! the same rule as every virtual result: any difference is drift.
//!
//! That rule is sound because the counters are write-only from the
//! executor's point of view — no model code reads them, so they cannot
//! change virtual-time results — and every count is a pure function of
//! the program and its seeds. How *fast* the simulator runs is a
//! wall-clock question, and no simulation crate reads the host clock: it
//! belongs to the `benchmark/` package (DESIGN.md §4).
//!
//! Counters are accumulated per thread (the executor is single-threaded
//! per simulation), cumulatively across every [`crate::Sim`] that runs
//! on the thread. Harnesses take a [`snapshot`] before and after a
//! scenario and report the [`ExecProfile::delta`]; the ready-queue
//! high-water mark is tracked since the last [`reset_ready_peak`].

use std::cell::Cell;

/// Executor event counters: one run's (or one thread's cumulative)
/// engine-level activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecProfile {
    /// Task polls executed (the engine's unit of work — "events
    /// processed" in the bench suite's host profile).
    pub polls: u64,
    /// Tasks spawned.
    pub spawned: u64,
    /// Waker invocations that enqueued a task (deduplicated wakes that
    /// found the task already queued are not counted).
    pub wakes: u64,
    /// Timers registered (`sleep` / `sleep_until` / timeouts).
    pub timers_registered: u64,
    /// Timers that actually fired (cancelled timers never do).
    pub timers_fired: u64,
    /// Virtual-clock advances (each services every timer due at one
    /// instant, so this counts distinct timer instants).
    pub clock_advances: u64,
    /// High-water mark of the executor ready queue since the last
    /// [`reset_ready_peak`].
    pub ready_peak: u64,
}

impl ExecProfile {
    /// Events processed: the total of polls, wakes and timer fires.
    pub fn events(&self) -> u64 {
        self.polls + self.wakes + self.timers_fired
    }

    /// Counter-wise difference `self - earlier` for the monotonic
    /// counters; `ready_peak` is carried from `self` (reset it at the
    /// start of the measured window instead).
    pub fn delta(&self, earlier: &ExecProfile) -> ExecProfile {
        ExecProfile {
            polls: self.polls - earlier.polls,
            spawned: self.spawned - earlier.spawned,
            wakes: self.wakes - earlier.wakes,
            timers_registered: self.timers_registered - earlier.timers_registered,
            timers_fired: self.timers_fired - earlier.timers_fired,
            clock_advances: self.clock_advances - earlier.clock_advances,
            ready_peak: self.ready_peak,
        }
    }
}

#[derive(Default)]
struct Totals {
    polls: Cell<u64>,
    spawned: Cell<u64>,
    wakes: Cell<u64>,
    timers_registered: Cell<u64>,
    timers_fired: Cell<u64>,
    clock_advances: Cell<u64>,
    ready_peak: Cell<u64>,
}

thread_local! {
    static TOTALS: Totals = Totals::default();
}

/// Cumulative executor counters for this thread, across every `Sim`
/// that has run on it.
pub fn snapshot() -> ExecProfile {
    TOTALS.with(|t| ExecProfile {
        polls: t.polls.get(),
        spawned: t.spawned.get(),
        wakes: t.wakes.get(),
        timers_registered: t.timers_registered.get(),
        timers_fired: t.timers_fired.get(),
        clock_advances: t.clock_advances.get(),
        ready_peak: t.ready_peak.get(),
    })
}

/// Reset the ready-queue high-water mark (monotonic counters are never
/// reset; take deltas of [`snapshot`] instead).
pub fn reset_ready_peak() {
    TOTALS.with(|t| t.ready_peak.set(0));
}

pub(crate) fn note_poll() {
    TOTALS.with(|t| t.polls.set(t.polls.get() + 1));
}

pub(crate) fn note_spawn() {
    TOTALS.with(|t| t.spawned.set(t.spawned.get() + 1));
}

pub(crate) fn note_wake() {
    TOTALS.with(|t| t.wakes.set(t.wakes.get() + 1));
}

pub(crate) fn note_ready_depth(depth: usize) {
    TOTALS.with(|t| {
        if depth as u64 > t.ready_peak.get() {
            t.ready_peak.set(depth as u64);
        }
    });
}

pub(crate) fn note_timer_registered() {
    TOTALS.with(|t| t.timers_registered.set(t.timers_registered.get() + 1));
}

pub(crate) fn note_timer_fired() {
    TOTALS.with(|t| t.timers_fired.set(t.timers_fired.get() + 1));
}

pub(crate) fn note_clock_advance() {
    TOTALS.with(|t| t.clock_advances.set(t.clock_advances.get() + 1));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{sleep, spawn, Sim};
    use crate::time::secs;

    #[test]
    fn counters_track_executor_activity() {
        let before = snapshot();
        reset_ready_peak();
        let sim = Sim::new();
        sim.block_on(async {
            let mut handles = Vec::new();
            for i in 0..10u64 {
                handles.push(spawn(async move {
                    sleep(secs(i as f64 + 1.0)).await;
                }));
            }
            for h in handles {
                h.await;
            }
        });
        let d = snapshot().delta(&before);
        // 10 spawned tasks + the block_on root.
        assert_eq!(d.spawned, 11);
        // Every task polled at least twice (initial + after its timer).
        assert!(d.polls >= 22, "polls {}", d.polls);
        assert_eq!(d.timers_registered, 10);
        assert_eq!(d.timers_fired, 10);
        // 10 distinct deadlines => 10 clock advances.
        assert_eq!(d.clock_advances, 10);
        // All 10 children were enqueued while the root task was being
        // polled (the root itself was already popped off the queue).
        assert!(d.ready_peak >= 10, "peak {}", d.ready_peak);
        assert!(d.events() >= d.polls);
    }

    #[test]
    fn cancelled_timers_never_fire() {
        let before = snapshot();
        let sim = Sim::new();
        sim.block_on(async {
            {
                let _dropped = sleep(secs(1000.0));
            }
            sleep(secs(1.0)).await;
        });
        let d = snapshot().delta(&before);
        assert_eq!(d.timers_registered, 2);
        assert_eq!(d.timers_fired, 1);
    }

    #[test]
    fn identical_runs_have_identical_profiles() {
        let run = || {
            let before = snapshot();
            reset_ready_peak();
            let sim = Sim::new();
            sim.block_on(async {
                for i in 0..5u64 {
                    spawn(async move {
                        sleep(secs(0.25 * (i + 1) as f64)).await;
                    });
                }
                sleep(secs(10.0)).await;
            });
            snapshot().delta(&before)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn ready_peak_resets() {
        let sim = Sim::new();
        sim.block_on(async {
            for _ in 0..4 {
                spawn(async {});
            }
        });
        assert!(snapshot().ready_peak > 0);
        reset_ready_peak();
        assert_eq!(snapshot().ready_peak, 0);
    }
}
