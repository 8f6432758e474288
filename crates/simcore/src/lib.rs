//! # swf-simcore
//!
//! Deterministic virtual-time simulation kernel underpinning the
//! *Serverless Computing for Dynamic HPC Workflows* reproduction.
//!
//! The kernel is a single-threaded async executor whose clock is **virtual**:
//! `sleep(d)` costs zero wall time and advances a logical clock only when no
//! task is runnable. Model code is ordinary `async` Rust — a container pull
//! is `registry.serve(bytes / bandwidth).await`, an HTTP round trip is two
//! channel sends separated by modelled latency — which keeps the substrate
//! code structured like the real systems it stands in for.
//!
//! Guarantees:
//! - **Determinism**: FIFO ready queue, stable timer ordering, per-stream
//!   seeded RNG. A run is a pure function of (program, seeds).
//! - **Deadlock detection**: `block_on` panics if the simulation goes idle
//!   before the root future completes.
//! - **Fairness**: [`sync::Semaphore`] and [`Resource`] are strict FIFO.
//!
//! ```
//! use swf_simcore::{Sim, sleep, spawn, now, time::secs};
//!
//! let sim = Sim::new();
//! let t = sim.block_on(async {
//!     let h = spawn(async { sleep(secs(2.0)).await; "done" });
//!     sleep(secs(1.0)).await;
//!     assert_eq!(h.await, "done");
//!     now()
//! });
//! assert_eq!(t.as_secs_f64(), 2.0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![warn(clippy::allow_attributes_without_reason)]

pub mod combinators;
pub mod error;
pub mod executor;
pub mod perf;
pub mod resource;
pub mod retry;
pub mod rng;
pub mod time;

/// Synchronization primitives in virtual time.
pub mod sync {
    pub mod mpsc;
    pub mod notify;
    pub mod oneshot;
    pub mod semaphore;

    pub use notify::Notify;
    pub use semaphore::{Permit, Semaphore};
}

pub use combinators::{join_all, race, timeout, Either, Elapsed};
pub use error::SimError;
pub use executor::{
    current, interval, now, sleep, sleep_until, spawn, try_current, yield_now, Interval,
    JoinHandle, Sim, TaskId,
};
pub use resource::{Claim, Resource};
pub use retry::RetryPolicy;
pub use rng::DetRng;
pub use time::{micros, millis, secs, SimDuration, SimTime};

/// A quiet linter must fail. One deliberate offence per ban of the root
/// `clippy.toml` (DESIGN.md §9), each expected: rename the file, mistype a
/// path or lose a lint and the expectation is unfulfilled, which the CI
/// `clippy` job (`--all-targets`, `-D warnings`) refuses.
#[cfg(test)]
mod lint_canaries {
    #[test]
    #[expect(clippy::disallowed_methods, reason = "canary: the wall-clock ban")]
    fn wall_clock() {
        let _ = std::time::Instant::now();
    }

    #[test]
    #[expect(clippy::disallowed_types, reason = "canary: the hash-order ban")]
    fn hash_collection() {
        let _ = std::collections::HashMap::<u8, u8>::new();
    }

    #[test]
    #[expect(clippy::disallowed_types, reason = "canary: the blocking-lock ban")]
    fn blocking_lock() {
        let _ = std::sync::Mutex::new(0u8);
    }

    #[test]
    #[expect(clippy::await_holding_refcell_ref, reason = "canary: clippy's own")]
    fn refcell_guard_across_await() {
        crate::Sim::new().block_on(async {
            let cell = std::cell::RefCell::new(0u8);
            let guard = cell.borrow_mut();
            crate::yield_now().await;
            drop(guard);
        });
    }
}
