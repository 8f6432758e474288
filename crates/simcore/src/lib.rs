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

pub mod combinators;
pub mod error;
pub mod executor;
pub mod perf;
pub mod resource;
pub mod retry;
pub mod rng;
pub mod time;
mod wheel;

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
