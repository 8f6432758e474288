//! swf-chaos: deterministic fault injection for the simulated stack.
//!
//! Chaos testing in this workspace is fully reproducible: every fault is a
//! typed event on the virtual clock, every random choice flows through a
//! seeded [`swf_simcore::DetRng`], and a failing run is replayable from its
//! printed [`FaultPlan`] alone.
//!
//! The pieces:
//!
//! - [`FaultPlan`] ([`plan`]): a virtual-time-ordered schedule of typed
//!   fault events — node crashes and recoveries, HTCondor drains, pod
//!   kills, network partitions and link degradations, registry outages,
//!   spot revocations with grace windows, and flaky/slow task-execution
//!   windows. Plans are authored explicitly or sampled from a
//!   [`ChaosProfile`] by seed, and round-trip through JSON bit-exactly
//!   (f64 parameters are carried as IEEE-754 bit patterns alongside
//!   their readable values).
//! - [`Injector`] ([`inject`]): replays a plan against a booted
//!   [`swf_core::TestBed`] strictly through public fault hooks
//!   (`Condor::fail_node`, `K8s::fail_node`, `Network::partition`,
//!   `Registry::set_outage`, …), recording each injection as an swf-obs
//!   span and per-class counter.
//! - [`Disruptor`] ([`inject`]): the task-level hook the injector toggles
//!   for flaky/slow execution windows; workload closures consult it.
//! - [`run_chaos`] ([`experiment`]): a concurrent-workflow experiment under
//!   a fault plan, returning per-workflow typed outcomes plus the registry
//!   byte ledger and fault counters that the seed-sweep invariants check.
//!   With [`ChaosRunConfig::rescue`] set, halted workflows persist rescue
//!   DAGs (JSON round-trip) and resume until they complete, and the
//!   outcome carries a [`GoodputReport`] — task-seconds salvaged versus
//!   wasted, rounds spent, and recovery latency.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![warn(clippy::allow_attributes_without_reason)]

pub mod experiment;
pub mod inject;
pub mod plan;
pub mod profile;

pub use experiment::{
    experiment_config, run_chaos, run_chaos_on, ChaosOutcome, ChaosRunConfig, GoodputReport,
    WorkflowOutcome, SERVICE, TASKS_PER_WORKFLOW, TASK_COMPUTE,
};
pub use inject::{Disruptor, Injector};
pub use plan::{FaultEvent, FaultKind, FaultPlan};
pub use profile::{ChaosProfile, UnknownProfile};
