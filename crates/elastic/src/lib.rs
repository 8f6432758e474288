//! # swf-elastic
//!
//! Elastic infrastructure for the *Serverless Computing for Dynamic HPC
//! Workflows* reproduction: the cloud the platform runs on stops being a
//! static pool and starts appearing and disappearing under running
//! workflows.
//!
//! The pieces:
//!
//! - [`PoolSet`] / [`PriceClass`] ([`pool`]): typed node pools — workers
//!   are `on_demand` (reserved, never revoked) or `spot` (discounted,
//!   revocable with a grace notice).
//! - [`PoolAutoscaler`] ([`autoscaler`]): the one node-pool control
//!   loop. A spot worker is scaled as one thing — startd drained, k8s
//!   node not ready, ledger closed — out on batch-queue or pending-pod
//!   pressure, in after an idle cooldown.
//! - [`CostLedger`] / [`CostReport`] ([`cost`]): per-price-class
//!   node-second billing on the virtual clock, fed by the autoscaler's
//!   scale events and by the fault plan's revocation schedule, surfaced
//!   as `cost.node_s.*` metrics and a perf-per-dollar report.
//! - [`run_elastic`] ([`experiment`]): the chaos harness with the
//!   autoscaler attached over the spot pool and the ledger billing every
//!   pooled node. Spot revocations arrive through the ordinary
//!   [`swf_chaos::FaultPlan`] machinery as `SpotRevoke` events: the
//!   injector drains the startd and evicts the node's pods at the
//!   notice, and hard-fails the node only when the grace window expires
//!   — with rescue-resume as the safety net for whatever the drain
//!   could not finish.
//!
//! Everything is opt-in: no default stack spawns a scaler or a ledger,
//! and a static all-on-demand run fingerprints identically to the plain
//! chaos run it wraps.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![warn(clippy::allow_attributes_without_reason)]

pub mod autoscaler;
pub mod cost;
pub mod experiment;
pub mod pool;

pub use autoscaler::PoolAutoscaler;
pub use cost::{CostLedger, CostModel, CostReport};
pub use experiment::{elastic_plan, run_elastic, ElasticOutcome, ElasticRunConfig};
pub use pool::{NodePool, PoolSet, PriceClass};
