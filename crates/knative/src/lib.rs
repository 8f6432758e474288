//! # swf-knative
//!
//! Knative-style serverless platform for the *Serverless Computing for
//! Dynamic HPC Workflows* reproduction: KServices and Revisions, the KPA
//! autoscaler (stable/panic windows, scale-to-zero grace, `min-scale` /
//! `initial-scale` / `target` annotations), the activator cold-start path,
//! per-pod queue-proxies enforcing `containerConcurrency`, and a revision
//! router with deterministic round-robin.
//!
//! Calibration: a warm invocation adds ≈ 20 ms over task compute; a cold
//! start with a cached image costs ≈ 1.48 s end to end — both taken from
//! the paper (§III-B / Fig. 1).

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![warn(clippy::allow_attributes_without_reason)]

pub mod autoscaler;
pub mod breaker;
pub mod config;
pub mod error;
pub mod handlers;
pub mod ksvc;
pub mod metrics;
pub mod platform;
pub mod pod_server;
pub mod router;
pub mod serving;

pub use autoscaler::{Autoscaler, ScaleDecision};
pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use config::{
    AutoscalerConfig, DataPlaneConfig, KnativeConfig, INITIAL_SCALE_ANNOTATION,
    MAX_SCALE_ANNOTATION, MIN_SCALE_ANNOTATION, TARGET_ANNOTATION,
};
pub use error::KnativeError;
pub use handlers::{Handler, HandlerRegistry};
pub use ksvc::{KService, Revision};
pub use metrics::MetricHub;
pub use platform::Knative;
pub use pod_server::PodServers;
pub use router::{Router, RoutingPolicy};
pub use serving::ServingController;
