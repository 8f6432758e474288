//! # swf-knative
//!
//! Knative-style serverless platform for the *Serverless Computing for
//! Dynamic HPC Workflows* reproduction: the KService, the one object the
//! platform keeps per registered function (its image, its typed
//! `min-scale` / `initial-scale` / `target` / `max-scale` settings and its
//! handler), the KPA autoscaler (stable/panic windows, scale-to-zero
//! grace), the activator cold-start path, per-pod queue-proxies enforcing
//! `containerConcurrency`, and a router with deterministic round-robin.
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
pub mod ksvc;
pub mod metrics;
pub mod platform;
pub mod pod_server;
pub mod router;
pub mod serving;

pub use autoscaler::{Autoscaler, ScaleDecision};
pub use breaker::CircuitBreaker;
pub use config::{AutoscalerConfig, KnativeConfig};
pub use error::KnativeError;
pub use ksvc::{Handler, KService};
pub use metrics::MetricHub;
pub use platform::Knative;
pub use pod_server::PodServers;
pub use router::{Router, RoutingPolicy};
pub use serving::ServingController;
