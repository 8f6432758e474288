//! # swf-k8s
//!
//! Kubernetes-style orchestrator substrate for the *Serverless Computing for
//! Dynamic HPC Workflows* reproduction: an API server with versioned,
//! watchable object stores; a filter/score/bind scheduler with image-locality
//! scoring; per-node kubelets that pull images and drive container
//! lifecycles; Deployment/ReplicaSet controllers; and Services/Endpoints
//! with a deterministic round-robin balancer.
//!
//! The paper runs Kubernetes v1.30 under Knative; this crate reproduces the
//! control loops that matter to the paper's mechanisms — pod scale-up
//! latency, image pre-pull via scheduling locality, readiness gating — in
//! virtual time (see DESIGN.md for the substitution argument).

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![warn(clippy::allow_attributes_without_reason)]

pub mod api;
pub mod control_plane;
pub mod controllers;
pub mod error;
pub mod kubelet;
pub mod meta;
pub mod nodes;
pub mod pod;
pub mod probe;
pub mod scheduler;
pub mod service;
pub mod store;
pub mod workload_api;

pub use api::{ApiConfig, ApiServer};
pub use control_plane::{K8s, K8sConfig};
pub use controllers::{DeploymentController, EndpointsController, ReplicaSetController};
pub use error::K8sError;
pub use kubelet::{Kubelet, KubeletConfig};
pub use meta::{LabelSelector, ObjectMeta, Uid};
pub use nodes::{NodeController, NodeStatus};
pub use pod::{Pod, PodPhase, PodSpec, PodStatus};
pub use probe::ProbeSpec;
pub use scheduler::{NodeCapacity, Scheduler, SchedulerConfig};
pub use service::{Endpoint, Endpoints, RoundRobin, Service};
pub use store::{Store, Watcher};
pub use workload_api::{Deployment, PodTemplate, ReplicaSet};
