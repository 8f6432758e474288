//! # swf-k8s
//!
//! Kubernetes-style orchestrator substrate for the *Serverless Computing for
//! Dynamic HPC Workflows* reproduction: an API server with versioned,
//! watchable object stores; a filter/score/bind scheduler with image-locality
//! scoring; per-node kubelets that pull images and drive container
//! lifecycles; a Deployment controller that owns its pods directly; and the
//! ready endpoints of a labelled set of pods, read from the pod store when
//! asked rather than kept by a controller.
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
pub mod store;
pub mod workload_api;

pub use api::{ApiServer, Endpoint};
pub use control_plane::K8s;
pub use controllers::DeploymentController;
pub use error::K8sError;
pub use kubelet::Kubelet;
pub use meta::ObjectMeta;
pub use nodes::{NodeController, NodeStatus};
pub use pod::{Pod, PodPhase, PodSpec, PodStatus};
pub use probe::ProbeSpec;
pub use scheduler::{NodeCapacity, Scheduler};
pub use store::{Store, Watcher};
pub use workload_api::{Deployment, PodTemplate};
