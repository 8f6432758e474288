//! # swf-container
//!
//! Container runtime substrate for the *Serverless Computing for Dynamic HPC
//! Workflows* reproduction: content-addressed images and layers, a registry
//! with per-node layer caches and bandwidth-limited pulls, a containerd-like
//! per-node runtime with calibrated lifecycle overheads and cgroup-style
//! limits, and a `docker run` facade used as the paper's traditional
//! container baseline (Fig. 1).
//!
//! Substitution note (see DESIGN.md): the real paper uses Docker and Linux
//! cgroups; this crate reproduces the *costs* of those mechanisms (pull,
//! create, start, stop, remove, CPU quota stretching) in virtual time while
//! running genuine task computations, which is what the paper's figures
//! measure.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![warn(clippy::allow_attributes_without_reason)]

pub mod cgroup;
pub mod docker;
pub mod error;
pub mod image;
pub mod overhead;
pub mod registry;
pub mod runtime;

pub use cgroup::ResourceLimits;
pub use docker::{DockerCli, DockerRunReport, PullPolicy};
pub use error::ContainerError;
pub use image::{Image, ImageRef, Layer, LayerId};
pub use registry::{PullStats, Registry};
pub use runtime::{ContainerId, ContainerPhase, ContainerRuntime, ExecResult, Workload};
