//! # swf-core — Serverless Computing for Dynamic HPC Workflows
//!
//! The paper's contribution, reproduced end to end: integration of a
//! Knative-style serverless platform with a Pegasus-style workflow
//! management system running on HTCondor and Kubernetes.
//!
//! The four mechanisms of §IV map to modules here:
//!
//! 1. **Task containerization & registration** — [`function::FunctionBuilder`]
//!    wraps a Pegasus transformation in an HTTP event listener and registers
//!    it with Knative before workflow execution.
//! 2. **Container provisioning** — [`config::Provisioning`] selects between
//!    `min-scale` pre-staging and `initial-scale: 0` deferred downloads.
//! 3. **File management** — [`function::encode_payload`] passes input files
//!    by value inside the invocation request; outputs return in the
//!    response and are written back by the wrapper. The body
//!    ([`swf_cluster::Body`]) keeps the files' own buffers and is charged
//!    as their encoding's length: the transfer is modelled, the bytes are
//!    not copied.
//! 4. **Transparent invocation** — [`factory::IntegratedFactory`] rewrites
//!    planned jobs into wrapper tasks that HTCondor schedules onto workers,
//!    which then synchronously invoke the pre-registered function.
//!
//! [`experiments`] regenerates every figure of the evaluation;
//! [`harness::run`] boots the full §V-A software stack
//! ([`testbed::TestBed`]) in a fresh simulation and runs one body on it.
//!
//! ```
//! use swf_core::{harness, ExperimentConfig};
//!
//! let (slots, _obs) = harness::run(&ExperimentConfig::quick(), async |bed| {
//!     bed.condor.total_slots()
//! });
//! assert_eq!(slots, 24);
//! ```

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![warn(clippy::allow_attributes_without_reason)]

pub mod breakdown;
pub mod builder;
pub mod config;
pub mod error;
pub mod experiments;
pub mod factory;
pub mod function;
pub mod harness;
pub mod testbed;

pub use breakdown::{render_mix_breakdown, slowest_workflow_breakdown};
pub use builder::{matmul_transformation, stage_chain_workflow, MatmulTask};
pub use config::{ContainerStaging, ExperimentConfig, Provisioning};
pub use error::ExperimentError;
pub use factory::IntegratedFactory;
pub use function::{register_matmul, FunctionBuilder};
pub use testbed::TestBed;
