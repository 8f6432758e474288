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
//!    response and are written back by the wrapper.
//! 4. **Transparent invocation** — [`factory::IntegratedFactory`] rewrites
//!    planned jobs into wrapper tasks that HTCondor schedules onto workers,
//!    which then synchronously invoke the pre-registered function.
//!
//! [`experiments`] regenerates every figure of the evaluation;
//! [`testbed::TestBed`] boots the full §V-A software stack in one call.
//!
//! ```
//! use swf_core::{ExperimentConfig, TestBed};
//! use swf_simcore::Sim;
//!
//! let sim = Sim::new();
//! sim.block_on(async {
//!     let bed = TestBed::boot(&ExperimentConfig::quick());
//!     assert_eq!(bed.condor.total_slots(), 24);
//! });
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
pub mod testbed;

pub use breakdown::{render_mix_breakdown, slowest_workflow_breakdown};
pub use builder::{matmul_transformation, stage_chain_workflow};
pub use config::{ContainerStaging, ExperimentConfig, Provisioning};
pub use error::ExperimentError;
pub use factory::IntegratedFactory;
pub use function::{register_matmul, FunctionBuilder};
pub use testbed::TestBed;
