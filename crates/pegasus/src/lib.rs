//! # swf-pegasus
//!
//! Pegasus-style workflow management system for the *Serverless Computing
//! for Dynamic HPC Workflows* reproduction: abstract workflows whose
//! dependencies derive from producer/consumer file relations, the
//! transformation and replica catalogs, and a planner that emits
//! executable HTCondor DAGs — with task clustering and pluggable execution
//! venues so the integration crate can rewrite tasks into containerized or
//! serverless form, exactly the surface the paper modifies.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![warn(clippy::allow_attributes_without_reason)]

pub mod abstract_wf;
pub mod catalog;
pub mod pegasus;
pub mod planner;

pub use abstract_wf::{AbstractJob, AbstractWorkflow, TaskLogic, Transformation, WorkflowError};
pub use catalog::{ReplicaCatalog, ReplicaLocation, TransformationCatalog};
pub use pegasus::{Pegasus, PegasusError, WorkflowRunStats};
pub use planner::{
    plan, run_native, ExecutableWorkflow, JobFactory, NativeFactory, PlanError, PlanOptions,
    PlannedTask,
};
