//! # swf-condor
//!
//! HTCondor-style batch system for the *Serverless Computing for Dynamic HPC
//! Workflows* reproduction: a schedd job queue, slot-fit matchmaking in
//! periodic negotiation cycles, per-node startds with slot claims and
//! sandbox file transfer, and a DAGMan engine with dependencies and
//! retries.
//!
//! The paper schedules every workflow task — including the serverless
//! wrapper tasks that synchronously invoke Knative — through HTCondor, so
//! negotiation-cycle and DAGMan-poll latencies dominate workflow makespans
//! (the 25 s/stage scale of Fig. 6).

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![warn(clippy::allow_attributes_without_reason)]

pub mod dagman;
pub mod error;
pub mod job;
pub mod negotiator;
pub mod pool;
pub mod rescue;
pub mod schedd;
pub mod startd;

pub use dagman::{run_dag, run_dag_resumable, DagNode, DagReport, DagRun, DagSpec, DagmanConfig};
pub use error::{CondorError, DagProgress};
pub use job::{JobContext, JobFn, JobId, JobResult, JobSpec, JobStatus, LocalBoxFuture};
pub use negotiator::{Negotiator, NegotiatorConfig};
pub use pool::{Condor, CondorConfig};
pub use rescue::{run_with_resumes, NodeOutcome, RescueDag, RescueNode, ResumeError, ResumedRun};
pub use schedd::Schedd;
pub use startd::{Startd, StartdConfig};
