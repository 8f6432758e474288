//! # swf-workloads
//!
//! The paper's workload, for real: dense integer matrices (350×350, entries
//! in [-100, 100]), two agreeing matmul kernels (naive / blocked), a binary
//! codec for files and pass-by-value request payloads, workflow-shape
//! generators (Fig. 3 chains, Fig. 4 concurrent sets with random
//! environment assignment), and the compute-time model that charges
//! virtual time for a task.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![warn(clippy::allow_attributes_without_reason)]

pub mod codec;
pub mod generator;
pub mod matmul;
pub mod matrix;
pub mod task;

pub use codec::{decode, encode, encoded_size, CodecError};
pub use generator::{
    chain_workflow, concurrent_workflows, ChainTask, ChainWorkflow, EnvMix, ExecEnv,
};
pub use matmul::{matmul, Kernel};
pub use matrix::Matrix;
pub use task::{multiply_encoded, ComputeModel};
