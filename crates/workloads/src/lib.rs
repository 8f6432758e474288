//! # swf-workloads
//!
//! The paper's workload, for real: dense integer matrices (350×350, entries
//! in [-100, 100]), three matmul bodies that agree bit for bit (a naive
//! triple loop; a row-axpy loop the optimiser vectorises, AVX2 when the CPU
//! has it; and, for a narrow B with `k·max|B| < 2^16`, a 16-bit limb loop
//! that sums each limb product exactly in `i32` lanes, written once over
//! the vector width and run at the widest the CPU has: AVX-512 with VNNI,
//! else AVX2), a
//! binary codec for files and pass-by-value request payloads that reads and
//! writes a slice of 8-byte cells at a time, workflow-shape generators
//! (Fig. 3 chains, Fig. 4 concurrent sets with random environment
//! assignment), and the compute-time model that charges virtual time for a
//! task.
//!
//! The task works on its wire format: [`multiply_encoded`] reads both
//! operands in place in their encodings and writes each byte of the
//! product's encoding once, with no decoded copy and no `n × m`
//! accumulator, and [`codec::random`] draws a seed matrix straight into
//! its file. Every encoding of 64 KiB or more takes its buffer from a
//! thread-local free list and gives it back when its last handle drops,
//! so a paper-scale pass faults its megabyte buffers in once; the list
//! never holds more than the most its buffers were ever live at once.
//!
//! The kernel is un-memoised on purpose: every call of
//! [`multiply_encoded`] computes its product into a buffer of its own,
//! so a caller that times repeated calls on one pair times real products.
//! The experiments' task (`swf_core::MatmulTask`) keeps the one-entry
//! memo that serves a repeated pair.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![warn(clippy::allow_attributes_without_reason)]

pub mod codec;
pub mod generator;
pub mod matmul;
pub mod matrix;
mod pool;
pub mod task;

pub use codec::{decode, encode, encoded_size, CodecError};
pub use generator::{
    chain_workflow, concurrent_workflows, ChainTask, ChainWorkflow, EnvMix, ExecEnv,
};
pub use matmul::{matmul, Kernel};
pub use matrix::Matrix;
pub use task::{multiply_encoded, ComputeModel};
