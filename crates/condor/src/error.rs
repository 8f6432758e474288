//! Batch-system errors.

use std::fmt;

use crate::job::JobId;

/// DAG progress when a halted run ended — what its rescue DAG records,
/// attached to the error so non-resuming callers still see what was lost.
/// Nothing is in flight at a halt: every node not downstream of a failure
/// has finished. Boxed inside [`CondorError::DagNodeFailed`] to keep the
/// error small on the `Ok` path.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DagProgress {
    /// Names of nodes that completed (what the rescue DAG marks DONE).
    pub done: Vec<String>,
    /// Names of nodes that never ran: unreachable behind a failure.
    pub pending: Vec<String>,
}

/// Errors from the HTCondor-style substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CondorError {
    /// Unknown job id.
    NoSuchJob(JobId),
    /// Operation requires an Idle job.
    NotIdle(JobId),
    /// Job was removed before completing.
    JobRemoved(JobId),
    /// Input file missing on the submit node.
    MissingInput(String),
    /// Output file missing in the sandbox after execution.
    MissingOutput(String),
    /// DAG validation failed (cycle, bad edge).
    InvalidDag(String),
    /// A DAG node exhausted its retries.
    DagNodeFailed {
        /// Node name.
        node: String,
        /// Attempts made.
        attempts: u32,
        /// Last error text.
        last_error: String,
        /// Done and pending node sets at the halt.
        progress: Box<DagProgress>,
    },
}

impl fmt::Display for CondorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CondorError::NoSuchJob(id) => write!(f, "no such job: {id}"),
            CondorError::NotIdle(id) => write!(f, "{id} is not idle"),
            CondorError::JobRemoved(id) => write!(f, "{id} was removed"),
            CondorError::MissingInput(p) => write!(f, "missing input file: {p}"),
            CondorError::MissingOutput(p) => write!(f, "missing output file: {p}"),
            CondorError::InvalidDag(m) => write!(f, "invalid DAG: {m}"),
            CondorError::DagNodeFailed {
                node,
                attempts,
                last_error,
                progress,
            } => write!(
                f,
                "DAG node {node} failed after {attempts} attempts \
                 ({} done, {} pending): {last_error}",
                progress.done.len(),
                progress.pending.len()
            ),
        }
    }
}

impl std::error::Error for CondorError {}
