//! Jobs: what the schedd queues and startds execute.

use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;

use bytes::Bytes;

use swf_cluster::{Cluster, Node, NodeId};
use swf_simcore::{SimDuration, SimTime};

/// Job identifier (cluster id in HTCondor terms).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Boxed local future, the return of a job program.
pub type LocalBoxFuture<T> = Pin<Box<dyn Future<Output = T>>>;

/// The executable of a job: an async program run on the claimed worker.
pub type JobFn = Rc<dyn Fn(JobContext) -> LocalBoxFuture<Result<Bytes, String>>>;

/// Everything a running job can touch on its worker.
#[derive(Clone)]
pub struct JobContext {
    /// The job's id.
    pub job: JobId,
    /// Node the job was matched to.
    pub node: Node,
    /// The whole cluster (network, shared fs, HTTP).
    pub cluster: Cluster,
    /// Node-local sandbox path prefix (`sandbox/<job>/`).
    pub sandbox: String,
    /// Tracing context of the startd's execute span — job programs parent
    /// their own spans (and outgoing HTTP headers) under it.
    pub span: swf_obs::SpanContext,
}

impl JobContext {
    /// Charge `d` of single-core compute on the executing node. The core
    /// was claimed by the startd slot, so this is a plain virtual sleep.
    pub async fn compute(&self, d: SimDuration) {
        swf_simcore::sleep(d).await;
    }

    /// Sandbox-relative path of a transferred input/output file.
    pub fn sandbox_path(&self, file: &str) -> String {
        format!("{}{file}", self.sandbox)
    }

    /// The node this job runs on.
    pub fn node_id(&self) -> NodeId {
        self.node.id()
    }
}

/// A submitted job description.
#[derive(Clone)]
pub struct JobSpec {
    /// Program to run on the worker.
    pub program: JobFn,
    /// Cores requested (slot granularity is one core; >1 claims several).
    pub request_cpus: u32,
    /// Files staged submit-node → worker sandbox before the program runs.
    pub input_files: Vec<String>,
    /// Files staged worker sandbox → submit node after success.
    pub output_files: Vec<String>,
    /// Tracing parent for every span of this job's lifecycle (queue,
    /// negotiate, activation, transfer, execute). DAGMan sets it to the
    /// workflow node's span; `NONE` leaves the job spans as roots.
    pub span: swf_obs::SpanContext,
}

impl JobSpec {
    /// Job with a program and defaults.
    pub fn new(
        program: impl Fn(JobContext) -> LocalBoxFuture<Result<Bytes, String>> + 'static,
    ) -> Self {
        JobSpec {
            program: Rc::new(program),
            request_cpus: 1,
            input_files: Vec::new(),
            output_files: Vec::new(),
            span: swf_obs::SpanContext::NONE,
        }
    }

    /// Set the tracing parent (builder style).
    pub fn with_span(mut self, span: swf_obs::SpanContext) -> Self {
        self.span = span;
        self
    }

    /// Set input files (builder style).
    pub fn with_inputs(mut self, files: Vec<String>) -> Self {
        self.input_files = files;
        self
    }

    /// Set output files (builder style).
    pub fn with_outputs(mut self, files: Vec<String>) -> Self {
        self.output_files = files;
        self
    }
}

/// Observable job state.
#[derive(Clone, Debug, PartialEq)]
pub enum JobStatus {
    /// Queued, waiting for a match.
    Idle,
    /// Matched and executing on a node.
    Running(NodeId),
    /// Finished.
    Completed(JobResult),
    /// Removed before completion.
    Removed,
}

/// Result of a completed job.
#[derive(Clone, Debug, PartialEq)]
pub struct JobResult {
    /// Whether the program returned Ok.
    pub success: bool,
    /// Program output (or error text).
    pub output: Bytes,
    /// Node that ran the job.
    pub node: NodeId,
    /// When execution started (after match + transfer).
    pub started: SimTime,
    /// When the job finished.
    pub finished: SimTime,
}

impl JobResult {
    /// Wall-clock from start of execution to completion.
    pub fn execution_time(&self) -> SimDuration {
        self.finished - self.started
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_execution_time() {
        let r = JobResult {
            success: true,
            output: Bytes::new(),
            node: NodeId(1),
            started: SimTime::from_nanos(1_000_000_000),
            finished: SimTime::from_nanos(3_500_000_000),
        };
        assert_eq!(r.execution_time(), SimDuration::from_millis(2500));
    }
}
