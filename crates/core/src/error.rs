//! Typed errors for the experiment runners.
//!
//! The experiment harnesses drive every layer of the stack — cluster
//! filesystems, the container runtime, and the Knative data plane — so a
//! failed run can originate anywhere. [`ExperimentError`] wraps each
//! substrate's error type and adds the failure modes the experiments
//! themselves can detect (a worker without a runtime, a non-2xx function
//! response, a service that never became ready, a failed workflow or job),
//! so `experiments::*::run` can return `Result` instead of panicking
//! mid-measurement.

use std::fmt;

use swf_cluster::ClusterError;
use swf_container::ContainerError;
use swf_knative::KnativeError;

/// Any failure an experiment run can surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExperimentError {
    /// A cluster-layer operation (staging, reads) failed.
    Cluster(ClusterError),
    /// A container runtime or registry operation failed.
    Container(ContainerError),
    /// A Knative invocation failed after the platform's own retries.
    Knative(KnativeError),
    /// A scheduled worker node has no container runtime attached.
    MissingRuntime(String),
    /// A function invocation returned a non-success HTTP status.
    FailedResponse {
        /// The KService that was invoked.
        service: String,
        /// The HTTP status code of the response.
        status: u16,
    },
    /// The named KService did not reach its ready pod count before its
    /// deadline.
    ServiceNotReady(String),
    /// A workflow or a directly submitted job failed (the message says
    /// which and why).
    WorkflowFailed(String),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Cluster(e) => write!(f, "cluster error: {e}"),
            ExperimentError::Container(e) => write!(f, "container error: {e}"),
            ExperimentError::Knative(e) => write!(f, "knative error: {e}"),
            ExperimentError::MissingRuntime(node) => {
                write!(f, "no container runtime on worker {node}")
            }
            ExperimentError::FailedResponse { service, status } => {
                write!(f, "{service} returned HTTP {status}")
            }
            ExperimentError::ServiceNotReady(service) => {
                write!(f, "service {service} not ready within its deadline")
            }
            ExperimentError::WorkflowFailed(msg) => write!(f, "workflow failed: {msg}"),
        }
    }
}

impl std::error::Error for ExperimentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExperimentError::Cluster(e) => Some(e),
            ExperimentError::Container(e) => Some(e),
            ExperimentError::Knative(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ClusterError> for ExperimentError {
    fn from(e: ClusterError) -> Self {
        ExperimentError::Cluster(e)
    }
}

impl From<ContainerError> for ExperimentError {
    fn from(e: ContainerError) -> Self {
        ExperimentError::Container(e)
    }
}

impl From<KnativeError> for ExperimentError {
    fn from(e: KnativeError) -> Self {
        ExperimentError::Knative(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_wraps_the_source() {
        let e = ExperimentError::from(ClusterError::FileNotFound("in_a.mat".into()));
        assert_eq!(e.to_string(), "cluster error: file not found: in_a.mat");
        let e = ExperimentError::FailedResponse {
            service: "matmul".into(),
            status: 503,
        };
        assert_eq!(e.to_string(), "matmul returned HTTP 503");
        let e = ExperimentError::ServiceNotReady("matmul".into());
        assert_eq!(
            e.to_string(),
            "service matmul not ready within its deadline"
        );
    }

    #[test]
    fn source_chains_to_the_substrate_error() {
        use std::error::Error;
        let e = ExperimentError::from(KnativeError::ServiceNotFound("f".into()));
        assert!(e.source().is_some());
        assert!(ExperimentError::MissingRuntime("w1".into())
            .source()
            .is_none());
    }
}
