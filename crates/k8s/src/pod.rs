//! Pods: the schedulable unit.

use swf_cluster::NodeId;
use swf_container::{ContainerId, ImageRef, ResourceLimits};
use swf_simcore::SimDuration;

use crate::meta::ObjectMeta;
use crate::probe::ProbeSpec;

/// Desired state of a pod.
#[derive(Clone, Debug)]
pub struct PodSpec {
    /// Container image to run.
    pub image: ImageRef,
    /// Resource requests/limits (requests == limits in this model).
    pub resources: ResourceLimits,
    /// Pin to a node (bypasses the scheduler when set at creation).
    pub node_name: Option<NodeId>,
    /// Extra application boot time after the container starts before the
    /// pod reports Ready (e.g. a Flask server importing NumPy).
    pub readiness_delay: SimDuration,
    /// TCP port the pod serves on (allocated by the kubelet when zero).
    pub port: u16,
    /// Health probe run by the kubelet once the pod is Running (`None` =
    /// no probing, the historical behaviour).
    pub probe: Option<ProbeSpec>,
}

impl PodSpec {
    /// Spec running `image` with default limits.
    pub fn new(image: ImageRef) -> Self {
        PodSpec {
            image,
            resources: ResourceLimits::default(),
            node_name: None,
            readiness_delay: SimDuration::ZERO,
            port: 0,
            probe: None,
        }
    }

    /// Set resources (builder style).
    pub fn with_resources(mut self, resources: ResourceLimits) -> Self {
        self.resources = resources;
        self
    }

    /// Set readiness delay (builder style).
    pub fn with_readiness_delay(mut self, d: SimDuration) -> Self {
        self.readiness_delay = d;
        self
    }

    /// Attach a health probe (builder style).
    pub fn with_probe(mut self, probe: ProbeSpec) -> Self {
        self.probe = Some(probe);
        self
    }
}

/// Observed lifecycle phase.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PodPhase {
    /// Accepted, not yet bound to a node.
    Pending,
    /// Bound; kubelet is pulling/creating.
    Scheduled,
    /// Container started.
    Running,
    /// Terminated successfully (not used by server pods).
    Succeeded,
    /// Terminated with failure.
    Failed,
}

/// Observed state of a pod.
#[derive(Clone, Debug)]
pub struct PodStatus {
    /// Current phase.
    pub phase: PodPhase,
    /// Node the pod is bound to.
    pub node: Option<NodeId>,
    /// Passed its readiness probe (routable).
    pub ready: bool,
    /// Backing container (set by the kubelet).
    pub container: Option<ContainerId>,
    /// Port the pod serves on (set by the kubelet).
    pub port: u16,
    /// Times the kubelet restarted the container after liveness failures.
    pub restart_count: u32,
    /// Failure/termination message.
    pub message: String,
}

impl Default for PodStatus {
    fn default() -> Self {
        PodStatus {
            phase: PodPhase::Pending,
            node: None,
            ready: false,
            container: None,
            port: 0,
            restart_count: 0,
            message: String::new(),
        }
    }
}

/// A pod object.
#[derive(Clone, Debug)]
pub struct Pod {
    /// Metadata.
    pub meta: ObjectMeta,
    /// Desired state.
    pub spec: PodSpec,
    /// Observed state.
    pub status: PodStatus,
}

impl Pod {
    /// New pod in `Pending`.
    pub fn new(meta: ObjectMeta, spec: PodSpec) -> Self {
        Pod {
            meta,
            spec,
            status: PodStatus::default(),
        }
    }

    /// The node whose capacity the pod occupies: the one it is bound to,
    /// until it terminates (`Succeeded` or `Failed`).
    pub fn live_on(&self) -> Option<NodeId> {
        let terminated = matches!(self.status.phase, PodPhase::Succeeded | PodPhase::Failed);
        self.status.node.filter(|_| !terminated)
    }

    /// Routable: running, ready, not being deleted.
    pub fn is_routable(&self) -> bool {
        self.status.phase == PodPhase::Running && self.status.ready && !self.meta.deletion_requested
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swf_container::ImageRef;

    #[test]
    fn new_pod_is_pending_and_unroutable() {
        let p = Pod::new(
            ObjectMeta::named("p1"),
            PodSpec::new(ImageRef::parse("img")),
        );
        assert_eq!(p.status.phase, PodPhase::Pending);
        assert!(!p.is_routable());
    }

    #[test]
    fn routable_requires_ready_running_and_live() {
        let mut p = Pod::new(
            ObjectMeta::named("p1"),
            PodSpec::new(ImageRef::parse("img")),
        );
        p.status.phase = PodPhase::Running;
        assert!(!p.is_routable());
        p.status.ready = true;
        assert!(p.is_routable());
        p.meta.deletion_requested = true;
        assert!(!p.is_routable());
    }
}
