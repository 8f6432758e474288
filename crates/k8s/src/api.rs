//! The API server: typed, watchable object stores plus admission
//! (duplicate rejection) and a modelled call latency, and the ready
//! endpoints of a labelled set of pods, read from the pod store.

use swf_cluster::NodeId;
use swf_simcore::{sleep, SimDuration};

use crate::error::K8sError;
use crate::nodes::NodeStatus;
use crate::pod::Pod;
use crate::store::Store;
use crate::workload_api::Deployment;

/// API server parameters.
#[derive(Clone, Copy, Debug)]
pub struct ApiConfig {
    /// Latency charged to each mutating API call.
    pub call_latency: SimDuration,
}

impl Default for ApiConfig {
    fn default() -> Self {
        ApiConfig {
            call_latency: SimDuration::from_micros(500),
        }
    }
}

/// The API server.
#[derive(Clone)]
pub struct ApiServer {
    config: ApiConfig,
    pods: Store<Pod>,
    deployments: Store<Deployment>,
    nodes: Store<NodeStatus>,
}

/// One routable backend: the address of a ready pod.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Endpoint {
    /// Node hosting the pod.
    pub node: NodeId,
    /// Pod serving port.
    pub port: u16,
}

/// The endpoint of `pod` if it is routable and labelled `key=value`.
/// `is_routable` implies a node assignment; a pod without one simply
/// isn't an endpoint yet.
fn endpoint(pod: &Pod, key: &str, value: &str) -> Option<Endpoint> {
    if !pod.is_routable() || pod.meta.labels.get(key).is_none_or(|v| v != value) {
        return None;
    }
    pod.status.node.map(|node| Endpoint {
        node,
        port: pod.status.port,
    })
}

impl Default for ApiServer {
    fn default() -> Self {
        Self::new(ApiConfig::default())
    }
}

impl ApiServer {
    /// Fresh API server.
    pub fn new(config: ApiConfig) -> Self {
        ApiServer {
            config,
            pods: Store::new(),
            deployments: Store::new(),
            nodes: Store::new(),
        }
    }

    async fn charge(&self) {
        sleep(self.config.call_latency).await;
    }

    /// Pod store (reads and watches are informer-cache-free of latency).
    pub fn pods(&self) -> &Store<Pod> {
        &self.pods
    }

    /// Deployment store.
    pub fn deployments(&self) -> &Store<Deployment> {
        &self.deployments
    }

    /// Node status store.
    pub fn nodes(&self) -> &Store<NodeStatus> {
        &self.nodes
    }

    /// The ready endpoints of the pods labelled `key=value`: one per
    /// routable pod, in ascending `(node, port)` order. What Kubernetes
    /// keeps as an Endpoints object is read here from the pod store in
    /// place, so it is never behind a pod write and allocates only the
    /// list it returns.
    pub fn ready_endpoints(&self, key: &str, value: &str) -> Vec<Endpoint> {
        let mut ready = Vec::with_capacity(self.ready_endpoint_count(key, value));
        self.pods.read(|pods| {
            ready.extend(pods.values().filter_map(|p| endpoint(p, key, value)));
        });
        // Endpoints with equal keys are equal, so the unstable sort, which
        // needs no scratch buffer, orders them as a stable one.
        ready.sort_unstable_by_key(|e| (e.node, e.port));
        ready
    }

    /// How many pods labelled `key=value` are routable: the length of
    /// [`ready_endpoints`](Self::ready_endpoints), without the list.
    pub(crate) fn ready_endpoint_count(&self, key: &str, value: &str) -> usize {
        self.pods.read(|pods| {
            pods.values()
                .filter(|p| endpoint(p, key, value).is_some())
                .count()
        })
    }

    /// Is the node ready? Nodes never registered count as ready so
    /// components work in partial test setups without a node store.
    pub fn node_ready(&self, id: NodeId) -> bool {
        self.nodes
            .read(|nodes| nodes.values().find(|n| n.id == id).map(|n| n.ready))
            .unwrap_or(true)
    }

    /// Create a pod; rejects duplicates.
    pub async fn create_pod(&self, mut pod: Pod) -> Result<(), K8sError> {
        self.charge().await;
        if self.pods.contains(&pod.meta.name) {
            return Err(K8sError::AlreadyExists(pod.meta.name));
        }
        // A pre-pinned pod skips the scheduler.
        if let Some(node) = pod.spec.node_name {
            pod.status.node = Some(node);
            pod.status.phase = crate::pod::PodPhase::Scheduled;
        }
        self.pods.put(pod.meta.name.clone(), pod);
        Ok(())
    }

    /// Request graceful deletion of a pod (kubelet finalizes).
    pub async fn delete_pod(&self, name: &str) -> Result<(), K8sError> {
        self.charge().await;
        // A pod the kubelet never touched (still Pending, no node) can be
        // removed immediately.
        let finalize_now = {
            match self.pods.get(name) {
                None => return Err(K8sError::NotFound(name.to_string())),
                Some(p) => p.status.node.is_none(),
            }
        };
        if finalize_now {
            self.pods.delete(name);
        } else {
            self.pods.update(name, |p| p.meta.deletion_requested = true);
        }
        Ok(())
    }

    /// Finalize: remove the pod object entirely (kubelet-only).
    pub(crate) fn finalize_pod_delete(&self, name: &str) {
        self.pods.delete(name);
    }

    /// Create a deployment.
    pub async fn create_deployment(&self, d: Deployment) -> Result<(), K8sError> {
        self.charge().await;
        if self.deployments.contains(&d.meta.name) {
            return Err(K8sError::AlreadyExists(d.meta.name));
        }
        self.deployments.put(d.meta.name.clone(), d);
        Ok(())
    }

    /// Scale a deployment.
    pub async fn scale_deployment(&self, name: &str, replicas: u32) -> Result<(), K8sError> {
        self.charge().await;
        self.deployments
            .update(name, |d| d.replicas = replicas)
            .ok_or_else(|| K8sError::NotFound(name.to_string()))
    }

    /// Delete a deployment (controllers cascade).
    pub async fn delete_deployment(&self, name: &str) -> Result<(), K8sError> {
        self.charge().await;
        self.deployments
            .delete(name)
            .map(|_| ())
            .ok_or_else(|| K8sError::NotFound(name.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::ObjectMeta;
    use crate::pod::{PodPhase, PodSpec};
    use swf_container::ImageRef;
    use swf_simcore::{now, Sim, SimTime};

    fn pod(name: &str) -> Pod {
        Pod::new(
            ObjectMeta::named(name),
            PodSpec::new(ImageRef::parse("img")),
        )
    }

    #[test]
    fn create_pod_charges_latency() {
        let sim = Sim::new();
        sim.block_on(async {
            let api = ApiServer::default();
            api.create_pod(pod("a")).await.unwrap();
            api.create_pod(pod("b")).await.unwrap();
            assert_eq!(api.pods().len(), 2);
            assert!(now() > SimTime::ZERO);
        });
    }

    #[test]
    fn duplicate_pod_rejected() {
        let sim = Sim::new();
        sim.block_on(async {
            let api = ApiServer::default();
            api.create_pod(pod("a")).await.unwrap();
            assert!(matches!(
                api.create_pod(pod("a")).await,
                Err(K8sError::AlreadyExists(_))
            ));
        });
    }

    #[test]
    fn prepinned_pod_skips_scheduler() {
        let sim = Sim::new();
        sim.block_on(async {
            let api = ApiServer::default();
            let mut p = pod("pinned");
            p.spec.node_name = Some(NodeId(2));
            api.create_pod(p).await.unwrap();
            let got = api.pods().get("pinned").unwrap();
            assert_eq!(got.status.node, Some(NodeId(2)));
            assert_eq!(got.status.phase, PodPhase::Scheduled);
        });
    }

    #[test]
    fn delete_unscheduled_pod_is_immediate() {
        let sim = Sim::new();
        sim.block_on(async {
            let api = ApiServer::default();
            api.create_pod(pod("a")).await.unwrap();
            api.delete_pod("a").await.unwrap();
            assert!(api.pods().get("a").is_none());
            assert!(matches!(
                api.delete_pod("a").await,
                Err(K8sError::NotFound(_))
            ));
        });
    }

    #[test]
    fn delete_scheduled_pod_marks_for_teardown() {
        let sim = Sim::new();
        sim.block_on(async {
            let api = ApiServer::default();
            let mut p = pod("a");
            p.spec.node_name = Some(NodeId(1));
            api.create_pod(p).await.unwrap();
            api.delete_pod("a").await.unwrap();
            let got = api.pods().get("a").unwrap();
            assert!(got.meta.deletion_requested);
        });
    }

    /// A pod on `node` at `port`, labelled `rev=<rev>`, routable.
    fn ready_pod(name: &str, rev: &str, node: usize, port: u16) -> Pod {
        let mut p = Pod::new(
            ObjectMeta::named(name).with_label("rev", rev),
            PodSpec::new(ImageRef::parse("img")),
        );
        p.status.node = Some(NodeId(node));
        p.status.phase = PodPhase::Running;
        p.status.ready = true;
        p.status.port = port;
        p
    }

    #[test]
    fn ready_endpoints_are_the_routable_pods_of_the_label_in_address_order() {
        let api = ApiServer::default();
        // Name order (a, b, c) is not address order.
        api.pods().put("a", ready_pod("a", "r1", 3, 30000));
        api.pods().put("b", ready_pod("b", "r1", 1, 30002));
        api.pods().put("c", ready_pod("c", "r1", 1, 30001));
        api.pods().put("other", ready_pod("other", "r2", 2, 30003));
        let at = |node, port| Endpoint {
            node: NodeId(node),
            port,
        };
        assert_eq!(
            api.ready_endpoints("rev", "r1"),
            [at(1, 30001), at(1, 30002), at(3, 30000)]
        );
        assert_eq!(api.ready_endpoint_count("rev", "r1"), 3);
        assert_eq!(api.ready_endpoints("rev", "r2"), [at(2, 30003)]);
        assert!(api.ready_endpoints("rev", "r3").is_empty());
        assert!(api.ready_endpoints("app", "r1").is_empty());

        // Unready, terminating and failed pods are not endpoints, and the
        // view shows each write at once.
        api.pods().update("a", |p| p.status.ready = false);
        api.pods().update("b", |p| p.meta.deletion_requested = true);
        api.pods()
            .update("c", |p| p.status.phase = PodPhase::Failed);
        assert!(api.ready_endpoints("rev", "r1").is_empty());
        assert_eq!(api.ready_endpoint_count("rev", "r1"), 0);
        api.pods().update("a", |p| p.status.ready = true);
        assert_eq!(api.ready_endpoints("rev", "r1"), [at(3, 30000)]);
    }

    #[test]
    fn scale_missing_deployment_errors() {
        let sim = Sim::new();
        sim.block_on(async {
            let api = ApiServer::default();
            assert!(matches!(
                api.scale_deployment("ghost", 3).await,
                Err(K8sError::NotFound(_))
            ));
        });
    }
}
