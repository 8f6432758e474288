//! The API server: typed, watchable object stores plus admission
//! (duplicate rejection) and a modelled call latency.

use swf_simcore::{sleep, SimDuration};

use crate::error::K8sError;
use crate::nodes::NodeStatus;
use crate::pod::Pod;
use crate::service::{Endpoints, Service};
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
    services: Store<Service>,
    endpoints: Store<Endpoints>,
    nodes: Store<NodeStatus>,
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
            services: Store::new(),
            endpoints: Store::new(),
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

    /// Service store.
    pub fn services(&self) -> &Store<Service> {
        &self.services
    }

    /// Endpoints store.
    pub fn endpoints(&self) -> &Store<Endpoints> {
        &self.endpoints
    }

    /// Node status store.
    pub fn nodes(&self) -> &Store<NodeStatus> {
        &self.nodes
    }

    /// Is the node ready? Nodes never registered count as ready so
    /// components work in partial test setups without a node store.
    pub fn node_ready(&self, id: swf_cluster::NodeId) -> bool {
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

    /// Create a service (its endpoints object appears immediately, empty).
    pub async fn create_service(&self, s: Service) -> Result<(), K8sError> {
        self.charge().await;
        if self.services.contains(&s.meta.name) {
            return Err(K8sError::AlreadyExists(s.meta.name));
        }
        self.endpoints.put(
            s.meta.name.clone(),
            Endpoints {
                service: s.meta.name.clone(),
                ready: Vec::new(),
            },
        );
        self.services.put(s.meta.name.clone(), s);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::ObjectMeta;
    use crate::pod::{PodPhase, PodSpec};
    use swf_cluster::NodeId;
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

    #[test]
    fn service_creation_seeds_empty_endpoints() {
        let sim = Sim::new();
        sim.block_on(async {
            let api = ApiServer::default();
            api.create_service(Service {
                meta: ObjectMeta::named("svc"),
                selector: crate::meta::LabelSelector::eq("app", "x"),
            })
            .await
            .unwrap();
            let eps = api.endpoints().get("svc").unwrap();
            assert!(eps.ready.is_empty());
        });
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
