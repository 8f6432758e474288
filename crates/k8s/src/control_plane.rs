//! Control-plane assembly: wires API server, scheduler, controllers and one
//! kubelet per schedulable node over a [`swf_cluster::Cluster`].

use std::collections::BTreeMap;
use std::rc::Rc;

use swf_cluster::{Cluster, NodeId};
use swf_container::{ContainerRuntime, Registry};
use swf_simcore::{spawn, timeout, Elapsed, SimDuration};

use crate::api::ApiServer;
use crate::error::K8sError;
use crate::kubelet::Kubelet;
use crate::pod::PodPhase;
use crate::scheduler::{NodeCapacity, Scheduler};

/// A running control plane.
#[derive(Clone)]
pub struct K8s {
    api: ApiServer,
    registry: Registry,
    runtimes: Rc<BTreeMap<NodeId, ContainerRuntime>>,
}

impl K8s {
    /// Start the control plane: spawns the scheduler, the deployment and
    /// node controllers and one kubelet per worker node. Returns a handle
    /// for API access.
    pub fn start(cluster: &Cluster, registry: Registry) -> K8s {
        let api = ApiServer::default();
        let schedulable: Vec<_> = cluster
            .worker_nodes()
            .iter()
            .map(|n| (n.id(), n.clone()))
            .collect();

        let mut runtimes = BTreeMap::new();
        for (node_id, node) in &schedulable {
            let runtime = ContainerRuntime::new(node.clone(), registry.clone());
            runtimes.insert(*node_id, runtime.clone());
            let kubelet = Kubelet::new(api.clone(), runtime);
            spawn(kubelet.run());
        }

        let capacities: Vec<NodeCapacity> = schedulable
            .iter()
            .map(|(id, node)| NodeCapacity {
                node: *id,
                cpu_millis: node.cores().capacity() as u64 * 1000,
                memory: node.memory().capacity(),
            })
            .collect();
        // Register node objects (all ready at boot).
        for &(id, _) in &schedulable {
            api.nodes()
                .put(id.to_string(), crate::nodes::NodeStatus { id, ready: true });
        }
        spawn(Scheduler::new(api.clone(), registry.clone(), capacities).run());
        spawn(crate::controllers::DeploymentController::new(api.clone()).run());
        spawn(crate::nodes::NodeController::new(api.clone()).run());

        K8s {
            api,
            registry,
            runtimes: Rc::new(runtimes),
        }
    }

    /// The API server handle.
    pub fn api(&self) -> &ApiServer {
        &self.api
    }

    /// The image registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The container runtime of a schedulable node (used by serverless
    /// data-plane components to exec workloads inside pod containers).
    pub fn runtime(&self, node: NodeId) -> Option<&ContainerRuntime> {
        self.runtimes.get(&node)
    }

    /// Nodes with kubelets, in ascending node-id order (`BTreeMap` keys
    /// iterate sorted, so no explicit sort is needed).
    pub fn schedulable_nodes(&self) -> Vec<NodeId> {
        self.runtimes.keys().copied().collect()
    }

    /// Wait until `pod` is Running and Ready (polls the watch stream).
    pub async fn wait_pod_ready(&self, name: &str, deadline: SimDuration) -> Result<(), K8sError> {
        let api = self.api.clone();
        let name_owned = name.to_string();
        let wait = async move {
            let mut w = api.pods().watch();
            loop {
                match api.pods().get(&name_owned) {
                    Some(p) if p.is_routable() => return Ok(()),
                    Some(p) if p.status.phase == PodPhase::Failed => {
                        return Err(K8sError::Runtime(p.status.message.clone()));
                    }
                    Some(_) => {}
                    None => return Err(K8sError::NotFound(name_owned.clone())),
                }
                w.changed().await;
            }
        };
        match timeout(deadline, wait).await {
            Ok(r) => r,
            Err(Elapsed) => Err(K8sError::Timeout(format!("pod {name} not ready"))),
        }
    }

    /// Wait until at least `n` pods labelled `key=value` are routable
    /// ([`ApiServer::ready_endpoints`]): checked now, then on each pod
    /// write. `n = 0` returns at once.
    pub async fn wait_ready_endpoints(
        &self,
        key: &str,
        value: &str,
        n: usize,
        deadline: SimDuration,
    ) -> Result<(), K8sError> {
        let wait = async {
            let mut w = self.api.pods().watch();
            while self.api.ready_endpoint_count(key, value) < n {
                w.changed().await;
            }
        };
        timeout(deadline, wait).await.map_err(|Elapsed| {
            K8sError::Timeout(format!("{key}={value} did not reach {n} ready endpoints"))
        })
    }

    /// Failure injection: mark a node not ready. The node controller fails
    /// its pods; the Deployment controller replaces them on healthy nodes;
    /// the scheduler stops binding there.
    pub fn fail_node(&self, id: NodeId) {
        self.api
            .nodes()
            .update(&id.to_string(), |n| n.ready = false);
    }

    /// Bring a failed node back: the scheduler may bind to it again.
    pub fn recover_node(&self, id: NodeId) {
        self.api.nodes().update(&id.to_string(), |n| n.ready = true);
    }

    /// Is the node currently ready?
    pub fn node_is_ready(&self, id: NodeId) -> bool {
        self.api.node_ready(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::ObjectMeta;
    use crate::pod::PodSpec;
    use crate::workload_api::{Deployment, PodTemplate};
    use swf_cluster::{mib, ClusterConfig};
    use swf_container::{Image, ImageRef};
    use swf_simcore::{secs, sleep, Sim};

    /// Containers on the schedulable nodes that were created and not yet
    /// removed.
    fn containers_present(k8s: &K8s) -> u64 {
        let runtimes = k8s
            .schedulable_nodes()
            .into_iter()
            .map(|n| k8s.runtime(n).unwrap());
        runtimes
            .map(|rt| rt.created_total() - rt.removed_total())
            .sum()
    }

    fn boot() -> (Cluster, K8s, ImageRef) {
        let cluster = Cluster::new(&ClusterConfig::default());
        let registry = Registry::default();
        let image = ImageRef::parse("fn:v1");
        registry.push(Image::python_scientific(image.clone(), 1));
        let k8s = K8s::start(&cluster, registry);
        (cluster, k8s, image)
    }

    #[test]
    fn deployment_end_to_end_pods_run_on_workers() {
        let sim = Sim::new();
        sim.block_on(async {
            let (_cluster, k8s, image) = boot();
            k8s.api()
                .create_deployment(Deployment::new(
                    ObjectMeta::named("fn"),
                    3,
                    PodTemplate {
                        meta: ObjectMeta::default().with_label("app", "fn"),
                        spec: PodSpec::new(image.clone()),
                    },
                ))
                .await
                .unwrap();
            k8s.wait_ready_endpoints("app", "fn", 3, secs(120.0))
                .await
                .unwrap();
            let eps = k8s.api().ready_endpoints("app", "fn");
            assert_eq!(eps.len(), 3);
            // All on worker nodes (1..=3), spread by least-allocated.
            for e in &eps {
                assert!(e.node.0 >= 1 && e.node.0 <= 3);
            }
            // Containers exist on the nodes.
            let total = containers_present(&k8s);
            assert_eq!(total, 3);
        });
    }

    #[test]
    fn scale_to_zero_removes_containers() {
        let sim = Sim::new();
        sim.block_on(async {
            let (_cluster, k8s, image) = boot();
            k8s.api()
                .create_deployment(Deployment::new(
                    ObjectMeta::named("fn"),
                    2,
                    PodTemplate {
                        meta: ObjectMeta::default().with_label("app", "fn"),
                        spec: PodSpec::new(image.clone()),
                    },
                ))
                .await
                .unwrap();
            k8s.wait_ready_endpoints("app", "fn", 2, secs(120.0))
                .await
                .unwrap();
            k8s.api().scale_deployment("fn", 0).await.unwrap();
            sleep(secs(10.0)).await;
            let total = containers_present(&k8s);
            assert_eq!(total, 0);
            assert!(k8s.api().ready_endpoints("app", "fn").is_empty());
        });
    }

    #[test]
    fn wait_pod_ready_times_out_for_unschedulable() {
        let sim = Sim::new();
        sim.block_on(async {
            let (_cluster, k8s, image) = boot();
            let mut pod = crate::pod::Pod::new(
                ObjectMeta::named("huge"),
                PodSpec::new(image).with_resources(swf_container::ResourceLimits {
                    cpu_millis: 64_000,
                    memory: mib(1),
                }),
            );
            pod.spec.node_name = None;
            k8s.api().create_pod(pod).await.unwrap();
            let r = k8s.wait_pod_ready("huge", secs(5.0)).await;
            assert!(matches!(r, Err(K8sError::Timeout(_))));
        });
    }
}
