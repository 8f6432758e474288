//! Node objects and the node controller: failure detection and pod
//! fail-over.
//!
//! The simulation can kill a node (`K8s::fail_node`); the node controller
//! then marks every pod bound to it as Failed, which makes the ReplicaSet
//! controller replace them on healthy nodes and the endpoints controller
//! stop routing to them — Kubernetes' node-lifecycle behaviour collapsed
//! into one level-triggered loop.

use swf_cluster::NodeId;

use crate::api::ApiServer;
use crate::pod::PodPhase;

/// Observed state of a cluster node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeStatus {
    /// The node.
    pub id: NodeId,
    /// Ready to accept and run pods.
    pub ready: bool,
}

/// Reconciles pod state with node health.
pub struct NodeController {
    api: ApiServer,
}

impl NodeController {
    /// New controller.
    pub fn new(api: ApiServer) -> Self {
        NodeController { api }
    }

    /// Run forever.
    pub async fn run(self) {
        let mut nodes = self.api.nodes().watch();
        let mut pods = self.api.pods().watch();
        loop {
            self.reconcile();
            swf_simcore::race(nodes.changed(), pods.changed()).await;
        }
    }

    /// One pass: fail pods stranded on not-ready nodes.
    pub fn reconcile(&self) {
        let down: Vec<NodeId> = self
            .api
            .nodes()
            .read(|nodes| nodes.values().filter(|n| !n.ready).map(|n| n.id).collect());
        if down.is_empty() {
            return;
        }
        // Pods already `Failed` stay in the store for good, so a pass
        // names only the ones it is about to fail.
        let stranded: Vec<(String, NodeId)> = self.api.pods().read(|pods| {
            pods.iter()
                .filter(|(_, p)| p.status.phase != PodPhase::Failed)
                .filter_map(|(name, p)| {
                    let node = p.status.node.filter(|n| down.contains(n))?;
                    Some((name.clone(), node))
                })
                .collect()
        });
        for (name, node) in stranded {
            self.api.pods().update(&name, |p| {
                p.status.phase = PodPhase::Failed;
                p.status.ready = false;
                p.status.message = format!("node {node} is not ready");
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::ObjectMeta;
    use crate::pod::{Pod, PodSpec};
    use swf_container::ImageRef;
    use swf_simcore::{secs, sleep, spawn, Sim};

    #[test]
    fn pods_on_failed_nodes_are_marked_failed() {
        let sim = Sim::new();
        sim.block_on(async {
            let api = ApiServer::default();
            api.nodes().put(
                "node-1",
                NodeStatus {
                    id: NodeId(1),
                    ready: true,
                },
            );
            spawn(NodeController::new(api.clone()).run());
            let mut pod = Pod::new(ObjectMeta::named("p"), PodSpec::new(ImageRef::parse("i")));
            pod.spec.node_name = Some(NodeId(1));
            api.create_pod(pod).await.unwrap();
            api.pods().update("p", |p| {
                p.status.phase = PodPhase::Running;
                p.status.ready = true;
            });
            sleep(secs(0.1)).await;
            assert_eq!(api.pods().get("p").unwrap().status.phase, PodPhase::Running);
            // Node goes down.
            api.nodes().update("node-1", |n| n.ready = false);
            sleep(secs(0.1)).await;
            let p = api.pods().get("p").unwrap();
            assert_eq!(p.status.phase, PodPhase::Failed);
            assert!(p.status.message.contains("not ready"));
        });
    }

    #[test]
    fn healthy_nodes_are_untouched() {
        let sim = Sim::new();
        sim.block_on(async {
            let api = ApiServer::default();
            api.nodes().put(
                "node-1",
                NodeStatus {
                    id: NodeId(1),
                    ready: true,
                },
            );
            api.nodes().put(
                "node-2",
                NodeStatus {
                    id: NodeId(2),
                    ready: false,
                },
            );
            spawn(NodeController::new(api.clone()).run());
            let mut pod = Pod::new(ObjectMeta::named("p"), PodSpec::new(ImageRef::parse("i")));
            pod.spec.node_name = Some(NodeId(1));
            api.create_pod(pod).await.unwrap();
            api.pods()
                .update("p", |p| p.status.phase = PodPhase::Running);
            sleep(secs(0.1)).await;
            assert_eq!(api.pods().get("p").unwrap().status.phase, PodPhase::Running);
        });
    }
}
