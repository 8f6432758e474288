//! The assembled cluster: nodes + fabric + HTTP + shared filesystem.
//!
//! Mirrors the paper's testbed: N virtual machines, one of which (node 0)
//! is the *submit node* hosting the HTCondor schedd, the Kubernetes control
//! plane, and the shared staging filesystem.

use std::rc::Rc;

use bytes::Bytes;

use crate::disk::Disk;
use crate::error::ClusterError;
use crate::fs::SimFs;
use crate::http::HttpStack;
use crate::network::{Network, NetworkConfig, NodeId};
use crate::node::{Node, NodeSpec};

/// Whole-cluster configuration.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of nodes (paper: 4).
    pub nodes: usize,
    /// Shape of each node.
    pub node_spec: NodeSpec,
    /// Fabric parameters.
    pub network: NetworkConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 4,
            node_spec: NodeSpec::default(),
            network: NetworkConfig::default(),
        }
    }
}

/// The simulated cluster.
#[derive(Clone)]
pub struct Cluster {
    nodes: Rc<Vec<Node>>,
    network: Network,
    http: HttpStack,
    shared_fs: SimFs,
}

impl Cluster {
    /// Build a cluster from its config.
    pub fn new(config: &ClusterConfig) -> Self {
        assert!(config.nodes >= 1, "cluster needs at least the submit node");
        let nodes: Vec<Node> = (0..config.nodes)
            .map(|i| Node::new(NodeId(i), config.node_spec))
            .collect();
        let network = Network::new(config.network, config.nodes);
        let http = HttpStack::new(network.clone());
        // The shared filesystem lives on the submit node's disk.
        let shared_fs = SimFs::new("shared-fs", Disk::standard_ssd("shared-fs-disk"));
        Cluster {
            nodes: Rc::new(nodes),
            network,
            http,
            shared_fs,
        }
    }

    /// The submit node (HTCondor schedd + k8s control plane + shared FS).
    pub fn submit_node(&self) -> &Node {
        &self.nodes[0]
    }

    /// Worker nodes (everything but the submit node). With a single-node
    /// cluster the submit node is also the worker.
    pub fn worker_nodes(&self) -> &[Node] {
        if self.nodes.len() == 1 {
            &self.nodes[..]
        } else {
            &self.nodes[1..]
        }
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Node by id.
    pub fn node(&self, id: NodeId) -> Result<&Node, ClusterError> {
        self.nodes
            .get(id.0)
            .ok_or_else(|| ClusterError::UnknownNode(id.to_string()))
    }

    /// The network fabric.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The HTTP layer.
    pub fn http(&self) -> &HttpStack {
        &self.http
    }

    /// The shared filesystem object (unmetered network; see
    /// [`Cluster::shared_read_from`] for metered access).
    pub fn shared_fs(&self) -> &SimFs {
        &self.shared_fs
    }

    /// Read `path` from the shared FS as seen from `from`: charges the
    /// submit-node disk plus a network hop for the payload.
    pub async fn shared_read_from(&self, from: NodeId, path: &str) -> Result<Bytes, ClusterError> {
        let data = self.shared_fs.read(path).await?;
        self.network
            .transfer(self.submit_node().id(), from, data.len() as u64)
            .await?;
        Ok(data)
    }

    /// Write `path` to the shared FS from `from`: network hop plus disk.
    pub async fn shared_write_from(
        &self,
        from: NodeId,
        path: impl Into<String>,
        data: Bytes,
    ) -> Result<(), ClusterError> {
        self.network
            .transfer(from, self.submit_node().id(), data.len() as u64)
            .await?;
        self.shared_fs.write(path, data).await;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swf_simcore::{now, Sim, SimTime};

    #[test]
    fn paper_testbed_shape() {
        let sim = Sim::new();
        sim.block_on(async {
            let c = Cluster::new(&ClusterConfig::default());
            assert_eq!(c.nodes().len(), 4);
            assert_eq!(c.worker_nodes().len(), 3);
            assert_eq!(c.submit_node().id(), NodeId(0));
            assert!(c.node(NodeId(5)).is_err());
        });
    }

    #[test]
    fn single_node_cluster_worker_is_submit() {
        let sim = Sim::new();
        sim.block_on(async {
            let c = Cluster::new(&ClusterConfig {
                nodes: 1,
                ..ClusterConfig::default()
            });
            assert_eq!(c.worker_nodes().len(), 1);
            assert_eq!(c.worker_nodes()[0].id(), c.submit_node().id());
        });
    }

    #[test]
    fn shared_fs_roundtrip_from_worker() {
        let sim = Sim::new();
        sim.block_on(async {
            let c = Cluster::new(&ClusterConfig::default());
            let worker = c.worker_nodes()[0].id();
            c.shared_write_from(worker, "in.mat", Bytes::from(vec![9u8; 1024]))
                .await
                .unwrap();
            let got = c.shared_read_from(worker, "in.mat").await.unwrap();
            assert_eq!(got.len(), 1024);
            assert!(now() > SimTime::ZERO); // time was charged
        });
    }
}
