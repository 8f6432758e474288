//! A compute node: CPU cores, memory pool, local disk and filesystem.

use swf_simcore::{Resource, SimDuration};

use crate::disk::Disk;
use crate::fs::SimFs;
use crate::memory::MemoryPool;
use crate::network::NodeId;
use crate::units::gib;

/// Per-node hardware shape.
#[derive(Clone, Copy, Debug)]
pub struct NodeSpec {
    /// CPU cores (paper: 8 per VM).
    pub cores: usize,
    /// Memory bytes (paper: 32 GiB per VM).
    pub memory: u64,
}

impl Default for NodeSpec {
    fn default() -> Self {
        // The paper's testbed VMs: 8 cores, 32 GB, Xeon Gold 6342.
        NodeSpec {
            cores: 8,
            memory: gib(32),
        }
    }
}

/// One compute node.
#[derive(Clone)]
pub struct Node {
    id: NodeId,
    name: String,
    cores: Resource,
    memory: MemoryPool,
    disk: Disk,
    local_fs: SimFs,
}

impl Node {
    /// Build a node from a spec.
    pub fn new(id: NodeId, spec: NodeSpec) -> Self {
        let name = id.to_string();
        let disk = Disk::standard_ssd();
        Node {
            id,
            cores: Resource::new(spec.cores),
            memory: MemoryPool::new(name.clone(), spec.memory),
            local_fs: SimFs::new(format!("{name}-fs"), disk.clone()),
            disk,
            name,
        }
    }

    /// Node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Node name (`node-<i>`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The CPU core pool (acquire one core to run a task thread).
    pub fn cores(&self) -> &Resource {
        &self.cores
    }

    /// The memory pool.
    pub fn memory(&self) -> &MemoryPool {
        &self.memory
    }

    /// The node-local disk.
    pub fn disk(&self) -> &Disk {
        &self.disk
    }

    /// The node-local filesystem.
    pub fn fs(&self) -> &SimFs {
        &self.local_fs
    }

    /// Execute `compute` seconds of single-core work: waits for a free core,
    /// then holds it for the duration. Returns queueing delay.
    pub async fn run_on_core(&self, compute: SimDuration) -> SimDuration {
        self.cores.serve(compute).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swf_simcore::{join_all, now, secs, spawn, Sim, SimTime};

    #[test]
    fn default_spec_matches_paper_testbed() {
        let spec = NodeSpec::default();
        assert_eq!(spec.cores, 8);
        assert_eq!(spec.memory, gib(32));
    }

    #[test]
    fn cores_limit_parallelism() {
        let sim = Sim::new();
        sim.block_on(async {
            let node = Node::new(
                NodeId(0),
                NodeSpec {
                    cores: 2,
                    memory: gib(1),
                },
            );
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let node = node.clone();
                    spawn(async move {
                        node.run_on_core(secs(1.0)).await;
                    })
                })
                .collect();
            join_all(handles).await;
            assert_eq!(now(), SimTime::ZERO + secs(2.0));
        });
    }

    #[test]
    fn node_has_isolated_fs_and_memory() {
        let sim = Sim::new();
        sim.block_on(async {
            let a = Node::new(NodeId(0), NodeSpec::default());
            let b = Node::new(NodeId(1), NodeSpec::default());
            a.fs().stage("only-on-a", bytes::Bytes::from_static(b"x"));
            assert!(a.fs().exists("only-on-a"));
            assert!(!b.fs().exists("only-on-a"));
            let _lease = a.memory().reserve(gib(1)).unwrap();
            assert_eq!(b.memory().used(), 0);
        });
    }
}
