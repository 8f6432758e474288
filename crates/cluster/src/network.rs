//! Cluster network model.
//!
//! Every node has one full-duplex NIC modelled as two FIFO channels (egress
//! and ingress). A transfer from A to B charges propagation latency once and
//! serializes the payload through A's egress and B's ingress at link
//! bandwidth — so many concurrent transfers into one node contend, which is
//! exactly the effect behind the paper's "redundant data movement" concern.
//! Loopback transfers only pay a small kernel cost.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use swf_simcore::{secs, Resource, SimDuration};

use crate::error::ClusterError;
use crate::units::Rate;

/// Identifies a node in the cluster (index into the node table).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

/// Per-NIC bandwidth.
pub const BANDWIDTH: Rate = Rate::gbit_per_s(10.0);

/// One-way propagation latency between distinct nodes.
pub const LATENCY: SimDuration = SimDuration::from_micros(200);

/// Cost of a loopback round through the kernel.
pub const LOOPBACK_COST: SimDuration = SimDuration::from_micros(20);

struct Nic {
    egress: Resource,
    ingress: Resource,
}

/// Fault-injected quality degradation of one (unordered) node pair's link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkQuality {
    /// Multiplier on the propagation latency (≥ 1 slows the link).
    pub latency_factor: f64,
    /// Divisor on the effective bandwidth (≥ 1 slows the link).
    pub bandwidth_factor: f64,
}

struct State {
    nics: BTreeMap<NodeId, Nic>,
    transfers: u64,
    bytes_moved: u64,
    /// Unordered node pairs currently partitioned (fault injection).
    /// Empty by default — the common case pays one `is_empty` check.
    partitions: std::collections::BTreeSet<(NodeId, NodeId)>,
    /// Unordered node pairs with degraded links (fault injection).
    degraded: BTreeMap<(NodeId, NodeId), LinkQuality>,
    /// Transfers refused because of a partition.
    partition_drops: u64,
}

/// Canonical (sorted) key for an unordered node pair.
fn pair(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// The cluster fabric.
#[derive(Clone)]
pub struct Network {
    state: Rc<RefCell<State>>,
}

impl Network {
    /// Fabric over `node_count` nodes.
    pub fn new(node_count: usize) -> Self {
        let mut nics = BTreeMap::new();
        for i in 0..node_count {
            nics.insert(
                NodeId(i),
                Nic {
                    egress: Resource::new(1),
                    ingress: Resource::new(1),
                },
            );
        }
        Network {
            state: Rc::new(RefCell::new(State {
                nics,
                transfers: 0,
                bytes_moved: 0,
                partitions: std::collections::BTreeSet::new(),
                degraded: BTreeMap::new(),
                partition_drops: 0,
            })),
        }
    }

    /// Move `bytes` from `from` to `to`, returning the elapsed transfer time.
    pub async fn transfer(
        &self,
        from: NodeId,
        to: NodeId,
        bytes: u64,
    ) -> Result<SimDuration, ClusterError> {
        // Fault state is sampled once, at transfer start: a partition that
        // heals mid-flight does not rescue an already-refused transfer, and
        // a degradation applies to the whole payload.
        let quality = {
            let s = self.state.borrow();
            if !s.nics.contains_key(&from) {
                return Err(ClusterError::UnknownNode(from.to_string()));
            }
            if !s.nics.contains_key(&to) {
                return Err(ClusterError::UnknownNode(to.to_string()));
            }
            if from != to && !s.partitions.is_empty() && s.partitions.contains(&pair(from, to)) {
                drop(s);
                self.state.borrow_mut().partition_drops += 1;
                return Err(ClusterError::Partitioned {
                    from: from.to_string(),
                    to: to.to_string(),
                });
            }
            s.degraded.get(&pair(from, to)).copied()
        };
        let start = swf_simcore::now();
        if from == to {
            swf_simcore::sleep(LOOPBACK_COST).await;
        } else {
            // Degradation multiplies latency and divides bandwidth only
            // when a fault entry exists, so the calm path keeps the exact
            // float arithmetic it always had.
            let (latency, wire) = match quality {
                None => (LATENCY, secs(BANDWIDTH.time_for(bytes))),
                Some(q) => (
                    LATENCY.mul_f64(q.latency_factor.max(0.0)),
                    secs(BANDWIDTH.time_for(bytes) * q.bandwidth_factor.max(1.0)),
                ),
            };
            // Hold source egress while the payload serializes out...
            let egress = {
                let s = self.state.borrow();
                s.nics[&from].egress.clone()
            };
            let ingress = {
                let s = self.state.borrow();
                s.nics[&to].ingress.clone()
            };
            let eg = egress.acquire().await;
            swf_simcore::sleep(latency).await;
            // ...then through destination ingress.
            let ig = ingress.acquire().await;
            swf_simcore::sleep(wire).await;
            drop(ig);
            drop(eg);
        }
        let elapsed = swf_simcore::now() - start;
        {
            let mut s = self.state.borrow_mut();
            s.transfers += 1;
            s.bytes_moved += bytes;
        }
        Ok(elapsed)
    }

    /// Number of completed transfers.
    pub fn transfers(&self) -> u64 {
        self.state.borrow().transfers
    }

    /// Total bytes moved across the fabric (including loopback).
    pub fn bytes_moved(&self) -> u64 {
        self.state.borrow().bytes_moved
    }

    /// Fault injection: partition the (unordered) link between `a` and `b`.
    /// Transfers between them fail with [`ClusterError::Partitioned`] until
    /// [`Network::heal`]. Loopback traffic is never partitionable.
    pub fn partition(&self, a: NodeId, b: NodeId) {
        if a != b {
            self.state.borrow_mut().partitions.insert(pair(a, b));
        }
    }

    /// Heal a partition injected with [`Network::partition`]. Returns true
    /// when a partition was actually present.
    pub fn heal(&self, a: NodeId, b: NodeId) -> bool {
        self.state.borrow_mut().partitions.remove(&pair(a, b))
    }

    /// Fault injection: degrade the link between `a` and `b` — multiply its
    /// propagation latency by `quality.latency_factor` and divide its
    /// bandwidth by `quality.bandwidth_factor`.
    pub fn degrade_link(&self, a: NodeId, b: NodeId, quality: LinkQuality) {
        if a != b {
            self.state.borrow_mut().degraded.insert(pair(a, b), quality);
        }
    }

    /// Remove a degradation injected with [`Network::degrade_link`].
    /// Returns true when a degradation was actually present.
    pub fn restore_link(&self, a: NodeId, b: NodeId) -> bool {
        self.state
            .borrow_mut()
            .degraded
            .remove(&pair(a, b))
            .is_some()
    }

    /// Transfers refused because the link was partitioned.
    pub fn partition_drops(&self) -> u64 {
        self.state.borrow().partition_drops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swf_simcore::{join_all, now, spawn, Sim, SimTime};

    /// What 10 Gbit/s moves in exactly one second.
    const ONE_SECOND_OF_WIRE: u64 = 1_250_000_000;

    #[test]
    fn transfer_time_is_latency_plus_wire() {
        let sim = Sim::new();
        sim.block_on(async {
            let net = Network::new(2);
            let t = net
                .transfer(NodeId(0), NodeId(1), ONE_SECOND_OF_WIRE)
                .await
                .unwrap();
            assert_eq!(t, secs(1.0) + LATENCY);
        });
    }

    #[test]
    fn loopback_is_cheap() {
        let sim = Sim::new();
        sim.block_on(async {
            let net = Network::new(1);
            let t = net
                .transfer(NodeId(0), NodeId(0), 1_000_000_000)
                .await
                .unwrap();
            assert_eq!(t, LOOPBACK_COST);
        });
    }

    #[test]
    fn partition_refuses_traffic_until_healed() {
        let sim = Sim::new();
        sim.block_on(async {
            let net = Network::new(3);
            net.partition(NodeId(1), NodeId(0));
            // Both directions of the unordered pair are cut.
            assert!(matches!(
                net.transfer(NodeId(0), NodeId(1), 1).await,
                Err(ClusterError::Partitioned { .. })
            ));
            assert!(matches!(
                net.transfer(NodeId(1), NodeId(0), 1).await,
                Err(ClusterError::Partitioned { .. })
            ));
            // Unrelated links are untouched; loopback always works.
            assert!(net.transfer(NodeId(0), NodeId(2), 1).await.is_ok());
            assert!(net.transfer(NodeId(0), NodeId(0), 1).await.is_ok());
            assert_eq!(net.partition_drops(), 2);
            assert!(net.heal(NodeId(0), NodeId(1)));
            assert!(!net.heal(NodeId(0), NodeId(1)));
            assert!(net.transfer(NodeId(0), NodeId(1), 1).await.is_ok());
        });
    }

    #[test]
    fn degraded_link_slows_latency_and_bandwidth() {
        let sim = Sim::new();
        sim.block_on(async {
            let net = Network::new(2);
            let nominal = net
                .transfer(NodeId(0), NodeId(1), ONE_SECOND_OF_WIRE)
                .await
                .unwrap();
            net.degrade_link(
                NodeId(0),
                NodeId(1),
                LinkQuality {
                    latency_factor: 3.0,
                    bandwidth_factor: 2.0,
                },
            );
            let degraded = net
                .transfer(NodeId(0), NodeId(1), ONE_SECOND_OF_WIRE)
                .await
                .unwrap();
            // Latency × 3; the 1 s wire → 2 s.
            assert_eq!(degraded, secs(2.0) + LATENCY.mul_f64(3.0));
            assert!(degraded > nominal);
            assert!(net.restore_link(NodeId(0), NodeId(1)));
            assert!(!net.restore_link(NodeId(0), NodeId(1)));
            let restored = net
                .transfer(NodeId(0), NodeId(1), ONE_SECOND_OF_WIRE)
                .await
                .unwrap();
            assert_eq!(restored, nominal);
        });
    }

    #[test]
    fn unknown_node_is_an_error() {
        let sim = Sim::new();
        sim.block_on(async {
            let net = Network::new(1);
            assert!(matches!(
                net.transfer(NodeId(0), NodeId(9), 1).await,
                Err(ClusterError::UnknownNode(_))
            ));
            assert!(matches!(
                net.transfer(NodeId(9), NodeId(0), 1).await,
                Err(ClusterError::UnknownNode(_))
            ));
        });
    }

    #[test]
    fn concurrent_sends_from_one_node_serialize_on_egress() {
        let sim = Sim::new();
        sim.block_on(async {
            let net = Network::new(3);
            let handles: Vec<_> = [NodeId(1), NodeId(2)]
                .into_iter()
                .map(|dst| {
                    let net = net.clone();
                    spawn(async move {
                        net.transfer(NodeId(0), dst, ONE_SECOND_OF_WIRE)
                            .await
                            .unwrap();
                        now()
                    })
                })
                .collect();
            let done = join_all(handles).await;
            let wire = secs(1.0) + LATENCY;
            assert_eq!(done[0], SimTime::ZERO + wire);
            // Second send waits for the first to clear node-0 egress.
            assert!(done[1] > done[0]);
        });
    }

    #[test]
    fn fanin_contends_on_ingress() {
        let sim = Sim::new();
        sim.block_on(async {
            let net = Network::new(3);
            let handles: Vec<_> = [NodeId(1), NodeId(2)]
                .into_iter()
                .map(|src| {
                    let net = net.clone();
                    spawn(async move {
                        net.transfer(src, NodeId(0), ONE_SECOND_OF_WIRE)
                            .await
                            .unwrap();
                        now()
                    })
                })
                .collect();
            let done = join_all(handles).await;
            assert!(done[1] >= done[0] + secs(1.0), "{:?}", done);
            assert_eq!(net.transfers(), 2);
            assert_eq!(net.bytes_moved(), 2 * ONE_SECOND_OF_WIRE);
        });
    }
}
