//! The pod scheduler: filter → score → bind.
//!
//! Filtering checks CPU-millis and memory fit against what is already bound
//! to each node; scoring prefers nodes that already cache the pod's image
//! (the locality effect behind Knative's `min-scale` pre-staging) and, as a
//! tiebreak, the least-allocated node. Binding is watch-driven: any pod
//! store change reruns the scheduling pass.

use std::collections::BTreeMap;

use swf_cluster::NodeId;
use swf_container::Registry;
use swf_simcore::{sleep, SimDuration};

use crate::api::ApiServer;
use crate::pod::{Pod, PodPhase};

/// Scheduler parameters.
#[derive(Clone, Copy, Debug)]
pub struct SchedulerConfig {
    /// Latency of one bind operation.
    pub bind_latency: SimDuration,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            bind_latency: SimDuration::from_millis(5),
        }
    }
}

/// Allocatable capacity of one schedulable node.
#[derive(Clone, Copy, Debug)]
pub struct NodeCapacity {
    /// Node id.
    pub node: NodeId,
    /// CPU capacity in millicores.
    pub cpu_millis: u64,
    /// Memory capacity in bytes.
    pub memory: u64,
}

/// The scheduler control loop.
pub struct Scheduler {
    api: ApiServer,
    registry: Registry,
    nodes: Vec<NodeCapacity>,
    config: SchedulerConfig,
}

impl Scheduler {
    /// Build a scheduler over the given nodes.
    pub fn new(
        api: ApiServer,
        registry: Registry,
        nodes: Vec<NodeCapacity>,
        config: SchedulerConfig,
    ) -> Self {
        Scheduler {
            api,
            registry,
            nodes,
            config,
        }
    }

    /// Run forever, binding pods as they appear (and re-trying when node
    /// health changes).
    pub async fn run(self) {
        let mut pods = self.api.pods().watch();
        let mut nodes = self.api.nodes().watch();
        loop {
            self.schedule_pass().await;
            swf_simcore::race(pods.changed(), nodes.changed()).await;
        }
    }

    /// One pass: bind every currently pending pod it can.
    pub async fn schedule_pass(&self) {
        loop {
            let pending = self.api.pods().filter(|p| {
                p.status.phase == PodPhase::Pending
                    && p.status.node.is_none()
                    && !p.meta.deletion_requested
            });
            if pending.is_empty() {
                return;
            }
            let mut bound_any = false;
            for pod in pending {
                let node = self.pick_node(&pod);
                if node.is_none() && !pod.status.message.is_empty() {
                    // Write-on-change only: rewriting the same message every
                    // pass would re-trigger our own watch forever.
                    continue;
                }
                // Drop the snapshot before writing, so the write is in place.
                let name = pod.meta.name.clone();
                drop(pod);
                let Some(node) = node else {
                    self.api.pods().update(&name, |p| {
                        p.status.message = "0 nodes available: insufficient resources".into();
                    });
                    continue;
                };
                sleep(self.config.bind_latency).await;
                // Re-check the pod still wants scheduling (it may have
                // been deleted while we slept).
                let still_pending = self.api.pods().get(&name).is_some_and(|p| {
                    p.status.phase == PodPhase::Pending && !p.meta.deletion_requested
                });
                if still_pending {
                    self.api.pods().update(&name, |p| {
                        p.status.node = Some(node);
                        p.status.phase = PodPhase::Scheduled;
                        p.status.message.clear();
                    });
                    bound_any = true;
                }
            }
            if !bound_any {
                return;
            }
            // Binding may have made room decisions stale; loop to re-list.
        }
    }

    /// Millicores and memory already committed per node. Keyed by node id
    /// in a `BTreeMap` so any future iteration is ordered (D2 of the
    /// determinism contract): the scheduler's scoring must never depend on
    /// hasher state.
    fn committed(&self) -> BTreeMap<NodeId, (u64, u64)> {
        let mut used: BTreeMap<NodeId, (u64, u64)> = BTreeMap::new();
        self.api.pods().read(|pods| {
            for p in pods.values() {
                if let Some(n) = p.live_on() {
                    let e = used.entry(n).or_default();
                    e.0 += u64::from(p.spec.resources.cpu_millis);
                    e.1 += p.spec.resources.memory;
                }
            }
        });
        used
    }

    /// Filter + score; returns the chosen node.
    fn pick_node(&self, pod: &Pod) -> Option<NodeId> {
        let used = self.committed();
        let mut best: Option<(i64, NodeId)> = None;
        for cap in &self.nodes {
            if !self.api.node_ready(cap.node) {
                continue;
            }
            let (cpu_used, mem_used) = used.get(&cap.node).copied().unwrap_or((0, 0));
            let cpu_req = u64::from(pod.spec.resources.cpu_millis);
            let mem_req = pod.spec.resources.memory;
            if cpu_used + cpu_req > cap.cpu_millis || mem_used + mem_req > cap.memory {
                continue;
            }
            let locality = if self.registry.is_cached(cap.node, &pod.spec.image) {
                1_000_000i64
            } else {
                0
            };
            // Least-allocated: prefer more free millicores.
            let free = (cap.cpu_millis - cpu_used - cpu_req) as i64;
            let score = locality + free;
            // Stable tie-break on node id keeps runs deterministic.
            if best.is_none_or(|(s, n)| score > s || (score == s && cap.node < n)) {
                best = Some((score, cap.node));
            }
        }
        best.map(|(_, n)| n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::ObjectMeta;
    use crate::pod::PodSpec;
    use swf_container::{Image, ImageRef, RegistryConfig, ResourceLimits};
    use swf_simcore::{spawn, Sim};

    fn capacities(n: usize) -> Vec<NodeCapacity> {
        (1..=n)
            .map(|i| NodeCapacity {
                node: NodeId(i),
                cpu_millis: 8000,
                memory: swf_cluster::gib(32),
            })
            .collect()
    }

    fn mk_pod(name: &str, cpu: u32) -> Pod {
        Pod::new(
            ObjectMeta::named(name),
            PodSpec::new(ImageRef::parse("img")).with_resources(ResourceLimits {
                cpu_millis: cpu,
                memory: swf_cluster::mib(256),
            }),
        )
    }

    fn setup(nodes: usize) -> (ApiServer, Registry, Scheduler) {
        let api = ApiServer::default();
        let registry = Registry::new(RegistryConfig::default());
        registry.push(Image::single_layer(
            ImageRef::parse("img"),
            1,
            swf_cluster::mib(10),
        ));
        let sched = Scheduler::new(
            api.clone(),
            registry.clone(),
            capacities(nodes),
            SchedulerConfig::default(),
        );
        (api, registry, sched)
    }

    #[test]
    fn binds_pending_pod_to_least_allocated() {
        let sim = Sim::new();
        sim.block_on(async {
            let (api, _reg, sched) = setup(2);
            spawn(sched.run());
            api.create_pod(mk_pod("p1", 1000)).await.unwrap();
            swf_simcore::sleep(swf_simcore::millis(50)).await;
            let p = api.pods().get("p1").unwrap();
            assert_eq!(p.status.phase, PodPhase::Scheduled);
            assert_eq!(p.status.node, Some(NodeId(1)));
            // Second pod spreads to node 2 (least allocated).
            api.create_pod(mk_pod("p2", 1000)).await.unwrap();
            swf_simcore::sleep(swf_simcore::millis(50)).await;
            let p2 = api.pods().get("p2").unwrap();
            assert_eq!(p2.status.node, Some(NodeId(2)));
        });
    }

    #[test]
    fn image_locality_wins_over_spread() {
        let sim = Sim::new();
        sim.block_on(async {
            let (api, reg, sched) = setup(2);
            // Cache the image on node 2 only.
            reg.pull(NodeId(2), &ImageRef::parse("img")).await.unwrap();
            spawn(sched.run());
            api.create_pod(mk_pod("p1", 1000)).await.unwrap();
            swf_simcore::sleep(swf_simcore::millis(50)).await;
            assert_eq!(api.pods().get("p1").unwrap().status.node, Some(NodeId(2)));
        });
    }

    #[test]
    fn resource_exhaustion_leaves_pod_pending_until_space() {
        let sim = Sim::new();
        sim.block_on(async {
            let (api, _reg, sched) = setup(1);
            spawn(sched.run());
            api.create_pod(mk_pod("big1", 8000)).await.unwrap();
            api.create_pod(mk_pod("big2", 8000)).await.unwrap();
            swf_simcore::sleep(swf_simcore::millis(50)).await;
            let p2 = api.pods().get("big2").unwrap();
            assert_eq!(p2.status.phase, PodPhase::Pending);
            assert!(p2.status.message.contains("insufficient"));
            // Free the first pod (simulate completion + deletion).
            api.pods().delete("big1");
            swf_simcore::sleep(swf_simcore::millis(50)).await;
            assert_eq!(
                api.pods().get("big2").unwrap().status.phase,
                PodPhase::Scheduled
            );
        });
    }

    #[test]
    fn never_overcommits_a_node() {
        let sim = Sim::new();
        sim.block_on(async {
            let (api, _reg, sched) = setup(2);
            spawn(sched.run());
            // 5 pods of 4000m over 2×8000m nodes: only 4 fit.
            for i in 0..5 {
                api.create_pod(mk_pod(&format!("p{i}"), 4000))
                    .await
                    .unwrap();
            }
            swf_simcore::sleep(swf_simcore::millis(100)).await;
            let pods = api.pods().list();
            let mut per_node: BTreeMap<NodeId, u64> = BTreeMap::new();
            let mut pending = 0;
            for p in &pods {
                match p.status.node {
                    Some(n) => *per_node.entry(n).or_default() += 4000,
                    None => pending += 1,
                }
            }
            assert_eq!(pending, 1);
            for (_, cpu) in per_node {
                assert!(cpu <= 8000);
            }
        });
    }
}
