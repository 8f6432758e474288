//! Deployment and Endpoints controllers.
//!
//! Both follow the level-triggered reconcile pattern: wake on any relevant
//! store change, list, diff desired vs observed, act. Neither writes the
//! objects it watches unless it has something to change, so reconciles
//! converge instead of re-triggering themselves forever.

use std::cell::RefCell;
use std::collections::BTreeMap;

use swf_simcore::race;

use crate::api::ApiServer;
use crate::meta::ObjectMeta;
use crate::pod::{Pod, PodPhase};
use crate::service::{Endpoint, Endpoints};

/// Deployment → Pods reconciliation.
///
/// A Deployment owns its pods directly: this model has one revision per
/// Deployment and no rollouts, so the replica set Kubernetes keeps between
/// the two would be a pass-through copy. Pods are named
/// `{deployment}-rs-{seq}`; the `-rs-` infix stands where Kubernetes puts
/// the pod-template hash.
pub struct DeploymentController {
    api: ApiServer,
    counters: RefCell<BTreeMap<String, u64>>,
}

impl DeploymentController {
    /// New controller.
    pub fn new(api: ApiServer) -> Self {
        DeploymentController {
            api,
            counters: RefCell::new(BTreeMap::new()),
        }
    }

    /// Run forever.
    pub async fn run(self) {
        let mut deps = self.api.deployments().watch();
        let mut pods = self.api.pods().watch();
        loop {
            self.reconcile().await;
            race(deps.changed(), pods.changed()).await;
        }
    }

    /// One pass.
    pub async fn reconcile(&self) {
        for d in self.api.deployments().list() {
            let d_name = d.meta.name.as_str();
            // Its live pods are looked at in place: snapshots of them held
            // across the `.await`s below would turn each kubelet write to
            // one into a copy.
            let is_live = |p: &Pod| {
                p.meta.owner.as_deref() == Some(d_name)
                    && !p.meta.deletion_requested
                    && p.status.phase != PodPhase::Failed
            };
            let live = self
                .api
                .pods()
                .read(|pods| pods.values().filter(|p| is_live(p)).count())
                as u32;
            if live < d.replicas {
                for _ in 0..(d.replicas - live) {
                    let seq = self.next_pod_seq(d_name);
                    let meta = ObjectMeta {
                        name: format!("{d_name}-rs-{seq}"),
                        labels: d.template.meta.labels.clone(),
                        owner: Some(d_name.to_string()),
                        ..Default::default()
                    };
                    let _ = self
                        .api
                        .create_pod(Pod::new(meta, d.template.spec.clone()))
                        .await;
                }
            } else if live > d.replicas {
                // Scale down: victims are the not-routable first, then the
                // last in lexicographic name order. Sequence numbers are not
                // zero-padded, so `…-rs-10` sorts before `…-rs-9`.
                let n_delete = (live - d.replicas) as usize;
                let victims: Vec<String> = self.api.pods().read(|pods| {
                    let mut owned: Vec<&Pod> =
                        pods.values().map(|p| &**p).filter(|p| is_live(p)).collect();
                    owned.sort_by(|a, b| {
                        b.is_routable()
                            .cmp(&a.is_routable())
                            .then(a.meta.name.cmp(&b.meta.name))
                    });
                    owned
                        .iter()
                        .rev()
                        .take(n_delete)
                        .map(|p| p.meta.name.clone())
                        .collect()
                });
                for name in victims {
                    let _ = self.api.delete_pod(&name).await;
                }
            }
        }
        // Orphan cleanup: pods owned by a vanished Deployment.
        let orphans: Vec<String> = self.api.pods().read(|pods| {
            pods.iter()
                .filter(|(_, p)| {
                    let owner = p.meta.owner.as_ref();
                    !p.meta.deletion_requested
                        && owner.is_some_and(|o| !self.api.deployments().contains(o))
                })
                .map(|(name, _)| name.clone())
                .collect()
        });
        for name in orphans {
            let _ = self.api.delete_pod(&name).await;
        }
    }

    /// Monotonic per-Deployment pod sequence. Seeded from existing pod names
    /// so a restarted controller never duplicates a live name, then kept in
    /// memory so names are not reused even after pods are deleted.
    fn next_pod_seq(&self, d_name: &str) -> u64 {
        let prefix = format!("{d_name}-rs-");
        let observed = self
            .api
            .pods()
            .read(|pods| {
                pods.keys()
                    .filter_map(|n| n.strip_prefix(&prefix).and_then(|s| s.parse::<u64>().ok()))
                    .max()
            })
            .map(|m| m + 1)
            .unwrap_or(0);
        let mut counters = self.counters.borrow_mut();
        let counter = counters.entry(d_name.to_string()).or_insert(0);
        let next = (*counter).max(observed);
        *counter = next + 1;
        next
    }
}

/// Service → Endpoints reconciliation.
pub struct EndpointsController {
    api: ApiServer,
}

impl EndpointsController {
    /// New controller.
    pub fn new(api: ApiServer) -> Self {
        EndpointsController { api }
    }

    /// Run forever.
    pub async fn run(self) {
        let mut services = self.api.services().watch();
        let mut pods = self.api.pods().watch();
        loop {
            self.reconcile();
            race(services.changed(), pods.changed()).await;
        }
    }

    /// One pass.
    pub fn reconcile(&self) {
        for svc in self.api.services().list() {
            let svc_name = &svc.meta.name;
            let current = self.api.endpoints().get(svc_name);
            // Sized by the current list, which a converged service's new one
            // matches: an idle pass allocates once however many pods it walks.
            let mut ready = Vec::with_capacity(current.as_ref().map_or(0, |c| c.ready.len()));
            self.api.pods().read(|pods| {
                ready.extend(
                    pods.values()
                        .filter(|p| p.is_routable() && svc.selector.matches(&p.meta.labels))
                        .filter_map(|p| {
                            // `is_routable` implies a node assignment; a pod
                            // without one simply isn't an endpoint yet.
                            p.status.node.map(|node| Endpoint {
                                node,
                                port: p.status.port,
                            })
                        }),
                );
            });
            // Endpoints with equal keys are equal, so the unstable sort,
            // which needs no scratch buffer, orders them as a stable one.
            ready.sort_unstable_by_key(|e| (e.node, e.port));
            let changed = current.is_none_or(|current| current.ready != ready);
            if changed {
                self.api.endpoints().put(
                    svc_name.clone(),
                    Endpoints {
                        service: svc_name.clone(),
                        ready,
                    },
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::LabelSelector;
    use crate::pod::PodSpec;
    use crate::workload_api::{Deployment, PodTemplate};
    use swf_cluster::NodeId;
    use swf_container::ImageRef;
    use swf_simcore::{secs, sleep, spawn, Sim};

    fn template() -> PodTemplate {
        PodTemplate {
            meta: ObjectMeta::default().with_label("app", "m"),
            spec: PodSpec::new(ImageRef::parse("img")),
        }
    }

    fn deployment(replicas: u32) -> Deployment {
        Deployment::new(ObjectMeta::named("d"), replicas, template())
    }

    #[test]
    fn deployment_creates_pods() {
        let sim = Sim::new();
        sim.block_on(async {
            let api = ApiServer::default();
            spawn(DeploymentController::new(api.clone()).run());
            api.create_deployment(deployment(3)).await.unwrap();
            sleep(secs(1.0)).await;
            assert_eq!(api.pods().len(), 3);
            for (n, p) in api.pods().list().iter().enumerate() {
                assert_eq!(p.meta.name, format!("d-rs-{n}"));
                assert_eq!(p.meta.owner.as_deref(), Some("d"));
                assert_eq!(p.meta.labels["app"], "m");
            }
        });
    }

    #[test]
    fn scale_up_and_down() {
        let sim = Sim::new();
        sim.block_on(async {
            let api = ApiServer::default();
            spawn(DeploymentController::new(api.clone()).run());
            api.create_deployment(deployment(2)).await.unwrap();
            sleep(secs(1.0)).await;
            assert_eq!(api.pods().len(), 2);
            api.scale_deployment("d", 5).await.unwrap();
            sleep(secs(1.0)).await;
            assert_eq!(api.pods().len(), 5);
            api.scale_deployment("d", 1).await.unwrap();
            sleep(secs(1.0)).await;
            // Unscheduled pods delete immediately.
            assert_eq!(api.pods().len(), 1);
        });
    }

    #[test]
    fn deleting_deployment_cascades() {
        let sim = Sim::new();
        sim.block_on(async {
            let api = ApiServer::default();
            spawn(DeploymentController::new(api.clone()).run());
            api.create_deployment(deployment(3)).await.unwrap();
            sleep(secs(1.0)).await;
            api.delete_deployment("d").await.unwrap();
            sleep(secs(1.0)).await;
            assert_eq!(api.pods().len(), 0);
        });
    }

    #[test]
    fn failed_pods_are_replaced() {
        let sim = Sim::new();
        sim.block_on(async {
            let api = ApiServer::default();
            spawn(DeploymentController::new(api.clone()).run());
            api.create_deployment(deployment(2)).await.unwrap();
            sleep(secs(1.0)).await;
            let victim = api.pods().list()[0].meta.name.clone();
            api.pods()
                .update(&victim, |p| p.status.phase = PodPhase::Failed);
            sleep(secs(1.0)).await;
            let live = api
                .pods()
                .filter(|p| p.status.phase != PodPhase::Failed)
                .len();
            assert_eq!(live, 2);
        });
    }

    #[test]
    fn endpoints_track_ready_pods() {
        let sim = Sim::new();
        sim.block_on(async {
            let api = ApiServer::default();
            spawn(EndpointsController::new(api.clone()).run());
            api.create_service(crate::service::Service {
                meta: ObjectMeta::named("svc"),
                selector: LabelSelector::eq("app", "m"),
            })
            .await
            .unwrap();
            let mut pod = Pod::new(
                ObjectMeta::named("p1").with_label("app", "m"),
                PodSpec::new(ImageRef::parse("img")),
            );
            pod.spec.node_name = Some(NodeId(1));
            api.create_pod(pod).await.unwrap();
            sleep(secs(0.1)).await;
            assert!(api.endpoints().get("svc").unwrap().ready.is_empty());
            api.pods().update("p1", |p| {
                p.status.phase = PodPhase::Running;
                p.status.ready = true;
                p.status.port = 31000;
            });
            sleep(secs(0.1)).await;
            let eps = api.endpoints().get("svc").unwrap();
            assert_eq!(
                eps.ready,
                vec![Endpoint {
                    node: NodeId(1),
                    port: 31000
                }]
            );
            // Marking unready removes it.
            api.pods().update("p1", |p| p.status.ready = false);
            sleep(secs(0.1)).await;
            assert!(api.endpoints().get("svc").unwrap().ready.is_empty());
        });
    }

    #[test]
    fn pod_names_are_never_reused() {
        let sim = Sim::new();
        sim.block_on(async {
            let api = ApiServer::default();
            spawn(DeploymentController::new(api.clone()).run());
            api.create_deployment(deployment(1)).await.unwrap();
            sleep(secs(1.0)).await;
            let first = api.pods().list()[0].meta.name.clone();
            api.scale_deployment("d", 0).await.unwrap();
            sleep(secs(1.0)).await;
            api.scale_deployment("d", 1).await.unwrap();
            sleep(secs(1.0)).await;
            let second = api.pods().list()[0].meta.name.clone();
            assert_ne!(first, second);
        });
    }
}
