//! Deployment, ReplicaSet and Endpoints controllers.
//!
//! All three follow the level-triggered reconcile pattern: wake on any
//! relevant store change, list, diff desired vs observed, act. Status
//! updates are write-on-change only, so reconciles converge instead of
//! re-triggering themselves forever.

use swf_simcore::race;

use crate::api::ApiServer;
use crate::meta::ObjectMeta;
use crate::pod::{Pod, PodPhase};
use crate::service::{Endpoint, Endpoints};
use crate::workload_api::{PodTemplate, ReplicaSet};

/// Deployment → ReplicaSet reconciliation.
pub struct DeploymentController {
    api: ApiServer,
}

impl DeploymentController {
    /// New controller.
    pub fn new(api: ApiServer) -> Self {
        DeploymentController { api }
    }

    /// Run forever.
    pub async fn run(self) {
        let mut deps = self.api.deployments().watch();
        let mut sets = self.api.replicasets().watch();
        loop {
            self.reconcile();
            race(deps.changed(), sets.changed()).await;
        }
    }

    /// One pass.
    pub fn reconcile(&self) {
        // Ensure each deployment has its ReplicaSet at the right scale.
        for d in self.api.deployments().list() {
            let rs_name = format!("{}-rs", d.meta.name);
            match self.api.replicasets().get(&rs_name) {
                None => {
                    self.api.replicasets().put(
                        rs_name.clone(),
                        ReplicaSet {
                            meta: ObjectMeta::named(&rs_name).owned_by(&d.meta.name),
                            replicas: d.replicas,
                            selector: d.selector.clone(),
                            template: PodTemplate {
                                meta: d.template.meta.clone(),
                                spec: d.template.spec.clone(),
                            },
                            ready_replicas: 0,
                        },
                    );
                }
                Some(rs) if rs.replicas != d.replicas => {
                    self.api
                        .replicasets()
                        .update(&rs_name, |rs| rs.replicas = d.replicas);
                }
                Some(_) => {}
            }
        }
        // Garbage-collect ReplicaSets whose deployment is gone.
        for (name, rs) in self.api.replicasets().entries() {
            if let Some(owner) = &rs.meta.owner {
                if !self.api.deployments().contains(owner) {
                    self.api.replicasets().delete(&name);
                }
            }
        }
    }
}

/// ReplicaSet → Pods reconciliation.
pub struct ReplicaSetController {
    api: ApiServer,
    counters: std::cell::RefCell<std::collections::BTreeMap<String, u64>>,
}

impl ReplicaSetController {
    /// New controller.
    pub fn new(api: ApiServer) -> Self {
        ReplicaSetController {
            api,
            counters: std::cell::RefCell::new(std::collections::BTreeMap::new()),
        }
    }

    /// Run forever.
    pub async fn run(self) {
        let mut sets = self.api.replicasets().watch();
        let mut pods = self.api.pods().watch();
        loop {
            self.reconcile().await;
            race(sets.changed(), pods.changed()).await;
        }
    }

    /// One pass.
    pub async fn reconcile(&self) {
        for (rs_name, rs) in self.api.replicasets().entries() {
            let owned: Vec<Pod> = self.api.pods().filter(|p| {
                p.meta.owner.as_deref() == Some(rs_name.as_str())
                    && !p.meta.deletion_requested
                    && p.status.phase != PodPhase::Failed
            });
            let live = owned.len() as u32;
            if live < rs.replicas {
                for _ in 0..(rs.replicas - live) {
                    let seq = self.next_pod_seq(&rs_name);
                    let pod_name = format!("{rs_name}-{seq}");
                    let meta = ObjectMeta {
                        name: pod_name.clone(),
                        labels: rs.template.meta.labels.clone(),
                        annotations: rs.template.meta.annotations.clone(),
                        owner: Some(rs_name.clone()),
                        ..Default::default()
                    };
                    let _ = self
                        .api
                        .create_pod(Pod::new(meta, rs.template.spec.clone()))
                        .await;
                }
            } else if live > rs.replicas {
                // Scale down: victims are the not-ready first, then the
                // newest (highest name sorts last with zero-padded seq).
                let mut victims = owned;
                victims.sort_by(|a, b| {
                    b.is_routable()
                        .cmp(&a.is_routable())
                        .then(a.meta.name.cmp(&b.meta.name))
                });
                let n_delete = (live - rs.replicas) as usize;
                for p in victims.into_iter().rev().take(n_delete) {
                    let _ = self.api.delete_pod(&p.meta.name).await;
                }
            }
            // Status write-on-change.
            let ready = self.api.pods().read(|pods| {
                pods.values()
                    .filter(|p| {
                        p.meta.owner.as_deref() == Some(rs_name.as_str()) && p.is_routable()
                    })
                    .count() as u32
            });
            if rs.ready_replicas != ready {
                self.api
                    .replicasets()
                    .update(&rs_name, |rs| rs.ready_replicas = ready);
            }
        }
        // Orphan cleanup: pods owned by a vanished ReplicaSet.
        let orphans: Vec<String> = self.api.pods().read(|pods| {
            pods.iter()
                .filter(|(_, p)| {
                    let owner = p.meta.owner.as_ref();
                    !p.meta.deletion_requested
                        && owner.is_some_and(|o| !self.api.replicasets().contains(o))
                })
                .map(|(name, _)| name.clone())
                .collect()
        });
        for name in orphans {
            let _ = self.api.delete_pod(&name).await;
        }
    }

    /// Monotonic per-ReplicaSet pod sequence. Seeded from existing pod names
    /// so a restarted controller never duplicates a live name, then kept in
    /// memory so names are not reused even after pods are deleted.
    fn next_pod_seq(&self, rs_name: &str) -> u64 {
        let prefix = format!("{rs_name}-");
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
        let counter = counters.entry(rs_name.to_string()).or_insert(0);
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
        for (svc_name, svc) in self.api.services().entries() {
            let mut ready: Vec<Endpoint> = self.api.pods().read(|pods| {
                pods.values()
                    .filter(|p| p.is_routable() && svc.selector.matches(&p.meta.labels))
                    .filter_map(|p| {
                        // `is_routable` implies a node assignment; a pod
                        // without one simply isn't an endpoint yet.
                        p.status.node.map(|node| Endpoint {
                            node,
                            port: p.status.port,
                        })
                    })
                    .collect()
            });
            ready.sort_by_key(|e| (e.node, e.port));
            let current = self.api.endpoints().get(&svc_name);
            let changed = current.map(|c| c.ready != ready).unwrap_or(true);
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
    use crate::workload_api::Deployment;
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
        Deployment::new(
            ObjectMeta::named("d"),
            replicas,
            LabelSelector::eq("app", "m"),
            template(),
        )
    }

    #[test]
    fn deployment_creates_replicaset_creates_pods() {
        let sim = Sim::new();
        sim.block_on(async {
            let api = ApiServer::default();
            spawn(DeploymentController::new(api.clone()).run());
            spawn(ReplicaSetController::new(api.clone()).run());
            api.create_deployment(deployment(3)).await.unwrap();
            sleep(secs(1.0)).await;
            assert!(api.replicasets().contains("d-rs"));
            assert_eq!(api.pods().len(), 3);
            for p in api.pods().list() {
                assert_eq!(p.meta.owner.as_deref(), Some("d-rs"));
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
            spawn(ReplicaSetController::new(api.clone()).run());
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
            spawn(ReplicaSetController::new(api.clone()).run());
            api.create_deployment(deployment(3)).await.unwrap();
            sleep(secs(1.0)).await;
            api.delete_deployment("d").await.unwrap();
            sleep(secs(1.0)).await;
            assert!(!api.replicasets().contains("d-rs"));
            assert_eq!(api.pods().len(), 0);
        });
    }

    #[test]
    fn failed_pods_are_replaced() {
        let sim = Sim::new();
        sim.block_on(async {
            let api = ApiServer::default();
            spawn(DeploymentController::new(api.clone()).run());
            spawn(ReplicaSetController::new(api.clone()).run());
            api.create_deployment(deployment(2)).await.unwrap();
            sleep(secs(1.0)).await;
            let victim = api.pods().entries()[0].0.clone();
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
            spawn(ReplicaSetController::new(api.clone()).run());
            api.create_deployment(deployment(1)).await.unwrap();
            sleep(secs(1.0)).await;
            let first = api.pods().entries()[0].0.clone();
            api.scale_deployment("d", 0).await.unwrap();
            sleep(secs(1.0)).await;
            api.scale_deployment("d", 1).await.unwrap();
            sleep(secs(1.0)).await;
            let second = api.pods().entries()[0].0.clone();
            assert_ne!(first, second);
        });
    }
}
