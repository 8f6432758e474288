//! The serving controller: each KService gets a Deployment. Its pods carry
//! the revision label, and the revision's ready endpoints are read from
//! them ([`swf_k8s::ApiServer::ready_endpoints`]), so no Kubernetes Service
//! stands in front of them.

use swf_k8s::{Deployment, ObjectMeta, PodSpec, PodTemplate, ProbeSpec, Store};
use swf_simcore::SimDuration;

use crate::config::KnativeConfig;
use crate::ksvc::{KService, REVISION_LABEL, SERVICE_LABEL};

/// Application boot from container start to readiness (Flask importing
/// NumPy in the paper's functions): the end-to-end cold start with a cached
/// image lands at the paper's 1.48 s (§III-B).
pub const APP_BOOT: SimDuration = SimDuration::from_millis(1250);

/// The health probe on every function pod under
/// [`KnativeConfig::self_healing`]: a crashed container is unready after one
/// failed check and restarted after two, checked every second.
pub const POD_PROBE: ProbeSpec = ProbeSpec {
    period: SimDuration::from_secs(1),
    unready_threshold: 1,
    failure_threshold: 2,
};

/// Backs every KService with its Kubernetes objects.
pub struct ServingController {
    ksvcs: Store<KService>,
    k8s: swf_k8s::K8s,
    config: KnativeConfig,
}

impl ServingController {
    /// New controller over the KService store.
    pub fn new(ksvcs: Store<KService>, k8s: swf_k8s::K8s, config: KnativeConfig) -> Self {
        ServingController { ksvcs, k8s, config }
    }

    /// Run forever.
    pub async fn run(self) {
        let mut ksvcs = self.ksvcs.watch();
        loop {
            self.reconcile().await;
            ksvcs.changed().await;
        }
    }

    /// One pass: create the Deployment of every KService that has none
    /// yet.
    async fn reconcile(&self) {
        for ksvc in self.ksvcs.list() {
            if !self
                .k8s
                .api()
                .deployments()
                .contains(&ksvc.deployment_name())
            {
                self.materialize(&ksvc).await;
            }
        }
    }

    async fn materialize(&self, ksvc: &KService) {
        let pod_labels = ObjectMeta::default()
            .with_label(REVISION_LABEL, ksvc.revision())
            .with_label(SERVICE_LABEL, &ksvc.name);
        let mut pod_spec = PodSpec::new(ksvc.image.clone())
            .with_resources(ksvc.resources)
            .with_readiness_delay(APP_BOOT);
        if self.config.self_healing {
            pod_spec = pod_spec.with_probe(POD_PROBE);
        }
        let _ = self
            .k8s
            .api()
            .create_deployment(Deployment::new(
                ObjectMeta::named(ksvc.deployment_name()),
                ksvc.initial_replicas(),
                PodTemplate {
                    meta: pod_labels,
                    spec: pod_spec,
                },
            ))
            .await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swf_cluster::{Cluster, ClusterConfig};
    use swf_container::{Image, ImageRef, Registry};
    use swf_k8s::K8s;
    use swf_simcore::{secs, sleep, spawn, Sim};

    fn boot() -> (swf_k8s::K8s, Store<KService>, ImageRef) {
        let cluster = Cluster::new(&ClusterConfig::default());
        let registry = Registry::default();
        let image = ImageRef::parse("fn:v1");
        registry.push(Image::python_scientific(image.clone(), 1));
        let k8s = K8s::start(&cluster, registry);
        let ksvcs: Store<KService> = Store::new();
        spawn(ServingController::new(ksvcs.clone(), k8s.clone(), KnativeConfig::default()).run());
        (k8s, ksvcs, image)
    }

    #[test]
    fn kservice_materializes_a_deployment_whose_pods_become_endpoints() {
        let sim = Sim::new();
        sim.block_on(async {
            let (k8s, ksvcs, image) = boot();
            let ksvc = KService::new("matmul", image).with_min_scale(2);
            ksvcs.put("matmul", ksvc);
            sleep(secs(1.0)).await;
            let dep = k8s
                .api()
                .deployments()
                .get("matmul-00001-deployment")
                .unwrap();
            assert_eq!(dep.replicas, 2);
            // Pods eventually become ready with the app-boot readiness delay.
            k8s.wait_ready_endpoints(REVISION_LABEL, "matmul-00001", 2, secs(120.0))
                .await
                .unwrap();
        });
    }

    #[test]
    fn initial_scale_zero_creates_no_pods() {
        let sim = Sim::new();
        sim.block_on(async {
            let (k8s, ksvcs, image) = boot();
            ksvcs.put("lazy", KService::new("lazy", image).with_initial_scale(0));
            sleep(secs(5.0)).await;
            assert!(k8s.api().deployments().contains("lazy-00001-deployment"));
            assert_eq!(k8s.api().pods().len(), 0);
            // Deferred download: nothing pulled anywhere.
            for n in k8s.schedulable_nodes() {
                assert!(!k8s.registry().is_cached(n, &ImageRef::parse("fn:v1")));
            }
        });
    }
}
