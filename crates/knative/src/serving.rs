//! The serving controller: each KService gets a Deployment and a Service.

use swf_k8s::{Deployment, LabelSelector, ObjectMeta, PodSpec, PodTemplate, Service, Store};

use crate::config::KnativeConfig;
use crate::ksvc::{KService, REVISION_LABEL, SERVICE_LABEL};

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

    /// One pass: create the Deployment and Service of every KService whose
    /// Deployment does not exist yet.
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
        let revision = ksvc.revision();
        let pod_labels = ObjectMeta::default()
            .with_label(REVISION_LABEL, &revision)
            .with_label(SERVICE_LABEL, &ksvc.name);
        let mut pod_spec = PodSpec::new(ksvc.image.clone())
            .with_resources(ksvc.resources)
            .with_readiness_delay(self.config.data_plane.app_boot);
        if let Some(probe) = self.config.pod_probe {
            pod_spec = pod_spec.with_probe(probe);
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
        let _ = self
            .k8s
            .api()
            .create_service(Service {
                meta: ObjectMeta::named(ksvc.endpoints_name()),
                selector: LabelSelector::eq(REVISION_LABEL, revision),
            })
            .await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swf_cluster::{Cluster, ClusterConfig};
    use swf_container::{Image, ImageRef, Registry, RegistryConfig};
    use swf_k8s::{K8s, K8sConfig};
    use swf_simcore::{secs, sleep, spawn, Sim};

    fn boot() -> (swf_k8s::K8s, Store<KService>, ImageRef) {
        let cluster = Cluster::new(&ClusterConfig::default());
        let registry = Registry::new(RegistryConfig::default());
        let image = ImageRef::parse("fn:v1");
        registry.push(Image::python_scientific(image.clone(), 1));
        let k8s = K8s::start(&cluster, registry, K8sConfig::default());
        let ksvcs: Store<KService> = Store::new();
        spawn(ServingController::new(ksvcs.clone(), k8s.clone(), KnativeConfig::default()).run());
        (k8s, ksvcs, image)
    }

    #[test]
    fn kservice_materializes_deployment_and_service() {
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
            assert!(k8s.api().services().contains("matmul-00001-private"));
            // Pods eventually become ready with the app-boot readiness delay.
            k8s.wait_endpoints("matmul-00001-private", 2, secs(120.0))
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
