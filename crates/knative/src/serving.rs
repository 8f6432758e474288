//! The serving controller: KService → Revision → Deployment + Service.

use swf_k8s::{Deployment, LabelSelector, ObjectMeta, PodSpec, PodTemplate, Service, Store};
use swf_simcore::race;

use crate::config::KnativeConfig;
use crate::ksvc::{KService, Revision};

/// Reconciles KServices into revisions and Kubernetes objects.
pub struct ServingController {
    ksvcs: Store<KService>,
    revisions: Store<Revision>,
    k8s: swf_k8s::K8s,
    config: KnativeConfig,
}

impl ServingController {
    /// New controller over the given stores.
    pub fn new(
        ksvcs: Store<KService>,
        revisions: Store<Revision>,
        k8s: swf_k8s::K8s,
        config: KnativeConfig,
    ) -> Self {
        ServingController {
            ksvcs,
            revisions,
            k8s,
            config,
        }
    }

    /// Run forever.
    pub async fn run(self) {
        let mut ksvcs = self.ksvcs.watch();
        let mut revisions = self.revisions.watch();
        loop {
            self.reconcile().await;
            race(ksvcs.changed(), revisions.changed()).await;
        }
    }

    /// One pass.
    pub async fn reconcile(&self) {
        // Materialize revisions and their Kubernetes backing.
        for ksvc in self.ksvcs.list() {
            let rev_name = format!("{}-00001", ksvc.meta.name);
            if !self.revisions.contains(&rev_name) {
                let rev = Revision::from_service(&ksvc, self.config.autoscaler.default_target);
                self.materialize(&rev).await;
                self.revisions.put(rev_name, rev);
            }
        }
        // Tear down revisions whose KService is gone.
        for rev in self.revisions.list() {
            if !self.ksvcs.contains(&rev.service) {
                let _ = self
                    .k8s
                    .api()
                    .delete_deployment(&rev.deployment_name())
                    .await;
                self.revisions.delete(&rev.meta.name);
            }
        }
    }

    async fn materialize(&self, rev: &Revision) {
        let pod_labels = ObjectMeta::default()
            .with_label(Revision::pod_label(), &rev.meta.name)
            .with_label("serving.knative.dev/service", &rev.service);
        let mut pod_spec = PodSpec::new(rev.image.clone())
            .with_resources(rev.resources)
            .with_readiness_delay(self.config.data_plane.app_boot);
        if let Some(probe) = self.config.pod_probe {
            pod_spec = pod_spec.with_probe(probe);
        }
        let _ = self
            .k8s
            .api()
            .create_deployment(Deployment::new(
                ObjectMeta::named(rev.deployment_name()),
                rev.initial_scale,
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
                meta: ObjectMeta::named(rev.k8s_service_name()),
                selector: LabelSelector::eq(Revision::pod_label(), &rev.meta.name),
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

    fn boot() -> (swf_k8s::K8s, Store<KService>, Store<Revision>, ImageRef) {
        let cluster = Cluster::new(&ClusterConfig::default());
        let registry = Registry::new(RegistryConfig::default());
        let image = ImageRef::parse("fn:v1");
        registry.push(Image::python_scientific(image.clone(), 1));
        let k8s = K8s::start(&cluster, registry, K8sConfig::default());
        let ksvcs: Store<KService> = Store::new();
        let revisions: Store<Revision> = Store::new();
        spawn(
            ServingController::new(
                ksvcs.clone(),
                revisions.clone(),
                k8s.clone(),
                KnativeConfig::default(),
            )
            .run(),
        );
        (k8s, ksvcs, revisions, image)
    }

    #[test]
    fn kservice_materializes_deployment_and_service() {
        let sim = Sim::new();
        sim.block_on(async {
            let (k8s, ksvcs, revisions, image) = boot();
            let ksvc = KService::new("matmul", image).with_min_scale(2);
            ksvcs.put("matmul", ksvc);
            sleep(secs(1.0)).await;
            assert!(revisions.contains("matmul-00001"));
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
            let (k8s, ksvcs, _revisions, image) = boot();
            ksvcs.put("lazy", KService::new("lazy", image).with_initial_scale(0));
            sleep(secs(5.0)).await;
            assert_eq!(k8s.api().pods().len(), 0);
            // Deferred download: nothing pulled anywhere.
            for n in k8s.schedulable_nodes() {
                assert!(!k8s.registry().is_cached(n, &ImageRef::parse("fn:v1")));
            }
        });
    }

    #[test]
    fn deleting_kservice_cascades() {
        let sim = Sim::new();
        sim.block_on(async {
            let (k8s, ksvcs, revisions, image) = boot();
            ksvcs.put("m", KService::new("m", image));
            sleep(secs(30.0)).await;
            assert!(revisions.contains("m-00001"));
            ksvcs.delete("m");
            sleep(secs(30.0)).await;
            assert!(!revisions.contains("m-00001"));
            assert!(!k8s.api().deployments().contains("m-00001-deployment"));
            assert_eq!(k8s.api().pods().len(), 0);
        });
    }
}
