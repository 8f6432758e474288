//! Regression guard: registering a KService costs the serving controller
//! one wake and the one API call that backs it, and backs it exactly once.
//!
//! The controller watches the KService store alone. One registration wakes
//! it once; it then awaits the Deployment's creation, charged the API
//! server's latency, so the registration costs it 2 polls, however long
//! the pods take to come up. It cost 3 while the controller also created a
//! Kubernetes Service for an Endpoints controller to fill: a second
//! awaited API call. (The count was 3 as well when the controller also
//! copied each KService into a Revision store and watched that store too:
//! the controller's own write to it was seen inside the same poll, by a
//! second reconcile pass that found nothing to do.) What this pins is that
//! nothing else wakes it, that it makes one API call, and that the
//! Deployment and pods it leads to carry the revision's names.

use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use swf_cluster::{Cluster, ClusterConfig};
use swf_container::{Image, ImageRef, Registry, RegistryConfig};
use swf_k8s::{K8s, K8sConfig, Store};
use swf_knative::ksvc::{REVISION_LABEL, SERVICE_LABEL};
use swf_knative::{KService, KnativeConfig, ServingController};
use swf_simcore::{secs, sleep, spawn, Sim};

/// A future that counts its polls.
struct Counted<F> {
    inner: Pin<Box<F>>,
    polls: Rc<Cell<u64>>,
}

impl<F: Future> Future for Counted<F> {
    type Output = F::Output;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        self.polls.set(self.polls.get() + 1);
        self.inner.as_mut().poll(cx)
    }
}

#[test]
fn one_registration_wakes_the_serving_controller_once() {
    Sim::new().block_on(async {
        let cluster = Cluster::new(&ClusterConfig::default());
        let registry = Registry::new(RegistryConfig::default());
        let image = ImageRef::parse("fn:v1");
        registry.push(Image::python_scientific(image.clone(), 1));
        let k8s = K8s::start(&cluster, registry, K8sConfig::default());
        let ksvcs: Store<KService> = Store::new();
        let polls = Rc::new(Cell::new(0));
        let controller =
            ServingController::new(ksvcs.clone(), k8s.clone(), KnativeConfig::default());
        spawn(Counted {
            inner: Box::pin(controller.run()),
            polls: Rc::clone(&polls),
        });
        sleep(secs(1.0)).await;
        let before = polls.get();

        ksvcs.put("echo", KService::new("echo", image).with_min_scale(2));
        k8s.wait_ready_endpoints(REVISION_LABEL, "echo-00001", 2, secs(300.0))
            .await
            .unwrap();
        sleep(secs(60.0)).await;
        assert_eq!(polls.get() - before, 2, "serving controller polls");

        let api = k8s.api();
        let deployments: Vec<_> = api
            .deployments()
            .list()
            .iter()
            .map(|d| d.meta.name.clone())
            .collect();
        assert_eq!(deployments, ["echo-00001-deployment"]);
        let pods = api.pods().list();
        assert_eq!(pods.len(), 2);
        for pod in &pods {
            let labels = &pod.meta.labels;
            assert_eq!(labels[REVISION_LABEL], "echo-00001", "{}", pod.meta.name);
            assert_eq!(labels[SERVICE_LABEL], "echo", "{}", pod.meta.name);
        }
    });
}
