//! Regression guard: a write to one pod costs the queue-proxy layer the
//! same executor work however many pods it serves.
//!
//! A queue-proxy is the handler bound at its pod's port, and one watch on
//! the pod store (`PodServers::run`) binds and unbinds them all. When each
//! pod had a serving task of its own that raced its mailbox against a
//! watch on the whole pod store, every pod write woke every queue-proxy:
//! the label-only update below took 10 polls with one ready pod and 17
//! with eight, one more per queue-proxy.

use swf_cluster::{Cluster, ClusterConfig};
use swf_container::{Image, ImageRef, Registry, RegistryConfig, Workload};
use swf_k8s::{K8s, K8sConfig};
use swf_knative::{KService, Knative, KnativeConfig};
use swf_simcore::{current, secs, sleep, yield_now, Sim};

/// Task polls spent on one label-only pod update, with `pods` ready pods
/// of an echo service.
fn polls_for_one_pod_write(pods: u32) -> u64 {
    Sim::new().block_on(async move {
        let cluster = Cluster::new(&ClusterConfig::default());
        let registry = Registry::new(RegistryConfig::default());
        let image = ImageRef::parse("fn:v1");
        registry.push(Image::python_scientific(image.clone(), 1));
        let k8s = K8s::start(&cluster, registry, K8sConfig::default());
        let kn = Knative::start(&cluster, k8s.clone(), KnativeConfig::default());
        kn.register_fn(KService::new("echo", image).with_min_scale(pods), |req| {
            let body = req.body.clone();
            Workload::new(secs(0.458), move || Ok(body))
        });
        kn.wait_ready("echo", pods as usize, secs(300.0))
            .await
            .unwrap();
        assert_eq!(kn.endpoints("echo").len(), pods as usize);
        sleep(secs(5.0)).await;
        let api = k8s.api();
        let name = api.pods().list()[0].meta.name.clone();
        let before = current().steps();
        api.pods().update(&name, |pod| {
            pod.meta.labels.insert("touched".into(), "yes".into());
        });
        yield_now().await;
        current().steps() - before
    })
}

#[test]
fn one_pod_write_wakes_the_queue_proxies_once() {
    let one = polls_for_one_pod_write(1);
    let eight = polls_for_one_pod_write(8);
    assert_eq!(
        one, eight,
        "polls for one pod write: {one} at 1 pod, {eight} at 8"
    );
}
