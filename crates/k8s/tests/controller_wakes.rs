//! Regression guard: a pod readiness flip wakes each control loop that
//! watches the pod store once, and nothing else.
//!
//! The loops watching pods are the scheduler, the Deployment and node
//! controllers, and one kubelet per worker; with the caller that makes the
//! write, one flip costs 3 + workers + 1 polls, however many replicas the
//! Deployment has: 7 on three workers. When a replica-set controller sat
//! between the Deployment and its pods, its status write after the flip
//! woke the Deployment controller a second time (9 polls, not 8); when an
//! Endpoints controller copied the ready pods into an Endpoints store, it
//! was one more pod watcher (8, not 7).

use swf_cluster::{Cluster, ClusterConfig};
use swf_container::{Image, ImageRef, Registry};
use swf_k8s::{Deployment, K8s, ObjectMeta, PodSpec, PodTemplate};
use swf_simcore::{current, millis, secs, sleep, Sim};

/// `ClusterConfig::default()` has three workers, one kubelet each.
const WORKERS: u64 = 3;
/// The scheduler and the Deployment and node controllers.
const CONTROLLERS: u64 = 3;

/// Task polls spent on one pod's readiness flip, with a converged
/// Deployment of `replicas` pods.
fn polls_for_one_readiness_flip(replicas: u32) -> u64 {
    Sim::new().block_on(async move {
        let cluster = Cluster::new(&ClusterConfig::default());
        let registry = Registry::default();
        let image = ImageRef::parse("fn:v1");
        registry.push(Image::python_scientific(image.clone(), 1));
        let k8s = K8s::start(&cluster, registry);
        let template = PodTemplate {
            meta: ObjectMeta::default().with_label("app", "fn"),
            spec: PodSpec::new(image),
        };
        k8s.api()
            .create_deployment(Deployment::new(ObjectMeta::named("fn"), replicas, template))
            .await
            .unwrap();
        sleep(secs(600.0)).await;
        let api = k8s.api();
        let pods = api.pods().list();
        assert_eq!(pods.len(), replicas as usize);
        assert!(pods.iter().all(|p| p.is_routable()), "converged");
        let name = pods[0].meta.name.clone();
        drop(pods);
        let before = current().steps();
        api.pods().update(&name, |pod| pod.status.ready = false);
        sleep(millis(1)).await;
        current().steps() - before
    })
}

#[test]
fn a_readiness_flip_polls_each_pod_watcher_once() {
    for replicas in [1, 4] {
        assert_eq!(
            polls_for_one_readiness_flip(replicas),
            CONTROLLERS + WORKERS + 1,
            "polls for one readiness flip at {replicas} replicas"
        );
    }
}
