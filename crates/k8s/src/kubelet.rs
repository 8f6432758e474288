//! The kubelet: per-node agent that turns scheduled pods into running
//! containers and finalizes deletions.
//!
//! Startup path: ensure image (pull if missing) → create container →
//! start → readiness delay → report Running/Ready. Deletion path: stop →
//! remove → finalize the API object. Both run as spawned tasks so one slow
//! pull never blocks other pods on the node.

use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::rc::Rc;

use swf_simcore::{sleep, spawn};

use crate::api::ApiServer;
use crate::pod::PodPhase;

use swf_container::{ContainerPhase, ContainerRuntime};

/// First port handed to pods on a node.
const PORT_BASE: u16 = 30000;

/// The per-node kubelet.
#[derive(Clone)]
pub struct Kubelet {
    api: ApiServer,
    runtime: ContainerRuntime,
    next_port: Rc<Cell<u16>>,
    inflight: Rc<RefCell<BTreeSet<String>>>,
}

impl Kubelet {
    /// Kubelet for `runtime`'s node.
    pub fn new(api: ApiServer, runtime: ContainerRuntime) -> Self {
        Kubelet {
            api,
            runtime,
            next_port: Rc::new(Cell::new(PORT_BASE)),
            inflight: Rc::new(RefCell::new(BTreeSet::new())),
        }
    }

    /// The container runtime this kubelet drives.
    pub fn runtime(&self) -> &ContainerRuntime {
        &self.runtime
    }

    /// Run forever, reconciling pods bound to this node.
    pub async fn run(self) {
        let mut watcher = self.api.pods().watch();
        loop {
            self.reconcile();
            watcher.changed().await;
        }
    }

    /// One reconcile pass (non-blocking: work is spawned).
    pub fn reconcile(&self) {
        let my_node = self.runtime.node().id();
        // `(name, deleting)` of the pods this pass acts on: running and
        // dead pods bound here are looked at, not copied.
        let todo: Vec<(String, bool)> = self.api.pods().read(|pods| {
            let inflight = self.inflight.borrow();
            pods.values()
                .filter(|p| p.status.node == Some(my_node))
                .filter(|p| p.meta.deletion_requested || p.status.phase == PodPhase::Scheduled)
                .filter(|p| !inflight.contains(&p.meta.name))
                .map(|p| (p.meta.name.clone(), p.meta.deletion_requested))
                .collect()
        });
        for (name, deleting) in todo {
            if deleting {
                self.inflight.borrow_mut().insert(name.clone());
                let this = self.clone();
                spawn(async move {
                    this.teardown(&name).await;
                    this.inflight.borrow_mut().remove(&name);
                });
            } else if self.api.node_ready(my_node) {
                self.inflight.borrow_mut().insert(name.clone());
                let this = self.clone();
                spawn(async move {
                    this.startup(&name).await;
                    this.inflight.borrow_mut().remove(&name);
                });
            }
        }
    }

    async fn startup(&self, name: &str) {
        let Some(pod) = self.api.pods().get(name) else {
            return;
        };
        let obs = swf_obs::current();
        let component = format!("{}/kubelet", self.runtime.node().name());
        // Root span for the pod's cold start; the activator links its
        // cold-wait span to it via the `pod/<name>` anchor.
        let boot = obs.span(
            swf_obs::SpanContext::NONE,
            &component,
            format!("pod-start:{name}"),
            swf_obs::Category::ColdStart,
        );
        obs.set_anchor(&format!("pod/{name}"), boot.ctx());
        let image = pod.spec.image.clone();
        let pull = obs.span(
            boot.ctx(),
            &component,
            format!("pull:{image}"),
            swf_obs::Category::Pull,
        );
        if let Err(e) = self.runtime.ensure_image(&image).await {
            self.fail(name, &format!("image pull failed: {e}"));
            return;
        }
        drop(pull);
        let create = obs.span(
            boot.ctx(),
            &component,
            format!("create:{name}"),
            swf_obs::Category::Create,
        );
        let container = match self.runtime.create(&image, pod.spec.resources).await {
            Ok(c) => c,
            Err(e) => {
                self.fail(name, &format!("create failed: {e}"));
                return;
            }
        };
        if let Err(e) = self.runtime.start(container).await {
            self.fail(name, &format!("start failed: {e}"));
            return;
        }
        drop(create);
        // Application boot before readiness.
        if !pod.spec.readiness_delay.is_zero() {
            sleep(pod.spec.readiness_delay).await;
        }
        // The pod may have been deleted — or failed over by the node
        // controller — while starting; never overwrite that state.
        let aborted = self
            .api
            .pods()
            .get(name)
            .map(|p| p.meta.deletion_requested || p.status.phase == PodPhase::Failed)
            .unwrap_or(true);
        if aborted {
            let _ = self.runtime.stop(container).await;
            let _ = self.runtime.remove(container).await;
            let still_deleting = self
                .api
                .pods()
                .get(name)
                .map(|p| p.meta.deletion_requested)
                .unwrap_or(false);
            if still_deleting {
                self.api.finalize_pod_delete(name);
            }
            return;
        }
        let port = if pod.spec.port != 0 {
            pod.spec.port
        } else {
            let p = self.next_port.get();
            self.next_port.set(p.wrapping_add(1).max(1024));
            p
        };
        let probe = pod.spec.probe;
        // Drop the snapshot before writing, so the write is in place.
        drop(pod);
        obs.counter_add("k8s.pods_started", 1);
        self.api.pods().update(name, |p| {
            p.status.phase = PodPhase::Running;
            p.status.ready = true;
            p.status.container = Some(container);
            p.status.port = port;
        });
        if let Some(probe) = probe {
            let this = self.clone();
            let name = name.to_string();
            spawn(async move {
                this.probe_loop(&name, probe).await;
            });
        }
    }

    /// Periodic health probing of a running pod, living as long as the pod
    /// does. A crashed container first fails readiness (the pod drops out
    /// of routing), then liveness (the kubelet restarts the container in
    /// place, keeping the pod object, node binding and port).
    async fn probe_loop(&self, name: &str, probe: crate::probe::ProbeSpec) {
        let obs = swf_obs::current();
        let mut failures = 0u32;
        loop {
            sleep(probe.period).await;
            let running = self.api.pods().read(|pods| {
                pods.get(name)
                    .filter(|p| !p.meta.deletion_requested && p.status.phase == PodPhase::Running)
                    .map(|p| (p.status.container, p.status.ready))
            });
            let Some((container, ready)) = running else {
                return;
            };
            let healthy = container
                .map(|c| matches!(self.runtime.phase(c), Ok(ContainerPhase::Running)))
                .unwrap_or(false);
            if healthy {
                failures = 0;
                if !ready {
                    self.api.pods().update(name, |p| p.status.ready = true);
                }
                continue;
            }
            failures += 1;
            if failures == probe.unready_threshold && ready {
                obs.counter_add("k8s.probe_unready", 1);
                self.api.pods().update(name, |p| p.status.ready = false);
            }
            if failures >= probe.failure_threshold {
                self.restart(name).await;
                failures = 0;
            }
        }
    }

    /// Liveness-triggered container restart: replace the backing container
    /// without touching the pod object. Marks the pod ready again once the
    /// new container passes its readiness delay.
    async fn restart(&self, name: &str) {
        let Some(pod) = self.api.pods().get(name) else {
            return;
        };
        let obs = swf_obs::current();
        let component = format!("{}/kubelet", self.runtime.node().name());
        let span = obs.span(
            swf_obs::SpanContext::NONE,
            &component,
            format!("pod-restart:{name}"),
            swf_obs::Category::ColdStart,
        );
        obs.counter_add("k8s.pod_restarts", 1);
        if let Some(old) = pod.status.container {
            if matches!(self.runtime.phase(old), Ok(ContainerPhase::Running)) {
                let _ = self.runtime.stop(old).await;
            }
            let _ = self.runtime.remove(old).await;
        }
        let container = match self
            .runtime
            .create(&pod.spec.image, pod.spec.resources)
            .await
        {
            Ok(c) => c,
            Err(e) => {
                self.fail(name, &format!("restart create failed: {e}"));
                return;
            }
        };
        if let Err(e) = self.runtime.start(container).await {
            self.fail(name, &format!("restart start failed: {e}"));
            return;
        }
        if !pod.spec.readiness_delay.is_zero() {
            sleep(pod.spec.readiness_delay).await;
        }
        drop(span);
        // The pod may have been deleted or failed over while restarting.
        let aborted = self
            .api
            .pods()
            .get(name)
            .map(|p| p.meta.deletion_requested || p.status.phase != PodPhase::Running)
            .unwrap_or(true);
        if aborted {
            let _ = self.runtime.stop(container).await;
            let _ = self.runtime.remove(container).await;
            return;
        }
        // Drop the snapshot before writing, so the write is in place.
        drop(pod);
        self.api.pods().update(name, |p| {
            p.status.ready = true;
            p.status.container = Some(container);
            p.status.restart_count += 1;
        });
    }

    async fn teardown(&self, name: &str) {
        let Some(pod) = self.api.pods().get(name) else {
            return;
        };
        if let Some(container) = pod.status.container {
            if matches!(self.runtime.phase(container), Ok(ContainerPhase::Running)) {
                let _ = self.runtime.stop(container).await;
            }
            let _ = self.runtime.remove(container).await;
        }
        self.api.finalize_pod_delete(name);
    }

    fn fail(&self, name: &str, message: &str) {
        self.api.pods().update(name, |p| {
            p.status.phase = PodPhase::Failed;
            p.status.ready = false;
            p.status.message = message.to_string();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::ObjectMeta;
    use crate::pod::{Pod, PodSpec};
    use swf_cluster::{mib, Node, NodeId, NodeSpec};
    use swf_container::{Image, ImageRef, OverheadModel, Registry, RegistryConfig, ResourceLimits};
    use swf_simcore::{millis, now, secs, Sim};

    fn setup() -> (ApiServer, Kubelet, Registry, ImageRef) {
        let api = ApiServer::default();
        let node = Node::new(NodeId(1), NodeSpec::default());
        let registry = Registry::new(RegistryConfig::default());
        let image = ImageRef::parse("fn:v1");
        registry.push(Image::single_layer(image.clone(), 1, mib(100)));
        let runtime = ContainerRuntime::new(node, registry.clone(), OverheadModel::default(), 3);
        let kubelet = Kubelet::new(api.clone(), runtime);
        (api, kubelet, registry, image)
    }

    fn scheduled_pod(name: &str, image: &ImageRef) -> Pod {
        let mut p = Pod::new(ObjectMeta::named(name), PodSpec::new(image.clone()));
        p.spec.node_name = Some(NodeId(1));
        p
    }

    #[test]
    fn scheduled_pod_becomes_running_and_ready() {
        let sim = Sim::new();
        sim.block_on(async {
            let (api, kubelet, _r, image) = setup();
            swf_simcore::spawn(kubelet.clone().run());
            api.create_pod(scheduled_pod("p", &image)).await.unwrap();
            sleep(secs(30.0)).await;
            let p = api.pods().get("p").unwrap();
            assert_eq!(p.status.phase, PodPhase::Running);
            assert!(p.status.ready);
            assert!(p.status.container.is_some());
            assert!(p.status.port >= PORT_BASE);
        });
    }

    #[test]
    fn readiness_delay_defers_ready() {
        let sim = Sim::new();
        sim.block_on(async {
            let (api, kubelet, registry, image) = setup();
            // Pre-pull so startup cost is only create+start+readiness.
            registry.pull(NodeId(1), &image).await.unwrap();
            swf_simcore::spawn(kubelet.clone().run());
            let mut pod = scheduled_pod("p", &image);
            pod.spec.readiness_delay = secs(1.0);
            let t0 = now();
            api.create_pod(pod).await.unwrap();
            // Wait until ready and measure.
            let mut w = api.pods().watch();
            loop {
                if api.pods().get("p").map(|p| p.status.ready).unwrap_or(false) {
                    break;
                }
                w.changed().await;
            }
            let startup = now() - t0;
            let m = OverheadModel::default();
            assert!(startup >= m.create + m.start + secs(1.0));
            assert!(startup < m.create + m.start + secs(1.0) + millis(20));
        });
    }

    #[test]
    fn deletion_tears_down_container_and_finalizes() {
        let sim = Sim::new();
        sim.block_on(async {
            let (api, kubelet, _r, image) = setup();
            swf_simcore::spawn(kubelet.clone().run());
            api.create_pod(scheduled_pod("p", &image)).await.unwrap();
            sleep(secs(30.0)).await;
            assert_eq!(kubelet.runtime().container_count(), 1);
            api.delete_pod("p").await.unwrap();
            sleep(secs(5.0)).await;
            assert!(api.pods().get("p").is_none());
            assert_eq!(kubelet.runtime().container_count(), 0);
        });
    }

    #[test]
    fn deletion_during_startup_cleans_up() {
        let sim = Sim::new();
        sim.block_on(async {
            let (api, kubelet, _r, image) = setup();
            swf_simcore::spawn(kubelet.clone().run());
            let mut pod = scheduled_pod("p", &image);
            pod.spec.readiness_delay = secs(10.0);
            api.create_pod(pod).await.unwrap();
            // Delete mid-boot (image pull + create take > 1ms).
            sleep(millis(500)).await;
            api.delete_pod("p").await.unwrap();
            sleep(secs(60.0)).await;
            assert!(api.pods().get("p").is_none());
            assert_eq!(kubelet.runtime().container_count(), 0);
        });
    }

    #[test]
    fn oom_pod_is_marked_failed() {
        let sim = Sim::new();
        sim.block_on(async {
            let (api, kubelet, _r, image) = setup();
            swf_simcore::spawn(kubelet.clone().run());
            let mut pod = scheduled_pod("p", &image);
            pod.spec.resources = ResourceLimits {
                cpu_millis: 1000,
                memory: swf_cluster::gib(64), // > node's 32 GiB
            };
            api.create_pod(pod).await.unwrap();
            sleep(secs(30.0)).await;
            let p = api.pods().get("p").unwrap();
            assert_eq!(p.status.phase, PodPhase::Failed);
            assert!(p.status.message.contains("create failed"));
        });
    }

    #[test]
    fn two_pods_get_distinct_ports() {
        let sim = Sim::new();
        sim.block_on(async {
            let (api, kubelet, _r, image) = setup();
            swf_simcore::spawn(kubelet.clone().run());
            api.create_pod(scheduled_pod("a", &image)).await.unwrap();
            api.create_pod(scheduled_pod("b", &image)).await.unwrap();
            sleep(secs(30.0)).await;
            let pa = api.pods().get("a").unwrap().status.port;
            let pb = api.pods().get("b").unwrap().status.port;
            assert_ne!(pa, pb);
        });
    }

    #[test]
    fn image_pull_failure_marks_failed() {
        let sim = Sim::new();
        sim.block_on(async {
            let (api, kubelet, _r, _image) = setup();
            swf_simcore::spawn(kubelet.clone().run());
            let ghost = ImageRef::parse("ghost:v0");
            api.create_pod(scheduled_pod("p", &ghost)).await.unwrap();
            sleep(secs(5.0)).await;
            let p = api.pods().get("p").unwrap();
            assert_eq!(p.status.phase, PodPhase::Failed);
            assert!(p.status.message.contains("image pull failed"));
        });
    }

    #[test]
    fn liveness_probe_restarts_a_crashed_container() {
        let sim = Sim::new();
        sim.block_on(async {
            let (api, kubelet, _r, image) = setup();
            swf_simcore::spawn(kubelet.clone().run());
            let mut pod = scheduled_pod("p", &image);
            pod.spec.probe = Some(crate::probe::ProbeSpec {
                period: secs(2.0),
                unready_threshold: 1,
                failure_threshold: 3,
            });
            api.create_pod(pod).await.unwrap();
            sleep(secs(30.0)).await;
            let before = api.pods().get("p").unwrap();
            assert!(before.status.ready);
            let old_container = before.status.container.unwrap();
            let old_port = before.status.port;

            kubelet.runtime().crash(old_container).unwrap();
            // One probe period in: readiness fails first, pulling the pod
            // out of routing before the liveness threshold restarts it.
            sleep(secs(3.0)).await;
            let mid = api.pods().get("p").unwrap();
            assert!(!mid.status.ready, "crashed pod must go unready first");
            assert_eq!(mid.status.restart_count, 0);

            sleep(secs(30.0)).await;
            let after = api.pods().get("p").unwrap();
            assert!(after.status.ready, "restart must restore readiness");
            assert_eq!(after.status.restart_count, 1);
            assert_ne!(after.status.container, Some(old_container));
            assert_eq!(after.status.port, old_port, "port survives the restart");
            assert_eq!(kubelet.runtime().container_count(), 1);
        });
    }

    #[test]
    fn probe_survives_repeated_crashes() {
        let sim = Sim::new();
        sim.block_on(async {
            let (api, kubelet, _r, image) = setup();
            swf_simcore::spawn(kubelet.clone().run());
            let mut pod = scheduled_pod("p", &image);
            pod.spec.probe = Some(crate::probe::ProbeSpec::default());
            api.create_pod(pod).await.unwrap();
            sleep(secs(30.0)).await;
            for round in 1..=3u32 {
                let c = api.pods().get("p").unwrap().status.container.unwrap();
                kubelet.runtime().crash(c).unwrap();
                sleep(secs(30.0)).await;
                let p = api.pods().get("p").unwrap();
                assert!(p.status.ready);
                assert_eq!(p.status.restart_count, round);
            }
        });
    }

    #[test]
    fn deleting_a_probed_pod_stops_the_probe_loop() {
        let sim = Sim::new();
        sim.block_on(async {
            let (api, kubelet, _r, image) = setup();
            swf_simcore::spawn(kubelet.clone().run());
            let mut pod = scheduled_pod("p", &image);
            pod.spec.probe = Some(crate::probe::ProbeSpec::default());
            api.create_pod(pod).await.unwrap();
            sleep(secs(30.0)).await;
            api.delete_pod("p").await.unwrap();
            sleep(secs(60.0)).await;
            assert!(api.pods().get("p").is_none());
            assert_eq!(kubelet.runtime().container_count(), 0);
        });
    }
}
