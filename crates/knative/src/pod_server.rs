//! Queue-proxy manager: one serving loop per ready revision pod.
//!
//! Each revision pod gets a queue-proxy task that binds the pod's HTTP port,
//! enforces `containerConcurrency` with a FIFO semaphore, reports in-flight
//! metrics to the autoscaler, and execs the function workload inside the
//! pod's container. This is where the paper's *container reuse* happens: one
//! container serves many requests without being recreated.

use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::rc::Rc;

use swf_cluster::{HttpStack, Incoming, Response};
use swf_k8s::{Pod, Store};
use swf_simcore::sync::Semaphore;
use swf_simcore::{race, sleep, spawn, Either};

use crate::config::DataPlaneConfig;
use crate::handlers::HandlerRegistry;
use crate::ksvc::Revision;
use crate::metrics::MetricHub;

/// Watches revision pods and runs queue-proxies for them.
pub struct PodServers {
    k8s: swf_k8s::K8s,
    http: HttpStack,
    revisions: Store<Revision>,
    handlers: HandlerRegistry,
    hub: MetricHub,
    config: DataPlaneConfig,
    serving: Rc<RefCell<BTreeSet<String>>>,
}

impl PodServers {
    /// New manager.
    pub fn new(
        k8s: swf_k8s::K8s,
        http: HttpStack,
        revisions: Store<Revision>,
        handlers: HandlerRegistry,
        hub: MetricHub,
        config: DataPlaneConfig,
    ) -> Self {
        PodServers {
            k8s,
            http,
            revisions,
            handlers,
            hub,
            config,
            serving: Rc::new(RefCell::new(BTreeSet::new())),
        }
    }

    /// Run forever, attaching queue-proxies to newly ready pods.
    pub async fn run(self) {
        let rc = Rc::new(self);
        let mut watcher = rc.k8s.api().pods().watch();
        loop {
            rc.attach_new();
            watcher.changed().await;
        }
    }

    fn attach_new(self: &Rc<Self>) {
        let candidates = self.k8s.api().pods().filter(|p| {
            p.is_routable()
                && p.meta.labels.contains_key(Revision::pod_label())
                && !self.serving.borrow().contains(&p.meta.name)
        });
        for pod in candidates {
            let name = pod.meta.name.clone();
            self.serving.borrow_mut().insert(name.clone());
            let this = Rc::clone(self);
            spawn(async move {
                this.queue_proxy(pod).await;
                this.serving.borrow_mut().remove(&name);
            });
        }
    }

    /// Serve one pod until it is deleted.
    async fn queue_proxy(self: &Rc<Self>, pod: Rc<Pod>) {
        let Some(rev_name) = pod.meta.labels.get(Revision::pod_label()).cloned() else {
            return;
        };
        let Some(revision) = self.revisions.get(&rev_name) else {
            return;
        };
        let Some(node) = pod.status.node else {
            return;
        };
        let port = pod.status.port;
        if pod.status.container.is_none() {
            return;
        }
        let Some(runtime) = self.k8s.runtime(node).cloned() else {
            return;
        };
        let handler = self.handlers.get(&revision.service);
        let cc = if revision.container_concurrency == 0 {
            usize::MAX / 2
        } else {
            revision.container_concurrency as usize
        };
        let gate = Semaphore::new(cc);
        // The queue-proxy breaker: `cc` requests in service plus
        // `queue_depth` waiting; past that, new arrivals are shed with a
        // typed 503 instead of queueing unboundedly (queue_depth 0 keeps
        // the historical unbounded behaviour).
        let capacity = if self.config.queue_depth == 0 {
            usize::MAX / 2
        } else {
            cc.saturating_add(self.config.queue_depth as usize)
        };
        let pending = Rc::new(Cell::new(0usize));
        let mut rx = self.http.listen(node, port);
        let pod_name = pod.meta.name.clone();
        // The proxy outlives many writes to its pod; a snapshot held that
        // long would turn each of them into a copy.
        drop(pod);
        let mut pod_watch = self.k8s.api().pods().watch();
        loop {
            // Exit when the pod is deleted, marked for deletion, or failed
            // over by the node controller.
            let gone = self
                .k8s
                .api()
                .pods()
                .get(&pod_name)
                .map(|p| p.meta.deletion_requested || p.status.phase == swf_k8s::PodPhase::Failed)
                .unwrap_or(true);
            if gone {
                break;
            }
            match race(rx.recv(), pod_watch.changed()).await {
                Either::Left(Some(incoming)) => {
                    if pending.get() >= capacity {
                        swf_obs::current().counter_add("knative.queue_proxy_shed", 1);
                        incoming.respond(Response {
                            status: 503,
                            body: bytes::Bytes::from(format!(
                                "overloaded: queue-proxy at capacity {capacity}"
                            )),
                        });
                        continue;
                    }
                    pending.set(pending.get() + 1);
                    let pending = Rc::clone(&pending);
                    let this = Rc::clone(self);
                    let gate = gate.clone();
                    let runtime = runtime.clone();
                    let handler = handler.clone();
                    let rev_name = rev_name.clone();
                    let service = revision.service.clone();
                    let pod_name = pod_name.clone();
                    spawn(async move {
                        // Demand is reported at proxy ingress — queued
                        // requests count toward autoscaler concurrency,
                        // as in Knative's queue-proxy breaker.
                        let obs = swf_obs::current();
                        let parent = incoming
                            .request
                            .headers
                            .get(swf_obs::TRACE_HEADER)
                            .map(|h| swf_obs::SpanContext::from_header(h))
                            .unwrap_or(swf_obs::SpanContext::NONE);
                        let component = format!("{rev_name}/queue-proxy");
                        let queued =
                            obs.span(parent, &component, "queue-proxy", swf_obs::Category::Queue);
                        let guard = this.hub.start_request(&rev_name);
                        let _slot = gate.acquire().await;
                        sleep(this.config.queue_proxy_overhead).await;
                        drop(queued);
                        let exec = obs.span(
                            parent,
                            &component,
                            format!("exec:{service}"),
                            swf_obs::Category::Compute,
                        );
                        // Re-resolve the backing container at serve time:
                        // a liveness restart swaps it while the pod (and
                        // this proxy) live on.
                        let container = this
                            .k8s
                            .api()
                            .pods()
                            .get(&pod_name)
                            .and_then(|p| p.status.container);
                        let response =
                            Self::serve_one(&runtime, container, handler, &service, &incoming)
                                .await;
                        drop(exec);
                        incoming.respond(response);
                        drop(guard);
                        pending.set(pending.get().saturating_sub(1));
                    });
                }
                Either::Left(None) => break, // listener torn down
                Either::Right(_) => continue,
            }
        }
        self.http.unlisten(node, port);
    }

    async fn serve_one(
        runtime: &swf_container::ContainerRuntime,
        container: Option<swf_container::ContainerId>,
        handler: Option<crate::handlers::Handler>,
        service: &str,
        incoming: &Incoming,
    ) -> Response {
        let Some(handler) = handler else {
            return Response {
                status: 404,
                body: bytes::Bytes::from(format!("no handler for {service}")),
            };
        };
        let Some(container) = container else {
            // Mid-restart: the pod currently has no backing container.
            return Response {
                status: 503,
                body: bytes::Bytes::from(format!("no backing container for {service}")),
            };
        };
        let workload = handler(&incoming.request);
        match runtime.exec(container, workload).await {
            // The function itself failed: a real 500, never retried.
            Err(swf_container::ContainerError::TaskFailed(e)) => Response {
                status: 500,
                body: bytes::Bytes::from(e),
            },
            // The container is gone or not running (crashed under the
            // request): retryable unavailability, not an app failure.
            Err(e) => Response {
                status: 503,
                body: bytes::Bytes::from(format!("container unavailable: {e}")),
            },
            Ok(result) => Response::ok(result.output),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use swf_cluster::{Cluster, ClusterConfig, NodeId, Request};
    use swf_container::{Image, ImageRef, Registry, RegistryConfig, Workload};
    use swf_k8s::{K8s, K8sConfig};
    use swf_simcore::{secs, Sim};

    /// Boot k8s + serving + pod servers and one ready KService pod.
    fn boot(cc: u32) -> (Sim, Rc<RefCell<Option<Env>>>) {
        let sim = Sim::new();
        let out = Rc::new(RefCell::new(None));
        let out2 = Rc::clone(&out);
        sim.block_on(async move {
            let cluster = Cluster::new(&ClusterConfig::default());
            let registry = Registry::new(RegistryConfig::default());
            let image = ImageRef::parse("fn:v1");
            registry.push(Image::python_scientific(image.clone(), 1));
            let k8s = K8s::start(&cluster, registry, K8sConfig::default(), 7);
            let ksvcs: Store<crate::ksvc::KService> = Store::new();
            let revisions: Store<Revision> = Store::new();
            let handlers = HandlerRegistry::new();
            let hub = MetricHub::new();
            let config = crate::config::KnativeConfig::default();
            spawn(
                crate::serving::ServingController::new(
                    ksvcs.clone(),
                    revisions.clone(),
                    k8s.clone(),
                    config,
                )
                .run(),
            );
            let ps = PodServers::new(
                k8s.clone(),
                cluster.http().clone(),
                revisions.clone(),
                handlers.clone(),
                hub.clone(),
                config.data_plane,
            );
            spawn(ps.run());
            handlers.register_fn("echo", |req| {
                let body = req.body.clone();
                Workload::new(secs(0.458), move || Ok(body))
            });
            ksvcs.put(
                "echo",
                crate::ksvc::KService::new("echo", image)
                    .with_min_scale(1)
                    .with_container_concurrency(cc),
            );
            k8s.wait_endpoints("echo-00001-private", 1, secs(120.0))
                .await
                .unwrap();
            *out2.borrow_mut() = Some(Env { cluster, k8s, hub });
        });
        (sim, out)
    }

    struct Env {
        cluster: Cluster,
        k8s: K8s,
        hub: MetricHub,
    }

    #[test]
    fn warm_pod_serves_requests_with_container_reuse() {
        let (sim, env) = boot(0);
        let env2 = Rc::clone(&env);
        sim.block_on(async move {
            let e = env2.borrow_mut().take().unwrap();
            let eps = e.k8s.api().endpoints().get("echo-00001-private").unwrap();
            let ep = eps.ready[0];
            let t0 = swf_simcore::now();
            for i in 0..5u8 {
                let resp = e
                    .cluster
                    .http()
                    .request(
                        NodeId(0),
                        ep.node,
                        ep.port,
                        Request::post("/", Bytes::from(vec![i])),
                    )
                    .await
                    .unwrap();
                assert!(resp.is_success());
                assert_eq!(&resp.body[..], &[i]);
            }
            let elapsed = (swf_simcore::now() - t0).as_secs_f64();
            // 5 × (compute 0.458 + ~0.01 overhead): container reused, no
            // lifecycle cost.
            assert!(elapsed < 5.0 * 0.50, "elapsed {elapsed}");
            // Exactly one container created, five execs.
            let rt = e.k8s.runtime(ep.node).unwrap();
            assert_eq!(rt.created_total(), 1);
            assert_eq!(rt.execs_total(), 5);
            assert_eq!(e.hub.total_served("echo-00001"), 5);
        });
    }

    #[test]
    fn container_concurrency_one_serializes() {
        let (sim, env) = boot(1);
        let env2 = Rc::clone(&env);
        sim.block_on(async move {
            let e = env2.borrow_mut().take().unwrap();
            let eps = e.k8s.api().endpoints().get("echo-00001-private").unwrap();
            let ep = eps.ready[0];
            let t0 = swf_simcore::now();
            let handles: Vec<_> = (0..3u8)
                .map(|i| {
                    let http = e.cluster.http().clone();
                    spawn(async move {
                        http.request(
                            NodeId(0),
                            ep.node,
                            ep.port,
                            Request::post("/", Bytes::from(vec![i])),
                        )
                        .await
                        .unwrap()
                    })
                })
                .collect();
            swf_simcore::join_all(handles).await;
            let elapsed = (swf_simcore::now() - t0).as_secs_f64();
            // Serialized: ≥ 3 × 0.458.
            assert!(elapsed >= 3.0 * 0.458, "elapsed {elapsed}");
        });
    }

    #[test]
    fn unlimited_concurrency_overlaps_requests() {
        let (sim, env) = boot(0);
        let env2 = Rc::clone(&env);
        sim.block_on(async move {
            let e = env2.borrow_mut().take().unwrap();
            let eps = e.k8s.api().endpoints().get("echo-00001-private").unwrap();
            let ep = eps.ready[0];
            let t0 = swf_simcore::now();
            let handles: Vec<_> = (0..3u8)
                .map(|i| {
                    let http = e.cluster.http().clone();
                    spawn(async move {
                        http.request(
                            NodeId(0),
                            ep.node,
                            ep.port,
                            Request::post("/", Bytes::from(vec![i])),
                        )
                        .await
                        .unwrap()
                    })
                })
                .collect();
            swf_simcore::join_all(handles).await;
            let elapsed = (swf_simcore::now() - t0).as_secs_f64();
            // Node has 8 cores: the three 0.458s tasks overlap.
            assert!(elapsed < 1.0, "elapsed {elapsed}");
        });
    }
}
