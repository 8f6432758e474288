//! Queue-proxy manager: one request handler per ready function pod.
//!
//! Each function pod gets a queue-proxy, bound as the listener at the pod's
//! HTTP port: it enforces `containerConcurrency` with a FIFO semaphore,
//! reports in-flight metrics to the autoscaler, and execs the function
//! workload inside the pod's container. This is where the paper's
//! *container reuse* happens: one container serves many requests without
//! being recreated.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;

use swf_cluster::{HttpStack, NodeId, Request, Response};
use swf_container::ContainerRuntime;
use swf_k8s::{Pod, Store};
use swf_simcore::sync::Semaphore;
use swf_simcore::{sleep, SimDuration};

use crate::config::DataPlaneConfig;
use crate::ksvc::{Handler, KService, SERVICE_LABEL};
use crate::metrics::MetricHub;

/// Watches function pods and binds a queue-proxy at each routable one.
pub struct PodServers {
    k8s: swf_k8s::K8s,
    http: HttpStack,
    ksvcs: Store<KService>,
    hub: MetricHub,
    config: DataPlaneConfig,
    /// Pods with a bound queue-proxy, by name, and the address it listens at.
    serving: BTreeMap<String, (NodeId, u16)>,
}

impl PodServers {
    /// New manager.
    pub fn new(
        k8s: swf_k8s::K8s,
        http: HttpStack,
        ksvcs: Store<KService>,
        hub: MetricHub,
        config: DataPlaneConfig,
    ) -> Self {
        PodServers {
            k8s,
            http,
            ksvcs,
            hub,
            config,
            serving: BTreeMap::new(),
        }
    }

    /// Run forever: on every pod change, unbind the queue-proxies of pods
    /// that are gone, then bind one at each newly routable pod.
    pub async fn run(mut self) {
        let mut watcher = self.k8s.api().pods().watch();
        loop {
            self.unbind_gone();
            self.bind_new();
            watcher.changed().await;
        }
    }

    /// Unbind pods that were deleted, marked for deletion, or failed over
    /// by the node controller.
    fn unbind_gone(&mut self) {
        let pods = self.k8s.api().pods();
        let http = &self.http;
        self.serving.retain(|name, &mut (node, port)| {
            let gone = pods
                .get(name)
                .map(|p| p.meta.deletion_requested || p.status.phase == swf_k8s::PodPhase::Failed)
                .unwrap_or(true);
            if gone {
                http.unlisten(node, port);
            }
            !gone
        });
    }

    fn bind_new(&mut self) {
        let candidates = self.k8s.api().pods().filter(|p| {
            p.is_routable()
                && p.meta.labels.contains_key(SERVICE_LABEL)
                && !self.serving.contains_key(&p.meta.name)
        });
        for pod in candidates {
            let (Some(node), Some(proxy)) = (pod.status.node, self.queue_proxy(&pod)) else {
                continue;
            };
            let port = pod.status.port;
            let proxy = Rc::new(proxy);
            self.http
                .listen(node, port, move |request| Rc::clone(&proxy).serve(request));
            self.serving.insert(pod.meta.name.clone(), (node, port));
        }
    }

    /// The queue-proxy for `pod`, or `None` while it cannot serve yet.
    fn queue_proxy(&self, pod: &Pod) -> Option<QueueProxy> {
        let ksvc = self.ksvcs.get(pod.meta.labels.get(SERVICE_LABEL)?)?;
        let node = pod.status.node?;
        pod.status.container?;
        let runtime = self.k8s.runtime(node)?.clone();
        let cc = if ksvc.container_concurrency == 0 {
            usize::MAX / 2
        } else {
            ksvc.container_concurrency as usize
        };
        // The queue-proxy breaker: `cc` requests in service plus
        // `queue_depth` waiting; past that, new arrivals are shed with a
        // typed 503 instead of queueing unboundedly (queue_depth 0 keeps
        // the historical unbounded behaviour).
        let capacity = if self.config.queue_depth == 0 {
            usize::MAX / 2
        } else {
            cc.saturating_add(self.config.queue_depth as usize)
        };
        Some(QueueProxy {
            k8s: self.k8s.clone(),
            hub: self.hub.clone(),
            overhead: self.config.queue_proxy_overhead,
            runtime,
            handler: ksvc.handler.clone(),
            rev_name: ksvc.revision(),
            service: ksvc.name.clone(),
            pod_name: pod.meta.name.clone(),
            gate: Semaphore::new(cc),
            capacity,
            pending: Cell::new(0),
        })
    }
}

/// One pod's queue-proxy: the handler bound at the pod's HTTP port.
struct QueueProxy {
    k8s: swf_k8s::K8s,
    hub: MetricHub,
    overhead: SimDuration,
    runtime: ContainerRuntime,
    handler: Handler,
    rev_name: String,
    service: String,
    pod_name: String,
    gate: Semaphore,
    capacity: usize,
    /// Requests admitted and not yet answered.
    pending: Cell<usize>,
}

impl QueueProxy {
    async fn serve(self: Rc<Self>, request: Request) -> Response {
        if self.pending.get() >= self.capacity {
            swf_obs::current().counter_add("knative.queue_proxy_shed", 1);
            return Response {
                status: 503,
                body: bytes::Bytes::from(format!(
                    "overloaded: queue-proxy at capacity {}",
                    self.capacity
                )),
            };
        }
        self.pending.set(self.pending.get() + 1);
        // Demand is reported at proxy ingress — queued requests count
        // toward autoscaler concurrency, as in Knative's queue-proxy
        // breaker.
        let obs = swf_obs::current();
        let parent = request
            .headers
            .get(swf_obs::TRACE_HEADER)
            .map(|h| swf_obs::SpanContext::from_header(h))
            .unwrap_or(swf_obs::SpanContext::NONE);
        let component = format!("{}/queue-proxy", self.rev_name);
        let queued = obs.span(parent, &component, "queue-proxy", swf_obs::Category::Queue);
        let guard = self.hub.start_request(&self.rev_name);
        let _slot = self.gate.acquire().await;
        sleep(self.overhead).await;
        drop(queued);
        let exec = obs.span(
            parent,
            &component,
            format!("exec:{}", self.service),
            swf_obs::Category::Compute,
        );
        // Re-resolve the backing container at serve time: a liveness
        // restart swaps it while the pod (and this proxy) live on.
        let container = self
            .k8s
            .api()
            .pods()
            .get(&self.pod_name)
            .and_then(|p| p.status.container);
        let response = self.run_handler(container, &request).await;
        drop(exec);
        drop(guard);
        self.pending.set(self.pending.get().saturating_sub(1));
        response
    }

    async fn run_handler(
        &self,
        container: Option<swf_container::ContainerId>,
        request: &Request,
    ) -> Response {
        let Some(container) = container else {
            // Mid-restart: the pod currently has no backing container.
            return Response {
                status: 503,
                body: bytes::Bytes::from(format!("no backing container for {}", self.service)),
            };
        };
        let workload = (self.handler)(request);
        match self.runtime.exec(container, workload).await {
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
    use crate::ksvc::REVISION_LABEL;
    use bytes::Bytes;
    use std::cell::RefCell;
    use swf_cluster::{Cluster, ClusterConfig};
    use swf_container::{Image, ImageRef, Registry, RegistryConfig, Workload};
    use swf_k8s::{K8s, K8sConfig};
    use swf_simcore::{secs, spawn, Sim};

    /// The paper's function shape: echo the body after 0.458 s of compute.
    fn echo() -> Handler {
        Rc::new(|req| {
            let body = req.body.clone();
            Workload::new(secs(0.458), move || Ok(body))
        })
    }

    /// Boot k8s + serving + pod servers and one ready pod of an `echo`
    /// KService running `handler`.
    fn boot(cc: u32, handler: Handler) -> (Sim, Rc<RefCell<Option<Env>>>) {
        let sim = Sim::new();
        let out = Rc::new(RefCell::new(None));
        let out2 = Rc::clone(&out);
        sim.block_on(async move {
            let cluster = Cluster::new(&ClusterConfig::default());
            let registry = Registry::new(RegistryConfig::default());
            let image = ImageRef::parse("fn:v1");
            registry.push(Image::python_scientific(image.clone(), 1));
            let k8s = K8s::start(&cluster, registry, K8sConfig::default());
            let ksvcs: Store<KService> = Store::new();
            let hub = MetricHub::new();
            let config = crate::config::KnativeConfig::default();
            spawn(crate::serving::ServingController::new(ksvcs.clone(), k8s.clone(), config).run());
            let ps = PodServers::new(
                k8s.clone(),
                cluster.http().clone(),
                ksvcs.clone(),
                hub.clone(),
                config.data_plane,
            );
            spawn(ps.run());
            let ksvc = KService::new("echo", image)
                .with_min_scale(1)
                .with_container_concurrency(cc);
            ksvcs.put("echo", KService { handler, ..ksvc });
            k8s.wait_ready_endpoints(REVISION_LABEL, "echo-00001", 1, secs(120.0))
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
        let (sim, env) = boot(0, echo());
        let env2 = Rc::clone(&env);
        sim.block_on(async move {
            let e = env2.borrow_mut().take().unwrap();
            let ep = e.k8s.api().ready_endpoints(REVISION_LABEL, "echo-00001")[0];
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
        let (sim, env) = boot(1, echo());
        let env2 = Rc::clone(&env);
        sim.block_on(async move {
            let e = env2.borrow_mut().take().unwrap();
            let ep = e.k8s.api().ready_endpoints(REVISION_LABEL, "echo-00001")[0];
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
        let (sim, env) = boot(0, echo());
        let env2 = Rc::clone(&env);
        sim.block_on(async move {
            let e = env2.borrow_mut().take().unwrap();
            let ep = e.k8s.api().ready_endpoints(REVISION_LABEL, "echo-00001")[0];
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

    /// The queue-proxy runs the service's own handler on each request:
    /// the workload it builds from the request is what the pod executes.
    #[test]
    fn the_pod_runs_the_workload_the_handler_builds() {
        let handler: Handler = Rc::new(|req| {
            let n = req.body.len();
            Workload::new(secs(0.1), move || Ok(Bytes::from(vec![n as u8])))
        });
        let (sim, env) = boot(0, handler);
        let env2 = Rc::clone(&env);
        sim.block_on(async move {
            let e = env2.borrow_mut().take().unwrap();
            let ep = e.k8s.api().ready_endpoints(REVISION_LABEL, "echo-00001")[0];
            let t0 = swf_simcore::now();
            let resp = e
                .cluster
                .http()
                .request(
                    NodeId(0),
                    ep.node,
                    ep.port,
                    Request::post("/", Bytes::from_static(b"abc")),
                )
                .await
                .unwrap();
            assert_eq!(&resp.body[..], &[3]);
            // The handler's compute is charged, plus the proxy overhead.
            let elapsed = (swf_simcore::now() - t0).as_secs_f64();
            assert!((0.1..0.15).contains(&elapsed), "elapsed {elapsed}");
        });
    }
}
