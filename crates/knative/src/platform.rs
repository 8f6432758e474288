//! Platform assembly: one call boots serving, autoscaling, pod servers and
//! routing on top of a running Kubernetes control plane.

use swf_cluster::{Cluster, NodeId, Request, Response};
use swf_k8s::Store;
use swf_simcore::{spawn, SimDuration};

use crate::autoscaler::Autoscaler;
use crate::config::KnativeConfig;
use crate::error::KnativeError;
use crate::handlers::{Handler, HandlerRegistry};
use crate::ksvc::{KService, Revision};
use crate::metrics::MetricHub;
use crate::pod_server::PodServers;
use crate::router::{Router, RouterConfig};
use crate::serving::ServingController;

/// A running Knative platform.
#[derive(Clone)]
pub struct Knative {
    ksvcs: Store<KService>,
    revisions: Store<Revision>,
    handlers: HandlerRegistry,
    hub: MetricHub,
    router: Router,
    k8s: swf_k8s::K8s,
}

impl Knative {
    /// Boot the platform over `k8s`, spawning all control loops.
    pub fn start(cluster: &Cluster, k8s: swf_k8s::K8s, config: KnativeConfig) -> Knative {
        let ksvcs: Store<KService> = Store::new();
        let revisions: Store<Revision> = Store::new();
        let handlers = HandlerRegistry::new();
        let hub = MetricHub::new();
        spawn(ServingController::new(ksvcs.clone(), revisions.clone(), k8s.clone(), config).run());
        spawn(
            Autoscaler::new(
                revisions.clone(),
                k8s.clone(),
                hub.clone(),
                config.autoscaler,
            )
            .run(),
        );
        spawn(
            PodServers::new(
                k8s.clone(),
                cluster.http().clone(),
                revisions.clone(),
                handlers.clone(),
                hub.clone(),
                config.data_plane,
            )
            .run(),
        );
        let router = Router::new(
            k8s.clone(),
            cluster.http().clone(),
            revisions.clone(),
            hub.clone(),
            config.data_plane,
            RouterConfig {
                policy: config.routing,
                retry: config.invoke_retry,
                attempt_timeout: config.attempt_timeout,
                seed: config.seed,
                breaker: config.breaker,
                ..RouterConfig::default()
            },
        );
        Knative {
            ksvcs,
            revisions,
            handlers,
            hub,
            router,
            k8s,
        }
    }

    /// Register a KService together with its function handler — the paper's
    /// pre-execution registration step ("task registration with the
    /// serverless system was done manually before the execution").
    pub fn register(&self, ksvc: KService, handler: Handler) {
        self.handlers.register(&ksvc.meta.name, handler);
        self.ksvcs.put(ksvc.meta.name.clone(), ksvc);
    }

    /// Register with a plain closure handler.
    pub fn register_fn(
        &self,
        ksvc: KService,
        f: impl Fn(&Request) -> swf_container::Workload + 'static,
    ) {
        self.handlers.register_fn(&ksvc.meta.name, f);
        self.ksvcs.put(ksvc.meta.name.clone(), ksvc);
    }

    /// Synchronously invoke a function from `from`.
    pub async fn invoke(
        &self,
        from: NodeId,
        service: &str,
        request: Request,
    ) -> Result<Response, KnativeError> {
        self.router.invoke(from, service, request).await
    }

    /// Wait until the service has at least `n` ready pods (also waits for
    /// the serving controller to materialize the revision first).
    pub async fn wait_ready(
        &self,
        service: &str,
        n: usize,
        deadline: SimDuration,
    ) -> Result<(), KnativeError> {
        let rev_name = format!("{service}-00001");
        let revisions = self.revisions.clone();
        let wait_rev = async {
            let mut w = revisions.watch();
            loop {
                if let Some(rev) = revisions.get(&rev_name) {
                    return rev;
                }
                w.changed().await;
            }
        };
        let rev = match swf_simcore::timeout(deadline, wait_rev).await {
            Ok(rev) => rev,
            Err(_) => return Err(KnativeError::ServiceNotFound(service.to_string())),
        };
        self.k8s
            .wait_endpoints(&rev.k8s_service_name(), n, deadline)
            .await
            .map_err(Into::into)
    }

    /// Current ready pod count of a service.
    pub fn ready_pods(&self, service: &str) -> usize {
        self.revisions
            .get(&format!("{service}-00001"))
            .and_then(|rev| self.k8s.api().endpoints().get(&rev.k8s_service_name()))
            .map(|e| e.ready.len())
            .unwrap_or(0)
    }

    /// The metric hub (demand accounting).
    pub fn metrics(&self) -> &MetricHub {
        &self.hub
    }

    /// The circuit breaker guarding a revision (created on first use).
    pub fn breaker(&self, revision: &str) -> std::rc::Rc<crate::breaker::CircuitBreaker> {
        self.router.breaker(revision)
    }

    /// The revision store.
    pub fn revisions(&self) -> &Store<Revision> {
        &self.revisions
    }

    /// The underlying orchestrator handle.
    pub fn k8s(&self) -> &swf_k8s::K8s {
        &self.k8s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use swf_cluster::ClusterConfig;
    use swf_container::{Image, ImageRef, Registry, RegistryConfig, Workload};
    use swf_k8s::{K8s, K8sConfig};
    use swf_simcore::{now, secs, Sim};

    fn boot() -> (Cluster, Knative, ImageRef) {
        boot_with(KnativeConfig::default())
    }

    fn boot_with(config: KnativeConfig) -> (Cluster, Knative, ImageRef) {
        let cluster = Cluster::new(&ClusterConfig::default());
        let registry = Registry::new(RegistryConfig::default());
        let image = ImageRef::parse("hpc/matmul:1.0");
        registry.push(Image::python_scientific(image.clone(), 1));
        let k8s = K8s::start(&cluster, registry, K8sConfig::default(), 11);
        let kn = Knative::start(&cluster, k8s, config);
        (cluster, kn, image)
    }

    fn echo_service(kn: &Knative, image: &ImageRef, name: &str, ksvc: KService) {
        let _ = name;
        kn.register_fn(ksvc, |req| {
            let body = req.body.clone();
            Workload::new(secs(0.458), move || Ok(body))
        });
        let _ = image;
    }

    #[test]
    fn cold_start_is_near_paper_value() {
        let sim = Sim::new();
        sim.block_on(async {
            let (_cluster, kn, image) = boot();
            // Deferred provisioning: initial-scale 0, image pre-cached on
            // workers so the cold start excludes the pull (paper's §III-B
            // measurement: container structure exists, cold start 1.48 s).
            for n in kn.k8s().schedulable_nodes() {
                kn.k8s().registry().pull(n, &image).await.unwrap();
            }
            echo_service(
                &kn,
                &image,
                "matmul",
                KService::new("matmul", image.clone()).with_initial_scale(0),
            );
            swf_simcore::sleep(secs(1.0)).await;
            assert_eq!(kn.ready_pods("matmul"), 0);
            let t0 = now();
            let resp = kn
                .invoke(
                    NodeId(0),
                    "matmul",
                    Request::post("/", Bytes::from_static(b"x")),
                )
                .await
                .unwrap();
            assert!(resp.is_success());
            let elapsed = (now() - t0).as_secs_f64();
            // Cold start + compute: 1.48 + 0.458 ≈ 1.94; allow ±15%.
            let cold = elapsed - 0.458;
            assert!(
                (cold - 1.48).abs() < 0.22,
                "cold start {cold:.3}s (total {elapsed:.3}s)"
            );
        });
    }

    #[test]
    fn warm_invocations_reuse_the_container() {
        let sim = Sim::new();
        sim.block_on(async {
            let (_cluster, kn, image) = boot();
            echo_service(
                &kn,
                &image,
                "matmul",
                KService::new("matmul", image.clone()).with_min_scale(1),
            );
            kn.wait_ready("matmul", 1, secs(300.0)).await.unwrap();
            let t0 = now();
            for i in 0..10u8 {
                let resp = kn
                    .invoke(
                        NodeId(0),
                        "matmul",
                        Request::post("/", Bytes::from(vec![i])),
                    )
                    .await
                    .unwrap();
                assert_eq!(&resp.body[..], &[i]);
            }
            let per_task = (now() - t0).as_secs_f64() / 10.0;
            // Warm per-task ≈ compute + ~0.02 s (Fig. 1 calibration).
            assert!((per_task - 0.478).abs() < 0.02, "per task {per_task:.3}");
            // One container total, reused for all ten tasks.
            let created: u64 = kn
                .k8s()
                .schedulable_nodes()
                .iter()
                .map(|n| kn.k8s().runtime(*n).unwrap().created_total())
                .sum();
            assert_eq!(created, 1);
        });
    }

    #[test]
    fn min_scale_prestages_images_on_distinct_nodes() {
        let sim = Sim::new();
        sim.block_on(async {
            let (_cluster, kn, image) = boot();
            echo_service(
                &kn,
                &image,
                "matmul",
                KService::new("matmul", image.clone()).with_min_scale(3),
            );
            kn.wait_ready("matmul", 3, secs(600.0)).await.unwrap();
            // All three workers now cache the image (paper: min-scale "
            // specifies the number of worker nodes that should download the
            // container ahead of time").
            let mut nodes_with_image = 0;
            for n in kn.k8s().schedulable_nodes() {
                if kn.k8s().registry().is_cached(n, &image) {
                    nodes_with_image += 1;
                }
            }
            assert_eq!(nodes_with_image, 3);
        });
    }

    #[test]
    fn burst_scales_out_and_completes() {
        let sim = Sim::new();
        sim.block_on(async {
            let (_cluster, kn, image) = boot();
            kn.register_fn(
                KService::new("matmul", image.clone())
                    .with_min_scale(1)
                    .with_container_concurrency(1),
                |req| {
                    let body = req.body.clone();
                    Workload::new(secs(1.0), move || Ok(body))
                },
            );
            kn.wait_ready("matmul", 1, secs(300.0)).await.unwrap();
            let handles: Vec<_> = (0..12u8)
                .map(|i| {
                    let kn = kn.clone();
                    swf_simcore::spawn(async move {
                        kn.invoke(
                            NodeId(0),
                            "matmul",
                            Request::post("/", Bytes::from(vec![i])),
                        )
                        .await
                        .unwrap()
                    })
                })
                .collect();
            let responses = swf_simcore::join_all(handles).await;
            assert!(responses.iter().all(|r| r.is_success()));
            // The burst forced scale-out beyond the single warm pod.
            assert!(kn.ready_pods("matmul") > 1);
        });
    }

    /// §IX-D task redirection: with LeastLoaded routing, requests steer
    /// away from a node whose cores are saturated by foreign work.
    #[test]
    fn least_loaded_routing_redirects_away_from_busy_nodes() {
        let sim = Sim::new();
        sim.block_on(async {
            let cluster = Cluster::new(&swf_cluster::ClusterConfig::default());
            let registry = Registry::new(RegistryConfig::default());
            let image = ImageRef::parse("hpc/matmul:1.0");
            registry.push(Image::python_scientific(image.clone(), 1));
            let k8s = K8s::start(&cluster, registry, K8sConfig::default(), 11);
            let kn = Knative::start(
                &cluster,
                k8s.clone(),
                KnativeConfig {
                    routing: crate::router::RoutingPolicy::LeastLoaded,
                    ..KnativeConfig::default()
                },
            );
            kn.register_fn(
                KService::new("fn", image)
                    .with_min_scale(2)
                    .with_max_scale(2),
                |req| {
                    let b = req.body.clone();
                    Workload::new(secs(0.2), move || Ok(b))
                },
            );
            kn.wait_ready("fn", 2, secs(600.0)).await.unwrap();
            let eps = {
                let rev = kn.revisions().get("fn-00001").unwrap();
                kn.k8s()
                    .api()
                    .endpoints()
                    .get(&rev.k8s_service_name())
                    .unwrap()
            };
            assert_eq!(eps.ready.len(), 2);
            let (busy_node, idle_node) = (eps.ready[0].node, eps.ready[1].node);
            // Saturate every core of the busy node with foreign work.
            let busy = kn.k8s().runtime(busy_node).unwrap().node().clone();
            let cores = busy.cores().capacity();
            for _ in 0..cores {
                let busy = busy.clone();
                swf_simcore::spawn(async move {
                    busy.run_on_core(secs(1000.0)).await;
                });
            }
            swf_simcore::sleep(secs(0.5)).await;
            // All requests should land on the idle node's pod.
            for i in 0..6u8 {
                kn.invoke(NodeId(0), "fn", Request::post("/", Bytes::from(vec![i])))
                    .await
                    .unwrap();
            }
            let idle_execs = kn.k8s().runtime(idle_node).unwrap().execs_total();
            let busy_execs = kn.k8s().runtime(busy_node).unwrap().execs_total();
            assert_eq!(idle_execs, 6, "redirection must prefer the idle node");
            assert_eq!(busy_execs, 0);
        });
    }

    /// An attempt that outlives `attempt_timeout` is retried with backoff
    /// and succeeds once the function behaves — and the whole schedule is
    /// bitwise reproducible.
    #[test]
    fn attempt_timeout_retries_then_succeeds_deterministically() {
        use std::cell::Cell;
        use std::rc::Rc;
        let run = || {
            let sim = Sim::new();
            sim.block_on(async {
                let (_cluster, kn, image) = boot_with(KnativeConfig {
                    invoke_retry: swf_simcore::RetryPolicy::exponential(6, secs(0.5), secs(4.0)),
                    attempt_timeout: Some(secs(1.0)),
                    ..KnativeConfig::default()
                });
                let calls = Rc::new(Cell::new(0u32));
                let calls2 = Rc::clone(&calls);
                kn.register_fn(
                    KService::new("matmul", image.clone()).with_min_scale(1),
                    move |req| {
                        let body = req.body.clone();
                        let n = calls2.get() + 1;
                        calls2.set(n);
                        // First attempt hangs past the deadline; later
                        // attempts answer promptly.
                        let d = if n == 1 { secs(30.0) } else { secs(0.1) };
                        Workload::new(d, move || Ok(body))
                    },
                );
                kn.wait_ready("matmul", 1, secs(300.0)).await.unwrap();
                let t0 = now();
                let resp = kn
                    .invoke(
                        NodeId(0),
                        "matmul",
                        Request::post("/", Bytes::from_static(b"x")),
                    )
                    .await
                    .unwrap();
                assert!(resp.is_success());
                assert!(calls.get() >= 2, "the slow first attempt was retried");
                let elapsed = (now() - t0).as_secs_f64();
                // At least one 1 s deadline plus the 0.5 s backoff passed.
                assert!(elapsed >= 1.5, "elapsed {elapsed:.3}s");
                elapsed
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a.to_bits(), b.to_bits(), "retry timing must replay bitwise");
    }

    /// When every attempt times out the router returns the typed
    /// `RetriesExhausted` error — it never panics and never hangs.
    #[test]
    fn exhausted_retries_surface_a_typed_error() {
        let sim = Sim::new();
        sim.block_on(async {
            let (_cluster, kn, image) = boot_with(KnativeConfig {
                invoke_retry: swf_simcore::RetryPolicy::exponential(3, secs(0.25), secs(1.0)),
                attempt_timeout: Some(secs(0.5)),
                ..KnativeConfig::default()
            });
            kn.register_fn(
                KService::new("matmul", image.clone()).with_min_scale(1),
                |req| {
                    let body = req.body.clone();
                    Workload::new(secs(60.0), move || Ok(body))
                },
            );
            kn.wait_ready("matmul", 1, secs(300.0)).await.unwrap();
            let err = kn
                .invoke(
                    NodeId(0),
                    "matmul",
                    Request::post("/", Bytes::from_static(b"x")),
                )
                .await
                .unwrap_err();
            match err {
                KnativeError::RetriesExhausted {
                    service, attempts, ..
                } => {
                    assert_eq!(service, "matmul");
                    assert_eq!(attempts, 3);
                }
                other => panic!("expected RetriesExhausted, got {other}"),
            }
        });
    }

    /// Crash the function pod's container: the liveness probe restarts it
    /// in place, the router's retries ride through the outage, and the
    /// invocation still succeeds — end-to-end self-healing.
    #[test]
    fn probe_heals_a_crashed_pod_and_invocations_recover() {
        let sim = Sim::new();
        sim.block_on(async {
            let (_cluster, kn, image) = boot_with(KnativeConfig {
                pod_probe: Some(swf_k8s::ProbeSpec {
                    period: secs(1.0),
                    unready_threshold: 1,
                    failure_threshold: 2,
                }),
                invoke_retry: swf_simcore::RetryPolicy::exponential(12, secs(0.5), secs(4.0)),
                attempt_timeout: Some(secs(5.0)),
                ..KnativeConfig::default()
            });
            echo_service(
                &kn,
                &image,
                "matmul",
                KService::new("matmul", image.clone()).with_min_scale(1),
            );
            kn.wait_ready("matmul", 1, secs(300.0)).await.unwrap();
            let resp = kn
                .invoke(
                    NodeId(0),
                    "matmul",
                    Request::post("/", Bytes::from_static(b"a")),
                )
                .await
                .unwrap();
            assert!(resp.is_success());
            // Kill the backing container out from under the pod.
            let pod = kn
                .k8s()
                .api()
                .pods()
                .filter(|p| p.status.container.is_some())
                .into_iter()
                .next()
                .unwrap();
            let node = pod.status.node.unwrap();
            kn.k8s()
                .runtime(node)
                .unwrap()
                .crash(pod.status.container.unwrap())
                .unwrap();
            let resp = kn
                .invoke(
                    NodeId(0),
                    "matmul",
                    Request::post("/", Bytes::from_static(b"b")),
                )
                .await
                .unwrap();
            assert!(resp.is_success());
            assert_eq!(&resp.body[..], b"b");
            let healed = kn.k8s().api().pods().get(&pod.meta.name).unwrap();
            assert_eq!(healed.status.restart_count, 1);
        });
    }

    /// A bounded queue-proxy sheds overflow with typed 503s, which the
    /// router surfaces as the typed `Overloaded` error once retries are
    /// spent — while admitted requests still complete.
    #[test]
    fn queue_depth_sheds_overflow_with_typed_overloaded() {
        let sim = Sim::new();
        sim.block_on(async {
            let (_cluster, kn, image) = boot_with(KnativeConfig {
                data_plane: crate::config::DataPlaneConfig {
                    queue_depth: 1,
                    ..crate::config::DataPlaneConfig::default()
                },
                ..KnativeConfig::default()
            });
            kn.register_fn(
                KService::new("slow", image.clone())
                    .with_min_scale(1)
                    .with_max_scale(1)
                    .with_container_concurrency(1),
                |req| {
                    let body = req.body.clone();
                    Workload::new(secs(5.0), move || Ok(body))
                },
            );
            kn.wait_ready("slow", 1, secs(300.0)).await.unwrap();
            let handles: Vec<_> = (0..6u8)
                .map(|i| {
                    let kn = kn.clone();
                    swf_simcore::spawn(async move {
                        kn.invoke(NodeId(0), "slow", Request::post("/", Bytes::from(vec![i])))
                            .await
                    })
                })
                .collect();
            let results = swf_simcore::join_all(handles).await;
            let ok = results.iter().filter(|r| r.is_ok()).count();
            let overloaded = results
                .iter()
                .filter(|r| matches!(r, Err(KnativeError::Overloaded { .. })))
                .count();
            // Capacity is cc 1 + queue 1 = 2; the other four exhaust their
            // immediate retries against 503s.
            assert_eq!(ok, 2, "admitted requests must complete");
            assert_eq!(overloaded, 4, "overflow must surface as Overloaded");
        });
    }

    /// With the breaker enabled, sustained 503s trip the circuit: later
    /// attempts fast-fail without touching the network.
    #[test]
    fn sustained_overload_trips_the_breaker() {
        let sim = Sim::new();
        sim.block_on(async {
            let (_cluster, kn, image) = boot_with(KnativeConfig {
                data_plane: crate::config::DataPlaneConfig {
                    queue_depth: 1,
                    ..crate::config::DataPlaneConfig::default()
                },
                breaker: crate::breaker::BreakerConfig::enabled(3, secs(8.0)),
                ..KnativeConfig::default()
            });
            kn.register_fn(
                KService::new("slow", image.clone())
                    .with_min_scale(1)
                    .with_max_scale(1)
                    .with_container_concurrency(1),
                |req| {
                    let body = req.body.clone();
                    Workload::new(secs(30.0), move || Ok(body))
                },
            );
            kn.wait_ready("slow", 1, secs(300.0)).await.unwrap();
            // Saturate: 2 admitted (cc+queue), the rest shed 503s that trip
            // the breaker after 3 consecutive failures.
            let handles: Vec<_> = (0..8u8)
                .map(|i| {
                    let kn = kn.clone();
                    swf_simcore::spawn(async move {
                        kn.invoke(NodeId(0), "slow", Request::post("/", Bytes::from(vec![i])))
                            .await
                    })
                })
                .collect();
            let results = swf_simcore::join_all(handles).await;
            assert!(results
                .iter()
                .any(|r| matches!(r, Err(KnativeError::Overloaded { .. }))));
            let b = kn.breaker("slow-00001");
            assert!(b.trips() >= 1, "breaker must have tripped");
            assert_ne!(b.state(), crate::breaker::BreakerState::Closed);
        });
    }

    #[test]
    fn unknown_service_errors() {
        let sim = Sim::new();
        sim.block_on(async {
            let (_cluster, kn, _image) = boot();
            let err = kn
                .invoke(NodeId(0), "ghost", Request::get("/"))
                .await
                .unwrap_err();
            assert!(matches!(err, KnativeError::ServiceNotFound(_)));
        });
    }

    #[test]
    fn function_failure_propagates() {
        let sim = Sim::new();
        sim.block_on(async {
            let (_cluster, kn, image) = boot();
            kn.register_fn(
                KService::new("bad", image.clone()).with_min_scale(1),
                |_req| Workload::new(secs(0.01), || Err("numerical blowup".into())),
            );
            kn.wait_ready("bad", 1, secs(300.0)).await.unwrap();
            let err = kn
                .invoke(NodeId(0), "bad", Request::get("/"))
                .await
                .unwrap_err();
            assert!(matches!(err, KnativeError::FunctionFailed(_)));
        });
    }
}
