//! Platform assembly: one call boots serving, autoscaling, pod servers and
//! routing on top of a running Kubernetes control plane.

use std::rc::Rc;

use swf_cluster::{Cluster, NodeId, Request, Response};
use swf_k8s::{Endpoint, Store};
use swf_simcore::{spawn, SimDuration};

use crate::autoscaler::Autoscaler;
use crate::config::KnativeConfig;
use crate::error::KnativeError;
use crate::ksvc::{Handler, KService, REVISION_LABEL};
use crate::metrics::MetricHub;
use crate::pod_server::PodServers;
use crate::router::Router;
use crate::serving::ServingController;

/// A running Knative platform.
#[derive(Clone)]
pub struct Knative {
    ksvcs: Store<KService>,
    router: Router,
    k8s: swf_k8s::K8s,
}

impl Knative {
    /// Boot the platform over `k8s`, spawning all control loops.
    pub fn start(cluster: &Cluster, k8s: swf_k8s::K8s, config: KnativeConfig) -> Knative {
        let ksvcs: Store<KService> = Store::new();
        let hub = MetricHub::new();
        spawn(ServingController::new(ksvcs.clone(), k8s.clone(), config).run());
        spawn(Autoscaler::new(ksvcs.clone(), k8s.clone(), hub.clone(), config.autoscaler).run());
        spawn(
            PodServers::new(
                k8s.clone(),
                cluster.http().clone(),
                ksvcs.clone(),
                hub.clone(),
                config.self_healing,
            )
            .run(),
        );
        let router = Router::new(
            k8s.clone(),
            cluster.http().clone(),
            ksvcs.clone(),
            hub,
            config,
        );
        Knative { ksvcs, router, k8s }
    }

    /// Register a KService with its function handler — the paper's
    /// pre-execution registration step ("task registration with the
    /// serverless system was done manually before the execution").
    pub fn register(&self, ksvc: KService, handler: Handler) {
        self.ksvcs
            .put(ksvc.name.clone(), KService { handler, ..ksvc });
    }

    /// Register with a plain closure handler.
    pub fn register_fn(
        &self,
        ksvc: KService,
        f: impl Fn(&Request) -> swf_container::Workload + 'static,
    ) {
        self.register(ksvc, Rc::new(f));
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

    /// Wait until the service has at least `n` ready pods. A name that was
    /// never registered fails at once.
    pub async fn wait_ready(
        &self,
        service: &str,
        n: usize,
        deadline: SimDuration,
    ) -> Result<(), KnativeError> {
        let ksvc = self
            .ksvcs
            .get(service)
            .ok_or_else(|| KnativeError::ServiceNotFound(service.to_string()))?;
        self.k8s
            .wait_ready_endpoints(REVISION_LABEL, &ksvc.revision(), n, deadline)
            .await
            .map_err(Into::into)
    }

    /// The ready endpoints of a service's revision — its routable pods, in
    /// ascending `(node, port)` order — as the router sees them now. Empty
    /// for a name that was never registered.
    pub fn endpoints(&self, service: &str) -> Vec<Endpoint> {
        self.ksvcs.get(service).map_or_else(Vec::new, |ksvc| {
            self.k8s
                .api()
                .ready_endpoints(REVISION_LABEL, &ksvc.revision())
        })
    }

    /// The underlying orchestrator handle.
    pub fn k8s(&self) -> &swf_k8s::K8s {
        &self.k8s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::{COOLDOWN, FAILURE_THRESHOLD};
    use crate::pod_server::QUEUE_DEPTH;
    use crate::serving::POD_PROBE;
    use bytes::Bytes;
    use swf_cluster::ClusterConfig;
    use swf_container::{Image, ImageRef, Registry, Workload};
    use swf_k8s::K8s;
    use swf_simcore::{now, secs, Sim};

    fn boot() -> (Cluster, Knative, ImageRef) {
        boot_with(KnativeConfig::default())
    }

    fn boot_with(config: KnativeConfig) -> (Cluster, Knative, ImageRef) {
        let cluster = Cluster::new(&ClusterConfig::default());
        let registry = Registry::default();
        let image = ImageRef::parse("hpc/matmul:1.0");
        registry.push(Image::python_scientific(image.clone(), 1));
        let k8s = K8s::start(&cluster, registry);
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
            assert!(kn.endpoints("matmul").is_empty());
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
                assert_eq!(&resp.body.to_bytes()[..], &[i]);
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
            assert!(kn.endpoints("matmul").len() > 1);
        });
    }

    /// §IX-D task redirection: with LeastLoaded routing, requests steer
    /// away from a node whose cores are saturated by foreign work.
    #[test]
    fn least_loaded_routing_redirects_away_from_busy_nodes() {
        let sim = Sim::new();
        sim.block_on(async {
            let cluster = Cluster::new(&swf_cluster::ClusterConfig::default());
            let registry = Registry::default();
            let image = ImageRef::parse("hpc/matmul:1.0");
            registry.push(Image::python_scientific(image.clone(), 1));
            let k8s = K8s::start(&cluster, registry);
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
            let eps = kn.endpoints("fn");
            assert_eq!(eps.len(), 2);
            let (busy_node, idle_node) = (eps[0].node, eps[1].node);
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
                self_healing: true,
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
            assert_eq!(&resp.body.to_bytes()[..], b"b");
            let healed = kn.k8s().api().pods().get(&pod.meta.name).unwrap();
            assert_eq!(healed.status.restart_count, 1);
        });
    }

    /// Register `slow`: one pod (min = max = 1) serving one request at a
    /// time, each taking `compute`.
    fn register_slow(kn: &Knative, image: &ImageRef, compute: f64) {
        kn.register_fn(
            KService::new("slow", image.clone())
                .with_min_scale(1)
                .with_max_scale(1)
                .with_container_concurrency(1),
            move |req| {
                let body = req.body.clone();
                Workload::new(secs(compute), move || Ok(body))
            },
        );
    }

    /// Invoke `slow` `n` times at once.
    fn flood(
        kn: &Knative,
        n: usize,
    ) -> Vec<swf_simcore::JoinHandle<Result<Response, KnativeError>>> {
        (0..n)
            .map(|i| {
                let kn = kn.clone();
                swf_simcore::spawn(async move {
                    kn.invoke(
                        NodeId(0),
                        "slow",
                        Request::post("/", Bytes::from(vec![i as u8])),
                    )
                    .await
                })
            })
            .collect()
    }

    /// Successes and typed `Overloaded` errors among `results`.
    fn tally(results: &[Result<Response, KnativeError>]) -> (usize, usize) {
        let ok = results.iter().filter(|r| r.is_ok()).count();
        let overloaded = results
            .iter()
            .filter(|r| matches!(r, Err(KnativeError::Overloaded { .. })))
            .count();
        (ok, overloaded)
    }

    /// A counter of the installed collector, 0 when never bumped.
    fn counter(obs: &swf_obs::Obs, name: &str) -> u64 {
        obs.metrics().counter(name).unwrap_or(0)
    }

    /// A bounded queue-proxy sheds overflow with typed 503s, which the
    /// router surfaces as the typed `Overloaded` error once retries are
    /// spent — while admitted requests still complete. One attempt per
    /// request and fewer sheds than [`FAILURE_THRESHOLD`], so the breaker
    /// stays closed and every refusal is the queue-proxy's.
    #[test]
    fn queue_depth_sheds_overflow_with_typed_overloaded() {
        let sim = Sim::new();
        sim.block_on(async {
            let (_cluster, kn, image) = boot_with(KnativeConfig {
                self_healing: true,
                invoke_retry: swf_simcore::RetryPolicy::immediate(1),
                ..KnativeConfig::default()
            });
            register_slow(&kn, &image, 5.0);
            kn.wait_ready("slow", 1, secs(300.0)).await.unwrap();
            let overflow = FAILURE_THRESHOLD as usize - 1;
            let results = swf_simcore::join_all(flood(&kn, 1 + QUEUE_DEPTH + overflow)).await;
            let (ok, overloaded) = tally(&results);
            // Capacity is cc 1 + `QUEUE_DEPTH`; the rest are shed.
            assert_eq!(ok, 1 + QUEUE_DEPTH, "admitted requests must complete");
            assert_eq!(overloaded, overflow, "overflow must surface as Overloaded");
        });
    }

    /// With the breaker armed, sustained 503s trip the circuit: later
    /// attempts fast-fail without touching the network.
    #[test]
    fn sustained_overload_trips_the_breaker() {
        let obs = swf_obs::Obs::enabled();
        let _installed = swf_obs::install(obs.clone());
        let sim = Sim::new();
        sim.block_on(async {
            let (_cluster, kn, image) = boot_with(KnativeConfig {
                self_healing: true,
                ..KnativeConfig::default()
            });
            register_slow(&kn, &image, 30.0);
            kn.wait_ready("slow", 1, secs(300.0)).await.unwrap();
            // Saturate: cc + queue admitted, the rest shed 503s that trip
            // the breaker after `FAILURE_THRESHOLD` consecutive failures.
            let results = swf_simcore::join_all(flood(&kn, 1 + QUEUE_DEPTH + 2)).await;
            assert!(results
                .iter()
                .any(|r| matches!(r, Err(KnativeError::Overloaded { .. }))));
        });
        assert!(
            counter(&obs, "knative.breaker_trips") >= 1,
            "breaker must have tripped"
        );
        assert!(
            counter(&obs, "knative.breaker_fast_fail") >= 1,
            "an open circuit must fast-fail"
        );
    }

    /// A flood that overruns a self-healing pod: more requests than its
    /// queue holds, and more refusals than open a circuit.
    const FLOOD: usize = 1 + QUEUE_DEPTH + FAILURE_THRESHOLD as usize + 1;

    /// Self-healing off, the default: function pods carry no probe, the
    /// queue-proxy sheds nothing however deep its queue (every request of
    /// the flood is served), and the router never opens a circuit, not even
    /// on a run of failures from a crashed container.
    #[test]
    fn self_healing_off_arms_nothing() {
        let obs = swf_obs::Obs::enabled();
        let _installed = swf_obs::install(obs.clone());
        Sim::new().block_on(async {
            let (_cluster, kn, image) = boot_with(KnativeConfig {
                invoke_retry: swf_simcore::RetryPolicy::immediate(1),
                ..KnativeConfig::default()
            });
            register_slow(&kn, &image, 5.0);
            kn.wait_ready("slow", 1, secs(300.0)).await.unwrap();
            let pods = kn.k8s().api().pods().list();
            assert!(pods.iter().all(|p| p.spec.probe.is_none()));
            let results = swf_simcore::join_all(flood(&kn, FLOOD)).await;
            assert_eq!(tally(&results), (FLOOD, 0));
            assert_eq!(counter(&swf_obs::current(), "knative.overloaded_503"), 0);
            // Crash the one container: nothing restarts it, and every
            // request after is a 503 that reaches the pod, as many in a
            // row as would open an armed circuit, and one more.
            let pod = &pods[0];
            let node = pod.status.node.unwrap();
            kn.k8s()
                .runtime(node)
                .unwrap()
                .crash(pod.status.container.unwrap())
                .unwrap();
            for _ in 0..=FAILURE_THRESHOLD {
                let err = kn
                    .invoke(NodeId(0), "slow", Request::post("/", Bytes::new()))
                    .await
                    .unwrap_err();
                assert!(
                    matches!(&err, KnativeError::Overloaded { last, .. } if last != "circuit open")
                );
            }
        });
        assert_eq!(
            counter(&obs, "knative.overloaded_503"),
            u64::from(FAILURE_THRESHOLD) + 1
        );
        assert_eq!(counter(&obs, "knative.queue_proxy_shed"), 0);
        assert_eq!(counter(&obs, "knative.breaker_trips"), 0);
        assert_eq!(counter(&obs, "knative.breaker_fast_fail"), 0);
    }

    /// Self-healing on: function pods carry [`POD_PROBE`], the queue-proxy
    /// admits `containerConcurrency` + [`QUEUE_DEPTH`] and sheds the rest,
    /// and [`FAILURE_THRESHOLD`] consecutive sheds open the circuit, which
    /// then fast-fails a request for [`COOLDOWN`].
    #[test]
    fn self_healing_on_arms_probe_queue_bound_and_breaker() {
        let obs = swf_obs::Obs::enabled();
        let _installed = swf_obs::install(obs.clone());
        Sim::new().block_on(async {
            let (_cluster, kn, image) = boot_with(KnativeConfig {
                self_healing: true,
                invoke_retry: swf_simcore::RetryPolicy::immediate(1),
                ..KnativeConfig::default()
            });
            register_slow(&kn, &image, 5.0);
            kn.wait_ready("slow", 1, secs(300.0)).await.unwrap();
            for pod in kn.k8s().api().pods().list() {
                let probe = pod.spec.probe.unwrap();
                assert_eq!(probe.period, POD_PROBE.period);
                assert_eq!(probe.unready_threshold, POD_PROBE.unready_threshold);
                assert_eq!(probe.failure_threshold, POD_PROBE.failure_threshold);
            }
            let t0 = now();
            let flood = flood(&kn, FLOOD);
            // Inside the cooldown the open circuit refuses at once.
            swf_simcore::sleep(COOLDOWN / 2).await;
            let late = kn
                .invoke(NodeId(0), "slow", Request::post("/", Bytes::new()))
                .await
                .unwrap_err();
            assert!(
                matches!(&late, KnativeError::Overloaded { last, .. } if last == "circuit open"),
                "expected a fast fail, got {late}"
            );
            assert_eq!(now(), t0 + COOLDOWN / 2);
            let results = swf_simcore::join_all(flood).await;
            let shed = FAILURE_THRESHOLD as usize + 1;
            assert_eq!(tally(&results), (1 + QUEUE_DEPTH, shed));
        });
        let shed = u64::from(FAILURE_THRESHOLD) + 1;
        assert_eq!(counter(&obs, "knative.queue_proxy_shed"), shed);
        assert_eq!(counter(&obs, "knative.overloaded_503"), shed);
        assert_eq!(counter(&obs, "knative.breaker_trips"), 1);
        assert_eq!(counter(&obs, "knative.breaker_fast_fail"), 1);
    }

    /// A name that was never registered is refused at the instant of the
    /// call: the invocation, and the readiness wait without spending its
    /// deadline.
    #[test]
    fn an_unregistered_name_fails_at_once() {
        let sim = Sim::new();
        sim.block_on(async {
            let (_cluster, kn, _image) = boot();
            let t0 = now();
            let err = kn
                .invoke(NodeId(0), "ghost", Request::post("/", Bytes::new()))
                .await
                .unwrap_err();
            assert!(matches!(err, KnativeError::ServiceNotFound(_)));
            let err = kn.wait_ready("ghost", 1, secs(300.0)).await.unwrap_err();
            assert!(matches!(err, KnativeError::ServiceNotFound(_)));
            assert_eq!(now(), t0);
        });
    }

    /// A cold start whose pod can never be placed gives up at the
    /// activator's deadline with the typed `ColdStartTimeout`.
    #[test]
    fn an_unschedulable_cold_start_times_out_with_its_typed_error() {
        let sim = Sim::new();
        sim.block_on(async {
            let (_cluster, kn, image) = boot();
            // More cores than any node has: the pod stays Pending.
            let huge = swf_container::ResourceLimits {
                cpu_millis: 64_000,
                memory: swf_cluster::mib(1),
            };
            echo_service(
                &kn,
                &image,
                "huge",
                KService::new("huge", image.clone()).with_resources(huge),
            );
            let t0 = now();
            let err = kn
                .invoke(NodeId(0), "huge", Request::post("/", Bytes::new()))
                .await
                .unwrap_err();
            assert!(
                matches!(&err, KnativeError::ColdStartTimeout(s) if s == "huge"),
                "expected ColdStartTimeout, got {err}"
            );
            assert_eq!(now() - t0, crate::router::ACTIVATOR_LATENCY + secs(300.0));
        });
    }

    /// The ready endpoints are read from the pod store when asked, so a
    /// pod that stops being ready leaves them at the instant of the write.
    #[test]
    fn an_unready_pod_leaves_the_endpoints_at_once() {
        let sim = Sim::new();
        sim.block_on(async {
            let (_cluster, kn, image) = boot();
            echo_service(
                &kn,
                &image,
                "matmul",
                KService::new("matmul", image.clone()).with_min_scale(2),
            );
            kn.wait_ready("matmul", 2, secs(600.0)).await.unwrap();
            let before = kn.endpoints("matmul");
            assert_eq!(before.len(), 2);
            let pods = kn.k8s().api().pods().filter(|p| p.is_routable());
            let victim = &pods[0];
            let gone = swf_k8s::Endpoint {
                node: victim.status.node.unwrap(),
                port: victim.status.port,
            };
            assert!(before.contains(&gone));
            kn.k8s()
                .api()
                .pods()
                .update(&victim.meta.name, |p| p.status.ready = false);
            // No `.await` between the write and the read.
            let after = kn.endpoints("matmul");
            assert_eq!(after.len(), 1);
            assert!(!after.contains(&gone));
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
                .invoke(NodeId(0), "bad", Request::post("/", Bytes::new()))
                .await
                .unwrap_err();
            assert!(matches!(err, KnativeError::FunctionFailed(_)));
        });
    }
}
