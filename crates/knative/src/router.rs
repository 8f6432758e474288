//! Ingress router + activator.
//!
//! Warm path: read the revision's ready endpoints — its routable pods, from
//! the pod store at each attempt — pick one round-robin, forward.
//! Cold path (no endpoints): buffer the request at the activator — the
//! buffered demand counts toward autoscaler concurrency — poke the
//! Deployment to at least one replica, wait for a routable pod, then forward.
//! This is the 1.48 s cold start measured in the paper's §III-B.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use swf_cluster::{ClusterError, HttpStack, NodeId, Request, Response};
use swf_k8s::{Endpoint, Store};
use swf_simcore::{millis, sleep, timeout, SimDuration};

use crate::breaker::CircuitBreaker;
use crate::config::KnativeConfig;
use crate::error::KnativeError;
use crate::ksvc::{KService, REVISION_LABEL, SERVICE_LABEL};
use crate::metrics::MetricHub;

/// How the router chooses among ready endpoints.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RoutingPolicy {
    /// Deterministic round-robin (kube-proxy-like; Knative's default-ish).
    #[default]
    RoundRobin,
    /// Prefer the pod on the node with the most free CPU capacity — the
    /// paper's §IX-D "task redirection away from over-utilized nodes".
    LeastLoaded,
}

/// Activator decision latency on the cold-start path (poking the
/// autoscaler and re-resolving endpoints).
pub const ACTIVATOR_LATENCY: SimDuration = SimDuration::from_millis(50);

/// Give up on a cold start after this long.
const COLD_START_DEADLINE: SimDuration = SimDuration::from_secs(300);

/// The ingress router.
#[derive(Clone)]
pub struct Router {
    k8s: swf_k8s::K8s,
    http: HttpStack,
    ksvcs: Store<KService>,
    hub: MetricHub,
    config: KnativeConfig,
    /// Round-robin cursor per revision.
    cursors: Rc<RefCell<BTreeMap<String, usize>>>,
    breakers: Rc<RefCell<BTreeMap<String, Rc<CircuitBreaker>>>>,
}

impl Router {
    /// New router: routing policy, retry schedule, attempt deadline, breaker
    /// and activator latency all come from `config`.
    pub fn new(
        k8s: swf_k8s::K8s,
        http: HttpStack,
        ksvcs: Store<KService>,
        hub: MetricHub,
        config: KnativeConfig,
    ) -> Self {
        Router {
            k8s,
            http,
            ksvcs,
            hub,
            config,
            cursors: Rc::new(RefCell::new(BTreeMap::new())),
            breakers: Rc::new(RefCell::new(BTreeMap::new())),
        }
    }

    /// The circuit breaker guarding a revision (created on first use).
    fn breaker(&self, revision: &str) -> Rc<CircuitBreaker> {
        Rc::clone(
            self.breakers
                .borrow_mut()
                .entry(revision.to_string())
                .or_insert_with(|| Rc::new(CircuitBreaker::new(self.config.self_healing))),
        )
    }

    /// Invoke `service` from `from`, synchronously returning the response.
    pub async fn invoke(
        &self,
        from: NodeId,
        service: &str,
        mut request: Request,
    ) -> Result<Response, KnativeError> {
        let obs = swf_obs::current();
        let parent = request
            .headers
            .get(swf_obs::TRACE_HEADER)
            .map(|h| swf_obs::SpanContext::from_header(h))
            .unwrap_or(swf_obs::SpanContext::NONE);
        let span = obs.span(
            parent,
            "knative/router",
            format!("invoke:{service}"),
            swf_obs::Category::Transfer,
        );
        if !span.ctx().is_none() {
            request
                .headers
                .insert(swf_obs::TRACE_HEADER.to_string(), span.ctx().to_header());
        }
        obs.counter_add("knative.invocations", 1);
        let t0 = swf_simcore::now();
        let ksvc = self
            .ksvcs
            .get(service)
            .ok_or_else(|| KnativeError::ServiceNotFound(service.to_string()))?;
        let revision = ksvc.revision();
        let breaker = self.breaker(&revision);
        let mut attempts = 0;
        // Whether the final failed attempt was an overload signal (503 or
        // open circuit); every retryable match arm below assigns it.
        let mut last_was_overload;
        loop {
            // Breaker admission precedes endpoint resolution: an open
            // circuit fast-fails without touching the network.
            let permit = match breaker.admit() {
                Ok(p) => p,
                Err(wait) => {
                    attempts += 1;
                    obs.counter_add("knative.breaker_fast_fail", 1);
                    if attempts >= self.config.invoke_retry.attempts() {
                        return Err(KnativeError::Overloaded {
                            service: service.to_string(),
                            attempts,
                            last: "circuit open".to_string(),
                        });
                    }
                    let delay = self.config.invoke_retry.delay_for(attempts);
                    // An immediate retry policy would spin against an open
                    // circuit without advancing virtual time; wait out the
                    // remaining cooldown instead.
                    sleep(if delay.is_zero() {
                        wait.max(millis(10))
                    } else {
                        delay
                    })
                    .await;
                    continue;
                }
            };
            let endpoint = {
                let ready = self.k8s.api().ready_endpoints(REVISION_LABEL, &revision);
                match self.config.routing {
                    RoutingPolicy::RoundRobin => {
                        let mut cursors = self.cursors.borrow_mut();
                        round_robin(cursors.entry(revision.clone()).or_default(), &ready)
                    }
                    RoutingPolicy::LeastLoaded => self.pick_least_loaded(&ready),
                }
            };
            match endpoint {
                Some(ep) => {
                    let forward = self.http.request(from, ep.node, ep.port, request.clone());
                    // `None` marks an attempt that hit `attempt_timeout`.
                    let outcome = match self.config.attempt_timeout {
                        Some(deadline) => timeout(deadline, forward).await.ok(),
                        None => Some(forward.await),
                    };
                    let failure = match outcome {
                        Some(Ok(resp)) if resp.status == 500 => {
                            // The revision answered; the function itself is
                            // broken — a transport success for the breaker.
                            breaker.record(permit, true);
                            return Err(KnativeError::FunctionFailed(
                                String::from_utf8_lossy(&resp.body.to_bytes()).to_string(),
                            ));
                        }
                        Some(Ok(resp)) if resp.status == 503 => {
                            // Queue-proxy overload control shed the request;
                            // retryable, and it counts toward the breaker.
                            breaker.record(permit, false);
                            obs.counter_add("knative.overloaded_503", 1);
                            last_was_overload = true;
                            String::from_utf8_lossy(&resp.body.to_bytes()).to_string()
                        }
                        Some(Ok(resp)) => {
                            breaker.record(permit, true);
                            // End-to-end request latency, retries and cold
                            // waits included — the SLO engine's
                            // serverless-path objective.
                            obs.observe(
                                "knative.request_s",
                                (swf_simcore::now() - t0).as_secs_f64(),
                            );
                            return Ok(resp);
                        }
                        Some(Err(e))
                            if matches!(
                                e,
                                ClusterError::ConnectionRefused { .. }
                                    | ClusterError::Partitioned { .. }
                            ) =>
                        {
                            // Pod died — or the link dropped — between
                            // endpoint resolution and delivery; retry
                            // against fresh endpoints.
                            breaker.record(permit, false);
                            last_was_overload = false;
                            e.to_string()
                        }
                        Some(Err(e)) => {
                            breaker.record(permit, false);
                            return Err(KnativeError::Unavailable(e.to_string()));
                        }
                        None => {
                            breaker.record(permit, false);
                            last_was_overload = false;
                            "attempt deadline elapsed".to_string()
                        }
                    };
                    attempts += 1;
                    obs.counter_add("knative.request_retries", 1);
                    if attempts >= self.config.invoke_retry.attempts() {
                        return Err(if last_was_overload {
                            KnativeError::Overloaded {
                                service: service.to_string(),
                                attempts,
                                last: failure,
                            }
                        } else {
                            KnativeError::RetriesExhausted {
                                service: service.to_string(),
                                attempts,
                                last: failure,
                            }
                        });
                    }
                    let delay = self.config.invoke_retry.delay_for(attempts);
                    if !delay.is_zero() {
                        // Backed-off retry; the immediate default never
                        // sleeps, keeping the calm path bit-identical.
                        sleep(delay).await;
                    }
                }
                None => {
                    // Cold start: buffer at the activator until ready. No
                    // forwarding attempt was made, so the permit is
                    // released without a breaker transition.
                    breaker.cancel(permit);
                    self.activate(&ksvc, &revision, span.ctx()).await?;
                }
            }
        }
    }

    /// §IX-D task redirection: route to the endpoint whose node currently
    /// has the most free cores, falling back to round-robin order on ties
    /// (sorted endpoint lists keep this deterministic).
    fn pick_least_loaded(&self, ready: &[Endpoint]) -> Option<Endpoint> {
        ready.iter().copied().max_by_key(|ep| {
            self.k8s
                .runtime(ep.node)
                .map(|rt| rt.node().cores().available())
                .unwrap_or(0)
        })
    }

    /// The activator path: register buffered demand, poke the deployment,
    /// wait for at least one routable pod of the revision.
    async fn activate(
        &self,
        ksvc: &KService,
        revision: &str,
        parent: swf_obs::SpanContext,
    ) -> Result<(), KnativeError> {
        let obs = swf_obs::current();
        let cold = obs.span(
            parent,
            "knative/activator",
            format!("cold-wait:{revision}"),
            swf_obs::Category::ColdStart,
        );
        obs.counter_add("knative.cold_starts", 1);
        let t_cold = swf_simcore::now();
        let _buffered = self.hub.buffer_request(revision);
        sleep(ACTIVATOR_LATENCY).await;
        // Poke: ensure the deployment wants at least one replica without
        // waiting for the next autoscaler tick (Knative's activator sends
        // a scale-up hint to the autoscaler).
        let dep = ksvc.deployment_name();
        let current = self.k8s.api().deployments().get(&dep).map(|d| d.replicas);
        if current == Some(0) {
            let floor = ksvc.min_scale.max(1);
            let _ = self.k8s.api().scale_deployment(&dep, floor).await;
        }
        // The wait's one error is its deadline.
        if self
            .k8s
            .wait_ready_endpoints(REVISION_LABEL, revision, 1, COLD_START_DEADLINE)
            .await
            .is_err()
        {
            return Err(KnativeError::ColdStartTimeout(ksvc.name.clone()));
        }
        obs.observe(
            "knative.cold_wait_s",
            (swf_simcore::now() - t_cold).as_secs_f64(),
        );
        // Causally link the wait to the pod boot(s) it waited on.
        if !cold.ctx().is_none() {
            for pod in self
                .k8s
                .api()
                .pods()
                .filter(|p| p.meta.labels.get(SERVICE_LABEL) == Some(&ksvc.name))
            {
                let anchor = obs.anchor(&format!("pod/{}", pod.meta.name));
                obs.link_from(cold.ctx(), anchor);
            }
        }
        Ok(())
    }
}

/// The next of `ready` in round-robin order: the cursor advances on every
/// pick and wraps modulo the current list, so it survives a change of
/// backends. No pick, and no advance, from an empty list.
fn round_robin(cursor: &mut usize, ready: &[Endpoint]) -> Option<Endpoint> {
    if ready.is_empty() {
        return None;
    }
    let i = *cursor;
    *cursor = i.wrapping_add(1);
    Some(ready[i % ready.len()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use swf_cluster::NodeId;

    fn ready(n: usize) -> Vec<Endpoint> {
        (0..n)
            .map(|i| Endpoint {
                node: NodeId(i),
                port: 8080,
            })
            .collect()
    }

    #[test]
    fn round_robin_cycles_skips_empty_lists_and_survives_backend_changes() {
        let mut cursor = 0;
        let mut pick = |ready: &[Endpoint]| round_robin(&mut cursor, ready).map(|e| e.node.0);
        let three = ready(3);
        let picks: Vec<_> = (0..6).map(|_| pick(&three)).collect();
        assert_eq!(picks, [0, 1, 2, 0, 1, 2].map(Some));
        // An empty list yields nothing and leaves the cursor where it was.
        assert_eq!(pick(&[]), None);
        assert_eq!(pick(&three), Some(0));
        assert_eq!(pick(&three), Some(1));
        // The cursor keeps advancing; the modulo applies to the new list.
        let two = ready(2);
        assert_eq!(pick(&two), Some(0));
        assert_eq!(pick(&two), Some(1));
    }
}
