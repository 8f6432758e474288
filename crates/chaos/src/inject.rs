//! The injector: replays a [`FaultPlan`] against a booted stack, strictly
//! through public fault hooks, recording every injection in swf-obs.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use swf_cluster::{LinkQuality, NodeId};
use swf_core::TestBed;
use swf_knative::ksvc::SERVICE_LABEL;
use swf_simcore::{now, sleep, DetRng, SimDuration, SimTime};

use crate::plan::{FaultKind, FaultPlan};

struct DisruptorState {
    flaky_until: SimTime,
    fail_chance: f64,
    slow_until: SimTime,
    slow_factor: f64,
    rng: DetRng,
    injected_failures: u64,
}

/// The task-level fault hook: workload closures consult it so flaky/slow
/// windows reach task executions that no infrastructure hook can touch.
/// Inert until the injector opens a window — outside windows it draws
/// nothing from its RNG and scales nothing, so calm runs are unchanged.
#[derive(Clone)]
pub struct Disruptor {
    state: Rc<RefCell<DisruptorState>>,
}

impl Disruptor {
    /// A disruptor with its own seeded coin-flip stream.
    pub fn new(seed: u64) -> Disruptor {
        Disruptor {
            state: Rc::new(RefCell::new(DisruptorState {
                flaky_until: SimTime::ZERO,
                fail_chance: 0.0,
                slow_until: SimTime::ZERO,
                slow_factor: 1.0,
                rng: DetRng::new(seed, "chaos-disruptor"),
                injected_failures: 0,
            })),
        }
    }

    /// Should this task execution fail? Flips the seeded coin only inside
    /// an open flaky window.
    pub fn should_fail(&self) -> bool {
        let mut s = self.state.borrow_mut();
        if now() >= s.flaky_until {
            return false;
        }
        let p = s.fail_chance;
        let fail = s.rng.chance(p);
        if fail {
            s.injected_failures += 1;
            swf_obs::current().counter_add("chaos.task_failures", 1);
        }
        fail
    }

    /// Stretch a task's compute time when a slow window is open.
    pub fn scale_compute(&self, d: SimDuration) -> SimDuration {
        let s = self.state.borrow();
        if now() < s.slow_until {
            d.mul_f64(s.slow_factor.max(1.0))
        } else {
            d
        }
    }

    /// Task failures injected so far.
    pub fn injected_failures(&self) -> u64 {
        self.state.borrow().injected_failures
    }

    fn open_flaky(&self, window: SimDuration, fail_chance: f64) {
        let mut s = self.state.borrow_mut();
        s.flaky_until = now() + window;
        s.fail_chance = fail_chance.clamp(0.0, 1.0);
    }

    fn open_slow(&self, window: SimDuration, factor: f64) {
        let mut s = self.state.borrow_mut();
        s.slow_until = now() + window;
        s.slow_factor = factor;
    }
}

/// Replays a [`FaultPlan`] against a booted [`TestBed`] on the virtual clock.
pub struct Injector {
    plan: FaultPlan,
}

impl Injector {
    /// An injector for `plan` (events are applied in time order).
    pub fn new(mut plan: FaultPlan) -> Injector {
        plan.normalize();
        Injector { plan }
    }

    /// The plan this injector replays.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Apply every event at its scheduled offset from now. Each injection
    /// is recorded as a `chaos/injector` span and bumps both the global
    /// `chaos.injected` counter and a per-class `chaos.<kind>` counter.
    /// Paired start/end faults additionally observe the outage duration as
    /// `chaos.outage_s.<class>` when the end event lands, so goodput
    /// reports can relate salvage to how long each disruption lasted.
    /// Returns the number of injections applied. Takes the bed by value
    /// (a clone) so it can run as a spawned task.
    pub async fn run(self, bed: TestBed, disruptor: Option<Disruptor>) -> u64 {
        let obs = swf_obs::current();
        let start = now();
        let mut injected = 0u64;
        let mut open: BTreeMap<String, SimTime> = BTreeMap::new();
        for ev in &self.plan.events {
            let due = start + ev.at;
            let t = now();
            if due > t {
                sleep(due - t).await;
            }
            let label = ev.kind.label();
            let _span = obs.span(
                swf_obs::SpanContext::NONE,
                "chaos/injector",
                format!("inject:{label}"),
                swf_obs::Category::Other,
            );
            Self::apply(&ev.kind, &bed, disruptor.as_ref()).await;
            Self::track_outage(&ev.kind, &mut open, &obs);
            obs.counter_add("chaos.injected", 1);
            // Per-kind counter: the name set is the closed FaultKind::label()
            // list, not free-form runtime input.
            obs.counter_add(&format!("chaos.{label}"), 1);
            injected += 1;
        }
        injected
    }

    /// Match paired start/end events and observe the elapsed outage. An
    /// end without a recorded start (plan truncation) is ignored. A
    /// [`FaultKind::NodeRecover`] closes either a spot revocation or a
    /// plain crash of its node, whichever opened first — the observed
    /// class is the one recorded at the start event.
    fn track_outage(kind: &FaultKind, open: &mut BTreeMap<String, SimTime>, obs: &swf_obs::Obs) {
        let close = |open: &mut BTreeMap<String, SimTime>, key: String, class: &str| {
            if let Some(opened) = open.remove(&key) {
                // Per-class histogram: `class` is the closed outage-class set
                // below, not free-form runtime input.
                obs.observe(
                    &format!("chaos.outage_s.{class}"),
                    (now() - opened).as_secs_f64(),
                );
                true
            } else {
                false
            }
        };
        match kind {
            FaultKind::NodeCrash { node } => {
                open.insert(format!("node-crash/{node}"), now());
            }
            FaultKind::SpotRevoke { node, .. } => {
                open.insert(format!("spot/{node}"), now());
            }
            FaultKind::NodeRecover { node } => {
                // A recovery ends whichever outage took this node down.
                let was_spot = close(open, format!("spot/{node}"), "spot");
                if !was_spot {
                    close(open, format!("node-crash/{node}"), "node-crash");
                }
            }
            FaultKind::CondorDrain { node } => {
                open.insert(format!("drain/{node}"), now());
            }
            FaultKind::CondorResume { node } => {
                close(open, format!("drain/{node}"), "drain");
            }
            FaultKind::Partition { a, b } => {
                open.insert(format!("partition/{a}-{b}"), now());
            }
            FaultKind::Heal { a, b } => {
                close(open, format!("partition/{a}-{b}"), "partition");
            }
            FaultKind::DegradeLink { a, b, .. } => {
                open.insert(format!("degrade/{a}-{b}"), now());
            }
            FaultKind::RestoreLink { a, b } => {
                close(open, format!("degrade/{a}-{b}"), "degrade");
            }
            FaultKind::RegistryOutageStart => {
                open.insert("registry-outage".to_string(), now());
            }
            FaultKind::RegistryOutageEnd => {
                close(open, "registry-outage".to_string(), "registry-outage");
            }
            _ => {}
        }
    }

    async fn apply(kind: &FaultKind, bed: &TestBed, disruptor: Option<&Disruptor>) {
        match kind {
            FaultKind::NodeCrash { node } => {
                bed.condor.fail_node(NodeId(*node));
                bed.k8s.fail_node(NodeId(*node));
            }
            FaultKind::NodeRecover { node } => {
                bed.k8s.recover_node(NodeId(*node));
                bed.condor.recover_node(NodeId(*node));
            }
            FaultKind::CondorDrain { node } => {
                bed.condor.drain_node(NodeId(*node));
            }
            FaultKind::CondorResume { node } => {
                bed.condor.undrain_node(NodeId(*node));
            }
            FaultKind::PodKill { service } => {
                // Kill the first (name-ordered) pod of the service; the
                // Deployment controller replaces it.
                let victim = bed
                    .k8s
                    .api()
                    .pods()
                    .filter(|p| p.meta.labels.get(SERVICE_LABEL) == Some(service))
                    .into_iter()
                    .map(|p| p.meta.name.clone())
                    .next();
                if let Some(name) = victim {
                    let _ = bed.k8s.api().delete_pod(&name).await;
                }
            }
            FaultKind::Partition { a, b } => {
                bed.cluster.network().partition(NodeId(*a), NodeId(*b));
            }
            FaultKind::Heal { a, b } => {
                bed.cluster.network().heal(NodeId(*a), NodeId(*b));
            }
            FaultKind::DegradeLink {
                a,
                b,
                latency_factor,
                bandwidth_factor,
            } => {
                bed.cluster.network().degrade_link(
                    NodeId(*a),
                    NodeId(*b),
                    LinkQuality {
                        latency_factor: *latency_factor,
                        bandwidth_factor: *bandwidth_factor,
                    },
                );
            }
            FaultKind::RestoreLink { a, b } => {
                bed.cluster.network().restore_link(NodeId(*a), NodeId(*b));
            }
            FaultKind::RegistryOutageStart => {
                bed.registry.set_outage(true);
            }
            FaultKind::RegistryOutageEnd => {
                bed.registry.set_outage(false);
            }
            FaultKind::FlakyTasks {
                window,
                fail_chance,
            } => {
                if let Some(d) = disruptor {
                    d.open_flaky(*window, *fail_chance);
                }
            }
            FaultKind::SlowTasks { window, factor } => {
                if let Some(d) = disruptor {
                    d.open_slow(*window, *factor);
                }
            }
            FaultKind::SpotRevoke { node, grace } => {
                // Revocation notice. Graceful drain starts immediately: the
                // startd stops matching (running jobs may finish inside the
                // grace window) and the k8s node goes unready so the node
                // controller evicts its pods, which leaves the revision's
                // ready endpoints the router reads. A grace-expiry task
                // then hard-fails the node unless the provider returned it
                // early — that fallback is the ordinary crash path, so
                // claim-epoch requeue and rescue-resume remain the safety
                // net for whatever the drain could not finish in time.
                let id = NodeId(*node);
                bed.condor.drain_node(id);
                bed.k8s.fail_node(id);
                let grace = *grace;
                let bed = bed.clone();
                swf_simcore::spawn(async move {
                    sleep(grace).await;
                    if bed.k8s.node_is_ready(id) {
                        // Revocation was rescinded before the grace ran
                        // out; the node was never lost.
                        bed.condor.undrain_node(id);
                        return;
                    }
                    let idle = bed
                        .condor
                        .startd(id)
                        .is_none_or(|s| s.free_slots() == s.total_slots());
                    let obs = swf_obs::current();
                    if idle {
                        obs.counter_add("chaos.spot_graceful_exits", 1);
                    } else {
                        obs.counter_add("chaos.spot_forced_kills", 1);
                    }
                    bed.condor.fail_node(id);
                    // Clear the drain flag so the eventual NodeRecover
                    // restores the node to full service.
                    bed.condor.undrain_node(id);
                });
            }
            FaultKind::ContainerCrash { service } => {
                // Crash the backing container of the first (name-ordered)
                // running pod of the service. The pod object stays; only a
                // liveness probe brings it back.
                let victim = bed
                    .k8s
                    .api()
                    .pods()
                    .filter(|p| {
                        p.meta.labels.get(SERVICE_LABEL) == Some(service)
                            && p.status.container.is_some()
                    })
                    .into_iter()
                    .next();
                if let Some(pod) = victim {
                    if let (Some(node), Some(container)) = (pod.status.node, pod.status.container) {
                        if let Some(rt) = bed.k8s.runtime(node) {
                            let _ = rt.crash(container);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swf_cluster::ClusterError;
    use swf_container::ContainerError;
    use swf_core::config::ExperimentConfig;
    use swf_core::harness;
    use swf_simcore::{secs, Sim};

    #[test]
    fn explicit_plan_drives_every_hook_and_recovers() {
        harness::run(&ExperimentConfig::quick(), async |bed| {
            let mut plan = FaultPlan::calm();
            plan.push(secs(1.0), FaultKind::NodeCrash { node: 2 });
            plan.push(secs(1.0), FaultKind::Partition { a: 0, b: 1 });
            plan.push(secs(1.0), FaultKind::RegistryOutageStart);
            plan.push(secs(1.0), FaultKind::CondorDrain { node: 3 });
            plan.push(secs(2.0), FaultKind::NodeRecover { node: 2 });
            plan.push(secs(2.0), FaultKind::Heal { a: 0, b: 1 });
            plan.push(secs(2.0), FaultKind::RegistryOutageEnd);
            plan.push(secs(2.0), FaultKind::CondorResume { node: 3 });
            let handle = swf_simcore::spawn(Injector::new(plan).run(bed.clone(), None));
            swf_simcore::sleep(secs(1.5)).await;
            let net = bed.cluster.network();
            assert!(bed.condor.node_is_failed(NodeId(2)));
            assert!(!bed.k8s.node_is_ready(NodeId(2)));
            assert!(matches!(
                net.transfer(NodeId(0), NodeId(1), 1).await,
                Err(ClusterError::Partitioned { .. })
            ));
            assert!(matches!(
                bed.registry.pull(NodeId(1), &bed.image).await,
                Err(ContainerError::RegistryUnavailable(_))
            ));
            let injected = handle.await;
            assert_eq!(injected, 8);
            assert!(!bed.condor.node_is_failed(NodeId(2)));
            assert!(bed.k8s.node_is_ready(NodeId(2)));
            assert!(net.transfer(NodeId(0), NodeId(1), 1).await.is_ok());
            assert!(bed.registry.pull(NodeId(1), &bed.image).await.is_ok());
        });
    }

    #[test]
    fn spot_revocation_drains_gracefully_then_falls_back_to_the_crash_path() {
        harness::run(&ExperimentConfig::quick(), async |bed| {
            let mut plan = FaultPlan::calm();
            plan.push(
                secs(1.0),
                FaultKind::SpotRevoke {
                    node: 2,
                    grace: secs(5.0),
                },
            );
            plan.push(secs(20.0), FaultKind::NodeRecover { node: 2 });
            let handle = swf_simcore::spawn(Injector::new(plan).run(bed.clone(), None));
            swf_simcore::sleep(secs(2.0)).await;
            // Inside the grace window: draining and evicted, but not crashed.
            let draining = |s: &TestBed| {
                s.condor
                    .startds()
                    .iter()
                    .find(|d| d.node().id() == NodeId(2))
                    .map(|d| d.is_draining())
                    .unwrap()
            };
            assert!(draining(bed), "notice must drain the startd");
            assert!(!bed.condor.node_is_failed(NodeId(2)));
            assert!(!bed.k8s.node_is_ready(NodeId(2)), "pods must be evicted");
            swf_simcore::sleep(secs(6.0)).await;
            // Grace expired: the crash path took over.
            assert!(bed.condor.node_is_failed(NodeId(2)));
            assert!(!draining(bed), "drain flag cleared for recovery");
            let injected = handle.await;
            assert_eq!(injected, 2);
            assert!(!bed.condor.node_is_failed(NodeId(2)));
            assert!(bed.k8s.node_is_ready(NodeId(2)));
        });
    }

    #[test]
    fn rescinded_revocation_never_crashes_the_node() {
        harness::run(&ExperimentConfig::quick(), async |bed| {
            let mut plan = FaultPlan::calm();
            plan.push(
                secs(1.0),
                FaultKind::SpotRevoke {
                    node: 3,
                    grace: secs(10.0),
                },
            );
            // The provider hands the capacity back before grace expires.
            plan.push(secs(4.0), FaultKind::NodeRecover { node: 3 });
            let handle = swf_simcore::spawn(Injector::new(plan).run(bed.clone(), None));
            handle.await;
            swf_simcore::sleep(secs(15.0)).await;
            assert!(!bed.condor.node_is_failed(NodeId(3)));
            assert!(bed.k8s.node_is_ready(NodeId(3)));
            let startd = bed
                .condor
                .startds()
                .iter()
                .find(|d| d.node().id() == NodeId(3))
                .unwrap();
            assert!(!startd.is_draining(), "rescind must undrain");
        });
    }

    #[test]
    fn disruptor_windows_open_and_close_on_the_virtual_clock() {
        let sim = Sim::new();
        sim.block_on(async {
            let d = Disruptor::new(9);
            // Closed: no failures, no scaling, no RNG draws.
            assert!(!d.should_fail());
            assert_eq!(d.scale_compute(secs(1.0)), secs(1.0));
            d.open_flaky(secs(5.0), 1.0);
            d.open_slow(secs(5.0), 3.0);
            assert!(d.should_fail(), "chance 1.0 inside the window");
            assert_eq!(d.scale_compute(secs(1.0)), secs(3.0));
            swf_simcore::sleep(secs(6.0)).await;
            assert!(!d.should_fail(), "window expired");
            assert_eq!(d.scale_compute(secs(1.0)), secs(1.0));
            assert_eq!(d.injected_failures(), 1);
        });
    }
}
