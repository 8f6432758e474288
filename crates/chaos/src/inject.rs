//! The injector: replays a [`FaultPlan`] against a booted stack, strictly
//! through public fault hooks, recording every injection in swf-obs.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use swf_cluster::{Cluster, LinkQuality, NodeId};
use swf_condor::Condor;
use swf_container::Registry;
use swf_core::TestBed;
use swf_k8s::K8s;
use swf_knative::Revision;
use swf_simcore::{now, sleep, DetRng, SimDuration, SimTime};

use crate::plan::{FaultKind, FaultPlan};

/// Cloneable handles to every subsystem the injector can fault. Extracted
/// from a [`TestBed`] so the injector can run as a spawned task.
#[derive(Clone)]
pub struct Stack {
    /// The cluster fabric (partitions, link degradation).
    pub cluster: Cluster,
    /// The image registry (outages).
    pub registry: Registry,
    /// The HTCondor pool (crashes, drains).
    pub condor: Condor,
    /// The Kubernetes control plane (node failures, pod kills).
    pub k8s: K8s,
}

impl Stack {
    /// Borrow the handles out of a booted testbed.
    pub fn of(bed: &TestBed) -> Stack {
        Stack {
            cluster: bed.cluster.clone(),
            registry: bed.registry.clone(),
            condor: bed.condor.clone(),
            k8s: bed.k8s.clone(),
        }
    }
}

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

/// Replays a [`FaultPlan`] against a [`Stack`] on the virtual clock.
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
    /// Returns the number of injections applied.
    pub async fn run(self, stack: Stack, disruptor: Option<Disruptor>) -> u64 {
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
            Self::apply(&ev.kind, &stack, disruptor.as_ref()).await;
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

    async fn apply(kind: &FaultKind, stack: &Stack, disruptor: Option<&Disruptor>) {
        match kind {
            FaultKind::NodeCrash { node } => {
                stack.condor.fail_node(NodeId(*node));
                stack.k8s.fail_node(NodeId(*node));
            }
            FaultKind::NodeRecover { node } => {
                stack.k8s.recover_node(NodeId(*node));
                stack.condor.recover_node(NodeId(*node));
            }
            FaultKind::CondorDrain { node } => {
                stack.condor.drain_node(NodeId(*node));
            }
            FaultKind::CondorResume { node } => {
                stack.condor.undrain_node(NodeId(*node));
            }
            FaultKind::PodKill { service } => {
                // Kill the first (name-ordered) pod of the service's active
                // revision; the ReplicaSet controller replaces it.
                let rev = format!("{service}-00001");
                let victim = stack
                    .k8s
                    .api()
                    .pods()
                    .filter(|p| p.meta.labels.get(Revision::pod_label()) == Some(&rev))
                    .into_iter()
                    .map(|p| p.meta.name)
                    .next();
                if let Some(name) = victim {
                    let _ = stack.k8s.api().delete_pod(&name).await;
                }
            }
            FaultKind::Partition { a, b } => {
                stack.cluster.network().partition(NodeId(*a), NodeId(*b));
            }
            FaultKind::Heal { a, b } => {
                stack.cluster.network().heal(NodeId(*a), NodeId(*b));
            }
            FaultKind::DegradeLink {
                a,
                b,
                latency_factor,
                bandwidth_factor,
            } => {
                stack.cluster.network().degrade_link(
                    NodeId(*a),
                    NodeId(*b),
                    LinkQuality {
                        latency_factor: *latency_factor,
                        bandwidth_factor: *bandwidth_factor,
                    },
                );
            }
            FaultKind::RestoreLink { a, b } => {
                stack.cluster.network().restore_link(NodeId(*a), NodeId(*b));
            }
            FaultKind::RegistryOutageStart => {
                stack.registry.set_outage(true);
            }
            FaultKind::RegistryOutageEnd => {
                stack.registry.set_outage(false);
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
                // controller evicts its pods and the endpoints controller
                // drops them from the revision router. A grace-expiry task
                // then hard-fails the node unless the provider returned it
                // early — that fallback is the ordinary crash path, so
                // claim-epoch requeue and rescue-resume remain the safety
                // net for whatever the drain could not finish in time.
                let id = NodeId(*node);
                stack.condor.drain_node(id);
                stack.k8s.fail_node(id);
                let grace = *grace;
                let stack = stack.clone();
                swf_simcore::spawn(async move {
                    sleep(grace).await;
                    if stack.k8s.node_is_ready(id) {
                        // Revocation was rescinded before the grace ran
                        // out; the node was never lost.
                        stack.condor.undrain_node(id);
                        return;
                    }
                    let idle = stack
                        .condor
                        .startd(id)
                        .is_none_or(|s| s.free_slots() == s.total_slots());
                    let obs = swf_obs::current();
                    if idle {
                        obs.counter_add("chaos.spot_graceful_exits", 1);
                    } else {
                        obs.counter_add("chaos.spot_forced_kills", 1);
                    }
                    stack.condor.fail_node(id);
                    // Clear the drain flag so the eventual NodeRecover
                    // restores the node to full service.
                    stack.condor.undrain_node(id);
                });
            }
            FaultKind::ContainerCrash { service } => {
                // Crash the backing container of the first (name-ordered)
                // running pod of the service's active revision. The pod
                // object stays; only a liveness probe brings it back.
                let rev = format!("{service}-00001");
                let victim = stack
                    .k8s
                    .api()
                    .pods()
                    .filter(|p| {
                        p.meta.labels.get(Revision::pod_label()) == Some(&rev)
                            && p.status.container.is_some()
                    })
                    .into_iter()
                    .next();
                if let Some(pod) = victim {
                    if let (Some(node), Some(container)) = (pod.status.node, pod.status.container) {
                        if let Some(rt) = stack.k8s.runtime(node) {
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
    use swf_core::config::ExperimentConfig;
    use swf_simcore::{secs, Sim};

    #[test]
    fn explicit_plan_drives_every_hook_and_recovers() {
        let sim = Sim::new();
        sim.block_on(async {
            let bed = TestBed::boot(&ExperimentConfig::quick());
            let mut plan = FaultPlan::calm();
            plan.push(secs(1.0), FaultKind::NodeCrash { node: 2 });
            plan.push(secs(1.0), FaultKind::Partition { a: 0, b: 1 });
            plan.push(secs(1.0), FaultKind::RegistryOutageStart);
            plan.push(secs(1.0), FaultKind::CondorDrain { node: 3 });
            plan.push(secs(2.0), FaultKind::NodeRecover { node: 2 });
            plan.push(secs(2.0), FaultKind::Heal { a: 0, b: 1 });
            plan.push(secs(2.0), FaultKind::RegistryOutageEnd);
            plan.push(secs(2.0), FaultKind::CondorResume { node: 3 });
            let stack = Stack::of(&bed);
            let handle = swf_simcore::spawn(Injector::new(plan).run(stack.clone(), None));
            swf_simcore::sleep(secs(1.5)).await;
            assert!(stack.condor.node_is_failed(NodeId(2)));
            assert!(!stack.k8s.node_is_ready(NodeId(2)));
            assert!(stack.cluster.network().is_partitioned(NodeId(0), NodeId(1)));
            assert!(stack.registry.is_under_outage());
            let injected = handle.await;
            assert_eq!(injected, 8);
            assert!(!stack.condor.node_is_failed(NodeId(2)));
            assert!(stack.k8s.node_is_ready(NodeId(2)));
            assert!(!stack.cluster.network().is_partitioned(NodeId(0), NodeId(1)));
            assert!(!stack.registry.is_under_outage());
        });
    }

    #[test]
    fn spot_revocation_drains_gracefully_then_falls_back_to_the_crash_path() {
        let sim = Sim::new();
        sim.block_on(async {
            let bed = TestBed::boot(&ExperimentConfig::quick());
            let mut plan = FaultPlan::calm();
            plan.push(
                secs(1.0),
                FaultKind::SpotRevoke {
                    node: 2,
                    grace: secs(5.0),
                },
            );
            plan.push(secs(20.0), FaultKind::NodeRecover { node: 2 });
            let stack = Stack::of(&bed);
            let handle = swf_simcore::spawn(Injector::new(plan).run(stack.clone(), None));
            swf_simcore::sleep(secs(2.0)).await;
            // Inside the grace window: draining and evicted, but not crashed.
            let draining = |s: &Stack| {
                s.condor
                    .startds()
                    .iter()
                    .find(|d| d.node().id() == NodeId(2))
                    .map(|d| d.is_draining())
                    .unwrap()
            };
            assert!(draining(&stack), "notice must drain the startd");
            assert!(!stack.condor.node_is_failed(NodeId(2)));
            assert!(!stack.k8s.node_is_ready(NodeId(2)), "pods must be evicted");
            swf_simcore::sleep(secs(6.0)).await;
            // Grace expired: the crash path took over.
            assert!(stack.condor.node_is_failed(NodeId(2)));
            assert!(!draining(&stack), "drain flag cleared for recovery");
            let injected = handle.await;
            assert_eq!(injected, 2);
            assert!(!stack.condor.node_is_failed(NodeId(2)));
            assert!(stack.k8s.node_is_ready(NodeId(2)));
        });
    }

    #[test]
    fn rescinded_revocation_never_crashes_the_node() {
        let sim = Sim::new();
        sim.block_on(async {
            let bed = TestBed::boot(&ExperimentConfig::quick());
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
            let stack = Stack::of(&bed);
            let handle = swf_simcore::spawn(Injector::new(plan).run(stack.clone(), None));
            handle.await;
            swf_simcore::sleep(secs(15.0)).await;
            assert!(!stack.condor.node_is_failed(NodeId(3)));
            assert!(stack.k8s.node_is_ready(NodeId(3)));
            let startd = stack
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
