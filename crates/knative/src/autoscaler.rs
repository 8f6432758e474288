//! The Knative Pod Autoscaler (KPA).
//!
//! Every tick it scrapes per-revision concurrency averages over the stable
//! and panic windows and reconciles the backing Deployment's replica count:
//! `desired = ceil(avg / target)`, floored by `min-scale`, capped by
//! `max-scale`, with panic-mode protection against scale-down during bursts
//! and a grace period before scale-to-zero.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use swf_k8s::Store;
use swf_simcore::{now, sleep, SimTime};

use crate::config::AutoscalerConfig;
use crate::ksvc::KService;
use crate::metrics::MetricHub;

/// Panic trigger: scale on the panic window once its demand reaches this
/// multiple of current capacity (Knative's `panic-threshold-percentage`
/// default, 200%).
pub const PANIC_THRESHOLD: f64 = 2.0;

/// One scaling decision (exposed for tests/ablations).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScaleDecision {
    /// Average concurrency over the stable window.
    pub stable: f64,
    /// Average concurrency over the panic window.
    pub panic: f64,
    /// Whether panic mode was active.
    pub panicking: bool,
    /// Replica count chosen.
    pub desired: u32,
}

/// The autoscaler control loop.
pub struct Autoscaler {
    ksvcs: Store<KService>,
    k8s: swf_k8s::K8s,
    hub: MetricHub,
    config: AutoscalerConfig,
    /// Last instant each revision had nonzero demand.
    last_active: Rc<RefCell<BTreeMap<String, SimTime>>>,
}

impl Autoscaler {
    /// New autoscaler.
    pub fn new(
        ksvcs: Store<KService>,
        k8s: swf_k8s::K8s,
        hub: MetricHub,
        config: AutoscalerConfig,
    ) -> Self {
        Autoscaler {
            ksvcs,
            k8s,
            hub,
            config,
            last_active: Rc::new(RefCell::new(BTreeMap::new())),
        }
    }

    /// Run forever, ticking at the configured interval.
    pub async fn run(self) {
        loop {
            self.tick().await;
            sleep(self.config.tick).await;
        }
    }

    /// One scaling pass over every service whose Deployment exists.
    pub async fn tick(&self) {
        for ksvc in self.ksvcs.list() {
            let deployment = ksvc.deployment_name();
            // Not backed yet: no replicas to scale, and no demand to
            // account before the serving controller creates them.
            let Some(current) = self.replicas(&deployment) else {
                continue;
            };
            let decision = self.decide(&ksvc, current);
            if current != decision.desired {
                let _ = self
                    .k8s
                    .api()
                    .scale_deployment(&deployment, decision.desired)
                    .await;
            }
        }
    }

    /// A Deployment's replica count, read in place.
    fn replicas(&self, deployment: &str) -> Option<u32> {
        self.k8s
            .api()
            .deployments()
            .read(|deployments| deployments.get(deployment).map(|d| d.replicas))
    }

    /// Compute the decision for one service at `current` replicas (pure
    /// given metrics state).
    pub fn decide(&self, ksvc: &KService, current: u32) -> ScaleDecision {
        let rev_name = ksvc.revision();
        let stable = self
            .hub
            .average_concurrency(&rev_name, self.config.stable_window);
        let panic = self
            .hub
            .average_concurrency(&rev_name, self.config.panic_window);
        let instant = self.hub.concurrency(&rev_name);
        let target = ksvc.target.max(0.01);

        let desired_stable = (stable / target).ceil() as u32;
        let desired_panic = (panic / target).ceil() as u32;

        // Panic when short-window demand is ≥ threshold × current capacity.
        let capacity = (current as f64) * target;
        let panicking = current > 0 && panic >= PANIC_THRESHOLD * capacity.max(target);
        let mut desired = if panicking {
            // Never scale down while panicking.
            desired_panic.max(current)
        } else {
            desired_stable
        };

        // Immediate demand keeps at least one pod even before averages move.
        if instant > 0.0 {
            desired = desired.max(1);
        }

        // Scale-to-zero grace: hold the last pod until demand has been zero
        // for the grace window.
        if instant > 0.0 || stable > 0.0 {
            self.last_active
                .borrow_mut()
                .insert(rev_name.clone(), now());
        }
        if desired == 0 && current > 0 {
            let last = self
                .last_active
                .borrow()
                .get(&rev_name)
                .copied()
                .unwrap_or(SimTime::ZERO);
            if now().since(last) < self.config.scale_to_zero_grace {
                desired = 1;
            }
        }

        desired = desired.max(ksvc.min_scale);
        if ksvc.max_scale > 0 {
            desired = desired.min(ksvc.max_scale);
        }

        ScaleDecision {
            stable,
            panic,
            panicking,
            desired,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swf_cluster::{Cluster, ClusterConfig};
    use swf_container::{Image, ImageRef, Registry};
    use swf_k8s::K8s;
    use swf_simcore::{secs, spawn, Sim};

    struct Rig {
        k8s: K8s,
        hub: MetricHub,
    }

    fn rig(min_scale: u32, cc_target: f64) -> Rig {
        let cluster = Cluster::new(&ClusterConfig::default());
        let registry = Registry::default();
        let image = ImageRef::parse("fn:v1");
        registry.push(Image::python_scientific(image.clone(), 1));
        let k8s = K8s::start(&cluster, registry);
        let ksvcs: Store<KService> = Store::new();
        let hub = MetricHub::new();
        let config = crate::config::KnativeConfig::default();
        spawn(crate::serving::ServingController::new(ksvcs.clone(), k8s.clone(), config).run());
        let autoscaler_cfg = AutoscalerConfig {
            stable_window: secs(10.0),
            panic_window: secs(2.0),
            scale_to_zero_grace: secs(5.0),
            ..AutoscalerConfig::default()
        };
        spawn(Autoscaler::new(ksvcs.clone(), k8s.clone(), hub.clone(), autoscaler_cfg).run());
        let mut ksvc = KService::new("fn", image)
            .with_min_scale(min_scale)
            .with_initial_scale(min_scale);
        ksvc.target = cc_target;
        ksvcs.put("fn", ksvc);
        Rig { k8s, hub }
    }

    fn replicas(rig: &Rig) -> u32 {
        rig.k8s
            .api()
            .deployments()
            .get("fn-00001-deployment")
            .map(|d| d.replicas)
            .unwrap_or(u32::MAX)
    }

    #[test]
    fn scales_up_under_sustained_concurrency() {
        let sim = Sim::new();
        sim.block_on(async {
            let rig = rig(0, 1.0);
            swf_simcore::sleep(secs(1.0)).await;
            assert!(rig.k8s.api().deployments().contains("fn-00001-deployment"));
            // Hold 4 concurrent requests for a while.
            let guards: Vec<_> = (0..4).map(|_| rig.hub.start_request("fn-00001")).collect();
            swf_simcore::sleep(secs(15.0)).await;
            assert!(replicas(&rig) >= 4, "replicas {}", replicas(&rig));
            drop(guards);
        });
    }

    #[test]
    fn scales_to_zero_after_grace() {
        let sim = Sim::new();
        sim.block_on(async {
            let rig = rig(0, 1.0);
            swf_simcore::sleep(secs(1.0)).await;
            {
                let _g = rig.hub.start_request("fn-00001");
                swf_simcore::sleep(secs(2.0)).await;
            }
            // Demand gone; within grace the pod stays.
            swf_simcore::sleep(secs(3.0)).await;
            assert!(replicas(&rig) >= 1);
            // Well past grace + stable window: scaled to zero.
            swf_simcore::sleep(secs(30.0)).await;
            assert_eq!(replicas(&rig), 0);
        });
    }

    #[test]
    fn min_scale_floors_replicas() {
        let sim = Sim::new();
        sim.block_on(async {
            let rig = rig(3, 1.0);
            swf_simcore::sleep(secs(40.0)).await;
            // No traffic at all, but min-scale holds 3 pods.
            assert_eq!(replicas(&rig), 3);
        });
    }

    #[test]
    fn higher_target_needs_fewer_pods() {
        let sim = Sim::new();
        sim.block_on(async {
            let rig = rig(0, 4.0);
            swf_simcore::sleep(secs(1.0)).await;
            let guards: Vec<_> = (0..8).map(|_| rig.hub.start_request("fn-00001")).collect();
            swf_simcore::sleep(secs(15.0)).await;
            let r = replicas(&rig);
            assert!((2..=3).contains(&r), "replicas {r}");
            drop(guards);
        });
    }
}
