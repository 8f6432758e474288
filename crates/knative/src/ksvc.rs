//! Knative Services: the one object the platform keeps per function.

use std::rc::Rc;

use swf_cluster::Request;
use swf_container::{ImageRef, ResourceLimits, Workload};
use swf_simcore::SimDuration;

/// Builds a workload from a request: the simulated analogue of the
/// paper's Flask route calling the matmul code.
pub type Handler = Rc<dyn Fn(&Request) -> Workload>;

/// Pod label naming the revision a pod serves, `{service}-00001`.
pub const REVISION_LABEL: &str = "serving.knative.dev/revision";
/// Pod label naming the KService a pod serves.
pub const SERVICE_LABEL: &str = "serving.knative.dev/service";

/// A Knative Service: everything the platform knows about one registered
/// function. The serving controller backs it with a Kubernetes Deployment
/// named after its one revision; the revision's ready endpoints are the
/// routable pods that carry its [`REVISION_LABEL`].
#[derive(Clone)]
pub struct KService {
    /// Service name, unique per platform.
    pub name: String,
    /// Function container image.
    pub image: ImageRef,
    /// Maximum concurrent requests per container (0 = unlimited,
    /// 1 = the paper's strongest-isolation serverless setting).
    pub container_concurrency: u32,
    /// Resource requests/limits of each function pod.
    pub resources: ResourceLimits,
    /// `autoscaling.knative.dev/min-scale`: floor on replicas; `N`
    /// pre-stages the image on `N` workers.
    pub min_scale: u32,
    /// `autoscaling.knative.dev/initial-scale`: replicas at creation
    /// before the `min_scale` floor (Knative's default 1; 0 defers the
    /// download to the first request).
    pub initial_scale: u32,
    /// `autoscaling.knative.dev/target`: per-pod concurrency the
    /// autoscaler aims for.
    pub target: f64,
    /// `autoscaling.knative.dev/max-scale`: cap on replicas (0 = uncapped).
    pub max_scale: u32,
    /// The function. [`Knative::register`](crate::Knative::register) sets
    /// it; until then every request fails.
    pub handler: Handler,
}

impl KService {
    /// Service with Knative's default scale settings and no function.
    pub fn new(name: impl Into<String>, image: ImageRef) -> Self {
        KService {
            name: name.into(),
            image,
            container_concurrency: 0,
            resources: ResourceLimits::default(),
            min_scale: 0,
            initial_scale: 1,
            target: 1.0,
            max_scale: 0,
            handler: Rc::new(unregistered),
        }
    }

    /// Set pod resources (builder style).
    pub fn with_resources(mut self, resources: ResourceLimits) -> Self {
        self.resources = resources;
        self
    }

    /// Set container concurrency (builder style).
    pub fn with_container_concurrency(mut self, cc: u32) -> Self {
        self.container_concurrency = cc;
        self
    }

    /// Set `autoscaling.knative.dev/min-scale` (builder style).
    pub fn with_min_scale(mut self, n: u32) -> Self {
        self.min_scale = n;
        self
    }

    /// Set `autoscaling.knative.dev/initial-scale` (builder style).
    pub fn with_initial_scale(mut self, n: u32) -> Self {
        self.initial_scale = n;
        self
    }

    /// Set `autoscaling.knative.dev/target` (builder style).
    pub fn with_target(mut self, target: f64) -> Self {
        self.target = target;
        self
    }

    /// Set `autoscaling.knative.dev/max-scale` (builder style).
    pub fn with_max_scale(mut self, n: u32) -> Self {
        self.max_scale = n;
        self
    }

    /// Replicas the Deployment starts with: `initial-scale`, raised to
    /// `min-scale`.
    pub(crate) fn initial_replicas(&self) -> u32 {
        self.initial_scale.max(self.min_scale)
    }

    /// The service's one revision, `{name}-00001`: its pods'
    /// [`REVISION_LABEL`], the key of its demand metrics, circuit breaker
    /// and balancer, and the name its spans carry. Every other name of the
    /// service's backing objects is built from it.
    pub(crate) fn revision(&self) -> String {
        format!("{}-00001", self.name)
    }

    /// Name of the backing Kubernetes Deployment.
    pub(crate) fn deployment_name(&self) -> String {
        format!("{}-deployment", self.revision())
    }
}

/// The handler of a service built but not registered.
fn unregistered(_: &Request) -> Workload {
    Workload::new(SimDuration::ZERO, || Err("no handler registered".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_set_the_typed_scale_settings() {
        let ksvc = KService::new("matmul", ImageRef::parse("hpc/matmul"))
            .with_container_concurrency(1)
            .with_min_scale(3)
            .with_target(2.0)
            .with_max_scale(8);
        assert_eq!(ksvc.container_concurrency, 1);
        assert_eq!(ksvc.min_scale, 3);
        assert_eq!(ksvc.initial_replicas(), 3); // floored by min-scale
        assert_eq!(ksvc.target, 2.0);
        assert_eq!(ksvc.max_scale, 8);
        assert_eq!(ksvc.revision(), "matmul-00001");
        assert_eq!(ksvc.deployment_name(), "matmul-00001-deployment");
    }

    #[test]
    fn initial_scale_zero_defers_downloads() {
        let ksvc = KService::new("m", ImageRef::parse("i")).with_initial_scale(0);
        assert_eq!(ksvc.initial_replicas(), 0);
        assert_eq!(ksvc.min_scale, 0);
        // The min-scale floor applies whichever builder runs last.
        assert_eq!(ksvc.with_min_scale(2).initial_replicas(), 2);
    }

    #[test]
    fn defaults_are_knatives() {
        let ksvc = KService::new("m", ImageRef::parse("i"));
        assert_eq!(ksvc.initial_replicas(), 1);
        assert_eq!(ksvc.target, 1.0);
        assert_eq!(ksvc.max_scale, 0);
    }

    #[test]
    fn an_unregistered_service_fails_every_request() {
        let ksvc = KService::new("m", ImageRef::parse("i"));
        let workload = (ksvc.handler)(&Request::post("/", bytes::Bytes::new()));
        assert_eq!(workload.compute, SimDuration::ZERO);
        assert_eq!((workload.run)().unwrap_err(), "no handler registered");
    }
}
