//! Regression guard for the controllers' steady state: a pass with nothing
//! to do allocates as much over 1,000 live pods as over 100.
//!
//! `Store::{get, list, filter}` hand out `Rc` snapshots, so a pass that
//! walks pods pays reference counts, not copies, and a write drops its
//! snapshot first so that it lands in place. Before, each read deep-copied
//! what it returned: the loop that keeps a Deployment's pods copied every
//! pod it owns on every pass, and a `Pod` is a dozen heap objects.
//!
//! Measured over the window below (one pass each of the controllers and
//! of the scheduler, all with nothing to do): 966 allocations at 100 pods
//! and 9,073 at 1,000 with the deep-copying store (9,077 in a release
//! build); 7 at either size with the sharing one, in debug and release
//! alike, while a replica-set controller sat between the Deployment and
//! its pods; 3 since the Deployment controller owns its pods directly.
//!
//! This file holds one test so that the counting allocator sees no other
//! test's threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use swf_cluster::NodeId;
use swf_container::{ImageRef, Registry, RegistryConfig};
use swf_k8s::{
    ApiServer, Deployment, DeploymentController, Endpoint, Endpoints, EndpointsController,
    LabelSelector, NodeCapacity, ObjectMeta, Pod, PodPhase, PodSpec, PodTemplate, Scheduler,
    SchedulerConfig, Service,
};
use swf_simcore::Sim;

/// `System`, counting every block it hands out.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a statistic and guards no memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System::alloc`'s own.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`, with `new_size` passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const FEW_PODS: usize = 100;
const MANY_PODS: usize = 1_000;
const MAY_ALLOCATE: usize = 16;

/// An API server in a converged state: one Deployment at `pods` replicas,
/// the live, ready, labelled pods it owns spread over four nodes, and a
/// Service whose Endpoints list them all.
fn converged(pods: usize) -> ApiServer {
    let api = ApiServer::default();
    let template = PodTemplate {
        meta: ObjectMeta::default().with_label("app", "fn"),
        spec: PodSpec::new(ImageRef::parse("fn:v1")),
    };
    let replicas = u32::try_from(pods).unwrap_or(u32::MAX);
    let deployment = Deployment::new(
        ObjectMeta::named("fn-deployment"),
        replicas,
        template.clone(),
    );
    api.deployments().put("fn-deployment", deployment);
    let mut ready = Vec::new();
    for i in 0..pods {
        let name = format!("fn-deployment-rs-{i}");
        let meta = ObjectMeta::named(&name)
            .with_label("app", "fn")
            .with_label("serving.knative.dev/revision", "fn-00001")
            .owned_by("fn-deployment");
        let mut pod = Pod::new(meta, template.spec.clone());
        let endpoint = Endpoint {
            node: NodeId(1 + i % 4),
            port: 30_000 + u16::try_from(i).unwrap_or(u16::MAX),
        };
        pod.status.node = Some(endpoint.node);
        pod.status.phase = PodPhase::Running;
        pod.status.ready = true;
        pod.status.port = endpoint.port;
        api.pods().put(name, pod);
        ready.push(endpoint);
    }
    ready.sort_by_key(|e| (e.node, e.port));
    let service = Service {
        meta: ObjectMeta::named("fn"),
        selector: LabelSelector::eq("app", "fn"),
    };
    api.services().put("fn", service);
    let endpoints = Endpoints {
        service: "fn".to_string(),
        ready,
    };
    api.endpoints().put("fn", endpoints);
    api
}

/// Allocations of one idle pass of each controller and the scheduler.
fn idle_pass_allocations(pods: usize) -> usize {
    let api = converged(pods);
    let endpoints = EndpointsController::new(api.clone());
    let deployments = DeploymentController::new(api.clone());
    let nodes = (1..=4)
        .map(|n| NodeCapacity {
            node: NodeId(n),
            cpu_millis: 64_000,
            memory: swf_cluster::gib(256),
        })
        .collect();
    let scheduler = Scheduler::new(
        api.clone(),
        Registry::new(RegistryConfig::default()),
        nodes,
        SchedulerConfig::default(),
    );
    let version = api.pods().version();

    Sim::new().block_on(async move {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        deployments.reconcile().await;
        endpoints.reconcile();
        scheduler.schedule_pass().await;
        let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(api.pods().len(), pods);
        assert_eq!(api.pods().version(), version, "no pass wrote a pod");
        allocated
    })
}

#[test]
fn an_idle_pass_allocates_the_same_over_many_pods_as_over_few() {
    let few = idle_pass_allocations(FEW_PODS);
    let many = idle_pass_allocations(MANY_PODS);
    assert_eq!(
        few, many,
        "an idle pass allocated {few} times over {FEW_PODS} pods and {many} over \
         {MANY_PODS}: a controller is copying the pods it walks again"
    );
    assert!(
        many < MAY_ALLOCATE,
        "{many} allocations in one idle pass of each controller and the scheduler"
    );
}
