//! Regression guard for the controllers' steady state: a pass with nothing
//! to do allocates as much over 1,000 live pods as over 100, and so does a
//! read of a revision's ready endpoints, which allocates only the list it
//! returns.
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
//! its pods; 3 since the Deployment controller owns its pods directly, two
//! of them an Endpoints controller's (its list of services and the
//! endpoints list it rebuilt and compared on every pass). That controller
//! is gone: the list is built when it is read, and one read is the
//! window's third input, so the window allocates 2 at either size, one of
//! them the read's list.
//!
//! This file holds one test so that the counting allocator sees no other
//! test's threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use swf_cluster::NodeId;
use swf_container::{ImageRef, Registry, RegistryConfig};
use swf_k8s::{
    ApiServer, Deployment, DeploymentController, NodeCapacity, ObjectMeta, Pod, PodPhase, PodSpec,
    PodTemplate, Scheduler, SchedulerConfig,
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
const REVISION_LABEL: &str = "serving.knative.dev/revision";

/// An API server in a converged state: one Deployment at `pods` replicas
/// and the live, ready pods it owns, spread over four nodes and all
/// labelled with one revision.
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
    for i in 0..pods {
        let name = format!("fn-deployment-rs-{i}");
        let meta = ObjectMeta::named(&name)
            .with_label("app", "fn")
            .with_label(REVISION_LABEL, "fn-00001")
            .owned_by("fn-deployment");
        let mut pod = Pod::new(meta, template.spec.clone());
        pod.status.node = Some(NodeId(1 + i % 4));
        pod.status.phase = PodPhase::Running;
        pod.status.ready = true;
        pod.status.port = 30_000 + u16::try_from(i).unwrap_or(u16::MAX);
        api.pods().put(name, pod);
    }
    api
}

/// Allocations of one idle pass of each controller and the scheduler plus
/// one read of the revision's ready endpoints, and of the read alone.
fn idle_pass_allocations(pods: usize) -> (usize, usize) {
    let api = converged(pods);
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
        let before_read = ALLOCATIONS.load(Ordering::Relaxed);
        let ready = api.ready_endpoints(REVISION_LABEL, "fn-00001");
        let read = ALLOCATIONS.load(Ordering::Relaxed) - before_read;
        scheduler.schedule_pass().await;
        let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(ready.len(), pods, "every pod is a ready endpoint");
        assert!(
            ready
                .windows(2)
                .all(|w| (w[0].node, w[0].port) < (w[1].node, w[1].port)),
            "endpoints in ascending (node, port) order"
        );
        assert_eq!(api.pods().len(), pods);
        assert_eq!(api.pods().version(), version, "no pass wrote a pod");
        (allocated, read)
    })
}

#[test]
fn an_idle_pass_allocates_the_same_over_many_pods_as_over_few() {
    let (few, few_read) = idle_pass_allocations(FEW_PODS);
    let (many, many_read) = idle_pass_allocations(MANY_PODS);
    assert_eq!(
        (few_read, many_read),
        (1, 1),
        "a read of the ready endpoints allocated {few_read} times over {FEW_PODS} pods \
         and {many_read} over {MANY_PODS}: it should allocate its result list once"
    );
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
