//! Regression guard for the controllers' read path: a reconcile pass over
//! pods it has nothing to do with copies none of them.
//!
//! Nothing collects `Failed` pods (a refused image pull during a registry
//! outage mints one per retry), so every controller pass walks them for
//! the rest of the run. Walking is cheap. The passes below go through
//! `Store::read`, which takes no snapshot, and allocate only for what they
//! act on.
//!
//! Measured over the window below (5,000 dead pods, three kinds of pass):
//! 91,014 allocations with the snapshot reads this replaced, which then
//! deep-copied every pod they returned (a `Pod` is a dozen heap objects);
//! 1 with the borrowed ones — the `Vec` naming the one not-ready node.
//! Snapshots have since become shared `Rc`s (`controller_allocs.rs`), but
//! a snapshot list still costs a `Vec` and a count per pod it holds.
//!
//! This file holds one test so that the counting allocator sees no other
//! test's threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use swf_cluster::{Node, NodeId, NodeSpec};
use swf_container::{ContainerRuntime, ImageRef, Registry};
use swf_k8s::{ApiServer, Kubelet, NodeController, NodeStatus, ObjectMeta, Pod, PodPhase, PodSpec};

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

const DEAD_PODS: usize = 5_000;
const NODE_READY_CALLS: usize = 1_000;
const MAY_ALLOCATE: usize = 1_000;

#[test]
fn a_pass_over_dead_pods_copies_none_of_them() {
    let node = NodeId(1);
    let api = ApiServer::default();
    api.nodes().put(
        node.to_string(),
        NodeStatus {
            id: node,
            ready: false,
        },
    );
    let image = ImageRef::parse("fn:v1");
    for i in 0..DEAD_PODS {
        let name = format!("fn-00001-deployment-rs-{i}");
        let meta = ObjectMeta {
            owner: Some("fn-00001-deployment".to_string()),
            ..ObjectMeta::named(&name).with_label("serving.knative.dev/revision", "fn-00001")
        };
        let mut pod = Pod::new(meta, PodSpec::new(image.clone()));
        pod.status.node = Some(node);
        pod.status.phase = PodPhase::Failed;
        pod.status.message = "image pull failed: registry unavailable".to_string();
        api.pods().put(name, pod);
    }
    let runtime = ContainerRuntime::new(Node::new(node, NodeSpec::default()), Registry::default());
    let kubelet = Kubelet::new(api.clone(), runtime);
    let nodes = NodeController::new(api.clone());

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    nodes.reconcile();
    kubelet.reconcile();
    let ready = (0..NODE_READY_CALLS)
        .filter(|_| api.node_ready(node))
        .count();
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(ready, 0);
    assert_eq!(api.pods().len(), DEAD_PODS, "no pass touched a dead pod");
    assert!(
        allocated < MAY_ALLOCATE,
        "{allocated} allocations in one pass of each controller over {DEAD_PODS} dead pods: \
         a pass is cloning the pod store again"
    );
}
