//! Node-local container runtime (containerd stand-in).
//!
//! The runtime owns container lifecycle on one node: `create` reserves
//! memory and sets up namespaces, `start` boots the entrypoint, `exec` runs
//! a task on a CPU core under the container's cgroup limits, `stop`/`remove`
//! tear down. Images must already be in the node cache (callers pull via
//! [`Registry`]), matching containerd's contract.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use bytes::Bytes;

use swf_cluster::{MemoryLease, Node};
use swf_simcore::{now, sleep, DetRng, SimDuration};

use crate::cgroup::ResourceLimits;
use crate::error::ContainerError;
use crate::image::ImageRef;
use crate::overhead::OverheadModel;
use crate::registry::Registry;

/// Identifier of a container on one runtime.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ContainerId(pub u64);

impl std::fmt::Display for ContainerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ctr-{}", self.0)
    }
}

/// Lifecycle phase of a container.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ContainerPhase {
    /// Created but not started.
    Created,
    /// Entry point running; can accept execs.
    Running,
    /// Stopped; restartable only by re-create in this model.
    Exited,
}

impl ContainerPhase {
    fn name(self) -> &'static str {
        match self {
            ContainerPhase::Created => "created",
            ContainerPhase::Running => "running",
            ContainerPhase::Exited => "exited",
        }
    }
}

/// A unit of containerized work.
pub struct Workload {
    /// Single-core compute time at full (1000m) quota.
    pub compute: SimDuration,
    /// Real computation executed at the virtual instant the compute window
    /// ends; its output becomes the task output.
    pub run: Box<dyn FnOnce() -> Result<Bytes, String>>,
}

impl Workload {
    /// A workload with modelled time and a real computation.
    pub fn new(
        compute: SimDuration,
        run: impl FnOnce() -> Result<Bytes, String> + 'static,
    ) -> Self {
        Workload {
            compute,
            run: Box::new(run),
        }
    }

    /// Purely synthetic workload: charges time, returns empty output.
    pub fn synthetic(compute: SimDuration) -> Self {
        Workload::new(compute, || Ok(Bytes::new()))
    }
}

/// Result of an exec.
#[derive(Clone, Debug)]
pub struct ExecResult {
    /// Task output bytes.
    pub output: Bytes,
    /// Time spent waiting for a CPU core.
    pub core_wait: SimDuration,
    /// Core time charged (compute scaled by the cgroup quota).
    pub busy: SimDuration,
}

struct Ctr {
    limits: ResourceLimits,
    phase: ContainerPhase,
    _memory: MemoryLease,
}

struct RtState {
    containers: BTreeMap<u64, Ctr>,
    next_id: u64,
    created_total: u64,
    removed_total: u64,
    execs_total: u64,
    crashed_total: u64,
}

/// The per-node container runtime.
#[derive(Clone)]
pub struct ContainerRuntime {
    node: Node,
    registry: Registry,
    overheads: OverheadModel,
    rng: Rc<RefCell<DetRng>>,
    state: Rc<RefCell<RtState>>,
}

impl ContainerRuntime {
    /// Runtime on `node` pulling from `registry`.
    pub fn new(node: Node, registry: Registry, overheads: OverheadModel, seed: u64) -> Self {
        let stream = format!("container-runtime/{}", node.name());
        ContainerRuntime {
            node,
            registry,
            overheads,
            rng: Rc::new(RefCell::new(DetRng::new(seed, &stream))),
            state: Rc::new(RefCell::new(RtState {
                containers: BTreeMap::new(),
                next_id: 0,
                created_total: 0,
                removed_total: 0,
                execs_total: 0,
                crashed_total: 0,
            })),
        }
    }

    /// The node this runtime manages.
    pub fn node(&self) -> &Node {
        &self.node
    }

    /// The registry this runtime pulls from.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Ensure `image` is in the node cache, pulling when missing. Returns
    /// the time spent pulling (zero when cached).
    pub async fn ensure_image(&self, image: &ImageRef) -> Result<SimDuration, ContainerError> {
        if self.registry.is_cached(self.node.id(), image) {
            return Ok(SimDuration::ZERO);
        }
        let start = now();
        self.registry.pull(self.node.id(), image).await?;
        Ok(now() - start)
    }

    /// Create a container from a locally cached image.
    pub async fn create(
        &self,
        image: &ImageRef,
        limits: ResourceLimits,
    ) -> Result<ContainerId, ContainerError> {
        if !self.registry.is_cached(self.node.id(), image) {
            return Err(ContainerError::ImageNotFound(format!(
                "{image} not cached on {}",
                self.node.name()
            )));
        }
        let memory = self.node.memory().reserve(limits.memory)?;
        let d = {
            let mut rng = self.rng.borrow_mut();
            self.overheads.sample(self.overheads.create, &mut rng)
        };
        sleep(d).await;
        let mut s = self.state.borrow_mut();
        let id = s.next_id;
        s.next_id += 1;
        s.created_total += 1;
        s.containers.insert(
            id,
            Ctr {
                limits,
                phase: ContainerPhase::Created,
                _memory: memory,
            },
        );
        Ok(ContainerId(id))
    }

    /// Start a created container (boot the entrypoint).
    pub async fn start(&self, id: ContainerId) -> Result<(), ContainerError> {
        self.expect_phase(id, ContainerPhase::Created, "start")?;
        let d = {
            let mut rng = self.rng.borrow_mut();
            self.overheads.sample(self.overheads.start, &mut rng)
        };
        sleep(d).await;
        self.set_phase(id, ContainerPhase::Running)
    }

    /// Execute a workload inside a running container.
    pub async fn exec(
        &self,
        id: ContainerId,
        workload: Workload,
    ) -> Result<ExecResult, ContainerError> {
        let limits = {
            let s = self.state.borrow();
            let ctr = s
                .containers
                .get(&id.0)
                .ok_or(ContainerError::NoSuchContainer(id.0))?;
            if ctr.phase != ContainerPhase::Running {
                return Err(ContainerError::InvalidState {
                    id: id.0,
                    state: ctr.phase.name(),
                    op: "exec",
                });
            }
            ctr.limits
        };
        let scaled = limits.scale_compute(workload.compute);
        let t0 = now();
        let core_wait = self.node.cores().serve(scaled).await;
        let output = (workload.run)().map_err(ContainerError::TaskFailed)?;
        self.state.borrow_mut().execs_total += 1;
        Ok(ExecResult {
            output,
            core_wait,
            busy: (now() - t0) - core_wait,
        })
    }

    /// Stop a running container.
    pub async fn stop(&self, id: ContainerId) -> Result<(), ContainerError> {
        self.expect_phase(id, ContainerPhase::Running, "stop")?;
        let d = {
            let mut rng = self.rng.borrow_mut();
            self.overheads.sample(self.overheads.stop, &mut rng)
        };
        sleep(d).await;
        self.set_phase(id, ContainerPhase::Exited)
    }

    /// Crash a running container: it drops to Exited instantly, with no
    /// orderly-stop overhead. This is the chaos-injection hook a liveness
    /// probe later detects; it never fires on calm runs.
    pub fn crash(&self, id: ContainerId) -> Result<(), ContainerError> {
        self.expect_phase(id, ContainerPhase::Running, "crash")?;
        self.state.borrow_mut().crashed_total += 1;
        self.set_phase(id, ContainerPhase::Exited)
    }

    /// Remove a created or exited container, releasing its memory.
    pub async fn remove(&self, id: ContainerId) -> Result<(), ContainerError> {
        {
            let s = self.state.borrow();
            let ctr = s
                .containers
                .get(&id.0)
                .ok_or(ContainerError::NoSuchContainer(id.0))?;
            if ctr.phase == ContainerPhase::Running {
                return Err(ContainerError::InvalidState {
                    id: id.0,
                    state: ctr.phase.name(),
                    op: "remove",
                });
            }
        }
        let d = {
            let mut rng = self.rng.borrow_mut();
            self.overheads.sample(self.overheads.remove, &mut rng)
        };
        sleep(d).await;
        let mut s = self.state.borrow_mut();
        s.containers.remove(&id.0);
        s.removed_total += 1;
        Ok(())
    }

    /// Current phase of a container.
    pub fn phase(&self, id: ContainerId) -> Result<ContainerPhase, ContainerError> {
        self.state
            .borrow()
            .containers
            .get(&id.0)
            .map(|c| c.phase)
            .ok_or(ContainerError::NoSuchContainer(id.0))
    }

    /// Containers currently present (any phase).
    pub fn container_count(&self) -> usize {
        self.state.borrow().containers.len()
    }

    /// Containers ever created.
    pub fn created_total(&self) -> u64 {
        self.state.borrow().created_total
    }

    /// Containers ever removed.
    pub fn removed_total(&self) -> u64 {
        self.state.borrow().removed_total
    }

    /// Total execs across all containers.
    pub fn execs_total(&self) -> u64 {
        self.state.borrow().execs_total
    }

    /// Containers ever crashed via [`ContainerRuntime::crash`].
    pub fn crashed_total(&self) -> u64 {
        self.state.borrow().crashed_total
    }

    fn expect_phase(
        &self,
        id: ContainerId,
        want: ContainerPhase,
        op: &'static str,
    ) -> Result<(), ContainerError> {
        let s = self.state.borrow();
        let ctr = s
            .containers
            .get(&id.0)
            .ok_or(ContainerError::NoSuchContainer(id.0))?;
        if ctr.phase != want {
            return Err(ContainerError::InvalidState {
                id: id.0,
                state: ctr.phase.name(),
                op,
            });
        }
        Ok(())
    }

    fn set_phase(&self, id: ContainerId, phase: ContainerPhase) -> Result<(), ContainerError> {
        let mut s = self.state.borrow_mut();
        let ctr = s
            .containers
            .get_mut(&id.0)
            .ok_or(ContainerError::NoSuchContainer(id.0))?;
        ctr.phase = phase;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::Image;
    use crate::registry::RegistryConfig;
    use swf_cluster::{mib, NodeId, NodeSpec};
    use swf_simcore::{secs, Sim, SimTime};

    fn setup() -> (ContainerRuntime, ImageRef) {
        let node = Node::new(
            NodeId(1),
            NodeSpec {
                cores: 2,
                memory: mib(4096),
            },
        );
        let registry = Registry::new(RegistryConfig::default());
        let image = ImageRef::parse("hpc/matmul:1.0");
        registry.push(Image::single_layer(image.clone(), 1, mib(100)));
        let rt = ContainerRuntime::new(node, registry, OverheadModel::default(), 42);
        (rt, image)
    }

    #[test]
    fn full_lifecycle_charges_overheads() {
        let sim = Sim::new();
        sim.block_on(async {
            let (rt, image) = setup();
            rt.ensure_image(&image).await.unwrap();
            let t0 = now();
            let id = rt.create(&image, ResourceLimits::default()).await.unwrap();
            assert_eq!(rt.phase(id).unwrap(), ContainerPhase::Created);
            rt.start(id).await.unwrap();
            assert_eq!(rt.phase(id).unwrap(), ContainerPhase::Running);
            let r = rt.exec(id, Workload::synthetic(secs(1.0))).await.unwrap();
            assert_eq!(r.busy, secs(1.0));
            rt.stop(id).await.unwrap();
            rt.remove(id).await.unwrap();
            let elapsed = now() - t0;
            let m = OverheadModel::default();
            assert_eq!(elapsed, m.lifecycle_total() + secs(1.0));
            assert_eq!(rt.container_count(), 0);
            assert_eq!(rt.created_total(), 1);
            assert_eq!(rt.removed_total(), 1);
        });
    }

    #[test]
    fn create_requires_cached_image() {
        let sim = Sim::new();
        sim.block_on(async {
            let (rt, image) = setup();
            let err = rt
                .create(&image, ResourceLimits::default())
                .await
                .unwrap_err();
            assert!(matches!(err, ContainerError::ImageNotFound(_)));
        });
    }

    #[test]
    fn ensure_image_pull_then_cached() {
        let sim = Sim::new();
        sim.block_on(async {
            let (rt, image) = setup();
            let d1 = rt.ensure_image(&image).await.unwrap();
            assert!(d1 > SimDuration::ZERO);
            let d2 = rt.ensure_image(&image).await.unwrap();
            assert_eq!(d2, SimDuration::ZERO);
        });
    }

    #[test]
    fn exec_requires_running() {
        let sim = Sim::new();
        sim.block_on(async {
            let (rt, image) = setup();
            rt.ensure_image(&image).await.unwrap();
            let id = rt.create(&image, ResourceLimits::default()).await.unwrap();
            let err = rt
                .exec(id, Workload::synthetic(secs(1.0)))
                .await
                .unwrap_err();
            assert!(matches!(
                err,
                ContainerError::InvalidState { op: "exec", .. }
            ));
        });
    }

    #[test]
    fn crash_drops_a_running_container_instantly() {
        let sim = Sim::new();
        sim.block_on(async {
            let (rt, image) = setup();
            rt.ensure_image(&image).await.unwrap();
            let id = rt.create(&image, ResourceLimits::default()).await.unwrap();
            // Crash requires a running container.
            assert!(matches!(
                rt.crash(id),
                Err(ContainerError::InvalidState { op: "crash", .. })
            ));
            rt.start(id).await.unwrap();
            let t0 = now();
            rt.crash(id).unwrap();
            assert_eq!(now(), t0, "crash must not consume virtual time");
            assert_eq!(rt.phase(id).unwrap(), ContainerPhase::Exited);
            assert_eq!(rt.crashed_total(), 1);
            // Exec against the carcass is a typed error.
            let err = rt
                .exec(id, Workload::synthetic(secs(1.0)))
                .await
                .unwrap_err();
            assert!(matches!(err, ContainerError::InvalidState { .. }));
        });
    }

    #[test]
    fn remove_running_is_rejected() {
        let sim = Sim::new();
        sim.block_on(async {
            let (rt, image) = setup();
            rt.ensure_image(&image).await.unwrap();
            let id = rt.create(&image, ResourceLimits::default()).await.unwrap();
            rt.start(id).await.unwrap();
            let err = rt.remove(id).await.unwrap_err();
            assert!(matches!(
                err,
                ContainerError::InvalidState { op: "remove", .. }
            ));
        });
    }

    #[test]
    fn container_reuse_counts_execs() {
        let sim = Sim::new();
        sim.block_on(async {
            let (rt, image) = setup();
            rt.ensure_image(&image).await.unwrap();
            let id = rt.create(&image, ResourceLimits::default()).await.unwrap();
            rt.start(id).await.unwrap();
            for _ in 0..5 {
                rt.exec(id, Workload::synthetic(secs(0.1))).await.unwrap();
            }
            assert_eq!(rt.execs_total(), 5);
            assert_eq!(rt.created_total(), 1); // reuse: one container, many tasks
        });
    }

    #[test]
    fn half_quota_stretches_compute() {
        let sim = Sim::new();
        sim.block_on(async {
            let (rt, image) = setup();
            rt.ensure_image(&image).await.unwrap();
            let id = rt
                .create(
                    &image,
                    ResourceLimits {
                        cpu_millis: 500,
                        memory: mib(128),
                    },
                )
                .await
                .unwrap();
            rt.start(id).await.unwrap();
            let r = rt.exec(id, Workload::synthetic(secs(1.0))).await.unwrap();
            assert_eq!(r.busy, secs(2.0));
        });
    }

    #[test]
    fn real_computation_output_flows_through() {
        let sim = Sim::new();
        sim.block_on(async {
            let (rt, image) = setup();
            rt.ensure_image(&image).await.unwrap();
            let id = rt.create(&image, ResourceLimits::default()).await.unwrap();
            rt.start(id).await.unwrap();
            let w = Workload::new(secs(0.1), || Ok(Bytes::from(vec![1u8, 2, 3])));
            let r = rt.exec(id, w).await.unwrap();
            assert_eq!(&r.output[..], &[1, 2, 3]);
            let failing = Workload::new(secs(0.1), || Err("boom".into()));
            let err = rt.exec(id, failing).await.unwrap_err();
            assert_eq!(err, ContainerError::TaskFailed("boom".into()));
        });
    }

    #[test]
    fn memory_limit_enforced_on_create() {
        let sim = Sim::new();
        sim.block_on(async {
            let node = Node::new(
                NodeId(0),
                NodeSpec {
                    cores: 1,
                    memory: mib(256),
                },
            );
            let registry = Registry::new(RegistryConfig::default());
            let image = ImageRef::parse("m");
            registry.push(Image::single_layer(image.clone(), 1, mib(1)));
            let rt = ContainerRuntime::new(node, registry, OverheadModel::zero(), 1);
            rt.ensure_image(&image).await.unwrap();
            let _a = rt
                .create(
                    &image,
                    ResourceLimits {
                        cpu_millis: 1000,
                        memory: mib(200),
                    },
                )
                .await
                .unwrap();
            let err = rt
                .create(
                    &image,
                    ResourceLimits {
                        cpu_millis: 1000,
                        memory: mib(100),
                    },
                )
                .await
                .unwrap_err();
            assert!(matches!(err, ContainerError::OutOfMemory(_)));
        });
    }

    #[test]
    fn cores_contend_across_containers() {
        let sim = Sim::new();
        sim.block_on(async {
            let (rt, image) = setup(); // 2 cores
            rt.ensure_image(&image).await.unwrap();
            let mut ids = Vec::new();
            for _ in 0..3 {
                let id = rt
                    .create(
                        &image,
                        ResourceLimits {
                            cpu_millis: 1000,
                            memory: mib(64),
                        },
                    )
                    .await
                    .unwrap();
                rt.start(id).await.unwrap();
                ids.push(id);
            }
            let t0 = now();
            let handles: Vec<_> = ids
                .iter()
                .map(|&id| {
                    let rt = rt.clone();
                    swf_simcore::spawn(async move {
                        rt.exec(id, Workload::synthetic(secs(1.0))).await.unwrap()
                    })
                })
                .collect();
            let results = swf_simcore::join_all(handles).await;
            assert_eq!(now() - t0, secs(2.0)); // 3 tasks, 2 cores
            assert_eq!(
                results
                    .iter()
                    .filter(|r| r.core_wait > SimDuration::ZERO)
                    .count(),
                1
            );
        });
    }

    #[test]
    fn zero_time_ops_work() {
        let sim = Sim::new();
        let _ = SimTime::ZERO;
        sim.block_on(async {
            let node = Node::new(NodeId(0), NodeSpec::default());
            let registry = Registry::new(RegistryConfig::default());
            let image = ImageRef::parse("z");
            registry.push(Image::single_layer(image.clone(), 2, 0));
            let rt = ContainerRuntime::new(node, registry, OverheadModel::zero(), 1);
            rt.ensure_image(&image).await.unwrap();
            let id = rt.create(&image, ResourceLimits::default()).await.unwrap();
            rt.start(id).await.unwrap();
            let r = rt
                .exec(id, Workload::synthetic(SimDuration::ZERO))
                .await
                .unwrap();
            assert_eq!(r.busy, SimDuration::ZERO);
        });
    }
}
