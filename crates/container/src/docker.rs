//! `docker run` facade: the paper's traditional-container baseline.
//!
//! Each invocation performs the full lifecycle — pull-if-missing, create,
//! start, exec, stop, remove — exactly what the paper's Figure 1 measures
//! for Docker ("each task ran in a new container, executed from the command
//! line using `docker run`").

use swf_simcore::{now, SimDuration};

use crate::cgroup::ResourceLimits;
use crate::error::ContainerError;
use crate::image::ImageRef;
use crate::registry::PullStats;
use crate::runtime::{ContainerRuntime, ExecResult, Workload};

/// Pull policy for [`DockerCli::run`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PullPolicy {
    /// Pull only when layers are missing locally (docker's default).
    #[default]
    IfNotPresent,
    /// Never pull; fail if the image is not local.
    Never,
}

/// Timing breakdown of a single `docker run`.
#[derive(Clone, Debug)]
pub struct DockerRunReport {
    /// Pull statistics, when a pull happened.
    pub pull: Option<PullStats>,
    /// Time spent pulling.
    pub pull_time: SimDuration,
    /// Time from create to task start (create + start overheads + queueing).
    pub startup_time: SimDuration,
    /// Task execution result.
    pub exec: ExecResult,
    /// Time tearing down (stop + remove).
    pub teardown_time: SimDuration,
    /// End-to-end elapsed time.
    pub total: SimDuration,
}

/// Thin CLI-like facade over a node's [`ContainerRuntime`].
#[derive(Clone)]
pub struct DockerCli {
    runtime: ContainerRuntime,
}

impl DockerCli {
    /// Wrap a runtime.
    pub fn new(runtime: ContainerRuntime) -> Self {
        DockerCli { runtime }
    }

    /// The wrapped runtime.
    pub fn runtime(&self) -> &ContainerRuntime {
        &self.runtime
    }

    /// Run a workload in a brand-new container, tearing it down afterwards.
    pub async fn run(
        &self,
        image: &ImageRef,
        limits: ResourceLimits,
        workload: Workload,
        pull: PullPolicy,
    ) -> Result<DockerRunReport, ContainerError> {
        self.run_with_span(swf_obs::SpanContext::NONE, image, limits, workload, pull)
            .await
    }

    /// [`DockerCli::run`] with lifecycle phases traced as child spans of
    /// `parent` (pull / create / exec / destroy).
    pub async fn run_with_span(
        &self,
        parent: swf_obs::SpanContext,
        image: &ImageRef,
        limits: ResourceLimits,
        workload: Workload,
        pull: PullPolicy,
    ) -> Result<DockerRunReport, ContainerError> {
        let obs = swf_obs::current();
        obs.counter_add("docker.runs", 1);
        let component = format!("{}/docker", self.runtime.node().name());
        let t0 = now();
        let (pull_stats, pull_time) = match pull {
            PullPolicy::Never => {
                if !self
                    .runtime
                    .registry()
                    .is_cached(self.runtime.node().id(), image)
                {
                    return Err(ContainerError::ImageNotFound(format!(
                        "{image} not present and pull policy is Never"
                    )));
                }
                (None, SimDuration::ZERO)
            }
            PullPolicy::IfNotPresent => {
                if self
                    .runtime
                    .registry()
                    .is_cached(self.runtime.node().id(), image)
                {
                    (None, SimDuration::ZERO)
                } else {
                    let s = now();
                    let span = obs.span(
                        parent,
                        &component,
                        format!("pull:{image}"),
                        swf_obs::Category::Pull,
                    );
                    let stats = self
                        .runtime
                        .registry()
                        .pull(self.runtime.node().id(), image)
                        .await?;
                    drop(span);
                    (Some(stats), now() - s)
                }
            }
        };

        let t_create = now();
        let span = obs.span(
            parent,
            &component,
            format!("create:{image}"),
            swf_obs::Category::Create,
        );
        let id = self.runtime.create(image, limits).await?;
        self.runtime.start(id).await?;
        drop(span);
        let startup_time = now() - t_create;

        let span = obs.span(parent, &component, "exec", swf_obs::Category::Compute);
        let exec = self.runtime.exec(id, workload).await?;
        drop(span);

        let t_stop = now();
        let span = obs.span(
            parent,
            &component,
            format!("destroy:{image}"),
            swf_obs::Category::Destroy,
        );
        self.runtime.stop(id).await?;
        self.runtime.remove(id).await?;
        drop(span);
        let teardown_time = now() - t_stop;

        Ok(DockerRunReport {
            pull: pull_stats,
            pull_time,
            startup_time,
            exec,
            teardown_time,
            total: now() - t0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::Image;
    use crate::overhead;
    use crate::registry::Registry;
    use swf_cluster::{mib, Node, NodeId, NodeSpec};
    use swf_simcore::{secs, Sim};

    fn cli() -> (DockerCli, ImageRef) {
        let node = Node::new(NodeId(1), NodeSpec::default());
        let registry = Registry::default();
        let image = ImageRef::parse("hpc/matmul");
        registry.push(Image::single_layer(image.clone(), 3, mib(100)));
        (DockerCli::new(ContainerRuntime::new(node, registry)), image)
    }

    #[test]
    fn run_full_cycle_and_report() {
        let sim = Sim::new();
        sim.block_on(async {
            let (cli, image) = cli();
            let r = cli
                .run(
                    &image,
                    ResourceLimits::default(),
                    Workload::synthetic(secs(0.458)),
                    PullPolicy::IfNotPresent,
                )
                .await
                .unwrap();
            assert!(r.pull.is_some());
            assert!(r.pull_time > SimDuration::ZERO);
            assert_eq!(r.startup_time, overhead::CREATE + overhead::START);
            assert_eq!(r.teardown_time, overhead::STOP + overhead::REMOVE);
            assert_eq!(
                r.total,
                r.pull_time
                    + overhead::CREATE
                    + overhead::START
                    + overhead::STOP
                    + overhead::REMOVE
                    + secs(0.458)
            );
            // Runtime is clean afterwards.
            assert_eq!(cli.runtime().created_total(), cli.runtime().removed_total());
        });
    }

    #[test]
    fn second_run_skips_pull() {
        let sim = Sim::new();
        sim.block_on(async {
            let (cli, image) = cli();
            let first = cli
                .run(
                    &image,
                    ResourceLimits::default(),
                    Workload::synthetic(secs(0.1)),
                    PullPolicy::IfNotPresent,
                )
                .await
                .unwrap();
            let second = cli
                .run(
                    &image,
                    ResourceLimits::default(),
                    Workload::synthetic(secs(0.1)),
                    PullPolicy::IfNotPresent,
                )
                .await
                .unwrap();
            assert!(first.pull.is_some());
            assert!(second.pull.is_none());
            assert!(second.total < first.total);
        });
    }

    #[test]
    fn pull_never_fails_without_image() {
        let sim = Sim::new();
        sim.block_on(async {
            let (cli, image) = cli();
            let err = cli
                .run(
                    &image,
                    ResourceLimits::default(),
                    Workload::synthetic(secs(0.1)),
                    PullPolicy::Never,
                )
                .await
                .unwrap_err();
            assert!(matches!(err, ContainerError::ImageNotFound(_)));
        });
    }

    #[test]
    fn per_task_overhead_matches_fig1_docker_model() {
        let sim = Sim::new();
        sim.block_on(async {
            let (cli, image) = cli();
            // Warm the cache once.
            cli.runtime().ensure_image(&image).await.unwrap();
            let compute = secs(0.458);
            let n = 10;
            let t0 = now();
            for _ in 0..n {
                cli.run(
                    &image,
                    ResourceLimits::default(),
                    Workload::synthetic(compute),
                    PullPolicy::IfNotPresent,
                )
                .await
                .unwrap();
            }
            let per_task = (now() - t0).as_secs_f64() / f64::from(n);
            // Fig 1 calibration: 0.458 compute + 0.167 lifecycle ≈ 0.625 s.
            assert!((per_task - 0.625).abs() < 1e-6, "per task {per_task}");
        });
    }
}
