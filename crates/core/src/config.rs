//! Experiment configuration: the paper's §V setup, composed.
//!
//! Each model constant is written once, at the component that charges it:
//! a component config's `Default` is its paper calibration, and a constant
//! no experiment varies is a `const` at its one use. DESIGN.md §5 tables
//! them all — value, unit, source, file — and `tests/calibration.rs` holds
//! that table to the code. `ExperimentConfig::paper()` composes the
//! component defaults — a 4-VM cluster (8 cores / 32 GiB each), Pegasus
//! 5.0.7-style planning onto HTCondor 23.8-style matchmaking,
//! Knative-style serving — and sets only what belongs to the experiment:
//! matrix size, `min-scale`, payload serialization rate, container
//! concurrency, staging, provisioning and seed. `ExperimentConfig::quick()`
//! shrinks matrices and waits for fast unit/integration tests.

use swf_cluster::ClusterConfig;
use swf_condor::{CondorConfig, DagmanConfig};
use swf_knative::{AutoscalerConfig, KnativeConfig};
use swf_simcore::{millis, secs, DEFAULT_SEED};
use swf_workloads::ComputeModel;

/// How Pegasus provisions container images for traditional-container tasks.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ContainerStaging {
    /// Stage the image tarball with the job, every job — Pegasus' default
    /// data-flow, and the cost the paper's Fig. 2/6 container path pays.
    #[default]
    PerJob,
    /// Pull through the registry with per-node layer caching (an ablation:
    /// what container execution looks like with warm caches).
    PullIfMissing,
}

/// How serverless functions are provisioned before the workflow runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Provisioning {
    /// `autoscaling.knative.dev/min-scale = N`: pre-stage images and warm
    /// pods on N workers before execution.
    #[default]
    PreStage,
    /// `autoscaling.knative.dev/initial-scale = 0`: defer image downloads
    /// until the first invocation (cold path).
    Deferred,
}

/// The full experiment configuration.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Cluster shape (paper: 4 VMs × 8 cores × 32 GiB).
    pub cluster: ClusterConfig,
    /// Knative parameters.
    pub knative: KnativeConfig,
    /// HTCondor parameters.
    pub condor: CondorConfig,
    /// DAGMan parameters.
    pub dagman: DagmanConfig,
    /// Matrix dimension (paper: 350).
    pub matrix_dim: usize,
    /// Modelled compute per task.
    pub compute: ComputeModel,
    /// Container image staging mode for the traditional path.
    pub container_staging: ContainerStaging,
    /// Serverless provisioning mode.
    pub provisioning: Provisioning,
    /// Per-container concurrent-request cap for functions (paper evaluates
    /// 1 = strongest serverless isolation; 0 = unlimited sharing).
    pub container_concurrency: u32,
    /// `min-scale` used when pre-staging.
    pub min_scale: u32,
    /// Effective throughput (bytes/s) of pass-by-value payload
    /// serialization on each side of an invocation — the paper's Python
    /// wrapper JSON-encodes both input matrices into the request and the
    /// Flask function decodes/encodes symmetrically, which is the dominant
    /// per-invocation cost behind Fig. 6's ≈1.08× serverless premium.
    /// Charged as `bytes / rate` on the wrapper and in the function pod.
    pub serialization_rate: f64,
    /// Root RNG seed.
    pub seed: u64,
    /// Collect distributed-tracing spans and metrics during runs. Spans are
    /// pure annotation (no virtual-time cost), so enabling this does not
    /// change any timing; it is off by default to keep pre-existing outputs
    /// bit-identical.
    pub trace: bool,
    /// Virtual interval (seconds) at which the telemetry sampler snapshots
    /// the metrics registry into time series. `0.0` (the default) disables
    /// sampling. The sampler only reads the registry, so any interval
    /// leaves virtual-time results bit-identical; it requires `trace` to
    /// be on (no registry to sample otherwise).
    pub series_interval_s: f64,
}

impl ExperimentConfig {
    /// The paper's calibrated configuration.
    pub fn paper() -> Self {
        ExperimentConfig {
            cluster: ClusterConfig::default(),
            knative: KnativeConfig::default(),
            condor: CondorConfig::default(),
            dagman: DagmanConfig::default(),
            matrix_dim: 350,
            compute: ComputeModel::paper(),
            container_staging: ContainerStaging::PerJob,
            provisioning: Provisioning::PreStage,
            container_concurrency: 1,
            // One pre-staged warm pod per worker; the autoscaler adds more
            // under load (overlapping stages from concurrent workflows
            // then queue briefly or ride a scale-out — the source of the
            // serverless premium over native in Fig. 6).
            min_scale: 3,
            serialization_rate: 4.0e6,
            seed: DEFAULT_SEED,
            trace: false,
            series_interval_s: 0.0,
        }
    }

    /// Small and fast: 16×16 matrices, short waits — for tests. The
    /// compute model stays at the paper's per-task time, fixed rather
    /// than dimension-scaled, so virtual timings keep the paper's shape.
    pub fn quick() -> Self {
        let mut c = Self::paper();
        c.matrix_dim = 16;
        c.compute.scale_with_dim = false;
        c.condor.negotiator.cycle_interval = secs(1.0);
        c.condor.startd.job_start_overhead = millis(50);
        c.dagman.poll_interval = secs(0.5);
        c.knative.autoscaler = AutoscalerConfig {
            tick: millis(500),
            stable_window: secs(10.0),
            panic_window: secs(2.0),
            scale_to_zero_grace: secs(10.0),
        };
        c
    }

    /// The function image reference used by every experiment.
    pub fn image_name() -> &'static str {
        "dockerhub.io/hpc/matmul:1.0"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_testbed() {
        let c = ExperimentConfig::paper();
        assert_eq!(c.cluster.nodes, 4);
        assert_eq!(c.cluster.node_spec.cores, 8);
        assert_eq!(c.cluster.node_spec.memory, swf_cluster::gib(32));
        assert_eq!(c.matrix_dim, 350);
        assert_eq!(c.container_concurrency, 1);
        assert_eq!(c.container_staging, ContainerStaging::PerJob);
    }

    #[test]
    fn quick_config_is_smaller_and_faster() {
        let q = ExperimentConfig::quick();
        assert!(q.matrix_dim < 64);
        assert!(q.condor.negotiator.cycle_interval < secs(5.0));
    }
}
