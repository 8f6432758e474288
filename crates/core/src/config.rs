//! Experiment configuration: every calibrated constant in one place.
//!
//! `ExperimentConfig::paper()` reproduces the paper's §V setup — a 4-VM
//! cluster (8 cores / 32 GiB each), Pegasus 5.0.7-style planning onto
//! HTCondor 23.8-style matchmaking, Knative-style serving — with timing
//! constants calibrated against the published numbers (1.48 s cold start,
//! Fig. 1 slopes, Fig. 6 native ≈ 250 s). `ExperimentConfig::quick()`
//! shrinks matrices and waits for fast unit/integration tests.

use swf_cluster::ClusterConfig;
use swf_condor::{CondorConfig, DagmanConfig, NegotiatorConfig, StartdConfig};
use swf_container::{OverheadModel, RegistryConfig};
use swf_k8s::K8sConfig;
use swf_knative::{AutoscalerConfig, KnativeConfig};
use swf_simcore::{millis, secs, RetryPolicy};
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
    /// Image registry behaviour.
    pub registry: RegistryConfig,
    /// Container lifecycle overheads.
    pub overheads: OverheadModel,
    /// Kubernetes control-plane parameters.
    pub k8s: K8sConfig,
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
        let k8s = K8sConfig {
            overheads: OverheadModel::default(),
            ..K8sConfig::default()
        };
        ExperimentConfig {
            cluster: ClusterConfig::default(),
            registry: RegistryConfig::default(),
            overheads: OverheadModel {
                // Mild lifecycle jitter desynchronizes concurrent
                // workflows, as on the real testbed.
                jitter_cv: 0.10,
                ..OverheadModel::default()
            },
            k8s,
            knative: KnativeConfig::default(),
            condor: CondorConfig {
                negotiator: NegotiatorConfig {
                    // Frequent matching with a per-job claim-activation
                    // latency (shadow spawn + claim handshake + transfer
                    // queue), calibrated with the 5 s DAGMan poll so one
                    // workflow stage averages ≈ 25 s and Fig. 6's
                    // all-native bar lands near the paper's 250 s. The
                    // activation delay is continuous (sampled per job), so
                    // per-venue overheads remain visible in makespans, as
                    // they are in the paper.
                    cycle_interval: secs(3.0),
                    match_latency: millis(30),
                    cycle_jitter_cv: 0.20,
                    activation_delay: secs(16.0),
                    activation_jitter_cv: 0.35,
                    seed: 0x5EED_CAFE,
                },
                startd: StartdConfig {
                    job_start_overhead: millis(800),
                },
            },
            dagman: DagmanConfig {
                poll_interval: secs(5.0),
                max_jobs: 0,
                poll_jitter_cv: 0.30,
                // Immediate resubmission — the pre-chaos behaviour; chaos
                // experiments opt into spaced backoff explicitly.
                retry: RetryPolicy::immediate(1),
            },
            matrix_dim: 350,
            compute: ComputeModel::paper(),
            container_staging: ContainerStaging::PerJob,
            provisioning: Provisioning::PreStage,
            container_concurrency: 1,
            // One pre-staged warm pod; the autoscaler adds more under load
            // (overlapping stages from concurrent workflows then queue
            // briefly or ride a scale-out — the source of the serverless
            // premium over native in Fig. 6).
            min_scale: 3,
            serialization_rate: 4.0e6,
            seed: 0x5EED_CAFE,
            trace: false,
            series_interval_s: 0.0,
        }
    }

    /// Small and fast: 16×16 matrices, short waits — for tests. The
    /// compute model stays at the paper's 0.458 s per task (fixed, not
    /// dimension-scaled) so virtual timings keep the paper's shape.
    pub fn quick() -> Self {
        let mut c = Self::paper();
        c.matrix_dim = 16;
        c.compute = ComputeModel::fixed(millis(458));
        c.condor.negotiator.cycle_interval = secs(1.0);
        c.condor.startd.job_start_overhead = millis(50);
        c.dagman.poll_interval = secs(0.5);
        c.knative.autoscaler = AutoscalerConfig {
            tick: millis(500),
            stable_window: secs(10.0),
            panic_window: secs(2.0),
            scale_to_zero_grace: secs(10.0),
            ..AutoscalerConfig::default()
        };
        c
    }

    /// The function image reference used by every experiment.
    pub fn image_name() -> &'static str {
        "dockerhub.io/hpc/matmul:1.0"
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self::paper()
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
