//! The Pegasus facade: plan, submit to DAGMan, collect statistics.

use swf_condor::{run_dag_resumable, Condor, DagReport, DagRun, DagmanConfig, RescueDag};
use swf_simcore::SimDuration;

use crate::abstract_wf::AbstractWorkflow;
use crate::catalog::{ReplicaCatalog, TransformationCatalog};
use crate::planner::{plan, JobFactory, PlanError, PlanOptions};

/// Errors from end-to-end workflow runs.
#[derive(Debug)]
pub enum PegasusError {
    /// Planning failed.
    Plan(PlanError),
    /// Execution failed.
    Execution(swf_condor::CondorError),
}

impl std::fmt::Display for PegasusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PegasusError::Plan(e) => write!(f, "planning failed: {e}"),
            PegasusError::Execution(e) => write!(f, "execution failed: {e}"),
        }
    }
}

impl std::error::Error for PegasusError {}

/// Per-run statistics (pegasus-statistics equivalent).
#[derive(Clone, Debug)]
pub struct WorkflowRunStats {
    /// End-to-end makespan.
    pub makespan: SimDuration,
    /// Planned task count (after clustering).
    pub tasks: usize,
}

/// The workflow management system instance.
pub struct Pegasus {
    condor: Condor,
    tcat: TransformationCatalog,
    rcat: ReplicaCatalog,
    plan_options: PlanOptions,
    dagman: DagmanConfig,
}

impl Pegasus {
    /// New WMS over a condor pool.
    pub fn new(condor: Condor) -> Self {
        Pegasus {
            condor,
            tcat: TransformationCatalog::new(),
            rcat: ReplicaCatalog::new(),
            plan_options: PlanOptions::default(),
            dagman: DagmanConfig::default(),
        }
    }

    /// Set planner options (builder style).
    pub fn with_plan_options(mut self, options: PlanOptions) -> Self {
        self.plan_options = options;
        self
    }

    /// Set DAGMan config (builder style).
    pub fn with_dagman(mut self, config: DagmanConfig) -> Self {
        self.dagman = config;
        self
    }

    /// The transformation catalog.
    pub fn transformations(&self) -> &TransformationCatalog {
        &self.tcat
    }

    /// The replica catalog.
    pub fn replicas(&self) -> &ReplicaCatalog {
        &self.rcat
    }

    /// The condor pool.
    pub fn condor(&self) -> &Condor {
        &self.condor
    }

    /// Plan and execute an abstract workflow to completion; a halt is the
    /// typed [`swf_condor::CondorError::DagNodeFailed`] of
    /// [`DagRun::into_result`].
    pub async fn run(
        &self,
        wf: &AbstractWorkflow,
        factory: &dyn JobFactory,
    ) -> Result<(WorkflowRunStats, DagReport), PegasusError> {
        let (stats, run) = self.run_resumable(wf, factory, None).await?;
        let report = run.into_result().map_err(PegasusError::Execution)?;
        Ok((stats, report))
    }

    /// Plan and execute an abstract workflow as DAGMan does: a failed node
    /// halts only its descendants and the run returns [`DagRun::Halted`]
    /// with the rescue artifact. Passing a previous halt's rescue as
    /// `resume` salvages its completed nodes verbatim — they are provably
    /// never resubmitted. The plan must be identical between the halted and
    /// resumed runs (same workflow, same options); a mismatch is rejected
    /// by the rescue compatibility check.
    pub async fn run_resumable(
        &self,
        wf: &AbstractWorkflow,
        factory: &dyn JobFactory,
        resume: Option<&RescueDag>,
    ) -> Result<(WorkflowRunStats, DagRun), PegasusError> {
        let exec = plan(wf, &self.tcat, &self.rcat, factory, self.plan_options)
            .map_err(PegasusError::Plan)?;
        let run = run_dag_resumable(&self.condor, &exec.dag, self.dagman, resume)
            .await
            .map_err(PegasusError::Execution)?;
        let stats = WorkflowRunStats {
            makespan: run.report().makespan(),
            tasks: exec.tasks.len(),
        };
        Ok((stats, run))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstract_wf::{AbstractJob, Transformation};
    use crate::catalog::ReplicaLocation;
    use crate::planner::NativeFactory;
    use bytes::Bytes;
    use swf_cluster::{Cluster, ClusterConfig};
    use swf_condor::{CondorConfig, NegotiatorConfig, StartdConfig};
    use swf_simcore::{secs, Sim, SimDuration};
    use swf_workloads::{decode, encode, matmul, ExecEnv, Kernel, Matrix};

    fn fast_condor(cluster: &Cluster) -> Condor {
        Condor::start(
            cluster,
            CondorConfig {
                negotiator: NegotiatorConfig {
                    cycle_interval: secs(1.0),
                    cycle_jitter_cv: 0.0,
                    activation_delay: SimDuration::ZERO,
                    ..NegotiatorConfig::default()
                },
                startd: StartdConfig {
                    job_start_overhead: SimDuration::from_millis(100),
                },
            },
        )
    }

    #[test]
    fn end_to_end_matmul_chain_native() {
        let sim = Sim::new();
        sim.block_on(async {
            let cluster = Cluster::new(&ClusterConfig::default());
            let condor = fast_condor(&cluster);
            let pegasus = Pegasus::new(condor).with_dagman(DagmanConfig {
                poll_interval: secs(1.0),
                ..DagmanConfig::default()
            });
            pegasus.transformations().register(Transformation::new(
                "matmul",
                secs(0.458),
                |inputs| {
                    let product = swf_workloads::multiply_encoded(
                        inputs[0].clone(),
                        inputs[1].clone(),
                        Kernel::Blocked,
                    )?;
                    Ok(vec![product])
                },
            ));

            // Stage seed matrices on the shared fs (8×8 for test speed).
            let mut rng = swf_simcore::DetRng::new(1, "seeds");
            let a0 = Matrix::random(8, 8, &mut rng, -10, 10);
            cluster.shared_fs().stage("seed_a", encode(&a0));
            pegasus
                .replicas()
                .register("seed_a", ReplicaLocation::SharedFs("seed_a".into()));
            let mut expected = a0.clone();
            let mut wf = AbstractWorkflow::new("chain");
            for t in 0..3 {
                let b = Matrix::random(8, 8, &mut rng, -10, 10);
                expected = matmul(&expected, &b, Kernel::Blocked);
                let side = format!("side{t}");
                cluster.shared_fs().stage(&side, encode(&b));
                pegasus
                    .replicas()
                    .register(&side, ReplicaLocation::SharedFs(side.clone()));
                let input_a = if t == 0 {
                    "seed_a".to_string()
                } else {
                    format!("out{}", t - 1)
                };
                wf.add_job(AbstractJob {
                    name: format!("t{t}"),
                    transformation: "matmul".into(),
                    inputs: vec![input_a, side],
                    outputs: vec![format!("out{t}")],
                    env: ExecEnv::Native,
                });
            }

            let (stats, report) = pegasus.run(&wf, &NativeFactory).await.unwrap();
            assert_eq!(stats.tasks, 3);
            assert_eq!(report.node_results.len(), 3);
            assert!(stats.makespan > SimDuration::ZERO);
            assert!(report
                .node_results
                .values()
                .all(|r| r.execution_time() >= secs(0.458)));
            // The final product staged back to the shared fs is correct.
            let out = cluster.shared_fs().read("out2").await.unwrap();
            assert_eq!(decode(out).unwrap(), expected);
        });
    }

    #[test]
    fn failing_transformation_surfaces_as_execution_error() {
        let sim = Sim::new();
        sim.block_on(async {
            let cluster = Cluster::new(&ClusterConfig::default());
            let pegasus = Pegasus::new(fast_condor(&cluster)).with_dagman(DagmanConfig {
                poll_interval: secs(1.0),
                ..DagmanConfig::default()
            });
            pegasus
                .transformations()
                .register(Transformation::new("explode", secs(0.1), |_| {
                    Err("kaboom".to_string())
                }));
            cluster.shared_fs().stage("seed", Bytes::from_static(b"x"));
            pegasus
                .replicas()
                .register("seed", ReplicaLocation::SharedFs("seed".into()));
            let mut wf = AbstractWorkflow::new("boom");
            wf.add_job(AbstractJob {
                name: "only".into(),
                transformation: "explode".into(),
                inputs: vec!["seed".into()],
                outputs: vec!["never".into()],
                env: ExecEnv::Native,
            });
            let err = pegasus.run(&wf, &NativeFactory).await.unwrap_err();
            assert!(matches!(err, PegasusError::Execution(_)));
            assert!(err.to_string().contains("kaboom"));
        });
    }
}
