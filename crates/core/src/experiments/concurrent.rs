//! The concurrent-workflow engine behind Figures 5 and 6.
//!
//! Runs `count` sequential workflows (Fig. 3 chains) concurrently through
//! the full stack — Pegasus planning, DAGMan, HTCondor matchmaking, and the
//! three execution venues — and reports the paper's §V-D metric: the
//! execution time of the slowest workflow, averaged over repetitions.

use std::rc::Rc;

use swf_pegasus::{Pegasus, ReplicaLocation};
use swf_simcore::{secs, Sim};
use swf_workloads::{concurrent_workflows, EnvMix};

use crate::builder::{matmul_transformation, stage_chain_workflow};
use crate::config::{ExperimentConfig, Provisioning};
use crate::function::register_matmul;
use crate::testbed::TestBed;

/// Result of one concurrent-workflow run.
#[derive(Clone, Debug)]
pub struct ConcurrentOutcome {
    /// Per-workflow makespans in seconds (workflow index order).
    pub workflow_makespans: Vec<f64>,
    /// Makespan of the slowest workflow (the paper's metric).
    pub slowest: f64,
    /// Mean workflow makespan.
    pub mean: f64,
    /// Total tasks executed.
    pub tasks: usize,
    /// Span collector for this run — enabled (and populated) only when
    /// `config.trace` is set; a disabled handle otherwise.
    pub obs: swf_obs::Obs,
}

/// Parameters of a concurrent run.
#[derive(Clone, Copy, Debug)]
pub struct ConcurrentParams {
    /// Number of concurrent workflows (paper: 10).
    pub workflows: usize,
    /// Tasks per workflow (paper: 10).
    pub tasks_per_workflow: usize,
    /// Environment mix.
    pub mix: EnvMix,
    /// Planner options (clustering / retries — §IX-C ablations).
    pub plan: swf_pegasus::PlanOptions,
}

impl Default for ConcurrentParams {
    fn default() -> Self {
        ConcurrentParams {
            workflows: 10,
            tasks_per_workflow: 10,
            mix: EnvMix::ALL_NATIVE,
            plan: swf_pegasus::PlanOptions::default(),
        }
    }
}

impl ConcurrentParams {
    /// The paper's 10×10 experiment at a given mix.
    pub fn paper(mix: EnvMix) -> Self {
        ConcurrentParams {
            mix,
            ..ConcurrentParams::default()
        }
    }
}

/// Run one repetition in a fresh simulation; `rep` perturbs the RNG streams
/// (the paper redraws the random environment assignment per instance).
pub fn run_once(
    config: &ExperimentConfig,
    params: ConcurrentParams,
    rep: u64,
) -> ConcurrentOutcome {
    let sim = Sim::new();
    let config = config.clone();
    let obs = if config.trace {
        swf_obs::Obs::enabled()
    } else {
        swf_obs::Obs::disabled()
    };
    let obs2 = obs.clone();
    sim.block_on(async move {
        let obs = obs2;
        let _obs_guard = swf_obs::install(obs.clone());
        let bed = TestBed::boot(&config);
        let (factory, tarball) = bed.factory();
        let factory = Rc::new(factory);
        register_matmul(&bed.knative, &config);
        if config.provisioning == Provisioning::PreStage {
            #[expect(
                clippy::expect_used,
                reason = "experiment harness: a failed boot or workflow leaves no figure to report"
            )]
            bed.knative
                .wait_ready("matmul", config.min_scale as usize, secs(3600.0))
                .await
                .expect("function pods ready");
        }
        let pegasus = Rc::new(
            Pegasus::new(bed.condor.clone())
                .with_dagman(config.dagman)
                .with_plan_options(params.plan),
        );
        pegasus
            .transformations()
            .register(matmul_transformation(&config));
        pegasus
            .replicas()
            .register(&tarball, ReplicaLocation::SharedFs(tarball.clone()));

        let chains = concurrent_workflows(
            params.workflows,
            params.tasks_per_workflow,
            params.mix,
            config.seed ^ (rep.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        let mut phase_rng =
            swf_simcore::DetRng::new(config.seed ^ rep.wrapping_mul(31), "dagman-phase");
        let poll = config.dagman.poll_interval.as_secs_f64();
        let mut handles = Vec::new();
        for chain in &chains {
            let wf = stage_chain_workflow(&bed.cluster, pegasus.replicas(), chain, &config);
            let pegasus = Rc::clone(&pegasus);
            let factory = Rc::clone(&factory);
            // Each DAGMan instance starts at its own phase within the poll
            // interval (real workflows are submitted at slightly different
            // moments); this desynchronizes the concurrent chains.
            let phase = swf_simcore::SimDuration::from_secs_f64(phase_rng.uniform(0.0, poll));
            handles.push(swf_simcore::spawn(async move {
                swf_simcore::sleep(phase).await;
                #[expect(
                    clippy::expect_used,
                    reason = "experiment harness: a failed boot or workflow leaves no figure to report"
                )]
                let (stats, _report) = pegasus
                    .run(&wf, factory.as_ref())
                    .await
                    .expect("workflow completes");
                stats.makespan.as_secs_f64()
            }));
        }
        let workflow_makespans = swf_simcore::join_all(handles).await;
        let slowest = workflow_makespans.iter().copied().fold(0.0, f64::max);
        let mean = workflow_makespans.iter().sum::<f64>() / workflow_makespans.len().max(1) as f64;
        ConcurrentOutcome {
            slowest,
            mean,
            tasks: params.workflows * params.tasks_per_workflow,
            workflow_makespans,
            obs,
        }
    })
}

/// Average the slowest-workflow makespan over `repeats` repetitions.
pub fn average_slowest(
    config: &ExperimentConfig,
    params: ConcurrentParams,
    repeats: u64,
) -> (f64, Vec<ConcurrentOutcome>) {
    let outcomes: Vec<ConcurrentOutcome> = (0..repeats)
        .map(|rep| run_once(config, params, rep))
        .collect();
    let avg = outcomes.iter().map(|o| o.slowest).sum::<f64>() / repeats.max(1) as f64;
    (avg, outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(mix: EnvMix) -> ConcurrentOutcome {
        let config = ExperimentConfig::quick();
        run_once(
            &config,
            ConcurrentParams {
                workflows: 3,
                tasks_per_workflow: 3,
                mix,
                ..ConcurrentParams::default()
            },
            0,
        )
    }

    #[test]
    fn all_native_runs_and_reports() {
        let o = tiny(EnvMix::ALL_NATIVE);
        assert_eq!(o.workflow_makespans.len(), 3);
        assert_eq!(o.tasks, 9);
        assert!(o.slowest >= o.mean);
        assert!(o.slowest > 0.0);
    }

    #[test]
    fn all_serverless_runs() {
        let o = tiny(EnvMix::ALL_SERVERLESS);
        assert!(o.slowest > 0.0);
    }

    #[test]
    fn all_container_is_slower_than_native() {
        let native = tiny(EnvMix::ALL_NATIVE);
        let container = tiny(EnvMix::ALL_CONTAINER);
        assert!(
            container.slowest > native.slowest,
            "container {:.1}s vs native {:.1}s",
            container.slowest,
            native.slowest
        );
    }

    #[test]
    fn repetitions_average() {
        let config = ExperimentConfig::quick();
        let (avg, outcomes) = average_slowest(
            &config,
            ConcurrentParams {
                workflows: 2,
                tasks_per_workflow: 2,
                mix: EnvMix::ALL_NATIVE,
                ..ConcurrentParams::default()
            },
            2,
        );
        assert_eq!(outcomes.len(), 2);
        assert!(avg > 0.0);
    }

    #[test]
    fn identical_reps_are_deterministic() {
        let config = ExperimentConfig::quick();
        let p = ConcurrentParams {
            workflows: 2,
            tasks_per_workflow: 2,
            mix: EnvMix::HALF_SERVERLESS,
            ..ConcurrentParams::default()
        };
        let a = run_once(&config, p, 7);
        let b = run_once(&config, p, 7);
        assert_eq!(a.workflow_makespans, b.workflow_makespans);
    }
}
