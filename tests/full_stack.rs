//! Cross-crate integration tests: the whole stack — Pegasus planning,
//! DAGMan, HTCondor matchmaking, Kubernetes, Knative, container runtime —
//! executing real matrix workflows end to end.

use std::rc::Rc;

use swf_core::{
    matmul_transformation, register_matmul, stage_chain_workflow, ContainerStaging,
    ExperimentConfig, Provisioning, TestBed,
};
use swf_pegasus::{Pegasus, PlanOptions, ReplicaLocation};
use swf_simcore::{secs, Sim};
use swf_workloads::{chain_workflow, decode, matmul, ChainWorkflow, EnvMix, Kernel, Matrix};

/// Run one chain workflow through the integrated stack; returns
/// (makespan seconds, final product, expected product).
fn run_chain(
    config: &ExperimentConfig,
    mix: EnvMix,
    length: usize,
    plan_options: PlanOptions,
) -> (f64, Matrix, Matrix) {
    let sim = Sim::new();
    let config = config.clone();
    sim.block_on(async move {
        let bed = TestBed::boot(&config);
        let (factory, tarball) = bed.factory();
        register_matmul(&bed.knative, &config);
        if config.provisioning == Provisioning::PreStage {
            bed.knative
                .wait_ready("matmul", config.min_scale as usize, secs(3600.0))
                .await
                .unwrap();
        }
        let pegasus = Rc::new(
            Pegasus::new(bed.condor.clone())
                .with_dagman(config.dagman)
                .with_plan_options(plan_options),
        );
        pegasus
            .transformations()
            .register(matmul_transformation(&config));
        pegasus
            .replicas()
            .register(&tarball, ReplicaLocation::SharedFs(tarball.clone()));
        let mut rng = swf_simcore::DetRng::new(99, "itest");
        let chain: ChainWorkflow = chain_workflow(0, length, mix, &mut rng);
        let wf = stage_chain_workflow(&bed.cluster, pegasus.replicas(), &chain, &config);
        let (stats, _report) = pegasus.run(&wf, &factory).await.unwrap();

        // Recompute the expected final product from the staged seeds.
        let mut expected = decode(
            bed.cluster
                .shared_fs()
                .read(&chain.tasks[0].input_a)
                .await
                .unwrap(),
        )
        .unwrap();
        for t in &chain.tasks {
            let b = decode(bed.cluster.shared_fs().read(&t.input_b).await.unwrap()).unwrap();
            expected = matmul(&expected, &b, Kernel::Blocked);
        }
        let got = decode(
            bed.cluster
                .shared_fs()
                .read(&chain.tasks.last().unwrap().output)
                .await
                .unwrap(),
        )
        .unwrap();
        (stats.makespan.as_secs_f64(), got, expected)
    })
}

#[test]
fn mixed_venues_compute_identical_results() {
    let config = ExperimentConfig::quick();
    let (_m, got, expected) = run_chain(
        &config,
        EnvMix {
            serverless: 0.4,
            container: 0.3,
        },
        5,
        PlanOptions::default(),
    );
    assert_eq!(got, expected);
}

#[test]
fn task_clustering_preserves_results_and_reduces_jobs() {
    let config = ExperimentConfig::quick();
    // Clustered: 6 tasks → 2 jobs of 3 (paper §IX-C task resizing).
    let (clustered_makespan, got, expected) = run_chain(
        &config,
        EnvMix::ALL_NATIVE,
        6,
        PlanOptions {
            cluster_level: 3,
            retries: 0,
        },
    );
    assert_eq!(got, expected);
    let (unclustered_makespan, got2, expected2) =
        run_chain(&config, EnvMix::ALL_NATIVE, 6, PlanOptions::default());
    assert_eq!(got2, expected2);
    // Fewer scheduling rounds → faster workflow.
    assert!(
        clustered_makespan < unclustered_makespan,
        "clustered {clustered_makespan:.1}s vs unclustered {unclustered_makespan:.1}s"
    );
}

#[test]
fn deferred_provisioning_pays_cold_start_but_completes() {
    let mut config = ExperimentConfig::quick();
    config.provisioning = Provisioning::Deferred;
    let (makespan, got, expected) =
        run_chain(&config, EnvMix::ALL_SERVERLESS, 3, PlanOptions::default());
    assert_eq!(got, expected);
    assert!(makespan > 0.0);
}

#[test]
fn cached_image_staging_beats_per_job_staging() {
    let mut per_job = ExperimentConfig::quick();
    per_job.container_staging = ContainerStaging::PerJob;
    let (m_per_job, got1, exp1) =
        run_chain(&per_job, EnvMix::ALL_CONTAINER, 4, PlanOptions::default());
    assert_eq!(got1, exp1);

    let mut cached = ExperimentConfig::quick();
    cached.container_staging = ContainerStaging::PullIfMissing;
    let (m_cached, got2, exp2) =
        run_chain(&cached, EnvMix::ALL_CONTAINER, 4, PlanOptions::default());
    assert_eq!(got2, exp2);

    assert!(
        m_cached < m_per_job,
        "cached {m_cached:.1}s vs per-job {m_per_job:.1}s"
    );
}

#[test]
fn whole_figure_pipeline_is_deterministic() {
    let config = ExperimentConfig::quick();
    let a = run_chain(&config, EnvMix::HALF_SERVERLESS, 4, PlanOptions::default());
    let b = run_chain(&config, EnvMix::HALF_SERVERLESS, 4, PlanOptions::default());
    assert_eq!(a.0, b.0, "same seed, same makespan");
    assert_eq!(a.1, b.1);
}
