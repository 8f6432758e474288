//! Figure 2: scaling of k parallel tasks under native, Knative, and
//! traditional-container execution, all scheduled through HTCondor.
//!
//! The paper fits regression slopes of 0.28 (native), 0.30 (Knative) and
//! 0.96 (container) seconds per task — Knative tracks native because warm
//! containers are shared and scaled automatically, while the container path
//! pays per-job image staging.

use swf_condor::JobSpec;
use swf_metrics::{fit, Line};
use swf_pegasus::PlannedTask;
use swf_simcore::{now, secs, Sim};
use swf_workloads::ExecEnv;

use crate::config::{ExperimentConfig, Provisioning};
use crate::function::register_matmul;
use crate::testbed::TestBed;

use swf_pegasus::JobFactory;

/// Measured makespans for one task count.
#[derive(Clone, Copy, Debug)]
pub struct Fig2Row {
    /// Parallel task count.
    pub tasks: usize,
    /// Native makespan (s).
    pub native: f64,
    /// Knative makespan (s).
    pub knative: f64,
    /// Traditional-container makespan (s).
    pub container: f64,
}

/// Full Fig. 2 result.
#[derive(Clone, Debug)]
pub struct Fig2Result {
    /// Measured rows.
    pub rows: Vec<Fig2Row>,
    /// Native regression (paper slope 0.28).
    pub native_fit: Line,
    /// Knative regression (paper slope 0.30).
    pub knative_fit: Line,
    /// Container regression (paper slope 0.96).
    pub container_fit: Line,
}

/// Build one parallel matmul task: reads the two shared input matrices,
/// multiplies, writes a per-task output.
fn parallel_task(i: usize, env: ExecEnv, config: &ExperimentConfig) -> PlannedTask {
    let t = crate::builder::matmul_transformation(config);
    PlannedTask {
        name: format!("p{i}"),
        inputs: vec!["fig2_in_a.mat".into(), "fig2_in_b.mat".into()],
        outputs: vec![format!("fig2_out_{i}.mat")],
        compute: t.compute,
        logic: t.logic.clone(),
        container_image: t.container_image.clone(),
        env,
        clustered: 1,
        transformation: "matmul".into(),
    }
}

/// Run one arm: k parallel condor jobs in the given venue; returns the
/// makespan in seconds.
///
/// The Knative arm uses the paper's parallel setup: functions allow
/// multiple concurrent requests per container ("multiple tasks to be
/// co-located within the same container") and are pre-staged on every
/// worker, with the autoscaler free to add pods under load.
fn arm(config: &ExperimentConfig, env: ExecEnv, k: usize) -> f64 {
    let sim = Sim::new();
    let mut config = config.clone();
    if env == ExecEnv::Serverless {
        config.container_concurrency = 0;
        config.min_scale = config.cluster.nodes.saturating_sub(1).max(1) as u32;
    }
    sim.block_on(async move {
        let bed = TestBed::boot(&config);
        let (factory, _tarball) = bed.factory();
        register_matmul(&bed.knative, &config);
        if env == ExecEnv::Serverless && config.provisioning == Provisioning::PreStage {
            #[expect(
                clippy::expect_used,
                reason = "experiment harness: a failed boot or workflow leaves no figure to report"
            )]
            bed.knative
                .wait_ready("matmul", config.min_scale as usize, secs(3600.0))
                .await
                .expect("function ready");
        }
        // Stage the shared input matrices (real data) on the submit node.
        let mut rng = swf_simcore::DetRng::new(config.seed, "fig2-inputs");
        let a = swf_workloads::Matrix::random(
            config.matrix_dim,
            config.matrix_dim,
            &mut rng,
            -100,
            100,
        );
        let b = swf_workloads::Matrix::random(
            config.matrix_dim,
            config.matrix_dim,
            &mut rng,
            -100,
            100,
        );
        bed.cluster
            .shared_fs()
            .stage("fig2_in_a.mat", swf_workloads::encode(&a));
        bed.cluster
            .shared_fs()
            .stage("fig2_in_b.mat", swf_workloads::encode(&b));
        let t0 = now();
        let mut ids = Vec::with_capacity(k);
        for i in 0..k {
            let task = parallel_task(i, env, &config);
            let program = factory.build(&task);
            let mut input_files = task.inputs.clone();
            input_files.extend(factory.extra_inputs(&task));
            let spec = JobSpec::new(move |ctx| program(ctx)).with_inputs(input_files);
            ids.push(bed.condor.submit(spec));
        }
        for id in ids {
            #[expect(
                clippy::expect_used,
                reason = "experiment harness: a failed boot or workflow leaves no figure to report"
            )]
            let r = bed.condor.wait(id).await.expect("job completes");
            assert!(r.success, "{}", String::from_utf8_lossy(&r.output));
        }
        (now() - t0).as_secs_f64()
    })
}

/// Run Fig. 2 over the given parallel task counts.
pub fn run(config: &ExperimentConfig, counts: &[usize]) -> Fig2Result {
    let mut rows = Vec::new();
    for &k in counts {
        rows.push(Fig2Row {
            tasks: k,
            native: arm(config, ExecEnv::Native, k),
            knative: arm(config, ExecEnv::Serverless, k),
            container: arm(config, ExecEnv::Container, k),
        });
    }
    let series = |f: &dyn Fn(&Fig2Row) -> f64| {
        fit(&rows
            .iter()
            .map(|r| (r.tasks as f64, f(r)))
            .collect::<Vec<_>>())
    };
    Fig2Result {
        native_fit: series(&|r| r.native),
        knative_fit: series(&|r| r.knative),
        container_fit: series(&|r| r.container),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swf_cluster::NodeId;

    /// The determinism contract (DESIGN.md): a run is a pure function of
    /// config + seeds. Feeding the scheduler its node set in two different
    /// orders must therefore produce *byte-identical* makespans — this is
    /// the regression test for the HashMap-iteration class of bugs that
    /// the `disallowed-types` ban in the root `clippy.toml` guards against.
    #[test]
    fn makespan_is_invariant_to_node_insertion_order() {
        let mut config = ExperimentConfig::quick();
        config.matrix_dim = 8;
        config.min_scale = 2;
        let arm_with_order = |order: &[usize], env: ExecEnv| {
            let mut c = config.clone();
            c.k8s.schedulable_nodes = Some(order.iter().map(|&n| NodeId(n)).collect());
            arm(&c, env, 6)
        };
        for env in [ExecEnv::Serverless, ExecEnv::Container] {
            let forward = arm_with_order(&[1, 2, 3], env);
            let reverse = arm_with_order(&[3, 1, 2], env);
            assert_eq!(
                forward.to_bits(),
                reverse.to_bits(),
                "{env:?} makespan depends on node insertion order: {forward} vs {reverse}"
            );
        }
    }

    #[test]
    fn ordering_matches_paper_native_knative_container() {
        let mut config = ExperimentConfig::quick();
        config.matrix_dim = 8;
        config.min_scale = 2;
        let result = run(&config, &[4, 8, 16]);
        // Shape: container slope much steeper; knative close to native.
        assert!(
            result.container_fit.slope > 2.0 * result.native_fit.slope,
            "container {:.3} vs native {:.3}",
            result.container_fit.slope,
            result.native_fit.slope
        );
        let ratio = result.knative_fit.slope / result.native_fit.slope.max(1e-9);
        assert!(
            ratio < 1.8,
            "knative slope {:.3} should track native {:.3}",
            result.knative_fit.slope,
            result.native_fit.slope
        );
    }
}
