//! Figure 2: scaling of k parallel tasks under native, Knative, and
//! traditional-container execution, all scheduled through HTCondor.
//!
//! The paper fits regression slopes of 0.28 (native), 0.30 (Knative) and
//! 0.96 (container) seconds per task — Knative tracks native because warm
//! containers are shared and scaled automatically, while the container path
//! pays per-job image staging.

use swf_metrics::{fit, Line};
use swf_pegasus::{JobFactory, PlannedTask, Transformation};
use swf_simcore::now;
use swf_workloads::ExecEnv;

use crate::builder::{input_pair, matmul_transformation};
use crate::config::ExperimentConfig;
use crate::error::ExperimentError;
use crate::function::register_matmul;
use crate::harness::{self, matmul_ready};

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

/// Build one parallel task of `t`, the arm's matmul transformation:
/// reads the two shared input matrices, multiplies, writes a per-task
/// output.
fn parallel_task(i: usize, env: ExecEnv, t: &Transformation) -> PlannedTask {
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
fn arm(config: &ExperimentConfig, env: ExecEnv, k: usize) -> Result<f64, ExperimentError> {
    let mut config = config.clone();
    if env == ExecEnv::Serverless {
        config.container_concurrency = 0;
        config.min_scale = config.cluster.nodes.saturating_sub(1).max(1) as u32;
    }
    harness::run(&config, async move |bed| {
        let config = &bed.config;
        let (factory, _tarball) = bed.factory();
        register_matmul(&bed.knative, config);
        if env == ExecEnv::Serverless {
            matmul_ready(bed).await?;
        }
        // Stage the shared input matrices (real data) on the submit node.
        let (a, b) = input_pair(config, "fig2-inputs");
        let fs = bed.cluster.shared_fs();
        fs.stage("fig2_in_a.mat", a);
        fs.stage("fig2_in_b.mat", b);
        let matmul = matmul_transformation(config);
        let t0 = now();
        let mut ids = Vec::with_capacity(k);
        for i in 0..k {
            let task = parallel_task(i, env, &matmul);
            ids.push(bed.condor.submit(factory.build(&task)));
        }
        for id in ids {
            let failed = |why: String| ExperimentError::WorkflowFailed(format!("job {id}: {why}"));
            let r = bed
                .condor
                .wait(id)
                .await
                .map_err(|e| failed(e.to_string()))?;
            if !r.success {
                return Err(failed(String::from_utf8_lossy(&r.output).into_owned()));
            }
        }
        Ok((now() - t0).as_secs_f64())
    })
    .0
}

/// Run Fig. 2 over the given parallel task counts.
///
/// # Panics
///
/// If an arm fails (its function never becomes ready, or a job fails):
/// the figure has no value without every arm, and the calm testbed it runs
/// on produces neither.
pub fn run(config: &ExperimentConfig, counts: &[usize]) -> Fig2Result {
    let rows: Result<Vec<Fig2Row>, ExperimentError> = counts
        .iter()
        .map(|&k| {
            Ok(Fig2Row {
                tasks: k,
                native: arm(config, ExecEnv::Native, k)?,
                knative: arm(config, ExecEnv::Serverless, k)?,
                container: arm(config, ExecEnv::Container, k)?,
            })
        })
        .collect();
    #[expect(
        clippy::expect_used,
        reason = "the documented `# Panics` above; the signature stays infallible for its callers"
    )]
    let rows = rows.expect("every fig2 arm completes");
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
