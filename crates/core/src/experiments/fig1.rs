//! Figure 1: Docker vs Knative for N sequential small tasks.
//!
//! Docker runs each task in a brand-new container (`docker run`); Knative
//! pays one cold start then reuses the same container. The paper reports
//! ≈ 100 s (Docker) vs ≈ 78 s (Knative) at 160 tasks and a regression-slope
//! reduction of "up to 30%".

use swf_cluster::{NodeId, Request};
use swf_container::{DockerCli, PullPolicy, Workload};
use swf_metrics::{fit, Line};
use swf_simcore::{now, secs};

use crate::builder::{input_pair, MatmulTask};
use crate::config::{ExperimentConfig, Provisioning};
use crate::error::ExperimentError;
use crate::function::TASK_LIMITS;
use crate::harness;

/// One measured row of Fig. 1.
#[derive(Clone, Copy, Debug)]
pub struct Fig1Row {
    /// Sequential task count.
    pub tasks: usize,
    /// Docker end-to-end time (s).
    pub docker_total: f64,
    /// Knative end-to-end time (s), including one cold start.
    pub knative_total: f64,
    /// Mean per-task execution time under Docker (lifecycle excluded).
    pub docker_exec: f64,
    /// Mean per-task execution time under Knative.
    pub knative_exec: f64,
}

/// Full Fig. 1 result.
#[derive(Clone, Debug)]
pub struct Fig1Result {
    /// Measured rows.
    pub rows: Vec<Fig1Row>,
    /// Regression over Docker totals.
    pub docker_fit: Line,
    /// Regression over Knative totals.
    pub knative_fit: Line,
    /// Slope reduction of Knative vs Docker (paper: up to 30%).
    pub slope_reduction: f64,
    /// Measured Knative cold start (paper: 1.48 s).
    pub cold_start: f64,
}

/// Run the Docker arm: N sequential `docker run` invocations on a worker.
fn docker_arm(config: &ExperimentConfig, n: usize) -> Result<(f64, f64), ExperimentError> {
    harness::run(config, async move |bed| {
        let config = &bed.config;
        let node = bed.cluster.worker_nodes()[0].clone();
        let runtime = bed
            .k8s
            .runtime(node.id())
            .cloned()
            .ok_or_else(|| ExperimentError::MissingRuntime(node.name().to_string()))?;
        // Image present before the measured loop (as in the paper's setup).
        runtime.ensure_image(&bed.image).await?;
        let cli = DockerCli::new(runtime);
        // Stage the two input matrices on the node's local disk.
        let (a, b) = input_pair(config, "fig1-inputs");
        node.fs().stage("in_a.mat", a);
        node.fs().stage("in_b.mat", b);
        let compute = config.compute.for_dim(config.matrix_dim);
        let task = MatmulTask::new();

        let t0 = now();
        let mut exec_time = 0.0;
        for i in 0..n {
            let fs = node.fs().clone();
            let out_name = format!("out_{i}.mat");
            let ea = fs.read("in_a.mat").await?;
            let eb = fs.read("in_b.mat").await?;
            let task = task.clone();
            let report = cli
                .run(
                    &bed.image,
                    TASK_LIMITS,
                    Workload::new(compute, move || task.multiply(ea, eb).map(Into::into)),
                    PullPolicy::IfNotPresent,
                )
                .await?;
            fs.write(out_name, report.exec.output.to_bytes()).await;
            exec_time += report.exec.busy.as_secs_f64();
        }
        Ok(((now() - t0).as_secs_f64(), exec_time / n as f64))
    })
    .0
}

/// Run the Knative arm: one deferred-start function, N sequential HTTP
/// invocations from the submit node. Returns (total, mean exec, cold start).
fn knative_arm(config: &ExperimentConfig, n: usize) -> Result<(f64, f64, f64), ExperimentError> {
    let mut config = config.clone();
    // The §III-B measurement defers provisioning so the first request pays
    // the cold start, but pre-caches the image on workers, and "the input
    // data was stored on the node": requests carry no payload, so no
    // pass-by-value serialization applies here.
    config.provisioning = Provisioning::Deferred;
    config.serialization_rate = 0.0;
    harness::run(&config, async move |bed| {
        let config = &bed.config;
        for node in bed.k8s.schedulable_nodes() {
            bed.registry.pull(node, &bed.image).await?;
        }
        // Register a function whose inputs live on the node (captured at
        // registration), exactly like the paper's Fig. 1 Knative setup.
        let (ea, eb) = input_pair(config, "fig1-inputs");
        let task = MatmulTask::new();
        let node_local = swf_pegasus::Transformation::new(
            "matmul",
            config.compute.for_dim(config.matrix_dim),
            move |_inputs| Ok(vec![task.multiply(ea.clone(), eb.clone())?]),
        );
        crate::function::FunctionBuilder::new("matmul", bed.image.clone(), &node_local)
            .container_concurrency(0)
            .provisioning(Provisioning::Deferred, 0)
            .register(&bed.knative);
        swf_simcore::sleep(secs(1.0)).await; // controllers settle

        let payload = crate::function::encode_payload(&[]);

        let compute = config.compute.for_dim(config.matrix_dim).as_secs_f64();
        let t0 = now();
        let mut cold_start = 0.0;
        for i in 0..n {
            let t_req = now();
            let resp = bed
                .knative
                .invoke(
                    NodeId(0),
                    "matmul",
                    Request::post("/invoke", payload.clone()),
                )
                .await?;
            if !resp.is_success() {
                return Err(ExperimentError::FailedResponse {
                    service: "matmul".into(),
                    status: resp.status,
                });
            }
            if i == 0 {
                cold_start = (now() - t_req).as_secs_f64() - compute;
            }
        }
        let total = (now() - t0).as_secs_f64();
        Ok((total, compute, cold_start))
    })
    .0
}

/// Run Fig. 1 over the given task counts.
pub fn run(config: &ExperimentConfig, counts: &[usize]) -> Result<Fig1Result, ExperimentError> {
    let mut rows = Vec::new();
    let mut cold_start = 0.0;
    for &n in counts {
        let (docker_total, docker_exec) = docker_arm(config, n)?;
        let (knative_total, knative_exec, cs) = knative_arm(config, n)?;
        cold_start = cs;
        rows.push(Fig1Row {
            tasks: n,
            docker_total,
            knative_total,
            docker_exec,
            knative_exec,
        });
    }
    let docker_fit = fit(&rows
        .iter()
        .map(|r| (r.tasks as f64, r.docker_total))
        .collect::<Vec<_>>());
    let knative_fit = fit(&rows
        .iter()
        .map(|r| (r.tasks as f64, r.knative_total))
        .collect::<Vec<_>>());
    Ok(Fig1Result {
        slope_reduction: knative_fit.slope_reduction_vs(&docker_fit),
        rows,
        docker_fit,
        knative_fit,
        cold_start,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knative_wins_at_scale_and_cold_start_matches_paper() {
        let mut config = ExperimentConfig::quick();
        config.matrix_dim = 8;
        let result = run(&config, &[5, 20, 40]).unwrap();
        assert_eq!(result.rows.len(), 3);
        // Fig. 1's shape: Docker wins at tiny counts (the one cold start
        // dominates), Knative wins once reuse amortizes it.
        let last = result.rows.last().unwrap();
        assert!(
            last.knative_total < last.docker_total,
            "at {} tasks: knative {:.2}s vs docker {:.2}s",
            last.tasks,
            last.knative_total,
            last.docker_total
        );
        // Slope reduction in the paper's "up to 30%" regime.
        assert!(result.slope_reduction > 0.1, "{}", result.slope_reduction);
        assert!(result.slope_reduction < 0.45, "{}", result.slope_reduction);
        // Cold start ≈ 1.48 s.
        assert!(
            (result.cold_start - 1.48).abs() < 0.25,
            "cold start {:.3}",
            result.cold_start
        );
        // Per-task execution times are similar across platforms (paper:
        // "these times remained similar between Knative and Docker").
        assert!((last.docker_exec - last.knative_exec).abs() < 0.05);
    }
}
