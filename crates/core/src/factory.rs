//! The integrated execution-venue factory (§IV-2..4 of the paper).
//!
//! Dispatches each planned task to its venue:
//!
//! - **Native** — read sandbox inputs, compute, write outputs (Setup 1).
//! - **Container** — fresh `docker run` per task on the matched worker;
//!   with [`ContainerStaging::PerJob`] the image tarball rides HTCondor's
//!   file transfer with every job, exactly like Pegasus' container support
//!   (Setup 2).
//! - **Serverless** — the *wrapper task*: an HTCondor job that reads the
//!   staged inputs, embeds them pass-by-value in an HTTP request, invokes
//!   the pre-registered Knative function synchronously, and writes the
//!   response to the sandbox for stage-out (Setup 3). The wrapper holds its
//!   Condor slot for the whole round trip — the paper's "critical path of
//!   execution now has been extended".

use std::rc::Rc;

use bytes::Bytes;

use swf_cluster::Request;
use swf_container::{ContainerError, DockerCli, ImageRef, PullPolicy, ResourceLimits, Workload};
use swf_k8s::K8s;
use swf_knative::Knative;
use swf_pegasus::{run_native, JobFactory, PlannedTask};
use swf_workloads::ExecEnv;

use swf_condor::{JobContext, JobFn};

use crate::config::ContainerStaging;
use crate::function::{decode_outputs, encode_payload};

/// The paper's integrated factory.
pub struct IntegratedFactory {
    knative: Knative,
    k8s: K8s,
    image: ImageRef,
    staging: ContainerStaging,
    /// Shared-fs path of the image tarball (staged by the testbed) used
    /// when `staging == PerJob`.
    image_tarball: Option<String>,
    /// Pass-by-value serialization throughput (bytes/s) charged on the
    /// wrapper side of each invocation; 0 disables.
    serialization_rate: f64,
}

impl IntegratedFactory {
    /// Build the factory.
    pub fn new(
        knative: Knative,
        k8s: K8s,
        image: ImageRef,
        staging: ContainerStaging,
        image_tarball: Option<String>,
    ) -> Self {
        if staging == ContainerStaging::PerJob {
            assert!(
                image_tarball.is_some(),
                "PerJob staging requires a staged image tarball"
            );
        }
        IntegratedFactory {
            knative,
            k8s,
            image,
            staging,
            image_tarball,
            serialization_rate: 0.0,
        }
    }

    /// Set the wrapper-side serialization throughput (builder style).
    pub fn with_serialization_rate(mut self, rate: f64) -> Self {
        self.serialization_rate = rate;
        self
    }

    fn serverless_job(&self, task: &PlannedTask) -> JobFn {
        let knative = self.knative.clone();
        let service = task.transformation.clone();
        let task = task.clone();
        let ser_rate = self.serialization_rate;
        Rc::new(move |ctx: JobContext| {
            let knative = knative.clone();
            let service = service.clone();
            let task = task.clone();
            Box::pin(async move {
                // Gather staged inputs from the sandbox (they were moved
                // submit node → this worker by Condor; the invocation now
                // moves them again worker → function pod: the paper's
                // redundant data movement).
                let mut inputs = Vec::with_capacity(task.inputs.len());
                for f in &task.inputs {
                    let data = ctx
                        .node
                        .fs()
                        .read(&ctx.sandbox_path(f))
                        .await
                        .map_err(|e| e.to_string())?;
                    inputs.push(data);
                }
                let obs = swf_obs::current();
                let wrapper = format!("{}/wrapper", ctx.node.name());
                let payload = encode_payload(&inputs);
                // Client-side serialization of the pass-by-value request
                // (the paper's Python wrapper JSON-encodes the matrices).
                if ser_rate > 0.0 {
                    let ser = obs.span(
                        ctx.span,
                        &wrapper,
                        "serialize:request",
                        swf_obs::Category::Serialize,
                    );
                    swf_simcore::sleep(swf_simcore::SimDuration::from_secs_f64(
                        payload.len() as f64 / ser_rate,
                    ))
                    .await;
                    drop(ser);
                }
                let mut request = Request::post("/invoke", payload);
                if !ctx.span.is_none() {
                    request = request.with_header(swf_obs::TRACE_HEADER, ctx.span.to_header());
                }
                let response = knative
                    .invoke(ctx.node_id(), &service, request)
                    .await
                    .map_err(|e| e.to_string())?;
                // Client-side deserialization of the response.
                if ser_rate > 0.0 {
                    let ser = obs.span(
                        ctx.span,
                        &wrapper,
                        "serialize:response",
                        swf_obs::Category::Serialize,
                    );
                    swf_simcore::sleep(swf_simcore::SimDuration::from_secs_f64(
                        response.body.len() as f64 / ser_rate,
                    ))
                    .await;
                    drop(ser);
                }
                let outputs = decode_outputs(response.body)?;
                if outputs.len() != task.outputs.len() {
                    return Err(format!(
                        "function returned {} outputs, expected {}",
                        outputs.len(),
                        task.outputs.len()
                    ));
                }
                for (name, data) in task.outputs.iter().zip(outputs) {
                    ctx.node.fs().write(ctx.sandbox_path(name), data).await;
                }
                Ok(Bytes::new())
            })
        })
    }

    fn container_job(&self, task: &PlannedTask) -> JobFn {
        let k8s = self.k8s.clone();
        let image = self.image.clone();
        let staging = self.staging;
        let tarball = self.image_tarball.clone();
        let task = task.clone();
        Rc::new(move |ctx: JobContext| {
            let k8s = k8s.clone();
            let image = image.clone();
            let tarball = tarball.clone();
            let task = task.clone();
            Box::pin(async move {
                let runtime = k8s
                    .runtime(ctx.node_id())
                    .cloned()
                    .ok_or_else(|| format!("no container runtime on {}", ctx.node_id()))?;
                let obs = swf_obs::current();
                match staging {
                    ContainerStaging::PerJob => {
                        // The tarball arrived via Condor file transfer; a
                        // `docker load` reads it off the local disk and
                        // registers the layers.
                        let load = obs.span(
                            ctx.span,
                            &format!("{}/docker", ctx.node.name()),
                            "docker-load",
                            swf_obs::Category::Pull,
                        );
                        let tar = tarball
                            .as_deref()
                            .ok_or_else(|| "image tarball was not staged".to_string())?;
                        ctx.node
                            .fs()
                            .read(&ctx.sandbox_path(tar))
                            .await
                            .map_err(|e| format!("image tarball: {e}"))?;
                        runtime
                            .registry()
                            .mark_cached(ctx.node_id(), &image)
                            .map_err(|e| e.to_string())?;
                        drop(load);
                    }
                    ContainerStaging::PullIfMissing => {
                        let pull = obs.span(
                            ctx.span,
                            &format!("{}/docker", ctx.node.name()),
                            "ensure-image",
                            swf_obs::Category::Pull,
                        );
                        runtime
                            .ensure_image(&image)
                            .await
                            .map_err(|e| e.to_string())?;
                        drop(pull);
                    }
                }
                // Read inputs, then run the task inside a fresh container.
                let mut inputs = Vec::with_capacity(task.inputs.len());
                for f in &task.inputs {
                    let data = ctx
                        .node
                        .fs()
                        .read(&ctx.sandbox_path(f))
                        .await
                        .map_err(|e| e.to_string())?;
                    inputs.push(data);
                }
                let logic = task.logic.clone();
                let workload = Workload::new(task.compute, move || {
                    let outs = logic(inputs)?;
                    Ok(crate::function::encode_outputs(&outs))
                });
                let cli = DockerCli::new(runtime);
                let report = cli
                    .run_with_span(
                        ctx.span,
                        &image,
                        ResourceLimits::one_core(512),
                        workload,
                        PullPolicy::Never,
                    )
                    .await
                    .map_err(|e: ContainerError| e.to_string())?;
                let outputs = decode_outputs(report.exec.output)?;
                if outputs.len() != task.outputs.len() {
                    return Err(format!(
                        "container task returned {} outputs, expected {}",
                        outputs.len(),
                        task.outputs.len()
                    ));
                }
                for (name, data) in task.outputs.iter().zip(outputs) {
                    ctx.node.fs().write(ctx.sandbox_path(name), data).await;
                }
                Ok(Bytes::new())
            })
        })
    }
}

impl JobFactory for IntegratedFactory {
    fn build(&self, task: &PlannedTask) -> JobFn {
        match task.env {
            ExecEnv::Native => {
                let task = task.clone();
                Rc::new(move |ctx: JobContext| {
                    let task = task.clone();
                    Box::pin(async move { run_native(&task, &ctx).await })
                })
            }
            ExecEnv::Serverless => self.serverless_job(task),
            ExecEnv::Container => self.container_job(task),
        }
    }

    fn extra_inputs(&self, task: &PlannedTask) -> Vec<String> {
        if task.env == ExecEnv::Container && self.staging == ContainerStaging::PerJob {
            // A missing tarball surfaces later as a typed MissingInput error
            // on the job rather than a panic here.
            self.image_tarball.clone().into_iter().collect()
        } else {
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::ExperimentConfig;
    use crate::harness::{self, matmul_pegasus};
    use swf_pegasus::{NativeFactory, Pegasus, PlanOptions};
    use swf_workloads::{chain_workflow, decode, EnvMix};

    /// Run a 3-task chain in the given mix end to end; return final matrix.
    fn run_mix(mix: EnvMix) -> (swf_workloads::Matrix, swf_workloads::Matrix) {
        let config = ExperimentConfig::quick();
        harness::run(&config, async move |bed| {
            let config = &bed.config;
            let (pegasus, factory) = matmul_pegasus(bed, PlanOptions::default()).await.unwrap();
            let mut rng = swf_simcore::DetRng::new(config.seed, "mix");
            let chain = chain_workflow(0, 3, mix, &mut rng);
            let wf = crate::builder::stage_chain_workflow(
                &bed.cluster,
                pegasus.replicas(),
                &chain,
                config,
            );
            let (_stats, _report) = pegasus.run(&wf, &factory).await.unwrap();
            // Reference result via pure native execution on a fresh bed is
            // overkill; recompute expected product directly instead.
            let out = bed
                .cluster
                .shared_fs()
                .read(&chain.tasks.last().unwrap().output)
                .await
                .unwrap();
            let got = decode(out).unwrap();
            // Recompute expected from the staged seeds.
            let mut acc = decode(
                bed.cluster
                    .shared_fs()
                    .read(&chain.tasks[0].input_a)
                    .await
                    .unwrap(),
            )
            .unwrap();
            for t in &chain.tasks {
                let b = decode(bed.cluster.shared_fs().read(&t.input_b).await.unwrap()).unwrap();
                acc = swf_workloads::matmul(&acc, &b, swf_workloads::Kernel::Blocked);
            }
            (got, acc)
        })
        .0
    }

    #[test]
    fn all_native_chain_produces_correct_product() {
        let (got, expected) = run_mix(EnvMix::ALL_NATIVE);
        assert_eq!(got, expected);
    }

    #[test]
    fn all_serverless_chain_produces_correct_product() {
        let (got, expected) = run_mix(EnvMix::ALL_SERVERLESS);
        assert_eq!(got, expected);
    }

    #[test]
    fn all_container_chain_produces_correct_product() {
        let (got, expected) = run_mix(EnvMix::ALL_CONTAINER);
        assert_eq!(got, expected);
    }

    #[test]
    fn mixed_chain_produces_correct_product() {
        let (got, expected) = run_mix(EnvMix {
            serverless: 0.34,
            container: 0.33,
        });
        assert_eq!(got, expected);
    }

    #[test]
    fn native_factory_matches_integrated_native() {
        // Sanity: the pegasus-native factory and the integrated factory's
        // native arm run the same path.
        harness::run(&ExperimentConfig::quick(), async |bed| {
            let config = &bed.config;
            let pegasus = Pegasus::new(bed.condor.clone()).with_dagman(config.dagman);
            pegasus
                .transformations()
                .register(crate::builder::matmul_transformation(config));
            let mut rng = swf_simcore::DetRng::new(9, "nf");
            let chain = chain_workflow(1, 2, EnvMix::ALL_NATIVE, &mut rng);
            let wf = crate::builder::stage_chain_workflow(
                &bed.cluster,
                pegasus.replicas(),
                &chain,
                config,
            );
            let (stats, _) = pegasus.run(&wf, &NativeFactory).await.unwrap();
            assert_eq!(stats.tasks, 2);
        });
    }
}
