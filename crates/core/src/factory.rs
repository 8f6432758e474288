//! The integrated execution-venue factory (§IV-2..4 of the paper).
//!
//! Every venue runs a task through the same sandbox path
//! ([`swf_pegasus::run_in_sandbox`]: read the staged inputs, execute, check
//! the output count, write the outputs for stage-out); the venues differ
//! only in the execute step and what comes before it:
//!
//! - **Native** — compute on the claimed core (Setup 1).
//! - **Container** — fresh `docker run` per task on the matched worker;
//!   with [`ContainerStaging::PerJob`] the image tarball rides HTCondor's
//!   file transfer with every job and is `docker load`ed before the inputs
//!   are read, exactly like Pegasus' container support (Setup 2).
//! - **Serverless** — the *wrapper task*: an HTCondor job that embeds the
//!   staged inputs pass-by-value in an HTTP request and invokes the
//!   pre-registered Knative function synchronously
//!   ([`IntegratedFactory::invoke`]). The wrapper holds its Condor slot for
//!   the whole round trip — the paper's "critical path of execution now has
//!   been extended".

use std::rc::Rc;

use bytes::Bytes;

use swf_cluster::{Node, Request};
use swf_condor::{JobContext, JobSpec, LocalBoxFuture};
use swf_container::{DockerCli, ImageRef, PullPolicy, Workload};
use swf_k8s::K8s;
use swf_knative::Knative;
use swf_obs::{Category, SpanContext};
use swf_pegasus::{run_in_sandbox, run_native, JobFactory, PlannedTask};
use swf_simcore::SimDuration;
use swf_workloads::ExecEnv;

use crate::config::ContainerStaging;
use crate::function::{decode_payload, encode_payload, TASK_LIMITS};

/// The paper's integrated factory. Every job program holds a clone, so
/// clones share one set of venue handles.
#[derive(Clone)]
pub struct IntegratedFactory {
    venues: Rc<Venues>,
}

/// The handles and settings the venues run on.
#[derive(Clone)]
struct Venues {
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

/// A venue's job program, over the factory and the task it runs.
type Venue =
    fn(Rc<(IntegratedFactory, PlannedTask)>, JobContext) -> LocalBoxFuture<Result<Bytes, String>>;

impl IntegratedFactory {
    /// Build the factory. Under [`ContainerStaging::PerJob`] without an
    /// `image_tarball`, container jobs fail with a typed job error.
    pub fn new(
        knative: Knative,
        k8s: K8s,
        image: ImageRef,
        staging: ContainerStaging,
        image_tarball: Option<String>,
    ) -> Self {
        let venues = Venues {
            knative,
            k8s,
            image,
            staging,
            image_tarball,
            serialization_rate: 0.0,
        };
        IntegratedFactory {
            venues: Rc::new(venues),
        }
    }

    /// Set the wrapper-side serialization throughput (builder style).
    pub fn with_serialization_rate(mut self, rate: f64) -> Self {
        Rc::make_mut(&mut self.venues).serialization_rate = rate;
        self
    }

    /// The serverless venue's execute step, which needs no Condor job:
    /// encode `inputs` pass-by-value into one request, invoke `service`
    /// from `from`, and decode the outputs from the response. The inputs
    /// already crossed the network once to reach `from`; the request moves
    /// them again to the function pod — the paper's redundant data
    /// movement. Client-side serialization is charged under `parent`.
    pub async fn invoke(
        &self,
        from: &Node,
        parent: SpanContext,
        service: &str,
        inputs: &[Bytes],
    ) -> Result<Vec<Bytes>, String> {
        let wrapper = format!("{}/wrapper", from.name());
        let payload = encode_payload(inputs);
        self.serialize(parent, &wrapper, "serialize:request", payload.len())
            .await;
        let mut request = Request::post("/invoke", payload);
        if !parent.is_none() {
            request = request.with_header(swf_obs::TRACE_HEADER, parent.to_header());
        }
        let response = self
            .venues
            .knative
            .invoke(from.id(), service, request)
            .await
            .map_err(|e| e.to_string())?;
        self.serialize(parent, &wrapper, "serialize:response", response.body.len())
            .await;
        decode_payload(response.body)
    }

    /// Charge the wrapper's (de)serialization of `bytes` as a span (the
    /// paper's Python wrapper JSON-encodes the matrices).
    async fn serialize(&self, parent: SpanContext, wrapper: &str, name: &str, bytes: usize) {
        let rate = self.venues.serialization_rate;
        if rate > 0.0 {
            let _span = swf_obs::current().span(parent, wrapper, name, Category::Serialize);
            swf_simcore::sleep(SimDuration::from_secs_f64(bytes as f64 / rate)).await;
        }
    }

    /// The container venue: make the image present on the worker, then run
    /// the task in a fresh container. The image step reads the worker's
    /// disk too, so it comes before the task's inputs are read.
    async fn run_container(&self, task: &PlannedTask, ctx: &JobContext) -> Result<Bytes, String> {
        let venues = &*self.venues;
        let runtime = venues
            .k8s
            .runtime(ctx.node_id())
            .cloned()
            .ok_or_else(|| format!("no container runtime on {}", ctx.node_id()))?;
        let docker = format!("{}/docker", ctx.node.name());
        let obs = swf_obs::current();
        match venues.staging {
            ContainerStaging::PerJob => {
                // The tarball arrived via Condor file transfer; a `docker
                // load` reads it off the local disk and registers the layers.
                let _load = obs.span(ctx.span, &docker, "docker-load", Category::Pull);
                let tar = venues
                    .image_tarball
                    .as_deref()
                    .ok_or("image tarball was not staged")?;
                ctx.node
                    .fs()
                    .read(&ctx.sandbox_path(tar))
                    .await
                    .map_err(|e| format!("image tarball: {e}"))?;
                runtime
                    .registry()
                    .mark_cached(ctx.node_id(), &venues.image)
                    .map_err(|e| e.to_string())?;
            }
            ContainerStaging::PullIfMissing => {
                let _pull = obs.span(ctx.span, &docker, "ensure-image", Category::Pull);
                runtime
                    .ensure_image(&venues.image)
                    .await
                    .map_err(|e| e.to_string())?;
            }
        }
        run_in_sandbox(task, ctx, async |inputs| {
            let logic = Rc::clone(&task.logic);
            let workload = Workload::new(task.compute, move || Ok(encode_payload(&logic(inputs)?)));
            let report = DockerCli::new(runtime)
                .run_with_span(
                    ctx.span,
                    &venues.image,
                    TASK_LIMITS,
                    workload,
                    PullPolicy::Never,
                )
                .await
                .map_err(|e| e.to_string())?;
            decode_payload(report.exec.output)
        })
        .await
    }
}

impl JobFactory for IntegratedFactory {
    fn build(&self, task: &PlannedTask) -> JobSpec {
        let mut inputs = task.inputs.clone();
        let venue: Venue = match task.env {
            ExecEnv::Native => |job, ctx| Box::pin(async move { run_native(&job.1, &ctx).await }),
            ExecEnv::Container => {
                if self.venues.staging == ContainerStaging::PerJob {
                    inputs.extend(self.venues.image_tarball.clone());
                }
                |job, ctx| Box::pin(async move { job.0.run_container(&job.1, &ctx).await })
            }
            ExecEnv::Serverless => |job, ctx| {
                Box::pin(async move {
                    let (factory, task) = &*job;
                    run_in_sandbox(task, &ctx, async |inputs| {
                        let service = &task.transformation;
                        factory.invoke(&ctx.node, ctx.span, service, &inputs).await
                    })
                    .await
                })
            },
        };
        let job = Rc::new((self.clone(), task.clone()));
        JobSpec::new(move |ctx| venue(Rc::clone(&job), ctx)).with_inputs(inputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;
    use crate::function::register_matmul;
    use crate::harness::{self, matmul_pegasus, matmul_ready};
    use crate::testbed::TestBed;
    use swf_condor::{JobId, JobResult};
    use swf_obs::Obs;
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
        // The same two-task native chain through each factory, each on a
        // fresh bed: one sandbox path, so the same makespan and bytes.
        let run = |integrated: bool| {
            harness::run(&ExperimentConfig::quick(), async move |bed| {
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
                let (stats, _) = if integrated {
                    pegasus.run(&wf, &bed.factory().0).await.unwrap()
                } else {
                    pegasus.run(&wf, &NativeFactory).await.unwrap()
                };
                assert_eq!(stats.tasks, 2);
                let last = &chain.tasks.last().unwrap().output;
                let out = bed.cluster.shared_fs().read(last).await.unwrap();
                (stats.makespan.as_secs_f64().to_bits(), out)
            })
            .0
        };
        assert_eq!(run(false), run(true));
    }

    /// One matmul task in `env` over the staged pair `a.mat`, `b.mat`,
    /// declaring `outputs` output files.
    fn matmul_task(env: ExecEnv, outputs: usize, config: &ExperimentConfig) -> PlannedTask {
        let t = crate::builder::matmul_transformation(config);
        PlannedTask {
            name: "t".into(),
            inputs: vec!["a.mat".into(), "b.mat".into()],
            outputs: (0..outputs).map(|i| format!("out{i}.mat")).collect(),
            compute: t.compute,
            logic: t.logic,
            container_image: t.container_image,
            env,
            clustered: 1,
            transformation: "matmul".into(),
        }
    }

    const VENUES: [ExecEnv; 3] = [ExecEnv::Native, ExecEnv::Container, ExecEnv::Serverless];

    /// On a quick bed (traced iff `trace`) with the matmul function ready
    /// and `a.mat`, `b.mat` staged, run one task per venue in [`VENUES`]
    /// order, each as one Condor job built by `factory`. Returns each
    /// job's id and result, and the run's collector.
    fn run_venues(
        trace: bool,
        outputs: usize,
        factory: impl FnOnce(&TestBed) -> IntegratedFactory + 'static,
    ) -> (Vec<(JobId, JobResult)>, Obs) {
        let mut config = ExperimentConfig::quick();
        config.trace = trace;
        harness::run(&config, async move |bed| {
            let config = &bed.config;
            let factory = factory(bed);
            register_matmul(&bed.knative, config);
            matmul_ready(bed).await.unwrap();
            let (a, b) = crate::builder::input_pair(config, "venues");
            let fs = bed.cluster.shared_fs();
            fs.stage("a.mat", a);
            fs.stage("b.mat", b);
            let mut results = Vec::new();
            for env in VENUES {
                let task = matmul_task(env, outputs, config);
                let id = bed.condor.submit(factory.build(&task));
                results.push((id, bed.condor.wait(id).await.unwrap()));
            }
            results
        })
    }

    /// The task error a failed job reports, without the Condor preamble.
    fn job_error(result: &JobResult) -> String {
        assert!(!result.success);
        let output = String::from_utf8_lossy(&result.output);
        output.split_once("): ").unwrap().1.to_string()
    }

    #[test]
    fn every_venue_reports_a_wrong_output_count_the_same_way() {
        let (results, _) = run_venues(false, 2, |bed| bed.factory().0);
        let errors: Vec<String> = results.iter().map(|(_, r)| job_error(r)).collect();
        assert_eq!(errors, vec!["t produced 1 outputs, expected 2"; 3]);
    }

    #[test]
    fn per_job_staging_without_a_tarball_fails_only_container_jobs() {
        let (results, _) = run_venues(false, 1, |bed| {
            IntegratedFactory::new(
                bed.knative.clone(),
                bed.k8s.clone(),
                bed.image.clone(),
                ContainerStaging::PerJob,
                None,
            )
        });
        let [(_, native), (_, container), (_, serverless)] = &results[..] else {
            panic!("one job per venue");
        };
        assert!(native.success && serverless.success);
        assert_eq!(job_error(container), "image tarball was not staged");
    }

    /// The addresses of one call's inputs and of its output.
    type Call = (Vec<*const u8>, *const u8);

    /// Pass-by-value moves handles, not bytes: through the serverless and
    /// container venues, the task's logic gets the staged files' own
    /// buffers, and the buffer it returns is the wrapper's decoded output
    /// and the stored output file.
    #[test]
    fn pass_by_value_copies_no_task_bytes() {
        let calls: Rc<std::cell::RefCell<Vec<Call>>> = Rc::default();
        let seen = Rc::clone(&calls);
        let (staged, invoked, stored) =
            harness::run(&ExperimentConfig::quick(), async move |bed| {
                let logic = move |inputs: Vec<Bytes>| {
                    let out: Vec<u8> = inputs
                        .iter()
                        .flat_map(|b| b.iter().rev().copied())
                        .collect();
                    let out = Bytes::from(out);
                    let at = inputs.iter().map(|b| b.as_ptr()).collect();
                    seen.borrow_mut().push((at, out.as_ptr()));
                    Ok(vec![out])
                };
                let record =
                    swf_pegasus::Transformation::new("record", swf_simcore::secs(0.1), logic);
                crate::function::FunctionBuilder::new("record", bed.image.clone(), &record)
                    .register(&bed.knative);
                bed.knative
                    .wait_ready("record", 1, swf_simcore::secs(3600.0))
                    .await
                    .unwrap();
                let (a, b) = crate::builder::input_pair(&bed.config, "no-copy");
                let fs = bed.cluster.shared_fs();
                fs.stage("a.mat", a.clone());
                fs.stage("b.mat", b.clone());
                let factory = bed.factory().0;
                let node = &bed.cluster.nodes()[0];
                let invoked = factory
                    .invoke(node, SpanContext::NONE, "record", &[a.clone(), b.clone()])
                    .await
                    .unwrap();
                let mut stored = Vec::new();
                for env in [ExecEnv::Serverless, ExecEnv::Container] {
                    let out = format!("{env:?}.out");
                    let task = PlannedTask {
                        name: "t".into(),
                        inputs: vec!["a.mat".into(), "b.mat".into()],
                        outputs: vec![out.clone()],
                        compute: record.compute,
                        logic: Rc::clone(&record.logic),
                        container_image: None,
                        env,
                        clustered: 1,
                        transformation: "record".into(),
                    };
                    let spec = factory.build(&task).with_outputs(task.outputs.clone());
                    let id = bed.condor.submit(spec);
                    assert!(bed.condor.wait(id).await.unwrap().success, "{env:?}");
                    stored.push(fs.read(&out).await.unwrap().as_ptr());
                }
                ([a.as_ptr(), b.as_ptr()], invoked[0].as_ptr(), stored)
            })
            .0;
        let calls = calls.borrow();
        assert_eq!(calls.len(), 3, "one direct invocation and two jobs");
        for (inputs, _) in calls.iter() {
            assert_eq!(inputs[..], staged[..], "the logic got copies of its inputs");
        }
        assert_eq!(invoked, calls[0].1, "the wrapper decoded a copy");
        assert_eq!(
            stored,
            [calls[1].1, calls[2].1],
            "a stored output is a copy"
        );
    }

    /// Each venue's spans under its job's execute span: name, category,
    /// start and end (virtual seconds).
    #[test]
    fn venue_spans_are_pinned() {
        use Category::*;
        let (results, obs) = run_venues(true, 1, |bed| bed.factory().0);
        let children = |id: JobId| {
            obs.with_spans(|spans| {
                let execute = format!("execute:{id}");
                let exec = spans.iter().find(|s| s.name == execute).unwrap().id;
                spans
                    .iter()
                    .filter(|s| s.parent == exec)
                    .map(|s| {
                        let (start, end) = (s.start.as_secs_f64(), s.end_or_start().as_secs_f64());
                        (s.name.clone(), s.category, start, end)
                    })
                    .collect::<Vec<_>>()
            })
        };
        let expected: [&[(&str, Category, f64, f64)]; 3] = [
            &[],
            &[
                ("docker-load", Pull, 42.078990881, 43.022809281),
                (
                    "create:dockerhub.io/hpc/matmul:1.0",
                    Create,
                    43.023017521,
                    43.148017521,
                ),
                ("exec", Compute, 43.148017521, 43.606017521),
                (
                    "destroy:dockerhub.io/hpc/matmul:1.0",
                    Destroy,
                    43.606017521,
                    43.648017521,
                ),
            ],
            &[
                ("serialize:request", Serialize, 69.155961186, 69.156996185),
                ("invoke:matmul", Transfer, 69.156996185, 69.624588685),
                ("serialize:response", Serialize, 69.624588685, 69.625106685),
            ],
        ];
        for ((id, result), (env, expected)) in results.iter().zip(VENUES.iter().zip(expected)) {
            assert!(result.success, "{env:?}");
            let expected: Vec<_> = expected
                .iter()
                .map(|&(n, c, a, b)| (n.into(), c, a, b))
                .collect();
            assert_eq!(children(*id), expected, "{env:?}");
        }
    }
}
