//! Isolation sections: one layer called alone, at the calling workload's
//! sizes, under the benchmark's own spans.
//!
//! The measured passes go through `run_once`, `run_chaos` and `run_app`,
//! which give no seam between layers; these sections are how a layer's host
//! cost per operation is seen from outside. Each sets its stage up outside
//! the span, then times a fixed number of operations, so the counts (and the
//! virtual results) repeat exactly and only the time varies.

use std::hint::black_box;

use bytes::Bytes;
use swf_chaos::{ChaosProfile, FaultPlan};
use swf_cluster::{Cluster, ClusterConfig, NodeId, Request};
use swf_condor::{run_dag, DagSpec, JobSpec};
use swf_container::{DockerCli, PullPolicy, ResourceLimits, Workload as ContainerWorkload};
use swf_core::{stage_chain_workflow, ExperimentConfig, TestBed};
use swf_k8s::{ObjectMeta, Pod, PodSpec};
use swf_knative::KService;
use swf_pegasus::{
    plan, AbstractJob, AbstractWorkflow, NativeFactory, PlanOptions, ReplicaCatalog,
    ReplicaLocation, Transformation, TransformationCatalog,
};
use swf_simcore::{join_all, millis, perf, secs, sleep, spawn, DetRng, Sim, SimDuration};
use swf_workloads::{
    chain_workflow, decode, encode, matmul, multiply_encoded, EnvMix, ExecEnv, Kernel, Matrix,
};

use crate::tracer::Tracer;
use crate::workload::Values;

/// Nanoseconds of self time per operation of the spans called `name`, scaled
/// to `unit_ns` (1e3 for microseconds, 1e6 for milliseconds).
fn per_op(tr: &Tracer, name: &str, ops: u64, unit_ns: f64) -> f64 {
    tr.totals(name).self_per_op(ops) / unit_ns
}

fn trivial_job() -> JobSpec {
    JobSpec::new(|_ctx| Box::pin(async { Ok(Bytes::new()) }))
}

/// `simcore.bare_ns_per_event`: 1,000 tasks × 1,000 sleeps, no model code.
pub fn simcore(tr: &Tracer, scale: u64, out: &mut Values) {
    let (tasks, sleeps) = (1_000 / scale.min(10), 1_000u64);
    let before = perf::snapshot();
    {
        let _span = tr.enter("iso.simcore.bare");
        Sim::new().block_on(async move {
            let handles: Vec<_> = (0..tasks)
                .map(|i| {
                    spawn(async move {
                        for k in 0..sleeps {
                            sleep(SimDuration::from_nanos(1 + (i * 7 + k) % 997)).await;
                        }
                    })
                })
                .collect();
            join_all(handles).await;
        });
    }
    let events = perf::snapshot().delta(&before).events();
    out.insert(
        "simcore.bare_ns_per_event",
        per_op(tr, "iso.simcore.bare", events, 1.0),
    );
}

/// `cluster.transfer_us` (1 MiB over the fabric) and `cluster.fs_rw_us`
/// (one encoded 350×350 matrix written and read back).
pub fn cluster(tr: &Tracer, scale: u64, out: &mut Values) {
    let n = 100_000 / scale;
    let matrix = swf_cluster::zeroed_bytes(swf_workloads::codec::encoded_size(350, 350));
    let spans = tr.clone();
    Sim::new().block_on(async move {
        let tr = &spans;
        let cluster = Cluster::new(&ClusterConfig::default());
        {
            let _span = tr.enter("iso.cluster.transfer");
            for _ in 0..n {
                cluster
                    .network()
                    .transfer(NodeId(0), NodeId(1), swf_cluster::mib(1))
                    .await
                    .expect("nodes 0 and 1 exist on a calm fabric");
            }
        }
        let fs = cluster.shared_fs();
        let _span = tr.enter("iso.cluster.fs_rw");
        for _ in 0..n {
            fs.write("iso.mat", matrix.clone()).await;
            black_box(fs.read("iso.mat").await.expect("file just written"));
        }
    });
    out.insert(
        "cluster.transfer_us",
        per_op(tr, "iso.cluster.transfer", n, 1e3),
    );
    out.insert("cluster.fs_rw_us", per_op(tr, "iso.cluster.fs_rw", n, 1e3));
}

/// Host µs per operation of the container runtime, Kubernetes, Knative,
/// HTCondor and DAGMan, each driven alone inside one simulation.
pub fn control_plane(tr: &Tracer, config: &ExperimentConfig, scale: u64, out: &mut Values) {
    let (runs, pulls, pods) = (10_000 / scale, 5_000 / scale, 2_000 / scale);
    let (invokes, jobs) = (20_000 / scale, 10_000 / scale);
    let (chains, chain_len) = (100 / scale.min(10), 20u64);
    let (spans, owned) = (tr.clone(), config.clone());
    Sim::new().block_on(async move {
        let (tr, config) = (&spans, &owned);
        let bed = TestBed::boot(config);
        let node = bed.k8s.schedulable_nodes()[0];
        let runtime = bed.k8s.runtime(node).expect("worker has a runtime").clone();
        runtime
            .ensure_image(&bed.image)
            .await
            .expect("image pushed at boot");

        let cli = DockerCli::new(runtime);
        {
            let _span = tr.enter("iso.container.lifecycle");
            for _ in 0..runs {
                cli.run(
                    &bed.image,
                    ResourceLimits::one_core(512),
                    ContainerWorkload::synthetic(millis(100)),
                    PullPolicy::IfNotPresent,
                )
                .await
                .expect("docker run of a cached image");
            }
        }
        {
            let _span = tr.enter("iso.container.pull");
            for _ in 0..pulls {
                bed.registry.evict(node, &bed.image);
                bed.registry
                    .pull(node, &bed.image)
                    .await
                    .expect("registry is up");
            }
        }
        {
            let _span = tr.enter("iso.k8s.pod_start");
            for i in 0..pods {
                let name = format!("iso-{i}");
                let pod = Pod::new(ObjectMeta::named(&name), PodSpec::new(bed.image.clone()));
                bed.k8s.api().create_pod(pod).await.expect("pod admitted");
                bed.k8s
                    .wait_pod_ready(&name, secs(600.0))
                    .await
                    .expect("pod becomes ready");
                bed.k8s.api().delete_pod(&name).await.expect("pod exists");
            }
        }

        bed.knative.register_fn(
            KService::new("iso-echo", bed.image.clone())
                .with_min_scale(1)
                .with_container_concurrency(0),
            |req| {
                let body = req.body.clone();
                ContainerWorkload::new(millis(10), move || Ok(body))
            },
        );
        bed.knative
            .wait_ready("iso-echo", 1, secs(3600.0))
            .await
            .expect("echo function becomes ready");
        {
            let _span = tr.enter("iso.knative.invoke");
            for _ in 0..invokes {
                let request = Request::post("/", Bytes::from_static(b"x"));
                let response = bed
                    .knative
                    .invoke(NodeId(0), "iso-echo", request)
                    .await
                    .expect("warm invocation");
                assert!(response.is_success(), "echo returned {}", response.status);
            }
        }
        {
            let _span = tr.enter("iso.condor.job");
            let ids: Vec<_> = (0..jobs)
                .map(|_| bed.condor.submit(trivial_job()))
                .collect();
            for id in ids {
                let result = bed.condor.wait(id).await.expect("job known to the schedd");
                assert!(result.success, "trivial job failed");
            }
        }

        let mut dag = DagSpec::named("iso-dag");
        for _ in 0..chains {
            let mut previous = None;
            for _ in 0..chain_len {
                let index = dag.add_node(format!("n{}", dag.len()), trivial_job());
                if let Some(parent) = previous {
                    dag.add_edge(parent, index).expect("forward edge");
                }
                previous = Some(index);
            }
        }
        let _span = tr.enter("iso.dagman.node");
        run_dag(&bed.condor, &dag, config.dagman)
            .await
            .expect("trivial DAG completes");
    });
    out.insert(
        "container.lifecycle_us",
        per_op(tr, "iso.container.lifecycle", runs, 1e3),
    );
    out.insert(
        "container.pull_us",
        per_op(tr, "iso.container.pull", pulls, 1e3),
    );
    out.insert(
        "k8s.pod_start_us",
        per_op(tr, "iso.k8s.pod_start", pods, 1e3),
    );
    out.insert(
        "knative.invoke_us",
        per_op(tr, "iso.knative.invoke", invokes, 1e3),
    );
    out.insert("condor.job_us", per_op(tr, "iso.condor.job", jobs, 1e3));
    out.insert(
        "dagman.node_us",
        per_op(tr, "iso.dagman.node", chains * chain_len, 1e3),
    );
}

/// `pegasus.plan_us_per_job`: plan a 2,000-job workflow of 100 chains; no
/// simulation runs.
pub fn pegasus(tr: &Tracer, scale: u64, out: &mut Values) {
    let (chains, chain_len) = (100 / scale.min(10), 20u64);
    let transformations = TransformationCatalog::new();
    transformations.register(Transformation::new("step", millis(100), Ok));
    let replicas = ReplicaCatalog::new();
    let mut workflow = AbstractWorkflow::new("iso-plan");
    for c in 0..chains {
        let seed_file = format!("c{c}_in");
        replicas.register(&seed_file, ReplicaLocation::SharedFs(seed_file.clone()));
        let mut input = seed_file;
        for t in 0..chain_len {
            let output = format!("c{c}_t{t}_out");
            workflow.add_job(AbstractJob {
                name: format!("c{c}_t{t}"),
                transformation: "step".into(),
                inputs: vec![input],
                outputs: vec![output.clone()],
                env: ExecEnv::Native,
            });
            input = output;
        }
    }
    let rounds = 20 / scale.min(10);
    {
        let _span = tr.enter("iso.pegasus.plan");
        for _ in 0..rounds {
            let planned = plan(
                &workflow,
                &transformations,
                &replicas,
                &NativeFactory,
                PlanOptions::default(),
            )
            .expect("chains plan cleanly");
            black_box(planned.tasks.len());
        }
    }
    out.insert(
        "pegasus.plan_us_per_job",
        per_op(tr, "iso.pegasus.plan", rounds * chains * chain_len, 1e3),
    );
}

/// The real kernels and the matrix codec at `dim`, as one task runs them.
pub fn kernels(tr: &Tracer, dim: usize, scale: u64, out: &mut Values) {
    // Half a second of products at paper scale; capped where a product takes
    // well under a microsecond.
    let reps = (850_000_000 / (dim * dim * dim) as u64).min(200_000) / scale + 3;
    let codec_reps = reps * 2;
    let mut rng = DetRng::new(dim as u64, "iso-kernels");
    let a = Matrix::random(dim, dim, &mut rng, -100, 100);
    let b = Matrix::random(dim, dim, &mut rng, -100, 100);
    let (ea, eb) = (encode(&a), encode(&b));
    {
        let _span = tr.enter("iso.workloads.matmul");
        for _ in 0..reps {
            black_box(matmul(black_box(&a), black_box(&b), Kernel::Blocked));
        }
    }
    {
        let _span = tr.enter("iso.workloads.encode");
        for _ in 0..codec_reps {
            black_box(encode(black_box(&a)));
        }
    }
    {
        let _span = tr.enter("iso.workloads.decode");
        for _ in 0..codec_reps {
            black_box(decode(black_box(ea.clone())).expect("just encoded"));
        }
    }
    {
        let _span = tr.enter("iso.workloads.multiply_encoded");
        for _ in 0..reps {
            black_box(
                multiply_encoded(ea.clone(), eb.clone(), Kernel::Blocked).expect("just encoded"),
            );
        }
    }
    let matmul_ms = per_op(tr, "iso.workloads.matmul", reps, 1e6);
    out.insert("workloads.matmul_ms", matmul_ms);
    // Computed: 2n³ integer operations per product over the measured time.
    let gops = if matmul_ms > 0.0 {
        2.0 * (dim as f64).powi(3) / (matmul_ms * 1e6)
    } else {
        0.0
    };
    out.insert("workloads.matmul_gops", gops);
    out.insert(
        "workloads.encode_ms",
        per_op(tr, "iso.workloads.encode", codec_reps, 1e6),
    );
    out.insert(
        "workloads.decode_ms",
        per_op(tr, "iso.workloads.decode", codec_reps, 1e6),
    );
    out.insert(
        "workloads.multiply_encoded_ms",
        per_op(tr, "iso.workloads.multiply_encoded", reps, 1e6),
    );
}

/// `core.boot_us` (boot a testbed and stage the image tarball, zero pool
/// warm) and `core.stage_workflow_us` (generate, encode and stage one
/// ten-task chain's seed matrices).
pub fn core(tr: &Tracer, config: &ExperimentConfig, scale: u64, out: &mut Values) {
    let boots = 5_000 / scale;
    {
        let _span = tr.enter("iso.core.boot");
        for _ in 0..boots {
            let config = config.clone();
            Sim::new().block_on(async move {
                let bed = TestBed::boot(&config);
                black_box(bed.stage_image_tarball());
            });
        }
    }
    let stages = (4_000_000 / (config.matrix_dim * config.matrix_dim) as u64 / scale).max(3);
    let (spans, owned) = (tr.clone(), config.clone());
    Sim::new().block_on(async move {
        let (tr, config) = (&spans, &owned);
        let cluster = Cluster::new(&config.cluster);
        let replicas = ReplicaCatalog::new();
        let mut rng = DetRng::new(config.seed, "iso-stage");
        let chain = chain_workflow(0, 10, EnvMix::ALL_NATIVE, &mut rng);
        let _span = tr.enter("iso.core.stage_workflow");
        for _ in 0..stages {
            black_box(stage_chain_workflow(&cluster, &replicas, &chain, config).len());
        }
    });
    out.insert("core.boot_us", per_op(tr, "iso.core.boot", boots, 1e3));
    out.insert(
        "core.stage_workflow_us",
        per_op(tr, "iso.core.stage_workflow", stages, 1e3),
    );
}

/// `obs.span_ns`: one million spans started and ended on an enabled
/// collector.
pub fn obs_spans(tr: &Tracer, scale: u64, out: &mut Values) {
    let n = 1_000_000 / scale;
    let spans = tr.clone();
    Sim::new().block_on(async move {
        let tr = &spans;
        let obs = swf_obs::Obs::enabled();
        let _span = tr.enter("iso.obs.span");
        for _ in 0..n {
            let ctx = obs.start_span(
                swf_obs::SpanContext::NONE,
                "bench/iso",
                "op",
                swf_obs::Category::Other,
            );
            obs.end(ctx);
        }
        black_box(obs.span_count());
    });
    out.insert("obs.span_ns", per_op(tr, "iso.obs.span", n, 1.0));
}

/// `chaos.plan_sample_us` and `chaos.plan_json_roundtrip_us` over heavy
/// plans, the shape the rescue sweep injects.
pub fn chaos_plans(tr: &Tracer, seed: u64, scale: u64, out: &mut Values) {
    let n = 2_000 / scale;
    let sample = |s: u64| {
        FaultPlan::sample(
            &ChaosProfile::heavy(),
            s,
            secs(120.0),
            0,
            &[1, 2, 3],
            &[swf_chaos::SERVICE.to_string()],
        )
    };
    {
        let _span = tr.enter("iso.chaos.plan_sample");
        for i in 0..n {
            black_box(sample(seed.wrapping_add(i)));
        }
    }
    let plans: Vec<FaultPlan> = (0..n).map(|i| sample(seed.wrapping_add(i))).collect();
    {
        let _span = tr.enter("iso.chaos.plan_json_roundtrip");
        for p in &plans {
            let text = p.to_json().to_string();
            let back = FaultPlan::parse(&text).expect("a plan parses from its own JSON");
            assert_eq!(back.len(), p.len(), "plan changed length in its round trip");
        }
    }
    out.insert(
        "chaos.plan_sample_us",
        per_op(tr, "iso.chaos.plan_sample", n, 1e3),
    );
    out.insert(
        "chaos.plan_json_roundtrip_us",
        per_op(tr, "iso.chaos.plan_json_roundtrip", n, 1e3),
    );
}
