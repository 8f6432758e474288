//! The concurrent-workflow experiment driven from public parts.
//!
//! `swf_core::experiments::run_once` returns makespans only: the testbed it
//! boots is gone when it returns, so neither the data a task wrote nor the
//! fabric's counters can be read from outside. This module assembles the same
//! run from the same public functions, in the same order with the same
//! random streams, and keeps the testbed long enough to read three things:
//! a sampled task's real output (checked against `Kernel::Naive`), the
//! network's transfer counters, and host-time spans around boot, staging and
//! the run itself. Callers check its makespans against `run_once` bit for
//! bit, so the replica cannot quietly drift from the program it stands for.

use std::rc::Rc;

use swf_core::experiments::ConcurrentParams;
use swf_core::{
    matmul_transformation, register_matmul, stage_chain_workflow, ExperimentConfig,
    IntegratedFactory, Provisioning, TestBed,
};
use swf_pegasus::{Pegasus, ReplicaLocation};
use swf_simcore::{secs, DetRng, Sim, SimDuration};
use swf_workloads::{concurrent_workflows, decode, matmul, Kernel};

use crate::tracer::Tracer;

/// What the replica can see that `run_once` hides.
pub struct DriveOutcome {
    /// Per-workflow makespans in seconds, workflow order.
    pub workflow_makespans: Vec<f64>,
    /// `Network::transfers` when the last workflow finished.
    pub net_transfers: u64,
    /// `Network::bytes_moved` when the last workflow finished.
    pub net_bytes_moved: u64,
    /// Whether workflow 0's first product, read back from the shared
    /// filesystem, equals `Kernel::Naive` on its two staged inputs.
    pub sampled_product_matches_naive: Result<(), String>,
}

impl DriveOutcome {
    /// Makespan of the slowest workflow.
    pub fn slowest(&self) -> f64 {
        self.workflow_makespans.iter().copied().fold(0.0, f64::max)
    }
}

/// Run `params.workflows` concurrent chains exactly as `run_once` does.
pub fn concurrent(
    config: &ExperimentConfig,
    params: ConcurrentParams,
    rep: u64,
    tr: &Tracer,
) -> DriveOutcome {
    let (config, tr) = (config.clone(), tr.clone());
    Sim::new().block_on(async move {
        let (config, tr) = (&config, &tr);
        let obs = if config.trace {
            swf_obs::Obs::enabled()
        } else {
            swf_obs::Obs::disabled()
        };
        let _obs_guard = swf_obs::install(obs);
        let bed = tr.span("core.boot", || TestBed::boot(config));
        let tarball = tr.span("core.stage_image_tarball", || bed.stage_image_tarball());
        register_matmul(&bed.knative, config);
        if config.provisioning == Provisioning::PreStage {
            let _span = tr.enter("knative.wait_ready");
            bed.knative
                .wait_ready("matmul", config.min_scale as usize, secs(3600.0))
                .await
                .expect("function pods become ready on a calm testbed");
        }
        let pegasus = Rc::new(
            Pegasus::new(bed.condor.clone())
                .with_dagman(config.dagman)
                .with_plan_options(params.plan),
        );
        pegasus
            .transformations()
            .register(matmul_transformation(config));
        pegasus
            .replicas()
            .register(&tarball, ReplicaLocation::SharedFs(tarball.clone()));
        let factory = Rc::new(
            IntegratedFactory::new(
                bed.knative.clone(),
                bed.k8s.clone(),
                bed.image.clone(),
                config.container_staging,
                Some(tarball),
            )
            .with_serialization_rate(config.serialization_rate),
        );

        let chains = concurrent_workflows(
            params.workflows,
            params.tasks_per_workflow,
            params.mix,
            config.seed ^ rep.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let mut phase_rng = DetRng::new(config.seed ^ rep.wrapping_mul(31), "dagman-phase");
        let poll = config.dagman.poll_interval.as_secs_f64();
        let mut handles = Vec::new();
        for chain in &chains {
            let wf = tr.span("core.stage_workflow", || {
                stage_chain_workflow(&bed.cluster, pegasus.replicas(), chain, config)
            });
            let pegasus = Rc::clone(&pegasus);
            let factory = Rc::clone(&factory);
            let phase = SimDuration::from_secs_f64(phase_rng.uniform(0.0, poll));
            handles.push(swf_simcore::spawn(async move {
                swf_simcore::sleep(phase).await;
                let (stats, _report) = pegasus
                    .run(&wf, factory.as_ref())
                    .await
                    .expect("workflow completes on a calm testbed");
                stats.makespan.as_secs_f64()
            }));
        }
        let workflow_makespans = {
            let _span = tr.enter("core.run_workflows");
            swf_simcore::join_all(handles).await
        };

        let network = bed.cluster.network();
        let (net_transfers, net_bytes_moved) = (network.transfers(), network.bytes_moved());
        let sampled_product_matches_naive = match chains.first().and_then(|c| c.tasks.first()) {
            Some(task) => check_product(&bed, &task.input_a, &task.input_b, &task.output).await,
            None => Err("no task to sample".to_string()),
        };
        DriveOutcome {
            workflow_makespans,
            net_transfers,
            net_bytes_moved,
            sampled_product_matches_naive,
        }
    })
}

/// Read a finished task's inputs and output back from the shared filesystem
/// and compare the output with the reference kernel.
async fn check_product(bed: &TestBed, a: &str, b: &str, out: &str) -> Result<(), String> {
    let fs = bed.cluster.shared_fs();
    let mut matrices = Vec::with_capacity(3);
    for path in [a, b, out] {
        let data = fs.read(path).await.map_err(|e| format!("{path}: {e}"))?;
        matrices.push(decode(data).map_err(|e| format!("{path}: {e}"))?);
    }
    if matmul(&matrices[0], &matrices[1], Kernel::Naive) == matrices[2] {
        Ok(())
    } else {
        Err(format!("{out} differs from Kernel::Naive({a}, {b})"))
    }
}

/// The warm-up of every workload built on `run_once`: a few chains through
/// all three venues, once through `run_once` and once through the replica.
/// It pages the stack's code in, proves the replica faithful (identical
/// makespans, bit for bit) and checks a real task product against
/// `Kernel::Naive`.
pub fn warm_up(config: &ExperimentConfig, checks: &mut crate::workload::Checks) {
    let params = ConcurrentParams {
        workflows: 3,
        tasks_per_workflow: 2,
        mix: THIRDS,
        ..ConcurrentParams::default()
    };
    let reference = swf_core::experiments::run_once(config, params, 0);
    let replica = concurrent(config, params, 0, &Tracer::off());
    checks.check(
        bits(&reference.workflow_makespans) == bits(&replica.workflow_makespans),
        || {
            format!(
                "replica makespans {:?} differ from run_once {:?}",
                replica.workflow_makespans, reference.workflow_makespans
            )
        },
    );
    checks.check_result(
        replica.sampled_product_matches_naive,
        "sampled task product",
    );
}

/// A third of the tasks in each venue.
pub const THIRDS: swf_workloads::EnvMix = swf_workloads::EnvMix {
    serverless: 1.0 / 3.0,
    container: 1.0 / 3.0,
};

/// Bit patterns of a list of floats, for exact comparison.
fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}
