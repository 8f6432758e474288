//! Ablation studies over the design choices DESIGN.md calls out (the
//! suite's `ablations` scenario):
//!
//! 1. container reuse (shared warm containers vs one-per-request),
//! 2. pre-staged vs deferred provisioning (`min-scale` vs `initial-scale: 0`),
//! 3. pass-by-value payloads vs node-resident data,
//! 4. task clustering levels (the paper's §IX-C task resizing),
//! 5. routing policy: round-robin vs §IX-D least-loaded redirection.

use bytes::Bytes;

use swf_cluster::{NodeId, Request};
use swf_container::Workload;
use swf_core::experiments::{run_once, ConcurrentParams};
use swf_core::{ExperimentConfig, Provisioning, TestBed};
use swf_knative::{KService, RoutingPolicy};
use swf_metrics::Table;
use swf_pegasus::PlanOptions;
use swf_simcore::{now, secs, Sim};
use swf_workloads::EnvMix;

/// One measured ablation row.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Ablation group (e.g. `container concurrency`).
    pub group: &'static str,
    /// Variant label within the group.
    pub variant: String,
    /// The measured metric in seconds (makespan or mean latency — see
    /// [`AblationsResult::METRIC_NOTE`]).
    pub metric_s: f64,
}

/// All ablation rows plus their labelled span collectors.
#[derive(Clone, Debug, Default)]
pub struct AblationsResult {
    /// Measured rows in fixed group order.
    pub rows: Vec<AblationRow>,
    /// Per-variant span collectors.
    pub collectors: Vec<(String, swf_obs::Obs)>,
}

impl AblationsResult {
    /// What `metric_s` means per row, printed under the table.
    pub const METRIC_NOTE: &'static str =
        "metric: rows 1-8 = slowest-workflow makespan; rows 9-10 = mean request latency";

    /// Render the classic ablations table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Ablations over the paper's design choices (seconds; lower is better)",
            &["ablation", "variant", "metric_s"],
        );
        for row in &self.rows {
            // Makespans print at 0.1 s; the routing rows are sub-second
            // request latencies and need the extra digit.
            let metric = if row.group == "task redirection (§IX-D)" {
                format!("{:.2}", row.metric_s)
            } else {
                format!("{:.1}", row.metric_s)
            };
            t.row(&[row.group.into(), row.variant.clone(), metric]);
        }
        t
    }

    /// The virtual-time JSON record (rows only; collectors go to `obs`).
    pub fn to_json(&self) -> serde_json::Value {
        let rows: Vec<serde_json::Value> = self
            .rows
            .iter()
            .map(|row| {
                let mut obj = serde_json::Map::new();
                obj.insert("group", serde_json::Value::from(row.group));
                obj.insert("variant", serde_json::Value::from(row.variant.clone()));
                obj.insert("metric_s", serde_json::Value::from(row.metric_s));
                serde_json::Value::Object(obj)
            })
            .collect();
        let mut obj = serde_json::Map::new();
        obj.insert("rows", serde_json::Value::Array(rows));
        serde_json::Value::Object(obj)
    }
}

fn scale(quick: bool) -> (usize, usize) {
    if quick {
        (3, 4)
    } else {
        (6, 8)
    }
}

/// Ablation 1 — container concurrency: shared containers (cc=0) vs
/// strict one-request-per-container (cc=1) on the all-serverless workload.
fn ablate_reuse(quick: bool, out: &mut AblationsResult) {
    let (workflows, tasks) = scale(quick);
    for (label, cc) in [
        ("containerConcurrency=1", 1u32),
        ("containerConcurrency=0 (shared)", 0),
    ] {
        let mut config = ExperimentConfig::quick();
        config.container_concurrency = cc;
        config.trace = true;
        let o = run_once(
            &config,
            ConcurrentParams {
                workflows,
                tasks_per_workflow: tasks,
                mix: EnvMix::ALL_SERVERLESS,
                ..ConcurrentParams::default()
            },
            0,
        );
        out.rows.push(AblationRow {
            group: "container concurrency",
            variant: label.into(),
            metric_s: o.slowest,
        });
        out.collectors.push((format!("reuse/{label}"), o.obs));
    }
}

/// Ablation 2 — provisioning: pre-staged warm pods vs deferred downloads.
fn ablate_provisioning(quick: bool, out: &mut AblationsResult) {
    let (workflows, tasks) = scale(quick);
    for (label, mode) in [
        ("min-scale pre-staged", Provisioning::PreStage),
        ("initial-scale=0 deferred", Provisioning::Deferred),
    ] {
        let mut config = ExperimentConfig::quick();
        config.provisioning = mode;
        config.trace = true;
        let o = run_once(
            &config,
            ConcurrentParams {
                workflows,
                tasks_per_workflow: tasks,
                mix: EnvMix::ALL_SERVERLESS,
                ..ConcurrentParams::default()
            },
            0,
        );
        out.rows.push(AblationRow {
            group: "provisioning",
            variant: label.into(),
            metric_s: o.slowest,
        });
        out.collectors
            .push((format!("provisioning/{label}"), o.obs));
    }
}

/// Ablation 3 — pass-by-value serialization on vs off (node-resident data).
fn ablate_payload(quick: bool, out: &mut AblationsResult) {
    let (workflows, tasks) = scale(quick);
    for (label, rate) in [
        ("pass-by-value (4 MB/s ser.)", 4.0e6),
        ("node-resident data", 0.0),
    ] {
        let mut config = ExperimentConfig::quick();
        config.serialization_rate = rate;
        config.trace = true;
        // Use paper-sized matrices so payload costs are visible.
        config.matrix_dim = if quick { 64 } else { 350 };
        let o = run_once(
            &config,
            ConcurrentParams {
                workflows,
                tasks_per_workflow: tasks,
                mix: EnvMix::ALL_SERVERLESS,
                ..ConcurrentParams::default()
            },
            0,
        );
        out.rows.push(AblationRow {
            group: "file management",
            variant: label.into(),
            metric_s: o.slowest,
        });
        out.collectors.push((format!("payload/{label}"), o.obs));
    }
}

/// Ablation 4 — task clustering levels (§IX-C task resizing).
fn ablate_clustering(quick: bool, out: &mut AblationsResult) {
    let (workflows, tasks) = scale(quick);
    for level in [1usize, 2, 4] {
        let mut config = ExperimentConfig::quick();
        config.trace = true;
        let o = run_once(
            &config,
            ConcurrentParams {
                workflows,
                tasks_per_workflow: tasks,
                mix: EnvMix::ALL_NATIVE,
                plan: PlanOptions {
                    cluster_level: level,
                    retries: 0,
                },
            },
            0,
        );
        out.rows.push(AblationRow {
            group: "task clustering (§IX-C)",
            variant: format!("cluster level {level}"),
            metric_s: o.slowest,
        });
        out.collectors
            .push((format!("clustering/level-{level}"), o.obs));
    }
}

/// Ablation 5 — routing: round-robin vs least-loaded redirection (§IX-D)
/// under a skewed background load.
fn ablate_routing(out: &mut AblationsResult) {
    for (label, policy) in [
        ("round-robin", RoutingPolicy::RoundRobin),
        ("least-loaded (§IX-D)", RoutingPolicy::LeastLoaded),
    ] {
        let obs = swf_obs::Obs::enabled();
        let obs2 = obs.clone();
        let sim = Sim::new();
        let mean_latency = sim.block_on(async move {
            let _obs_guard = swf_obs::install(obs2);
            let mut config = ExperimentConfig::quick();
            config.knative.routing = policy;
            let bed = TestBed::boot(&config);
            bed.knative.register_fn(
                KService::new("fn", bed.image.clone())
                    .with_min_scale(2)
                    .with_max_scale(2),
                |req| {
                    let b = req.body.clone();
                    Workload::new(secs(0.458), move || Ok(b))
                },
            );
            bed.knative.wait_ready("fn", 2, secs(600.0)).await.unwrap();
            // Saturate the first pod's node with foreign compute.
            let rev = bed.knative.revisions().get("fn-00001").unwrap();
            let eps = bed
                .k8s
                .api()
                .endpoints()
                .get(&rev.k8s_service_name())
                .unwrap();
            let busy = bed.k8s.runtime(eps.ready[0].node).unwrap().node().clone();
            for _ in 0..busy.cores().capacity() {
                let busy = busy.clone();
                swf_simcore::spawn(async move {
                    busy.run_on_core(secs(10_000.0)).await;
                });
            }
            swf_simcore::sleep(secs(0.5)).await;
            let t0 = now();
            let n = 12;
            for i in 0..n {
                bed.knative
                    .invoke(NodeId(0), "fn", Request::post("/", Bytes::from(vec![i])))
                    .await
                    .unwrap();
            }
            (now() - t0).as_secs_f64() / f64::from(n)
        });
        out.rows.push(AblationRow {
            group: "task redirection (§IX-D)",
            variant: label.into(),
            metric_s: mean_latency,
        });
        out.collectors.push((format!("routing/{label}"), obs));
    }
}

/// Run all five ablations at the given scale, tracing on (the scenario
/// document wants populated span collectors).
pub fn run_ablations(quick: bool) -> AblationsResult {
    let mut out = AblationsResult::default();
    ablate_reuse(quick, &mut out);
    ablate_provisioning(quick, &mut out);
    ablate_payload(quick, &mut out);
    ablate_clustering(quick, &mut out);
    ablate_routing(&mut out);
    out
}
