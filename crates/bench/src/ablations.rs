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
use swf_core::{harness, ExperimentConfig, Provisioning};
use swf_knative::{KService, RoutingPolicy};
use swf_metrics::Table;
use swf_pegasus::PlanOptions;
use swf_simcore::{now, secs};
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

/// The ablations' concurrent-workflow shape at the given scale.
fn params(quick: bool, mix: EnvMix) -> ConcurrentParams {
    let (workflows, tasks_per_workflow) = if quick { (3, 4) } else { (6, 8) };
    ConcurrentParams {
        workflows,
        tasks_per_workflow,
        mix,
        ..ConcurrentParams::default()
    }
}

/// Run one traced `run_once` row and record its slowest makespan under
/// `(group, variant)` and its collector under `collector`.
fn concurrent_row(
    out: &mut AblationsResult,
    (group, variant, collector): (&'static str, String, String),
    mut config: ExperimentConfig,
    params: ConcurrentParams,
) {
    config.trace = true;
    let o = run_once(&config, params, 0);
    out.rows.push(AblationRow {
        group,
        variant,
        metric_s: o.slowest,
    });
    out.collectors.push((collector, o.obs));
}

/// Ablation 1 — container concurrency: shared containers (cc=0) vs
/// strict one-request-per-container (cc=1) on the all-serverless workload.
fn ablate_reuse(quick: bool, out: &mut AblationsResult) {
    for (label, cc) in [
        ("containerConcurrency=1", 1u32),
        ("containerConcurrency=0 (shared)", 0),
    ] {
        let mut config = ExperimentConfig::quick();
        config.container_concurrency = cc;
        let row = (
            "container concurrency",
            label.into(),
            format!("reuse/{label}"),
        );
        concurrent_row(out, row, config, params(quick, EnvMix::ALL_SERVERLESS));
    }
}

/// Ablation 2 — provisioning: pre-staged warm pods vs deferred downloads.
fn ablate_provisioning(quick: bool, out: &mut AblationsResult) {
    for (label, mode) in [
        ("min-scale pre-staged", Provisioning::PreStage),
        ("initial-scale=0 deferred", Provisioning::Deferred),
    ] {
        let mut config = ExperimentConfig::quick();
        config.provisioning = mode;
        let row = (
            "provisioning",
            label.into(),
            format!("provisioning/{label}"),
        );
        concurrent_row(out, row, config, params(quick, EnvMix::ALL_SERVERLESS));
    }
}

/// Ablation 3 — pass-by-value serialization on vs off (node-resident data).
fn ablate_payload(quick: bool, out: &mut AblationsResult) {
    let paper = ExperimentConfig::paper();
    for (label, rate) in [
        ("pass-by-value (4 MB/s ser.)", paper.serialization_rate),
        ("node-resident data", 0.0),
    ] {
        let mut config = ExperimentConfig::quick();
        config.serialization_rate = rate;
        // Use paper-sized matrices so payload costs are visible.
        config.matrix_dim = if quick { 64 } else { paper.matrix_dim };
        let row = ("file management", label.into(), format!("payload/{label}"));
        concurrent_row(out, row, config, params(quick, EnvMix::ALL_SERVERLESS));
    }
}

/// Ablation 4 — task clustering levels (§IX-C task resizing).
fn ablate_clustering(quick: bool, out: &mut AblationsResult) {
    for level in [1usize, 2, 4] {
        let row = (
            "task clustering (§IX-C)",
            format!("cluster level {level}"),
            format!("clustering/level-{level}"),
        );
        let plan = PlanOptions {
            cluster_level: level,
        };
        let params = ConcurrentParams {
            plan,
            ..params(quick, EnvMix::ALL_NATIVE)
        };
        concurrent_row(out, row, ExperimentConfig::quick(), params);
    }
}

/// Ablation 5 — routing: round-robin vs least-loaded redirection (§IX-D)
/// under a skewed background load.
fn ablate_routing(out: &mut AblationsResult) {
    for (label, policy) in [
        ("round-robin", RoutingPolicy::RoundRobin),
        ("least-loaded (§IX-D)", RoutingPolicy::LeastLoaded),
    ] {
        let mut config = ExperimentConfig::quick();
        config.knative.routing = policy;
        config.trace = true;
        let compute = config.compute.per_task;
        let (mean_latency, obs) = harness::run(&config, async move |bed| {
            bed.knative.register_fn(
                KService::new("fn", bed.image.clone())
                    .with_min_scale(2)
                    .with_max_scale(2),
                move |req| {
                    let b = req.body.clone();
                    Workload::new(compute, move || Ok(b))
                },
            );
            bed.knative.wait_ready("fn", 2, secs(600.0)).await.unwrap();
            // Saturate the first pod's node with foreign compute.
            let eps = bed.knative.endpoints("fn");
            let busy = bed.k8s.runtime(eps[0].node).unwrap().node().clone();
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
