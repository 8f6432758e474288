//! Per-layer numbers read from a program-traced run through `swf-obs`'s
//! public accessors: control-plane counts, two virtual latencies, and the
//! slowest workflow's critical path split by category.

use swf_core::experiments::{run_once, ConcurrentParams};
use swf_core::{slowest_workflow_breakdown, ExperimentConfig};
use swf_obs::{Category, CriticalPath, Obs};

use crate::workload::{Checks, LayerCtx, Values};
use crate::{drive, isolate};

/// `critpath.<label>_s` for each of the twelve categories, in
/// `Category::ALL` order.
const CRITPATH: [(&str, Category); 12] = [
    ("critpath.queue_s", Category::Queue),
    ("critpath.negotiate_s", Category::Negotiate),
    ("critpath.claim-activation_s", Category::Activation),
    ("critpath.transfer_s", Category::Transfer),
    ("critpath.pull_s", Category::Pull),
    ("critpath.cold-start_s", Category::ColdStart),
    ("critpath.create_s", Category::Create),
    ("critpath.destroy_s", Category::Destroy),
    ("critpath.serialize_s", Category::Serialize),
    ("critpath.compute_s", Category::Compute),
    ("critpath.expand_s", Category::Expand),
    ("critpath.other_s", Category::Other),
];

/// Counts and virtual latencies the stack recorded into `obs`.
pub fn program_counts(obs: &Obs, out: &mut Values) {
    let metrics = obs.metrics();
    for name in [
        "k8s.pods_started",
        "knative.invocations",
        "knative.cold_starts",
        "condor.matches",
    ] {
        out.insert(name, metrics.counter(name).unwrap_or(0) as f64);
    }
    out.insert(
        "knative.cold_start_s",
        metrics
            .histogram("knative.cold_wait_s")
            .map_or(0.0, |h| h.mean),
    );
    out.insert(
        "condor.activation_p50_s",
        metrics
            .histogram("condor.activation_s")
            .map_or(0.0, |h| h.p50),
    );
}

/// The critical path's per-category seconds; they sum to its makespan.
pub fn critpath(cp: &CriticalPath, out: &mut Values) {
    for (name, category) in CRITPATH {
        out.insert(name, cp.seconds(category));
    }
}

/// The per-layer section of a workload built on `run_once`: the run whose
/// slowest workflow took `slowest` seconds is repeated with the program's own
/// tracing on (counts, critical path) and through the replica (fabric
/// counters, a real task product), then every layer under it is driven alone.
/// `matmul_calls` is the number of tasks one pass of the workload executes.
pub fn concurrent_stack(
    config: &ExperimentConfig,
    params: ConcurrentParams,
    slowest: f64,
    matmul_calls: usize,
    ctx: &LayerCtx,
    checks: &mut Checks,
    out: &mut Values,
) {
    let mut traced = config.clone();
    traced.trace = true;
    let run = run_once(&traced, params, 0);
    checks.check(run.slowest.to_bits() == slowest.to_bits(), || {
        "program tracing moved the makespan".to_string()
    });
    program_counts(&run.obs, out);
    out.insert("obs.spans", run.obs.span_count() as f64);
    if let Some(cp) = slowest_workflow_breakdown(&run.obs) {
        critpath(&cp, out);
    }
    let replica = drive::concurrent(config, params, 0, ctx.tr);
    checks.check(replica.slowest().to_bits() == slowest.to_bits(), || {
        "replica makespan differs from run_once".to_string()
    });
    checks.check_result(
        replica.sampled_product_matches_naive,
        "sampled task product",
    );
    out.insert("cluster.net_transfers", replica.net_transfers as f64);
    out.insert("cluster.net_bytes_moved", replica.net_bytes_moved as f64);

    isolate::simcore(ctx.tr, ctx.scale, out);
    isolate::cluster(ctx.tr, ctx.scale, out);
    isolate::control_plane(ctx.tr, config, ctx.scale, out);
    isolate::pegasus(ctx.tr, ctx.scale, out);
    isolate::core(ctx.tr, config, ctx.scale, out);
    isolate::kernels(ctx.tr, config.matrix_dim, ctx.scale, out);
    out.insert(
        "workloads.kernel_share",
        matmul_calls as f64 * out["workloads.multiply_encoded_ms"] / (ctx.traced_wall_s * 1e3),
    );
}
