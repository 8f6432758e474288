//! Run the same 6-task matmul chain through all three execution venues —
//! native, traditional containers, and the serverless integration — and
//! compare makespans and data movement (the paper's core comparison).
//!
//! Run with: `cargo run --release --example serverless_vs_container`

use swf_core::harness::{self, matmul_pegasus};
use swf_core::{stage_chain_workflow, ExperimentConfig};
use swf_pegasus::PlanOptions;
use swf_workloads::{chain_workflow, EnvMix};

fn run_venue(label: &'static str, mix: EnvMix) -> (f64, u64) {
    harness::run(&ExperimentConfig::quick(), async move |bed| {
        let (pegasus, factory) = matmul_pegasus(bed, PlanOptions::default())
            .await
            .expect("function pods ready");

        let mut rng = swf_simcore::DetRng::new(11, "example");
        let chain = chain_workflow(0, 6, mix, &mut rng);
        let wf = stage_chain_workflow(&bed.cluster, pegasus.replicas(), &chain, &bed.config);
        let (stats, _report) = pegasus.run(&wf, &factory).await.expect("workflow");
        let bytes_moved = bed.cluster.network().bytes_moved();
        println!(
            "{label:<22} makespan {:>7.1}s   bytes moved {:>10}",
            stats.makespan.as_secs_f64(),
            swf_cluster::human_bytes(bytes_moved)
        );
        (stats.makespan.as_secs_f64(), bytes_moved)
    })
    .0
}

fn main() {
    println!("6-task sequential matmul chain, one venue at a time:\n");
    let (native, native_bytes) = run_venue("all-native", EnvMix::ALL_NATIVE);
    let (serverless, serverless_bytes) = run_venue("all-serverless", EnvMix::ALL_SERVERLESS);
    let (container, container_bytes) = run_venue("all-container", EnvMix::ALL_CONTAINER);

    println!("\nfindings (cf. paper Fig. 6):");
    println!("  serverless vs native: {:.2}x", serverless / native);
    println!("  container  vs native: {:.2}x", container / native);
    println!(
        "  redundant data movement of pass-by-value: {} vs native {}",
        swf_cluster::human_bytes(serverless_bytes),
        swf_cluster::human_bytes(native_bytes)
    );
    println!(
        "  per-job image staging cost: container path moved {}",
        swf_cluster::human_bytes(container_bytes)
    );
    assert!(container >= native, "container path must not beat native");
}
