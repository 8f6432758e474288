//! Quickstart: boot the full reproduction stack, register a serverless
//! function, invoke it cold and warm, and print what happened.
//!
//! Run with: `cargo run --release --example quickstart`

use bytes::Bytes;

use swf_cluster::{NodeId, Request};
use swf_core::{harness, ExperimentConfig};
use swf_knative::KService;
use swf_simcore::{now, secs};
use swf_workloads::{decode, encode, matmul, Kernel, Matrix};

fn main() {
    // 1. Boot the paper's testbed — 4 nodes, HTCondor, Kubernetes, Knative,
    //    an image registry with the matmul image pushed — inside one
    //    deterministic virtual-time simulation, and run the body on it.
    harness::run(&ExperimentConfig::quick(), async |bed| {
        println!(
            "booted: {} nodes, {} condor slots",
            bed.cluster.nodes().len(),
            bed.condor.total_slots()
        );

        // 2. Register a function BEFORE any workflow runs (the paper's
        //    manual pre-registration step). This one echoes a matrix
        //    product computed from the request payload.
        bed.knative.register_fn(
            KService::new("square", bed.image.clone())
                .with_container_concurrency(1)
                .with_initial_scale(0), // deferred: first call is cold
            |req| {
                let payload = req.body.clone();
                swf_container::Workload::new(secs(0.458), move || {
                    let m = decode(payload.to_bytes()).map_err(|e| e.to_string())?;
                    let sq = matmul(&m, &m, Kernel::Blocked);
                    Ok(encode(&sq).into())
                })
            },
        );

        // Pre-cache the image on the workers so the cold start matches the
        // paper's §III-B conditions.
        for node in bed.k8s.schedulable_nodes() {
            bed.registry.pull(node, &bed.image).await.unwrap();
        }
        swf_simcore::sleep(secs(1.0)).await;

        // 3. Invoke it: the first request pays the ≈1.48 s cold start...
        let mut rng = swf_simcore::DetRng::new(7, "quickstart");
        let m = Matrix::random(16, 16, &mut rng, -9, 9);
        let body = encode(&m);

        let t0 = now();
        let resp = bed
            .knative
            .invoke(NodeId(0), "square", Request::post("/invoke", body.clone()))
            .await
            .expect("cold invocation");
        println!(
            "cold invocation: {:.3}s (paper cold start: 1.48s + compute)",
            (now() - t0).as_secs_f64()
        );
        let product = decode(resp.body.to_bytes()).expect("valid matrix");
        assert_eq!(product, matmul(&m, &m, Kernel::Blocked));

        // 4. ...and warm requests reuse the same container.
        let t1 = now();
        for _ in 0..5 {
            bed.knative
                .invoke(NodeId(0), "square", Request::post("/invoke", body.clone()))
                .await
                .expect("warm invocation");
        }
        let per_warm = (now() - t1).as_secs_f64() / 5.0;
        println!("warm invocations: {per_warm:.3}s each (compute 0.458s + ~0.01s overhead)");

        // One container total — reuse, the paper's headline mechanism.
        let created: u64 = bed
            .k8s
            .schedulable_nodes()
            .iter()
            .map(|n| bed.k8s.runtime(*n).unwrap().created_total())
            .sum();
        println!("containers created for 6 tasks: {created} (reused across requests)");
        assert_eq!(created, 1);
        let _ = Bytes::new();
        println!("done at virtual t = {}", now());
    });
}
