//! Failure injection: kill a worker node under a live serverless service
//! and watch the platform fail over — pods replaced on healthy nodes,
//! invocations uninterrupted.
//!
//! Run with: `cargo run --release --example node_failure`

use bytes::Bytes;

use swf_cluster::{NodeId, Request};
use swf_container::Workload;
use swf_core::{harness, ExperimentConfig, TestBed};
use swf_knative::KService;
use swf_simcore::{now, secs, sleep};

fn main() {
    harness::run(&ExperimentConfig::quick(), async |bed| {
        bed.knative.register_fn(
            KService::new("svc", bed.image.clone()).with_min_scale(2),
            |req| {
                let b = req.body.clone();
                Workload::new(secs(0.1), move || Ok(b))
            },
        );
        bed.knative.wait_ready("svc", 2, secs(600.0)).await.unwrap();

        let placement = |bed: &TestBed| -> Vec<NodeId> {
            bed.knative
                .endpoints("svc")
                .iter()
                .map(|e| e.node)
                .collect()
        };

        let before = placement(bed);
        println!("[{}] pods ready on {:?}", now(), before);

        let victim = before[0];
        println!("[{}] >>> failing {victim}", now());
        bed.k8s.fail_node(victim);

        // Keep invoking while the control plane reacts.
        let mut ok = 0;
        for i in 0..10u8 {
            let resp = bed
                .knative
                .invoke(NodeId(0), "svc", Request::post("/", Bytes::from(vec![i])))
                .await
                .expect("service must keep serving through node loss");
            assert_eq!(&resp.body.to_bytes()[..], &[i]);
            ok += 1;
            sleep(secs(0.5)).await;
        }
        println!("[{}] {ok}/10 invocations succeeded during fail-over", now());

        bed.knative.wait_ready("svc", 2, secs(600.0)).await.unwrap();
        let after = placement(bed);
        println!("[{}] pods ready on {:?} (victim excluded)", now(), after);
        assert!(!after.contains(&victim));

        bed.k8s.recover_node(victim);
        println!("[{}] {victim} recovered; schedulable again", now());
    });
}
