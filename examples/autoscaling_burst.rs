//! Watch the KPA autoscaler react to a burst: a single warm function pod
//! receives 16 concurrent requests; the autoscaler panics, scales out, the
//! burst drains, and after the grace period the deployment returns to its
//! floor. (The paper's §III-C scaling motivation.)
//!
//! Run with: `cargo run --release --example autoscaling_burst`

use bytes::Bytes;

use swf_cluster::{NodeId, Request};
use swf_container::Workload;
use swf_core::{harness, ExperimentConfig};
use swf_knative::{KService, Knative};
use swf_simcore::{join_all, now, secs, sleep, spawn};

/// Ready pods of the `burst` service.
fn ready_pods(kn: &Knative) -> usize {
    kn.endpoints("burst").map_or(0, |e| e.ready.len())
}

fn main() {
    harness::run(&ExperimentConfig::quick(), async |bed| {
        bed.knative.register_fn(
            KService::new("burst", bed.image.clone())
                .with_container_concurrency(1)
                .with_min_scale(1),
            |req| {
                let body = req.body.clone();
                Workload::new(secs(1.0), move || Ok(body))
            },
        );
        bed.knative
            .wait_ready("burst", 1, secs(600.0))
            .await
            .unwrap();
        println!("[{}] warm pods: {}", now(), ready_pods(&bed.knative));

        // Fire 16 concurrent requests at one cc=1 pod.
        let t0 = now();
        let handles: Vec<_> = (0..16u8)
            .map(|i| {
                let kn = bed.knative.clone();
                spawn(async move {
                    let resp = kn
                        .invoke(NodeId(0), "burst", Request::post("/", Bytes::from(vec![i])))
                        .await
                        .expect("invocation");
                    assert!(resp.is_success());
                    (now() - swf_simcore::SimTime::ZERO).as_secs_f64()
                })
            })
            .collect();

        // Sample the scale while the burst drains.
        let sampler = {
            let kn = bed.knative.clone();
            spawn(async move {
                let mut peak = 0usize;
                for _ in 0..40 {
                    sleep(secs(0.5)).await;
                    let pods = ready_pods(&kn);
                    peak = peak.max(pods);
                }
                peak
            })
        };

        join_all(handles).await;
        println!(
            "[{}] burst of 16 drained in {:.1}s",
            now(),
            (now() - t0).as_secs_f64()
        );
        let peak = sampler.await;
        println!("peak ready pods during burst: {peak}");
        assert!(peak > 1, "autoscaler must have scaled out");

        // Let the scale-to-zero grace pass; min-scale floors at 1.
        sleep(secs(60.0)).await;
        let settled = ready_pods(&bed.knative);
        println!(
            "[{}] settled pods after grace: {settled} (min-scale floor)",
            now()
        );
        assert_eq!(settled, 1);
    });
}
