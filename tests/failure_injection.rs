//! Failure-injection integration tests: flaky tasks, pod churn, missing
//! data — the stack must degrade the way the real systems do.
//!
//! Infrastructure faults (pod kills, node crashes, drains) are routed
//! through `swf-chaos` [`FaultPlan`]s rather than ad-hoc API calls, so
//! these scenarios double as regression tests for the injector itself;
//! the original assertions are unchanged.

use std::cell::Cell;
use std::rc::Rc;

use bytes::Bytes;

use swf_chaos::{FaultKind, FaultPlan, Injector};
use swf_cluster::{NodeId, Request};
use swf_condor::{run_dag, DagSpec, DagmanConfig, JobContext, JobSpec};
use swf_container::Workload;
use swf_core::{harness, ExperimentConfig, TestBed};
use swf_knative::KService;
use swf_simcore::{secs, SimDuration};

/// Apply one fault immediately through the chaos injector.
async fn inject_now(bed: &TestBed, kind: FaultKind) {
    let mut plan = FaultPlan::calm();
    plan.push(SimDuration::ZERO, kind);
    let injected = Injector::new(plan).run(bed.clone(), None).await;
    assert_eq!(injected, 1);
}

#[test]
fn dagman_retries_recover_transient_task_failures_at_full_stack() {
    harness::run(&ExperimentConfig::quick(), async |bed| {
        let attempts = Rc::new(Cell::new(0u32));
        let attempts2 = Rc::clone(&attempts);
        let flaky = JobSpec::new(move |ctx: JobContext| {
            let attempts = Rc::clone(&attempts2);
            Box::pin(async move {
                ctx.compute(secs(0.2)).await;
                attempts.set(attempts.get() + 1);
                if attempts.get() < 3 {
                    Err("transient storage error".to_string())
                } else {
                    Ok(Bytes::from_static(b"recovered"))
                }
            })
        });
        let mut dag = DagSpec::new();
        dag.add_node_with_retries("flaky", flaky, 5);
        let report = run_dag(&bed.condor, &dag, DagmanConfig::default())
            .await
            .expect("retries recover");
        assert_eq!(attempts.get(), 3);
        assert_eq!(report.jobs_submitted, 3);
        assert!(report.node_results["flaky"].success);
    });
}

#[test]
fn router_survives_pod_deletion_between_requests() {
    harness::run(&ExperimentConfig::quick(), async |bed| {
        bed.knative.register_fn(
            KService::new("svc", bed.image.clone()).with_min_scale(2),
            |req| {
                let b = req.body.clone();
                Workload::new(secs(0.1), move || Ok(b))
            },
        );
        bed.knative.wait_ready("svc", 2, secs(600.0)).await.unwrap();
        // Kill one backing pod behind the router's back.
        inject_now(
            bed,
            FaultKind::PodKill {
                service: "svc".into(),
            },
        )
        .await;
        // Requests keep succeeding (its Deployment replaces the pod; the router
        // retries around endpoints that disappear mid-flight).
        for i in 0..6u8 {
            let resp = bed
                .knative
                .invoke(NodeId(0), "svc", Request::post("/", Bytes::from(vec![i])))
                .await
                .expect("invocation survives churn");
            assert_eq!(&resp.body.to_bytes()[..], &[i]);
        }
        // The deployment heals back to min-scale.
        swf_simcore::sleep(secs(60.0)).await;
        assert!(bed.knative.endpoints("svc").len() >= 2);
    });
}

#[test]
fn node_failure_fails_over_function_pods_and_service_recovers() {
    harness::run(&ExperimentConfig::quick(), async |bed| {
        bed.knative.register_fn(
            KService::new("resilient", bed.image.clone()).with_min_scale(2),
            |req| {
                let b = req.body.clone();
                Workload::new(secs(0.1), move || Ok(b))
            },
        );
        bed.knative
            .wait_ready("resilient", 2, secs(600.0))
            .await
            .unwrap();
        // Find a node hosting one of the function pods and kill it.
        let victim_node = bed
            .k8s
            .api()
            .pods()
            .list()
            .into_iter()
            .find_map(|p| {
                p.meta
                    .labels
                    .contains_key("serving.knative.dev/revision")
                    .then_some(p.status.node)
                    .flatten()
            })
            .expect("a function pod is placed");
        inject_now(
            bed,
            FaultKind::NodeCrash {
                node: victim_node.0,
            },
        )
        .await;
        assert!(!bed.k8s.node_is_ready(victim_node));
        // Let the node controller fail the stranded pods, then wait for the
        // Deployment controller to replace them on healthy nodes.
        swf_simcore::sleep(secs(1.0)).await;
        bed.knative
            .wait_ready("resilient", 2, secs(600.0))
            .await
            .unwrap();
        let endpoints_nodes: Vec<_> = bed
            .knative
            .endpoints("resilient")
            .iter()
            .map(|e| e.node)
            .collect();
        assert!(
            !endpoints_nodes.contains(&victim_node),
            "no routable endpoint may remain on the dead node"
        );
        // Invocations keep succeeding throughout.
        for i in 0..4u8 {
            let resp = bed
                .knative
                .invoke(
                    NodeId(0),
                    "resilient",
                    Request::post("/", Bytes::from(vec![i])),
                )
                .await
                .expect("service survives node loss");
            assert_eq!(&resp.body.to_bytes()[..], &[i]);
        }
        // Recovery: the node can host pods again.
        inject_now(
            bed,
            FaultKind::NodeRecover {
                node: victim_node.0,
            },
        )
        .await;
        assert!(bed.k8s.node_is_ready(victim_node));
    });
}

#[test]
fn missing_staged_input_fails_cleanly_with_diagnostics() {
    harness::run(&ExperimentConfig::quick(), async |bed| {
        let job = JobSpec::new(|_ctx| Box::pin(async { Ok(Bytes::new()) }))
            .with_inputs(vec!["never-staged.mat".into()]);
        let id = bed.condor.submit(job);
        let result = bed.condor.wait(id).await.unwrap();
        assert!(!result.success);
        assert!(
            String::from_utf8_lossy(&result.output).contains("missing input"),
            "{:?}",
            result.output
        );
    });
}

#[test]
fn draining_a_condor_worker_mid_workflow_still_completes() {
    harness::run(&ExperimentConfig::quick(), async |bed| {
        let victim = bed.condor.startds()[0].node().id();
        // A batch of compute jobs; drain one worker while they queue.
        let mk = || {
            JobSpec::new(|ctx: JobContext| {
                Box::pin(async move {
                    ctx.compute(secs(0.3)).await;
                    Ok(Bytes::from_static(b"done"))
                })
            })
        };
        inject_now(bed, FaultKind::CondorDrain { node: victim.0 }).await;
        assert!(!bed.condor.drain_node(swf_cluster::NodeId(99)));
        let ids: Vec<_> = (0..12).map(|_| bed.condor.submit(mk())).collect();
        for id in ids {
            let r = bed.condor.wait(id).await.unwrap();
            assert!(r.success);
            assert_ne!(r.node, victim, "drained node must not run new jobs");
        }
        assert!(bed.condor.undrain_node(victim));
    });
}

#[test]
fn function_error_fails_the_workflow_task_not_the_platform() {
    harness::run(&ExperimentConfig::quick(), async |bed| {
        bed.knative.register_fn(
            KService::new("faulty", bed.image.clone()).with_min_scale(1),
            |_req| Workload::new(secs(0.05), || Err("simulated numerical failure".into())),
        );
        bed.knative
            .wait_ready("faulty", 1, secs(600.0))
            .await
            .unwrap();
        let err = bed
            .knative
            .invoke(NodeId(0), "faulty", Request::post("/", Bytes::new()))
            .await
            .unwrap_err();
        assert!(err.to_string().contains("numerical failure"));
        // The platform is still healthy: a good service works right after.
        bed.knative.register_fn(
            KService::new("good", bed.image.clone()).with_min_scale(1),
            |req| {
                let b = req.body.clone();
                Workload::new(secs(0.05), move || Ok(b))
            },
        );
        bed.knative
            .wait_ready("good", 1, secs(600.0))
            .await
            .unwrap();
        let resp = bed
            .knative
            .invoke(
                NodeId(0),
                "good",
                Request::post("/", Bytes::from_static(b"ok")),
            )
            .await
            .unwrap();
        assert_eq!(&resp.body.to_bytes()[..], b"ok");
    });
}
