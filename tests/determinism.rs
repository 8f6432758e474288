//! Whole-stack determinism: two fresh simulations with the same seeds must
//! reproduce every observable — makespans, per-workflow timings, network
//! byte counts and container lifecycle counters — bit for bit.

use swf_core::experiments::{run_once, ConcurrentParams};
use swf_core::{harness, ExperimentConfig};
use swf_simcore::secs;
use swf_workloads::EnvMix;

#[test]
fn concurrent_experiment_is_bit_reproducible() {
    let config = ExperimentConfig::quick();
    let params = ConcurrentParams {
        workflows: 3,
        tasks_per_workflow: 3,
        mix: EnvMix {
            serverless: 0.4,
            container: 0.3,
        },
        ..ConcurrentParams::default()
    };
    let a = run_once(&config, params, 5);
    let b = run_once(&config, params, 5);
    assert_eq!(a.workflow_makespans, b.workflow_makespans);
    assert_eq!(a.slowest, b.slowest);
}

#[test]
fn different_reps_actually_differ() {
    let config = ExperimentConfig::quick();
    let params = ConcurrentParams {
        workflows: 3,
        tasks_per_workflow: 3,
        mix: EnvMix::ALL_SERVERLESS,
        ..ConcurrentParams::default()
    };
    let a = run_once(&config, params, 0);
    let b = run_once(&config, params, 1);
    // Different repetition seeds redraw jitter and assignments.
    assert_ne!(
        a.workflow_makespans, b.workflow_makespans,
        "distinct reps should not coincide exactly"
    );
}

#[test]
fn testbed_boot_is_reproducible_to_the_byte() {
    let observe = || {
        harness::run(&ExperimentConfig::quick(), async |bed| {
            swf_core::register_matmul(&bed.knative, &bed.config);
            bed.knative
                .wait_ready("matmul", 1, secs(600.0))
                .await
                .unwrap();
            (
                swf_simcore::now().as_nanos(),
                bed.cluster.network().bytes_moved(),
                bed.registry.bytes_served(),
                bed.k8s.api().pods().len(),
            )
        })
        .0
    };
    let a = observe();
    let b = observe();
    assert_eq!(a, b);
}

#[test]
fn traced_fig6_scenario_is_bit_reproducible() {
    // A fig6-style mixed run with tracing on: the span tree and the derived
    // critical-path breakdown must come out byte-identical across two fresh
    // simulations, not just the scalar makespans.
    let run = || {
        let mut config = ExperimentConfig::quick();
        config.trace = true;
        let params = ConcurrentParams {
            workflows: 3,
            tasks_per_workflow: 3,
            mix: EnvMix {
                serverless: 0.4,
                container: 0.3,
            },
            ..ConcurrentParams::default()
        };
        run_once(&config, params, 2)
    };
    let a = run();
    let b = run();
    assert_eq!(a.workflow_makespans, b.workflow_makespans);

    let spans_a = a.obs.spans();
    let spans_b = b.obs.spans();
    assert!(!spans_a.is_empty(), "tracing enabled but no spans recorded");
    let tree = |spans: &[swf_obs::Span]| format!("{spans:#?}");
    assert_eq!(
        tree(&spans_a),
        tree(&spans_b),
        "span trees must be byte-identical across reruns"
    );

    let bd_a = swf_core::slowest_workflow_breakdown(&a.obs).expect("breakdown");
    let bd_b = swf_core::slowest_workflow_breakdown(&b.obs).expect("breakdown");
    assert_eq!(bd_a, bd_b, "critical-path breakdowns must match");
    assert_eq!(bd_a.render_breakdown(), bd_b.render_breakdown());
}

#[test]
fn tracing_does_not_perturb_virtual_time() {
    // Spans are pure annotation: the same scenario with tracing on and off
    // must produce identical makespans to the last bit.
    let run = |trace: bool| {
        let mut config = ExperimentConfig::quick();
        config.trace = trace;
        run_once(
            &config,
            ConcurrentParams {
                workflows: 3,
                tasks_per_workflow: 3,
                mix: EnvMix {
                    serverless: 0.4,
                    container: 0.3,
                },
                ..ConcurrentParams::default()
            },
            1,
        )
    };
    let traced = run(true);
    let plain = run(false);
    assert_eq!(traced.workflow_makespans, plain.workflow_makespans);
    assert_eq!(traced.slowest, plain.slowest);
    assert_eq!(plain.obs.span_count(), 0);
}

#[test]
fn seed_changes_propagate_everywhere() {
    let run = |seed: u64| {
        let mut config = ExperimentConfig::quick();
        config.seed = seed;
        run_once(
            &config,
            ConcurrentParams {
                workflows: 2,
                tasks_per_workflow: 3,
                mix: EnvMix::ALL_NATIVE,
                ..ConcurrentParams::default()
            },
            0,
        )
        .slowest
    };
    // Different seeds → different jitter draws → different makespans.
    assert_ne!(run(1), run(2));
}
