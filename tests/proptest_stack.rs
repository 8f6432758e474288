//! Property-based tests over the integrated stack.

use proptest::prelude::*;

use swf_chaos::{ChaosProfile, FaultPlan, SERVICE};
use swf_core::experiments::{run_once, ConcurrentParams};
use swf_core::ExperimentConfig;
use swf_simcore::secs;
use swf_workloads::EnvMix;

/// Sample a `FaultPlan` from an arbitrary seed/profile/horizon triple —
/// the generator side of the chaos properties below.
fn sampled_plan(seed: u64, heavy: bool, horizon_s: f64) -> FaultPlan {
    let profile = if heavy {
        ChaosProfile::heavy()
    } else {
        ChaosProfile::light()
    };
    FaultPlan::sample(
        &profile,
        seed,
        secs(horizon_s),
        0,
        &[1, 2, 3],
        &[SERVICE.to_string()],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The slowest workflow is never faster than the mean, and every
    /// makespan is positive, for arbitrary mixes and small shapes.
    #[test]
    fn slowest_dominates_mean(
        serverless_pct in 0u32..=10,
        container_pct in 0u32..=10,
        workflows in 1usize..=3,
        tasks in 1usize..=3,
    ) {
        let total = serverless_pct + container_pct;
        let (s, c) = if total > 10 {
            (serverless_pct as f64 / total as f64, container_pct as f64 / total as f64)
        } else {
            (serverless_pct as f64 / 10.0, container_pct as f64 / 10.0)
        };
        let config = ExperimentConfig::quick();
        let outcome = run_once(
            &config,
            ConcurrentParams {
                workflows,
                tasks_per_workflow: tasks,
                mix: EnvMix { serverless: s, container: c },
                ..ConcurrentParams::default()
            },
            1,
        );
        prop_assert_eq!(outcome.workflow_makespans.len(), workflows);
        prop_assert!(outcome.slowest >= outcome.mean - 1e-9);
        for m in &outcome.workflow_makespans {
            prop_assert!(*m > 0.0);
        }
    }

    /// Adding tasks to every workflow never reduces the slowest makespan
    /// (monotonicity of the makespan in workload size).
    #[test]
    fn makespan_monotone_in_tasks(tasks in 1usize..=2) {
        let config = ExperimentConfig::quick();
        let run = |t: usize| {
            run_once(
                &config,
                ConcurrentParams {
                    workflows: 2,
                    tasks_per_workflow: t,
                    mix: EnvMix::ALL_NATIVE,
                    ..ConcurrentParams::default()
                },
                0,
            )
            .slowest
        };
        let small = run(tasks);
        let large = run(tasks + 2);
        prop_assert!(
            large > small,
            "more tasks must take longer: {} vs {}",
            large,
            small
        );
    }

    /// Sampled fault plans are always virtual-time ordered, and paired
    /// disruptions (crash/recover, partition/heal, outage start/end) never
    /// leave the stack permanently broken: every opener has a closer.
    #[test]
    fn sampled_plans_are_ordered_and_balanced(
        seed in 0u64..=1000,
        heavy_bit in 0u32..=1,
        horizon_s in 30u32..=300,
    ) {
        let plan = sampled_plan(seed, heavy_bit == 1, horizon_s as f64);
        prop_assert!(plan.events.windows(2).all(|w| w[0].at <= w[1].at));
        prop_assert_eq!(plan.seed, seed);
        let count = |tag: &str| plan.events.iter().filter(|e| e.kind.label() == tag).count();
        prop_assert_eq!(count("node-crash"), count("node-recover"));
        prop_assert_eq!(count("condor-drain"), count("condor-resume"));
        prop_assert_eq!(count("partition"), count("heal"));
        prop_assert_eq!(count("degrade-link"), count("restore-link"));
        prop_assert_eq!(count("registry-outage-start"), count("registry-outage-end"));
    }

    /// Plans survive the JSON round trip bit-exactly (f64 parameters
    /// included) for arbitrary sampled plans.
    #[test]
    fn sampled_plans_round_trip_through_json(
        seed in 0u64..=1000,
        heavy_bit in 0u32..=1,
    ) {
        let plan = sampled_plan(seed, heavy_bit == 1, 120.0);
        let reparsed = FaultPlan::parse(&plan.to_string());
        prop_assert_eq!(Ok(&plan) == reparsed.as_ref(), true, "round trip: {:?}", reparsed);
    }

    /// Sampling is a pure function of (profile, seed, horizon): resampling
    /// replays the identical plan, and nearby seeds are not all identical
    /// (the generator actually uses its seed).
    #[test]
    fn sampling_replays_bitwise_per_seed(seed in 0u64..=500) {
        let a = sampled_plan(seed, true, 120.0);
        let b = sampled_plan(seed, true, 120.0);
        prop_assert_eq!(&a, &b);
        let neighbours: Vec<FaultPlan> =
            (0..8).map(|d| sampled_plan(seed + d, true, 120.0)).collect();
        prop_assert!(
            neighbours.iter().any(|p| p != &a),
            "8 consecutive seeds all sampled the same plan"
        );
    }
}
