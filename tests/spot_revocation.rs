//! Revocation-during-drain sweep: the hardest corner of the graceful
//! spot path. Each seed hand-authors a fault plan where a spot node gets
//! its revocation notice and — while its grace window is still draining
//! — a *second* fault crashes the other spot worker outright. The drain
//! protocol and the PR-4/PR-5 crash-plus-rescue machinery must compose:
//! every seed completes every workflow, nothing re-executes, salvaged
//! outputs stay bit-identical, and the whole run replays bitwise.
//!
//! A second sweep runs the traffic the benchmark of record runs: fault
//! plans *sampled* from the heavy-spot profile, through the autoscaled
//! burst, under the same invariants.
//!
//! A failing seed panics with its full [`FaultPlan`] JSON so the run is
//! replayable in isolation; CI's elasticity job archives those plans.

use swf_chaos::{ChaosProfile, FaultKind, FaultPlan};
use swf_elastic::{elastic_plan, run_elastic, ElasticOutcome, ElasticRunConfig};
use swf_simcore::secs;

/// Seeds swept. CI's elasticity job pins the same range.
const SEEDS: std::ops::Range<u64> = 0..32;

/// The hand-authored storm: a spot revocation with an 8 s grace window,
/// a node crash landing inside that window on the *other* spot worker,
/// and recoveries for both. Timing offsets vary with the seed so the
/// sweep covers notices early and late in the burst.
fn revocation_during_drain_plan(seed: u64) -> FaultPlan {
    let revoked = 2 + (seed % 2) as usize; // spot pool is {2, 3}
    let crashed = 5 - revoked; // the other spot worker
    let notice = secs(5.0 + (seed % 7) as f64);
    let grace = secs(8.0);
    let second = notice + secs(2.0 + (seed % 5) as f64); // < notice + grace
    let mut plan = FaultPlan::calm();
    plan.push(
        notice,
        FaultKind::SpotRevoke {
            node: revoked,
            grace,
        },
    );
    plan.push(second, FaultKind::NodeCrash { node: crashed });
    plan.push(
        second + secs(15.0),
        FaultKind::NodeRecover { node: crashed },
    );
    plan.push(
        notice + grace + secs(12.0),
        FaultKind::NodeRecover { node: revoked },
    );
    plan
}

fn run(seed: u64, plan: &FaultPlan) -> ElasticOutcome {
    let cfg = ElasticRunConfig::burst(seed);
    match run_elastic(&cfg, plan) {
        Ok(outcome) => outcome,
        Err(e) => panic!(
            "seed {seed}: harness error: {e}\nreplay this plan:\n{}",
            plan.to_json()
        ),
    }
}

/// The salvage invariants of one run: every workflow completed, nothing
/// salvaged ran again, every salvaged output is bit-identical.
fn assert_salvaged(seed: u64, plan: &FaultPlan, out: &ElasticOutcome) {
    assert!(
        out.chaos.all_completed(),
        "seed {seed}: {}/{} workflows completed; final rescue DAGs: {:?}\n\
         replay this plan:\n{}",
        out.chaos.completed(),
        out.chaos.outcomes.len(),
        out.chaos.rescue_dags,
        plan.to_json()
    );
    assert_eq!(
        out.chaos.goodput.reexecuted_nodes,
        0,
        "seed {seed}: a salvaged node re-executed\nreplay this plan:\n{}",
        plan.to_json()
    );
    assert_eq!(
        out.chaos.goodput.output_mismatches,
        0,
        "seed {seed}: a salvaged output was not bit-identical\nreplay this plan:\n{}",
        plan.to_json()
    );
}

/// Two runs of one seed and plan agree bit for bit, bill included.
fn assert_replays(seed: u64, plan: &FaultPlan, a: &ElasticOutcome, b: &ElasticOutcome) {
    assert_eq!(
        a.chaos.fingerprint(),
        b.chaos.fingerprint(),
        "seed {seed}: replay diverged\nreplay this plan:\n{}",
        plan.to_json()
    );
    assert_eq!(
        a.cost.dollars().to_bits(),
        b.cost.dollars().to_bits(),
        "seed {seed}: the bill diverged across replays\nreplay this plan:\n{}",
        plan.to_json()
    );
}

#[test]
fn revocation_during_drain_sweep_completes_every_seed_without_reexecution() {
    for seed in SEEDS {
        let plan = revocation_during_drain_plan(seed);
        let out = run(seed, &plan);
        assert_salvaged(seed, &plan, &out);
        // The run was actually disrupted — both faults injected — and
        // still billed sensibly.
        assert!(out.chaos.injected >= 2, "seed {seed}: storm was vacuous");
        assert!(out.cost.dollars() > 0.0, "seed {seed}: nothing billed");
    }
}

#[test]
fn revocation_during_drain_replays_bitwise_per_seed() {
    for seed in [1, 14, 27] {
        let plan = revocation_during_drain_plan(seed);
        let a = run(seed, &plan);
        let b = run(seed, &plan);
        assert_replays(seed, &plan, &a, &b);
        assert_eq!(
            a.chaos.goodput, b.chaos.goodput,
            "seed {seed}: goodput diverged"
        );
    }
}

/// The plans `chaos-rescue` runs through `run_elastic` (`benchmark/`):
/// sampled, not authored, so revocations, crashes, registry outages and
/// link faults overlap however the profile's rates make them.
#[test]
fn sampled_heavy_spot_sweep_completes_every_seed_and_replays_bitwise() {
    for seed in SEEDS {
        let pools = ElasticRunConfig::burst(seed).pools;
        let plan = elastic_plan(&ChaosProfile::heavy_spot(), seed, secs(150.0), &pools);
        let out = run(seed, &plan);
        assert_salvaged(seed, &plan, &out);
        assert_replays(seed, &plan, &out, &run(seed, &plan));
    }
}
