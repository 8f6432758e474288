//! The elastic experiment: the chaos harness with autoscalers, spot
//! pools, and the cost ledger attached.
//!
//! [`run_elastic`] runs the chaos body ([`swf_chaos::run_chaos_on`]) on the
//! same testbed through the same run harness: same workflow chains, same
//! injector — plus, attached at the start of its own body, a
//! [`PoolAutoscaler`] over the spot pool and a [`CostLedger`] billing every
//! pooled node. With an all-on-demand pool set there is nothing to
//! scale, and the run is the plain chaos run plus passive billing: same
//! fingerprint, same outcomes.

use swf_chaos::{ChaosOutcome, ChaosProfile, ChaosRunConfig, FaultPlan};
use swf_cluster::NodeId;
use swf_core::harness;
use swf_simcore::SimDuration;

use crate::autoscaler::PoolAutoscaler;
use crate::cost::{CostLedger, CostReport};
use crate::pool::PoolSet;

/// Shape of one elastic experiment run.
#[derive(Clone)]
pub struct ElasticRunConfig {
    /// The underlying chaos-run shape (workflows, tasks, rescue budget).
    pub chaos: ChaosRunConfig,
    /// Which workers exist at which price class. A [`PoolAutoscaler`]
    /// runs over the spot pool when there is one (spot capacity then
    /// starts scaled in and grows on demand); without spot workers this
    /// is the static cluster the chaos suite has always run.
    pub pools: PoolSet,
}

impl ElasticRunConfig {
    /// The head-to-head shape used by the `elastic` bench scenario:
    /// enough concurrent chains (12 × 4 tasks) that one 8-slot on-demand
    /// worker cannot hold the burst, so the scalers must grow the spot
    /// pool, with rescue-resume armed as the revocation safety net.
    pub fn burst(seed: u64) -> ElasticRunConfig {
        let mut chaos = ChaosRunConfig::rescue(seed);
        chaos.workflows = 12;
        ElasticRunConfig {
            chaos,
            pools: PoolSet::split(vec![1], vec![2, 3]),
        }
    }

    /// The static baseline: every worker on-demand, so no autoscaling —
    /// the pre-elastic cluster with a price tag attached.
    pub fn static_cluster(seed: u64) -> ElasticRunConfig {
        let mut c = ElasticRunConfig::burst(seed);
        c.pools = PoolSet::all_on_demand(&[1, 2, 3]);
        c
    }
}

/// Sample a fault plan for an elastic run: every non-spot class drawn
/// over all pooled workers exactly as [`FaultPlan::sample`] would, and
/// the spot-revocation class drawn over the spot pool only — reserved
/// capacity is never revoked.
pub fn elastic_plan(
    profile: &ChaosProfile,
    seed: u64,
    horizon: SimDuration,
    pools: &PoolSet,
) -> FaultPlan {
    let workers = pools.nodes();
    let mut base = *profile;
    base.spot_revoke_interval = 0.0;
    let mut plan = FaultPlan::sample(
        &base,
        seed,
        horizon,
        0,
        &workers,
        &[swf_chaos::SERVICE.to_string()],
    );
    plan.merge(FaultPlan::sample_spots(
        profile,
        seed,
        horizon,
        &pools.spot_nodes(),
    ));
    plan
}

/// Everything one elastic run yields: the chaos outcome plus the bill.
#[derive(Clone, Debug)]
pub struct ElasticOutcome {
    /// The underlying chaos outcome (workflow outcomes, goodput, plan).
    pub chaos: ChaosOutcome,
    /// The bill, clipped to the run's settle instant.
    pub cost: CostReport,
    /// Nominal task-seconds of completed workflows (workflows completed
    /// × tasks per workflow × nominal task seconds) — the "useful work"
    /// numerator of perf-per-dollar.
    pub useful_task_s: f64,
    /// Useful task-seconds per dollar.
    pub perf_per_dollar: f64,
}

impl ElasticOutcome {
    /// Salvaged task-seconds over salvaged + wasted: how much of the
    /// disruption-touched work the rescue machinery carried forward.
    /// 1.0 when nothing was disrupted.
    pub fn salvage_ratio(&self) -> f64 {
        let g = &self.chaos.goodput;
        let touched = g.salvaged_task_s + g.wasted_task_s;
        if touched > 0.0 {
            g.salvaged_task_s / touched
        } else {
            1.0
        }
    }
}

/// Run one elastic experiment. `Err` only on harness setup failure, as
/// with [`swf_chaos::run_chaos`].
pub fn run_elastic(cfg: &ElasticRunConfig, plan: &FaultPlan) -> Result<ElasticOutcome, String> {
    let ledger = CostLedger::new(cfg.pools.clone());
    let body_ledger = ledger.clone();
    let (chaos_cfg, pools, plan) = (cfg.chaos.clone(), cfg.pools.clone(), plan.clone());
    let chaos = harness::run(&cfg.chaos.testbed_config(), async move |bed| {
        body_ledger.open_all();
        swf_simcore::spawn(body_ledger.clone().track_plan(plan.clone()));
        let spot: Vec<NodeId> = pools.spot_nodes().into_iter().map(NodeId).collect();
        if !spot.is_empty() {
            let api = bed.k8s.api().clone();
            let scaler = PoolAutoscaler::new(bed.condor.clone(), api, spot, body_ledger);
            swf_simcore::spawn(scaler.run());
        }
        swf_chaos::run_chaos_on(bed, &chaos_cfg, plan).await
    })
    .0?;
    let useful_task_s = chaos.completed() as f64
        * swf_chaos::TASKS_PER_WORKFLOW as f64
        * swf_chaos::TASK_COMPUTE.as_secs_f64();
    let cost = ledger.report_at(chaos.settled_at);
    let perf_per_dollar = cost.perf_per_dollar(useful_task_s);
    Ok(ElasticOutcome {
        chaos,
        cost,
        useful_task_s,
        perf_per_dollar,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use swf_simcore::secs;

    #[test]
    fn static_calm_run_matches_plain_chaos_fingerprint_and_bills_flat() {
        let cfg = ElasticRunConfig::static_cluster(3);
        let plain = swf_chaos::run_chaos(&cfg.chaos, &FaultPlan::calm()).unwrap();
        let elastic = run_elastic(&cfg, &FaultPlan::calm()).unwrap();
        // Passive billing must not perturb the simulation.
        assert_eq!(plain.fingerprint(), elastic.chaos.fingerprint());
        assert!(elastic.chaos.all_completed());
        // Three on-demand workers billed for the whole run, no spot.
        assert_eq!(elastic.cost.spot_node_s, 0.0);
        assert!(elastic.cost.on_demand_node_s > 0.0);
        assert!(elastic.perf_per_dollar > 0.0);
        assert_eq!(elastic.salvage_ratio(), 1.0);
    }

    #[test]
    fn burst_run_scales_out_under_pressure_and_costs_less_per_unit() {
        let stat = run_elastic(&ElasticRunConfig::static_cluster(7), &FaultPlan::calm()).unwrap();
        let burst = run_elastic(&ElasticRunConfig::burst(7), &FaultPlan::calm()).unwrap();
        assert!(stat.chaos.all_completed());
        assert!(
            burst.chaos.all_completed(),
            "calm burst must complete: {:?}",
            burst.chaos.outcomes
        );
        // The burst pool scaled out at least one spot worker…
        let ups = burst
            .chaos
            .metrics
            .counters
            .get("condor.pool.scale_ups")
            .copied()
            .unwrap_or(0);
        assert!(ups >= 1, "12 chains over 8 slots must scale out");
        // …and pay-for-use spot beats always-on on-demand per dollar.
        assert!(
            burst.perf_per_dollar > stat.perf_per_dollar,
            "burst {} vs static {}",
            burst.perf_per_dollar,
            stat.perf_per_dollar
        );
        // Determinism: the whole elastic pipeline replays bitwise.
        let again = run_elastic(&ElasticRunConfig::burst(7), &FaultPlan::calm()).unwrap();
        assert_eq!(burst.chaos.fingerprint(), again.chaos.fingerprint());
        assert_eq!(
            burst.cost.dollars().to_bits(),
            again.cost.dollars().to_bits()
        );
    }

    #[test]
    fn revocation_storm_completes_via_drain_and_rescue() {
        let cfg = ElasticRunConfig::burst(11);
        let plan = elastic_plan(&ChaosProfile::heavy_spot(), 11, secs(150.0), &cfg.pools);
        assert!(
            plan.events
                .iter()
                .any(|e| matches!(e.kind, swf_chaos::FaultKind::SpotRevoke { .. })),
            "the storm must contain revocations"
        );
        let out = run_elastic(&cfg, &plan).unwrap();
        assert!(
            out.chaos.all_completed(),
            "drain + rescue must complete every chain: {:?}",
            out.chaos.outcomes
        );
        assert_eq!(out.chaos.goodput.reexecuted_nodes, 0);
        assert_eq!(out.chaos.goodput.output_mismatches, 0);
        assert!(out.cost.dollars() > 0.0);
    }
}
