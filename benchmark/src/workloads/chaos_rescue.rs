//! `chaos-rescue`: seed sweeps of the fault-injection and elasticity
//! harnesses.
//!
//! The same control plane as `ctrl-scale` used differently: hundreds of
//! short runs, each booting its own testbed, under heavy fault plans with
//! rescue-resume armed, and autoscaled spot pools under revocation storms.
//! Faults, requeues, rescue-DAG JSON round trips, autoscalers and thousands
//! of `TestBed::boot`s — sweep throughput is what model checking will spend.

use serde_json::{json, Value};
use swf_chaos::{run_chaos, ChaosOutcome, ChaosProfile, ChaosRunConfig, FaultPlan};
use swf_elastic::{elastic_plan, run_elastic, ElasticRunConfig};
use swf_simcore::secs;

use crate::isolate;
use crate::tracer::Tracer;
use crate::workload::{seed_block, Checks, LayerCtx, PassOut, Values, Workload};

/// Virtual horizon faults are sampled over: past the calm makespan of the
/// chaos shape, as the repository's own sweeps use.
const CHAOS_HORIZON_S: f64 = 120.0;
/// The same for the elastic burst shape.
const ELASTIC_HORIZON_S: f64 = 150.0;

pub struct ChaosRescue {
    seed: u64,
    chaos: Vec<(ChaosRunConfig, FaultPlan)>,
    elastic: Vec<(ElasticRunConfig, FaultPlan)>,
}

/// One chaos run's inputs. The fault plan comes from `plan_seed`, the stack's
/// own random streams (testbed, disruptor coin flips, router retry jitter)
/// from `seed`.
fn chaos_input(plan_seed: u64, seed: u64) -> (ChaosRunConfig, FaultPlan) {
    let plan = FaultPlan::sample(
        &ChaosProfile::heavy(),
        plan_seed,
        secs(CHAOS_HORIZON_S),
        0,
        &[1, 2, 3],
        &[swf_chaos::SERVICE.to_string()],
    );
    (ChaosRunConfig::rescue(seed), plan)
}

/// The same for one elastic run.
fn elastic_input(plan_seed: u64, seed: u64) -> (ElasticRunConfig, FaultPlan) {
    let config = ElasticRunConfig::burst(seed);
    let plan = elastic_plan(
        &ChaosProfile::heavy_spot(),
        plan_seed,
        secs(ELASTIC_HORIZON_S),
        &config.pools,
    );
    (config, plan)
}

/// Count one run's workflows, and check the rescue invariants: every
/// workflow completed, no salvaged node ran again, every salvaged output is
/// the one the final report holds.
fn check_outcome(what: &str, seed: u64, outcome: &ChaosOutcome, checks: &mut Checks) {
    checks.passed(outcome.completed() as u64);
    for _ in outcome.completed()..outcome.outcomes.len() {
        checks.check(false, || {
            format!("{what} seed {seed}: a workflow did not complete")
        });
    }
    let goodput = &outcome.goodput;
    checks.check(
        goodput.reexecuted_nodes == 0 && goodput.output_mismatches == 0,
        || {
            format!(
                "{what} seed {seed}: {} nodes re-executed, {} outputs mismatched",
                goodput.reexecuted_nodes, goodput.output_mismatches
            )
        },
    );
}

impl ChaosRescue {
    pub fn new(seed: u64, smoke: bool, _tr: &Tracer, checks: &mut Checks) -> ChaosRescue {
        let (chaos_seeds, elastic_seeds) = if smoke { (26, 13) } else { (512, 256) };
        // The fault plans are a fixed corpus (plan seeds 0, 1, 2, …): host
        // time per plan is so heavy-tailed (a few plans in a thousand cost a
        // hundred times the median) that a corpus drawn afresh per benchmark
        // seed would make the sweep's time a lottery. What the benchmark
        // seed re-roots is every random stream of the stack under each plan;
        // those seeds are disjoint between benchmark seeds.
        let base = seed_block(seed);
        let mut this = ChaosRescue {
            seed,
            chaos: (0..chaos_seeds).map(|i| chaos_input(i, base + i)).collect(),
            elastic: (0..elastic_seeds)
                .map(|i| elastic_input(i, base + i))
                .collect(),
        };
        // Warm-up: the first few seeds of each sweep, checked like the rest.
        let (chaos, elastic) = (this.chaos.split_off(4), this.elastic.split_off(2));
        this.pass(&Tracer::off(), checks);
        this.chaos.extend(chaos);
        this.elastic.extend(elastic);
        this
    }
}

impl Workload for ChaosRescue {
    fn pass(&mut self, tr: &Tracer, checks: &mut Checks) -> PassOut {
        let (mut salvaged, mut wasted) = (0.0, 0.0);
        let (mut injected, mut rounds, mut scale_ups) = (0u64, 0u64, 0u64);
        let mut makespan_sum = 0.0;
        let mut perf_sum = 0.0;
        let mut tally = |outcome: &ChaosOutcome| {
            salvaged += outcome.goodput.salvaged_task_s;
            wasted += outcome.goodput.wasted_task_s;
            injected += outcome.injected;
            rounds += outcome.goodput.rescue_rounds;
        };
        for (config, plan) in &self.chaos {
            let outcome = tr.span("chaos.run", || run_chaos(config, plan));
            if let Some(outcome) = checks.check_result(outcome, "run_chaos") {
                check_outcome("chaos", config.seed, &outcome, checks);
                tally(&outcome);
                makespan_sum += outcome.makespan.as_secs_f64();
            }
        }
        for (config, plan) in &self.elastic {
            let outcome = tr.span("elastic.run", || run_elastic(config, plan));
            if let Some(outcome) = checks.check_result(outcome, "run_elastic") {
                check_outcome("elastic", config.chaos.seed, &outcome.chaos, checks);
                tally(&outcome.chaos);
                perf_sum += outcome.perf_per_dollar;
                scale_ups += outcome
                    .chaos
                    .metrics
                    .counter("condor.pool.scale_ups")
                    .unwrap_or(0);
            }
        }
        let mut out = PassOut::default();
        out.exact
            .insert("makespan_s", makespan_sum / self.chaos.len() as f64);
        let touched = salvaged + wasted;
        out.exact.insert(
            "salvage_ratio",
            if touched > 0.0 {
                salvaged / touched
            } else {
                1.0
            },
        );
        out.exact
            .insert("perf_per_dollar", perf_sum / self.elastic.len() as f64);
        out.exact.insert("chaos.injected", injected as f64);
        out.exact.insert("chaos.rescue_rounds", rounds as f64);
        out.exact.insert("elastic.scale_ups", scale_ups as f64);
        out
    }

    fn layers(&mut self, ctx: &LayerCtx, _checks: &mut Checks, out: &mut Values) {
        out.insert(
            "chaos.run_ms_per_seed",
            ctx.tr.totals("chaos.run").self_ms_per_span(),
        );
        out.insert(
            "elastic.run_ms_per_seed",
            ctx.tr.totals("elastic.run").self_ms_per_span(),
        );
        isolate::chaos_plans(ctx.tr, self.seed, ctx.scale, out);
        isolate::simcore(ctx.tr, ctx.scale, out);
        isolate::core(
            ctx.tr,
            &swf_chaos::experiment_config(self.seed),
            ctx.scale,
            out,
        );
    }

    fn sizes(&self) -> Value {
        json!({
            "chaos_seeds": (self.chaos.len()),
            "chaos_shape": "ChaosRunConfig::rescue: 3 chains x 4 tasks, heavy profile, 120 s horizon",
            "elastic_seeds": (self.elastic.len()),
            "elastic_shape": "ElasticRunConfig::burst: 12 chains x 4 tasks, heavy-spot profile, 150 s horizon",
        })
    }
}
