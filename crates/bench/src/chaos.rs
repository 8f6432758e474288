//! The fault sweeps: the concurrent-workflow experiment under a fault plan
//! sampled from a [`ChaosProfile`], seed by seed, beside the same seed's
//! calm run — the scenarios of the suite's `chaos` label.
//!
//! A row reports the faults injected, the task failures, the workflows
//! completed and the calm vs chaos makespan; a rescue sweep adds its
//! goodput (rescue rounds, nodes and task-seconds salvaged, task-seconds
//! wasted). Every seed that left a workflow incomplete keeps its
//! replayable [`FaultPlan`] in the record's `failing_plans`
//! (`FaultPlan::from_json` → `swf_chaos::run_chaos` replays it, and the
//! outcome's `metrics` hold the per-fault `chaos.*` counters). Under rescue
//! completion is the invariant: such a seed fails the run and its final
//! rescue DAGs are archived in `rescue_dags`. Without rescue an incomplete
//! workflow is data.

use serde_json::{Map, Value};
use swf_chaos::{run_chaos, ChaosOutcome, ChaosProfile, ChaosRunConfig, FaultPlan, SERVICE};
use swf_simcore::secs;

/// The seeds every sweep runs, at either scale.
pub const SEEDS: std::ops::Range<u64> = 0..32;

/// One seed of a sweep: the calm run's makespan beside the faulted run.
pub struct SweepRow {
    /// The seed: it drives the testbed and samples the plan.
    pub seed: u64,
    /// Makespan of the same seed with no faults, in virtual seconds.
    pub calm_s: f64,
    /// The run under the sampled plan (`chaos.plan`).
    pub chaos: ChaosOutcome,
}

/// A fault sweep over [`SEEDS`].
pub struct Sweep {
    /// Name of the sampled profile.
    pub profile: &'static str,
    /// Whether every workflow had a resume budget and the self-healing
    /// stack ([`ChaosRunConfig::rescue`]).
    pub rescue: bool,
    /// One row per seed, in seed order.
    pub rows: Vec<SweepRow>,
}

/// Run every seed of [`SEEDS`] calm and under `profile`'s plan for it,
/// with [`ChaosRunConfig::rescue`] or [`ChaosRunConfig::quick`]. A run
/// that cannot boot its stack is a bug in the harness, not a data point:
/// it panics naming the seed.
pub fn run_sweep(profile: &'static str, faults: &ChaosProfile, rescue: bool) -> Sweep {
    let rows = SEEDS
        .map(|seed| {
            let cfg = if rescue {
                ChaosRunConfig::rescue(seed)
            } else {
                ChaosRunConfig::quick(seed)
            };
            let plan = FaultPlan::sample(
                faults,
                seed,
                secs(120.0),
                0,
                &[1, 2, 3],
                &[SERVICE.to_string()],
            );
            let run = |plan: &FaultPlan, what: &str| {
                run_chaos(&cfg, plan)
                    .unwrap_or_else(|e| panic!("seed {seed} {what} run failed: {e}"))
            };
            let calm = run(&FaultPlan::calm(), "calm");
            SweepRow {
                seed,
                calm_s: calm.makespan.as_secs_f64(),
                chaos: run(&plan, "chaos"),
            }
        })
        .collect();
    Sweep {
        profile,
        rescue,
        rows,
    }
}

impl Sweep {
    /// Rows whose faulted run left a workflow incomplete.
    fn incomplete(&self) -> impl Iterator<Item = &SweepRow> {
        self.rows.iter().filter(|r| !r.chaos.all_completed())
    }

    /// Final rescue DAGs (seed, workflow, JSON) of incomplete rows: an
    /// artifact only of a sweep whose invariant is completion.
    fn rescue_dags(&self) -> impl Iterator<Item = (u64, &str, &str)> {
        self.incomplete().filter(|_| self.rescue).flat_map(|r| {
            r.chaos
                .rescue_dags
                .iter()
                .map(move |(wf, json)| (r.seed, wf.as_str(), json.as_str()))
        })
    }

    /// `Err` naming the seeds when a rescue sweep left a workflow
    /// incomplete; a sweep without rescue records them as data.
    pub fn verdict(&self) -> Result<(), String> {
        let seeds: Vec<String> = self.incomplete().map(|r| r.seed.to_string()).collect();
        if !self.rescue || seeds.is_empty() {
            return Ok(());
        }
        Err(format!(
            "{} of {} seeds left a workflow incomplete under rescue ({} profile): seeds {}",
            seeds.len(),
            self.rows.len(),
            self.profile,
            seeds.join(", ")
        ))
    }

    /// The deterministic `virtual` section: the rows, every failing
    /// seed's plan and (under rescue) the final rescue DAGs.
    pub fn to_json(&self) -> Value {
        let rows = self.rows.iter().map(|r| {
            let (c, g) = (&r.chaos, &r.chaos.goodput);
            let mut row: Vec<(&str, Value)> = vec![
                ("seed", r.seed.into()),
                ("injected", c.injected.into()),
                ("task_failures", c.task_failures.into()),
                ("completed", (c.completed() as u64).into()),
                ("workflows", (c.outcomes.len() as u64).into()),
                ("calm_makespan_s", r.calm_s.into()),
                ("chaos_makespan_s", c.makespan.as_secs_f64().into()),
            ];
            if self.rescue {
                row.extend([
                    ("rescue_rounds", g.rescue_rounds.into()),
                    ("nodes_salvaged", g.nodes_salvaged.into()),
                    ("salvaged_task_s", g.salvaged_task_s.into()),
                    ("wasted_task_s", g.wasted_task_s.into()),
                    ("workflows_rescued", g.workflows_rescued.into()),
                    ("mean_recovery_s", g.mean_recovery_s.into()),
                ]);
            }
            Value::Object(row.into_iter().collect())
        });
        let plans = self.incomplete().map(|r| r.chaos.plan.to_json());
        let dags = self.rescue_dags().map(|(seed, wf, json)| {
            let dag = [
                ("seed", seed.into()),
                ("workflow", wf.into()),
                ("rescue", json.into()),
            ];
            Value::Object(Map::from_iter(dag))
        });
        Value::Object(Map::from_iter([
            ("profile", self.profile.into()),
            ("rescue", self.rescue.into()),
            ("rows", Value::Array(rows.collect())),
            ("failing_plans", Value::Array(plans.collect())),
            ("rescue_dags", Value::Array(dags.collect())),
        ]))
    }

    /// The table a person reads, then each failing seed's replayable plan
    /// and (under rescue) each final rescue DAG.
    pub fn report(&self) -> String {
        let mut s = format!(
            "## chaos seed sweep ({} profile, {} seeds{})\n",
            self.profile,
            self.rows.len(),
            if self.rescue {
                ", rescue-resume armed"
            } else {
                ""
            }
        );
        s.push_str("seed  inj  task-fail  done  calm [s]  chaos [s]  slowdown");
        if self.rescue {
            s.push_str("  rounds  salvaged  salv [s]  waste [s]");
        }
        s.push('\n');
        for r in &self.rows {
            let c = &r.chaos;
            let chaos_s = c.makespan.as_secs_f64();
            let slowdown = if r.calm_s > 0.0 {
                chaos_s / r.calm_s
            } else {
                1.0
            };
            s.push_str(&format!(
                "{:>4}  {:>3}  {:>9}  {:>2}/{}  {:>8.3}  {chaos_s:>9.3}  {slowdown:>7.2}x",
                r.seed,
                c.injected,
                c.task_failures,
                c.completed(),
                c.outcomes.len(),
                r.calm_s,
            ));
            if self.rescue {
                let g = &c.goodput;
                s.push_str(&format!(
                    "  {:>6}  {:>8}  {:>8.3}  {:>9.3}",
                    g.rescue_rounds, g.nodes_salvaged, g.salvaged_task_s, g.wasted_task_s,
                ));
            }
            s.push('\n');
        }
        for r in self.incomplete() {
            s.push_str(&format!(
                "\nseed {} did not complete every workflow; replay with this plan:\n{}\n",
                r.seed, r.chaos.plan
            ));
        }
        for (seed, wf, json) in self.rescue_dags() {
            s.push_str(&format!(
                "\nseed {seed} workflow {wf} final rescue DAG:\n{json}\n"
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swf_chaos::FaultKind;

    /// A seed whose every task attempt fails for long enough to exhaust
    /// DAGMan's retries, with no resume budget: incomplete.
    fn incomplete_row() -> SweepRow {
        let mut plan = FaultPlan::calm();
        plan.push(
            secs(5.0),
            FaultKind::FlakyTasks {
                window: secs(30.0),
                fail_chance: 1.0,
            },
        );
        let chaos = run_chaos(&ChaosRunConfig::quick(3), &plan).expect("run boots");
        assert!(
            !chaos.all_completed(),
            "the forced failure must halt a workflow"
        );
        SweepRow {
            seed: 3,
            calm_s: 1.0,
            chaos,
        }
    }

    #[test]
    fn an_incomplete_row_fails_a_rescue_sweep_and_is_data_without_rescue() {
        let mut sweep = Sweep {
            profile: "forced",
            rescue: false,
            rows: vec![incomplete_row()],
        };
        assert_eq!(sweep.verdict(), Ok(()));
        let data = sweep.to_json();
        assert_eq!(data["failing_plans"].as_array().map(Vec::len), Some(1));
        assert_eq!(data["rescue_dags"].as_array().map(Vec::len), Some(0));
        assert!(sweep.report().contains("seed 3 did not complete"));

        sweep.rescue = true;
        let err = sweep.verdict().unwrap_err();
        assert!(err.contains("seeds 3"), "{err}");
        let failed = sweep.to_json();
        assert_eq!(failed["failing_plans"], data["failing_plans"]);
        assert!(failed["rows"][0].get("rescue_rounds").is_some());
    }
}
