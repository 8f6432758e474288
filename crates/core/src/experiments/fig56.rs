//! Figures 5 and 6: the performance–isolation trade-off.
//!
//! Fig. 5 sweeps the simplex of environment mixes and reports the average
//! makespan of the slowest of 10 concurrent workflows per mix. Fig. 6 is
//! the five highlighted mixes as bars: all-native (fastest, ≈ 250 s in the
//! paper), half-serverless, all-serverless (≈ 1.08× native), half-container,
//! all-container (slowest).

use swf_metrics::{fig6_mixes, simplex_grid, MixPoint};
use swf_workloads::EnvMix;

use crate::config::ExperimentConfig;
use crate::experiments::concurrent::{average_slowest, ConcurrentParams};

/// One Fig. 5 grid sample.
#[derive(Clone, Copy, Debug)]
pub struct Fig5Row {
    /// The mix point.
    pub mix: MixPoint,
    /// Average slowest-workflow makespan (s).
    pub makespan: f64,
}

/// Full Fig. 5 result.
#[derive(Clone, Debug)]
pub struct Fig5Result {
    /// Samples over the simplex grid.
    pub rows: Vec<Fig5Row>,
    /// Critical-path breakdown per row (same order), from the slowest
    /// traced workflow of each point's first repetition; `None` entries
    /// when tracing is disabled.
    pub breakdowns: Vec<Option<swf_obs::CriticalPath>>,
    /// Span collector per row (same order; disabled handles when tracing
    /// is off) — feeds `--trace-out` export.
    pub collectors: Vec<swf_obs::Obs>,
}

impl Fig5Result {
    /// The fastest sampled mix.
    #[expect(clippy::expect_used, reason = "`run_fig5` samples at least one mix")]
    pub fn best(&self) -> Fig5Row {
        *self
            .rows
            .iter()
            .min_by(|a, b| a.makespan.total_cmp(&b.makespan))
            .expect("non-empty grid")
    }

    /// The slowest sampled mix.
    #[expect(clippy::expect_used, reason = "`run_fig5` samples at least one mix")]
    pub fn worst(&self) -> Fig5Row {
        *self
            .rows
            .iter()
            .max_by(|a, b| a.makespan.total_cmp(&b.makespan))
            .expect("non-empty grid")
    }
}

fn mix_of(point: MixPoint) -> EnvMix {
    EnvMix {
        serverless: point.serverless,
        container: point.container,
    }
}

/// Run the Fig. 5 sweep: `steps` grid subdivisions, `repeats` reps/point.
pub fn run_fig5(
    config: &ExperimentConfig,
    steps: usize,
    workflows: usize,
    tasks_per_workflow: usize,
    repeats: u64,
) -> Fig5Result {
    let mut rows = Vec::new();
    let mut breakdowns = Vec::new();
    let mut collectors = Vec::new();
    for mix in simplex_grid(steps) {
        let params = ConcurrentParams {
            workflows,
            tasks_per_workflow,
            mix: mix_of(mix),
            ..ConcurrentParams::default()
        };
        let (makespan, outcomes) = average_slowest(config, params, repeats);
        let obs = outcomes.first().map(|o| o.obs.clone()).unwrap_or_default();
        breakdowns.push(crate::breakdown::slowest_workflow_breakdown(&obs));
        collectors.push(obs);
        rows.push(Fig5Row { mix, makespan });
    }
    Fig5Result {
        rows,
        breakdowns,
        collectors,
    }
}

/// One Fig. 6 bar.
#[derive(Clone, Debug)]
pub struct Fig6Row {
    /// Bar label (paper order).
    pub label: &'static str,
    /// The mix.
    pub mix: MixPoint,
    /// Average slowest-workflow makespan (s).
    pub makespan: f64,
    /// Ratio to the all-native bar.
    pub vs_native: f64,
    /// Critical-path breakdown of the slowest traced workflow in the first
    /// repetition (`None` when tracing is disabled).
    pub breakdown: Option<swf_obs::CriticalPath>,
    /// Span collector of the first repetition (a disabled handle when
    /// tracing is off) — feeds `--trace-out` Chrome-trace export.
    pub obs: swf_obs::Obs,
}

/// Full Fig. 6 result.
#[derive(Clone, Debug)]
pub struct Fig6Result {
    /// The five bars in paper order.
    pub rows: Vec<Fig6Row>,
}

impl Fig6Result {
    /// Bar by label.
    #[expect(
        clippy::expect_used,
        reason = "callers pass one of the five fixed bar labels"
    )]
    pub fn bar(&self, label: &str) -> &Fig6Row {
        self.rows
            .iter()
            .find(|r| r.label == label)
            .expect("known bar label")
    }
}

/// Run the five Fig. 6 scenarios.
pub fn run_fig6(
    config: &ExperimentConfig,
    workflows: usize,
    tasks_per_workflow: usize,
    repeats: u64,
) -> Fig6Result {
    let mut rows = Vec::new();
    for (label, mix) in fig6_mixes() {
        let params = ConcurrentParams {
            workflows,
            tasks_per_workflow,
            mix: mix_of(mix),
            ..ConcurrentParams::default()
        };
        let (makespan, outcomes) = average_slowest(config, params, repeats);
        let obs = outcomes.first().map(|o| o.obs.clone()).unwrap_or_default();
        let breakdown = crate::breakdown::slowest_workflow_breakdown(&obs);
        rows.push(Fig6Row {
            label,
            mix,
            makespan,
            vs_native: 0.0,
            breakdown,
            obs,
        });
    }
    let native = rows[0].makespan;
    for r in &mut rows {
        r.vs_native = r.makespan / native;
    }
    Fig6Result { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_ordering_matches_paper() {
        let config = ExperimentConfig::quick();
        let result = run_fig6(&config, 3, 3, 1);
        assert_eq!(result.rows.len(), 5);
        let native = result.bar("all-native").makespan;
        let half_srv = result.bar("half-serverless-half-native").makespan;
        let all_srv = result.bar("all-serverless").makespan;
        let all_ctr = result.bar("all-container").makespan;
        // Core orderings the paper reports: native fastest, all-container
        // slowest, serverless between.
        assert!(
            native <= half_srv * 1.05,
            "native {native} vs half-srv {half_srv}"
        );
        assert!(
            all_srv >= native,
            "all-serverless {all_srv} vs native {native}"
        );
        assert!(
            all_ctr > all_srv,
            "all-container {all_ctr} should exceed all-serverless {all_srv}"
        );
        assert!((result.bar("all-native").vs_native - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fig5_grid_brackets_fig6_corners() {
        let config = ExperimentConfig::quick();
        let result = run_fig5(&config, 1, 2, 2, 1);
        // steps=1 → exactly the three corners.
        assert_eq!(result.rows.len(), 3);
        let best = result.best();
        let worst = result.worst();
        assert!(best.makespan <= worst.makespan);
        // At this tiny scale DAGMan-poll quantization blurs the
        // native/serverless gap, but the container corner is robustly the
        // worst (per-job image staging + lifecycle), and the best corner is
        // never the container one. The full-scale corner ordering is
        // asserted by the fig5/fig6 harness at paper parameters.
        assert!(best.mix.container < 0.1, "best mix {:?}", best.mix);
        assert!(worst.mix.container > 0.9, "worst mix {:?}", worst.mix);
    }
}
