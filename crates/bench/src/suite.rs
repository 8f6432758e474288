//! The scenario table: the one definition of every experiment this repo
//! runs (counts, config overrides, human report), and the runner that
//! turns a selection of its rows into one machine-readable
//! `BENCH_<label>.json` document.
//!
//! Each scenario runs with span collection enabled and is metered by
//! [`crate::record::ScenarioMeter`], so the document carries every
//! section per scenario: `virtual` results, `obs` snapshots, the `host`
//! engine profile, and (for `elastic`) the `cost` ledger.

use swf_core::experiments::{coldstart, fig1, fig2, run_fig5, run_fig6};
use swf_core::ExperimentConfig;

use crate::ablations::{run_ablations, AblationsResult};
use crate::record::{
    bench_document, coldstart_json, fig1_json, fig2_json, fig5_json, fig6_json, obs_json,
    scenario_json, slo_json, ScenarioMeter,
};

/// What one scenario yields: the deterministic `virtual` section, its
/// labelled span collectors, the human report, and (for cost-aware
/// scenarios) the `cost` section.
pub struct ScenarioOutput {
    /// The `virtual` JSON section.
    pub virtual_section: serde_json::Value,
    /// Labelled collectors for the `obs`/`slo` sections and trace export.
    pub collectors: Vec<(String, swf_obs::Obs)>,
    /// The rendered tables a person reads: reproduced rows beside the
    /// paper's values.
    pub report: String,
    /// The `cost` JSON section; `None` for scenarios without a ledger.
    pub cost: Option<serde_json::Value>,
}

impl ScenarioOutput {
    fn plain(
        virtual_section: serde_json::Value,
        collectors: Vec<(String, swf_obs::Obs)>,
        report: String,
    ) -> ScenarioOutput {
        ScenarioOutput {
            virtual_section,
            collectors,
            report,
            cost: None,
        }
    }
}

/// One suite run: the document, every scenario's human report, and every
/// labelled span collector (for the trace, span and series exports).
pub struct SuiteRun {
    /// The assembled `BENCH_*.json` document.
    pub document: serde_json::Value,
    /// Each scenario's report, in scenario order.
    pub reports: Vec<String>,
    /// Every scenario's labelled collectors, in scenario order.
    pub collectors: Vec<(String, swf_obs::Obs)>,
}

/// The experiment config every scenario starts from: quick or paper
/// scale, tracing always on (the document's `obs` section wants populated
/// collectors; span collection never changes virtual-time results).
pub fn suite_config(quick: bool) -> ExperimentConfig {
    let mut c = if quick {
        let mut c = ExperimentConfig::quick();
        // Paper-shaped timing but small matrices, so real compute stays
        // cheap.
        c.matrix_dim = 32;
        c
    } else {
        ExperimentConfig::paper()
    };
    c.trace = true;
    // Sample telemetry series on the virtual clock. Read-only on the
    // registry, so `virtual` results stay bit-identical with or without it.
    c.series_interval_s = if quick { 5.0 } else { 10.0 };
    c
}

fn scenario_fig1(quick: bool) -> ScenarioOutput {
    let config = suite_config(quick);
    let obs = swf_obs::Obs::enabled();
    let _guard = swf_obs::install(obs.clone());
    let counts: Vec<usize> = if quick {
        vec![10, 20, 40, 80]
    } else {
        vec![10, 20, 40, 80, 120, 160]
    };
    let r = fig1::run(&config, &counts).expect("fig1 scenario failed");
    ScenarioOutput::plain(
        fig1_json(&r),
        vec![("fig1".to_string(), obs)],
        crate::fig1_report(&r),
    )
}

fn scenario_fig2(quick: bool) -> ScenarioOutput {
    let mut config = suite_config(quick);
    // The parallel experiment submits one burst of independent jobs: no
    // DAGMan, no claim reuse — per-job latency is negotiation-bound, not
    // activation-bound. Calibrated so the native slope lands near the
    // paper's 0.28 s/task.
    config.condor.negotiator.cycle_interval = swf_simcore::secs(5.0);
    config.condor.negotiator.activation_delay = swf_simcore::SimDuration::ZERO;
    let obs = swf_obs::Obs::enabled();
    let _guard = swf_obs::install(obs.clone());
    let counts: Vec<usize> = if quick {
        vec![4, 8, 16, 24]
    } else {
        vec![4, 8, 16, 24, 32, 48, 64]
    };
    let r = fig2::run(&config, &counts);
    ScenarioOutput::plain(
        fig2_json(&r),
        vec![("fig2".to_string(), obs)],
        crate::fig2_report(&r),
    )
}

fn scenario_fig5(quick: bool) -> ScenarioOutput {
    let config = suite_config(quick);
    let (steps, workflows, tasks, repeats) = if quick { (2, 4, 4, 1) } else { (4, 10, 10, 3) };
    let r = run_fig5(&config, steps, workflows, tasks, repeats);
    let collectors = r
        .rows
        .iter()
        .zip(&r.collectors)
        .map(|(row, obs)| {
            (
                format!(
                    "fig5/n{:.2}-s{:.2}-c{:.2}",
                    row.mix.native, row.mix.serverless, row.mix.container
                ),
                obs.clone(),
            )
        })
        .collect();
    ScenarioOutput::plain(fig5_json(&r), collectors, crate::fig5_report(&r))
}

fn scenario_fig6(quick: bool) -> ScenarioOutput {
    let config = suite_config(quick);
    let (workflows, tasks, repeats) = if quick { (4, 4, 1) } else { (10, 10, 3) };
    let r = run_fig6(&config, workflows, tasks, repeats);
    let collectors = r
        .rows
        .iter()
        .map(|row| (format!("fig6/{}", row.label), row.obs.clone()))
        .collect();
    ScenarioOutput::plain(fig6_json(&r), collectors, crate::fig6_report(&r))
}

fn scenario_coldstart(quick: bool) -> ScenarioOutput {
    let config = suite_config(quick);
    let obs = swf_obs::Obs::enabled();
    let _guard = swf_obs::install(obs.clone());
    let r = coldstart::run(&config).expect("coldstart scenario failed");
    ScenarioOutput::plain(
        coldstart_json(&r),
        vec![("coldstart".to_string(), obs)],
        crate::coldstart_report(&r),
    )
}

fn scenario_ablations(quick: bool) -> ScenarioOutput {
    let r = run_ablations(quick);
    let collectors = r
        .collectors
        .iter()
        .map(|(label, obs)| (format!("ablations/{label}"), obs.clone()))
        .collect();
    let report = format!("{}\n{}\n", r.table().render(), AblationsResult::METRIC_NOTE);
    ScenarioOutput::plain(r.to_json(), collectors, report)
}

fn scenario_apps(quick: bool) -> ScenarioOutput {
    let r = crate::apps::run_apps(quick);
    ScenarioOutput::plain(r.to_json(), r.collectors(), crate::apps::apps_report(&r))
}

fn scenario_elastic(quick: bool) -> ScenarioOutput {
    let r = crate::elastic::run_elastic_scenario(quick);
    ScenarioOutput {
        virtual_section: r.to_json(),
        collectors: r.collectors(),
        report: r.report(),
        cost: Some(r.cost_json()),
    }
}

type ScenarioFn = fn(bool) -> ScenarioOutput;

/// Every scenario, in the order a run executes them: the paper's six
/// figure scenarios, which the `quick`/`paper` labels run, then `apps` and
/// `elastic`, which run under their own labels so their documents never
/// perturb the figure baselines.
const SCENARIOS: [(&str, ScenarioFn); 8] = [
    ("fig1", scenario_fig1),
    ("fig2", scenario_fig2),
    ("fig5", scenario_fig5),
    ("fig6", scenario_fig6),
    ("coldstart", scenario_coldstart),
    ("ablations", scenario_ablations),
    ("apps", scenario_apps),
    ("elastic", scenario_elastic),
];

fn table_names() -> impl Iterator<Item = &'static str> {
    SCENARIOS.iter().map(|(name, _)| *name)
}

/// The labels `suite --label` accepts, each with the note `--list` prints.
pub const LABELS: [(&str, &str); 4] = [
    ("quick", "figure scenarios at CI scale (--quick default)"),
    ("paper", "figure scenarios at paper scale (default)"),
    ("apps", "swf-apps: every application × every venue"),
    (
        "elastic",
        "swf-elastic: autoscaled spot pool vs static cluster, with cost ledger",
    ),
];

/// Refuse a `--label` value that is not one of [`LABELS`]: a misspelt one
/// would run the figure scenarios and stamp their document with the typo.
pub fn check_label(label: &str) -> Result<(), String> {
    let valid = LABELS.map(|(known, _)| known);
    if valid.contains(&label) {
        return Ok(());
    }
    let valid = valid.join(", ");
    Err(format!("unknown label {label:?}; valid labels: {valid}"))
}

/// The scenario names the given suite label runs when `--only` does not
/// narrow it (`--list` support).
pub fn scenario_names(label: &str) -> Vec<&'static str> {
    let own_label = |n: &&str| matches!(*n, "apps" | "elastic");
    if own_label(&label) {
        table_names().filter(|n| *n == label).collect()
    } else {
        table_names().filter(|n| !own_label(n)).collect()
    }
}

/// A `--only` entry that names no scenario of its label (an empty list
/// fails here too, on its empty name).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownScenario {
    /// The name that failed to resolve.
    pub name: String,
    /// The label it was resolved against.
    pub label: String,
}

impl std::fmt::Display for UnknownScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "label {:?} has no scenario {:?}; its scenarios: {} (--list shows every label)",
            self.label,
            self.name,
            scenario_names(&self.label).join(", ")
        )
    }
}

impl std::error::Error for UnknownScenario {}

/// Resolve a comma-separated `--only` list against the scenarios `label`
/// runs: a document stamped with a label holds nothing else. The result is
/// in table order with each name once, whatever the list's order and
/// repeats.
pub fn select(label: &str, only: &str) -> Result<Vec<&'static str>, UnknownScenario> {
    let of_label = scenario_names(label);
    let wanted: Vec<&str> = only.split(',').map(str::trim).collect();
    if let Some(unknown) = wanted.iter().find(|w| !of_label.contains(w)) {
        return Err(UnknownScenario {
            name: unknown.to_string(),
            label: label.to_string(),
        });
    }
    Ok(of_label
        .into_iter()
        .filter(|n| wanted.contains(n))
        .collect())
}

/// Run the named scenarios (see [`scenario_names`] and [`select`]) in
/// table order and assemble the benchmark document. `on_scenario` is
/// called with each scenario's name as it starts, so callers can narrate
/// progress.
pub fn run_suite(
    label: &str,
    quick: bool,
    names: &[&str],
    mut on_scenario: impl FnMut(&str),
) -> SuiteRun {
    let mut entries = Vec::new();
    let mut reports = Vec::new();
    let mut all_collectors = Vec::new();
    for &(name, run) in SCENARIOS.iter().filter(|(n, _)| names.contains(n)) {
        on_scenario(name);
        let meter = ScenarioMeter::start();
        let out = run(quick);
        let host = meter.finish();
        let refs: Vec<(&str, &swf_obs::Obs)> = out
            .collectors
            .iter()
            .map(|(l, o)| (l.as_str(), o))
            .collect();
        entries.push((
            name.to_string(),
            scenario_json(
                out.virtual_section,
                obs_json(&refs),
                slo_json(&refs),
                out.cost,
                host,
            ),
        ));
        reports.push(out.report);
        all_collectors.extend(out.collectors);
    }
    SuiteRun {
        document: bench_document(label, quick, entries),
        reports,
        collectors: all_collectors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_orders_by_table_and_drops_repeats() {
        assert_eq!(
            select("quick", "coldstart,fig2,coldstart").unwrap(),
            ["fig2", "coldstart"]
        );
        assert_eq!(select("paper", " fig6 , fig1").unwrap(), ["fig1", "fig6"]);
        assert_eq!(select("apps", "apps").unwrap(), ["apps"]);
    }

    #[test]
    fn select_rejects_unknown_and_empty_names_listing_the_labels_scenarios() {
        let err = select("quick", "fig1,fig3").unwrap_err();
        assert_eq!(err.name, "fig3");
        let msg = err.to_string();
        for name in scenario_names("quick") {
            assert!(msg.contains(name), "error must list {name}: {msg}");
        }
        assert_eq!(select("quick", "").unwrap_err().name, "");
        assert_eq!(select("quick", "fig1,").unwrap_err().name, "");
    }

    #[test]
    fn check_label_rejects_unknown_labels_listing_the_valid_ones() {
        for (label, _) in LABELS {
            assert_eq!(check_label(label), Ok(()));
        }
        for bad in ["chaoz", "", "Quick", "elastic "] {
            let msg = check_label(bad).unwrap_err();
            assert!(msg.contains(&format!("{bad:?}")), "{msg}");
            for (label, _) in LABELS {
                assert!(msg.contains(label), "error must list {label}: {msg}");
            }
        }
    }

    #[test]
    fn select_rejects_a_scenario_its_label_does_not_run() {
        // `--label apps --only fig1` would stamp `apps` on a fig1 record;
        // `--only apps` alone would write an apps run to BENCH_quick.json.
        for (label, only) in [
            ("apps", "fig1"),
            ("quick", "apps"),
            ("elastic", "apps,elastic"),
        ] {
            let err = select(label, only).unwrap_err();
            assert_eq!(err.label, label);
            let msg = err.to_string();
            assert!(msg.contains(&format!("{label:?}")), "{msg}");
            assert!(msg.contains(&format!("{:?}", err.name)), "{msg}");
            assert!(
                msg.contains(&scenario_names(label).join(", ")),
                "error must list the label's scenarios: {msg}"
            );
        }
    }

    #[test]
    fn every_label_resolves_to_rows_of_the_table() {
        assert_eq!(scenario_names("quick"), scenario_names("paper"));
        assert_eq!(scenario_names("quick").len(), 6);
        assert_eq!(scenario_names("apps"), ["apps"]);
        assert_eq!(scenario_names("elastic"), ["elastic"]);
    }
}
