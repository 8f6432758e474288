//! The benchmark suite is a pure function of its inputs: two quick-suite
//! runs in the same process must produce byte-identical documents —
//! virtual results, observability snapshots and executor counts alike —
//! `swf_metrics::compare` must report no drift between them, and a
//! `--only` selection must reproduce its scenarios exactly as the full run
//! records them.

use swf_bench::suite::{scenario_names, select, SuiteRun};

/// The full quick figure suite, as `suite --quick --label <label>` runs it.
fn run_suite(label: &str) -> SuiteRun {
    swf_bench::suite::run_suite(label, true, &scenario_names(label), |_| {})
}

#[test]
fn quick_suite_is_bitwise_deterministic() {
    let first = run_suite("determinism");
    let second = run_suite("determinism");

    // The whole document, nothing stripped, must be byte-identical across
    // runs. The serializer renders f64 leaves exactly, so text equality
    // here is bit equality of every simulated number and every count.
    assert_eq!(
        first.document.to_string(),
        second.document.to_string(),
        "two quick-suite runs wrote different documents"
    );

    // The gate must agree: no drift, clean exit.
    let report = swf_metrics::compare(&first.document, &second.document, 0.10);
    assert!(
        !report.has_drift(),
        "compare reported drift between identical runs:\n{}",
        report.render()
    );
    assert!(report.virtual_leaves > 0, "compare walked no leaves");
    assert_eq!(report.exit_code(), 0);

    // Sanity: the document carries all six scenarios with all four
    // sections each.
    let scenarios = first.document["scenarios"]
        .as_object()
        .expect("scenarios object");
    assert_eq!(scenarios.len(), 6);
    for (name, scenario) in scenarios.iter() {
        for section in ["virtual", "obs", "slo", "host"] {
            assert!(
                scenario.get(section).is_some(),
                "scenario {name} missing section {section}"
            );
        }
        let events = scenario["host"]["events_processed"]
            .as_u64()
            .unwrap_or_default();
        assert!(events > 0, "scenario {name} processed no events");
        // Every scenario's SLO section carries the suite spec plus one
        // evaluated report per collector, with deterministic percentiles.
        assert!(
            scenario["slo"]["spec"]["objectives"].as_array().is_some(),
            "scenario {name} slo section missing the spec"
        );
        assert!(
            scenario["slo"]["reports"]
                .as_object()
                .is_some_and(|r| !r.is_empty()),
            "scenario {name} slo section has no reports"
        );
    }
}

#[test]
fn selected_scenarios_match_the_full_run_in_table_order() {
    let full = run_suite("selection");
    // `--only coldstart,fig2`: given out of table order on purpose.
    let names = select("selection", "coldstart,fig2").expect("both names are in the table");
    let mut started = Vec::new();
    let part = swf_bench::suite::run_suite("selection", true, &names, |name| {
        started.push(name.to_string());
    });
    assert_eq!(
        started,
        ["fig2", "coldstart"],
        "rows must run in table order"
    );
    assert_eq!(part.reports.len(), 2);

    let scenarios = part.document["scenarios"]
        .as_object()
        .expect("scenarios object");
    assert_eq!(scenarios.len(), 2, "only the selected rows are recorded");
    // A scenario's entry does not depend on which other rows ran: each
    // selected entry, `host` counts included, is byte-identical to the
    // full run's entry.
    for name in ["fig2", "coldstart"] {
        assert_eq!(
            part.document["scenarios"][name].to_string(),
            full.document["scenarios"][name].to_string(),
            "scenario {name} differs between the selection and the full run"
        );
    }
}

#[test]
fn compare_flags_injected_slo_drift() {
    let run = run_suite("slo-drift");
    let mut tampered = run.document.clone();
    let slo = tampered
        .get_mut("scenarios")
        .and_then(|v| v.get_mut("fig1"))
        .and_then(|v| v.get_mut("slo"))
        .and_then(serde_json::Value::as_object_mut)
        .expect("fig1 slo section");
    slo.insert("spec", serde_json::Value::Null);
    let report = swf_metrics::compare(&run.document, &tampered, 0.10);
    assert!(report.has_drift(), "injected slo change not flagged");
    assert_eq!(report.exit_code(), 1);
}

#[test]
fn compare_flags_injected_virtual_drift() {
    let run = run_suite("drift");
    let mut tampered = run.document.clone();
    let row = tampered
        .get_mut("scenarios")
        .and_then(|v| v.get_mut("fig1"))
        .and_then(|v| v.get_mut("virtual"))
        .and_then(|v| v.get_mut("rows"))
        .and_then(serde_json::Value::as_array_mut)
        .and_then(|rows| rows.first_mut())
        .and_then(serde_json::Value::as_object_mut)
        .expect("fig1 first row");
    row.insert("docker_total", serde_json::Value::from(1.0e9));
    let report = swf_metrics::compare(&run.document, &tampered, 0.10);
    assert!(report.has_drift(), "injected virtual change not flagged");
    assert_eq!(report.exit_code(), 1);
}
