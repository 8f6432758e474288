//! The benchmark suite is a pure function of its inputs: two quick-suite
//! runs in the same process must produce bitwise-identical virtual-time
//! and observability sections, `swf_metrics::compare` must report
//! neither drift nor regression between them, and a `--only` selection
//! must reproduce its scenarios exactly as the full run records them.

use swf_bench::suite::{scenario_names, select, SuiteRun};

/// The full quick figure suite, as `suite --quick --label <label>` runs it.
fn run_suite(label: &str) -> SuiteRun {
    swf_bench::suite::run_suite(label, true, &scenario_names(label), |_| {})
}

/// Strip the host section (the only legitimately run-dependent part:
/// wall-clock under `host-profiling`) so the rest can be compared as text.
fn deterministic_sections(doc: &serde_json::Value) -> String {
    let mut doc = doc.clone();
    if let Some(obj) = doc.as_object_mut() {
        obj.remove("host");
        if let Some(scenarios) = obj.get_mut("scenarios").and_then(|s| s.as_object_mut()) {
            let names: Vec<String> = scenarios.iter().map(|(k, _)| k.clone()).collect();
            for name in names {
                if let Some(s) = scenarios.get_mut(&name).and_then(|s| s.as_object_mut()) {
                    s.remove("host");
                }
            }
        }
    }
    doc.to_string()
}

#[test]
fn quick_suite_is_bitwise_deterministic() {
    let first = run_suite("determinism");
    let second = run_suite("determinism");

    // Virtual + obs sections must be byte-identical across runs. The
    // serializer renders f64 leaves exactly, so text equality here is bit
    // equality of every simulated number.
    assert_eq!(
        deterministic_sections(&first.document),
        deterministic_sections(&second.document),
        "two quick-suite runs disagreed in their virtual/obs sections"
    );

    // The perf gate must agree: no drift, no regression, clean exit.
    let report = swf_metrics::compare(&first.document, &second.document, 0.10);
    assert!(
        !report.has_drift(),
        "compare reported drift between identical runs:\n{}",
        report.render()
    );
    assert!(
        report.virtual_leaves > 0,
        "compare walked no virtual leaves"
    );
    assert_eq!(report.exit_code(false), 0);

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
    let names = select("coldstart,fig2").expect("both names are in the table");
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
    // A scenario's sections do not depend on which other rows ran: each
    // selected entry is byte-identical to the full run's entry.
    let sections = |run: &SuiteRun, name: &str| {
        let mut scenario = run.document["scenarios"][name].clone();
        scenario
            .as_object_mut()
            .expect("scenario object")
            .remove("host");
        scenario.to_string()
    };
    for name in ["fig2", "coldstart"] {
        assert_eq!(
            sections(&part, name),
            sections(&full, name),
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
    assert_eq!(report.exit_code(false), 1);
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
    assert_eq!(report.exit_code(false), 1);
}
