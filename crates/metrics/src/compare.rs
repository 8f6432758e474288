//! Benchmark-run comparison: the exact gate.
//!
//! [`compare`] takes two `BENCH_*.json` documents (see `swf-bench`'s
//! `suite` binary) and reports every difference as **drift**: a leaf
//! differs *bitwise*, or the structure around it does. That covers every
//! section alike — `virtual`, `obs`, `slo`, `cost`, and the executor
//! counts under `host`. The simulation is deterministic, so a changed
//! leaf means the model or the engine's work changed; drift is always an
//! error regardless of direction or magnitude, and a PR that means it
//! re-blesses the baseline.
//!
//! No workspace binary writes a clock reading into a document. For the
//! ones that come from elsewhere carrying `host.wall_ms` (lower is
//! better) or `host.events_per_sec` (higher is better), those two leaves
//! alone are judged against the `noise` threshold and reported as
//! **regression** / **improvement**, which never fail the comparison.
//!
//! Bitwise comparison leans on the vendored `serde_json` serializer
//! being exact-roundtrip for `f64`: two numbers render to the same text
//! iff they are the same bits (modulo the integral-float form, which is
//! itself deterministic), so leaf text equality *is* bit equality.

use std::fmt::Write as _;

use serde_json::Value;

/// Classification of one observed difference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaClass {
    /// An exact leaf or the document structure differs — always an error.
    Drift,
    /// A wall-clock leaf got worse beyond the noise threshold.
    Regression,
    /// A wall-clock leaf got better beyond the noise threshold.
    Improvement,
}

impl DeltaClass {
    /// Stable lowercase label for tables and JSON.
    pub fn label(self) -> &'static str {
        match self {
            DeltaClass::Drift => "drift",
            DeltaClass::Regression => "regression",
            DeltaClass::Improvement => "improvement",
        }
    }
}

/// One difference between the two documents.
#[derive(Clone, Debug)]
pub struct Delta {
    /// Dotted path of the differing field (e.g. `fig1.virtual.rows[2].mean_s`).
    pub path: String,
    /// How the difference is classified.
    pub class: DeltaClass,
    /// Rendering of the old value.
    pub old: String,
    /// Rendering of the new value.
    pub new: String,
    /// Human-readable note (e.g. `+12.3% (noise 10%)`).
    pub note: String,
}

/// The outcome of comparing two benchmark documents.
#[derive(Clone, Debug, Default)]
pub struct CompareReport {
    /// Every observed difference, in document order.
    pub deltas: Vec<Delta>,
    /// Scenarios present in both documents.
    pub scenarios_compared: usize,
    /// Leaves compared bitwise: every one but the two wall-clock leaves.
    pub virtual_leaves: usize,
}

impl CompareReport {
    /// True if any exact leaf drifted.
    pub fn has_drift(&self) -> bool {
        self.deltas.iter().any(|d| d.class == DeltaClass::Drift)
    }

    /// Process exit code: 1 for drift, otherwise 0.
    pub fn exit_code(&self) -> i32 {
        i32::from(self.has_drift())
    }

    /// Render the comparison as a table plus a one-line verdict.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.deltas.is_empty() {
            let _ = writeln!(
                out,
                "identical: {} scenarios, {} leaves compared bitwise",
                self.scenarios_compared, self.virtual_leaves
            );
            return out;
        }
        let path_w = self
            .deltas
            .iter()
            .map(|d| d.path.len())
            .max()
            .unwrap_or(4)
            .max(4);
        let _ = writeln!(
            out,
            "  {:<12} {:<path_w$} {:>14} {:>14}  note",
            "class", "path", "old", "new"
        );
        for d in &self.deltas {
            let _ = writeln!(
                out,
                "  {:<12} {:<path_w$} {:>14} {:>14}  {}",
                d.class.label(),
                d.path,
                d.old,
                d.new,
                d.note
            );
        }
        let count = |class: DeltaClass| self.deltas.iter().filter(|d| d.class == class).count();
        let _ = writeln!(
            out,
            "{} drift, {} regression, {} improvement over {} scenarios ({} exact leaves)",
            count(DeltaClass::Drift),
            count(DeltaClass::Regression),
            count(DeltaClass::Improvement),
            self.scenarios_compared,
            self.virtual_leaves
        );
        out
    }
}

/// The `host` leaves compared against the noise threshold, with
/// direction. `true` = higher is better.
const NOISY_HOST_METRICS: &[(&str, bool)] = &[("wall_ms", false), ("events_per_sec", true)];

/// Compare two benchmark documents; `noise` is the relative threshold
/// (e.g. `0.10` = 10%) for the wall-clock metrics.
pub fn compare(old: &Value, new: &Value, noise: f64) -> CompareReport {
    let mut report = CompareReport::default();

    // Document framing: schema and quick-mode must agree or the files
    // are not comparable — surfaced as drift rather than a panic.
    for key in ["schema", "quick"] {
        let (o, n) = (field(old, key), field(new, key));
        if o != n {
            push_drift(&mut report, key, &o, &n, "documents not comparable");
        }
    }

    let empty = serde_json::Map::new();
    let old_scen = old
        .get("scenarios")
        .and_then(Value::as_object)
        .unwrap_or(&empty);
    let new_scen = new
        .get("scenarios")
        .and_then(Value::as_object)
        .unwrap_or(&empty);

    let mut names: Vec<&str> = old_scen.iter().map(|(k, _)| k.as_str()).collect();
    for (k, _) in new_scen.iter() {
        if old_scen.get(k).is_none() {
            names.push(k);
        }
    }

    for name in names {
        match (old_scen.get(name), new_scen.get(name)) {
            (Some(o), Some(n)) => {
                report.scenarios_compared += 1;
                // Scenarios without a `cost` section compare Null
                // against Null.
                for section in ["virtual", "obs", "slo", "cost"] {
                    let path = format!("{name}.{section}");
                    diff_bitwise(
                        &path,
                        o.get(section).unwrap_or(&Value::Null),
                        n.get(section).unwrap_or(&Value::Null),
                        &mut report,
                    );
                }
                compare_host(
                    name,
                    o.get("host").unwrap_or(&Value::Null),
                    n.get("host").unwrap_or(&Value::Null),
                    noise,
                    &mut report,
                );
            }
            (Some(_), None) => {
                push_drift(&mut report, name, "present", "absent", "scenario removed");
            }
            (None, Some(_)) => {
                push_drift(&mut report, name, "absent", "present", "scenario added");
            }
            (None, None) => {}
        }
    }

    // Top-level host aggregate.
    compare_host(
        "total",
        old.get("host").unwrap_or(&Value::Null),
        new.get("host").unwrap_or(&Value::Null),
        noise,
        &mut report,
    );

    report
}

fn field(doc: &Value, key: &str) -> String {
    doc.get(key)
        .map_or_else(|| "absent".into(), Value::to_string)
}

fn push_drift(report: &mut CompareReport, path: &str, old: &str, new: &str, note: &str) {
    report.deltas.push(Delta {
        path: path.to_string(),
        class: DeltaClass::Drift,
        old: old.to_string(),
        new: new.to_string(),
        note: note.to_string(),
    });
}

/// Recursive bitwise diff of a subtree. Leaf text equality under the
/// deterministic serializer is bit equality (see module docs).
fn diff_bitwise(path: &str, old: &Value, new: &Value, report: &mut CompareReport) {
    match (old, new) {
        (Value::Object(o), Value::Object(n)) => {
            for (k, ov) in o.iter() {
                match n.get(k) {
                    Some(nv) => diff_bitwise(&format!("{path}.{k}"), ov, nv, report),
                    None => push_drift(
                        report,
                        &format!("{path}.{k}"),
                        &ov.to_string(),
                        "absent",
                        "field removed",
                    ),
                }
            }
            for (k, nv) in n.iter() {
                if o.get(k).is_none() {
                    push_drift(
                        report,
                        &format!("{path}.{k}"),
                        "absent",
                        &nv.to_string(),
                        "field added",
                    );
                }
            }
        }
        (Value::Array(o), Value::Array(n)) => {
            if o.len() != n.len() {
                push_drift(
                    report,
                    path,
                    &format!("len {}", o.len()),
                    &format!("len {}", n.len()),
                    "array length changed",
                );
                return;
            }
            for (i, (ov, nv)) in o.iter().zip(n.iter()).enumerate() {
                diff_bitwise(&format!("{path}[{i}]"), ov, nv, report);
            }
        }
        _ => {
            report.virtual_leaves += 1;
            let (o, n) = (old.to_string(), new.to_string());
            if o != n {
                push_drift(report, path, &o, &n, "value changed");
            }
        }
    }
}

/// Compare one scenario's (or the aggregate's) host section: the two
/// wall-clock leaves against the noise threshold, everything else — the
/// executor counts — bitwise, like any other section.
fn compare_host(scope: &str, old: &Value, new: &Value, noise: f64, report: &mut CompareReport) {
    for &(metric, higher_is_better) in NOISY_HOST_METRICS {
        let o = old.get(metric).and_then(Value::as_f64);
        let n = new.get(metric).and_then(Value::as_f64);
        let (Some(o), Some(n)) = (o, n) else { continue };
        if o <= 0.0 {
            continue;
        }
        let rel = (n - o) / o;
        if rel.abs() <= noise {
            continue;
        }
        let worse = if higher_is_better {
            rel < 0.0
        } else {
            rel > 0.0
        };
        report.deltas.push(Delta {
            path: format!("{scope}.host.{metric}"),
            class: if worse {
                DeltaClass::Regression
            } else {
                DeltaClass::Improvement
            },
            old: format!("{o:.1}"),
            new: format!("{n:.1}"),
            note: format!("{:+.1}% (noise {:.0}%)", rel * 100.0, noise * 100.0),
        });
    }
    let exact = |host: &Value| match host.as_object() {
        Some(fields) => Value::Object(
            fields
                .iter()
                .filter(|(k, _)| !NOISY_HOST_METRICS.iter().any(|&(m, _)| m == *k))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        ),
        None => host.clone(),
    };
    diff_bitwise(&format!("{scope}.host"), &exact(old), &exact(new), report);
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn doc(makespan: f64, wall_ms: Option<f64>, polls: u64) -> Value {
        json!({
            "schema": "swf-bench/v1",
            "label": "quick",
            "quick": true,
            "scenarios": {
                "fig1": {
                    "virtual": {"makespan_s": makespan, "rows": [1.0, 2.0]},
                    "obs": {"metrics": {"counters": {"jobs": 5}}},
                    "host": {
                        "polls": polls,
                        "wall_ms": wall_ms,
                        "events_per_sec": (wall_ms.map(|ms| 1000.0 * polls as f64 / ms)),
                    },
                },
            },
            "host": {"wall_ms": wall_ms, "polls": polls},
        })
    }

    #[test]
    fn identical_documents_are_clean() {
        let a = doc(12.5, Some(100.0), 400);
        let report = compare(&a, &a.clone(), 0.10);
        assert!(report.deltas.is_empty(), "{:?}", report.deltas);
        assert_eq!(report.scenarios_compared, 1);
        assert!(report.virtual_leaves >= 4);
        assert_eq!(report.exit_code(), 0);
        assert!(report.render().contains("identical"));
    }

    #[test]
    fn virtual_change_is_drift_and_fatal() {
        let report = compare(&doc(12.5, None, 400), &doc(12.6, None, 400), 0.10);
        assert!(report.has_drift());
        assert_eq!(report.exit_code(), 1);
        let d = &report.deltas[0];
        assert_eq!(d.class, DeltaClass::Drift);
        assert!(d.path.contains("fig1.virtual"), "{}", d.path);
        assert!(report.render().contains("drift"));
    }

    #[test]
    fn tiny_virtual_change_is_still_drift() {
        // Bitwise means bitwise: one ulp is a drift.
        let base = 12.5_f64;
        let nudged = f64::from_bits(base.to_bits() + 1);
        let report = compare(&doc(base, None, 400), &doc(nudged, None, 400), 0.10);
        assert!(report.has_drift());
    }

    #[test]
    fn wall_clock_worse_is_a_regression_and_not_drift() {
        let report = compare(
            &doc(12.5, Some(100.0), 400),
            &doc(12.5, Some(130.0), 400),
            0.10,
        );
        assert!(!report.deltas.is_empty());
        for d in &report.deltas {
            assert_eq!(d.class, DeltaClass::Regression, "{d:?}");
        }
        assert_eq!(report.exit_code(), 0);
    }

    #[test]
    fn wall_clock_better_is_improvement() {
        let report = compare(
            &doc(12.5, Some(100.0), 400),
            &doc(12.5, Some(70.0), 400),
            0.10,
        );
        assert!(!report.deltas.is_empty());
        for d in &report.deltas {
            assert_eq!(d.class, DeltaClass::Improvement, "{d:?}");
        }
        assert_eq!(report.exit_code(), 0);
    }

    #[test]
    fn wall_clock_within_noise_is_silent() {
        let report = compare(
            &doc(12.5, Some(100.0), 400),
            &doc(12.5, Some(105.0), 400),
            0.10,
        );
        assert!(report.deltas.is_empty(), "{:?}", report.deltas);
    }

    #[test]
    fn null_wall_clock_is_skipped() {
        // The documents the suite writes have no wall clock: nothing to
        // threshold.
        let report = compare(&doc(12.5, None, 400), &doc(12.5, None, 400), 0.10);
        assert!(report.deltas.is_empty(), "{:?}", report.deltas);
    }

    #[test]
    fn counter_change_is_drift() {
        let report = compare(&doc(12.5, None, 400), &doc(12.5, None, 380), 0.10);
        let paths: Vec<&str> = report.deltas.iter().map(|d| d.path.as_str()).collect();
        assert_eq!(paths, ["fig1.host.polls", "total.host.polls"]);
        for d in &report.deltas {
            assert_eq!(d.class, DeltaClass::Drift, "{d:?}");
        }
        assert_eq!(report.exit_code(), 1);
    }

    #[test]
    fn one_sided_counter_is_drift_in_both_directions() {
        let with = doc(12.5, Some(100.0), 400);
        let mut without = with.clone();
        if let Some(Value::Object(host)) = without
            .get_mut("scenarios")
            .and_then(|s| s.get_mut("fig1"))
            .and_then(|f| f.get_mut("host"))
        {
            host.remove("polls");
        }
        for (old, new, note) in [
            (&with, &without, "field removed"),
            (&without, &with, "field added"),
        ] {
            let report = compare(old, new, 0.10);
            assert_eq!(report.deltas.len(), 1, "{:?}", report.deltas);
            let d = &report.deltas[0];
            assert_eq!(d.path, "fig1.host.polls");
            assert_eq!((d.class, d.note.as_str()), (DeltaClass::Drift, note));
            assert_eq!(report.exit_code(), 1);
        }
    }

    #[test]
    fn missing_scenario_is_drift() {
        let a = doc(12.5, None, 400);
        let mut b = a.clone();
        if let Value::Object(root) = &mut b {
            root.insert("scenarios", json!({}));
        }
        let report = compare(&a, &b, 0.10);
        assert!(report.has_drift());
        assert!(report.deltas.iter().any(|d| d.note.contains("removed")));
        // And the reverse direction: a scenario appearing is also drift.
        let report = compare(&b, &a, 0.10);
        assert!(report.deltas.iter().any(|d| d.note.contains("added")));
    }

    #[test]
    fn structural_virtual_changes_are_drift() {
        let a = doc(12.5, None, 400);
        let mut b = a.clone();
        // Drop a virtual field.
        if let Some(Value::Object(v)) = b
            .get_mut("scenarios")
            .and_then(|s| s.get_mut("fig1"))
            .and_then(|f| f.get_mut("virtual"))
        {
            v.remove("rows");
        }
        let report = compare(&a, &b, 0.10);
        assert!(report.has_drift());
        assert!(report.deltas.iter().any(|d| d.note.contains("removed")));
    }

    #[test]
    fn cost_section_change_is_drift_and_absence_is_clean() {
        // Scenarios without a `cost` section (all pre-elastic documents)
        // compare Null against Null: no delta.
        let a = doc(12.5, None, 400);
        let report = compare(&a, &a.clone(), 0.10);
        assert!(report.deltas.is_empty(), "{:?}", report.deltas);
        // A cost leaf moving is drift, same as virtual.
        let with_cost = |dollars: f64| {
            let mut d = doc(12.5, None, 400);
            if let Some(Value::Object(s)) = d.get_mut("scenarios").and_then(|s| s.get_mut("fig1")) {
                s.insert("cost", json!({"dollars": dollars}));
            }
            d
        };
        let report = compare(&with_cost(1.0), &with_cost(1.25), 0.10);
        assert!(report.has_drift());
        assert!(report
            .deltas
            .iter()
            .any(|d| d.path.contains("fig1.cost.dollars")));
    }

    #[test]
    fn incompatible_framing_is_drift() {
        let a = doc(12.5, None, 400);
        let mut b = a.clone();
        if let Value::Object(root) = &mut b {
            root.insert("quick", json!(false));
        }
        let report = compare(&a, &b, 0.10);
        assert!(report.has_drift());
        assert!(report.deltas.iter().any(|d| d.path == "quick"));
    }
}
