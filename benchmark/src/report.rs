//! Printing: the table a person reads after a run, and indented JSON for
//! the result file (the vendored `serde_json` prints compact text only).

use std::fmt::Write as _;

use serde_json::Value;

use crate::metrics::{self, Metric};
use crate::runner::Report;

/// `value` with enough digits to tell runs apart, without a wall of them.
fn number(value: f64) -> String {
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{value:.0}")
    } else if value.abs() >= 100.0 {
        format!("{value:.1}")
    } else {
        format!("{value:.4}")
    }
}

fn section<'a>(
    out: &mut String,
    title: &str,
    report: &Report,
    list: impl Iterator<Item = &'a Metric>,
) {
    let rows: Vec<_> = list
        .filter_map(|m| report.metrics.get(m.name).map(|r| (m, r)))
        .collect();
    if rows.is_empty() {
        return;
    }
    let _ = writeln!(out, "  {title}");
    for (metric, q) in rows {
        let spread = if q.n > 1 {
            format!(
                "  n={} q1={} q3={} iqr={:.1}%",
                q.n,
                number(q.q1),
                number(q.q3),
                100.0 * q.spread()
            )
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "    {:<34} {:>16} {:<10} ({} is better){spread}",
            metric.name,
            number(q.median),
            metric.unit,
            metric.better.label(),
        );
    }
}

/// Every metric one run measured, by name, with its unit.
pub fn render(report: &Report) -> String {
    let args = &report.args;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} — seed {}, {} run, {} passes{}",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        report.passes,
        if args.smoke { ", smoke sizes" } else { "" },
    );
    let _ = writeln!(out, "  sizes: {}", report.sizes);
    let end_to_end = metrics::GATED
        .iter()
        .chain(metrics::END_TO_END_PARTIAL.iter());
    section(&mut out, "end to end", report, end_to_end);
    section(&mut out, "per layer", report, metrics::LAYERS.iter());
    let _ = writeln!(
        out,
        "  checks: {} attempted, {} failed",
        report.checks.attempted, report.checks.failed
    );
    for failure in report.checks.failures.iter().take(10) {
        let _ = writeln!(out, "    FAILED {failure}");
    }
    out
}

/// `value` as indented JSON.
pub fn pretty(value: &Value) -> String {
    let mut out = String::new();
    write_pretty(value, 0, &mut out);
    out.push('\n');
    out
}

fn write_pretty(value: &Value, depth: usize, out: &mut String) {
    let indent = |out: &mut String, depth: usize| out.push_str(&"  ".repeat(depth));
    match value {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                indent(out, depth + 1);
                write_pretty(item, depth + 1, out);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            indent(out, depth);
            out.push(']');
        }
        // An object of scalars stays on one line: a metric per line reads
        // better than a field per line.
        Value::Object(map) if map.iter().any(|(_, v)| v.is_object() || v.is_array()) => {
            out.push_str("{\n");
            let last = map.len().saturating_sub(1);
            for (i, (key, item)) in map.iter().enumerate() {
                indent(out, depth + 1);
                out.push_str(&Value::from(key.as_str()).to_string());
                out.push_str(": ");
                write_pretty(item, depth + 1, out);
                out.push_str(if i < last { ",\n" } else { "\n" });
            }
            indent(out, depth);
            out.push('}');
        }
        other => out.push_str(&other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn pretty_output_parses_back_to_the_same_tree() {
        let doc = json!({
            "a": [1, 2.5, {"x": null}],
            "b": {"value": 1.25, "unit": "s"},
            "c": {"nested": {"k": "v \"quoted\""}},
            "empty": []
        });
        let text = pretty(&doc);
        assert_eq!(serde_json::from_str(&text).unwrap(), doc);
        assert!(text.contains("\"b\": {\"unit\":\"s\",\"value\":1.25}"));
    }
}
