//! `benchmark compare A B`: judge result file B against result file A.
//!
//! One row per workload × metric. Host metrics are judged by the bound
//! `BENCHMARK.json` fixes for them; virtual metrics and counts must repeat
//! bit for bit, so any difference is a verdict. Per-layer host times carry
//! no bound and are printed as `info`.

use std::fmt::Write as _;
use std::path::Path;

use serde_json::Value;

use crate::host;
use crate::metrics::{self, Better, Judge};

/// How metric B stands against metric A.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Within,
    /// Beyond the bound, but so is the spread between the passes of one run.
    Unresolved,
    /// No bound is fixed for this metric.
    Info,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Within => "within",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "info",
        }
    }
}

/// One side's reading of a metric.
#[derive(Clone, Copy, Debug)]
pub struct Reading {
    pub value: f64,
    /// Interquartile range over the median across the run's passes.
    pub spread: f64,
}

fn reading(entry: &Value) -> Option<Reading> {
    let value = entry["value"].as_f64()?;
    let spread = match (entry["q1"].as_f64(), entry["q3"].as_f64()) {
        (Some(q1), Some(q3)) if value != 0.0 => (q3 - q1) / value.abs(),
        _ => 0.0,
    };
    Some(Reading { value, spread })
}

/// Judge `new` against `old`. `bound` is the share by which the metric may
/// worsen, needed for `Judge::Bound` only.
pub fn judge(
    judge: Judge,
    better: Better,
    bound: Option<f64>,
    old: Reading,
    new: Reading,
) -> Verdict {
    let improved = match better {
        Better::Lower => new.value < old.value,
        Better::Higher => new.value > old.value,
    };
    let same = old.value.to_bits() == new.value.to_bits();
    match judge {
        Judge::Info => Verdict::Info,
        Judge::Pinned if same => Verdict::Within,
        Judge::Pinned => Verdict::Worse,
        Judge::Exact if same => Verdict::Within,
        Judge::Exact if improved => Verdict::Better,
        Judge::Exact => Verdict::Worse,
        Judge::Bound(_) => {
            let Some(bound) = bound else {
                return Verdict::Info;
            };
            let change = if old.value == 0.0 {
                0.0
            } else {
                (new.value - old.value).abs() / old.value.abs()
            };
            if same || change <= bound {
                Verdict::Within
            } else if old.spread > bound || new.spread > bound {
                Verdict::Unresolved
            } else if improved {
                Verdict::Better
            } else {
                Verdict::Worse
            }
        }
    }
}

/// The bounds `BENCHMARK.json` fixes, by end-to-end metric name.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let path = host::package_dir().join("../BENCHMARK.json");
    let doc = load(&path)?;
    let listed = doc["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    listed
        .iter()
        .map(|entry| {
            let name = entry["name"].as_str().ok_or("unnamed metric")?;
            let bound = entry["bound"].as_f64().ok_or("metric without a bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Compare two result files. `Ok(true)` when nothing is worse; the rows are
/// appended to `out`.
pub fn compare(old_path: &Path, new_path: &Path, out: &mut String) -> Result<bool, String> {
    let (old, new) = (load(old_path)?, load(new_path)?);
    for key in ["schema", "seed", "smoke"] {
        if old[key] != new[key] {
            return Err(format!(
                "the files differ in {key} ({} vs {}): exact metrics cannot be compared",
                old[key], new[key]
            ));
        }
    }
    let bounds = bounds()?;
    let empty = serde_json::Map::new();
    let workloads = old["workloads"].as_object().unwrap_or(&empty);
    let mut counts = [0usize; 5];
    let _ = writeln!(
        out,
        "{:<14} {:<34} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "A", "B", "change"
    );
    for (workload, old_runs) in workloads.iter() {
        let new_runs = &new["workloads"][workload.as_str()];
        if old_runs["untraced"]["sizes"] != new_runs["untraced"]["sizes"] {
            return Err(format!("{workload}: the two files ran different sizes"));
        }
        for metric in metrics::all() {
            // End-to-end numbers come from the untraced run; the traced run
            // supplies only what the untraced one does not measure.
            let side = |runs: &Value| {
                ["untraced", "traced"]
                    .iter()
                    .find_map(|run| reading(&runs[*run]["metrics"][metric.name]))
            };
            let (Some(a), Some(b)) = (side(old_runs), side(new_runs)) else {
                continue;
            };
            let bound = match metric.judge {
                Judge::Bound(source) => bounds.iter().find(|(n, _)| n == source).map(|(_, b)| *b),
                _ => None,
            };
            let verdict = judge(metric.judge, metric.better, bound, a, b);
            counts[verdict as usize] += 1;
            let change = if a.value == 0.0 {
                "-".to_string()
            } else {
                format!("{:+.2}%", 100.0 * (b.value - a.value) / a.value.abs())
            };
            let _ = writeln!(
                out,
                "{workload:<14} {:<34} {:>16.6} {:>16.6} {change:>9}  {}",
                metric.name,
                a.value,
                b.value,
                verdict.label()
            );
        }
    }
    let _ = writeln!(
        out,
        "{} better, {} worse, {} within, {} unresolved, {} info",
        counts[Verdict::Better as usize],
        counts[Verdict::Worse as usize],
        counts[Verdict::Within as usize],
        counts[Verdict::Unresolved as usize],
        counts[Verdict::Info as usize],
    );
    Ok(counts[Verdict::Worse as usize] == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(value: f64, spread: f64) -> Reading {
        Reading { value, spread }
    }

    #[test]
    fn bounded_metrics_follow_the_bound_and_the_spread() {
        let j = Judge::Bound("wall_s");
        let v = |old, new| judge(j, Better::Lower, Some(0.08), old, new);
        assert_eq!(v(r(10.0, 0.01), r(10.5, 0.01)), Verdict::Within);
        assert_eq!(v(r(10.0, 0.01), r(11.0, 0.01)), Verdict::Worse);
        assert_eq!(v(r(10.0, 0.01), r(9.0, 0.01)), Verdict::Better);
        assert_eq!(v(r(10.0, 0.20), r(11.0, 0.01)), Verdict::Unresolved);
        let higher = judge(j, Better::Higher, Some(0.08), r(10.0, 0.0), r(11.0, 0.0));
        assert_eq!(higher, Verdict::Better);
    }

    #[test]
    fn exact_and_pinned_metrics_admit_no_difference() {
        let v = |j, new| judge(j, Better::Lower, None, r(250.0, 0.0), r(new, 0.0));
        assert_eq!(v(Judge::Exact, 250.0), Verdict::Within);
        assert_eq!(v(Judge::Exact, 249.999), Verdict::Better);
        assert_eq!(v(Judge::Exact, 250.001), Verdict::Worse);
        assert_eq!(v(Judge::Pinned, 250.0), Verdict::Within);
        assert_eq!(v(Judge::Pinned, 249.0), Verdict::Worse);
        assert_eq!(v(Judge::Info, 1.0), Verdict::Info);
    }
}
