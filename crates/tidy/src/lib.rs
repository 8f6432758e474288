//! `swf-tidy` — a self-contained determinism & robustness linter for the
//! simulated serverless-HPC stack, in the spirit of rustc's `tidy`.
//!
//! The whole reproduction rests on one invariant: a run is a pure function
//! of the program and its seeds (DESIGN.md "Determinism contract"). This
//! crate machine-checks the *source-level* preconditions for that with a
//! hand-rolled lexer and token-pattern rules — no `syn`, no dependencies,
//! works fully offline:
//!
//! - **D1** `wall-clock` / `real-thread` / `real-sync`: no
//!   `std::time::{Instant, SystemTime}`, `std::thread`, or
//!   `std::sync::{Mutex, RwLock}` in simulation crates — virtual time and
//!   the single-threaded executor only.
//! - **D2** `map-iter`: no iteration over `HashMap`/`HashSet` in
//!   simulation logic; use `BTreeMap`/`BTreeSet`, an explicit sort, or a
//!   `// tidy: allow(map-iter) — <reason>` waiver.
//! - **D3** `ambient-rng`: no `thread_rng`/`rand::random`/hasher-derived
//!   randomness outside `swf-simcore::rng`.
//! - **R1** `unwrap`: `unwrap()`/`expect()`/`panic!`-family sites in
//!   non-test simulation code are counted against a checked-in baseline
//!   ([`Baseline`]) that can only ratchet down.
//! - **S1** `crate-docs`: every crate gates `missing_docs` and carries
//!   crate-level docs.
//!
//! Run it as `cargo run -p swf-tidy -- check` (add `--json` for
//! machine-readable output, `--bless` to regenerate the baseline).

#![warn(missing_docs)]

pub mod baseline;
pub mod config;
pub mod context;
pub mod layers;
pub mod lexer;
pub mod registry;
pub mod rules;
pub mod rules_arith;
pub mod rules_async;
pub mod rules_float;
pub mod rules_metrics;
pub mod sarif;
pub mod tree;

use std::collections::BTreeMap;
use std::path::Path;

pub use baseline::Baseline;
pub use config::Config;
pub use rules::{ScanOptions, Violation};
pub use sarif::to_sarif;

/// The outcome of one full `check` pass.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// All violations (A/D/C/M/L-rules, R1 baseline deltas, S1),
    /// sorted by file then line.
    pub violations: Vec<Violation>,
    /// Files scanned under the D/R rules.
    pub files_scanned: usize,
    /// Actual panic-family counts per file (input to `--bless`).
    pub unwrap_counts: BTreeMap<String, usize>,
    /// Total panic-family sites across all scanned files.
    pub unwrap_total: usize,
    /// Every literal metric name emitted in non-test code, sorted and
    /// deduplicated (input to `--bless` for `metrics.registry`).
    pub metric_names: std::collections::BTreeSet<String>,
}

impl Report {
    /// Did the check pass?
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Render as machine-readable JSON (stable key order).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"ok\": ");
        out.push_str(if self.ok() { "true" } else { "false" });
        out.push_str(&format!(
            ",\n  \"files_scanned\": {},\n  \"unwrap_total\": {},\n  \"violations\": [",
            self.files_scanned, self.unwrap_total
        ));
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}",
                json_str(v.rule),
                json_str(&v.file),
                v.line,
                json_str(&v.message)
            ));
        }
        if !self.violations.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Minimal JSON string escaping (the only JSON we emit).
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Recursively collect `.rs` files under `dir`, sorted for deterministic
/// reports. Silently skips unreadable directories (a linter must not
/// panic on a half-built tree).
fn rust_files(dir: &Path) -> Vec<std::path::PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            out.extend(rust_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Run the full check: D/R rules over every simulation crate's `src/`
/// tree, the R1 baseline comparison, and the structural S1 rule.
pub fn run_check(config: &Config) -> Result<Report, String> {
    let mut report = Report::default();
    let baseline = Baseline::load(&config.root.join(&config.baseline))?;
    let mut scanned = std::collections::BTreeSet::new();
    let mut metric_uses: Vec<(String, rules_metrics::MetricUse)> = Vec::new();

    for krate in &config.sim_crates {
        let src = config.root.join("crates").join(krate).join("src");
        for path in rust_files(&src) {
            let rel_path = rel(&config.root, &path);
            let source = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let opts = ScanOptions {
                check_ambient_rng: !config.rng_exempt.contains(&rel_path),
                check_arith: config.arith_paths.iter().any(|p| rel_path.contains(p)),
            };
            let mut scan = rules::scan_file(&rel_path, &source, opts);
            report.files_scanned += 1;
            report.violations.append(&mut scan.violations);
            report.unwrap_total += scan.unwrap_count;
            if scan.unwrap_count > 0 {
                report
                    .unwrap_counts
                    .insert(rel_path.clone(), scan.unwrap_count);
            }
            for u in std::mem::take(&mut scan.metric_uses) {
                report.metric_names.insert(u.name.clone());
                metric_uses.push((rel_path.clone(), u));
            }
            check_against_baseline(&rel_path, &scan, &baseline, &mut report.violations);
            scanned.insert(rel_path);
        }
    }

    if let Some(reg_path) = &config.metrics_registry {
        check_metric_registry(config, reg_path, &metric_uses, &mut report.violations);
    }

    // Baseline entries for files that no longer exist.
    for (path, allowed) in &baseline.counts {
        if *allowed > 0 && !scanned.contains(path) {
            report.violations.push(Violation {
                rule: rules::UNWRAP,
                file: path.clone(),
                line: 0,
                message: format!(
                    "baseline is stale: allows {allowed} panic-family sites but the file \
                     no longer exists — run `cargo run -p swf-tidy -- check --bless`"
                ),
            });
        }
    }

    if config.check_structure {
        check_structure(config, &mut report.violations);
    }

    layers::check_layers(config, &mut report.violations);

    report
        .violations
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// M-rules, global half: cross-check the harvested literal names against
/// the `metrics.registry` manifest, both directions.
fn check_metric_registry(
    config: &Config,
    reg_path: &str,
    metric_uses: &[(String, rules_metrics::MetricUse)],
    violations: &mut Vec<Violation>,
) {
    let registry = registry::Registry::load(&config.root.join(reg_path));
    for (file, u) in metric_uses {
        if registry.entries.contains_key(&u.name) || u.unknown_waived {
            continue;
        }
        violations.push(Violation {
            rule: rules::METRIC_UNKNOWN,
            file: file.clone(),
            line: u.line,
            message: format!(
                "metric `{}` is not in {reg_path} — a typo'd name means a silently-empty \
                 dashboard panel; fix the name or run `cargo run -p swf-tidy -- check \
                 --bless` to register it",
                u.name
            ),
        });
    }
    let used: std::collections::BTreeSet<&str> =
        metric_uses.iter().map(|(_, u)| u.name.as_str()).collect();
    for (name, line) in &registry.entries {
        if !used.contains(name.as_str()) {
            violations.push(Violation {
                rule: rules::METRIC_DEAD,
                file: reg_path.to_string(),
                line: *line,
                message: format!(
                    "registry entry `{name}` is no longer emitted anywhere — remove it \
                     (or run `--bless`) so dashboards don't reference dead series"
                ),
            });
        }
    }
    for (name, line) in &registry.duplicates {
        violations.push(Violation {
            rule: rules::METRIC_DEAD,
            file: reg_path.to_string(),
            line: *line,
            message: format!("duplicate registry entry `{name}`"),
        });
    }
}

/// Compare one file's R1 count against the baseline.
fn check_against_baseline(
    rel_path: &str,
    scan: &rules::FileScan,
    baseline: &Baseline,
    violations: &mut Vec<Violation>,
) {
    let allowed = baseline.counts.get(rel_path).copied().unwrap_or(0);
    if scan.unwrap_count > allowed {
        let fresh: Vec<String> = scan
            .unwrap_lines
            .iter()
            .rev()
            .take(scan.unwrap_count - allowed)
            .map(|l| l.to_string())
            .collect();
        violations.push(Violation {
            rule: rules::UNWRAP,
            file: rel_path.to_string(),
            line: *scan.unwrap_lines.last().unwrap_or(&0),
            message: format!(
                "{} panic-family sites but the baseline allows {} — convert the new \
                 ones (near lines {}) to typed errors, or re-bless if this is a \
                 deliberate, reviewed exception",
                scan.unwrap_count,
                allowed,
                fresh.join(", ")
            ),
        });
    } else if scan.unwrap_count < allowed {
        violations.push(Violation {
            rule: rules::UNWRAP,
            file: rel_path.to_string(),
            line: 0,
            message: format!(
                "good news: {} panic-family sites, baseline allows {} — run \
                 `cargo run -p swf-tidy -- check --bless` to ratchet the debt down",
                scan.unwrap_count, allowed
            ),
        });
    }
}

/// S1: every crate gates its docs and carries a crate-level header.
fn check_structure(config: &Config, violations: &mut Vec<Violation>) {
    let crates_dir = config.root.join("crates");
    let Ok(entries) = std::fs::read_dir(&crates_dir) else {
        return;
    };
    let mut dirs: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    dirs.sort();
    for dir in dirs {
        let lib = dir.join("src/lib.rs");
        let Ok(source) = std::fs::read_to_string(&lib) else {
            continue;
        };
        let rel_path = rel(&config.root, &lib);
        if !source.contains("missing_docs") {
            violations.push(Violation {
                rule: rules::CRATE_DOCS,
                file: rel_path.clone(),
                line: 1,
                message: "crate does not gate its public API docs — add \
                          `#![warn(missing_docs)]` after the crate docs"
                    .into(),
            });
        }
        if !source.trim_start().starts_with("//!") {
            violations.push(Violation {
                rule: rules::CRATE_DOCS,
                file: rel_path,
                line: 1,
                message: "crate has no crate-level `//!` documentation header".into(),
            });
        }
    }
}

/// Regenerate the ratchet files from the current tree: the R1 unwrap
/// baseline and (when configured) the metric-name registry. Returns the
/// rendered baseline content that was written.
pub fn bless(config: &Config) -> Result<String, String> {
    let mut probe = config.clone();
    probe.check_structure = false;
    let report = run_check(&probe)?;
    let content = Baseline::render(&report.unwrap_counts);
    let path = config.root.join(&config.baseline);
    std::fs::write(&path, &content).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    if let Some(reg_path) = &config.metrics_registry {
        let reg = registry::Registry::render(report.metric_names.iter().map(String::as_str));
        let path = config.root.join(reg_path);
        std::fs::write(&path, reg).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(content)
}
