//! What the linter checks and where: the workspace policy.

use std::path::{Path, PathBuf};

/// Linter configuration: which crates carry the determinism contract.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workspace root (the directory holding the top-level `Cargo.toml`).
    pub root: PathBuf,
    /// Crate directory names under `crates/` whose `src/` trees must obey
    /// the D- and R-rules (the "simulation crates": everything that runs
    /// inside virtual time).
    pub sim_crates: Vec<String>,
    /// Workspace-relative path of the R1 baseline file.
    pub baseline: String,
    /// Workspace-relative files exempt from D3 (the seeded-RNG
    /// implementation itself).
    pub rng_exempt: Vec<String>,
    /// Run the structural S-rule (crate docs).
    pub check_structure: bool,
    /// Path substrings that opt a file into the C-rules (checked
    /// arithmetic): codec/records/registry-style files where size
    /// arithmetic feeds wire formats.
    pub arith_paths: Vec<String>,
    /// Workspace-relative path of the metric-name registry manifest;
    /// `None` disables the M-rule registry cross-check.
    pub metrics_registry: Option<String>,
    /// Declared layer order, bottom first. Crate directory names; every
    /// dependency edge must point strictly downward. Empty disables the
    /// L-rules.
    pub layers: Vec<Vec<String>>,
}

impl Config {
    /// The policy for this repository.
    pub fn repo(root: PathBuf) -> Config {
        Config {
            root,
            sim_crates: [
                "simcore",
                "cluster",
                "container",
                "k8s",
                "knative",
                "condor",
                "pegasus",
                "workloads",
                "metrics",
                "obs",
                "core",
                "chaos",
                "apps",
                "elastic",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            baseline: "tidy.baseline".to_string(),
            rng_exempt: vec!["crates/simcore/src/rng.rs".to_string()],
            check_structure: true,
            arith_paths: ["codec", "records", "registry", "record"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            metrics_registry: Some("metrics.registry".to_string()),
            layers: [
                // Bottom: the event loop, the metric math, and the linter
                // itself — nothing here may look upward.
                &["simcore", "metrics", "tidy"][..],
                // Infrastructure primitives over virtual time, plus the
                // test-only reference executor (oracle for the differential
                // scheduler harness — depends only on simcore's time types).
                &["obs", "cluster", "workloads", "simref"],
                // Single-venue execution managers.
                &["condor", "container"],
                &["k8s"],
                // Venue compositions (knative rides k8s, pegasus rides
                // condor).
                &["knative", "pegasus"],
                // The cross-venue testbed and experiments.
                &["core"],
                // Consumers of the full stack.
                &["chaos", "apps"],
                // Elastic infrastructure rides the chaos harness.
                &["elastic"],
                &["bench"],
            ]
            .iter()
            .map(|layer| layer.iter().map(|s| s.to_string()).collect())
            .collect(),
        }
    }

    /// Locate the workspace root: `CARGO_MANIFEST_DIR/../..` when invoked
    /// via `cargo run -p swf-tidy`, else walk up from `cwd` looking for a
    /// `Cargo.toml` containing `[workspace]`.
    pub fn find_root() -> Option<PathBuf> {
        if let Ok(manifest) = std::env::var("CARGO_MANIFEST_DIR") {
            let candidate = Path::new(&manifest).join("../..");
            if let Ok(canon) = candidate.canonicalize() {
                if is_workspace_root(&canon) {
                    return Some(canon);
                }
            }
        }
        let mut dir = std::env::current_dir().ok()?;
        loop {
            if is_workspace_root(&dir) {
                return Some(dir);
            }
            if !dir.pop() {
                return None;
            }
        }
    }
}

fn is_workspace_root(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("Cargo.toml"))
        .map(|t| t.contains("[workspace]"))
        .unwrap_or(false)
}
