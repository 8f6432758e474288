//! swf-apps: a dynamic workflow application library.
//!
//! Four application workflows with real Rust kernels and calibrated
//! compute models — FINRA-style market-data validation ([`finra`]), ML
//! training ([`mltrain`]), ML inference ([`mlinfer`]) and word-count
//! MapReduce ([`wordcount`]) — each runnable in any of the paper's three
//! execution venues (native, traditional container, serverless) with
//! bitwise-identical outputs.
//!
//! On top of them sits the [`dynamic`] layer: [`dynamic::DynamicWorkflow`]
//! carries Triggerflow-style triggers that fire when a job or stage
//! completes, read the completed node's *real output bytes*, and decide
//! the successor jobs at runtime — validation fan-out from record counts,
//! partition counts from dataset size, reducer fan-in from the expanded
//! mapper set. [`harness::run_app`] drives an app end to end on the full
//! simulated testbed (Pegasus planning, DAGMan execution with optional
//! rescue-DAG resumption, the integrated venue factory and Knative).

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![warn(clippy::allow_attributes_without_reason)]

use bytes::Bytes;

use swf_pegasus::Transformation;
use swf_simcore::SimDuration;
use swf_workloads::ExecEnv;

pub mod dynamic;
pub mod finra;
pub mod harness;
pub mod mlinfer;
pub mod mltrain;
pub mod records;
pub mod wordcount;

pub use dynamic::{
    DynamicJob, DynamicReport, DynamicWorkflow, Expansion, ExpansionStats, RoundStats, Trigger,
    TriggerContext, TriggerOn,
};
pub use harness::{run_app, run_app_with, AppOutcome, AppRun};

/// Calibrated compute model: a fixed startup cost (milliseconds) plus a
/// per-unit rate (microseconds per record/cell/word). All app kernels
/// derive their modelled single-core time this way.
pub fn calibrated(base_ms: f64, per_unit_us: f64, units: usize) -> SimDuration {
    SimDuration::from_secs_f64(base_ms / 1e3 + per_unit_us * units as f64 / 1e6)
}

/// The four applications.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum AppKind {
    /// FINRA-style market-data validation (high fan-out validate/aggregate).
    Finra,
    /// ML training (partition → featurize → train shards → merge).
    MlTrain,
    /// ML inference (preprocess → batch predict → postprocess).
    MlInfer,
    /// Word-count MapReduce (split → map → shuffle → reduce).
    WordCount,
}

impl AppKind {
    /// Every application, in canonical order.
    pub const ALL: [AppKind; 4] = [
        AppKind::Finra,
        AppKind::MlTrain,
        AppKind::MlInfer,
        AppKind::WordCount,
    ];

    /// Stable lowercase label (file names, scenario names, JSON keys).
    pub fn label(self) -> &'static str {
        match self {
            AppKind::Finra => "finra",
            AppKind::MlTrain => "mltrain",
            AppKind::MlInfer => "mlinfer",
            AppKind::WordCount => "wordcount",
        }
    }
}

impl std::fmt::Display for AppKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Everything needed to run one application: catalog entries, generated
/// inputs, the dynamic workflow and the file the answer lands in.
pub struct AppSpec {
    /// Application name.
    pub name: String,
    /// Transformations to register in the Pegasus catalog (and as Knative
    /// services for the serverless venue).
    pub transformations: Vec<Transformation>,
    /// Generated input files to stage on the shared filesystem.
    pub inputs: Vec<(String, Bytes)>,
    /// The dynamic workflow (initial jobs + triggers).
    pub workflow: dynamic::DynamicWorkflow,
    /// The final output file the app's answer lands in.
    pub final_output: String,
}

/// Build an application spec at quick or paper scale.
pub fn build_app(kind: AppKind, env: ExecEnv, seed: u64, quick: bool) -> AppSpec {
    match kind {
        AppKind::Finra => {
            let p = if quick {
                finra::quick(env)
            } else {
                finra::paper(env)
            };
            finra::spec(&p, seed)
        }
        AppKind::MlTrain => {
            let p = if quick {
                mltrain::quick(env)
            } else {
                mltrain::paper(env)
            };
            mltrain::spec(&p, seed)
        }
        AppKind::MlInfer => {
            let p = if quick {
                mlinfer::quick(env)
            } else {
                mlinfer::paper(env)
            };
            mlinfer::spec(&p, seed)
        }
        AppKind::WordCount => {
            let p = if quick {
                wordcount::quick(env)
            } else {
                wordcount::paper(env)
            };
            wordcount::spec(&p, seed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique_and_stable() {
        let labels: std::collections::BTreeSet<_> =
            AppKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), AppKind::ALL.len());
        assert_eq!(AppKind::Finra.to_string(), "finra");
    }

    #[test]
    fn every_app_builds_a_spec_with_triggers() {
        for kind in AppKind::ALL {
            let spec = build_app(kind, ExecEnv::Native, 1, true);
            assert!(!spec.transformations.is_empty(), "{kind}");
            assert!(!spec.inputs.is_empty(), "{kind}");
            assert!(!spec.workflow.initial_jobs().is_empty(), "{kind}");
            assert!(spec.workflow.triggers().len() >= 2, "{kind}");
            assert!(!spec.final_output.is_empty(), "{kind}");
        }
    }

    #[test]
    fn calibrated_scales_linearly() {
        assert_eq!(calibrated(10.0, 0.0, 0), SimDuration::from_secs_f64(0.01));
        assert_eq!(
            calibrated(0.0, 2.0, 100),
            SimDuration::from_secs_f64(0.0002)
        );
    }
}
