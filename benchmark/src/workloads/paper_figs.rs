//! `paper-figs`: what the paper's readers regenerate, at paper scale.
//!
//! Cold start, Fig. 1, Fig. 2 and the three pure mixes of the 10×10
//! concurrent experiment, all at 350×350. Every task multiplies real
//! matrices, so the `workloads` kernel and codec do nine tenths of the host
//! work and the control plane almost none: the workload on which a kernel or
//! codec change must show, and the one that carries fidelity against the
//! paper's own figures.

use serde_json::{json, Value};
use swf_core::experiments::{coldstart, fig1, fig2, run_once, ConcurrentParams};
use swf_core::ExperimentConfig;
use swf_simcore::{secs, SimDuration};
use swf_workloads::EnvMix;

use crate::tracer::Tracer;
use crate::workload::{seeded, touch_zero_pool, Checks, LayerCtx, PassOut, Values, Workload};
use crate::{drive, layers};

struct Sizes {
    fig1_counts: &'static [usize],
    fig2_counts: &'static [usize],
    workflows: usize,
    tasks: usize,
}

/// The seven quantities the paper states and this repository measures:
/// metric name and the paper's value.
const FIDELITY: [(&str, f64); 7] = [
    ("fidelity.cold_start_s", 1.48),
    ("fidelity.fig1_slope_reduction", 0.30),
    ("fidelity.fig2_native_slope", 0.28),
    ("fidelity.fig2_knative_slope", 0.30),
    ("fidelity.fig2_container_slope", 0.96),
    ("fidelity.fig6_native_s", 250.0),
    ("fidelity.fig6_serverless_x", 1.08),
];

pub struct PaperFigs {
    config: ExperimentConfig,
    fig2_config: ExperimentConfig,
    sizes: Sizes,
    /// Slowest workflow of the last pass's all-serverless run.
    serverless_slowest: f64,
}

impl PaperFigs {
    pub fn new(seed: u64, smoke: bool, tr: &Tracer, checks: &mut Checks) -> PaperFigs {
        let sizes = if smoke {
            Sizes {
                fig1_counts: &[2, 4],
                fig2_counts: &[2, 4],
                workflows: 3,
                tasks: 3,
            }
        } else {
            Sizes {
                fig1_counts: &[10, 20, 40],
                fig2_counts: &[4, 8, 16, 24],
                workflows: 10,
                tasks: 10,
            }
        };
        let config = seeded(ExperimentConfig::paper(), seed);
        // The fig2 harness's own calibration: one burst of independent jobs,
        // negotiation-bound, so the native slope lands near the paper's 0.28.
        let mut fig2_config = config.clone();
        fig2_config.condor.negotiator.cycle_interval = secs(5.0);
        fig2_config.condor.negotiator.activation_delay = SimDuration::ZERO;
        touch_zero_pool(tr);
        drive::warm_up(&config, checks);
        PaperFigs {
            config,
            fig2_config,
            sizes,
            serverless_slowest: 0.0,
        }
    }

    fn params(&self, mix: EnvMix) -> ConcurrentParams {
        ConcurrentParams {
            workflows: self.sizes.workflows,
            tasks_per_workflow: self.sizes.tasks,
            mix,
            ..ConcurrentParams::default()
        }
    }

    /// One matmul per task: Fig. 1 runs each count under Docker and Knative,
    /// Fig. 2 under three venues, cold start issues two requests.
    fn matmul_calls(&self) -> usize {
        2 + 2 * self.sizes.fig1_counts.iter().sum::<usize>()
            + 3 * self.sizes.fig2_counts.iter().sum::<usize>()
            + 3 * self.sizes.workflows * self.sizes.tasks
    }
}

impl Workload for PaperFigs {
    fn pass(&mut self, tr: &Tracer, checks: &mut Checks) -> PassOut {
        let mut out = PassOut::default();
        let cold = tr.span("core.coldstart", || coldstart::run(&self.config));
        let cold = checks.check_result(cold.map_err(|e| e.to_string()), "coldstart");
        let f1 = tr.span("core.fig1", || {
            fig1::run(&self.config, self.sizes.fig1_counts)
        });
        let f1 = checks.check_result(f1.map_err(|e| e.to_string()), "fig1");
        let f2 = tr.span("core.fig2", || {
            fig2::run(&self.fig2_config, self.sizes.fig2_counts)
        });
        checks.passed((self.sizes.fig1_counts.len() + 3 * self.sizes.fig2_counts.len()) as u64);
        let [native, serverless, container] = [
            EnvMix::ALL_NATIVE,
            EnvMix::ALL_SERVERLESS,
            EnvMix::ALL_CONTAINER,
        ]
        .map(|mix| {
            tr.span("core.run_once", || {
                run_once(&self.config, self.params(mix), 0)
            })
        });
        // `run_once` returns only when every workflow has completed.
        checks.passed(3 * self.sizes.workflows as u64);
        self.serverless_slowest = serverless.slowest;

        let measured = [
            cold.map_or(0.0, |c| c.cold_start),
            f1.map_or(0.0, |f| f.slope_reduction),
            f2.native_fit.slope,
            f2.knative_fit.slope,
            f2.container_fit.slope,
            native.slowest,
            serverless.slowest / native.slowest,
        ];
        let mut errors = Vec::with_capacity(FIDELITY.len());
        for ((name, paper), value) in FIDELITY.into_iter().zip(measured) {
            out.exact.insert(name, value);
            errors.push((value - paper).abs() / paper);
        }
        out.exact.insert(
            "fidelity_mean_rel_err",
            errors.iter().sum::<f64>() / errors.len() as f64,
        );
        out.exact.insert(
            "fidelity_max_rel_err",
            errors.iter().copied().fold(0.0, f64::max),
        );
        out.exact.insert(
            "makespan_s",
            (native.slowest + serverless.slowest + container.slowest) / 3.0,
        );
        out.exact.insert(
            "serverless_vs_container_x",
            container.slowest / serverless.slowest,
        );
        out.exact
            .insert("workloads.matmul_calls", self.matmul_calls() as f64);
        out
    }

    fn layers(&mut self, ctx: &LayerCtx, checks: &mut Checks, out: &mut Values) {
        // The all-serverless run stands for the stack: it is the venue the
        // paper argues for, and the one whose makespan the others are set
        // against.
        layers::concurrent_stack(
            &self.config,
            self.params(EnvMix::ALL_SERVERLESS),
            self.serverless_slowest,
            self.matmul_calls(),
            ctx,
            checks,
            out,
        );
    }

    fn sizes(&self) -> Value {
        json!({
            "matrix_dim": (self.config.matrix_dim),
            "fig1_counts": (self.sizes.fig1_counts.to_vec()),
            "fig2_counts": (self.sizes.fig2_counts.to_vec()),
            "concurrent": (format!("{}x{} at all-native, all-serverless, all-container", self.sizes.workflows, self.sizes.tasks)),
        })
    }
}
