//! `ctrl-scale`: the control plane under load, kernels out of the picture.
//!
//! One hundred concurrent workflows of one hundred tasks, a third in each
//! venue, on the quick configuration (16×16 matrices, program tracing off):
//! 3.35 million executor events per pass, spent in `simcore`, `condor`,
//! `knative`, `k8s`, `container` and `pegasus`, with the matmul kernel under
//! two per cent of the time. It is the bypass workload for any kernel or
//! codec change and the target for executor and scheduler ones.

use serde_json::{json, Value};
use swf_core::experiments::{run_once, ConcurrentParams};
use swf_core::ExperimentConfig;

use crate::tracer::Tracer;
use crate::workload::{seeded, touch_zero_pool, Checks, LayerCtx, PassOut, Values, Workload};
use crate::{drive, layers};

pub struct CtrlScale {
    config: ExperimentConfig,
    params: ConcurrentParams,
}

/// The quick configuration with 8×8 matrices: small enough that the real
/// kernel and codec stay under two per cent of a pass, so the workload
/// measures the control plane and nothing else. Virtual time is unaffected
/// (the quick compute model is fixed per task).
pub fn control_plane_config(seed: u64) -> ExperimentConfig {
    let mut config = seeded(ExperimentConfig::quick(), seed);
    config.matrix_dim = 8;
    config
}

/// The shape `ctrl-scale` and `obs-export` share: `side` workflows of `side`
/// tasks, a third in each venue.
pub fn square(side: usize) -> ConcurrentParams {
    ConcurrentParams {
        workflows: side,
        tasks_per_workflow: side,
        mix: drive::THIRDS,
        ..ConcurrentParams::default()
    }
}

/// Full and smoke side of the square (smoke runs about a twentieth of the
/// tasks).
pub fn side(smoke: bool) -> usize {
    if smoke {
        22
    } else {
        100
    }
}

impl CtrlScale {
    pub fn new(seed: u64, smoke: bool, tr: &Tracer, checks: &mut Checks) -> CtrlScale {
        let config = control_plane_config(seed);
        touch_zero_pool(tr);
        drive::warm_up(&config, checks);
        CtrlScale {
            config,
            params: square(side(smoke)),
        }
    }

    fn tasks(&self) -> usize {
        self.params.workflows * self.params.tasks_per_workflow
    }
}

impl Workload for CtrlScale {
    fn pass(&mut self, tr: &Tracer, checks: &mut Checks) -> PassOut {
        let run = tr.span("core.run_once", || run_once(&self.config, self.params, 0));
        // `run_once` returns only when every workflow has completed.
        checks.passed(self.params.workflows as u64);
        let mut out = PassOut::default();
        out.exact.insert("makespan_s", run.slowest);
        out.exact
            .insert("workloads.matmul_calls", self.tasks() as f64);
        out
    }

    fn layers(&mut self, ctx: &LayerCtx, checks: &mut Checks, out: &mut Values) {
        layers::concurrent_stack(
            &self.config,
            self.params,
            ctx.exact["makespan_s"],
            self.tasks(),
            ctx,
            checks,
            out,
        );
    }

    fn sizes(&self) -> Value {
        json!({
            "matrix_dim": (self.config.matrix_dim),
            "workflows": (self.params.workflows),
            "tasks_per_workflow": (self.params.tasks_per_workflow),
            "mix": "one third native, serverless, container",
        })
    }
}
