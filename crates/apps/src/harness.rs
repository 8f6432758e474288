//! End-to-end app execution on the full testbed: boot the four-VM stack,
//! register transformations (and Knative services for the serverless
//! venue), stage the generated inputs, and drive the dynamic workflow to
//! completion through Pegasus → DAGMan → the integrated venue factory.

use bytes::Bytes;

use swf_core::{ExperimentConfig, Provisioning, TestBed};
use swf_knative::Knative;
use swf_pegasus::{Pegasus, ReplicaLocation, Transformation};
use swf_simcore::{secs, Sim};
use swf_workloads::ExecEnv;

use crate::dynamic::{run_dynamic, DynamicReport};
use crate::records::fnv1a;
use crate::{build_app, AppKind, AppSpec};

/// One app execution request.
#[derive(Clone, Copy, Debug)]
pub struct AppRun {
    /// Which application.
    pub kind: AppKind,
    /// Venue every job runs in.
    pub env: ExecEnv,
    /// Input-generation seed.
    pub seed: u64,
    /// Quick (CI) scale instead of paper scale.
    pub quick: bool,
    /// Collect spans/metrics (enables the observability pipeline).
    pub trace: bool,
    /// Resume halted rounds from their rescue DAGs.
    pub rescue: bool,
    /// Maximum rescue resumptions per round (ignored unless `rescue` is
    /// set).
    pub max_rescue_rounds: u32,
}

impl AppRun {
    /// Quick-scale run of `kind` in `env` with the default experiment seed.
    pub fn quick(kind: AppKind, env: ExecEnv) -> Self {
        AppRun {
            kind,
            env,
            seed: ExperimentConfig::quick().seed,
            quick: true,
            trace: false,
            rescue: false,
            max_rescue_rounds: 0,
        }
    }

    /// Enable tracing (builder style).
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Enable rescue-DAG resumption (builder style).
    pub fn with_rescue(mut self, max_rounds: u32) -> Self {
        self.rescue = true;
        self.max_rescue_rounds = max_rounds;
        self
    }
}

/// What an app execution produced.
pub struct AppOutcome {
    /// The dynamic run report (rounds, expansions, makespan, salvage).
    pub report: DynamicReport,
    /// The app's final output file, byte for byte.
    pub output: Bytes,
    /// FNV-1a fingerprint of `output` — the cross-venue equality witness.
    pub output_fingerprint: u64,
    /// The observability handle the run recorded into (disabled when
    /// `trace` was off).
    pub obs: swf_obs::Obs,
}

fn register_functions(knative: &Knative, config: &ExperimentConfig, ts: &[Transformation]) {
    for t in ts {
        swf_core::FunctionBuilder::new(
            &t.name,
            swf_container::ImageRef::parse(ExperimentConfig::image_name()),
            t,
        )
        .container_concurrency(config.container_concurrency)
        // One warm pod per service: the bed hosts one service per
        // transformation, so the experiment-level min-scale (sized for a
        // single matmul service) would oversubscribe the worker nodes.
        .provisioning(config.provisioning, 1)
        .serialization_rate(config.serialization_rate)
        .register(knative);
    }
}

/// Run an application end to end. See [`run_app_with`].
pub fn run_app(run: &AppRun) -> Result<AppOutcome, String> {
    run_app_with(run, |_| {})
}

/// Run an application end to end, letting `mutate` adjust the built
/// [`AppSpec`] first (tests use this to wrap transformations with fault
/// injection). The whole execution happens inside a fresh deterministic
/// simulation; the returned outcome carries the real output bytes.
pub fn run_app_with(
    run: &AppRun,
    mutate: impl FnOnce(&mut AppSpec) + 'static,
) -> Result<AppOutcome, String> {
    let run = *run;
    let sim = Sim::new();
    sim.block_on(async move {
        let mut config = if run.quick {
            ExperimentConfig::quick()
        } else {
            ExperimentConfig::paper()
        };
        config.trace = run.trace;
        let obs = if config.trace {
            swf_obs::Obs::enabled()
        } else {
            swf_obs::Obs::disabled()
        };
        let _guard = swf_obs::install(obs.clone());

        let bed = TestBed::boot(&config);
        let mut spec = build_app(run.kind, run.env, run.seed, run.quick);
        mutate(&mut spec);

        let pegasus = Pegasus::new(bed.condor.clone()).with_dagman(config.dagman);
        for t in &spec.transformations {
            pegasus.transformations().register(t.clone());
        }
        if run.env == ExecEnv::Serverless {
            register_functions(&bed.knative, &config, &spec.transformations);
            if config.provisioning == Provisioning::PreStage {
                for t in &spec.transformations {
                    bed.knative
                        .wait_ready(&t.name, 1, secs(600.0))
                        .await
                        .map_err(|e| format!("service {}: {e}", t.name))?;
                }
            }
        }

        // Stage generated inputs and the container image tarball.
        for (name, data) in &spec.inputs {
            bed.cluster.shared_fs().stage(name, data.clone());
            pegasus
                .replicas()
                .register(name, ReplicaLocation::SharedFs(name.clone()));
        }
        let (factory, tarball) = bed.factory();
        pegasus
            .replicas()
            .register(&tarball, ReplicaLocation::SharedFs(tarball.clone()));

        let budget = if run.rescue { run.max_rescue_rounds } else { 0 };
        let report = run_dynamic(&pegasus, &factory, &bed.cluster, &spec.workflow, budget).await?;
        let output = bed
            .cluster
            .shared_fs()
            .read(&spec.final_output)
            .await
            .map_err(|e| format!("final output {}: {e}", spec.final_output))?;
        Ok(AppOutcome {
            output_fingerprint: fnv1a(&output),
            report,
            output,
            obs,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AppKind;

    #[test]
    fn unrescued_validator_failure_is_reported_after_its_siblings_finish() {
        // Quick FINRA expands to five validators; the first one invoked
        // fails. Without rescue the run ends in DAGMan's typed error, and
        // only once the other four have completed.
        let run = AppRun::quick(AppKind::Finra, ExecEnv::Native);
        assert!(!run.rescue);
        let result = run_app_with(&run, |spec| {
            let mut ts = spec.transformations.iter_mut();
            let t = ts.find(|t| t.name == "finra-validate").unwrap();
            let (logic, invoked) = (t.logic.clone(), std::cell::Cell::new(false));
            *t = Transformation::new("finra-validate", t.compute, move |inputs| {
                if invoked.replace(true) {
                    logic(inputs)
                } else {
                    Err("injected fault: first invocation".into())
                }
            });
        });
        let err = result.err().expect("run without rescue must fail");
        assert!(err.contains("injected fault"), "{err}");
        assert!(err.contains("(4 done, 0 pending)"), "{err}");
    }
}
