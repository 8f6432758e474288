//! One run harness: the only place an experiment brings the §V-A stack up.
//!
//! [`run`] creates a [`Sim`], installs one span collector, boots the
//! [`TestBed`] and drives the caller's async body on it. Every experiment
//! calls it; only `benchmark/src/drive.rs` still writes `run_once`'s out.
//!
//! **The collector rule.** A run records into the ambient collector
//! ([`swf_obs::current`]) if it is enabled — one a suite scenario, elastic
//! arm or traced chaos sweep installed for its whole length — and otherwise
//! into a fresh collector, enabled iff `config.trace`. The telemetry
//! sampler starts inside `boot`, before anything the body spawns.

use swf_obs::Obs;
use swf_pegasus::{Pegasus, PlanOptions, ReplicaLocation};
use swf_simcore::{secs, Sim};

use crate::builder::matmul_transformation;
use crate::config::{ExperimentConfig, Provisioning};
use crate::error::ExperimentError;
use crate::factory::IntegratedFactory;
use crate::function::register_matmul;
use crate::testbed::TestBed;

/// Boot a [`TestBed`] from `config` in a fresh simulation and run `body` on
/// it to completion; returns its value and the collector the run recorded
/// into. `block_on` drives the body directly: the harness adds no task,
/// timer or yield, so a run's executor counts are the body's.
pub fn run<T: 'static>(
    config: &ExperimentConfig,
    body: impl AsyncFnOnce(&TestBed) -> T + 'static,
) -> (T, Obs) {
    let ambient = swf_obs::current();
    let obs = if ambient.is_enabled() {
        ambient
    } else if config.trace {
        Obs::enabled()
    } else {
        Obs::disabled()
    };
    let sim = Sim::new();
    let _guard = swf_obs::install(obs.clone());
    let config = config.clone();
    let value = sim.block_on(async move {
        let bed = TestBed::boot(&config);
        body(&bed).await
    });
    (value, obs)
}

/// Under pre-staged provisioning, wait until the matmul function has its
/// `min_scale` ready pods; deferred provisioning waits for nothing.
pub(crate) async fn matmul_ready(bed: &TestBed) -> Result<(), ExperimentError> {
    if bed.config.provisioning == Provisioning::PreStage {
        bed.knative
            .wait_ready("matmul", bed.config.min_scale as usize, secs(3600.0))
            .await
            .map_err(|_| ExperimentError::ServiceNotReady("matmul".into()))?;
    }
    Ok(())
}

/// The matmul-chain set-up on a booted bed: the integrated factory (image
/// tarball staged), the matmul function registered and ready, and Pegasus
/// with the bed's DAGMan config, `plan`, the matmul transformation and the
/// tarball replica.
pub async fn matmul_pegasus(
    bed: &TestBed,
    plan: PlanOptions,
) -> Result<(Pegasus, IntegratedFactory), ExperimentError> {
    let (factory, tarball) = bed.factory();
    register_matmul(&bed.knative, &bed.config);
    matmul_ready(bed).await?;
    let pegasus = Pegasus::new(bed.condor.clone())
        .with_dagman(bed.config.dagman)
        .with_plan_options(plan);
    pegasus
        .transformations()
        .register(matmul_transformation(&bed.config));
    pegasus
        .replicas()
        .register(&tarball, ReplicaLocation::SharedFs(tarball.clone()));
    Ok((pegasus, factory))
}

#[cfg(test)]
mod tests {
    use super::*;
    use swf_simcore::perf;

    #[test]
    fn an_enabled_ambient_collector_is_reused() {
        let ambient = Obs::enabled();
        let _guard = swf_obs::install(ambient.clone());
        let mut config = ExperimentConfig::quick();
        config.trace = false;
        let ((), obs) = run(&config, async |_| {
            swf_obs::current().counter_add("harness.test", 1);
        });
        assert!(obs.is_enabled());
        assert_eq!(ambient.metrics().counters.get("harness.test"), Some(&1));
        assert_eq!(obs.metrics().counters.get("harness.test"), Some(&1));
    }

    #[test]
    fn without_an_ambient_collector_trace_decides() {
        let mut config = ExperimentConfig::quick();
        config.trace = true;
        let (inside, obs) = run(&config, async |_| swf_obs::current());
        assert!(obs.is_enabled());
        // The returned collector is the one the run recorded into.
        inside.counter_add("harness.test", 3);
        assert_eq!(obs.metrics().counters.get("harness.test"), Some(&3));
        assert!(!swf_obs::current().is_enabled(), "the guard restores");

        config.trace = false;
        let (inside, obs) = run(&config, async |_| swf_obs::current());
        assert!(!obs.is_enabled());
        assert!(!inside.is_enabled());
    }

    #[test]
    fn a_service_that_never_becomes_ready_is_a_typed_error() {
        // More warm pods than the three workers can hold: the wait times
        // out in virtual time and the set-up returns, it does not panic.
        let mut config = ExperimentConfig::quick();
        config.min_scale = 100;
        let (result, _) = run(&config, async |bed| {
            matmul_pegasus(bed, PlanOptions::default())
                .await
                .map(|_| ())
        });
        assert_eq!(
            result,
            Err(ExperimentError::ServiceNotReady("matmul".into()))
        );
    }

    async fn idle(idle_s: f64) {
        if idle_s > 0.0 {
            swf_simcore::sleep(secs(idle_s)).await;
        }
    }

    #[test]
    fn the_harness_adds_no_executor_work_to_a_bare_boot() {
        let mut traced = ExperimentConfig::quick();
        traced.trace = true;
        traced.series_interval_s = 5.0;
        for config in [ExperimentConfig::quick(), traced] {
            // An empty body, and one that lets the controllers run.
            for idle_s in [0.0, 30.0] {
                perf::reset_ready_peak();
                let before = perf::snapshot();
                run(&config, async move |_| idle(idle_s).await);
                let harness = perf::snapshot().delta(&before);

                perf::reset_ready_peak();
                let before = perf::snapshot();
                let obs = if config.trace {
                    Obs::enabled()
                } else {
                    Obs::disabled()
                };
                let _guard = swf_obs::install(obs);
                let bare_config = config.clone();
                Sim::new().block_on(async move {
                    let _bed = TestBed::boot(&bare_config);
                    idle(idle_s).await;
                });
                let bare = perf::snapshot().delta(&before);
                assert_eq!(harness, bare, "trace {} idle {idle_s}", config.trace);
            }
        }
    }
}
