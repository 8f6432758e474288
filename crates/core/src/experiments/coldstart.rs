//! §III-B cold-start measurement: the paper reports 1.48 s for a Knative
//! function whose image is already on the workers.

use swf_cluster::{NodeId, Request};
use swf_simcore::{now, secs};

use crate::builder::input_pair;
use crate::config::{ExperimentConfig, Provisioning};
use crate::error::ExperimentError;
use crate::function::{encode_payload, register_matmul};
use crate::harness;

/// Cold-start measurement result.
#[derive(Clone, Copy, Debug)]
pub struct ColdStartResult {
    /// End-to-end first-request latency (s).
    pub first_request: f64,
    /// The same minus modelled compute: the cold start itself.
    pub cold_start: f64,
    /// A subsequent warm request for contrast (s).
    pub warm_request: f64,
}

/// Measure one cold start followed by one warm request.
pub fn run(config: &ExperimentConfig) -> Result<ColdStartResult, ExperimentError> {
    let mut config = config.clone();
    config.provisioning = Provisioning::Deferred;
    // §III-B stores input data on the node; the measured request carries no
    // bulky payload, so pass-by-value serialization does not apply.
    config.serialization_rate = 0.0;
    harness::run(&config, async move |bed| {
        let config = &bed.config;
        // Image cached on workers; pods deferred — §III-B's setup.
        for node in bed.k8s.schedulable_nodes() {
            bed.registry.pull(node, &bed.image).await?;
        }
        register_matmul(&bed.knative, config);
        swf_simcore::sleep(secs(1.0)).await;

        let (a, b) = input_pair(config, "coldstart");
        let payload = encode_payload(&[a, b]);
        let compute = config.compute.for_dim(config.matrix_dim).as_secs_f64();

        let t0 = now();
        bed.knative
            .invoke(
                NodeId(0),
                "matmul",
                Request::post("/invoke", payload.clone()),
            )
            .await?;
        let first_request = (now() - t0).as_secs_f64();

        let t1 = now();
        bed.knative
            .invoke(NodeId(0), "matmul", Request::post("/invoke", payload))
            .await?;
        let warm_request = (now() - t1).as_secs_f64();

        Ok(ColdStartResult {
            first_request,
            cold_start: first_request - compute,
            warm_request,
        })
    })
    .0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_start_is_near_paper_and_warm_is_cheap() {
        let mut config = ExperimentConfig::quick();
        config.matrix_dim = 8;
        let r = run(&config).unwrap();
        assert!(
            (r.cold_start - 1.48).abs() < 0.25,
            "cold start {:.3}s",
            r.cold_start
        );
        assert!(r.warm_request < r.first_request / 3.0);
    }
}
