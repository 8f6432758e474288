//! Task containerization and registration (§IV-1 of the paper).
//!
//! A Pegasus transformation is wrapped in an HTTP event listener (the
//! paper's Flask route) and registered with Knative *before* workflow
//! execution as a KService whose typed scale settings control
//! provisioning: `min-scale = N` pre-stages containers on N workers,
//! `initial-scale = 0` defers downloads until the first invocation.

use bytes::Bytes;

use swf_cluster::{Body, Request};
use swf_container::{ImageRef, ResourceLimits, Workload};
use swf_knative::{KService, Knative};
use swf_pegasus::Transformation;
use swf_simcore::SimDuration;

use crate::config::{ExperimentConfig, Provisioning};

/// Builder turning a transformation into a registered serverless function.
pub struct FunctionBuilder {
    service_name: String,
    image: ImageRef,
    compute: SimDuration,
    logic: swf_pegasus::TaskLogic,
    container_concurrency: u32,
    provisioning: Provisioning,
    min_scale: u32,
    serialization_rate: f64,
}

/// Limits of the container a task runs in, function pod and `docker run`
/// alike: one core, 512 MiB.
pub(crate) const TASK_LIMITS: ResourceLimits = ResourceLimits::one_core(512);

impl FunctionBuilder {
    /// Wrap `transformation` for service `name` backed by `image`.
    pub fn new(name: impl Into<String>, image: ImageRef, transformation: &Transformation) -> Self {
        FunctionBuilder {
            service_name: name.into(),
            image,
            compute: transformation.compute,
            logic: transformation.logic.clone(),
            container_concurrency: 1,
            provisioning: Provisioning::PreStage,
            min_scale: 1,
            serialization_rate: 0.0,
        }
    }

    /// Set the function-side payload (de)serialization throughput, in
    /// bytes/s (builder style; 0 disables). Models the paper's Flask
    /// function decoding the request matrices and encoding the product.
    pub fn serialization_rate(mut self, rate: f64) -> Self {
        self.serialization_rate = rate;
        self
    }

    /// Set container concurrency (builder style).
    pub fn container_concurrency(mut self, cc: u32) -> Self {
        self.container_concurrency = cc;
        self
    }

    /// Set provisioning mode and min-scale (builder style).
    pub fn provisioning(mut self, mode: Provisioning, min_scale: u32) -> Self {
        self.provisioning = mode;
        self.min_scale = min_scale;
        self
    }

    /// Register with Knative: the paper's manual pre-execution step.
    /// The handler decodes the pass-by-value payload (all input files are
    /// in the request body), charges the modelled compute, runs the real
    /// logic, and returns its outputs as one list body.
    pub fn register(self, knative: &Knative) {
        let ksvc = KService::new(&self.service_name, self.image)
            .with_container_concurrency(self.container_concurrency)
            .with_resources(TASK_LIMITS);
        let ksvc = match self.provisioning {
            Provisioning::PreStage => ksvc.with_min_scale(self.min_scale),
            Provisioning::Deferred => ksvc.with_initial_scale(0),
        };
        let compute = self.compute;
        let logic = self.logic;
        let ser_rate = self.serialization_rate;
        knative.register_fn(ksvc, move |req: &Request| {
            let payload = req.body.clone();
            let logic = logic.clone();
            // Function-side (de)serialization: decode the request payload,
            // later encode the response. The response is approximated at
            // half the request size (two matrices in, one out), charged as
            // part of the container's busy time.
            let mut busy = compute;
            if ser_rate > 0.0 {
                let bytes = payload.len() as f64 * 1.5;
                busy += swf_simcore::SimDuration::from_secs_f64(bytes / ser_rate);
            }
            Workload::new(busy, move || {
                let inputs = decode_payload(payload)?;
                let outputs = logic(inputs)?;
                Ok(encode_payload(&outputs))
            })
        });
    }
}

/// Put a list of payloads into one body: a request's inputs
/// (pass-by-value invocation, §IV-3) or a response's outputs. The body
/// holds the payloads' own buffers and is charged as their encoding
/// ([`Body::len`]); no byte of them is copied.
pub fn encode_payload(inputs: &[Bytes]) -> Body {
    Body::list(inputs)
}

/// The payloads of a body made by [`encode_payload`], as they were put
/// in; an opaque body is parsed as that encoding.
pub fn decode_payload(body: Body) -> Result<Vec<Bytes>, String> {
    use bytes::Buf;
    if let Some(payloads) = body.payloads() {
        return Ok(payloads.to_vec());
    }
    let mut data = body.to_bytes();
    if data.len() < 4 {
        return Err("payload too short".into());
    }
    let n = data.get_u32_le() as usize;
    // Every item takes at least its 8-byte length, so a count the body
    // cannot hold reserves no more than the body could.
    let mut out = Vec::with_capacity(n.min(data.len() / 8));
    for i in 0..n {
        if data.len() < 8 {
            return Err(format!("payload truncated at item {i}"));
        }
        let len = data.get_u64_le() as usize;
        if data.len() < len {
            return Err(format!("payload item {i} truncated"));
        }
        out.push(data.split_to(len));
    }
    Ok(out)
}

/// Register the experiment's matmul function per the configuration.
pub fn register_matmul(knative: &Knative, config: &ExperimentConfig) -> String {
    let transformation = crate::builder::matmul_transformation(config);
    FunctionBuilder::new(
        "matmul",
        ImageRef::parse(ExperimentConfig::image_name()),
        &transformation,
    )
    .container_concurrency(config.container_concurrency)
    .provisioning(config.provisioning, config.min_scale)
    .serialization_rate(config.serialization_rate)
    .register(knative);
    "matmul".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs() -> Vec<Bytes> {
        vec![
            Bytes::from_static(b"alpha"),
            Bytes::new(),
            Bytes::from(vec![9u8; 1000]),
        ]
    }

    #[test]
    fn payload_roundtrip() {
        let inputs = inputs();
        let dec = decode_payload(encode_payload(&inputs)).unwrap();
        assert_eq!(dec, inputs);
        for (d, i) in dec.iter().zip(&inputs) {
            assert_eq!(d.as_ptr(), i.as_ptr(), "decoding a list copied a payload");
        }
    }

    #[test]
    fn a_rendered_payload_decodes_to_equal_payloads() {
        let inputs = inputs();
        let body = encode_payload(&inputs);
        let wire = body.to_bytes();
        assert_eq!(wire.len(), body.len());
        assert_eq!(wire.len(), 4 + 3 * 8 + 5 + 1000);
        assert_eq!(decode_payload(Body::from(wire)).unwrap(), inputs);
    }

    /// An opaque body with these bytes, decoded.
    fn decode_opaque(wire: &'static [u8]) -> Result<Vec<Bytes>, String> {
        decode_payload(Body::from(Bytes::from_static(wire)))
    }

    #[test]
    fn payload_bad_inputs() {
        assert_eq!(decode_opaque(b"xx").unwrap_err(), "payload too short");
        // Claim 2 items but provide none.
        assert_eq!(
            decode_opaque(&[2, 0, 0, 0]).unwrap_err(),
            "payload truncated at item 0"
        );
        // Item length beyond buffer.
        assert_eq!(
            decode_opaque(b"\x01\0\0\0\x64\0\0\0\0\0\0\0short").unwrap_err(),
            "payload item 0 truncated"
        );
    }

    #[test]
    fn huge_item_count_is_an_error_not_an_abort() {
        // A count of u32::MAX items in a 4-byte body: reserving that many
        // slots up front fails the allocation and aborts the process.
        let err = decode_opaque(&[0xff; 4]).unwrap_err();
        assert_eq!(err, "payload truncated at item 0");
    }
}
