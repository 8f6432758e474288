//! Task containerization and registration (§IV-1 of the paper).
//!
//! A Pegasus transformation is wrapped in an HTTP event listener (the
//! paper's Flask route) and registered with Knative *before* workflow
//! execution, with autoscaling annotations controlling provisioning:
//! `min-scale = N` pre-stages containers on N workers, `initial-scale = 0`
//! defers downloads until the first invocation.

use bytes::Bytes;

use swf_cluster::Request;
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
    resources: ResourceLimits,
    serialization_rate: f64,
}

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
            resources: ResourceLimits::one_core(512),
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
    /// logic, and returns the concatenated outputs.
    pub fn register(self, knative: &Knative) {
        let ksvc = match self.provisioning {
            Provisioning::PreStage => KService::new(&self.service_name, self.image.clone())
                .with_container_concurrency(self.container_concurrency)
                .with_resources(self.resources)
                .with_min_scale(self.min_scale),
            Provisioning::Deferred => KService::new(&self.service_name, self.image.clone())
                .with_container_concurrency(self.container_concurrency)
                .with_resources(self.resources)
                .with_initial_scale(0),
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
                Ok(encode_outputs(&outputs))
            })
        });
    }
}

/// Encode a list of input payloads into one request body (pass-by-value
/// invocation, §IV-3).
pub fn encode_payload(inputs: &[Bytes]) -> Bytes {
    use bytes::BufMut;
    let total: usize = inputs.iter().map(|b| 8 + b.len()).sum();
    let mut buf = bytes::BytesMut::with_capacity(4 + total);
    buf.put_u32_le(inputs.len() as u32);
    for b in inputs {
        buf.put_u64_le(b.len() as u64);
        buf.put_slice(b);
    }
    buf.freeze()
}

/// Decode a request body into its input payloads.
pub fn decode_payload(mut data: Bytes) -> Result<Vec<Bytes>, String> {
    use bytes::Buf;
    if data.len() < 4 {
        return Err("payload too short".into());
    }
    let n = data.get_u32_le() as usize;
    let mut out = Vec::with_capacity(n);
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

/// Encode function outputs into one response body.
pub fn encode_outputs(outputs: &[Bytes]) -> Bytes {
    encode_payload(outputs)
}

/// Decode a response body into output payloads.
pub fn decode_outputs(data: Bytes) -> Result<Vec<Bytes>, String> {
    decode_payload(data)
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

    #[test]
    fn payload_roundtrip() {
        let inputs = vec![
            Bytes::from_static(b"alpha"),
            Bytes::new(),
            Bytes::from(vec![9u8; 1000]),
        ];
        let enc = encode_payload(&inputs);
        let dec = decode_payload(enc).unwrap();
        assert_eq!(dec, inputs);
    }

    #[test]
    fn payload_bad_inputs() {
        assert!(decode_payload(Bytes::from_static(b"xx")).is_err());
        // Claim 2 items but provide none.
        let enc = {
            use bytes::BufMut;
            let mut b = bytes::BytesMut::new();
            b.put_u32_le(2);
            b.freeze()
        };
        assert!(decode_payload(enc).is_err());
        // Item length beyond buffer.
        let enc = {
            use bytes::BufMut;
            let mut b = bytes::BytesMut::new();
            b.put_u32_le(1);
            b.put_u64_le(100);
            b.put_slice(b"short");
            b.freeze()
        };
        assert!(decode_payload(enc).is_err());
    }
}
