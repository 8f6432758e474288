//! ML inference: preprocess → batch predict → postprocess. The predict
//! fan-out is decided at runtime from the row count of the preprocessed
//! batch — the bursty request-batch serving pattern serverless platforms
//! are built for.
//!
//! Scoring is Q47.16 fixed point: `score = Σ (w_j · x_j) >> 16` per row,
//! pure i64 arithmetic, bitwise identical across execution venues.

use bytes::Bytes;

use swf_pegasus::{AbstractJob, Transformation};
use swf_simcore::DetRng;
use swf_workloads::ExecEnv;

use crate::dynamic::{DynamicJob, DynamicWorkflow, Expansion, TriggerOn};
use crate::records::{
    decode_i64s, decode_params, decode_sample_rows, decode_samples, encode_i64s, encode_params,
    encode_samples, sample_shape, SampleSet,
};
use crate::{calibrated, AppSpec};

/// ML inference workload parameters.
#[derive(Clone, Copy, Debug)]
pub struct MlInferParams {
    /// Rows in the request batch (the input-size knob).
    pub rows: usize,
    /// Features per row (model arity).
    pub feats: usize,
    /// Rows per predict task.
    pub rows_per_batch: usize,
    /// Venue every job runs in.
    pub env: ExecEnv,
}

/// Quick scale: 4 predict tasks.
pub fn quick(env: ExecEnv) -> MlInferParams {
    MlInferParams {
        rows: 120,
        feats: 6,
        rows_per_batch: 30,
        env,
    }
}

/// Paper scale: 20 predict tasks.
pub fn paper(env: ExecEnv) -> MlInferParams {
    MlInferParams {
        rows: 3_000,
        feats: 12,
        rows_per_batch: 150,
        env,
    }
}

const BATCH: &str = "mli/batch.rec";
const MODEL: &str = "mli/model.rec";
const PREP: &str = "mli/prep.rec";
const RESULTS: &str = "mli/results.rec";

fn scores_file(batch: usize) -> String {
    format!("mli/scores_{batch:03}.rec")
}

fn param_file(batch: usize) -> String {
    format!("mli/batch_{batch:03}.param")
}

/// Generate the request batch and a fixed-point model to score it with.
pub fn generate_inputs(params: &MlInferParams, seed: u64) -> Vec<(String, Bytes)> {
    let mut rng = DetRng::new(seed, "mlinfer-data");
    let model: Vec<i64> = (0..params.feats)
        .map(|_| rng.uniform_i64(-5 * 65_536, 5 * 65_536))
        .collect();
    let mut features = Vec::with_capacity(params.rows * params.feats);
    for _ in 0..params.rows {
        for _ in 0..params.feats {
            features.push(rng.uniform_i64(-100, 100));
        }
    }
    vec![
        (
            BATCH.to_string(),
            encode_samples(&SampleSet {
                feats: params.feats,
                labels: vec![0; params.rows],
                features,
            }),
        ),
        (MODEL.to_string(), encode_i64s(&model)),
    ]
}

/// The three transformations with calibrated per-row compute models.
pub fn transformations(params: &MlInferParams) -> Vec<Transformation> {
    let image = swf_core::ExperimentConfig::image_name();
    let batch_cells = params.rows_per_batch * params.feats;
    let preprocess = Transformation::new(
        "mli-preprocess",
        calibrated(25.0, 1.2, params.rows * params.feats),
        |inputs| {
            let s = decode_samples(&inputs[0])?;
            if s.rows() == 0 {
                return Err("preprocess: empty batch".into());
            }
            // Clamp features into the model's trained range.
            let clamped = SampleSet {
                feats: s.feats,
                labels: s.labels,
                features: s.features.iter().map(|&x| x.clamp(-128, 128)).collect(),
            };
            Ok(vec![encode_samples(&clamped)])
        },
    )
    .with_container(image);
    let predict = Transformation::new(
        "mli-predict",
        calibrated(18.0, 5.0, batch_cells),
        |inputs| {
            // Validate the batch before the model and parameters, as a
            // whole-batch decode would, then decode this batch's rows only.
            let (_, feats) = sample_shape(&inputs[0])?;
            let model = decode_i64s(&inputs[1])?;
            let p = decode_params(&inputs[2])?;
            let [_, start, end] = p[..] else {
                return Err("predict: want [batch, start, end] params".into());
            };
            if model.len() != feats {
                return Err("predict: model arity mismatch".into());
            }
            let rows = decode_sample_rows(&inputs[0], start as usize, end as usize)?
                .ok_or("predict: batch range outside prep")?;
            let scores: Vec<i64> = (0..rows.rows())
                .map(|r| {
                    rows.row(r)
                        .iter()
                        .zip(&model)
                        .map(|(x, w)| (w * x) >> 16)
                        .sum()
                })
                .collect();
            Ok(vec![encode_i64s(&scores)])
        },
    )
    .with_container(image);
    let postprocess = Transformation::new(
        "mli-postprocess",
        calibrated(20.0, 0.8, params.rows),
        |inputs| {
            let mut all = Vec::new();
            for payload in &inputs {
                all.extend(decode_i64s(payload)?);
            }
            Ok(vec![encode_i64s(&all)])
        },
    )
    .with_container(image);
    vec![preprocess, predict, postprocess]
}

/// Build the dynamic workflow: static preprocess, runtime predict fan-out,
/// postprocess fan-in.
pub fn workflow(params: &MlInferParams) -> DynamicWorkflow {
    let env = params.env;
    let per_batch = params.rows_per_batch;
    let mut dwf = DynamicWorkflow::new("mlinfer");
    dwf.add_job(
        AbstractJob {
            name: "preprocess".into(),
            transformation: "mli-preprocess".into(),
            inputs: vec![BATCH.into()],
            outputs: vec![PREP.into()],
            env,
        },
        "preprocess",
    );
    dwf.add_trigger(
        "fanout-predict",
        TriggerOn::JobDone("preprocess".into()),
        move |ctx| {
            let prep = ctx
                .outputs
                .get(PREP)
                .ok_or("fanout-predict: preprocessed batch missing")?;
            let (rows, _) = sample_shape(prep)?;
            let batches = rows.div_ceil(per_batch);
            let mut expansion = Expansion::default();
            for b in 0..batches {
                let start = b * per_batch;
                let end = (start + per_batch).min(rows);
                expansion.staged.push((
                    param_file(b),
                    encode_params(&[b as u64, start as u64, end as u64]),
                ));
                expansion.jobs.push(DynamicJob {
                    job: AbstractJob {
                        name: format!("predict-{b:03}"),
                        transformation: "mli-predict".into(),
                        inputs: vec![PREP.into(), MODEL.into(), param_file(b)],
                        outputs: vec![scores_file(b)],
                        env,
                    },
                    stage: "predict".into(),
                });
            }
            Ok(expansion)
        },
    );
    dwf.add_trigger(
        "postprocess",
        TriggerOn::StageDone("predict".into()),
        move |ctx| {
            // Zero-padded names keep the score files in batch order, so the
            // concatenated result vector is row-ordered.
            let scores: Vec<String> = ctx.outputs.keys().cloned().collect();
            let mut expansion = Expansion::default();
            expansion.jobs.push(DynamicJob {
                job: AbstractJob {
                    name: "postprocess".into(),
                    transformation: "mli-postprocess".into(),
                    inputs: scores,
                    outputs: vec![RESULTS.into()],
                    env,
                },
                stage: "postprocess".into(),
            });
            Ok(expansion)
        },
    );
    dwf
}

/// Assemble the full app spec.
pub fn spec(params: &MlInferParams, seed: u64) -> AppSpec {
    AppSpec {
        name: "mlinfer".into(),
        transformations: transformations(params),
        inputs: generate_inputs(params, seed),
        workflow: workflow(params),
        final_output: RESULTS.into(),
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::oracle;

    /// `mli-predict` as it shipped when every batch task decoded the whole
    /// preprocessed batch: the oracle for the shard kernel.
    fn predict_oracle(inputs: Vec<Bytes>) -> Result<Vec<Bytes>, String> {
        let prep = oracle::decode_samples(inputs[0].clone())?;
        let model = oracle::decode_i64s(inputs[1].clone())?;
        let p = oracle::decode_params(inputs[2].clone())?;
        let [_, start, end] = p[..] else {
            return Err("predict: want [batch, start, end] params".into());
        };
        if model.len() != prep.feats {
            return Err("predict: model arity mismatch".into());
        }
        let (start, end) = (start as usize, end as usize);
        if end > prep.rows() || start > end {
            return Err("predict: batch range outside prep".into());
        }
        let scores: Vec<i64> = (start..end)
            .map(|r| {
                prep.row(r)
                    .iter()
                    .zip(&model)
                    .map(|(x, w)| (w * x) >> 16)
                    .sum()
            })
            .collect();
        Ok(vec![oracle::encode_i64s(&scores)])
    }

    proptest! {
        #[test]
        fn predict_matches_the_whole_batch_oracle(seed in any::<u64>()) {
            let mut rng = TestRng::new(seed);
            let feats = oracle::below(&mut rng, 5);
            let prep = oracle::sample_batch(&mut rng, Some(feats));
            let n = oracle::decode_samples(prep.clone()).map_or(40, |s| s.rows());
            // Mostly the batch's arity, sometimes one off; sometimes mangled.
            let arity = feats + usize::from(oracle::below(&mut rng, 4) == 0);
            let weights: Vec<i64> =
                (0..arity).map(|_| (rng.next_u64() % (1 << 21)) as i64 - (1 << 20)).collect();
            let model = oracle::mangle(&mut rng, oracle::encode_i64s(&weights), 8);
            let inputs = vec![prep, model, oracle::shard_params(&mut rng, n)];
            let predict = &transformations(&quick(ExecEnv::Native))[1].logic;
            prop_assert_eq!(predict(inputs.clone()), predict_oracle(inputs));
        }

        #[test]
        fn fanout_predict_counts_rows_from_the_header(seed in any::<u64>()) {
            let mut rng = TestRng::new(seed);
            let params = quick(ExecEnv::Native);
            let prep = oracle::sample_batch(&mut rng, None);
            let plan = oracle::decode_samples(prep.clone())
                .map(|s| oracle::shard_plan(s.rows(), params.rows_per_batch));
            let workflow = workflow(&params);
            let fanout = &workflow.triggers()[0];
            prop_assert_eq!(oracle::fire(fanout, PREP, prep), plan);
        }
    }

    #[test]
    fn scoring_matches_manual_fixed_point() {
        let params = quick(ExecEnv::Native);
        let inputs = generate_inputs(&params, 5);
        let ts = transformations(&params);
        let prep = (ts[0].logic)(vec![inputs[0].1.clone()]).unwrap();
        let p = encode_params(&[0, 0, params.rows as u64]);
        let scores = (ts[1].logic)(vec![prep[0].clone(), inputs[1].1.clone(), p]).unwrap();
        let s = decode_i64s(&scores[0]).unwrap();
        assert_eq!(s.len(), params.rows);
        // Manual check of row 0.
        let batch = decode_samples(&prep[0]).unwrap();
        let model = decode_i64s(&inputs[1].1).unwrap();
        let want: i64 = batch
            .row(0)
            .iter()
            .zip(&model)
            .map(|(x, w)| (w * x) >> 16)
            .sum();
        assert_eq!(s[0], want);
        // Postprocess of two half-batches equals postprocess of the whole.
        let whole = (ts[2].logic)(vec![scores[0].clone()]).unwrap();
        assert_eq!(decode_i64s(&whole[0]).unwrap(), s);
    }

    #[test]
    fn predict_rejects_model_arity_mismatch() {
        let params = quick(ExecEnv::Native);
        let inputs = generate_inputs(&params, 5);
        let ts = transformations(&params);
        let prep = (ts[0].logic)(vec![inputs[0].1.clone()]).unwrap();
        let bad_model = encode_i64s(&[1, 2]);
        let p = encode_params(&[0, 0, 1]);
        assert!((ts[1].logic)(vec![prep[0].clone(), bad_model, p]).is_err());
    }
}
