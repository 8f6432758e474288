//! ML training: partition → featurize → train (one shard per data slice)
//! → merge. The shard count is decided at runtime from the row count of
//! the partitioned dataset, so a bigger training set expands into a wider
//! DAG under the exact same plan.
//!
//! The kernels are integer least-squares in Q47.16 fixed point: per-shard
//! training computes `w_j = (Σ x_j·y << 16) / (Σ x_j² + 1)` over the
//! centered shard features; the merge averages the shard weights. All
//! arithmetic is i64 with truncating division — bitwise identical across
//! native, container and serverless venues.

use bytes::Bytes;

use swf_pegasus::{AbstractJob, Transformation};
use swf_simcore::DetRng;
use swf_workloads::ExecEnv;

use crate::dynamic::{DynamicJob, DynamicWorkflow, Expansion, TriggerOn};
use crate::records::{
    decode_i64s, decode_params, decode_sample_rows, decode_samples, encode_i64s, encode_params,
    encode_samples, sample_shape, SampleSet, FIXED_POINT,
};
use crate::{calibrated, AppSpec};

/// ML training workload parameters.
#[derive(Clone, Copy, Debug)]
pub struct MlTrainParams {
    /// Rows in the training set (the input-size knob).
    pub rows: usize,
    /// Features per row.
    pub feats: usize,
    /// Rows per training shard.
    pub rows_per_shard: usize,
    /// Venue every job runs in.
    pub env: ExecEnv,
}

/// Quick scale: 4 training shards.
pub fn quick(env: ExecEnv) -> MlTrainParams {
    MlTrainParams {
        rows: 96,
        feats: 6,
        rows_per_shard: 24,
        env,
    }
}

/// Paper scale: 16 shards.
pub fn paper(env: ExecEnv) -> MlTrainParams {
    MlTrainParams {
        rows: 2_000,
        feats: 12,
        rows_per_shard: 125,
        env,
    }
}

const DATASET: &str = "mlt/dataset.rec";
const CLEAN: &str = "mlt/clean.rec";
const MODEL: &str = "mlt/model.rec";

fn feat_file(shard: usize) -> String {
    format!("mlt/feat_{shard:03}.rec")
}

fn weights_file(shard: usize) -> String {
    format!("mlt/weights_{shard:03}.rec")
}

fn param_file(shard: usize) -> String {
    format!("mlt/shard_{shard:03}.param")
}

/// Generate a labelled dataset: features in [-100, 100], labels a noisy
/// linear function of hidden integer weights.
pub fn generate_dataset(params: &MlTrainParams, seed: u64) -> Vec<(String, Bytes)> {
    let mut rng = DetRng::new(seed, "mltrain-data");
    let truth: Vec<i64> = (0..params.feats).map(|_| rng.uniform_i64(-5, 5)).collect();
    let mut labels = Vec::with_capacity(params.rows);
    let mut features = Vec::with_capacity(params.rows * params.feats);
    for _ in 0..params.rows {
        let row: Vec<i64> = (0..params.feats)
            .map(|_| rng.uniform_i64(-100, 100))
            .collect();
        let y: i64 =
            row.iter().zip(&truth).map(|(x, w)| x * w).sum::<i64>() + rng.uniform_i64(-10, 10);
        labels.push(y);
        features.extend(row);
    }
    vec![(
        DATASET.to_string(),
        encode_samples(&SampleSet {
            feats: params.feats,
            labels,
            features,
        }),
    )]
}

/// The four transformations with calibrated per-row compute models.
pub fn transformations(params: &MlTrainParams) -> Vec<Transformation> {
    let image = swf_core::ExperimentConfig::image_name();
    let cells = params.rows * params.feats;
    let shard_cells = params.rows_per_shard * params.feats;
    let partition = Transformation::new("mlt-partition", calibrated(30.0, 1.5, cells), |inputs| {
        let s = decode_samples(&inputs[0])?;
        if s.rows() == 0 || s.feats == 0 {
            return Err("partition: empty dataset".into());
        }
        // Canonical re-encode: partitioning validates and normalizes.
        Ok(vec![encode_samples(&s)])
    })
    .with_container(image);
    let featurize = Transformation::new(
        "mlt-featurize",
        calibrated(20.0, 4.0, shard_cells),
        |inputs| {
            // Validate the dataset before the parameters, as a whole-set
            // decode would, then decode this shard's rows only.
            sample_shape(&inputs[0])?;
            let p = decode_params(&inputs[1])?;
            let [_, start, end] = p[..] else {
                return Err("featurize: want [shard, start, end] params".into());
            };
            let mut shard = decode_sample_rows(&inputs[0], start as usize, end as usize)?
                .ok_or("shard range outside dataset")?;
            // Center each feature column on its truncated shard mean.
            let rows = shard.rows() as i64;
            for j in 0..shard.feats {
                let mean: i64 =
                    (0..shard.rows()).map(|r| shard.row(r)[j]).sum::<i64>() / rows.max(1);
                for r in 0..rows as usize {
                    shard.features[r * shard.feats + j] -= mean;
                }
            }
            Ok(vec![encode_samples(&shard)])
        },
    )
    .with_container(image);
    let train = Transformation::new("mlt-train", calibrated(60.0, 9.0, shard_cells), |inputs| {
        let shard = decode_samples(&inputs[0])?;
        let mut weights = Vec::with_capacity(shard.feats);
        for j in 0..shard.feats {
            let mut num = 0i64;
            let mut den = 1i64;
            for r in 0..shard.rows() {
                let x = shard.row(r)[j];
                num += x * shard.labels[r];
                den += x * x;
            }
            weights.push(num.saturating_mul(FIXED_POINT) / den);
        }
        Ok(vec![encode_i64s(&weights)])
    })
    .with_container(image);
    let merge = Transformation::new(
        "mlt-merge",
        calibrated(
            25.0,
            2.0,
            params.feats * (params.rows / params.rows_per_shard + 1),
        ),
        |inputs| {
            if inputs.is_empty() {
                return Err("merge: no shard weights".into());
            }
            let first = decode_i64s(&inputs[0])?;
            let mut sums = vec![0i64; first.len()];
            for payload in &inputs {
                let w = decode_i64s(payload)?;
                if w.len() != sums.len() {
                    return Err("merge: shard weight arity mismatch".into());
                }
                for (acc, v) in sums.iter_mut().zip(&w) {
                    *acc += v;
                }
            }
            let n = inputs.len() as i64;
            let model: Vec<i64> = sums.into_iter().map(|s| s / n).collect();
            Ok(vec![encode_i64s(&model)])
        },
    )
    .with_container(image);
    vec![partition, featurize, train, merge]
}

/// Build the dynamic workflow: a static partition job, a trigger that
/// expands the featurize→train shard chains, and the merge fan-in.
pub fn workflow(params: &MlTrainParams) -> DynamicWorkflow {
    let env = params.env;
    let per_shard = params.rows_per_shard;
    let mut dwf = DynamicWorkflow::new("mltrain");
    dwf.add_job(
        AbstractJob {
            name: "partition".into(),
            transformation: "mlt-partition".into(),
            inputs: vec![DATASET.into()],
            outputs: vec![CLEAN.into()],
            env,
        },
        "partition",
    );
    // One trigger expands both stages of each shard chain: featurize_i and
    // train_i are linked through the feat_i file, so DAGMan still runs them
    // in dependency order inside the expanded round.
    dwf.add_trigger(
        "fanout-shards",
        TriggerOn::JobDone("partition".into()),
        move |ctx| {
            let clean = ctx
                .outputs
                .get(CLEAN)
                .ok_or("fanout-shards: partitioned dataset missing")?;
            let (rows, _) = sample_shape(clean)?;
            let shards = rows.div_ceil(per_shard);
            let mut expansion = Expansion::default();
            for s in 0..shards {
                let start = s * per_shard;
                let end = (start + per_shard).min(rows);
                expansion.staged.push((
                    param_file(s),
                    encode_params(&[s as u64, start as u64, end as u64]),
                ));
                expansion.jobs.push(DynamicJob {
                    job: AbstractJob {
                        name: format!("featurize-{s:03}"),
                        transformation: "mlt-featurize".into(),
                        inputs: vec![CLEAN.into(), param_file(s)],
                        outputs: vec![feat_file(s)],
                        env,
                    },
                    stage: "featurize".into(),
                });
                expansion.jobs.push(DynamicJob {
                    job: AbstractJob {
                        name: format!("train-{s:03}"),
                        transformation: "mlt-train".into(),
                        inputs: vec![feat_file(s)],
                        outputs: vec![weights_file(s)],
                        env,
                    },
                    stage: "train".into(),
                });
            }
            Ok(expansion)
        },
    );
    dwf.add_trigger(
        "merge-model",
        TriggerOn::StageDone("train".into()),
        move |ctx| {
            let weights: Vec<String> = ctx.outputs.keys().cloned().collect();
            let mut expansion = Expansion::default();
            expansion.jobs.push(DynamicJob {
                job: AbstractJob {
                    name: "merge".into(),
                    transformation: "mlt-merge".into(),
                    inputs: weights,
                    outputs: vec![MODEL.into()],
                    env,
                },
                stage: "merge".into(),
            });
            Ok(expansion)
        },
    );
    dwf
}

/// Assemble the full app spec.
pub fn spec(params: &MlTrainParams, seed: u64) -> AppSpec {
    AppSpec {
        name: "mltrain".into(),
        transformations: transformations(params),
        inputs: generate_dataset(params, seed),
        workflow: workflow(params),
        final_output: MODEL.into(),
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::oracle;

    /// `mlt-featurize` as it shipped when every shard decoded the whole
    /// dataset and copied its rows out: the oracle for the shard kernel.
    fn featurize_oracle(inputs: Vec<Bytes>) -> Result<Vec<Bytes>, String> {
        let s = oracle::decode_samples(inputs[0].clone())?;
        let p = oracle::decode_params(inputs[1].clone())?;
        let [_, start, end] = p[..] else {
            return Err("featurize: want [shard, start, end] params".into());
        };
        let mut shard = oracle::shard_slice(&s, start as usize, end as usize)?;
        let rows = shard.rows() as i64;
        for j in 0..shard.feats {
            let mean: i64 = (0..shard.rows()).map(|r| shard.row(r)[j]).sum::<i64>() / rows.max(1);
            for r in 0..rows as usize {
                shard.features[r * shard.feats + j] -= mean;
            }
        }
        Ok(vec![oracle::encode_samples(&shard)])
    }

    proptest! {
        #[test]
        fn featurize_matches_the_whole_set_oracle(seed in any::<u64>()) {
            let mut rng = TestRng::new(seed);
            let set = oracle::sample_batch(&mut rng, None);
            let n = oracle::decode_samples(set.clone()).map_or(40, |s| s.rows());
            let inputs = vec![set, oracle::shard_params(&mut rng, n)];
            let featurize = &transformations(&quick(ExecEnv::Native))[1].logic;
            prop_assert_eq!(featurize(inputs.clone()), featurize_oracle(inputs));
        }

        #[test]
        fn fanout_shards_counts_rows_from_the_header(seed in any::<u64>()) {
            let mut rng = TestRng::new(seed);
            let params = quick(ExecEnv::Native);
            let set = oracle::sample_batch(&mut rng, None);
            let plan = oracle::decode_samples(set.clone())
                .map(|s| oracle::shard_plan(s.rows(), params.rows_per_shard));
            let workflow = workflow(&params);
            let fanout = &workflow.triggers()[0];
            prop_assert_eq!(oracle::fire(fanout, CLEAN, set), plan);
        }
    }

    #[test]
    fn training_recovers_hidden_weight_signs() {
        let params = quick(ExecEnv::Native);
        let data = generate_dataset(&params, 11);
        let ts = transformations(&params);
        let clean = (ts[0].logic)(vec![data[0].1.clone()]).unwrap();
        let p = encode_params(&[0, 0, params.rows as u64]);
        let feats = (ts[1].logic)(vec![clean[0].clone(), p]).unwrap();
        let weights = (ts[2].logic)(vec![feats[0].clone()]).unwrap();
        let w = decode_i64s(&weights[0]).unwrap();
        assert_eq!(w.len(), params.feats);
        // Training on the full set twice is bitwise identical.
        let p2 = encode_params(&[0, 0, params.rows as u64]);
        let feats2 = (ts[1].logic)(vec![clean[0].clone(), p2]).unwrap();
        assert_eq!((ts[2].logic)(vec![feats2[0].clone()]).unwrap(), weights);
        // Merging a single shard is the identity.
        let model = (ts[3].logic)(vec![weights[0].clone()]).unwrap();
        assert_eq!(decode_i64s(&model[0]).unwrap(), w);
    }

    #[test]
    fn featurize_rejects_a_shard_outside_the_dataset() {
        let params = quick(ExecEnv::Native);
        let set = encode_samples(&SampleSet {
            feats: 2,
            labels: vec![1, 2],
            features: vec![1, 2, 3, 4],
        });
        let featurize = &transformations(&params)[1].logic;
        for (start, end) in [(0, 3), (2, 1), (3, 3)] {
            let p = encode_params(&[0, start, end]);
            assert_eq!(
                featurize(vec![set.clone(), p]),
                Err("shard range outside dataset".to_string())
            );
        }
        let p = encode_params(&[0, 1, 2]);
        let shard = decode_samples(&featurize(vec![set, p]).unwrap()[0]).unwrap();
        assert_eq!((shard.labels, shard.features), (vec![2], vec![0, 0]));
    }
}
