//! FINRA-style market-data validation: a high fan-out validate/aggregate
//! workflow whose validation width is decided at runtime from the record
//! count of the ingested feed — the serverless-friendly burst workload the
//! paper's motivation cites.
//!
//! Shape: `ingest → validate × ⌈n/shard⌉ → aggregate`. The ingest job
//! normalizes the raw feed; the `fanout-validate` trigger reads the clean
//! batch, derives the shard count from the *data*, stages one parameter
//! file per shard and expands the validate stage; the `aggregate` trigger
//! fans the shard summaries back in.

use bytes::Bytes;

use swf_pegasus::{AbstractJob, Transformation};
use swf_simcore::{fnv1a, fnv1a_extend, DetRng};
use swf_workloads::ExecEnv;

use crate::dynamic::{DynamicWorkflow, Expansion, TriggerOn};
use crate::records::{
    decode_params, decode_trade_range, decode_trades, encode_params, encode_trades, trade_count,
    Trade,
};
use crate::{calibrated, AppSpec};

/// FINRA workload parameters.
#[derive(Clone, Copy, Debug)]
pub struct FinraParams {
    /// Trades in the raw feed (the input-size knob fan-out derives from).
    pub trades: usize,
    /// Records per validation shard.
    pub shard: usize,
    /// Venue every job runs in.
    pub env: ExecEnv,
}

/// Quick scale: ~5 validation shards.
pub fn quick(env: ExecEnv) -> FinraParams {
    FinraParams {
        trades: 300,
        shard: 64,
        env,
    }
}

/// Paper scale: a larger feed, wider fan-out.
pub fn paper(env: ExecEnv) -> FinraParams {
    FinraParams {
        trades: 4_000,
        shard: 250,
        env,
    }
}

const FEED: &str = "finra/trades.rec";
const CLEAN: &str = "finra/clean.rec";
const REPORT: &str = "finra/report.rec";

fn summary_file(shard: usize) -> String {
    format!("finra/summary_{shard:03}.rec")
}

fn param_file(shard: usize) -> String {
    format!("finra/shard_{shard:03}.param")
}

/// Generate the raw feed: mostly well-formed trades with a deterministic
/// sprinkle of corrupt records (non-positive price or zero quantity) for
/// the validators to flag.
pub fn generate_feed(params: &FinraParams, seed: u64) -> Vec<(String, Bytes)> {
    let mut rng = DetRng::new(seed, "finra-feed");
    let trades: Vec<Trade> = (0..params.trades)
        .map(|i| {
            let corrupt = rng.chance(0.03);
            Trade {
                symbol: rng.uniform_u64(0, 64) as u32,
                price_cents: if corrupt {
                    0
                } else {
                    rng.uniform_i64(100, 100_000)
                },
                qty: if corrupt {
                    0
                } else {
                    rng.uniform_u64(1, 1_000) as u32
                },
                ts: i as u64,
            }
        })
        .collect();
    vec![(FEED.to_string(), encode_trades(&trades))]
}

/// The three transformations with their calibrated compute models
/// (per-record rates measured in microseconds of single-core time).
pub fn transformations(params: &FinraParams) -> Vec<Transformation> {
    let ingest = Transformation::new(
        "finra-ingest",
        calibrated(40.0, 2.0, params.trades),
        |inputs| {
            let mut trades = decode_trades(&inputs[0])?;
            // Normalize: canonical (symbol, ts) order.
            trades.sort_by_key(|t| (t.symbol, t.ts));
            Ok(vec![encode_trades(&trades)])
        },
    );
    let validate = Transformation::new(
        "finra-validate",
        calibrated(15.0, 6.0, params.shard),
        |inputs| {
            // Validate the batch before the parameters, as a whole-batch
            // decode would, then decode this shard's records only.
            trade_count(&inputs[0])?;
            let p = decode_params(&inputs[1])?;
            let [shard, start, end] = p[..] else {
                return Err("validate: want [shard, start, end] params".into());
            };
            let slice = decode_trade_range(&inputs[0], start as usize, end as usize)?
                .ok_or("validate: shard range outside batch")?;
            let mut valid = 0u64;
            let mut flagged = 0u64;
            let mut notional = 0u64;
            for t in &slice {
                if t.price_cents > 0 && t.qty > 0 {
                    valid += 1;
                    notional += t.price_cents as u64 * t.qty as u64;
                } else {
                    flagged += 1;
                }
            }
            let fp = fnv1a(&encode_trades(&slice));
            Ok(vec![encode_params(&[
                shard,
                slice.len() as u64,
                valid,
                flagged,
                notional,
                fp,
            ])])
        },
    )
    .with_container(swf_core::ExperimentConfig::image_name());
    let aggregate = Transformation::new(
        "finra-aggregate",
        calibrated(25.0, 1.0, params.trades / params.shard + 1),
        |inputs| {
            let (mut n, mut valid, mut flagged, mut notional) = (0u64, 0u64, 0u64, 0u64);
            let mut combined = fnv1a(b"finra-report");
            for payload in &inputs {
                let s = decode_params(payload)?;
                let [_, sn, sv, sf, snot, sfp] = s[..] else {
                    return Err("aggregate: malformed shard summary".into());
                };
                n += sn;
                valid += sv;
                flagged += sf;
                notional += snot;
                combined = fnv1a_extend(combined, &sfp.to_le_bytes());
            }
            Ok(vec![encode_params(&[
                inputs.len() as u64,
                n,
                valid,
                flagged,
                notional,
                combined,
            ])])
        },
    );
    vec![
        ingest.with_container(swf_core::ExperimentConfig::image_name()),
        validate,
        aggregate.with_container(swf_core::ExperimentConfig::image_name()),
    ]
}

/// Build the dynamic workflow: one static ingest job plus the two
/// expansion triggers.
pub fn workflow(params: &FinraParams) -> DynamicWorkflow {
    let env = params.env;
    let shard = params.shard;
    let mut dwf = DynamicWorkflow::new("finra");
    dwf.add_job(
        AbstractJob {
            name: "ingest".into(),
            transformation: "finra-ingest".into(),
            inputs: vec![FEED.into()],
            outputs: vec![CLEAN.into()],
            env,
        },
        "ingest",
    );
    // Fan-out decided by the data: shard count derives from the record
    // count of the *cleaned* batch, read after ingest completes.
    dwf.add_trigger(
        "fanout-validate",
        TriggerOn::JobDone("ingest".into()),
        move |ctx| {
            let clean = ctx
                .outputs
                .get(CLEAN)
                .ok_or("fanout-validate: clean batch missing")?;
            let n = trade_count(clean)?;
            let shards = n.div_ceil(shard);
            let mut expansion = Expansion::default();
            for s in 0..shards {
                let start = s * shard;
                let end = (start + shard).min(n);
                expansion.staged.push((
                    param_file(s),
                    encode_params(&[s as u64, start as u64, end as u64]),
                ));
                expansion.jobs.push(crate::dynamic::DynamicJob {
                    job: AbstractJob {
                        name: format!("validate-{s:03}"),
                        transformation: "finra-validate".into(),
                        inputs: vec![CLEAN.into(), param_file(s)],
                        outputs: vec![summary_file(s)],
                        env,
                    },
                    stage: "validate".into(),
                });
            }
            Ok(expansion)
        },
    );
    // Fan-in once every validator (however many the data produced) is done.
    dwf.add_trigger(
        "aggregate",
        TriggerOn::StageDone("validate".into()),
        move |ctx| {
            // Zero-padded names sort in shard order.
            let summaries: Vec<String> = ctx.outputs.keys().cloned().collect();
            let mut expansion = Expansion::default();
            expansion.jobs.push(crate::dynamic::DynamicJob {
                job: AbstractJob {
                    name: "aggregate".into(),
                    transformation: "finra-aggregate".into(),
                    inputs: summaries,
                    outputs: vec![REPORT.into()],
                    env,
                },
                stage: "aggregate".into(),
            });
            Ok(expansion)
        },
    );
    dwf
}

/// Assemble the full app spec.
pub fn spec(params: &FinraParams, seed: u64) -> AppSpec {
    AppSpec {
        name: "finra".into(),
        transformations: transformations(params),
        inputs: generate_feed(params, seed),
        workflow: workflow(params),
        final_output: REPORT.into(),
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::oracle;

    /// `finra-validate` as it shipped when every shard decoded the whole
    /// batch and sliced it: the oracle for the shard kernel.
    fn validate_oracle(inputs: Vec<Bytes>) -> Result<Vec<Bytes>, String> {
        let trades = oracle::decode_trades(inputs[0].clone())?;
        let p = oracle::decode_params(inputs[1].clone())?;
        let [shard, start, end] = p[..] else {
            return Err("validate: want [shard, start, end] params".into());
        };
        let slice = trades
            .get(start as usize..end as usize)
            .ok_or("validate: shard range outside batch")?;
        let mut valid = 0u64;
        let mut flagged = 0u64;
        let mut notional = 0u64;
        for t in slice {
            if t.price_cents > 0 && t.qty > 0 {
                valid += 1;
                notional += t.price_cents as u64 * t.qty as u64;
            } else {
                flagged += 1;
            }
        }
        let fp = fnv1a(&oracle::encode_trades(slice));
        Ok(vec![oracle::encode_params(&[
            shard,
            slice.len() as u64,
            valid,
            flagged,
            notional,
            fp,
        ])])
    }

    proptest! {
        #[test]
        fn validate_matches_the_whole_batch_oracle(seed in any::<u64>()) {
            let mut rng = TestRng::new(seed);
            let batch = oracle::trade_batch(&mut rng);
            let n = oracle::decode_trades(batch.clone()).map_or(40, |t| t.len());
            let inputs = vec![batch, oracle::shard_params(&mut rng, n)];
            let validate = &transformations(&quick(ExecEnv::Native))[1].logic;
            prop_assert_eq!(validate(inputs.clone()), validate_oracle(inputs));
        }

        #[test]
        fn fanout_validate_counts_records_from_the_header(seed in any::<u64>()) {
            let mut rng = TestRng::new(seed);
            let params = quick(ExecEnv::Native);
            let batch = oracle::trade_batch(&mut rng);
            let plan = oracle::decode_trades(batch.clone())
                .map(|t| oracle::shard_plan(t.len(), params.shard));
            let workflow = workflow(&params);
            let fanout = &workflow.triggers()[0];
            prop_assert_eq!(oracle::fire(fanout, CLEAN, batch), plan);
        }
    }

    #[test]
    fn kernels_are_deterministic_and_flag_corrupt_records() {
        let params = quick(ExecEnv::Native);
        let feed = generate_feed(&params, 7);
        assert_eq!(feed.len(), 1);
        let ts = transformations(&params);
        let clean = (ts[0].logic)(vec![feed[0].1.clone()]).unwrap();
        let trades = decode_trades(&clean[0]).unwrap();
        assert_eq!(trades.len(), params.trades);
        // Validate the whole batch as one shard.
        let p = encode_params(&[0, 0, trades.len() as u64]);
        let summary = (ts[1].logic)(vec![clean[0].clone(), p]).unwrap();
        let s = decode_params(&summary[0]).unwrap();
        assert_eq!(s[1], params.trades as u64);
        assert!(s[3] > 0, "the seeded feed contains corrupt records");
        assert_eq!(s[2] + s[3], s[1]);
        // The aggregate of one shard carries its totals through.
        let report = (ts[2].logic)(vec![summary[0].clone()]).unwrap();
        let r = decode_params(&report[0]).unwrap();
        assert_eq!(r[0], 1);
        assert_eq!(r[1], s[1]);
    }

    #[test]
    fn feed_generation_is_seed_deterministic() {
        let params = quick(ExecEnv::Native);
        assert_eq!(generate_feed(&params, 3), generate_feed(&params, 3));
        assert_ne!(generate_feed(&params, 3), generate_feed(&params, 4));
    }
}
