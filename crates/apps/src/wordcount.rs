//! Word-count MapReduce: split → map → shuffle → reduce → merge. The
//! mapper count is decided at runtime from the word count of the cleaned
//! corpus; each mapper partitions its counts into `reducers` buckets by
//! word hash, and each reducer's fan-in therefore also depends on the
//! data (one input file per expanded mapper).
//!
//! The shuffle is encoded in the file graph: mapper `i` writes one bucket
//! file per reducer, and reducer `j` reads bucket `j` of every mapper.

use std::collections::BTreeMap;

use bytes::Bytes;

use swf_pegasus::{AbstractJob, Transformation};
use swf_simcore::{fnv1a, DetRng};
use swf_workloads::ExecEnv;

use crate::dynamic::{DynamicJob, DynamicWorkflow, Expansion, TriggerOn};
use crate::records::{decode_counts, decode_params, encode_counts, encode_params};
use crate::{calibrated, AppSpec};

/// Word-count workload parameters.
#[derive(Clone, Copy, Debug)]
pub struct WordCountParams {
    /// Words in the corpus (the input-size knob).
    pub words: usize,
    /// Words per map task.
    pub words_per_map: usize,
    /// Reducer count (fixed; mapper count is data-derived).
    pub reducers: usize,
    /// Venue every job runs in.
    pub env: ExecEnv,
}

/// Quick scale: 4 mappers × 3 reducers.
pub fn quick(env: ExecEnv) -> WordCountParams {
    WordCountParams {
        words: 400,
        words_per_map: 100,
        reducers: 3,
        env,
    }
}

/// Paper scale: 16 mappers × 4 reducers.
pub fn paper(env: ExecEnv) -> WordCountParams {
    WordCountParams {
        words: 8_000,
        words_per_map: 500,
        reducers: 4,
        env,
    }
}

const CORPUS: &str = "wc/corpus.txt";
const CLEAN: &str = "wc/clean.txt";
const COUNTS: &str = "wc/counts.rec";

fn bucket_file(mapper: usize, reducer: usize) -> String {
    format!("wc/m{mapper:03}_r{reducer:02}.rec")
}

fn reduced_file(reducer: usize) -> String {
    format!("wc/red_{reducer:02}.rec")
}

fn param_file(mapper: usize) -> String {
    format!("wc/map_{mapper:03}.param")
}

/// A small vocabulary skewed toward common words, so counts are
/// interesting and collisions across mappers are guaranteed.
const VOCAB: [&str; 24] = [
    "the",
    "of",
    "and",
    "to",
    "in",
    "workflow",
    "task",
    "serverless",
    "cluster",
    "function",
    "container",
    "node",
    "pod",
    "scale",
    "queue",
    "latency",
    "startup",
    "knative",
    "condor",
    "pegasus",
    "dagman",
    "trigger",
    "expand",
    "merge",
];

/// Generate the corpus: whitespace-separated words drawn from a fixed
/// vocabulary of workflow terms with a Zipf-ish skew.
pub fn generate_corpus(params: &WordCountParams, seed: u64) -> Vec<(String, Bytes)> {
    let mut rng = DetRng::new(seed, "wordcount-corpus");
    let mut text = String::new();
    for i in 0..params.words {
        if i > 0 {
            text.push(' ');
        }
        // Skew: half the draws come from the first quarter of the vocab.
        let idx = if rng.chance(0.5) {
            rng.index(VOCAB.len() / 4)
        } else {
            rng.index(VOCAB.len())
        };
        text.push_str(VOCAB[idx]);
    }
    vec![(CORPUS.to_string(), Bytes::from(text))]
}

fn corpus_text(data: &[u8]) -> Result<&str, String> {
    std::str::from_utf8(data).map_err(|_| "corpus is not UTF-8".to_string())
}

/// Whether an ASCII byte is whitespace as `char::is_whitespace` sees it:
/// space and `\t \n \x0B \x0C \r`. (`u8::is_ascii_whitespace` leaves
/// out U+000B.)
fn is_space(b: u8) -> bool {
    b == b' ' || (b'\t'..=b'\r').contains(&b)
}

/// Bytes an ASCII scan counts word starts in at a time.
const BLOCK: usize = 64;

/// Word starts in `block`: bytes that are not whitespace and follow
/// whitespace, the byte before the block counting as whitespace iff
/// `after_space`.
fn word_starts(block: &[u8; BLOCK], after_space: bool) -> usize {
    let first = after_space & !is_space(block[0]);
    let rest: u8 = block
        .iter()
        .zip(&block[1..])
        .map(|(&prev, &b)| u8::from(is_space(prev) & !is_space(b)))
        .sum();
    usize::from(first) + usize::from(rest)
}

/// Skip the first `n` words of `text` (`split_whitespace`'s words):
/// returns the byte offset where word `n` starts, or `text.len()` when
/// there is no word `n`, with the number of words skipped, `n` or all of
/// them if fewer. ASCII text is counted a block at a time up to the
/// block that holds word `n`; other text is walked a `char` at a time.
fn skip_words(text: &str, n: usize) -> (usize, usize) {
    let (mut at, mut seen, mut after_space) = (0, 0, true);
    if text.is_ascii() {
        let (blocks, _) = text.as_bytes().as_chunks::<BLOCK>();
        for block in blocks {
            let starts = word_starts(block, after_space);
            if seen + starts > n {
                break;
            }
            (at, seen, after_space) = (at + BLOCK, seen + starts, is_space(block[BLOCK - 1]));
        }
    }
    // `at` is 0 or follows an ASCII byte: a char boundary.
    for (i, c) in text[at..].char_indices() {
        let space = c.is_whitespace();
        if after_space && !space {
            if seen == n {
                return (at + i, seen);
            }
            seen += 1;
        }
        after_space = space;
    }
    (text.len(), seen)
}

/// The byte offset of word `n` of `text`, from which `split_whitespace`
/// yields the words after the first `n` (`text.len()` when there are
/// exactly `n`), or `None` when `text` has fewer than `n` words.
fn word_offset(text: &str, n: usize) -> Option<usize> {
    let (at, seen) = skip_words(text, n);
    (seen == n).then_some(at)
}

/// The number of words in `text`: `split_whitespace().count()`.
fn word_count(text: &str) -> usize {
    skip_words(text, usize::MAX).1
}

/// Words `start..end` of `words`, counted into `reducers` buckets by word
/// hash, or `None` when the range is outside the corpus. A word is copied
/// only the first time its bucket sees it.
fn bucket_counts<'a>(
    mut words: impl Iterator<Item = &'a str>,
    start: usize,
    end: usize,
    reducers: usize,
) -> Option<Vec<BTreeMap<String, u64>>> {
    let len = end.checked_sub(start)?;
    // Counted rather than `skip`ped: an empty range that starts past the
    // last word is still outside the corpus.
    if words.by_ref().take(start).count() < start {
        return None;
    }
    let mut buckets: Vec<BTreeMap<String, u64>> = vec![BTreeMap::new(); reducers];
    let mut taken = 0;
    for word in words.take(len) {
        let bucket = &mut buckets[(fnv1a(word.as_bytes()) % reducers as u64) as usize];
        match bucket.get_mut(word) {
            Some(n) => *n += 1,
            None => {
                bucket.insert(word.to_string(), 1);
            }
        }
        taken += 1;
    }
    (taken == len).then_some(buckets)
}

fn merge_tables(inputs: &[Bytes]) -> Result<BTreeMap<String, u64>, String> {
    let mut merged = BTreeMap::new();
    for payload in inputs {
        for (word, n) in decode_counts(payload)? {
            *merged.entry(word).or_insert(0) += n;
        }
    }
    Ok(merged)
}

/// The transformations. `wc-map` produces `reducers` outputs per
/// invocation (the shuffle buckets), so the transformation is built for a
/// specific reducer count.
pub fn transformations(params: &WordCountParams) -> Vec<Transformation> {
    let image = swf_core::ExperimentConfig::image_name();
    let reducers = params.reducers;
    let split = Transformation::new("wc-split", calibrated(20.0, 0.6, params.words), |inputs| {
        let words: Vec<&str> = corpus_text(&inputs[0])?.split_whitespace().collect();
        if words.is_empty() {
            return Err("split: empty corpus".into());
        }
        Ok(vec![Bytes::from(words.join(" "))])
    })
    .with_container(image);
    let map = Transformation::new(
        "wc-map",
        calibrated(15.0, 3.0, params.words_per_map),
        move |inputs| {
            // Validate the corpus before the parameters, as splitting it
            // into words would, then find this mapper's first word by
            // offset and walk only its range.
            let text = corpus_text(&inputs[0])?;
            let p = decode_params(&inputs[1])?;
            let [_, start, end] = p[..] else {
                return Err("map: want [mapper, start, end] params".into());
            };
            let (start, end) = (start as usize, end as usize);
            let buckets = word_offset(text, start)
                .zip(end.checked_sub(start))
                .and_then(|(at, len)| {
                    bucket_counts(text[at..].split_whitespace(), 0, len, reducers)
                })
                .ok_or("map: word range outside corpus")?;
            Ok(buckets.iter().map(encode_counts).collect())
        },
    )
    .with_container(image);
    let reduce = Transformation::new(
        "wc-reduce",
        calibrated(18.0, 1.5, params.words / params.reducers.max(1)),
        |inputs| Ok(vec![encode_counts(&merge_tables(&inputs)?)]),
    )
    .with_container(image);
    let merge = Transformation::new(
        "wc-merge",
        calibrated(22.0, 0.9, VOCAB.len() * 4),
        |inputs| Ok(vec![encode_counts(&merge_tables(&inputs)?)]),
    )
    .with_container(image);
    vec![split, map, reduce, merge]
}

/// Build the dynamic workflow: static split, runtime map fan-out, a
/// reduce stage whose fan-in follows the expanded mapper count, and the
/// final merge.
pub fn workflow(params: &WordCountParams) -> DynamicWorkflow {
    let env = params.env;
    let per_map = params.words_per_map;
    let reducers = params.reducers;
    let mut dwf = DynamicWorkflow::new("wordcount");
    dwf.add_job(
        AbstractJob {
            name: "split".into(),
            transformation: "wc-split".into(),
            inputs: vec![CORPUS.into()],
            outputs: vec![CLEAN.into()],
            env,
        },
        "split",
    );
    dwf.add_trigger(
        "fanout-map",
        TriggerOn::JobDone("split".into()),
        move |ctx| {
            let clean = ctx
                .outputs
                .get(CLEAN)
                .ok_or("fanout-map: clean corpus missing")?;
            let words = word_count(corpus_text(clean)?);
            let mappers = words.div_ceil(per_map);
            let mut expansion = Expansion::default();
            for m in 0..mappers {
                let start = m * per_map;
                let end = (start + per_map).min(words);
                expansion.staged.push((
                    param_file(m),
                    encode_params(&[m as u64, start as u64, end as u64]),
                ));
                expansion.jobs.push(DynamicJob {
                    job: AbstractJob {
                        name: format!("map-{m:03}"),
                        transformation: "wc-map".into(),
                        inputs: vec![CLEAN.into(), param_file(m)],
                        outputs: (0..reducers).map(|r| bucket_file(m, r)).collect(),
                        env,
                    },
                    stage: "map".into(),
                });
            }
            Ok(expansion)
        },
    );
    // The reducers' fan-in is data-dependent: one bucket file per expanded
    // mapper, recovered here from the map stage's completed outputs.
    dwf.add_trigger(
        "shuffle-reduce",
        TriggerOn::StageDone("map".into()),
        move |ctx| {
            let mut expansion = Expansion::default();
            for r in 0..reducers {
                let suffix = format!("_r{r:02}.rec");
                let buckets: Vec<String> = ctx
                    .outputs
                    .keys()
                    .filter(|f| f.ends_with(&suffix))
                    .cloned()
                    .collect();
                if buckets.is_empty() {
                    return Err(format!("shuffle-reduce: no buckets for reducer {r}"));
                }
                expansion.jobs.push(DynamicJob {
                    job: AbstractJob {
                        name: format!("reduce-{r:02}"),
                        transformation: "wc-reduce".into(),
                        inputs: buckets,
                        outputs: vec![reduced_file(r)],
                        env,
                    },
                    stage: "reduce".into(),
                });
            }
            Ok(expansion)
        },
    );
    dwf.add_trigger(
        "merge-counts",
        TriggerOn::StageDone("reduce".into()),
        move |ctx| {
            let reduced: Vec<String> = ctx.outputs.keys().cloned().collect();
            let mut expansion = Expansion::default();
            expansion.jobs.push(DynamicJob {
                job: AbstractJob {
                    name: "merge".into(),
                    transformation: "wc-merge".into(),
                    inputs: reduced,
                    outputs: vec![COUNTS.into()],
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
pub fn spec(params: &WordCountParams, seed: u64) -> AppSpec {
    AppSpec {
        name: "wordcount".into(),
        transformations: transformations(params),
        inputs: generate_corpus(params, seed),
        workflow: workflow(params),
        final_output: COUNTS.into(),
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::oracle;

    /// `wc-split` as it shipped, over owned words: the oracle.
    fn split_oracle(inputs: Vec<Bytes>) -> Result<Vec<Bytes>, String> {
        let words = oracle::corpus_words(&inputs[0])?;
        if words.is_empty() {
            return Err("split: empty corpus".into());
        }
        Ok(vec![Bytes::from(words.join(" "))])
    }

    /// `wc-map` as it shipped, splitting the whole corpus into owned words
    /// to count its range: the oracle.
    fn map_oracle(inputs: Vec<Bytes>, reducers: usize) -> Result<Vec<Bytes>, String> {
        let words = oracle::corpus_words(&inputs[0])?;
        let p = oracle::decode_params(inputs[1].clone())?;
        let [_, start, end] = p[..] else {
            return Err("map: want [mapper, start, end] params".into());
        };
        let slice = words
            .get(start as usize..end as usize)
            .ok_or("map: word range outside corpus")?;
        let mut buckets: Vec<BTreeMap<String, u64>> = vec![BTreeMap::new(); reducers];
        for word in slice {
            let b = (fnv1a(word.as_bytes()) % reducers as u64) as usize;
            *buckets[b].entry(word.clone()).or_insert(0) += 1;
        }
        Ok(buckets.iter().map(oracle::encode_counts).collect())
    }

    type Kernel<'a> = &'a dyn Fn(Vec<Bytes>) -> Result<Vec<Bytes>, String>;

    /// The map property on one generated case: `map` agrees with the oracle.
    fn map_agrees(map: Kernel, rng: &mut TestRng) -> Result<(), TestCaseError> {
        let corpus = oracle::corpus(rng);
        let n = oracle::corpus_words(&corpus).map_or(40, |w| w.len());
        let inputs = vec![corpus, oracle::shard_params(rng, n)];
        let reducers = quick(ExecEnv::Native).reducers;
        prop_assert_eq!(map(inputs.clone()), map_oracle(inputs, reducers));
        Ok(())
    }

    proptest! {
        #[test]
        fn map_matches_the_owned_words_oracle(seed in any::<u64>()) {
            let map = &transformations(&quick(ExecEnv::Native))[1].logic;
            map_agrees(&**map, &mut TestRng::new(seed))?;
        }

        #[test]
        fn split_matches_the_owned_words_oracle(seed in any::<u64>()) {
            let inputs = vec![oracle::corpus(&mut TestRng::new(seed))];
            let split = &transformations(&quick(ExecEnv::Native))[0].logic;
            prop_assert_eq!(split(inputs.clone()), split_oracle(inputs));
        }

        #[test]
        fn fanout_map_counts_words_without_collecting_them(seed in any::<u64>()) {
            let params = quick(ExecEnv::Native);
            let corpus = oracle::corpus(&mut TestRng::new(seed));
            let plan = oracle::corpus_words(&corpus)
                .map(|w| oracle::shard_plan(w.len(), params.words_per_map));
            let workflow = workflow(&params);
            let fanout = &workflow.triggers()[0];
            prop_assert_eq!(oracle::fire(fanout, CLEAN, corpus), plan);
        }
    }

    /// An ASCII corpus of up to 120 words, several scan blocks long: runs
    /// of every ASCII byte `split_whitespace` splits on (U+000B and U+000C
    /// included) between words, and blanks or none at either end.
    fn ascii_corpus(rng: &mut TestRng) -> String {
        const WORDS: [&str; 5] = ["the", "pod", "x", "serverless", "a-b_c"];
        const SPACES: [&str; 9] = [
            " ",
            "  ",
            "\t",
            "\n",
            "\r\n",
            "\x0B",
            "\x0C",
            " \x0B\x0C ",
            "\t\t\n",
        ];
        let mut text = String::new();
        if oracle::below(rng, 2) == 0 {
            text.push_str(oracle::pick(rng, &SPACES));
        }
        for i in 0..oracle::below(rng, 121) {
            if i > 0 {
                text.push_str(oracle::pick(rng, &SPACES));
            }
            text.push_str(oracle::pick(rng, &WORDS));
        }
        if oracle::below(rng, 2) == 0 {
            text.push_str(oracle::pick(rng, &SPACES));
        }
        text
    }

    /// `word_offset` splits `text` where `split_whitespace` would after
    /// each number of words, up to one past the last, and `word_count`
    /// counts what it yields.
    fn offsets_agree(text: &str) -> Result<(), TestCaseError> {
        let words: Vec<&str> = text.split_whitespace().collect();
        prop_assert_eq!(word_count(text), words.len());
        for n in 0..=words.len() + 1 {
            let Some(at) = word_offset(text, n) else {
                prop_assert_eq!(n, words.len() + 1);
                continue;
            };
            prop_assert!(n <= words.len());
            let (head, rest) = text.split_at(at);
            prop_assert!(head.split_whitespace().eq(words[..n].iter().copied()));
            prop_assert!(rest.split_whitespace().eq(words[n..].iter().copied()));
            prop_assert!(at == text.len() || !rest.starts_with(char::is_whitespace));
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn word_offsets_match_split_whitespace_on_ascii(seed in any::<u64>()) {
            offsets_agree(&ascii_corpus(&mut TestRng::new(seed)))?;
        }

        #[test]
        fn word_offsets_match_split_whitespace_on_any_text(seed in any::<u64>()) {
            if let Ok(text) = corpus_text(&oracle::corpus(&mut TestRng::new(seed))) {
                offsets_agree(text)?;
            }
        }
    }

    #[test]
    fn word_offsets_at_the_edges() {
        for text in [
            "",
            " ",
            "\x0B",
            "a",
            " a ",
            "\x0Ba\x0C",
            &"w ".repeat(64),
            &"w".repeat(200),
        ] {
            offsets_agree(text).unwrap();
        }
    }

    /// The generated corpora are strong enough to tell `split_whitespace`
    /// from a plausible stand-in: the same map kernel splitting on
    /// `u8::is_ascii_whitespace` (blind to U+000B and to every non-ASCII
    /// space) fails the map property.
    #[test]
    fn an_ascii_whitespace_mapper_fails_the_map_property() {
        let reducers = quick(ExecEnv::Native).reducers;
        let ascii_map = |inputs: Vec<Bytes>| -> Result<Vec<Bytes>, String> {
            let text = corpus_text(&inputs[0])?;
            let p = decode_params(&inputs[1])?;
            let [_, start, end] = p[..] else {
                return Err("map: want [mapper, start, end] params".into());
            };
            let words = text
                .split(|c: char| u8::try_from(c).is_ok_and(|b| b.is_ascii_whitespace()))
                .filter(|w| !w.is_empty());
            let buckets = bucket_counts(words, start as usize, end as usize, reducers)
                .ok_or("map: word range outside corpus")?;
            Ok(buckets.iter().map(encode_counts).collect())
        };
        let mut rng = TestRng::new(proptest::fnv("ascii whitespace mutant"));
        let failures = (0..256)
            .filter(|_| map_agrees(&ascii_map, &mut rng).is_err())
            .count();
        assert!(
            failures > 0,
            "no generated corpus told the predicates apart"
        );
    }

    #[test]
    fn map_reduce_counts_every_word_exactly_once() {
        let params = quick(ExecEnv::Native);
        let corpus = generate_corpus(&params, 9);
        let ts = transformations(&params);
        let clean = (ts[0].logic)(vec![corpus[0].1.clone()]).unwrap();
        let words = corpus_text(&clean[0]).unwrap().split_whitespace().count();
        assert_eq!(words, params.words);
        // Map the whole corpus as one task, reduce each bucket, merge.
        let p = encode_params(&[0, 0, words as u64]);
        let buckets = (ts[1].logic)(vec![clean[0].clone(), p]).unwrap();
        assert_eq!(buckets.len(), params.reducers);
        let reduced: Vec<_> = buckets
            .iter()
            .map(|b| (ts[2].logic)(vec![b.clone()]).unwrap().remove(0))
            .collect();
        let merged = (ts[3].logic)(reduced).unwrap();
        let counts = decode_counts(&merged[0]).unwrap();
        let total: u64 = counts.values().sum();
        assert_eq!(total, params.words as u64);
        // Words land in disjoint hash buckets.
        let per_bucket: usize = buckets
            .iter()
            .map(|b| decode_counts(b).unwrap().len())
            .sum();
        assert_eq!(per_bucket, counts.len());
    }

    #[test]
    fn corpus_is_seed_deterministic() {
        let params = quick(ExecEnv::Native);
        assert_eq!(generate_corpus(&params, 2), generate_corpus(&params, 2));
        assert_ne!(generate_corpus(&params, 2), generate_corpus(&params, 3));
    }
}
