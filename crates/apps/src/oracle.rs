//! Test oracles: the record codec as it was before shard tasks read only
//! their rows — whole-batch decoders over a `Buf` cursor, one value at a
//! time — with the two helpers the shard kernels sliced their batch with,
//! and generators of valid and malformed inputs. Each kernel's own module
//! keeps its whole-batch kernel as an oracle beside these; the shipped code
//! must give identical `Ok` bytes and identical `Err` strings.

use std::collections::BTreeMap;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use proptest::prelude::TestRng;

use crate::dynamic::{Trigger, TriggerContext};
use crate::records::{SampleSet, Trade};

fn check_magic(data: &mut Bytes, magic: &[u8; 4], what: &str) -> Result<(), String> {
    if data.len() < 4 || &data[..4] != magic {
        return Err(format!("{what}: bad magic"));
    }
    data.advance(4);
    Ok(())
}

pub fn encode_trades(trades: &[Trade]) -> Bytes {
    let mut buf = BytesMut::with_capacity(trades.len().saturating_mul(24).saturating_add(8));
    buf.put_slice(b"SWFT");
    buf.put_u32_le(u32::try_from(trades.len()).unwrap_or(u32::MAX));
    for t in trades {
        buf.put_u32_le(t.symbol);
        buf.put_i64_le(t.price_cents);
        buf.put_u32_le(t.qty);
        buf.put_u64_le(t.ts);
    }
    buf.freeze()
}

pub fn decode_trades(mut data: Bytes) -> Result<Vec<Trade>, String> {
    check_magic(&mut data, b"SWFT", "trades")?;
    if data.len() < 4 {
        return Err("trades: truncated count".into());
    }
    let n = data.get_u32_le() as usize;
    let expected = n.checked_mul(24).ok_or("trades: count overflow")?;
    if data.len() != expected {
        return Err(format!(
            "trades: expected {expected}B of records, got {}B",
            data.len()
        ));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(Trade {
            symbol: data.get_u32_le(),
            price_cents: data.get_i64_le(),
            qty: data.get_u32_le(),
            ts: data.get_u64_le(),
        });
    }
    Ok(out)
}

pub fn encode_samples(s: &SampleSet) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(b"SWFS");
    buf.put_u32_le(u32::try_from(s.labels.len()).unwrap_or(u32::MAX));
    buf.put_u32_le(u32::try_from(s.feats).unwrap_or(u32::MAX));
    for &l in &s.labels {
        buf.put_i64_le(l);
    }
    for &f in &s.features {
        buf.put_i64_le(f);
    }
    buf.freeze()
}

pub fn decode_samples(mut data: Bytes) -> Result<SampleSet, String> {
    check_magic(&mut data, b"SWFS", "samples")?;
    if data.len() < 8 {
        return Err("samples: truncated header".into());
    }
    let rows = data.get_u32_le() as usize;
    let feats = data.get_u32_le() as usize;
    let cells = rows
        .checked_mul(feats + 1)
        .and_then(|c| c.checked_mul(8))
        .ok_or("samples: shape overflow")?;
    if data.len() != cells {
        return Err(format!(
            "samples: expected {cells}B for {rows}×{feats}, got {}B",
            data.len()
        ));
    }
    let labels = (0..rows).map(|_| data.get_i64_le()).collect();
    let features = (0..rows * feats).map(|_| data.get_i64_le()).collect();
    Ok(SampleSet {
        feats,
        labels,
        features,
    })
}

pub fn encode_params(values: &[u64]) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(b"SWFP");
    buf.put_u32_le(u32::try_from(values.len()).unwrap_or(u32::MAX));
    for &v in values {
        buf.put_u64_le(v);
    }
    buf.freeze()
}

pub fn decode_params(mut data: Bytes) -> Result<Vec<u64>, String> {
    check_magic(&mut data, b"SWFP", "params")?;
    if data.len() < 4 {
        return Err("params: truncated count".into());
    }
    let n = data.get_u32_le() as usize;
    let expected = n.checked_mul(8).ok_or("params: count overflow")?;
    if data.len() != expected {
        return Err(format!("params: expected {expected}B, got {}B", data.len()));
    }
    Ok((0..n).map(|_| data.get_u64_le()).collect())
}

pub fn encode_i64s(values: &[i64]) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(b"SWFI");
    buf.put_u32_le(u32::try_from(values.len()).unwrap_or(u32::MAX));
    for &v in values {
        buf.put_i64_le(v);
    }
    buf.freeze()
}

pub fn decode_i64s(mut data: Bytes) -> Result<Vec<i64>, String> {
    check_magic(&mut data, b"SWFI", "i64s")?;
    if data.len() < 4 {
        return Err("i64s: truncated count".into());
    }
    let n = data.get_u32_le() as usize;
    let expected = n.checked_mul(8).ok_or("i64s: count overflow")?;
    if data.len() != expected {
        return Err(format!("i64s: expected {expected}B, got {}B", data.len()));
    }
    Ok((0..n).map(|_| data.get_i64_le()).collect())
}

pub fn encode_counts(counts: &BTreeMap<String, u64>) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(b"SWFC");
    buf.put_u32_le(u32::try_from(counts.len()).unwrap_or(u32::MAX));
    for (word, &n) in counts {
        buf.put_u32_le(u32::try_from(word.len()).unwrap_or(u32::MAX));
        buf.put_slice(word.as_bytes());
        buf.put_u64_le(n);
    }
    buf.freeze()
}

pub fn decode_counts(mut data: Bytes) -> Result<BTreeMap<String, u64>, String> {
    check_magic(&mut data, b"SWFC", "counts")?;
    if data.len() < 4 {
        return Err("counts: truncated count".into());
    }
    let n = data.get_u32_le() as usize;
    let mut out = BTreeMap::new();
    for i in 0..n {
        if data.len() < 4 {
            return Err(format!("counts: entry {i} truncated"));
        }
        let wlen = data.get_u32_le() as usize;
        if data.len() < wlen + 8 {
            return Err(format!("counts: entry {i} truncated"));
        }
        let word = String::from_utf8(data.split_to(wlen).to_vec())
            .map_err(|_| format!("counts: entry {i} not UTF-8"))?;
        out.insert(word, data.get_u64_le());
    }
    if !data.is_empty() {
        return Err(format!("counts: {}B of trailing garbage", data.len()));
    }
    Ok(out)
}

/// Every word of a corpus, owned: what `wc-split`, `wc-map` and
/// `fanout-map` each built before reading anything.
pub fn corpus_words(data: &Bytes) -> Result<Vec<String>, String> {
    let text = std::str::from_utf8(data).map_err(|_| "corpus is not UTF-8".to_string())?;
    Ok(text.split_whitespace().map(str::to_string).collect())
}

/// Rows `start..end` copied out of a fully decoded sample set.
pub fn shard_slice(s: &SampleSet, start: usize, end: usize) -> Result<SampleSet, String> {
    if end > s.rows() || start > end {
        return Err("shard range outside dataset".into());
    }
    Ok(SampleSet {
        feats: s.feats,
        labels: s.labels[start..end].to_vec(),
        features: s.features[start * s.feats..end * s.feats].to_vec(),
    })
}

/// A uniform draw from `0..n` (`n > 0`).
pub fn below(rng: &mut TestRng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// One of `items`, uniformly.
pub fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
    items[below(rng, items.len())]
}

/// A valid encoding with a header of `header` bytes (magic, then u32
/// count fields), returned as is or broken one way: bad magic, truncated
/// header, every count field at `u32::MAX`, trailing bytes, or a body cut
/// short.
pub fn mangle(rng: &mut TestRng, valid: Bytes, header: usize) -> Bytes {
    let mut bytes = valid.to_vec();
    match below(rng, 8) {
        0 => bytes[below(rng, 4)] ^= 0x20,
        1 => bytes.truncate(below(rng, header)),
        2 => bytes[4..header].fill(0xFF),
        3 => bytes.extend(std::iter::repeat_n(0xAB, 1 + below(rng, 9))),
        4 => bytes.truncate(bytes.len().saturating_sub(1 + below(rng, 9))),
        _ => {}
    }
    Bytes::from(bytes)
}

/// A trade batch of up to 40 records, valid or mangled. Prices and
/// quantities stay small enough that a shard's notional cannot overflow.
pub fn trade_batch(rng: &mut TestRng) -> Bytes {
    let trades: Vec<Trade> = (0..below(rng, 41))
        .map(|ts| {
            let any_price = (rng.next_u64() % 2_000_001) as i64 - 1_000_000;
            Trade {
                symbol: rng.next_u64() as u32,
                price_cents: pick(rng, &[0, -3, 1, 99_999, any_price]),
                qty: pick(rng, &[0, 1, 1_000, 65_535]),
                ts: ts as u64,
            }
        })
        .collect();
    mangle(rng, encode_trades(&trades), 8)
}

/// A sample set of up to 40 rows × `feats` (up to 5 when `None`), cells
/// in ±1000, valid or mangled.
pub fn sample_batch(rng: &mut TestRng, feats: Option<usize>) -> Bytes {
    let feats = feats.unwrap_or_else(|| below(rng, 6));
    let rows = below(rng, 41);
    let mut cell = || rng.next_u64() as i64 % 1_000;
    let labels = (0..rows).map(|_| cell()).collect();
    let features = (0..rows * feats).map(|_| cell()).collect();
    let set = SampleSet {
        feats,
        labels,
        features,
    };
    mangle(rng, encode_samples(&set), 12)
}

/// A shard's `[shard, start, end]` parameter file for a batch of `n`
/// rows: mostly a range inside it, often an empty, reversed or overlong
/// one, sometimes the wrong arity or a mangled file.
pub fn shard_params(rng: &mut TestRng, n: usize) -> Bytes {
    let n = n as u64;
    let (shape, arity) = (below(rng, 8), below(rng, 10));
    let mut upto = |hi: u64| rng.next_u64() % (hi + 1);
    let (start, end) = match shape {
        0 => {
            let end = upto(n);
            (end + 1 + upto(3), end)
        }
        1 => (upto(n), n + 1 + upto(3)),
        2 => (u64::MAX, upto(n)),
        3 => {
            let at = upto(n + 3);
            (at, at)
        }
        _ => {
            let start = upto(n);
            (start, start + upto(n - start))
        }
    };
    match arity {
        0 => encode_params(&[7, start]),
        1 => mangle(rng, encode_params(&[7, start, end]), 8),
        _ => encode_params(&[7, start, end]),
    }
}

/// A corpus of up to 40 words from a vocabulary with non-ASCII letters,
/// separated by runs of ASCII and Unicode whitespace (U+000B and U+3000
/// among them), with optional leading and trailing whitespace; one in
/// eight is not UTF-8.
pub fn corpus(rng: &mut TestRng) -> Bytes {
    const WORDS: [&str; 7] = ["the", "pod", "ünïcödé", "日本語", "a\u{200B}b", "x", "task"];
    const SPACES: [&str; 11] = [
        " ",
        "  ",
        "\t",
        "\n",
        "\r\n",
        "\u{0B}",
        "\u{0C}",
        "\u{85}",
        "\u{A0}",
        "\u{3000}",
        " \u{2028} ",
    ];
    let mut text = String::new();
    if below(rng, 2) == 0 {
        text.push_str(pick(rng, &SPACES));
    }
    for i in 0..below(rng, 41) {
        if i > 0 {
            text.push_str(pick(rng, &SPACES));
        }
        text.push_str(pick(rng, &WORDS));
    }
    if below(rng, 2) == 0 {
        text.push_str(pick(rng, &SPACES));
    }
    let mut bytes = text.into_bytes();
    if below(rng, 8) == 0 {
        let at = below(rng, bytes.len() + 1);
        bytes.insert(at, 0xFF);
    }
    Bytes::from(bytes)
}

/// The parameter files a fan-out over `n` rows in shards of `per` stages,
/// in shard order.
pub fn shard_plan(n: usize, per: usize) -> Vec<Bytes> {
    (0..n.div_ceil(per))
        .map(|s| {
            let start = s * per;
            encode_params(&[s as u64, start as u64, (start + per).min(n) as u64])
        })
        .collect()
}

/// Fire `trigger` on one output file; the parameter files it staged.
pub fn fire(trigger: &Trigger, file: &str, data: Bytes) -> Result<Vec<Bytes>, String> {
    let ctx = TriggerContext {
        outputs: BTreeMap::from([(file.to_string(), data)]),
    };
    let expansion = (trigger.expand)(&ctx)?;
    Ok(expansion.staged.into_iter().map(|(_, b)| b).collect())
}
