//! Binary record formats shared by the application kernels.
//!
//! Every application passes data between tasks as files on the simulated
//! filesystems; these codecs are their wire formats. All decoders return
//! `Err(String)` on malformed input (task logic propagates the message as
//! a job failure), never panic, and every format round-trips bit-exactly
//! — the foundation of the cross-environment equivalence guarantee.
//!
//! The two batch formats (trades, samples) have fixed-width rows, so a
//! shard task reads only its own: [`trade_count`] and [`sample_shape`]
//! validate a batch from its header and length alone, and
//! [`decode_trade_range`] / [`decode_sample_rows`] decode rows
//! `start..end` and nothing else. The whole-batch decoders are those range
//! decoders over every row.

#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

use std::collections::BTreeMap;

use bytes::{BufMut, Bytes};
use swf_workloads::codec::{cells, put_cells};

/// Fixed-point scale used by the ML kernels (Q47.16).
pub const FIXED_POINT: i64 = 1 << 16;

/// Bytes per trade record: symbol u32, price i64, qty u32, ts u64.
const TRADE_BYTES: usize = 24;

/// The bytes after `magic`, or the format's bad-magic error.
fn check_magic<'a>(data: &'a [u8], magic: &[u8; 4], what: &str) -> Result<&'a [u8], String> {
    match data.split_first_chunk::<4>() {
        Some((head, rest)) if head == magic => Ok(rest),
        _ => Err(format!("{what}: bad magic")),
    }
}

/// A little-endian u32 header field and the bytes after it.
fn take_u32(data: &[u8]) -> Option<(usize, &[u8])> {
    let (head, rest) = data.split_first_chunk::<4>()?;
    Some((u32::from_le_bytes(*head) as usize, rest))
}

/// The bytes of rows `start..end` in a region of `width`-byte rows, or
/// `None` when the range is reversed or runs past the region.
fn rows_of(region: &[u8], start: usize, end: usize, width: usize) -> Option<&[u8]> {
    region.get(start.checked_mul(width)?..end.checked_mul(width)?)
}

/// A header (magic, u32 count) in a buffer with room for `body` more bytes.
fn header(magic: &[u8; 4], count: usize, body: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(body.saturating_add(8));
    buf.put_slice(magic);
    buf.put_u32_le(u32::try_from(count).unwrap_or(u32::MAX));
    buf
}

/// Validate a `magic, u32 count, count × 8 B` list; return its cells.
fn counted_cells<'a>(data: &'a [u8], magic: &[u8; 4], what: &str) -> Result<&'a [u8], String> {
    let data = check_magic(data, magic, what)?;
    let (n, body) = take_u32(data).ok_or_else(|| format!("{what}: truncated count"))?;
    let expected = n
        .checked_mul(8)
        .ok_or_else(|| format!("{what}: count overflow"))?;
    if body.len() != expected {
        return Err(format!("{what}: expected {expected}B, got {}B", body.len()));
    }
    Ok(body)
}

/// One market-data trade record (FINRA app).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Trade {
    /// Instrument symbol id.
    pub symbol: u32,
    /// Price in cents (≤ 0 marks a corrupt feed record).
    pub price_cents: i64,
    /// Share quantity (0 marks a corrupt feed record).
    pub qty: u32,
    /// Feed timestamp (monotonic within a feed).
    pub ts: u64,
}

impl Trade {
    fn from_le(r: &[u8; TRADE_BYTES]) -> Trade {
        fn field<const N: usize>(r: &[u8; TRADE_BYTES], at: usize) -> [u8; N] {
            std::array::from_fn(|i| r[at + i])
        }
        Trade {
            symbol: u32::from_le_bytes(field(r, 0)),
            price_cents: i64::from_le_bytes(field(r, 4)),
            qty: u32::from_le_bytes(field(r, 12)),
            ts: u64::from_le_bytes(field(r, 16)),
        }
    }
}

/// Encode a trade batch: magic `SWFT`, u32 count, 24 B per record.
pub fn encode_trades(trades: &[Trade]) -> Bytes {
    let mut buf = header(
        b"SWFT",
        trades.len(),
        trades.len().saturating_mul(TRADE_BYTES),
    );
    for t in trades {
        buf.put_u32_le(t.symbol);
        buf.put_i64_le(t.price_cents);
        buf.put_u32_le(t.qty);
        buf.put_u64_le(t.ts);
    }
    Bytes::from(buf)
}

/// The validated record region of a trade batch.
fn trade_records(data: &[u8]) -> Result<&[u8], String> {
    let data = check_magic(data, b"SWFT", "trades")?;
    let (n, records) = take_u32(data).ok_or("trades: truncated count")?;
    let expected = n.checked_mul(TRADE_BYTES).ok_or("trades: count overflow")?;
    if records.len() != expected {
        return Err(format!(
            "trades: expected {expected}B of records, got {}B",
            records.len()
        ));
    }
    Ok(records)
}

/// The record count of a trade batch, validated exactly as
/// [`decode_trades`] validates it, without decoding a record.
pub fn trade_count(data: &[u8]) -> Result<usize, String> {
    Ok(trade_records(data)?.len() / TRADE_BYTES)
}

/// Records `start..end` of a trade batch, or `None` when the range is
/// outside it. Decodes no other record.
pub fn decode_trade_range(
    data: &[u8],
    start: usize,
    end: usize,
) -> Result<Option<Vec<Trade>>, String> {
    let Some(rows) = rows_of(trade_records(data)?, start, end, TRADE_BYTES) else {
        return Ok(None);
    };
    let (records, _) = rows.as_chunks::<TRADE_BYTES>();
    Ok(Some(records.iter().map(Trade::from_le).collect()))
}

/// Decode a trade batch encoded by [`encode_trades`].
pub fn decode_trades(data: &[u8]) -> Result<Vec<Trade>, String> {
    let n = trade_count(data)?;
    decode_trade_range(data, 0, n).map(Option::unwrap_or_default)
}

/// A labelled sample set (ML apps): `rows × feats` feature matrix plus one
/// label per row, all i64.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SampleSet {
    /// Features per row.
    pub feats: usize,
    /// One label per row (0 for unlabelled inference batches).
    pub labels: Vec<i64>,
    /// Row-major features, `labels.len() * feats` entries.
    pub features: Vec<i64>,
}

impl SampleSet {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.labels.len()
    }

    /// Features of row `r`.
    pub fn row(&self, r: usize) -> &[i64] {
        &self.features[r * self.feats..(r + 1) * self.feats]
    }
}

/// Encode a sample set: magic `SWFS`, u32 rows, u32 feats, labels, rows.
pub fn encode_samples(s: &SampleSet) -> Bytes {
    let body = s.labels.len().saturating_add(s.features.len());
    let mut buf = header(
        b"SWFS",
        s.labels.len(),
        body.saturating_mul(8).saturating_add(4),
    );
    buf.put_u32_le(u32::try_from(s.feats).unwrap_or(u32::MAX));
    put_cells(&mut buf, s.labels.iter().map(|l| l.to_le_bytes()));
    put_cells(&mut buf, s.features.iter().map(|f| f.to_le_bytes()));
    Bytes::from(buf)
}

/// `(feats, labels, features)` of a validated sample set: the label
/// region holds 8 B per row.
fn sample_regions(data: &[u8]) -> Result<(usize, &[u8], &[u8]), String> {
    let data = check_magic(data, b"SWFS", "samples")?;
    let field = |d| take_u32(d).ok_or("samples: truncated header");
    let (rows, data) = field(data)?;
    let (feats, body) = field(data)?;
    let cells = rows
        .checked_mul(feats + 1)
        .and_then(|c| c.checked_mul(8))
        .ok_or("samples: shape overflow")?;
    if body.len() != cells {
        return Err(format!(
            "samples: expected {cells}B for {rows}×{feats}, got {}B",
            body.len()
        ));
    }
    let (labels, features) = body.split_at(rows * 8);
    Ok((feats, labels, features))
}

/// The `(rows, feats)` of a sample set, validated exactly as
/// [`decode_samples`] validates it, without decoding a cell.
pub fn sample_shape(data: &[u8]) -> Result<(usize, usize), String> {
    sample_regions(data).map(|(feats, labels, _)| (labels.len() / 8, feats))
}

/// Rows `start..end` of a sample set (their labels and features), or
/// `None` when the range is outside it. Decodes no other row.
pub fn decode_sample_rows(
    data: &[u8],
    start: usize,
    end: usize,
) -> Result<Option<SampleSet>, String> {
    let (feats, labels, features) = sample_regions(data)?;
    // The label region bounds the range; with `feats == 0` the feature
    // region cannot.
    let Some(labels) = rows_of(labels, start, end, 8) else {
        return Ok(None);
    };
    let Some(features) = rows_of(features, start, end, feats * 8) else {
        return Ok(None);
    };
    Ok(Some(SampleSet {
        feats,
        labels: cells(labels).map(i64::from_le_bytes).collect(),
        features: cells(features).map(i64::from_le_bytes).collect(),
    }))
}

/// Decode a sample set encoded by [`encode_samples`].
pub fn decode_samples(data: &[u8]) -> Result<SampleSet, String> {
    let (rows, _) = sample_shape(data)?;
    decode_sample_rows(data, 0, rows).map(Option::unwrap_or_default)
}

/// Encode a list of u64 parameters: magic `SWFP`, u32 count, values.
/// Used for shard parameter files and numeric summary records.
pub fn encode_params(values: &[u64]) -> Bytes {
    let mut buf = header(b"SWFP", values.len(), values.len().saturating_mul(8));
    put_cells(&mut buf, values.iter().map(|v| v.to_le_bytes()));
    Bytes::from(buf)
}

/// Decode a parameter list encoded by [`encode_params`].
pub fn decode_params(data: &[u8]) -> Result<Vec<u64>, String> {
    let body = counted_cells(data, b"SWFP", "params")?;
    Ok(cells(body).map(u64::from_le_bytes).collect())
}

/// Encode a list of i64 values: magic `SWFI`, u32 count, values. Used for
/// model weights and prediction vectors.
pub fn encode_i64s(values: &[i64]) -> Bytes {
    let mut buf = header(b"SWFI", values.len(), values.len().saturating_mul(8));
    put_cells(&mut buf, values.iter().map(|v| v.to_le_bytes()));
    Bytes::from(buf)
}

/// Decode an i64 list encoded by [`encode_i64s`].
pub fn decode_i64s(data: &[u8]) -> Result<Vec<i64>, String> {
    let body = counted_cells(data, b"SWFI", "i64s")?;
    Ok(cells(body).map(i64::from_le_bytes).collect())
}

/// Encode a word→count table: magic `SWFC`, u32 entries, each a u32
/// length-prefixed word plus u64 count, in key order (the `BTreeMap`
/// iteration order makes the encoding canonical).
pub fn encode_counts(counts: &BTreeMap<String, u64>) -> Bytes {
    let body = counts.keys().map(|w| w.len() + 12).sum();
    let mut buf = header(b"SWFC", counts.len(), body);
    for (word, &n) in counts {
        buf.put_u32_le(u32::try_from(word.len()).unwrap_or(u32::MAX));
        buf.put_slice(word.as_bytes());
        buf.put_u64_le(n);
    }
    Bytes::from(buf)
}

/// Decode a count table encoded by [`encode_counts`].
pub fn decode_counts(data: &[u8]) -> Result<BTreeMap<String, u64>, String> {
    let data = check_magic(data, b"SWFC", "counts")?;
    let (n, mut data) = take_u32(data).ok_or("counts: truncated count")?;
    let mut out = BTreeMap::new();
    for i in 0..n {
        let truncated = || format!("counts: entry {i} truncated");
        let (wlen, rest) = take_u32(data).ok_or_else(truncated)?;
        let (word, rest) = rest.split_at_checked(wlen).ok_or_else(truncated)?;
        let (count, rest) = rest.split_first_chunk::<8>().ok_or_else(truncated)?;
        let word = std::str::from_utf8(word).map_err(|_| format!("counts: entry {i} not UTF-8"))?;
        out.insert(word.to_string(), u64::from_le_bytes(*count));
        data = rest;
    }
    if !data.is_empty() {
        return Err(format!("counts: {}B of trailing garbage", data.len()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use swf_simcore::DetRng;

    use super::*;
    use crate::oracle::{self, below, mangle};

    /// Bytes behind `magic` (one time in four, behind nothing): `fields`
    /// u32 header fields, each small or arbitrary, then up to 100 arbitrary
    /// bytes — the decoders' fuzz input.
    fn noise(rng: &mut TestRng, magic: &[u8; 4], fields: usize) -> Bytes {
        let mut bytes = if below(rng, 4) == 0 {
            Vec::new()
        } else {
            magic.to_vec()
        };
        for _ in 0..fields {
            let field = match below(rng, 3) {
                0 => rng.next_u64() as u32,
                _ => below(rng, 4) as u32,
            };
            bytes.extend(field.to_le_bytes());
        }
        bytes.extend((0..below(rng, 101)).map(|_| rng.next_u64() as u8));
        Bytes::from(bytes)
    }

    /// A row bound: mostly small (inside, at or past a generated batch's
    /// end), sometimes near `usize::MAX`.
    fn bound(rng: &mut TestRng) -> usize {
        match below(rng, 6) {
            0 => usize::MAX - below(rng, 2),
            _ => below(rng, 48),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn trade_decoders_agree_with_the_cursor_oracle(seed in any::<u64>()) {
            let mut rng = TestRng::new(seed);
            let data = match below(&mut rng, 2) {
                0 => oracle::trade_batch(&mut rng),
                _ => noise(&mut rng, b"SWFT", 1),
            };
            let (start, end) = (bound(&mut rng), bound(&mut rng));
            let whole = oracle::decode_trades(data.clone());
            prop_assert_eq!(decode_trades(&data), whole.clone());
            prop_assert_eq!(trade_count(&data), whole.clone().map(|t| t.len()));
            let shard = whole.clone().map(|t| t.get(start..end).map(<[Trade]>::to_vec));
            prop_assert_eq!(decode_trade_range(&data, start, end), shard);
            if let Ok(trades) = &whole {
                prop_assert_eq!(encode_trades(trades), oracle::encode_trades(trades));
            }
        }

        #[test]
        fn sample_decoders_agree_with_the_cursor_oracle(seed in any::<u64>()) {
            let mut rng = TestRng::new(seed);
            let data = match below(&mut rng, 2) {
                0 => oracle::sample_batch(&mut rng, None),
                _ => noise(&mut rng, b"SWFS", 2),
            };
            let (start, end) = (bound(&mut rng), bound(&mut rng));
            let whole = oracle::decode_samples(data.clone());
            prop_assert_eq!(decode_samples(&data), whole.clone());
            prop_assert_eq!(sample_shape(&data), whole.clone().map(|s| (s.rows(), s.feats)));
            let shard = whole.clone().map(|s| oracle::shard_slice(&s, start, end).ok());
            prop_assert_eq!(decode_sample_rows(&data, start, end), shard);
            if let Ok(set) = &whole {
                prop_assert_eq!(encode_samples(set), oracle::encode_samples(set));
            }
        }

        #[test]
        fn list_decoders_agree_with_the_cursor_oracle(seed in any::<u64>()) {
            let mut rng = TestRng::new(seed);
            let values: Vec<u64> = (0..below(&mut rng, 9)).map(|_| rng.next_u64()).collect();
            let signed: Vec<i64> = values.iter().map(|&v| v as i64).collect();
            prop_assert_eq!(encode_params(&values), oracle::encode_params(&values));
            prop_assert_eq!(encode_i64s(&signed), oracle::encode_i64s(&signed));
            let params = match below(&mut rng, 2) {
                0 => mangle(&mut rng, encode_params(&values), 8),
                _ => noise(&mut rng, b"SWFP", 1),
            };
            prop_assert_eq!(decode_params(&params), oracle::decode_params(params));
            let i64s = match below(&mut rng, 2) {
                0 => mangle(&mut rng, encode_i64s(&signed), 8),
                _ => noise(&mut rng, b"SWFI", 1),
            };
            prop_assert_eq!(decode_i64s(&i64s), oracle::decode_i64s(i64s));
        }

        #[test]
        fn count_decoder_agrees_with_the_cursor_oracle(seed in any::<u64>()) {
            let mut rng = TestRng::new(seed);
            let words = ["", "a", "pod", "ünï", "日本語"];
            let table: BTreeMap<String, u64> = (0..below(&mut rng, 5))
                .map(|_| (oracle::pick(&mut rng, &words).to_string(), rng.next_u64()))
                .collect();
            prop_assert_eq!(encode_counts(&table), oracle::encode_counts(&table));
            let mut data = match below(&mut rng, 2) {
                0 => mangle(&mut rng, encode_counts(&table), 8),
                _ => noise(&mut rng, b"SWFC", 2),
            }
            .to_vec();
            // A word's bytes that are not UTF-8.
            if below(&mut rng, 4) == 0 && data.len() > 12 {
                data[12] = 0xFF;
            }
            let data = Bytes::from(data);
            prop_assert_eq!(decode_counts(&data), oracle::decode_counts(data));
        }
    }

    #[test]
    fn trades_roundtrip_and_reject_garbage() {
        let mut rng = DetRng::new(1, "trades");
        let trades: Vec<Trade> = (0..50)
            .map(|i| Trade {
                symbol: rng.uniform_u64(0, 64) as u32,
                price_cents: rng.uniform_i64(1, 100_000),
                qty: rng.uniform_u64(1, 1000) as u32,
                ts: i,
            })
            .collect();
        let enc = encode_trades(&trades);
        assert_eq!(decode_trades(&enc).unwrap(), trades);
        assert_eq!(trade_count(&enc), Ok(50));
        assert_eq!(
            decode_trade_range(&enc, 10, 12).unwrap().unwrap(),
            &trades[10..12]
        );
        assert_eq!(decode_trade_range(&enc, 12, 10), Ok(None));
        assert_eq!(decode_trade_range(&enc, 50, 51), Ok(None));
        assert!(decode_trades(&enc[..enc.len() - 3]).is_err());
        assert!(decode_trade_range(&enc[..enc.len() - 3], 0, 1).is_err());
        assert!(decode_trades(b"NOPE").is_err());
    }

    #[test]
    fn samples_roundtrip() {
        let s = SampleSet {
            feats: 3,
            labels: vec![5, -7],
            features: vec![1, 2, 3, -4, -5, -6],
        };
        let enc = encode_samples(&s);
        let dec = decode_samples(&enc).unwrap();
        assert_eq!(dec, s);
        assert_eq!(dec.rows(), 2);
        assert_eq!(dec.row(1), &[-4, -5, -6]);
        assert_eq!(sample_shape(&enc), Ok((2, 3)));
        let tail = decode_sample_rows(&enc, 1, 2).unwrap().unwrap();
        assert_eq!((tail.labels, tail.features), (vec![-7], vec![-4, -5, -6]));
        assert_eq!(decode_sample_rows(&enc, 1, 3), Ok(None));
    }

    #[test]
    fn params_and_i64s_roundtrip() {
        let p = vec![0, 1, u64::MAX];
        assert_eq!(decode_params(&encode_params(&p)).unwrap(), p);
        let v = vec![i64::MIN, 0, i64::MAX];
        assert_eq!(decode_i64s(&encode_i64s(&v)).unwrap(), v);
        assert!(decode_params(b"SWFP").is_err());
    }

    #[test]
    fn counts_roundtrip_is_canonical() {
        let mut a = BTreeMap::new();
        a.insert("beta".to_string(), 2u64);
        a.insert("alpha".to_string(), 9u64);
        let enc = encode_counts(&a);
        assert_eq!(decode_counts(&enc).unwrap(), a);
        // Same map content always encodes to the same bytes.
        let mut b = BTreeMap::new();
        b.insert("alpha".to_string(), 9u64);
        b.insert("beta".to_string(), 2u64);
        assert_eq!(enc, encode_counts(&b));
        assert!(decode_counts(&enc[..enc.len() - 1]).is_err());
    }
}
