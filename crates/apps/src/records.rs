//! Binary record formats shared by the application kernels.
//!
//! Every application passes data between tasks as files on the simulated
//! filesystems; these codecs are their wire formats. All decoders return
//! `Err(String)` on malformed input (task logic propagates the message as
//! a job failure), never panic, and every format round-trips bit-exactly
//! — the foundation of the cross-environment equivalence guarantee.

#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

use std::collections::BTreeMap;

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a hash of a byte slice: the deterministic fingerprint used for
/// output equality checks, DAG-shape fingerprints and word bucketing.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Extend an FNV-1a hash with more bytes (order-sensitive chaining).
pub fn fnv1a_extend(mut h: u64, data: &[u8]) -> u64 {
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Fixed-point scale used by the ML kernels (Q47.16).
pub const FIXED_POINT: i64 = 1 << 16;

fn check_magic(data: &mut Bytes, magic: &[u8; 4], what: &str) -> Result<(), String> {
    if data.len() < 4 || &data[..4] != magic {
        return Err(format!("{what}: bad magic"));
    }
    data.advance(4);
    Ok(())
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

/// Encode a trade batch: magic `SWFT`, u32 count, 24 B per record.
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

/// Decode a trade batch encoded by [`encode_trades`].
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

/// A labelled sample set (ML apps): `rows × feats` feature matrix plus one
/// label per row, all i64.
#[derive(Clone, Debug, PartialEq, Eq)]
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
    let mut buf = BytesMut::with_capacity(
        s.labels
            .len()
            .saturating_add(s.features.len())
            .saturating_mul(8)
            .saturating_add(12),
    );
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

/// Decode a sample set encoded by [`encode_samples`].
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
    let mut labels = Vec::with_capacity(rows);
    for _ in 0..rows {
        labels.push(data.get_i64_le());
    }
    let mut features = Vec::with_capacity(rows * feats);
    for _ in 0..rows * feats {
        features.push(data.get_i64_le());
    }
    Ok(SampleSet {
        feats,
        labels,
        features,
    })
}

/// Encode a list of u64 parameters: magic `SWFP`, u32 count, values.
/// Used for shard parameter files and numeric summary records.
pub fn encode_params(values: &[u64]) -> Bytes {
    let mut buf = BytesMut::with_capacity(values.len().saturating_mul(8).saturating_add(8));
    buf.put_slice(b"SWFP");
    buf.put_u32_le(u32::try_from(values.len()).unwrap_or(u32::MAX));
    for &v in values {
        buf.put_u64_le(v);
    }
    buf.freeze()
}

/// Decode a parameter list encoded by [`encode_params`].
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

/// Encode a list of i64 values: magic `SWFI`, u32 count, values. Used for
/// model weights and prediction vectors.
pub fn encode_i64s(values: &[i64]) -> Bytes {
    let mut buf = BytesMut::with_capacity(values.len().saturating_mul(8).saturating_add(8));
    buf.put_slice(b"SWFI");
    buf.put_u32_le(u32::try_from(values.len()).unwrap_or(u32::MAX));
    for &v in values {
        buf.put_i64_le(v);
    }
    buf.freeze()
}

/// Decode an i64 list encoded by [`encode_i64s`].
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

/// Encode a word→count table: magic `SWFC`, u32 entries, each a u32
/// length-prefixed word plus u64 count, in key order (the `BTreeMap`
/// iteration order makes the encoding canonical).
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

/// Decode a count table encoded by [`encode_counts`].
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

#[cfg(test)]
mod tests {
    use super::*;
    use swf_simcore::DetRng;

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
        assert_eq!(decode_trades(enc.clone()).unwrap(), trades);
        assert!(decode_trades(enc.slice(0..enc.len() - 3)).is_err());
        assert!(decode_trades(Bytes::from_static(b"NOPE")).is_err());
    }

    #[test]
    fn samples_roundtrip() {
        let s = SampleSet {
            feats: 3,
            labels: vec![5, -7],
            features: vec![1, 2, 3, -4, -5, -6],
        };
        let dec = decode_samples(encode_samples(&s)).unwrap();
        assert_eq!(dec, s);
        assert_eq!(dec.rows(), 2);
        assert_eq!(dec.row(1), &[-4, -5, -6]);
    }

    #[test]
    fn params_and_i64s_roundtrip() {
        let p = vec![0, 1, u64::MAX];
        assert_eq!(decode_params(encode_params(&p)).unwrap(), p);
        let v = vec![i64::MIN, 0, i64::MAX];
        assert_eq!(decode_i64s(encode_i64s(&v)).unwrap(), v);
        assert!(decode_params(Bytes::from_static(b"SWFP")).is_err());
    }

    #[test]
    fn counts_roundtrip_is_canonical() {
        let mut a = BTreeMap::new();
        a.insert("beta".to_string(), 2u64);
        a.insert("alpha".to_string(), 9u64);
        let enc = encode_counts(&a);
        assert_eq!(decode_counts(enc.clone()).unwrap(), a);
        // Same map content always encodes to the same bytes.
        let mut b = BTreeMap::new();
        b.insert("alpha".to_string(), 9u64);
        b.insert("beta".to_string(), 2u64);
        assert_eq!(enc, encode_counts(&b));
        assert!(decode_counts(enc.slice(0..enc.len() - 1)).is_err());
    }

    #[test]
    fn fnv_is_stable() {
        // Known FNV-1a vector: empty input hashes to the offset basis.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"ab"), fnv1a_extend(fnv1a(b"a"), b"b"));
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }
}
