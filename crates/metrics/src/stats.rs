//! Summary statistics.
//!
//! All entry points reject `NaN` observations up front instead of letting
//! them poison an aggregate: a single `NaN` would otherwise make `mean`
//! non-comparable while `min`/`max` (whose `f64::min`/`max` skip `NaN`)
//! silently stayed finite — the worst kind of half-poisoned result for
//! the bench-suite comparisons built on top of these paths.

/// Summary of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample size (after `NaN` rejection).
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Compute over a sample. `NaN` observations are dropped before
    /// aggregation; an empty (or all-`NaN`) input yields zeros.
    pub fn of(xs: &[f64]) -> Summary {
        let kept: Vec<f64> = xs.iter().copied().filter(|x| !x.is_nan()).collect();
        if kept.is_empty() {
            return Summary {
                n: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let n = kept.len() as f64;
        let mean = kept.iter().sum::<f64>() / n;
        let var = kept.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        Summary {
            n: kept.len(),
            mean,
            std_dev: var.sqrt(),
            min: kept.iter().copied().fold(f64::INFINITY, f64::min),
            max: kept.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// Percentile via linear interpolation on the sorted sample (p in 0..=100).
///
/// `NaN` observations are dropped first (they would otherwise sort to the
/// top under `total_cmp` and surface as high percentiles); an empty or
/// all-`NaN` sample — or a `NaN` `p` — yields 0.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut sorted: Vec<f64> = xs.iter().copied().filter(|x| !x.is_nan()).collect();
    if sorted.is_empty() || p.is_nan() {
        return 0.0;
    }
    sorted.sort_by(|a, b| a.total_cmp(b));
    let p = p.clamp(0.0, 100.0) / 100.0;
    let idx = p * (sorted.len() - 1) as f64;
    let lo = idx.floor() as usize;
    let hi = idx.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = idx - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.std_dev - 1.118033988749895).abs() < 1e-12);
    }

    #[test]
    fn summary_empty() {
        let s = Summary::of(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!((s.min, s.max), (0.0, 0.0));
    }

    #[test]
    fn summary_single_sample() {
        let s = Summary::of(&[7.25]);
        assert_eq!(s.n, 1);
        assert_eq!(s.mean, 7.25);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!((s.min, s.max), (7.25, 7.25));
    }

    #[test]
    fn summary_duplicates_have_zero_spread() {
        let s = Summary::of(&[3.0, 3.0, 3.0, 3.0, 3.0]);
        assert_eq!(s.n, 5);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!((s.min, s.max), (3.0, 3.0));
    }

    #[test]
    fn summary_rejects_nan() {
        let s = Summary::of(&[1.0, f64::NAN, 3.0]);
        assert_eq!(s.n, 2);
        assert_eq!(s.mean, 2.0);
        assert_eq!((s.min, s.max), (1.0, 3.0));
        assert!(!s.std_dev.is_nan());
        // All-NaN behaves like empty.
        let all_nan = Summary::of(&[f64::NAN, f64::NAN]);
        assert_eq!(all_nan.n, 0);
        assert_eq!(all_nan.mean, 0.0);
    }

    #[test]
    fn percentiles_interpolate() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&xs, 0.0), 10.0);
        assert_eq!(percentile(&xs, 100.0), 40.0);
        assert_eq!(percentile(&xs, 50.0), 25.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn percentile_single_and_duplicates() {
        assert_eq!(percentile(&[5.0], 0.0), 5.0);
        assert_eq!(percentile(&[5.0], 50.0), 5.0);
        assert_eq!(percentile(&[5.0], 100.0), 5.0);
        let dup = [2.0, 2.0, 2.0, 2.0];
        for p in [0.0, 25.0, 50.0, 75.0, 100.0] {
            assert_eq!(percentile(&dup, p), 2.0);
        }
    }

    #[test]
    fn percentile_out_of_range_p_clamps() {
        let xs = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&xs, -10.0), 1.0);
        assert_eq!(percentile(&xs, 250.0), 3.0);
    }

    #[test]
    fn percentile_rejects_nan() {
        // A NaN sample must not surface as the high percentile.
        let xs = [1.0, 2.0, f64::NAN, 3.0];
        assert_eq!(percentile(&xs, 100.0), 3.0);
        assert_eq!(percentile(&xs, 50.0), 2.0);
        // All-NaN behaves like empty; a NaN p yields 0 rather than NaN.
        assert_eq!(percentile(&[f64::NAN], 50.0), 0.0);
        assert_eq!(percentile(&xs, f64::NAN), 0.0);
    }
}
