//! Median and quartiles of a repeated section.

/// Quartiles of one repeated measurement, with its sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quartiles {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Quartiles {
    /// Quartiles by the exclusive method — the one Python's
    /// `statistics.quantiles(values, n=4)` uses, so the spreads printed here
    /// are the spreads the acceptance check computes (`swf_metrics::percentile`
    /// interpolates inclusively and gives other quartiles). With fewer than
    /// two samples all three collapse onto the one value (or 0.0 for none).
    pub fn of(samples: &[f64]) -> Quartiles {
        let mut xs = samples.to_vec();
        xs.sort_by(f64::total_cmp);
        let n = xs.len();
        if n < 2 {
            let v = xs.first().copied().unwrap_or(0.0);
            return Quartiles {
                n,
                q1: v,
                median: v,
                q3: v,
            };
        }
        let at = |k: usize| {
            // Position k·(n+1)/4 on a 1-based axis, clamped to the data.
            let pos = (k * (n + 1)) as f64 / 4.0;
            let j = (pos.floor() as usize).clamp(1, n - 1);
            let frac = (pos - j as f64).clamp(0.0, 1.0);
            xs[j - 1] + frac * (xs[j] - xs[j - 1])
        };
        Quartiles {
            n,
            q1: at(1),
            median: at(2),
            q3: at(3),
        }
    }

    /// A single reading.
    pub fn single(value: f64) -> Quartiles {
        Quartiles::of(&[value])
    }

    /// Interquartile range as a share of the median (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let q = Quartiles::of(&[10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let q = Quartiles::of(&[4.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 4.0));
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]: the exclusive
        // method extrapolates; clamping keeps the quartiles inside the data.
        let q = Quartiles::of(&[3.0, 5.0]);
        assert_eq!((q.q1, q.median, q.q3), (3.0, 4.0, 5.0));
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(Quartiles::of(&[]).median, 0.0);
        let one = Quartiles::of(&[7.0]);
        assert_eq!((one.n, one.q1, one.median, one.q3), (1, 7.0, 7.0, 7.0));
        assert_eq!(one.spread(), 0.0);
    }
}
