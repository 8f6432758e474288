//! Deterministic random number utilities.
//!
//! Every stochastic model component owns a [`DetRng`] derived from the
//! experiment seed plus a stable stream label, so adding a new component
//! never perturbs the draws of existing ones.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic RNG with distribution helpers for service-time models.
pub struct DetRng {
    rng: StdRng,
}

/// Derive a 64-bit stream id from a label (FNV-1a).
fn hash_label(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl DetRng {
    /// RNG for `(seed, stream)`; the same pair always produces the same
    /// sequence.
    pub fn new(seed: u64, stream: &str) -> Self {
        let mixed = seed ^ hash_label(stream).rotate_left(17);
        DetRng {
            rng: StdRng::seed_from_u64(mixed),
        }
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        self.rng.gen_range(lo..hi)
    }

    /// Uniform integer in `[lo, hi)`.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        self.rng.gen_range(lo..hi)
    }

    /// Uniform integer in `[lo, hi)` (i64).
    pub fn uniform_i64(&mut self, lo: i64, hi: i64) -> i64 {
        if hi <= lo {
            return lo;
        }
        self.rng.gen_range(lo..hi)
    }

    /// Exponential with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        -mean * u.ln()
    }

    /// Normal via Box–Muller; result clamped at `min`.
    pub fn normal_clamped(&mut self, mean: f64, std_dev: f64, min: f64) -> f64 {
        let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (mean + std_dev * z).max(min)
    }

    /// Lognormal parameterized by the *target* mean and coefficient of
    /// variation — convenient for latency models ("mean 80 ms, cv 0.2").
    pub fn lognormal(&mut self, mean: f64, cv: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        if cv <= 0.0 {
            return mean;
        }
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        let n = self.normal_clamped(0.0, 1.0, f64::NEG_INFINITY);
        (mu + sigma2.sqrt() * n).exp()
    }

    /// Bernoulli draw.
    pub fn chance(&mut self, p: f64) -> bool {
        self.rng.gen_bool(p.clamp(0.0, 1.0))
    }

    /// Pick a uniformly random element index for a slice of length `n`.
    pub fn index(&mut self, n: usize) -> usize {
        if n <= 1 {
            0
        } else {
            self.rng.gen_range(0..n)
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_same_sequence() {
        let mut a = DetRng::new(7, "net");
        let mut b = DetRng::new(7, "net");
        for _ in 0..100 {
            assert_eq!(a.uniform_u64(0, 1000), b.uniform_u64(0, 1000));
        }
    }

    #[test]
    fn different_streams_diverge() {
        let mut a = DetRng::new(7, "net");
        let mut b = DetRng::new(7, "disk");
        let va: Vec<u64> = (0..20).map(|_| a.uniform_u64(0, 1_000_000)).collect();
        let vb: Vec<u64> = (0..20).map(|_| b.uniform_u64(0, 1_000_000)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = DetRng::new(42, "exp");
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.exponential(2.0)).sum();
        let mean = sum / f64::from(n);
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn lognormal_mean_is_close() {
        let mut r = DetRng::new(42, "logn");
        let n = 40_000;
        let sum: f64 = (0..n).map(|_| r.lognormal(0.08, 0.2)).sum();
        let mean = sum / f64::from(n);
        assert!((mean - 0.08).abs() < 0.005, "mean {mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = DetRng::new(9, "shuf");
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>()); // virtually certain
    }

    #[test]
    fn degenerate_ranges() {
        let mut r = DetRng::new(1, "deg");
        assert_eq!(r.uniform(5.0, 5.0), 5.0);
        assert_eq!(r.uniform_u64(9, 9), 9);
        assert_eq!(r.index(0), 0);
        assert_eq!(r.index(1), 0);
        assert_eq!(r.exponential(0.0), 0.0);
        assert_eq!(r.lognormal(0.0, 1.0), 0.0);
        assert_eq!(r.lognormal(3.0, 0.0), 3.0);
    }
}
