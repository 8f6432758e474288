//! Deterministic random number utilities.
//!
//! Every stochastic model component owns a [`DetRng`] derived from the
//! experiment seed plus a stable stream label, so adding a new component
//! never perturbs the draws of existing ones.

/// Deterministic RNG with distribution helpers for service-time models.
pub struct DetRng {
    rng: Xoshiro256,
}

/// xoshiro256** seeded through SplitMix64: the same sequence for a seed on
/// every platform and toolchain. Every recorded result is a function of
/// this exact stream and of how the draws below map it onto ranges (modulo
/// bias included), so neither may change.
struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    fn seeded(seed: u64) -> Self {
        // SplitMix64 expansion, the reference seeding for xoshiro.
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Xoshiro256 {
            s: [next(), next(), next(), next()],
        }
    }

    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`: the 53 high bits, at full double precision.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, width)`; `width` must be non-zero.
    fn below(&mut self, width: u64) -> u64 {
        self.next_u64() % width
    }
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
            rng: Xoshiro256::seeded(mixed),
        }
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        lo + self.rng.unit() * (hi - lo)
    }

    /// Uniform integer in `[lo, hi)`.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        lo + self.rng.below(hi - lo)
    }

    /// Uniform integer in `[lo, hi)` (i64).
    pub fn uniform_i64(&mut self, lo: i64, hi: i64) -> i64 {
        if hi <= lo {
            return lo;
        }
        // The width of any non-empty i64 range fits a u64.
        lo.wrapping_add(self.rng.below(hi.wrapping_sub(lo) as u64) as i64)
    }

    /// Exponential with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        let u = self.uniform(f64::MIN_POSITIVE, 1.0);
        -mean * u.ln()
    }

    /// Normal via Box–Muller; result clamped at `min`.
    pub fn normal_clamped(&mut self, mean: f64, std_dev: f64, min: f64) -> f64 {
        let u1 = self.uniform(f64::MIN_POSITIVE, 1.0);
        let u2 = self.uniform(0.0, 1.0);
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
        self.rng.unit() < p.clamp(0.0, 1.0)
    }

    /// Pick a uniformly random element index for a slice of length `n`.
    pub fn index(&mut self, n: usize) -> usize {
        if n <= 1 {
            0
        } else {
            self.rng.below(n as u64) as usize
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.rng.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeding_is_deterministic() {
        let mut a = Xoshiro256::seeded(42);
        let mut b = Xoshiro256::seeded(42);
        // The reference xoshiro256** stream for this SplitMix64 seed.
        assert_eq!(a.next_u64(), 0x1578_0b2e_0c2e_c716);
        assert_eq!(a.next_u64(), 0x6104_d986_6d11_3a7e);
        b.next_u64();
        b.next_u64();
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = DetRng::new(7, "ranges");
        for _ in 0..1000 {
            let f = r.uniform(0.25, 0.75);
            assert!((0.25..0.75).contains(&f));
            let u = r.uniform_u64(10, 20);
            assert!((10..20).contains(&u));
            let i = r.uniform_i64(-5, 5);
            assert!((-5..5).contains(&i));
            assert!(r.index(4) < 4);
        }
        assert!((i64::MIN..i64::MAX).contains(&r.uniform_i64(i64::MIN, i64::MAX)));
    }

    #[test]
    fn chance_tracks_probability() {
        let mut r = DetRng::new(11, "chance");
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn uniform_mean_is_centered() {
        let mut r = DetRng::new(3, "uniform");
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.uniform(0.0, 1.0)).sum();
        let mean = sum / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

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
