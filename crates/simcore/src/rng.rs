//! Deterministic random number utilities.
//!
//! Every stochastic model component owns a [`DetRng`] derived from the
//! experiment seed plus a stable stream label, so adding a new component
//! never perturbs the draws of existing ones.

/// The root seed of `ExperimentConfig::paper()` and of the negotiator's
/// default jitter streams. Re-seeding a run sets both, as
/// `swf_chaos::experiment_config` does.
pub const DEFAULT_SEED: u64 = 0x5EED_CAFE;

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

/// `x % w` without a division (Lemire, Kaser & Kurz, *Faster Remainder by
/// Direct Computation*, 2019): with `M = ⌈2^128/w⌉`, the remainder is the
/// high 64 bits of `(M·x mod 2^128)·w`, exactly, for every 64-bit `x` and
/// every `w ≥ 1`. At `w = 1`, `M` is `2^128`, which wraps to 0 and gives
/// the right remainder, 0.
#[derive(Clone, Copy)]
struct Remainder {
    m: u128,
    w: u64,
}

impl Remainder {
    fn new(w: u64) -> Self {
        // `⌈2^128/w⌉ = ⌊(2^128 − 1)/w⌋ + 1` for every `w ≥ 1`.
        Remainder {
            m: (u128::MAX / u128::from(w)).wrapping_add(1),
            w,
        }
    }

    fn of(self, x: u64) -> u64 {
        let frac = self.m.wrapping_mul(u128::from(x));
        let w = u128::from(self.w);
        // The high 64 bits of the 192-bit `frac·w`, in two 128-bit halves.
        let carry = ((frac & u128::from(u64::MAX)) * w) >> 64;
        (((frac >> 64) * w + carry) >> 64) as u64
    }
}

/// What one inclusive draw spans: nothing (`hi < lo`: no draw, `lo`), a
/// width below 2^64, or all 64 bits.
enum Width {
    Empty,
    Below(Remainder),
    Full,
}

/// A batch of inclusive draws from one [`DetRng`]
/// ([`DetRng::uniform_i64_inclusive_batch`]).
pub struct InclusiveDraws<'a> {
    rng: &'a mut Xoshiro256,
    lo: i64,
    width: Width,
}

impl InclusiveDraws<'_> {
    /// The next draw: what `uniform_i64_inclusive(lo, hi)` would return.
    pub fn draw(&mut self) -> i64 {
        match self.width {
            Width::Below(r) => self.lo.wrapping_add(r.of(self.rng.next_u64()) as i64),
            Width::Full => self.rng.next_u64() as i64,
            Width::Empty => self.lo,
        }
    }
}

/// 64-bit FNV-1a of a byte slice: the workspace's one deterministic
/// digest (stream ids here, output and DAG-shape fingerprints, word
/// bucketing, run fingerprints).
pub fn fnv1a(data: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, data)
}

/// Extend an FNV-1a hash with more bytes (order-sensitive chaining):
/// `fnv1a_extend(fnv1a(a), b) == fnv1a(a ++ b)`.
pub fn fnv1a_extend(mut h: u64, data: &[u8]) -> u64 {
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl DetRng {
    /// RNG for `(seed, stream)`; the same pair always produces the same
    /// sequence.
    pub fn new(seed: u64, stream: &str) -> Self {
        let mixed = seed ^ fnv1a(stream.as_bytes()).rotate_left(17);
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

    /// Uniform integer in `[lo, hi]` (i64), `hi == i64::MAX` included.
    /// Wherever `hi + 1` fits, the same draw as `uniform_i64(lo, hi + 1)`;
    /// the full-width range takes 64 raw bits.
    pub fn uniform_i64_inclusive(&mut self, lo: i64, hi: i64) -> i64 {
        if hi < lo {
            return lo;
        }
        match (hi.wrapping_sub(lo) as u64).checked_add(1) {
            Some(width) => lo.wrapping_add(self.rng.below(width) as i64),
            None => self.rng.next_u64() as i64,
        }
    }

    /// Draws of `uniform_i64_inclusive(lo, hi)`, value for value and in
    /// the same order, for filling a whole matrix: the width's remainder
    /// is set up once, as an exact division-free multiply (Lemire, Kaser
    /// & Kurz, 2019), instead of dividing on every draw.
    pub fn uniform_i64_inclusive_batch(&mut self, lo: i64, hi: i64) -> InclusiveDraws<'_> {
        let width = if hi < lo {
            Width::Empty
        } else {
            match (hi.wrapping_sub(lo) as u64).checked_add(1) {
                Some(width) => Width::Below(Remainder::new(width)),
                None => Width::Full,
            }
        };
        InclusiveDraws {
            rng: &mut self.rng,
            lo,
            width,
        }
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
    fn fnv1a_is_the_published_function() {
        // Published FNV-1a 64 vectors: the offset basis, then "a" and
        // "foobar".
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a(b"ab"), fnv1a_extend(fnv1a(b"a"), b"b"));
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }

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
    fn inclusive_draws_match_exclusive_ones_below_i64_max() {
        for (lo, hi) in [
            (-100, 100),
            (5, 5),
            (i64::MIN, i64::MAX - 1),
            (-3, i64::MAX - 1),
        ] {
            let mut inclusive = DetRng::new(3, "inclusive");
            let mut exclusive = DetRng::new(3, "inclusive");
            for _ in 0..64 {
                let x = inclusive.uniform_i64_inclusive(lo, hi);
                assert_eq!(x, exclusive.uniform_i64(lo, hi + 1));
                assert!((lo..=hi).contains(&x));
            }
        }
        // Ranges ending at `i64::MAX`: the full width is the raw stream.
        let mut r = DetRng::new(3, "inclusive");
        let mut raw = Xoshiro256::seeded(3 ^ fnv1a(b"inclusive").rotate_left(17));
        for _ in 0..64 {
            assert_eq!(
                r.uniform_i64_inclusive(i64::MIN, i64::MAX),
                raw.next_u64() as i64
            );
        }
        let tops: Vec<i64> = (0..64)
            .map(|_| r.uniform_i64_inclusive(i64::MAX - 1, i64::MAX))
            .collect();
        assert!(tops.contains(&i64::MAX) && tops.contains(&(i64::MAX - 1)));
    }

    /// The division-free remainder at the edges of every width class:
    /// `x` at 0, around multiples of `w`, and at the top of the range.
    #[test]
    fn remainder_is_exact() {
        let mut widths = vec![1, 2, 3, 7, 201, 1000, u64::MAX, u64::MAX - 1];
        widths.extend([(1 << 32) - 1, 1 << 32, (1 << 32) + 1, (1 << 63) - 1]);
        widths.extend([(1 << 63) + 1, 0xFFFF_FFFF_0000_0001, 0x8000_0000_FFFF_FFFF]);
        widths.extend((0..64).map(|s| 1u64 << s));
        let mut r = Xoshiro256::seeded(5);
        for w in widths {
            let rem = Remainder::new(w);
            let q = u64::MAX / w;
            let mut xs = vec![0, 1, w - 1, w, w.wrapping_add(1), u64::MAX, u64::MAX - 1];
            xs.extend([
                q * w,
                q * w - 1,
                (q / 2) * w + w / 2,
                ((q / 2) * w).wrapping_sub(1),
            ]);
            xs.extend((0..256).map(|_| r.next_u64()));
            for x in xs {
                assert_eq!(rem.of(x), x % w, "{x} % {w}");
            }
        }
    }

    /// A batch draws what `uniform_i64_inclusive` draws, value for value,
    /// at every width class: 1, small, the paper's 201, around 2^32,
    /// powers of two up to 2^63, 2^64 − 1, the full 64 bits, and an empty
    /// range (no draw at all, so the stream stays in step).
    #[test]
    fn batch_draws_match_single_draws() {
        let mut ranges = vec![
            (5, 5),
            (0, 1),
            (-1, 1),
            (-100, 100),
            (0, (1 << 32) - 2),
            (0, 1 << 32),
            (-(1 << 31), (1 << 31) - 1),
            (i64::MIN, -1),
            (i64::MIN / 2, i64::MAX / 2),
            (i64::MIN, i64::MAX - 1),
            (i64::MIN + 1, i64::MAX),
            (i64::MIN, i64::MAX),
            (i64::MAX - 1, i64::MAX),
            (0, i64::MAX),
            (3, 2),
        ];
        ranges.extend((1..63).step_by(7).map(|s| (-7, (1i64 << s) - 8)));
        for (lo, hi) in ranges {
            let mut single = DetRng::new(9, "batch");
            let mut batch = DetRng::new(9, "batch");
            let mut draws = batch.uniform_i64_inclusive_batch(lo, hi);
            for i in 0..500 {
                let want = single.uniform_i64_inclusive(lo, hi);
                assert_eq!(draws.draw(), want, "[{lo}, {hi}] draw {i}");
            }
            assert_eq!(batch.rng.next_u64(), single.rng.next_u64(), "[{lo}, {hi}]");
        }
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
