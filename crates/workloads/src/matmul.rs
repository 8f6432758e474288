//! Matrix multiplication kernels.
//!
//! Three bodies compute the paper's task, all in wrapping `i64`
//! arithmetic, which is exact in any order, so every path produces
//! identical bits; property tests pin that and the algebra:
//!
//! - a naive triple loop (the honest Python-equivalent);
//! - a row-axpy loop that adds `a[i,l]` times row `l` of B into row `i`
//!   of the product, vectorised by the optimiser (and compiled a second
//!   time for AVX2, picked when the CPU has it);
//! - a 16-bit limb loop, taken when B is narrow. A is split into
//!   balanced 16-bit limbs `a_t` (`A ≡ Σ_t a_t·2^16t` mod 2^64, each
//!   `a_t ∈ [−2^15, 2^15)`), each limb product `P_t = a_t·B` is summed in
//!   `i32` lanes, and the product is `Σ_t (P_t as i64) << 16t`, wrapping.
//!   `P_t` is exact when `max|B| < 2^15` and `k·max|B| < 2^16`, since
//!   every partial sum is then below `k·2^15·max|B| < 2^31`: the paper's
//!   350-wide seeds in [-100, 100] give 35,000, and the bound holds up to
//!   k = 655. It is written once over the vector width and compiled
//!   twice: AVX-512 (tiles of twelve rows, one `zmm` a row, `vpdpwssd`)
//!   and AVX2 (tiles of six rows, two `ymm` a row, `vpmaddwd`); the
//!   set-up (B's panels, A's limb split, the plan's scans) and the
//!   epilogue (each limb's sums widened, shifted and added) run in the
//!   same vector lanes.
//!
//! [`Kernel::Blocked`] takes the limb loop of the widest body the CPU has
//! whenever the operands allow it, with as few limbs as cover every entry
//! of A; every other product runs the row-axpy loop. Its bodies are
//! written once over where the cells come from and where they go: a
//! [`Matrix`] for [`matmul`], an encoding read in place and the product's
//! encoding for [`crate::multiply_encoded`]. A product is written once, a
//! row at a time and in order, from a scratch of one tile of rows; there
//! is no `n × m` accumulator.

use crate::codec::put_cells;
use crate::matrix::Matrix;

/// Which kernel to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Kernel {
    /// Triple nested loop, row-major (closest to the paper's NumPy-free
    /// baseline semantics).
    Naive,
    /// The 16-bit limb loop when B is narrow (`k·max|B| < 2^16`) and the
    /// CPU has AVX2 or AVX-512 (the widest it has); otherwise row-axpy:
    /// row `i` of the product accumulates `a[i,l]` times row `l` of B, so
    /// every access runs along a row (vectorised; AVX2 when the CPU has
    /// it). Same bits on every path.
    #[default]
    Blocked,
}

/// An 8-byte cell of an operand, read where it lies: an `i64` of a
/// [`Matrix`], or the eight little-endian bytes of an encoding.
pub(crate) trait Cell: Copy {
    /// The cell's value.
    fn value(self) -> i64;
}

impl Cell for i64 {
    #[inline(always)]
    fn value(self) -> i64 {
        self
    }
}

impl Cell for [u8; 8] {
    #[inline(always)]
    fn value(self) -> i64 {
        i64::from_le_bytes(self)
    }
}

/// A row-major `rows × cols` operand over the cells that hold it
/// (`cells.len() == rows · cols`).
#[derive(Clone, Copy)]
pub(crate) struct Operand<'a, C> {
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) cells: &'a [C],
}

impl Matrix {
    /// The matrix as a kernel operand.
    pub(crate) fn operand(&self) -> Operand<'_, i64> {
        Operand {
            rows: self.rows(),
            cols: self.cols(),
            cells: self.as_slice(),
        }
    }
}

/// Where a kernel writes the product: its finished rows, each once and
/// in order.
pub(crate) trait Sink {
    /// Append one finished row.
    fn put_row(&mut self, row: &[i64]);
}

/// A [`Matrix`]'s cells.
impl Sink for Vec<i64> {
    fn put_row(&mut self, row: &[i64]) {
        self.extend_from_slice(row);
    }
}

/// An encoding's body, after its header.
impl Sink for Vec<u8> {
    fn put_row(&mut self, row: &[i64]) {
        put_cells(self, row.iter().map(|v| v.to_le_bytes()));
    }
}

/// Multiply `a × b` with the chosen kernel.
///
/// # Panics
/// Panics when the inner dimensions disagree.
pub fn matmul(a: &Matrix, b: &Matrix, kernel: Kernel) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "inner dimension mismatch: {}x{} × {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    match kernel {
        Kernel::Naive => naive(a, b),
        Kernel::Blocked => {
            let mut out = Vec::with_capacity(a.rows() * b.cols());
            blocked(a.operand(), b.operand(), &mut out);
            Matrix::from_vec(a.rows(), b.cols(), out)
        }
    }
}

fn naive(a: &Matrix, b: &Matrix) -> Matrix {
    let (n, k, m) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(n, m);
    for i in 0..n {
        for j in 0..m {
            let mut acc = 0i64;
            for l in 0..k {
                acc = acc.wrapping_add(a.get(i, l).wrapping_mul(b.get(l, j)));
            }
            out.set(i, j, acc);
        }
    }
    out
}

/// The body [`Kernel::Blocked`] runs: the widest this CPU has, read from
/// its feature flags (DESIGN.md §9, "The two host reads"). Every body
/// computes the same bits.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Body {
    /// Row-axpy compiled for the baseline target.
    Portable,
    /// The limb loop in AVX2 (a panel row in two `ymm`, tiles of six rows)
    /// where [`plan`] allows it, else row-axpy compiled for AVX2.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// The limb loop in AVX-512 with AVX-512BW and AVX-512 VNNI (a panel
    /// row in one `zmm`, tiles of twelve rows) where [`plan`] allows it,
    /// else the same AVX2 row-axpy as [`Body::Avx2`].
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Body {
    /// The widest body this CPU runs.
    pub(crate) fn detect() -> Body {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512bw")
                && is_x86_feature_detected!("avx512vnni")
            {
                return Body::Avx512;
            }
            if is_x86_feature_detected!("avx2") {
                return Body::Avx2;
            }
        }
        Body::Portable
    }
}

/// [`Kernel::Blocked`]: append the `a.rows × b.cols` product to `out`, row
/// by row, with the body [`Body::detect`] names. The caller has checked
/// `a.cols == b.rows`.
pub(crate) fn blocked<C: Cell>(a: Operand<'_, C>, b: Operand<'_, C>, out: &mut impl Sink) {
    match Body::detect() {
        // SAFETY: `Body::detect` names `Avx512` only where
        // `is_x86_feature_detected!` found AVX-512F, AVX-512BW and AVX-512
        // VNNI, all that `blocked_avx512` needs.
        #[cfg(target_arch = "x86_64")]
        Body::Avx512 => unsafe { blocked_avx512(a, b, out) },
        // SAFETY: `Body::detect` names `Avx2` only where
        // `is_x86_feature_detected!` found AVX2, all that `blocked_avx2`
        // needs.
        #[cfg(target_arch = "x86_64")]
        Body::Avx2 => unsafe { blocked_avx2(a, b, out) },
        Body::Portable => axpy_rows(a, b, out),
    }
}

/// `out += a[i,l] · b[l,·]` for every `l`, one row `i` of the product at
/// a time, all wrapping, each finished row appended to `out`. The inner
/// loop runs along a row of `b` and the row scratch at once, which the
/// optimiser turns into vector lanes. Wrapping `i64` arithmetic is exact
/// in any order, so this agrees with [`naive`] bit for bit. Always
/// inlined, so each caller compiles the body for its own target features.
#[inline(always)]
fn axpy_rows<C: Cell>(a: Operand<'_, C>, b: Operand<'_, C>, out: &mut impl Sink) {
    let (k, m) = (a.cols, b.cols);
    if m == 0 {
        return;
    }
    let mut row = vec![0; m];
    // `chunks_exact(0)` panics; with `k == 0` every row is zeros.
    if k == 0 {
        (0..a.rows).for_each(|_| out.put_row(&row));
        return;
    }
    for a_row in a.cells.chunks_exact(k) {
        row.fill(0);
        for (&x, b_row) in a_row.iter().zip(b.cells.chunks_exact(m)) {
            let x = x.value();
            for (o, &y) in row.iter_mut().zip(b_row) {
                *o = o.wrapping_add(x.wrapping_mul(y.value()));
            }
        }
        out.put_row(&row);
    }
}

/// Columns of B per packed panel of the limb loop: one vector row of 16
/// `i32` lanes.
const PANEL: usize = 16;

/// How many balanced 16-bit limbs the limb loop needs for `a × b`, or
/// `None` when the row-axpy loop should run: B is too wide for the limb
/// products to sum exactly in `i32` ([`sums_fit_i32`]), or narrower than
/// one panel (an 8-column B leaves half of every lane idle, and row-axpy
/// measured faster at 8×8). A pure function of the operands, always
/// inlined so its scans compile for the caller's target features.
#[inline(always)]
pub(crate) fn plan<C: Cell>(a: Operand<'_, C>, b: Operand<'_, C>) -> Option<usize> {
    (b.cols >= PANEL && sums_fit_i32(a.cols, b)).then(|| limbs_covering(a))
}

/// Whether every limb product `a_t · B` over an inner dimension `k` sums
/// exactly in `i32`: `max|B| < 2^15` (B fits `i16`; it binds only at
/// `k = 1`) and `k·max|B| < 2^16`.
#[inline(always)]
fn sums_fit_i32<C: Cell>(k: usize, b: Operand<'_, C>) -> bool {
    let max_b = b
        .cells
        .iter()
        .map(|x| x.value().unsigned_abs())
        .max()
        .unwrap_or(0);
    max_b < 1 << 15 && (k as u64).saturating_mul(max_b) < 1 << 16
}

/// The fewest balanced 16-bit limbs that cover every entry of A: `L`
/// limbs cover `[−2^15·R_L, (2^15−1)·R_L]` with
/// `R_L = (2^16L − 1)/(2^16 − 1)`, and four cover every `i64`.
#[inline(always)]
fn limbs_covering<C: Cell>(a: Operand<'_, C>) -> usize {
    let (lo, hi) = a
        .cells
        .iter()
        .fold((0, 0), |(lo, hi), x| (x.value().min(lo), x.value().max(hi)));
    let fits = |limbs: usize| {
        let r = ((1i64 << (16 * limbs)) - 1) / 0xFFFF;
        -(1 << 15) * r <= lo && hi <= ((1 << 15) - 1) * r
    };
    (1..4).find(|&limbs| fits(limbs)).unwrap_or(4)
}

/// Row-axpy compiled for AVX2 (four `i64` lanes): the fallback of both
/// vector bodies. Never inlined, so the AVX-512 body's fallback is this
/// same AVX2 build rather than a copy compiled for AVX-512.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline(never)]
fn axpy_avx2<C: Cell>(a: Operand<'_, C>, b: Operand<'_, C>, out: &mut impl Sink) {
    axpy_rows(a, b, out);
}

/// [`Body::Avx2`]: the limb loop where [`plan`] allows it, else
/// [`axpy_avx2`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn blocked_avx2<C: Cell>(a: Operand<'_, C>, b: Operand<'_, C>, out: &mut impl Sink) {
    match plan(a, b) {
        Some(limbs) => limb::limbs_avx2(a, b, limbs, out),
        None => axpy_avx2(a, b, out),
    }
}

/// [`Body::Avx512`]: the limb loop where [`plan`] allows it (the plan's
/// scans compiled for AVX-512 too), else [`axpy_avx2`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
fn blocked_avx512<C: Cell>(a: Operand<'_, C>, b: Operand<'_, C>, out: &mut impl Sink) {
    match plan(a, b) {
        Some(limbs) => limb::limbs_avx512(a, b, limbs, out),
        None => axpy_avx2(a, b, out),
    }
}

/// The 16-bit limb loop, written once over the vector width (`Lanes`)
/// and compiled twice: for AVX2 and for AVX-512. x86-64 only; a CPU with
/// neither runs the portable row-axpy loop.
#[cfg(target_arch = "x86_64")]
mod limb {
    use std::arch::x86_64::{
        __m256i, __m512i, _mm256_add_epi32, _mm256_add_epi64, _mm256_castsi256_si128,
        _mm256_cvtepi32_epi64, _mm256_extracti128_si256, _mm256_loadu_si256, _mm256_madd_epi16,
        _mm256_set1_epi32, _mm256_setzero_si256, _mm256_sll_epi64, _mm256_storeu_si256,
        _mm512_add_epi64, _mm512_castsi512_si256, _mm512_cvtepi32_epi64, _mm512_dpwssd_epi32,
        _mm512_extracti64x4_epi64, _mm512_loadu_si512, _mm512_set1_epi32, _mm512_setzero_si512,
        _mm512_sll_epi64, _mm512_storeu_si512, _mm_cvtsi32_si128,
    };

    use super::{Cell, Operand, Sink, PANEL};

    /// Makes limb `t` of `x` the unsigned digit `t` of `x + BIAS`: a balanced
    /// digit is the unsigned one minus `0x8000`, so no limb carries into the
    /// next.
    const BIAS: u64 = 0x8000_8000_8000_8000;

    /// Rows of A per AVX2 register tile: two `i32` accumulators a row, so
    /// six rows keep 12 in flight, and with the two B vectors and the
    /// broadcast fill the 16 `ymm` registers. Six measured faster than
    /// four at every limb count (EXPERIMENTS.md, "The task").
    const AVX2_ROWS: usize = 6;

    /// Rows of A per AVX-512 register tile: one `zmm` accumulator a row.
    /// Twelve measured no slower than sixteen or twenty-four
    /// (EXPERIMENTS.md, "The task").
    const AVX512_ROWS: usize = 12;

    /// Digit pairs per block of a row: 32 digits, one 64-byte line.
    const BLOCK: usize = 16;

    /// One row's digit pairs in a block.
    type Pairs = [[u16; 2]; BLOCK];

    /// One panel row of 16 `i32` lanes in the vector registers of one
    /// width, and the steps the limb loop takes with it. Every method is
    /// always inlined into a function compiled for the width's features.
    trait Lanes: Copy {
        /// All lanes zero.
        ///
        /// # Safety
        /// The CPU has this width's features.
        unsafe fn zero() -> Self;

        /// One row of a packed panel.
        ///
        /// # Safety
        /// The CPU has this width's features.
        unsafe fn load(row: &[i32; PANEL]) -> Self;

        /// `self` plus, in each `i32` lane, the dot product of the two
        /// `i16` halves of `x` with those of `b`'s lane: exact, since the
        /// limb bound keeps every partial sum inside `i32`.
        ///
        /// # Safety
        /// The CPU has this width's features.
        unsafe fn madd(self, x: i32, b: Self) -> Self;

        /// `sum[j] += (self[j] as i64) << shift`, wrapping, in vector
        /// lanes (`vpmovsxdq`, `vpsllq`, `vpaddq`).
        ///
        /// # Safety
        /// The CPU has this width's features.
        unsafe fn add_shifted(self, shift: u32, sum: &mut [i64; PANEL]);
    }

    /// AVX2: a panel row in two `ymm` of eight lanes; `madd` is
    /// `vpmaddwd` then `vpaddd`.
    impl Lanes for [__m256i; 2] {
        #[inline(always)]
        unsafe fn zero() -> Self {
            // SAFETY: the caller vouches for AVX2.
            unsafe { [_mm256_setzero_si256(); 2] }
        }

        #[inline(always)]
        unsafe fn load(row: &[i32; PANEL]) -> Self {
            // SAFETY: the caller vouches for AVX2; `row` is 64 bytes, each
            // load reads one 32-byte half, and `loadu` needs no alignment.
            unsafe {
                [
                    _mm256_loadu_si256(row.as_ptr().cast()),
                    _mm256_loadu_si256(row[8..].as_ptr().cast()),
                ]
            }
        }

        #[inline(always)]
        unsafe fn madd(self, x: i32, b: Self) -> Self {
            // SAFETY: the caller vouches for AVX2.
            unsafe {
                let x = _mm256_set1_epi32(x);
                [
                    _mm256_add_epi32(self[0], _mm256_madd_epi16(x, b[0])),
                    _mm256_add_epi32(self[1], _mm256_madd_epi16(x, b[1])),
                ]
            }
        }

        #[inline(always)]
        unsafe fn add_shifted(self, shift: u32, sum: &mut [i64; PANEL]) {
            // SAFETY: the caller vouches for AVX2; `sum` is 128 bytes, each
            // load and store touches one 32-byte quarter of it, and
            // `loadu`/`storeu` need no alignment.
            unsafe {
                let count = _mm_cvtsi32_si128(shift as i32);
                let wide = [
                    _mm256_cvtepi32_epi64(_mm256_castsi256_si128(self[0])),
                    _mm256_cvtepi32_epi64(_mm256_extracti128_si256::<1>(self[0])),
                    _mm256_cvtepi32_epi64(_mm256_castsi256_si128(self[1])),
                    _mm256_cvtepi32_epi64(_mm256_extracti128_si256::<1>(self[1])),
                ];
                for (quarter, wide) in sum.chunks_exact_mut(4).zip(wide) {
                    let at = quarter.as_mut_ptr().cast();
                    let s = _mm256_add_epi64(_mm256_loadu_si256(at), _mm256_sll_epi64(wide, count));
                    _mm256_storeu_si256(at, s);
                }
            }
        }
    }

    /// AVX-512: a panel row in one `zmm` of sixteen lanes; `madd` is one
    /// `vpdpwssd` (AVX-512 VNNI), the same sums as `vpmaddwd` then
    /// `vpaddd` in one instruction.
    impl Lanes for __m512i {
        #[inline(always)]
        unsafe fn zero() -> Self {
            // SAFETY: the caller vouches for AVX-512F.
            unsafe { _mm512_setzero_si512() }
        }

        #[inline(always)]
        unsafe fn load(row: &[i32; PANEL]) -> Self {
            // SAFETY: the caller vouches for AVX-512F; `row` is the 64
            // bytes the load reads, and `loadu` needs no alignment.
            unsafe { _mm512_loadu_si512(row.as_ptr().cast()) }
        }

        #[inline(always)]
        unsafe fn madd(self, x: i32, b: Self) -> Self {
            // SAFETY: the caller vouches for AVX-512F and AVX-512 VNNI.
            unsafe { _mm512_dpwssd_epi32(self, _mm512_set1_epi32(x), b) }
        }

        #[inline(always)]
        unsafe fn add_shifted(self, shift: u32, sum: &mut [i64; PANEL]) {
            // SAFETY: the caller vouches for AVX-512F; `sum` is 128 bytes,
            // each load and store touches one 64-byte half of it, and
            // `loadu`/`storeu` need no alignment.
            unsafe {
                let count = _mm_cvtsi32_si128(shift as i32);
                let wide = [
                    _mm512_cvtepi32_epi64(_mm512_castsi512_si256(self)),
                    _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64::<1>(self)),
                ];
                for (half, wide) in sum.chunks_exact_mut(8).zip(wide) {
                    let at = half.as_mut_ptr().cast();
                    let s = _mm512_add_epi64(_mm512_loadu_si512(at), _mm512_sll_epi64(wide, count));
                    _mm512_storeu_si512(at, s);
                }
            }
        }
    }

    /// The limb loop for AVX2: see [`limbs_in`].
    #[target_feature(enable = "avx2")]
    pub(super) fn limbs_avx2<C: Cell>(
        a: Operand<'_, C>,
        b: Operand<'_, C>,
        limbs: usize,
        out: &mut impl Sink,
    ) {
        // SAFETY: this function runs only where the CPU has AVX2, all that
        // the `[__m256i; 2]` lanes use.
        unsafe { limbs_in::<C, [__m256i; 2], AVX2_ROWS>(a, b, limbs, out) }
    }

    /// The limb loop for AVX-512: see [`limbs_in`].
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    pub(super) fn limbs_avx512<C: Cell>(
        a: Operand<'_, C>,
        b: Operand<'_, C>,
        limbs: usize,
        out: &mut impl Sink,
    ) {
        // SAFETY: this function runs only where the CPU has AVX-512F,
        // AVX-512BW and AVX-512 VNNI, all that the `__m512i` lanes use.
        unsafe { limbs_in::<C, __m512i, AVX512_ROWS>(a, b, limbs, out) }
    }

    /// Two `i16` lanes of one `i32`, `lo` first, as the step reads them.
    #[inline(always)]
    fn pair(lo: u16, hi: u16) -> i32 {
        (u32::from(lo) | u32::from(hi) << 16) as i32
    }

    /// The limb loop: append `a × b`, exact and wrapping, to `out`, for a B
    /// inside the bound of [`super::sums_fit_i32`] and `limbs` limbs that
    /// cover every entry of A, in tiles of `R` rows.
    ///
    /// B is packed once ([`pack`]). A is never copied: a tile of `R` rows
    /// at a time has its balanced digits written into a fixed scratch
    /// ([`split`]), and [`tile`] broadcasts its digit pairs against each
    /// panel in turn (a panel is 11 KB at k = 350, so it stays in L1).
    /// Each panel's finished cells go into a strip of the tile's rows, and
    /// the strip's rows into `out`.
    ///
    /// # Safety
    /// The CPU has the features of `L`. Always inlined into the
    /// `#[target_feature]` function of that width, so the whole body,
    /// set-up included, compiles for it.
    #[inline(always)]
    unsafe fn limbs_in<C: Cell, L: Lanes, const R: usize>(
        a: Operand<'_, C>,
        b: Operand<'_, C>,
        limbs: usize,
        out: &mut impl Sink,
    ) {
        let (k, m) = (a.cols, b.cols);
        if k == 0 || m == 0 {
            return super::axpy_rows(a, b, out);
        }
        let steps = k.div_ceil(2);
        let panels = pack(b, steps);
        let blocks = steps.div_ceil(BLOCK);
        let mut digits = vec![[[[0; 2]; BLOCK]; R]; limbs * blocks];
        let mut strip = vec![0; R * m];
        for a_tile in a.cells.chunks(R * k) {
            let rows = a_tile.len() / k;
            for (r, a_row) in a_tile.chunks_exact(k).enumerate() {
                split(a_row, r, &mut digits, blocks);
            }
            let strip = &mut strip[..rows * m];
            for (c, panel) in panels.chunks_exact(steps).enumerate() {
                let j0 = c * PANEL;
                let cols = PANEL.min(m - j0);
                let mut put = |r: usize, sum: &[i64; PANEL]| {
                    strip[r * m + j0..][..cols].copy_from_slice(&sum[..cols]);
                };
                if rows == R {
                    // SAFETY: the caller vouches for `L`'s features.
                    let sums = unsafe { tile::<L, R>(limbs, |i| &digits[i], panel) };
                    sums.iter().enumerate().for_each(|(r, sum)| put(r, sum));
                } else {
                    // The last, partial tile: a row at a time.
                    (0..rows).for_each(|r| {
                        let row = |i: usize| std::array::from_ref(&digits[i][r]);
                        // SAFETY: the caller vouches for `L`'s features.
                        let [sum] = unsafe { tile::<L, 1>(limbs, row, panel) };
                        put(r, &sum);
                    });
                }
            }
            strip.chunks_exact(m).for_each(|row| out.put_row(row));
        }
    }

    /// B packed into panels of 16 columns, panel `c`'s pair-row `p` at
    /// `c·steps + p`: `(b[2p,j], b[2p+1,j])` for its columns `j`, as two
    /// `i16` halves of an `i32` (truncating to `u16` keeps every entry: B
    /// fits `i16`). A zero row pads an odd `k`, and zero columns a partial
    /// last panel.
    #[inline(always)]
    fn pack<C: Cell>(b: Operand<'_, C>, steps: usize) -> Vec<[i32; PANEL]> {
        let m = b.cols;
        let mut panels = vec![[0; PANEL]; m.div_ceil(PANEL) * steps];
        for (p, rows) in b.cells.chunks(2 * m).enumerate() {
            let (row0, row1) = rows.split_at(m);
            let (whole0, _) = row0.as_chunks::<PANEL>();
            let (whole1, _) = row1.as_chunks::<PANEL>();
            for (c, dst) in panels.iter_mut().skip(p).step_by(steps).enumerate() {
                let cell = |row: &[C], j: usize| row.get(c * PANEL + j).map_or(0, |x| x.value());
                *dst = match (whole0.get(c), whole1.get(c)) {
                    (Some(x0), Some(x1)) => {
                        std::array::from_fn(|j| pair(x0[j].value() as u16, x1[j].value() as u16))
                    }
                    _ => std::array::from_fn(|j| pair(cell(row0, j) as u16, cell(row1, j) as u16)),
                };
            }
        }
        panels
    }

    /// Row `r` of a tile of A split into its balanced limbs: limb `t`'s
    /// block `q` (cells `32q..32q + 32`) goes to `digits[t·blocks + q][r]`,
    /// a plain loop over cells that the optimiser turns into vector lanes.
    /// A partial last block leaves its other digits as they were: the pad
    /// digit of an odd `k` meets B's zero pad row, and the tile reads no
    /// pair past `k`.
    #[inline(always)]
    fn split<C: Cell, const R: usize>(
        a_row: &[C],
        r: usize,
        digits: &mut [[Pairs; R]],
        blocks: usize,
    ) {
        for (t, limb) in digits.chunks_exact_mut(blocks).enumerate() {
            for (block, cells) in limb.iter_mut().zip(a_row.chunks(2 * BLOCK)) {
                for (d, x) in block[r].as_flattened_mut().iter_mut().zip(cells) {
                    *d = ((x.value() as u64).wrapping_add(BIAS) >> (16 * t)) as u16 ^ 0x8000;
                }
            }
        }
    }

    /// One `R × 16` tile, every limb: each limb product `P_t = a_t · panel`
    /// is summed in `R` accumulators of 16 `i32` lanes ([`Lanes::madd`]),
    /// then `(P_t as i64) << 16t` added, wrapping, into the `R × 16` sums
    /// returned ([`Lanes::add_shifted`]). `block(t·blocks + q)` is block
    /// `q` of limb `t`: [`BLOCK`] digit pairs of each of the tile's rows.
    ///
    /// # Safety
    /// The CPU has the features of `L`. Always inlined, so the intrinsics
    /// compile for them.
    #[inline(always)]
    unsafe fn tile<'d, L: Lanes, const R: usize>(
        limbs: usize,
        block: impl Fn(usize) -> &'d [Pairs; R],
        panel: &[[i32; PANEL]],
    ) -> [[i64; PANEL]; R] {
        let mut sums = [[0; PANEL]; R];
        let blocks = panel.len().div_ceil(BLOCK);
        for t in 0..limbs {
            // SAFETY (this block): the caller vouches for `L`'s features.
            unsafe {
                let mut acc = [L::zero(); R];
                for (q, b_rows) in panel.chunks(BLOCK).enumerate() {
                    let xs = block(t * blocks + q);
                    for (p, b_row) in (0..BLOCK).zip(b_rows) {
                        let b = L::load(b_row);
                        for (acc, x) in acc.iter_mut().zip(xs) {
                            let [lo, hi] = x[p];
                            *acc = acc.madd(pair(lo, hi), b);
                        }
                    }
                }
                for (acc, sum) in acc.iter().zip(&mut sums) {
                    acc.add_shifted(16 * t as u32, sum);
                }
            }
        }
        sums
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{encode, operand};
    use proptest::prelude::*;
    use swf_simcore::DetRng;

    fn random_matrix(r: usize, c: usize, seed: u64) -> Matrix {
        let mut rng = DetRng::new(seed, "mm");
        Matrix::random(r, c, &mut rng, -100, 100)
    }

    /// `a × b` by every limb body this CPU runs, each called directly:
    /// AVX2, then AVX-512 where the CPU has it, so an AVX-512 CPU still
    /// tests the AVX2 body.
    #[cfg(target_arch = "x86_64")]
    fn limb_products<C: Cell, S: Sink + Default>(
        a: Operand<'_, C>,
        b: Operand<'_, C>,
        limbs: usize,
    ) -> Vec<(Body, S)> {
        let mut products = vec![];
        if is_x86_feature_detected!("avx2") {
            let mut out = S::default();
            // SAFETY: `limbs_avx2` needs nothing but AVX2, and the check
            // above found it on this CPU.
            unsafe { limb::limbs_avx2(a, b, limbs, &mut out) };
            products.push((Body::Avx2, out));
        }
        if Body::detect() == Body::Avx512 {
            let mut out = S::default();
            // SAFETY: `Body::detect` names `Avx512` only where
            // `is_x86_feature_detected!` found AVX-512F, AVX-512BW and
            // AVX-512 VNNI, all that `limbs_avx512` needs.
            unsafe { limb::limbs_avx512(a, b, limbs, &mut out) };
            products.push((Body::Avx512, out));
        }
        products
    }

    /// `Blocked` equals `Naive`, and so does every limb body the CPU has,
    /// called directly at the fewest limbs that cover A and at four, on
    /// both operand kinds: a `Matrix`'s cells into a `Matrix`, and
    /// encodings read in place into an encoding. B must be inside the limb
    /// bound; any shape goes, below one panel too.
    #[cfg(target_arch = "x86_64")]
    fn assert_limbs_exact(a: &Matrix, b: &Matrix) {
        assert!(sums_fit_i32(a.cols(), b.operand()));
        let want = matmul(a, b, Kernel::Naive);
        assert_eq!(matmul(a, b, Kernel::Blocked), want);
        let (ea, eb, ew) = (encode(a), encode(b), encode(&want));
        let (ea, eb) = (operand(&ea).unwrap(), operand(&eb).unwrap());
        for limbs in [limbs_covering(a.operand()), 4] {
            for (body, out) in limb_products::<_, Vec<i64>>(a.operand(), b.operand(), limbs) {
                assert_eq!(out, want.as_slice(), "{body:?}, {limbs} limbs");
            }
            for (body, in_place) in limb_products::<_, Vec<u8>>(ea, eb, limbs) {
                assert_eq!(in_place, ew[12..], "{body:?} in place, {limbs} limbs");
            }
        }
    }

    /// `Blocked` runs the widest body this CPU has, the last one the limb
    /// tests call directly; run with `--nocapture` to see which.
    #[test]
    fn blocked_takes_the_widest_body() {
        let body = Body::detect();
        println!("Kernel::Blocked runs the {body:?} body on this CPU");
        #[cfg(target_arch = "x86_64")]
        {
            let (a, b) = (random_matrix(3, 4, 0), random_matrix(4, 16, 1));
            let bodies = limb_products::<_, Vec<i64>>(a.operand(), b.operand(), 1);
            let widest = bodies.last().map_or(Body::Portable, |&(body, _)| body);
            assert_eq!(body, widest);
        }
    }

    /// The widest B entries the limb bound allows at inner dimension `k`.
    #[cfg(target_arch = "x86_64")]
    fn widest_narrow(k: usize) -> i64 {
        (((1 << 16) - 1) / k.max(1) as i64).min((1 << 15) - 1)
    }

    /// The limb bound at its edge: `k·max|B| = 2^16 − 1` takes the limb
    /// path and is exact with every limb of A at `−2^15` (the largest
    /// partial sums there are); `2^16` falls back. At `k = 1` the bound
    /// is `max|B| < 2^15`, so B fits `i16`.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn limb_bound_edges() {
        // Every balanced limb `−2^15`: `x + BIAS ≡ 0`.
        let all_low = 0x7FFF_7FFF_7FFF_8000;
        for (k, edge) in [(1, (1 << 15) - 1), (3, 21_845), (5, 13_107), (7, 9_362)] {
            for sign in [1, -1] {
                let a = Matrix::from_vec(3, k, vec![all_low; 3 * k]);
                let b = Matrix::from_vec(k, 16, vec![sign * edge; k * 16]);
                assert_eq!(plan(a.operand(), b.operand()), Some(4));
                assert_limbs_exact(&a, &b);
                let a = Matrix::from_vec(3, k, [i64::MIN, i64::MAX, -1].repeat(k));
                assert_limbs_exact(&a, &b);
            }
        }
        for (k, over) in [(1, 1 << 15), (2, 1 << 15), (4, 1 << 14), (5, 13_108)] {
            for sign in [1, -1] {
                let a = random_matrix(3, k, 1);
                let b = Matrix::from_vec(k, 16, vec![sign * over; k * 16]);
                assert_eq!(
                    plan(a.operand(), b.operand()),
                    None,
                    "k = {k}, |b| = {over}"
                );
                assert_eq!(
                    matmul(&a, &b, Kernel::Blocked),
                    matmul(&a, &b, Kernel::Naive)
                );
            }
        }
    }

    /// The limb count at each edge of each range `[−2^15·R_L,
    /// (2^15−1)·R_L]`, one past it, and the extremes; every such A stays
    /// exact.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn limb_count_edges() {
        let one = |x: i64| Matrix::from_vec(1, 1, vec![x]);
        let mut entries = vec![];
        for limbs in 1..=3usize {
            let r = ((1i64 << (16 * limbs)) - 1) / 0xFFFF;
            let (lo, hi) = (-(1 << 15) * r, ((1 << 15) - 1) * r);
            for (x, want) in [
                (lo, limbs),
                (hi, limbs),
                (-hi, limbs),
                (lo - 1, limbs + 1),
                (hi + 1, limbs + 1),
            ] {
                assert_eq!(limbs_covering(one(x).operand()), want, "{x:#x}");
                entries.push(x);
            }
        }
        for (x, want) in [(0, 1), (0x7FFF_8000, 3), (i64::MIN, 4), (i64::MAX, 4)] {
            assert_eq!(limbs_covering(one(x).operand()), want, "{x:#x}");
            entries.push(x);
        }
        let k = entries.len();
        let a = Matrix::from_vec(
            2,
            k,
            [entries.clone(), entries.into_iter().rev().collect()].concat(),
        );
        let mut rng = DetRng::new(1, "edges");
        let b = Matrix::random(k, 19, &mut rng, -widest_narrow(k), widest_narrow(k));
        assert_limbs_exact(&a, &b);
    }

    /// The fast path is taken where the paper needs it: a falling-back
    /// kernel gives the same bits, so only the plan shows it. Two seeds at
    /// 350 take one limb; a ten-task chain (each product times a fresh
    /// seed) takes the counts below; a wide B, or one narrower than a
    /// panel, falls back.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn plan_takes_the_limb_path_at_paper_scale() {
        let seed = |s: u64| random_matrix(350, 350, s);
        let mut a = seed(0);
        let mut counts = vec![];
        for task in 1..=10 {
            let b = seed(task);
            counts.push(plan(a.operand(), b.operand()));
            a = matmul(&a, &b, Kernel::Blocked);
        }
        let want = [1, 2, 2, 3, 4, 4, 4, 4, 4, 4];
        assert_eq!(counts, want.map(Some));
        let mut wide = seed(1);
        wide.set(349, 0, 1 << 15);
        assert_eq!(plan(seed(0).operand(), wide.operand()), None);
        let (a8, b8) = (random_matrix(8, 8, 0), random_matrix(8, 8, 1));
        assert_eq!(plan(a8.operand(), b8.operand()), None);
    }

    #[test]
    fn kernels_agree() {
        let a = random_matrix(17, 23, 1);
        let b = random_matrix(23, 11, 2);
        let naive = matmul(&a, &b, Kernel::Naive);
        assert_eq!(naive, matmul(&a, &b, Kernel::Blocked));
    }

    #[test]
    fn identity_is_neutral() {
        let a = random_matrix(9, 9, 3);
        let i = Matrix::identity(9);
        assert_eq!(matmul(&a, &i, Kernel::Blocked), a);
        assert_eq!(matmul(&i, &a, Kernel::Blocked), a);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = matmul(&a, &b, Kernel::Naive);
    }

    #[test]
    fn known_product() {
        let a = Matrix::from_vec(2, 2, vec![1, 2, 3, 4]);
        let b = Matrix::from_vec(2, 2, vec![5, 6, 7, 8]);
        let c = matmul(&a, &b, Kernel::Naive);
        assert_eq!(c.as_slice(), &[19, 22, 43, 50]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// (AB)ᵀ = BᵀAᵀ for all kernels.
        #[test]
        fn transpose_antihomomorphism(seed in 0u64..1000, n in 1usize..12, k in 1usize..12, m in 1usize..12) {
            let a = {
                let mut rng = DetRng::new(seed, "a");
                Matrix::random(n, k, &mut rng, -50, 50)
            };
            let b = {
                let mut rng = DetRng::new(seed, "b");
                Matrix::random(k, m, &mut rng, -50, 50)
            };
            let ab_t = matmul(&a, &b, Kernel::Blocked).transpose();
            let bt_at = matmul(&b.transpose(), &a.transpose(), Kernel::Blocked);
            prop_assert_eq!(ab_t, bt_at);
        }

        /// A(B+C) = AB + AC (distributivity) via checksums of full matrices.
        #[test]
        fn distributive_over_addition(seed in 0u64..1000, n in 1usize..10) {
            let mk = |s: &str| {
                let mut rng = DetRng::new(seed, s);
                Matrix::random(n, n, &mut rng, -30, 30)
            };
            let a = mk("a");
            let b = mk("b");
            let c = mk("c");
            let mut b_plus_c = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    b_plus_c.set(i, j, b.get(i, j) + c.get(i, j));
                }
            }
            let left = matmul(&a, &b_plus_c, Kernel::Naive);
            let ab = matmul(&a, &b, Kernel::Naive);
            let ac = matmul(&a, &c, Kernel::Naive);
            let mut right = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    right.set(i, j, ab.get(i, j) + ac.get(i, j));
                }
            }
            prop_assert_eq!(left, right);
        }

        /// Every path agrees with `Naive` bit for bit: entries over the
        /// full range, so products and sums wrap as they do down a
        /// ten-task chain; every width up to 37, so the vector loop's
        /// tail runs; and empty shapes. `Blocked` runs the AVX2 body
        /// where the CPU has it, so the portable body is also called
        /// directly, on a `Matrix` and on encodings read in place, and
        /// stays tested on an AVX2 machine.
        #[test]
        fn kernels_agree_prop(seed in 0u64..1000, n in 1usize..8, k in 1usize..40) {
            for (n, k) in [(n, k), (0, k), (n, 0)] {
                for m in 0..=37 {
                    let a = {
                        let mut rng = DetRng::new(seed, "ka");
                        Matrix::random(n, k, &mut rng, i64::MIN / 2, i64::MAX / 2)
                    };
                    let b = {
                        let mut rng = DetRng::new(seed, "kb");
                        Matrix::random(k, m, &mut rng, i64::MIN / 2, i64::MAX / 2)
                    };
                    let x = matmul(&a, &b, Kernel::Naive);
                    prop_assert_eq!(&x, &matmul(&a, &b, Kernel::Blocked));
                    let mut portable = vec![];
                    axpy_rows(a.operand(), b.operand(), &mut portable);
                    prop_assert_eq!(x.as_slice(), &portable[..]);
                    let (ea, eb) = (encode(&a), encode(&b));
                    let mut in_place = vec![];
                    axpy_rows(operand(&ea).unwrap(), operand(&eb).unwrap(), &mut in_place);
                    prop_assert_eq!(&encode(&x)[12..], &in_place[..]);
                }
            }
        }

        /// Every limb body agrees with `Naive` bit for bit: A over the
        /// full range (four limbs) or narrow (one), B as wide as the limb
        /// bound allows; odd and even `k`, row counts off both tile heights
        /// (six and twelve, and past two tiles), and every width up to 37
        /// (a partial panel, and below one).
        #[test]
        #[cfg(target_arch = "x86_64")]
        fn limbs_agree_prop(seed in 0u64..1000, n in 0usize..26, k in 0usize..40) {
            let edge = widest_narrow(k);
            for (lo, hi) in [(i64::MIN, i64::MAX), (-edge, edge)] {
                for m in 0..=37 {
                    let a = Matrix::random(n, k, &mut DetRng::new(seed, "la"), lo, hi);
                    let b = Matrix::random(k, m, &mut DetRng::new(seed, "lb"), -edge, edge);
                    assert_limbs_exact(&a, &b);
                }
            }
        }

        /// Chain-shaped operands: each product times a fresh seed, so A
        /// grows through every limb count and then wraps.
        #[test]
        #[cfg(target_arch = "x86_64")]
        fn limb_chains_agree(seed in 0u64..1000, dim in 16usize..40) {
            let mut a = random_matrix(dim, dim, seed);
            for task in 1..8 {
                let b = random_matrix(dim, dim, seed ^ (task << 32));
                assert_limbs_exact(&a, &b);
                a = matmul(&a, &b, Kernel::Naive);
            }
        }
    }
}
