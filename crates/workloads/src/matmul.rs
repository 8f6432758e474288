//! Matrix multiplication kernels.
//!
//! Two implementations of the paper's task: a naive triple loop (the
//! honest Python-equivalent) and a row-axpy kernel that adds `a[i,l]`
//! times row `l` of B into row `i` of the product, vectorised by the
//! optimiser (and compiled a second time for AVX2, picked when the CPU
//! has it). All wrapping, so every path produces identical bits;
//! property tests pin that and the algebra.

use crate::matrix::Matrix;

/// Which kernel to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Kernel {
    /// Triple nested loop, row-major (closest to the paper's NumPy-free
    /// baseline semantics).
    Naive,
    /// Row-axpy: row `i` of the product accumulates `a[i,l]` times row
    /// `l` of B, so every access runs along a row (cache friendly and
    /// vectorised; AVX2 when the CPU has it, same bits either way).
    #[default]
    Blocked,
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
        Kernel::Blocked => blocked(a, b),
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

fn blocked(a: &Matrix, b: &Matrix) -> Matrix {
    let (n, m) = (a.rows(), b.cols());
    let mut out = vec![0; n * m];
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: `axpy_rows_avx2` needs nothing but AVX2, and the check
        // above found it on this CPU.
        unsafe { axpy_rows_avx2(a, b, &mut out) };
        return Matrix::from_vec(n, m, out);
    }
    axpy_rows(a, b, &mut out);
    Matrix::from_vec(n, m, out)
}

/// `out[i,·] += a[i,l] · b[l,·]` for every `i` and `l`, all wrapping, with
/// `out` the row-major `a.rows() × b.cols()` product. The inner loop runs
/// along a row of `b` and a row of `out` at once, which the optimiser
/// turns into vector lanes. Wrapping `i64` arithmetic is exact in any
/// order, so this agrees with [`naive`] bit for bit. Always inlined, so
/// each caller compiles the body for its own target features.
#[inline(always)]
fn axpy_rows(a: &Matrix, b: &Matrix, out: &mut [i64]) {
    let (k, m) = (a.cols(), b.cols());
    // `chunks_exact(0)` panics. With `k == 0` the product is all zeros;
    // with `m == 0` it is empty.
    if k == 0 || m == 0 {
        return;
    }
    for (a_row, out_row) in a.as_slice().chunks_exact(k).zip(out.chunks_exact_mut(m)) {
        for (&x, b_row) in a_row.iter().zip(b.as_slice().chunks_exact(m)) {
            for (o, &y) in out_row.iter_mut().zip(b_row) {
                *o = o.wrapping_add(x.wrapping_mul(y));
            }
        }
    }
}

/// [`axpy_rows`] compiled for AVX2: the same body, four lanes wide.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn axpy_rows_avx2(a: &Matrix, b: &Matrix, out: &mut [i64]) {
    axpy_rows(a, b, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use swf_simcore::DetRng;

    fn random_matrix(r: usize, c: usize, seed: u64) -> Matrix {
        let mut rng = DetRng::new(seed, "mm");
        Matrix::random(r, c, &mut rng, -100, 100)
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
        /// directly and stays tested on an AVX2 machine.
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
                    let mut portable = vec![0; n * m];
                    axpy_rows(&a, &b, &mut portable);
                    prop_assert_eq!(x.as_slice(), &portable[..]);
                }
            }
        }
    }
}
