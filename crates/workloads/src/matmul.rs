//! Matrix multiplication kernels.
//!
//! Two implementations of the paper's task: a naive triple loop (the
//! honest Python-equivalent) and a cache-blocked transposed kernel. Both
//! produce identical results; property tests pin the algebra.

use crate::matrix::Matrix;

/// Which kernel to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Kernel {
    /// Triple nested loop, row-major (closest to the paper's NumPy-free
    /// baseline semantics).
    Naive,
    /// Transpose-B then dot rows (cache friendly).
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

fn dot(x: &[i64], y: &[i64]) -> i64 {
    x.iter()
        .zip(y)
        .fold(0i64, |acc, (&a, &b)| acc.wrapping_add(a.wrapping_mul(b)))
}

fn blocked(a: &Matrix, b: &Matrix) -> Matrix {
    let bt = b.transpose();
    let (n, m) = (a.rows(), b.cols());
    let mut out = Matrix::zeros(n, m);
    for i in 0..n {
        for j in 0..m {
            out.set(i, j, dot(a.row(i), bt.row(j)));
        }
    }
    out
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

        /// Both kernels agree on random shapes.
        #[test]
        fn kernels_agree_prop(seed in 0u64..1000, n in 1usize..16, k in 1usize..16, m in 1usize..16) {
            let a = {
                let mut rng = DetRng::new(seed, "ka");
                Matrix::random(n, k, &mut rng, -100, 100)
            };
            let b = {
                let mut rng = DetRng::new(seed, "kb");
                Matrix::random(k, m, &mut rng, -100, 100)
            };
            let x = matmul(&a, &b, Kernel::Naive);
            prop_assert_eq!(&x, &matmul(&a, &b, Kernel::Blocked));
        }
    }
}
