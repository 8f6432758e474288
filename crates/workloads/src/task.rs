//! The paper's task in pure form: multiply two encoded matrices into an
//! encoded product — plus the compute-time model that charges virtual time
//! for it.

use bytes::Bytes;

use swf_simcore::{secs, SimDuration};

use crate::codec::{encode, operand, to_matrix, with_header};
use crate::matmul::{blocked, matmul, Kernel};

/// Multiply two encoded matrices; returns the encoded product.
///
/// With [`Kernel::Blocked`] the kernel reads both operands where they lie
/// in `a` and `b` and writes each byte of the product's encoding once;
/// [`Kernel::Naive`] decodes both, multiplies and encodes (the reference).
pub fn multiply_encoded(a: Bytes, b: Bytes, kernel: Kernel) -> Result<Bytes, String> {
    let a = operand(&a).map_err(|e| format!("input A: {e}"))?;
    let b = operand(&b).map_err(|e| format!("input B: {e}"))?;
    if a.cols != b.rows {
        return Err(format!(
            "dimension mismatch: {}x{} × {}x{}",
            a.rows, a.cols, b.rows, b.cols
        ));
    }
    Ok(match kernel {
        Kernel::Naive => encode(&matmul(&to_matrix(a), &to_matrix(b), Kernel::Naive)),
        Kernel::Blocked => {
            let mut out = with_header(a.rows, b.cols);
            blocked(a, b, &mut *out);
            out.freeze()
        }
    })
}

/// Virtual compute time charged for one task.
///
/// The paper's tasks run NumPy under Python on Xeon Gold 6342 cores; our
/// kernels are orders of magnitude faster, so experiments charge the
/// *paper-calibrated* duration while still executing the real kernel for
/// its output (shape correctness is verified, wall time is modelled).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ComputeModel {
    /// Single-core time for one 350×350 task, including its local disk I/O
    /// as measured in Fig. 1 (total per task ≈ 0.458 s).
    pub per_task: SimDuration,
    /// Scale `per_task` cubically with the matrix dimension relative to the
    /// 350³ baseline. Disable for quick test configs that shrink matrices
    /// for wall-clock speed but want paper-scale virtual timings.
    pub scale_with_dim: bool,
}

impl ComputeModel {
    /// The Fig. 1-calibrated model.
    pub fn paper() -> Self {
        ComputeModel {
            per_task: secs(0.458),
            scale_with_dim: true,
        }
    }

    /// Charged time for a `dim × dim` task: matmul is O(n³), so the scaled
    /// model grows cubically from the 350³ baseline.
    pub fn for_dim(&self, dim: usize) -> SimDuration {
        if !self.scale_with_dim {
            return self.per_task;
        }
        let base = 350.0f64;
        let scale = (dim as f64 / base).powi(3);
        self.per_task.mul_f64(scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::decode;
    use crate::matmul::plan;
    use crate::matrix::Matrix;
    use swf_simcore::DetRng;

    fn random_matrix(r: usize, c: usize, seed: u64) -> Matrix {
        Matrix::random(r, c, &mut DetRng::new(seed, "task"), -100, 100)
    }

    /// `multiply_encoded` with each kernel equals the reference
    /// `encode(matmul(…, Naive))`, byte for byte.
    fn assert_in_place_exact(a: &Matrix, b: &Matrix) {
        let want = encode(&matmul(a, b, Kernel::Naive));
        for kernel in [Kernel::Blocked, Kernel::Naive] {
            let got = multiply_encoded(encode(a), encode(b), kernel).unwrap();
            assert_eq!(
                got,
                want,
                "{kernel:?}, {}x{} × {}x{}",
                a.rows(),
                a.cols(),
                b.rows(),
                b.cols()
            );
        }
    }

    /// At the paper's 350, down a chain in which each product is times a
    /// fresh seed, the in-place kernel is exact at every limb count: tasks
    /// 1, 2, 4 and 5 plan one, two, three and four limbs.
    #[test]
    fn in_place_products_are_exact_at_every_limb_count() {
        let mut a = random_matrix(350, 350, 0);
        for (task, limbs) in [(1, 1), (2, 2), (3, 2), (4, 3), (5, 4)] {
            let b = random_matrix(350, 350, task);
            if task != 3 {
                assert_eq!(plan(a.operand(), b.operand()), Some(limbs));
                assert_in_place_exact(&a, &b);
            }
            a = matmul(&a, &b, Kernel::Blocked);
        }
    }

    /// Ragged shapes: row counts off both tile heights (six and twelve), odd `k`,
    /// widths off the 16-column panel and below it (row-axpy), and a wide
    /// B that falls back to row-axpy; A is drawn over the full range, so
    /// every limb runs.
    #[test]
    fn in_place_products_are_exact_on_ragged_shapes() {
        let full =
            |r, c, seed| Matrix::random(r, c, &mut DetRng::new(seed, "full"), i64::MIN, i64::MAX);
        for (n, k, m) in [
            (7, 9, 16),
            (13, 35, 37),
            (1, 1, 17),
            (23, 3, 48),
            (5, 16, 15),
            (11, 7, 8),
        ] {
            assert_in_place_exact(&full(n, k, 1), &random_matrix(k, m, 2));
        }
        let mut wide = random_matrix(33, 19, 3);
        wide.set(32, 18, 1 << 15);
        assert_in_place_exact(&full(9, 33, 4), &wide);
        assert_in_place_exact(&full(9, 33, 4), &full(33, 19, 5));
        for (n, k, m) in [(0, 4, 16), (4, 0, 16), (4, 0, 3), (3, 4, 0)] {
            assert_in_place_exact(&full(n, k, 6), &random_matrix(k, m, 7));
        }
    }

    #[test]
    fn multiply_encoded_roundtrip() {
        let mut rng = DetRng::new(1, "t");
        let a = Matrix::random(8, 8, &mut rng, -10, 10);
        let b = Matrix::random(8, 8, &mut rng, -10, 10);
        let out = multiply_encoded(encode(&a), encode(&b), Kernel::Blocked).unwrap();
        assert_eq!(decode(out).unwrap(), matmul(&a, &b, Kernel::Blocked));
    }

    /// The kernel remembers nothing: a second call on the same operands
    /// computes a product of its own, so a probe that repeats one pair
    /// times real products.
    #[test]
    fn multiply_encoded_is_not_memoised() {
        let mut rng = DetRng::new(1, "guard");
        let a = encode(&Matrix::random(8, 8, &mut rng, -10, 10));
        let b = encode(&Matrix::random(8, 8, &mut rng, -10, 10));
        let first = multiply_encoded(a.clone(), b.clone(), Kernel::Blocked).unwrap();
        let second = multiply_encoded(a, b, Kernel::Blocked).unwrap();
        assert_eq!(first, second);
        assert_ne!(first.as_ptr(), second.as_ptr());
    }

    #[test]
    fn dimension_mismatch_is_an_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let err = multiply_encoded(encode(&a), encode(&b), Kernel::Naive).unwrap_err();
        assert!(err.contains("dimension mismatch"));
    }

    #[test]
    fn garbage_input_is_an_error() {
        let err = multiply_encoded(
            Bytes::from_static(b"junk"),
            Bytes::from_static(b"junk"),
            Kernel::Naive,
        )
        .unwrap_err();
        assert!(err.contains("input A"));
    }

    #[test]
    fn paper_model_value() {
        let m = ComputeModel::paper();
        assert!((m.per_task.as_secs_f64() - 0.458).abs() < 1e-9);
        // Cubic scaling: doubling the dimension is 8× the time.
        let d700 = m.for_dim(700).as_secs_f64();
        assert!((d700 - 0.458 * 8.0).abs() < 1e-6);
    }
}
