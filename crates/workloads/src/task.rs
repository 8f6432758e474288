//! The paper's task in pure form: decode two matrices, multiply, encode the
//! product — plus the compute-time model that charges virtual time for it.

use bytes::Bytes;

use swf_simcore::{secs, SimDuration};

use crate::codec::{decode, encode};
use crate::matmul::{matmul, Kernel};

/// Multiply two encoded matrices; returns the encoded product.
pub fn multiply_encoded(a: Bytes, b: Bytes, kernel: Kernel) -> Result<Bytes, String> {
    let ma = decode(a).map_err(|e| format!("input A: {e}"))?;
    let mb = decode(b).map_err(|e| format!("input B: {e}"))?;
    if ma.cols() != mb.rows() {
        return Err(format!(
            "dimension mismatch: {}x{} × {}x{}",
            ma.rows(),
            ma.cols(),
            mb.rows(),
            mb.cols()
        ));
    }
    Ok(encode(&matmul(&ma, &mb, kernel)))
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
    use crate::matrix::Matrix;
    use swf_simcore::DetRng;

    #[test]
    fn multiply_encoded_roundtrip() {
        let mut rng = DetRng::new(1, "t");
        let a = Matrix::random(8, 8, &mut rng, -10, 10);
        let b = Matrix::random(8, 8, &mut rng, -10, 10);
        let out = multiply_encoded(encode(&a), encode(&b), Kernel::Blocked).unwrap();
        assert_eq!(decode(out).unwrap(), matmul(&a, &b, Kernel::Blocked));
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
