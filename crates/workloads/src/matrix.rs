//! Dense integer matrices with the paper's parameters: square matrices of
//! integers in [-100, 100], 350×350 in the evaluation.

use swf_simcore::DetRng;

/// A dense row-major `i64` matrix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<i64>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1;
        }
        m
    }

    /// Build from a row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<i64>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Matrix { rows, cols, data }
    }

    /// Random matrix with entries in `[lo, hi]` (the paper: [-100, 100]).
    pub fn random(rows: usize, cols: usize, rng: &mut DetRng, lo: i64, hi: i64) -> Self {
        let data = (0..rows * cols)
            .map(|_| rng.uniform_i64(lo, hi + 1))
            .collect();
        Matrix { rows, cols, data }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    pub fn get(&self, r: usize, c: usize) -> i64 {
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    pub fn set(&mut self, r: usize, c: usize, v: i64) {
        self.data[r * self.cols + c] = v;
    }

    /// Row-major backing slice.
    pub fn as_slice(&self) -> &[i64] {
        &self.data
    }

    /// One full row.
    pub fn row(&self, r: usize) -> &[i64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let m = Matrix::from_vec(2, 3, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.get(0, 2), 3);
        assert_eq!(m.get(1, 0), 4);
        assert_eq!(m.row(1), &[4, 5, 6]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn bad_shape_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1, 2, 3]);
    }

    #[test]
    fn identity_has_trace_n() {
        let m = Matrix::identity(5);
        assert_eq!(m.as_slice().iter().sum::<i64>(), 5);
        assert_eq!(m.get(3, 3), 1);
        assert_eq!(m.get(3, 4), 0);
    }

    #[test]
    fn random_respects_range_and_is_deterministic() {
        let mut r1 = DetRng::new(42, "m");
        let mut r2 = DetRng::new(42, "m");
        let a = Matrix::random(10, 10, &mut r1, -100, 100);
        let b = Matrix::random(10, 10, &mut r2, -100, 100);
        assert_eq!(a, b);
        assert!(a.as_slice().iter().all(|&v| (-100..=100).contains(&v)));
    }

    #[test]
    fn transpose_roundtrips() {
        let mut rng = DetRng::new(7, "t");
        let m = Matrix::random(4, 7, &mut rng, -5, 5);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().get(2, 3), m.get(3, 2));
    }
}
