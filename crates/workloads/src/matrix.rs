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

    /// Build from a row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<i64>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Matrix { rows, cols, data }
    }

    /// Random matrix with entries in `[lo, hi]` (the paper: [-100, 100]),
    /// `hi == i64::MAX` included.
    pub fn random(rows: usize, cols: usize, rng: &mut DetRng, lo: i64, hi: i64) -> Self {
        let mut draws = rng.uniform_i64_inclusive_batch(lo, hi);
        let data = (0..rows * cols).map(|_| draws.draw()).collect();
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
}

/// Test-only constructions: the algebra the kernel tests check.
#[cfg(test)]
impl Matrix {
    /// Identity matrix.
    pub(crate) fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1;
        }
        m
    }

    /// Transpose.
    pub(crate) fn transpose(&self) -> Matrix {
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

    /// Every recorded result is a function of these draws: ranges below
    /// `i64::MAX` keep the values they have always had.
    #[test]
    fn random_values_are_pinned() {
        let draw = |lo, hi| Matrix::random(2, 3, &mut DetRng::new(42, "pin"), lo, hi);
        assert_eq!(draw(-100, 100).as_slice(), &[-13, 15, -68, -42, 29, 78]);
        assert_eq!(
            draw(i64::MIN / 2, i64::MAX / 2).as_slice(),
            &[
                3683397026015857977,
                926127691292136586,
                4171585350666046085,
                -4420702052359514340,
                539169309285310826,
                -2419287478275078798
            ]
        );
        assert_eq!(
            draw(i64::MIN, i64::MAX - 1).as_slice(),
            &[
                8295083044443245881,
                5537813709719524490,
                8783271369093433989,
                -9032388070786902244,
                -4072516709142077078,
                -7030973496702466702
            ]
        );
    }

    /// `hi == i64::MAX` is a range like any other, not `hi + 1` wrapped
    /// to an empty one (which gave `lo` in every cell).
    #[test]
    fn random_reaches_i64_max() {
        let mut rng = DetRng::new(42, "max");
        let full = Matrix::random(8, 8, &mut rng, i64::MIN, i64::MAX);
        assert!(full.as_slice().iter().any(|&x| x < 0) && full.as_slice().iter().any(|&x| x > 0));
        let top = Matrix::random(8, 8, &mut rng, i64::MAX - 1, i64::MAX);
        assert!(top.as_slice().contains(&i64::MAX) && top.as_slice().contains(&(i64::MAX - 1)));
        let upper = Matrix::random(8, 8, &mut rng, 0, i64::MAX);
        assert!(upper.as_slice().iter().all(|&x| x >= 0));
        assert!(upper.as_slice().iter().any(|&x| x > i64::MAX / 2));
    }

    #[test]
    fn transpose_roundtrips() {
        let mut rng = DetRng::new(7, "t");
        let m = Matrix::random(4, 7, &mut rng, -5, 5);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().get(2, 3), m.get(3, 2));
    }
}
