//! Matrix arithmetic: products, transposes, element-wise combination.

use crate::kernels::{matmul_panel, matmul_tb_panel};
use crate::Matrix;

impl Matrix {
    /// Matrix product `self · other` on the SIMD kernel; accumulation
    /// is in `f32` (the CTA hardware itself is fixed-point; the
    /// fixed-point path lives in `cta-fixed`). Bitwise identical to the
    /// naive i-k-j loop with zero-skip.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    ///
    /// ```
    /// use cta_tensor::Matrix;
    /// let a = Matrix::from_rows(&[&[1.0, 2.0]]);
    /// let b = Matrix::from_rows(&[&[3.0], &[4.0]]);
    /// assert_eq!(a.matmul(&b)[(0, 0)], 11.0);
    /// ```
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols(),
            other.rows(),
            "matmul dimension mismatch: {}x{} . {}x{}",
            self.rows(),
            self.cols(),
            other.rows(),
            other.cols()
        );
        let mut out = Matrix::zeros(self.rows(), other.cols());
        matmul_panel(self, other, 0, out.as_mut_slice());
        out
    }

    /// Matrix product with the second operand transposed: `self · otherᵀ`,
    /// on the SIMD kernel. Bitwise identical to the naive per-`(i, j)`
    /// sequential-`k` dot product.
    ///
    /// This is the natural layout for attention scores `Q · Kᵀ`: both
    /// operands are stored row-major with rows = vectors, so the product is
    /// a dot product of row slices.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_transpose_b(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols(),
            other.cols(),
            "matmul_transpose_b dimension mismatch: {}x{} . ({}x{})^T",
            self.rows(),
            self.cols(),
            other.rows(),
            other.cols()
        );
        let mut out = Matrix::zeros(self.rows(), other.rows());
        matmul_tb_panel(self, other, 0, out.as_mut_slice());
        out
    }

    /// The transpose of `self`.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols(), self.rows(), |r, c| self[(c, r)])
    }

    /// Element-wise sum `self + other`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a + b, "add")
    }

    /// Element-wise difference `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a - b, "sub")
    }

    /// Every element multiplied by `s`.
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|x| x * s)
    }

    /// Adds `other` into `self` in place.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += b;
        }
    }

    /// Dot product of two equal-length slices.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "dot length mismatch: {} vs {}", a.len(), b.len());
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    fn zip_with(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32, op: &str) -> Matrix {
        assert_eq!(
            self.shape(),
            other.shape(),
            "{op} shape mismatch: {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        let data = self.as_slice().iter().zip(other.as_slice()).map(|(&a, &b)| f(a, b)).collect();
        Matrix::from_vec(self.rows(), self.cols(), data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Matrix, Matrix) {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        (a, b)
    }

    #[test]
    fn matmul_known_result() {
        let (a, b) = sample();
        let c = a.matmul(&b);
        let expected = Matrix::from_rows(&[&[58.0, 64.0], &[139.0, 154.0]]);
        assert_eq!(c, expected);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let (a, _) = sample();
        assert_eq!(a.matmul(&Matrix::identity(3)), a);
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_rejects_bad_shapes() {
        let (a, _) = sample();
        let _ = a.matmul(&Matrix::zeros(2, 2));
    }

    #[test]
    fn matmul_transpose_b_matches_explicit_transpose() {
        let (a, b) = sample();
        let bt = b.transpose();
        assert!(a.matmul(&b).approx_eq(&a.matmul_transpose_b(&bt), 1e-6));
    }

    #[test]
    fn transpose_involution() {
        let (a, _) = sample();
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn add_sub_roundtrip() {
        let (a, _) = sample();
        let b = a.scale(2.0);
        assert!(b.sub(&a).approx_eq(&a, 1e-6));
        assert!(a.add(&a).approx_eq(&b, 1e-6));
    }

    #[test]
    fn scale_by_zero_gives_zeros() {
        let (a, _) = sample();
        assert_eq!(a.scale(0.0), Matrix::zeros(2, 3));
    }

    #[test]
    fn add_assign_accumulates() {
        let (a, _) = sample();
        let mut acc = Matrix::zeros(2, 3);
        acc.add_assign(&a);
        acc.add_assign(&a);
        assert!(acc.approx_eq(&a.scale(2.0), 1e-6));
    }

    #[test]
    fn dot_of_orthogonal_vectors_is_zero() {
        assert_eq!(Matrix::dot(&[1.0, 0.0], &[0.0, 5.0]), 0.0);
    }

    #[test]
    fn matmul_associativity_within_tolerance() {
        let a = Matrix::from_fn(3, 4, |r, c| (r + c) as f32 * 0.5);
        let b = Matrix::from_fn(4, 2, |r, c| (r as f32 - c as f32) * 0.25);
        let c = Matrix::from_fn(2, 3, |r, c| (r * 2 + c) as f32 * 0.1);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        assert!(left.approx_eq(&right, 1e-4));
    }
}
