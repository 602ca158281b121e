//! Blocked row-panel parallel matrix products.
//!
//! Each output row of a matrix product depends only on one row of the
//! left operand, so the products parallelise over contiguous *row panels*
//! with no shared mutable state: the output buffer is split by
//! [`ThreadPool::par_chunks_mut`], one panel per task, and inside a panel
//! each row is computed with exactly the same floating-point operation
//! order as the serial kernels in `ops.rs`. That makes the parallel paths
//! **bitwise identical** to [`Matrix::matmul`] /
//! [`Matrix::matmul_transpose_b`] at any worker count — the property the
//! `par` integration proptests pin — so callers can thread a
//! [`Parallelism`] through hot paths without perturbing golden files.

use cta_parallel::{Parallelism, ThreadPool};

use crate::kernels::{matmul_panel, matmul_tb_panel};
use crate::{KernelPolicy, Matrix};

/// Rows below which a product is not worth spawning workers for: one
/// panel per worker would be smaller than the pool's scheduling overhead.
const MIN_PAR_ROWS: usize = 8;

/// Panels per worker. More than one lets work stealing smooth out uneven
/// panel costs (e.g. zero-skipping in `matmul` making early rows cheap).
const PANELS_PER_WORKER: usize = 4;

/// The panel height for an `m`-row output on `jobs` workers: enough
/// panels for stealing, never zero.
fn panel_rows(m: usize, jobs: usize) -> usize {
    m.div_ceil(jobs * PANELS_PER_WORKER).max(1)
}

impl Matrix {
    /// [`Matrix::matmul`] on a work-stealing pool: bitwise-identical
    /// result, row panels computed in parallel.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn par_matmul(&self, other: &Matrix, par: Parallelism) -> Matrix {
        assert_eq!(
            self.cols(),
            other.rows(),
            "matmul dimension mismatch: {}x{} . {}x{}",
            self.rows(),
            self.cols(),
            other.rows(),
            other.cols()
        );
        if par.is_serial() || self.rows() < MIN_PAR_ROWS {
            return self.matmul(other);
        }
        let (m, n) = (self.rows(), other.cols());
        let rows_per_panel = panel_rows(m, par.get());
        let mut out = Matrix::zeros(m, n);
        if n == 0 {
            return out;
        }
        ThreadPool::new(par).par_chunks_mut(out.as_mut_slice(), rows_per_panel * n, |pi, panel| {
            // The exact serial kernels, applied per panel: term order
            // within each output element is unchanged.
            matmul_panel(KernelPolicy::Simd, self, other, pi * rows_per_panel, panel);
        });
        out
    }

    /// [`Matrix::matmul_transpose_b`] on a work-stealing pool:
    /// bitwise-identical result, row panels computed in parallel.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()`.
    pub fn par_matmul_transpose_b(&self, other: &Matrix, par: Parallelism) -> Matrix {
        assert_eq!(
            self.cols(),
            other.cols(),
            "matmul_transpose_b dimension mismatch: {}x{} . ({}x{})^T",
            self.rows(),
            self.cols(),
            other.rows(),
            other.cols()
        );
        if par.is_serial() || self.rows() < MIN_PAR_ROWS {
            return self.matmul_transpose_b(other);
        }
        let (m, n) = (self.rows(), other.rows());
        let rows_per_panel = panel_rows(m, par.get());
        let mut out = Matrix::zeros(m, n);
        if n == 0 {
            return out;
        }
        ThreadPool::new(par).par_chunks_mut(out.as_mut_slice(), rows_per_panel * n, |pi, panel| {
            // Same dot-product accumulation order as the serial kernel.
            matmul_tb_panel(KernelPolicy::Simd, self, other, pi * rows_per_panel, panel);
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg_matrix(rows: usize, cols: usize, seed: u32) -> Matrix {
        let mut state = seed.wrapping_mul(2_654_435_761).wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            // Include exact zeros so the zero-skip path is exercised.
            if state.is_multiple_of(7) {
                0.0
            } else {
                (state >> 8) as f32 / (1u32 << 24) as f32 - 0.5
            }
        })
    }

    #[test]
    fn par_matmul_is_bitwise_identical_to_serial() {
        let a = lcg_matrix(37, 19, 1);
        let b = lcg_matrix(19, 23, 2);
        let serial = a.matmul(&b);
        for jobs in [1, 2, 4, 7] {
            let parallel = a.par_matmul(&b, Parallelism::jobs(jobs));
            assert_eq!(parallel, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn par_matmul_transpose_b_is_bitwise_identical_to_serial() {
        let a = lcg_matrix(41, 17, 3);
        let b = lcg_matrix(29, 17, 4);
        let serial = a.matmul_transpose_b(&b);
        for jobs in [1, 2, 4, 7] {
            let parallel = a.par_matmul_transpose_b(&b, Parallelism::jobs(jobs));
            assert_eq!(parallel, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn small_products_fall_back_to_serial() {
        let a = lcg_matrix(3, 5, 5);
        let b = lcg_matrix(5, 4, 6);
        assert_eq!(a.par_matmul(&b, Parallelism::jobs(8)), a.matmul(&b));
    }

    #[test]
    fn zero_width_outputs_are_handled() {
        let a = Matrix::zeros(16, 4);
        let b = Matrix::zeros(4, 0);
        let c = a.par_matmul(&b, Parallelism::jobs(4));
        assert_eq!(c.shape(), (16, 0));
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn par_matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(8, 3);
        let _ = a.par_matmul(&Matrix::zeros(2, 2), Parallelism::jobs(2));
    }

    #[test]
    fn panel_rows_never_zero() {
        for m in [1usize, 7, 8, 100, 1000] {
            for jobs in [1usize, 2, 8, 64] {
                assert!(panel_rows(m, jobs) >= 1);
            }
        }
    }
}
