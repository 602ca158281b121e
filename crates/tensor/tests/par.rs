//! Bitwise equality of the parallel matrix products against the serial
//! kernels, over random shapes, seeds, and worker counts.
//!
//! The assertion compares `f32::to_bits` element for element, not
//! `Matrix`'s IEEE `==` (under which `−0.0 == +0.0` and a NaN never
//! matches) and not `approx_eq`: the parallel paths promise the *same
//! floating-point operation order* per output row, so any worker count
//! must reproduce the serial result to the bit. This is the property
//! that lets golden-file tests stay byte-stable under `--jobs N`.

use cta_parallel::Parallelism;
use cta_tensor::{standard_normal_matrix, Matrix};
use proptest::prelude::*;

/// A seeded random matrix with exact `+0.0` and `−0.0` sprinkled in so
/// the `matmul` zero-skip is exercised by the property, plus one `±∞`
/// or NaN so non-finite terms (and `±0.0 · ∞` NaNs) flow through both
/// products.
fn sparse_random(seed: u64, rows: usize, cols: usize) -> Matrix {
    let dense = standard_normal_matrix(seed, rows, cols);
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let special = (seed as usize % rows.max(1), seed as usize / 7 % cols.max(1));
    Matrix::from_fn(rows, cols, |r, c| {
        state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        match state >> 60 {
            _ if (r, c) == special => {
                [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][seed as usize % 3]
            }
            0 => 0.0,
            1 => -0.0,
            _ => dense[(r, c)],
        }
    })
}

/// The shape and every element's bit pattern.
fn bits(m: &Matrix) -> ((usize, usize), Vec<u32>) {
    (m.shape(), m.as_slice().iter().map(|x| x.to_bits()).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `par_matmul` equals `matmul` bitwise over random shapes, seeds,
    /// and worker counts (including counts above the row count).
    #[test]
    fn par_matmul_matches_serial_bitwise(
        m in 1usize..40,
        k in 1usize..24,
        n in 1usize..24,
        jobs in 1usize..9,
        seed in 0u64..1_000,
    ) {
        let a = sparse_random(seed, m, k);
        let b = sparse_random(seed.wrapping_add(1), k, n);
        let serial = a.matmul(&b);
        let parallel = a.par_matmul(&b, Parallelism::jobs(jobs));
        prop_assert_eq!(bits(&parallel), bits(&serial));
    }

    /// `par_matmul_transpose_b` equals `matmul_transpose_b` bitwise over
    /// random shapes, seeds, and worker counts.
    #[test]
    fn par_matmul_transpose_b_matches_serial_bitwise(
        m in 1usize..40,
        k in 1usize..24,
        n in 1usize..24,
        jobs in 1usize..9,
        seed in 0u64..1_000,
    ) {
        let a = sparse_random(seed, m, k);
        let b = sparse_random(seed.wrapping_add(2), n, k);
        let serial = a.matmul_transpose_b(&b);
        let parallel = a.par_matmul_transpose_b(&b, Parallelism::jobs(jobs));
        prop_assert_eq!(bits(&parallel), bits(&serial));
    }

    /// Running the same parallel product twice at different worker counts
    /// gives identical bits — the worker count is unobservable.
    #[test]
    fn worker_count_is_unobservable_in_products(
        m in 8usize..32,
        k in 1usize..16,
        jobs_a in 1usize..5,
        jobs_b in 5usize..9,
        seed in 0u64..500,
    ) {
        let a = sparse_random(seed, m, k);
        let b = sparse_random(seed.wrapping_add(3), k, m);
        let low = a.par_matmul(&b, Parallelism::jobs(jobs_a));
        let high = a.par_matmul(&b, Parallelism::jobs(jobs_b));
        prop_assert_eq!(bits(&low), bits(&high));
    }
}
