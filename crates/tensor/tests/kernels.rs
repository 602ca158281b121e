//! Bitwise equality of the SIMD f32 kernels against the naive scalar
//! loops (the test oracles defined below), over random shapes plus the edge shapes named in the
//! kernel contract (empty, 1×N, non-square, block-straddling) and the
//! paper's long-sequence shape.
//!
//! The assertion compares `f32::to_bits` element for element, not
//! `Matrix`'s IEEE `==` (under which `−0.0 == +0.0` and a NaN never
//! matches) and not `approx_eq`: the SIMD body promises the *same
//! floating-point operation order* per output element, so its lane
//! width and tile shape must reproduce the scalar result to the bit.
//! This is the property that lets golden-file tests stay byte-stable on
//! the production SIMD path.

use cta_parallel::Parallelism;
use cta_tensor::{standard_normal_matrix, KernelPolicy, Matrix};
use proptest::prelude::*;

/// A seeded random matrix with exact `+0.0` and `−0.0` sprinkled in so
/// the `matmul` zero-skip is exercised by the property.
fn sparse_random(seed: u64, rows: usize, cols: usize) -> Matrix {
    let dense = standard_normal_matrix(seed, rows, cols);
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    Matrix::from_fn(rows, cols, |r, c| {
        state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        match state >> 60 {
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

/// The reference `a · b`: the naive i-k-j loop, skipping every term
/// whose `a[i][p]` is `±0.0`.
fn scalar_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for (p, &a_ip) in a.row(i).iter().enumerate() {
            if a_ip == 0.0 {
                continue;
            }
            for (j, &b_pj) in b.row(p).iter().enumerate() {
                out[(i, j)] += a_ip * b_pj;
            }
        }
    }
    out
}

/// The reference `a · bᵀ`: one sequential-`k` dot product per `(i, j)`.
fn scalar_matmul_transpose_b(a: &Matrix, b: &Matrix) -> Matrix {
    Matrix::from_fn(a.rows(), b.rows(), |i, j| {
        let mut acc = 0.0f32;
        for (x, y) in a.row(i).iter().zip(b.row(j)) {
            acc += x * y;
        }
        acc
    })
}

fn assert_simd_matches_scalar(a: &Matrix, b: &Matrix, bt: &Matrix, label: &str) {
    assert_eq!(bits(&a.matmul(b)), bits(&scalar_matmul(a, b)), "{label}: matmul");
    assert_eq!(
        bits(&a.matmul_transpose_b(bt)),
        bits(&scalar_matmul_transpose_b(a, bt)),
        "{label}: matmul_transpose_b"
    );
}

/// `±∞` and NaN, cycled by index.
fn non_finite(i: usize) -> f32 {
    [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][i % 3]
}

#[test]
fn non_finite_b_under_exact_zeros_in_a_is_bitwise_identical() {
    // The zero-skip's reason to exist: `±0.0 · ±∞` and `±0.0 · NaN` are
    // NaN, so `matmul` must leave those terms out, and the SIMD mask
    // must leave them out the same way. Rows 3, 10 and 17 of `B` are all
    // ±∞/NaN; the matching columns `p` of `A` are ±0.0 except in row
    // `p % m` (three distinct rows at every `m` here), so those rows
    // meet one non-finite term per output and the rest come out finite.
    for (m, n) in [(9, 37), (4, 16), (13, 5)] {
        let k = 24;
        let special = [3, 10, 17];
        let a0 = sparse_random(51, m, k);
        let a = Matrix::from_fn(m, k, |i, p| match special.contains(&p) {
            true if i == p % m => 1.5,
            true => [0.0, -0.0][(i + p) % 2],
            false => a0[(i, p)],
        });
        let b0 = sparse_random(52, k, n);
        let b = Matrix::from_fn(k, n, |p, j| {
            if special.contains(&p) {
                non_finite(j + p)
            } else {
                b0[(p, j)]
            }
        });
        // `matmul_transpose_b` has no skip: one ±∞/NaN column of `Bᵀ`
        // under a mostly ±0.0 column of `A` gives every output exactly
        // one non-finite term (NaN where `A` is ±0.0).
        let bt0 = sparse_random(53, n, k);
        let bt = Matrix::from_fn(n, k, |j, p| if p == 10 { non_finite(j) } else { bt0[(j, p)] });
        let label = format!("{m}x{k}x{n}");
        assert_simd_matches_scalar(&a, &b, &bt, &label);
        let c = a.matmul(&b);
        for i in 0..m {
            let meets = special.iter().any(|&p| p % m == i);
            assert_eq!(
                c.row(i).iter().all(|x| x.is_finite()),
                !meets,
                "{label}: row {i} finiteness"
            );
        }
        assert!(a.matmul_transpose_b(&bt).as_slice().iter().all(|x| !x.is_finite()), "{label}");
    }
}

#[test]
fn empty_shapes_are_bitwise_identical() {
    for (m, k, n) in [(0, 0, 0), (0, 5, 3), (4, 0, 3), (4, 0, 40), (4, 5, 0), (0, 0, 7)] {
        let a = sparse_random(9, m, k);
        let b = sparse_random(10, k, n);
        let bt = sparse_random(11, n, k);
        assert_simd_matches_scalar(&a, &b, &bt, &format!("{m}x{k}x{n}"));
    }
}

#[test]
fn one_by_n_shapes_are_bitwise_identical() {
    for (m, k, n) in [(1, 1, 1), (1, 17, 33), (33, 17, 1), (1, 1, 64), (64, 1, 1)] {
        let a = sparse_random(21, m, k);
        let b = sparse_random(22, k, n);
        let bt = sparse_random(23, n, k);
        assert_simd_matches_scalar(&a, &b, &bt, &format!("{m}x{k}x{n}"));
    }
}

#[test]
fn shapes_straddling_the_block_boundaries_are_bitwise_identical() {
    // Ragged 4-row and 16-column tile tails, exact tile multiples, and
    // long reductions. The last shape is the paper's long sequence:
    // n = 1024 tokens at d = 64.
    for (m, k, n) in [(3, 63, 255), (2, 65, 257), (5, 64, 256), (7, 130, 300), (1024, 64, 1024)] {
        let a = sparse_random(31, m, k);
        let b = sparse_random(32, k, n);
        let bt = sparse_random(33, n, k);
        assert_simd_matches_scalar(&a, &b, &bt, &format!("{m}x{k}x{n}"));
    }
}

#[test]
fn entry_points_run_the_production_path_and_match_scalar() {
    // The products (serial and panel-parallel) run the SIMD bodies,
    // pinned here to the scalar reference at a ragged shape and at the
    // paper's long sequence.
    assert_eq!(KernelPolicy::current(), KernelPolicy::Simd);
    for (m, k, n) in [(7, 130, 300), (1024, 64, 1024)] {
        let a = sparse_random(41, m, k);
        let b = sparse_random(42, k, n);
        let bt = sparse_random(43, n, k);
        let scalar = bits(&scalar_matmul(&a, &b));
        let scalar_tb = bits(&scalar_matmul_transpose_b(&a, &bt));
        assert_eq!(bits(&a.matmul(&b)), scalar, "{m}x{k}x{n}: matmul");
        assert_eq!(bits(&a.matmul_transpose_b(&bt)), scalar_tb, "{m}x{k}x{n}: matmul_transpose_b");
        let par = Parallelism::jobs(3);
        assert_eq!(bits(&a.par_matmul(&b, par)), scalar, "{m}x{k}x{n}: par_matmul");
        assert_eq!(bits(&a.par_matmul_transpose_b(&bt, par)), scalar_tb, "{m}x{k}x{n}: par_tb");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// SIMD `matmul` equals scalar bitwise over random non-square
    /// shapes and seeds.
    #[test]
    fn matmul_matches_scalar_bitwise(
        m in 1usize..40,
        k in 1usize..24,
        n in 1usize..24,
        seed in 0u64..1_000,
    ) {
        let a = sparse_random(seed, m, k);
        let b = sparse_random(seed.wrapping_add(1), k, n);
        prop_assert_eq!(bits(&a.matmul(&b)), bits(&scalar_matmul(&a, &b)));
    }

    /// SIMD `matmul_transpose_b` equals scalar bitwise over random
    /// non-square shapes and seeds.
    #[test]
    fn matmul_transpose_b_matches_scalar_bitwise(
        m in 1usize..40,
        k in 1usize..24,
        n in 1usize..24,
        seed in 0u64..1_000,
    ) {
        let a = sparse_random(seed, m, k);
        let b = sparse_random(seed.wrapping_add(2), n, k);
        prop_assert_eq!(bits(&a.matmul_transpose_b(&b)), bits(&scalar_matmul_transpose_b(&a, &b)));
    }
}
