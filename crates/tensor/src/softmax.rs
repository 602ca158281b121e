//! Numerically stable row-wise softmax.

use crate::{exp_in_place, Matrix};

/// Row-wise softmax with max-subtraction, returning a new matrix.
///
/// This is the reference normalisation of attention scores (paper §II-A,
/// `P = Softmax(S)`). The max of each row is subtracted before
/// exponentiation — the same trick the CTA PPEs apply in hardware during the
/// score-calculation phase to keep LUT inputs small (paper §IV-B).
///
/// ```
/// use cta_tensor::{softmax_rows, Matrix};
/// let p = softmax_rows(&Matrix::from_rows(&[&[0.0, 0.0]]));
/// assert!((p[(0, 0)] - 0.5).abs() < 1e-6);
/// ```
pub fn softmax_rows(scores: &Matrix) -> Matrix {
    let mut out = scores.clone();
    softmax_rows_in_place(&mut out);
    out
}

/// How many rows [`softmax_rows_in_place`] sums side by side, so
/// their independent add chains overlap in the pipeline.
const SUM_ROWS: usize = 4;

/// In-place variant of [`softmax_rows`].
///
/// Bit for bit the per-element loop — per row, `(x - max).exp()` for each
/// element, their f32 sum in ascending column order, then a division —
/// but the exponentials run through [`exp_in_place`] over the whole
/// matrix, and four rows are summed at once, each still in its own
/// scalar order.
pub fn softmax_rows_in_place(scores: &mut Matrix) {
    let cols = scores.cols();
    if cols == 0 {
        return;
    }
    let data = scores.as_mut_slice();
    for row in data.chunks_exact_mut(cols) {
        let max = row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
        for x in row.iter_mut() {
            *x -= max;
        }
    }
    exp_in_place(data);
    let mut groups = data.chunks_exact_mut(cols * SUM_ROWS);
    for group in &mut groups {
        let rows: [&[f32]; SUM_ROWS] = std::array::from_fn(|i| &group[i * cols..(i + 1) * cols]);
        let mut sums = [0.0f32; SUM_ROWS];
        for c in 0..cols {
            for (sum, row) in sums.iter_mut().zip(rows) {
                *sum += row[c];
            }
        }
        for (row, sum) in group.chunks_exact_mut(cols).zip(sums) {
            divide(row, sum);
        }
    }
    for row in groups.into_remainder().chunks_exact_mut(cols) {
        let sum = row.iter().fold(0.0f32, |s, &x| s + x);
        divide(row, sum);
    }
}

fn divide(row: &mut [f32], sum: f32) {
    for x in row {
        *x /= sum;
    }
}

/// Numerically stable `log(Σ exp(xᵢ))` of a slice.
///
/// Used by perplexity-style proxy metrics in the workload crate.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn log_sum_exp(xs: &[f32]) -> f32 {
    assert!(!xs.is_empty(), "log_sum_exp of an empty slice");
    let max = xs.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
    if max.is_infinite() {
        return max;
    }
    let sum: f32 = xs.iter().map(|&x| (x - max).exp()).sum();
    max + sum.ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MatrixRng;
    use proptest::prelude::*;

    /// The reference: one `f32::exp` call per element and a running sum
    /// per row, in column order.
    fn scalar_softmax_rows(scores: &Matrix) -> Matrix {
        let mut out = scores.clone();
        if out.cols() == 0 {
            return out;
        }
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            let max = row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
            let mut sum = 0.0f32;
            for x in row.iter_mut() {
                *x = (*x - max).exp();
                sum += *x;
            }
            for x in row.iter_mut() {
                *x /= sum;
            }
        }
        out
    }

    /// The shape and every element's bits, each NaN as the canonical
    /// NaN: Rust leaves a NaN result's payload and sign unspecified, and
    /// an optimizing build may commute `NaN₁ + NaN₂`.
    fn bits(m: &Matrix) -> ((usize, usize), Vec<u32>) {
        let canonical = |x: &f32| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() };
        (m.shape(), m.as_slice().iter().map(canonical).collect())
    }

    /// Scores of every kind the lanes must match the scalar loop on,
    /// chosen per element by `kind`: plain normals, ties with the
    /// previous element, `-∞`, NaN, and values about 88 to 120 below the
    /// row's scale, where the exponential takes the scalar call or
    /// underflows.
    fn mixed_scores(rows: usize, cols: usize, seed: u64, kinds: u64) -> Matrix {
        let mut rng = MatrixRng::new(seed);
        let normals = rng.normal_matrix(rows, cols, 0.0, 4.0);
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut prev = 0.0f32;
        Matrix::from_fn(rows, cols, |r, c| {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1442695040888963407);
            let x = normals[(r, c)];
            let v = match (state >> 59) % kinds {
                0..=2 => x,
                3 => prev,
                4 => -88.0 - x.abs() * 8.0,
                5 => f32::NEG_INFINITY,
                _ => f32::NAN,
            };
            prev = v;
            v
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Lane exponentials and interleaved row sums give the scalar
        /// loop's bits, on ragged shapes (row counts off the interleave
        /// width, column counts off the lane width, zero columns) and on
        /// ties, `-∞`, NaN and differences at or beyond -88.
        #[test]
        fn softmax_rows_is_the_scalar_loop_bitwise(
            rows in 1usize..14,
            cols in 0usize..27,
            seed in 0u64..1 << 40,
            kinds in 3u64..8,
        ) {
            let scores = mixed_scores(rows, cols, seed, kinds);
            prop_assert_eq!(bits(&softmax_rows(&scores)), bits(&scalar_softmax_rows(&scores)));
        }
    }

    #[test]
    fn softmax_rows_matches_the_scalar_loop_on_edge_shapes() {
        for (rows, cols) in [(1, 1), (1, 0), (0, 5), (37, 1), (101, 9), (64, 512), (5, 88)] {
            for kinds in [3, 5, 7] {
                let scores = mixed_scores(rows, cols, (rows * 1000 + cols) as u64, kinds);
                assert_eq!(
                    bits(&softmax_rows(&scores)),
                    bits(&scalar_softmax_rows(&scores)),
                    "{rows}x{cols}, kinds {kinds}"
                );
            }
        }
        // With the row's max at 0: a difference of exactly -88 and its
        // neighbours (the lane body's boundary with the scalar call),
        // and the underflow thresholds past it.
        let edge = Matrix::from_rows(&[&[
            0.0,
            -88.0,
            f32::from_bits((-88.0f32).to_bits() - 1),
            f32::from_bits((-88.0f32).to_bits() + 1),
            -103.9,
            -104.0,
            -200.0,
            -87.0,
        ]]);
        assert_eq!(bits(&softmax_rows(&edge)), bits(&scalar_softmax_rows(&edge)));
    }

    #[test]
    fn rows_sum_to_one() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[-5.0, 0.0, 5.0]]);
        let p = softmax_rows(&m);
        for r in 0..p.rows() {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6, "row {r} sums to {s}");
        }
    }

    #[test]
    fn uniform_scores_give_uniform_probabilities() {
        let p = softmax_rows(&Matrix::filled(1, 4, 3.0));
        for c in 0..4 {
            assert!((p[(0, c)] - 0.25).abs() < 1e-6);
        }
    }

    #[test]
    fn shift_invariance() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        let b = a.map(|x| x + 100.0);
        assert!(softmax_rows(&a).approx_eq(&softmax_rows(&b), 1e-6));
    }

    #[test]
    fn large_scores_do_not_overflow() {
        let p = softmax_rows(&Matrix::from_rows(&[&[1000.0, 999.0]]));
        assert!(p.as_slice().iter().all(|x| x.is_finite()));
        assert!(p[(0, 0)] > p[(0, 1)]);
    }

    #[test]
    fn monotone_in_scores() {
        let p = softmax_rows(&Matrix::from_rows(&[&[0.0, 1.0, 2.0]]));
        assert!(p[(0, 0)] < p[(0, 1)] && p[(0, 1)] < p[(0, 2)]);
    }

    #[test]
    fn log_sum_exp_matches_naive_for_small_values() {
        let xs = [0.1f32, 0.2, 0.3];
        let naive = xs.iter().map(|x| x.exp()).sum::<f32>().ln();
        assert!((log_sum_exp(&xs) - naive).abs() < 1e-6);
    }

    #[test]
    fn log_sum_exp_is_stable_for_large_values() {
        assert!((log_sum_exp(&[1000.0, 1000.0]) - (1000.0 + 2.0f32.ln())).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn log_sum_exp_rejects_empty() {
        let _ = log_sum_exp(&[]);
    }
}
