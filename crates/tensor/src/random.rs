//! Seeded random matrix initialisation.
//!
//! All randomness in the workspace flows through [`MatrixRng`] so that every
//! experiment is reproducible from a single `u64` seed: workload generation,
//! LSH parameter sampling and weight initialisation each derive their own
//! stream from the experiment seed.
//!
//! Normals come from the Box–Muller transform, two per pair of uniforms
//! `u0 = 1 − U`, `u1 = U'` (each `U` one `k·2⁻²⁴` draw), the pair's second
//! normal dropped when a count is odd. [`MatrixRng::fill_normal`] draws a
//! batch's uniforms first, in that stream order, then transforms the whole
//! batch at once: eight pairs at a time where the host's `f32::ln`,
//! `f32::sin` and `f32::cos` are glibc's FMA builds, which the lane body
//! reproduces bit for bit (`box_muller.rs`), one pair at a time otherwise.
//! Either way every normal, and the generator's position after the batch,
//! is what drawing and transforming one pair at a time gives.

use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::box_muller::{box_muller_in_place, box_muller_pair};
use crate::Matrix;

/// Pairs drawn per batch of [`MatrixRng::fill_normal`] (two 1 KiB stack
/// buffers).
const BATCH_PAIRS: usize = 256;

/// A seeded random source for matrix initialisation.
///
/// Thin wrapper over [`StdRng`] that adds the matrix constructors the CTA
/// crates need. Two `MatrixRng`s built from the same seed produce identical
/// streams.
///
/// ```
/// use cta_tensor::MatrixRng;
/// let a = MatrixRng::new(7).normal_matrix(2, 2, 0.0, 1.0);
/// let b = MatrixRng::new(7).normal_matrix(2, 2, 0.0, 1.0);
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone)]
pub struct MatrixRng {
    rng: StdRng,
}

impl MatrixRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { rng: StdRng::seed_from_u64(seed) }
    }

    /// Derives an independent child generator; used to give each module of
    /// an experiment (workload, LSH₀, LSH₁, LSH₂, weights) its own stream.
    pub fn fork(&mut self) -> MatrixRng {
        MatrixRng::new(self.rng.gen())
    }

    /// A `rows × cols` matrix with elements drawn from `N(mean, std²)`,
    /// row-major in draw order (see [`Self::fill_normal`]).
    pub fn normal_matrix(&mut self, rows: usize, cols: usize, mean: f32, std: f32) -> Matrix {
        let mut data = vec![0.0; rows * cols];
        self.fill_normal(&mut data, mean, std);
        Matrix::from_vec(rows, cols, data)
    }

    /// Fills `out` with draws from `N(mean, std²)`, each `mean + std·z`
    /// in f32.
    ///
    /// Uses the Box–Muller transform so the only `rand` surface we rely on
    /// is the uniform generator: `z` runs through each pair's two normals
    /// in order, and an odd length drops the last pair's second one.
    pub fn fill_normal(&mut self, out: &mut [f32], mean: f32, std: f32) {
        let mut u0 = [0.0f32; BATCH_PAIRS];
        let mut u1 = [0.0f32; BATCH_PAIRS];
        for chunk in out.chunks_mut(2 * BATCH_PAIRS) {
            let pairs = chunk.len().div_ceil(2);
            let (u0, u1) = (&mut u0[..pairs], &mut u1[..pairs]);
            for (a, b) in u0.iter_mut().zip(u1.iter_mut()) {
                (*a, *b) = self.uniform_pair();
            }
            box_muller_in_place(u0, u1);
            for (x, (&z0, &z1)) in chunk.chunks_mut(2).zip(u0.iter().zip(u1.iter())) {
                x[0] = mean + std * z0;
                if let Some(x1) = x.get_mut(1) {
                    *x1 = mean + std * z1;
                }
            }
        }
    }

    /// A `rows × cols` matrix with elements drawn from `U[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_matrix(&mut self, rows: usize, cols: usize, lo: f32, hi: f32) -> Matrix {
        assert!(lo < hi, "uniform_matrix requires lo < hi (got {lo}..{hi})");
        Matrix::from_fn(rows, cols, |_, _| self.rng.gen_range(lo..hi))
    }

    /// A single standard-normal draw: the first normal of one pair.
    pub fn normal(&mut self) -> f32 {
        let (u0, u1) = self.uniform_pair();
        box_muller_pair(u0, u1).0
    }

    /// A single uniform draw from `U[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo < hi, "uniform requires lo < hi (got {lo}..{hi})");
        self.rng.gen_range(lo..hi)
    }

    /// A uniform integer in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index requires a non-empty range");
        self.rng.gen_range(0..n)
    }

    /// Samples from an arbitrary `rand` distribution.
    pub fn sample<T, D: Distribution<T>>(&mut self, dist: &D) -> T {
        dist.sample(&mut self.rng)
    }

    /// One Box–Muller pair's uniforms, `u0` in `(0, 1]` so `ln u0` is
    /// finite.
    fn uniform_pair(&mut self) -> (f32, f32) {
        let u0: f32 = 1.0 - self.rng.gen::<f32>();
        (u0, self.rng.gen())
    }
}

/// Convenience constructor for a standard-normal matrix from a fresh seed.
pub fn standard_normal_matrix(seed: u64, rows: usize, cols: usize) -> Matrix {
    MatrixRng::new(seed).normal_matrix(rows, cols, 0.0, 1.0)
}

/// Convenience constructor for a uniform matrix from a fresh seed.
///
/// # Panics
///
/// Panics if `lo >= hi`.
pub fn uniform_matrix(seed: u64, rows: usize, cols: usize, lo: f32, hi: f32) -> Matrix {
    MatrixRng::new(seed).uniform_matrix(rows, cols, lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-pair spelling `fill_normal` replaced: draw one pair,
    /// transform it with the scalar calls, repeat.
    fn oracle_box_muller(rng: &mut MatrixRng) -> (f32, f32) {
        // u0 in (0, 1] so ln(u0) is finite.
        let u0: f32 = 1.0 - rng.rng.gen::<f32>();
        let u1: f32 = rng.rng.gen();
        let r = (-2.0 * u0.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u1;
        (r * theta.cos(), r * theta.sin())
    }

    fn oracle_normal_matrix(
        rng: &mut MatrixRng,
        rows: usize,
        cols: usize,
        mean: f32,
        std: f32,
    ) -> Matrix {
        let mut data = Vec::with_capacity(rows * cols);
        while data.len() < rows * cols {
            let (z0, z1) = oracle_box_muller(rng);
            data.push(mean + std * z0);
            if data.len() < rows * cols {
                data.push(mean + std * z1);
            }
        }
        Matrix::from_vec(rows, cols, data)
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Asserts both generators stand at the same stream position: the
    /// next uniform, index and forked stream agree.
    fn assert_same_position(mut a: MatrixRng, mut b: MatrixRng) {
        assert_eq!(a.uniform(0.0, 1.0).to_bits(), b.uniform(0.0, 1.0).to_bits(), "next uniform");
        assert_eq!(a.index(1 << 20), b.index(1 << 20), "next index");
        assert_eq!(
            a.fork().uniform(0.0, 1.0).to_bits(),
            b.fork().uniform(0.0, 1.0).to_bits(),
            "fork"
        );
    }

    /// Counts the property draws from besides `0..1200`: empty, one
    /// pair and its halves, a vector's worth, a long run, and both sides
    /// of a batch boundary.
    const COUNTS: [usize; 9] =
        [0, 1, 2, 3, 64, 4096, 2 * BATCH_PAIRS - 1, 2 * BATCH_PAIRS, 2 * BATCH_PAIRS + 1];

    proptest! {
        #[test]
        fn fill_normal_is_the_per_pair_oracle_bitwise(
            seed in 0u64..u64::MAX,
            pick in 0usize..2 * COUNTS.len(),
            free in 0usize..1200,
            mean in (0usize..4).prop_map(|i| [0.0f32, -0.0, 1.5, -3.25][i]),
            std in (0usize..6).prop_map(|i| [1.0f32, 0.0, -0.0, -2.0, 0.07, 4.0][i]),
        ) {
            let count = COUNTS.get(pick).copied().unwrap_or(free);
            let mut lanes = MatrixRng::new(seed);
            let mut oracle = lanes.clone();
            let mut out = vec![f32::NAN; count];
            lanes.fill_normal(&mut out, mean, std);
            let want = oracle_normal_matrix(&mut oracle, 1, count, mean, std);
            prop_assert_eq!(bits(&out), bits(want.as_slice()));
            assert_same_position(lanes.clone(), oracle.clone());
            // normal_matrix and normal go through the same batch.
            let m = lanes.normal_matrix(3, count % 7, mean, std);
            let want = oracle_normal_matrix(&mut oracle, 3, count % 7, mean, std);
            prop_assert_eq!(bits(m.as_slice()), bits(want.as_slice()));
            prop_assert_eq!(lanes.normal().to_bits(), oracle_box_muller(&mut oracle).0.to_bits());
            assert_same_position(lanes, oracle);
        }
    }

    #[test]
    fn fill_normal_leaves_the_stream_where_the_oracle_does() {
        // Zero, odd and even counts, across a batch boundary, one after
        // another on the same generator: a batch that drew ahead would
        // shift every later draw.
        let mut lanes = MatrixRng::new(31);
        let mut oracle = lanes.clone();
        for count in [0, 1, 2, 7, 0, 2 * BATCH_PAIRS + 3, 64, 1] {
            let mut out = vec![0.0; count];
            lanes.fill_normal(&mut out, 0.0, 1.0);
            let want = oracle_normal_matrix(&mut oracle, 1, count, 0.0, 1.0);
            assert_eq!(bits(&out), bits(want.as_slice()), "count {count}");
            assert_same_position(lanes.clone(), oracle.clone());
            assert_eq!(lanes.index(97), oracle.index(97));
        }
    }

    #[test]
    fn same_seed_same_matrix() {
        let a = standard_normal_matrix(42, 4, 4);
        let b = standard_normal_matrix(42, 4, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = standard_normal_matrix(1, 4, 4);
        let b = standard_normal_matrix(2, 4, 4);
        assert_ne!(a, b);
    }

    #[test]
    fn normal_matrix_has_roughly_zero_mean_unit_std() {
        let m = standard_normal_matrix(7, 100, 100);
        let n = m.len() as f64;
        let mean: f64 = m.as_slice().iter().map(|&x| x as f64).sum::<f64>() / n;
        let var: f64 = m.as_slice().iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn uniform_matrix_respects_bounds() {
        let m = uniform_matrix(3, 50, 50, 2.0, 5.0);
        assert!(m.as_slice().iter().all(|&x| (2.0..5.0).contains(&x)));
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut root = MatrixRng::new(9);
        let a = root.fork().normal_matrix(2, 2, 0.0, 1.0);
        let b = root.fork().normal_matrix(2, 2, 0.0, 1.0);
        assert_ne!(a, b);
    }

    #[test]
    fn index_stays_in_range() {
        let mut rng = MatrixRng::new(5);
        for _ in 0..100 {
            assert!(rng.index(7) < 7);
        }
    }

    #[test]
    #[should_panic(expected = "lo < hi")]
    fn uniform_rejects_empty_range() {
        let mut rng = MatrixRng::new(0);
        let _ = rng.uniform(1.0, 1.0);
    }
}
