//! p-stable locality-sensitive hash families (paper §III-A).

use cta_tensor::{Matrix, MatrixRng};

use crate::hash_lanes::hash_rows;
use crate::HashCodes;

/// Hyper-parameters for sampling an [`LshFamily`].
///
/// `hash_length` is the code length `l` (the paper uses `l = 6`);
/// `bucket_width` is the projection interval width `w`, the main knob
/// trading compression ratio against approximation accuracy — larger `w`
/// merges more tokens per cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LshParams {
    /// Code length `l` (number of sampled directions).
    pub hash_length: usize,
    /// Bucket width `w` for the floor quantisation.
    pub bucket_width: f32,
}

impl LshParams {
    /// Creates parameters, validating them eagerly.
    ///
    /// # Panics
    ///
    /// Panics if `hash_length == 0` or `bucket_width <= 0`.
    pub fn new(hash_length: usize, bucket_width: f32) -> Self {
        assert!(hash_length > 0, "hash_length must be positive");
        assert!(
            bucket_width > 0.0 && bucket_width.is_finite(),
            "bucket_width must be positive and finite"
        );
        Self { hash_length, bucket_width }
    }

    /// The paper's default code length, `l = 6` (§IV-C).
    pub fn with_paper_length(bucket_width: f32) -> Self {
        Self::new(6, bucket_width)
    }
}

/// A sampled p-stable LSH family.
///
/// Holds the direction matrix `A` (`l × d`, rows drawn from `N(0,1)`), the
/// bias vector `b` (entries drawn from `U[0, w)`) and the bucket width `w`.
/// A `d`-dimensional vector `x` hashes to the `l`-dimensional integer code
///
/// ```text
/// h(x) = floor((A·x + b) / w)        (paper eq. 1)
/// ```
///
/// Vectors whose codes are equal land in the same cluster.
///
/// ```
/// use cta_lsh::{LshFamily, LshParams};
///
/// let fam = LshFamily::sample(4, LshParams::new(6, 1.0), 42);
/// let x = [0.1, 0.2, 0.3, 0.4];
/// // Hash codes are deterministic for a given family.
/// assert_eq!(fam.hash_code(&x), fam.hash_code(&x));
/// ```
#[derive(Debug, Clone)]
pub struct LshFamily {
    /// `l × d` direction matrix; row `i` is direction `aᵢ`.
    a: Matrix,
    /// `l` biases.
    b: Vec<f32>,
    /// Bucket width.
    w: f32,
}

impl LshFamily {
    /// Samples a family for `dim`-dimensional inputs from a seed.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn sample(dim: usize, params: LshParams, seed: u64) -> Self {
        assert!(dim > 0, "input dimension must be positive");
        let mut rng = MatrixRng::new(seed);
        Self::sample_with(dim, params, &mut rng)
    }

    /// Samples a family using an existing random stream (so experiments can
    /// derive LSH₀, LSH₁, LSH₂ from one experiment seed).
    pub fn sample_with(dim: usize, params: LshParams, rng: &mut MatrixRng) -> Self {
        assert!(dim > 0, "input dimension must be positive");
        let a = rng.normal_matrix(params.hash_length, dim, 0.0, 1.0);
        let b = (0..params.hash_length).map(|_| rng.uniform(0.0, params.bucket_width)).collect();
        Self { a, b, w: params.bucket_width }
    }

    /// Builds a family from explicit parameters (used by tests and by the
    /// hardware simulator, which loads `A`, `b`, `1/w` from weight memory).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != a.rows()` or `w <= 0`.
    pub fn from_parts(a: Matrix, b: Vec<f32>, w: f32) -> Self {
        assert_eq!(b.len(), a.rows(), "bias length must equal the number of directions");
        assert!(w > 0.0 && w.is_finite(), "bucket width must be positive and finite");
        Self { a, b, w }
    }

    /// Code length `l`.
    pub fn hash_length(&self) -> usize {
        self.a.rows()
    }

    /// Input dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.a.cols()
    }

    /// Bucket width `w`.
    pub fn bucket_width(&self) -> f32 {
        self.w
    }

    /// The direction matrix `A` (`l × d`).
    pub fn directions(&self) -> &Matrix {
        &self.a
    }

    /// The bias vector `b`.
    pub fn biases(&self) -> &[f32] {
        &self.b
    }

    /// Hashes a single vector to its `l`-dimensional integer code.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn hash_code(&self, x: &[f32]) -> Vec<i32> {
        assert_eq!(x.len(), self.dim(), "vector dimension mismatch: {} vs {}", x.len(), self.dim());
        (0..self.hash_length()).map(|i| self.hash_value(i, x)).collect()
    }

    /// The `i`-th component of the hash code: `floor((⟨aᵢ,x⟩ + bᵢ)/w)`.
    ///
    /// Exposed separately because the hardware streams hash values one
    /// direction at a time out of the systolic array (§IV-B(1)).
    ///
    /// Bucket indices are `i32`. The float→int conversion *saturates* at
    /// the `i32` rails rather than wrapping, so a finite but astronomically
    /// large projection maps to `i32::MAX`/`i32::MIN` — distant outliers
    /// can only collide with each other at the rails, never alias back
    /// into interior buckets. On the hardware-representative path this is
    /// unreachable: Q6.7 tokens and Q3.9 LSH parameters bound `|proj/w|`
    /// far below 2³¹. Non-finite projections (NaN/inf tokens) have no
    /// bucket semantics at all — `NaN as i32` would silently produce
    /// bucket 0 and corrupt the cluster tables — so they are rejected
    /// eagerly here.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.hash_length()`, the dimension mismatches, or
    /// the projection is not finite (the token vector contains NaN/inf or
    /// overflows the dot product).
    pub fn hash_value(&self, i: usize, x: &[f32]) -> i32 {
        let proj = Matrix::dot(self.a.row(i), x) + self.b[i];
        if !proj.is_finite() {
            not_finite(i, proj);
        }
        bucket_of(proj, self.w)
    }

    /// Hashes every row of a token matrix (paper eq. 1, `H = ⌊(A·Xᵀ+B)/w⌋`),
    /// returning one code per token.
    ///
    /// Sixteen tokens run at a time in the lanes of one vector (see the
    /// `hash_lanes` module): bitwise identical to hashing token by token
    /// with [`LshFamily::hash_value`], because each lane adds the same
    /// terms in the same ascending-`d` order, adds the bias afterwards
    /// and buckets with the same f64 divide and floor.
    ///
    /// # Panics
    ///
    /// Panics if `tokens.cols() != self.dim()`, or any projection is
    /// not finite.
    pub fn hash_matrix(&self, tokens: &Matrix) -> HashCodes {
        assert_eq!(
            tokens.cols(),
            self.dim(),
            "token dimension mismatch: {} vs {}",
            tokens.cols(),
            self.dim()
        );
        let (n, l) = (tokens.rows(), self.hash_length());
        let mut values = vec![0; n * l];
        hash_rows(tokens.as_slice(), self.dim(), self.a.as_slice(), &self.b, self.w, &mut values);
        HashCodes::from_flat(n, l, values)
    }
}

/// The panic of a non-finite projection `proj` on direction `i`.
pub(crate) fn not_finite(i: usize, proj: f32) -> ! {
    panic!(
        "LSH projection for direction {i} is not finite ({proj}): \
         token vector contains NaN/inf or overflows the dot product"
    )
}

/// `⌊proj / w⌋` as a saturating `i32` bucket index: divide, floor,
/// clamp to the `i32` rails, truncate.
///
/// The divide and floor happen in **f64**: above 2²⁴ the f32 quotient
/// has a spacing coarser than 1, so an f32 divide can round across an
/// integer boundary and mis-bucket a large-magnitude projection
/// relative to the documented `⌊(A·Xᵀ+B)/w⌋`. Both operands are exact
/// in f64, and every integer a finite f64 quotient can floor to is
/// representable, so the f64 result is the true floor of the rounded
/// quotient. The clamp pins astronomic quotients at the `i32` rails
/// (never wrapping), and leaves an integer the truncation converts
/// exactly — the saturating `as`, spelled so that the token lanes
/// convert in vector registers.
pub(crate) fn bucket_of(proj: f32, w: f32) -> i32 {
    let floor = (f64::from(proj) / f64::from(w)).floor();
    // `max` drops a NaN for the lower rail, so the clamped value is an
    // integer inside the i32 range.
    let clamped = floor.max(f64::from(i32::MIN)).min(f64::from(i32::MAX));
    // SAFETY: `clamped` is finite and inside the i32 range.
    unsafe { clamped.to_int_unchecked() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn family() -> LshFamily {
        LshFamily::sample(8, LshParams::new(6, 2.0), 123)
    }

    #[test]
    fn params_validate() {
        let p = LshParams::with_paper_length(1.5);
        assert_eq!(p.hash_length, 6);
        assert_eq!(p.bucket_width, 1.5);
    }

    #[test]
    #[should_panic(expected = "bucket_width")]
    fn params_reject_zero_width() {
        let _ = LshParams::new(6, 0.0);
    }

    #[test]
    fn identical_vectors_share_codes() {
        let fam = family();
        let x = vec![0.5; 8];
        assert_eq!(fam.hash_code(&x), fam.hash_code(&x));
    }

    #[test]
    fn hash_matrix_rows_match_hash_code() {
        let fam = family();
        let tokens = cta_tensor::standard_normal_matrix(7, 5, 8);
        let codes = fam.hash_matrix(&tokens);
        for t in 0..5 {
            assert_eq!(codes.code(t), fam.hash_code(tokens.row(t)).as_slice());
        }
    }

    #[test]
    fn bias_shifts_bucket_boundaries() {
        // With w=1, b=0.5 and a single direction (1.0), x=0.6 projects to
        // 1.1 -> bucket 1, while x=0.4 projects to 0.9 -> bucket 0.
        let fam = LshFamily::from_parts(Matrix::from_rows(&[&[1.0]]), vec![0.5], 1.0);
        assert_eq!(fam.hash_code(&[0.6]), vec![1]);
        assert_eq!(fam.hash_code(&[0.4]), vec![0]);
    }

    #[test]
    fn negative_projections_floor_downwards() {
        let fam = LshFamily::from_parts(Matrix::from_rows(&[&[1.0]]), vec![0.0], 1.0);
        assert_eq!(fam.hash_code(&[-0.5]), vec![-1]);
        assert_eq!(fam.hash_code(&[-1.0]), vec![-1]);
        assert_eq!(fam.hash_code(&[-1.5]), vec![-2]);
    }

    #[test]
    fn wider_buckets_collide_more() {
        // Two nearby points: with a tiny bucket they separate, with a huge
        // bucket they collide (statistically certain for these magnitudes).
        let narrow = LshFamily::sample(4, LshParams::new(8, 0.001), 9);
        let wide = LshFamily::sample(4, LshParams::new(8, 1000.0), 9);
        let x = [0.1, 0.2, 0.3, 0.4];
        let y = [0.11, 0.21, 0.29, 0.41];
        assert_ne!(narrow.hash_code(&x), narrow.hash_code(&y));
        assert_eq!(wide.hash_code(&x), wide.hash_code(&y));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn hash_code_rejects_wrong_dim() {
        let _ = family().hash_code(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn nan_tokens_rejected_not_hashed_to_bucket_zero() {
        let fam = LshFamily::from_parts(Matrix::from_rows(&[&[1.0]]), vec![0.0], 1.0);
        let _ = fam.hash_code(&[f32::NAN]);
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn infinite_tokens_rejected() {
        let fam = LshFamily::from_parts(Matrix::from_rows(&[&[1.0]]), vec![0.0], 1.0);
        let _ = fam.hash_code(&[f32::INFINITY]);
    }

    #[test]
    fn large_magnitude_projections_bucket_exactly_in_f64() {
        // Regression for the f32 divide+floor: with w = 1 − 2⁻²⁴ the
        // true quotient of a 2²⁴ projection is ≈ 16777217.00000006.
        // f32 spacing above 2²⁴ is 2, so an f32 divide rounds that to
        // 16777218 — one bucket too far. The f64 divide keeps it exact.
        let w = 1.0 - 2f32.powi(-24);
        let fam = LshFamily::from_parts(Matrix::from_rows(&[&[1.0]]), vec![0.0], w);
        assert_eq!(fam.hash_code(&[16_777_216.0]), vec![16_777_217]);
        // Below zero the true quotient ≈ −16777217.00000006 floors one
        // further down — the exact answer, pinned for symmetry.
        assert_eq!(fam.hash_code(&[-16_777_216.0]), vec![-16_777_218]);
    }

    /// The reference [`LshFamily::hash_matrix`]: token by token,
    /// direction by direction, through [`LshFamily::hash_value`].
    fn scalar_hash_matrix(fam: &LshFamily, tokens: &Matrix) -> HashCodes {
        let l = fam.hash_length();
        let mut values = Vec::with_capacity(tokens.rows() * l);
        for t in 0..tokens.rows() {
            values.extend((0..l).map(|i| fam.hash_value(i, tokens.row(t))));
        }
        HashCodes::from_flat(tokens.rows(), l, values)
    }

    #[test]
    fn hash_matrix_is_bitwise_identical_to_the_scalar_loop() {
        // A small ragged shape, then the paper's long sequence: n = 1024
        // tokens at d = 64.
        let small = (family(), cta_tensor::standard_normal_matrix(7, 37, 8));
        let long = (
            LshFamily::sample(64, LshParams::new(6, 2.0), 11),
            cta_tensor::standard_normal_matrix(10, 1024, 64),
        );
        for (fam, tokens) in [small, long] {
            assert_eq!(
                fam.hash_matrix(&tokens),
                scalar_hash_matrix(&fam, &tokens),
                "n={}",
                tokens.rows()
            );
        }
    }

    #[test]
    fn hash_matrix_matches_the_scalar_reference() {
        // `hash_matrix` runs the batched SIMD projection. Pin it to the
        // token-by-token reference at the paper's long sequence
        // (n = 1024, d = 64).
        let fam = LshFamily::sample(64, LshParams::with_paper_length(1.5), 12);
        let tokens = cta_tensor::standard_normal_matrix(13, 1024, 64);
        assert_eq!(fam.hash_matrix(&tokens), scalar_hash_matrix(&fam, &tokens));
    }

    #[test]
    fn huge_finite_projections_saturate_at_the_i32_rails() {
        // |proj/w| far beyond 2^31: the conversion must pin at the rails,
        // not wrap into an interior bucket.
        let fam = LshFamily::from_parts(Matrix::from_rows(&[&[1.0]]), vec![0.0], 1.0);
        assert_eq!(fam.hash_code(&[1e38]), vec![i32::MAX]);
        assert_eq!(fam.hash_code(&[-1e38]), vec![i32::MIN]);
        // Interior values are still the exact floor.
        assert_eq!(fam.hash_code(&[2.5]), vec![2]);
        assert_eq!(fam.hash_code(&[-2.5]), vec![-3]);
    }

    /// The message of the panic `f` raises, or `None` if it returns.
    fn panic_message<T>(f: impl FnOnce() -> T) -> Option<String> {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).err()?;
        Some(match payload.downcast::<String>() {
            Ok(message) => *message,
            Err(payload) => {
                payload.downcast_ref::<&str>().map_or_else(String::new, |s| s.to_string())
            }
        })
    }

    /// A hash-body case: `n` tokens of dimension `d` hashed by an
    /// `l`-direction family of width `w`; `special` picks
    /// what is written into token `at`: nothing (0), signed zeros (1),
    /// subnormals (2), a magnitude whose projections pass the i32 rails
    /// (3), NaN (4), +∞ (5) or −∞ (6).
    #[allow(clippy::too_many_arguments)]
    fn assert_hash_bodies_match(
        n: usize,
        d: usize,
        l: usize,
        w: f32,
        zero_bias: bool,
        special: u8,
        at: usize,
        seed: u64,
    ) {
        let sampled = LshFamily::sample(d, LshParams::new(l, w), seed);
        let fam = if zero_bias {
            // −0.0 biases keep an all-(−0.0) projection at −0.0 in the
            // scalar loop, whose sum starts at −0.0.
            LshFamily::from_parts(sampled.directions().clone(), vec![-0.0; l], w)
        } else {
            sampled
        };
        let mut tokens = cta_tensor::standard_normal_matrix(seed ^ 0x5eed, n, d);
        if n > 0 {
            let row = tokens.row_mut(at % n);
            for (j, v) in row.iter_mut().enumerate() {
                *v = match special {
                    1 if j % 2 == 0 => 0.0,
                    1 => -0.0,
                    2 => f32::from_bits(1 + j as u32) * if j % 2 == 0 { 1.0 } else { -1.0 },
                    3 => *v * 1e30,
                    4 if j == d / 2 => f32::NAN,
                    5 if j == d / 2 => f32::INFINITY,
                    6 if j == d / 2 => f32::NEG_INFINITY,
                    _ => *v,
                };
            }
        }
        let expected = panic_message(|| scalar_hash_matrix(&fam, &tokens));
        let reference =
            if expected.is_none() { Some(scalar_hash_matrix(&fam, &tokens)) } else { None };
        if special >= 4 && n > 0 {
            let message = expected.as_deref().expect("a non-finite token panics");
            assert!(message.contains("not finite") && message.contains("direction"), "{message}");
        }
        for (name, body) in crate::hash_lanes::bodies() {
            let mut out = vec![0; n * l];
            let a = fam.directions().as_slice();
            // SAFETY: `bodies` lists only bodies the host runs.
            let got = panic_message(|| unsafe {
                body(tokens.as_slice(), d, a, fam.biases(), w, &mut out)
            });
            let case = format!("{name}: n={n} d={d} l={l} w={w:e} special={special} at={at}");
            assert_eq!(got, expected, "{case}");
            if let Some(reference) = &reference {
                assert_eq!(&HashCodes::from_flat(n, l, out), reference, "{case}");
            }
        }
    }

    /// Token counts around the 16-token block and the paper's lengths.
    const HASH_BODY_LENGTHS: [usize; 7] = [0, 1, 15, 16, 17, 384, 1024];

    /// Token dimensions: below, at and past the 8- and 16-column
    /// transpose tiles, and the paper's head dimension.
    const HASH_BODY_DIMS: [usize; 5] = [1, 7, 16, 24, 64];

    /// A bucket width of 2⁻²⁴: the bucket of a projection below 128 in
    /// magnitude is the projection scaled by 2²⁴, exactly, so the code
    /// shows a difference in any of its top 24 bits (a fused
    /// multiply-add, say), where a width of 1 would hide one in all
    /// but the rare projection next to a bucket boundary.
    const BIT_WIDTH: f32 = 1.0 / 16_777_216.0;

    /// Bucket widths: one case in four [`BIT_WIDTH`], the others
    /// log-uniform from 1e-4 to 1e6.
    fn hash_body_width((bits, exponent): (u8, f32)) -> f32 {
        if bits == 0 {
            BIT_WIDTH
        } else {
            10f32.powf(exponent)
        }
    }

    #[test]
    fn hash_bodies_match_the_scalar_loop_on_every_length_code_length_and_special_token() {
        for (i, &n) in HASH_BODY_LENGTHS.iter().enumerate() {
            for w in [BIT_WIDTH, 1.0] {
                assert_hash_bodies_match(n, 24, 6, w, false, 0, 0, i as u64);
            }
        }
        for l in 1..=13 {
            for w in [BIT_WIDTH, 0.1] {
                assert_hash_bodies_match(17, 7, l, w, l % 2 == 0, 0, 0, l as u64);
            }
        }
        for special in 0..7 {
            for (at, zero_bias) in [(0, false), (16, true)] {
                assert_hash_bodies_match(17, 16, 13, 1e2, zero_bias, special, at, special.into());
            }
        }
        for w in [1e-4, 1e6] {
            assert_hash_bodies_match(33, 64, 6, w, false, 3, 31, 9);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every hash body the host runs (AVX2, portable and the
        /// dispatched one) is the token-by-token scalar loop bit for
        /// bit, and panics with its message on a non-finite projection.
        #[test]
        fn hash_bodies_match_the_scalar_loop(
            shape in (0usize..7, 0usize..5, 1usize..=13),
            width in (0u8..4, -4.0f32..=6.0),
            zero_bias in 0u8..2,
            special in 0u8..7,
            at in 0usize..1024,
            seed in 0u64..u64::MAX,
        ) {
            let (n, d, l) = (HASH_BODY_LENGTHS[shape.0], HASH_BODY_DIMS[shape.1], shape.2);
            let w = hash_body_width(width);
            assert_hash_bodies_match(n, d, l, w, zero_bias == 1, special, at, seed);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        /// [`hash_bodies_match_the_scalar_loop`] at many more cases, for
        /// release builds (CI runs it with `--ignored`).
        #[test]
        #[ignore = "release-only: cargo test --release -p cta-lsh --lib -- --ignored hash_bodies"]
        fn hash_bodies_match_the_scalar_loop_at_many_cases(
            shape in (0usize..7, 0usize..5, 1usize..=13),
            width in (0u8..4, -4.0f32..=6.0),
            zero_bias in 0u8..2,
            special in 0u8..7,
            at in 0usize..1024,
            seed in 0u64..u64::MAX,
        ) {
            let (n, d, l) = (HASH_BODY_LENGTHS[shape.0], HASH_BODY_DIMS[shape.1], shape.2);
            let w = hash_body_width(width);
            assert_hash_bodies_match(n, d, l, w, zero_bias == 1, special, at, seed);
        }
    }

    proptest! {
        /// LSH locality: a point always collides with itself, and moving a
        /// point by less than w/(2·‖a‖·√d)... is hard to bound exactly, so
        /// we check the weaker structural property that collision is
        /// translation-covariant along bucket multiples of each direction.
        #[test]
        fn codes_are_deterministic(seed in 0u64..500) {
            let fam = LshFamily::sample(6, LshParams::new(4, 1.0), seed);
            let x: Vec<f32> = (0..6).map(|i| (i as f32) * 0.37 - 1.0).collect();
            prop_assert_eq!(fam.hash_code(&x), fam.hash_code(&x));
        }

        /// Closer pairs collide at least as often as far pairs on average —
        /// the defining property of a locality-sensitive family. Checked in
        /// aggregate over the family seed.
        #[test]
        fn locality_in_aggregate(base_seed in 0u64..20) {
            let mut near_hits = 0usize;
            let mut far_hits = 0usize;
            let trials = 40;
            for s in 0..trials {
                let fam = LshFamily::sample(4, LshParams::new(2, 4.0), base_seed * 1000 + s);
                let x = [0.0f32, 0.0, 0.0, 0.0];
                let near = [0.1f32, -0.1, 0.1, -0.1];
                let far = [3.0f32, -3.0, 3.0, -3.0];
                if fam.hash_code(&x) == fam.hash_code(&near) { near_hits += 1; }
                if fam.hash_code(&x) == fam.hash_code(&far) { far_hits += 1; }
            }
            prop_assert!(near_hits >= far_hits,
                "near collided {near_hits}, far collided {far_hits}");
        }
    }
}
