//! Hardware look-up tables: exponent (PAG) and reciprocal (CAVG).

use crate::qformat::pow2;
use crate::QFormat;

/// The shared exponent look-up table used by the Probability Aggregation
/// Module.
///
/// The paper implements exponent calculation "similarly to the LUT-based
/// method in A³", sharing one table among the ADD_EXP units (§IV-B(4)).
/// Inputs are attention scores *after* the PPE has subtracted the row
/// maximum (§IV-B(1), score-calculation phase), so the domain is
/// `[min_input, 0]` and outputs lie in `(0, 1]`.
///
/// The table stores `entries` uniformly spaced samples of `exp(x)` over the
/// domain; a lookup rounds its argument to the nearest sample. Inputs below
/// the domain clamp to `exp(min_input) ≈ 0`, inputs above clamp to 1.
///
/// ```
/// use cta_fixed::ExpLut;
/// let lut = ExpLut::new(1024, -16.0);
/// assert!((lut.lookup(-1.0) - (-1.0f32).exp()).abs() < 0.02);
/// assert_eq!(lut.lookup(0.0), 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct ExpLut {
    table: Vec<f32>,
    min_input: f32,
    step: f32,
}

impl ExpLut {
    /// Builds a table of `entries` samples of `exp` over `[min_input, 0]`.
    ///
    /// # Panics
    ///
    /// Panics if `entries < 2` or `min_input >= 0`.
    pub fn new(entries: usize, min_input: f32) -> Self {
        assert!(entries >= 2, "ExpLut needs at least 2 entries");
        assert!(min_input < 0.0, "ExpLut domain must be [min_input, 0] with min_input < 0");
        let step = -min_input / (entries - 1) as f32;
        let table = (0..entries).map(|i| (min_input + step * i as f32).exp()).collect();
        Self { table, min_input, step }
    }

    /// The default PAG configuration: 1024 entries over `[-16, 0]`,
    /// matching a 10-bit-indexed table whose worst-case quantisation error
    /// is far below the 12-bit datapath noise floor.
    pub fn pag_default() -> Self {
        Self::new(1024, -16.0)
    }

    /// Looks up `exp(x)`, clamping `x` into the table domain.
    pub fn lookup(&self, x: f32) -> f32 {
        if x >= 0.0 {
            return 1.0;
        }
        if x <= self.min_input {
            return self.table[0];
        }
        // Nearest sample, ties up: `position.round()` without the libm
        // call. `position` is positive, so truncating it and taking the
        // fraction left over are both exact.
        let position = (x - self.min_input) / self.step;
        let truncated = position as usize;
        let idx = truncated + usize::from(position - truncated as f32 >= 0.5);
        self.table[idx.min(self.table.len() - 1)]
    }

    /// Number of table entries (hardware size proxy).
    pub fn entries(&self) -> usize {
        self.table.len()
    }

    /// Lower edge of the input domain.
    pub fn min_input(&self) -> f32 {
        self.min_input
    }

    /// Worst-case absolute error over the domain (diagnostic; sampled at
    /// mid-points between table entries, where the error peaks).
    pub fn max_error(&self) -> f32 {
        let mut worst = 0.0f32;
        for i in 0..self.table.len() - 1 {
            let x = self.min_input + self.step * (i as f32 + 0.5);
            worst = worst.max((self.lookup(x) - x.exp()).abs());
        }
        worst
    }
}

/// The PAG exponent table read with the score word itself, as the
/// hardware reads its shared LUT (paper §IV-B(4)): one
/// [`ExpLut::lookup`] result per word of a score format in
/// `[⌊min_input·2^f⌋, 0]` (4097 entries for Q8.8 over `[-16, 0]`), so a
/// lookup is a multiply by `2^f`, a clamp and a load — no divide and no
/// branch. Built by [`ExpLut::indexed_by`].
///
/// **Why it returns `ExpLut::lookup`'s bits.** The PAG adds two scores
/// and looks the sum up. Every score at the PAG interface is a score word
/// times `2^-f`, and so is every f32 sum of two of them: the exact sum is
/// a multiple of `2^-f`, and where f32 cannot hold it (magnitude at least
/// `2^(24-f)`) its spacing is itself a multiple of `2^-f`. For such an
/// `x`, `x·2^f` is an exact integer, so the clamped word indexes the
/// entry built from exactly `x` when `x` lies in the table, and otherwise
/// the clamp lands where `lookup` clamps too: sums at or above 0 on the
/// `1.0` entry, sums below `⌊min_input·2^f⌋·2^-f ≤ min_input` on the
/// first entry, which is `lookup`'s `table[0]` (±∞ and NaN included). An
/// `x` off that grid may differ; the fixed-point head never produces one.
#[derive(Debug, Clone)]
pub struct ScoreExpLut {
    table: Vec<f32>,
    min_word: i32,
    scale: f32,
}

impl ScoreExpLut {
    /// `exp(x)` as [`ExpLut::lookup`] gives it, for `x` on the score grid.
    ///
    /// The clamp runs on the f32 word, where `max`/`min` are single
    /// branch-free instructions; an integer clamp after the saturating
    /// `as i32` compiles to branches that half the PAG's sums mispredict
    /// (those below the domain), which cost more than `lookup`'s divide
    /// saved. After the clamp the word is an integer in
    /// `[min_word, 0]`, so the cast is exact. `max` also sends NaN to the
    /// first entry, where `lookup` sends it.
    #[inline]
    pub fn lookup(&self, x: f32) -> f32 {
        let word = (x * self.scale).max(self.min_word as f32).min(0.0) as i32;
        self.table[(word - self.min_word) as usize]
    }

    /// [`lookup`](Self::lookup) on every element of `xs`, in place: eight
    /// words per AVX2 `vpgatherdd` where the CPU has AVX2 (detected
    /// once, cached by `std`), one `lookup` per element otherwise.
    pub fn lookup_in_place(&self, xs: &mut [f32]) {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            unsafe { self.lookup_avx2(xs) };
            return;
        }
        for x in xs {
            *x = self.lookup(*x);
        }
    }

    /// The AVX2 body of [`lookup_in_place`](Self::lookup_in_place):
    /// `lookup`'s clamp on eight lanes, then one gather. `vmaxps` returns
    /// its second operand when the first is NaN, so NaN reaches the
    /// first entry as in `lookup`; `vminps` and the truncating convert
    /// then give the same in-range word.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn lookup_avx2(&self, xs: &mut [f32]) {
        use std::arch::x86_64::{
            _mm256_cvttps_epi32, _mm256_i32gather_ps, _mm256_loadu_ps, _mm256_max_ps,
            _mm256_min_ps, _mm256_mul_ps, _mm256_set1_epi32, _mm256_set1_ps, _mm256_setzero_ps,
            _mm256_storeu_ps, _mm256_sub_epi32,
        };
        let scale = _mm256_set1_ps(self.scale);
        let min_word = _mm256_set1_ps(self.min_word as f32);
        let min_index = _mm256_set1_epi32(self.min_word);
        let mut chunks = xs.chunks_exact_mut(8);
        for chunk in &mut chunks {
            let x = _mm256_loadu_ps(chunk.as_ptr());
            let word = _mm256_min_ps(
                _mm256_max_ps(_mm256_mul_ps(x, scale), min_word),
                _mm256_setzero_ps(),
            );
            let index = _mm256_sub_epi32(_mm256_cvttps_epi32(word), min_index);
            // Every index lies in `[0, -min_word]`, inside the table.
            let y = _mm256_i32gather_ps::<4>(self.table.as_ptr(), index);
            _mm256_storeu_ps(chunk.as_mut_ptr(), y);
        }
        for x in chunks.into_remainder() {
            *x = self.lookup(*x);
        }
    }
}

impl ExpLut {
    /// Largest word-indexed table [`ExpLut::indexed_by`] builds: 64 Ki
    /// entries (256 KiB of f32).
    pub const MAX_WORD_ENTRIES: usize = 1 << 16;

    /// This table re-indexed by the words of the `score` format (see
    /// [`ScoreExpLut`]), or `None` when the domain spans more than
    /// [`ExpLut::MAX_WORD_ENTRIES`] words — callers then keep
    /// [`ExpLut::lookup`].
    pub fn indexed_by(&self, score: QFormat) -> Option<ScoreExpLut> {
        let min_word = (f64::from(self.min_input) * pow2(score.frac_bits() as i32)).floor();
        if 1.0 - min_word > Self::MAX_WORD_ENTRIES as f64 {
            return None;
        }
        let min_word = min_word as i32;
        let resolution = score.resolution();
        let table = (min_word..=0).map(|w| self.lookup(w as f32 * resolution)).collect();
        Some(ScoreExpLut { table, min_word, scale: pow2(score.frac_bits() as i32) as f32 })
    }
}

/// The reciprocal look-up table inside the Centroid Averaging unit (CAVG).
///
/// CAVG "consists of [a] Look-Up-Table indexed by possible counter values,
/// recording their reciprocals" (paper §IV-B(3)): dividing a centroid
/// accumulator by a cluster population becomes a multiply by `1/cntr`.
/// Counter values range from 1 to the maximum sequence length.
///
/// ```
/// use cta_fixed::ReciprocalLut;
/// let lut = ReciprocalLut::new(512);
/// assert_eq!(lut.lookup(4), 0.25);
/// ```
#[derive(Debug, Clone)]
pub struct ReciprocalLut {
    table: Vec<f32>,
}

impl ReciprocalLut {
    /// Builds reciprocals for counts `1..=max_count`.
    ///
    /// # Panics
    ///
    /// Panics if `max_count == 0`.
    pub fn new(max_count: usize) -> Self {
        assert!(max_count > 0, "ReciprocalLut needs max_count >= 1");
        Self { table: (1..=max_count).map(|n| 1.0 / n as f32).collect() }
    }

    /// Looks up `1/count`.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or exceeds the table size — in hardware a
    /// counter can never exceed the sequence length, so this is a model
    /// invariant violation, not a recoverable error.
    pub fn lookup(&self, count: usize) -> f32 {
        assert!(
            count >= 1 && count <= self.table.len(),
            "count {count} outside LUT range 1..={}",
            self.table.len()
        );
        self.table[count - 1]
    }

    /// Number of table entries.
    pub fn entries(&self) -> usize {
        self.table.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exp_lut_exact_at_zero_and_clamped_below() {
        let lut = ExpLut::new(256, -8.0);
        assert_eq!(lut.lookup(0.0), 1.0);
        assert_eq!(lut.lookup(5.0), 1.0);
        assert!((lut.lookup(-100.0) - (-8.0f32).exp()).abs() < 1e-6);
    }

    #[test]
    fn exp_lut_error_shrinks_with_more_entries() {
        let coarse = ExpLut::new(64, -16.0).max_error();
        let fine = ExpLut::new(4096, -16.0).max_error();
        assert!(fine < coarse, "fine {fine} should beat coarse {coarse}");
    }

    #[test]
    fn pag_default_error_below_datapath_noise() {
        // 12-bit Q6.6 resolution is 1/64 ≈ 0.0156; the LUT must be finer.
        assert!(ExpLut::pag_default().max_error() < 1.0 / 64.0);
    }

    #[test]
    #[should_panic(expected = "at least 2 entries")]
    fn exp_lut_rejects_tiny_table() {
        let _ = ExpLut::new(1, -1.0);
    }

    #[test]
    fn reciprocal_lut_matches_division() {
        let lut = ReciprocalLut::new(512);
        for n in [1usize, 2, 3, 100, 512] {
            assert!((lut.lookup(n) - 1.0 / n as f32).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "outside LUT range")]
    fn reciprocal_lut_rejects_zero() {
        let _ = ReciprocalLut::new(4).lookup(0);
    }

    #[test]
    #[should_panic(expected = "outside LUT range")]
    fn reciprocal_lut_rejects_overflow() {
        let _ = ReciprocalLut::new(4).lookup(5);
    }

    /// The reference spelling through libm: f32 `round` on the position.
    fn lookup_reference(lut: &ExpLut, x: f32) -> f32 {
        if x >= 0.0 {
            return 1.0;
        }
        if x <= lut.min_input {
            return lut.table[0];
        }
        let idx = ((x - lut.min_input) / lut.step).round() as usize;
        lut.table[idx.min(lut.table.len() - 1)]
    }

    #[test]
    fn exp_lut_lookup_matches_the_round_reference_at_exact_half_points() {
        // 1025 entries over [-16, 0]: the step is 2^-6, so every
        // midpoint `min + (i + 0.5) * step` is exact and lands on a
        // position of exactly `i + 0.5`, which rounds up.
        let lut = ExpLut::new(1025, -16.0);
        assert_eq!(lut.step, 1.0 / 64.0);
        for i in 0..1024 {
            let mid = -16.0 + (i as f32 + 0.5) / 64.0;
            assert_eq!((mid - lut.min_input) / lut.step, i as f32 + 0.5);
            assert_eq!(lut.lookup(mid), lut.table[i + 1], "midpoint {i}");
            for x in [mid, f32::from_bits(mid.to_bits() + 1), f32::from_bits(mid.to_bits() - 1)] {
                assert_eq!(lut.lookup(x).to_bits(), lookup_reference(&lut, x).to_bits(), "x={x}");
            }
        }
    }

    #[test]
    fn exp_lut_lookup_matches_the_round_reference_over_its_domain() {
        // Every 97th f32 from -0 down past the domain's lower edge, for
        // the PAG table and an odd-sized one with an inexact step.
        for lut in [ExpLut::pag_default(), ExpLut::new(777, -9.5)] {
            let below = (lut.min_input * 1.01).to_bits();
            for bits in ((-0.0f32).to_bits()..=below).step_by(97) {
                let x = f32::from_bits(bits);
                assert_eq!(lut.lookup(x).to_bits(), lookup_reference(&lut, x).to_bits(), "x={x}");
            }
            for x in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, lut.min_input] {
                assert_eq!(lut.lookup(x).to_bits(), lookup_reference(&lut, x).to_bits(), "x={x}");
            }
        }
    }

    /// Every multiple of `2^-f` from `lo` to `hi` words.
    fn grid(score: QFormat, lo: i64, hi: i64) -> impl Iterator<Item = f32> {
        let resolution = score.resolution();
        (lo..=hi).map(move |w| w as f32 * resolution)
    }

    #[test]
    fn word_table_matches_lookup_on_every_score_word_and_sum() {
        // Q8.8 over [-16, 0]: 4097 entries. Every Q8.8 word (the rails
        // included), and every sum of two words, reads the same bits as
        // `lookup` — below the domain, inside it and at or above 0.
        let score = QFormat::new(16, 8);
        let lut = ExpLut::pag_default();
        let words = lut.indexed_by(score).expect("4097 entries fit the cap");
        assert_eq!(words.table.len(), 4097);
        for x in grid(score, 2 * score.min_raw(), 2 * score.max_raw()) {
            assert_eq!(words.lookup(x).to_bits(), lut.lookup(x).to_bits(), "x={x}");
        }
        for x in [
            -0.0f32,
            0.0,
            f32::MAX,
            f32::MIN,
            1e30,
            -1e30,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ] {
            assert_eq!(words.lookup(x).to_bits(), lut.lookup(x).to_bits(), "x={x}");
        }
    }

    #[test]
    fn word_table_matches_lookup_off_the_grid_domain_and_in_other_formats() {
        // An off-grid lower edge (-15.99 is no multiple of 2^-8), an
        // odd-sized table with an inexact step, a coarse and a fine
        // format, and a 24-bit format whose sums leave f32's exact range.
        let cases = [
            (ExpLut::new(1024, -15.99), QFormat::new(16, 8)),
            (ExpLut::new(777, -9.5), QFormat::new(12, 6)),
            (ExpLut::new(1024, -16.0), QFormat::new(20, 11)),
            (ExpLut::new(300, -3.3), QFormat::new(24, 10)),
        ];
        for (lut, score) in cases {
            let words = lut.indexed_by(score).expect("within the cap");
            let min_word =
                (f64::from(lut.min_input) * f64::from(1u32 << score.frac_bits())).floor();
            assert_eq!(words.table.len() as f64, 1.0 - min_word, "{score}");
            let span = (words.table.len() as i64) * 3 / 2;
            for x in grid(score, -span, span / 4) {
                assert_eq!(words.lookup(x).to_bits(), lut.lookup(x).to_bits(), "{score} x={x}");
            }
            // Sums of two rail words, rounded to f32.
            let rail = |w: i64| w as f32 * score.resolution();
            for (a, b) in [
                (score.min_raw(), score.min_raw()),
                (score.max_raw(), score.max_raw()),
                (score.min_raw(), score.max_raw()),
                (score.min_raw() + 1, -1),
            ] {
                let x = rail(a) + rail(b);
                assert_eq!(words.lookup(x).to_bits(), lut.lookup(x).to_bits(), "{score} x={x}");
            }
        }
    }

    #[test]
    fn gathered_lookup_matches_lookup_on_every_word_sum_and_edge() {
        // Every sum of two Q8.8 words — below the domain, inside it and
        // at or above 0 — plus ±0, ±∞, NaN and huge magnitudes, through
        // `lookup_in_place` at several tail lengths; and an off-grid edge.
        let score = QFormat::new(16, 8);
        for lut in [ExpLut::pag_default(), ExpLut::new(1024, -15.99)] {
            let words = lut.indexed_by(score).expect("within the cap");
            let specials = [
                -0.0f32,
                0.0,
                f32::MAX,
                f32::MIN,
                -1e30,
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::NAN,
            ];
            let xs: Vec<f32> =
                grid(score, 2 * score.min_raw(), 2 * score.max_raw()).chain(specials).collect();
            for len in [xs.len(), 7, 8, 9, 1, 0] {
                let mut ys = xs[..len].to_vec();
                words.lookup_in_place(&mut ys);
                for (x, y) in xs.iter().zip(&ys) {
                    assert_eq!(y.to_bits(), words.lookup(*x).to_bits(), "x={x}");
                }
            }
        }
    }

    #[test]
    fn word_table_is_refused_past_the_cap() {
        // Q16.16 over [-16, 0] spans 2^20 + 1 words; one entry past
        // 64 Ki is refused too.
        assert!(ExpLut::pag_default().indexed_by(QFormat::new(32, 16)).is_none());
        let edge = -(ExpLut::MAX_WORD_ENTRIES as f32 - 1.0) / 256.0;
        assert_eq!(
            ExpLut::new(64, edge).indexed_by(QFormat::new(16, 8)).map(|w| w.table.len()),
            Some(ExpLut::MAX_WORD_ENTRIES)
        );
        let past = -(ExpLut::MAX_WORD_ENTRIES as f32) / 256.0;
        assert!(ExpLut::new(64, past).indexed_by(QFormat::new(16, 8)).is_none());
    }

    proptest! {
        #[test]
        fn word_table_matches_lookup_on_random_sums(
            a in -(1i64 << 15)..(1i64 << 15),
            b in -(1i64 << 15)..(1i64 << 15),
            entries in 2usize..5000,
            min in -20.0f32..-0.01,
        ) {
            let score = QFormat::new(16, 8);
            let lut = ExpLut::new(entries, min);
            let words = lut.indexed_by(score).expect("within the cap");
            let x = a as f32 * score.resolution() + b as f32 * score.resolution();
            prop_assert_eq!(words.lookup(x).to_bits(), lut.lookup(x).to_bits(), "x={}", x);
        }

        #[test]
        fn exp_lut_monotone_nondecreasing(a in -16.0f32..0.0, b in -16.0f32..0.0) {
            let lut = ExpLut::pag_default();
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(lut.lookup(lo) <= lut.lookup(hi) + 1e-9);
        }

        #[test]
        fn exp_lut_close_to_exact(x in -15.9f32..0.0) {
            let lut = ExpLut::pag_default();
            prop_assert!((lut.lookup(x) - x.exp()).abs() < 0.01);
        }
    }
}
