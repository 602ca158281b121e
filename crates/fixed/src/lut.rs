//! Hardware look-up tables: exponent (PAG) and reciprocal (CAVG).

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

    proptest! {
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
