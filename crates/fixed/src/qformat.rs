//! Runtime Q-format descriptors.

use std::fmt;

/// A two's-complement fixed-point format: `total_bits` bits of which
/// `frac_bits` are fractional (the sign bit counts toward the integer part).
///
/// A raw word `r` represents the real value `r / 2^frac_bits`, with `r`
/// ranging over `[-2^(total_bits-1), 2^(total_bits-1) - 1]`.
///
/// ```
/// use cta_fixed::QFormat;
///
/// let q = QFormat::new(13, 7); // the paper's token format, Q6.7
/// assert_eq!(q.resolution(), 1.0 / 128.0);
/// assert_eq!(q.quantize(0.5), 64);
/// assert_eq!(q.dequantize(64), 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QFormat {
    total_bits: u32,
    frac_bits: u32,
}

impl QFormat {
    /// Creates a format with `total_bits` total bits, `frac_bits` of them
    /// fractional.
    ///
    /// # Panics
    ///
    /// Panics (at compile time in const contexts) if `total_bits` is 0,
    /// greater than 32, or not strictly greater than `frac_bits` (at least
    /// the sign bit must remain).
    pub const fn new(total_bits: u32, frac_bits: u32) -> Self {
        assert!(total_bits > 0 && total_bits <= 32, "total_bits must be in 1..=32");
        assert!(frac_bits < total_bits, "frac_bits must leave at least the sign bit");
        Self { total_bits, frac_bits }
    }

    /// Total word width in bits.
    pub const fn total_bits(self) -> u32 {
        self.total_bits
    }

    /// Number of fractional bits.
    pub const fn frac_bits(self) -> u32 {
        self.frac_bits
    }

    /// Number of integer bits (including the sign bit).
    pub const fn int_bits(self) -> u32 {
        self.total_bits - self.frac_bits
    }

    /// Smallest representable increment, `2^-frac_bits`.
    pub fn resolution(self) -> f32 {
        pow2(-(self.frac_bits as i32)) as f32
    }

    /// Largest representable raw word.
    pub const fn max_raw(self) -> i64 {
        (1i64 << (self.total_bits - 1)) - 1
    }

    /// Smallest (most negative) representable raw word.
    pub const fn min_raw(self) -> i64 {
        -(1i64 << (self.total_bits - 1))
    }

    /// Largest representable real value.
    pub fn max_value(self) -> f32 {
        self.dequantize(self.max_raw())
    }

    /// Smallest representable real value.
    pub fn min_value(self) -> f32 {
        self.dequantize(self.min_raw())
    }

    /// Quantizes a real value: scale by `2^frac_bits`, round to nearest
    /// (ties away from zero), saturate to the representable range. NaN
    /// quantizes to 0.
    ///
    /// Equal to `(x · 2^frac).round()` clamped to the rails, spelled
    /// without a libm call: the product is exact in f64, clamping first
    /// commutes with rounding (the rails are integers and rounding is
    /// monotone), and after the clamp `|scaled| <= 2^31`, so truncation
    /// and the fraction left over are exact too.
    pub fn quantize(self, x: f32) -> i64 {
        if x.is_nan() {
            return 0;
        }
        let scaled = (x as f64 * pow2(self.frac_bits as i32))
            .max(self.min_raw() as f64)
            .min(self.max_raw() as f64);
        let truncated = scaled as i64;
        let fraction = scaled - truncated as f64;
        // Branch-free: the fraction's side of ±0.5 is data, not pattern.
        truncated + i64::from(fraction >= 0.5) - i64::from(fraction <= -0.5)
    }

    /// Reconstructs the real value of a raw word.
    pub fn dequantize(self, raw: i64) -> f32 {
        (raw as f64 * pow2(-(self.frac_bits as i32))) as f32
    }

    /// Quantizes and immediately dequantizes — the value the hardware
    /// actually sees for input `x`.
    pub fn round_trip(self, x: f32) -> f32 {
        self.dequantize(self.quantize(x))
    }

    /// Saturating addition of two raw words in this format.
    pub fn saturating_add(self, a: i64, b: i64) -> i64 {
        (a + b).clamp(self.min_raw(), self.max_raw())
    }

    /// Multiplies raw words in formats `self` and `rhs`, requantising the
    /// exact product into `out` (round-to-nearest on the discarded
    /// fractional bits, saturating on overflow).
    pub fn multiply_into(self, a: i64, rhs: QFormat, b: i64, out: QFormat) -> i64 {
        let product = a as i128 * b as i128; // frac = self.frac + rhs.frac
        let in_frac = self.frac_bits + rhs.frac_bits;
        rescale(product, in_frac, out)
    }
}

/// `2^e` as an f64, built from its exponent field: exact, and no libm
/// `exp2` call. `e` must lie in the normal range `-1022..=1023`; the
/// formats here need only `-32..=32`.
pub(crate) const fn pow2(e: i32) -> f64 {
    f64::from_bits(((1023 + e) as u64) << 52)
}

/// Rescales a raw value with `in_frac` fractional bits into format `out`,
/// rounding to nearest and saturating.
///
/// This is the **authoritative write-back rounding rule** for every
/// kernel variant (scalar, SIMD): round to nearest, ties
/// **away from zero** — the same rule `QFormat::quantize` applies to
/// its f64 product. It rounds the magnitude, `(|raw| + half) >> shift`,
/// and restores the sign, because an arithmetic right shift on a
/// negative value truncates toward −∞, which would bias ties toward
/// −∞ instead; rounding the magnitude makes the tie at `-half` round to
/// `-1`, not `0`. The sign is applied branch-free (`(x ^ s) - s` with
/// `s` all ones for a negative `raw`): output signs are data, and a
/// mispredicted branch per word costs more than the product it rounds.
/// The `rescale_agrees_with_quantize_*` tests pin the two paths
/// together at the ± half-ULP boundaries.
pub(crate) fn rescale(raw: i128, in_frac: u32, out: QFormat) -> i64 {
    let out_frac = out.frac_bits();
    let shifted = if out_frac >= in_frac {
        raw << (out_frac - in_frac)
    } else {
        let shift = in_frac - out_frac;
        let half = 1i128 << (shift - 1);
        // Round half away from zero, matching QFormat::quantize.
        let sign = raw >> 127;
        let magnitude = (raw ^ sign) - sign;
        (((magnitude + half) >> shift) ^ sign) - sign
    };
    shifted.clamp(out.min_raw() as i128, out.max_raw() as i128) as i64
}

/// [`QFormat::quantize`] over a slice, written into `dst`: the entry
/// pass of [`QuantizedMatrix::quantize`](crate::QuantizedMatrix::quantize).
/// Four lanes per AVX step where the CPU has AVX (detected once, cached
/// by `std`), one `quantize` per element otherwise.
///
/// # Panics
///
/// Panics if `src` and `dst` differ in length.
pub(crate) fn quantize_words(src: &[f32], format: QFormat, dst: &mut [i64]) {
    assert_eq!(src.len(), dst.len(), "quantize_words: source and destination lengths differ");
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx") {
        // SAFETY: AVX support was just verified at runtime.
        return unsafe { quantize_words_avx(src, format, dst) };
    }
    for (o, &x) in dst.iter_mut().zip(src) {
        *o = format.quantize(x);
    }
}

/// The AVX body of [`quantize_words`]: `quantize`'s steps on four f64
/// lanes. The widening and the power-of-two scale are exact; `vmaxpd`
/// returns its second operand (the lower rail) for a NaN, whose lane is
/// zeroed at the end as `quantize` returns 0; the rounding to zero is
/// `as i64`'s truncation, exact for the clamped value; and the ±1 for a
/// fraction past ±0.5 is exact on an integer below `2^32`, as is the
/// conversion of the result to i32.
///
/// # Safety
///
/// The caller must have verified AVX support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn quantize_words_avx(src: &[f32], format: QFormat, dst: &mut [i64]) {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_and_pd, _mm256_andnot_pd, _mm256_cmp_pd, _mm256_cvtpd_epi32,
        _mm256_cvtps_pd, _mm256_max_pd, _mm256_min_pd, _mm256_mul_pd, _mm256_round_pd,
        _mm256_set1_pd, _mm256_sub_pd, _mm_loadu_ps, _mm_storeu_si128, _CMP_GE_OQ, _CMP_LE_OQ,
        _CMP_UNORD_Q, _MM_FROUND_NO_EXC, _MM_FROUND_TO_ZERO,
    };
    let scale = _mm256_set1_pd(pow2(format.frac_bits() as i32));
    let (lo, hi) =
        (_mm256_set1_pd(format.min_raw() as f64), _mm256_set1_pd(format.max_raw() as f64));
    let (half, neg_half, one) = (_mm256_set1_pd(0.5), _mm256_set1_pd(-0.5), _mm256_set1_pd(1.0));
    let mut words = [0i32; 4];
    let mut chunks = dst.chunks_exact_mut(4);
    for (o, x) in (&mut chunks).zip(src.chunks_exact(4)) {
        let x = _mm256_cvtps_pd(_mm_loadu_ps(x.as_ptr()));
        let scaled = _mm256_min_pd(_mm256_max_pd(_mm256_mul_pd(x, scale), lo), hi);
        let truncated = _mm256_round_pd::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(scaled);
        let fraction = _mm256_sub_pd(scaled, truncated);
        let up = _mm256_and_pd(_mm256_cmp_pd::<_CMP_GE_OQ>(fraction, half), one);
        let down = _mm256_and_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(fraction, neg_half), one);
        let rounded = _mm256_sub_pd(_mm256_add_pd(truncated, up), down);
        let rounded = _mm256_andnot_pd(_mm256_cmp_pd::<_CMP_UNORD_Q>(x, x), rounded);
        _mm_storeu_si128(words.as_mut_ptr().cast(), _mm256_cvtpd_epi32(rounded));
        for (o, &w) in o.iter_mut().zip(&words) {
            *o = i64::from(w);
        }
    }
    let done = src.len() - chunks.into_remainder().len();
    for (o, &x) in dst[done..].iter_mut().zip(&src[done..]) {
        *o = format.quantize(x);
    }
}

/// [`rescale`] over a slice of words that fit i32 — exact i32-lane sums
/// or the words of any format — written into `dst`: the write-back pass
/// of the i16-tile products and of [`QuantizedMatrix::convert_shifted`](crate::QuantizedMatrix::convert_shifted).
///
/// The same rule in i64 arithmetic with every shift hoisted out of the
/// loop: a magnitude of at most `2^31`, shifted left by at most 31 bits
/// (`out` has at most 31 fractional bits) or right by at most 62, never
/// leaves i64, so the loop needs no i128 and no branch per word. Right
/// shifts above 62 fall back to [`rescale`] itself. The
/// `rescale_words_*` tests pin the two bit for bit.
///
/// # Panics
///
/// Panics if `src` and `dst` differ in length.
pub(crate) fn rescale_words<T: Copy + Into<i64>, U: From<i32>>(
    src: &[T],
    in_frac: u32,
    out: QFormat,
    dst: &mut [U],
) {
    assert_eq!(src.len(), dst.len(), "rescale_words: source and destination lengths differ");
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl") {
            // SAFETY: AVX-512F/VL support was just verified at runtime.
            return unsafe { rescale_words_avx512(src, in_frac, out, dst) };
        }
        if is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            return unsafe { rescale_words_avx2(src, in_frac, out, dst) };
        }
    }
    rescale_words_body(src, in_frac, out, dst);
}

/// [`rescale_words`] compiled for AVX-512, whose packed 64-bit
/// arithmetic shift, min and max keep every step of the loop in lanes.
///
/// # Safety
///
/// The caller must have verified AVX-512F and AVX-512VL support at
/// runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl")]
unsafe fn rescale_words_avx512<T: Copy + Into<i64>, U: From<i32>>(
    src: &[T],
    in_frac: u32,
    out: QFormat,
    dst: &mut [U],
) {
    rescale_words_body(src, in_frac, out, dst);
}

/// [`rescale_words`] compiled for AVX2, where the loop runs four i64
/// lanes wide (baseline x86-64 has no packed 64-bit compare for the
/// clamp).
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn rescale_words_avx2<T: Copy + Into<i64>, U: From<i32>>(
    src: &[T],
    in_frac: u32,
    out: QFormat,
    dst: &mut [U],
) {
    rescale_words_body(src, in_frac, out, dst);
}

/// The one body of [`rescale_words`], inlined into each compilation.
#[inline(always)]
fn rescale_words_body<T: Copy + Into<i64>, U: From<i32>>(
    src: &[T],
    in_frac: u32,
    out: QFormat,
    dst: &mut [U],
) {
    let (left, right) =
        (out.frac_bits().saturating_sub(in_frac), in_frac.saturating_sub(out.frac_bits()));
    // `as i32` is exact after the clamp: every format fits 32 bits.
    let (lo, hi) = (out.min_raw(), out.max_raw());
    if right > 62 {
        for (o, &x) in dst.iter_mut().zip(src) {
            *o = U::from(rescale(i128::from(x.into()), in_frac, out) as i32);
        }
        return;
    }
    let half = (1i64 << right) >> 1;
    for (o, &x) in dst.iter_mut().zip(src) {
        let x: i64 = x.into();
        debug_assert!(i32::try_from(x).is_ok(), "rescale_words: word {x} does not fit i32");
        let sign = x >> 63;
        let magnitude = (x ^ sign) - sign;
        let rounded = ((((magnitude << left) + half) >> right) ^ sign) - sign;
        *o = U::from(rounded.clamp(lo, hi) as i32);
    }
}

impl fmt::Display for QFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}.{} ({} bits)", self.int_bits(), self.frac_bits, self.total_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const TOKEN: QFormat = QFormat::new(13, 7);

    #[test]
    fn resolution_matches_frac_bits() {
        assert_eq!(TOKEN.resolution(), 1.0 / 128.0);
        assert_eq!(QFormat::new(12, 6).resolution(), 1.0 / 64.0);
    }

    #[test]
    fn range_matches_paper_token_format() {
        // Q6.7: raw in [-4096, 4095] => values in [-32, 31.9921875].
        assert_eq!(TOKEN.max_raw(), 4095);
        assert_eq!(TOKEN.min_raw(), -4096);
        assert_eq!(TOKEN.min_value(), -32.0);
        assert!((TOKEN.max_value() - 31.992_188).abs() < 1e-6);
    }

    #[test]
    fn quantize_rounds_to_nearest() {
        // 0.5039... is closer to 0.5078125 (raw 65)? 0.504 * 128 = 64.51 -> 65.
        assert_eq!(TOKEN.quantize(0.504), 65);
        assert_eq!(TOKEN.quantize(0.5), 64);
        assert_eq!(TOKEN.quantize(-0.5), -64);
    }

    #[test]
    fn quantize_saturates() {
        assert_eq!(TOKEN.quantize(1000.0), TOKEN.max_raw());
        assert_eq!(TOKEN.quantize(-1000.0), TOKEN.min_raw());
        assert_eq!(TOKEN.quantize(f32::NAN), 0);
    }

    #[test]
    fn saturating_add_clamps() {
        assert_eq!(TOKEN.saturating_add(4000, 4000), TOKEN.max_raw());
        assert_eq!(TOKEN.saturating_add(-4000, -4000), TOKEN.min_raw());
        assert_eq!(TOKEN.saturating_add(10, 20), 30);
    }

    #[test]
    fn multiply_into_exact_when_formats_allow() {
        // 0.5 (Q6.7) * 2.0 (Q6.6) = 1.0 in Q6.6.
        let a = TOKEN.quantize(0.5);
        let c = QFormat::new(12, 6);
        let b = c.quantize(2.0);
        let r = TOKEN.multiply_into(a, c, b, c);
        assert_eq!(c.dequantize(r), 1.0);
    }

    #[test]
    fn display_shows_q_notation() {
        assert_eq!(format!("{TOKEN}"), "Q6.7 (13 bits)");
    }

    #[test]
    fn rescale_rounds_negative_half_ulp_away_from_zero() {
        // in_frac 10 -> TOKEN (frac 7): shift = 3, half = 4. A raw of
        // exactly ±half is a tie on the true quotient ±0.5 and must
        // round away from zero — truncation would give 0 for both.
        assert_eq!(rescale(4, 10, TOKEN), 1);
        assert_eq!(rescale(-4, 10, TOKEN), -1);
        // Odd multiples of half are all ties: ±1.5 -> ±2.
        assert_eq!(rescale(12, 10, TOKEN), 2);
        assert_eq!(rescale(-12, 10, TOKEN), -2);
        // Just inside the tie rounds toward zero.
        assert_eq!(rescale(3, 10, TOKEN), 0);
        assert_eq!(rescale(-3, 10, TOKEN), 0);
        assert_eq!(rescale(5, 10, TOKEN), 1);
        assert_eq!(rescale(-5, 10, TOKEN), -1);
    }

    #[test]
    fn rescale_agrees_with_quantize_at_half_ulp_boundaries() {
        // A raw word with in_frac fractional bits is the exact real
        // value raw / 2^in_frac; rescaling it must land on the same
        // word quantize picks for that value. Scan every tie and
        // near-tie around zero plus the representable rails.
        let in_frac = 12u32; // shift = 5 into TOKEN's 7 frac bits
        for raw in -2048i128..=2048 {
            let value = raw as f64 / f64::from(1u32 << in_frac);
            let direct = TOKEN.quantize(value as f32);
            let rescaled = rescale(raw, in_frac, TOKEN);
            assert_eq!(rescaled, direct, "raw={raw} value={value}");
        }
    }

    /// The reference spelling through libm: f64 `exp2` and `round`.
    fn quantize_reference(q: QFormat, x: f32) -> i64 {
        if x.is_nan() {
            return 0;
        }
        let scaled = (x as f64) * (q.frac_bits() as f64).exp2();
        (scaled.round() as i64).clamp(q.min_raw(), q.max_raw())
    }

    /// Formats from one bit to 32, with no and with all-but-one
    /// fractional bits.
    const SWEEP_FORMATS: [QFormat; 8] = [
        QFormat::new(1, 0),
        QFormat::new(8, 2),
        QFormat::new(12, 6),
        QFormat::new(13, 7),
        QFormat::new(16, 8),
        QFormat::new(24, 8),
        QFormat::new(32, 0),
        QFormat::new(32, 31),
    ];

    #[test]
    fn pow2_equals_exp2_bit_for_bit() {
        for e in 0..=32 {
            assert_eq!(pow2(e).to_bits(), (e as f64).exp2().to_bits(), "2^{e}");
            assert_eq!(pow2(-e).to_bits(), (-e as f64).exp2().to_bits(), "2^-{e}");
        }
    }

    #[test]
    fn quantize_matches_the_round_reference_at_ties_rails_and_specials() {
        let specials = [
            0.0f32,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            -f32::from_bits(1),
            4_503_599_627_370_496.0, // 2^52
            -4_503_599_627_370_496.0,
        ];
        for q in SWEEP_FORMATS {
            let lsb = q.resolution();
            let mut xs: Vec<f32> = specials.to_vec();
            // Half-LSB ties of both signs and their neighbours, around
            // zero and at both rails, plus values just past the rails
            // and near 2^52 in the scaled domain.
            for r in (-40i64..40)
                .chain(q.min_raw() - 3..q.min_raw() + 3)
                .chain(q.max_raw() - 3..q.max_raw() + 3)
            {
                let tie = (r as f64 + 0.5) * lsb as f64;
                for x in [tie, -tie] {
                    let x = x as f32;
                    xs.extend([
                        x,
                        f32::from_bits(x.to_bits() + 1),
                        f32::from_bits(x.to_bits() - 1),
                    ]);
                }
            }
            for e in [50, 51, 52, 53] {
                let near = (e as f64 - q.frac_bits() as f64).exp2() as f32;
                xs.extend([near, -near, near * 1.5, -near * 1.5]);
            }
            // And a stride through every f32 bit pattern.
            xs.extend((0..=u32::MAX).step_by(65_521).map(f32::from_bits));
            for &x in &xs {
                assert_eq!(q.quantize(x), quantize_reference(q, x), "{q} x={x:e}");
            }
            // The slice pass, at every tail length, against `quantize`.
            for len in (xs.len() - 7..=xs.len()).chain(0..9) {
                let mut words = vec![0i64; len];
                quantize_words(&xs[..len], q, &mut words);
                for (&x, &w) in xs.iter().zip(&words) {
                    assert_eq!(w, q.quantize(x), "quantize_words {q} x={x:e}");
                }
            }
        }
    }

    /// One compilation of `rescale_words` over i64 words.
    type RescaleBody<U> = unsafe fn(&[i64], u32, QFormat, &mut [U]);

    /// Every compilation of `rescale_words` this host runs — the
    /// dispatched one, the portable body and each instruction-set build —
    /// by name.
    fn rescale_bodies<U: From<i32>>() -> Vec<(&'static str, RescaleBody<U>)> {
        let mut bodies: Vec<(&'static str, RescaleBody<U>)> = vec![
            ("dispatched", rescale_words::<i64, U>),
            ("portable", rescale_words_body::<i64, U>),
        ];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                bodies.push(("avx2", rescale_words_avx2::<i64, U>));
            }
            if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl") {
                bodies.push(("avx512", rescale_words_avx512::<i64, U>));
            }
        }
        bodies
    }

    /// Every `rescale_words` body into i64 and i32 destinations against
    /// `rescale` per word.
    fn assert_rescale_words_matches(words: &[i64], in_frac: u32, out: QFormat) {
        let expected: Vec<i64> =
            words.iter().map(|&x| rescale(i128::from(x), in_frac, out)).collect();
        for (name, body) in rescale_bodies::<i64>() {
            let mut wide = vec![0i64; words.len()];
            // SAFETY: `rescale_bodies` lists only bodies the host runs.
            unsafe { body(words, in_frac, out, &mut wide) };
            assert_eq!(wide, expected, "{name} i64: {out} in_frac={in_frac}");
        }
        for (name, body) in rescale_bodies::<i32>() {
            let mut narrow = vec![0i32; words.len()];
            // SAFETY: as above.
            unsafe { body(words, in_frac, out, &mut narrow) };
            let narrow: Vec<i64> = narrow.into_iter().map(i64::from).collect();
            assert_eq!(narrow, expected, "{name} i32: {out} in_frac={in_frac}");
        }
    }

    #[test]
    fn rescale_words_matches_rescale_at_ties_rails_and_every_shift() {
        // Every word around zero (ties of both signs at every shift), the
        // i32 rails and powers of two either side, from shifts left by up
        // to 31 bits to right shifts past the i64 fallback at 62.
        let mut words: Vec<i64> = (-4100..=4100).collect();
        for e in 0..31 {
            let p = 1i64 << e;
            words.extend([p - 1, p, p + 1, -p - 1, -p, -p + 1]);
        }
        words.extend([i64::from(i32::MIN), i64::from(i32::MAX), i64::from(i32::MIN) + 1]);
        for out in SWEEP_FORMATS {
            for in_frac in (0..=40).chain([61, 62, 63, 64, 70, 95]) {
                assert_rescale_words_matches(&words, in_frac, out);
            }
        }
        let sums: Vec<i32> = words.iter().map(|&x| x as i32).collect();
        let mut from_i32 = vec![0i64; sums.len()];
        rescale_words(&sums, 16, QFormat::new(12, 6), &mut from_i32);
        let mut from_i64 = vec![0i64; words.len()];
        rescale_words(&words, 16, QFormat::new(12, 6), &mut from_i64);
        assert_eq!(from_i32, from_i64);
    }

    proptest! {
        #[test]
        fn rescale_words_matches_rescale_on_any_i32(
            x in i32::MIN..=i32::MAX,
            in_frac in 0u32..80,
            out in 0usize..8,
        ) {
            assert_rescale_words_matches(&[i64::from(x)], in_frac, SWEEP_FORMATS[out]);
        }

        #[test]
        fn quantize_matches_the_round_reference_on_any_bit_pattern(bits in 0u32..=u32::MAX) {
            let x = f32::from_bits(bits);
            for q in SWEEP_FORMATS {
                prop_assert_eq!(q.quantize(x), quantize_reference(q, x), "{} x={:e}", q, x);
                let mut words = [0i64; 5];
                quantize_words(&[x, -x, x, x * 0.5, x], q, &mut words);
                prop_assert_eq!(words[0], q.quantize(x), "quantize_words {} x={:e}", q, x);
                prop_assert_eq!(words[1], q.quantize(-x), "quantize_words {} x={:e}", q, -x);
                prop_assert_eq!(words[3], q.quantize(x * 0.5), "quantize_words {} x={:e}", q, x * 0.5);
                prop_assert_eq!(words[4], q.quantize(x), "quantize_words tail {} x={:e}", q, x);
            }
        }

        #[test]
        fn rescale_matches_round_half_away_reference(
            raw in -(1i64 << 40)..(1i64 << 40),
            in_frac in 0u32..24,
        ) {
            let raw = raw as i128;
            // |raw| < 2^40 and a power-of-two divisor: the f64 quotient
            // is exact, and f64 round() is round-half-away-from-zero —
            // an independent spelling of the authoritative rule.
            let out = QFormat::new(32, 7);
            let quotient = raw as f64 / f64::from(1u32 << in_frac) * 128.0;
            let expected =
                (quotient.round() as i128).clamp(out.min_raw() as i128, out.max_raw() as i128);
            prop_assert_eq!(rescale(raw, in_frac, out) as i128, expected);
        }

        #[test]
        fn round_trip_error_bounded_by_half_lsb(x in -31.0f32..31.0) {
            let err = (TOKEN.round_trip(x) - x).abs();
            prop_assert!(err <= TOKEN.resolution() / 2.0 + 1e-6);
        }

        #[test]
        fn quantize_is_monotone(a in -40.0f32..40.0, b in -40.0f32..40.0) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(TOKEN.quantize(lo) <= TOKEN.quantize(hi));
        }

        #[test]
        fn dequantize_inverts_quantize_on_representable(r in -4096i64..=4095) {
            prop_assert_eq!(TOKEN.quantize(TOKEN.dequantize(r)), r);
        }
    }
}
