//! `f32::exp` over a slice, eight lanes at a time where that is the
//! host's own `f32::exp` bit for bit.
//!
//! On x86-64 Linux with glibc, `f32::exp` is libm's `expf`, and glibc's
//! ifunc resolver runs its FMA build whenever the CPU has FMA and AVX2.
//! That build (`sysdeps/ieee754/flt-32/e_expf.c` compiled with
//! `-mfma -mavx2`) computes, in f64,
//!
//! ```text
//! kd = fma(32/ln2, x, 1.5·2^52)      the fused shift-round: k = round(32x/ln2)
//! r  = fma(32/ln2, x, -(kd - 1.5·2^52))
//! s  = 2^(k/32) = bits(T[k mod 32] + (k << 47))
//! y  = fma(fma(C0, r, C1), r·r, fma(C2, r, 1)) · s
//! ```
//!
//! and rounds `y` to f32 once. The lane bodies below are that sequence,
//! the same operations in the same order, on eight f32 lanes widened to
//! f64: one `__m512d` with the table read by two `vpermt2q` and a blend
//! where the CPU has AVX-512F, two `__m256d` halves with the table read
//! by `vpgatherqq` otherwise. Every step is an IEEE-exact or correctly
//! rounded operation (a fused multiply-add, a multiply, a subtraction, a
//! conversion, an integer add), and vector width changes none of them,
//! so each lane reproduces the scalar call bit for bit. Inputs with
//! `|x| ≥ 88` or NaN — the branch glibc sends to its special cases — are
//! recomputed with the scalar call.
//!
//! The lane bodies run only where the resolver's own test holds (FMA
//! and AVX2 usable) and where a once-per-process self-check finds the
//! widest one equal to `f32::exp` on a spread of inputs, which catches a
//! libm whose `expf` is some other function. Everywhere else
//! [`exp_in_place`] calls `f32::exp` per element. An `#[ignore]`d test
//! compares every body the host runs with `f32::exp` on all 2³² bit
//! patterns.

/// Replaces every `x` in `xs` with `x.exp()`, bit for bit, eight lanes
/// at a time where the host's `f32::exp` is glibc's FMA `expf` (see the
/// module docs), one call per element otherwise.
pub fn exp_in_place(xs: &mut [f32]) {
    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    if let Some(body) = lanes::active() {
        // SAFETY: `active` returns only a body whose CPU features it
        // verified.
        unsafe { body(xs) };
        return;
    }
    for x in xs {
        *x = x.exp();
    }
}

#[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
mod lanes {
    use std::arch::x86_64::{
        __m256, __m256d, _mm256_add_epi64, _mm256_and_si256, _mm256_castpd_si256,
        _mm256_castps256_ps128, _mm256_castps_si256, _mm256_castsi256_pd, _mm256_castsi256_ps,
        _mm256_cmpgt_epi32, _mm256_cvtpd_ps, _mm256_cvtps_pd, _mm256_extractf128_ps,
        _mm256_fmadd_pd, _mm256_fmsub_pd, _mm256_i64gather_epi64, _mm256_loadu_ps,
        _mm256_movemask_ps, _mm256_mul_pd, _mm256_set1_epi32, _mm256_set1_epi64x, _mm256_set1_pd,
        _mm256_set_m128, _mm256_slli_epi64, _mm256_srli_epi32, _mm256_storeu_ps, _mm256_sub_pd,
        _mm512_add_epi64, _mm512_castpd_si512, _mm512_castsi512_pd, _mm512_cvtpd_ps,
        _mm512_cvtps_pd, _mm512_fmadd_pd, _mm512_fmsub_pd, _mm512_loadu_epi64,
        _mm512_mask_blend_epi64, _mm512_mul_pd, _mm512_permutex2var_epi64, _mm512_set1_epi64,
        _mm512_set1_pd, _mm512_slli_epi64, _mm512_sub_pd, _mm512_test_epi64_mask,
    };
    use std::sync::OnceLock;

    /// `2^(i/32)` rounded to f64, minus `i << 47` from its bits, so that
    /// adding `k << 47` for any `k ≡ i (mod 32)` scales it by `2^⌊k/32⌋`
    /// (glibc's `__exp2f_data.tab`).
    pub(super) const TABLE: [u64; 32] = [
        0x3ff0000000000000,
        0x3fefd9b0d3158574,
        0x3fefb5586cf9890f,
        0x3fef9301d0125b51,
        0x3fef72b83c7d517b,
        0x3fef54873168b9aa,
        0x3fef387a6e756238,
        0x3fef1e9df51fdee1,
        0x3fef06fe0a31b715,
        0x3feef1a7373aa9cb,
        0x3feedea64c123422,
        0x3feece086061892d,
        0x3feebfdad5362a27,
        0x3feeb42b569d4f82,
        0x3feeab07dd485429,
        0x3feea47eb03a5585,
        0x3feea09e667f3bcd,
        0x3fee9f75e8ec5f74,
        0x3feea11473eb0187,
        0x3feea589994cce13,
        0x3feeace5422aa0db,
        0x3feeb737b0cdc5e5,
        0x3feec49182a3f090,
        0x3feed503b23e255d,
        0x3feee89f995ad3ad,
        0x3feeff76f2fb5e47,
        0x3fef199bdd85529c,
        0x3fef3720dcef9069,
        0x3fef5818dcfba487,
        0x3fef7c97337b9b5f,
        0x3fefa4afa2a490da,
        0x3fefd0765b6e4540,
    ];

    /// `32/ln 2` (`__exp2f_data.invln2_scaled`).
    const INV_LN2_N: f64 = f64::from_bits(0x40471547652b82fe);

    /// `1.5·2^52`: adding it rounds to an integer in the low mantissa
    /// bits (`__exp2f_data.shift`).
    const SHIFT: f64 = f64::from_bits(0x4338000000000000);

    /// The cubic's coefficients of `2^(r/32)`, highest degree first
    /// (`__exp2f_data.poly_scaled`).
    const C: [f64; 3] = [
        f64::from_bits(0x3ebc6af84b912394),
        f64::from_bits(0x3f2ebfce50fac4f3),
        f64::from_bits(0x3f962e42ff0c52d6),
    ];

    /// `(bits >> 20) & 0x7ff` of `88.0f32` minus one: a lane whose top
    /// bits exceed it has `|x| ≥ 88` or is NaN/∞ and takes the scalar
    /// call, exactly the inputs glibc sends to its special-case branch.
    const LAST_PLAIN_TOP12: i32 = 0x42a;

    /// A lane body: `x.exp()` for every `x` of the slice. Unsafe to call
    /// unless the body's CPU features are present.
    pub(super) type Body = unsafe fn(&mut [f32]);

    /// The body [`exp_in_place`](super::exp_in_place) runs: the widest
    /// one the host has, if the ifunc resolver's test holds and the
    /// self-check passed. Decided once per process.
    pub(super) fn active() -> Option<Body> {
        static ACTIVE: OnceLock<Option<Body>> = OnceLock::new();
        *ACTIVE.get_or_init(|| {
            let (_, body) = *bodies().first()?;
            // SAFETY: `bodies` lists only bodies whose features it verified.
            unsafe { matches_f32_exp(body, self_check_inputs()) }.then_some(body)
        })
    }

    /// Every lane body this host runs, widest first; none unless FMA and
    /// AVX2 are usable (the resolver's test for glibc's FMA `expf`).
    pub(super) fn bodies() -> Vec<(&'static str, Body)> {
        let mut bodies: Vec<(&'static str, Body)> = Vec::new();
        if is_x86_feature_detected!("fma") && is_x86_feature_detected!("avx2") {
            if is_x86_feature_detected!("avx512f") {
                bodies.push(("avx512", exp_slice_avx512));
            }
            bodies.push(("avx2", exp_slice_avx2));
        }
        bodies
    }

    /// About 20 000 inputs: a stride through every bit pattern, a dense
    /// run over `[-104, 1]` (where the PAG's sums lie), and the special
    /// cases' thresholds with their neighbours.
    pub(super) fn self_check_inputs() -> Vec<f32> {
        let strided = (0..1u32 << 14).map(|i| f32::from_bits(i.wrapping_mul(262_139)));
        let dense = (0..4096).map(|i| -104.0 + i as f32 * (105.0 / 4096.0));
        strided.chain(dense).chain(thresholds()).collect()
    }

    /// glibc's special-case thresholds (`|x| = 88`, overflow past
    /// `0x1.62e42ep6`, underflow below `-0x1.9fe368p6` and
    /// `-0x1.9d1d9ep6`), the largest finite values, ±0, ±∞ and NaN, each
    /// with its two neighbouring bit patterns.
    pub(super) fn thresholds() -> Vec<f32> {
        let edges = [
            88.0f32,
            -88.0,
            f32::from_bits(0x42b17217),
            f32::from_bits(0xc2cff1b4),
            f32::from_bits(0xc2ce8ecf),
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        edges
            .iter()
            .flat_map(|x| {
                let b = x.to_bits();
                [b.wrapping_sub(1), b, b.wrapping_add(1)].map(f32::from_bits)
            })
            .collect()
    }

    /// Whether `body` gives `f32::exp`'s bits on every input.
    ///
    /// # Safety
    ///
    /// The caller must have verified `body`'s CPU features.
    unsafe fn matches_f32_exp(body: Body, inputs: Vec<f32>) -> bool {
        let mut lanes = inputs.clone();
        body(&mut lanes);
        inputs.iter().zip(&lanes).all(|(x, y)| x.exp().to_bits() == y.to_bits())
    }

    /// Runs `eight` on every 8-lane chunk of `xs`, the ragged tail padded
    /// with zeros.
    #[inline(always)]
    fn each_eight(xs: &mut [f32], mut eight: impl FnMut(&mut [f32; 8])) {
        let mut chunks = xs.chunks_exact_mut(8);
        for chunk in &mut chunks {
            eight(chunk.try_into().expect("chunks of 8"));
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            let mut padded = [0.0f32; 8];
            padded[..rest.len()].copy_from_slice(rest);
            eight(&mut padded);
            rest.copy_from_slice(&padded[..rest.len()]);
        }
    }

    /// Stores the eight `lanes` into `out`, then recomputes with the
    /// scalar call every lane whose input `x` has `|x| ≥ 88` or is NaN.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn store_with_special_lanes(out: &mut [f32; 8], x: __m256, lanes: __m256) {
        let top12 = _mm256_and_si256(
            _mm256_srli_epi32::<20>(_mm256_castps_si256(x)),
            _mm256_set1_epi32(0x7ff),
        );
        let special = _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(
            top12,
            _mm256_set1_epi32(LAST_PLAIN_TOP12),
        )));
        if special != 0 {
            let mut inputs = [0.0f32; 8];
            _mm256_storeu_ps(inputs.as_mut_ptr(), x);
            _mm256_storeu_ps(out.as_mut_ptr(), lanes);
            for (l, (o, x)) in out.iter_mut().zip(inputs).enumerate() {
                if special & (1 << l) != 0 {
                    *o = x.exp();
                }
            }
        } else {
            _mm256_storeu_ps(out.as_mut_ptr(), lanes);
        }
    }

    /// The AVX-512 body: each 8-lane chunk widened into one `__m512d`,
    /// the table held in four registers and read with two `vpermt2q`
    /// (entries 0-15 and 16-31 by the index's low four bits) and a blend
    /// on its fifth bit.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX-512F, AVX2 and FMA support.
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(super) unsafe fn exp_slice_avx512(xs: &mut [f32]) {
        let table = TABLE.as_ptr().cast::<i64>();
        let quarters = [0, 8, 16, 24].map(|at| _mm512_loadu_epi64(table.add(at)));
        let inv_ln2_n = _mm512_set1_pd(INV_LN2_N);
        let shift = _mm512_set1_pd(SHIFT);
        each_eight(xs, |chunk| {
            let x = _mm256_loadu_ps(chunk.as_ptr());
            let xd = _mm512_cvtps_pd(x);
            let kd = _mm512_fmadd_pd(inv_ln2_n, xd, shift);
            let ki = _mm512_castpd_si512(kd);
            let kd = _mm512_sub_pd(kd, shift);
            let r = _mm512_fmsub_pd(inv_ln2_n, xd, kd);
            let low = _mm512_permutex2var_epi64(quarters[0], ki, quarters[1]);
            let high = _mm512_permutex2var_epi64(quarters[2], ki, quarters[3]);
            let t = _mm512_mask_blend_epi64(
                _mm512_test_epi64_mask(ki, _mm512_set1_epi64(16)),
                low,
                high,
            );
            let s = _mm512_castsi512_pd(_mm512_add_epi64(t, _mm512_slli_epi64::<47>(ki)));
            let z = _mm512_fmadd_pd(_mm512_set1_pd(C[0]), r, _mm512_set1_pd(C[1]));
            let r2 = _mm512_mul_pd(r, r);
            let y = _mm512_fmadd_pd(_mm512_set1_pd(C[2]), r, _mm512_set1_pd(1.0));
            let y = _mm512_mul_pd(_mm512_fmadd_pd(z, r2, y), s);
            store_with_special_lanes(chunk, x, _mm512_cvtpd_ps(y));
        });
    }

    /// The AVX2 body: each 8-lane chunk as two `__m256d` halves, the
    /// table read with `vpgatherqq`.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 and FMA support.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn exp_slice_avx2(xs: &mut [f32]) {
        each_eight(xs, |chunk| {
            let x = _mm256_loadu_ps(chunk.as_ptr());
            let lo = _mm256_cvtpd_ps(exp4(_mm256_cvtps_pd(_mm256_castps256_ps128(x))));
            let hi = _mm256_cvtpd_ps(exp4(_mm256_cvtps_pd(_mm256_extractf128_ps::<1>(x))));
            store_with_special_lanes(chunk, x, _mm256_set_m128(hi, lo));
        });
    }

    /// glibc's FMA `expf` core on four f64 lanes, before the final
    /// rounding to f32. Lanes past the plain range produce garbage that
    /// [`store_with_special_lanes`] overwrites.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn exp4(xd: __m256d) -> __m256d {
        let inv_ln2_n = _mm256_set1_pd(INV_LN2_N);
        let shift = _mm256_set1_pd(SHIFT);
        let kd = _mm256_fmadd_pd(inv_ln2_n, xd, shift);
        let ki = _mm256_castpd_si256(kd);
        let kd = _mm256_sub_pd(kd, shift);
        let r = _mm256_fmsub_pd(inv_ln2_n, xd, kd);
        let index = _mm256_and_si256(ki, _mm256_set1_epi64x(31));
        let t = _mm256_i64gather_epi64::<8>(TABLE.as_ptr().cast(), index);
        let s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)));
        let z = _mm256_fmadd_pd(_mm256_set1_pd(C[0]), r, _mm256_set1_pd(C[1]));
        let r2 = _mm256_mul_pd(r, r);
        let y = _mm256_fmadd_pd(_mm256_set1_pd(C[2]), r, _mm256_set1_pd(1.0));
        _mm256_mul_pd(_mm256_fmadd_pd(z, r2, y), s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_in_place_is_f32_exp_bitwise() {
        // Every length up to two vectors plus a tail, through whichever
        // body this host runs.
        for len in 0..20 {
            let xs: Vec<f32> = (0..len).map(|i| -3.0 + 0.37 * i as f32).collect();
            let mut ys = xs.clone();
            exp_in_place(&mut ys);
            let want: Vec<u32> = xs.iter().map(|x| x.exp().to_bits()).collect();
            assert_eq!(ys.iter().map(|y| y.to_bits()).collect::<Vec<_>>(), want, "len {len}");
        }
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    mod lane_body {
        use super::super::lanes;

        #[test]
        fn table_is_two_to_the_i_over_32() {
            for (i, &t) in lanes::TABLE.iter().enumerate() {
                let entry = f64::from_bits(t + ((i as u64) << 47));
                assert_eq!(entry, (i as f64 / 32.0).exp2(), "entry {i}");
            }
        }

        #[test]
        fn lane_body_runs_where_glibc_runs_its_fma_expf() {
            // The resolver's test is the lane bodies', and on such a host
            // the self-check must pass: a failure here means this libm's
            // `expf` is not the function the lane bodies spell.
            let widest = lanes::bodies().first().map(|&(_, body)| body as usize);
            assert_eq!(lanes::active().map(|body| body as usize), widest);
        }

        /// `f32::exp`'s bits from every lane body the host runs — so an
        /// AVX-512 host still checks the AVX2 body — on `inputs`.
        fn assert_every_body_matches(inputs: &[f32]) {
            for (name, body) in lanes::bodies() {
                let mut ys = inputs.to_vec();
                // SAFETY: `bodies` lists only bodies whose features it verified.
                unsafe { body(&mut ys) };
                for (x, y) in inputs.iter().zip(&ys) {
                    assert_eq!(
                        y.to_bits(),
                        x.exp().to_bits(),
                        "{name}: x = {x:e} ({:#010x})",
                        x.to_bits()
                    );
                }
            }
        }

        #[test]
        fn lane_bodies_are_f32_exp_on_a_stride_and_at_the_thresholds() {
            // A stride of about a million bit patterns, glibc's
            // special-case thresholds and the self-check's inputs, at a
            // ragged length.
            let strided = (0..1u32 << 20).map(|i| f32::from_bits(i.wrapping_mul(4099)));
            let inputs: Vec<f32> =
                strided.chain(lanes::thresholds()).chain(lanes::self_check_inputs()).collect();
            assert_every_body_matches(&inputs);
            for len in 0..17 {
                assert_every_body_matches(&lanes::thresholds()[..len]);
            }
        }

        /// All 2³² inputs through every body, on two threads (≈25 s per
        /// body in a release build):
        /// `cargo test --release -p cta-tensor --lib -- --ignored every_bit_pattern`.
        #[test]
        #[ignore = "exhaustive: run in release with --ignored"]
        fn lane_bodies_are_f32_exp_on_every_bit_pattern() {
            const CHUNK: u64 = 1 << 12;
            let half = (1u64 << 32) / 2;
            std::thread::scope(|scope| {
                for start in [0, half] {
                    scope.spawn(move || {
                        let mut xs = vec![0.0f32; CHUNK as usize];
                        for base in (start..start + half).step_by(CHUNK as usize) {
                            for (o, b) in xs.iter_mut().zip(base..) {
                                *o = f32::from_bits(b as u32);
                            }
                            assert_every_body_matches(&xs);
                        }
                    });
                }
            });
        }
    }
}
