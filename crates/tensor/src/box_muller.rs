//! The Box–Muller transform over slices, eight pairs at a time where that
//! is the host's own `f32::ln`, `f32::sin` and `f32::cos` bit for bit.
//!
//! [`MatrixRng`](crate::MatrixRng) turns each pair of uniforms
//! `(u0, u1)` into two normals with the f32 spelling of
//! [`box_muller_pair`]: `r = (−2·ln u0)^½`, `θ = 2π·u1`, then
//! `(r·cos θ, r·sin θ)`. On x86-64 Linux with glibc those three calls are
//! libm's `logf`, `cosf` and `sinf` (or `sincosf`, which gives the same
//! bits), and glibc's ifunc resolvers run their FMA builds whenever the
//! CPU has FMA and AVX2. Those builds compute in f64:
//!
//! ```text
//! logf (e_logf.c)
//!   tmp = bits(x) − 0x3f330000;  i = (tmp >> 19) mod 16;  k = tmp >>ₐ 23
//!   z   = f32(bits(x) − (tmp & 0xff800000))     x = 2^k·z, z in [0.7, 1.4)
//!   r   = fma(z, 1/c[i], −1);   y0 = fma(k, ln2, ln c[i]);   r2 = r·r
//!   y   = fma(fma(A0, r2, fma(A1, r, A2)), r2, y0 + r)
//!
//! sinf/cosf (s_sinf.c, s_cosf.c, sincosf.h)
//!   |θ| < 2⁻¹²:  sin = θ, cos = 1
//!   |θ| < 120:   n = (trunc(θ·2²⁴·2/π) + 2²³) >>ₐ 24;  x = fma(−n, π/2, θ)
//!                x' = x·sign[n mod 4];  x2 = x·x
//!                S = fma(x'·x2·x2, fma(x2, s3, s2), fma(x'·x2, s1, x'))
//!                C = fma(x2²·x2, fma(x2, c4, c3), fma(x2², c2, fma(x2, c1, c0)))
//!                sin = n odd ? ±C : S,  cos = n odd ? S : ±C  (−C when n & 2)
//! ```
//!
//! and round each result to f32 once. glibc's third branch, `|θ| < π/4`
//! (in its top-12-bit test, `|θ| < 0.75`), evaluates the polynomials on
//! `θ` itself; that is the reduction with `n = 0`, which leaves `θ`
//! unchanged bit for bit, so the lanes need no blend for it. The lane
//! body below is these sequences, the same operations in the same order,
//! on eight f32 lanes widened to f64 as two `__m256d` halves (the `logf`
//! table read by `vgatherdpd`). There is no AVX-512 body: on an AVX-512
//! host it measured no faster in paper-heads set-up (EXPERIMENTS.md
//! "Normals in lanes"). The branches become
//! per-lane selections; the `−C` of the second half-turn is a sign flip
//! after rounding, which is exact because rounding to nearest is
//! symmetric and `C` is never 0 on the reduced range. The f32 steps
//! around them (`−2·ln`, the square root, `2π·u1` and the two products)
//! are the same correctly rounded f32 operations in lanes. Every lane
//! whose `u0` is not a positive normal float, or whose `θ` is NaN or has
//! `|θ| ≥ 120` (glibc's other branches), is recomputed with the scalar
//! calls.
//!
//! The lane body runs only where the resolvers' test holds (FMA and AVX2
//! usable) and where a once-per-process self-check finds it equal to
//! [`box_muller_pair`] on a spread of reachable uniforms and branch
//! edges, which catches a libm whose functions are some other functions.
//! Everywhere else [`box_muller_in_place`] calls [`box_muller_pair`] per
//! pair. `#[ignore]`d tests compare its `ln` and `sin_cos` lanes with
//! `f32::ln`, `f32::sin` and `f32::cos` on every bit pattern of the lane
//! domains, which contain all 2²⁴ uniforms `u0` and
//! all 2²⁴ angles `θ` that [`MatrixRng`](crate::MatrixRng) can draw.

/// One pair of uniforms to one pair of normals: the scalar spelling the
/// lane body reproduces bit for bit.
pub(crate) fn box_muller_pair(u0: f32, u1: f32) -> (f32, f32) {
    let r = (-2.0 * u0.ln()).sqrt();
    let theta = 2.0 * std::f32::consts::PI * u1;
    (r * theta.cos(), r * theta.sin())
}

/// Replaces every pair `(u0[i], u1[i])` with [`box_muller_pair`]`(u0[i],
/// u1[i])`, bit for bit, eight pairs at a time where the host's libm is
/// glibc's FMA build (see the module docs), one pair at a time otherwise.
///
/// # Panics
///
/// Panics if the slices' lengths differ.
pub(crate) fn box_muller_in_place(u0: &mut [f32], u1: &mut [f32]) {
    assert_eq!(u0.len(), u1.len(), "one u1 per u0");
    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    if lanes::active() {
        // SAFETY: `active` holds only where AVX2 and FMA are usable.
        unsafe { lanes::box_muller(u0, u1) };
        return;
    }
    for (a, b) in u0.iter_mut().zip(u1) {
        (*a, *b) = box_muller_pair(*a, *b);
    }
}

#[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
mod lanes {
    use std::arch::x86_64::{
        __m256, __m256d, __m256i, _mm256_add_epi32, _mm256_add_pd, _mm256_and_si256,
        _mm256_blendv_ps, _mm256_castps256_ps128, _mm256_castps_si256, _mm256_castsi256_ps,
        _mm256_castsi256_si128, _mm256_cmpgt_epi32, _mm256_cvtepi32_pd, _mm256_cvtpd_ps,
        _mm256_cvtps_pd, _mm256_cvttpd_epi32, _mm256_extractf128_ps, _mm256_extracti128_si256,
        _mm256_fmadd_pd, _mm256_fmsub_pd, _mm256_fnmadd_pd, _mm256_i32gather_pd, _mm256_loadu_ps,
        _mm256_movemask_ps, _mm256_mul_pd, _mm256_mul_ps, _mm256_set1_epi32, _mm256_set1_pd,
        _mm256_set1_ps, _mm256_set_m128, _mm256_set_m128i, _mm256_slli_epi32, _mm256_sqrt_ps,
        _mm256_srai_epi32, _mm256_srli_epi32, _mm256_storeu_ps, _mm256_sub_epi32, _mm256_xor_ps,
        _mm256_xor_si256,
    };
    use std::sync::OnceLock;

    use super::box_muller_pair;

    /// `1/c` of glibc's 16 `logf` subintervals (`__logf_data.tab[i].invc`).
    const INVC: [f64; 16] = bits([
        0x3ff661ec79f8f3be,
        0x3ff571ed4aaf883d,
        0x3ff49539f0f010b0,
        0x3ff3c995b0b80385,
        0x3ff30d190c8864a5,
        0x3ff25e227b0b8ea0,
        0x3ff1bb4a4a1a343f,
        0x3ff12358f08ae5ba,
        0x3ff0953f419900a7,
        0x3ff0000000000000,
        0x3fee608cfd9a47ac,
        0x3feca4b31f026aa0,
        0x3feb2036576afce6,
        0x3fe9c2d163a1aa2d,
        0x3fe886e6037841ed,
        0x3fe767dcf5534862,
    ]);

    /// `ln c` of the same subintervals (`__logf_data.tab[i].logc`).
    const LOGC: [f64; 16] = bits([
        0xbfd57bf7808caade,
        0xbfd2bef0a7c06ddb,
        0xbfd01eae7f513a67,
        0xbfcb31d8a68224e9,
        0xbfc6574f0ac07758,
        0xbfc1aa2bc79c8100,
        0xbfba4e76ce8c0e5e,
        0xbfb1973c5a611ccc,
        0xbfa252f438e10c1e,
        0x0000000000000000,
        0x3faaa5aa5df25984,
        0x3fbc5e53aa362eb4,
        0x3fc526e57720db08,
        0x3fcbc2860d224770,
        0x3fd1058bc8a07ee1,
        0x3fd4043057b6ee09,
    ]);

    /// `ln 2` (`__logf_data.ln2`).
    const LN2: f64 = f64::from_bits(0x3fe62e42fefa39ef);

    /// The cubic of `ln(1 + r) − r`, `A0·r⁴ + A1·r³ + A2·r²`
    /// (`__logf_data.poly`).
    const A: [f64; 3] = bits([0xbfd00ea348b88334, 0x3fd5575b0be00b6a, 0xbfdffffef20a4123]);

    /// The bits of `0x3f330000`, the low end of `z`'s range `[0.7, 1.4)`
    /// (`OFF` in e_logf.c).
    const LOG_OFF: i32 = 0x3f33_0000;

    /// `2/π·2²⁴`: the product's integer part carries the quadrant in its
    /// bits 24-31 (`__sincosf_table[0].hpi_inv`).
    const HPI_INV: f64 = f64::from_bits(0x41645f306dc9c883);

    /// `π/2` (`__sincosf_table[0].hpi`).
    const HPI: f64 = f64::from_bits(0x3ff921fb54442d18);

    /// The cosine polynomial `c0..c4` of the first table half.
    const COS: [f64; 5] = bits([
        0x3ff0000000000000,
        0xbfdffffffd0c621c,
        0x3fa55553e1068f19,
        0xbf56c087e89a359d,
        0x3ef99343027bf8c3,
    ]);

    /// The sine polynomial `s1..s3`.
    const SIN: [f64; 3] = bits([0xbfc555545995a603, 0x3f81107605230bc4, 0xbf2994eb3774cf24]);

    /// `abstop12(0x1p-12f)`: below it `sin θ = θ` and `cos θ = 1`.
    const TINY_TOP12: i32 = 0x398;

    /// `abstop12(120.0f)`: from it on (and for NaN/∞) glibc takes its
    /// slow reduction, and the lanes take the scalar calls.
    const REDUCE_END_TOP12: i32 = 0x42f;

    const fn bits<const N: usize>(words: [u64; N]) -> [f64; N] {
        let mut out = [0.0; N];
        let mut i = 0;
        while i < N {
            out[i] = f64::from_bits(words[i]);
            i += 1;
        }
        out
    }

    /// Whether [`box_muller_in_place`](super::box_muller_in_place) runs
    /// [`box_muller`]: the resolvers' test holds and the self-check
    /// passed. Decided once per process.
    pub(super) fn active() -> bool {
        static ACTIVE: OnceLock<bool> = OnceLock::new();
        *ACTIVE.get_or_init(|| {
            let (u0, u1) = self_check_pairs();
            // SAFETY: `supported` verified the features.
            supported() && unsafe { matches_box_muller_pair(&u0, &u1) }
        })
    }

    /// Whether FMA and AVX2 are usable: the resolvers' test for glibc's
    /// FMA `logf`, `sinf`, `cosf` and `sincosf`, and the lane body's
    /// features.
    pub(super) fn supported() -> bool {
        is_x86_feature_detected!("fma") && is_x86_feature_detected!("avx2")
    }

    /// The uniform `k·2⁻²⁴` that [`MatrixRng`](crate::MatrixRng) draws
    /// from the integer `k < 2²⁴`.
    pub(super) fn uniform(k: u32) -> f32 {
        (k & 0xff_ffff) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// The uniforms `u1` whose angle `2π·u1` lies within two steps of a
    /// branch edge: `2⁻¹²`, 0.75 (glibc's top-12-bit `π/4`), and every
    /// multiple of `π/4` below `2π` (the odd ones are where the
    /// reduction's quadrant changes, the even ones where the reduced
    /// angle crosses 0).
    pub(super) fn edge_uniforms() -> Vec<f32> {
        let quarter_turns = (1..8).map(|m| m as f64 * std::f64::consts::FRAC_PI_4);
        [2f64.powi(-12), 0.75]
            .into_iter()
            .chain(quarter_turns)
            .flat_map(|theta| {
                let k = (theta / std::f64::consts::TAU * (1u64 << 24) as f64).round() as u32;
                (k - 2..=k + 2).map(uniform)
            })
            .collect()
    }

    /// About 16 000 pairs: a stride through every reachable `(u0, u1)`,
    /// every edge angle at several radii, and `u0` at 1 (where `ln`
    /// returns +0) and at its smallest reachable value.
    pub(super) fn self_check_pairs() -> (Vec<f32>, Vec<f32>) {
        let strided = (0..1u32 << 14)
            .map(|i| (1.0 - uniform(i.wrapping_mul(40_503)), uniform(i.wrapping_mul(65_521))));
        let edges = edge_uniforms()
            .into_iter()
            .flat_map(|u1| [1.0, uniform(1), 0.5, 0.999].map(|u0| (u0, u1)));
        strided.chain(edges).unzip()
    }

    /// Whether [`box_muller`] gives [`box_muller_pair`]'s bits on every
    /// pair.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 and FMA support.
    unsafe fn matches_box_muller_pair(u0: &[f32], u1: &[f32]) -> bool {
        let (mut z0, mut z1) = (u0.to_vec(), u1.to_vec());
        box_muller(&mut z0, &mut z1);
        (0..u0.len()).all(|i| {
            let (c, s) = box_muller_pair(u0[i], u1[i]);
            (c.to_bits(), s.to_bits()) == (z0[i].to_bits(), z1[i].to_bits())
        })
    }

    /// Eight f64 lanes, one per f32 lane of a `__m256`, as two `__m256d`
    /// (lanes 0-3 and 4-7): the arithmetic the `logf` and `sinf`/`cosf`
    /// cores run at f64. The integer steps and the selections stay on the
    /// eight 32-bit lanes.
    ///
    /// # Safety
    ///
    /// Every method requires AVX2 and FMA; they are called only inside
    /// the lane bodies that enable them.
    #[derive(Clone, Copy)]
    struct F64x8(__m256d, __m256d);

    impl F64x8 {
        #[inline(always)]
        unsafe fn widen(x: __m256) -> Self {
            F64x8(
                _mm256_cvtps_pd(_mm256_castps256_ps128(x)),
                _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(x)),
            )
        }
        #[inline(always)]
        unsafe fn widen_i32(n: __m256i) -> Self {
            F64x8(
                _mm256_cvtepi32_pd(_mm256_castsi256_si128(n)),
                _mm256_cvtepi32_pd(_mm256_extracti128_si256::<1>(n)),
            )
        }
        #[inline(always)]
        unsafe fn narrow(self) -> __m256 {
            _mm256_set_m128(_mm256_cvtpd_ps(self.1), _mm256_cvtpd_ps(self.0))
        }
        #[inline(always)]
        unsafe fn truncate_i32(self) -> __m256i {
            _mm256_set_m128i(_mm256_cvttpd_epi32(self.1), _mm256_cvttpd_epi32(self.0))
        }
        #[inline(always)]
        unsafe fn splat(x: f64) -> Self {
            F64x8(_mm256_set1_pd(x), _mm256_set1_pd(x))
        }
        #[inline(always)]
        unsafe fn add(self, b: Self) -> Self {
            F64x8(_mm256_add_pd(self.0, b.0), _mm256_add_pd(self.1, b.1))
        }
        #[inline(always)]
        unsafe fn mul(self, b: Self) -> Self {
            F64x8(_mm256_mul_pd(self.0, b.0), _mm256_mul_pd(self.1, b.1))
        }
        /// `self·b + c`, rounded once.
        #[inline(always)]
        unsafe fn mul_add(self, b: Self, c: Self) -> Self {
            F64x8(_mm256_fmadd_pd(self.0, b.0, c.0), _mm256_fmadd_pd(self.1, b.1, c.1))
        }
        /// `self·b − c`, rounded once.
        #[inline(always)]
        unsafe fn mul_sub(self, b: Self, c: Self) -> Self {
            F64x8(_mm256_fmsub_pd(self.0, b.0, c.0), _mm256_fmsub_pd(self.1, b.1, c.1))
        }
        /// `c − self·b`, rounded once.
        #[inline(always)]
        unsafe fn neg_mul_add(self, b: Self, c: Self) -> Self {
            F64x8(_mm256_fnmadd_pd(self.0, b.0, c.0), _mm256_fnmadd_pd(self.1, b.1, c.1))
        }
        /// `table[i]` for each lane's index `i < 16`.
        #[inline(always)]
        unsafe fn lookup(table: &[f64; 16], i: __m256i) -> Self {
            F64x8(
                _mm256_i32gather_pd::<8>(table.as_ptr(), _mm256_castsi256_si128(i)),
                _mm256_i32gather_pd::<8>(table.as_ptr(), _mm256_extracti128_si256::<1>(i)),
            )
        }
    }

    /// glibc's FMA `logf` on eight lanes. Lanes outside its domain (not
    /// a positive normal float) produce garbage the caller replaces.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 and FMA; this and the helpers
    /// below are inlined into the lane bodies that do.
    #[inline(always)]
    unsafe fn ln8(x: __m256) -> __m256 {
        let ix = _mm256_castps_si256(x);
        let tmp = _mm256_sub_epi32(ix, _mm256_set1_epi32(LOG_OFF));
        let i = _mm256_and_si256(_mm256_srli_epi32::<19>(tmp), _mm256_set1_epi32(15));
        let k = _mm256_srai_epi32::<23>(tmp);
        let iz =
            _mm256_sub_epi32(ix, _mm256_and_si256(tmp, _mm256_set1_epi32(0xff80_0000u32 as i32)));
        let z = F64x8::widen(_mm256_castsi256_ps(iz));
        let r = z.mul_sub(F64x8::lookup(&INVC, i), F64x8::splat(1.0));
        let y0 = F64x8::widen_i32(k).mul_add(F64x8::splat(LN2), F64x8::lookup(&LOGC, i));
        let r2 = r.mul(r);
        let y = F64x8::splat(A[1]).mul_add(r, F64x8::splat(A[2]));
        let y = F64x8::splat(A[0]).mul_add(r2, y);
        y.mul_add(r2, y0.add(r)).narrow()
    }

    /// glibc's FMA `sinf` and `cosf` on eight lanes, as `(sin, cos)`.
    /// Lanes with `|θ| ≥ 120` or NaN produce garbage the caller replaces.
    ///
    /// # Safety
    ///
    /// As [`ln8`].
    #[inline(always)]
    unsafe fn sin_cos8(theta: __m256) -> (__m256, __m256) {
        let one = _mm256_set1_epi32(1);
        let x = F64x8::widen(theta);
        // reduce_fast: the quadrant n and x − n·π/2.
        let scaled = x.mul(F64x8::splat(HPI_INV)).truncate_i32();
        let n = _mm256_srai_epi32::<24>(_mm256_add_epi32(scaled, _mm256_set1_epi32(0x80_0000)));
        let x = F64x8::widen_i32(n).neg_mul_add(F64x8::splat(HPI), x);
        // sign[n & 3] = (1, −1, −1, 1): −1 where bits 0 and 1 of n differ.
        let negative = _mm256_and_si256(_mm256_xor_si256(n, _mm256_srli_epi32::<1>(n)), one);
        let sign = F64x8::widen_i32(_mm256_sub_epi32(one, _mm256_slli_epi32::<1>(negative)));
        let xs = x.mul(sign);
        let x2 = x.mul(x);
        // sinf_poly's even branch on x·sign.
        let x3 = xs.mul(x2);
        let s1 = x2.mul_add(F64x8::splat(SIN[2]), F64x8::splat(SIN[1]));
        let x7 = x3.mul(x2);
        let s = x3.mul_add(F64x8::splat(SIN[0]), xs);
        let sine = x7.mul_add(s1, s).narrow();
        // Its odd branch, on the first table half's coefficients.
        let x4 = x2.mul(x2);
        let c2 = x2.mul_add(F64x8::splat(COS[4]), F64x8::splat(COS[3]));
        let c1 = x2.mul_add(F64x8::splat(COS[1]), F64x8::splat(COS[0]));
        let x6 = x4.mul(x2);
        let c = x4.mul_add(F64x8::splat(COS[2]), c1);
        let cosine = x6.mul_add(c2, c).narrow();
        // The second half (n & 2) negates the cosine polynomial; odd n
        // swaps the two.
        let flip = _mm256_slli_epi32::<30>(_mm256_and_si256(n, _mm256_set1_epi32(2)));
        let cosine = _mm256_xor_ps(cosine, _mm256_castsi256_ps(flip));
        let odd = _mm256_castsi256_ps(_mm256_slli_epi32::<31>(n));
        let (sin, cos) = (_mm256_blendv_ps(sine, cosine, odd), _mm256_blendv_ps(cosine, sine, odd));
        let tiny =
            _mm256_castsi256_ps(_mm256_cmpgt_epi32(_mm256_set1_epi32(TINY_TOP12), top12(theta)));
        (_mm256_blendv_ps(sin, theta, tiny), _mm256_blendv_ps(cos, _mm256_set1_ps(1.0), tiny))
    }

    /// `(bits >> 20) & 0x7ff` per lane: glibc's `abstop12`.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2.
    #[inline(always)]
    unsafe fn top12(x: __m256) -> __m256i {
        _mm256_and_si256(_mm256_srli_epi32::<20>(_mm256_castps_si256(x)), _mm256_set1_epi32(0x7ff))
    }

    /// The lanes (as a bit mask) that leave the lane domains: `u0` not a
    /// positive normal float, or `θ` NaN or `|θ| ≥ 120`.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2.
    #[inline(always)]
    unsafe fn outside(u0: __m256, theta: __m256) -> i32 {
        let iu = _mm256_castps_si256(u0);
        let normal = _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_and_si256(
            _mm256_cmpgt_epi32(iu, _mm256_set1_epi32(0x007f_ffff)),
            _mm256_cmpgt_epi32(_mm256_set1_epi32(0x7f80_0000), iu),
        )));
        let wide = _mm256_cmpgt_epi32(top12(theta), _mm256_set1_epi32(REDUCE_END_TOP12 - 1));
        !normal & 0xff | _mm256_movemask_ps(_mm256_castsi256_ps(wide))
    }

    /// [`box_muller_pair`] on eight pairs in place, the lanes outside the
    /// domains recomputed with the scalar calls.
    ///
    /// # Safety
    ///
    /// As [`ln8`].
    #[inline(always)]
    unsafe fn box_muller8(a: &mut [f32; 8], b: &mut [f32; 8]) {
        let u0 = _mm256_loadu_ps(a.as_ptr());
        let u1 = _mm256_loadu_ps(b.as_ptr());
        let r = _mm256_sqrt_ps(_mm256_mul_ps(_mm256_set1_ps(-2.0), ln8(u0)));
        let theta = _mm256_mul_ps(_mm256_set1_ps(2.0 * std::f32::consts::PI), u1);
        let (sin, cos) = sin_cos8(theta);
        let special = outside(u0, theta);
        let inputs = (*a, *b);
        _mm256_storeu_ps(a.as_mut_ptr(), _mm256_mul_ps(r, cos));
        _mm256_storeu_ps(b.as_mut_ptr(), _mm256_mul_ps(r, sin));
        if special != 0 {
            for l in (0..8).filter(|l| special & (1 << l) != 0) {
                (a[l], b[l]) = box_muller_pair(inputs.0[l], inputs.1[l]);
            }
        }
    }

    /// The lane body: [`box_muller_pair`] for every pair of the two
    /// slices (of equal length), eight at a time, the ragged tail padded
    /// with the pair `(1, 0)`, which stays inside the lane domains.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 and FMA support.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn box_muller(u0: &mut [f32], u1: &mut [f32]) {
        let (mut ca, mut cb) = (u0.chunks_exact_mut(8), u1.chunks_exact_mut(8));
        for (x, y) in (&mut ca).zip(&mut cb) {
            box_muller8(x.try_into().expect("chunks of 8"), y.try_into().expect("chunks of 8"));
        }
        let (ra, rb) = (ca.into_remainder(), cb.into_remainder());
        if !ra.is_empty() {
            let (mut pa, mut pb) = ([1.0f32; 8], [0.0f32; 8]);
            pa[..ra.len()].copy_from_slice(ra);
            pb[..rb.len()].copy_from_slice(rb);
            box_muller8(&mut pa, &mut pb);
            ra.copy_from_slice(&pa[..ra.len()]);
            rb.copy_from_slice(&pb[..rb.len()]);
        }
    }

    /// `x.ln()` on eight lanes of the `logf` domain.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 and FMA support.
    #[cfg(test)]
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn ln(x: &mut [f32; 8]) {
        _mm256_storeu_ps(x.as_mut_ptr(), ln8(_mm256_loadu_ps(x.as_ptr())));
    }

    /// `(θ.sin(), θ.cos())` on eight lanes with `|θ| < 120`: the sines
    /// replace the angles, the cosines fill the second array.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 and FMA support.
    #[cfg(test)]
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn sin_cos(theta: &mut [f32; 8], cos: &mut [f32; 8]) {
        let (s, c) = sin_cos8(_mm256_loadu_ps(theta.as_ptr()));
        _mm256_storeu_ps(theta.as_mut_ptr(), s);
        _mm256_storeu_ps(cos.as_mut_ptr(), c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn box_muller_in_place_is_box_muller_pair_bitwise() {
        // Every length up to two vectors plus a tail, through whichever
        // body this host runs.
        for len in 0..20u32 {
            let u0: Vec<f32> = (0..len).map(|i| 1.0 - 0.049 * i as f32).collect();
            let u1: Vec<f32> = (0..len).map(|i| 0.051 * i as f32).collect();
            let (mut z0, mut z1) = (u0.clone(), u1.clone());
            box_muller_in_place(&mut z0, &mut z1);
            for i in 0..len as usize {
                let (c, s) = box_muller_pair(u0[i], u1[i]);
                assert_eq!(
                    (z0[i].to_bits(), z1[i].to_bits()),
                    (c.to_bits(), s.to_bits()),
                    "len {len}"
                );
            }
        }
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    mod lane_body {
        use super::super::{box_muller_pair, lanes};

        #[test]
        fn lane_body_runs_where_glibc_runs_its_fma_libm() {
            // The resolvers' test is the lane body's, and on such a host
            // the self-check must pass: a failure here means this libm's
            // `logf`, `sinf` or `cosf` is not the function the lane body
            // spells.
            assert_eq!(lanes::active(), lanes::supported());
        }

        /// [`box_muller_pair`]'s bits from the lane body, where the host
        /// runs it, on the pairs.
        fn assert_lanes_match(u0: &[f32], u1: &[f32]) {
            if !lanes::supported() {
                return;
            }
            let (mut z0, mut z1) = (u0.to_vec(), u1.to_vec());
            // SAFETY: `supported` verified the features.
            unsafe { lanes::box_muller(&mut z0, &mut z1) };
            for i in 0..u0.len() {
                let (c, s) = box_muller_pair(u0[i], u1[i]);
                assert_eq!(
                    (z0[i].to_bits(), z1[i].to_bits()),
                    (c.to_bits(), s.to_bits()),
                    "u0 = {:e}, u1 = {:e}",
                    u0[i],
                    u1[i]
                );
            }
        }

        #[test]
        fn lanes_are_box_muller_pair_at_the_edges_and_outside_the_domains() {
            let (u0, u1) = lanes::self_check_pairs();
            assert_lanes_match(&u0, &u1);
            // Inputs glibc sends to other branches take the scalar calls:
            // u0 of 0, subnormal, negative, ∞ or NaN; θ of 120 and beyond,
            // ∞ or NaN; each beside in-domain lanes, at every ragged length.
            let u0_outside =
                [0.0, f32::from_bits(1), -0.5, -0.0, f32::INFINITY, f32::NAN, 0.25, 1.0, 3.0];
            let u1_outside = [
                0.5,
                120.0 / std::f32::consts::TAU,
                19.1,
                1e30,
                f32::INFINITY,
                f32::NAN,
                -0.3,
                0.0,
                0.7,
            ];
            for len in 0..=u0_outside.len() {
                assert_lanes_match(&u0_outside[..len], &u1_outside[..len]);
            }
            let u1_all: Vec<f32> = u1_outside.iter().flat_map(|&u| [u; 9]).collect();
            let u0_all: Vec<f32> = (0..9).flat_map(|_| u0_outside).collect();
            assert_lanes_match(&u0_all, &u1_all);
        }

        /// Checks `f32::ln` against the `ln` lanes on `xs`, where the
        /// host runs them.
        fn assert_ln_matches(xs: &[f32]) {
            if !lanes::supported() {
                return;
            }
            for chunk in xs.chunks(8) {
                let mut lane = [1.0f32; 8];
                lane[..chunk.len()].copy_from_slice(chunk);
                // SAFETY: `supported` verified the features.
                unsafe { lanes::ln(&mut lane) };
                for (x, y) in chunk.iter().zip(lane) {
                    assert_eq!(y.to_bits(), x.ln().to_bits(), "ln {x:e}");
                }
            }
        }

        /// Checks `f32::sin` and `f32::cos` against the `sin_cos` lanes,
        /// where the host runs them.
        fn assert_sin_cos_match(thetas: &[f32]) {
            if !lanes::supported() {
                return;
            }
            for chunk in thetas.chunks(8) {
                let (mut sin, mut cos) = ([0.0f32; 8], [0.0f32; 8]);
                sin[..chunk.len()].copy_from_slice(chunk);
                // SAFETY: `supported` verified the features.
                unsafe { lanes::sin_cos(&mut sin, &mut cos) };
                for (i, t) in chunk.iter().enumerate() {
                    assert_eq!(sin[i].to_bits(), t.sin().to_bits(), "sin {t:e}");
                    assert_eq!(cos[i].to_bits(), t.cos().to_bits(), "cos {t:e}");
                }
            }
        }

        /// The angle `2π·u1` in f32, as [`box_muller_pair`] spells it.
        fn angle(u1: f32) -> f32 {
            2.0 * std::f32::consts::PI * u1
        }

        #[test]
        fn ln_and_sin_cos_lanes_are_libm_on_a_stride_and_at_the_branch_edges() {
            // u0 = 1 (where logf returns +0), the smallest reachable u0,
            // a stride through the reachable ones and through every
            // positive normal float.
            let reachable = (0..1u32 << 14).map(|i| 1.0 - lanes::uniform(i.wrapping_mul(1021)));
            let normals = (0..1u32 << 14).map(|i| f32::from_bits(0x0080_0000 + i * 0x7eff));
            let u0: Vec<f32> =
                [1.0, lanes::uniform(1)].into_iter().chain(reachable).chain(normals).collect();
            assert_ln_matches(&u0);
            // Angles within two steps of 2⁻¹², 0.75, π/4 and each multiple
            // of π/4, a stride through the reachable ones, both signs of
            // the tiny branch's edge, and a stride through |θ| < 120.
            let edges = lanes::edge_uniforms().into_iter().map(angle);
            let reachable = (0..1u32 << 14).map(|i| angle(lanes::uniform(i.wrapping_mul(1021))));
            let signed = [0.0f32, -0.0, 2f32.powi(-12), -(2f32.powi(-12)), f32::from_bits(1)]
                .into_iter()
                .flat_map(|t| [t, f32::from_bits(t.to_bits() + 1), -t]);
            let wide = (0..1u32 << 14).map(|i| f32::from_bits((i * 0x42ef) | (i & 1) << 31));
            let thetas: Vec<f32> = edges.chain(reachable).chain(signed).chain(wide).collect();
            assert!(thetas.iter().all(|t| t.abs() < 120.0));
            assert_sin_cos_match(&thetas);
        }

        /// Runs `check` over every bit pattern in `lo..hi` and their
        /// negations if `signed`, on two threads.
        fn every_pattern(lo: u32, hi: u32, signed: bool, check: fn(&[f32])) {
            const CHUNK: u32 = 1 << 12;
            let mid = lo + (hi - lo) / 2;
            std::thread::scope(|scope| {
                for (start, end) in [(lo, mid), (mid, hi)] {
                    scope.spawn(move || {
                        let mut xs = Vec::with_capacity(2 * CHUNK as usize);
                        for base in (start..end).step_by(CHUNK as usize) {
                            xs.clear();
                            for b in base..end.min(base + CHUNK) {
                                xs.push(f32::from_bits(b));
                                if signed {
                                    xs.push(f32::from_bits(b | 1 << 31));
                                }
                            }
                            check(&xs);
                        }
                    });
                }
            });
        }

        /// Every positive normal float through the `ln` lanes:
        /// the whole domain the lanes serve, which holds all 2²⁴ reachable
        /// `u0 = 1 − k·2⁻²⁴` (≈10 s in a release build):
        /// `cargo test --release -p cta-tensor --lib -- --ignored`.
        #[test]
        #[ignore = "exhaustive: run in release with --ignored"]
        fn ln_lanes_are_f32_ln_on_every_bit_pattern_of_their_domain() {
            assert!(lanes::uniform(1).is_normal());
            every_pattern(0x0080_0000, 0x7f80_0000, false, assert_ln_matches);
        }

        /// Every `|θ| < 120` through the `sin_cos` lanes: the
        /// whole domain the lanes serve, which holds all 2²⁴ reachable
        /// `θ = 2π·k·2⁻²⁴` (≈30 s in a release build).
        #[test]
        #[ignore = "exhaustive: run in release with --ignored"]
        fn sin_cos_lanes_are_f32_sin_and_cos_on_every_bit_pattern_of_their_domain() {
            assert!(angle(lanes::uniform(u32::MAX)) < 120.0);
            every_pattern(0, 0x42f0_0000, true, assert_sin_cos_match);
        }
    }
}
