//! The token-lane body of [`LshFamily::hash_matrix`](crate::LshFamily::hash_matrix).
//!
//! Sixteen tokens at a time: a block's rows are transposed (in
//! registers, on AVX2) so that each dimension `j` is one 16-lane vector
//! `x[t][j]` over the block's tokens, and every direction keeps one
//! 16-lane accumulator, in register groups of at most [`GROUP`]
//! directions, so any `l` works. Each lane adds its terms exactly as
//! [`LshFamily::hash_value`](crate::LshFamily::hash_value) does for one
//! token: in ascending `d`, a multiply then an add, never a fused
//! multiply-add. The bias is added after the sum, and the bucket is
//! [`bucket_of`] per lane: an f64 divide, a floor, a clamp to the i32
//! rails and a truncation. Vectorizing across *tokens* reorders no term
//! within a projection, so every code is the scalar one bit for bit.
//! (The lanes start each sum from `+0.0` and the scalar `Iterator::sum`
//! from `-0.0`; that can change only the sign of a zero projection, and
//! both zeros fall in bucket 0.)
//!
//! A non-finite projection panics with the scalar message, naming the
//! first non-finite `(token, direction)` in token-major order, as the
//! scalar loop would.
//!
//! There is one body, generic over the lane type ([`Lanes`]): two AVX2
//! registers, or a plain array for the baseline target, and
//! [`hash_rows`] runs the AVX2 one where the CPU has it. Tests pin both
//! to the scalar loop. (A third lane type, one AVX-512 register with a
//! 16×16 register transpose, hashed 512 tokens of dimension 64 in 8.0
//! against the AVX2 body's 9.5 µs, but moved paper-heads throughput by
//! less than its run-to-run spread, so it is not kept.)

use crate::family::{bucket_of, not_finite};

/// Tokens per block: one lane each.
const LANES: usize = 16;

/// Directions per register group: six 16-lane accumulators are twelve
/// AVX2 registers, which leaves room for the token vector and the
/// broadcast direction entry.
const GROUP: usize = 6;

/// One compilation of the body: hashes the `out.len() / b.len()` rows
/// of `x` into `out`, token-major.
#[cfg(test)]
pub(crate) type Body = unsafe fn(&[f32], usize, &[f32], &[f32], f32, &mut [i32]);

/// Hashes the rows of the row-major `n × d` token matrix `x` with the
/// `l × d` directions `a`, the `l` biases `b` and the bucket width `w`,
/// writing the `n · l` codes token-major into `out`.
///
/// # Panics
///
/// Panics if the shapes disagree, or if a projection is not finite,
/// with the message of [`LshFamily::hash_value`](crate::LshFamily::hash_value).
pub(crate) fn hash_rows(x: &[f32], d: usize, a: &[f32], b: &[f32], w: f32, out: &mut [i32]) {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            return unsafe { hash_rows_avx2(x, d, a, b, w, out) };
        }
    }
    hash_rows_portable(x, d, a, b, w, out);
}

/// [`hash_rows`] for the baseline target: sixteen-element arrays.
fn hash_rows_portable(x: &[f32], d: usize, a: &[f32], b: &[f32], w: f32, out: &mut [i32]) {
    // SAFETY: the portable lanes need no CPU feature.
    unsafe { hash_rows_body::<[f32; LANES]>(x, d, a, b, w, out) };
}

/// [`hash_rows`] compiled for AVX2: two `__m256` per accumulator.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn hash_rows_avx2(x: &[f32], d: usize, a: &[f32], b: &[f32], w: f32, out: &mut [i32]) {
    // SAFETY: the caller verified AVX2.
    unsafe { hash_rows_body::<x86::Ymm2>(x, d, a, b, w, out) };
}

/// Sixteen f32 lanes, one token each, and the few operations the body
/// runs on them. Every operation is the IEEE one per lane.
trait Lanes: Copy {
    /// `x_t[j][t] = rows[t][j]` for the `m ≤ LANES` rows of `rows`
    /// (each `d` long), with the lanes past `m` zeroed.
    unsafe fn transpose(rows: &[f32], d: usize, m: usize, x_t: &mut [[f32; LANES]]);
    /// Every lane `+0.0`.
    unsafe fn zero() -> Self;
    /// The lanes of `x`.
    unsafe fn load(x: &[f32; LANES]) -> Self;
    /// `self + a · x` per lane: a multiply, then an add.
    unsafe fn mul_add(self, a: f32, x: Self) -> Self;
    /// `self + b` per lane.
    unsafe fn add(self, b: f32) -> Self;
    /// Writes the lanes to `out`.
    unsafe fn store(self, out: &mut [f32; LANES]);
}

/// The one body of [`hash_rows`], inlined into each compilation.
///
/// # Safety
///
/// The CPU must run `V`'s instructions.
#[inline(always)]
unsafe fn hash_rows_body<V: Lanes>(
    x: &[f32],
    d: usize,
    a: &[f32],
    b: &[f32],
    w: f32,
    out: &mut [i32],
) {
    let l = b.len();
    assert_eq!(a.len(), l * d, "hash_rows: directions are not l × d");
    let n = out.len() / l;
    assert_eq!(x.len(), n * d, "hash_rows: tokens are not n × d");
    // The directions dimension-major (`a_t[j·l + i] = a[i][j]`), so step
    // `j` reads one contiguous run of `l` entries.
    let mut a_t = vec![0.0f32; d * l];
    for i in 0..l {
        for j in 0..d {
            a_t[j * l + i] = a[i * d + j];
        }
    }
    let mut x_t = vec![[0.0f32; LANES]; d];
    let mut proj = vec![[0.0f32; LANES]; l];
    for (block, codes) in out.chunks_mut(LANES * l).enumerate() {
        let m = codes.len() / l;
        let rows = &x[block * LANES * d..(block * LANES + m) * d];
        // SAFETY: the caller guarantees `V`'s features.
        unsafe {
            V::transpose(rows, d, m, &mut x_t);
            for g in (0..l).step_by(GROUP) {
                let group = &mut proj[g..(g + GROUP).min(l)];
                match group.len() {
                    1 => project::<V, 1>(&x_t, &a_t, l, g, b, group),
                    2 => project::<V, 2>(&x_t, &a_t, l, g, b, group),
                    3 => project::<V, 3>(&x_t, &a_t, l, g, b, group),
                    4 => project::<V, 4>(&x_t, &a_t, l, g, b, group),
                    5 => project::<V, 5>(&x_t, &a_t, l, g, b, group),
                    _ => project::<V, GROUP>(&x_t, &a_t, l, g, b, group),
                }
            }
        }
        let mut finite = [true; LANES];
        for (i, p) in proj.iter().enumerate() {
            let buckets: [i32; LANES] = std::array::from_fn(|t| bucket_of(p[t], w));
            finite = std::array::from_fn(|t| finite[t] & p[t].is_finite());
            for (code, &v) in codes.chunks_exact_mut(l).zip(&buckets) {
                code[i] = v;
            }
        }
        if finite[..m].contains(&false) {
            for t in 0..m {
                for (i, p) in proj.iter().enumerate() {
                    if !p[t].is_finite() {
                        not_finite(i, p[t]);
                    }
                }
            }
        }
    }
}

/// The projections of directions `g..g + G` over one block into
/// `proj`: `G` accumulators that start at `+0.0` and add
/// `a[i][j] · x[t][j]` in ascending `j`, then the bias `b[i]`.
///
/// # Safety
///
/// The CPU must run `V`'s instructions.
#[inline(always)]
unsafe fn project<V: Lanes, const G: usize>(
    x_t: &[[f32; LANES]],
    a_t: &[f32],
    l: usize,
    g: usize,
    b: &[f32],
    proj: &mut [[f32; LANES]],
) {
    // SAFETY: the caller guarantees `V`'s features.
    unsafe {
        let mut acc = [V::zero(); G];
        for (xj, aj) in x_t.iter().zip(a_t.chunks_exact(l)) {
            let aj: &[f32; G] = aj[g..g + G].try_into().expect("group inside the code");
            let xj = V::load(xj);
            for (acc, &aij) in acc.iter_mut().zip(aj) {
                *acc = acc.mul_add(aij, xj);
            }
        }
        for ((p, acc), &bias) in proj.iter_mut().zip(acc).zip(&b[g..]) {
            acc.add(bias).store(p);
        }
    }
}

impl Lanes for [f32; LANES] {
    #[inline(always)]
    unsafe fn transpose(rows: &[f32], d: usize, m: usize, x_t: &mut [[f32; LANES]]) {
        transpose_columns(rows, d, m, 0, x_t);
    }

    #[inline(always)]
    unsafe fn zero() -> Self {
        [0.0; LANES]
    }

    #[inline(always)]
    unsafe fn load(x: &[f32; LANES]) -> Self {
        *x
    }

    #[inline(always)]
    unsafe fn mul_add(self, a: f32, x: Self) -> Self {
        std::array::from_fn(|t| self[t] + a * x[t])
    }

    #[inline(always)]
    unsafe fn add(self, b: f32) -> Self {
        self.map(|v| v + b)
    }

    #[inline(always)]
    unsafe fn store(self, out: &mut [f32; LANES]) {
        *out = self;
    }
}

/// The transpose of columns `from..d`, one element at a time.
#[inline(always)]
fn transpose_columns(rows: &[f32], d: usize, m: usize, from: usize, x_t: &mut [[f32; LANES]]) {
    for (j, lanes) in x_t.iter_mut().enumerate().skip(from) {
        for (t, lane) in lanes.iter_mut().enumerate() {
            *lane = if t < m { rows[t * d + j] } else { 0.0 };
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_castpd_ps, _mm256_castps_pd, _mm256_loadu_ps, _mm256_mul_ps,
        _mm256_permute2f128_ps, _mm256_set1_ps, _mm256_setzero_ps, _mm256_storeu_ps,
        _mm256_unpackhi_pd, _mm256_unpackhi_ps, _mm256_unpacklo_pd, _mm256_unpacklo_ps,
    };

    use super::{transpose_columns, Lanes, LANES};

    /// The sixteen lanes in two AVX2 registers.
    #[derive(Clone, Copy)]
    pub(super) struct Ymm2([__m256; 2]);

    impl Lanes for Ymm2 {
        /// Eight columns at a time, as one 8×8 transpose in eight
        /// registers per half of the lanes: three rounds of unpacks and
        /// 128-bit lane permutes.
        #[inline(always)]
        unsafe fn transpose(rows: &[f32], d: usize, m: usize, x_t: &mut [[f32; LANES]]) {
            assert!(rows.len() >= m * d && m <= LANES && x_t.len() >= d);
            let full = d - d % 8;
            for c in (0..full).step_by(8) {
                for half in 0..2 {
                    let first = 8 * half;
                    // SAFETY: row `t < m` holds columns `c..c + 8` (c + 8 <= d).
                    let r: [__m256; 8] = std::array::from_fn(|t| {
                        if first + t < m {
                            unsafe { _mm256_loadu_ps(rows.as_ptr().add((first + t) * d + c)) }
                        } else {
                            _mm256_setzero_ps()
                        }
                    });
                    // Round 1: `t[2p]`, `t[2p + 1]` interleave rows 2p and 2p + 1.
                    let t: [__m256; 8] = std::array::from_fn(|i| {
                        let (even, odd) = (r[i & !1], r[i | 1]);
                        if i & 1 == 0 {
                            _mm256_unpacklo_ps(even, odd)
                        } else {
                            _mm256_unpackhi_ps(even, odd)
                        }
                    });
                    // Round 2: `u[4g + k]` holds rows 4g..4g + 4 of column
                    // `k + 4q` in its 128-bit lane `q`.
                    let u: [__m256; 8] = std::array::from_fn(|i| {
                        let (g, k) = (i & !3, i & 3);
                        let lo = _mm256_castps_pd(t[g + (k >> 1)]);
                        let hi = _mm256_castps_pd(t[g + 2 + (k >> 1)]);
                        _mm256_castpd_ps(if k & 1 == 0 {
                            _mm256_unpacklo_pd(lo, hi)
                        } else {
                            _mm256_unpackhi_pd(lo, hi)
                        })
                    });
                    for k in 0..4 {
                        // Round 3: lane `q` of both row groups.
                        let columns = [
                            (k, _mm256_permute2f128_ps::<0x20>(u[k], u[4 + k])),
                            (k + 4, _mm256_permute2f128_ps::<0x31>(u[k], u[4 + k])),
                        ];
                        for (j, v) in columns {
                            // SAFETY: `x_t[c + j]` is 16 floats, `first + 8 <= 16`.
                            unsafe { _mm256_storeu_ps(x_t[c + j].as_mut_ptr().add(first), v) };
                        }
                    }
                }
            }
            transpose_columns(rows, d, m, full, x_t);
        }

        #[inline(always)]
        unsafe fn zero() -> Self {
            Self([_mm256_setzero_ps(); 2])
        }

        #[inline(always)]
        unsafe fn load(x: &[f32; LANES]) -> Self {
            // SAFETY: `x` is sixteen floats.
            unsafe { Self([_mm256_loadu_ps(x.as_ptr()), _mm256_loadu_ps(x.as_ptr().add(8))]) }
        }

        #[inline(always)]
        unsafe fn mul_add(self, a: f32, x: Self) -> Self {
            let a = _mm256_set1_ps(a);
            Self(std::array::from_fn(|h| _mm256_add_ps(self.0[h], _mm256_mul_ps(a, x.0[h]))))
        }

        #[inline(always)]
        unsafe fn add(self, b: f32) -> Self {
            let b = _mm256_set1_ps(b);
            Self(self.0.map(|v| _mm256_add_ps(v, b)))
        }

        #[inline(always)]
        unsafe fn store(self, out: &mut [f32; LANES]) {
            // SAFETY: `out` is sixteen floats.
            unsafe {
                _mm256_storeu_ps(out.as_mut_ptr(), self.0[0]);
                _mm256_storeu_ps(out.as_mut_ptr().add(8), self.0[1]);
            }
        }
    }
}

/// Every compilation of the body this host runs, by name.
#[cfg(test)]
pub(crate) fn bodies() -> Vec<(&'static str, Body)> {
    let mut bodies: Vec<(&'static str, Body)> = vec![("dispatched", hash_rows)];
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            bodies.push(("avx2", hash_rows_avx2));
        }
    }
    bodies.push(("portable", hash_rows_portable));
    bodies
}
