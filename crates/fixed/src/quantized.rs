//! Matrices of raw fixed-point words with integer arithmetic.
//!
//! Like the f32 kernels in `cta-tensor`, the products run SIMD bodies
//! only; the naive scalar loops survive as `#[cfg(test)]` oracles that
//! pin them. Integer accumulation is *exact* — reassociating or
//! re-tiling a sum of products cannot change a single bit as long as no
//! intermediate overflows — so the SIMD bodies are bitwise identical to
//! the scalar loops by construction.
//! Words are stored as i32: [`QFormat`] caps every format at 32 bits.
//! The products pick the narrowest lane tier a bit-budget guard proves
//! cannot overflow:
//!
//! * a register-blocked 4×32 i16 tile into i32 lanes (`vpmaddwd` on
//!   AVX-512BW or, as two 16-column halves, AVX2, where the CPU has
//!   them) when both formats are at most 16 bits and
//!   `(bits_a - 1) + (bits_b - 1) + ceil_log2(K) <= 30` (every paper
//!   product: 12-bit words, `K <= 256`);
//! * otherwise the i32 words into four i64 lanes when that budget is
//!   `<= 62`;
//! * otherwise exact i128 dots over the packed rows.
//!
//! Every tier writes its output back one row at a time, through one path
//! ([`product_rows`]): a consumer such as the score write-back reads each
//! rounded row as it is produced, and [`QuantizedMatrix::matmul`] and
//! [`QuantizedMatrix::matmul_transpose_b`] collect the rows into a matrix.

use cta_tensor::Matrix;

use crate::qformat::{quantize_words, rescale, rescale_words};
use crate::QFormat;

/// `ceil(log2(k))` for `k >= 1`; `0` for `k <= 1`.
fn ceil_log2(k: usize) -> u32 {
    if k <= 1 {
        0
    } else {
        usize::BITS - (k - 1).leading_zeros()
    }
}

/// The accumulator a `K`-term dot product of raw words in formats `fa`
/// and `fb` runs through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Accumulator {
    /// i128 sums over contiguous rows, when no lane tier is proven safe.
    I128,
    /// i32 words into four i64 lanes.
    I64Lanes,
    /// The i16 register tile into i32 lanes.
    I32Lanes,
}

/// Picks the accumulator. The worst-case magnitude of the dot product
/// is `K * 2^(bits_a-1) * 2^(bits_b-1)`, at most `2^budget` with
/// `budget = (bits_a - 1) + (bits_b - 1) + ceil_log2(K)`. The products
/// take i32 lanes when both formats' words fit i16 and `budget <= 30`
/// (the sum stays below `2^31`), i64 lanes when `budget <= 62`, and the
/// exact i128 path otherwise.
fn accumulator(fa: QFormat, fb: QFormat, k: usize) -> Accumulator {
    let budget = (fa.total_bits() - 1) + (fb.total_bits() - 1) + ceil_log2(k);
    let words_fit_i16 = fa.total_bits() <= 16 && fb.total_bits() <= 16;
    if words_fit_i16 && budget <= 30 {
        Accumulator::I32Lanes
    } else if budget <= 62 {
        Accumulator::I64Lanes
    } else {
        Accumulator::I128
    }
}

/// Exact i128 dot product of two contiguous word slices, each term
/// widened to i128.
fn dot_i128(a: &[i32], b: &[i32]) -> i128 {
    let mut acc: i128 = 0;
    for (&x, &y) in a.iter().zip(b) {
        acc += i128::from(x) * i128::from(y);
    }
    acc
}

/// Exact dot product of i32 words with four i64 lane accumulators, each
/// term widened to i64. Caller must have picked
/// [`Accumulator::I64Lanes`]; under that guard every lane sum is exact,
/// so the final i128 total equals [`dot_i128`] bit for bit.
fn dot_i32_lanes(a: &[i32], b: &[i32]) -> i128 {
    let mut lanes = [0i64; 4];
    let mut ac = a.chunks_exact(4);
    let mut bc = b.chunks_exact(4);
    for (a4, b4) in (&mut ac).zip(&mut bc) {
        for l in 0..4 {
            lanes[l] += i64::from(a4[l]) * i64::from(b4[l]);
        }
    }
    for (&x, &y) in ac.remainder().iter().zip(bc.remainder()) {
        lanes[0] += i64::from(x) * i64::from(y);
    }
    lanes.iter().map(|&l| l as i128).sum()
}

/// Output rows per i16 register tile.
const MR: usize = 4;

/// Output columns per i16 register tile: two vectors of sixteen i32
/// lanes (four of eight on the AVX2 body, which walks the panel as two
/// halves).
const NR: usize = 32;

/// One `MR×NR` block of exact i32 sums.
type Tile = [[i32; NR]; MR];

/// One `MR×NR` tile of exact sums over `kp` k-pairs. `a` is `[kp][MR]`:
/// each i32 holds one row's pair `(A[i][2q], A[i][2q+1])` as its low and
/// high i16 halves. `b` is the tile's `[kp][NR][2]` panel of `B`, the
/// same pair interleaved per column. Odd `k` and missing rows or columns
/// are zero-padded, which adds nothing. Dispatches at run time to the
/// widest body the CPU runs — AVX-512BW, then AVX2, then the portable
/// one (detected once, cached by `std`).
///
/// Caller must have picked [`Accumulator::I32Lanes`]: every partial sum
/// is a sum of at most `K` products of magnitude at most
/// `2^(bits_a-1) * 2^(bits_b-1)`, so it stays within `2^30` and no lane
/// can overflow — including a single pair's `vpmaddwd` sum.
///
/// # Panics
///
/// Panics if `a` or `b` is shorter than `kp` pairs.
fn tile_i16(kp: usize, a: &[i32], b: &[i16]) -> Tile {
    assert!(a.len() >= kp * MR && b.len() >= kp * NR * 2, "tile operands shorter than kp pairs");
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512bw") {
            // SAFETY: AVX-512BW support was just verified at runtime, and
            // the assert above bounds every load.
            return unsafe { tile_i16_avx512(kp, a, b) };
        }
        if is_x86_feature_detected!("avx2") {
            // SAFETY: as above, for AVX2.
            return unsafe { tile_i16_avx2(kp, a, b) };
        }
    }
    tile_i16_portable(kp, a, b)
}

/// The portable body of [`tile_i16`].
#[cfg_attr(target_arch = "x86_64", allow(dead_code))]
fn tile_i16_portable(kp: usize, a: &[i32], b: &[i16]) -> Tile {
    let mut acc = [[0i32; NR]; MR];
    for (a_q, b_q) in a[..kp * MR].chunks_exact(MR).zip(b.chunks_exact(NR * 2)) {
        for (acc_row, &pair) in acc.iter_mut().zip(a_q) {
            let (lo, hi) = (i32::from(pair as i16), pair >> 16);
            for (o, b_pair) in acc_row.iter_mut().zip(b_q.chunks_exact(2)) {
                *o += lo * i32::from(b_pair[0]) + hi * i32::from(b_pair[1]);
            }
        }
    }
    acc
}

/// The AVX-512BW body of [`tile_i16`]: eight `__m512i` accumulators live
/// across all of `k`; each `A` pair is broadcast as one i32 and
/// `vpmaddwd` multiplies it into sixteen columns' pairs at once.
///
/// # Safety
///
/// The caller must have verified AVX-512BW support at runtime and that
/// `a` holds `kp * MR` words and `b` holds `kp * NR * 2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512bw")]
unsafe fn tile_i16_avx512(kp: usize, a: &[i32], b: &[i16]) -> Tile {
    use std::arch::x86_64::{
        _mm512_add_epi32, _mm512_loadu_si512, _mm512_madd_epi16, _mm512_set1_epi32,
        _mm512_setzero_si512, _mm512_storeu_si512,
    };
    let mut acc = [[_mm512_setzero_si512(); 2]; MR];
    for q in 0..kp {
        let b_q = b.as_ptr().add(q * NR * 2);
        let b_lo = _mm512_loadu_si512(b_q.cast());
        let b_hi = _mm512_loadu_si512(b_q.add(NR).cast());
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let pair = _mm512_set1_epi32(*a.get_unchecked(q * MR + r));
            acc_row[0] = _mm512_add_epi32(acc_row[0], _mm512_madd_epi16(pair, b_lo));
            acc_row[1] = _mm512_add_epi32(acc_row[1], _mm512_madd_epi16(pair, b_hi));
        }
    }
    let mut out = [[0i32; NR]; MR];
    for (o, v) in out.iter_mut().zip(acc) {
        _mm512_storeu_si512(o.as_mut_ptr().cast(), v[0]);
        _mm512_storeu_si512(o.as_mut_ptr().add(16).cast(), v[1]);
    }
    out
}

/// The AVX2 body of [`tile_i16`]: the panel as two 16-column halves,
/// each with eight `__m256i` accumulators live across all of `k`; each
/// `A` pair is broadcast as one i32 and `vpmaddwd` multiplies it into
/// eight columns' pairs at once.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime and that `a`
/// holds `kp * MR` words and `b` holds `kp * NR * 2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tile_i16_avx2(kp: usize, a: &[i32], b: &[i16]) -> Tile {
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_loadu_si256, _mm256_madd_epi16, _mm256_set1_epi32,
        _mm256_setzero_si256, _mm256_storeu_si256,
    };
    let mut out = [[0i32; NR]; MR];
    for half in [0, NR / 2] {
        let mut acc = [[_mm256_setzero_si256(); 2]; MR];
        for q in 0..kp {
            let b_q = b.as_ptr().add(q * NR * 2 + half * 2);
            let b_lo = _mm256_loadu_si256(b_q.cast::<__m256i>());
            let b_hi = _mm256_loadu_si256(b_q.add(16).cast::<__m256i>());
            for (r, acc_row) in acc.iter_mut().enumerate() {
                let pair = _mm256_set1_epi32(*a.get_unchecked(q * MR + r));
                acc_row[0] = _mm256_add_epi32(acc_row[0], _mm256_madd_epi16(pair, b_lo));
                acc_row[1] = _mm256_add_epi32(acc_row[1], _mm256_madd_epi16(pair, b_hi));
            }
        }
        for (o, v) in out.iter_mut().zip(acc) {
            _mm256_storeu_si256(o.as_mut_ptr().add(half).cast::<__m256i>(), v[0]);
            _mm256_storeu_si256(o.as_mut_ptr().add(half + 8).cast::<__m256i>(), v[1]);
        }
    }
    out
}

/// Every output row of `A·B` (or, with `transposed`, of `A·Bᵀ`),
/// rounded into `out` and handed to `emit` as `(row, words)` in
/// ascending row order: the one write-back path of both products, on
/// every accumulator tier. `b` is `k×n` row-major, or `n×k` when
/// `transposed`.
fn product_rows(
    a: &QuantizedMatrix,
    b: &QuantizedMatrix,
    transposed: bool,
    out: QFormat,
    emit: impl FnMut(usize, &[i32]),
) {
    let k = a.cols;
    let n = if transposed { b.rows } else { b.cols };
    let in_frac = a.format.frac_bits() + b.format.frac_bits();
    match accumulator(a.format, b.format, k) {
        Accumulator::I32Lanes if transposed => {
            tile_products(a, n, |p, j| b.raw[j * k + p], in_frac, out, emit)
        }
        Accumulator::I32Lanes => tile_products(a, n, |p, j| b.raw[p * n + j], in_frac, out, emit),
        tier => {
            let packed;
            let bt = if transposed {
                &b.raw
            } else {
                packed = pack_transpose(&b.raw, k, n);
                &packed
            };
            if tier == Accumulator::I64Lanes {
                lane_products(a, bt, n, dot_i32_lanes, in_frac, out, emit)
            } else {
                lane_products(a, bt, n, dot_i128, in_frac, out, emit)
            }
        }
    }
}

/// [`product_rows`] on the i16 tile: every `(i, j)` product of `a`'s
/// rows against the `k×n` operand `b_at(p, j)` through [`tile_i16`].
/// `B` is packed once, k-pair-interleaved, into one `[kp][NR][2]` panel
/// per `NR` columns; each `MR`-row block of `A` into one `[kp][MR]` block
/// of i32 pairs. The block's exact sums land in one `MR×n` i32 buffer,
/// [`rescale_words`] rounds it in one slice pass, and its rows go to
/// `emit`. Caller must have picked [`Accumulator::I32Lanes`], whose
/// formats' words fit i16 exactly.
fn tile_products(
    a: &QuantizedMatrix,
    n: usize,
    b_at: impl Fn(usize, usize) -> i32,
    in_frac: u32,
    out: QFormat,
    mut emit: impl FnMut(usize, &[i32]),
) {
    let (m, k) = (a.rows, a.cols);
    let kp = k.div_ceil(2);
    let mut bp = vec![0i16; n.div_ceil(NR) * kp * NR * 2];
    for j in 0..n {
        let base = (j / NR) * kp * NR * 2 + (j % NR) * 2;
        for p in 0..k {
            bp[base + (p / 2) * NR * 2 + p % 2] = b_at(p, j) as i16;
        }
    }
    let mut ap = vec![0i32; kp * MR];
    let mut sums = vec![0i32; MR * n];
    let mut words = vec![0i32; MR * n];
    for i0 in (0..m).step_by(MR) {
        let rows = MR.min(m - i0);
        ap.fill(0);
        for r in 0..rows {
            let a_row = &a.raw[(i0 + r) * k..(i0 + r + 1) * k];
            for (q, pair) in a_row.chunks(2).enumerate() {
                let hi = pair.get(1).map_or(0, |&x| x as i16);
                ap[q * MR + r] = i32::from(pair[0] as u16) | i32::from(hi) << 16;
            }
        }
        for j0 in (0..n).step_by(NR) {
            let tile = tile_i16(kp, &ap, &bp[(j0 / NR) * kp * NR * 2..]);
            for (r, t) in tile.iter().enumerate().take(rows) {
                let row = &mut sums[r * n + j0..(r + 1) * n];
                let cols = row.len().min(NR);
                row[..cols].copy_from_slice(&t[..cols]);
            }
        }
        rescale_words(&sums[..rows * n], in_frac, out, &mut words[..rows * n]);
        for r in 0..rows {
            emit(i0 + r, &words[r * n..(r + 1) * n]);
        }
    }
}

/// [`product_rows`] on the i64-lane or i128 tier: every `(i, j)` dot of
/// `a`'s rows against the row-contiguous `n×k` panel `bt`, rounded
/// through [`rescale`] into one reused row for `emit`.
fn lane_products(
    a: &QuantizedMatrix,
    bt: &[i32],
    n: usize,
    dot: impl Fn(&[i32], &[i32]) -> i128,
    in_frac: u32,
    out: QFormat,
    mut emit: impl FnMut(usize, &[i32]),
) {
    let k = a.cols;
    let mut row = vec![0i32; n];
    for i in 0..a.rows {
        let a_row = &a.raw[i * k..(i + 1) * k];
        for (j, o) in row.iter_mut().enumerate() {
            // `as i32` is exact: `rescale` saturates into a <=32-bit format.
            *o = rescale(dot(a_row, &bt[j * k..(j + 1) * k]), in_frac, out) as i32;
        }
        emit(i, &row);
    }
}

/// Packs the `k×n` row-major words into an `n×k` transpose, so every dot
/// product streams both operands contiguously.
fn pack_transpose(raw: &[i32], k: usize, n: usize) -> Vec<i32> {
    let mut packed = vec![0i32; n * k];
    for p in 0..k {
        for j in 0..n {
            packed[j * k + p] = raw[p * n + j];
        }
    }
    packed
}

/// Element-wise saturating `a + b` (or `a - b`), through i64 and
/// narrowed back: two 32-bit words can sum past i32. Saturation clamps
/// per element, so chunking cannot change a bit; the loop runs 8
/// independent elements per chunk.
fn saturating_zip(a: &[i32], b: &[i32], format: QFormat, negate_b: bool) -> Vec<i32> {
    let sign = if negate_b { -1i64 } else { 1i64 };
    let (lo, hi) = (format.min_raw(), format.max_raw());
    let word = |x: i32, y: i32| (i64::from(x) + sign * i64::from(y)).clamp(lo, hi) as i32;
    let mut out = vec![0i32; a.len()];
    let mut oc = out.chunks_exact_mut(8);
    let mut ac = a.chunks_exact(8);
    let mut bc = b.chunks_exact(8);
    for ((o8, a8), b8) in (&mut oc).zip(&mut ac).zip(&mut bc) {
        for l in 0..8 {
            o8[l] = word(a8[l], b8[l]);
        }
    }
    for ((o, &x), &y) in oc.into_remainder().iter_mut().zip(ac.remainder()).zip(bc.remainder()) {
        *o = word(x, y);
    }
    out
}

/// A matrix stored as raw fixed-point words in a single [`QFormat`].
///
/// This mirrors what lives in the accelerator's SRAMs: token memory holds
/// Q6.7 words, weight memory holds 12-bit words, and the systolic array
/// multiplies raw words with wide accumulators before requantising results
/// on the way back to memory. All arithmetic here is integer arithmetic —
/// bit-exact with a fixed-point RTL implementation of the same widths.
///
/// ```
/// use cta_fixed::{formats, QuantizedMatrix};
/// use cta_tensor::Matrix;
///
/// let a = QuantizedMatrix::quantize(&Matrix::from_rows(&[&[1.0, 2.0]]), formats::TOKEN);
/// let b = QuantizedMatrix::quantize(&Matrix::from_rows(&[&[3.0], &[4.0]]), formats::CENTROID);
/// let c = a.matmul(&b, formats::SCORE);
/// assert_eq!(c.dequantize()[(0, 0)], 11.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    raw: Vec<i32>,
    format: QFormat,
}

impl QuantizedMatrix {
    /// Quantizes a real matrix into `format`.
    pub fn quantize(m: &Matrix, format: QFormat) -> Self {
        let mut raw = vec![0i32; m.as_slice().len()];
        quantize_words(m.as_slice(), format, &mut raw);
        Self { rows: m.rows(), cols: m.cols(), raw, format }
    }

    /// Builds a quantized matrix directly from raw words.
    ///
    /// # Panics
    ///
    /// Panics if `raw.len() != rows * cols` or any word is outside the
    /// format's representable range.
    pub fn from_raw(rows: usize, cols: usize, raw: Vec<i32>, format: QFormat) -> Self {
        assert_eq!(raw.len(), rows * cols, "raw data length mismatch");
        for &r in &raw {
            assert!(
                (format.min_raw()..=format.max_raw()).contains(&i64::from(r)),
                "raw word {r} out of range for {format}"
            );
        }
        Self { rows, cols, raw, format }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The storage format.
    pub fn format(&self) -> QFormat {
        self.format
    }

    /// The raw words, row-major.
    pub fn raw(&self) -> &[i32] {
        &self.raw
    }

    /// Raw word at `(r, c)`, widened to [`QFormat`]'s scalar i64.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn raw_at(&self, r: usize, c: usize) -> i64 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        i64::from(self.raw[r * self.cols + c])
    }

    /// Reconstructs the real-valued matrix the raw words represent.
    pub fn dequantize(&self) -> Matrix {
        Matrix::from_vec(
            self.rows,
            self.cols,
            self.raw.iter().map(|&r| self.format.dequantize(i64::from(r))).collect(),
        )
    }

    /// Integer matrix product, requantised into `out_format`, on the
    /// SIMD kernel.
    ///
    /// Accumulation is exact (partial sums with
    /// `self.frac + other.frac` fractional bits); only the final write-back
    /// rounds and saturates, which matches a systolic array with wide
    /// accumulators in each PE. Bitwise identical to the scalar
    /// reference.
    ///
    /// The products pack `B` once — into k-pair-interleaved i16 panels
    /// for the 4×32 i32-lane tile, or transposed for four i64 lanes —
    /// when the formats' bit budget guarantees a lane cannot overflow
    /// (falling back to exact i128 dots otherwise).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &QuantizedMatrix, out_format: QFormat) -> QuantizedMatrix {
        assert_eq!(
            self.cols, other.rows,
            "quantized matmul dimension mismatch: {}x{} . {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut raw = Vec::with_capacity(self.rows * other.cols);
        product_rows(self, other, false, out_format, |_, row| raw.extend_from_slice(row));
        QuantizedMatrix { rows: self.rows, cols: other.cols, raw, format: out_format }
    }

    /// Integer matrix product with the second operand transposed:
    /// `self · otherᵀ`, requantised into `out_format`, on the SIMD
    /// kernel: [`matmul_transpose_b_rows`](Self::matmul_transpose_b_rows)
    /// with its rows collected. This is the natural layout for quantized
    /// attention scores `Q̄ · K̄ᵀ`: both operands keep rows = vectors, so
    /// no explicit transpose (and no column-strided walk) is ever
    /// materialised.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_transpose_b(
        &self,
        other: &QuantizedMatrix,
        out_format: QFormat,
    ) -> QuantizedMatrix {
        let mut raw = Vec::with_capacity(self.rows * other.rows);
        self.matmul_transpose_b_rows(other, out_format, |_, row| raw.extend_from_slice(row));
        QuantizedMatrix { rows: self.rows, cols: other.rows, raw, format: out_format }
    }

    /// The rows of [`matmul_transpose_b`](Self::matmul_transpose_b)
    /// without the matrix: each output row's words, already rounded into
    /// `out_format`, go to `row` as `(index, words)` in ascending row
    /// order — a write-back whose consumer reads each row at once instead
    /// of storing it.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_transpose_b_rows(
        &self,
        other: &QuantizedMatrix,
        out_format: QFormat,
        row: impl FnMut(usize, &[i32]),
    ) {
        assert_eq!(
            self.cols, other.cols,
            "quantized matmul_transpose_b dimension mismatch: {}x{} . ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        product_rows(self, other, true, out_format, row);
    }

    /// Element-wise saturating subtraction (both operands must share a
    /// format), on the SIMD kernel. Models the
    /// adder column on the left edge of the SA that computes residual
    /// tokens (paper Fig. 7).
    ///
    /// # Panics
    ///
    /// Panics if shapes or formats differ.
    pub fn sub(&self, other: &QuantizedMatrix) -> QuantizedMatrix {
        assert_eq!(self.format, other.format, "sub requires matching formats");
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "sub shape mismatch");
        let raw = saturating_zip(&self.raw, &other.raw, self.format, true);
        QuantizedMatrix { rows: self.rows, cols: self.cols, raw, format: self.format }
    }

    /// Element-wise saturating addition (both operands must share a
    /// format), on the SIMD kernel.
    ///
    /// # Panics
    ///
    /// Panics if shapes or formats differ.
    pub fn add(&self, other: &QuantizedMatrix) -> QuantizedMatrix {
        assert_eq!(self.format, other.format, "add requires matching formats");
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "add shape mismatch");
        let raw = saturating_zip(&self.raw, &other.raw, self.format, false);
        QuantizedMatrix { rows: self.rows, cols: self.cols, raw, format: self.format }
    }

    /// Re-quantises into a different format (round-to-nearest, saturating).
    pub fn convert(&self, format: QFormat) -> QuantizedMatrix {
        self.convert_shifted(0, format)
    }

    /// Multiplies every value by `2^-shift` and re-quantises into
    /// `format` with one rounding (round-to-nearest, ties away from zero,
    /// saturating): the binary point moves `shift` bits left, which is
    /// the hardware's right shift by a power-of-two scale.
    pub fn convert_shifted(&self, shift: u32, format: QFormat) -> QuantizedMatrix {
        let mut raw = vec![0i32; self.raw.len()];
        self.format.convert_shifted_words(&self.raw, shift, format, &mut raw);
        QuantizedMatrix { rows: self.rows, cols: self.cols, raw, format }
    }

    /// The given rows, in order (indices may repeat) — how a cluster
    /// table expands centroid words back to one row per token.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&self, indices: &[usize]) -> QuantizedMatrix {
        let c = self.cols;
        let mut raw = Vec::with_capacity(indices.len() * c);
        for &r in indices {
            assert!(r < self.rows, "row {r} out of bounds for {} rows", self.rows);
            raw.extend_from_slice(&self.raw[r * c..(r + 1) * c]);
        }
        QuantizedMatrix { rows: indices.len(), cols: c, raw, format: self.format }
    }

    /// Row concatenation `[self; other]`, the quantized `C^cat = [C¹; C²]`.
    ///
    /// # Panics
    ///
    /// Panics if the column counts or formats differ.
    pub fn vstack(&self, other: &QuantizedMatrix) -> QuantizedMatrix {
        assert_eq!(self.cols, other.cols, "vstack requires equal column counts");
        assert_eq!(self.format, other.format, "vstack requires matching formats");
        let raw = [self.raw.as_slice(), other.raw.as_slice()].concat();
        QuantizedMatrix { rows: self.rows + other.rows, cols: self.cols, raw, format: self.format }
    }

    /// Maximum absolute quantisation error of representing `m` in `format`,
    /// i.e. `max |round_trip(x) - x|`. Diagnostic used by the quantisation
    /// ablation.
    pub fn max_quantization_error(m: &Matrix, format: QFormat) -> f32 {
        m.as_slice().iter().map(|&x| (format.round_trip(x) - x).abs()).fold(0.0, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats;
    use proptest::prelude::*;

    #[test]
    fn quantize_dequantize_round_trip_within_resolution() {
        let m = Matrix::from_rows(&[&[0.3, -1.7, 5.25], &[-0.01, 30.0, -31.0]]);
        let q = QuantizedMatrix::quantize(&m, formats::TOKEN);
        assert!(q.dequantize().approx_eq(&m, formats::TOKEN.resolution()));
    }

    #[test]
    fn matmul_matches_float_for_exactly_representable_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[0.5, -1.0], &[2.0, 0.25]]);
        let qa = QuantizedMatrix::quantize(&a, formats::TOKEN);
        let qb = QuantizedMatrix::quantize(&b, formats::CENTROID);
        let qc = qa.matmul(&qb, formats::SCORE);
        assert!(qc.dequantize().approx_eq(&a.matmul(&b), 1e-6));
    }

    #[test]
    fn matmul_saturates_on_overflow() {
        let big = Matrix::filled(1, 8, 30.0);
        let qa = QuantizedMatrix::quantize(&big, formats::TOKEN);
        let qb = QuantizedMatrix::quantize(&big.transpose(), formats::TOKEN);
        // 8 * 900 = 7200 overflows SCORE's Q8.8 max of ~127.996.
        let qc = qa.matmul(&qb, formats::SCORE);
        assert_eq!(qc.raw_at(0, 0), formats::SCORE.max_raw());
    }

    #[test]
    fn sub_computes_residuals() {
        let x = Matrix::from_rows(&[&[1.5, -2.0]]);
        let c = Matrix::from_rows(&[&[1.0, -1.0]]);
        let qx = QuantizedMatrix::quantize(&x, formats::TOKEN);
        let qc = QuantizedMatrix::quantize(&c, formats::TOKEN);
        let r = qx.sub(&qc);
        assert!(r.dequantize().approx_eq(&x.sub(&c), 1e-6));
    }

    #[test]
    #[should_panic(expected = "matching formats")]
    fn sub_rejects_format_mismatch() {
        let m = Matrix::zeros(1, 1);
        let a = QuantizedMatrix::quantize(&m, formats::TOKEN);
        let b = QuantizedMatrix::quantize(&m, formats::CENTROID);
        let _ = a.sub(&b);
    }

    #[test]
    fn convert_preserves_value_when_widening() {
        let m = Matrix::from_rows(&[&[1.25, -0.5]]);
        let q = QuantizedMatrix::quantize(&m, formats::CENTROID);
        let w = q.convert(formats::SCORE);
        assert!(w.dequantize().approx_eq(&q.dequantize(), 1e-9));
    }

    #[test]
    fn from_raw_validates_range() {
        let q = QuantizedMatrix::from_raw(1, 2, vec![0, 100], formats::CENTROID);
        assert_eq!(q.raw_at(0, 1), 100);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_raw_rejects_out_of_range_words() {
        let _ = QuantizedMatrix::from_raw(1, 1, vec![1 << 20], formats::CENTROID);
    }

    #[test]
    fn max_quantization_error_bounded_by_half_lsb() {
        let m = Matrix::from_rows(&[&[0.123, -4.567, 9.999]]);
        let err = QuantizedMatrix::max_quantization_error(&m, formats::TOKEN);
        assert!(err <= formats::TOKEN.resolution() / 2.0 + 1e-6);
    }

    /// The reference `A·B`: i128 sums, `B` walked column-strided.
    fn scalar_matmul(a: &QuantizedMatrix, b: &QuantizedMatrix, out: QFormat) -> QuantizedMatrix {
        let (k, n) = (a.cols, b.cols);
        let in_frac = a.format.frac_bits() + b.format.frac_bits();
        let mut raw = vec![0i32; a.rows * n];
        for i in 0..a.rows {
            for j in 0..n {
                let mut acc: i128 = 0;
                for p in 0..k {
                    acc += i128::from(a.raw[i * k + p]) * i128::from(b.raw[p * n + j]);
                }
                raw[i * n + j] = rescale(acc, in_frac, out) as i32;
            }
        }
        QuantizedMatrix { rows: a.rows, cols: n, raw, format: out }
    }

    /// The reference `A·Bᵀ`: one i128 dot per output element.
    fn scalar_matmul_transpose_b(
        a: &QuantizedMatrix,
        b: &QuantizedMatrix,
        out: QFormat,
    ) -> QuantizedMatrix {
        let (d, n) = (a.cols, b.rows);
        let in_frac = a.format.frac_bits() + b.format.frac_bits();
        let mut raw = vec![0i32; a.rows * n];
        for i in 0..a.rows {
            for j in 0..n {
                let mut acc: i128 = 0;
                for p in 0..d {
                    acc += i128::from(a.raw[i * d + p]) * i128::from(b.raw[j * d + p]);
                }
                raw[i * n + j] = rescale(acc, in_frac, out) as i32;
            }
        }
        QuantizedMatrix { rows: a.rows, cols: n, raw, format: out }
    }

    /// The reference element-wise saturating `a + b` (or `a - b`).
    fn scalar_zip(a: &QuantizedMatrix, b: &QuantizedMatrix, negate_b: bool) -> QuantizedMatrix {
        let sign = if negate_b { -1i64 } else { 1i64 };
        let raw = a
            .raw
            .iter()
            .zip(&b.raw)
            .map(|(&x, &y)| a.format.saturating_add(i64::from(x), sign * i64::from(y)) as i32);
        QuantizedMatrix { rows: a.rows, cols: a.cols, raw: raw.collect(), format: a.format }
    }

    /// A seeded raw-word matrix spanning the full representable range,
    /// rails included, so saturating paths are exercised.
    fn lcg_quantized(rows: usize, cols: usize, seed: u64, format: QFormat) -> QuantizedMatrix {
        let mut state = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        let span = (format.max_raw() - format.min_raw() + 1) as u128;
        let raw: Vec<i32> = (0..rows * cols)
            .map(|_| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_041);
                (format.min_raw() + ((state as u128 * span) >> 64) as i64) as i32
            })
            .collect();
        QuantizedMatrix::from_raw(rows, cols, raw, format)
    }

    #[test]
    fn matmul_matches_scalar_on_edge_shapes() {
        // Empty, 1xN, non-square, and lane/block-tail shapes, then the
        // paper's long sequence at d = 64 with k0 = k1 = 256, k2 = 64:
        // the k0×d · d×d linear and the k0×d · ((k1+k2)×d)ᵀ scores.
        let shapes = [(0, 0, 0), (0, 3, 2), (2, 0, 3), (1, 1, 1), (1, 9, 33), (5, 7, 3)];
        for (m, k, n) in shapes.into_iter().chain([(256, 64, 64), (256, 64, 320)]) {
            let a = lcg_quantized(m, k, 11, formats::TOKEN);
            let b = lcg_quantized(k, n, 12, formats::CENTROID);
            let bt = lcg_quantized(n, k, 13, formats::CENTROID);
            let scalar = scalar_matmul(&a, &b, formats::SCORE);
            let scalar_tb = scalar_matmul_transpose_b(&a, &bt, formats::SCORE);
            assert_eq!(a.matmul(&b, formats::SCORE), scalar, "{m}x{k}x{n}");
            assert_eq!(a.matmul_transpose_b(&bt, formats::SCORE), scalar_tb, "{m}x{k}x{n}");
        }
    }

    /// The SIMD `A·B` and `A·Bᵀ` against the scalar reference.
    fn assert_products_match_scalar(a: &QuantizedMatrix, b: &QuantizedMatrix, out: QFormat) {
        let bt = transpose(b);
        let scalar = scalar_matmul(a, b, out);
        let scalar_tb = scalar_matmul_transpose_b(a, &bt, out);
        assert_eq!(scalar_tb, scalar, "A·(Bᵀ)ᵀ must equal A·B");
        assert_eq!(a.matmul(b, out), scalar);
        assert_eq!(a.matmul_transpose_b(&bt, out), scalar_tb);
    }

    /// `mᵀ`, rebuilt through `from_raw`.
    fn transpose(m: &QuantizedMatrix) -> QuantizedMatrix {
        let mut raw = vec![0i32; m.raw.len()];
        for r in 0..m.rows {
            for c in 0..m.cols {
                raw[c * m.rows + r] = m.raw[r * m.cols + c];
            }
        }
        QuantizedMatrix::from_raw(m.cols, m.rows, raw, m.format)
    }

    #[test]
    fn matmul_matches_scalar_under_saturation() {
        // Rails-to-rails products overflow SCORE; every body must
        // saturate on exactly the same elements to the same rails, in
        // both products and on both sides of the i32-lane budget:
        // TOKEN×TOKEN at K = 64 is 12 + 12 + 6 = 30 (i32 lanes), at
        // K = 65 it is 31 (i64 lanes).
        for k in [64, 65] {
            let a = lcg_quantized(6, k, 21, formats::TOKEN);
            let b = lcg_quantized(k, 5, 22, formats::TOKEN);
            let scalar = scalar_matmul(&a, &b, formats::SCORE);
            assert!(
                scalar.raw().iter().any(|&r| i64::from(r) == formats::SCORE.max_raw())
                    && scalar.raw().iter().any(|&r| i64::from(r) == formats::SCORE.min_raw()),
                "K = {k} must saturate at both rails"
            );
            assert_products_match_scalar(&a, &b, formats::SCORE);
        }
    }

    #[test]
    fn simd_lane_guard_falls_back_for_wide_formats() {
        let q12 = QFormat::new(12, 6);
        let q16 = QFormat::new(16, 8);
        let q17 = QFormat::new(17, 8);
        let wide = QFormat::new(32, 7);
        // 11 + 11 + ceil_log2(256) = 30 takes the i32 lanes; K = 257
        // makes the budget 31 and falls back to i64 lanes.
        assert_eq!(accumulator(q12, q12, 256), Accumulator::I32Lanes);
        assert_eq!(accumulator(q12, q12, 257), Accumulator::I64Lanes);
        // 15 + 15 + 0 = 30 at K = 1; K = 2 is 31.
        assert_eq!(accumulator(q16, q16, 1), Accumulator::I32Lanes);
        assert_eq!(accumulator(q16, q16, 2), Accumulator::I64Lanes);
        // A 17-bit format's words do not fit i16, whatever the budget.
        assert_eq!(accumulator(q17, QFormat::new(2, 0), 1), Accumulator::I64Lanes);
        // Two 32-bit formats over K = 64: 31 + 31 + 6 > 62, i128.
        assert_eq!(accumulator(wide, wide, 64), Accumulator::I128);

        // At each boundary, every word on the negative rail gives the
        // largest magnitude a dot can reach (exactly 2^30 at budget 30);
        // SIMD must still match the scalar reference bit for bit.
        let rail = |rows, cols, f: QFormat| {
            QuantizedMatrix::from_raw(rows, cols, vec![f.min_raw() as i32; rows * cols], f)
        };
        let out = QFormat::new(32, 0);
        for (f, k) in [(q12, 256), (q12, 257), (q16, 1), (q16, 2), (q17, 3)] {
            assert_products_match_scalar(&rail(3, k, f), &rail(k, 2, f), out);
            let top = rail(1, k, f).matmul(&rail(k, 1, f), out);
            let exact = ((k as i64) * f.min_raw() * f.min_raw()) >> (2 * f.frac_bits());
            assert_eq!(top.raw_at(0, 0), exact.min(out.max_raw()), "{f} K={k}");
        }
        let a = lcg_quantized(3, 64, 31, wide);
        let b = lcg_quantized(64, 3, 32, wide);
        assert_products_match_scalar(&a, &b, wide);
    }

    /// One body of [`tile_i16`].
    type TileBody = fn(usize, &[i32], &[i16]) -> Tile;

    /// Every i16 tile body this host can run, by name; the portable
    /// body first.
    fn tile_bodies() -> Vec<(&'static str, TileBody)> {
        let mut bodies: Vec<(&'static str, TileBody)> = vec![("portable", tile_i16_portable)];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 support was just verified; the caller
                // sizes every operand as `tile_i16` asserts.
                bodies.push(("avx2", |kp, a, b| unsafe { tile_i16_avx2(kp, a, b) }));
            }
            if is_x86_feature_detected!("avx512bw") {
                // SAFETY: as above, for AVX-512BW.
                bodies.push(("avx512", |kp, a, b| unsafe { tile_i16_avx512(kp, a, b) }));
            }
        }
        bodies.push(("dispatched", tile_i16));
        bodies
    }

    #[test]
    fn every_i16_tile_body_matches_the_exact_sums() {
        // Each body the host runs — so an AVX-512 host still checks the
        // AVX2 body — against exact i64 sums over the same packed words,
        // at every pair count up to 40 on full-range 12-bit words and at
        // the budget-30 rail: 128 pairs of (-2^11)² terms sum to exactly
        // 2^30.
        let q12 = QFormat::new(12, 0);
        let cases = (0..=40u64).map(|kp| {
            let a = lcg_quantized(1, kp as usize * MR * 2, 71 + kp, q12).raw().to_vec();
            let b = lcg_quantized(1, kp as usize * NR * 2, 72 + kp, q12).raw().to_vec();
            (kp as usize, a, b)
        });
        let rail = vec![q12.min_raw() as i32; 128 * NR * 2];
        for (kp, a_words, b_words) in
            cases.chain([(128, rail[..128 * MR * 2].to_vec(), rail.clone())])
        {
            // `a_words` is `[kp][MR][2]`, packed as the tile's i32 pairs.
            let a: Vec<i32> =
                a_words.chunks_exact(2).map(|w| i32::from(w[0] as u16) | w[1] << 16).collect();
            let b: Vec<i16> = b_words.iter().map(|&x| x as i16).collect();
            let mut exact = [[0i64; NR]; MR];
            for q in 0..kp {
                for (r, row) in exact.iter_mut().enumerate() {
                    for (c, e) in row.iter_mut().enumerate() {
                        let (a0, a1) = (a_words[(q * MR + r) * 2], a_words[(q * MR + r) * 2 + 1]);
                        let (b0, b1) = (b_words[(q * NR + c) * 2], b_words[(q * NR + c) * 2 + 1]);
                        *e += i64::from(a0) * i64::from(b0) + i64::from(a1) * i64::from(b1);
                    }
                }
            }
            if kp == 128 {
                assert_eq!(exact[0][0], 1 << 30, "the rail case must hit the budget");
            }
            let exact = exact.map(|row| row.map(|x| i32::try_from(x).unwrap()));
            for (name, body) in tile_bodies() {
                assert_eq!(body(kp, &a, &b), exact, "{name} kp={kp}");
            }
        }
    }

    #[test]
    fn elementwise_ops_match_scalar() {
        // The last shape is the paper's n = 1024 tokens at d = 64.
        for len in [(1, 1), (1, 7), (3, 8), (5, 17), (1024, 64)] {
            let a = lcg_quantized(len.0, len.1, 41, formats::TOKEN);
            let b = lcg_quantized(len.0, len.1, 42, formats::TOKEN);
            assert_eq!(a.sub(&b), scalar_zip(&a, &b, true));
            assert_eq!(a.add(&b), scalar_zip(&a, &b, false));
        }
    }

    #[test]
    fn entry_points_match_the_scalar_reference() {
        // The operations run the SIMD bodies. Pin them to the scalar
        // loops at the paper's score shape (k0 = 256 queries against
        // k1 + k2 = 320 centroids at d = 64) and on full-range words that
        // drive every rail.
        let a = lcg_quantized(256, 64, 51, formats::TOKEN);
        let b = lcg_quantized(64, 320, 52, formats::CENTROID);
        let bt = lcg_quantized(320, 64, 53, formats::CENTROID);
        assert_eq!(a.matmul(&b, formats::SCORE), scalar_matmul(&a, &b, formats::SCORE));
        assert_eq!(
            a.matmul_transpose_b(&bt, formats::SCORE),
            scalar_matmul_transpose_b(&a, &bt, formats::SCORE)
        );
        let c = lcg_quantized(256, 64, 54, formats::TOKEN);
        assert_eq!(a.sub(&c), scalar_zip(&a, &c, true));
        assert_eq!(a.add(&c), scalar_zip(&a, &c, false));
    }

    #[test]
    fn add_saturates_at_the_rails() {
        let m = Matrix::filled(1, 2, 30.0);
        let q = QuantizedMatrix::quantize(&m, formats::TOKEN);
        let s = q.add(&q);
        assert_eq!(s.raw_at(0, 0), formats::TOKEN.max_raw());
    }

    #[test]
    fn matmul_transpose_b_matches_explicit_transpose() {
        let a = lcg_quantized(4, 9, 51, formats::TOKEN);
        let bt = lcg_quantized(6, 9, 52, formats::CENTROID);
        // Rebuild B = (Bᵀ)ᵀ through from_raw to compare against matmul.
        let mut braw = vec![0i32; 9 * 6];
        for r in 0..6 {
            for c in 0..9 {
                braw[c * 6 + r] = bt.raw()[r * 9 + c];
            }
        }
        let b = QuantizedMatrix::from_raw(9, 6, braw, formats::CENTROID);
        assert_eq!(a.matmul_transpose_b(&bt, formats::SCORE), a.matmul(&b, formats::SCORE));
    }

    #[test]
    fn paper_head_shapes_match_scalar_bitwise() {
        // The paper-heads products at d = 64: the k0×d and (k1+k2)×d
        // linears into the centroid format, and the k0 × (k1+k2) score
        // product into the 24-bit accumulator view, at even and odd
        // token counts around k0 ≈ 260 and k1 + k2 ≈ 290.
        let wide = QFormat::new(24, formats::SCORE.frac_bits());
        for (k0, kcat) in [(260, 290), (257, 289), (263, 291)] {
            for rows in [k0, kcat] {
                let c = lcg_quantized(rows, 64, rows as u64, formats::CENTROID);
                let w = lcg_quantized(64, 64, rows as u64 + 1, formats::LINEAR_WEIGHT);
                assert_products_match_scalar(&c, &w, formats::CENTROID);
            }
            let q = lcg_quantized(k0, 64, 81, formats::CENTROID);
            let k = lcg_quantized(64, kcat, 82, formats::CENTROID);
            assert_products_match_scalar(&q, &k, wide);
        }
    }

    #[test]
    fn thirty_two_bit_sums_saturate_at_the_i32_rails() {
        // Words whose i32 sum or difference would wrap: each must clamp
        // to ±2^31 rails of the format, as the i64 scalar rule does.
        let q32 = QFormat::new(32, 16);
        let (max, min) = (i32::MAX, i32::MIN);
        let a = QuantizedMatrix::from_raw(1, 5, vec![max, min, max, min, -1], q32);
        let b = QuantizedMatrix::from_raw(1, 5, vec![max, min, 1, -1, max], q32);
        assert_eq!(a.add(&b).raw(), [max, min, max, min, max - 1]);
        assert_eq!(a.sub(&b).raw(), [0, 0, max - 1, min + 1, min]);
        assert_eq!(b.sub(&a).raw(), [0, 0, min + 2, max, max]);
    }

    /// Formats of every width class a product can mix: 32-bit words
    /// (frac set by the caller), 20-bit (the i64 lanes against a 32-bit
    /// operand), and 12- and 16-bit ones (the i16 tile against each
    /// other).
    fn mixed_formats(frac: u32) -> [QFormat; 4] {
        [QFormat::new(32, frac), QFormat::new(20, 7), formats::CENTROID, QFormat::new(16, 8)]
    }

    proptest! {
        /// i32 words at the 32-bit rails and at mixed widths: saturating
        /// `add`/`sub` clamp at ±2^31 as the i64 scalar rule does;
        /// `convert`, `convert_shifted`, `gather_rows` and `vstack` keep
        /// every word; both products on every tier the formats pick
        /// match the scalar i128 oracle; and `from_raw` accepts every
        /// word of a format and rejects the ones just past its rails.
        #[test]
        fn i32_words_keep_every_bit_at_every_width(
            frac in 0u32..32,
            pick in (0usize..4, 0usize..4),
            shape in (1usize..6, 1usize..70, 1usize..6),
            shift in 0u32..32,
            bits in 1u32..32,
            seed in 0u64..1_000_000,
        ) {
            let (rows, k, n) = shape;
            let formats = mixed_formats(frac);
            let q32 = formats[0];
            let a = lcg_quantized(rows, k, seed, q32);
            let b = lcg_quantized(rows, k, seed ^ 1, q32);
            prop_assert_eq!(a.add(&b), scalar_zip(&a, &b, false));
            prop_assert_eq!(a.sub(&b), scalar_zip(&a, &b, true));

            // Moving the binary point and the format's together keeps
            // every word; so does a round trip through a 32-bit format.
            prop_assert_eq!(&a.convert(q32), &a);
            if frac + shift < 32 {
                let moved = a.convert_shifted(shift, QFormat::new(32, frac + shift));
                prop_assert_eq!(moved.raw(), a.raw());
            }
            for f in formats {
                let narrow = lcg_quantized(rows, k, seed ^ 2, f);
                let widened = narrow.convert(QFormat::new(32, f.frac_bits()));
                prop_assert_eq!(widened.raw(), narrow.raw());
                prop_assert_eq!(&widened.convert(f), &narrow);
            }
            let order: Vec<usize> = (0..2 * rows).map(|i| (i * 7 + seed as usize) % rows).collect();
            let gathered = a.gather_rows(&order);
            for (g, &r) in order.iter().enumerate() {
                prop_assert_eq!(&gathered.raw()[g * k..(g + 1) * k], &a.raw()[r * k..(r + 1) * k]);
            }
            let stacked = a.vstack(&b);
            prop_assert_eq!(stacked.raw(), [a.raw(), b.raw()].concat().as_slice());

            let (fa, fb) = (formats[pick.0], formats[pick.1]);
            let x = lcg_quantized(rows, k, seed ^ 3, fa);
            let y = lcg_quantized(k, n, seed ^ 4, fb);
            assert_products_match_scalar(&x, &y, QFormat::new(32, frac));

            let f = QFormat::new(bits, bits / 2);
            let edges = [f.min_raw(), f.max_raw()].map(|w| w as i32);
            prop_assert_eq!(QuantizedMatrix::from_raw(1, 2, edges.to_vec(), f).raw(), edges);
            if bits < 32 {
                for w in [f.min_raw() - 1, f.max_raw() + 1] {
                    let built = std::panic::catch_unwind(|| {
                        QuantizedMatrix::from_raw(1, 1, vec![w as i32], f)
                    });
                    prop_assert!(built.is_err(), "{} accepted {}", f, w);
                }
            }
        }
    }

    proptest! {
        #[test]
        fn quantized_matmul_matches_scalar_bitwise(
            m in 1usize..41,
            k in 1usize..71,
            n in 1usize..41,
            seed in 0u64..500,
        ) {
            // Ragged 4×32 tile tails and odd k (a zero-padded last
            // k-pair), in both products; TOKEN × CENTROID at k <= 70
            // stays inside the i32-lane budget.
            let a = lcg_quantized(m, k, seed, formats::TOKEN);
            let b = lcg_quantized(k, n, seed.wrapping_add(1), formats::CENTROID);
            assert_eq!(accumulator(a.format, b.format, k), Accumulator::I32Lanes);
            assert_products_match_scalar(&a, &b, formats::SCORE);
        }

        #[test]
        fn quantized_matmul_close_to_float_matmul(
            seed in 0u64..1000,
        ) {
            use cta_tensor::MatrixRng;
            let mut rng = MatrixRng::new(seed);
            let a = rng.normal_matrix(3, 5, 0.0, 1.0);
            let b = rng.normal_matrix(5, 2, 0.0, 0.2);
            let qa = QuantizedMatrix::quantize(&a, formats::TOKEN);
            let qb = QuantizedMatrix::quantize(&b, formats::LINEAR_WEIGHT);
            let qc = qa.matmul(&qb, formats::SCORE).dequantize();
            let c = a.matmul(&b);
            // Error per element is bounded by accumulated rounding noise.
            let tol = 5.0 * (formats::TOKEN.resolution() + formats::LINEAR_WEIGHT.resolution())
                + formats::SCORE.resolution();
            prop_assert!(qc.approx_eq(&c, tol), "qc={qc:?} c={c:?}");
        }
    }
}
