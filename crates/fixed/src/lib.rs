#![deny(missing_docs)]

//! Fixed-point arithmetic models for the CTA accelerator.
//!
//! The CTA hardware computes entirely in fixed point (paper §IV-C): tokens
//! are 13-bit Q6.7 values, weights are 12-bit values with per-tensor integer
//! widths (e.g. the LSH direction matrix `A` is Q3.9 because its entries are
//! standard-normal and the three-sigma guideline bounds them by 8), and
//! centroids / compressed Q,K,V are 12-bit Q6.6. The probability-aggregation
//! module evaluates `exp` through a shared look-up table (as in A³), and the
//! centroid-averaging unit divides through a reciprocal look-up table.
//!
//! This crate provides those pieces:
//!
//! * [`QFormat`] — a runtime two's-complement Q-format descriptor;
//! * [`QuantizedMatrix`] — a matrix of raw integer words with integer
//!   matmul and saturating requantisation ([`Fixed`] is its scalar
//!   companion for modelling individual hardware registers);
//! * [`ExpLut`] and [`ReciprocalLut`] — the hardware look-up tables, and
//!   [`ScoreExpLut`], the exponent table read with the score word;
//! * [`formats`] — the concrete formats the paper specifies.
//!
//! # Example
//!
//! ```
//! use cta_fixed::{formats, QuantizedMatrix};
//! use cta_tensor::Matrix;
//!
//! let m = Matrix::from_rows(&[&[0.5, -1.25]]);
//! let q = QuantizedMatrix::quantize(&m, formats::TOKEN);
//! let back = q.dequantize();
//! assert!(back.approx_eq(&m, formats::TOKEN.resolution()));
//! ```

mod lut;
mod qformat;
mod quantized;
mod scalar;

pub use lut::{ExpLut, ReciprocalLut, ScoreExpLut};
pub use qformat::QFormat;
pub use quantized::QuantizedMatrix;
pub use scalar::Fixed;

/// The concrete number formats specified by the paper (§IV-C).
pub mod formats {
    use super::QFormat;

    /// Tokens: 13 bits, 6 integer (incl. sign) + 7 fractional.
    pub const TOKEN: QFormat = QFormat::new(13, 7);
    /// LSH parameters: 12 bits with 3 integer bits (the direction matrix
    /// `A` is standard-normal, bounded by the three-sigma guideline).
    pub const LSH_PARAM: QFormat = QFormat::new(12, 9);
    /// Linear-layer weights: 12 bits with 2 integer bits (trained
    /// transformer weights are small).
    pub const LINEAR_WEIGHT: QFormat = QFormat::new(12, 10);
    /// Centroids and compressed queries/keys/values: 12 bits, Q6.6.
    pub const CENTROID: QFormat = QFormat::new(12, 6);
    /// Attention scores after the PPE max-subtraction, at the PAG
    /// interface.
    pub const SCORE: QFormat = QFormat::new(16, 8);
}
