#![deny(missing_docs)]

//! Dense linear-algebra substrate for the CTA reproduction.
//!
//! Every other crate in the workspace (LSH clustering, the attention
//! algorithms, the accelerator simulator, the baseline hardware models)
//! computes with the row-major [`Matrix`] type defined here. The crate is
//! deliberately small and dependency-free apart from `rand` and
//! `cta-parallel`: it provides exactly the operations attention needs —
//! matrix products, transposes, row-wise softmax, norms — plus seeded
//! random initialisation and the scalar statistics helpers used by the
//! benchmark harness. The `par_matmul` family runs the same kernels over
//! row panels on a work-stealing pool with bitwise-identical results.
//! The hot inner loops run register-tiled SIMD bodies, the only
//! production path; the naive scalar loops survive as test oracles that
//! pin them bit for bit, and
//! [`exp_in_place`] evaluates `f32::exp` bit for bit eight lanes at a
//! time where the host's libm allows it.
//!
//! # Example
//!
//! ```
//! use cta_tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! let c = a.matmul(&b);
//! assert_eq!(c, a);
//! ```

mod exp;
mod kernels;
mod matrix;
mod nn;
mod ops;
mod par;
mod random;
mod softmax;
mod stats;

pub use exp::exp_in_place;
pub use kernels::KernelPolicy;
pub use matrix::Matrix;
pub use nn::{gelu, gelu_matrix, layer_norm_rows};
pub use random::{standard_normal_matrix, uniform_matrix, MatrixRng};
pub use softmax::{log_sum_exp, softmax_rows, softmax_rows_in_place};
pub use stats::{cosine_similarity, geometric_mean, mean, relative_error, Summary};
