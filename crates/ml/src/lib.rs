#![forbid(unsafe_code)]
//! # homunculus-ml
//!
//! The machine-learning substrate of the Homunculus reproduction.
//!
//! The paper delegates model training to Keras/TensorFlow; this crate is the
//! from-scratch Rust replacement. The Homunculus optimization core only
//! treats a trainer as a black box mapping *hyper-parameter configurations*
//! to *metric values*, so any correct trainer exercises the identical
//! compiler code paths.
//!
//! The crate provides:
//!
//! - [`tensor::Matrix`] — a small row-major `f32` matrix with the linear
//!   algebra the trainers need (and that the backend code generators mirror
//!   as map/reduce templates).
//! - [`mlp`] — multi-layer perceptrons trained with mini-batch
//!   backpropagation (SGD with momentum or Adam) and softmax cross-entropy.
//!   A net that collapses into subnormal weights trains on an exact path
//!   that keeps the native bits without the FPU's slow subnormal assist
//!   (the module docs).
//! - [`svm`] — linear support-vector machines (hinge loss, one-vs-rest).
//! - [`kmeans`] — KMeans clustering with kmeans++ initialization.
//! - [`tree`] / [`forest`] — CART decision trees and random forests; the
//!   forest regressor doubles as the Bayesian-optimization surrogate model
//!   (the paper's HyperMapper setup uses a random-forest surrogate, §5).
//! - [`metrics`] — F1, accuracy, confusion matrices, and the V-measure used
//!   by the paper's Figure 7 KMeans experiment.
//! - [`quantize`] — fixed-point quantization used when mapping trained
//!   weights onto data-plane hardware, plus the packed-integer kernel
//!   tier ([`quantize::PackedFixed`]): weights narrowed once to
//!   contiguous `i16` words with vectorizable dot/matvec/distance
//!   kernels — portable, safe Rust — that are bit-identical to the scalar
//!   `i32` path.
//! - [`bounds`] — interval-domain bound derivation over the quantized
//!   kernels: per-output value ranges and no-saturation certificates
//!   derived from the concrete weights, which let certified kernels skip
//!   the packed tier's worst-case saturation guards.
//!
//! # Example
//!
//! ```
//! use homunculus_ml::mlp::{Mlp, MlpArchitecture, TrainConfig};
//! use homunculus_ml::tensor::Matrix;
//!
//! # fn main() -> Result<(), homunculus_ml::MlError> {
//! // XOR-ish toy problem.
//! let x = Matrix::from_rows(&[
//!     vec![0.0, 0.0],
//!     vec![0.0, 1.0],
//!     vec![1.0, 0.0],
//!     vec![1.0, 1.0],
//! ])?;
//! let y = vec![0, 1, 1, 0];
//! let arch = MlpArchitecture::new(2, vec![8, 8], 2);
//! let mut net = Mlp::new(&arch, 7)?;
//! net.train(&x, &y, &TrainConfig::default().epochs(600).learning_rate(0.05))?;
//! assert_eq!(net.predict_row(&[0.0, 1.0])?, 1);
//! # Ok(())
//! # }
//! ```

pub mod bounds;
mod exact;
pub mod forest;
pub mod kmeans;
pub mod metrics;
pub mod mlp;
mod packed;
pub mod preprocess;
pub mod quantize;
pub mod svm;
pub mod tensor;
pub mod tree;

use std::error::Error;
use std::fmt;

/// Errors produced by the ML substrate.
///
/// Every fallible public function in this crate returns [`MlError`]. The
/// messages are lowercase and concise per the Rust API guidelines.
#[derive(Debug, Clone, PartialEq)]
pub enum MlError {
    /// Two operands had incompatible shapes, e.g. a matrix product of
    /// `(a, b)` with `(c, d)` where `b != c`.
    ShapeMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Shape of the left/first operand.
        left: (usize, usize),
        /// Shape of the right/second operand.
        right: (usize, usize),
    },
    /// An argument was empty where data was required.
    EmptyInput(&'static str),
    /// An argument value was outside the valid domain.
    InvalidArgument(String),
    /// Training failed to make progress (e.g. all-NaN loss).
    Diverged(String),
    /// A fitted [`preprocess::Normalizer`] has an unusable standard
    /// deviation (zero, near-zero, or non-finite) in the named column —
    /// applying it would divide the column to ±inf/NaN.
    DegenerateNormalizer {
        /// Index of the offending feature column.
        column: usize,
        /// The rejected standard deviation.
        std: f32,
    },
}

impl fmt::Display for MlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlError::ShapeMismatch { op, left, right } => write!(
                f,
                "shape mismatch in {op}: left is {}x{}, right is {}x{}",
                left.0, left.1, right.0, right.1
            ),
            MlError::EmptyInput(what) => write!(f, "empty input: {what}"),
            MlError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            MlError::Diverged(msg) => write!(f, "training diverged: {msg}"),
            MlError::DegenerateNormalizer { column, std } => write!(
                f,
                "normalizer std for column {column} is degenerate ({std})"
            ),
        }
    }
}

impl Error for MlError {}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, MlError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_lowercase_and_concise() {
        let e = MlError::EmptyInput("training set");
        assert_eq!(e.to_string(), "empty input: training set");
        let e = MlError::ShapeMismatch {
            op: "matmul",
            left: (2, 3),
            right: (4, 5),
        };
        assert!(e.to_string().contains("2x3"));
        assert!(e.to_string().contains("4x5"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MlError>();
    }
}
