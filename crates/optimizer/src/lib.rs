#![forbid(unsafe_code)]
//! # homunculus-optimizer
//!
//! A HyperMapper-style constrained Bayesian-optimization engine — the
//! *optimization core* substrate of the Homunculus reproduction (§3.2).
//!
//! The paper formulates design-space exploration as black-box optimization:
//! maximize a (noisy, expensive, derivative-free) objective `f: X -> R`
//! over a domain of real/integer/ordinal/categorical variables, subject to
//! *feasibility constraints* (resources, latency, throughput) that are only
//! observable by evaluating a candidate. Following the paper's setup (§5):
//!
//! - the surrogate model is a **random forest** (good with discrete
//!   parameters and non-continuous objectives),
//! - the acquisition criterion is **Expected Improvement**, weighted by the
//!   predicted **probability of feasibility** from a random-forest
//!   classifier trained on the observed constraint verdicts,
//! - search starts with a **uniform random sampling initialization phase**
//!   followed by Bayesian-optimization iterations.
//!
//! The loop is ask/tell: [`BayesianOptimizer::ask`] proposes the next
//! configuration (a DOE sample, then a surrogate suggestion, then `None`
//! at the budget), the caller evaluates it, and
//! [`BayesianOptimizer::tell`] records the outcome. The optimizer owns the
//! RNG and the history; the caller owns the evaluation and when to stop.
//! [`BayesianOptimizer::resume`] replays a recorded history through the
//! same two calls, and [`BayesianOptimizer::run`] is the loop for an
//! objective that is a plain function.
//!
//! # Example
//!
//! ```
//! use homunculus_optimizer::space::{DesignSpace, Parameter};
//! use homunculus_optimizer::{BayesianOptimizer, Evaluation, OptimizerOptions};
//!
//! # fn main() -> Result<(), homunculus_optimizer::OptimizerError> {
//! let mut space = DesignSpace::new("toy");
//! space.add("x", Parameter::real(-5.0, 5.0))?;
//! space.add("n", Parameter::integer(1, 8))?;
//!
//! // Maximize -(x^2) + n, with n <= 6 feasible.
//! let history = BayesianOptimizer::new(space, OptimizerOptions::default().budget(30).seed(1))
//!     .run(|config| {
//!         let x = config.real("x").unwrap();
//!         let n = config.integer("n").unwrap() as f64;
//!         Evaluation::new(-(x * x) + n).feasible(n <= 6.0)
//!     })?;
//! let best = history.best().expect("feasible point found");
//! assert!(best.evaluation.objective > Some(2.0));
//! assert!(best.configuration.integer("n").unwrap() <= 6);
//! # Ok(())
//! # }
//! ```

pub mod acquisition;
pub mod space;
pub mod surrogate;

mod driver;

pub use driver::{
    BayesianOptimizer, EvaluatedPoint, Evaluation, OptimizationHistory, OptimizerOptions,
};

use std::error::Error;
use std::fmt;

/// Errors produced by the optimization engine.
#[derive(Debug, Clone, PartialEq)]
pub enum OptimizerError {
    /// Invalid design-space definition.
    InvalidSpace(String),
    /// Invalid optimizer options.
    InvalidOptions(String),
    /// A persisted history/configuration document failed to decode.
    Decode(String),
    /// A recorded history could not be resumed against this optimizer
    /// (budget, seed, design space, or options drifted since it was
    /// saved).
    Resume(String),
}

impl fmt::Display for OptimizerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptimizerError::InvalidSpace(msg) => write!(f, "invalid design space: {msg}"),
            OptimizerError::InvalidOptions(msg) => write!(f, "invalid options: {msg}"),
            OptimizerError::Decode(msg) => write!(f, "history decode failed: {msg}"),
            OptimizerError::Resume(msg) => write!(f, "history resume failed: {msg}"),
        }
    }
}

impl Error for OptimizerError {}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, OptimizerError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert_eq!(
            OptimizerError::Resume("budget drifted".into()).to_string(),
            "history resume failed: budget drifted"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<OptimizerError>();
    }
}
