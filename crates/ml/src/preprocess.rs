//! Feature preprocessing shared between training and deployment.
//!
//! A model is only as good as the feature scaling it was trained under:
//! the [`Normalizer`] fitted on the training split must travel with the
//! model to deployment (the serving layer applies it to raw traffic
//! before the compiled pipeline classifies). It lives here — in the ML
//! substrate — so the inference runtime can depend on it without pulling
//! in dataset generation.

use crate::{MlError, Result};

/// Smallest usable per-feature standard deviation. Anything closer to
/// zero is treated as a degenerate (constant) column that should have
/// been fitted as `std = 1.0`; see [`Normalizer::validate`].
pub const MIN_STD: f32 = 1e-12;

/// A fitted z-score feature normalizer.
#[derive(Debug, Clone, PartialEq)]
pub struct Normalizer {
    /// Per-feature mean.
    pub mean: Vec<f32>,
    /// Per-feature standard deviation (1.0 for constant features).
    pub std: Vec<f32>,
}

/// JSON document form: `{"mean": [..], "std": [..]}` — the normalizer
/// travels with every portable compile artifact so reloaded models
/// preprocess fresh traffic exactly as trained.
impl serde_json::ToJson for Normalizer {
    fn to_json(&self) -> serde_json::Value {
        serde_json::json!({ "mean": self.mean, "std": self.std })
    }
}

impl Normalizer {
    /// Decodes the [`serde_json::ToJson`] document form.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidArgument`] on missing fields or
    /// mean/std vectors of different lengths.
    pub fn from_json(value: &serde_json::Value) -> Result<Self> {
        let floats = |field: &str| {
            value[field]
                .as_array()
                .ok_or_else(|| {
                    MlError::InvalidArgument(format!("normalizer needs a {field} array"))
                })?
                .iter()
                .map(|v| {
                    v.as_f64().map(|v| v as f32).ok_or_else(|| {
                        MlError::InvalidArgument(format!("normalizer {field} must be numeric"))
                    })
                })
                .collect::<Result<Vec<f32>>>()
        };
        let (mean, std) = (floats("mean")?, floats("std")?);
        if mean.len() != std.len() {
            return Err(MlError::InvalidArgument(format!(
                "normalizer has {} means but {} stds",
                mean.len(),
                std.len()
            )));
        }
        let norm = Normalizer { mean, std };
        norm.validate()?;
        Ok(norm)
    }

    /// Checks the fitted statistics are usable: every mean finite, every
    /// std finite and at least [`MIN_STD`] in magnitude. A zero or
    /// near-zero std would divide the column to ±inf/NaN, which then
    /// quantizes to a saturated raw and silently poisons every verdict —
    /// so decode ([`Normalizer::from_json`]) refuses such documents with
    /// a typed error naming the column.
    ///
    /// # Errors
    ///
    /// [`MlError::DegenerateNormalizer`] with the offending column index,
    /// or [`MlError::InvalidArgument`] for a non-finite mean.
    pub fn validate(&self) -> Result<()> {
        for (column, &s) in self.std.iter().enumerate() {
            if !s.is_finite() || s.abs() < MIN_STD {
                return Err(MlError::DegenerateNormalizer { column, std: s });
            }
        }
        for (column, &m) in self.mean.iter().enumerate() {
            if !m.is_finite() {
                return Err(MlError::InvalidArgument(format!(
                    "normalizer mean for column {column} is not finite"
                )));
            }
        }
        Ok(())
    }

    /// Transforms a single feature vector in place.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the fitted dimensionality.
    pub fn apply(&self, features: &mut [f32]) {
        assert_eq!(features.len(), self.mean.len(), "dimensionality mismatch");
        for ((f, m), s) in features.iter_mut().zip(&self.mean).zip(&self.std) {
            *f = (*f - m) / s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_zscores_in_place() {
        let norm = Normalizer {
            mean: vec![1.0, 10.0],
            std: vec![2.0, 5.0],
        };
        let mut features = vec![3.0, 0.0];
        norm.apply(&mut features);
        assert_eq!(features, vec![1.0, -2.0]);
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let norm = Normalizer {
            mean: vec![0.1, -3.7, 1e-20],
            std: vec![2.0, 0.333_333_34, 5e7],
        };
        let text = serde_json::to_string(&serde_json::ToJson::to_json(&norm)).unwrap();
        let decoded = Normalizer::from_json(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(norm, decoded);
    }

    #[test]
    fn json_decode_rejects_malformed() {
        let bad = serde_json::from_str("{\"mean\": [1, 2], \"std\": [1]}").unwrap();
        assert!(Normalizer::from_json(&bad).is_err(), "length mismatch");
        let bad = serde_json::from_str("{\"mean\": [1]}").unwrap();
        assert!(Normalizer::from_json(&bad).is_err(), "missing std");
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn apply_rejects_wrong_width() {
        let norm = Normalizer {
            mean: vec![0.0],
            std: vec![1.0],
        };
        norm.apply(&mut [1.0, 2.0]);
    }
}
