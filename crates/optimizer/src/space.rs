//! Design spaces: named parameters with bounds, sampling, and encoding.
//!
//! The paper's design spaces mix variable kinds — "real (continuous),
//! integer, ordinal, or categorical as in \[HyperMapper\]" (§3.2.3). A
//! [`DesignSpace`] maps names to [`Parameter`]s; a [`Configuration`] is one
//! point of the space. Spaces also serialize to the HyperMapper JSON
//! configuration format, mirroring how the paper's implementation feeds
//! its design-space restrictions to HyperMapper (§4).

use crate::{OptimizerError, Result};
use rand::rngs::StdRng;
use rand::Rng;
use serde_json::json;

/// One tunable parameter.
#[derive(Debug, Clone, PartialEq)]
pub enum Parameter {
    /// A real variable in `[low, high]`.
    Real {
        /// Inclusive lower bound.
        low: f64,
        /// Inclusive upper bound.
        high: f64,
    },
    /// An integer variable in `[low, high]`.
    Integer {
        /// Inclusive lower bound.
        low: i64,
        /// Inclusive upper bound.
        high: i64,
    },
    /// An ordered set of numeric levels (e.g. batch sizes 16/32/64).
    Ordinal {
        /// The levels, strictly increasing.
        levels: Vec<f64>,
    },
    /// An unordered set of options (e.g. activation functions).
    Categorical {
        /// The option names.
        options: Vec<String>,
    },
}

impl Parameter {
    /// A real parameter in `[low, high]`.
    pub fn real(low: f64, high: f64) -> Self {
        Parameter::Real { low, high }
    }

    /// An integer parameter in `[low, high]`.
    pub fn integer(low: i64, high: i64) -> Self {
        Parameter::Integer { low, high }
    }

    /// An ordinal parameter over the given increasing levels.
    pub fn ordinal(levels: Vec<f64>) -> Self {
        Parameter::Ordinal { levels }
    }

    /// A categorical parameter over the given options.
    pub fn categorical<S: Into<String>>(options: Vec<S>) -> Self {
        Parameter::Categorical {
            options: options.into_iter().map(Into::into).collect(),
        }
    }

    fn validate(&self, name: &str) -> Result<()> {
        match self {
            Parameter::Real { low, high } => {
                if !(low.is_finite() && high.is_finite() && low < high) {
                    return Err(OptimizerError::InvalidSpace(format!(
                        "real parameter '{name}' needs finite low < high (got {low}..{high})"
                    )));
                }
            }
            Parameter::Integer { low, high } => {
                if low > high {
                    return Err(OptimizerError::InvalidSpace(format!(
                        "integer parameter '{name}' needs low <= high (got {low}..{high})"
                    )));
                }
            }
            Parameter::Ordinal { levels } => {
                if levels.is_empty() {
                    return Err(OptimizerError::InvalidSpace(format!(
                        "ordinal parameter '{name}' needs at least one level"
                    )));
                }
                if levels.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(OptimizerError::InvalidSpace(format!(
                        "ordinal parameter '{name}' levels must be strictly increasing"
                    )));
                }
            }
            Parameter::Categorical { options } => {
                if options.is_empty() {
                    return Err(OptimizerError::InvalidSpace(format!(
                        "categorical parameter '{name}' needs at least one option"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Uniform random value of this parameter.
    pub fn sample(&self, rng: &mut StdRng) -> ParamValue {
        match self {
            Parameter::Real { low, high } => ParamValue::Real(rng.gen_range(*low..=*high)),
            Parameter::Integer { low, high } => ParamValue::Integer(rng.gen_range(*low..=*high)),
            Parameter::Ordinal { levels } => {
                ParamValue::Ordinal(levels[rng.gen_range(0..levels.len())])
            }
            Parameter::Categorical { options } => {
                ParamValue::Categorical(rng.gen_range(0..options.len()))
            }
        }
    }

    /// Whether `value` is a member of this parameter's domain.
    pub fn contains(&self, value: &ParamValue) -> bool {
        match (self, value) {
            (Parameter::Real { low, high }, ParamValue::Real(v)) => (*low..=*high).contains(v),
            (Parameter::Integer { low, high }, ParamValue::Integer(v)) => {
                (*low..=*high).contains(v)
            }
            (Parameter::Ordinal { levels }, ParamValue::Ordinal(v)) => {
                levels.iter().any(|l| (l - v).abs() < 1e-12)
            }
            (Parameter::Categorical { options }, ParamValue::Categorical(i)) => *i < options.len(),
            _ => false,
        }
    }

    /// A neighbor of `value` for local-perturbation candidate generation.
    pub fn perturb(&self, value: &ParamValue, rng: &mut StdRng) -> ParamValue {
        self.perturb_scaled(value, rng, 1.0)
    }

    /// Like [`Parameter::perturb`] but with the step width scaled by
    /// `scale` (in `(0, 1]`). Small scales give fine-grained exploitation
    /// moves around an incumbent; the driver mixes several scales per
    /// iteration.
    pub fn perturb_scaled(&self, value: &ParamValue, rng: &mut StdRng, scale: f64) -> ParamValue {
        match (self, value) {
            (Parameter::Real { low, high }, ParamValue::Real(v)) => {
                let width = (high - low) * 0.1 * scale;
                let u: f64 = rng.gen_range(-1.0..1.0);
                ParamValue::Real((v + u * width).clamp(*low, *high))
            }
            (Parameter::Integer { low, high }, ParamValue::Integer(v)) => {
                let span = (((high - low) as f64 / 8.0 * scale).round() as i64).max(1);
                let delta = rng.gen_range(-span..=span);
                ParamValue::Integer((v + delta).clamp(*low, *high))
            }
            (Parameter::Ordinal { levels }, ParamValue::Ordinal(v)) => {
                let idx = levels
                    .iter()
                    .position(|l| (l - v).abs() < 1e-12)
                    .unwrap_or(0);
                let step: i64 = rng.gen_range(-1..=1);
                let new = (idx as i64 + step).clamp(0, levels.len() as i64 - 1) as usize;
                ParamValue::Ordinal(levels[new])
            }
            _ => self.sample(rng),
        }
    }
}

/// A concrete value of one parameter.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// Value of a real parameter.
    Real(f64),
    /// Value of an integer parameter.
    Integer(i64),
    /// Selected level of an ordinal parameter.
    Ordinal(f64),
    /// Selected option index of a categorical parameter.
    Categorical(usize),
}

/// JSON document form: a single-key object tagging the kind, e.g.
/// `{"real": 0.5}` or `{"categorical": 2}`.
impl serde_json::ToJson for ParamValue {
    fn to_json(&self) -> serde_json::Value {
        match self {
            ParamValue::Real(v) => json!({ "real": *v }),
            ParamValue::Integer(v) => json!({ "integer": *v }),
            ParamValue::Ordinal(v) => json!({ "ordinal": *v }),
            ParamValue::Categorical(i) => json!({ "categorical": *i }),
        }
    }
}

impl ParamValue {
    /// Decodes the [`serde_json::ToJson`] document form.
    ///
    /// # Errors
    ///
    /// Returns [`OptimizerError::Decode`] for an unknown tag or a
    /// mistyped payload.
    pub fn from_json(value: &serde_json::Value) -> Result<Self> {
        let object = value
            .as_object()
            .filter(|o| o.len() == 1)
            .ok_or_else(|| OptimizerError::Decode("param value must be a one-key object".into()))?;
        let (kind, payload) = object.iter().next().expect("one entry");
        match kind.as_str() {
            "real" => payload.as_f64().map(ParamValue::Real),
            "integer" => payload.as_i64().map(ParamValue::Integer),
            "ordinal" => payload.as_f64().map(ParamValue::Ordinal),
            "categorical" => payload
                .as_i64()
                .filter(|&i| i >= 0)
                .map(|i| ParamValue::Categorical(i as usize)),
            _ => None,
        }
        .ok_or_else(|| OptimizerError::Decode(format!("bad param value kind '{kind}'")))
    }

    /// Numeric encoding used by the surrogate's feature vectors.
    pub fn encode(&self) -> f32 {
        match self {
            ParamValue::Real(v) => *v as f32,
            ParamValue::Integer(v) => *v as f32,
            ParamValue::Ordinal(v) => *v as f32,
            ParamValue::Categorical(i) => *i as f32,
        }
    }
}

/// A point in a design space: one value per parameter, in space order.
#[derive(Debug, Clone, PartialEq)]
pub struct Configuration {
    names: Vec<String>,
    values: Vec<ParamValue>,
}

/// JSON document form: `{"names": [..], "values": [..]}`, parallel
/// arrays in space order.
impl serde_json::ToJson for Configuration {
    fn to_json(&self) -> serde_json::Value {
        json!({ "names": self.names, "values": self.values })
    }
}

impl Configuration {
    pub(crate) fn new(names: Vec<String>, values: Vec<ParamValue>) -> Self {
        Configuration { names, values }
    }

    /// Decodes the [`serde_json::ToJson`] document form.
    ///
    /// # Errors
    ///
    /// Returns [`OptimizerError::Decode`] on missing fields or
    /// names/values arrays of different lengths.
    pub fn from_json(value: &serde_json::Value) -> Result<Self> {
        let names = value["names"]
            .as_array()
            .ok_or_else(|| OptimizerError::Decode("configuration needs a names array".into()))?
            .iter()
            .map(|n| {
                n.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| OptimizerError::Decode("parameter names must be strings".into()))
            })
            .collect::<Result<Vec<_>>>()?;
        let values = value["values"]
            .as_array()
            .ok_or_else(|| OptimizerError::Decode("configuration needs a values array".into()))?
            .iter()
            .map(ParamValue::from_json)
            .collect::<Result<Vec<_>>>()?;
        if names.len() != values.len() {
            return Err(OptimizerError::Decode(format!(
                "configuration has {} names but {} values",
                names.len(),
                values.len()
            )));
        }
        Ok(Configuration { names, values })
    }

    /// The parameter names, in order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The values, parallel to [`Configuration::names`].
    pub fn values(&self) -> &[ParamValue] {
        &self.values
    }

    /// Looks up a value by name.
    pub fn get(&self, name: &str) -> Option<&ParamValue> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| &self.values[i])
    }

    /// The value of a real parameter, if present and real.
    pub fn real(&self, name: &str) -> Option<f64> {
        match self.get(name) {
            Some(ParamValue::Real(v)) => Some(*v),
            _ => None,
        }
    }

    /// The value of an integer parameter, if present and integer.
    pub fn integer(&self, name: &str) -> Option<i64> {
        match self.get(name) {
            Some(ParamValue::Integer(v)) => Some(*v),
            _ => None,
        }
    }

    /// The level of an ordinal parameter, if present and ordinal.
    pub fn ordinal(&self, name: &str) -> Option<f64> {
        match self.get(name) {
            Some(ParamValue::Ordinal(v)) => Some(*v),
            _ => None,
        }
    }

    /// The selected option index of a categorical parameter.
    pub fn categorical(&self, name: &str) -> Option<usize> {
        match self.get(name) {
            Some(ParamValue::Categorical(i)) => Some(*i),
            _ => None,
        }
    }

    /// Numeric feature vector for the surrogate model.
    pub fn encode(&self) -> Vec<f32> {
        self.values.iter().map(ParamValue::encode).collect()
    }
}

/// A named collection of parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpace {
    name: String,
    params: Vec<(String, Parameter)>,
}

impl DesignSpace {
    /// Creates an empty space with an application name (used in the
    /// HyperMapper JSON header).
    pub fn new<S: Into<String>>(name: S) -> Self {
        DesignSpace {
            name: name.into(),
            params: Vec::new(),
        }
    }

    /// The application name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a parameter.
    ///
    /// # Errors
    ///
    /// Returns [`OptimizerError::InvalidSpace`] on invalid bounds or a
    /// duplicate name.
    pub fn add<S: Into<String>>(&mut self, name: S, parameter: Parameter) -> Result<&mut Self> {
        let name = name.into();
        parameter.validate(&name)?;
        if self.params.iter().any(|(n, _)| *n == name) {
            return Err(OptimizerError::InvalidSpace(format!(
                "duplicate parameter '{name}'"
            )));
        }
        self.params.push((name, parameter));
        Ok(self)
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Whether the space has no parameters.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Iterates over `(name, parameter)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Parameter)> {
        self.params.iter().map(|(n, p)| (n, p))
    }

    /// Uniform random configuration.
    pub fn sample(&self, rng: &mut StdRng) -> Configuration {
        let names = self.params.iter().map(|(n, _)| n.clone()).collect();
        let values = self.params.iter().map(|(_, p)| p.sample(rng)).collect();
        Configuration::new(names, values)
    }

    /// A local perturbation of `base` (each parameter nudged with
    /// probability 1/2, at least one always changed).
    pub fn perturb(&self, base: &Configuration, rng: &mut StdRng) -> Configuration {
        self.perturb_scaled(base, rng, 1.0)
    }

    /// Like [`DesignSpace::perturb`] with every parameter's step width
    /// scaled by `scale` (see [`Parameter::perturb_scaled`]).
    pub fn perturb_scaled(
        &self,
        base: &Configuration,
        rng: &mut StdRng,
        scale: f64,
    ) -> Configuration {
        let forced = rng.gen_range(0..self.params.len().max(1));
        let values = self
            .params
            .iter()
            .enumerate()
            .map(|(i, (_, p))| {
                if i == forced || rng.gen_bool(0.5) {
                    p.perturb_scaled(&base.values()[i], rng, scale)
                } else {
                    base.values()[i].clone()
                }
            })
            .collect();
        let names = self.params.iter().map(|(n, _)| n.clone()).collect();
        Configuration::new(names, values)
    }

    /// Whether `config` is a member of this space.
    pub fn contains(&self, config: &Configuration) -> bool {
        config.names()
            == self
                .params
                .iter()
                .map(|(n, _)| n.clone())
                .collect::<Vec<_>>()
            && self
                .params
                .iter()
                .zip(config.values())
                .all(|((_, p), v)| p.contains(v))
    }

    /// Serializes the space to the HyperMapper JSON configuration format
    /// (the file the paper's implementation feeds to HyperMapper, §4).
    pub fn to_hypermapper_json(&self) -> serde_json::Value {
        let mut params = serde_json::Map::new();
        for (name, p) in &self.params {
            let entry = match p {
                Parameter::Real { low, high } => json!({
                    "parameter_type": "real",
                    "values": [low, high],
                }),
                Parameter::Integer { low, high } => json!({
                    "parameter_type": "integer",
                    "values": [low, high],
                }),
                Parameter::Ordinal { levels } => json!({
                    "parameter_type": "ordinal",
                    "values": levels,
                }),
                Parameter::Categorical { options } => json!({
                    "parameter_type": "categorical",
                    "values": options,
                }),
            };
            params.insert(name.clone(), entry);
        }
        json!({
            "application_name": self.name,
            "optimization_objectives": ["objective"],
            "feasible_output": {
                "name": "feasible",
                "true_value": true,
                "false_value": false,
                "enable_feasible_predictor": true,
            },
            "models": { "model": "random_forest" },
            "input_parameters": params,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn space() -> DesignSpace {
        let mut s = DesignSpace::new("test");
        s.add("lr", Parameter::real(1e-4, 1e-1)).unwrap();
        s.add("layers", Parameter::integer(1, 10)).unwrap();
        s.add("batch", Parameter::ordinal(vec![16.0, 32.0, 64.0, 128.0]))
            .unwrap();
        s.add("act", Parameter::categorical(vec!["relu", "tanh"]))
            .unwrap();
        s
    }

    #[test]
    fn add_rejects_bad_definitions() {
        let mut s = DesignSpace::new("bad");
        assert!(s.add("x", Parameter::real(1.0, 1.0)).is_err());
        assert!(s.add("x", Parameter::real(f64::NAN, 1.0)).is_err());
        assert!(s.add("x", Parameter::integer(5, 2)).is_err());
        assert!(s.add("x", Parameter::ordinal(vec![])).is_err());
        assert!(s.add("x", Parameter::ordinal(vec![2.0, 1.0])).is_err());
        assert!(s
            .add("x", Parameter::categorical(Vec::<String>::new()))
            .is_err());
        s.add("x", Parameter::real(0.0, 1.0)).unwrap();
        assert!(s.add("x", Parameter::integer(0, 1)).is_err(), "duplicate");
    }

    #[test]
    fn samples_are_members() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..200 {
            let c = s.sample(&mut rng);
            assert!(s.contains(&c), "{c:?}");
        }
    }

    #[test]
    fn accessors_typed() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(1);
        let c = s.sample(&mut rng);
        assert!(c.real("lr").is_some());
        assert!(c.integer("layers").is_some());
        assert!(c.ordinal("batch").is_some());
        assert!(c.categorical("act").is_some());
        assert!(c.real("layers").is_none(), "wrong kind yields None");
        assert!(c.get("nope").is_none());
    }

    #[test]
    fn encode_length_matches_params() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(s.sample(&mut rng).encode().len(), s.len());
    }

    #[test]
    fn perturbations_stay_in_space() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(3);
        let base = s.sample(&mut rng);
        for _ in 0..200 {
            let p = s.perturb(&base, &mut rng);
            assert!(s.contains(&p), "{p:?}");
        }
    }

    #[test]
    fn configuration_json_roundtrip_is_exact() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let c = s.sample(&mut rng);
            let text = serde_json::to_string(&serde_json::ToJson::to_json(&c)).unwrap();
            let decoded = Configuration::from_json(&serde_json::from_str(&text).unwrap()).unwrap();
            assert_eq!(c, decoded, "configuration drifted through JSON");
        }
    }

    #[test]
    fn configuration_decode_rejects_malformed() {
        let bad = serde_json::from_str("{\"names\": [\"a\"], \"values\": []}").unwrap();
        assert!(Configuration::from_json(&bad).is_err(), "length mismatch");
        let bad = serde_json::from_str(
            "{\"names\": [\"a\"], \"values\": [{\"real\": 1, \"integer\": 2}]}",
        )
        .unwrap();
        assert!(Configuration::from_json(&bad).is_err(), "two-key value");
        let bad =
            serde_json::from_str("{\"names\": [\"a\"], \"values\": [{\"complex\": 1}]}").unwrap();
        assert!(Configuration::from_json(&bad).is_err(), "unknown kind");
    }

    #[test]
    fn hypermapper_json_structure() {
        let s = space();
        let j = s.to_hypermapper_json();
        assert_eq!(j["application_name"], "test");
        assert_eq!(j["models"]["model"], "random_forest");
        assert_eq!(j["input_parameters"]["lr"]["parameter_type"], "real");
        assert_eq!(j["input_parameters"]["batch"]["parameter_type"], "ordinal");
        assert_eq!(
            j["feasible_output"]["enable_feasible_predictor"],
            serde_json::Value::Bool(true)
        );
    }

    proptest! {
        #[test]
        fn prop_real_samples_in_bounds(low in -100.0f64..0.0, width in 0.1f64..100.0, seed in 0u64..50) {
            let p = Parameter::real(low, low + width);
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..20 {
                let v = p.sample(&mut rng);
                prop_assert!(p.contains(&v));
            }
        }

        #[test]
        fn prop_integer_perturb_in_bounds(low in -50i64..0, span in 1i64..100, seed in 0u64..50) {
            let p = Parameter::integer(low, low + span);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut v = p.sample(&mut rng);
            for _ in 0..50 {
                v = p.perturb(&v, &mut rng);
                prop_assert!(p.contains(&v));
            }
        }
    }
}
