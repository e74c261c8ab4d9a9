//! Resource vectors, performance envelopes, and feasibility verdicts.
//!
//! Every backend reports its estimate in a [`ResourceEstimate`] and the
//! compiler checks it against [`Constraints`] — the Alchemy
//! `platform.constrain(...)` clause of Figure 3 (throughput in GPkt/s,
//! latency in ns, plus platform resources).

use std::collections::BTreeMap;
use std::fmt;

/// Platform-specific resource usage, as named quantities.
///
/// Using a named map keeps the compiler generic across targets whose
/// "fundamental resources" differ (MATs for PISA, CUs/MUs for Taurus,
/// LUT/FF/BRAM for FPGAs — §3 of the paper).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResourceVector {
    entries: BTreeMap<String, f64>,
}

impl ResourceVector {
    /// An empty vector.
    pub fn new() -> Self {
        ResourceVector::default()
    }

    /// Sets a named quantity, returning `self` for chaining.
    pub fn with<S: Into<String>>(mut self, name: S, value: f64) -> Self {
        self.entries.insert(name.into(), value);
        self
    }

    /// Reads a named quantity (0.0 when absent).
    pub fn get(&self, name: &str) -> f64 {
        self.entries.get(name).copied().unwrap_or(0.0)
    }

    /// Whether the quantity is present.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &f64)> {
        self.entries.iter()
    }

    /// Element-wise sum (union of keys).
    pub fn add(&self, other: &ResourceVector) -> ResourceVector {
        let mut out = self.clone();
        for (k, v) in &other.entries {
            *out.entries.entry(k.clone()).or_insert(0.0) += v;
        }
        out
    }

    /// `true` if every quantity in `self` is `<=` the matching budget
    /// entry (budget entries missing from `self` are fine; quantities
    /// missing from the budget are unconstrained).
    pub fn fits_within(&self, budget: &ResourceVector) -> bool {
        self.entries
            .iter()
            .all(|(k, v)| match budget.entries.get(k) {
                Some(b) => v <= b,
                None => true,
            })
    }
}

impl fmt::Display for ResourceVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self
            .entries
            .iter()
            .map(|(k, v)| format!("{k}={v:.2}"))
            .collect();
        write!(f, "{{{}}}", parts.join(", "))
    }
}

/// JSON document form: a flat `{name: value}` object in name order.
impl serde_json::ToJson for ResourceVector {
    fn to_json(&self) -> serde_json::Value {
        let mut map = serde_json::Map::new();
        for (name, value) in &self.entries {
            map.insert(name.clone(), serde_json::json!(*value));
        }
        serde_json::Value::Object(map)
    }
}

impl ResourceVector {
    /// Decodes the [`serde_json::ToJson`] document form.
    ///
    /// # Errors
    ///
    /// Returns [`crate::BackendError::InvalidModel`] when `value` is not a
    /// numeric-valued object.
    pub fn from_json(value: &serde_json::Value) -> crate::Result<Self> {
        let map = value.as_object().ok_or_else(|| {
            crate::BackendError::InvalidModel("resource vector must be an object".into())
        })?;
        let mut entries = BTreeMap::new();
        for (name, quantity) in map.iter() {
            let quantity = quantity.as_f64().ok_or_else(|| {
                crate::BackendError::InvalidModel(format!("resource '{name}' must be numeric"))
            })?;
            entries.insert(name.clone(), quantity);
        }
        Ok(ResourceVector { entries })
    }
}

/// Performance envelope of a mapped model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Performance {
    /// Sustained throughput in giga-packets per second.
    pub throughput_gpps: f64,
    /// Per-packet pipeline latency in nanoseconds.
    pub latency_ns: f64,
}

/// JSON document form: `{"throughput_gpps", "latency_ns"}`.
impl serde_json::ToJson for Performance {
    fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "throughput_gpps": self.throughput_gpps,
            "latency_ns": self.latency_ns,
        })
    }
}

impl Performance {
    /// Decodes the [`serde_json::ToJson`] document form.
    ///
    /// # Errors
    ///
    /// Returns [`crate::BackendError::InvalidModel`] on missing or
    /// non-numeric fields.
    pub fn from_json(value: &serde_json::Value) -> crate::Result<Self> {
        let field = |name: &str| {
            value[name].as_f64().ok_or_else(|| {
                crate::BackendError::InvalidModel(format!("performance needs numeric {name}"))
            })
        };
        Ok(Performance {
            throughput_gpps: field("throughput_gpps")?,
            latency_ns: field("latency_ns")?,
        })
    }
}

/// A backend's full estimate for one model.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceEstimate {
    /// Resource usage.
    pub resources: ResourceVector,
    /// Performance envelope.
    pub performance: Performance,
}

/// JSON document form: `{"resources": {..}, "performance": {..}}`.
impl serde_json::ToJson for ResourceEstimate {
    fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "resources": self.resources,
            "performance": self.performance,
        })
    }
}

impl ResourceEstimate {
    /// Decodes the [`serde_json::ToJson`] document form.
    ///
    /// # Errors
    ///
    /// Returns [`crate::BackendError::InvalidModel`] on malformed fields.
    pub fn from_json(value: &serde_json::Value) -> crate::Result<Self> {
        Ok(ResourceEstimate {
            resources: ResourceVector::from_json(&value["resources"])?,
            performance: Performance::from_json(&value["performance"])?,
        })
    }
}

/// Network + resource constraints from the Alchemy program.
///
/// # Example
///
/// ```
/// use homunculus_backends::resources::Constraints;
///
/// let c = Constraints::new()
///     .throughput_gpps(1.0)
///     .latency_ns(500.0)
///     .resource("cus", 256.0);
/// assert_eq!(c.min_throughput_gpps, Some(1.0));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Constraints {
    /// Minimum sustained throughput (GPkt/s), if constrained.
    pub min_throughput_gpps: Option<f64>,
    /// Maximum acceptable latency (ns), if constrained.
    pub max_latency_ns: Option<f64>,
    /// Resource budget (per-name upper bounds).
    pub budget: ResourceVector,
}

impl Constraints {
    /// No constraints.
    pub fn new() -> Self {
        Constraints::default()
    }

    /// Requires at least this throughput.
    pub fn throughput_gpps(mut self, gpps: f64) -> Self {
        self.min_throughput_gpps = Some(gpps);
        self
    }

    /// Allows at most this latency.
    pub fn latency_ns(mut self, ns: f64) -> Self {
        self.max_latency_ns = Some(ns);
        self
    }

    /// Caps a named resource.
    pub fn resource<S: Into<String>>(mut self, name: S, cap: f64) -> Self {
        self.budget = self.budget.with(name, cap);
        self
    }

    /// Checks an estimate, returning every violation.
    pub fn check(&self, estimate: &ResourceEstimate) -> FeasibilityReport {
        let mut violations = Vec::new();
        if let Some(min) = self.min_throughput_gpps {
            if estimate.performance.throughput_gpps < min {
                violations.push(Violation::Throughput {
                    required_gpps: min,
                    achieved_gpps: estimate.performance.throughput_gpps,
                });
            }
        }
        if let Some(max) = self.max_latency_ns {
            if estimate.performance.latency_ns > max {
                violations.push(Violation::Latency {
                    budget_ns: max,
                    achieved_ns: estimate.performance.latency_ns,
                });
            }
        }
        for (name, used) in estimate.resources.iter() {
            if self.budget.contains(name) {
                let cap = self.budget.get(name);
                if *used > cap {
                    violations.push(Violation::Resource {
                        name: name.clone(),
                        cap,
                        used: *used,
                    });
                }
            }
        }
        FeasibilityReport { violations }
    }
}

/// One constraint violation.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// Throughput below the line-rate requirement.
    Throughput {
        /// Required GPkt/s.
        required_gpps: f64,
        /// Achieved GPkt/s.
        achieved_gpps: f64,
    },
    /// Latency above budget.
    Latency {
        /// Budget in ns.
        budget_ns: f64,
        /// Achieved ns.
        achieved_ns: f64,
    },
    /// A resource over its cap.
    Resource {
        /// Resource name.
        name: String,
        /// The cap.
        cap: f64,
        /// Amount used.
        used: f64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Throughput {
                required_gpps,
                achieved_gpps,
            } => write!(
                f,
                "throughput {achieved_gpps:.3} < required {required_gpps:.3} gpps"
            ),
            Violation::Latency {
                budget_ns,
                achieved_ns,
            } => write!(f, "latency {achieved_ns:.0} > budget {budget_ns:.0} ns"),
            Violation::Resource { name, cap, used } => {
                write!(f, "{name} usage {used:.1} > cap {cap:.1}")
            }
        }
    }
}

/// Outcome of a feasibility check.
#[derive(Debug, Clone, PartialEq)]
pub struct FeasibilityReport {
    /// Violations, empty when feasible.
    pub violations: Vec<Violation>,
}

impl FeasibilityReport {
    /// Whether all constraints were met.
    pub fn is_feasible(&self) -> bool {
        self.violations.is_empty()
    }

    /// Total *relative* violation magnitude: 0.0 when feasible, and the
    /// sum of each violation's fractional overshoot otherwise (a resource
    /// at 2x its cap contributes 1.0). Gives constrained search a gradient
    /// toward the feasible region before any feasible point is known.
    pub fn violation_score(&self) -> f64 {
        self.violations
            .iter()
            .map(|v| match v {
                Violation::Throughput {
                    required_gpps,
                    achieved_gpps,
                } => ((required_gpps - achieved_gpps) / required_gpps.max(f64::MIN_POSITIVE))
                    .max(0.0),
                Violation::Latency {
                    budget_ns,
                    achieved_ns,
                } => ((achieved_ns - budget_ns) / budget_ns.max(f64::MIN_POSITIVE)).max(0.0),
                Violation::Resource { cap, used, .. } => {
                    ((used - cap) / cap.max(f64::MIN_POSITIVE)).max(0.0)
                }
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn estimate(cus: f64, tput: f64, lat: f64) -> ResourceEstimate {
        ResourceEstimate {
            resources: ResourceVector::new().with("cus", cus),
            performance: Performance {
                throughput_gpps: tput,
                latency_ns: lat,
            },
        }
    }

    #[test]
    fn vector_get_add_fits() {
        let a = ResourceVector::new().with("cus", 10.0).with("mus", 5.0);
        let b = ResourceVector::new().with("cus", 3.0);
        let sum = a.add(&b);
        assert_eq!(sum.get("cus"), 13.0);
        assert_eq!(sum.get("mus"), 5.0);
        assert_eq!(sum.get("absent"), 0.0);
        let budget = ResourceVector::new().with("cus", 15.0);
        assert!(sum.fits_within(&budget));
        let tight = ResourceVector::new().with("cus", 12.0);
        assert!(!sum.fits_within(&tight));
    }

    #[test]
    fn unconstrained_resources_always_fit() {
        let usage = ResourceVector::new().with("exotic", 1e9);
        assert!(usage.fits_within(&ResourceVector::new()));
    }

    #[test]
    fn constraints_catch_each_violation_kind() {
        let c = Constraints::new()
            .throughput_gpps(1.0)
            .latency_ns(500.0)
            .resource("cus", 100.0);

        let ok = c.check(&estimate(50.0, 1.0, 400.0));
        assert!(ok.is_feasible());

        let slow = c.check(&estimate(50.0, 0.5, 400.0));
        assert_eq!(slow.violations.len(), 1);
        assert!(matches!(slow.violations[0], Violation::Throughput { .. }));

        let laggy = c.check(&estimate(50.0, 1.0, 900.0));
        assert!(matches!(laggy.violations[0], Violation::Latency { .. }));

        let fat = c.check(&estimate(150.0, 1.0, 400.0));
        assert!(matches!(fat.violations[0], Violation::Resource { .. }));

        let all = c.check(&estimate(150.0, 0.5, 900.0));
        assert_eq!(all.violations.len(), 3);
    }

    #[test]
    fn violation_display() {
        let v = Violation::Resource {
            name: "mats".into(),
            cap: 5.0,
            used: 8.0,
        };
        assert_eq!(v.to_string(), "mats usage 8.0 > cap 5.0");
    }

    #[test]
    fn vector_display_nonempty() {
        let v = ResourceVector::new().with("cus", 10.0);
        assert_eq!(v.to_string(), "{cus=10.00}");
    }
}
