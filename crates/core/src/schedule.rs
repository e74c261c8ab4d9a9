//! Scheduling multiple models on one data plane (§3.1/§5.1.3).
//!
//! Alchemy lets operators compose models "either sequentially `>` or in
//! parallel `|`, \[forming\] a directed acyclic graph of any depth as long
//! as the resources permit". Rust cannot overload `>`, so the sequential
//! operator is `>>` ([`std::ops::Shr`]); parallel composition keeps `|`
//! ([`std::ops::BitOr`]).
//!
//! The scheduler enforces the paper's throughput-consistency rule
//! (§3.2.1): "if one model operates at 1 GPkt/s throughput and feeds into
//! another model operating at 0.5 GPkt/s, the first model must also
//! operate at 0.5 GPkt/s" — i.e. a composed pipeline runs at the *minimum*
//! member throughput, while latencies add along the critical path and
//! resources add across all members.

use crate::alchemy::ModelSpec;
use crate::{CoreError, Result};
use homunculus_backends::resources::{Performance, ResourceVector};
use std::ops::{BitOr, Shr};

/// A composition tree of model specs.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleExpr {
    /// A single model.
    Leaf(Box<ModelSpec>),
    /// Sequential composition: packets flow left to right.
    Seq(Vec<ScheduleExpr>),
    /// Parallel composition: all branches see every packet.
    Par(Vec<ScheduleExpr>),
}

impl ScheduleExpr {
    /// All model specs, left-to-right.
    pub fn models(&self) -> Vec<&ModelSpec> {
        match self {
            ScheduleExpr::Leaf(m) => vec![m],
            ScheduleExpr::Seq(children) | ScheduleExpr::Par(children) => {
                children.iter().flat_map(ScheduleExpr::models).collect()
            }
        }
    }

    /// Model names, left-to-right.
    pub fn model_names(&self) -> Vec<String> {
        self.models().iter().map(|m| m.name.clone()).collect()
    }

    /// Number of scheduled models.
    pub fn len(&self) -> usize {
        self.models().len()
    }

    /// Whether the schedule holds no models (never true for valid trees).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Validates the tree: non-empty composites and unique model names.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidProgram`] for empty composites or
    /// duplicate names.
    pub fn validate(&self) -> Result<()> {
        match self {
            ScheduleExpr::Leaf(_) => {}
            ScheduleExpr::Seq(children) | ScheduleExpr::Par(children) => {
                if children.is_empty() {
                    return Err(CoreError::InvalidProgram("empty composition".into()));
                }
                for child in children {
                    child.validate()?;
                }
            }
        }
        let mut names = self.model_names();
        names.sort();
        let before = names.len();
        names.dedup();
        if names.len() != before {
            return Err(CoreError::InvalidProgram(
                "duplicate model names in schedule".into(),
            ));
        }
        Ok(())
    }

    /// Combined performance of the schedule given each member's
    /// performance (keyed by model name, in [`ScheduleExpr::models`]
    /// order): throughput = min across members; latency = sum along the
    /// critical path (sequential adds, parallel takes the max).
    ///
    /// # Panics
    ///
    /// Panics if `perf` is shorter than the number of models.
    pub fn combined_performance(&self, perf: &[Performance]) -> Performance {
        let mut index = 0;
        self.fold_performance(perf, &mut index)
    }

    fn fold_performance(&self, perf: &[Performance], index: &mut usize) -> Performance {
        match self {
            ScheduleExpr::Leaf(_) => {
                let p = perf[*index];
                *index += 1;
                p
            }
            ScheduleExpr::Seq(children) => {
                let parts: Vec<Performance> = children
                    .iter()
                    .map(|c| c.fold_performance(perf, index))
                    .collect();
                Performance {
                    throughput_gpps: parts
                        .iter()
                        .map(|p| p.throughput_gpps)
                        .fold(f64::INFINITY, f64::min),
                    latency_ns: parts.iter().map(|p| p.latency_ns).sum(),
                }
            }
            ScheduleExpr::Par(children) => {
                let parts: Vec<Performance> = children
                    .iter()
                    .map(|c| c.fold_performance(perf, index))
                    .collect();
                Performance {
                    throughput_gpps: parts
                        .iter()
                        .map(|p| p.throughput_gpps)
                        .fold(f64::INFINITY, f64::min),
                    latency_ns: parts.iter().map(|p| p.latency_ns).fold(0.0, f64::max),
                }
            }
        }
    }

    /// Total resources: the element-wise sum across all members ("the
    /// increase in resources for different chaining strategies stays
    /// constant with the number of models, regardless of the strategy" —
    /// Table 3).
    pub fn combined_resources(&self, resources: &[ResourceVector]) -> ResourceVector {
        resources
            .iter()
            .fold(ResourceVector::new(), |acc, r| acc.add(r))
    }
}

impl From<ModelSpec> for ScheduleExpr {
    fn from(spec: ModelSpec) -> Self {
        ScheduleExpr::Leaf(Box::new(spec))
    }
}

// --- operator overloads -----------------------------------------------
//
// `a >> b` = sequential (paper `a > b`); `a | b` = parallel (paper `a | b`).
// Both flatten nested same-kind composites so `a >> b >> c` is one Seq.

fn seq(lhs: ScheduleExpr, rhs: ScheduleExpr) -> ScheduleExpr {
    let mut children = match lhs {
        ScheduleExpr::Seq(c) => c,
        other => vec![other],
    };
    match rhs {
        ScheduleExpr::Seq(c) => children.extend(c),
        other => children.push(other),
    }
    ScheduleExpr::Seq(children)
}

fn par(lhs: ScheduleExpr, rhs: ScheduleExpr) -> ScheduleExpr {
    let mut children = match lhs {
        ScheduleExpr::Par(c) => c,
        other => vec![other],
    };
    match rhs {
        ScheduleExpr::Par(c) => children.extend(c),
        other => children.push(other),
    }
    ScheduleExpr::Par(children)
}

impl Shr for ModelSpec {
    type Output = ScheduleExpr;

    fn shr(self, rhs: ModelSpec) -> ScheduleExpr {
        seq(self.into(), rhs.into())
    }
}

impl Shr<ScheduleExpr> for ModelSpec {
    type Output = ScheduleExpr;

    fn shr(self, rhs: ScheduleExpr) -> ScheduleExpr {
        seq(self.into(), rhs)
    }
}

impl Shr<ModelSpec> for ScheduleExpr {
    type Output = ScheduleExpr;

    fn shr(self, rhs: ModelSpec) -> ScheduleExpr {
        seq(self, rhs.into())
    }
}

impl Shr for ScheduleExpr {
    type Output = ScheduleExpr;

    fn shr(self, rhs: ScheduleExpr) -> ScheduleExpr {
        seq(self, rhs)
    }
}

impl BitOr for ModelSpec {
    type Output = ScheduleExpr;

    fn bitor(self, rhs: ModelSpec) -> ScheduleExpr {
        par(self.into(), rhs.into())
    }
}

impl BitOr<ScheduleExpr> for ModelSpec {
    type Output = ScheduleExpr;

    fn bitor(self, rhs: ScheduleExpr) -> ScheduleExpr {
        par(self.into(), rhs)
    }
}

impl BitOr<ModelSpec> for ScheduleExpr {
    type Output = ScheduleExpr;

    fn bitor(self, rhs: ModelSpec) -> ScheduleExpr {
        par(self, rhs.into())
    }
}

impl BitOr for ScheduleExpr {
    type Output = ScheduleExpr;

    fn bitor(self, rhs: ScheduleExpr) -> ScheduleExpr {
        par(self, rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homunculus_datasets::dataset::Dataset;
    use homunculus_ml::tensor::Matrix;

    fn spec(name: &str) -> ModelSpec {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0]]).unwrap();
        let ds = Dataset::new(x, vec![0, 1], 2, vec!["f".into()]).unwrap();
        ModelSpec::builder(name).data(ds).build().unwrap()
    }

    fn perf(tput: f64, lat: f64) -> Performance {
        Performance {
            throughput_gpps: tput,
            latency_ns: lat,
        }
    }

    #[test]
    fn operators_build_expected_trees() {
        let e = spec("a") >> spec("b") >> spec("c") >> spec("d");
        assert!(matches!(&e, ScheduleExpr::Seq(c) if c.len() == 4));

        let e = spec("a") | spec("b") | spec("c") | spec("d");
        assert!(matches!(&e, ScheduleExpr::Par(c) if c.len() == 4));

        // Table 3's mixed strategy: a > (b | c) > d.
        let e = spec("a") >> (spec("b") | spec("c")) >> spec("d");
        assert_eq!(e.model_names(), vec!["a", "b", "c", "d"]);
        assert!(matches!(&e, ScheduleExpr::Seq(c) if c.len() == 3));
    }

    #[test]
    fn validate_rejects_duplicates() {
        let e = spec("a") >> spec("a");
        assert!(e.validate().is_err());
        let ok = spec("a") >> spec("b");
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn sequential_throughput_is_min_latency_sums() {
        let e = spec("a") >> spec("b");
        let combined = e.combined_performance(&[perf(1.0, 100.0), perf(0.5, 200.0)]);
        assert_eq!(combined.throughput_gpps, 0.5, "paper's consistency rule");
        assert_eq!(combined.latency_ns, 300.0);
    }

    #[test]
    fn parallel_throughput_is_min_latency_maxes() {
        let e = spec("a") | spec("b");
        let combined = e.combined_performance(&[perf(1.0, 100.0), perf(0.5, 200.0)]);
        assert_eq!(combined.throughput_gpps, 0.5);
        assert_eq!(combined.latency_ns, 200.0);
    }

    #[test]
    fn mixed_tree_critical_path() {
        // a >> (b | c) >> d: latency = a + max(b, c) + d.
        let e = spec("a") >> (spec("b") | spec("c")) >> spec("d");
        let combined = e.combined_performance(&[
            perf(1.0, 50.0),
            perf(1.0, 120.0),
            perf(1.0, 80.0),
            perf(1.0, 50.0),
        ]);
        assert_eq!(combined.latency_ns, 50.0 + 120.0 + 50.0);
        assert_eq!(combined.throughput_gpps, 1.0);
    }

    #[test]
    fn resources_sum_regardless_of_strategy() {
        let r = |cus: f64| ResourceVector::new().with("cus", cus);
        let resources = vec![r(10.0), r(20.0), r(30.0), r(40.0)];
        let seq = spec("a") >> spec("b") >> spec("c") >> spec("d");
        let par = spec("e") | spec("f") | spec("g") | spec("h");
        assert_eq!(seq.combined_resources(&resources).get("cus"), 100.0);
        assert_eq!(par.combined_resources(&resources).get("cus"), 100.0);
    }

    #[test]
    fn leaf_passthrough() {
        let e: ScheduleExpr = spec("solo").into();
        assert_eq!(e.len(), 1);
        assert!(!e.is_empty());
        let combined = e.combined_performance(&[perf(0.7, 42.0)]);
        assert_eq!(combined.throughput_gpps, 0.7);
        assert_eq!(combined.latency_ns, 42.0);
    }
}
