//! Model fusion (§3.2.5).
//!
//! "Models learning from similar datasets are most likely learning
//! similar characteristics. [...] Homunculus will assess the feature
//! sets for similarities and if there are a certain number of features in
//! common, it will attempt to build a single model to serve both
//! datasets" — halving resource usage when it works (Table 4).

use crate::alchemy::ModelSpec;
use crate::Result;

/// Default feature-overlap (Jaccard) threshold for attempting fusion.
pub const DEFAULT_OVERLAP_THRESHOLD: f64 = 0.8;

/// The outcome of a fusion attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum FusionDecision {
    /// The specs were fused into one.
    Fused {
        /// Overlap that justified the fusion.
        overlap: f64,
    },
    /// Overlap below threshold.
    InsufficientOverlap {
        /// Measured overlap.
        overlap: f64,
        /// Required threshold.
        threshold: f64,
    },
    /// Objectives disagree (cannot serve both with one model).
    IncompatibleObjectives,
}

/// Attempts to fuse two model specs into one.
///
/// Succeeds when the feature schemas overlap at least `threshold`
/// (Jaccard) and the objectives match; the fused spec trains on the
/// merged dataset and carries the union of the algorithm restrictions.
///
/// # Errors
///
/// Propagates dataset merge errors (schema mismatches despite overlap).
pub fn try_fuse(
    a: &ModelSpec,
    b: &ModelSpec,
    threshold: f64,
) -> Result<(Option<ModelSpec>, FusionDecision)> {
    if a.optimization_metric != b.optimization_metric {
        return Ok((None, FusionDecision::IncompatibleObjectives));
    }
    let overlap = a.dataset.feature_overlap(&b.dataset);
    if overlap < threshold {
        return Ok((
            None,
            FusionDecision::InsufficientOverlap { overlap, threshold },
        ));
    }
    let dataset = a.dataset.merge(&b.dataset)?;
    let mut algorithms = a.algorithms.clone();
    for alg in &b.algorithms {
        if !algorithms.contains(alg) {
            algorithms.push(*alg);
        }
    }
    let mut builder = ModelSpec::builder(format!("{}+{}", a.name, b.name))
        .optimization_metric(a.optimization_metric)
        .data(dataset)
        .test_fraction(a.test_fraction);
    for alg in algorithms {
        builder = builder.algorithm(alg);
    }
    let fused = builder.build()?;
    Ok((Some(fused), FusionDecision::Fused { overlap }))
}

/// Greedily fuses a list of specs pairwise until no pair qualifies.
///
/// # Errors
///
/// Propagates fusion errors.
pub fn fuse_all(mut specs: Vec<ModelSpec>, threshold: f64) -> Result<Vec<ModelSpec>> {
    if specs.len() < 2 {
        return Ok(specs);
    }
    loop {
        let mut fused_pair: Option<(usize, usize, ModelSpec)> = None;
        'outer: for i in 0..specs.len() {
            for j in (i + 1)..specs.len() {
                let (result, _) = try_fuse(&specs[i], &specs[j], threshold)?;
                if let Some(fused) = result {
                    fused_pair = Some((i, j, fused));
                    break 'outer;
                }
            }
        }
        match fused_pair {
            Some((i, j, fused)) => {
                specs.remove(j);
                specs.remove(i);
                specs.push(fused);
            }
            None => return Ok(specs),
        }
    }
}

/// Validation helper for fused names.
pub fn is_fused_name(name: &str) -> bool {
    name.contains('+')
}

/// Splits a fused name back into its parts.
pub fn fused_parts(name: &str) -> Vec<&str> {
    name.split('+').collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alchemy::Metric;
    use homunculus_datasets::dataset::Dataset;
    use homunculus_datasets::nslkdd::NslKddGenerator;
    use homunculus_ml::tensor::Matrix;

    fn spec_with(name: &str, features: Vec<&str>, metric: Metric) -> ModelSpec {
        let x = Matrix::from_fn(6, features.len(), |r, c| (r * 7 + c) as f32);
        let ds = Dataset::new(
            x,
            vec![0, 1, 0, 1, 0, 1],
            2,
            features.iter().map(|s| s.to_string()).collect(),
        )
        .unwrap();
        ModelSpec::builder(name)
            .optimization_metric(metric)
            .data(ds)
            .build()
            .unwrap()
    }

    #[test]
    fn identical_schemas_fuse() {
        let a = spec_with("a", vec!["x", "y"], Metric::F1);
        let b = spec_with("b", vec!["x", "y"], Metric::F1);
        let (fused, decision) = try_fuse(&a, &b, DEFAULT_OVERLAP_THRESHOLD).unwrap();
        let fused = fused.expect("should fuse");
        assert_eq!(fused.name, "a+b");
        assert_eq!(fused.dataset.len(), 12);
        assert!(matches!(decision, FusionDecision::Fused { overlap } if overlap == 1.0));
    }

    #[test]
    fn low_overlap_rejected() {
        let a = spec_with("a", vec!["x", "y"], Metric::F1);
        let b = spec_with("b", vec!["x", "z"], Metric::F1);
        let (fused, decision) = try_fuse(&a, &b, DEFAULT_OVERLAP_THRESHOLD).unwrap();
        assert!(fused.is_none());
        assert!(matches!(
            decision,
            FusionDecision::InsufficientOverlap { .. }
        ));
    }

    #[test]
    fn incompatible_objectives_rejected() {
        let a = spec_with("a", vec!["x", "y"], Metric::F1);
        let b = spec_with("b", vec!["x", "y"], Metric::Accuracy);
        let (fused, decision) = try_fuse(&a, &b, 0.0).unwrap();
        assert!(fused.is_none());
        assert_eq!(decision, FusionDecision::IncompatibleObjectives);
    }

    #[test]
    fn table4_scenario_halves_fuse() {
        // The Table 4 experiment: one AD dataset split in two, fused back.
        let g = NslKddGenerator::new(9);
        let (half_a, half_b) = g.generate_halves(1_000);
        let a = ModelSpec::builder("ad_part1").data(half_a).build().unwrap();
        let b = ModelSpec::builder("ad_part2").data(half_b).build().unwrap();
        let (fused, _) = try_fuse(&a, &b, DEFAULT_OVERLAP_THRESHOLD).unwrap();
        let fused = fused.expect("halves share the schema");
        assert_eq!(fused.dataset.len(), 1_000);
        assert!(is_fused_name(&fused.name));
        assert_eq!(fused_parts(&fused.name), vec!["ad_part1", "ad_part2"]);
    }

    #[test]
    fn fuse_all_greedy() {
        let a = spec_with("a", vec!["x", "y"], Metric::F1);
        let b = spec_with("b", vec!["x", "y"], Metric::F1);
        let c = spec_with("c", vec!["p", "q"], Metric::F1);
        let out = fuse_all(vec![a, b, c], DEFAULT_OVERLAP_THRESHOLD).unwrap();
        assert_eq!(out.len(), 2);
        let names: Vec<&str> = out.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"c"));
        assert!(names.contains(&"a+b"));
    }

    #[test]
    fn fuse_all_singleton_passthrough() {
        let a = spec_with("a", vec!["x"], Metric::F1);
        let out = fuse_all(vec![a.clone()], 0.9).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].name, "a");
    }
}
