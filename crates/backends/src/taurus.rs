//! The Taurus backend: a MapReduce CGRA grid in a PISA switch.
//!
//! Taurus (ASPLOS 2022) adds a Plasticine-style grid of **Compute Units**
//! (CUs) and **Memory Units** (MUs) between the parse and deparse MAT
//! stages of a switch, programmed via the Spatial DSL. DNN layers lower to
//! nested map/reduce (dot products) over the grid; the per-layer
//! dimensions decide the resource bill, and the unroll factor decides
//! whether the pipeline sustains line rate.
//!
//! # Resource model (calibrated to Table 2's operating range)
//!
//! For a DNN layer `in -> out`:
//!
//! - **CUs**: to sustain an initiation interval of one packet per cycle,
//!   each output neuron needs its dot product fully spatially unrolled:
//!   `ceil(in / VEC)` vector MAC lanes, `VEC = 8` lanes per CU. Total per
//!   layer: `out * ceil(in / VEC)`, plus a fixed overhead of 2 CUs for
//!   feature extraction and argmax/action selection.
//! - **MUs**: each layer keeps its activations in double-buffered SRAM
//!   (`2 * ceil(out / 2)` MUs) plus weight banks (`ceil(params / 32)`
//!   MUs of 32 words), plus 1 MU for the streaming input FIFO.
//!
//! This model reproduces the paper's qualitative Table 2 behaviour: the
//! wide-shallow Base-BD is CU-heavy while the narrow-deep Hom-BD is
//! MU-heavy (the compute/memory inversion of §5.1.2), and magnitudes land
//! in the published 24-167 CU / 45-151 MU range.
//!
//! [`TaurusTarget::stages`] is the one lowering: the fixed
//! parse/extract/argmax/deparse stage, then one [`GridStage`] per layer
//! (SVM, KMeans, trees and forests lower to equivalent layers). The
//! estimator sums it into the resource bill and the timing, and the code
//! generator emits the layers it lists.

use crate::model::ModelIr;
use crate::resources::{Performance, ResourceEstimate, ResourceVector};
use crate::spatial;
use crate::target::{Target, TargetKind};
use crate::{BackendError, Result};

/// Vector MAC lanes per CU (dot-product unroll width).
pub const VEC_WIDTH: usize = 8;

/// Words per MU weight bank.
pub const MU_BANK_WORDS: usize = 32;

/// One pipeline stage of a model lowered onto the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridStage {
    /// CU instances the stage occupies.
    pub cus: usize,
    /// MU instances the stage occupies.
    pub mus: usize,
    /// Cycles a packet spends in the stage.
    pub latency_cycles: usize,
}

/// A Taurus switch configuration.
///
/// # Example
///
/// ```
/// use homunculus_backends::taurus::TaurusTarget;
/// use homunculus_backends::target::Target;
/// use homunculus_backends::model::{DnnIr, ModelIr};
/// use homunculus_ml::mlp::MlpArchitecture;
///
/// # fn main() -> Result<(), homunculus_backends::BackendError> {
/// let taurus = TaurusTarget::new(16, 16);
/// let model = ModelIr::Dnn(DnnIr::from_architecture(&MlpArchitecture::new(7, vec![16, 4], 2)));
/// let est = taurus.estimate(&model)?;
/// assert!(est.resources.get("cus") > 0.0);
/// assert_eq!(est.performance.throughput_gpps, 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TaurusTarget {
    name: String,
    /// Grid rows (CU/MU columns alternate within a row in Plasticine;
    /// we model `rows x cols` CUs and the same count of MUs).
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
    /// Clock frequency in GHz (1 GHz in the paper's testbed).
    pub clock_ghz: f64,
}

impl TaurusTarget {
    /// A Taurus switch with the given grid shape at 1 GHz.
    pub fn new(rows: usize, cols: usize) -> Self {
        TaurusTarget {
            name: format!("taurus-{rows}x{cols}"),
            rows,
            cols,
            clock_ghz: 1.0,
        }
    }

    /// Total CU capacity of the grid.
    pub fn cu_capacity(&self) -> usize {
        self.rows * self.cols
    }

    /// Total MU capacity of the grid.
    pub fn mu_capacity(&self) -> usize {
        self.rows * self.cols
    }

    /// Lowers a model to its pipeline stages (see module docs): the fixed
    /// stage (2 CUs for feature extraction and argmax, 1 MU for the input
    /// FIFO, 24 cycles of parse/extract/deparse) first, then one stage per
    /// layer. A layer's latency is a log-depth reduction tree over its dot
    /// product plus MAC issue, activation and buffering.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid models and for trees deeper than the
    /// grid has rows.
    pub fn stages(&self, model: &ModelIr) -> Result<Vec<GridStage>> {
        model.validate()?;
        if !self.supports(model) {
            return Err(BackendError::Unsupported {
                target: self.name.clone(),
                model: model.family().into(),
            });
        }
        // Non-DNN families lower to equivalent layer dims: an SVM is one
        // dense layer; KMeans is one distance layer (k dot products) plus
        // an argmin; a tree is a comparison cascade.
        let dims: Vec<(usize, usize)> = match model {
            ModelIr::Dnn(d) => d.arch.layer_dims(),
            ModelIr::Svm(s) => vec![(s.n_features, s.n_classes.max(2) - 1)],
            ModelIr::KMeans(k) => vec![(k.n_features, k.k)],
            ModelIr::Tree(t) => vec![(t.n_features, t.depth.max(1))],
            // Each member tree is its own comparison cascade; the vote is
            // one extra reduce over the per-tree verdicts.
            ModelIr::Forest(f) => f
                .trees
                .iter()
                .map(|t| (t.n_features, t.depth.max(1)))
                .chain([(f.n_trees(), f.n_classes)])
                .collect(),
        };
        let fixed = GridStage {
            cus: 2,
            mus: 1,
            latency_cycles: 24,
        };
        Ok(std::iter::once(fixed)
            .chain(dims.into_iter().map(|(i, o)| GridStage {
                cus: o * i.div_ceil(VEC_WIDTH),
                mus: 2 * o.div_ceil(2) + (i * o + o).div_ceil(MU_BANK_WORDS),
                latency_cycles: (usize::BITS - (i.max(1) - 1).leading_zeros()) as usize + 3,
            }))
            .collect())
    }

    /// Initiation interval of the stages on this grid: 1 when they fit
    /// fully unrolled. Overflowing the grid forces time-multiplexing: the
    /// interval grows with the overflow ratio — this is the mechanism by
    /// which "too many iterations in the vector-matrix multiplication loop
    /// brings down the device throughput" (§3).
    pub fn initiation_interval(&self, stages: &[GridStage]) -> u64 {
        let cus: usize = stages.iter().map(|s| s.cus).sum();
        let mus: usize = stages.iter().map(|s| s.mus).sum();
        let overflow =
            (cus as f64 / self.cu_capacity() as f64).max(mus as f64 / self.mu_capacity() as f64);
        overflow.ceil().max(1.0) as u64
    }
}

impl Default for TaurusTarget {
    /// The paper's running-example configuration: a 16x16 grid (Figure 3
    /// constrains `"rows": 16, "cols": 16`).
    fn default() -> Self {
        TaurusTarget::new(16, 16)
    }
}

impl Target for TaurusTarget {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> TargetKind {
        TargetKind::Taurus
    }

    fn supports(&self, model: &ModelIr) -> bool {
        // The MapReduce grid runs linear-algebra models natively. Trees
        // are better served by the MAT pipeline in front of the grid, but
        // small ones can be flattened; we accept everything except trees
        // deeper than the grid diagonal.
        match model {
            ModelIr::Dnn(_) | ModelIr::Svm(_) | ModelIr::KMeans(_) => true,
            ModelIr::Tree(t) => t.depth <= self.rows,
            ModelIr::Forest(f) => f.depth() <= self.rows,
        }
    }

    fn estimate(&self, model: &ModelIr) -> Result<ResourceEstimate> {
        let stages = self.stages(model)?;
        let cus: usize = stages.iter().map(|s| s.cus).sum();
        let mus: usize = stages.iter().map(|s| s.mus).sum();
        let latency_cycles: usize = stages.iter().map(|s| s.latency_cycles).sum();
        // One packet per `ii` cycles at `clock_ghz` GPkt/s.
        let ii = self.initiation_interval(&stages);
        Ok(ResourceEstimate {
            resources: ResourceVector::new()
                .with("cus", cus as f64)
                .with("mus", mus as f64),
            performance: Performance {
                throughput_gpps: self.clock_ghz / ii as f64,
                latency_ns: latency_cycles as f64 / self.clock_ghz,
            },
        })
    }

    fn generate_code(&self, model: &ModelIr, pipeline_name: &str) -> Result<String> {
        // A Taurus switch is a PISA pipeline with a MapReduce block in the
        // middle: linear-algebra models lower to Spatial for the grid,
        // while decision trees map onto the surrounding MAT stages as P4.
        match model {
            ModelIr::Tree(_) | ModelIr::Forest(_) => crate::p4::generate(model, pipeline_name),
            _ => spatial::generate(model, pipeline_name),
        }
    }

    fn device_budget(&self) -> ResourceVector {
        ResourceVector::new()
            .with("cus", self.cu_capacity() as f64)
            .with("mus", self.mu_capacity() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{DnnIr, ForestIr, KMeansIr, SvmIr, TreeIr};
    use crate::resources::Constraints;
    use homunculus_ml::mlp::MlpArchitecture;
    use proptest::prelude::*;

    fn dnn(input: usize, hidden: Vec<usize>, output: usize) -> ModelIr {
        ModelIr::Dnn(DnnIr::from_architecture(&MlpArchitecture::new(
            input, hidden, output,
        )))
    }

    /// Table 2 anchoring: the paper's hand-tuned baselines land in the
    /// published CU/MU ranges (24-167 CUs, 45-151 MUs).
    #[test]
    fn baseline_models_land_in_paper_range() {
        let taurus = TaurusTarget::default();
        // Base-AD (~203 params), Base-TC (10,10,5 — 275 params),
        // Base-BD (4x10 on 30 features — 662 params).
        for (model, _) in [
            (dnn(7, vec![16, 4], 2), "base-ad"),
            (dnn(7, vec![10, 10, 5], 5), "base-tc"),
            (dnn(30, vec![10, 10, 10, 10], 2), "base-bd"),
        ] {
            let est = taurus.estimate(&model).unwrap();
            let cus = est.resources.get("cus");
            let mus = est.resources.get("mus");
            assert!((10.0..=256.0).contains(&cus), "cus {cus}");
            assert!((10.0..=256.0).contains(&mus), "mus {mus}");
        }
    }

    /// The §5.1.2 compute/memory inversion: a wide-shallow net is
    /// CU-heavy, an equally-sized narrow-deep net is MU-heavy.
    #[test]
    fn wide_vs_deep_resource_inversion() {
        let taurus = TaurusTarget::default();
        let wide = dnn(30, vec![10, 10, 10, 10], 2); // Base-BD shape
        let deep = dnn(30, vec![5, 5, 5, 5, 5, 5, 5, 5, 5, 5], 2); // Hom-BD shape
        let w = taurus.estimate(&wide).unwrap();
        let d = taurus.estimate(&deep).unwrap();
        assert!(
            w.resources.get("cus") > d.resources.get("cus"),
            "wide should need more CUs: {} vs {}",
            w.resources.get("cus"),
            d.resources.get("cus")
        );
        assert!(
            d.resources.get("mus") > w.resources.get("mus"),
            "deep should need more MUs: {} vs {}",
            d.resources.get("mus"),
            w.resources.get("mus")
        );
    }

    #[test]
    fn small_models_hit_line_rate() {
        let taurus = TaurusTarget::default();
        let est = taurus.estimate(&dnn(7, vec![16, 4], 2)).unwrap();
        assert_eq!(est.performance.throughput_gpps, 1.0);
        assert!(
            est.performance.latency_ns < 500.0,
            "latency {}",
            est.performance.latency_ns
        );
    }

    #[test]
    fn oversized_model_loses_throughput() {
        let taurus = TaurusTarget::new(4, 4); // tiny grid
        let est = taurus.estimate(&dnn(30, vec![64, 64], 2)).unwrap();
        assert!(est.performance.throughput_gpps < 1.0);
    }

    #[test]
    fn monotonic_in_width() {
        let taurus = TaurusTarget::default();
        let mut last_cus = 0.0;
        for width in [4, 8, 16, 32] {
            let est = taurus.estimate(&dnn(7, vec![width], 2)).unwrap();
            let cus = est.resources.get("cus");
            assert!(cus >= last_cus, "cus must not shrink with width");
            last_cus = cus;
        }
    }

    #[test]
    fn feasibility_check_catches_budget() {
        let taurus = TaurusTarget::default();
        let model = dnn(30, vec![10, 10, 10, 10], 2);
        let loose = Constraints::new().throughput_gpps(1.0).latency_ns(500.0);
        assert!(taurus.check(&model, &loose).unwrap().is_feasible());
        let tight = Constraints::new().resource("cus", 10.0);
        assert!(!taurus.check(&model, &tight).unwrap().is_feasible());
    }

    #[test]
    fn svm_kmeans_tree_supported() {
        let taurus = TaurusTarget::default();
        for m in [
            ModelIr::Svm(SvmIr::from_shape(7, 2)),
            ModelIr::KMeans(KMeansIr::from_shape(5, 7)),
            ModelIr::Tree(TreeIr::from_shape(4, 7, 16)),
        ] {
            assert!(taurus.supports(&m));
            let est = taurus.estimate(&m).unwrap();
            assert!(est.resources.get("cus") >= 2.0);
        }
        let deep_tree = ModelIr::Tree(TreeIr::from_shape(40, 7, 100));
        assert!(!taurus.supports(&deep_tree));
        assert!(taurus.estimate(&deep_tree).is_err());
    }

    /// Shapes of all five families, small to oversized.
    fn every_family() -> Vec<ModelIr> {
        vec![
            dnn(7, vec![16, 4], 2),
            dnn(7, vec![10, 10, 5], 2),
            dnn(30, vec![5, 5, 5, 5, 5, 5, 5, 5, 5, 5], 2),
            dnn(64, vec![31], 2),
            dnn(30, vec![64, 64], 2),
            ModelIr::Svm(SvmIr::from_shape(7, 2)),
            ModelIr::Svm(SvmIr::from_shape(30, 5)),
            ModelIr::KMeans(KMeansIr::from_shape(1, 7)),
            ModelIr::KMeans(KMeansIr::from_shape(5, 7)),
            ModelIr::KMeans(KMeansIr::from_shape(40, 30)),
            ModelIr::Tree(TreeIr::from_shape(4, 7, 16)),
            ModelIr::Tree(TreeIr::from_shape(12, 30, 200)),
            ModelIr::Tree(TreeIr::from_shape(20, 7, 100)),
            ModelIr::Forest(ForestIr::from_shape(3, 4, 7, 16)),
            ModelIr::Forest(ForestIr::from_shape(8, 6, 30, 64)),
        ]
    }

    /// The grid runs at line rate exactly when the stages' units fit it.
    #[test]
    fn line_rate_exactly_when_the_units_fit_the_grid() {
        let (mut fits, mut overflows) = (0, 0);
        for rows in (4..=32).step_by(4) {
            for cols in (4..=32).step_by(4) {
                let taurus = TaurusTarget::new(rows, cols);
                for model in every_family() {
                    let Ok(stages) = taurus.stages(&model) else {
                        continue;
                    };
                    let cus: usize = stages.iter().map(|s| s.cus).sum();
                    let mus: usize = stages.iter().map(|s| s.mus).sum();
                    let fit = cus <= taurus.cu_capacity() && mus <= taurus.mu_capacity();
                    let ii = taurus.initiation_interval(&stages);
                    assert_eq!(ii == 1, fit, "{rows}x{cols} {model:?}");
                    let est = taurus.estimate(&model).unwrap();
                    assert_eq!(est.performance.throughput_gpps, 1.0 / ii as f64);
                    if fit {
                        fits += 1;
                    } else {
                        overflows += 1;
                    }
                }
            }
        }
        assert!(
            fits > 0 && overflows > 0,
            "{fits} fit, {overflows} overflow"
        );
        // The fixed stage's 2 CUs count: dnn(64, [31], 2) is 258 CUs on a
        // 256-slot grid, so II 2.
        let taurus = TaurusTarget::default();
        let wide = taurus.stages(&dnn(64, vec![31], 2)).unwrap();
        assert_eq!(wide.iter().map(|s| s.cus).sum::<usize>(), 258);
        assert_eq!(taurus.initiation_interval(&wide), 2);
    }

    #[test]
    fn stage_lists_by_family() {
        let taurus = TaurusTarget::default();
        let fixed = GridStage {
            cus: 2,
            mus: 1,
            latency_cycles: 24,
        };
        // (model, stages after the fixed one)
        for (model, layers) in [
            (ModelIr::Svm(SvmIr::from_shape(7, 2)), 1),
            (ModelIr::KMeans(KMeansIr::from_shape(5, 7)), 1),
            (ModelIr::Tree(TreeIr::from_shape(4, 7, 16)), 1),
            (ModelIr::Forest(ForestIr::from_shape(3, 4, 7, 16)), 4),
        ] {
            let stages = taurus.stages(&model).unwrap();
            assert_eq!(stages[0], fixed, "{model:?}");
            assert_eq!(stages.len(), 1 + layers, "{model:?}");
            // Trees and forests fit the 16x16 grid.
            assert_eq!(taurus.initiation_interval(&stages), 1, "{model:?}");
        }
        // The fixed 24 cycles plus a 6-cycle compare over 7 features.
        let tree = ModelIr::Tree(TreeIr::from_shape(4, 7, 16));
        assert_eq!(taurus.estimate(&tree).unwrap().performance.latency_ns, 30.0);
    }

    #[test]
    fn default_grid_is_16x16() {
        let t = TaurusTarget::default();
        assert_eq!(t.cu_capacity(), 256);
        assert_eq!(t.name(), "taurus-16x16");
        assert_eq!(t.kind(), TargetKind::Taurus);
        assert_eq!(t.device_budget().get("cus"), 256.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_estimates_positive_and_monotone_in_depth(
            width in 2usize..12,
            depth in 1usize..8,
        ) {
            let taurus = TaurusTarget::default();
            let shallow = dnn(7, vec![width; depth], 2);
            let deeper = dnn(7, vec![width; depth + 1], 2);
            let a = taurus.estimate(&shallow).unwrap();
            let b = taurus.estimate(&deeper).unwrap();
            prop_assert!(a.resources.get("cus") > 0.0);
            prop_assert!(b.resources.get("cus") >= a.resources.get("cus"));
            prop_assert!(b.resources.get("mus") > a.resources.get("mus"));
            prop_assert!(b.performance.latency_ns > a.performance.latency_ns);
        }
    }
}
