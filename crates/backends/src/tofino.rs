//! The Tofino backend: a plain PISA match-action pipeline with IIsy-style
//! ML mappings.
//!
//! Without a MapReduce block, classical models map onto **match-action
//! tables** (MATs) by exploiting their structural similarity to table
//! lookups (IIsy, HotNets 2019). The paper plugs IIsy into Homunculus as a
//! backend (§4) with these cost rules:
//!
//! - **SVM**: roughly "a MAT per feature" plus one decision table. When
//!   the budget is too small, Homunculus "will try to remove less
//!   impactful features until the SVM model fits".
//! - **KMeans**: "a single MAT for each cluster" — the Figure 7 experiment
//!   varies exactly this budget (K5 = 5 tables ... K1 = 1 table).
//! - **Decision tree**: one table per feature plus one leaf/decision table.
//! - **DNN**: only via N2Net-style binarized layers; expensive ("a single
//!   layer of a manually designed anomaly-detection DNN in N2Net takes up
//!   to 12 MATs", §2) — this is what rules DNNs out on small MAT budgets.
//!
//! [`TofinoTarget::tables`] is the one lowering: the table list in
//! dependency order, whose length is the MAT bill.
//! [`TofinoTarget::stage_walk`] packs it into stages and times the walk.
//! The estimator calls both, and the P4 generator emits the tables in the
//! same order under the same names.

use crate::model::ModelIr;
use crate::p4;
use crate::resources::{Performance, ResourceEstimate, ResourceVector};
use crate::target::{Target, TargetKind};
use crate::{BackendError, Result};

/// MATs consumed per binarized DNN layer (N2Net's reported worst case).
pub const MATS_PER_BNN_LAYER: usize = 12;

/// Logical tables that fit in one pipeline stage.
pub const TABLES_PER_STAGE: usize = 4;

/// A Tofino-class PISA switch.
///
/// # Example
///
/// ```
/// use homunculus_backends::tofino::TofinoTarget;
/// use homunculus_backends::target::Target;
/// use homunculus_backends::model::{KMeansIr, ModelIr};
///
/// # fn main() -> Result<(), homunculus_backends::BackendError> {
/// let tofino = TofinoTarget::default();
/// let model = ModelIr::KMeans(KMeansIr::from_shape(5, 7));
/// let est = tofino.estimate(&model)?;
/// assert_eq!(est.resources.get("mats"), 5.0); // one MAT per cluster
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TofinoTarget {
    name: String,
    /// Pipeline stages (Tofino has 12 per pipe).
    pub stages: usize,
    /// Total MATs available for the ML pipeline (the paper notes an SVM's
    /// 8 MATs are already "25% of switch tables", implying ~32 usable).
    pub mats: usize,
    /// Line rate in GPkt/s (PISA forwards at line rate regardless of the
    /// program as long as it fits).
    pub line_rate_gpps: f64,
    /// Per-stage latency in ns.
    pub stage_latency_ns: f64,
}

impl TofinoTarget {
    /// A Tofino with an explicit MAT budget.
    pub fn with_mats(mats: usize) -> Self {
        TofinoTarget {
            name: format!("tofino-{mats}mats"),
            stages: 12,
            mats,
            line_rate_gpps: 1.0,
            stage_latency_ns: 33.0,
        }
    }

    /// The tables a model expands to under the IIsy mapping rules, in
    /// dependency order (named as the P4 generator names them).
    pub fn tables(model: &ModelIr) -> Vec<String> {
        let per_feature = |prefix: &str, n: usize, last: &str| -> Vec<String> {
            (0..n)
                .map(|f| format!("{prefix}feature_{f}"))
                .chain(std::iter::once(format!("{prefix}{last}")))
                .collect()
        };
        match model {
            // One table per feature (range match on the feature value
            // yielding a partial score) + one decision table.
            ModelIr::Svm(s) => per_feature("", s.n_features, "decision"),
            // One table per cluster.
            ModelIr::KMeans(k) => (0..k.k).map(|c| format!("cluster_{c}")).collect(),
            // One table per feature + one leaf-action table.
            ModelIr::Tree(t) => per_feature("", t.n_features, "leaves"),
            // N2Net-style binarized layers.
            ModelIr::Dnn(d) => (0..d.arch.depth())
                .flat_map(|l| {
                    (0..MATS_PER_BNN_LAYER).map(move |m| format!("bnn_layer_{l}_mat_{m}"))
                })
                .collect(),
            // One tree-table set per member plus the vote table.
            ModelIr::Forest(f) => (0..f.n_trees())
                .flat_map(|t| per_feature(&format!("t{t}_"), f.n_features, "leaves"))
                .chain(std::iter::once("vote".into()))
                .collect(),
        }
    }

    /// MAT cost of a model: the length of [`TofinoTarget::tables`].
    pub fn mat_cost(model: &ModelIr) -> usize {
        Self::tables(model).len()
    }

    /// The stage walk of a `tables`-table program: its tables pack
    /// [`TABLES_PER_STAGE`] to a stage, dependent tables serialize across
    /// stages (at least two), and a packet crosses every stage plus the
    /// parser and deparser. Returns `(stages, latency_ns)`.
    pub fn stage_walk(&self, tables: usize) -> (usize, f64) {
        let stages = tables.div_ceil(TABLES_PER_STAGE).max(2);
        (stages, stages as f64 * self.stage_latency_ns + 50.0)
    }
}

impl Default for TofinoTarget {
    /// A 12-stage pipe with 32 usable MATs.
    fn default() -> Self {
        TofinoTarget::with_mats(32)
    }
}

impl Target for TofinoTarget {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> TargetKind {
        TargetKind::Tofino
    }

    fn supports(&self, model: &ModelIr) -> bool {
        // Everything maps in principle (DNNs via binarization); practical
        // fit is decided by the MAT budget in `estimate`/`check`.
        match model {
            ModelIr::Dnn(d) => d.arch.depth() * MATS_PER_BNN_LAYER <= self.mats,
            _ => true,
        }
    }

    fn estimate(&self, model: &ModelIr) -> Result<ResourceEstimate> {
        model.validate()?;
        if !self.supports(model) {
            return Err(BackendError::Unsupported {
                target: self.name.clone(),
                model: format!("{} (needs {} MATs)", model.family(), Self::mat_cost(model)),
            });
        }
        let mats = Self::mat_cost(model);
        let (stages_used, latency_ns) = self.stage_walk(mats);
        Ok(ResourceEstimate {
            resources: ResourceVector::new()
                .with("mats", mats as f64)
                .with("stages", stages_used as f64),
            performance: Performance {
                // PISA runs at line rate if (and only if) the program fits;
                // fitting is checked via the MAT budget.
                throughput_gpps: if mats <= self.mats {
                    self.line_rate_gpps
                } else {
                    0.0
                },
                latency_ns,
            },
        })
    }

    fn generate_code(&self, model: &ModelIr, pipeline_name: &str) -> Result<String> {
        p4::generate(model, pipeline_name)
    }

    fn device_budget(&self) -> ResourceVector {
        ResourceVector::new()
            .with("mats", self.mats as f64)
            .with("stages", self.stages as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{DnnIr, KMeansIr, SvmIr, TreeIr};
    use crate::resources::Constraints;
    use homunculus_ml::mlp::MlpArchitecture;

    #[test]
    fn iisy_mat_costs() {
        let dnn = ModelIr::Dnn(DnnIr::from_architecture(&MlpArchitecture::new(
            7,
            vec![8],
            2,
        )));
        // (model, MATs, last table in dependency order)
        for (model, mats, last) in [
            // SVM: one MAT per feature + decision — the paper cites an SVM
            // using 8 MATs; 7 features + 1 matches.
            (ModelIr::Svm(SvmIr::from_shape(7, 2)), 8, "decision"),
            // KMeans: one MAT per cluster (paper: 2 tables for 2 clusters).
            (ModelIr::KMeans(KMeansIr::from_shape(2, 7)), 2, "cluster_1"),
            (ModelIr::KMeans(KMeansIr::from_shape(5, 7)), 5, "cluster_4"),
            // Tree: feature tables + leaf table.
            (ModelIr::Tree(TreeIr::from_shape(3, 4, 8)), 5, "leaves"),
            // DNN via N2Net: 12 MATs per layer.
            (dnn, 24, "bnn_layer_1_mat_11"),
        ] {
            assert_eq!(TofinoTarget::mat_cost(&model), mats, "{model:?}");
            assert_eq!(TofinoTarget::tables(&model).last().unwrap(), last);
        }
    }

    #[test]
    fn dnn_rejected_when_budget_too_small() {
        let tofino = TofinoTarget::with_mats(16);
        let dnn = ModelIr::Dnn(DnnIr::from_architecture(&MlpArchitecture::new(
            7,
            vec![8, 8],
            2,
        )));
        assert!(!tofino.supports(&dnn));
        assert!(matches!(
            tofino.estimate(&dnn),
            Err(BackendError::Unsupported { .. })
        ));
        // A fat budget admits it.
        let big = TofinoTarget::with_mats(64);
        assert!(big.supports(&dnn));
        // 3 layers x 12 MATs = 36: fits 48 MATs, not the default 32.
        assert!(TofinoTarget::default().estimate(&dnn).is_err());
        let fits = TofinoTarget::with_mats(48).estimate(&dnn).unwrap();
        assert_eq!(fits.resources.get("mats"), 36.0);
    }

    #[test]
    fn kmeans_fits_budget_exactly() {
        // The Figure 7 sweep: k clusters need exactly k MATs.
        for budget in 1..=5usize {
            let tofino = TofinoTarget::with_mats(budget);
            let fits = ModelIr::KMeans(KMeansIr::from_shape(budget, 7));
            let constraints = Constraints::new().resource("mats", budget as f64);
            assert!(tofino.check(&fits, &constraints).unwrap().is_feasible());
            let too_big = ModelIr::KMeans(KMeansIr::from_shape(budget + 1, 7));
            assert!(!tofino.check(&too_big, &constraints).unwrap().is_feasible());
        }
    }

    #[test]
    fn line_rate_constant_when_fitting() {
        let tofino = TofinoTarget::default();
        let est = tofino
            .estimate(&ModelIr::KMeans(KMeansIr::from_shape(5, 7)))
            .unwrap();
        assert_eq!(est.performance.throughput_gpps, 1.0);
        assert!(est.performance.latency_ns < 1_000.0);
    }

    #[test]
    fn stage_walk_packs_four_tables_a_stage() {
        let tofino = TofinoTarget::default();
        // (tables, stages, latency in ns): a two-stage floor, then
        // ceil(tables / 4).
        for (tables, stages, latency_ns) in [
            (1, 2, 116.0),
            (3, 2, 116.0),
            (8, 2, 116.0),
            (9, 3, 149.0),
            (36, 9, 347.0),
        ] {
            assert_eq!(tofino.stage_walk(tables), (stages, latency_ns), "{tables}");
        }
        // Stages and latency never shrink as tables are added.
        for tables in 1..48 {
            let (a, b) = (tofino.stage_walk(tables), tofino.stage_walk(tables + 1));
            assert!(a.0 <= b.0 && a.1 <= b.1, "{tables}");
        }
        // Latency grows with stages while throughput stays at line rate.
        let small = tofino
            .estimate(&ModelIr::KMeans(KMeansIr::from_shape(2, 7)))
            .unwrap();
        let large = tofino
            .estimate(&ModelIr::KMeans(KMeansIr::from_shape(9, 7)))
            .unwrap();
        assert_eq!(large.resources.get("stages"), 3.0);
        assert!(large.performance.latency_ns > small.performance.latency_ns);
        assert_eq!(
            (
                small.performance.throughput_gpps,
                large.performance.throughput_gpps
            ),
            (1.0, 1.0)
        );
    }

    #[test]
    fn device_budget_reports_mats() {
        let tofino = TofinoTarget::default();
        assert_eq!(tofino.device_budget().get("mats"), 32.0);
        assert_eq!(tofino.kind(), TargetKind::Tofino);
    }
}
