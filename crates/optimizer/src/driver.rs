//! The Bayesian-optimization loop, as an ask/tell state machine.
//!
//! Mirrors the paper's HyperMapper setup (§5): a uniform random sampling
//! initialization phase (design of experiments), then iterations that
//! (1) fit the random-forest objective surrogate on feasible observations
//! and the feasibility classifier on all observations, (2) score a pool of
//! random + locally-perturbed candidates with `EI x P(feasible)`, and
//! (3) hand the winner to the caller, who evaluates it against the true
//! (expensive) objective and tells the outcome back — in Homunculus,
//! "evaluate" means *train the model and check it against the platform's
//! resource/performance budget*.

use crate::acquisition::expected_improvement;
use crate::space::{Configuration, DesignSpace};
use crate::surrogate::{FeasibilitySurrogate, ObjectiveSurrogate};
use crate::{OptimizerError, Result};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::{json, ToJson, Value};
use std::collections::BTreeMap;

/// The outcome of evaluating one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Objective value (maximized; finite), or `None` when the
    /// configuration was never scored: refused before it was trained, or
    /// failed to train. The search reads the objective of feasible points
    /// only.
    pub objective: Option<f64>,
    /// Whether every feasibility constraint was satisfied.
    pub is_feasible: bool,
    /// How badly constraints were violated (0.0 when feasible). Optional
    /// signal: while the history holds no feasible point, the search
    /// minimizes this instead of chasing the objective.
    pub violation: f64,
    /// Auxiliary metrics recorded for reports (resources, latency, ...).
    pub metrics: BTreeMap<String, f64>,
}

impl Evaluation {
    /// A feasible evaluation with the given objective (an `f64`, or
    /// `None` for a configuration that was never scored).
    pub fn new(objective: impl Into<Option<f64>>) -> Self {
        Evaluation {
            objective: objective.into(),
            is_feasible: true,
            violation: 0.0,
            metrics: BTreeMap::new(),
        }
    }

    /// Sets feasibility.
    pub fn feasible(mut self, feasible: bool) -> Self {
        self.is_feasible = feasible;
        self
    }

    /// Records the constraint-violation magnitude (see [`Evaluation::violation`]).
    pub fn with_violation(mut self, violation: f64) -> Self {
        self.violation = violation.max(0.0);
        self
    }

    /// Records an auxiliary metric.
    pub fn with_metric<S: Into<String>>(mut self, name: S, value: f64) -> Self {
        self.metrics.insert(name.into(), value);
        self
    }

    /// The objective of a feasible, scored evaluation: the only objective
    /// the search ever reads.
    pub fn feasible_objective(&self) -> Option<f64> {
        self.objective.filter(|_| self.is_feasible)
    }
}

/// JSON document form: `{"objective", "is_feasible", "violation",
/// "metrics": {name: value}}`, with `"objective": null` when it is
/// absent — the wire format behind portable compile artifacts (everything
/// the workspace persists goes through `serde_json::Value` explicitly).
impl ToJson for Evaluation {
    fn to_json(&self) -> Value {
        let mut metrics = serde_json::Map::new();
        for (name, value) in &self.metrics {
            metrics.insert(name.clone(), json!(*value));
        }
        json!({
            "objective": self.objective,
            "is_feasible": self.is_feasible,
            "violation": self.violation,
            "metrics": metrics,
        })
    }
}

impl Evaluation {
    /// Decodes the [`ToJson`] document form.
    ///
    /// # Errors
    ///
    /// Returns [`OptimizerError::Decode`] on missing or mistyped fields.
    pub fn from_json(value: &Value) -> Result<Self> {
        let objective = match value.get("objective") {
            Some(Value::Null) => None,
            objective => Some(objective.and_then(Value::as_f64).ok_or_else(|| {
                OptimizerError::Decode("evaluation needs a numeric or null objective".into())
            })?),
        };
        let is_feasible = value["is_feasible"]
            .as_bool()
            .ok_or_else(|| OptimizerError::Decode("evaluation needs boolean is_feasible".into()))?;
        let violation = value["violation"]
            .as_f64()
            .ok_or_else(|| OptimizerError::Decode("evaluation needs numeric violation".into()))?;
        let mut metrics = BTreeMap::new();
        let map = value["metrics"]
            .as_object()
            .ok_or_else(|| OptimizerError::Decode("evaluation needs a metrics object".into()))?;
        for (name, metric) in map.iter() {
            let metric = metric.as_f64().ok_or_else(|| {
                OptimizerError::Decode(format!("metric '{name}' must be numeric"))
            })?;
            metrics.insert(name.clone(), metric);
        }
        Ok(Evaluation {
            objective,
            is_feasible,
            violation,
            metrics,
        })
    }
}

/// One record in the optimization history.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluatedPoint {
    /// Iteration index (0-based; the DOE phase occupies the first indices).
    pub iteration: usize,
    /// The configuration that was evaluated.
    pub configuration: Configuration,
    /// Its outcome.
    pub evaluation: Evaluation,
}

/// JSON document form: `{"iteration", "configuration", "evaluation"}`.
impl ToJson for EvaluatedPoint {
    fn to_json(&self) -> Value {
        json!({
            "iteration": self.iteration,
            "configuration": self.configuration,
            "evaluation": self.evaluation,
        })
    }
}

impl EvaluatedPoint {
    /// Decodes the [`ToJson`] document form.
    ///
    /// # Errors
    ///
    /// Returns [`OptimizerError::Decode`] on missing or mistyped fields.
    pub fn from_json(value: &Value) -> Result<Self> {
        let iteration = value["iteration"]
            .as_i64()
            .filter(|&i| i >= 0)
            .ok_or_else(|| OptimizerError::Decode("point needs an iteration index".into()))?;
        Ok(EvaluatedPoint {
            iteration: iteration as usize,
            configuration: Configuration::from_json(&value["configuration"])?,
            evaluation: Evaluation::from_json(&value["evaluation"])?,
        })
    }
}

/// The full optimization trace plus derived series.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizationHistory {
    points: Vec<EvaluatedPoint>,
    doe_samples: usize,
}

/// JSON document form: `{"doe_samples", "points": [..]}`.
impl ToJson for OptimizationHistory {
    fn to_json(&self) -> Value {
        json!({
            "doe_samples": self.doe_samples,
            "points": self.points,
        })
    }
}

impl OptimizationHistory {
    /// Decodes the [`ToJson`] document form.
    ///
    /// # Errors
    ///
    /// Returns [`OptimizerError::Decode`] on missing or mistyped fields,
    /// or a `doe_samples` count exceeding the number of points.
    pub fn from_json(value: &Value) -> Result<Self> {
        let doe_samples = value["doe_samples"]
            .as_i64()
            .filter(|&i| i >= 0)
            .ok_or_else(|| OptimizerError::Decode("history needs doe_samples".into()))?
            as usize;
        let points = value["points"]
            .as_array()
            .ok_or_else(|| OptimizerError::Decode("history needs a points array".into()))?
            .iter()
            .map(EvaluatedPoint::from_json)
            .collect::<Result<Vec<_>>>()?;
        if doe_samples > points.len() {
            return Err(OptimizerError::Decode(format!(
                "doe_samples {doe_samples} exceeds {} recorded points",
                points.len()
            )));
        }
        Ok(OptimizationHistory {
            points,
            doe_samples,
        })
    }

    /// All evaluated points, in evaluation order.
    pub fn points(&self) -> &[EvaluatedPoint] {
        &self.points
    }

    /// Number of points from the random-initialization phase.
    pub fn doe_samples(&self) -> usize {
        self.doe_samples
    }

    /// The best *feasible* point, if any.
    pub fn best(&self) -> Option<&EvaluatedPoint> {
        best_feasible(&self.points)
    }

    /// The best feasible point under an *efficiency* tie-break: among
    /// feasible points whose objective is within `tolerance` of the best,
    /// returns the one with the smallest `cost_metric` value.
    ///
    /// This implements the paper's §3 principle that "the most efficient
    /// model will use as many resources as needed *without
    /// over-provisioning*": a configuration that matches the best
    /// objective with fewer parameters/resources wins. Points without the
    /// metric recorded fall back to `f64::INFINITY` cost.
    pub fn best_efficient(&self, tolerance: f64, cost_metric: &str) -> Option<&EvaluatedPoint> {
        let best = self.best()?.evaluation.feasible_objective()?;
        let threshold = best - tolerance.abs();
        self.points
            .iter()
            .filter(|p| {
                p.evaluation
                    .feasible_objective()
                    .is_some_and(|objective| objective >= threshold)
            })
            .min_by(|a, b| {
                let ca = a
                    .evaluation
                    .metrics
                    .get(cost_metric)
                    .copied()
                    .unwrap_or(f64::INFINITY);
                let cb = b
                    .evaluation
                    .metrics
                    .get(cost_metric)
                    .copied()
                    .unwrap_or(f64::INFINITY);
                ca.partial_cmp(&cb).unwrap_or(std::cmp::Ordering::Equal)
            })
    }

    /// Objective of each iteration, `None` where the configuration was
    /// never scored (the paper's Figure 4/7 "regret plot" series plots
    /// these raw per-iteration values).
    pub fn objective_series(&self) -> Vec<Option<f64>> {
        self.points.iter().map(|p| p.evaluation.objective).collect()
    }

    /// Best-feasible-so-far objective after each iteration (NaN until the
    /// first feasible point).
    pub fn best_so_far_series(&self) -> Vec<f64> {
        let mut best = f64::NAN;
        self.points
            .iter()
            .map(|p| {
                if let Some(objective) = p.evaluation.feasible_objective() {
                    if best.is_nan() || objective > best {
                        best = objective;
                    }
                }
                best
            })
            .collect()
    }

    /// Fraction of evaluations that were feasible.
    pub fn feasible_fraction(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points
            .iter()
            .filter(|p| p.evaluation.is_feasible)
            .count() as f64
            / self.points.len() as f64
    }
}

/// The feasible point with the highest objective (the last of equals).
fn best_feasible(points: &[EvaluatedPoint]) -> Option<&EvaluatedPoint> {
    points
        .iter()
        .filter_map(|p| Some((p, p.evaluation.feasible_objective()?)))
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(p, _)| p)
}

/// Random candidates scored per BO iteration.
const CANDIDATE_POOL: usize = 200;
/// Locally-perturbed candidates (around the incumbent) per iteration.
const LOCAL_CANDIDATES: usize = 40;
/// Expected Improvement's exploration jitter.
const EI_XI: f64 = 0.01;

/// Options controlling the optimization loop.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizerOptions {
    /// Total evaluation budget (DOE + BO iterations).
    pub budget: usize,
    /// Random-initialization samples before BO starts.
    pub doe_samples: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for OptimizerOptions {
    fn default() -> Self {
        OptimizerOptions {
            budget: 20,
            doe_samples: 5,
            seed: 0,
        }
    }
}

impl OptimizerOptions {
    /// Sets the total evaluation budget.
    pub fn budget(mut self, budget: usize) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the number of random-initialization samples.
    pub fn doe_samples(mut self, doe: usize) -> Self {
        self.doe_samples = doe;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn validate(&self) -> Result<()> {
        if self.budget == 0 {
            return Err(OptimizerError::InvalidOptions(
                "budget must be positive".into(),
            ));
        }
        if self.doe_samples == 0 {
            return Err(OptimizerError::InvalidOptions(
                "doe_samples must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// The constrained Bayesian optimizer, as an ask/tell state machine: the
/// caller [`ask`](BayesianOptimizer::ask)s for a configuration, evaluates
/// it, and [`tell`](BayesianOptimizer::tell)s the outcome, until `ask`
/// returns `None` at the budget. The optimizer owns the RNG and the points
/// told so far; the caller owns the evaluation, and stopping early is the
/// caller no longer asking.
///
/// See the crate-level example for the [`run`](BayesianOptimizer::run)
/// convenience loop.
#[derive(Debug, Clone)]
pub struct BayesianOptimizer {
    space: DesignSpace,
    options: OptimizerOptions,
    rng: StdRng,
    points: Vec<EvaluatedPoint>,
    /// The configuration asked for and not yet told.
    asked: Option<Configuration>,
}

impl BayesianOptimizer {
    /// Creates an optimizer over `space` with `options`.
    pub fn new(space: DesignSpace, options: OptimizerOptions) -> Self {
        BayesianOptimizer {
            rng: StdRng::seed_from_u64(options.seed),
            points: Vec::new(),
            asked: None,
            space,
            options,
        }
    }

    /// Resumes a search from a (possibly truncated) recorded history —
    /// the checkpoint/resume half of the compile service: the prefix is
    /// **replayed, not re-evaluated**. Each recorded point is asked for
    /// and told back, which walks the RNG through exactly the draws the
    /// original run made (and re-fits the surrogates on the reloaded
    /// points); `tell` refuses a recorded configuration the replay did not
    /// ask for. Asking on from the returned optimizer is
    /// **bit-identical** to an uninterrupted search under the same
    /// options, provided the evaluation is deterministic.
    ///
    /// # Errors
    ///
    /// As [`ask`](BayesianOptimizer::ask), plus [`OptimizerError::Resume`]
    /// when the history does not belong to this optimizer: more points
    /// than the budget, inconsistent `doe_samples` or iteration indices,
    /// or a recorded configuration that disagrees with the replayed RNG
    /// stream (a seed, space, or options drift between save and resume).
    pub fn resume(
        space: DesignSpace,
        options: OptimizerOptions,
        from: &OptimizationHistory,
    ) -> Result<Self> {
        let mut optimizer = BayesianOptimizer::new(space, options);
        let options = &optimizer.options;
        if from.points.len() > options.budget {
            return Err(OptimizerError::Resume(format!(
                "history has {} points but the budget is {}",
                from.points.len(),
                options.budget
            )));
        }
        let doe = options.doe_samples.min(from.points.len());
        if from.doe_samples != doe {
            return Err(OptimizerError::Resume(format!(
                "history records {} DOE samples where the options imply {doe}",
                from.doe_samples
            )));
        }
        for (index, recorded) in from.points.iter().enumerate() {
            if recorded.iteration != index {
                return Err(OptimizerError::Resume(format!(
                    "history point {index} carries iteration {}",
                    recorded.iteration
                )));
            }
            optimizer.ask()?;
            optimizer.tell(recorded.configuration.clone(), recorded.evaluation.clone())?;
        }
        Ok(optimizer)
    }

    /// The next configuration to evaluate: a uniform DOE sample while
    /// fewer than `doe_samples` points exist, a surrogate suggestion after
    /// that, and `None` once the budget is spent. Asking again before
    /// telling returns the same configuration and draws nothing.
    ///
    /// # Errors
    ///
    /// - [`OptimizerError::InvalidSpace`] for an empty space.
    /// - [`OptimizerError::InvalidOptions`] for degenerate options.
    pub fn ask(&mut self) -> Result<Option<Configuration>> {
        if self.space.is_empty() {
            return Err(OptimizerError::InvalidSpace(
                "design space has no parameters".into(),
            ));
        }
        self.options.validate()?;
        if self.asked.is_none() && self.points.len() < self.options.budget {
            self.asked = Some(if self.points.len() < self.options.doe_samples {
                self.space.sample(&mut self.rng)
            } else {
                self.suggest()?
            });
        }
        Ok(self.asked.clone())
    }

    /// Records the outcome of the configuration last asked for, and
    /// returns the point it became.
    ///
    /// # Errors
    ///
    /// [`OptimizerError::Resume`] for any configuration other than the one
    /// asked for (nothing is recorded): a replayed record from another
    /// seed, design space or options.
    pub fn tell(
        &mut self,
        configuration: Configuration,
        evaluation: Evaluation,
    ) -> Result<&EvaluatedPoint> {
        let iteration = self.points.len();
        if self.asked.as_ref() != Some(&configuration) {
            return Err(OptimizerError::Resume(format!(
                "the configuration told for iteration {iteration} is not the one asked for \
                 (seed, design space, or options changed since the checkpoint)"
            )));
        }
        self.asked = None;
        self.points.push(EvaluatedPoint {
            iteration,
            configuration,
            evaluation,
        });
        Ok(self.points.last().expect("just pushed"))
    }

    /// The history of every point told so far. A search stopped during
    /// DOE records the initialization points that actually ran.
    pub fn into_history(self) -> OptimizationHistory {
        OptimizationHistory {
            doe_samples: self.options.doe_samples.min(self.points.len()),
            points: self.points,
        }
    }

    /// Asks, evaluates with `objective` and tells until the budget is
    /// spent.
    ///
    /// # Errors
    ///
    /// As [`ask`](BayesianOptimizer::ask).
    ///
    /// Note: a history with *no feasible point* is returned as `Ok` — the
    /// caller decides whether that is an error ([`OptimizationHistory::best`]
    /// returns `None`); this mirrors the paper's "no feasible solution
    /// exists" terminal state (§1).
    pub fn run<F>(mut self, mut objective: F) -> Result<OptimizationHistory>
    where
        F: FnMut(&Configuration) -> Evaluation,
    {
        while let Some(configuration) = self.ask()? {
            let evaluation = objective(&configuration);
            self.tell(configuration, evaluation)?;
        }
        Ok(self.into_history())
    }

    /// Proposes the next configuration given the history so far.
    fn suggest(&mut self) -> Result<Configuration> {
        let points = &self.points;
        let rng = &mut self.rng;
        // Surrogate over *feasible* observations only. With no feasible
        // point yet the search is in a "phase 1" feasibility hunt: the
        // surrogate is fit on *negative violation magnitude* instead, so
        // EI walks downhill on constraint overshoot — the paper's
        // "subsequent iterations will recommend model configurations that
        // use less resources" (§3.2.2). (The feasibility classifier is
        // useless there: a single-class history degenerates to a constant.)
        let feasible_history: Vec<(Configuration, f64)> = points
            .iter()
            .filter_map(|p| {
                let objective = p.evaluation.feasible_objective()?;
                Some((p.configuration.clone(), objective))
            })
            .collect();
        let phase1 = feasible_history.is_empty();
        let objective_history: Vec<(Configuration, f64)> = if phase1 {
            points
                .iter()
                .map(|p| (p.configuration.clone(), -p.evaluation.violation))
                .collect()
        } else {
            feasible_history
        };
        let surrogate = ObjectiveSurrogate::fit(&objective_history, self.options.seed)?;

        // The classifier is only worth fitting once both classes exist; in
        // phase 1 the single-class history degenerates to a constant that
        // the scoring below would ignore anyway.
        let feasibility = if phase1 {
            None
        } else {
            let feasibility_history: Vec<(Configuration, bool)> = points
                .iter()
                .map(|p| (p.configuration.clone(), p.evaluation.is_feasible))
                .collect();
            Some(FeasibilitySurrogate::fit(
                &feasibility_history,
                self.options.seed,
            )?)
        };

        // The incumbent lives on the same scale the surrogate was fit on:
        // best feasible objective, or (phase 1) smallest observed violation.
        let incumbent = objective_history
            .iter()
            .map(|(_, y)| *y)
            .fold(f64::NEG_INFINITY, f64::max);

        // Candidate pool: global random + local perturbations of the best
        // point under the current goal (feasible best, or phase 1's
        // least-violating point — polishing near the boundary is how the
        // hunt crosses it).
        let mut candidates: Vec<Configuration> = (0..CANDIDATE_POOL)
            .map(|_| self.space.sample(rng))
            .collect();
        let local_base = if phase1 {
            points.iter().min_by(|a, b| {
                a.evaluation
                    .violation
                    .partial_cmp(&b.evaluation.violation)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
        } else {
            best_feasible(points)
        };
        if let Some(best) = local_base {
            // Multi-scale exploitation: coarse moves escape the incumbent's
            // neighborhood, fine moves (1/5 and 1/25 width) polish it. A
            // single fixed width makes the endgame a random walk whose step
            // never shrinks below 10% of the range.
            const SCALES: [f64; 3] = [1.0, 0.2, 0.04];
            for i in 0..LOCAL_CANDIDATES {
                let scale = SCALES[i % SCALES.len()];
                candidates.push(self.space.perturb_scaled(&best.configuration, rng, scale));
            }
        }

        // Interleave exploitation: EI over an RF surrogate goes to zero in
        // the incumbent's neighborhood (pure leaves predict the incumbent
        // itself), so an EI-only endgame degenerates into random
        // exploration. Every fourth iteration greedily trusts the
        // surrogate mean instead — the SMAC-style interleaving used by
        // random-forest BO implementations.
        let exploit = points.len() % 4 == 3;
        let scored: Vec<(Configuration, f64, f64)> = candidates
            .into_iter()
            .map(|c| {
                let (mean, std) = surrogate.predict(&c);
                let probability = match &feasibility {
                    Some(model) => model.probability(&c),
                    None => 1.0,
                };
                let score = if exploit {
                    mean
                } else {
                    expected_improvement(mean, std, incumbent, EI_XI)
                };
                (c, score, probability)
            })
            .collect();
        // Shift scores to be nonnegative before feasibility weighting, so
        // a low feasibility probability always hurts (a negative score
        // times a small probability would otherwise *gain* rank). The
        // epsilon keeps the probability meaningful when the score
        // distribution is flat — with a plain shift a flat pool would
        // score 0.0 everywhere and the feasibility ranking would vanish.
        let (floor, ceiling) = scored
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), (_, s, _)| {
                (lo.min(*s), hi.max(*s))
            });
        let spread = ceiling - floor;
        let epsilon = if spread > 0.0 { spread * 1e-9 } else { 1.0 };
        let best_candidate = scored
            .into_iter()
            .map(|(c, score, probability)| (c, (score - floor + epsilon) * probability))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(c, _)| c)
            .expect("candidate pool is non-empty");
        Ok(best_candidate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Parameter;

    fn quadratic_space() -> DesignSpace {
        let mut s = DesignSpace::new("quadratic");
        s.add("x", Parameter::real(-10.0, 10.0)).unwrap();
        s
    }

    #[test]
    fn finds_quadratic_maximum() {
        // Maximize -(x-3)^2; optimum at x = 3.
        let history = BayesianOptimizer::new(
            quadratic_space(),
            OptimizerOptions::default().budget(40).seed(3),
        )
        .run(|c| {
            let x = c.real("x").unwrap();
            Evaluation::new(-(x - 3.0) * (x - 3.0))
        })
        .unwrap();
        let best = history.best().unwrap();
        let x = best.configuration.real("x").unwrap();
        assert!((x - 3.0).abs() < 1.5, "best x = {x}");
    }

    #[test]
    fn bo_beats_random_on_average() {
        // Same budget: BO's best should beat pure DOE's best typically.
        let mut bo_wins = 0;
        for seed in 0..5u64 {
            let f = |c: &Configuration| {
                let x = c.real("x").unwrap();
                Evaluation::new(-(x - 3.0) * (x - 3.0))
            };
            let bo = BayesianOptimizer::new(
                quadratic_space(),
                OptimizerOptions::default()
                    .budget(30)
                    .doe_samples(5)
                    .seed(seed),
            )
            .run(f)
            .unwrap();
            let random = BayesianOptimizer::new(
                quadratic_space(),
                OptimizerOptions::default()
                    .budget(30)
                    .doe_samples(30)
                    .seed(seed),
            )
            .run(f)
            .unwrap();
            if bo.best().unwrap().evaluation.objective
                >= random.best().unwrap().evaluation.objective
            {
                bo_wins += 1;
            }
        }
        assert!(bo_wins >= 3, "bo won only {bo_wins}/5");
    }

    #[test]
    fn respects_feasibility_constraints() {
        // Maximize x but only x <= 2 is feasible.
        let history = BayesianOptimizer::new(
            quadratic_space(),
            OptimizerOptions::default().budget(35).seed(5),
        )
        .run(|c| {
            let x = c.real("x").unwrap();
            Evaluation::new(x).feasible(x <= 2.0)
        })
        .unwrap();
        let best = history.best().unwrap();
        assert!(best.configuration.real("x").unwrap() <= 2.0);
        assert!(
            best.evaluation.objective > Some(0.0),
            "should approach the boundary"
        );
    }

    #[test]
    fn no_feasible_point_yields_none_best() {
        let history = BayesianOptimizer::new(
            quadratic_space(),
            OptimizerOptions::default().budget(8).seed(0),
        )
        .run(|c| Evaluation::new(c.real("x").unwrap()).feasible(false))
        .unwrap();
        assert!(history.best().is_none());
        assert_eq!(history.feasible_fraction(), 0.0);
    }

    #[test]
    fn history_series_shapes() {
        let history = BayesianOptimizer::new(
            quadratic_space(),
            OptimizerOptions::default()
                .budget(12)
                .doe_samples(4)
                .seed(1),
        )
        .run(|c| Evaluation::new(c.real("x").unwrap()))
        .unwrap();
        assert_eq!(history.points().len(), 12);
        assert_eq!(history.doe_samples(), 4);
        assert_eq!(history.objective_series().len(), 12);
        let best_series = history.best_so_far_series();
        assert_eq!(best_series.len(), 12);
        // best-so-far is monotonically non-decreasing.
        for w in best_series.windows(2) {
            assert!(w[1] >= w[0] || w[0].is_nan());
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            BayesianOptimizer::new(
                quadratic_space(),
                OptimizerOptions::default().budget(15).seed(seed),
            )
            .run(|c| Evaluation::new(-(c.real("x").unwrap()).abs()))
            .unwrap()
        };
        assert_eq!(run(7), run(7));
    }

    /// Asks and tells until `stop_after` points exist (or the budget is
    /// spent): a caller that stops asking.
    fn run_until<F>(
        mut optimizer: BayesianOptimizer,
        mut objective: F,
        stop_after: usize,
    ) -> OptimizationHistory
    where
        F: FnMut(&Configuration) -> Evaluation,
    {
        while optimizer.points.len() < stop_after {
            let Some(configuration) = optimizer.ask().unwrap() else {
                break;
            };
            let evaluation = objective(&configuration);
            optimizer.tell(configuration, evaluation).unwrap();
        }
        optimizer.into_history()
    }

    #[test]
    fn asking_twice_without_telling_returns_the_same_configuration() {
        let mut optimizer = BayesianOptimizer::new(
            quadratic_space(),
            OptimizerOptions::default().budget(6).doe_samples(2).seed(3),
        );
        let objective = |c: &Configuration| Evaluation::new(-(c.real("x").unwrap()).abs());
        // Once in DOE, once past it (a surrogate suggestion).
        for _ in 0..2 {
            let first = optimizer.ask().unwrap().unwrap();
            let rng = optimizer.rng.clone();
            let points = optimizer.points.clone();
            assert_eq!(optimizer.ask().unwrap(), Some(first.clone()));
            assert_eq!(optimizer.rng, rng, "a repeated ask drew from the RNG");
            assert_eq!(
                optimizer.points, points,
                "a repeated ask changed the history"
            );
            let evaluation = objective(&first);
            optimizer.tell(first, evaluation).unwrap();
            while optimizer.points.len() < 3 {
                let c = optimizer.ask().unwrap().unwrap();
                let evaluation = objective(&c);
                optimizer.tell(c, evaluation).unwrap();
            }
        }
    }

    #[test]
    fn telling_an_unasked_configuration_is_refused() {
        let mut optimizer = BayesianOptimizer::new(
            quadratic_space(),
            OptimizerOptions::default().budget(4).doe_samples(2).seed(1),
        );
        let mut rng = StdRng::seed_from_u64(99);
        let stranger = quadratic_space().sample(&mut rng);
        // Nothing asked yet.
        assert!(matches!(
            optimizer.tell(stranger.clone(), Evaluation::new(0.0)),
            Err(OptimizerError::Resume(_))
        ));
        // Something else asked.
        let asked = optimizer.ask().unwrap().unwrap();
        assert_ne!(asked, stranger);
        assert!(matches!(
            optimizer.tell(stranger, Evaluation::new(0.0)),
            Err(OptimizerError::Resume(_))
        ));
        assert!(
            optimizer.points.is_empty(),
            "a refused tell recorded a point"
        );
        // The asked configuration is still owed, and still accepted.
        let point = optimizer.tell(asked, Evaluation::new(1.0)).unwrap();
        assert_eq!(point.iteration, 0);
    }

    #[test]
    fn ask_returns_none_at_the_budget() {
        let mut optimizer = BayesianOptimizer::new(
            quadratic_space(),
            OptimizerOptions::default().budget(3).doe_samples(2).seed(2),
        );
        for _ in 0..3 {
            let c = optimizer.ask().unwrap().unwrap();
            optimizer.tell(c, Evaluation::new(0.5)).unwrap();
        }
        assert_eq!(optimizer.ask().unwrap(), None);
        assert_eq!(optimizer.ask().unwrap(), None);
        assert_eq!(optimizer.into_history().points().len(), 3);
    }

    #[test]
    fn stopping_early_truncates_but_keeps_best_so_far() {
        let space = quadratic_space();
        let optimizer =
            BayesianOptimizer::new(space, OptimizerOptions::default().budget(20).doe_samples(5));
        // Stop after 7 evaluations (mid-BO phase).
        let history = run_until(
            optimizer.clone(),
            |c| Evaluation::new(-(c.real("x").unwrap()).abs()),
            7,
        );
        assert_eq!(history.points().len(), 7);
        assert_eq!(history.doe_samples(), 5);
        assert!(history.best().is_some(), "best-so-far survives the stop");

        // Stop during DOE: doe_samples reflects what actually ran.
        let history = run_until(optimizer, |c| Evaluation::new(c.real("x").unwrap()), 1);
        assert_eq!(history.points().len(), 1);
        assert_eq!(history.doe_samples(), 1);
    }

    #[test]
    fn resume_from_truncated_history_is_bit_identical() {
        // Interrupt a search mid-BO-phase, round-trip the truncated
        // history through JSON (the checkpoint wire), resume — the result
        // must match the uninterrupted run bit for bit.
        let space = quadratic_space();
        let options = OptimizerOptions::default()
            .budget(14)
            .doe_samples(4)
            .seed(11);
        let optimizer = BayesianOptimizer::new(space.clone(), options.clone());
        // Infeasible points go unscored, as a refused candidate does:
        // the checkpoint carries their absent objective.
        let objective = |c: &Configuration| {
            let x = c.real("x").unwrap();
            let scored = (x < 6.0).then(|| -(x - 3.0) * (x - 3.0));
            Evaluation::new(scored).feasible(x < 6.0)
        };
        let uninterrupted = optimizer.clone().run(objective).unwrap();
        let absent = uninterrupted
            .objective_series()
            .iter()
            .position(Option::is_none);
        assert_eq!(
            absent,
            Some(0),
            "every checkpoint below carries an unscored point"
        );

        for stop_after in [2usize, 4, 7, 13] {
            let truncated = run_until(optimizer.clone(), objective, stop_after);
            assert_eq!(truncated.points().len(), stop_after);
            let text = serde_json::to_string(&truncated.to_json()).unwrap();
            let reloaded =
                OptimizationHistory::from_json(&serde_json::from_str(&text).unwrap()).unwrap();
            let mut new_evaluations = 0usize;
            let resumed = BayesianOptimizer::resume(space.clone(), options.clone(), &reloaded)
                .unwrap()
                .run(|c| {
                    new_evaluations += 1;
                    objective(c)
                })
                .unwrap();
            assert_eq!(
                resumed, uninterrupted,
                "stop_after={stop_after}: resumed history diverged"
            );
            assert_eq!(
                new_evaluations,
                14 - stop_after,
                "stop_after={stop_after}: replay must not re-evaluate the prefix"
            );
        }
    }

    #[test]
    fn resume_from_empty_and_complete_histories() {
        let space = quadratic_space();
        let options = OptimizerOptions::default().budget(10).seed(5);
        let objective = |c: &Configuration| Evaluation::new(-(c.real("x").unwrap()).abs());
        let full = BayesianOptimizer::new(space.clone(), options.clone())
            .run(objective)
            .unwrap();

        // Empty history: resume is exactly a fresh run.
        let empty = OptimizationHistory {
            points: Vec::new(),
            doe_samples: 0,
        };
        let from_scratch = BayesianOptimizer::resume(space.clone(), options.clone(), &empty)
            .unwrap()
            .run(objective)
            .unwrap();
        assert_eq!(from_scratch, full);

        // Complete history: pure replay, the objective never runs.
        let resumed = BayesianOptimizer::resume(space, options, &full)
            .unwrap()
            .run(|_| panic!("complete history must not re-evaluate"))
            .unwrap();
        assert_eq!(resumed, full);
    }

    #[test]
    fn resume_rejects_foreign_histories() {
        let options = |budget, seed| {
            OptimizerOptions::default()
                .budget(budget)
                .doe_samples(3)
                .seed(seed)
        };
        let resume = |options, history: &OptimizationHistory| {
            BayesianOptimizer::resume(quadratic_space(), options, history)
        };
        let objective = |c: &Configuration| Evaluation::new(c.real("x").unwrap());
        let history = BayesianOptimizer::new(quadratic_space(), options(8, 1))
            .run(objective)
            .unwrap();

        // A different seed cannot replay this record.
        assert!(matches!(
            resume(options(8, 2), &history),
            Err(OptimizerError::Resume(_))
        ));

        // More points than the budget allows.
        assert!(matches!(
            resume(options(4, 1), &history),
            Err(OptimizerError::Resume(_))
        ));

        // Tampered bookkeeping: wrong doe_samples or iteration indices.
        let mut tampered = history.clone();
        tampered.doe_samples = 1;
        assert!(matches!(
            resume(options(8, 1), &tampered),
            Err(OptimizerError::Resume(_))
        ));
        let mut shuffled = history.clone();
        shuffled.points.swap(0, 1);
        assert!(matches!(
            resume(options(8, 1), &shuffled),
            Err(OptimizerError::Resume(_))
        ));
    }

    #[test]
    fn history_json_roundtrip_is_exact() {
        let history = BayesianOptimizer::new(
            quadratic_space(),
            OptimizerOptions::default().budget(10).seed(3),
        )
        .run(|c| {
            let x = c.real("x").unwrap();
            Evaluation::new((x < 5.0).then(|| -(x * x)))
                .feasible(x < 5.0)
                .with_violation(if x < 5.0 { 0.0 } else { x - 5.0 })
                .with_metric("params", x.abs() * 1e-7)
        })
        .unwrap();
        assert!(history.objective_series().contains(&None));
        let text = serde_json::to_string(&history.to_json()).unwrap();
        let decoded =
            OptimizationHistory::from_json(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(history, decoded, "history drifted through JSON");
    }

    #[test]
    fn history_decode_rejects_malformed() {
        let bad = serde_json::from_str("{\"doe_samples\": 3, \"points\": []}").unwrap();
        assert!(matches!(
            OptimizationHistory::from_json(&bad),
            Err(OptimizerError::Decode(_))
        ));
        let bad = serde_json::from_str("{\"points\": []}").unwrap();
        assert!(OptimizationHistory::from_json(&bad).is_err());
        let bad = serde_json::from_str("[1, 2]").unwrap();
        assert!(Evaluation::from_json(&bad).is_err());
        // An absent objective is written as `null`, never left out.
        let unscored = "{\"is_feasible\": false, \"violation\": 1, \"metrics\": {}}";
        let bad = serde_json::from_str(unscored).unwrap();
        assert!(Evaluation::from_json(&bad).is_err());
        let unscored = unscored.replacen('{', "{\"objective\": null, ", 1);
        let decoded = Evaluation::from_json(&serde_json::from_str(&unscored).unwrap()).unwrap();
        assert_eq!(decoded.objective, None);
    }

    #[test]
    fn rejects_degenerate_setup() {
        let empty = DesignSpace::new("empty");
        let r = BayesianOptimizer::new(empty, OptimizerOptions::default())
            .run(|_| Evaluation::new(0.0));
        assert!(matches!(r, Err(OptimizerError::InvalidSpace(_))));

        let r = BayesianOptimizer::new(quadratic_space(), OptimizerOptions::default().budget(0))
            .run(|_| Evaluation::new(0.0));
        assert!(matches!(r, Err(OptimizerError::InvalidOptions(_))));
    }

    #[test]
    fn best_efficient_prefers_cheaper_near_ties() {
        let history = BayesianOptimizer::new(
            quadratic_space(),
            OptimizerOptions::default().budget(30).seed(6),
        )
        .run(|c| {
            let x = c.real("x").unwrap();
            // Objective saturates at 1.0 for |x| <= 5; cost = |x|.
            let objective = if x.abs() <= 5.0 { 1.0 } else { 0.0 };
            Evaluation::new(objective).with_metric("cost", x.abs())
        })
        .unwrap();
        let plain = history.best().unwrap();
        let efficient = history.best_efficient(0.01, "cost").unwrap();
        assert!(efficient.evaluation.metrics["cost"] <= plain.evaluation.metrics["cost"]);
        assert!(
            efficient.evaluation.objective.unwrap() >= plain.evaluation.objective.unwrap() - 0.01
        );
    }

    #[test]
    fn best_efficient_none_when_no_feasible() {
        let history = BayesianOptimizer::new(
            quadratic_space(),
            OptimizerOptions::default().budget(5).seed(0),
        )
        .run(|c| Evaluation::new(c.real("x").unwrap()).feasible(false))
        .unwrap();
        assert!(history.best_efficient(0.1, "cost").is_none());
    }
}
