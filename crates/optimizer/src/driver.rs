//! The Bayesian-optimization driver loop.
//!
//! Mirrors the paper's HyperMapper setup (§5): a uniform random sampling
//! initialization phase (design of experiments), then iterations that
//! (1) fit the random-forest objective surrogate on feasible observations
//! and the feasibility classifier on all observations, (2) score a pool of
//! random + locally-perturbed candidates with `EI x P(feasible)`, and
//! (3) evaluate the winner against the true (expensive) objective — in
//! Homunculus, "evaluate" means *train the model and check it against the
//! platform's resource/performance budget*.

use crate::acquisition::Acquisition;
use crate::space::{Configuration, DesignSpace};
use crate::surrogate::{FeasibilitySurrogate, ObjectiveSurrogate};
use crate::{OptimizerError, Result};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::{json, ToJson, Value};
use std::collections::BTreeMap;

/// Control signal a [`BayesianOptimizer::run_with`] monitor returns after
/// every evaluation. The monitor is how callers *observe* the loop (each
/// [`EvaluatedPoint`] is handed over as soon as it exists) and how they
/// *cancel* it: returning [`SearchControl::Stop`] ends the search at the
/// current iteration boundary, and the truncated history — every point
/// evaluated so far, best-so-far included — is returned as `Ok`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchControl {
    /// Keep iterating.
    Continue,
    /// Stop at this iteration boundary and return the history so far.
    Stop,
}

/// The outcome of evaluating one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Objective value (maximized). Use NaN-free finite values.
    pub objective: f64,
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
    /// A feasible evaluation with the given objective.
    pub fn new(objective: f64) -> Self {
        Evaluation {
            objective,
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
}

/// JSON document form: `{"objective", "is_feasible", "violation",
/// "metrics": {name: value}}` — the wire format behind portable compile
/// artifacts (everything the workspace persists goes through
/// `serde_json::Value` explicitly).
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
        let objective = value["objective"]
            .as_f64()
            .ok_or_else(|| OptimizerError::Decode("evaluation needs numeric objective".into()))?;
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
        self.points
            .iter()
            .filter(|p| p.evaluation.is_feasible)
            .max_by(|a, b| {
                a.evaluation
                    .objective
                    .partial_cmp(&b.evaluation.objective)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
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
        let best = self.best()?;
        let threshold = best.evaluation.objective - tolerance.abs();
        self.points
            .iter()
            .filter(|p| p.evaluation.is_feasible && p.evaluation.objective >= threshold)
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

    /// Objective of each iteration (the paper's Figure 4/7 "regret plot"
    /// series plots these raw per-iteration values).
    pub fn objective_series(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.evaluation.objective).collect()
    }

    /// Best-feasible-so-far objective after each iteration (NaN until the
    /// first feasible point).
    pub fn best_so_far_series(&self) -> Vec<f64> {
        let mut best = f64::NAN;
        self.points
            .iter()
            .map(|p| {
                if p.evaluation.is_feasible && (best.is_nan() || p.evaluation.objective > best) {
                    best = p.evaluation.objective;
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

    /// The set of feasible points not dominated in `(objective, metric)`
    /// space (both maximized after `metric_sign` is applied). Supports the
    /// paper's multi-objective framing where a second output (e.g.
    /// negative resource use) matters.
    pub fn pareto_front(&self, metric: &str, metric_sign: f64) -> Vec<&EvaluatedPoint> {
        let candidates: Vec<&EvaluatedPoint> = self
            .points
            .iter()
            .filter(|p| p.evaluation.is_feasible && p.evaluation.metrics.contains_key(metric))
            .collect();
        candidates
            .iter()
            .filter(|a| {
                let am = a.evaluation.metrics[metric] * metric_sign;
                !candidates.iter().any(|b| {
                    let bm = b.evaluation.metrics[metric] * metric_sign;
                    (b.evaluation.objective >= a.evaluation.objective && bm >= am)
                        && (b.evaluation.objective > a.evaluation.objective || bm > am)
                })
            })
            .copied()
            .collect()
    }
}

/// Options controlling the optimization loop.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizerOptions {
    /// Total evaluation budget (DOE + BO iterations).
    pub budget: usize,
    /// Random-initialization samples before BO starts.
    pub doe_samples: usize,
    /// Random candidates scored per BO iteration.
    pub candidate_pool: usize,
    /// Locally-perturbed candidates (around the incumbent) per iteration.
    pub local_candidates: usize,
    /// Acquisition criterion.
    pub acquisition: Acquisition,
    /// RNG seed.
    pub seed: u64,
}

impl Default for OptimizerOptions {
    fn default() -> Self {
        OptimizerOptions {
            budget: 20,
            doe_samples: 5,
            candidate_pool: 200,
            local_candidates: 40,
            acquisition: Acquisition::default(),
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

    /// Sets the acquisition criterion.
    pub fn acquisition(mut self, acquisition: Acquisition) -> Self {
        self.acquisition = acquisition;
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
        if self.candidate_pool == 0 {
            return Err(OptimizerError::InvalidOptions(
                "candidate_pool must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// The constrained Bayesian optimizer.
///
/// See the crate-level example for usage.
#[derive(Debug, Clone)]
pub struct BayesianOptimizer {
    space: DesignSpace,
    options: OptimizerOptions,
}

impl BayesianOptimizer {
    /// Creates an optimizer over `space` with `options`.
    pub fn new(space: DesignSpace, options: OptimizerOptions) -> Self {
        BayesianOptimizer { space, options }
    }

    /// The design space being searched.
    pub fn space(&self) -> &DesignSpace {
        &self.space
    }

    /// Runs the loop, calling `objective` once per evaluated configuration.
    ///
    /// # Errors
    ///
    /// - [`OptimizerError::InvalidSpace`] for an empty space.
    /// - [`OptimizerError::InvalidOptions`] for degenerate options.
    ///
    /// Note: a history with *no feasible point* is returned as `Ok` — the
    /// caller decides whether that is an error ([`OptimizationHistory::best`]
    /// returns `None`); this mirrors the paper's "no feasible solution
    /// exists" terminal state (§1).
    pub fn run<F>(&self, objective: F) -> Result<OptimizationHistory>
    where
        F: FnMut(&Configuration) -> Evaluation,
    {
        self.run_with(objective, |_| SearchControl::Continue)
    }

    /// [`run`](BayesianOptimizer::run) with a per-iteration monitor: after
    /// every evaluation the freshly-recorded [`EvaluatedPoint`] is handed
    /// to `monitor`, which returns [`SearchControl::Continue`] to keep
    /// going or [`SearchControl::Stop`] to end the search at this
    /// iteration boundary. A stopped search is **not** an error — the
    /// truncated history (best-so-far included) is returned as `Ok`, so
    /// cooperative cancellation always yields whatever was already paid
    /// for. The monitor never influences the RNG stream: a run whose
    /// monitor always continues is bit-identical to
    /// [`run`](BayesianOptimizer::run).
    ///
    /// # Errors
    ///
    /// As [`run`](BayesianOptimizer::run).
    pub fn run_with<F, M>(&self, mut objective: F, mut monitor: M) -> Result<OptimizationHistory>
    where
        F: FnMut(&Configuration) -> Evaluation,
        M: FnMut(&EvaluatedPoint) -> SearchControl,
    {
        self.validate_setup()?;
        let mut rng = StdRng::seed_from_u64(self.options.seed);
        self.drive(Vec::new(), &mut rng, &mut objective, &mut monitor)
    }

    /// Resumes a search from a (possibly truncated) recorded history —
    /// the checkpoint/resume half of the compile service: the prefix is
    /// **replayed, not re-evaluated**. The RNG is walked through exactly
    /// the draws the original run made (one [`DesignSpace::sample`] per
    /// DOE point, one suggestion per BO point — which also re-fits the
    /// surrogates, warm-starting them on the reloaded points), each
    /// regenerated configuration is verified against the recorded one,
    /// and the loop then continues from the next iteration. The combined
    /// history is **bit-identical** to an uninterrupted
    /// [`run_with`](BayesianOptimizer::run_with) under the same options,
    /// provided `objective` is deterministic.
    ///
    /// Resuming from an empty history is exactly
    /// [`run_with`](BayesianOptimizer::run_with); resuming from a
    /// complete one replays it and returns without calling `objective`.
    ///
    /// # Errors
    ///
    /// As [`run`](BayesianOptimizer::run), plus [`OptimizerError::Resume`]
    /// when the history does not belong to this optimizer: more points
    /// than the budget, inconsistent `doe_samples` or iteration indices,
    /// or a recorded configuration that disagrees with the replayed RNG
    /// stream (a seed, space, or options drift between save and resume).
    pub fn resume_with<F, M>(
        &self,
        from: &OptimizationHistory,
        mut objective: F,
        mut monitor: M,
    ) -> Result<OptimizationHistory>
    where
        F: FnMut(&Configuration) -> Evaluation,
        M: FnMut(&EvaluatedPoint) -> SearchControl,
    {
        self.validate_setup()?;
        let doe = self.options.doe_samples.min(self.options.budget);
        if from.points.len() > self.options.budget {
            return Err(OptimizerError::Resume(format!(
                "history has {} points but the budget is {}",
                from.points.len(),
                self.options.budget
            )));
        }
        if from.doe_samples != doe.min(from.points.len()) {
            return Err(OptimizerError::Resume(format!(
                "history records {} DOE samples where the options imply {}",
                from.doe_samples,
                doe.min(from.points.len())
            )));
        }

        let mut rng = StdRng::seed_from_u64(self.options.seed);
        let mut points: Vec<EvaluatedPoint> = Vec::with_capacity(self.options.budget);
        for (index, recorded) in from.points.iter().enumerate() {
            if recorded.iteration != index {
                return Err(OptimizerError::Resume(format!(
                    "history point {index} carries iteration {}",
                    recorded.iteration
                )));
            }
            let replayed = if index < doe {
                self.space.sample(&mut rng)
            } else {
                self.suggest(&points, &mut rng)?
            };
            if replayed != recorded.configuration {
                return Err(OptimizerError::Resume(format!(
                    "replayed configuration for iteration {index} disagrees with the record \
                     (seed, design space, or options changed since the checkpoint)"
                )));
            }
            points.push(recorded.clone());
        }
        self.drive(points, &mut rng, &mut objective, &mut monitor)
    }

    fn validate_setup(&self) -> Result<()> {
        if self.space.is_empty() {
            return Err(OptimizerError::InvalidSpace(
                "design space has no parameters".into(),
            ));
        }
        self.options.validate()
    }

    /// The shared evaluation loop: continues from however many `points`
    /// exist (zero for a fresh run, a replayed prefix for a resume) to
    /// the budget, drawing DOE samples below `doe_samples` and surrogate
    /// suggestions above it. `rng` must already be positioned after the
    /// draws that produced `points`.
    fn drive<F, M>(
        &self,
        mut points: Vec<EvaluatedPoint>,
        rng: &mut StdRng,
        objective: &mut F,
        monitor: &mut M,
    ) -> Result<OptimizationHistory>
    where
        F: FnMut(&Configuration) -> Evaluation,
        M: FnMut(&EvaluatedPoint) -> SearchControl,
    {
        let doe = self.options.doe_samples.min(self.options.budget);
        for iteration in points.len()..self.options.budget {
            // Phase 1 below doe_samples: uniform random initialization
            // (DOE). Phase 2 above it: BO iterations.
            let configuration = if iteration < doe {
                self.space.sample(rng)
            } else {
                self.suggest(&points, rng)?
            };
            let evaluation = objective(&configuration);
            points.push(EvaluatedPoint {
                iteration,
                configuration,
                evaluation,
            });
            if monitor(points.last().expect("just pushed")) == SearchControl::Stop {
                break;
            }
        }

        // A stop during DOE leaves fewer initialization points than
        // requested; the recorded count reflects what actually ran.
        let doe_samples = doe.min(points.len());
        Ok(OptimizationHistory {
            points,
            doe_samples,
        })
    }

    /// Proposes the next configuration given the history so far.
    fn suggest(&self, points: &[EvaluatedPoint], rng: &mut StdRng) -> Result<Configuration> {
        // Surrogate over *feasible* observations only. With no feasible
        // point yet the search is in a "phase 1" feasibility hunt: the
        // surrogate is fit on *negative violation magnitude* instead, so
        // EI walks downhill on constraint overshoot — the paper's
        // "subsequent iterations will recommend model configurations that
        // use less resources" (§3.2.2). (The feasibility classifier is
        // useless there: a single-class history degenerates to a constant.)
        let feasible_history: Vec<(Configuration, f64)> = points
            .iter()
            .filter(|p| p.evaluation.is_feasible)
            .map(|p| (p.configuration.clone(), p.evaluation.objective))
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
        let mut candidates: Vec<Configuration> = (0..self.options.candidate_pool)
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
            points
                .iter()
                .filter(|p| p.evaluation.is_feasible)
                .max_by(|a, b| {
                    a.evaluation
                        .objective
                        .partial_cmp(&b.evaluation.objective)
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
        };
        if let Some(best) = local_base {
            // Multi-scale exploitation: coarse moves escape the incumbent's
            // neighborhood, fine moves (1/5 and 1/25 width) polish it. A
            // single fixed width makes the endgame a random walk whose step
            // never shrinks below 10% of the range.
            const SCALES: [f64; 3] = [1.0, 0.2, 0.04];
            for i in 0..self.options.local_candidates {
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
                    self.options.acquisition.score(mean, std, incumbent)
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
            best.evaluation.objective > 0.0,
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

    #[test]
    fn run_with_stop_truncates_but_keeps_best_so_far() {
        let space = quadratic_space();
        let optimizer =
            BayesianOptimizer::new(space, OptimizerOptions::default().budget(20).doe_samples(5));
        // Stop after 7 evaluations (mid-BO phase).
        let history = optimizer
            .run_with(
                |c| Evaluation::new(-(c.real("x").unwrap()).abs()),
                |point| {
                    if point.iteration >= 6 {
                        SearchControl::Stop
                    } else {
                        SearchControl::Continue
                    }
                },
            )
            .unwrap();
        assert_eq!(history.points().len(), 7);
        assert_eq!(history.doe_samples(), 5);
        assert!(history.best().is_some(), "best-so-far survives the stop");

        // Stop during DOE: doe_samples reflects what actually ran.
        let history = optimizer
            .run_with(
                |c| Evaluation::new(c.real("x").unwrap()),
                |_| SearchControl::Stop,
            )
            .unwrap();
        assert_eq!(history.points().len(), 1);
        assert_eq!(history.doe_samples(), 1);
    }

    #[test]
    fn run_with_continue_is_bit_identical_to_run() {
        let space = quadratic_space();
        let optimizer =
            BayesianOptimizer::new(space, OptimizerOptions::default().budget(12).seed(9));
        let objective = |c: &Configuration| Evaluation::new(-(c.real("x").unwrap() - 2.0).abs());
        let plain = optimizer.run(objective).unwrap();
        let monitored = optimizer
            .run_with(objective, |_| SearchControl::Continue)
            .unwrap();
        assert_eq!(plain, monitored, "the monitor must never touch the RNG");
    }

    #[test]
    fn resume_from_truncated_history_is_bit_identical() {
        // Interrupt a search mid-BO-phase, round-trip the truncated
        // history through JSON (the checkpoint wire), resume — the result
        // must match the uninterrupted run bit for bit.
        let optimizer = BayesianOptimizer::new(
            quadratic_space(),
            OptimizerOptions::default()
                .budget(14)
                .doe_samples(4)
                .seed(11),
        );
        let objective = |c: &Configuration| {
            let x = c.real("x").unwrap();
            Evaluation::new(-(x - 3.0) * (x - 3.0)).feasible(x > -8.0)
        };
        let uninterrupted = optimizer.run(objective).unwrap();

        for stop_after in [2usize, 4, 7, 13] {
            let truncated = optimizer
                .run_with(objective, |point| {
                    if point.iteration + 1 >= stop_after {
                        SearchControl::Stop
                    } else {
                        SearchControl::Continue
                    }
                })
                .unwrap();
            assert_eq!(truncated.points().len(), stop_after);
            let text = serde_json::to_string(&truncated.to_json()).unwrap();
            let reloaded =
                OptimizationHistory::from_json(&serde_json::from_str(&text).unwrap()).unwrap();
            let mut new_evaluations = 0usize;
            let resumed = optimizer
                .resume_with(
                    &reloaded,
                    |c| {
                        new_evaluations += 1;
                        objective(c)
                    },
                    |_| SearchControl::Continue,
                )
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
        let optimizer = BayesianOptimizer::new(
            quadratic_space(),
            OptimizerOptions::default().budget(10).seed(5),
        );
        let objective = |c: &Configuration| Evaluation::new(-(c.real("x").unwrap()).abs());
        let full = optimizer.run(objective).unwrap();

        // Empty history: resume is exactly a fresh run.
        let empty = OptimizationHistory {
            points: Vec::new(),
            doe_samples: 0,
        };
        let from_scratch = optimizer
            .resume_with(&empty, objective, |_| SearchControl::Continue)
            .unwrap();
        assert_eq!(from_scratch, full);

        // Complete history: pure replay, the objective never runs.
        let resumed = optimizer
            .resume_with(
                &full,
                |_| panic!("complete history must not re-evaluate"),
                |_| SearchControl::Continue,
            )
            .unwrap();
        assert_eq!(resumed, full);
    }

    #[test]
    fn resume_rejects_foreign_histories() {
        let optimizer = BayesianOptimizer::new(
            quadratic_space(),
            OptimizerOptions::default().budget(8).doe_samples(3).seed(1),
        );
        let objective = |c: &Configuration| Evaluation::new(c.real("x").unwrap());
        let history = optimizer.run(objective).unwrap();

        // A different seed cannot replay this record.
        let reseeded = BayesianOptimizer::new(
            quadratic_space(),
            OptimizerOptions::default().budget(8).doe_samples(3).seed(2),
        );
        assert!(matches!(
            reseeded.resume_with(&history, objective, |_| SearchControl::Continue),
            Err(OptimizerError::Resume(_))
        ));

        // More points than the budget allows.
        let tiny = BayesianOptimizer::new(
            quadratic_space(),
            OptimizerOptions::default().budget(4).doe_samples(3).seed(1),
        );
        assert!(matches!(
            tiny.resume_with(&history, objective, |_| SearchControl::Continue),
            Err(OptimizerError::Resume(_))
        ));

        // Tampered bookkeeping: wrong doe_samples or iteration indices.
        let mut tampered = history.clone();
        tampered.doe_samples = 1;
        assert!(matches!(
            optimizer.resume_with(&tampered, objective, |_| SearchControl::Continue),
            Err(OptimizerError::Resume(_))
        ));
        let mut shuffled = history.clone();
        shuffled.points.swap(0, 1);
        assert!(matches!(
            optimizer.resume_with(&shuffled, objective, |_| SearchControl::Continue),
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
            Evaluation::new(-(x * x))
                .feasible(x < 5.0)
                .with_violation(if x < 5.0 { 0.0 } else { x - 5.0 })
                .with_metric("params", x.abs() * 1e-7)
        })
        .unwrap();
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
        assert!(efficient.evaluation.objective >= plain.evaluation.objective - 0.01);
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

    #[test]
    fn pareto_front_filters_dominated() {
        let history = BayesianOptimizer::new(
            quadratic_space(),
            OptimizerOptions::default().budget(25).seed(2),
        )
        .run(|c| {
            let x = c.real("x").unwrap();
            // objective = x, resource = x^2 (want high x, low resource).
            Evaluation::new(x).with_metric("resource", x * x)
        })
        .unwrap();
        let front = history.pareto_front("resource", -1.0);
        assert!(!front.is_empty());
        // No front member may dominate another.
        for a in &front {
            for b in &front {
                if a.iteration == b.iteration {
                    continue;
                }
                let dominates = a.evaluation.objective >= b.evaluation.objective
                    && -a.evaluation.metrics["resource"] >= -b.evaluation.metrics["resource"]
                    && (a.evaluation.objective > b.evaluation.objective
                        || -a.evaluation.metrics["resource"] > -b.evaluation.metrics["resource"]);
                assert!(!dominates, "front member dominated another");
            }
        }
    }

    #[test]
    fn ucb_acquisition_also_works() {
        let history = BayesianOptimizer::new(
            quadratic_space(),
            OptimizerOptions::default()
                .budget(30)
                .seed(4)
                .acquisition(Acquisition::Ucb),
        )
        .run(|c| {
            let x = c.real("x").unwrap();
            Evaluation::new(-(x - 3.0) * (x - 3.0))
        })
        .unwrap();
        let x = history.best().unwrap().configuration.real("x").unwrap();
        assert!((x - 3.0).abs() < 2.5, "best x = {x}");
    }
}
