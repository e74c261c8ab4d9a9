//! The acquisition function for Bayesian optimization.
//!
//! The paper selects candidates with the **Expected Improvement**
//! criterion (§5, citing Mockus et al.). For constrained problems the EI
//! is weighted by the predicted probability of feasibility, which steers
//! the search away from configurations that would blow the resource or
//! latency budget — "subsequent iterations of the Bayesian optimization
//! will recommend model configurations that use less resources" (§3.2.2).

/// Expected improvement of a Gaussian belief `(mean, std)` over the
/// incumbent `best`, for maximization, with exploration jitter `xi`.
///
/// With `std == 0` this degenerates to `max(mean - best - xi, 0)`.
pub fn expected_improvement(mean: f64, std: f64, best: f64, xi: f64) -> f64 {
    let improvement = mean - best - xi;
    if std <= 1e-12 {
        return improvement.max(0.0);
    }
    let z = improvement / std;
    improvement * normal_cdf(z) + std * normal_pdf(z)
}

/// Standard normal probability density.
pub fn normal_pdf(z: f64) -> f64 {
    (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard normal cumulative distribution (Abramowitz–Stegun erf).
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// Error function approximation (A&S 7.1.26, |error| < 1.5e-7).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn erf_known_values() {
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(1.0) - 0.8427007).abs() < 1e-5);
        assert!((erf(-1.0) + 0.8427007).abs() < 1e-5);
        assert!((erf(3.0) - 0.9999779).abs() < 1e-5);
    }

    #[test]
    fn cdf_symmetry() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-9);
        for z in [0.3, 1.0, 2.5] {
            assert!((normal_cdf(z) + normal_cdf(-z) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn ei_zero_std_is_relu() {
        assert_eq!(expected_improvement(5.0, 0.0, 3.0, 0.0), 2.0);
        assert_eq!(expected_improvement(2.0, 0.0, 3.0, 0.0), 0.0);
    }

    #[test]
    fn ei_grows_with_uncertainty_below_incumbent() {
        // Mean below incumbent: only uncertainty can produce improvement.
        let low = expected_improvement(1.0, 0.1, 3.0, 0.0);
        let high = expected_improvement(1.0, 2.0, 3.0, 0.0);
        assert!(high > low);
    }

    #[test]
    fn ei_prefers_higher_mean_at_equal_std() {
        let worse = expected_improvement(2.0, 1.0, 3.0, 0.0);
        let better = expected_improvement(4.0, 1.0, 3.0, 0.0);
        assert!(better > worse);
    }

    #[test]
    fn ei_with_the_search_jitter_scores_an_improvement() {
        assert!(expected_improvement(5.0, 1.0, 3.0, 0.01) > 0.0);
    }

    proptest! {
        #[test]
        fn prop_ei_nonnegative(mean in -10.0f64..10.0, std in 0.0f64..5.0, best in -10.0f64..10.0) {
            prop_assert!(expected_improvement(mean, std, best, 0.0) >= -1e-9);
        }

        #[test]
        fn prop_cdf_monotonic(a in -5.0f64..5.0, b in -5.0f64..5.0) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(normal_cdf(lo) <= normal_cdf(hi) + 1e-12);
        }

        #[test]
        fn prop_cdf_in_unit_interval(z in -8.0f64..8.0) {
            let c = normal_cdf(z);
            prop_assert!((0.0..=1.0).contains(&c));
        }
    }
}
