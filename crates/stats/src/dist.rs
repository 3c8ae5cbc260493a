//! Probability distributions: Student-t, F and χ² CDFs plus the
//! inverse lookup the confidence intervals need.

use crate::special::{beta_inc, gamma_inc_lower};

/// Student-t CDF with `df` degrees of freedom.
pub fn t_cdf(t: f64, df: f64) -> f64 {
    if df <= 0.0 {
        return f64::NAN;
    }
    let x = df / (df + t * t);
    let p = 0.5 * beta_inc(df / 2.0, 0.5, x);
    if t >= 0.0 {
        1.0 - p
    } else {
        p
    }
}

/// Two-sided critical t value for a given confidence level (e.g.
/// `0.99`) and degrees of freedom: the point in `[0, 1000]` where the
/// CDF reaches `(1 + confidence) / 2`, by bisection. `NaN` unless
/// `confidence` lies strictly inside (0, 1) and `df > 0`, like
/// [`t_cdf`].
///
/// The bisection runs to its fixed point. Once `mid` equals `lo` or
/// `hi` the two are adjacent doubles and `mid` is an end the CDF has
/// already placed, so no further step can move either of them.
pub fn t_critical(confidence: f64, df: f64) -> f64 {
    if df.is_nan() || df <= 0.0 || !(confidence > 0.0 && confidence < 1.0) {
        return f64::NAN;
    }
    // Spelled as the solver always computed it: `(1 + c) / 2` may
    // round to the neighbouring double and move every interval.
    let target = 1.0 - (1.0 - confidence) / 2.0;
    let (mut lo, mut hi) = (0.0, 1e3);
    loop {
        let mid = 0.5 * (lo + hi);
        if mid == lo || mid == hi {
            return mid;
        }
        if t_cdf(mid, df) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
}

/// F-distribution CDF with `d1`/`d2` degrees of freedom.
pub fn f_cdf(f: f64, d1: f64, d2: f64) -> f64 {
    if f <= 0.0 {
        return 0.0;
    }
    beta_inc(d1 / 2.0, d2 / 2.0, d1 * f / (d1 * f + d2))
}

/// χ² CDF with `k` degrees of freedom.
pub fn chi2_cdf(x: f64, k: f64) -> f64 {
    gamma_inc_lower(k / 2.0, x / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t_cdf_reference_points() {
        // t(df=∞) → normal; t(df=1) is Cauchy: CDF(1) = 0.75.
        assert!((t_cdf(1.0, 1.0) - 0.75).abs() < 1e-9);
        assert!((t_cdf(0.0, 7.0) - 0.5).abs() < 1e-12);
        // Large df ≈ normal.
        assert!((t_cdf(1.96, 100000.0) - 0.975).abs() < 1e-3);
        // Symmetry.
        assert!((t_cdf(2.0, 5.0) + t_cdf(-2.0, 5.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn t_critical_matches_tables() {
        // Published two-sided critical values, three decimals.
        let table = [
            (1.0, [6.314, 12.706, 63.657]),
            (2.0, [2.920, 4.303, 9.925]),
            (5.0, [2.015, 2.571, 4.032]),
            (10.0, [1.812, 2.228, 3.169]),
            (30.0, [1.697, 2.042, 2.750]),
            (60.0, [1.671, 2.000, 2.660]),
            (120.0, [1.658, 1.980, 2.617]),
        ];
        for (df, row) in table {
            for (confidence, want) in [0.90, 0.95, 0.99].into_iter().zip(row) {
                let got = t_critical(confidence, df);
                assert!(
                    (got - want).abs() < 1e-3,
                    "df={df} {confidence}: {got} vs {want}"
                );
            }
        }
    }

    /// The solver as it was: always 200 halvings, converged or not.
    fn critical_200_steps(confidence: f64, df: f64) -> f64 {
        let target = 1.0 - (1.0 - confidence) / 2.0;
        let (mut lo, mut hi) = (0.0, 1e3);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if t_cdf(mid, df) < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    #[test]
    fn bisection_to_the_fixed_point_returns_the_200_step_double() {
        for confidence in [0.90, 0.95, 0.99] {
            for df in (1..=200).map(f64::from) {
                assert_eq!(
                    t_critical(confidence, df).to_bits(),
                    critical_200_steps(confidence, df).to_bits(),
                    "t {confidence} df={df}"
                );
            }
        }
    }

    #[test]
    fn critical_values_are_nan_outside_the_domain() {
        for confidence in [0.0, 1.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            assert!(t_critical(confidence, 10.0).is_nan(), "t {confidence}");
        }
        for df in [0.0, -1.0, f64::NAN] {
            assert!(t_critical(0.99, df).is_nan(), "df {df}");
        }
        // The edges of the domain still solve.
        assert!(t_critical(1e-9, 10.0) > 0.0);
        assert!(t_critical(1.0 - 1e-9, 10.0).is_finite());
    }

    #[test]
    fn f_cdf_reference_points() {
        // F(1, d1=2, d2=2) = 0.5.
        assert!((f_cdf(1.0, 2.0, 2.0) - 0.5).abs() < 1e-9);
        // Critical value F(0.95; 3, 10) ≈ 3.708.
        assert!((f_cdf(3.708, 3.0, 10.0) - 0.95).abs() < 2e-3);
        assert_eq!(f_cdf(0.0, 3.0, 10.0), 0.0);
        assert_eq!(f_cdf(-1.0, 3.0, 10.0), 0.0);
    }

    #[test]
    fn chi2_reference_points() {
        // χ²(df=1): CDF(3.841) ≈ 0.95.
        assert!((chi2_cdf(3.841, 1.0) - 0.95).abs() < 1e-3);
        // χ²(df=2): CDF(5.991) ≈ 0.95.
        assert!((chi2_cdf(5.991, 2.0) - 0.95).abs() < 1e-3);
    }
}
