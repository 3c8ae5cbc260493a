//! Property-based tests for the statistics toolkit.

use pq_stats::{
    beta_inc, chi2_cdf, f_cdf, mean, median, one_way_anova, pearson, quantile, t_cdf, t_critical,
    t_interval, variance,
};
use proptest::prelude::*;

proptest! {
    /// CDFs are monotone and bounded in [0, 1].
    #[test]
    fn cdfs_are_monotone(x1 in -50.0f64..50.0, x2 in -50.0f64..50.0, df in 1.0f64..200.0) {
        let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        prop_assert!(t_cdf(lo, df) <= t_cdf(hi, df) + 1e-12);
        prop_assert!((0.0..=1.0).contains(&t_cdf(lo, df)));
        let (flo, fhi) = (lo.abs(), hi.abs().max(lo.abs()));
        prop_assert!(f_cdf(flo, df, df) <= f_cdf(fhi, df, df) + 1e-10);
    }

    /// The incomplete beta satisfies its reflection identity.
    #[test]
    fn beta_inc_reflection(a in 0.2f64..40.0, b in 0.2f64..40.0, x in 0.0f64..1.0) {
        let lhs = beta_inc(a, b, x);
        let rhs = 1.0 - beta_inc(b, a, 1.0 - x);
        prop_assert!((lhs - rhs).abs() < 1e-9, "a={a} b={b} x={x}: {lhs} vs {rhs}");
        prop_assert!((0.0..=1.0).contains(&lhs));
    }

    /// Closed forms the figures rest on: χ²₂ is the exponential (the
    /// exact form `pq agreement`'s Jarque–Bera p-value uses), and T² of
    /// a t(df) is F(1, df), so the F CDF at the squared critical value
    /// gives the confidence back.
    #[test]
    fn cdfs_match_their_closed_forms(x in 0.0f64..80.0, c in 0.5f64..0.995, df in 1.0f64..200.0) {
        let (got, want) = (chi2_cdf(x, 2.0), 1.0 - (-x / 2.0).exp());
        prop_assert!((got - want).abs() < 1e-12, "chi2_cdf({x}, 2) = {got}, 1 - e^(-x/2) = {want}");
        let t = t_critical(c, df);
        let back = f_cdf(t * t, 1.0, df);
        prop_assert!((back - c).abs() < 1e-12, "f_cdf(t_critical({c}, {df})², 1, {df}) = {back}");
    }

    /// Mean lies within [min, max]; variance is non-negative; shifting
    /// data shifts the mean and leaves the variance unchanged.
    #[test]
    fn moments_behave(xs in prop::collection::vec(-1e5f64..1e5, 2..100), shift in -1e4f64..1e4) {
        let m = mean(&xs);
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
        let v = variance(&xs);
        prop_assert!(v >= 0.0);
        let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        prop_assert!((mean(&shifted) - (m + shift)).abs() < 1e-6);
        prop_assert!((variance(&shifted) - v).abs() < 1e-3 * v.max(1.0));
    }

    /// Quantiles are monotone in q and bracket the data.
    #[test]
    fn quantiles_monotone(xs in prop::collection::vec(-1e4f64..1e4, 1..80), q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        let (ql, qh) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(quantile(&xs, ql) <= quantile(&xs, qh) + 1e-9);
        prop_assert!(quantile(&xs, 0.0) <= median(&xs));
        prop_assert!(median(&xs) <= quantile(&xs, 1.0));
    }

    /// Pearson r is symmetric, bounded, and invariant under positive
    /// affine maps.
    #[test]
    fn pearson_properties(
        pairs in prop::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 3..60),
        a in 0.1f64..10.0,
        b in -100.0f64..100.0,
    ) {
        let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        if let Some(r) = pearson(&xs, &ys) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
            let r2 = pearson(&ys, &xs).unwrap();
            prop_assert!((r - r2).abs() < 1e-9, "symmetry");
            let scaled: Vec<f64> = xs.iter().map(|x| a * x + b).collect();
            if let Some(r3) = pearson(&scaled, &ys) {
                prop_assert!((r - r3).abs() < 1e-6, "affine invariance: {r} vs {r3}");
            }
        }
    }

    /// ANOVA p-values live in [0, 1] and permuting group labels of
    /// identical groups never yields significance certainty.
    #[test]
    fn anova_p_in_unit_interval(
        g1 in prop::collection::vec(-100.0f64..100.0, 3..30),
        g2 in prop::collection::vec(-100.0f64..100.0, 3..30),
    ) {
        if let Some(r) = one_way_anova(&[&g1, &g2]) {
            prop_assert!((0.0..=1.0).contains(&r.p), "p = {}", r.p);
            prop_assert!(r.f >= 0.0);
        }
    }

    /// A t-interval always contains its own sample mean, and higher
    /// confidence never narrows it.
    #[test]
    fn t_interval_nested(xs in prop::collection::vec(-1e3f64..1e3, 2..50)) {
        let c90 = t_interval(&xs, 0.90);
        let c99 = t_interval(&xs, 0.99);
        prop_assert!(c90.contains(c90.mean));
        prop_assert!(c99.half_width >= c90.half_width - 1e-12);
    }
}
