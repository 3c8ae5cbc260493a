//! Probability distributions: Student-t, F and χ² CDFs plus the
//! inverse lookup the confidence intervals need.

use crate::special::{beta_inc, gamma_inc_lower};
use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

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
/// `0.99`) and degrees of freedom: the point where the CDF reaches
/// `(1 + confidence) / 2`. `NaN` unless `confidence` lies strictly
/// inside (0, 1) and `df > 0`, like [`t_cdf`].
///
/// A quantile depends on nothing but its two arguments, so each one is
/// solved once per process and every later call, from any thread,
/// reads the stored double: nothing can make an entry stale. At most
/// 4 096 are kept; a pair past that is solved on every call, to the
/// same bits.
pub fn t_critical(confidence: f64, df: f64) -> f64 {
    memoised(&QUANTILES, MEMO_CAP, confidence, df)
}

/// Most quantiles [`t_critical`] keeps. Ten study seeds of both
/// studies and their Fig. 3–6 analysis at smoke scale ask for 289.
const MEMO_CAP: usize = 4096;

/// Solved quantiles, keyed by the bits of `(confidence, df)`.
type Quantiles = BTreeMap<(u64, u64), f64>;

/// [`t_critical`]'s memo, shared by every thread of the process.
static QUANTILES: Mutex<Quantiles> = Mutex::new(BTreeMap::new());

/// [`t_critical`] over `memo`, which keeps at most `cap` quantiles.
fn memoised(memo: &Mutex<Quantiles>, cap: usize, confidence: f64, df: f64) -> f64 {
    if df.is_nan() || df <= 0.0 || !(confidence > 0.0 && confidence < 1.0) {
        return f64::NAN;
    }
    // Nothing panics while holding the lock, so a poisoned one still
    // guards a whole map.
    let lock = || memo.lock().unwrap_or_else(PoisonError::into_inner);
    let key = (confidence.to_bits(), df.to_bits());
    if let Some(&t) = lock().get(&key) {
        return t;
    }
    // Solved without the lock: threads that race on one pair store the
    // same double.
    let t = solve_t_critical(confidence, df);
    let mut memo = lock();
    if memo.len() < cap {
        memo.insert(key, t);
    }
    t
}

/// [`t_critical`]'s solver: bisection on `[0, 1000]`, run to its fixed
/// point. Once `mid` equals `lo` or `hi` the two are adjacent doubles
/// and `mid` is an end the CDF has already placed, so no further step
/// can move either of them. A quantile past 1 000 (df near 1 at a
/// confidence near 1) first doubles the bracket until it holds the
/// target; one that no finite bracket holds is `NaN`.
fn solve_t_critical(confidence: f64, df: f64) -> f64 {
    // Spelled as the solver always computed it: `(1 + c) / 2` may
    // round to the neighbouring double and move every interval.
    let target = 1.0 - (1.0 - confidence) / 2.0;
    let (mut lo, mut hi) = (0.0, 1e3);
    while t_cdf(hi, df) < target {
        lo = hi;
        hi *= 2.0;
        if hi.is_infinite() {
            return f64::NAN;
        }
    }
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
    fn quantiles_past_the_first_bracket_match_the_cauchy_closed_form() {
        // t(df = 1) is Cauchy: the quantile is tan(π·c/2). Past 1 000
        // the bracket used to come back as its own end.
        for confidence in [0.9, 0.99, 0.9995, 0.9999, 1.0 - 1e-6] {
            let want = (std::f64::consts::PI * confidence / 2.0).tan();
            let got = t_critical(confidence, 1.0);
            assert!(
                ((got - want) / want).abs() < 1e-9,
                "{confidence}: {got} vs {want}"
            );
        }
    }

    /// Every (confidence, df) pair the memo tests ask about: 6 000, more
    /// than the memo keeps.
    fn memo_pairs() -> Vec<(f64, f64)> {
        [0.90, 0.95, 0.99]
            .into_iter()
            .flat_map(|c| (1..=2000).map(move |df| (c, f64::from(df))))
            .collect()
    }

    #[test]
    fn memoised_quantiles_are_the_solvers_bits() {
        for (c, df) in memo_pairs() {
            let first = t_critical(c, df).to_bits();
            let again = t_critical(c, df).to_bits();
            let solved = solve_t_critical(c, df).to_bits();
            assert_eq!((first, again), (solved, solved), "t {c} df={df}");
        }
    }

    #[test]
    fn threads_racing_on_the_memo_read_the_solvers_bits() {
        let pairs = memo_pairs();
        let want: Vec<u64> = pairs
            .iter()
            .map(|&(c, df)| solve_t_critical(c, df).to_bits())
            .collect();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for k in 0..4 {
                let (pairs, want, start) = (&pairs, &want, &start);
                s.spawn(move || {
                    start.wait();
                    // Each thread starts a quarter further on; odd ones
                    // walk backwards.
                    let n = pairs.len();
                    for i in 0..n {
                        let j = (i + k * n / 4) % n;
                        let j = if k % 2 == 1 { n - 1 - j } else { j };
                        let (c, df) = pairs[j];
                        assert_eq!(t_critical(c, df).to_bits(), want[j], "t {c} df={df}");
                    }
                });
            }
        });
    }

    #[test]
    fn past_the_cap_quantiles_are_solved_and_not_kept() {
        let memo = Mutex::new(BTreeMap::new());
        let cap = 8;
        for df in (1..=20).map(f64::from) {
            let want = solve_t_critical(0.99, df).to_bits();
            for _ in 0..2 {
                assert_eq!(memoised(&memo, cap, 0.99, df).to_bits(), want, "df={df}");
            }
            let kept = memo.lock().unwrap();
            assert_eq!(kept.len(), cap.min(df as usize));
            assert_eq!(
                kept.contains_key(&(0.99f64.to_bits(), df.to_bits())),
                df as usize <= cap
            );
        }
        // Out-of-domain arguments never reach the memo.
        assert!(memoised(&memo, cap, 1.0, 5.0).is_nan());
        assert_eq!(memo.lock().unwrap().len(), cap);
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
