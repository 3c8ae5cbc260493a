//! The benchmark's own arithmetic: order statistics of a handful of
//! repeats, and the rule for which tail percentile a sample supports.

use pq_obs::json::Value;

/// Median of `xs` (mean of the middle two for an even count); 0 for
/// an empty slice. Not `pq_stats::median`: that crate is under test
/// here, and the harness's arithmetic must not move with it.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's
/// `statistics.quantiles(xs, n=4)` computes them (the "exclusive"
/// method) — the acceptance driver uses that function, so `compare`
/// and the spread check must agree with it to the bit. `None` below
/// two samples, where Python raises.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Inter-quartile distance as a share of the median: the spread the
/// acceptance driver holds against a metric's bound. 0 below two
/// samples.
pub fn iqr_share(xs: &[f64]) -> f64 {
    let med = median(xs);
    match quartiles(xs) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

/// The highest conventional percentile that still has at least ten
/// samples beyond it, with its value — the only tail a sample of this
/// size can support. `None` when even p90 would rest on fewer than
/// ten samples (n < 100).
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    const LADDER: [f64; 4] = [99.9, 99.0, 95.0, 90.0];
    let n = xs.len();
    let pct = LADDER
        .into_iter()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0)?;
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    // Nearest-rank: the smallest value with at least pct % of the
    // sample at or below it.
    let rank = ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    Some((pct, v[rank - 1]))
}

/// Everything reported about one metric's samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub q1: f64,
    pub q3: f64,
    /// `(percentile, value)` when the sample supports a tail.
    pub tail: Option<(f64, f64)>,
    pub values: Vec<f64>,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let med = median(values);
        let (q1, q3) = quartiles(values).unwrap_or((med, med));
        Summary {
            n: values.len(),
            median: med,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            q1,
            q3,
            tail: tail(values),
            values: values.to_vec(),
        }
    }

    pub fn to_json(&self, unit: &str) -> Value {
        let mut v = Value::obj()
            .with("unit", unit)
            .with("n", self.n)
            .with("median", self.median)
            .with("min", self.min)
            .with("max", self.max)
            .with("q1", self.q1)
            .with("q3", self.q3);
        if let Some((pct, val)) = self.tail {
            v.set("tail_pct", pct);
            v.set("tail", val);
        }
        v.set(
            "values",
            self.values
                .iter()
                .map(|&x| Value::from(x))
                .collect::<Vec<_>>(),
        );
        v
    }

    /// Rebuild from [`Summary::to_json`]'s `values` (the other fields
    /// are derived, so a hand-edited file cannot disagree with itself).
    pub fn from_json(v: &Value) -> Option<Summary> {
        let values: Vec<f64> = v
            .get("values")?
            .as_arr()?
            .iter()
            .map(Value::as_f64)
            .collect::<Option<_>>()?;
        Some(Summary::of(&values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1,2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((iqr_share(&ten) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let sample = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&sample(5)), None);
        assert_eq!(tail(&sample(99)), None);
        // 192 × 5 % = 9.6 samples beyond p95: not enough, p90 it is.
        assert_eq!(tail(&sample(192)), Some((90.0, 173.0)));
        // 240 × 5 % = 12 beyond p95, 240 × 1 % = 2.4 beyond p99.
        assert_eq!(tail(&sample(240)), Some((95.0, 228.0)));
        assert_eq!(tail(&sample(1000)), Some((99.0, 990.0)));
    }

    #[test]
    fn summary_round_trips_through_json() {
        let s = Summary::of(&[7.54, 6.71, 6.67, 6.9, 7.01]);
        let text = s.to_json("s").to_pretty();
        let back = Summary::from_json(&Value::parse(&text).unwrap()).unwrap();
        assert_eq!(s, back);
        assert_eq!(back.n, 5);
        assert_eq!(back.median, 6.9);
    }
}
