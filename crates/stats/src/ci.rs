//! Confidence intervals — the 99 % error bars of Figures 3 and 5.

use crate::desc::{mean, sem};
use crate::dist::t_critical;

/// A symmetric confidence interval around a mean.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConfidenceInterval {
    /// Sample mean.
    pub mean: f64,
    /// Half-width of the interval.
    pub half_width: f64,
    /// Confidence level used (e.g. 0.99).
    pub confidence: f64,
}

impl ConfidenceInterval {
    /// Lower bound.
    pub fn lo(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper bound.
    pub fn hi(&self) -> f64 {
        self.mean + self.half_width
    }

    /// Whether `v` lies inside the interval.
    pub fn contains(&self, v: f64) -> bool {
        (self.lo()..=self.hi()).contains(&v)
    }
}

/// Student-t interval for the mean of a sample.
pub fn t_interval(xs: &[f64], confidence: f64) -> ConfidenceInterval {
    let n = xs.len();
    let half_width = if n >= 2 {
        t_critical(confidence, (n - 1) as f64) * sem(xs)
    } else {
        0.0
    };
    ConfidenceInterval {
        mean: mean(xs),
        half_width,
        confidence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t_interval_widths() {
        let xs = [10.0, 12.0, 9.0, 11.0, 10.0, 12.0, 9.0, 11.0];
        let ci95 = t_interval(&xs, 0.95);
        let ci99 = t_interval(&xs, 0.99);
        assert!(ci99.half_width > ci95.half_width, "99 % is wider");
        assert!(ci95.contains(ci95.mean));
        assert!((ci95.mean - 10.5).abs() < 1e-12);
    }

    #[test]
    fn coverage_sanity() {
        // For a sample straight from its own mean, interval contains it.
        let xs = [5.0, 5.1, 4.9, 5.05, 4.95];
        let ci = t_interval(&xs, 0.99);
        assert!(ci.contains(5.0));
    }

    #[test]
    fn degenerate_samples() {
        let ci = t_interval(&[7.0], 0.99);
        assert_eq!(ci.mean, 7.0);
        assert_eq!(ci.half_width, 0.0);
        let ci = t_interval(&[], 0.95);
        assert_eq!(ci.mean, 0.0);
    }

    #[test]
    fn interval_at_an_impossible_confidence_is_not_a_number() {
        // Used to come back as half_width 577.35, the bisection bracket's far end.
        assert!(t_interval(&[1.0, 2.0, 3.0], 1.0).half_width.is_nan());
    }
}
