//! Correlation — Figure 6's Pearson heatmap (the paper chooses
//! Pearson "because we are interested to see how well the linearity of
//! the metric reflects the users' choices").

use crate::desc::mean;

/// Pearson's product-moment correlation coefficient. Returns `None`
/// when fewer than two points or either variable is constant.
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        let dx = x - mx;
        let dy = y - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_positive_and_negative() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let pos = [10.0, 20.0, 30.0, 40.0];
        let neg = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&xs, &pos).unwrap() - 1.0).abs() < 1e-12);
        assert!((pearson(&xs, &neg).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn uncorrelated_near_zero() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [3.0, 1.0, 4.0, 1.0, 5.0];
        let r = pearson(&xs, &ys).unwrap();
        assert!(r.abs() < 0.7, "r {r}");
    }

    #[test]
    fn hand_computed_case() {
        // Known reference: x=[1,2,3], y=[2,2,4] → r = √3/2 ≈ 0.866.
        let r = pearson(&[1.0, 2.0, 3.0], &[2.0, 2.0, 4.0]).unwrap();
        assert!((r - 0.866025).abs() < 1e-5, "r {r}");
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(pearson(&[1.0], &[2.0]), None);
        assert_eq!(pearson(&[1.0, 2.0], &[3.0]), None);
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), None);
    }
}
