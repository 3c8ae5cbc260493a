//! Descriptive statistics.

/// Arithmetic mean (0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance (n−1 denominator; 0 when n < 2).
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Sample standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Standard error of the mean.
pub fn sem(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    std_dev(xs) / (xs.len() as f64).sqrt()
}

/// Median (linear-interpolated between middle elements for even n).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Quantile with linear interpolation; `q ∈ [0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = xs.to_vec();
    // A total order, so a NaN cannot panic the sort; a positive NaN
    // sorts after +∞.
    v.sort_by(f64::total_cmp);
    let q = q.clamp(0.0, 1.0);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let w = pos - lo as f64;
        v[lo] * (1.0 - w) + v[hi] * w
    }
}

/// Sample skewness (biased / population form; 0 when undefined).
pub fn skewness(xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    if xs.len() < 3 {
        return 0.0;
    }
    let m = mean(xs);
    let s2 = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / n;
    if s2 <= 0.0 {
        return 0.0;
    }
    let m3 = xs.iter().map(|x| (x - m).powi(3)).sum::<f64>() / n;
    m3 / s2.powf(1.5)
}

/// Sample excess kurtosis (population form; 0 when undefined).
pub fn excess_kurtosis(xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    if xs.len() < 4 {
        return 0.0;
    }
    let m = mean(xs);
    let s2 = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / n;
    if s2 <= 0.0 {
        return 0.0;
    }
    let m4 = xs.iter().map(|x| (x - m).powi(4)).sum::<f64>() / n;
    m4 / (s2 * s2) - 3.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        // Sample variance with n−1 = 32/7.
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
        assert!((std_dev(&xs) - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
        assert_eq!(sem(&[]), 0.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[42.0]), 42.0);
    }

    #[test]
    fn median_and_quantiles() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((median(&xs) - 2.5).abs() < 1e-12);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        let odd = [5.0, 1.0, 3.0];
        assert_eq!(median(&odd), 3.0);
    }

    #[test]
    fn quantile_of_a_nan_sample_does_not_panic() {
        // NaN sorts last, so the lower quantiles still read the numbers.
        assert_eq!(quantile(&[f64::NAN, 1.0, 3.0], 0.0), 1.0);
        assert_eq!(median(&[3.0, f64::NAN, 1.0]), 3.0);
        assert!(median(&[f64::NAN, 1.0]).is_nan());
    }

    #[test]
    fn skewness_sign() {
        let right = [1.0, 1.0, 1.0, 2.0, 10.0];
        assert!(skewness(&right) > 0.5);
        let left = [-10.0, -2.0, -1.0, -1.0, -1.0];
        assert!(skewness(&left) < -0.5);
        let sym = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert!(skewness(&sym).abs() < 1e-12);
    }

    #[test]
    fn kurtosis_of_uniformish_is_negative() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert!(excess_kurtosis(&xs) < -1.0, "{}", excess_kurtosis(&xs));
    }

    #[test]
    fn constant_series_degenerate() {
        let xs = [3.0; 10];
        assert_eq!(skewness(&xs), 0.0);
        assert_eq!(excess_kurtosis(&xs), 0.0);
        assert_eq!(variance(&xs), 0.0);
    }
}
