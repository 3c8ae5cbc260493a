//! The psychometric perception model.
//!
//! A participant's percept of a loading process is a weighted blend of
//! the video's technical metrics in *log-time* (Weber–Fechner: humans
//! judge duration ratios, not differences), plus per-viewing
//! observation noise. The A/B study then applies a just-noticeable-
//! difference threshold to the percept difference; the rating study
//! maps the percept through a log-MOS curve onto the paper's 10–70
//! scale.

use crate::calib;
use crate::participant::Participant;
use pq_metrics::MetricSet;
use pq_sim::SimRng;

/// `ln` of the three metrics a percept blends, each floored at 1 ms:
/// what every viewing of a stimulus reads, so it is computed once, when
/// the stimulus is built or restored.
#[derive(Clone, Copy, Debug)]
pub struct LogMetrics {
    /// ln SI.
    pub si: f64,
    /// ln FVC.
    pub fvc: f64,
    /// ln LVC.
    pub lvc: f64,
}

impl LogMetrics {
    /// The log-metrics of one recording.
    pub fn of(m: &MetricSet) -> LogMetrics {
        LogMetrics {
            si: m.si_ms.max(1.0).ln(),
            fvc: m.fvc_ms.max(1.0).ln(),
            lvc: m.lvc_ms.max(1.0).ln(),
        }
    }
}

/// Noise-free log-percept of a recording for a given participant:
/// `Σ wᵢ · ln(metricᵢ)` over (SI, FVC, LVC), in log-milliseconds.
pub fn log_percept(p: &Participant, l: &LogMetrics) -> f64 {
    let [w_si, w_fvc, w_lvc] = p.w;
    w_si * l.si + w_fvc * l.fvc + w_lvc * l.lvc
}

/// One noisy viewing of a recording.
pub fn observe(p: &Participant, l: &LogMetrics, rng: &mut SimRng) -> f64 {
    log_percept(p, l) + rng.normal_with(0.0, p.obs_noise)
}

/// The base rating (before context, taste, bias and noise) for a
/// percept: the log-MOS curve on the 10–70 scale.
pub fn base_rating(log_percept_ms: f64) -> f64 {
    // Convert log-ms to log-seconds inside the curve.
    let ln_secs = log_percept_ms - 1000f64.ln();
    calib::RATE_A - calib::RATE_B * ln_secs
}

/// Clamp a rating onto the paper's continuous 10–70 voting scale.
pub fn clamp_vote(v: f64) -> f64 {
    v.clamp(10.0, 70.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::participant::Group;

    fn participant() -> Participant {
        let mut rng = SimRng::new(1);
        Participant::sample(Group::Lab, 0, &mut rng)
    }

    fn metrics(si: f64) -> MetricSet {
        MetricSet {
            fvc_ms: si * 0.4,
            si_ms: si,
            vc85_ms: si * 1.1,
            lvc_ms: si * 1.5,
            plt_ms: si * 1.8,
        }
    }

    fn logs(si: f64) -> LogMetrics {
        LogMetrics::of(&metrics(si))
    }

    #[test]
    fn faster_pages_have_smaller_percepts() {
        let p = participant();
        let fast = log_percept(&p, &logs(800.0));
        let slow = log_percept(&p, &logs(8000.0));
        assert!(fast < slow);
        // Log domain: a 10× slowdown moves the percept by ln(10).
        assert!((slow - fast - 10f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn observation_noise_averages_out() {
        let p = participant();
        let m = logs(2000.0);
        let mut rng = SimRng::new(3);
        let n = 5000;
        let mean: f64 = (0..n).map(|_| observe(&p, &m, &mut rng)).sum::<f64>() / n as f64;
        assert!((mean - log_percept(&p, &m)).abs() < 0.01);
    }

    #[test]
    fn base_rating_descends_with_si() {
        let fast = base_rating(metrics(1000.0).si_ms.ln());
        let slow = base_rating(metrics(30_000.0).si_ms.ln());
        assert!(fast > slow);
        assert!(
            (fast - calib::RATE_A).abs() < 1e-9,
            "1 s SI sits at the anchor"
        );
    }

    #[test]
    fn votes_clamped_to_scale() {
        assert_eq!(clamp_vote(200.0), 70.0);
        assert_eq!(clamp_vote(-5.0), 10.0);
        assert_eq!(clamp_vote(42.0), 42.0);
    }

    #[test]
    fn degenerate_metrics_do_not_panic() {
        let p = participant();
        let zero = MetricSet {
            fvc_ms: 0.0,
            si_ms: 0.0,
            vc85_ms: 0.0,
            lvc_ms: 0.0,
            plt_ms: 0.0,
        };
        assert!(log_percept(&p, &LogMetrics::of(&zero)).is_finite());
    }
}
