//! Property-based tests for the study layer: filtering funnels,
//! perception monotonicity, stored log-metrics and vote-scale safety.

use pq_metrics::MetricSet;
use pq_sim::SimRng;
use pq_study::percept::{self, LogMetrics};
use pq_study::{Conformance, Funnel, Group, Participant};
use proptest::prelude::*;

fn arb_conformance() -> impl Strategy<Value = Conformance> {
    prop::array::uniform7(prop::bool::weighted(0.15)).prop_map(|violated| Conformance { violated })
}

fn metrics(si: f64, tail: f64) -> MetricSet {
    MetricSet {
        fvc_ms: si * 0.4,
        si_ms: si,
        vc85_ms: si * 1.1,
        lvc_ms: si * 1.4,
        plt_ms: si * 1.4 + tail,
    }
}

fn logs(si: f64, tail: f64) -> LogMetrics {
    LogMetrics::of(&metrics(si, tail))
}

/// A metric value in ms: 0, below the 1 ms floor, `NaN`, 1e9, or an
/// ordinary load time.
fn arb_metric() -> impl Strategy<Value = f64> {
    (0usize..5, 0.0f64..1.0).prop_map(|(kind, u)| match kind {
        0 => 0.0,
        1 => u,
        2 => f64::NAN,
        3 => 1e9,
        _ => 1.0 + u * 60_000.0,
    })
}

proptest! {
    /// The funnel is monotone non-increasing, ends at the number of
    /// fully conforming participants, and recruited equals input size.
    #[test]
    fn funnel_invariants(records in prop::collection::vec(arb_conformance(), 0..300)) {
        let funnel = Funnel::apply(&records);
        prop_assert_eq!(funnel.recruited, records.len() as u32);
        let mut prev = funnel.recruited;
        for a in funnel.after {
            prop_assert!(a <= prev);
            prev = a;
        }
        let clean = records.iter().filter(|c| c.survives()).count() as u32;
        prop_assert_eq!(funnel.survivors(), clean);
    }

    /// Funnel counts are permutation-invariant.
    #[test]
    fn funnel_permutation_invariant(records in prop::collection::vec(arb_conformance(), 1..100), seed in any::<u64>()) {
        let funnel = Funnel::apply(&records);
        let mut shuffled = records.clone();
        SimRng::new(seed).shuffle(&mut shuffled);
        prop_assert_eq!(Funnel::apply(&shuffled).after, funnel.after);
    }

    /// Perception is strictly monotone: uniformly slower metrics give
    /// a strictly larger log-percept for every participant.
    #[test]
    fn percept_monotone_in_slowdown(seed in any::<u64>(), si in 100.0f64..60_000.0, factor in 1.01f64..10.0) {
        let mut rng = SimRng::new(seed);
        let p = Participant::sample(Group::MicroWorker, 0, &mut rng);
        let fast = percept::log_percept(&p, &logs(si, 0.0));
        let slow = percept::log_percept(&p, &logs(si * factor, 0.0));
        prop_assert!(slow > fast);
        // In log domain the shift equals ln(factor) exactly.
        prop_assert!((slow - fast - factor.ln()).abs() < 1e-9);
    }

    /// The percept read from a stimulus's stored log-metrics is the
    /// double the per-viewing form `Σ wᵢ · ln(max(mᵢ, 1))` gives, for
    /// metrics at and under the 1 ms floor, `NaN` and 1e9 alike.
    #[test]
    fn percept_from_stored_logs_is_the_per_viewing_sum(
        seed in any::<u64>(),
        group in 0usize..3,
        (si, fvc, lvc) in (arb_metric(), arb_metric(), arb_metric()),
    ) {
        let mut rng = SimRng::new(seed);
        let p = Participant::sample(Group::ALL[group], 0, &mut rng);
        let m = MetricSet { fvc_ms: fvc, si_ms: si, vc85_ms: si, lvc_ms: lvc, plt_ms: lvc };
        let [w_si, w_fvc, w_lvc] = p.w;
        let want = w_si * si.max(1.0).ln() + w_fvc * fvc.max(1.0).ln() + w_lvc * lvc.max(1.0).ln();
        let got = percept::log_percept(&p, &LogMetrics::of(&m));
        prop_assert_eq!(got.to_bits(), want.to_bits(), "si {} fvc {} lvc {}", si, fvc, lvc);
    }

    /// The PLT tail alone (beacons) never changes the percept — users
    /// cannot see invisible objects. This is the mechanism behind
    /// PLT's poor Fig. 6 correlation.
    #[test]
    fn percept_ignores_plt_tail(seed in any::<u64>(), si in 100.0f64..10_000.0, tail in 0.0f64..60_000.0) {
        let mut rng = SimRng::new(seed);
        let p = Participant::sample(Group::Lab, 1, &mut rng);
        let without = percept::log_percept(&p, &logs(si, 0.0));
        let with = percept::log_percept(&p, &logs(si, tail));
        prop_assert!((without - with).abs() < 1e-12);
    }

    /// Ratings always stay on the 10–70 scale for any percept.
    #[test]
    fn ratings_stay_on_scale(lp in -20.0f64..40.0) {
        let v = percept::clamp_vote(percept::base_rating(lp));
        prop_assert!((10.0..=70.0).contains(&v));
    }

    /// Sampled participants always have valid psychometric parameters.
    #[test]
    fn participants_always_valid(seed in any::<u64>(), id in any::<u32>()) {
        for group in Group::ALL {
            let mut rng = SimRng::new(seed).fork(group.name());
            let p = Participant::sample(group, id, &mut rng);
            prop_assert!(p.jnd > 0.0);
            prop_assert!(p.obs_noise > 0.0);
            prop_assert!(p.rating_noise > 0.0);
            prop_assert!((p.w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            prop_assert!(p.w.iter().all(|&w| w > 0.0));
            prop_assert!(p.secs_per_ab_video > 0.0);
        }
    }
}
