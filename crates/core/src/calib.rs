//! Calibration constants of the simulated-participant layer.
//!
//! Everything in the reproduction that is *not* emergent from the
//! network/protocol simulation is gathered here, with its provenance.
//! Two kinds of constants exist:
//!
//! 1. **Psychometric model parameters** (Weber-fraction JNDs, log-time
//!    MOS mapping, noise scales). These come from the QoE literature
//!    the paper builds on (ITU-T P.851 scales, Weber–Fechner time
//!    perception) and are tuned only coarsely so the *shapes* of
//!    Figs. 3–6 emerge.
//! 2. **Behavioural rates** (recruitment counts, per-rule violation
//!    probabilities, per-video answer times). These are calibrated
//!    directly against the paper's published numbers (Table 3, §4.2)
//!    because they describe the paper's subject pool, not a model
//!    prediction.
//!
//! What differs between the three subject pools is one [`GroupCalib`]
//! row per pool, `group.calib()`, holding one [`StudyCalib`] per study
//! kind, `.study(kind)`. Each published number is written here once:
//! the Table 3 and §4.2 printers and the tests read these rows.

use crate::participant::Group;
use crate::rating::Environment;
use crate::session::StudyKind;

/// Perception weights: how strongly each technical metric drives the
/// perceived loading speed. SI dominates — consistent with the paper's
/// own finding that SI correlates best with votes (§4.4, Fig. 6).
pub const PERCEPT_W_SI: f64 = 0.75;
/// First-visual-change weight in the percept blend.
pub const PERCEPT_W_FVC: f64 = 0.15;
/// Last-visual-change weight in the percept blend.
pub const PERCEPT_W_LVC: f64 = 0.10;
/// Per-user jitter (sd) applied to the perception weights.
pub const PERCEPT_W_JITTER: f64 = 0.05;

/// Just-noticeable-difference threshold on log-perceived speed: mean
/// Weber fraction ≈ 7.5 % (time-perception literature).
pub const JND_MEAN: f64 = 0.075;
/// Per-user JND spread (sd).
pub const JND_SD: f64 = 0.025;
/// Floor so no user is infinitely sensitive.
pub const JND_FLOOR: f64 = 0.02;

/// MOS mapping `vote = RATE_A − RATE_B · ln(SI seconds)` on the paper's
/// 10–70 scale, before context/bias/noise terms.
pub const RATE_A: f64 = 58.0;
/// Slope of the log-SI MOS mapping.
pub const RATE_B: f64 = 10.5;
/// Context anchor added to a rating made in `env`. Free time is rated
/// mildly better than work (§4.4: "a slight tendency towards better
/// scores in the free time setting").
pub fn context_shift(env: Environment) -> f64 {
    match env {
        Environment::Work => -1.5,
        Environment::FreeTime => 0.0,
        Environment::Plane => 3.0,
    }
}

/// Site-taste spread (sd): a per-site likability offset shared by all
/// users. This is what caps the metric↔vote correlation in *fast*
/// networks (Fig. 6's DSL column): when every load is quick, taste
/// dominates speed.
pub const SITE_TASTE_SD: f64 = 5.0;
/// Per-user rating bias (sd).
pub const USER_BIAS_SD: f64 = 5.0;

/// One study kind's numbers for one subject pool.
#[derive(Clone, Copy, Debug)]
pub struct StudyCalib {
    /// The pool's Table 3 line for this study, as published:
    /// participants recruited, then survivors after R1 … R7.
    pub table3: [u32; 8],
    /// Sequential per-rule drop probabilities `[R1..R7]`, calibrated
    /// to reproduce `table3`.
    pub drop: [f64; 7],
    /// Mean seconds a participant spends per video (§4.2).
    pub secs_per_video: f64,
}

impl StudyCalib {
    /// Recruitment count before filtering: the head of the Table 3
    /// line.
    pub fn recruited(&self) -> u32 {
        let [recruited, ..] = self.table3;
        recruited
    }
}

/// What one subject pool is: everything that differs between the
/// lab, µWorker and Internet participants of §4.1.
#[derive(Clone, Copy, Debug)]
pub struct GroupCalib {
    /// Log-domain observation noise (sd) per viewing. Lab viewing
    /// conditions are controlled; Internet users are the noisiest (and
    /// end up excluded, Fig. 3).
    pub obs_noise: f64,
    /// Per-vote rating noise (sd).
    pub rate_noise: f64,
    /// Fraction of rating votes replaced by uniform garbage — the
    /// unsupervised contamination that makes the Internet group
    /// non-normal (§4.2 uses the median there for exactly this
    /// reason). Zero draws nothing from the participant's stream.
    pub garbage_rate: f64,
    /// Share of male participants (§4.2: "76 % to 79 % were male").
    pub male_share: f64,
    /// Base probability scale of replaying an A/B video whose
    /// difference sits near the JND (lab participants replay the
    /// most, §4.2).
    pub replay_scale: f64,
    /// Videos shown per participant in the A/B study (§4.1).
    pub ab_videos: u32,
    /// Rating-study videos per participant, per [`Environment::ALL`].
    pub rating_videos: [u32; 3],
    /// The A/B study: Table 3's upper half.
    pub ab: StudyCalib,
    /// The rating study: Table 3's lower half.
    pub rating: StudyCalib,
}

impl GroupCalib {
    /// The pool's numbers for one study kind.
    pub fn study(&self, kind: StudyKind) -> &StudyCalib {
        match kind {
            StudyKind::AB => &self.ab,
            StudyKind::Rating => &self.rating,
        }
    }
}

impl Group {
    /// The pool's calibration row.
    pub fn calib(self) -> &'static GroupCalib {
        match self {
            // Supervised: nothing is dropped.
            Group::Lab => &GroupCalib {
                obs_noise: 0.035,
                rate_noise: 5.0,
                garbage_rate: 0.0,
                male_share: 0.78,
                replay_scale: 1.4,
                ab_videos: 28,
                rating_videos: [11, 11, 5],
                ab: StudyCalib {
                    table3: [35; 8],
                    drop: [0.0; 7],
                    secs_per_video: 17.69,
                },
                rating: StudyCalib {
                    table3: [35; 8],
                    drop: [0.0; 7],
                    secs_per_video: 21.44,
                },
            },
            Group::MicroWorker => &GroupCalib {
                obs_noise: 0.05,
                rate_noise: 8.0,
                garbage_rate: 0.0,
                male_share: 0.77,
                replay_scale: 1.0,
                ab_videos: 26,
                rating_videos: [11, 11, 5],
                ab: StudyCalib {
                    table3: [487, 471, 441, 355, 268, 268, 239, 233],
                    drop: [0.033, 0.064, 0.195, 0.245, 0.000, 0.108, 0.025],
                    secs_per_video: 14.46,
                },
                rating: StudyCalib {
                    table3: [1563, 1494, 1321, 1034, 733, 723, 661, 614],
                    drop: [0.044, 0.116, 0.217, 0.291, 0.014, 0.086, 0.071],
                    secs_per_video: 17.71,
                },
            },
            Group::Internet => &GroupCalib {
                obs_noise: 0.08,
                rate_noise: 10.0,
                garbage_rate: 0.12,
                male_share: 0.76,
                replay_scale: 1.1,
                ab_videos: 14,
                rating_videos: [6, 6, 3],
                ab: StudyCalib {
                    table3: [218, 217, 210, 196, 171, 170, 159, 155],
                    drop: [0.005, 0.032, 0.067, 0.128, 0.006, 0.065, 0.025],
                    secs_per_video: 15.59,
                },
                rating: StudyCalib {
                    table3: [209, 204, 194, 172, 152, 151, 140, 138],
                    drop: [0.024, 0.049, 0.113, 0.116, 0.007, 0.073, 0.014],
                    secs_per_video: 19.23,
                },
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percept_weights_sum_to_one() {
        assert!((PERCEPT_W_SI + PERCEPT_W_FVC + PERCEPT_W_LVC - 1.0).abs() < 1e-12);
    }

    #[test]
    fn funnel_probabilities_reproduce_table3_expectations() {
        // Applying each rule's drop rate to the recruitment count must
        // land near the paper's survivors after that rule, for every
        // pool and both studies.
        for group in Group::ALL {
            for kind in [StudyKind::AB, StudyKind::Rating] {
                let study = group.calib().study(kind);
                let [_, after @ ..] = study.table3;
                let mut n = f64::from(study.recruited());
                for (d, expect) in study.drop.iter().zip(after) {
                    n *= 1.0 - d;
                    assert!(
                        (n - f64::from(expect)).abs() / f64::from(expect) < 0.03,
                        "{group} {kind:?}: expected ≈{expect}, model gives {n:.1}"
                    );
                }
            }
        }
    }

    #[test]
    fn noise_orders_by_group() {
        // The rows are calibration data; assert at runtime so a future
        // edit can't silently break the order.
        let obs = Group::ALL.map(|g| g.calib().obs_noise);
        let rate = Group::ALL.map(|g| g.calib().rate_noise);
        assert!(obs.windows(2).all(|w| w[0] < w[1]), "{obs:?}");
        assert!(rate.windows(2).all(|w| w[0] < w[1]), "{rate:?}");
    }

    #[test]
    fn only_the_unsupervised_pool_votes_garbage() {
        // `chance(0.0)` draws nothing, which the Lab / µWorker vote
        // streams rely on.
        assert_eq!(Group::Lab.calib().garbage_rate, 0.0);
        assert_eq!(Group::MicroWorker.calib().garbage_rate, 0.0);
        assert!(Group::Internet.calib().garbage_rate > 0.0);
    }

    #[test]
    fn rating_anchors_reasonable() {
        // A 1-second SI should rate near "excellent", a 60-second SI
        // near "bad" (10–70 scale).
        let fast = RATE_A - RATE_B * 1.0f64.ln();
        let slow = RATE_A - RATE_B * 60.0f64.ln();
        assert!((50.0..70.0).contains(&fast), "fast {fast}");
        assert!((10.0..30.0).contains(&slow), "slow {slow}");
    }
}
