//! Simulated study participants.
//!
//! Each participant carries a psychometric profile (perception
//! weights, JND threshold, rating bias) and a behavioural profile
//! (attention, rushing, distraction) drawn from group-specific
//! distributions. The three groups mirror the paper's §4.1 subject
//! pools: a supervised lab group, paid Microworkers, and voluntary
//! Internet users.

use crate::calib;
use pq_sim::SimRng;

/// The three subject groups of §4.1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Group {
    /// Supervised, unpaid lab participants (the control group).
    Lab,
    /// Paid Microworkers (0.75 USD per study).
    MicroWorker,
    /// Voluntary Internet users recruited via social media.
    Internet,
}

impl Group {
    /// All groups in the paper's order.
    pub const ALL: [Group; 3] = [Group::Lab, Group::MicroWorker, Group::Internet];

    /// Position in [`Group::ALL`].
    pub fn idx(self) -> usize {
        match self {
            Group::Lab => 0,
            Group::MicroWorker => 1,
            Group::Internet => 2,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Group::Lab => "Lab",
            Group::MicroWorker => "µWorker",
            Group::Internet => "Internet",
        }
    }
}

impl std::fmt::Display for Group {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Reported age bracket (§4.2 demographics).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AgeBracket {
    /// Younger than 24.
    Under24,
    /// 25 to 44.
    From25To44,
    /// 45 and older.
    Over45,
}

/// One simulated participant.
#[derive(Clone, Debug)]
pub struct Participant {
    /// Which pool they came from.
    pub group: Group,
    /// Stable id within the study.
    pub id: u32,
    /// Perception weights over (SI, FVC, LVC), normalized.
    pub w: [f64; 3],
    /// Just-noticeable-difference threshold on log perceived speed.
    pub jnd: f64,
    /// Log-domain observation noise (sd) per viewing.
    pub obs_noise: f64,
    /// Additive rating bias (some users rate everything generously).
    pub rating_bias: f64,
    /// Rating noise (sd) per vote.
    pub rating_noise: f64,
    /// Self-reported male flag (demographics only).
    pub male: bool,
    /// Age bracket (demographics only).
    pub age: AgeBracket,
    /// Seconds spent per A/B video (mean of their personal pace).
    pub secs_per_ab_video: f64,
    /// Seconds spent per rating video.
    pub secs_per_rating_video: f64,
    /// Replay eagerness scale.
    pub replay_scale: f64,
}

impl Participant {
    /// Draw a participant from the group profile. `rng` should be a
    /// dedicated fork per participant.
    pub fn sample(group: Group, id: u32, rng: &mut SimRng) -> Participant {
        let c = group.calib();
        let w = [
            calib::PERCEPT_W_SI + rng.normal_with(0.0, calib::PERCEPT_W_JITTER),
            calib::PERCEPT_W_FVC + rng.normal_with(0.0, calib::PERCEPT_W_JITTER / 2.0),
            calib::PERCEPT_W_LVC + rng.normal_with(0.0, calib::PERCEPT_W_JITTER / 2.0),
        ]
        .map(|wi| wi.max(0.01));
        let sum: f64 = w.iter().sum();
        let w = w.map(|wi| wi / sum);

        let age = match group {
            // Lab and Internet skew young (majority < 24); µWorkers
            // are two-thirds 25–44 (§4.2).
            Group::Lab | Group::Internet => match rng.below(10) {
                0..=5 => AgeBracket::Under24,
                6..=8 => AgeBracket::From25To44,
                _ => AgeBracket::Over45,
            },
            Group::MicroWorker => match rng.below(12) {
                0..=2 => AgeBracket::Under24,
                3..=10 => AgeBracket::From25To44,
                _ => AgeBracket::Over45,
            },
        };

        Participant {
            group,
            id,
            w,
            jnd: (calib::JND_MEAN + rng.normal_with(0.0, calib::JND_SD)).max(calib::JND_FLOOR),
            obs_noise: c.obs_noise * rng.range_f64(0.8, 1.25),
            rating_bias: rng.normal_with(0.0, calib::USER_BIAS_SD),
            rating_noise: c.rate_noise * rng.range_f64(0.85, 1.2),
            male: rng.chance(c.male_share),
            age,
            secs_per_ab_video: c.ab.secs_per_video * rng.lognormal(0.0, 0.25),
            secs_per_rating_video: c.rating.secs_per_video * rng.lognormal(0.0, 0.25),
            replay_scale: c.replay_scale * rng.range_f64(0.7, 1.3),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(group: Group, n: u32) -> Vec<Participant> {
        let rng = SimRng::new(99);
        (0..n)
            .map(|i| {
                let mut r = rng.fork_idx("participant", u64::from(i));
                Participant::sample(group, i, &mut r)
            })
            .collect()
    }

    #[test]
    fn weights_normalized_and_positive() {
        for p in pool(Group::MicroWorker, 200) {
            let sum: f64 = p.w.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            assert!(p.w.iter().all(|&w| w > 0.0));
            let [w_si, w_fvc, _] = p.w;
            assert!(w_si > w_fvc, "SI dominates for most users");
        }
    }

    #[test]
    fn jnd_has_floor() {
        for p in pool(Group::Internet, 500) {
            assert!(p.jnd >= calib::JND_FLOOR);
        }
    }

    #[test]
    fn demographics_match_paper() {
        let ps = pool(Group::MicroWorker, 2000);
        let male = ps.iter().filter(|p| p.male).count() as f64 / ps.len() as f64;
        let want = Group::MicroWorker.calib().male_share;
        assert!((male - want).abs() < 0.04, "male share {male}");
        let mid = ps
            .iter()
            .filter(|p| p.age == AgeBracket::From25To44)
            .count() as f64
            / ps.len() as f64;
        assert!(mid > 0.55, "µWorkers are mostly 25–44: {mid}");

        let lab = pool(Group::Lab, 2000);
        let young =
            lab.iter().filter(|p| p.age == AgeBracket::Under24).count() as f64 / lab.len() as f64;
        assert!(young > 0.5, "lab majority under 24: {young}");
    }

    #[test]
    fn lab_is_least_noisy() {
        let lab = pool(Group::Lab, 300);
        let net = pool(Group::Internet, 300);
        let mean =
            |ps: &[Participant]| ps.iter().map(|p| p.obs_noise).sum::<f64>() / ps.len() as f64;
        assert!(mean(&lab) < mean(&net));
    }

    #[test]
    fn deterministic_sampling() {
        let a = pool(Group::Lab, 10);
        let b = pool(Group::Lab, 10);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.jnd, y.jnd);
            assert_eq!(x.rating_bias, y.rating_bias);
        }
    }
}
