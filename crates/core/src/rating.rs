//! Study 2 (Rating): "Do users care?" — the single-video rating study
//! of §4, Figure 5.
//!
//! One video plays in isolation; the participant rates (i) their
//! satisfaction with the loading speed and (ii) the general quality of
//! the loading process, both on the continuous 10–70 scale. A context
//! anchor frames the session: at work, in their free time, or on a
//! plane (the plane environment only uses the two in-flight networks).

use crate::calib;
use crate::participant::Group;
use crate::percept;
use crate::session::{per_participant, Session};
use crate::stimulus::{net_protocol_idx, StimulusSet, NET_PROTOCOLS};
use pq_sim::{NetworkKind, SimRng};
use pq_transport::Protocol;

/// The framing environment of a rating block (§4: "imaging being i) at
/// work, ii) in their free time, or iii) on a plane").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Environment {
    /// At work.
    Work,
    /// In their free time.
    FreeTime,
    /// On a plane (in-flight networks only).
    Plane,
}

impl Environment {
    /// All environments.
    pub const ALL: [Environment; 3] =
        [Environment::Work, Environment::FreeTime, Environment::Plane];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Environment::Work => "At Work",
            Environment::FreeTime => "Free Time",
            Environment::Plane => "On a plane",
        }
    }

    /// The networks whose videos this environment shows.
    pub fn networks(self) -> &'static [NetworkKind] {
        match self {
            Environment::Work | Environment::FreeTime => &[NetworkKind::Dsl, NetworkKind::Lte],
            Environment::Plane => &[NetworkKind::Da2gc, NetworkKind::Mss],
        }
    }
}

/// One rating vote.
#[derive(Clone, Debug)]
pub struct RatingVote {
    /// Subject group.
    pub group: Group,
    /// Participant id within the group.
    pub participant: u32,
    /// Site index.
    pub site: u16,
    /// Network behind the video.
    pub network: NetworkKind,
    /// Protocol behind the video.
    pub protocol: Protocol,
    /// Context environment.
    pub environment: Environment,
    /// Satisfaction with loading speed, 10–70.
    pub speed: f64,
    /// General quality of the loading process, 10–70.
    pub quality: f64,
    /// Survives conformance filtering?
    pub valid: bool,
}

/// One study's rating votes plus an index of the valid ones, so the
/// Figure 3/5/6 analysis reads the cells it asks about instead of
/// scanning every vote.
///
/// The index is built once, in [`From<Vec<RatingVote>>`], and nothing
/// can add, remove or change a vote afterwards (read access goes
/// through `Deref<Target = [RatingVote]>`), so it always describes the
/// votes next to it.
#[derive(Debug)]
pub struct RatingVotes {
    votes: Vec<RatingVote>,
    /// Distinct sites of the valid votes, ascending; a cell's site
    /// coordinate is a position in this list, so the index grows with
    /// the sites present, not with the largest site number.
    sites: Vec<u16>,
    /// Cell `c` (group × environment × network × protocol × site,
    /// site innermost) holds `entries[starts[c]..starts[c + 1]]`.
    starts: Vec<usize>,
    /// One entry per valid vote, grouped by cell, in vote order within
    /// a cell.
    entries: Vec<Entry>,
}

/// A valid vote in the index: where it sits in the vote vector, and
/// its speed rating.
#[derive(Clone, Copy, Debug)]
struct Entry {
    pos: usize,
    speed: f64,
}

/// Cell of a group × environment × network × protocol, before the
/// site coordinate is added.
fn stratum(group: Group, env: Environment, network: NetworkKind, protocol: Protocol) -> usize {
    (group.idx() * Environment::ALL.len() + env as usize) * NET_PROTOCOLS
        + net_protocol_idx(network, protocol)
}

impl From<Vec<RatingVote>> for RatingVotes {
    fn from(votes: Vec<RatingVote>) -> RatingVotes {
        let mut sites: Vec<u16> = votes.iter().filter(|v| v.valid).map(|v| v.site).collect();
        sites.sort_unstable();
        sites.dedup();
        let cell = |v: &RatingVote| {
            let slot = sites.binary_search(&v.site).ok()?;
            Some(stratum(v.group, v.environment, v.network, v.protocol) * sites.len() + slot)
        };
        let valid = || votes.iter().enumerate().filter(|(_, v)| v.valid);
        // Count cell `c` at `starts[c + 1]`; a running sum then makes
        // `starts[c]` the first entry of cell `c`.
        let mut starts =
            vec![0; Group::ALL.len() * Environment::ALL.len() * NET_PROTOCOLS * sites.len() + 1];
        for (_, v) in valid() {
            if let Some(n) = cell(v).and_then(|c| starts.get_mut(c + 1)) {
                *n += 1;
            }
        }
        let mut total = 0;
        for s in &mut starts {
            total += *s;
            *s = total;
        }
        // Fill in vote order, so every cell lists its votes in order.
        let mut entries = vec![Entry { pos: 0, speed: 0.0 }; total];
        let mut next = starts.clone();
        for (pos, v) in valid() {
            let Some(at) = cell(v).and_then(|c| next.get_mut(c)) else {
                continue;
            };
            if let Some(e) = entries.get_mut(*at) {
                *e = Entry {
                    pos,
                    speed: v.speed,
                };
            }
            *at += 1;
        }
        RatingVotes {
            votes,
            sites,
            starts,
            entries,
        }
    }
}

impl RatingVotes {
    /// Distinct sites of the valid votes, ascending.
    pub(crate) fn sites(&self) -> &[u16] {
        &self.sites
    }

    /// Speeds of `group`'s valid votes for `protocol` under every
    /// environment of `envs` and network of `networks`, at `site` (all
    /// sites when `None`), in vote order — the sample one scan of the
    /// votes would collect. `envs` and `networks` list each entry once.
    pub(crate) fn speeds(
        &self,
        group: Group,
        envs: &[Environment],
        networks: &[NetworkKind],
        protocol: Protocol,
        site: Option<u16>,
    ) -> Vec<f64> {
        let mut picked = Vec::new();
        for &env in envs {
            for &network in networks {
                picked.extend_from_slice(self.cells(stratum(group, env, network, protocol), site));
            }
        }
        // Each cell is in vote order; merging them restores it across
        // cells, so every sum over the sample adds in the same order.
        picked.sort_by_key(|e| e.pos);
        picked.into_iter().map(|e| e.speed).collect()
    }

    /// The entries of one stratum at `site`, or at all its sites.
    fn cells(&self, stratum: usize, site: Option<u16>) -> &[Entry] {
        let first = stratum * self.sites.len();
        let (lo, hi) = match site {
            None => (first, first + self.sites.len()),
            Some(s) => match self.sites.binary_search(&s) {
                Ok(slot) => (first + slot, first + slot + 1),
                Err(_) => return &[],
            },
        };
        match (self.starts.get(lo), self.starts.get(hi)) {
            (Some(&a), Some(&b)) => self.entries.get(a..b).unwrap_or_default(),
            _ => &[],
        }
    }
}

impl std::ops::Deref for RatingVotes {
    type Target = [RatingVote];

    fn deref(&self) -> &[RatingVote] {
        &self.votes
    }
}

impl<'a> IntoIterator for &'a RatingVotes {
    type Item = &'a RatingVote;
    type IntoIter = std::slice::Iter<'a, RatingVote>;

    fn into_iter(self) -> Self::IntoIter {
        self.votes.iter()
    }
}

/// Per-site "taste" offsets shared by every participant (site design
/// likability — the non-speed variance that bounds Fig. 6's
/// correlations in fast networks), indexed by site. Drawn once per
/// study.
pub fn site_tastes(n_sites: u16, seed: u64) -> Vec<f64> {
    #[expect(
        clippy::disallowed_methods,
        reason = "study-entry derivation point: `seed` is the study seed, tastes fork from the site-taste stream"
    )]
    let mut rng = SimRng::new(seed).fork("site-taste");
    (0..n_sites)
        .map(|_| rng.normal_with(0.0, calib::SITE_TASTE_SD))
        .collect()
}

/// Run the rating study for one group, appending its votes to `votes`.
/// Each participant rates their pool's
/// [`rating_videos`](crate::calib::GroupCalib::rating_videos) per
/// [`Environment::ALL`]. Environments whose networks are not present in
/// the stimulus set are skipped (smaller experiments may emulate a
/// subset of Table 2).
///
/// Participants fan out through `session::per_participant` and the
/// votes keep session order, so output is bit-identical to a serial run
/// at any `PQ_JOBS`.
pub fn run_rating_study(
    stimuli: &StimulusSet,
    sessions: &[Session],
    protocols: &[Protocol],
    sites: &[u16],
    tastes: &[f64],
    seed: u64,
    votes: &mut Vec<RatingVote>,
) {
    let available = stimuli.networks();
    let env_networks = Environment::ALL.map(|env| {
        let present = env.networks().iter().filter(|n| available.contains(n));
        present.copied().collect::<Vec<_>>()
    });

    let who = |s: &Session| (s.participant.group, s.participant.id);
    let rate = |session: &Session, r: &mut SimRng, out: &mut Vec<RatingVote>| {
        let p = &session.participant;
        let pool = p.group.calib();
        let valid = session.valid();
        let blocks = Environment::ALL.into_iter().zip(pool.rating_videos);
        for ((env, count), env_networks) in blocks.zip(&env_networks) {
            if env_networks.is_empty() {
                continue;
            }
            let shift = calib::context_shift(env);
            for _ in 0..count {
                // `env_networks` is non-empty (guarded above); the
                // `else continue` keeps this panic-free even on an
                // empty (fully quarantined) grid.
                let (Some(&site), Some(&network), Some(&protocol)) =
                    (r.choose(sites), r.choose(env_networks), r.choose(protocols))
                else {
                    continue;
                };
                // A quarantined cell yields no stimulus: skip the vote
                // (RNG draws above keep surviving cells aligned).
                let Some(stim) = stimuli.get(site, network, protocol) else {
                    continue;
                };

                let (speed, quality) = if session.rusher {
                    // Rushers drag the slider anywhere.
                    (r.range_f64(10.0, 70.0), r.range_f64(10.0, 70.0))
                } else if r.chance(pool.garbage_rate) {
                    // The Internet group's unsupervised contamination —
                    // why §4.2 cannot treat it as normally distributed.
                    // A supervised pool's rate is 0, which draws nothing.
                    let g = r.range_f64(10.0, 70.0);
                    (g, (g + r.normal_with(0.0, 8.0)).clamp(10.0, 70.0))
                } else {
                    let observed = percept::observe(p, &stim.log_metrics, r);
                    let base = percept::base_rating(observed)
                        + shift
                        + tastes.get(usize::from(site)).copied().unwrap_or(0.0)
                        + p.rating_bias;
                    let speed = percept::clamp_vote(base + r.normal_with(0.0, p.rating_noise));
                    let quality =
                        percept::clamp_vote(base + r.normal_with(0.0, p.rating_noise * 1.1));
                    (speed, quality)
                };

                out.push(RatingVote {
                    group: p.group,
                    participant: p.id,
                    site,
                    network,
                    protocol,
                    environment: env,
                    speed,
                    quality,
                    valid,
                });
            }
        }
    };
    per_participant(seed, "rating-study", sessions, who, votes, rate);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{population, StudyKind};
    use pq_web::{catalogue, Website};

    fn stimuli() -> StimulusSet {
        let sites: Vec<Website> = ["apache.org", "gov.uk"]
            .iter()
            .map(|n| catalogue::site(n).unwrap())
            .collect();
        StimulusSet::build_with_faults(
            &sites,
            &NetworkKind::ALL,
            &[Protocol::Tcp, Protocol::Quic],
            3,
            2,
            None,
        )
    }

    #[test]
    fn environments_use_the_right_networks() {
        assert_eq!(
            Environment::Plane.networks(),
            &[NetworkKind::Da2gc, NetworkKind::Mss]
        );
        assert!(Environment::Work
            .networks()
            .iter()
            .all(|n| !n.is_inflight()));
    }

    #[test]
    fn vote_counts_follow_design() {
        let st = stimuli();
        let sessions = population(StudyKind::Rating, Group::Lab, 3);
        let tastes = site_tastes(2, 3);
        let mut votes = Vec::new();
        run_rating_study(
            &st,
            &sessions,
            &[Protocol::Tcp, Protocol::Quic],
            &[0, 1],
            &tastes,
            4,
            &mut votes,
        );
        assert_eq!(votes.len(), 35 * 27, "11 + 11 + 5 per participant");
        let plane: Vec<_> = votes
            .iter()
            .filter(|v| v.environment == Environment::Plane)
            .collect();
        assert!(plane.iter().all(|v| v.network.is_inflight()));
    }

    #[test]
    fn plane_rated_worse_than_work() {
        let st = stimuli();
        let sessions = population(StudyKind::Rating, Group::MicroWorker, 5);
        let tastes = site_tastes(2, 5);
        let mut votes = Vec::new();
        run_rating_study(
            &st,
            &sessions,
            &[Protocol::Tcp, Protocol::Quic],
            &[0, 1],
            &tastes,
            6,
            &mut votes,
        );
        let mean_env = |env: Environment| {
            let v: Vec<f64> = votes
                .iter()
                .filter(|x| x.valid && x.environment == env)
                .map(|x| x.speed)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        let work = mean_env(Environment::Work);
        let plane = mean_env(Environment::Plane);
        assert!(
            plane < work - 10.0,
            "plane ({plane:.1}) must rate far below work ({work:.1})"
        );
    }

    #[test]
    fn votes_stay_on_scale() {
        let st = stimuli();
        let sessions = population(StudyKind::Rating, Group::Internet, 7);
        let tastes = site_tastes(2, 7);
        let mut votes = Vec::new();
        run_rating_study(
            &st,
            &sessions,
            &[Protocol::Quic],
            &[0, 1],
            &tastes,
            8,
            &mut votes,
        );
        for v in &votes {
            assert!((10.0..=70.0).contains(&v.speed));
            assert!((10.0..=70.0).contains(&v.quality));
        }
    }

    #[test]
    fn speed_and_quality_correlate() {
        let st = stimuli();
        let sessions = population(StudyKind::Rating, Group::Lab, 9);
        let tastes = site_tastes(2, 9);
        let mut votes = Vec::new();
        run_rating_study(
            &st,
            &sessions,
            &[Protocol::Tcp, Protocol::Quic],
            &[0, 1],
            &tastes,
            10,
            &mut votes,
        );
        let xs: Vec<f64> = votes.iter().map(|v| v.speed).collect();
        let ys: Vec<f64> = votes.iter().map(|v| v.quality).collect();
        let r = pq_stats::pearson(&xs, &ys).unwrap();
        assert!(r > 0.6, "speed/quality correlation {r}");
    }

    #[test]
    fn vote_index_grows_with_the_sites_present() {
        // The last cell of every coordinate, at the largest site number.
        let vote = |site, valid| RatingVote {
            group: Group::Internet,
            participant: 0,
            site,
            network: NetworkKind::Mss,
            protocol: Protocol::H2Edge,
            environment: Environment::Plane,
            speed: 42.0,
            quality: 42.0,
            valid,
        };
        let votes = RatingVotes::from(vec![
            vote(u16::MAX, true),
            vote(3, false),
            vote(u16::MAX, true),
        ]);
        assert_eq!(votes.len(), 3);
        assert_eq!(votes.sites(), [u16::MAX], "invalid votes are not indexed");
        assert_eq!(
            votes.starts.len(),
            Group::ALL.len() * Environment::ALL.len() * NET_PROTOCOLS + 1
        );
        let speeds = |site| {
            votes.speeds(
                Group::Internet,
                &[Environment::Plane],
                &[NetworkKind::Mss],
                Protocol::H2Edge,
                Some(site),
            )
        };
        assert_eq!(speeds(u16::MAX), [42.0, 42.0]);
        assert!(speeds(3).is_empty());
    }

    #[test]
    fn tastes_deterministic() {
        assert_eq!(site_tastes(5, 1), site_tastes(5, 1));
        assert_ne!(site_tastes(5, 1), site_tastes(5, 2));
    }
}
