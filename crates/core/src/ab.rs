//! Study 1 (A/B): "Do users notice?" — the just-noticeable-difference
//! study of §4, Figure 4.
//!
//! Two recordings of the same website/network under different protocol
//! configurations play side by side; the participant answers
//! left / right / no difference plus a confidence. We simulate the
//! psychophysics: each side is observed with noise, the percept
//! difference is compared against the participant's JND, and ambiguous
//! pairs get played again (which averages noise down — and is why the
//! paper sees more replays on *fast* networks, where differences are
//! small).

use crate::participant::Group;
use crate::percept;
use crate::session::{per_participant, Session};
use crate::stimulus::StimulusSet;
use pq_sim::NetworkKind;
use pq_transport::Protocol;

/// The participant's answer, in the canonical pair order (first =
/// the supposedly tuned/faster variant of Table 1's pairing).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbChoice {
    /// Preferred the pair's first protocol (e.g. QUIC in "QUIC vs TCP").
    First,
    /// Saw no difference.
    NoDifference,
    /// Preferred the pair's second protocol.
    Second,
}

/// One A/B vote.
#[derive(Clone, Debug)]
pub struct AbVote {
    /// Subject group.
    pub group: Group,
    /// Participant id within the group.
    pub participant: u32,
    /// Site index into the stimulus set.
    pub site: u16,
    /// Network setting.
    pub network: NetworkKind,
    /// Canonical protocol pair (first, second).
    pub pair: (Protocol, Protocol),
    /// The answer.
    pub choice: AbChoice,
    /// Confidence in `[0, 1]`.
    pub confidence: f64,
    /// Times the participant played the video again.
    pub replays: u32,
    /// Whether the participant survives conformance filtering.
    pub valid: bool,
}

/// One study's A/B votes plus a tally of the valid ones per group ×
/// network × pair cell, so Figure 4 reads the cells it asks about
/// instead of scanning every vote.
///
/// The tallies are built once, in [`From<Vec<AbVote>>`], and nothing
/// can add, remove or change a vote afterwards (read access goes
/// through `Deref<Target = [AbVote]>`), so they always describe the
/// votes next to them.
#[derive(Debug)]
pub struct AbVotes {
    votes: Vec<AbVote>,
    /// One tally per group × network × pair, at [`cell`].
    tallies: Vec<Tally>,
}

/// The valid votes of one cell (or of several, summed): how many gave
/// each answer, and their replays.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Tally {
    /// Votes for the pair's first protocol.
    pub(crate) first: usize,
    /// "No difference" votes.
    pub(crate) no_diff: usize,
    /// Votes for the pair's second protocol.
    pub(crate) second: usize,
    /// Replays over all of them.
    pub(crate) replays: u64,
}

impl Tally {
    /// Votes counted.
    pub(crate) fn n(&self) -> usize {
        self.first + self.no_diff + self.second
    }

    fn add(&mut self, other: &Tally) {
        self.first += other.first;
        self.no_diff += other.no_diff;
        self.second += other.second;
        self.replays += other.replays;
    }
}

/// Ordered stack pairs a cell can hold.
const PAIRS: usize = Protocol::ALL_WITH_EDGE.len() * Protocol::ALL_WITH_EDGE.len();

/// Position of a group × network × pair cell in [`AbVotes`]' tallies.
fn cell(group: Group, network: NetworkKind, (a, b): (Protocol, Protocol)) -> usize {
    (group.idx() * NetworkKind::ALL.len() + network as usize) * PAIRS
        + a as usize * Protocol::ALL_WITH_EDGE.len()
        + b as usize
}

impl From<Vec<AbVote>> for AbVotes {
    fn from(votes: Vec<AbVote>) -> AbVotes {
        let mut tallies = vec![Tally::default(); Group::ALL.len() * NetworkKind::ALL.len() * PAIRS];
        for v in votes.iter().filter(|v| v.valid) {
            let Some(t) = tallies.get_mut(cell(v.group, v.network, v.pair)) else {
                continue;
            };
            match v.choice {
                AbChoice::First => t.first += 1,
                AbChoice::NoDifference => t.no_diff += 1,
                AbChoice::Second => t.second += 1,
            }
            t.replays += u64::from(v.replays);
        }
        AbVotes { votes, tallies }
    }
}

impl AbVotes {
    /// The valid votes for `pair` on `network` of every group in
    /// `groups`; a group listed twice counts once.
    pub(crate) fn tally(
        &self,
        groups: &[Group],
        network: NetworkKind,
        pair: (Protocol, Protocol),
    ) -> Tally {
        let mut sum = Tally::default();
        for group in Group::ALL.into_iter().filter(|g| groups.contains(g)) {
            if let Some(t) = self.tallies.get(cell(group, network, pair)) {
                sum.add(t);
            }
        }
        sum
    }
}

impl std::ops::Deref for AbVotes {
    type Target = [AbVote];

    fn deref(&self) -> &[AbVote] {
        &self.votes
    }
}

impl<'a> IntoIterator for &'a AbVotes {
    type Item = &'a AbVote;
    type IntoIter = std::slice::Iter<'a, AbVote>;

    fn into_iter(self) -> Self::IntoIter {
        self.votes.iter()
    }
}

/// Maximum replays the study UI allows before forcing an answer.
const MAX_REPLAYS: u32 = 3;
/// Control pairs per session (identical or blatantly delayed videos,
/// rule R6) — they don't produce analysable votes.
const CONTROL_VIDEOS: u32 = 3;

/// Run the A/B study for one group over the stimulus set, appending
/// its votes to `votes`. Each participant watches their pool's
/// [`ab_videos`](crate::calib::GroupCalib::ab_videos).
///
/// Participants fan out through `session::per_participant` and the
/// votes keep session order (votes of session *k* precede those of
/// session *k+1*), so output is bit-identical to a serial run at any
/// `PQ_JOBS`.
pub fn run_ab_study(
    stimuli: &StimulusSet,
    sessions: &[Session],
    pairs: &[(Protocol, Protocol)],
    sites: &[u16],
    networks: &[NetworkKind],
    seed: u64,
    votes: &mut Vec<AbVote>,
) {
    // A fully quarantined grid (fault injection) leaves nothing to
    // vote on; degrade to an empty study instead of panicking.
    if sites.is_empty() || networks.is_empty() || pairs.is_empty() {
        return;
    }
    let who = |s: &Session| (s.participant.group, s.participant.id);
    per_participant(seed, "ab-study", sessions, who, votes, |session, r, out| {
        let p = &session.participant;
        let valid = session.valid();
        let videos = p.group.calib().ab_videos;
        for _ in 0..videos.saturating_sub(CONTROL_VIDEOS).max(1) {
            // Guarded non-empty above; `else continue` keeps the hot
            // path panic-free regardless.
            let (Some(&site), Some(&network), Some(&pair)) =
                (r.choose(sites), r.choose(networks), r.choose(pairs))
            else {
                continue;
            };
            // Quarantined cells (fault injection) fall out of the set;
            // the RNG draws above still happen so the vote stream for
            // surviving cells stays aligned with the fault-free run.
            let (Some(sa), Some(sb)) = (
                stimuli.get(site, network, pair.0),
                stimuli.get(site, network, pair.1),
            ) else {
                continue;
            };
            let (a, b) = (&sa.log_metrics, &sb.log_metrics);

            let (choice, confidence, replays) = if session.rusher {
                // Rushers click without watching: a uniformly random
                // answer with arbitrary confidence and no replays.
                let c = match r.below(3) {
                    0 => AbChoice::First,
                    1 => AbChoice::NoDifference,
                    _ => AbChoice::Second,
                };
                (c, r.f64(), 0)
            } else {
                // Honest psychophysics with replay-averaging.
                let mut pa = percept::observe(p, a, r);
                let mut pb = percept::observe(p, b, r);
                let mut views = 1u32;
                let mut replays = 0u32;
                loop {
                    let delta = (pb - pa).abs();
                    // Replay when the difference sits in the ambiguous
                    // band around the JND.
                    let ambiguous = delta < p.jnd * 1.5;
                    if replays >= MAX_REPLAYS
                        || !ambiguous
                        || !r.chance(p.replay_scale * (1.0 - delta / (p.jnd * 1.5)))
                    {
                        break;
                    }
                    // Averaging another viewing shrinks the noise.
                    views += 1;
                    replays += 1;
                    let k = f64::from(views);
                    pa = pa * (k - 1.0) / k + percept::observe(p, a, r) / k;
                    pb = pb * (k - 1.0) / k + percept::observe(p, b, r) / k;
                }
                let delta = pb - pa; // > 0 ⇒ first (a) looked faster
                let choice = if delta.abs() < p.jnd {
                    // Below threshold: mostly "no difference", but the
                    // paper's footnote 3 notes people still guess a
                    // side with low confidence.
                    if r.chance(0.2) {
                        if delta > 0.0 {
                            AbChoice::First
                        } else {
                            AbChoice::Second
                        }
                    } else {
                        AbChoice::NoDifference
                    }
                } else if delta > 0.0 {
                    AbChoice::First
                } else {
                    AbChoice::Second
                };
                let confidence = (delta.abs() / (2.0 * p.jnd)).min(1.0);
                (choice, confidence, replays)
            };

            out.push(AbVote {
                group: p.group,
                participant: p.id,
                site,
                network,
                pair,
                choice,
                confidence,
                replays,
                valid,
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{population, StudyKind};
    use pq_web::catalogue;
    use pq_web::Website;

    fn small_stimuli() -> StimulusSet {
        let sites: Vec<Website> = ["apache.org", "wikipedia.org"]
            .iter()
            .map(|n| catalogue::site(n).unwrap())
            .collect();
        StimulusSet::build_with_faults(
            &sites,
            &[NetworkKind::Lte, NetworkKind::Mss],
            &[Protocol::Tcp, Protocol::Quic],
            3,
            1,
            None,
        )
    }

    #[test]
    fn votes_produced_for_all_participants() {
        let stimuli = small_stimuli();
        let sessions = population(StudyKind::AB, Group::Lab, 2);
        let mut votes = Vec::new();
        run_ab_study(
            &stimuli,
            &sessions,
            &[(Protocol::Quic, Protocol::Tcp)],
            &[0, 1],
            &[NetworkKind::Lte, NetworkKind::Mss],
            3,
            &mut votes,
        );
        assert_eq!(votes.len(), 35 * 25, "28 videos − 3 controls each");
        assert!(votes.iter().all(|v| v.valid), "lab is clean");
    }

    #[test]
    fn quic_preferred_on_slow_network() {
        // On MSS the SI gap between QUIC and stock TCP is large; the
        // majority must notice and prefer QUIC (Fig. 4's right panel).
        let stimuli = small_stimuli();
        let sessions = population(StudyKind::AB, Group::MicroWorker, 2);
        let mut votes = Vec::new();
        run_ab_study(
            &stimuli,
            &sessions,
            &[(Protocol::Quic, Protocol::Tcp)],
            &[0, 1],
            &[NetworkKind::Mss],
            3,
            &mut votes,
        );
        let valid: Vec<&AbVote> = votes.iter().filter(|v| v.valid).collect();
        let first = valid.iter().filter(|v| v.choice == AbChoice::First).count();
        let share = first as f64 / valid.len() as f64;
        assert!(share > 0.5, "QUIC share on MSS {share}");
    }

    #[test]
    fn replays_happen_more_when_difference_is_small() {
        let stimuli = small_stimuli();
        let sessions = population(StudyKind::AB, Group::Lab, 4);
        // Same protocol on both sides: zero true difference → maximal
        // ambiguity → many replays and mostly "no difference".
        let mut same = Vec::new();
        run_ab_study(
            &stimuli,
            &sessions,
            &[(Protocol::Quic, Protocol::Quic)],
            &[0],
            &[NetworkKind::Lte],
            5,
            &mut same,
        );
        let mut diff = Vec::new();
        run_ab_study(
            &stimuli,
            &sessions,
            &[(Protocol::Quic, Protocol::Tcp)],
            &[0],
            &[NetworkKind::Mss],
            5,
            &mut diff,
        );
        let avg =
            |vs: &[AbVote]| vs.iter().map(|v| f64::from(v.replays)).sum::<f64>() / vs.len() as f64;
        assert!(
            avg(&same) > avg(&diff),
            "ambiguous pairs replay more: {} vs {}",
            avg(&same),
            avg(&diff)
        );
        let nodiff_share = same
            .iter()
            .filter(|v| v.choice == AbChoice::NoDifference)
            .count() as f64
            / same.len() as f64;
        assert!(nodiff_share > 0.5, "identical videos: {nodiff_share}");
    }

    #[test]
    fn confidence_higher_for_clear_differences() {
        let stimuli = small_stimuli();
        let sessions = population(StudyKind::AB, Group::Lab, 6);
        let mut clear = Vec::new();
        run_ab_study(
            &stimuli,
            &sessions,
            &[(Protocol::Quic, Protocol::Tcp)],
            &[0],
            &[NetworkKind::Mss],
            7,
            &mut clear,
        );
        let mut unclear = Vec::new();
        run_ab_study(
            &stimuli,
            &sessions,
            &[(Protocol::Quic, Protocol::Quic)],
            &[0],
            &[NetworkKind::Lte],
            7,
            &mut unclear,
        );
        let avg = |vs: &[AbVote]| vs.iter().map(|v| v.confidence).sum::<f64>() / vs.len() as f64;
        assert!(avg(&clear) > avg(&unclear));
    }

    #[test]
    fn deterministic_given_seed() {
        let stimuli = small_stimuli();
        let sessions = population(StudyKind::AB, Group::Internet, 8);
        let run = || {
            let mut votes = Vec::new();
            run_ab_study(
                &stimuli,
                &sessions,
                &[(Protocol::Quic, Protocol::Tcp)],
                &[0, 1],
                &[NetworkKind::Lte],
                9,
                &mut votes,
            );
            votes
        };
        let a = run();
        let b = run();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.choice, y.choice);
            assert_eq!(x.replays, y.replays);
        }
    }

    #[test]
    fn aa_control_shows_no_position_bias() {
        // The cheapest control a crowdsourced QoE study has: the same
        // video on both sides. Whatever side wins, wins by chance.
        let stimuli = small_stimuli();
        let pair = [(Protocol::Quic, Protocol::Quic)];
        let networks = [NetworkKind::Lte, NetworkKind::Mss];
        for group in Group::ALL {
            let (mut first, mut no_diff, mut second) = (0u32, 0u32, 0u32);
            for seed in 0..10 {
                let sessions = population(StudyKind::AB, group, seed);
                let mut votes = Vec::new();
                run_ab_study(
                    &stimuli,
                    &sessions,
                    &pair,
                    &[0, 1],
                    &networks,
                    seed,
                    &mut votes,
                );
                for v in votes.iter().filter(|v| v.valid) {
                    match v.choice {
                        AbChoice::First => first += 1,
                        AbChoice::NoDifference => no_diff += 1,
                        AbChoice::Second => second += 1,
                    }
                }
            }
            // first − second over the decided votes is a fair-coin walk:
            // sd √(first + second).
            let z = (f64::from(first) - f64::from(second)) / f64::from(first + second).sqrt();
            let n = f64::from(first + no_diff + second);
            let share = |k: u32| 100.0 * f64::from(k) / n;
            println!(
                "A/A {group}: {:.1} / {:.1} / {:.1} % (n = {n}, z = {z:.2})",
                share(first),
                share(no_diff),
                share(second)
            );
            assert!(z.abs() < 3.0, "{group}: position bias, z = {z:.2}");
            // The Internet pool splits three ways: its noise is above
            // the mean JND (EXPERIMENTS.md, "A/A control").
            if group != Group::Internet {
                assert!(
                    no_diff > first.max(second),
                    "{group}: {first}/{no_diff}/{second}"
                );
            }
        }
    }
}
