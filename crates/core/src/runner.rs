//! Orchestration: run both studies over all three groups against a
//! stimulus set, reproducing the full data collection of §4.
//!
//! Execution is parallel but deterministic: the group loop stays
//! serial (so funnels, spans and vote blocks keep their canonical
//! order) while each group's population sampling and study execution
//! fan out per participant on the `pq-par` pool. Every participant's
//! RNG stream is keyed by `(seed, study, group, id)` alone, so
//! `StudyData` is bit-identical for any `PQ_JOBS` value.

use crate::ab::{run_ab_study, AbVote};
use crate::calib;
use crate::filtering::Funnel;
use crate::participant::Group;
use crate::rating::{run_rating_study, site_tastes, RatingVote};
use crate::session::{population, Session, StudyKind};
use crate::stimulus::StimulusSet;
use pq_obs::{ArgValue, Level};
use pq_transport::Protocol;

/// Record one group×study execution: the vote counter in the
/// registry, plus a wall-clock progress span on the harness track
/// (`pid 0`).
fn obs_study(study: &'static str, group: Group, funnel: &Funnel, votes: usize, start_ns: u64) {
    let g = group.name();
    pq_obs::registry().counter_add(
        &format!("study.votes{{study=\"{study}\",group=\"{g}\"}}"),
        votes as u64,
    );
    if pq_obs::enabled(Level::Info) {
        let t = pq_obs::tracer();
        t.span(
            Level::Info,
            "study",
            format!("{study} {g}"),
            0,
            0,
            start_ns,
            t.wall_ns(),
            vec![
                ("votes", ArgValue::U64(votes as u64)),
                ("recruited", ArgValue::U64(u64::from(funnel.recruited))),
                ("survivors", ArgValue::U64(u64::from(funnel.survivors()))),
                ("jobs", ArgValue::U64(pq_par::jobs() as u64)),
            ],
        );
    }
}

/// The complete raw dataset of one study execution.
#[derive(Debug)]
pub struct StudyData {
    /// A/B votes (all groups; filter on `valid`).
    pub ab: Vec<AbVote>,
    /// Rating votes (all groups; filter on `valid`).
    pub ratings: Vec<RatingVote>,
    /// Table 3, upper half: A/B funnels per group.
    pub funnel_ab: [Funnel; 3],
    /// Table 3, lower half: rating funnels per group.
    pub funnel_rating: [Funnel; 3],
    /// The sessions behind the A/B study (timing/demographics).
    pub sessions_ab: Vec<Session>,
    /// The sessions behind the rating study.
    pub sessions_rating: Vec<Session>,
}

/// Which protocol pairs the A/B study compares (Figure 4's groups).
pub fn default_pairs() -> Vec<(Protocol, Protocol)> {
    Protocol::AB_PAIRS.to_vec()
}

/// Run both studies for all three groups.
///
/// `stimuli` must cover every site × network × protocol combination
/// that the designs touch: all four networks and all five protocols
/// (or restrict `pairs`/`protocols` accordingly).
pub fn run_study(stimuli: &StimulusSet, seed: u64) -> StudyData {
    run_study_with(stimuli, &default_pairs(), &Protocol::ALL, seed)
}

/// Run both studies with explicit pair/protocol selections.
pub fn run_study_with(
    stimuli: &StimulusSet,
    pairs: &[(Protocol, Protocol)],
    protocols: &[Protocol],
    seed: u64,
) -> StudyData {
    let all_sites: Vec<u16> = (0..stimuli.site_count()).collect();
    // The lab study only uses the five lab domains when present; with
    // smaller stimulus sets it falls back to all sites.
    let lab_sites: Vec<u16> = {
        let lab: Vec<u16> = stimuli
            .site_names
            .iter()
            .enumerate()
            .filter(|(_, n)| pq_web::LAB_SITES.contains(&n.as_str()))
            .map(|(i, _)| i as u16)
            .collect();
        if lab.is_empty() {
            all_sites.clone()
        } else {
            lab
        }
    };
    let networks = stimuli.networks();

    let mut ab = Vec::new();
    let mut ratings = Vec::new();
    let mut funnel_ab = Vec::new();
    let mut funnel_rating = Vec::new();
    let mut sessions_ab = Vec::new();
    let mut sessions_rating = Vec::new();
    let tastes = site_tastes(stimuli.site_count(), seed);

    for group in Group::ALL {
        let gi = group.idx();
        let sites: &[u16] = if group == Group::Lab {
            &lab_sites
        } else {
            &all_sites
        };

        let s_ab = population(StudyKind::AB, group, seed);
        funnel_ab.push(Funnel::apply(
            &s_ab.iter().map(|s| s.conformance).collect::<Vec<_>>(),
        ));
        let t_ab = pq_obs::tracer().wall_ns();
        let before_ab = ab.len();
        ab.extend(run_ab_study(
            stimuli,
            &s_ab,
            pairs,
            sites,
            &networks,
            calib::AB_VIDEOS[gi],
            seed ^ 0xAB,
        ));
        obs_study("ab", group, &funnel_ab[gi], ab.len() - before_ab, t_ab);
        sessions_ab.extend(s_ab);

        let s_rate = population(StudyKind::Rating, group, seed);
        funnel_rating.push(Funnel::apply(
            &s_rate.iter().map(|s| s.conformance).collect::<Vec<_>>(),
        ));
        let t_rate = pq_obs::tracer().wall_ns();
        let before_rate = ratings.len();
        ratings.extend(run_rating_study(
            stimuli,
            &s_rate,
            protocols,
            sites,
            calib::RATING_VIDEOS[gi],
            &tastes,
            seed ^ 0x4A7E,
        ));
        obs_study(
            "rating",
            group,
            &funnel_rating[gi],
            ratings.len() - before_rate,
            t_rate,
        );
        sessions_rating.extend(s_rate);
    }

    StudyData {
        ab,
        ratings,
        funnel_ab: [funnel_ab[0], funnel_ab[1], funnel_ab[2]],
        funnel_rating: [funnel_rating[0], funnel_rating[1], funnel_rating[2]],
        sessions_ab,
        sessions_rating,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_sim::NetworkKind;
    use pq_web::{catalogue, Website};

    fn mini_stimuli() -> StimulusSet {
        let sites: Vec<Website> = ["apache.org", "wikipedia.org"]
            .iter()
            .map(|n| catalogue::site(n).unwrap())
            .collect();
        StimulusSet::build(&sites, &NetworkKind::ALL, &Protocol::ALL, 2, 77)
    }

    #[test]
    fn full_mini_study_runs() {
        let stimuli = mini_stimuli();
        let data = run_study(&stimuli, 1);
        assert!(!data.ab.is_empty());
        assert!(!data.ratings.is_empty());
        // Table 3 structure: lab passes everything.
        assert_eq!(data.funnel_ab[0].survivors(), 35);
        assert_eq!(data.funnel_rating[0].survivors(), 35);
        // µWorker funnels lose people.
        assert!(data.funnel_ab[1].survivors() < data.funnel_ab[1].recruited);
        // Votes from all three groups present.
        for group in Group::ALL {
            assert!(data.ab.iter().any(|v| v.group == group), "{group}");
            assert!(data.ratings.iter().any(|v| v.group == group), "{group}");
        }
    }

    #[test]
    fn study_is_deterministic() {
        let stimuli = mini_stimuli();
        let a = run_study(&stimuli, 9);
        let b = run_study(&stimuli, 9);
        assert_eq!(a.ab.len(), b.ab.len());
        assert_eq!(a.ratings.len(), b.ratings.len());
        for (x, y) in a.ratings.iter().zip(&b.ratings) {
            assert_eq!(x.speed, y.speed);
        }
        let c = run_study(&stimuli, 10);
        assert_ne!(
            a.ratings.iter().map(|v| v.speed).sum::<f64>(),
            c.ratings.iter().map(|v| v.speed).sum::<f64>(),
            "different seed, different study"
        );
    }

    #[test]
    fn invalid_votes_marked() {
        let stimuli = mini_stimuli();
        let data = run_study(&stimuli, 3);
        let invalid = data.ab.iter().filter(|v| !v.valid).count();
        assert!(invalid > 0, "µWorker/Internet cheaters exist");
        let valid = data.ab.iter().filter(|v| v.valid).count();
        assert!(valid > invalid, "most votes are honest");
    }
}
