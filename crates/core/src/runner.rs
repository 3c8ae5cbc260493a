//! Orchestration: run both studies over all three groups against a
//! stimulus set, reproducing the full data collection of §4.
//!
//! Execution is parallel but deterministic: studies and groups run in
//! series (so funnels, spans and vote blocks keep their canonical
//! order) while each group's population sampling and study execution
//! fan out per participant on the `pq-par` pool, where
//! `session::per_participant` keys every RNG stream by
//! `(seed, study, group, id)` alone: `StudyData` is bit-identical for
//! any `PQ_JOBS` value.

use crate::ab::{run_ab_study, AbVotes};
use crate::filtering::Funnel;
use crate::participant::Group;
use crate::rating::{run_rating_study, site_tastes, RatingVotes};
use crate::session::{population, Session, StudyKind};
use crate::stimulus::StimulusSet;
use pq_obs::{ArgValue, Level};
use pq_transport::Protocol;

/// One study over the three pools — the block both studies run
/// through. Per pool: recruit the population, take its Table 3 funnel,
/// let `study` append the votes to the study's one vector, leave a
/// wall-clock progress span on the harness track (`pid 0`). Votes and
/// sessions come back in [`Group::ALL`] order, one funnel per pool.
fn over_pools<V>(
    kind: StudyKind,
    seed: u64,
    study: impl Fn(Group, &[Session], &mut Vec<V>),
) -> (Vec<V>, Vec<Session>, [Funnel; 3]) {
    let (mut votes, mut sessions) = (Vec::new(), Vec::new());
    let funnels = Group::ALL.map(|group| {
        let pop = population(kind, group, seed);
        let funnel = Funnel::apply(&pop.iter().map(|s| s.conformance).collect::<Vec<_>>());
        let start_ns = pq_obs::tracer().wall_ns();
        let before = votes.len();
        study(group, &pop, &mut votes);
        if pq_obs::enabled(Level::Info) {
            let t = pq_obs::tracer();
            t.span(
                Level::Info,
                "study",
                format!("{kind:?} {}", group.name()),
                0,
                0,
                start_ns,
                t.wall_ns(),
                vec![
                    ("votes", ArgValue::U64((votes.len() - before) as u64)),
                    ("recruited", ArgValue::U64(u64::from(funnel.recruited))),
                    ("survivors", ArgValue::U64(u64::from(funnel.survivors()))),
                    ("jobs", ArgValue::U64(pq_par::jobs() as u64)),
                ],
            );
        }
        sessions.extend(pop);
        funnel
    });
    (votes, sessions, funnels)
}

/// The complete raw dataset of one study execution.
#[derive(Debug)]
pub struct StudyData {
    /// A/B votes (all groups; filter on `valid`), tallied for the
    /// figure analysis.
    pub ab: AbVotes,
    /// Rating votes (all groups; filter on `valid`), indexed for the
    /// figure analysis.
    pub ratings: RatingVotes,
    /// Table 3, upper half: A/B funnels per group.
    pub funnel_ab: [Funnel; 3],
    /// Table 3, lower half: rating funnels per group.
    pub funnel_rating: [Funnel; 3],
    /// The sessions behind the A/B study (timing/demographics).
    pub sessions_ab: Vec<Session>,
    /// The sessions behind the rating study.
    pub sessions_rating: Vec<Session>,
}

/// Run both studies for all three groups over Figure 4's protocol
/// pairs and Table 1's five stacks.
///
/// `stimuli` must cover every site × network × protocol combination
/// that the designs touch: all four networks and all five protocols
/// (or restrict `pairs`/`protocols` accordingly).
pub fn run_study(stimuli: &StimulusSet, seed: u64) -> StudyData {
    run_study_with(stimuli, &Protocol::AB_PAIRS, &Protocol::ALL, seed)
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
    let mut lab_sites: Vec<u16> = all_sites
        .iter()
        .zip(&stimuli.site_names)
        .filter(|(_, name)| pq_web::LAB_SITES.contains(&name.as_str()))
        .map(|(&site, _)| site)
        .collect();
    if lab_sites.is_empty() {
        lab_sites.clone_from(&all_sites);
    }
    let sites_of = |group| {
        if group == Group::Lab {
            &lab_sites
        } else {
            &all_sites
        }
    };
    let networks = stimuli.networks();
    let tastes = site_tastes(stimuli.site_count(), seed);

    let (ab, sessions_ab, funnel_ab) = over_pools(StudyKind::AB, seed, |group, sessions, votes| {
        run_ab_study(
            stimuli,
            sessions,
            pairs,
            sites_of(group),
            &networks,
            seed ^ 0xAB,
            votes,
        );
    });
    let (ratings, sessions_rating, funnel_rating) =
        over_pools(StudyKind::Rating, seed, |group, sessions, votes| {
            run_rating_study(
                stimuli,
                sessions,
                protocols,
                sites_of(group),
                &tastes,
                seed ^ 0x4A7E,
                votes,
            );
        });
    StudyData {
        ab: ab.into(),
        ratings: ratings.into(),
        funnel_ab,
        funnel_rating,
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
        StimulusSet::build_with_faults(&sites, &NetworkKind::ALL, &Protocol::ALL, 2, 77, None)
    }

    #[test]
    fn full_mini_study_runs() {
        let stimuli = mini_stimuli();
        let data = run_study(&stimuli, 1);
        assert!(!data.ab.is_empty());
        assert!(!data.ratings.is_empty());
        // Table 3 structure: lab passes everything.
        let [lab_ab, micro_ab, _] = data.funnel_ab;
        let [lab_rating, ..] = data.funnel_rating;
        assert_eq!(lab_ab.survivors(), lab_ab.recruited);
        assert_eq!(lab_rating.survivors(), lab_rating.recruited);
        // µWorker funnels lose people.
        assert!(micro_ab.survivors() < micro_ab.recruited);
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
