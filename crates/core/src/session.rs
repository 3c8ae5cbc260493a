//! Session behaviour: how participants actually conduct a study —
//! timing, replays, and the misbehaviour the conformance filters
//! catch.

use crate::filtering::{Conformance, Rule};
use crate::participant::{Group, Participant};
use pq_sim::SimRng;

/// Which of the two studies a session belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StudyKind {
    /// The side-by-side just-noticeable-difference study.
    AB,
    /// The single-video rating study.
    Rating,
}

/// One participant's session: the participant, their conformance
/// record and session-level timing.
#[derive(Clone, Debug)]
pub struct Session {
    /// The person behind the screen.
    pub participant: Participant,
    /// Rule violations (drawn from the group's behavioural profile).
    pub conformance: Conformance,
    /// Mean seconds spent per video in this session.
    pub secs_per_video: f64,
    /// Whether this participant rushes votes (they also produce
    /// degraded votes — the behaviour R4/R6 exist to catch).
    pub rusher: bool,
}

impl Session {
    /// Sample one session.
    pub fn sample(kind: StudyKind, group: Group, id: u32, rng: &mut SimRng) -> Session {
        let participant = Participant::sample(group, id, rng);
        let conformance = Conformance {
            violated: group.calib().study(kind).drop.map(|p| rng.chance(p)),
        };
        // Rushers are the people rule R4 (vote before FVC) catches;
        // they click through without watching.
        let rusher = conformance.violates(Rule::R4);
        let secs = match kind {
            StudyKind::AB => participant.secs_per_ab_video,
            StudyKind::Rating => participant.secs_per_rating_video,
        };
        // Rushers are also fast.
        let secs_per_video = if rusher { secs * 0.45 } else { secs };
        Session {
            participant,
            conformance,
            secs_per_video,
            rusher,
        }
    }

    /// Survives conformance filtering?
    pub fn valid(&self) -> bool {
        self.conformance.survives()
    }
}

/// The one place a participant's RNG stream is derived, and the rule
/// the `PQ_JOBS` determinism contract rests on: the stream handed to
/// `f` is keyed by `(seed, label, group, participant id)` and nothing
/// else — never by position, worker or a sibling's draws.
///
/// `f` appends what one item produces to the vector it is handed. On
/// one worker that is `out` itself; on several, each item fills its own
/// vector across the `pq-par` pool and those are appended in order.
/// Either way `out` gains every item's output in `items` order,
/// bit-identical at any worker count.
pub(crate) fn per_participant<T: Sync, V: Send>(
    seed: u64,
    label: &str,
    items: &[T],
    who: impl Fn(&T) -> (Group, u32) + Sync,
    out: &mut Vec<V>,
    f: impl Fn(&T, &mut SimRng, &mut Vec<V>) + Sync,
) {
    #[expect(
        clippy::disallowed_methods,
        reason = "the study layer's derivation point: `seed` is the study seed, `label` the stream, participants fork by (group, id)"
    )]
    let rng = SimRng::new(seed).fork(label);
    let run = |item: &T, out: &mut Vec<V>| {
        let (group, id) = who(item);
        f(item, &mut rng.fork_idx(group.name(), u64::from(id)), out);
    };
    if pq_par::jobs() <= 1 {
        for item in items {
            run(item, out);
        }
        return;
    }
    let parts = pq_par::par_map(items, |item| {
        let mut part = Vec::new();
        run(item, &mut part);
        part
    });
    for mut part in parts {
        out.append(&mut part);
    }
}

/// Build the full population for one study and group, in
/// participant-id order; the pool's Table 3 line says how many are
/// recruited.
pub fn population(kind: StudyKind, group: Group, seed: u64) -> Vec<Session> {
    let label = match kind {
        StudyKind::AB => "ab-sessions",
        StudyKind::Rating => "rating-sessions",
    };
    let ids: Vec<u32> = (0..group.calib().study(kind).recruited()).collect();
    let mut sessions = Vec::with_capacity(ids.len());
    per_participant(
        seed,
        label,
        &ids,
        |&id| (group, id),
        &mut sessions,
        |&id, rng, out| out.push(Session::sample(kind, group, id, rng)),
    );
    sessions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filtering::Funnel;

    #[test]
    fn lab_population_is_clean() {
        let pop = population(StudyKind::AB, Group::Lab, 1);
        assert!(pop.iter().all(Session::valid), "lab is supervised");
    }

    #[test]
    fn every_funnel_matches_its_table3_line() {
        // One seed's funnel lands within sampling noise (±12 %) of the
        // paper's final count, for all three pools and both studies.
        for group in Group::ALL {
            for kind in [StudyKind::AB, StudyKind::Rating] {
                let study = group.calib().study(kind);
                let pop = population(kind, group, 1);
                assert_eq!(pop.len() as u32, study.recruited());
                let records: Vec<_> = pop.iter().map(|s| s.conformance).collect();
                let survivors = f64::from(Funnel::apply(&records).survivors());
                let [.., paper] = study.table3;
                assert!(
                    (survivors / f64::from(paper) - 1.0).abs() < 0.12,
                    "{group} {kind:?} survivors {survivors}, paper: {paper}"
                );
            }
        }
    }

    #[test]
    fn rushers_are_faster() {
        let pop = population(StudyKind::AB, Group::MicroWorker, 3);
        let rushers: Vec<f64> = pop
            .iter()
            .filter(|s| s.rusher)
            .map(|s| s.secs_per_video)
            .collect();
        let honest: Vec<f64> = pop
            .iter()
            .filter(|s| !s.rusher)
            .map(|s| s.secs_per_video)
            .collect();
        assert!(!rushers.is_empty() && !honest.is_empty());
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&rushers) < mean(&honest));
    }

    #[test]
    fn timing_matches_section_4_2() {
        // Honest µWorkers average the paper's seconds per A/B video.
        let pop = population(StudyKind::AB, Group::MicroWorker, 5);
        let honest: Vec<f64> = pop
            .iter()
            .filter(|s| s.valid())
            .map(|s| s.secs_per_video)
            .collect();
        let mean = honest.iter().sum::<f64>() / honest.len() as f64;
        let paper = Group::MicroWorker.calib().ab.secs_per_video;
        assert!((mean - paper).abs() < 1.5, "mean {mean}, paper: {paper}");
    }

    #[test]
    fn deterministic_population() {
        let a = population(StudyKind::AB, Group::MicroWorker, 7);
        let b = population(StudyKind::AB, Group::MicroWorker, 7);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.conformance, y.conformance);
        }
    }
}
