//! Conformance filtering — the seven rules of §4.1 and the Table 3
//! funnel.
//!
//! | Rule | Filters participants where … |
//! |------|------------------------------|
//! | R1 | a video was never played |
//! | R2 | a video stalled during playback |
//! | R3 | the study lost focus for > 10 s |
//! | R4 | a vote was placed before the First Visual Change |
//! | R5 | the study took > 25 min or a question > 2 min |
//! | R6 | a control video was answered wrong |
//! | R7 | a control question (browser-frame colour) was answered wrong |

/// The seven conformance rules, in application order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// A video in the study has not been played.
    R1,
    /// A video has stalled.
    R2,
    /// Focus loss longer than 10 s.
    R3,
    /// A vote was placed before the FVC.
    R4,
    /// Study > 25 min or a question > 2 min.
    R5,
    /// A control video was answered wrong.
    R6,
    /// A control question was answered wrong.
    R7,
}

impl Rule {
    /// All rules in application order.
    pub const ALL: [Rule; 7] = [
        Rule::R1,
        Rule::R2,
        Rule::R3,
        Rule::R4,
        Rule::R5,
        Rule::R6,
        Rule::R7,
    ];

    /// Index 0..7.
    pub fn idx(self) -> usize {
        self as usize
    }
}

/// Per-participant conformance record: which rules they violated.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Conformance {
    /// `violated[i]` = participant trips rule `Ri+1`.
    pub violated: [bool; 7],
}

impl Conformance {
    /// A fully conforming participant.
    pub fn clean() -> Conformance {
        Conformance::default()
    }

    /// Does this participant trip `rule`?
    pub fn violates(&self, rule: Rule) -> bool {
        self.violated.get(rule.idx()).copied().unwrap_or(false)
    }

    /// The first rule that removes this participant, if any.
    pub fn first_violation(&self) -> Option<Rule> {
        Rule::ALL.into_iter().find(|&r| self.violates(r))
    }

    /// Survives all filters?
    pub fn survives(&self) -> bool {
        self.first_violation().is_none()
    }
}

/// A Table 3 row: recruitment count and survivors after each rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Funnel {
    /// Participants recruited.
    pub recruited: u32,
    /// Survivors after applying R1..=Ri sequentially.
    pub after: [u32; 7],
}

impl Funnel {
    /// Final participant count (underlined in Table 3).
    pub fn survivors(&self) -> u32 {
        let [.., survivors] = self.after;
        survivors
    }

    /// Build a funnel by filtering a population sequentially: each
    /// participant is counted after every rule before the first one
    /// they violate.
    pub fn apply(records: &[Conformance]) -> Funnel {
        let mut after = [0u32; 7];
        for rec in records {
            let passed = rec.first_violation().map_or(after.len(), Rule::idx);
            for a in after.iter_mut().take(passed) {
                *a += 1;
            }
        }
        Funnel {
            recruited: records.len() as u32,
            after,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn viol(rules: &[usize]) -> Conformance {
        let mut c = Conformance::clean();
        for &r in rules {
            c.violated[r] = true;
        }
        c
    }

    #[test]
    fn funnel_is_monotone_and_sequential() {
        let pop = vec![
            Conformance::clean(),
            viol(&[0]),
            viol(&[2]),
            viol(&[2, 5]),
            viol(&[6]),
            Conformance::clean(),
        ];
        let f = Funnel::apply(&pop);
        assert_eq!(f.recruited, 6);
        assert_eq!(f.after[0], 5, "R1 removes one");
        assert_eq!(f.after[1], 5);
        assert_eq!(f.after[2], 3, "R3 removes two (one also fails R6)");
        assert_eq!(f.after[5], 3, "the R6 violator already fell at R3");
        assert_eq!(f.after[6], 2);
        assert_eq!(f.survivors(), 2);
        // Monotone non-increasing.
        for w in f.after.windows(2) {
            assert!(w[1] <= w[0]);
        }
    }

    #[test]
    fn clean_population_passes() {
        let pop = vec![Conformance::clean(); 35];
        let f = Funnel::apply(&pop);
        assert_eq!(f.survivors(), 35);
        assert!(f.after.iter().all(|&a| a == 35), "the Lab row of Table 3");
    }

    #[test]
    fn first_violation_ordering() {
        let c = viol(&[4, 1]);
        assert_eq!(c.first_violation(), Some(Rule::R2));
        assert!(!c.survives());
        assert!(Conformance::clean().survives());
    }
}
