//! # pq-study — the QoE user studies (the paper's core contribution)
//!
//! Reproduces the two user studies of *Perceiving QUIC: Do Users
//! Notice or Even Care?* (CoNEXT'19) end to end:
//!
//! * **Stimuli** ([`stimulus`]): every website × network × protocol
//!   condition is loaded ≥31 times in the testbed; the run closest to
//!   the mean PLT becomes the "typical video".
//! * **Participants** ([`participant`], [`session`]): three subject
//!   pools (Lab / µWorker / Internet) with psychometric profiles
//!   (Weber-fraction JNDs, log-time perception dominated by the Speed
//!   Index) and behavioural profiles (rushing, distraction) calibrated
//!   against the paper's Table 3 and §4.2 — see [`calib`] for every
//!   constant and its provenance.
//! * **Study 1 (A/B)** ([`ab`]): side-by-side videos, left/right/no-
//!   difference votes with confidence and replays (Figure 4).
//! * **Study 2 (Rating)** ([`rating`]): single videos rated 10–70 in
//!   work / free-time / plane contexts (Figure 5).
//! * **Conformance filtering** ([`filtering`]): rules R1–R7 and the
//!   Table 3 funnel.
//! * **Analysis** ([`analysis`]): vote shares, CIs, ANOVA, per-site
//!   differences and the metric↔vote Pearson heatmap (Figures 3–6).
//!
//! The human subjects are *simulated* (see DESIGN.md §2): the network,
//! protocol and rendering behaviour underneath is fully emergent, and
//! only the participant layer is a calibrated psychometric model.

#![forbid(unsafe_code)]
// The digest-feeding set (README "Static analysis"), non-test code only.
#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]
#![warn(missing_docs)]

pub mod ab;
pub mod analysis;
pub mod calib;
pub mod filtering;
pub mod participant;
pub mod percept;
pub mod rating;
pub mod runner;
pub mod session;
pub mod stimulus;

pub use ab::{run_ab_study, AbChoice, AbVote, AbVotes};
pub use analysis::{
    ab_shares, anova_across_protocols, confidence_stats, fig3_agreement, metric_correlation,
    per_site_differences, rating_interval, rating_sample, AbShares, AgreementRow, ConfidenceStats,
    SiteDifference,
};
pub use filtering::{Conformance, Funnel, Rule};
pub use participant::{AgeBracket, Group, Participant};
pub use rating::{run_rating_study, site_tastes, Environment, RatingVote, RatingVotes};
pub use runner::{run_study, run_study_with, StudyData};
pub use session::{population, Session, StudyKind};
pub use stimulus::{Condition, Stimulus, StimulusSet};
