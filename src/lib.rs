//! # perceiving-quic
//!
//! A full Rust reproduction of *Perceiving QUIC: Do Users Notice or
//! Even Care?* (Rüth, Wolsing, Wehrle, Hohlfeld — CoNEXT 2019): the
//! Mahimahi-style network emulation, the five tuned TCP/gQUIC stacks
//! of Table 1, a progressive-rendering browser over a 36-site corpus,
//! the visual Web metrics (FVC, SI, VC85, LVC, PLT), and the two
//! simulated QoE user studies with conformance filtering and the full
//! statistical analysis behind Figures 3–6 and Table 3.
//!
//! This umbrella crate re-exports the workspace layers:
//!
//! * [`sim`] — deterministic discrete-event link emulation,
//! * [`transport`] — TCP+TLS and gQUIC with Cubic/BBRv1,
//! * [`web`] — websites, HTTP/2 + HTTP/3 mappings, the browser,
//! * [`metrics`] — visual metrics and study recordings,
//! * [`stats`] — CIs, ANOVA, correlation, normality,
//! * [`study`] — participants, the A/B and rating studies, analysis,
//! * [`par`] — the deterministic parallel execution engine that
//!   spreads the stimulus/study grid across cores (`PQ_JOBS`) with
//!   bit-identical output,
//! * [`fault`] — seed-deterministic fault injection (`PQ_FAULTS`) and
//!   [`fault::PqError`], the error a rejected network configuration or
//!   fault spec comes back as.
//!
//! ## Quickstart
//!
//! ```
//! use perceiving_quic::prelude::*;
//!
//! let site = web::site("wikipedia.org").unwrap();
//! let net = NetworkKind::Lte.config();
//! let result = web::load_page(&site, &net, Protocol::Quic, 42, &web::LoadOptions::default());
//! assert!(result.complete);
//! println!("Speed Index: {:.0} ms", result.metrics.si_ms);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
#![warn(missing_docs)]

pub use pq_fault as fault;
pub use pq_metrics as metrics;
pub use pq_par as par;
pub use pq_sim as sim;
pub use pq_stats as stats;
pub use pq_study as study;
pub use pq_transport as transport;
pub use pq_web as web;

/// The most common imports for experiments.
pub mod prelude {
    pub use pq_metrics::{Metric, MetricSet, Recording, VisualTimeline};
    pub use pq_par::par_map;
    pub use pq_sim::{NetworkConfig, NetworkKind, SimDuration, SimRng, SimTime};
    pub use pq_study::{run_study, AbChoice, Environment, Group, StimulusSet, StudyData};
    pub use pq_transport::Protocol;
    pub use pq_web::{self as web, LoadOptions, PageLoadResult, Website};
    pub use pq_web::{load_page, site};
}
