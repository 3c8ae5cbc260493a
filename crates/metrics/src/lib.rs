//! # pq-metrics — visual Web-performance metrics
//!
//! The measurement layer of the *Perceiving QUIC* reproduction: turns a
//! page-load's paint events into the visual-completeness curve, the
//! five technical metrics the paper analyses (FVC, SI, VC85, LVC, PLT)
//! and the "video recordings" shown to study participants, including
//! the closest-to-mean-PLT typical-run selection of §3.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
#![warn(missing_docs)]

pub mod metrics;
pub mod video;
pub mod visual;

pub use metrics::{Metric, MetricSet};
pub use video::{typical_run, Recording};
pub use visual::VisualTimeline;
