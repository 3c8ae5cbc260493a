//! The error a rejected configuration or fault spec comes back as.

use std::fmt;

/// Why the pipeline refused an input.
///
/// Each variant has a constructor: `NetworkConfig::checked` builds
/// [`PqError::InvalidConfig`] and [`crate::FaultPlan::parse`] builds
/// [`PqError::InvalidFaultSpec`]. A variant is added together with the
/// code that returns it.
#[derive(Debug, Clone, PartialEq)]
pub enum PqError {
    /// A configuration value is unusable (zero bandwidth, loss outside
    /// `[0,1]`, NaN, …). Produced by e.g. `NetworkConfig::checked`.
    InvalidConfig(String),
    /// A `PQ_FAULTS` spec failed to parse; the message pinpoints the
    /// offending clause.
    InvalidFaultSpec(String),
}

impl fmt::Display for PqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PqError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            PqError::InvalidFaultSpec(msg) => write!(f, "invalid fault spec: {msg}"),
        }
    }
}

impl std::error::Error for PqError {}
