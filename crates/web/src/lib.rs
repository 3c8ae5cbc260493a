//! # pq-web — websites, HTTP layers and the browser model
//!
//! The workload layer of the *Perceiving QUIC* reproduction: a
//! 36-site corpus mirroring the paper's Alexa/Moz-derived selection
//! (multi-origin, wide size spread), HTTP/2-over-TCP and
//! HTTP-over-gQUIC mappings, and a progressive-rendering browser that
//! loads a site through the emulated access link and produces the
//! visual timeline the metrics crate consumes. A load also returns what
//! it counted, as one [`LoadCounts`] value: its events by kind
//! ([`EVENT_KINDS`]), its links' packets, its injected faults and its
//! edge junction's work; callers sum those values instead of reading
//! the process-global registry, which each load feeds once, for
//! `benches/perf` alone. Asked to ([`LoadOptions::record`]), a load
//! also keeps a [`LoadRecord`] of what it did — connections, handshakes,
//! transport records, lane samples and losses, faults, object instants —
//! which [`PageLoadResult::render`] draws as the load's trace rows; a
//! load writes no tracer.

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

pub mod browser;
pub mod catalogue;
pub mod http2;
pub mod http3;
mod junction;
mod mux;
pub mod object;
pub mod website;

pub use browser::{
    load_page, load_page_with_config, LoadCounts, LoadOptions, LoadRecord, PageLoadResult,
    EVENT_KINDS,
};
pub use catalogue::{corpus, corpus_specs, site, LAB_SITES};
pub use object::{ObjectId, ObjectKind, WebObject};
pub use website::{SiteSpec, Website};

#[cfg(test)]
mod browser_tests;
#[cfg(test)]
mod edge_tests;
