//! # pq-edge — in-sim edge network functions
//!
//! The real Internet rarely carries QUIC end-to-end: most traffic
//! crosses an *edge* — CDN reverse proxies that terminate H3 on the
//! client side and speak pooled H2/TCP to origins, and transparent
//! middleboxes that interpose on the bottleneck link. This crate
//! models both shapes deterministically so the study pipeline can ask
//! the paper's question one layer up: *do users notice the edge?*
//!
//! Two network functions, both pure functions of derived seeds:
//!
//! * [`EdgePools`] — the terminating proxy's per-origin connection
//!   pools: reuse across page objects, configurable pool size and
//!   idle timeout, and least-outstanding load balancing across
//!   replica origins with a seed-derived tiebreak (the spooky shape).
//! * [`Middlebox`] — a transparent observer on the access link that
//!   buffers downstream QUIC packets, groups them into flowlets by
//!   inter-arrival gap, infers losses from the packet-number ranges
//!   in returning ACKs and early-retransmits from its buffer — without
//!   terminating the connection (the PEMI shape).
//!
//! Neither type performs I/O or reads clocks; `pq-web`'s `junction`
//! module owns one of them per page load and the loader's event loop
//! drives it from there. [`EdgeConfig`] carries the
//! tunables (`LoadOptions.edge`; `None` runs the defaults). Which
//! stacks a grid runs is the caller's argument; this crate reads no
//! environment.

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

mod config;
mod mbx;
mod pool;

pub use config::EdgeConfig;
pub use mbx::Middlebox;
pub use pool::{Dispatch, DispatchOutcome, EdgePools, PoolStats};
