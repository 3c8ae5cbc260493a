//! # pq-fault — deterministic fault injection + graceful-degradation
//!
//! The paper's testbed survives real-world measurement failures by
//! re-running and filtering: every condition is loaded ≥31 times, and
//! only *valid* recordings feed the stimulus selection (§3, Table 3).
//! This crate is the reproduction's equivalent of a hostile lab: a
//! **seed-deterministic fault injector** that the whole pipeline
//! (sim → transport → web → core) consults, plus [`PqError`], the
//! error a rejected configuration or fault spec comes back as.
//!
//! ## The determinism contract
//!
//! Every fault decision is a **pure function** of
//! `(fault seed, cell coordinates)` — Gilbert–Elliott chains are
//! seeded per link direction from the page load's run seed, server
//! stalls and truncations per object id, handshake losses per
//! connection index. No fault RNG is ever threaded across cells, so a
//! faulted grid is bit-identical at any `PQ_JOBS` worker count, and two
//! runs with the same spec agree bitwise. With no plan (or an empty
//! one) the injector is entirely inert: zero extra RNG draws, zero
//! drift from the committed baselines.
//!
//! A plan is a value the caller threads: `LoadOptions::faults` for one
//! page load, `StimulusSet::build_with_faults` for a grid. This crate
//! keeps no process state and reads no environment; the `pq` binary
//! parses `PQ_FAULTS` once, into its run specification.
//!
//! ## Fault spec grammar ([`FaultPlan::parse`], `PQ_FAULTS` in `pq`)
//!
//! Semicolon-separated clauses, `name:key=value,...` (times in ms,
//! probabilities in `[0,1]`):
//!
//! | Clause | Layer | Meaning |
//! |--------|-------|---------|
//! | `seed=N` | all | fault seed folded into every decision (default `0xFA017`) |
//! | `gel:pgb=,pbg=,good=,bad=` | sim | Gilbert–Elliott burst loss on both link directions |
//! | `flap:at=,dur=[,period=]` | sim | link outage window(s) mid-load |
//! | `stall:p=,ms=` | web | per-object server think-time stall |
//! | `trunc:p=[,frac=]` | web | truncated response body (object never completes) |
//! | `hs:p=` | transport | first client flight lost → handshake timeout + backoff |
//!
//! Example:
//!
//! ```text
//! PQ_FAULTS="seed=7;gel:pgb=0.02,pbg=0.3,bad=0.5;flap:at=1500,dur=400;stall:p=0.05,ms=1200;trunc:p=0.01;hs:p=0.1"
//! ```
//!
//! ## Observability
//!
//! Every injected fault increments the global `fault.injected`
//! counter (link-level faults batched per link on drop); the hardened
//! retry layer adds `run.retries` / `run.quarantined`; fault instants
//! appear on the trace timeline under the `fault` category.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
#![warn(missing_docs)]

pub mod error;
pub mod inject;
pub mod rng;
pub mod spec;

pub use error::PqError;
pub use inject::{LinkFault, LoadFaults};
pub use rng::{derive_seed, fnv1a, FaultRng};
pub use spec::{FaultPlan, FlapConfig, GeConfig, HsConfig, StallConfig, TruncConfig};
