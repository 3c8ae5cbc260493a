//! # pq-ckpt — results I/O, zero deps
//!
//! * [`atomicio`] — `atomic_write` (same-directory temp file + fsync +
//!   rename) for everything under `results/`, so a killed process can
//!   never leave a half-written manifest, plus `recover_stale_temps`,
//!   which `pq runall` calls at start to sweep the temp files such a
//!   process left behind (it returns what it removed; the caller
//!   reports it). A killed run is not resumed: it is rerun, and
//!   because every grid cell is a pure function of
//!   `(seed, coordinates)`, the rerun's `study_digest` is the one the
//!   killed run would have produced.
//! * [`fnv`] — FNV-1a/64, the journal's record checksum.
//! * [`journal`] — an append-only record writer that only pq-perf's
//!   journal-append probe still calls.
//!
//! The crate deliberately has **zero dependencies** (it sits below
//! `pq-prof` in the workspace DAG so even the profiler's writers can
//! use it) and reads **no environment variables**.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
#![warn(missing_docs)]

pub mod atomicio;
pub mod fnv;
pub mod journal;

pub use atomicio::{atomic_write, recover_stale_temps};
pub use fnv::fnv1a;
pub use journal::{journal_append, journal_complete, journal_open, Record};
