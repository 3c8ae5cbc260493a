//! # pq-prof — span profiling and allocation counting, zero deps
//!
//! Answers "where does a run's time go — by phase, page load and
//! worker — and how much does the run allocate" without disturbing the
//! workspace's determinism contract. Everything
//! here is *off-path*: with both subsystems disabled (the default)
//! every instrumentation site costs one relaxed atomic load, and with
//! them enabled the profile observes wall-clock time and heap traffic
//! only — never anything that feeds the `study_digest`
//! (`tests/determinism.rs` pins profiling-on vs. -off bit-equality).
//!
//! Two independent subsystems:
//!
//! * [`span`](mod@span) — a scoped span-stack profiler. [`span::span`] guards
//!   push enter/exit markers onto a thread-local stack; exits fold
//!   self-time into collapsed-stack lines (`a;b;c <self-nanoseconds>`)
//!   that any flamegraph tool consumes. Its frames are coarse on
//!   purpose: an armed span builds its path string, which costs more
//!   than a simulated event, so the event loop opens none (a page load
//!   returns its events counted by kind instead).
//! * [`alloc`] — a counting [`std::alloc::GlobalAlloc`] wrapper around
//!   the system allocator (installed here as the `#[global_allocator]`)
//!   keeping allocation count and bytes, plus a live-bytes peak (an RSS
//!   estimate).
//!
//! This crate reads no environment variables and writes no output on
//! its own: the `pq` binary parses `PQ_PROF_ALLOC` / `PQ_PROF_OUT`
//! with its other knobs, calls [`configure`] before the run (spans run
//! exactly when `PQ_PROF_OUT` names a file) and writes the folded
//! profile after it; `pq-bench` folds the allocation totals into the
//! run manifest.

#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
#![warn(missing_docs)]

pub mod alloc;
pub mod span;

pub use alloc::{alloc_enabled, alloc_snapshot, reset_alloc, set_alloc_enabled, AllocSnapshot};
pub use span::{
    current_path, flush_thread, folded, reset_spans, set_spans_enabled, span, span_dyn,
    spans_enabled, worker_span, write_folded, Span,
};

/// The process-wide counting allocator. Costs one relaxed atomic load
/// per allocation while disabled (the default); see [`alloc`].
#[global_allocator]
static COUNTING_ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Enable/disable both subsystems at once (the `pq-obs` init path).
pub fn configure(alloc_on: bool, spans_on: bool) {
    set_alloc_enabled(alloc_on);
    set_spans_enabled(spans_on);
}

/// Reset all accumulated state (tests): span folds and allocation
/// counters. Does not change the enabled flags.
pub fn reset() {
    reset_spans();
    reset_alloc();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiling_is_inert() {
        let _g = span::test_lock();
        reset();
        set_alloc_enabled(false);
        set_spans_enabled(false);
        let before = alloc_snapshot();
        {
            let _s = span("invisible");
            let v: Vec<u8> = vec![0; 4096];
            std::hint::black_box(&v);
        }
        let after = alloc_snapshot();
        assert_eq!(after.total_allocs, before.total_allocs);
        assert!(folded().iter().all(|(p, _, _)| !p.contains("invisible")));
    }
}
