//! # pq-prof — hot-path profiling and allocation attribution, zero deps
//!
//! Answers "where inside the hot loop do the time and allocations go"
//! without disturbing the workspace's determinism contract. Everything
//! here is *off-path*: with both subsystems disabled (the default)
//! every instrumentation site costs one relaxed atomic load, and with
//! them enabled the profile observes wall-clock time and heap traffic
//! only — never anything that feeds the `study_digest`
//! (`tests/determinism.rs` pins profiling-on vs. -off bit-equality).
//!
//! Two independent subsystems:
//!
//! * [`span`] — a scoped span-stack profiler. [`span::span`] guards
//!   push enter/exit markers onto a thread-local stack; exits fold
//!   self-time into collapsed-stack lines (`a;b;c <self-nanoseconds>`)
//!   that any flamegraph tool consumes, and [`svg::render`] draws a
//!   self-contained flamegraph SVG with no external tooling.
//! * [`alloc`] — a counting [`std::alloc::GlobalAlloc`] wrapper around
//!   the system allocator (installed here as the `#[global_allocator]`)
//!   attributing allocation count/bytes to the current harness phase
//!   and pq-par worker lane, plus a live-bytes peak (an RSS estimate).
//!
//! This crate reads no environment variables and writes no output on
//! its own: the `pq` binary parses `PQ_PROF_ALLOC` / `PQ_PROF_OUT` /
//! `PQ_PROF_SVG` with its other knobs, calls [`configure`] before the
//! run and writes the folded profile and the SVG after it; `pq-bench`
//! folds the allocation report into the run manifest.

#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
#![warn(missing_docs)]

pub mod alloc;
pub mod span;
pub mod svg;

pub use alloc::{
    alloc_enabled, alloc_snapshot, reset_alloc, set_alloc_enabled, set_lane, AllocSnapshot,
    LaneAlloc, PhaseAlloc,
};
pub use span::{
    current_path, flush_thread, folded, reset_spans, set_spans_enabled, span, span_dyn, span_with,
    spans_enabled, worker_span, write_folded, Span,
};

/// The process-wide counting allocator. Costs one relaxed atomic load
/// per allocation while disabled (the default); see [`alloc`].
#[global_allocator]
static COUNTING_ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Guard returned by [`phase_scope`]: restores the previous allocation
/// phase and closes the phase's profiler span on drop.
pub struct PhaseScope {
    prev: Option<usize>,
    _span: Span,
}

/// Enter a named harness phase: allocations are attributed to `name`
/// until the guard drops, and a profiler span of the same name wraps
/// the phase in the folded output. Inert (and free) when both
/// subsystems are disabled.
pub fn phase_scope(name: &str) -> PhaseScope {
    let prev = if alloc_enabled() {
        Some(alloc::enter_phase(name))
    } else {
        None
    };
    PhaseScope {
        prev,
        _span: span(name),
    }
}

impl Drop for PhaseScope {
    fn drop(&mut self) {
        if let Some(prev) = self.prev {
            alloc::set_phase(prev);
        }
    }
}

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
    fn phase_scope_attributes_allocations() {
        let _g = span::test_lock();
        reset();
        set_alloc_enabled(true);
        let before = alloc_snapshot();
        {
            let _p = phase_scope("probe_phase");
            let v: Vec<u8> = Vec::with_capacity(64 * 1024);
            std::hint::black_box(&v);
        }
        set_alloc_enabled(false);
        let after = alloc_snapshot();
        assert!(after.total_allocs > before.total_allocs);
        let phase = after
            .phases
            .iter()
            .find(|p| p.phase == "probe_phase")
            .expect("phase registered");
        assert!(phase.allocs >= 1, "phase saw the Vec allocation");
        assert!(phase.bytes >= 64 * 1024);
    }

    #[test]
    fn disabled_profiling_is_inert() {
        let _g = span::test_lock();
        reset();
        set_alloc_enabled(false);
        set_spans_enabled(false);
        let before = alloc_snapshot();
        {
            let _p = phase_scope("invisible");
            let _s = span("also_invisible");
            let v: Vec<u8> = vec![0; 4096];
            std::hint::black_box(&v);
        }
        let after = alloc_snapshot();
        assert_eq!(after.total_allocs, before.total_allocs);
        assert!(folded().iter().all(|(p, _, _)| !p.contains("invisible")));
    }
}
