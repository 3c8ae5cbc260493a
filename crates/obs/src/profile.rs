//! Bridge between `pq-prof` and the observability surface.
//!
//! `pq-prof` itself reads no environment and writes no files; this
//! module is where its knobs live so that every `PQ_*` read stays in
//! the sanctioned [`crate::env`] funnel:
//!
//! * [`init_from_env`] — enable the counting allocator
//!   (`PQ_PROF_ALLOC`) and the span profiler (exactly when
//!   `PQ_PROF_OUT` or `PQ_PROF_SVG` names somewhere to put its result).
//! * [`flush_to_env`] — write the collapsed-stack file and/or the
//!   flamegraph SVG at end of run.
//! * [`alloc_summary`] — a one-line human allocation report for the
//!   harness log.

use std::path::PathBuf;

/// Configure `pq-prof` from the environment. Called by
/// [`crate::trace::init_from_env`], so any binary that initialises
/// tracing gets profiling knobs for free.
#[expect(
    clippy::disallowed_methods,
    reason = "pq-obs reads its own PQ_PROF_* knobs"
)]
pub fn init_from_env() {
    // Truthy: set and neither empty nor `0`.
    let alloc_on = crate::env::var("PQ_PROF_ALLOC").is_some_and(|v| !v.is_empty() && v != "0");
    let spans_on =
        crate::env::var("PQ_PROF_OUT").is_some() || crate::env::var("PQ_PROF_SVG").is_some();
    pq_prof::configure(alloc_on, spans_on);
}

/// Write the collapsed-stack profile to `PQ_PROF_OUT` and/or the
/// flamegraph SVG to `PQ_PROF_SVG`, when set. Returns the folded
/// output path if one was written. IO failures warn through the tracer
/// rather than killing a finished run.
#[expect(
    clippy::disallowed_methods,
    reason = "pq-obs reads its own PQ_PROF_* knobs"
)]
pub fn flush_to_env() -> Option<PathBuf> {
    let mut written = None;
    if let Some(out) = crate::env::var("PQ_PROF_OUT") {
        let path = PathBuf::from(out);
        match pq_prof::write_folded(&path) {
            Ok(_) => written = Some(path),
            Err(e) => crate::trace::tracer()
                .warn("prof", format!("failed to write {}: {e}", path.display())),
        }
    }
    if let Some(svg_out) = crate::env::var("PQ_PROF_SVG") {
        let svg = pq_prof::svg::render(&pq_prof::folded());
        let path = PathBuf::from(svg_out);
        match pq_ckpt::atomic_write(&path, svg.as_bytes()) {
            Ok(()) if written.is_none() => written = Some(path),
            Ok(()) => {}
            Err(e) => crate::trace::tracer()
                .warn("prof", format!("failed to write {}: {e}", path.display())),
        }
    }
    written
}

/// One-line allocation summary for the harness log, or `None` when the
/// counting allocator is off.
pub fn alloc_summary() -> Option<String> {
    if !pq_prof::alloc_enabled() {
        return None;
    }
    let snap = pq_prof::alloc_snapshot();
    let top = snap
        .phases
        .iter()
        .max_by_key(|p| p.bytes)
        .map(|p| {
            format!(
                ", top phase {} ({:.1} MiB)",
                p.phase,
                p.bytes as f64 / (1 << 20) as f64
            )
        })
        .unwrap_or_default();
    Some(format!(
        "alloc: {} allocations, {:.1} MiB total, {:.1} MiB peak live{top}",
        snap.total_allocs,
        snap.total_bytes as f64 / (1 << 20) as f64,
        snap.peak_bytes as f64 / (1 << 20) as f64,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_summary_off_is_none() {
        if !pq_prof::alloc_enabled() {
            assert!(alloc_summary().is_none());
        }
    }
}
