//! # pq-ckpt — results I/O, zero deps
//!
//! * [`atomicio`] — `atomic_write` (same-directory temp file + fsync +
//!   rename) for everything under `results/`, so a killed process can
//!   never leave a half-written manifest, plus `recover_stale_temps`,
//!   which `pq runall` calls at start to sweep the temp files such a
//!   process left behind. A killed run is not resumed: it is rerun, and
//!   because every grid cell is a pure function of
//!   `(seed, coordinates)`, the rerun's `study_digest` is the one the
//!   killed run would have produced.
//! * [`fnv`] — FNV-1a/64, pq-prof's flamegraph colours.
//! * [`warn`] / [`set_warn_sink`] — one diagnostic channel that
//!   `pq-obs` routes into the tracer.
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

use std::sync::Mutex;

type WarnSink = Box<dyn Fn(&str) + Send + Sync>;

static WARN_SINK: Mutex<Option<WarnSink>> = Mutex::new(None);

/// Route pq-ckpt diagnostics (stale temp files, watchdog stalls)
/// somewhere better than stderr. `pq-obs` installs a tracer-backed
/// sink during `init_from_env`.
pub fn set_warn_sink(sink: impl Fn(&str) + Send + Sync + 'static) {
    let mut slot = WARN_SINK.lock().unwrap_or_else(|e| e.into_inner());
    *slot = Some(Box::new(sink));
}

/// Emit a diagnostic through the installed sink (stderr by default).
/// Public so sibling crates (e.g. the pq-par watchdog) share the
/// same channel.
pub fn warn(msg: &str) {
    let slot = WARN_SINK.lock().unwrap_or_else(|e| e.into_inner());
    match slot.as_ref() {
        Some(sink) => sink(msg),
        None => eprintln!("pq-ckpt: {msg}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warn_sink_receives_messages() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        set_warn_sink(move |_msg| {
            h.fetch_add(1, Ordering::Relaxed);
        });
        warn("test message");
        assert!(hits.load(Ordering::Relaxed) >= 1);
    }
}
