//! Wall-clock phase timers for the experiment harness.
//!
//! The bench binaries split a run into named phases (`stimuli`,
//! `study`, `report`, …). A [`PhaseTimer`] measures each phase with
//! wall time, records a span on the harness track (`pid 0`) so the
//! phases show up in the exported trace, and keeps the
//! `(name, seconds)` pairs for the run manifest.
//!
//! [`Stopwatch`] is the single-interval building block.

use crate::trace::{tracer, ArgValue, Level};
use std::time::Instant;

/// A simple wall-clock stopwatch.
///
/// ```
/// let sw = pq_obs::Stopwatch::start();
/// // ... work ...
/// let secs = sw.elapsed_secs();
/// assert!(secs >= 0.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Self {
            #[expect(clippy::disallowed_methods, reason = "harness phase timing only")]
            started: Instant::now(),
        }
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

/// Measures a sequence of named phases in wall time.
///
/// Each completed phase:
///
/// * emits an `Info` span on the harness track (`pid 0`, `tid 0`,
///   category `bench`) so Perfetto shows the pipeline timeline,
/// * is remembered in [`PhaseTimer::phases`] for the run manifest.
///
/// ```
/// let mut timer = pq_obs::PhaseTimer::new();
/// timer.phase("warmup", || 2 + 2);
/// let out = timer.phase("main", || "done");
/// assert_eq!(out, "done");
/// assert_eq!(timer.phases().len(), 2);
/// ```
#[derive(Debug, Default)]
pub struct PhaseTimer {
    phases: Vec<(String, f64)>,
}

impl PhaseTimer {
    /// Create an empty timer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Run `f`, timing it as phase `name`. Returns `f`'s output. The
    /// phase also scopes `pq-prof` attribution: allocations inside `f`
    /// land on this phase's slot and a profiler span of the same name
    /// roots the phase's folded sub-tree (both inert unless profiling
    /// is enabled).
    pub fn phase<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let t = tracer();
        let start_ns = t.wall_ns();
        let sw = Stopwatch::start();
        let out = {
            let _prof = pq_prof::phase_scope(name);
            f()
        };
        let secs = sw.elapsed_secs();
        if crate::trace::enabled(Level::Info) {
            t.span(
                Level::Info,
                "bench",
                name,
                0,
                0,
                start_ns,
                t.wall_ns(),
                vec![("secs", ArgValue::F64(secs))],
            );
        }
        self.phases.push((name.to_string(), secs));
        out
    }

    /// The completed `(phase, seconds)` pairs, in execution order.
    pub fn phases(&self) -> &[(String, f64)] {
        &self.phases
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_monotonic() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_secs();
        let b = sw.elapsed_secs();
        assert!(b >= a);
        assert!(a >= 0.0);
    }

    #[test]
    fn phase_timer_records_in_order() {
        let mut timer = PhaseTimer::new();
        let v = timer.phase("one", || 41 + 1);
        assert_eq!(v, 42);
        timer.phase("two", || ());
        let names: Vec<&str> = timer.phases().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["one", "two"]);
        assert!(timer.phases().iter().all(|(_, secs)| *secs >= 0.0));
    }
}
