//! Wall-clock phase timers for the experiment harness.
//!
//! The bench binaries split a run into named phases (`stimuli`,
//! `study`, `report`, …). A [`PhaseTimer`] measures each phase with
//! wall time, records a span on the harness track (`pid 0`) so the
//! phases show up in the exported trace, and keeps the
//! `(name, seconds)` pairs for the run manifest.

use crate::trace::{tracer, ArgValue, Event, Level};
use std::time::Instant;

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

    /// Run `f`, timing it as phase `name`. Returns `f`'s output. A
    /// `pq-prof` span of the same name roots the phase's folded
    /// sub-tree (inert unless spans are enabled).
    pub fn phase<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let t = tracer();
        let start_ns = t.wall_ns();
        #[expect(clippy::disallowed_methods, reason = "harness phase timing only")]
        let started = Instant::now();
        let out = {
            let _prof = pq_prof::span(name);
            f()
        };
        let secs = started.elapsed().as_secs_f64();
        if crate::trace::enabled(Level::Info) {
            let args = vec![("secs", ArgValue::F64(secs))];
            t.record(
                Level::Info,
                Event::span("bench", name, 0, 0, start_ns, t.wall_ns(), args),
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
