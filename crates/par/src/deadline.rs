//! Per-cell wall-clock deadlines ([`set_cell_timeout_ms`]; `pq` sets
//! it from `PQ_CELL_TIMEOUT_MS`).
//!
//! A hung or pathologically slow cell must not hang the sweep: the
//! pool stamps a thread-local start time as it begins each task, and
//! long-running cells poll [`cell_deadline_exceeded`] at their
//! cancellation points (between retry attempts in
//! `StimulusSet::build_with_faults`). A cell over budget returns an
//! error and is routed through pq-fault's quarantine machinery —
//! accounted as `cells_timed_out` in the manifest — instead of
//! blocking the grid.
//!
//! A [`Watchdog`] thread per parallel batch adds visibility: it warns
//! about a worker stuck past budget before the cell reaches its next
//! cancellation point (or if it never does).
//!
//! Wall-clock time here never feeds simulated data; with no deadline
//! set (the default) the whole module is inert and the determinism
//! contract is untouched. With it set, which cells exceed the budget
//! depends on the machine — that is the documented trade: use it for
//! liveness in long unattended sweeps, not for baseline digests.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The deadline in milliseconds; 0 = off.
static TIMEOUT_MS: AtomicU64 = AtomicU64::new(0);

/// The per-cell deadline in milliseconds, or `None` (watchdog off)
/// until [`set_cell_timeout_ms`] arms it.
pub fn cell_timeout_ms() -> Option<u64> {
    Some(TIMEOUT_MS.load(Ordering::Relaxed)).filter(|&ms| ms > 0)
}

/// Set the deadline for the whole process: `None` or `Some(0)` turns
/// the watchdog off. The `pq` binary applies `PQ_CELL_TIMEOUT_MS`
/// here; tests arm it directly.
pub fn set_cell_timeout_ms(ms: Option<u64>) {
    TIMEOUT_MS.store(ms.unwrap_or(0), Ordering::Relaxed);
}

thread_local! {
    /// When the current pool task started, stamped by the pool on the
    /// executing thread (worker or caller) at each task boundary.
    static TASK_START: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Stamp the start of a task on this thread. Called by the pool for
/// every item, on both the serial fast path and worker threads.
pub(crate) fn task_started() {
    if cell_timeout_ms().is_some() {
        #[expect(
            clippy::disallowed_methods,
            reason = "deadline enforcement is wall-clock by definition; gated behind PQ_CELL_TIMEOUT_MS and never feeds simulated data"
        )]
        TASK_START.with(|t| t.set(Some(Instant::now())));
    }
}

/// Cooperative cancellation check: `Some(elapsed_ms)` when the current
/// task has exceeded [`cell_timeout_ms`], `None` otherwise (including
/// whenever the watchdog is off). Cheap enough to call between retry
/// attempts; a cell that sees `Some` should abandon work and report a
/// quarantineable error.
pub fn cell_deadline_exceeded() -> Option<u64> {
    let budget = cell_timeout_ms()?;
    let start = TASK_START.with(Cell::get)?;
    let elapsed = start.elapsed().as_millis() as u64;
    if elapsed > budget {
        Some(elapsed)
    } else {
        None
    }
}

/// Supervision of one parallel batch, built only when a cell deadline
/// is configured: workers record a heartbeat per task, and a thread
/// running [`Watchdog::run`] reports (once per stall, through
/// the pq-obs tracer + the `par.watchdog_stalls` counter) any worker
/// whose *current* task has overrun the budget. Enforcement stays
/// cooperative — the overrunning cell quarantines itself at its next
/// [`cell_deadline_exceeded`] check — so the watchdog's job is
/// visibility, not preemption.
pub(crate) struct Watchdog {
    /// The deadline the batch was started under.
    timeout_ms: u64,
    /// Heartbeats are milliseconds since this instant.
    epoch: Instant,
    /// One heartbeat slot per worker: 0 = idle, else ms-since-epoch of
    /// the current task's start + 1.
    beats: Vec<AtomicU64>,
    /// Set by [`Watchdog::stop`] once every worker is joined.
    workers_done: AtomicBool,
}

impl Watchdog {
    /// A watchdog for `workers` workers, or `None` when no deadline is
    /// configured.
    pub(crate) fn armed(workers: usize) -> Option<Watchdog> {
        let timeout_ms = cell_timeout_ms()?;
        Some(Watchdog {
            timeout_ms,
            #[expect(
                clippy::disallowed_methods,
                reason = "watchdog heartbeat epoch; only armed when PQ_CELL_TIMEOUT_MS is set and never feeds simulated data"
            )]
            epoch: Instant::now(),
            beats: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            workers_done: AtomicBool::new(false),
        })
    }

    fn epoch_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Record worker `who`'s heartbeat: a task has just begun, or
    /// (`busy == false`) the worker is between chunks.
    pub(crate) fn beat(&self, who: usize, busy: bool) {
        if let Some(slot) = self.beats.get(who) {
            let at = if busy { self.epoch_ms() + 1 } else { 0 };
            slot.store(at, Ordering::Relaxed);
        }
    }

    /// The supervision loop: poll the heartbeats every quarter budget
    /// (5–200 ms) until [`Watchdog::stop`]. It parks between polls, so
    /// an armed watchdog adds no wall time to a batch.
    pub(crate) fn run(&self) {
        let timeout_ms = self.timeout_ms;
        let quantum = Duration::from_millis((timeout_ms / 4).clamp(5, 200));
        let mut warned = vec![false; self.beats.len()];
        while !self.workers_done.load(Ordering::Acquire) {
            std::thread::park_timeout(quantum);
            let now = self.epoch_ms();
            for (who, (slot, flag)) in self.beats.iter().zip(&mut warned).enumerate() {
                let beat = slot.load(Ordering::Relaxed);
                if beat == 0 {
                    *flag = false;
                    continue;
                }
                let elapsed = now.saturating_sub(beat - 1);
                if elapsed > timeout_ms && !*flag {
                    *flag = true;
                    pq_obs::tracer().warn(
                        "par",
                        format!(
                            "watchdog: pq-par worker {who} has spent {elapsed} ms on one cell \
                             (budget {timeout_ms} ms); the cell will be quarantined at its \
                             next cancellation point"
                        ),
                    );
                    pq_obs::registry().counter_add("par.watchdog_stalls", 1);
                }
            }
        }
    }

    /// End supervision: every worker is joined. Wakes `thread` (the one
    /// in [`Watchdog::run`]) out of its park so it returns at once.
    pub(crate) fn stop(&self, thread: &std::thread::Thread) {
        self.workers_done.store(true, Ordering::Release);
        thread.unpark();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test: the deadline is process-global, so the scenarios must
    // not interleave across test threads.
    #[test]
    fn setter_stamping_and_budget() {
        // Off by default; `None` and `Some(0)` both turn it off.
        assert_eq!(cell_timeout_ms(), None);
        set_cell_timeout_ms(Some(250));
        assert_eq!(cell_timeout_ms(), Some(250));
        set_cell_timeout_ms(Some(0));
        assert_eq!(cell_timeout_ms(), None);
        set_cell_timeout_ms(Some(250));
        set_cell_timeout_ms(None);
        assert_eq!(cell_timeout_ms(), None);

        // Off means never exceeded, even with a stale stamp.
        set_cell_timeout_ms(Some(3_600_000));
        task_started();
        set_cell_timeout_ms(Some(0));
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert_eq!(cell_deadline_exceeded(), None);

        // Under budget: no trip. Over budget: elapsed reported.
        set_cell_timeout_ms(Some(3_600_000));
        task_started();
        assert_eq!(cell_deadline_exceeded(), None, "fresh task is under budget");
        set_cell_timeout_ms(Some(1));
        std::thread::sleep(std::time::Duration::from_millis(5));
        let over = cell_deadline_exceeded();
        assert!(over.is_some_and(|ms| ms >= 2), "task over budget: {over:?}");
        set_cell_timeout_ms(None);
    }
}
