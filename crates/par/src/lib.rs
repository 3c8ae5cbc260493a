//! # pq-par — deterministic parallel execution for the grid
//!
//! The experiment pipeline is embarrassingly parallel: 36 sites × 4
//! networks × 5 stacks × ≥31 runs of independent page-load simulations
//! at full scale, plus three independent study groups of simulated
//! participants. This crate is the zero-dependency execution engine
//! that spreads that grid across cores **without changing a single
//! bit of output**:
//!
//! * [`par_map`] / [`try_par_map`] — order-preserving scatter-gather
//!   over a slice. The index space is cut into contiguous chunks and
//!   `std::thread`-scoped workers claim them from one atomic cursor
//!   until it runs out; panics propagate to the caller (`par_map`) or
//!   fail only their own slot (`try_par_map`).
//! * [`jobs`] — the worker count: whatever [`set_jobs`] installed,
//!   else [`std::thread::available_parallelism`]. The `pq` binary
//!   installs its `PQ_JOBS` there; tests sweep `1 / 2 / 8` workers
//!   in-process the same way. This crate reads no environment.
//!
//! A task runs until it returns: the pool never times one out. Every
//! caller bounds its own work in simulated time or attempts (a page
//! load by its simulated horizon and event cap, a stimulus cell by its
//! retry budget), so no outcome depends on the wall clock.
//!
//! ## The determinism contract
//!
//! Parallel output is **bit-identical** to serial output because the
//! engine preserves item order in the gathered result and because
//! every call site derives its randomness purely from `(seed, cell
//! indices)` — e.g. `StimulusSet::build` keys each page load's RNG as
//! `fork_idx("site/net/proto", run)` from the root seed, and the study
//! runner keys each participant as `fork_idx(group, id)`. No RNG is
//! ever threaded sequentially across cells, so which worker claims
//! which chunk, and how many workers there are, cannot influence
//! results. `PQ_JOBS=1` and `PQ_JOBS=32` produce the same manifest
//! digests, figures and tables; the cross-crate test suite pins this.
//!
//! ## Observability
//!
//! With `PQ_TRACE=info` each worker gets its own trace track
//! (`pq-par worker-N`) carrying a lifetime span (tasks/chunks args)
//! and, at `debug`, one span per executed chunk. Every batch adds to
//! the global `par.tasks` and per-worker `par.worker_tasks` registry
//! counters, and `pq-bench`'s run manifest records the `jobs` value so
//! serial and parallel baselines are never conflated.
//!
//! ```
//! let squares = pq_par::par_map(&[1u64, 2, 3, 4], |x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
#![warn(missing_docs)]

mod pool;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Once;

/// Programmatic override installed by [`set_jobs`] (0 = none).
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Number of workers the machine can usefully run: available
/// parallelism, or 1 when the runtime cannot tell.
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The effective worker count: the [`set_jobs`] override, else
/// [`available_jobs`].
pub fn jobs() -> usize {
    match JOBS_OVERRIDE.load(Ordering::Relaxed) {
        0 => available_jobs(),
        forced => forced,
    }
}

/// Set the worker count for the whole process (`None` restores
/// [`available_jobs`]). The `pq` binary applies `PQ_JOBS` here; tests
/// sweep worker counts in-process the same way.
pub fn set_jobs(jobs: Option<usize>) {
    JOBS_OVERRIDE.store(jobs.unwrap_or(0), Ordering::Relaxed);
}

/// Map `f` over `items` on [`jobs`] workers, returning outputs in
/// item order. Bit-identical to `items.iter().map(f).collect()` when
/// `f` is pure per item; see the crate docs for the determinism
/// contract. Panics in `f` propagate to the caller (first payload
/// wins; remaining work is dropped).
pub fn par_map<T, R>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    pool::execute(jobs(), items, |_, t| f(t))
}

/// A single task panicked inside a [`try_par_map`] call. The panic was
/// contained: sibling tasks ran to completion and their results were
/// delivered — only the panicking task's slot carries this error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    /// The panic payload, stringified (`&str` / `String` payloads are
    /// preserved verbatim).
    pub message: String,
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task panicked: {}", self.message)
    }
}

impl std::error::Error for TaskPanic {}

thread_local! {
    /// Whether the current thread is inside a `try_par_map` task
    /// whose panic will be caught — used by the quiet panic hook to
    /// suppress the default stderr backtrace spam for *contained*
    /// panics only.
    static CATCHING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Install (once) a panic hook that stays silent for panics
/// [`try_par_map`] is about to catch, and defers to the previously
/// installed hook for everything else.
fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !CATCHING.with(std::cell::Cell::get) {
                prev(info);
            }
        }));
    });
}

/// Stringify a panic payload (`&str` / `String` pass through).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Run one task, converting a panic into a [`TaskPanic`] error and
/// bumping the `par.task_panics` counter.
fn run_caught<R>(f: impl FnOnce() -> R) -> Result<R, TaskPanic> {
    install_quiet_hook();
    CATCHING.with(|c| c.set(true));
    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    CATCHING.with(|c| c.set(false));
    res.map_err(|payload| {
        pq_obs::registry().counter_add("par.task_panics", 1);
        TaskPanic {
            message: panic_message(payload.as_ref()),
        }
    })
}

/// Panic-isolating [`par_map`]: a panic in `f` fails only that item's
/// slot (as `Err(TaskPanic)`) while every sibling's result is still
/// delivered, in item order. This is how the grid runner absorbs a
/// dying cell instead of tearing down the whole `runall`.
pub fn try_par_map<T, R>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<Result<R, TaskPanic>>
where
    T: Sync,
    R: Send,
{
    pool::execute(jobs(), items, |_, t| run_caught(|| f(t)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    /// Serialise tests that toggle the global override.
    fn with_override<R>(jobs: Option<usize>, f: impl FnOnce() -> R) -> R {
        static GUARD: Mutex<()> = Mutex::new(());
        let _g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
        set_jobs(jobs);
        let out = f();
        set_jobs(None);
        out
    }

    #[test]
    fn empty_input() {
        let none: Vec<u32> = Vec::new();
        assert!(pool::execute(4, &none, |i, x| x + i as u32).is_empty());
    }

    #[test]
    fn single_item_runs_inline() {
        assert_eq!(pool::execute(8, &[41u32], |_, x| x + 1), vec![42]);
    }

    #[test]
    fn more_workers_than_items() {
        let items: Vec<u32> = (0..3).collect();
        let out = pool::execute(64, &items, |_, &x| x * 2);
        assert_eq!(out, vec![0, 2, 4]);
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        // Float outputs — bit-identity, not approximate equality.
        let items: Vec<u64> = (0..1000).collect();
        let f = |i: usize, &x: &u64| ((x as f64) + 0.1).sin() * (i as f64 + 0.7).cos();
        let serial: Vec<f64> = items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
        for workers in [1usize, 2, 3, 8, 64] {
            let par = pool::execute(workers, &items, f);
            let same = serial
                .iter()
                .zip(&par)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "workers={workers} diverged from serial");
        }
    }

    #[test]
    fn panic_propagates_with_payload() {
        // First chunk, a middle one, and the last (the cursor is
        // already past the end when it unwinds): the call returns and
        // the payload reaches the caller.
        let items: Vec<u32> = (0..100).collect();
        for bad in [0u32, 37, 99] {
            let err = catch_unwind(AssertUnwindSafe(|| {
                pool::execute(4, &items, |_, &x| {
                    if x == bad {
                        panic!("cell {x} exploded");
                    }
                    x
                })
            }))
            .expect_err("panic must reach the caller");
            let msg = err
                .downcast_ref::<&str>()
                .copied()
                .map(String::from)
                .or_else(|| err.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            assert_eq!(msg, format!("cell {bad} exploded"));
        }
    }

    #[test]
    fn panic_aborts_remaining_work_eventually() {
        // After a panic the batch drains without running *every* cell:
        // the abort flag stops further claims, so at most the chunks
        // already held complete. We only assert the call returns (no
        // deadlock) and panics.
        let done = AtomicU64::new(0);
        let items: Vec<u32> = (0..10_000).collect();
        let res = catch_unwind(AssertUnwindSafe(|| {
            pool::execute(4, &items, |_, &x| {
                if x == 0 {
                    panic!("early");
                }
                done.fetch_add(1, Ordering::Relaxed);
                x
            })
        }));
        assert!(res.is_err());
        assert!(done.load(Ordering::Relaxed) < 10_000, "batch aborted early");
    }

    #[test]
    fn jobs_override_wins() {
        with_override(Some(3), || assert_eq!(jobs(), 3));
        with_override(None, || assert_eq!(jobs(), available_jobs()));
    }

    #[test]
    fn par_tasks_counter_advances() {
        // Lower bound only: sibling tests add to the same process-wide
        // counter. `tests/counters.rs` pins the exact amount.
        let before = pq_obs::registry().counter_value("par.tasks");
        let items: Vec<u32> = (0..256).collect();
        let _ = pool::execute(4, &items, |_, &x| x);
        let after = pq_obs::registry().counter_value("par.tasks");
        assert!(
            after >= before + 256,
            "par.tasks advanced by the batch size ({before} -> {after})"
        );
    }

    #[test]
    fn available_jobs_positive() {
        assert!(available_jobs() >= 1);
    }

    #[test]
    fn try_map_isolates_a_panicking_task() {
        // One panicking task fails only that task; every sibling's
        // result is delivered, in order.
        let items: Vec<u32> = (0..200).collect();
        for workers in [1usize, 4] {
            let out = with_override(Some(workers), || {
                try_par_map(&items, |&x| {
                    if x == 57 {
                        panic!("task 57 exploded");
                    }
                    x * 2
                })
            });
            assert_eq!(out.len(), 200);
            for (i, r) in out.iter().enumerate() {
                if i == 57 {
                    let err = r.as_ref().expect_err("57 must fail");
                    assert!(err.message.contains("task 57 exploded"), "{err}");
                } else {
                    assert_eq!(*r, Ok((i as u32) * 2), "sibling {i} lost");
                }
            }
        }
    }

    #[test]
    fn try_map_counts_panics_and_formats_payloads() {
        let before = pq_obs::registry().counter_value("par.task_panics");
        let items: Vec<u32> = (0..8).collect();
        let out = try_par_map(&items, |&x| {
            if x % 2 == 0 {
                // String payload (panic! with formatting).
                panic!("even {x}");
            }
            x
        });
        let failed = out.iter().filter(|r| r.is_err()).count();
        assert_eq!(failed, 4);
        assert!(out[2].as_ref().is_err_and(|e| e.message == "even 2"));
        let after = pq_obs::registry().counter_value("par.task_panics");
        assert!(after >= before + 4, "panic counter ({before} -> {after})");
    }

    #[test]
    fn try_map_all_ok_matches_par_map() {
        let items: Vec<u64> = (0..512).collect();
        let (plain, tried) = with_override(Some(4), || {
            (
                par_map(&items, |&x| x.wrapping_mul(2654435761)),
                try_par_map(&items, |&x| x.wrapping_mul(2654435761)),
            )
        });
        let unwrapped: Vec<u64> = tried.into_iter().map(|r| r.expect("no panics")).collect();
        assert_eq!(plain, unwrapped);
    }
}
