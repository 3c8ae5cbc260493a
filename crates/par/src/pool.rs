//! The scatter-gather engine behind [`par_map`]: one atomic chunk
//! cursor.
//!
//! One batch = one [`std::thread::scope`]. Every batch in this
//! workspace is a flat slice known before the first worker starts and
//! nothing is ever added to a running batch, so there is nothing to
//! queue, rebalance or wait for: the index space is cut into contiguous
//! chunks of `n.div_ceil(workers × 8)` items and each worker claims the
//! next unclaimed chunk with `cursor.fetch_add(1)` until the cursor
//! runs past the end, then returns. A slow chunk delays only the
//! worker running it; the others keep claiming.
//!
//! Determinism: the engine never reorders *results*. Workers return
//! `(chunk start, Vec<R>)` fragments through their join handles; the
//! caller sorts them by `start` and flattens, so the output of
//! [`execute`] is bit-identical to a serial
//! `items.iter().enumerate().map(f).collect()` — provided `f` derives
//! everything (RNG streams included) from the item and its index
//! alone, never from execution order. All call sites in this workspace
//! key their RNG as `fork_idx(label, index)` for exactly this reason.
//!
//! Panics: a panic ends the run, so the engine catches none. A task
//! that panics unwinds its worker; the sibling workers keep claiming
//! until the cursor runs out. [`execute`] joins every worker, then
//! re-raises the first panicked worker's payload on the calling thread
//! via [`std::panic::resume_unwind`]. Every handle is joined, so
//! `std::thread::scope` adds no panic of its own.
//!
//! [`par_map`]: crate::par_map
//! [`execute`]: execute

use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

use pq_obs::{ArgValue, Level};

/// Target number of chunks per worker: small enough that claiming a
/// chunk is negligible next to a page-load simulation, large enough
/// that a skewed grid still balances (slow sites cluster: MSS cells
/// cost ~10× DSL cells).
const CHUNKS_PER_WORKER: usize = 8;

/// One worker's order-restoring result fragments: `(chunk start,
/// outputs)`.
type Fragments<R> = Vec<(usize, Vec<R>)>;

/// Everything the workers of one batch share.
struct Batch {
    /// Index of the next unclaimed chunk.
    cursor: AtomicUsize,
    /// Items per chunk (the last chunk may be shorter).
    chunk_len: usize,
}

impl Batch {
    fn new(n: usize, workers: usize) -> Batch {
        Batch {
            cursor: AtomicUsize::new(0),
            chunk_len: n.div_ceil(workers * CHUNKS_PER_WORKER).max(1),
        }
    }

    /// Claim the next chunk of `0..n`, or `None` once the cursor is
    /// past the end.
    fn claim(&self, n: usize) -> Option<Range<usize>> {
        // Relaxed: the cursor hands out indices and publishes no other
        // data (`items` is shared before the workers are spawned).
        let start = self.cursor.fetch_add(1, Ordering::Relaxed) * self.chunk_len;
        (start < n).then(|| start..(start + self.chunk_len).min(n))
    }
}

/// One worker's batch loop. `prof_root` is the spawning thread's open
/// `pq-prof` span path, so worker time folds under the phase that
/// launched the batch (chunk execution shows up as `par:run`).
fn worker_loop<T, R>(
    id: usize,
    batch: &Batch,
    items: &[T],
    f: &(dyn Fn(usize, &T) -> R + Sync),
    prof_root: Option<&str>,
) -> Fragments<R>
where
    T: Sync,
    R: Send,
{
    let traced = pq_obs::enabled(Level::Info);
    let tracer = pq_obs::tracer();
    let pid = if traced {
        tracer.new_pid(&format!("pq-par worker-{id}"))
    } else {
        0
    };
    let started_ns = tracer.wall_ns();
    let mut local_tasks = 0u64;
    let mut parts: Fragments<R> = Vec::new();

    {
        let _worker = pq_prof::worker_span(prof_root, "par:worker");
        while let Some(Range { start, end }) = batch.claim(items.len()) {
            let t0 = tracer.wall_ns();
            let _run_span = pq_prof::span("par:run");
            let mut out = Vec::with_capacity(end - start);
            for (i, item) in (start..end).zip(&items[start..end]) {
                out.push(f(i, item));
            }
            local_tasks += out.len() as u64;
            parts.push((start, out));
            if pq_obs::enabled(Level::Debug) {
                tracer.span(
                    Level::Debug,
                    "par",
                    format!("chunk {start}..{end}"),
                    pid,
                    0,
                    t0,
                    tracer.wall_ns(),
                    vec![("items", ArgValue::U64((end - start) as u64))],
                );
            }
        }
    }

    // Per-worker balance counter (read by pq-perf's traced run); the
    // formatted name carries the worker id as a label.
    pq_obs::registry().counter_add(&format!("par.worker_tasks{{worker=\"{id}\"}}"), local_tasks);
    pq_prof::flush_thread();
    if traced {
        tracer.span(
            Level::Info,
            "par",
            format!("worker-{id}"),
            pid,
            0,
            started_ns,
            tracer.wall_ns(),
            vec![
                ("tasks", ArgValue::U64(local_tasks)),
                ("chunks", ArgValue::U64(parts.len() as u64)),
            ],
        );
    }
    parts
}

/// Run `f` over `items[0..n]` on `workers` threads, returning outputs
/// in item order. The serial fast path (`workers <= 1` or `n <= 1`)
/// runs on the calling thread with zero scheduling overhead — and is
/// the reference the parallel path is bit-identical to.
pub(crate) fn execute<T, R>(
    workers: usize,
    items: &[T],
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    let n = items.len();
    let workers = workers.clamp(1, n.max(1));
    if workers <= 1 || n <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let batch = Batch::new(n, workers);
    let fref: &(dyn Fn(usize, &T) -> R + Sync) = &f;
    // Workers inherit the caller's open profiler span path so their
    // time folds under the launching phase in the collapsed output.
    let prof_root = pq_prof::current_path();
    let joined: Vec<std::thread::Result<Fragments<R>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|id| {
                let batch = &batch;
                let prof_root = prof_root.as_deref();
                std::thread::Builder::new()
                    .name(format!("pq-par-{id}"))
                    .spawn_scoped(scope, move || {
                        worker_loop(id, batch, items, fref, prof_root)
                    })
                    .expect("spawn pq-par worker")
            })
            .collect();
        handles.into_iter().map(|handle| handle.join()).collect()
    });
    let mut parts: Fragments<R> = Vec::new();
    for fragments in joined {
        match fragments {
            Ok(fragments) => parts.extend(fragments),
            Err(payload) => resume_unwind(payload),
        }
    }

    let tasks: usize = parts.iter().map(|(_, out)| out.len()).sum();
    pq_obs::registry().counter_add("par.tasks", tasks as u64);

    parts.sort_unstable_by_key(|(start, _)| *start);
    let out: Vec<R> = parts.into_iter().flat_map(|(_, v)| v).collect();
    debug_assert_eq!(out.len(), n, "every item produced exactly one output");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn every_index_is_visited_exactly_once() {
        // n not a multiple of the chunk length, workers > n, one
        // chunk per worker and many: no index is skipped or repeated.
        for n in [2usize, 7, 80, 1_000, 10_007] {
            for workers in [2usize, 3, 8, 64] {
                let visits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
                let items: Vec<usize> = (0..n).collect();
                let out = execute(workers, &items, |i, &x| {
                    assert_eq!(i, x, "index matches item");
                    visits[i].fetch_add(1, Ordering::Relaxed);
                    x
                });
                assert_eq!(out, items, "n={n} workers={workers}");
                assert!(
                    visits.iter().all(|v| v.load(Ordering::Relaxed) == 1),
                    "n={n} workers={workers}: an index was skipped or repeated"
                );
            }
        }
    }

    #[test]
    fn execute_preserves_order() {
        let items: Vec<u64> = (0..500).collect();
        let out = execute(4, &items, |i, &x| {
            assert_eq!(i as u64, x);
            x * 3 + 1
        });
        assert_eq!(out, items.iter().map(|x| x * 3 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn skewed_costs_still_complete_in_order() {
        // A wildly skewed cost profile: item 0 is ~1000× the rest.
        // The batch must still complete with every output in place.
        let items: Vec<u32> = (0..64).collect();
        let out = execute(4, &items, |_, &x| {
            let spins = if x == 0 { 200_000 } else { 200 };
            let mut acc = x as u64;
            for i in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            (x, acc)
        });
        assert_eq!(out.len(), 64);
        for (i, (x, _)) in out.iter().enumerate() {
            assert_eq!(*x as usize, i);
        }
    }
}
