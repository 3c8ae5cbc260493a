//! `par.tasks` advances by exactly the batch size and the per-worker
//! `par.worker_tasks` counters sum to it.
//!
//! Own integration-test binary with one test (own process): the
//! registry is process-global, so exact deltas need a process no other
//! batch runs in.

fn worker_tasks(workers: usize) -> u64 {
    let reg = pq_obs::registry();
    (0..workers)
        .map(|id| reg.counter_value(&format!("par.worker_tasks{{worker=\"{id}\"}}")))
        .sum()
}

#[test]
fn tasks_counters_advance_by_exactly_the_batch_size() {
    let reg = pq_obs::registry();
    // n not a multiple of the chunk length; n smaller than 8 × workers.
    for (workers, n) in [(2usize, 1_000usize), (3, 10_007), (8, 80), (4, 7)] {
        let items: Vec<usize> = (0..n).collect();
        let (tasks, per_worker) = (reg.counter_value("par.tasks"), worker_tasks(workers));
        pq_par::set_jobs(Some(workers));
        let out = pq_par::par_map(&items, |&x| x);
        pq_par::set_jobs(None);
        assert_eq!(out, items);
        assert_eq!(
            reg.counter_value("par.tasks") - tasks,
            n as u64,
            "par.tasks, n={n} workers={workers}"
        );
        assert_eq!(
            worker_tasks(workers) - per_worker,
            n as u64,
            "sum of par.worker_tasks, n={n} workers={workers}"
        );
    }
}
