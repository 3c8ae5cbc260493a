//! An armed cell watchdog (`PQ_CELL_TIMEOUT_MS`) costs a batch no wall
//! time, and still reports a stalled task exactly once.
//!
//! Own integration-test binary with one test (own process): the
//! timeout override and the `par.watchdog_stalls` counter are
//! process-global.

use std::time::{Duration, Instant};

#[test]
fn armed_watchdog_adds_no_wall_time_and_warns_once_per_stall() {
    pq_par::set_jobs(Some(2));
    let items: Vec<u32> = (0..64).collect();

    // A 60 s budget polls every 200 ms. A watchdog that sleeps out its
    // quantum after the workers are done makes every batch that
    // outlives the watchdog's start-up take one: 20 batches, 4 s.
    // Parked and woken by the caller, 20 batches of 16 x 1 ms tasks on
    // two workers take ~0.2 s; the bound leaves room for a loaded
    // machine.
    pq_par::set_cell_timeout_ms(Some(60_000));
    let started = Instant::now();
    for _ in 0..20 {
        let out = pq_par::par_map(&items[..16], |&x| {
            std::thread::sleep(Duration::from_millis(1));
            x + 1
        });
        assert_eq!(out.len(), 16);
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(2_000),
        "20 short batches under an armed watchdog took {elapsed:?} (want well under 20 x 200 ms)"
    );

    // One task overruns a 100 ms budget (25 ms polls) several times
    // over: one warning, however many polls see it.
    let stalls = || pq_obs::registry().counter_value("par.watchdog_stalls");
    let before = stalls();
    pq_par::set_cell_timeout_ms(Some(100));
    let out = pq_par::par_map(&items, |&x| {
        if x == 5 {
            std::thread::sleep(Duration::from_millis(500));
        }
        x
    });
    pq_par::set_cell_timeout_ms(None);
    pq_par::set_jobs(None);
    assert_eq!(out, items);
    assert_eq!(stalls() - before, 1, "one stalled task, one warning");
}
