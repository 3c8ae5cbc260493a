//! The registry's update path looks a name up by `&str`; only the first
//! touch of a name may allocate (its key). Every page load's
//! end-of-load summary goes through it.
//!
//! One `#[test]` in its own binary: pq-prof's allocation counters are
//! process-global, so nothing else may run beside it.

#[test]
fn updating_an_existing_metric_allocates_nothing() {
    let reg = pq_obs::Registry::new();
    reg.counter_add("c", 1);

    pq_prof::set_alloc_enabled(true);
    pq_prof::reset_alloc();
    reg.counter_add("c", 2);
    let allocs = pq_prof::alloc_snapshot().total_allocs;
    pq_prof::set_alloc_enabled(false);
    pq_prof::reset_alloc();

    assert_eq!(allocs, 0, "second update of a name allocated");
    assert_eq!(reg.counter_value("c"), 3);
}
