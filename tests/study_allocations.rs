//! What a study run costs the heap is part of the contract.
//!
//! Both studies append their votes straight into one vector per study,
//! and on one worker nothing is allocated per participant (DESIGN.md
//! §5). One `run_study_with` on one worker therefore makes a
//! few dozen allocations however many participants it recruits; a
//! per-participant vector would add one allocation per session, 2 547
//! of them here.
//!
//! One `#[test]` in its own binary: the counting allocator and the
//! worker-count override are process-global, so nothing else may run
//! beside it.

use perceiving_quic::prelude::*;
use perceiving_quic::study::run_study_with;

/// Allocations and peak live bytes of one `run_study_with` at
/// `PQ_JOBS=1` over [`stimuli`], study seed 1911: the measured value
/// plus 10 % headroom for toolchain drift, rounded up (measured: 89
/// allocations, 3 354 468 bytes at peak; before the studies appended
/// into one vector: 13 299 allocations, 4 205 204 bytes at peak). Lower
/// them when a study run gets leaner.
const MAX_ALLOCS: u64 = 98;
const MAX_PEAK_BYTES: u64 = 3_689_915;

/// Two sites × every network × the five Table 1 stacks, one run each.
fn stimuli() -> StimulusSet {
    let grid = pq_bench::RunSpec {
        sites: ["apache.org", "wikipedia.org"]
            .map(|n| site(n).expect("corpus site"))
            .to_vec(),
        runs: 1,
        ..pq_bench::RunSpec::default()
    };
    grid.stimuli()
}

#[test]
fn a_study_run_allocates_per_study_not_per_participant() {
    pq_par::set_jobs(Some(1));
    let stimuli = stimuli();
    let run = |seed| run_study_with(&stimuli, &Protocol::AB_PAIRS, &Protocol::ALL, seed);
    // A first run takes every first-use cost in the process (the
    // tracer, the environment) out of the count.
    drop(run(1910));

    pq_prof::reset_alloc();
    pq_prof::set_alloc_enabled(true);
    let data = run(1911);
    let heap = pq_prof::alloc_snapshot();
    pq_prof::set_alloc_enabled(false);
    pq_prof::reset_alloc();
    pq_par::set_jobs(None);

    let sessions = data.sessions_ab.len() + data.sessions_rating.len();
    println!(
        "{} allocations, {} bytes, {} bytes at peak over {sessions} sessions",
        heap.total_allocs, heap.total_bytes, heap.peak_bytes
    );
    assert!(
        heap.total_allocs <= MAX_ALLOCS,
        "{} allocations, ceiling {MAX_ALLOCS} — something allocates per participant \
         ({sessions} sessions) or per vote",
        heap.total_allocs
    );
    assert!(
        heap.peak_bytes <= MAX_PEAK_BYTES,
        "{} bytes live at peak, ceiling {MAX_PEAK_BYTES}",
        heap.peak_bytes
    );
}
