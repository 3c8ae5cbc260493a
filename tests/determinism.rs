//! Cross-crate parallel-determinism suite: the `pq-par` execution
//! engine must never change a single bit of pipeline output.
//!
//! Strategy: run the same pipeline with the worker count forced to 1
//! (the serial reference), 2 and 8 via `pq_par::set_jobs`, and compare
//! the [`contract`] trees: every stimulus's metrics by value (floats
//! round-trip), and the votes, funnels, sessions and printed views by
//! hash. Every stage derives its RNG purely from `(seed, cell
//! indices)`, so chunk placement and worker count are invisible in the
//! data — this suite is the proof.
//!
//! The worker-count override is process-global, so the tests that
//! sweep it serialise on one mutex.

mod common;

use common::{committed, experiment};
use pq_bench::contract::diff;
use pq_bench::{contract, Experiment};
use pq_sim::NetworkKind;
use pq_study::session::{population, StudyKind};
use pq_study::Group;
use pq_transport::Protocol;
use std::sync::Mutex;

static JOBS_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` under a forced worker count, restoring auto-detection after.
fn with_jobs<R>(jobs: usize, f: impl FnOnce() -> R) -> R {
    pq_par::set_jobs(Some(jobs));
    let out = f();
    pq_par::set_jobs(None);
    out
}

/// `run`'s contract tree at each of `jobs` workers is the serial one;
/// a failure names every node that moved.
fn tree_holds_across_jobs(jobs: &[usize], run: impl Fn() -> Experiment) {
    let serial = contract(&with_jobs(1, &run));
    for &n in jobs {
        let moved = diff(&serial, &contract(&with_jobs(n, &run)));
        assert!(moved.is_empty(), "jobs=1 vs {n}:\n{}", moved.join("\n"));
    }
}

#[test]
fn stimulus_set_bit_identical_across_jobs_1_2_8() {
    let _g = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (networks, stacks) = (
        [NetworkKind::Dsl, NetworkKind::Mss],
        [Protocol::Tcp, Protocol::Quic],
    );
    tree_holds_across_jobs(&[2, 8], || experiment(&networks, &stacks, 3, 1910, 1910));
}

#[test]
fn study_data_bit_identical_across_jobs_1_2_8() {
    let _g = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // The study design touches every network × protocol, so build the
    // full (small-site) grid once per worker count.
    tree_holds_across_jobs(&[2, 8], || {
        experiment(&NetworkKind::ALL, &Protocol::ALL, 2, 77, 9)
    });
}

/// Profiling must be strictly off-path: allocation attribution and
/// span collection on vs off may not move a single bit of the
/// contract tree, serial or parallel.
#[test]
fn study_digest_identical_with_profiling_on_and_off() {
    let _g = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let tree = || contract(&experiment(&NetworkKind::ALL, &Protocol::ALL, 2, 77, 9));
    for jobs in [1usize, 4] {
        pq_prof::configure(false, false);
        pq_prof::reset();
        let plain = with_jobs(jobs, tree);
        pq_prof::configure(true, true);
        pq_prof::reset();
        let profiled = with_jobs(jobs, tree);
        assert_emitted_names_are_declared();
        pq_prof::configure(false, false);
        pq_prof::reset();
        let moved = diff(&plain, &profiled);
        assert!(
            moved.is_empty(),
            "profiling perturbed the tree at jobs={jobs}:\n{}",
            moved.join("\n")
        );
    }
}

/// Every series the run put in the registry and every frame the
/// profiler recorded must be declared in `pq_obs::names` — checked on
/// what was emitted, formatted names included.
fn assert_emitted_names_are_declared() {
    use pq_obs::names::{METRIC_NAMES, SPAN_NAMES};
    for series in pq_obs::registry().snapshot().keys() {
        let name = series.split('{').next().unwrap_or(series);
        assert!(
            METRIC_NAMES.contains(&name),
            "metric {series:?} is emitted but not declared in METRIC_NAMES"
        );
    }
    let declared = |frame: &str| {
        SPAN_NAMES
            .iter()
            .any(|n| frame == *n || (n.ends_with(':') && frame.starts_with(n)))
    };
    let folded = pq_prof::folded();
    assert!(!folded.is_empty(), "the profiled run recorded no spans");
    for frame in folded.iter().flat_map(|(path, ..)| path.split(';')) {
        assert!(
            declared(frame),
            "span {frame:?} is emitted but not declared in SPAN_NAMES"
        );
    }
}

/// The edge stacks (terminating proxy + middlebox) ride the same
/// determinism contract: a grid containing all three, studied against
/// their Table-1 partners, must be bit-identical at any worker count.
#[test]
fn edge_study_bit_identical_across_jobs_1_4() {
    let _g = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let stacks = pq_bench::edge_stacks();
    tree_holds_across_jobs(&[4], || {
        experiment(&[NetworkKind::Dsl], &stacks, 2, 1910, 1910)
    });
}

/// The `quic_mbx` contract run holds its tree at every worker count,
/// and its root is the one `results/contract.txt` pins (where
/// `tests/contract_digests.rs` holds the rest of its tree).
#[test]
fn quic_mbx_digest_is_pinned_across_jobs_1_2_8() {
    let _g = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    tree_holds_across_jobs(&[2, 8], common::quic_mbx);
    let root = |tree: Vec<(String, String)>| tree.into_iter().find(|(k, _)| k == "root");
    assert_eq!(
        root(contract(&with_jobs(1, common::quic_mbx))),
        root(committed("quic_mbx")),
        "the QUIC-MBX study digest moved"
    );
}

#[test]
fn population_bit_identical_across_jobs_1_2_8() {
    let _g = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // `{:?}` prints every field, floats in round-trip form.
    let sample = || {
        format!(
            "{:?}",
            population(StudyKind::Rating, Group::MicroWorker, 41)
        )
    };
    let serial = with_jobs(1, sample);
    for jobs in [2usize, 8] {
        assert!(
            serial == with_jobs(jobs, sample),
            "population moved at jobs={jobs}"
        );
    }
}
