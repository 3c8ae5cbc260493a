//! The contract: the study digests ROADMAP, CI and CHANGES.md quote,
//! pinned where `cargo test` sees them. Each is the digest `pq runall`
//! (or `pq edge_cell`) prints at `PQ_SCALE=smoke PQ_SEED=1910`,
//! recomputed here through the public API. A digest that moves means
//! simulated behaviour moved: fix the change, or re-pin it here, in CI
//! and in ROADMAP with a CHANGES.md entry that says why.
//!
//! Each test runs its own `RunSpec`, so the tests share one binary and
//! run on parallel threads.

use pq_bench::manifest::study_digest;
use pq_bench::{edge_cell, run_experiment, RunSpec, Scale, CHAOS_SPEC};
use pq_fault::FaultPlan;
use pq_transport::Protocol;
use std::sync::Arc;

const SEED: u64 = 1910;

fn chaos() -> Option<Arc<FaultPlan>> {
    assert!(
        include_str!("../.github/workflows/ci.yml")
            .contains(&format!("PQ_FAULTS: \"{CHAOS_SPEC}\"")),
        "the CI chaos-smoke job must run pq_bench::CHAOS_SPEC verbatim"
    );
    Some(Arc::new(
        FaultPlan::parse(CHAOS_SPEC).expect("chaos spec parses"),
    ))
}

/// `PQ_SCALE=smoke PQ_SEED=1910` over `stacks`, under `faults`.
fn smoke(stacks: &[Protocol], faults: Option<Arc<FaultPlan>>) -> RunSpec {
    RunSpec {
        scale: Scale::Smoke,
        seed: SEED,
        stacks: stacks.to_vec(),
        faults,
    }
}

#[test]
fn smoke_digest() {
    let e = run_experiment(&smoke(&Protocol::ALL, None));
    assert_eq!(study_digest(&e.data), 0xc0d5_0f06_ad80_383f);
}

#[test]
fn all_stacks_digest() {
    let e = run_experiment(&smoke(&Protocol::ALL_WITH_EDGE, None));
    assert_eq!(study_digest(&e.data), 0x8a90_2d5f_16d6_f348);
}

#[test]
fn chaos_digest() {
    let e = run_experiment(&smoke(&Protocol::ALL, chaos()));
    assert_eq!(study_digest(&e.data), 0x6a3c_5bc8_12eb_ed5d);
    assert_eq!(e.stimuli.quarantined().len(), 33);
    assert_eq!(e.stimuli.runs_retried(), 1189);
}

#[test]
fn edge_cell_digest() {
    let digest = study_digest(&edge_cell(&smoke(&Protocol::ALL, None)));
    assert_eq!(digest, 0x06f2_4c09_67b3_4ec5);
}

#[test]
fn edge_cell_chaos_digest() {
    let digest = study_digest(&edge_cell(&smoke(&Protocol::ALL, chaos())));
    assert_eq!(digest, 0xf044_666b_5b07_8e01);
}
