//! The contract: the study digests ROADMAP, CI and CHANGES.md quote,
//! pinned where `cargo test` sees them. Each is the digest `pq runall`
//! (or `pq edge_cell`) prints at `PQ_SCALE=smoke PQ_SEED=1910`,
//! recomputed here through the public API. A digest that moves means
//! simulated behaviour moved: fix the change, or re-pin it here, in CI
//! and in ROADMAP with a CHANGES.md entry that says why.
//!
//! Fault plans are threaded explicitly, never installed process-wide,
//! so the tests share one binary and run on parallel threads.

use pq_bench::manifest::study_digest;
use pq_bench::{run_experiment_with_stacks, sites_for, Scale, CHAOS_SPEC};
use pq_fault::FaultPlan;
use pq_sim::NetworkKind;
use pq_study::{run_study_with, StimulusSet};
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

/// Build the grid under `faults`, run both studies, digest the data.
fn digest_of(
    sites: &[pq_web::Website],
    networks: &[NetworkKind],
    stacks: &[Protocol],
    runs: u32,
    faults: Option<Arc<FaultPlan>>,
) -> (StimulusSet, u64) {
    let stimuli = StimulusSet::build_with_faults(sites, networks, stacks, runs, SEED, faults);
    let data = run_study_with(&stimuli, &Protocol::pairs_for(stacks), stacks, SEED);
    let digest = study_digest(&data);
    (stimuli, digest)
}

#[test]
fn smoke_digest() {
    let e = run_experiment_with_stacks(Scale::Smoke, SEED, &Protocol::ALL);
    assert_eq!(study_digest(&e.data), 0xc0d5_0f06_ad80_383f);
}

#[test]
fn all_stacks_digest() {
    let e = run_experiment_with_stacks(Scale::Smoke, SEED, &Protocol::ALL_WITH_EDGE);
    assert_eq!(study_digest(&e.data), 0x8a90_2d5f_16d6_f348);
}

#[test]
fn chaos_digest() {
    let (stimuli, digest) = digest_of(
        &sites_for(Scale::Smoke),
        &NetworkKind::ALL,
        &Protocol::ALL,
        Scale::Smoke.params().1,
        chaos(),
    );
    assert_eq!(digest, 0x6a3c_5bc8_12eb_ed5d);
    assert_eq!(stimuli.quarantined().len(), 33);
    assert_eq!(stimuli.runs_retried(), 1189);
}

/// `pq edge_cell`: wikipedia.org × LTE × the edge stacks and their A/B
/// partners × 3 runs.
fn edge_cell(faults: Option<Arc<FaultPlan>>) -> u64 {
    let sites = [pq_web::site("wikipedia.org").expect("corpus site")];
    let mut stacks = vec![Protocol::Quic, Protocol::TcpPlus];
    stacks.extend(Protocol::EDGE);
    stacks.sort();
    digest_of(&sites, &[NetworkKind::Lte], &stacks, 3, faults).1
}

#[test]
fn edge_cell_digest() {
    assert_eq!(edge_cell(None), 0x06f2_4c09_67b3_4ec5);
}

#[test]
fn edge_cell_chaos_digest() {
    assert_eq!(edge_cell(chaos()), 0xf044_666b_5b07_8e01);
}
