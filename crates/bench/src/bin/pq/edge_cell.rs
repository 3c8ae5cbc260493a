//! `pq edge_cell`: one edge grid cell for CI — a single site on a
//! single network, loaded over the edge stacks plus their Table-1 A/B
//! partners, run through both studies. Prints the study digest so the
//! workflow can diff a `PQ_JOBS=4` execution against `PQ_JOBS=1` and
//! prove the edge pipeline keeps the parallel-determinism contract.
//!
//! `PQ_SEED` selects the seed (default 1910); `PQ_FAULTS` works as
//! everywhere else, so the chaos job can run the same cell faulted.

use pq_bench::manifest::study_digest;
use pq_sim::NetworkKind;
use pq_study::{run_study_with, StimulusSet};
use pq_transport::Protocol;

pub fn run() {
    let seed = pq_bench::seed_from_env();
    let jobs = pq_par::jobs();
    let faulted = pq_fault::init_from_env();
    let mut stacks = vec![Protocol::Quic, Protocol::TcpPlus];
    stacks.extend(Protocol::EDGE);
    stacks.sort();
    let sites = vec![pq_web::site("wikipedia.org").expect("corpus site")];
    let networks = [NetworkKind::Lte];
    let runs = 3;
    eprintln!(
        "[edge-cell] 1 site × 1 network × {} stacks × {runs} runs, seed={seed}, jobs={jobs}{}",
        stacks.len(),
        if faulted { ", faults=ON" } else { "" },
    );
    let stimuli = StimulusSet::build(&sites, &networks, &stacks, runs, seed);
    let pairs = Protocol::pairs_for(&stacks);
    let data = run_study_with(&stimuli, &pairs, &stacks, seed);
    println!("study_digest={:016x}", study_digest(&data));
}
