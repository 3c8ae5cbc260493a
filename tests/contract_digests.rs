//! The contract: `results/contract.txt` holds the
//! [`pq_bench::contract()`] tree of six runs, one `<run> <key> <value>`
//! line per node — each stimulus cell's metrics, the votes, funnels
//! and sessions, the grid's retries and quarantines, the text of every
//! `pq` view and the `root` study digest that `pq runall` and `pq
//! edge_cell` print at `PQ_SCALE=smoke PQ_SEED=1910`. Each test
//! recomputes one run through the public API and compares it line by
//! line.
//!
//! A run that moved fails naming the run, every node that moved and,
//! for a cell, each field, and writes the whole tree this binary
//! computed (the committed file with each failing run's lines
//! replaced) to `$CARGO_TARGET_TMPDIR/contract.txt`. A moved node means
//! simulated behaviour moved: fix the change, or, in a contract change
//! (ROADMAP 1(b)), copy that file over `results/contract.txt` and say
//! in CHANGES.md which nodes moved and why.
//!
//! Each test runs its own experiment, so the tests share one binary and
//! run on parallel threads.

mod common;

use common::committed;
use pq_bench::contract::diff;
use pq_bench::{contract, edge_cell, run_experiment, Experiment, RunSpec, Scale, CHAOS_SPEC};
use pq_fault::FaultPlan;
use pq_transport::Protocol;
use std::sync::{Arc, Mutex};

/// Every contract run, in file order.
const RUNS: [&str; 6] = [
    "smoke",
    "chaos",
    "all_stacks",
    "edge_cell",
    "edge_cell_chaos",
    "quic_mbx",
];

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
        seed: 1910,
        stacks: stacks.to_vec(),
        faults,
    }
}

type Tree = Vec<(String, String)>;

/// The runs whose tree moved in this process, with what they computed.
static MOVED: Mutex<Vec<(&str, Tree)>> = Mutex::new(Vec::new());

/// Hold `run`'s tree of `e` to its committed lines.
fn holds(run: &'static str, e: &Experiment) {
    let actual = contract(e);
    let moved = diff(&committed(run), &actual);
    if moved.is_empty() {
        return;
    }
    let mut runs = MOVED.lock().unwrap_or_else(|e| e.into_inner());
    runs.push((run, actual));
    let mut text = String::new();
    for r in RUNS {
        let tree = match runs.iter().find(|(m, _)| *m == r) {
            Some((_, tree)) => tree.clone(),
            None => committed(r),
        };
        for (key, value) in tree {
            text.push_str(&format!("{r} {key} {value}\n"));
        }
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("contract.txt");
    std::fs::write(&path, text).expect("write the actual tree");
    panic!(
        "run `{run}`: {} node(s) moved, first to last:\n{}\nthe whole tree is in {}",
        moved.len(),
        moved.join("\n"),
        path.display()
    );
}

#[test]
fn smoke_digest() {
    holds("smoke", &run_experiment(&smoke(&Protocol::ALL, None)));
}

#[test]
fn all_stacks_digest() {
    let e = run_experiment(&smoke(&Protocol::ALL_WITH_EDGE, None));
    holds("all_stacks", &e);
}

#[test]
fn chaos_digest() {
    holds("chaos", &run_experiment(&smoke(&Protocol::ALL, chaos())));
}

#[test]
fn edge_cell_digest() {
    holds("edge_cell", &edge_cell(&smoke(&Protocol::ALL, None)));
}

#[test]
fn edge_cell_chaos_digest() {
    holds(
        "edge_cell_chaos",
        &edge_cell(&smoke(&Protocol::ALL, chaos())),
    );
}

#[test]
fn quic_mbx_digest() {
    holds("quic_mbx", &common::quic_mbx());
}
