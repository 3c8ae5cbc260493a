//! The contract: `results/contract.txt` holds the
//! [`pq_bench::contract()`] tree of six runs, one `<run> <key> <value>`
//! line per node — each stimulus cell's metrics and events, the votes,
//! funnels and sessions, the grid's retries, quarantines, loads, events
//! and faults, the text of every `pq` view and the `root` study digest. At `PQ_SCALE=smoke
//! PQ_SEED=1910`, `pq runall`'s manifest carries the `smoke` (or
//! `chaos`) tree and `pq edge_cell` prints the `edge_cell` (or
//! `edge_cell_chaos`) tree. Each test recomputes one run through the
//! public API and compares it line by line.
//!
//! The participants, hence the `sessions` node, depend only on the
//! study seed, not on the grid: the five runs at seed 1910 share one
//! `sessions` hash, and only `quic_mbx` (seed 9) has its own.
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
use pq_bench::{contract, Experiment, RunSpec, Scale, CHAOS_SPEC};
use pq_transport::Protocol;
use std::sync::Mutex;

/// Every contract run, in file order.
const RUNS: [&str; 6] = [
    "smoke",
    "chaos",
    "all_stacks",
    "edge_cell",
    "edge_cell_chaos",
    "quic_mbx",
];

/// `PQ_SCALE=smoke PQ_SEED=1910` over `stacks`.
fn smoke(stacks: &[Protocol]) -> RunSpec {
    RunSpec {
        stacks: stacks.to_vec(),
        ..RunSpec::at(Scale::Smoke)
    }
}

/// [`smoke`] over Table 1's stacks under `PQ_FAULTS=`[`CHAOS_SPEC`].
fn chaos() -> RunSpec {
    assert!(
        include_str!("../.github/workflows/ci.yml")
            .contains(&format!("PQ_FAULTS: \"{CHAOS_SPEC}\"")),
        "the CI chaos-smoke job must run pq_bench::CHAOS_SPEC verbatim"
    );
    let spec = smoke(&Protocol::ALL).with_faults(CHAOS_SPEC);
    spec.expect("the chaos spec parses")
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
    holds("smoke", &smoke(&Protocol::ALL).run());
}

#[test]
fn all_stacks_digest() {
    holds("all_stacks", &smoke(&Protocol::ALL_WITH_EDGE).run());
}

#[test]
fn chaos_digest() {
    holds("chaos", &chaos().run());
}

#[test]
fn edge_cell_digest() {
    holds("edge_cell", &smoke(&Protocol::ALL).edge_cell().run());
}

#[test]
fn edge_cell_chaos_digest() {
    holds("edge_cell_chaos", &chaos().edge_cell().run());
}

#[test]
fn quic_mbx_digest() {
    holds("quic_mbx", &common::quic_mbx());
}
