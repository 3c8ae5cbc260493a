//! `pq edge_cell`: one edge grid cell for CI ([`pq_bench::edge_cell`]:
//! a single site on a single network, loaded over the edge stacks plus
//! their Table-1 A/B partners, run through both studies). Prints its
//! [`pq_bench::contract()`] tree as `<key> <value>` lines, which CI and
//! `crates/bench/tests/cli.rs` compare, at `PQ_JOBS=1` and `4`, with the
//! `edge_cell` (clean) or `edge_cell_chaos` run in `results/contract.txt`.
//!
//! The spec's seed and fault plan apply; its scale and stacks do not.

use pq_bench::{RunSpec, EDGE_CELL_RUNS};

pub fn run(spec: &RunSpec) {
    eprintln!(
        "[edge-cell] 1 site × 1 network × {} stacks × {EDGE_CELL_RUNS} runs, seed={}, jobs={}{}",
        pq_bench::edge_stacks().len(),
        spec.seed,
        pq_par::jobs(),
        spec.faults.as_ref().map_or("", |_| ", faults=ON"),
    );
    for (key, value) in pq_bench::contract(&pq_bench::edge_cell(spec)) {
        println!("{key} {value}");
    }
}
