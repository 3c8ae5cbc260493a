//! `pq edge_cell`: one edge grid cell for CI ([`pq_bench::edge_cell`]:
//! a single site on a single network, loaded over the edge stacks plus
//! their Table-1 A/B partners, run through both studies). Prints the
//! study digest, the `root` node of the `edge_cell` run (clean) and the
//! `edge_cell_chaos` run (under the chaos spec) in
//! `results/contract.txt`; CI and `crates/bench/tests/cli.rs` compare
//! it with that line at `PQ_JOBS=1` and `4`.
//!
//! The spec's seed and fault plan apply; its scale and stacks do not.

use pq_bench::manifest::study_digest;
use pq_bench::{RunSpec, EDGE_CELL_RUNS};

pub fn run(spec: &RunSpec) {
    eprintln!(
        "[edge-cell] 1 site × 1 network × {} stacks × {EDGE_CELL_RUNS} runs, seed={}, jobs={}{}",
        pq_bench::edge_stacks().len(),
        spec.seed,
        pq_par::jobs(),
        spec.faults.as_ref().map_or("", |_| ", faults=ON"),
    );
    println!(
        "study_digest={:016x}",
        study_digest(&pq_bench::edge_cell(spec).data)
    );
}
