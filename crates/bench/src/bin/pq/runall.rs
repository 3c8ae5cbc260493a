//! `pq runall`: every table and figure in paper order over one shared
//! experiment execution, then the machine-readable run manifest
//! (`results/manifest.json`, see [`pq_bench::manifest::manifest_json`]),
//! whose contract tree hashes the very text each view printed.
//!
//! A killed `runall` is rerun, not resumed: every grid cell is a pure
//! function of `(seed, coordinates)`, so the rerun writes the tree the
//! killed run would have written. The manifest goes through
//! `atomic_write`, so a kill never leaves a torn one, and the temp
//! files a killed write leaves behind are swept, and reported, at
//! start.

use pq_bench::manifest::manifest_json;
use pq_bench::{contract, report, RunSpec};

pub fn run(spec: &RunSpec) {
    match pq_ckpt::recover_stale_temps("results") {
        Ok(removed) => {
            for path in removed {
                pq_obs::tracer().warn(
                    "ckpt",
                    format!("recovery: removed stale temp file {}", path.display()),
                );
            }
        }
        Err(err) => eprintln!("[runall] could not sweep results/ for stale temp files: {err}"),
    }
    let mut timer = pq_obs::PhaseTimer::new();
    timer.phase("table1", report::print_table1);
    timer.phase("table2", report::print_table2);
    let e = timer.phase("experiment", || crate::experiment("runall", spec));
    let views = report::VIEWS.map(|(name, view)| {
        timer.phase(name, || {
            let text = report::render(view, &e);
            print!("{text}");
            text
        })
    });
    let manifest = manifest_json(&e, &timer, contract::tree(&e, &views)).to_pretty();
    match pq_ckpt::atomic_write("results/manifest.json", manifest.as_bytes()) {
        Ok(()) => eprintln!("[runall] wrote results/manifest.json"),
        Err(err) => eprintln!("[runall] failed to write manifest: {err}"),
    }
}
