//! `pq runall`: every table and figure in paper order over one shared
//! experiment execution, then the machine-readable run manifest
//! (`results/manifest.json`, see [`pq_bench::manifest::manifest_json`]).
//!
//! A killed `runall` is rerun, not resumed: every grid cell is a pure
//! function of `(seed, coordinates)`, so the rerun's `study_digest` is
//! the one the killed run would have written. The manifest goes
//! through `atomic_write`, so a kill never leaves a torn one, and the
//! temp files a killed write leaves behind are swept at start.

use crate::{Cmd, COMMANDS};
use pq_bench::manifest::{manifest_json, write_json};
use pq_bench::{report, RunSpec};

pub fn run(spec: &RunSpec) {
    if let Err(err) = pq_ckpt::recover_stale_temps("results") {
        eprintln!("[runall] could not sweep results/ for stale temp files: {err}");
    }
    let mut timer = pq_obs::PhaseTimer::new();
    timer.phase("table1", report::print_table1);
    timer.phase("table2", report::print_table2);
    let e = timer.phase("experiment", || crate::experiment("runall", spec));
    for (name, cmd) in COMMANDS {
        if let Cmd::View(print) = cmd {
            timer.phase(name, || print(&e));
        }
    }
    match write_json("results/manifest.json", &manifest_json(&e, &timer)) {
        Ok(()) => eprintln!("[runall] wrote results/manifest.json"),
        Err(err) => eprintln!("[runall] failed to write manifest: {err}"),
    }
}
